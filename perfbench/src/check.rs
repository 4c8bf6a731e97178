//! The correctness gate: every output is compared exactly with
//! `sam_tensor::reference` dense evaluation, computed outside every timed
//! span.
//!
//! The dense evaluator walks the full index space, which is cubic for
//! SpM*SpM; to keep the reference affordable at the tiled workload's
//! dimensions it runs on the coordinates the operands actually store.
//! Each index variable's range shrinks to the union of the coordinates
//! that any operand holds along it: a coordinate no operand stores
//! contributes only zeros, so the compacted result, scattered back, is the
//! full dense result.

use sam_exec::Execution;
use sam_tensor::expr::Assignment;
use sam_tensor::reference::Environment;
use sam_tensor::{CooTensor, DenseTensor};
use std::collections::BTreeMap;

/// The expected output of one request: dense data in the output's shape
/// (`[1]` for a scalar result).
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub shape: Vec<usize>,
    pub data: Vec<f64>,
}

/// Evaluates `assignment` with the dense reference over the compacted
/// index space and scatters the result back to full size.
pub fn reference(
    assignment: &Assignment,
    operands: &[(String, CooTensor)],
    scalars: &[(String, f64)],
) -> Expected {
    let accesses = assignment.rhs.accesses();
    let operand = |name: &str| operands.iter().find(|(n, _)| n == name).map(|(_, c)| c);
    // Per index variable: its full extent and the sorted coordinates used.
    let mut full: BTreeMap<char, usize> = BTreeMap::new();
    let mut used: BTreeMap<char, Vec<u32>> = BTreeMap::new();
    for (name, vars) in &accesses {
        let Some(coo) = operand(name) else { continue };
        for (pos, &var) in vars.iter().enumerate() {
            full.insert(var, coo.shape()[pos]);
            let coords = used.entry(var).or_default();
            coords.extend(coo.entries().iter().map(|(p, _)| p[pos]));
        }
    }
    for coords in used.values_mut() {
        coords.sort_unstable();
        coords.dedup();
        // An empty operand stores nothing; one unstored coordinate keeps
        // the dense extent positive and contributes only zeros.
        if coords.is_empty() {
            coords.push(0);
        }
    }
    let compact = |var: char, c: u32| used[&var].binary_search(&c).expect("stored coordinate") as u32;
    let mut env = Environment::new();
    for (name, vars) in &accesses {
        let Some(coo) = operand(name) else { continue };
        let shape: Vec<usize> = vars.iter().map(|v| used[v].len()).collect();
        let mut dense = DenseTensor::zeros(shape);
        for (p, value) in coo.entries() {
            let at: Vec<u32> = vars.iter().zip(p).map(|(&v, &c)| compact(v, c)).collect();
            *dense.at_mut(&at) += value;
        }
        env.insert(name, dense);
    }
    for (name, value) in scalars {
        env.insert_scalar(name, *value);
    }
    for (var, coords) in &used {
        env.set_dim(*var, coords.len());
    }
    let small = env.evaluate(assignment).expect("reference evaluation of a generated case");
    let targets = &assignment.target_indices;
    if targets.is_empty() {
        return Expected { shape: vec![1], data: small.data().to_vec() };
    }
    let shape: Vec<usize> = targets.iter().map(|v| full[v]).collect();
    let mut out = DenseTensor::zeros(shape.clone());
    let mut point = vec![0u32; targets.len()];
    let small_shape = small.shape().to_vec();
    for (flat, &value) in small.data().iter().enumerate() {
        if value == 0.0 {
            continue;
        }
        let mut rest = flat;
        for d in (0..targets.len()).rev() {
            let c = rest % small_shape[d];
            rest /= small_shape[d];
            point[d] = used[&targets[d]][c];
        }
        *out.at_mut(&point) = value;
    }
    Expected { shape, data: out.data().to_vec() }
}

/// Whether `run` produced exactly `expected`.
pub fn matches(run: &Execution, expected: &Expected) -> bool {
    match &run.output {
        Some(tensor) => {
            let dense = tensor.to_dense();
            dense.shape() == expected.shape.as_slice() && dense.data() == expected.data.as_slice()
        }
        None => run.vals.as_slice() == expected.data.as_slice(),
    }
}

/// Dense reference straight from `sam_tensor::reference`, without
/// compaction — the tests use it to check [`reference`].
#[cfg(test)]
pub fn plain_reference(
    assignment: &Assignment,
    operands: &[(String, CooTensor)],
    scalars: &[(String, f64)],
) -> Expected {
    let mut env = Environment::new();
    for (name, coo) in operands {
        let format = sam_tensor::TensorFormat::dense(coo.order());
        env.insert(name, sam_tensor::Tensor::from_coo(name, coo, format).to_dense());
    }
    for (name, value) in scalars {
        env.insert_scalar(name, *value);
    }
    env.bind_dims(assignment, &[]);
    let out = env.evaluate(assignment).expect("reference");
    Expected { shape: out.shape().to_vec(), data: out.data().to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn compacted_reference_equals_the_plain_dense_one() {
        let mut cases = gen::kernel_set(40, 11);
        cases.extend(gen::tiled_set(&[64, 128], 30, 11));
        for case in cases {
            let assignment = custard::parse(&case.text).expect("generated text parses");
            assert_eq!(
                reference(&assignment, &case.operands, &case.scalars),
                plain_reference(&assignment, &case.operands, &case.scalars),
                "{}",
                case.name
            );
        }
    }
}
