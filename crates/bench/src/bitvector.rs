//! Figure 13's bitvector configurations ("BV" and "BV w/ split"), the one
//! dataflow this harness wires straight onto the simulator.
//!
//! The SAM graph IR has no bitvector scanner or intersecter node kinds,
//! so these two kernels instantiate the `sam-primitives` bitvector blocks
//! (paper Section 4.3) into a `sam-sim` simulator by hand. Every other
//! figure runs an IR graph through `sam_exec::ExecRequest`.

use sam_primitives::bitvector::{
    bit_result_sink, BitTreeVecMul, BitvectorIntersecter, BitvectorScanner, BitvectorVecMul,
};
use sam_primitives::root_stream;
use sam_sim::Simulator;
use sam_tensor::level::{BitvectorLevel, Level};
use sam_tensor::{CooTensor, LevelFormat, Tensor, TensorFormat};
use std::sync::Arc;

/// Cycle budget of one bitvector run.
const MAX_CYCLES: u64 = 200_000_000;

/// A bitvector level plus its values, shared with simulator blocks.
type BvOperand = (Arc<BitvectorLevel>, Arc<Vec<f64>>);

fn operand(v: &CooTensor, width: u8) -> BvOperand {
    let t = Tensor::from_coo("v", v, TensorFormat::new(vec![LevelFormat::Bitvector { word_width: width }]));
    let Level::Bitvector(level) = t.level(0) else { unreachable!("bitvector format") };
    (Arc::new(level.clone()), Arc::new(t.vals().to_vec()))
}

/// `x(i) = b(i) * c(i)` over one bitvector level per operand: one word of
/// each operand is scanned, intersected and multiplied (all lanes at once)
/// per cycle. Returns the result and its cycles.
///
/// # Panics
///
/// Panics when the simulation does not finish.
pub fn vec_elem_mul(b: &CooTensor, c: &CooTensor, dim: usize, width: u8) -> (Tensor, u64) {
    let ((lb, vb), (lc, vc)) = (operand(b, width), operand(c, width));
    let mut sim = Simulator::new();
    let [rb, rc, b_bits, b_refs, c_bits, c_refs, inter, pairs] =
        ["b_root", "c_root", "b_bits", "b_refs", "c_bits", "c_refs", "intersected", "pairs"]
            .map(|name| sim.add_channel(name));
    sim.preload(rb, root_stream());
    sim.preload(rc, root_stream());
    let sink = bit_result_sink();
    sim.add_block(Box::new(BitvectorScanner::new("b_scan", lb.clone(), rb, b_bits, b_refs)));
    sim.add_block(Box::new(BitvectorScanner::new("c_scan", lc.clone(), rc, c_bits, c_refs)));
    sim.add_block(Box::new(BitvectorIntersecter::new(
        "bv_int",
        [b_bits, c_bits],
        [b_refs, c_refs],
        inter,
        pairs,
    )));
    sim.add_block(Box::new(BitvectorVecMul::new("bv_mul", lb, lc, vb, vc, inter, sink.clone())));
    let report = sim.run(MAX_CYCLES).expect("bitvector multiply simulation");
    let pairs = sink.lock().expect("bitvector result sink").clone();
    (vector(&pairs, dim), report.cycles)
}

/// `x(i) = b(i) * c(i)` over a two-level bit-tree per operand (the paper's
/// "BV w/ split"): empty upper-level words skip whole regions. Returns the
/// result and its cycles.
///
/// # Panics
///
/// Panics when the simulation does not finish.
pub fn vec_elem_mul_tree(b: &CooTensor, c: &CooTensor, dim: usize, width: u8) -> (Tensor, u64) {
    let ((lb, vb), (lc, vc)) = (operand(b, width), operand(c, width));
    let sink = bit_result_sink();
    let mut sim = Simulator::new();
    let progress = sim.add_channel("progress");
    sim.add_block(Box::new(BitTreeVecMul::new("bt_mul", lb, lc, vb, vc, progress, sink.clone())));
    let report = sim.run(MAX_CYCLES).expect("bit-tree multiply simulation");
    let pairs = sink.lock().expect("bit-tree result sink").clone();
    (vector(&pairs, dim), report.cycles)
}

/// The compressed result vector of `(coordinate, value)` pairs.
fn vector(pairs: &[(u32, f64)], dim: usize) -> Tensor {
    let mut coo = CooTensor::new(vec![dim]);
    for &(i, v) in pairs {
        coo.push(&[i], v).expect("in bounds");
    }
    Tensor::from_coo("x", &coo, TensorFormat::sparse_vec())
}
