//! Seeded inputs. Every workload's operands come from here and from the
//! `--seed` argument alone; the program under test only ever sees the
//! generated tensors.
//!
//! All values are small integers (as in `sam_serve::table1_workload`), so
//! every partial sum is exact and outputs compare bit for bit against the
//! dense reference, whatever order a backend accumulates in. No generator
//! forces an operand to be non-empty.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sam_core::graph::SamGraph;
use sam_core::graphs;
use sam_core::kernels::spmm::SpmmDataflow;
use sam_tensor::{synth, CooTensor, TensorFormat};

/// Per-operand generator seed derived from the workload seed.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Maps synthetic values in `[0.5, 1.5)` to the integers 1..=9.
fn int_coo(coo: &CooTensor) -> CooTensor {
    CooTensor::from_entries(
        coo.shape().to_vec(),
        coo.entries().iter().map(|(p, v)| (p.clone(), (v * 8.0).round() - 3.0)).collect(),
    )
    .expect("integerized tensor keeps its coordinates")
}

/// One expression with its operands: what a caller hands to custard and
/// `Inputs`.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub text: String,
    /// `Schedule::reorder` directive, if any.
    pub order: Option<&'static str>,
    /// Per-operand format overrides handed to custard.
    pub formats: Vec<(String, TensorFormat)>,
    pub operands: Vec<(String, CooTensor)>,
    pub scalars: Vec<(String, f64)>,
    /// A hand-wired catalog graph to run instead of compiling `text`
    /// (whose formats then come from `formats`).
    pub graph: Option<SamGraph>,
}

struct CaseBuilder {
    seed: u64,
    next: u64,
}

impl CaseBuilder {
    fn seed(&mut self) -> u64 {
        self.next += 1;
        sub_seed(self.seed, self.next)
    }
    fn vector(&mut self, dim: usize, nnz: usize) -> CooTensor {
        let s = self.seed();
        int_coo(&synth::random_vector(dim, nnz.min(dim), s))
    }
    /// `nnz` nonzeros, one at a random place in each of `nnz` equal
    /// blocks. The skipped distances of a co-iteration against it (and so
    /// its simulated cycles) then vary little from seed to seed; uniform
    /// placement swings them severalfold.
    fn stratified_vector(&mut self, dim: usize, nnz: usize) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(self.seed());
        let block = dim / nnz.max(1);
        let entries = (0..nnz)
            .map(|b| (vec![(b * block + rng.gen_range(0..block)) as u32], f64::from(rng.gen_range(1..10u32))))
            .collect();
        CooTensor::from_entries(vec![dim], entries).expect("in-bounds coordinates")
    }
    fn matrix(&mut self, rows: usize, cols: usize, density: f64) -> CooTensor {
        let s = self.seed();
        int_coo(&synth::random_matrix_sparsity(rows, cols, 1.0 - density, s))
    }
    fn tensor3(&mut self, side: usize, density: f64) -> CooTensor {
        let s = self.seed();
        let nnz = ((side * side * side) as f64 * density).round() as usize;
        int_coo(&synth::random_tensor3([side; 3], nnz, s))
    }
}

fn case(name: &str, text: &str, operands: Vec<(&str, CooTensor)>) -> Case {
    Case {
        name: name.to_string(),
        text: text.to_string(),
        order: None,
        formats: Vec::new(),
        operands: operands.into_iter().map(|(n, c)| (n.to_string(), c)).collect(),
        scalars: Vec::new(),
        graph: None,
    }
}

/// The twelve Table 1 expressions plus a skewed SpMV co-iteration, with
/// operands sized by `dim` the way the bench crate's `table1_case(dim)`
/// sizes the shared ones (order-3 operands use side `dim / 10`).
pub fn kernel_set(dim: usize, seed: u64) -> Vec<Case> {
    let mut g = CaseBuilder { seed, next: 0 };
    let (d, h, t) = (dim, dim / 2, (dim / 10).max(2));
    let mut spmm = case(
        "SpM*SpM",
        "X(i,j) = B(i,k) * C(k,j)",
        vec![("B", g.matrix(d, h, 0.05)), ("C", g.matrix(h, d, 0.05))],
    );
    spmm.order = Some("ikj");
    let mut sddmm = case(
        "SDDMM",
        "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
        vec![("B", g.matrix(h, h, 0.05)), ("C", g.matrix(h, 8, 1.0)), ("D", g.matrix(h, 8, 1.0))],
    );
    sddmm.formats = vec![("C".into(), TensorFormat::dense(2)), ("D".into(), TensorFormat::dense(2))];
    let mut mat_trans_mul = case(
        "MatTransMul",
        "x(i) = alpha * B(j,i) * c(j) + beta * d(i)",
        vec![("B", g.matrix(d, d, 0.05)), ("c", g.vector(d, d / 3)), ("d", g.vector(d, d / 3))],
    );
    mat_trans_mul.scalars = vec![("alpha".into(), 2.0), ("beta".into(), -3.0)];
    // A dense-ish matrix stored dense against a very sparse vector (2.5%):
    // custard emits a coordinate-skip edge, so the sparse side drives the
    // intersection and the matrix row is galloped, not streamed.
    let mut skew = case(
        "SpMV-skew",
        "x(i) = B(i,j) * c(j)",
        vec![("B", g.matrix(d, 5 * d, 0.8)), ("c", g.stratified_vector(5 * d, d / 8))],
    );
    skew.formats = vec![("B".into(), TensorFormat::dense(2))];
    vec![
        case("SpMV", "x(i) = B(i,j) * c(j)", vec![("B", g.matrix(d, d, 0.05)), ("c", g.vector(d, d / 2))]),
        spmm,
        sddmm,
        case(
            "InnerProd",
            "chi() = B(i,j,k) * C(i,j,k)",
            vec![("B", g.tensor3(t, 0.05)), ("C", g.tensor3(t, 0.05))],
        ),
        case("TTV", "X(i,j) = B(i,j,k) * c(k)", vec![("B", g.tensor3(t, 0.05)), ("c", g.vector(t, t / 2))]),
        case(
            "TTM",
            "X(i,j,k) = B(i,j,l) * C(k,l)",
            vec![("B", g.tensor3(t, 0.05)), ("C", g.matrix(t, t, 0.2))],
        ),
        case(
            "MTTKRP",
            "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",
            vec![("B", g.tensor3(t, 0.05)), ("C", g.matrix(t, t, 0.2)), ("D", g.matrix(t, t, 0.2))],
        ),
        case(
            "Residual",
            "x(i) = b(i) - C(i,j) * d(j)",
            vec![("b", g.vector(d, d / 3)), ("C", g.matrix(d, d, 0.05)), ("d", g.vector(d, d / 3))],
        ),
        mat_trans_mul,
        case(
            "MMAdd",
            "X(i,j) = B(i,j) + C(i,j)",
            vec![("B", g.matrix(d, d, 0.1)), ("C", g.matrix(d, d, 0.1))],
        ),
        case(
            "Plus3",
            "X(i,j) = B(i,j) + C(i,j) + D(i,j)",
            vec![("B", g.matrix(d, d, 0.1)), ("C", g.matrix(d, d, 0.1)), ("D", g.matrix(d, d, 0.1))],
        ),
        case(
            "Plus2",
            "X(i,j,k) = B(i,j,k) + C(i,j,k)",
            vec![("B", g.tensor3(t, 0.05)), ("C", g.tensor3(t, 0.05))],
        ),
        skew,
    ]
}

/// Fig 15-style SpM*SpM on the catalog's linear-combination dataflow over
/// DCSR operands: constant `nnz` per operand over growing `dims`, so the
/// share of tile tuples the tiled backend can skip grows with the
/// dimension.
pub fn tiled_set(dims: &[usize], nnz: usize, seed: u64) -> Vec<Case> {
    let mut g = CaseBuilder { seed, next: 0 };
    dims.iter()
        .map(|&dim| {
            let rand = |g: &mut CaseBuilder| {
                let s = g.seed();
                int_coo(&synth::random_matrix_nnz(dim, dim, nnz, s))
            };
            let (b, c) = (rand(&mut g), rand(&mut g));
            let mut spmm =
                case(&format!("SpM*SpM dim {dim}"), "X(i,j) = B(i,k) * C(k,j)", vec![("B", b), ("C", c)]);
            spmm.formats = vec![("B".into(), TensorFormat::dcsr()), ("C".into(), TensorFormat::dcsr())];
            spmm.graph = Some(graphs::spmm(SpmmDataflow::LinearCombination));
            spmm
        })
        .collect()
}

/// One stored operand of the service corpus.
#[derive(Debug, Clone)]
pub struct Stored {
    pub name: &'static str,
    pub coo: CooTensor,
    /// Storage format the queries over it declare (dense factors only).
    pub format: Option<TensorFormat>,
}

/// A corpus shaped like `sam_serve::table1_workload` (same names and
/// shapes), but with every operand's density drawn from the seed.
pub fn serve_corpus(seed: u64) -> Vec<Stored> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x5E_u64));
    let mut next = 0u64;
    let mut s = || {
        next += 1;
        sub_seed(seed, 1000 + next)
    };
    let mut density = |lo: f64, hi: f64| lo + (hi - lo) * rng.gen::<f64>();
    let mut out = Vec::new();
    let mut put =
        |name: &'static str, coo: CooTensor| out.push(Stored { name, coo: int_coo(&coo), format: None });
    let m = |r, c, d: f64, s: u64| synth::random_matrix_sparsity(r, c, 1.0 - d, s);
    let t3 = |dims: [usize; 3], d: f64, s: u64| {
        let cells = dims.iter().product::<usize>() as f64;
        synth::random_tensor3(dims, (cells * d).round() as usize, s)
    };
    let v = |dim: usize, d: f64, s: u64| synth::random_vector(dim, (dim as f64 * d).round() as usize, s);
    let sh3 = [6, 5, 7];
    put("B_mv", m(14, 11, density(0.2, 0.3), s()));
    put("c_mv", v(11, density(0.5, 0.7), s()));
    put("B_mm", m(14, 11, density(0.2, 0.3), s()));
    put("C_mm", m(11, 12, density(0.2, 0.3), s()));
    put("B_sd", m(10, 9, density(0.2, 0.3), s()));
    put("B_ip", t3(sh3, density(0.1, 0.4), s()));
    put("C_ip", t3(sh3, density(0.1, 0.4), s()));
    put("B_tv", t3(sh3, density(0.1, 0.4), s()));
    put("c_tv", v(7, density(0.5, 0.7), s()));
    put("B_tm", t3(sh3, density(0.1, 0.4), s()));
    put("C_tm", m(8, 7, density(0.35, 0.45), s()));
    put("B_mk", t3([5, 4, 6], density(0.1, 0.4), s()));
    put("C_mk", m(5, 4, density(0.35, 0.45), s()));
    put("D_mk", m(5, 6, density(0.35, 0.45), s()));
    put("b_rs", v(14, density(0.5, 0.7), s()));
    put("C_rs", m(14, 11, density(0.2, 0.3), s()));
    put("d_rs", v(11, density(0.5, 0.7), s()));
    put("B_mt", m(13, 10, density(0.2, 0.3), s()));
    put("c_mt", v(13, density(0.5, 0.7), s()));
    put("d_mt", v(10, density(0.5, 0.7), s()));
    put("B_ma", m(12, 10, density(0.2, 0.3), s()));
    put("C_ma", m(12, 10, density(0.2, 0.3), s()));
    put("D_ma", m(12, 10, density(0.2, 0.3), s()));
    put("B_p2", t3(sh3, density(0.1, 0.4), s()));
    put("C_p2", t3(sh3, density(0.1, 0.4), s()));
    for (name, cols) in [("C_sd", 4), ("D_sd", 4)] {
        let rows = if name == "C_sd" { 10 } else { 9 };
        out.push(Stored {
            name,
            coo: int_coo(&synth::dense_matrix(rows, cols, s())),
            format: Some(TensorFormat::dense(2)),
        });
    }
    out
}

/// The twelve Table 1 queries over [`serve_corpus`], as
/// `(name, expression, order, operands)`.
pub const SERVE_QUERIES: [(&str, &str, Option<&str>, &[&str]); 12] = [
    ("SpMV", "x(i) = B_mv(i,j) * c_mv(j)", None, &["B_mv", "c_mv"]),
    ("SpM*SpM", "X(i,j) = B_mm(i,k) * C_mm(k,j)", Some("ikj"), &["B_mm", "C_mm"]),
    ("SDDMM", "X(i,j) = B_sd(i,j) * C_sd(i,k) * D_sd(j,k)", None, &["B_sd", "C_sd", "D_sd"]),
    ("InnerProd", "chi() = B_ip(i,j,k) * C_ip(i,j,k)", None, &["B_ip", "C_ip"]),
    ("TTV", "X(i,j) = B_tv(i,j,k) * c_tv(k)", None, &["B_tv", "c_tv"]),
    ("TTM", "X(i,j,k) = B_tm(i,j,l) * C_tm(k,l)", None, &["B_tm", "C_tm"]),
    ("MTTKRP", "X(i,j) = B_mk(i,k,l) * C_mk(j,k) * D_mk(j,l)", None, &["B_mk", "C_mk", "D_mk"]),
    ("Residual", "x(i) = b_rs(i) - C_rs(i,j) * d_rs(j)", None, &["b_rs", "C_rs", "d_rs"]),
    ("MatTransMul", "x(i) = alpha * B_mt(j,i) * c_mt(j) + beta * d_mt(i)", None, &["B_mt", "c_mt", "d_mt"]),
    ("MMAdd", "X(i,j) = B_ma(i,j) + C_ma(i,j)", None, &["B_ma", "C_ma"]),
    ("Plus3", "X(i,j) = B_ma(i,j) + C_ma(i,j) + D_ma(i,j)", None, &["B_ma", "C_ma", "D_ma"]),
    ("Plus2", "X(i,j,k) = B_p2(i,j,k) + C_p2(i,j,k)", None, &["B_p2", "C_p2"]),
];

/// MatTransMul's shipped scalar bindings (the repeated query's).
pub const MTM_SCALARS: (f64, f64) = (2.0, -3.0);

/// A never-seen expression text over the stored operands: a fresh output
/// name makes every text distinct, so each one misses the compile cache
/// and the plan cache.
#[derive(Debug, Clone)]
pub struct FreshExpr {
    pub text: String,
    pub operands: Vec<&'static str>,
}

/// Order-3 operands of [`serve_corpus`] (all 6x5x7).
pub const CUBES: [&str; 6] = ["B_ip", "C_ip", "B_tv", "B_tm", "B_p2", "C_p2"];

/// Seeded generator of [`FreshExpr`]s over shape-compatible operand
/// families of [`serve_corpus`].
pub fn fresh_expr(rng: &mut StdRng, serial: u64) -> FreshExpr {
    const MATS: [&str; 3] = ["B_ma", "C_ma", "D_ma"];
    const TALL: [&str; 3] = ["B_mv", "B_mm", "C_rs"];
    const VEC11: [&str; 2] = ["c_mv", "d_rs"];
    let pick = |rng: &mut StdRng, from: &[&'static str], n: usize| -> Vec<&'static str> {
        let mut pool = from.to_vec();
        (0..n).map(|_| pool.swap_remove(rng.gen_range(0..pool.len()))).collect()
    };
    let op = |rng: &mut StdRng| if rng.gen_range(0..2u32) == 0 { "+" } else { "*" };
    match rng.gen_range(0..5u32) {
        0 => {
            let n = 2 + rng.gen_range(0..2usize);
            let ops = pick(rng, &MATS, n);
            let mut text = format!("Q{serial}(i,j) = {}(i,j)", ops[0]);
            for name in &ops[1..] {
                text.push_str(&format!(" {} {name}(i,j)", op(rng)));
            }
            FreshExpr { text, operands: ops }
        }
        1 => {
            let m = pick(rng, &TALL, 1)[0];
            let v = pick(rng, &VEC11, 1)[0];
            FreshExpr { text: format!("q{serial}(i) = {m}(i,j) * {v}(j)"), operands: vec![m, v] }
        }
        2 => {
            let m = pick(rng, &TALL, 1)[0];
            let v = pick(rng, &VEC11, 1)[0];
            FreshExpr {
                text: format!("q{serial}(i) = b_rs(i) - {m}(i,j) * {v}(j)"),
                operands: vec!["b_rs", m, v],
            }
        }
        3 => {
            // Addition only: an order-3 element-wise product whose
            // operands share no k under some (i,j) returns coordinates
            // shifted by a fiber on every backend (a wrong output, not a
            // typed error). The traced run's probe measures that defect on
            // every cube pair instead of letting it fail this workload.
            let ops = pick(rng, &CUBES, 2);
            FreshExpr {
                text: format!("Q{serial}(i,j,k) = {}(i,j,k) + {}(i,j,k)", ops[0], ops[1]),
                operands: ops,
            }
        }
        _ => {
            let b = pick(rng, &CUBES, 1)[0];
            FreshExpr { text: format!("Q{serial}(i,j) = {b}(i,j,k) * c_tv(k)"), operands: vec![b, "c_tv"] }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(cases: &[Case]) -> Vec<Vec<(Vec<u32>, f64)>> {
        cases.iter().flat_map(|c| c.operands.iter().map(|(_, coo)| coo.entries().to_vec())).collect()
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_change_with_it() {
        assert_eq!(fingerprint(&kernel_set(40, 7)), fingerprint(&kernel_set(40, 7)));
        assert_ne!(fingerprint(&kernel_set(40, 7)), fingerprint(&kernel_set(40, 8)));
        assert_eq!(fingerprint(&tiled_set(&[64, 128], 40, 7)), fingerprint(&tiled_set(&[64, 128], 40, 7)));
        assert_ne!(fingerprint(&tiled_set(&[64, 128], 40, 7)), fingerprint(&tiled_set(&[64, 128], 40, 8)));
        let corpus =
            |seed| serve_corpus(seed).into_iter().map(|s| s.coo.entries().to_vec()).collect::<Vec<_>>();
        assert_eq!(corpus(7), corpus(7));
        assert_ne!(corpus(7), corpus(8));
        let texts = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|i| fresh_expr(&mut rng, i).text).collect::<Vec<_>>()
        };
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8));
    }

    #[test]
    fn values_are_small_nonzero_integers() {
        for case in kernel_set(40, 3) {
            for (_, coo) in &case.operands {
                assert!(coo.entries().iter().all(|(_, v)| v.fract() == 0.0 && (1.0..=9.0).contains(v)));
            }
        }
    }
}
