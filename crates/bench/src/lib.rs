//! # sam-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! (Section 6) is regenerated by a function in this crate and printed by the
//! matching binary in `src/bin/`.
//!
//! | Artifact | Function | Binary |
//! |----------|----------|--------|
//! | Table 1  | [`table1_report`] | `table1` |
//! | Table 2  | [`table2_report`] | `table2` |
//! | Figure 11 | [`figure11_report`] | `fig11` |
//! | Figure 12 | [`figure12_report`] | `fig12` |
//! | Figure 13 | [`figure13_report`] | `fig13` |
//! | Figure 14 | [`figure14_report`] | `fig14` |
//! | Figure 15 | [`figure15_report`] | `fig15` |
//! | Section 3.8 stream analysis | [`stream_analysis_report`] | `stream_analysis` |
//! | Executor cross-check | [`executor_report`] | `table1` |
//!
//! Every figure runs the one graph of its dataflow — a `sam_core::graphs`
//! catalog graph or a Custard-compiled kernel — on the cycle backend
//! through [`ExecRequest`]. The one exception is Figure 13's bitvector
//! columns, which have no IR form; see [`bitvector`].

pub mod bitvector;

use custard::{
    ablation_study, lower, lower_exec, parse, ConcreteIndexNotation, ExpressionCorpus, Formats, Schedule,
};
use sam_core::graph::{NodeKind, SamGraph};
use sam_core::graphs::{self, SpmmDataflow};
use sam_exec::{
    BackendSpec, CountersSink, CycleBackend, ExecRequest, Execution, FastBackend, Inputs, TiledBackend,
};
use sam_memory::{compare_with_model, figure15_sweep, model_tiled_spmm, MemoryConfig, MemoryCounters};
use sam_streams::analysis::{
    break_even_nnz_per_row, compare_encodings, MatrixShapeStats, WORST_CASE_CONTROL_FRACTION,
};
use sam_streams::TokenStats;
use sam_tensor::expr::table1;
use sam_tensor::reference::Environment;
use sam_tensor::suitesparse::table3_catalog;
use sam_tensor::synth;
use sam_tensor::{CooTensor, Tensor, TensorFormat};

/// Walks up from the current directory to the workspace root (the first
/// ancestor holding a `Cargo.lock`) — where the benchmark trajectory
/// `BENCH_exec.json` and its baseline live, regardless of which package
/// cargo launched a binary from.
pub fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir;
        }
        if !dir.pop() {
            return std::path::PathBuf::from(".");
        }
    }
}

/// A single-value tensor standing in for a zero-index scalar operand.
fn scalar_operand(value: f64) -> CooTensor {
    CooTensor::from_entries(vec![1], vec![(vec![0], value)]).expect("scalar operand")
}

/// Removes an existing `"group": { ... }` object (group objects in the
/// trajectory schema never nest) so re-merging replaces rather than
/// duplicates it.
fn strip_group(text: &str, group: &str) -> String {
    let needle = format!("{group:?}:");
    let Some(start) = text.find(&needle) else { return text.to_string() };
    let line_start = text[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let Some(close) = text[start..].find('}') else { return text.to_string() };
    let mut end = start + close + 1;
    for pat in [",", "\n"] {
        if text[end..].starts_with(pat) {
            end += pat.len();
        }
    }
    format!("{}{}", &text[..line_start], &text[end..])
}

/// Merges one `"group": { name: value, ... }` object into the two-level
/// JSON trajectory at `path`, creating the file if needed and replacing
/// any previous copy of the group. The format is the vendored criterion's
/// `--save-json` schema, so `bench_gate` parses the counters (reporting,
/// not gating, metrics absent from the baseline). Both `fig15 --smoke` and
/// `samprof --save-json` merge their headline metrics through this.
///
/// # Errors
///
/// Propagates the underlying filesystem write error.
pub fn merge_json_group(path: &std::path::Path, group: &str, metrics: &[(&str, f64)]) -> std::io::Result<()> {
    let mut body = format!("  {group:?}: {{\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        // Full `Display` precision, matching the vendored criterion's
        // `--save-json` writer: fixed one-decimal formatting quantizes
        // ratio-valued metrics before the gate can compare them.
        body.push_str(&format!("    {name:?}: {value}{sep}\n"));
    }
    body.push_str("  }\n");
    let text = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let existing = strip_group(&existing, group);
            match existing.rfind('}') {
                // Splice the group in before the final brace, after the
                // last existing group's closing brace.
                Some(end) => {
                    let head = existing[..end].trim_end();
                    // Stripping the previously-last group can leave the
                    // prior group's trailing comma behind.
                    let glue = if head.ends_with('{') || head.ends_with(',') { "\n" } else { ",\n" };
                    format!("{head}{glue}{body}}}\n")
                }
                None => format!("{{\n{body}}}\n"),
            }
        }
        Err(_) => format!("{{\n{body}}}\n"),
    };
    std::fs::write(path, text)
}

/// Table 1: SAM primitive counts for the twelve paper expressions, produced
/// by lowering each expression with Custard.
pub fn table1_report() -> String {
    let mut out = String::new();
    out.push_str("Table 1: SAM primitive composition (Custard-lowered graphs)\n");
    out.push_str(&format!(
        "{:<14} {:>5} {:>7} {:>9} {:>6} {:>4} {:>7} {:>8} {:>6} {:>6}\n",
        "Name", "Scan", "Repeat", "Intersect", "Union", "ALU", "Reduce", "CrdDrop", "LvlWr", "Array"
    ));
    for (name, assignment) in table1::all() {
        let schedule = if name == "SpM*SpM" { Schedule::new().reorder("ikj") } else { Schedule::new() };
        let cin = ConcreteIndexNotation::new(assignment, &schedule, Formats::new());
        let c = lower(&cin).primitive_counts();
        out.push_str(&format!(
            "{:<14} {:>5} {:>7} {:>9} {:>6} {:>4} {:>7} {:>8} {:>6} {:>6}\n",
            name,
            c.level_scan,
            c.repeat,
            c.intersect,
            c.union,
            c.alu,
            c.reduce,
            c.crd_drop,
            c.level_write,
            c.array
        ));
    }
    out
}

/// One Table 1 expression case: display name, expression text and named
/// COO operands sized for `dim`.
type Case = (&'static str, &'static str, Vec<(&'static str, CooTensor)>);

/// The Table 1 expression corpus the executor cross-check (and `samprof`'s
/// expression mode) draw from, with operands sized by `dim`.
fn expression_cases(dim: usize) -> Vec<Case> {
    vec![
        (
            "VecElemMul",
            "x(i) = b(i) * c(i)",
            vec![
                ("b", synth::random_vector(8 * dim, 2 * dim, 81)),
                ("c", synth::random_vector(8 * dim, 2 * dim, 82)),
            ],
        ),
        (
            "VecElemAdd",
            "x(i) = b(i) + c(i)",
            vec![
                ("b", synth::random_vector(8 * dim, 2 * dim, 83)),
                ("c", synth::random_vector(8 * dim, 2 * dim, 84)),
            ],
        ),
        (
            "SpMV",
            "x(i) = B(i,j) * c(j)",
            vec![
                ("B", synth::random_matrix_sparsity(dim, dim, 0.95, 85)),
                ("c", synth::random_vector(dim, dim / 2, 86)),
            ],
        ),
        (
            "SpM*SpM",
            "X(i,j) = B(i,k) * C(k,j)",
            vec![
                ("B", synth::random_matrix_sparsity(dim, dim / 2, 0.95, 87)),
                ("C", synth::random_matrix_sparsity(dim / 2, dim, 0.95, 88)),
            ],
        ),
        (
            "SDDMM",
            "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
            vec![
                ("B", synth::random_matrix_sparsity(dim / 2, dim / 2, 0.95, 89)),
                ("C", synth::random_matrix_sparsity(dim / 2, 8, 0.0, 90)),
                ("D", synth::random_matrix_sparsity(dim / 2, 8, 0.0, 91)),
            ],
        ),
        ("Identity", "X(i,j) = B(i,j)", vec![("B", synth::random_matrix_sparsity(dim, dim, 0.9, 92))]),
        (
            "Residual",
            "x(i) = b(i) - C(i,j) * d(j)",
            vec![
                ("b", synth::random_vector(dim, dim / 3, 93)),
                ("C", synth::random_matrix_sparsity(dim, dim, 0.95, 94)),
                ("d", synth::random_vector(dim, dim / 3, 95)),
            ],
        ),
        (
            "MatTransMul",
            "x(i) = alpha * B(j,i) * c(j) + beta * d(i)",
            vec![
                ("alpha", scalar_operand(2.0)),
                ("B", synth::random_matrix_sparsity(dim, dim, 0.95, 96)),
                ("c", synth::random_vector(dim, dim / 3, 97)),
                ("beta", scalar_operand(-3.0)),
                ("d", synth::random_vector(dim, dim / 3, 98)),
            ],
        ),
        (
            "Plus3",
            "X(i,j) = B(i,j) + C(i,j) + D(i,j)",
            vec![
                ("B", synth::random_matrix_sparsity(dim, dim, 0.9, 99)),
                ("C", synth::random_matrix_sparsity(dim, dim, 0.9, 100)),
                ("D", synth::random_matrix_sparsity(dim, dim, 0.9, 101)),
            ],
        ),
    ]
}

/// Lowers one Table 1 expression case through Custard into an executable
/// graph with its operands bound, returning the graph and inputs ready for
/// any backend.
fn lower_case(name: &str, text: &str, operands: &[(&'static str, CooTensor)]) -> (SamGraph, Inputs) {
    let schedule = if name == "SpM*SpM" { Schedule::new().reorder("ikj") } else { Schedule::new() };
    let operands: Vec<(&str, &CooTensor)> = operands.iter().map(|(n, coo)| (*n, coo)).collect();
    compile_bound(text, &schedule, &operands)
}

/// Compiles `text` under `schedule` with Custard (default compressed
/// formats) and binds `operands` in the formats it derives.
fn compile_bound(text: &str, schedule: &Schedule, operands: &[(&str, &CooTensor)]) -> (SamGraph, Inputs) {
    let assignment = parse(text).expect("valid expression");
    let cin = ConcreteIndexNotation::new(assignment, schedule, Formats::new());
    let kernel = lower_exec(&cin).expect("executable lowering");
    let mut inputs = Inputs::new();
    for &(op_name, coo) in operands {
        // Zero-index scalar operands carry no derived storage format; they
        // bind as single-value vectors. Indexed operands missing from the
        // derived formats are a wiring typo and panic.
        let fmt = match kernel.formats.iter().find(|(n, _)| n == op_name) {
            Some((_, f)) => f.clone(),
            None if kernel.scalars.iter().any(|s| s == op_name) => TensorFormat::dense_vec(),
            None => panic!("operand `{op_name}` missing from derived formats"),
        };
        inputs = inputs.coo(op_name, coo, fmt);
    }
    (kernel.graph, inputs)
}

/// Looks up a Table 1 expression by its display name (case-insensitive,
/// e.g. `SpMV` or `Residual`), lowers it through Custard and binds
/// `dim`-sized operands. `None` for names outside the corpus; the valid
/// names are the first column of [`executor_report`].
pub fn table1_case(name: &str, dim: usize) -> Option<(SamGraph, Inputs)> {
    expression_cases(dim)
        .into_iter()
        .find(|(n, ..)| n.eq_ignore_ascii_case(name))
        .map(|(n, text, operands)| lower_case(n, text, &operands))
}

/// The Table 1 expression names [`table1_case`] accepts.
pub fn table1_case_names() -> Vec<&'static str> {
    expression_cases(8).into_iter().map(|(n, ..)| n).collect()
}

/// Catalog kernels [`kernel_case`] accepts — operands big enough that
/// stall attribution is meaningful but small enough for the cycle backend.
/// The `_skew` variants pit a dense matrix row against a very sparse
/// vector, so one scanner dominates the run — the case coordinate skipping
/// (`spmv_skip`) erases. Shared by `samprof` and `samlint`.
pub const PROFILE_KERNELS: &[&str] =
    &["vecmul", "vecmul_skew", "identity", "spmv", "spmv_skew", "spmv_skip", "spmm", "sddmm", "mttkrp"];

/// Looks up a named catalog kernel (see [`PROFILE_KERNELS`]) and binds its
/// standard synthetic operands. `None` for names outside the set.
pub fn kernel_case(name: &str) -> Option<(SamGraph, Inputs)> {
    // The skew pair: an 80%-dense 400x2000 matrix co-iterated against a
    // 12-nonzero vector (the exec_backends `skip_skew` operands).
    let skew = || {
        let m = synth::random_matrix_sparsity(400, 2000, 0.2, 58);
        let sv = synth::random_vector(2000, 12, 59);
        (m, sv)
    };
    Some(match name {
        "vecmul" => {
            (
                graphs::vec_elem_mul(true),
                Inputs::new()
                    .coo("b", &synth::random_vector(4000, 1200, 21), TensorFormat::sparse_vec())
                    .coo("c", &synth::random_vector(4000, 1100, 22), TensorFormat::sparse_vec()),
            )
        }
        "vecmul_skew" => {
            (
                graphs::vec_elem_mul(true),
                Inputs::new()
                    .coo("b", &synth::random_vector(4000, 3600, 23), TensorFormat::sparse_vec())
                    .coo("c", &synth::random_vector(4000, 40, 24), TensorFormat::sparse_vec()),
            )
        }
        "identity" => (
            graphs::identity(),
            Inputs::new().coo("B", &synth::random_matrix_sparsity(256, 256, 0.9, 25), TensorFormat::dcsr()),
        ),
        "spmv" => {
            let (m, _) = skew();
            (
                graphs::spmv(),
                Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo(
                    "c",
                    &synth::random_vector(2000, 900, 20),
                    TensorFormat::dense_vec(),
                ),
            )
        }
        "spmv_skew" | "spmv_skip" => {
            let (m, sv) = skew();
            let graph =
                if name == "spmv_skip" { graphs::spmv_with_skip() } else { graphs::spmv_coiteration() };
            (
                graph,
                Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
            )
        }
        "spmm" => (
            graphs::spmm(SpmmDataflow::LinearCombination),
            Inputs::new()
                .coo("B", &synth::random_matrix_sparsity(128, 128, 0.9, 26), TensorFormat::dcsr())
                .coo("C", &synth::random_matrix_sparsity(128, 128, 0.9, 27), TensorFormat::dcsr()),
        ),
        "sddmm" => (
            graphs::sddmm_coiteration(),
            Inputs::new()
                .coo("B", &synth::random_matrix_sparsity(128, 128, 0.95, 28), TensorFormat::dcsr())
                .coo("C", &synth::dense_matrix(128, 16, 29), TensorFormat::dense(2))
                .coo("D", &synth::dense_matrix(128, 16, 30), TensorFormat::dense(2)),
        ),
        "mttkrp" => (
            graphs::mttkrp(),
            Inputs::new()
                .coo("B", &synth::random_tensor3([48, 24, 16], 3000, 31), TensorFormat::csf(3))
                .coo("C", &synth::random_matrix_sparsity(20, 24, 0.5, 32), TensorFormat::dcsc())
                .coo("D", &synth::random_matrix_sparsity(20, 16, 0.5, 33), TensorFormat::dcsc()),
        ),
        _ => return None,
    })
}

/// Every hand-written kernel of `sam_core::graphs`, by display name — the
/// structural lint sweep `samlint --all` walks this.
pub fn graph_catalog() -> Vec<(&'static str, SamGraph)> {
    use SpmmDataflow as D;
    vec![
        ("vec_elem_mul(dense)", graphs::vec_elem_mul(false)),
        ("vec_elem_mul(compressed)", graphs::vec_elem_mul(true)),
        ("vec_elem_mul_with_skip(dense)", graphs::vec_elem_mul_with_skip(false)),
        ("vec_elem_mul_with_skip(compressed)", graphs::vec_elem_mul_with_skip(true)),
        ("identity", graphs::identity()),
        ("spmv", graphs::spmv()),
        ("spmv_coiteration", graphs::spmv_coiteration()),
        ("spmv_with_skip", graphs::spmv_with_skip()),
        ("spmm(linear-combination)", graphs::spmm(D::LinearCombination)),
        ("spmm(inner-product)", graphs::spmm(D::InnerProduct)),
        ("spmm(outer-product)", graphs::spmm(D::OuterProduct)),
        ("spmm_with_skip", graphs::spmm_with_skip(D::LinearCombination)),
        ("mttkrp", graphs::mttkrp()),
        ("residual", graphs::residual()),
        ("mat_trans_mul", graphs::mat_trans_mul()),
        ("plus3", graphs::plus3()),
        ("sddmm_coiteration", graphs::sddmm_coiteration()),
        ("sddmm_with_skip", graphs::sddmm_with_skip()),
        ("sddmm_locating", graphs::sddmm_locating()),
    ]
}

/// Compile → IR → execute: each core expression is lowered by Custard to an
/// executable graph and run through `sam-exec` on both backends; the row
/// reports cycle-backend cycles, per-backend wall-clock time and whether
/// both results match the dense reference evaluator.
pub fn executor_report(scale: usize) -> String {
    let s = scale.max(1);
    // Floor the problem size so extreme scales still satisfy the synthetic
    // generators' preconditions (nnz <= dim, nonzero dimensions).
    let dim = (200 / s).max(8);
    let mut out = String::new();
    out.push_str("Custard -> SamGraph -> sam-exec: one graph, two backends\n");
    out.push_str(&format!(
        "{:<12} {:<34} {:>10} {:>12} {:>12} {:>8}\n",
        "Name", "Expression", "cycles", "cycle time", "fast time", "match"
    ));
    for (name, text, operands) in expression_cases(dim) {
        let assignment = parse(text).expect("valid expression");
        let (graph, inputs) = lower_case(name, text, &operands);
        let mut env = Environment::new();
        for (op_name, coo) in &operands {
            env.insert(op_name, Tensor::from_coo(op_name, coo, TensorFormat::dense(coo.order())).to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).expect("reference evaluation");
        let cycle =
            ExecRequest::new(&graph, &inputs).executor(&CycleBackend::default()).run().expect("cycle run");
        let fast =
            ExecRequest::new(&graph, &inputs).executor(&FastBackend::default()).run().expect("fast run");
        let ok = cycle.output.as_ref().expect("tensor").to_dense().approx_eq(&expect)
            && fast.output.as_ref().expect("tensor").to_dense().approx_eq(&expect);
        out.push_str(&format!(
            "{:<12} {:<34} {:>10} {:>12} {:>12} {:>8}\n",
            name,
            text,
            cycle.cycles.expect("cycle backend reports cycles"),
            format!("{:.2?}", cycle.elapsed),
            format!("{:.2?}", fast.elapsed),
            if ok { "yes" } else { "NO" }
        ));
    }
    out
}

/// Table 2: expressions lost when a SAM primitive is removed, over the
/// synthetic expression corpus.
pub fn table2_report() -> String {
    let corpus = ExpressionCorpus::generate();
    let rows = ablation_study(&corpus);
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2: ablation over {} distinct / {} weighted expressions\n",
        corpus.unique_count(),
        corpus.total_count()
    ));
    out.push_str(&format!(
        "{:<34} {:>8} {:>9} {:>9} {:>8}\n",
        "SAM Primitive Removed", "Unique", "All", "Unique %", "All %"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>8} {:>9} {:>8.2} {:>8.2}\n",
            r.removed, r.unique_lost, r.all_lost, r.unique_percent, r.all_percent
        ));
    }
    out
}

/// Runs `graph` over `inputs` on the cycle backend.
fn run_cycle(graph: &SamGraph, inputs: &Inputs) -> Execution {
    ExecRequest::new(graph, inputs).backend(BackendSpec::Cycle).run().expect("cycle run")
}

/// The cycles of a cycle-backend run.
fn cycles(run: &Execution) -> u64 {
    run.cycles.expect("the cycle backend reports cycles")
}

/// A cycle-backend run's result tensor and cycles.
fn result(run: Execution) -> (Tensor, u64) {
    let cycles = cycles(&run);
    (run.output.expect("tensor output"), cycles)
}

/// The SDDMM algorithm variant (the Figure 11 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SddmmVariant {
    /// Fused, with the dense factors' outer levels co-iterated against `B`.
    FusedCoiteration,
    /// Fused, with `B`'s coordinates located into the dense factors.
    FusedLocating,
    /// Unfused: the dense product `T = C * D^T` first, then sampled by `B`.
    Unfused,
}

/// SDDMM `X(i,j) = B(i,j) * C(i,k) * D(j,k)` with sparse `B` (I x J) and
/// dense `C` (I x K), `D` (J x K) as one Figure 11 variant on the cycle
/// backend: the result and its cycles. Each fused variant is one catalog
/// graph; the unfused one is two chained Custard kernels,
/// `T(i,j) = C(i,k) * D(j,k)` and then `X(i,j) = B(i,j) * T(i,j)`, and
/// reports the sum of their cycles.
pub fn sddmm(b: &CooTensor, c: &CooTensor, d: &CooTensor, variant: SddmmVariant) -> (Tensor, u64) {
    let fused = |graph: SamGraph| {
        let inputs = Inputs::new().coo("B", b, TensorFormat::dcsr()).coo("C", c, TensorFormat::dense(2)).coo(
            "D",
            d,
            TensorFormat::dense(2),
        );
        result(run_cycle(&graph, &inputs))
    };
    match variant {
        SddmmVariant::FusedCoiteration => fused(graphs::sddmm_coiteration()),
        SddmmVariant::FusedLocating => fused(graphs::sddmm_locating()),
        SddmmVariant::Unfused => {
            let (graph, inputs) =
                compile_bound("T(i,j) = C(i,k) * D(j,k)", &Schedule::new(), &[("C", c), ("D", d)]);
            let (t, dense_cycles) = result(run_cycle(&graph, &inputs));
            let (graph, inputs) =
                compile_bound("X(i,j) = B(i,j) * T(i,j)", &Schedule::new(), &[("B", b), ("T", &t.to_coo())]);
            let (x, sample_cycles) = result(run_cycle(&graph, &inputs));
            (x, dense_cycles + sample_cycles)
        }
    }
}

/// SpM*SpM `X(i,j) = B(i,k) * C(k,j)` compiled by Custard in the loop
/// `order` (one of the six `ijk` permutations) and run on the cycle
/// backend: the result and its cycles.
pub fn spmm_order(b: &CooTensor, c: &CooTensor, order: &str) -> (Tensor, u64) {
    let schedule = Schedule::new().reorder(order);
    let (graph, inputs) = compile_bound("X(i,j) = B(i,k) * C(k,j)", &schedule, &[("B", b), ("C", c)]);
    result(run_cycle(&graph, &inputs))
}

/// The vector storage / acceleration configuration (the Figure 13 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecFormat {
    /// One uncompressed (dense) level.
    Dense,
    /// One compressed coordinate level.
    Crd,
    /// One compressed coordinate level with coordinate skipping.
    CrdSkip,
    /// Two compressed coordinate levels (the vector split into chunks).
    CrdSplit {
        /// Number of chunks the dimension is divided into.
        split: usize,
    },
    /// One pseudo-dense bitvector level.
    Bv {
        /// Bits per bitvector word.
        width: u8,
    },
    /// Two bitvector levels (a bit-tree).
    BvSplit {
        /// Bits per bitvector word.
        width: u8,
    },
}

impl VecFormat {
    /// The label used in the Figure 13 plots.
    pub fn label(&self) -> &'static str {
        match self {
            VecFormat::Dense => "Dense",
            VecFormat::Crd => "Crd",
            VecFormat::CrdSkip => "Crd w/ skip",
            VecFormat::CrdSplit { .. } => "Crd w/ split",
            VecFormat::Bv { .. } => "BV",
            VecFormat::BvSplit { .. } => "BV w/ split",
        }
    }

    /// The six configurations studied in Figure 13, with the paper's
    /// parameters (split factor 64, 64-bit words).
    pub fn figure13_set() -> Vec<VecFormat> {
        vec![
            VecFormat::Crd,
            VecFormat::Dense,
            VecFormat::CrdSkip,
            VecFormat::CrdSplit { split: 64 },
            VecFormat::BvSplit { width: 64 },
            VecFormat::Bv { width: 64 },
        ]
    }
}

/// Element-wise multiplication `x(i) = b(i) * c(i)` of two vectors of
/// dimension `dim` in one Figure 13 configuration: the result and its
/// cycles. The coordinate and dense configurations run the catalog graph
/// on the cycle backend. "Crd w/ split" runs the Custard kernel
/// `X(i,j) = B(i,j) * C(i,j)` on the vectors reshaped to
/// `split x ceil(dim / split)` and flattens the result back. The bitvector
/// configurations run the [`bitvector`] kernels.
pub fn vec_elem_mul(b: &CooTensor, c: &CooTensor, dim: usize, format: VecFormat) -> (Tensor, u64) {
    let flat = |graph: SamGraph, fmt: TensorFormat| {
        let inputs = Inputs::new().coo("b", b, fmt.clone()).coo("c", c, fmt);
        result(run_cycle(&graph, &inputs))
    };
    match format {
        VecFormat::Crd => flat(graphs::vec_elem_mul(true), TensorFormat::sparse_vec()),
        VecFormat::Dense => flat(graphs::vec_elem_mul(false), TensorFormat::dense_vec()),
        VecFormat::CrdSkip => flat(graphs::vec_elem_mul_with_skip(true), TensorFormat::sparse_vec()),
        VecFormat::CrdSplit { split } => {
            let chunk = dim.div_ceil(split) as u32;
            let reshape = |v: &CooTensor| {
                let mut coo = CooTensor::new(vec![split, chunk as usize]);
                for (p, x) in v.entries() {
                    coo.push(&[p[0] / chunk, p[0] % chunk], *x).expect("in bounds");
                }
                coo
            };
            let (b2, c2) = (reshape(b), reshape(c));
            let (graph, inputs) =
                compile_bound("X(i,j) = B(i,j) * C(i,j)", &Schedule::new(), &[("B", &b2), ("C", &c2)]);
            let (x, cycles) = result(run_cycle(&graph, &inputs));
            let mut flat = CooTensor::new(vec![dim]);
            for (p, v) in x.points() {
                flat.push(&[p[0] * chunk + p[1]], v).expect("in bounds");
            }
            (Tensor::from_coo("x", &flat, TensorFormat::sparse_vec()), cycles)
        }
        VecFormat::Bv { width } => bitvector::vec_elem_mul(b, c, dim, width),
        VecFormat::BvSplit { width } => bitvector::vec_elem_mul_tree(b, c, dim, width),
    }
}

/// Runs the identity graph `X(i,j) = B(i,j)` over DCSR `b` on the cycle
/// backend and returns the run plus the Figure 14 slot breakdown of its
/// outer (`scan Bi`) and inner (`scan Bj`) coordinate streams. A scanner's
/// coordinate and reference outputs carry the same control tokens, so its
/// coordinate stream holds its coordinates plus half of the scanner's
/// stop, empty and done tokens; every other cycle is an idle slot.
pub fn identity_stream_stats(b: &CooTensor) -> (Execution, [TokenStats; 2]) {
    let graph = graphs::identity();
    let inputs = Inputs::new().coo("B", b, TensorFormat::dcsr());
    let sink = CountersSink::new();
    let run =
        ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).traced(&sink).run().expect("cycle run");
    let cycles = cycles(&run);
    let profile = run.profile.as_ref().expect("traced runs report a profile");
    let stream = |index: char| {
        let scanner = graph
            .nodes()
            .iter()
            .position(|n| matches!(n, NodeKind::LevelScanner { index: i, .. } if *i == index))
            .expect("the identity graph scans both levels of B");
        let t = profile.nodes.iter().find(|n| n.index == scanner).expect("every node is profiled").tokens;
        let (stop, empty, done) = (t.stop / 2, t.empty / 2, t.done / 2);
        let busy = t.crd + stop + empty + done;
        let idle = cycles.checked_sub(busy).expect("a stream carries at most one token per cycle");
        TokenStats { non_control: t.crd, stop, empty, done, idle }
    };
    let stats = [stream('i'), stream('j')];
    (run, stats)
}

/// Figure 11: fused vs. unfused vs. fused-locating SDDMM cycles for
/// K in {1, 10, 100} on a 95% sparse 250x250 sample matrix.
pub fn figure11_report(scale: usize) -> String {
    let (i, j) = (250 / scale.max(1), 250 / scale.max(1));
    let mut out = String::new();
    out.push_str("Figure 11: SDDMM cycles (rows: K; columns: algorithm)\n");
    out.push_str(&format!("{:>6} {:>16} {:>16} {:>16}\n", "K", "Unfused", "Fused locating", "Fused coiter"));
    for k in [1usize, 10, 100] {
        let b = synth::random_matrix_sparsity(i, j, 0.95, 41);
        let c = synth::dense_matrix(i, k, 42);
        let d = synth::dense_matrix(j, k, 43);
        let [unfused, locating, coiter] =
            [SddmmVariant::Unfused, SddmmVariant::FusedLocating, SddmmVariant::FusedCoiteration]
                .map(|v| sddmm(&b, &c, &d, v).1);
        out.push_str(&format!("{:>6} {:>16} {:>16} {:>16}\n", k, unfused, locating, coiter));
    }
    out
}

/// Figure 12: SpM*SpM cycles for all six iteration orders on 95% sparse
/// matrices with I = J = 250, K = 100 (scaled down by `scale` for tests).
pub fn figure12_report(scale: usize) -> String {
    let s = scale.max(1);
    let (i, j, k) = (250 / s, 250 / s, 100 / s);
    let b = synth::random_matrix_sparsity(i, k, 0.95, 51);
    let c = synth::random_matrix_sparsity(k, j, 0.95, 52);
    let mut out = String::new();
    out.push_str("Figure 12: SpM*SpM cycles per iteration order\n");
    out.push_str(&format!("{:>6} {:>14}\n", "Order", "Cycles"));
    for order in ["ijk", "jik", "ikj", "jki", "kij", "kji"] {
        out.push_str(&format!("{:>6} {:>14}\n", order, spmm_order(&b, &c, order).1));
    }
    out
}

/// Figure 13: element-wise sparse vector multiply cycles across storage and
/// acceleration configurations: (a) sparsity sweep on uniformly random
/// vectors, (b) run-length sweep, (c) block-size sweep.
pub fn figure13_report(dim: usize) -> String {
    let formats = VecFormat::figure13_set();
    let mut out = String::new();
    let mut section = |title: &str, rows: Vec<(usize, CooTensor, CooTensor)>| {
        out.push_str(&format!("{title}\n{:>10}", "x"));
        for f in &formats {
            out.push_str(&format!(" {:>14}", f.label()));
        }
        out.push('\n');
        for (x, b, c) in rows {
            out.push_str(&format!("{:>10}", x));
            for f in &formats {
                out.push_str(&format!(" {:>14}", vec_elem_mul(&b, &c, dim, *f).1));
            }
            out.push('\n');
        }
    };
    let nnz_rows = [20usize, 50, 100, 200, 400, 800]
        .into_iter()
        .filter(|n| 2 * n <= dim)
        .map(|nnz| (nnz, synth::random_vector(dim, nnz, 61), synth::random_vector(dim, nnz, 62)))
        .collect();
    section("Figure 13a: cycles vs number of nonzeros (uniform random)", nnz_rows);
    let sweep = [1usize, 2, 4, 8, 16, 32, 64, 100];
    let run_rows = sweep
        .iter()
        .map(|&run| {
            let (b, c) = synth::runs_vector_pair(dim, 400.min(dim / 4), run, 63);
            (run, b, c)
        })
        .collect();
    section("Figure 13b: cycles vs run length (runs pattern, 400 nonzeros)", run_rows);
    let block_rows = sweep
        .iter()
        .map(|&block| {
            let (b, c) = synth::blocks_vector_pair(dim, 400.min(dim / 4), block, 64);
            (block, b, c)
        })
        .collect();
    section("Figure 13c: cycles vs block size (blocks pattern, 400 nonzeros)", block_rows);
    out
}

/// Figure 14: token-kind breakdown of the outer and inner coordinate streams
/// of the matrix identity expression over the Table 3 matrix catalog.
///
/// `max_nnz` bounds the instantiated matrix size so tests stay fast; the
/// `fig14` binary uses `usize::MAX` to cover the full catalog.
pub fn figure14_report(max_nnz: usize) -> String {
    let mut out = String::new();
    out.push_str("Figure 14: identity-expression stream composition (fractions of channel slots)\n");
    out.push_str(&format!(
        "{:<14} {:>9} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}\n",
        "Matrix", "nnz", "o.idle", "o.done", "o.stop", "o.data", "i.idle", "i.done", "i.stop", "i.data"
    ));
    for info in table3_catalog() {
        if info.nnz > max_nnz {
            continue;
        }
        let (_, [o, i]) = identity_stream_stats(&info.instantiate(71));
        let frac = |n: u64, total: u64| n as f64 / total.max(1) as f64;
        out.push_str(&format!(
            "{:<14} {:>9} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
            info.name,
            info.nnz,
            frac(o.idle, o.total()),
            frac(o.done, o.total()),
            frac(o.stop, o.total()),
            frac(o.non_control, o.total()),
            frac(i.idle, i.total()),
            frac(i.done, i.total()),
            frac(i.stop, i.total()),
            frac(i.non_control, i.total()),
        ));
    }
    out
}

/// Figure 15: the ExTensor-style finite-memory SpM*SpM study.
pub fn figure15_report() -> String {
    let config = MemoryConfig::default();
    let sweep = figure15_sweep(&[5000, 10000, 25000, 50000], &config);
    let mut out = String::new();
    out.push_str("Figure 15: tiled SpM*SpM runtime (cycles) across dimension sizes\n");
    out.push_str(&format!(
        "{:>8} {:>8} {:>16} {:>16} {:>16}\n",
        "dim", "nnz", "nonempty tiles", "tile pairs", "cycles"
    ));
    for e in sweep {
        out.push_str(&format!(
            "{:>8} {:>8} {:>16.1} {:>16.1} {:>16.0}\n",
            e.dim, e.nnz, e.nonempty_tiles, e.effectual_tile_pairs, e.cycles
        ));
    }
    out
}

/// Figure 15, measured: runs the synthetic ExTensor SpM*SpM sweep for real
/// on the `TiledBackend` — constant-nnz uniformly random operands per the
/// paper — and lines every point up against the closed-form `sam_memory`
/// estimate. One [`ModelComparison`](sam_memory::ModelComparison) per
/// (nnz, dim) pair, in sweep order.
pub fn figure15_measured_points(
    dims: &[usize],
    nnz_list: &[usize],
    config: &MemoryConfig,
) -> Vec<sam_memory::ModelComparison> {
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let backend = TiledBackend::new(*config);
    let mut out = Vec::new();
    for &nnz in nnz_list {
        for &dim in dims {
            let b = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0001 ^ dim as u64);
            let c = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0002 ^ dim as u64);
            let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
            let run = ExecRequest::new(&graph, &inputs).executor(&backend).run().expect("tiled run");
            out.push(compare_with_model(
                model_tiled_spmm(dim, nnz, config),
                run.memory.expect("tiled runs report memory counters"),
                run.cycles.expect("tiled runs estimate cycles") as f64,
            ));
        }
    }
    out
}

/// Renders [`figure15_measured_points`] as the Figure 15 (measured) table.
/// The `ratio` columns are measured / analytic; 1.0 means the model
/// predicted the machine exactly.
pub fn figure15_measured_report(dims: &[usize], nnz_list: &[usize], config: &MemoryConfig) -> String {
    figure15_measured_table(&figure15_measured_points(dims, nnz_list, config), config)
}

/// [`figure15_measured_report`] over an already-measured sweep, so callers
/// that also need the raw points (the `fig15 --smoke` cycle-ratio gate) run
/// the tiled executor once.
pub fn figure15_measured_table(points: &[sam_memory::ModelComparison], config: &MemoryConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 15 (measured): tiled SpM*SpM on TiledBackend, tile={} llb={}KiB\n",
        config.tile,
        config.llb_bytes / 1024
    ));
    out.push_str(&format!(
        "{:>8} {:>8} {:>7} {:>7} | {:>12} {:>12} {:>6} | {:>12} {:>12} {:>6}\n",
        "dim",
        "nnz",
        "exec",
        "skip%",
        "dram (meas)",
        "dram (model)",
        "ratio",
        "cyc (meas)",
        "cyc (model)",
        "ratio"
    ));
    for cmp in points {
        let mem = cmp.measured;
        let skip_pct = 100.0 * mem.tiles_skipped as f64 / (mem.tiles_visited as f64).max(1.0);
        out.push_str(&format!(
            "{:>8} {:>8} {:>7} {:>6.1}% | {:>12} {:>12.0} {:>6.2} | {:>12} {:>12.0} {:>6.2}\n",
            cmp.analytic.dim,
            cmp.analytic.nnz,
            mem.tiles_executed,
            skip_pct,
            mem.dram_bytes,
            cmp.analytic.dram_bytes,
            cmp.dram_ratio,
            cmp.measured_cycles,
            cmp.analytic.cycles,
            cmp.cycle_ratio,
        ));
    }
    out
}

/// The sparse-tile-skipping ablation: one Figure 15 configuration executed
/// with and without ExTensor-style skipping, under an LLB deliberately
/// smaller than the operand working set so needless tile fetches cost real
/// DRAM traffic. Returns the report plus both counter sets (the `fig15`
/// binary merges them into the benchmark trajectory JSON).
pub fn figure15_skipping_study(
    dim: usize,
    nnz: usize,
    config: &MemoryConfig,
) -> (String, MemoryCounters, MemoryCounters) {
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let b = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0003);
    let c = synth::random_matrix_nnz(dim, dim, nnz, 0x15_0004);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
    let skip =
        ExecRequest::new(&graph, &inputs).executor(&TiledBackend::new(*config)).run().expect("tiled run");
    let noskip = ExecRequest::new(&graph, &inputs)
        .executor(&TiledBackend::new(*config).with_skipping(false))
        .run()
        .expect("tiled run");
    assert_eq!(skip.output, noskip.output, "skipping must not change results");
    let (sm, nm) = (skip.memory.expect("counters"), noskip.memory.expect("counters"));
    let mut out = String::new();
    out.push_str(&format!(
        "Sparse tile skipping at dim={dim} nnz={nnz} (llb={}KiB):\n",
        config.llb_bytes / 1024
    ));
    out.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
        "", "executed", "skipped", "dram bytes", "llb peak", "evictions"
    ));
    for (name, m) in [("skip", &sm), ("no-skip", &nm)] {
        out.push_str(&format!(
            "{:>10} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
            name, m.tiles_executed, m.tiles_skipped, m.dram_bytes, m.llb_peak_bytes, m.spill_events
        ));
    }
    let saved = nm.dram_bytes.saturating_sub(sm.dram_bytes);
    out.push_str(&format!(
        "skipping saves {:.1}% of DRAM traffic ({} of {} bytes)\n",
        100.0 * saved as f64 / (nm.dram_bytes as f64).max(1.0),
        saved,
        nm.dram_bytes,
    ));
    (out, sm, nm)
}

/// Section 3.8: level-based vs point-based stream encoding comparison over
/// the Table 3 catalog.
pub fn stream_analysis_report() -> String {
    let mut out = String::new();
    out.push_str("Section 3.8: level-based vs point-based stream token counts\n");
    out.push_str(&format!(
        "break-even nonzeros per row (worst-case control fraction): {:.2}\n",
        break_even_nnz_per_row(WORST_CASE_CONTROL_FRACTION)
    ));
    out.push_str(&format!(
        "{:<14} {:>10} {:>14} {:>14} {:>12}\n",
        "Matrix", "nnz/row", "level tokens", "point tokens", "level wins"
    ));
    for info in table3_catalog() {
        let stats = MatrixShapeStats::new(info.rows as u64, info.rows.min(info.nnz) as u64, info.nnz as u64);
        let cmp = compare_encodings(stats, WORST_CASE_CONTROL_FRACTION);
        out.push_str(&format!(
            "{:<14} {:>10.2} {:>14.0} {:>14.0} {:>12}\n",
            info.name,
            stats.avg_nnz_per_row(),
            cmp.level_based_tokens,
            cmp.point_based_tokens,
            cmp.level_based_wins()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reports_have_expected_rows() {
        let t1 = table1_report();
        assert_eq!(t1.lines().count(), 2 + 12);
        assert!(t1.contains("MTTKRP"));
        let t2 = table2_report();
        assert_eq!(t2.lines().count(), 2 + 12);
        assert!(t2.contains("Multiplier"));
    }

    #[test]
    fn executor_reports_run_and_verify() {
        let report = executor_report(8);
        assert!(report.contains("SpM*SpM"));
        assert!(report.contains("yes"));
        assert!(!report.contains(" NO"));
    }

    #[test]
    fn small_figure_reports_run() {
        let f12 = figure12_report(10);
        assert_eq!(f12.lines().count(), 2 + 6);
        let f13 = figure13_report(512);
        assert!(f13.contains("Figure 13a"));
        assert!(f13.contains("BV"));
        let f14 = figure14_report(200);
        assert!(f14.lines().count() >= 2 + 4);
        let f15 = figure15_report();
        assert_eq!(f15.lines().count(), 2 + 4 * 12);
        let sa = stream_analysis_report();
        assert!(sa.contains("rail507"));
    }

    #[test]
    fn figure15_measured_runs_and_skipping_pays() {
        let config = MemoryConfig { tile: 16, llb_bytes: 2048, ..MemoryConfig::default() };
        let report = figure15_measured_report(&[64, 96], &[200], &config);
        assert_eq!(report.lines().count(), 2 + 2);
        assert!(report.contains("dram (meas)"));

        let study_config = MemoryConfig { tile: 16, llb_bytes: 512, ..MemoryConfig::default() };
        let (study, skip, noskip) = figure15_skipping_study(96, 60, &study_config);
        assert!(study.contains("skipping saves"));
        assert!(skip.tiles_skipped > 0, "a sparse sweep must skip tiles");
        assert!(skip.dram_bytes < noskip.dram_bytes, "skipping must cut DRAM traffic");
    }

    /// The dense reference of `text` over the named COO operands.
    fn reference(text: &str, operands: &[(&str, &CooTensor)]) -> sam_tensor::DenseTensor {
        let assignment = parse(text).unwrap();
        let mut env = Environment::new();
        for (name, coo) in operands {
            env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
        }
        env.bind_dims(&assignment, &[]);
        env.evaluate(&assignment).unwrap()
    }

    #[test]
    fn vecmul_formats_agree_with_oracle() {
        let dim = 256;
        let b = synth::random_vector(dim, 50, 1);
        let c = synth::random_vector(dim, 60, 2);
        let expect = reference("x(i) = b(i) * c(i)", &[("b", &b), ("c", &c)]);
        for fmt in VecFormat::figure13_set() {
            let (x, cycles) = vec_elem_mul(&b, &c, dim, fmt);
            assert!(x.to_dense().approx_eq(&expect), "format {} disagreed with the reference", fmt.label());
            assert!(cycles > 0);
        }
    }

    #[test]
    fn skipping_helps_on_runs() {
        let dim = 2048;
        let (b, c) = synth::runs_vector_pair(dim, 400, 50, 3);
        let plain = vec_elem_mul(&b, &c, dim, VecFormat::Crd).1;
        let skipped = vec_elem_mul(&b, &c, dim, VecFormat::CrdSkip).1;
        assert!(skipped < plain, "skip {skipped} should beat plain {plain}");
    }

    #[test]
    fn dense_costs_track_dimension() {
        let dim = 512;
        let b = synth::random_vector(dim, 10, 1);
        let c = synth::random_vector(dim, 10, 2);
        let dense = vec_elem_mul(&b, &c, dim, VecFormat::Dense).1;
        let sparse = vec_elem_mul(&b, &c, dim, VecFormat::Crd).1;
        assert!(dense > sparse);
        assert!(dense as usize >= dim);
    }

    #[test]
    fn bitvector_cycles_are_word_bound() {
        let dim = 2048;
        let b = synth::random_vector(dim, 400, 1);
        let c = synth::random_vector(dim, 400, 2);
        // 32 words plus pipeline overhead.
        let cycles = vec_elem_mul(&b, &c, dim, VecFormat::Bv { width: 64 }).1;
        assert!(cycles < 200, "cycles = {cycles}");
    }

    #[test]
    fn sddmm_variants_match_reference() {
        let (i, j, k) = (20, 18, 6);
        let b = synth::random_matrix_sparsity(i, j, 0.9, 1);
        let c = synth::dense_matrix(i, k, 2);
        let d = synth::dense_matrix(j, k, 3);
        let expect = reference("X(i,j) = B(i,j) * C(i,k) * D(j,k)", &[("B", &b), ("C", &c), ("D", &d)]);
        for variant in [SddmmVariant::FusedLocating, SddmmVariant::FusedCoiteration, SddmmVariant::Unfused] {
            let (x, _) = sddmm(&b, &c, &d, variant);
            assert!(x.to_dense().approx_eq(&expect), "{variant:?} disagreed with the reference");
        }
    }

    #[test]
    fn fusion_beats_unfused_on_sparse_samples() {
        let (i, j, k) = (40, 40, 4);
        let b = synth::random_matrix_sparsity(i, j, 0.95, 5);
        let c = synth::dense_matrix(i, k, 6);
        let d = synth::dense_matrix(j, k, 7);
        let fused = sddmm(&b, &c, &d, SddmmVariant::FusedLocating).1;
        let unfused = sddmm(&b, &c, &d, SddmmVariant::Unfused).1;
        assert!(fused < unfused, "fused ({fused}) should beat unfused ({unfused})");
    }

    #[test]
    fn locating_beats_coiteration_for_small_k() {
        let (i, j, k) = (60, 60, 1);
        let b = synth::random_matrix_sparsity(i, j, 0.95, 8);
        let c = synth::dense_matrix(i, k, 9);
        let d = synth::dense_matrix(j, k, 10);
        let locating = sddmm(&b, &c, &d, SddmmVariant::FusedLocating).1;
        let coiter = sddmm(&b, &c, &d, SddmmVariant::FusedCoiteration).1;
        assert!(locating < coiter, "locating ({locating}) should beat coiteration ({coiter})");
    }

    /// One SpM*SpM catalog dataflow on the cycle backend, each operand in
    /// the orientation the dataflow iterates it.
    fn spmm_dataflow(b: &CooTensor, c: &CooTensor, dataflow: SpmmDataflow) -> (Tensor, u64) {
        let b_fmt = if dataflow == SpmmDataflow::OuterProduct { TensorFormat::dcsc() } else { TensorFormat::dcsr() };
        let c_fmt = if dataflow == SpmmDataflow::InnerProduct { TensorFormat::dcsc() } else { TensorFormat::dcsr() };
        let inputs = Inputs::new().coo("B", b, b_fmt).coo("C", c, c_fmt);
        result(run_cycle(&graphs::spmm(dataflow), &inputs))
    }

    #[test]
    fn spmm_dataflows_match_reference() {
        let b = synth::random_matrix_sparsity(24, 18, 0.85, 11);
        let c = synth::random_matrix_sparsity(18, 20, 0.85, 12);
        let expect = reference("X(i,j) = B(i,k) * C(k,j)", &[("B", &b), ("C", &c)]);
        for dataflow in
            [SpmmDataflow::LinearCombination, SpmmDataflow::InnerProduct, SpmmDataflow::OuterProduct]
        {
            let (x, cycles) = spmm_dataflow(&b, &c, dataflow);
            assert!(x.to_dense().approx_eq(&expect), "{} disagreed with the reference", dataflow.label());
            assert!(cycles > 0);
        }
    }

    #[test]
    fn spmm_orders_match_reference() {
        let b = synth::random_matrix_sparsity(15, 12, 0.8, 3);
        let c = synth::random_matrix_sparsity(12, 10, 0.8, 4);
        let expect = reference("X(i,j) = B(i,k) * C(k,j)", &[("B", &b), ("C", &c)]);
        for order in ["ijk", "jik", "ikj", "jki", "kij", "kji"] {
            let (x, _) = spmm_order(&b, &c, order);
            assert!(x.to_dense().approx_eq(&expect), "order {order} disagreed");
        }
    }

    #[test]
    fn gustavson_beats_inner_product_on_sparse_inputs() {
        let b = synth::random_matrix_sparsity(60, 40, 0.95, 5);
        let c = synth::random_matrix_sparsity(40, 60, 0.95, 6);
        let rows = spmm_dataflow(&b, &c, SpmmDataflow::LinearCombination).1;
        let inner = spmm_dataflow(&b, &c, SpmmDataflow::InnerProduct).1;
        assert!(rows < inner, "Gustavson ({rows}) should beat inner product ({inner})");
    }

    #[test]
    fn spmv_matches_reference() {
        let b = synth::random_matrix_sparsity(40, 30, 0.9, 7);
        let c = synth::random_vector(30, 30, 8); // fully dense vector
        let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
        let graph = graphs::spmv();
        let (x, cycles) = result(run_cycle(&graph, &inputs));
        let expect = reference("x(i) = B(i,j) * c(j)", &[("B", &b), ("c", &c)]);
        assert!(x.to_dense().approx_eq(&expect));
        assert!(cycles > 0);
        assert!(graph.len() >= 10);
    }

    #[test]
    fn identity_preserves_the_matrix() {
        let b = synth::random_matrix_sparsity(30, 25, 0.9, 21);
        let (run, _) = identity_stream_stats(&b);
        assert!(run.output.unwrap().approx_eq(&Tensor::from_coo("B", &b, TensorFormat::dcsr())));
    }

    #[test]
    fn outer_stream_is_mostly_idle() {
        // Matching the paper's observation: the outer scanner finishes early
        // and sits idle while the inner level streams its coordinates.
        let b = synth::random_matrix_sparsity(50, 50, 0.9, 22);
        let (run, [outer, inner]) = identity_stream_stats(&b);
        let idle_frac = outer.idle as f64 / outer.total() as f64;
        assert!(idle_frac > 0.4, "idle fraction {idle_frac}");
        // The inner stream's control overhead is dominated by stop tokens.
        assert!(inner.stop >= inner.done);
        assert_eq!(inner.non_control as usize, run.output.unwrap().nnz());
    }

    /// Small-scale golden values of the Figure 11/12/13 cycle columns and
    /// the Figure 14 stream breakdown of one matrix: an exact oracle for
    /// simulator changes, which must either reproduce these numbers or
    /// update them and record the delta.
    #[test]
    fn figure_cycle_columns_are_pinned() {
        assert_eq!(
            figure11_report(10),
            r"Figure 11: SDDMM cycles (rows: K; columns: algorithm)
     K          Unfused   Fused locating     Fused coiter
     1             1697               80              422
    10             7322              359              423
   100            63572             3149             3157
"
        );
        assert_eq!(
            figure12_report(10),
            r"Figure 12: SpM*SpM cycles per iteration order
 Order         Cycles
   ijk            420
   jik            420
   ikj            127
   jki            101
   kij             53
   kji             51
"
        );
        assert_eq!(
            figure13_report(256),
            r"Figure 13a: cycles vs number of nonzeros (uniform random)
         x            Crd          Dense    Crd w/ skip   Crd w/ split    BV w/ split             BV
        20             38            258             38             31              6              7
        50             89            258             84             75              6              7
       100            166            258            161            163              6              7
Figure 13b: cycles vs run length (runs pattern, 400 nonzeros)
         x            Crd          Dense    Crd w/ skip   Crd w/ split    BV w/ split             BV
         1            130            258            130            193              6              7
         2            130            258            129             66              6              7
         4            130            258            124             34              6              7
         8            130            258            109             34              6              7
        16            130            258             66             34              6              7
        32            130            258             40             34              2              7
        64            130            258             68             34              2              7
       100            130            258             68             34              2              7
Figure 13c: cycles vs block size (blocks pattern, 400 nonzeros)
         x            Crd          Dense    Crd w/ skip   Crd w/ split    BV w/ split             BV
         1             66            258             66            129              6              7
         2             66            258             66             97              6              7
         4             66            258             66             81              6              7
         8             66            258             66             81              6              7
        16             66            258             66             81              6              7
        32             66            258             66             81              4              7
        64             66            258             66             81              3              7
       100             66            258             66             81              3              7
"
        );
        assert_eq!(
            figure14_report(24),
            r"Figure 14: identity-expression stream composition (fractions of channel slots)
Matrix               nnz |   o.idle   o.done   o.stop   o.data |   i.idle   i.done   i.stop   i.data
relat3                24 |    0.697    0.030    0.030    0.242 |    0.000    0.030    0.242    0.727
"
        );
        let b = synth::random_matrix_sparsity(200, 200, 0.9, 71);
        let (run, [outer, inner]) = identity_stream_stats(&b);
        assert_eq!(run.cycles, Some(4201));
        let slots = |s: TokenStats| [s.non_control, s.stop, s.done, s.idle];
        assert_eq!(slots(outer), [200, 1, 1, 3999]);
        assert_eq!(slots(inner), [4000, 200, 1, 0]);
    }
}
