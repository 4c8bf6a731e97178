//! The static verifier wired into the planning path: every graph the
//! planner rejects is rejected by `sam-verify` first with more specific
//! diagnostics, and the deadlock classifier's verdicts line up with the
//! spills the pipelined backend actually observes.

use sam_core::graph::{NodeId, NodeKind, SamGraph, StreamKind};
use sam_core::graphs;
use sam_core::graphs::SpmmDataflow;
use sam_exec::{ExecRequest, FastBackend, Inputs, Plan, PlanCache, PlanError, Planner};
use sam_streams::chunked::ChunkConfig;
use sam_tensor::{synth, TensorFormat};
use sam_verify::{deadlock, Bindings, ChannelBudget, Rule};

fn vec_inputs() -> Inputs {
    let b = synth::random_vector(64, 20, 1);
    let c = synth::random_vector(64, 22, 2);
    Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec())
}

/// Broken `(graph, inputs)` pairs covering structural and binding-level
/// defect classes the planner rejects.
fn broken_cases() -> Vec<(&'static str, SamGraph, Inputs)> {
    // Structural: the values writer loses its input stream.
    let mut dangling = SamGraph::new("dangling");
    dangling.add_node(NodeKind::Root { tensor: "b".into() });
    dangling.add_node(NodeKind::LevelScanner { tensor: "b".into(), index: 'i', compressed: true });
    dangling.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: false });
    dangling.add_node(NodeKind::LevelWriter { tensor: "x".into(), index: 'i', vals: true });
    dangling.add_edge_on(NodeId(0), 0, NodeId(1), 0, StreamKind::Ref, "b ref");
    dangling.add_edge_on(NodeId(1), 0, NodeId(2), 0, StreamKind::Crd, "i crd");

    // Binding-level: an unbound tensor, a dense vector under a compressed
    // scanner, and a matrix bound to a single-level vector kernel.
    let missing = Inputs::new().coo("b", &synth::random_vector(64, 20, 3), TensorFormat::sparse_vec());
    let dense = Inputs::new().coo("b", &synth::random_vector(64, 20, 4), TensorFormat::dense_vec()).coo(
        "c",
        &synth::random_vector(64, 22, 5),
        TensorFormat::dense_vec(),
    );
    let matrix = Inputs::new()
        .coo("b", &synth::random_matrix_sparsity(16, 16, 0.5, 6), TensorFormat::dcsr())
        .coo("c", &synth::random_vector(64, 22, 7), TensorFormat::sparse_vec());

    vec![
        ("dangling-input", dangling, vec_inputs()),
        ("unknown-tensor", graphs::vec_elem_mul(true), missing),
        ("format-mismatch", graphs::vec_elem_mul(true), dense),
        ("rank-mismatch", graphs::vec_elem_mul(true), matrix),
    ]
}

/// Every planner rejection is preceded by a verifier rejection on the
/// `Planner` path, and the verifier's diagnostics carry more than the
/// planner's single first-error (rule id, node anchor, full list).
#[test]
fn planner_rejections_are_a_strict_subset_of_verifier_findings() {
    for (name, graph, inputs) in broken_cases() {
        let direct = Plan::build(&graph, &inputs);
        assert!(direct.is_err(), "{name}: the planner itself must reject this case");

        match Planner::uncached().plan(&graph, &inputs) {
            Err(PlanError::Rejected { diagnostics }) => {
                assert!(!diagnostics.is_empty(), "{name}: rejection must carry diagnostics");
                for d in &diagnostics {
                    assert!(!d.rule.id().is_empty(), "{name}: every diagnostic names its rule");
                }
            }
            other => panic!("{name}: expected PlanError::Rejected, got {other:?}"),
        }
    }
}

/// The verifier also gates the cached planning path, and rejections are
/// never cached.
#[test]
fn verifier_rejection_reaches_the_cache_path() {
    let (_, graph, inputs) = broken_cases().remove(0);
    let cache = PlanCache::new(8);
    for _ in 0..2 {
        match cache.get_or_plan(&graph, &inputs) {
            Err(PlanError::Rejected { .. }) => {}
            other => panic!("expected PlanError::Rejected, got {other:?}"),
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 0, "failed plans must not be cached");
    assert_eq!(stats.misses, 2, "both lookups re-verified");
}

/// Graphs every backend runs cleanly still plan cleanly through the
/// verifier gate (no false positives on the catalog path).
#[test]
fn clean_graphs_pass_the_gate() {
    let plan = Planner::uncached().plan(&graphs::vec_elem_mul(true), &vec_inputs()).unwrap();
    assert!(!plan.order().is_empty());
}

/// Cross-validation of the static deadlock classifier against the
/// pipelined backend's observed spill escapes. With one thread per node
/// every consumer is claimed, so any spill that still happens is
/// *structural* — a producer running ahead of a reconvergent branch that
/// stages tokens — exactly the shape `deadlock::analyze` classifies. The
/// classifier must flag every budget the backend spills at, and must stay
/// silent at planner-scale budgets, which run spill-free.
#[test]
fn deadlock_classifier_matches_observed_spills() {
    let n = 64;
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let b = synth::random_matrix_nnz(n, n, n * n / 2, 31);
    let c = synth::random_matrix_nnz(n, n, n * n / 2, 32);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
    let bt = sam_tensor::Tensor::from_coo("B", &b, TensorFormat::dcsr());
    let ct = sam_tensor::Tensor::from_coo("C", &c, TensorFormat::dcsr());
    let bindings = Bindings::new().bind("B", &bt).bind("C", &ct);

    let serial = ExecRequest::new(&graph, &inputs).executor(&FastBackend::serial()).run().unwrap();

    let tiny = ChunkConfig { chunk_len: 4, depth: 1 };
    let threads = graph.len(); // every node claimed: spills are structural
    let spilly = FastBackend::threads(threads).with_chunk_config(tiny);
    let run = ExecRequest::new(&graph, &inputs).executor(&spilly).run().unwrap();
    assert_eq!(run.output, serial.output, "the spill escape must not change results");

    let verdict =
        deadlock::analyze(&graph, &bindings, ChannelBudget { chunk_len: tiny.chunk_len, depth: tiny.depth });
    if run.spills > 0 {
        assert!(
            verdict.diagnostics.iter().any(|d| d.rule == Rule::BoundedDeadlock),
            "backend spilled {} times at a 4-token budget but the classifier calls the \
             topology safe",
            run.spills
        );
    }
    // This workload is known to stress the budget — the cross-check above
    // must not pass vacuously.
    assert!(run.spills > 0, "expected the 4-token budget to force structural spills");

    // Planner-derived depths size every channel for its estimated stream:
    // no spills observed, no deadlock flagged at that scale.
    let planned = ExecRequest::new(&graph, &inputs).executor(&FastBackend::pipelined(4)).run().unwrap();
    assert_eq!(planned.spills, 0, "planned depths must hold the estimated streams");
    let generous = deadlock::analyze(&graph, &bindings, ChannelBudget { chunk_len: 1024, depth: 8192 });
    assert!(
        generous.diagnostics.is_empty(),
        "classifier must not flag budgets the planner would choose:\n{}",
        generous.render()
    );
}
