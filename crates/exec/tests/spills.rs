//! Observability of the bounded-channel spill escape (`Execution::spills`)
//! and the win from planner-derived per-channel depths.

use sam_core::graphs;
use sam_exec::{ExecRequest, Executor, FastBackend, Inputs, Plan, PortRef};
use sam_streams::chunked::ChunkConfig;
use sam_tensor::{synth, TensorFormat};

/// Two-thread execution of a nine-node graph over long streams: with a
/// tiny fixed chunk config the producers run far ahead of unclaimed
/// consumers and must spill; with the default planner-derived depths every
/// channel is deep enough for its estimated stream and nothing spills. The
/// results are identical either way.
#[test]
fn planned_channel_depths_eliminate_the_fixed_config_spills() {
    let b = synth::random_vector(16_000, 15_000, 601);
    let c = synth::random_vector(16_000, 14_500, 602);
    let inputs =
        Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
    let graph = graphs::vec_elem_mul(true);

    let serial = ExecRequest::new(&graph, &inputs).executor(&FastBackend::serial()).run().unwrap();
    assert_eq!(serial.spills, 0, "serial mode has no channels to spill");

    let spilly = FastBackend::threads(2).with_chunk_config(ChunkConfig { chunk_len: 64, depth: 1 });
    let fixed = ExecRequest::new(&graph, &inputs).executor(&spilly).run().unwrap();
    assert!(fixed.spills > 0, "depth-1 channels under 15k-token streams must take the spill escape");
    assert_eq!(fixed.output, serial.output);

    let planned = ExecRequest::new(&graph, &inputs).executor(&FastBackend::pipelined(2)).run().unwrap();
    assert_eq!(planned.spills, 0, "planner-derived depths should hold the whole estimated stream in flight");
    assert!(planned.spills < fixed.spills, "the spill-counter delta is the point of the knob");
    assert_eq!(planned.output, serial.output);
}

/// The planner's stream-size estimates behave sanely: scanner outputs scale
/// with the level they read, and the derived channel depths are clamped.
#[test]
fn stream_estimates_drive_channel_depths() {
    let b = synth::random_vector(16_000, 15_000, 603);
    let c = synth::random_vector(16_000, 20, 604);
    let inputs =
        Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
    let plan = Plan::build(&graphs::vec_elem_mul(true), &inputs).unwrap();

    // Find the scanners' crd ports through the channel topology.
    let mut depths = Vec::new();
    let mut estimates = Vec::new();
    for spec in plan.channels() {
        estimates.push(plan.stream_size_estimate(spec.from));
        depths.push(plan.channel_depth(spec, 1024));
    }
    assert!(estimates.iter().any(|&e| e >= 15_000), "the dense side's streams are long");
    assert!(estimates.iter().any(|&e| e <= 64), "the sparse side's streams are short");
    assert!(depths.iter().all(|&d| (sam_exec::MIN_CHANNEL_DEPTH..=sam_exec::MAX_CHANNEL_DEPTH).contains(&d)));
    assert!(depths.iter().any(|&d| d > sam_exec::MIN_CHANNEL_DEPTH), "long streams get deeper channels");

    // The estimate for an out-of-range port is zero, not a panic.
    let bogus = PortRef { node: plan.order()[0], port: 99 };
    assert_eq!(plan.stream_size_estimate(bogus), 0);

    // Both sizings execute identically.
    let a = FastBackend::pipelined(3).run(&plan, &inputs).unwrap();
    let f = FastBackend::threads(3)
        .with_chunk_config(ChunkConfig { chunk_len: 32, depth: 2 })
        .run(&plan, &inputs)
        .unwrap();
    assert_eq!(a.output, f.output);
    assert_eq!(a.vals, f.vals);
}

/// Regression guard for the scanner stream-size estimate: it used to take
/// the *average* fiber length, so kernels with skewed fibers (SpMM,
/// MTTKRP) under-sized their channels and spilled hundreds of times even
/// at planned depths. The estimate now takes the longest fiber, and the
/// whole kernel catalog must run the pipelined engine spill-free.
#[test]
fn planned_depths_hold_the_whole_catalog_spill_free() {
    use sam_core::graph::SamGraph;
    use sam_core::graphs::SpmmDataflow;

    let vb = synth::random_vector(4_000, 1_800, 611);
    let vc = synth::random_vector(4_000, 1_700, 612);
    let m = synth::random_matrix_sparsity(90, 70, 0.5, 613);
    let n = synth::random_matrix_sparsity(70, 80, 0.5, 614);
    let sv = synth::random_vector(70, 50, 615);
    let dense_c = synth::dense_matrix(90, 8, 616);
    let dense_d = synth::dense_matrix(70, 8, 617);
    let b3 = synth::random_tensor3([30, 20, 20], 2_400, 618);
    let fc = synth::random_matrix_sparsity(20, 10, 0.4, 619);
    let fd = synth::random_matrix_sparsity(20, 10, 0.4, 620);

    let catalog: Vec<(SamGraph, Inputs)> = vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
        ),
        (graphs::identity(), Inputs::new().coo("B", &m, TensorFormat::dcsr())),
        (
            graphs::spmv(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::dense_vec()),
        ),
        (
            graphs::spmv_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        (
            graphs::spmv_with_skip(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::sparse_vec()),
        ),
        (
            graphs::spmm(SpmmDataflow::LinearCombination),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &n, TensorFormat::dcsr()),
        ),
        (
            graphs::spmm(SpmmDataflow::InnerProduct),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &n, TensorFormat::dcsc()),
        ),
        (
            graphs::spmm(SpmmDataflow::OuterProduct),
            Inputs::new().coo("B", &m, TensorFormat::dcsc()).coo("C", &n, TensorFormat::dcsr()),
        ),
        (
            graphs::sddmm_coiteration(),
            Inputs::new().coo("B", &m, TensorFormat::dcsr()).coo("C", &dense_c, TensorFormat::dense(2)).coo(
                "D",
                &dense_d,
                TensorFormat::dense(2),
            ),
        ),
        (
            graphs::mttkrp(),
            Inputs::new().coo("B", &b3, TensorFormat::csf(3)).coo("C", &fc, TensorFormat::dcsc()).coo(
                "D",
                &fd,
                TensorFormat::dcsc(),
            ),
        ),
    ];

    for (graph, inputs) in catalog {
        let serial = ExecRequest::new(&graph, &inputs).executor(&FastBackend::serial()).run().unwrap();
        let run = ExecRequest::new(&graph, &inputs)
            .executor(&FastBackend::pipelined(4))
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name));
        assert_eq!(run.spills, 0, "{}: planned depths must not spill", graph.name);
        assert_eq!(run.output, serial.output, "{}", graph.name);
        assert_eq!(run.vals, serial.vals, "{}", graph.name);
    }
}
