//! Workspace-level integration tests: every kernel is exercised through the
//! umbrella crate and checked against the dense reference evaluator, the
//! Custard-lowered graphs are checked for structural sanity, and the graph
//! catalog is executed on both `sam-exec` backends with results
//! cross-checked against each other and the dense reference.
use custard::{lower, lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
use sam::core::graphs::{self, SpmmDataflow};
use sam::exec::{BackendSpec, CycleBackend, ExecRequest, Executor, FastBackend, Inputs};
use sam::tensor::reference::Environment;
use sam::tensor::{synth, CooTensor, Tensor, TensorFormat};
use sam_bench::{spmm_order, vec_elem_mul, VecFormat};

/// The dense reference of `text` over the named COO operands.
fn reference(text: &str, operands: &[(&str, &CooTensor)]) -> sam::tensor::DenseTensor {
    let assignment = parse(text).unwrap();
    let mut env = Environment::new();
    for (name, coo) in operands {
        env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(coo.order())).to_dense());
    }
    env.bind_dims(&assignment, &[]);
    env.evaluate(&assignment).unwrap()
}

#[test]
fn spmv_end_to_end_matches_oracle() {
    let b = synth::random_matrix_sparsity(50, 35, 0.92, 100);
    let c = synth::random_vector(35, 35, 101);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
    let run = ExecRequest::new(&graphs::spmv(), &inputs).backend(BackendSpec::Cycle).run().unwrap();
    let expect = reference("x(i) = B(i,j) * c(j)", &[("B", &b), ("c", &c)]);
    assert!(run.output.unwrap().to_dense().approx_eq(&expect));
}

/// All six loop orders of SpM*SpM compile, run on fast-serial and cycle,
/// and agree with the dense reference — including the three that nest `j`
/// outside `i` and so store the output column-major.
#[test]
fn every_spmm_order_is_functionally_identical() {
    let b = synth::random_matrix_sparsity(30, 20, 0.9, 102);
    let c = synth::random_matrix_sparsity(20, 25, 0.9, 103);
    let text = "X(i,j) = B(i,k) * C(k,j)";
    let expect = reference(text, &[("B", &b), ("C", &c)]);
    for order in ["ijk", "jik", "ikj", "jki", "kij", "kji"] {
        let cin =
            ConcreteIndexNotation::new(parse(text).unwrap(), &Schedule::new().reorder(order), Formats::new());
        let kernel = lower_exec(&cin).unwrap();
        let mut inputs = Inputs::new();
        for (name, fmt) in &kernel.formats {
            inputs = inputs.coo(name, if name == "B" { &b } else { &c }, fmt.clone());
        }
        for spec in [BackendSpec::FastSerial, BackendSpec::Cycle] {
            let run = ExecRequest::new(&kernel.graph, &inputs)
                .backend(spec)
                .run()
                .unwrap_or_else(|e| panic!("order {order} on {spec:?}: {e}"));
            let out = run.output.expect("tensor output");
            assert!(out.to_dense().approx_eq(&expect), "order {order} on {spec:?} diverged");
        }
    }
}

#[test]
fn dataflow_order_changes_cycles_but_not_results() {
    let b = synth::random_matrix_sparsity(80, 40, 0.95, 104);
    let c = synth::random_matrix_sparsity(40, 80, 0.95, 105);
    let (inner, inner_cycles) = spmm_order(&b, &c, "ijk");
    let (rows, rows_cycles) = spmm_order(&b, &c, "ikj");
    assert!(rows_cycles < inner_cycles, "Gustavson should win on sparse inputs");
    assert!(inner.approx_eq(&rows));
}

#[test]
fn figure13_formats_agree_on_runs_and_blocks_data() {
    let dim = 1024;
    for (b, c) in [synth::runs_vector_pair(dim, 200, 8, 106), synth::blocks_vector_pair(dim, 200, 8, 107)] {
        let reference = vec_elem_mul(&b, &c, dim, VecFormat::Crd).0.to_dense();
        for fmt in VecFormat::figure13_set() {
            let out = vec_elem_mul(&b, &c, dim, fmt).0.to_dense();
            assert!(out.approx_eq(&reference), "format {} diverged", fmt.label());
        }
    }
}

/// Every kernel graph in the catalog runs on both backends; FastBackend ==
/// CycleBackend == dense reference.
#[test]
fn every_kernel_graph_agrees_across_backends_and_reference() {
    let b = synth::random_matrix_sparsity(20, 16, 0.88, 200);
    let c = synth::random_matrix_sparsity(16, 18, 0.88, 201);
    let vb = synth::random_vector(120, 30, 202);
    let vc = synth::random_vector(120, 35, 203);
    let dense_c = synth::dense_matrix(20, 5, 204);
    let dense_d = synth::dense_matrix(16, 5, 205);
    let sv = synth::random_vector(16, 16, 206);

    let cases: Vec<(sam::core::SamGraph, Inputs, &str)> = vec![
        (
            graphs::vec_elem_mul(true),
            Inputs::new().coo("b", &vb, TensorFormat::sparse_vec()).coo("c", &vc, TensorFormat::sparse_vec()),
            "x(i) = b(i) * c(i)",
        ),
        (graphs::identity(), Inputs::new().coo("B", &b, TensorFormat::dcsr()), "X(i,j) = B(i,j)"),
        (
            graphs::spmv(),
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &sv, TensorFormat::dense_vec()),
            "x(i) = B(i,j) * c(j)",
        ),
        (
            graphs::spmm(SpmmDataflow::LinearCombination),
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr()),
            "X(i,j) = B(i,k) * C(k,j)",
        ),
        (
            graphs::spmm(SpmmDataflow::InnerProduct),
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsc()),
            "X(i,j) = B(i,k) * C(k,j)",
        ),
        (
            graphs::spmm(SpmmDataflow::OuterProduct),
            Inputs::new().coo("B", &b, TensorFormat::dcsc()).coo("C", &c, TensorFormat::dcsr()),
            "X(i,j) = B(i,k) * C(k,j)",
        ),
        (
            graphs::sddmm_coiteration(),
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &dense_c, TensorFormat::dense(2)).coo(
                "D",
                &dense_d,
                TensorFormat::dense(2),
            ),
            "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
        ),
        (
            graphs::sddmm_locating(),
            Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &dense_c, TensorFormat::dense(2)).coo(
                "D",
                &dense_d,
                TensorFormat::dense(2),
            ),
            "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
        ),
    ];

    for (graph, inputs, text) in cases {
        // Dense reference for this expression over the bound operands.
        let assignment = parse(text).unwrap();
        let mut env = Environment::new();
        for (name, tensor) in inputs.iter() {
            env.insert(name, tensor.to_dense());
        }
        env.bind_dims(&assignment, &[]);
        let expect = env.evaluate(&assignment).unwrap();

        let cycle = ExecRequest::new(&graph, &inputs)
            .executor(&CycleBackend::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: cycle backend failed: {e}", graph.name));
        let fast = ExecRequest::new(&graph, &inputs)
            .executor(&FastBackend::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: fast backend failed: {e}", graph.name));
        let cycle_out = cycle.output.expect("tensor output");
        let fast_out = fast.output.expect("tensor output");
        assert_eq!(cycle_out, fast_out, "{}: backends disagree structurally", graph.name);
        assert!(
            cycle_out.to_dense().approx_eq(&expect),
            "{}: executor output diverged from the dense reference",
            graph.name
        );
        assert!(cycle.cycles.expect("cycle count") > 0);
    }
}

/// The custard pipeline end-to-end: compile SpMV from notation, execute on
/// both backends, compare with the hand-written catalog graph's result.
#[test]
fn compiled_spmv_agrees_with_hand_kernel() {
    let b = synth::random_matrix_sparsity(40, 30, 0.92, 210);
    let c = synth::random_vector(30, 30, 211);
    let catalog = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("c", &c, TensorFormat::dense_vec());
    let hand = ExecRequest::new(&graphs::spmv(), &catalog).run().unwrap().output.unwrap();

    let assignment = parse("x(i) = B(i,j) * c(j)").unwrap();
    let cin = ConcreteIndexNotation::new(
        assignment,
        &Schedule::new(),
        Formats::new().set("c", TensorFormat::dense_vec()),
    );
    let kernel = lower_exec(&cin).unwrap();
    let mut inputs = Inputs::new();
    for (name, fmt) in &kernel.formats {
        let coo = if name == "B" { &b } else { &c };
        inputs = inputs.coo(name, coo, fmt.clone());
    }
    for backend in [&CycleBackend::default() as &dyn Executor, &FastBackend::default()] {
        let run = ExecRequest::new(&kernel.graph, &inputs).executor(backend).run().unwrap();
        assert!(
            run.output.unwrap().to_dense().approx_eq(&hand.to_dense()),
            "{} backend disagreed with the catalog graph",
            backend.name()
        );
    }
}

/// The fast backend moves strictly fewer or equal tokens than the cycle
/// backend (no fork duplication) while producing the same tensor.
#[test]
fn fast_backend_is_leaner_than_cycle_backend() {
    let b = synth::random_matrix_sparsity(30, 25, 0.9, 220);
    let c = synth::random_matrix_sparsity(25, 30, 0.9, 221);
    let graph = graphs::spmm(SpmmDataflow::LinearCombination);
    let inputs = Inputs::new().coo("B", &b, TensorFormat::dcsr()).coo("C", &c, TensorFormat::dcsr());
    let cycle = ExecRequest::new(&graph, &inputs).executor(&CycleBackend::default()).run().unwrap();
    let fast = ExecRequest::new(&graph, &inputs).executor(&FastBackend::default()).run().unwrap();
    assert_eq!(cycle.output.unwrap(), fast.output.unwrap());
    assert!(fast.tokens <= cycle.tokens, "fast={} cycle={}", fast.tokens, cycle.tokens);
}

#[test]
fn custard_counts_are_stable_across_schedules() {
    let a = parse("X(i,j) = B(i,k) * C(k,j)").unwrap();
    for order in ["ijk", "ikj", "kij"] {
        let cin = ConcreteIndexNotation::new(a.clone(), &Schedule::new().reorder(order), Formats::new());
        let counts = lower(&cin).primitive_counts();
        assert_eq!(counts.level_scan, 4, "order {order}");
        assert_eq!(counts.alu, 1);
        assert_eq!(counts.array, 2);
    }
}
