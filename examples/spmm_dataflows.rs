//! Compare the three SpM*SpM dataflow classes (inner product, Gustavson,
//! outer product) on the same pair of sparse matrices — the Figure 12
//! study at a laptop-friendly size, one catalog graph per dataflow on the
//! cycle-approximate backend.
use sam::core::graphs::{self, SpmmDataflow};
use sam::exec::{BackendSpec, ExecRequest, Inputs};
use sam::tensor::expr::table1;
use sam::tensor::reference::Environment;
use sam::tensor::{synth, Tensor, TensorFormat};

fn main() {
    let b = synth::random_matrix_sparsity(120, 80, 0.95, 7);
    let c = synth::random_matrix_sparsity(80, 120, 0.95, 8);
    let mut env = Environment::new();
    env.insert("B", Tensor::from_coo("B", &b, TensorFormat::dense(2)).to_dense());
    env.insert("C", Tensor::from_coo("C", &c, TensorFormat::dense(2)).to_dense());
    env.bind_dims(&table1::spmm(), &[]);
    let expect = env.evaluate(&table1::spmm()).unwrap();

    println!("X(i,j) = sum_k B(i,k) C(k,j) with 95% sparse 120x80 / 80x120 operands");
    for flow in [SpmmDataflow::InnerProduct, SpmmDataflow::LinearCombination, SpmmDataflow::OuterProduct] {
        // Each dataflow reads the operand it iterates by columns stored
        // column-major.
        let b_fmt =
            if flow == SpmmDataflow::OuterProduct { TensorFormat::dcsc() } else { TensorFormat::dcsr() };
        let c_fmt =
            if flow == SpmmDataflow::InnerProduct { TensorFormat::dcsc() } else { TensorFormat::dcsr() };
        let inputs = Inputs::new().coo("B", &b, b_fmt).coo("C", &c, c_fmt);
        let run = ExecRequest::new(&graphs::spmm(flow), &inputs)
            .backend(BackendSpec::Cycle)
            .run()
            .expect("cycle run");
        let output = run.output.expect("tensor output");
        assert!(output.to_dense().approx_eq(&expect), "{} diverged from the reference", flow.label());
        println!(
            "  {:<28} {:>10} cycles ({} result nonzeros)",
            flow.label(),
            run.cycles.expect("cycle count"),
            output.nnz()
        );
    }
    println!("every dataflow matches the dense reference evaluator");
}
