//! The Section 6.5 backend case study: the OuterSPACE accelerator's
//! outer-product dataflow expressed as a SAM graph (paper Figure 16),
//! compared against Gustavson's dataflow on the same operands.
use sam::core::graphs::{self, SpmmDataflow};
use sam::exec::{BackendSpec, ExecRequest, Execution, Inputs};
use sam::tensor::expr::table1;
use sam::tensor::reference::Environment;
use sam::tensor::{synth, CooTensor, Tensor, TensorFormat};

/// Runs one SpM*SpM catalog graph on the cycle-approximate backend.
fn run(flow: SpmmDataflow, b: &CooTensor, c: &CooTensor) -> Execution {
    // The outer product iterates B by columns, so B is stored DCSC.
    let b_fmt = if flow == SpmmDataflow::OuterProduct { TensorFormat::dcsc() } else { TensorFormat::dcsr() };
    let inputs = Inputs::new().coo("B", b, b_fmt).coo("C", c, TensorFormat::dcsr());
    ExecRequest::new(&graphs::spmm(flow), &inputs).backend(BackendSpec::Cycle).run().expect("cycle run")
}

fn main() {
    let b = synth::random_matrix_sparsity(100, 100, 0.98, 11);
    let c = synth::random_matrix_sparsity(100, 100, 0.98, 12);
    let outer = run(SpmmDataflow::OuterProduct, &b, &c);
    let rows = run(SpmmDataflow::LinearCombination, &b, &c);
    for (name, r) in [("OuterSPACE-style outer product", &outer), ("Gustavson linear combination", &rows)] {
        println!("{name:<31}: {:>9} cycles, {} blocks", r.cycles.expect("cycle count"), r.blocks);
    }

    let mut env = Environment::new();
    env.insert("B", Tensor::from_coo("B", &b, TensorFormat::dense(2)).to_dense());
    env.insert("C", Tensor::from_coo("C", &c, TensorFormat::dense(2)).to_dense());
    env.bind_dims(&table1::spmm(), &[]);
    let expect = env.evaluate(&table1::spmm()).unwrap();
    let (outer, rows) = (outer.output.expect("tensor output"), rows.output.expect("tensor output"));
    assert!(outer.to_dense().approx_eq(&expect) && rows.to_dense().approx_eq(&expect));
    println!("both dataflows match the dense reference ({} nonzeros)", outer.nnz());
}
