//! Quickstart: build two sparse vectors, run the element-wise multiply SAM
//! graph on the cycle-approximate backend, and check the result against
//! the dense oracle.
use sam::core::graphs;
use sam::exec::{BackendSpec, ExecRequest, Inputs};
use sam::tensor::expr::table1;
use sam::tensor::reference::Environment;
use sam::tensor::{synth, Tensor, TensorFormat};

fn main() {
    let dim = 1000;
    let b = synth::random_vector(dim, 200, 1);
    let c = synth::random_vector(dim, 200, 2);

    let graph = graphs::vec_elem_mul(true);
    let inputs =
        Inputs::new().coo("b", &b, TensorFormat::sparse_vec()).coo("c", &c, TensorFormat::sparse_vec());
    let run = ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().expect("cycle run");
    let output = run.output.expect("tensor output");
    println!("x(i) = b(i) * c(i) over {dim}-element vectors");
    println!("  simulated blocks : {}", run.blocks);
    println!("  simulated cycles : {}", run.cycles.expect("cycle count"));
    println!("  result nonzeros  : {}", output.nnz());

    // Check against the dense reference evaluator.
    let mut env = Environment::new();
    env.insert("b", Tensor::from_coo("b", &b, TensorFormat::dense_vec()).to_dense());
    env.insert("c", Tensor::from_coo("c", &c, TensorFormat::dense_vec()).to_dense());
    env.set_dim('i', dim);
    let expect = env.evaluate(&table1::vec_elem_mul()).unwrap();
    assert!(output.to_dense().approx_eq(&expect));
    println!("  matches the dense reference evaluator");
}
