//! The Figure 11 fusion study: fused SDDMM asymptotically beats the unfused
//! factorized form, and locating beats co-iteration when K is small. The
//! fused variants are catalog graphs; the unfused form chains two
//! Custard-compiled kernels, materializing `T = C * D^T` and then sampling
//! it with `B`.
use custard::{lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
use sam::core::graphs;
use sam::exec::{BackendSpec, ExecRequest, Execution, Inputs};
use sam::tensor::expr::table1;
use sam::tensor::reference::Environment;
use sam::tensor::{synth, CooTensor, Tensor, TensorFormat};

/// Compiles `text` with Custard, binds `operands` in the derived formats
/// and runs it on the cycle-approximate backend.
fn compiled(text: &str, operands: &[(&str, &CooTensor)]) -> Execution {
    let cin =
        ConcreteIndexNotation::new(parse(text).expect("valid notation"), &Schedule::new(), Formats::new());
    let kernel = lower_exec(&cin).expect("executable expression");
    let mut inputs = Inputs::new();
    for (name, coo) in operands {
        let (_, fmt) = kernel.formats.iter().find(|(n, _)| n == name).expect("derived format");
        inputs = inputs.coo(name, coo, fmt.clone());
    }
    ExecRequest::new(&kernel.graph, &inputs).backend(BackendSpec::Cycle).run().expect("cycle run")
}

fn main() {
    let (i, j) = (100, 100);
    for k in [1usize, 10] {
        let b = synth::random_matrix_sparsity(i, j, 0.95, 1);
        let c = synth::dense_matrix(i, k, 2);
        let d = synth::dense_matrix(j, k, 3);
        let mut env = Environment::new();
        for (name, coo) in [("B", &b), ("C", &c), ("D", &d)] {
            env.insert(name, Tensor::from_coo(name, coo, TensorFormat::dense(2)).to_dense());
        }
        env.bind_dims(&table1::sddmm(), &[]);
        let expect = env.evaluate(&table1::sddmm()).unwrap();

        println!("SDDMM with K = {k}:");
        let t = compiled("T(i,j) = C(i,k) * D(j,k)", &[("C", &c), ("D", &d)]);
        let t_coo = t.output.as_ref().expect("tensor output").to_coo();
        let x = compiled("X(i,j) = B(i,j) * T(i,j)", &[("B", &b), ("T", &t_coo)]);
        let unfused = t.cycles.expect("cycle count") + x.cycles.expect("cycle count");
        assert!(x.output.expect("tensor output").to_dense().approx_eq(&expect));
        println!("  {:<20} {:>10} cycles", "Unfused", unfused);

        let inputs = Inputs::new()
            .coo("B", &b, TensorFormat::dcsr())
            .coo("C", &c, TensorFormat::dense(2))
            .coo("D", &d, TensorFormat::dense(2));
        for (name, graph) in
            [("Fused coiteration", graphs::sddmm_coiteration()), ("Fused locating", graphs::sddmm_locating())]
        {
            let run = ExecRequest::new(&graph, &inputs).backend(BackendSpec::Cycle).run().expect("cycle run");
            let cycles = run.cycles.expect("cycle count");
            assert!(run.output.expect("tensor output").to_dense().approx_eq(&expect), "{name} diverged");
            println!("  {name:<20} {cycles:>10} cycles");
        }
    }
    println!("every variant matches the dense reference evaluator");
}
