//! The repository's benchmark: four named workloads, each run through the
//! public entry points a user calls, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernels-fast --seed 1 --seconds 26 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and seed with every layer call timed from outside and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object. See README.md for why each workload exists.

mod check;
mod gen;
mod kernels;
mod report;
mod serve;
mod spans;
mod stats;

use kernels::Engine;
use sam_exec::{BackendSpec, Parallelism, TiledBackend};
use sam_memory::MemoryConfig;

/// Operand scale of `kernels-fast` (the bench crate's `table1_case` dim).
pub const FAST_DIM: usize = 400;
/// Operand scale of `kernels-cycle`.
pub const CYCLE_DIM: usize = 200;
/// `kernels-tiled`: SpM*SpM dimensions at constant nnz, chosen so the
/// skipped share of tile tuples runs from 0% to nearly all of them, and so
/// the middle one's requests (whose median is the p50) take clearly longer
/// than the one below and clearly less than the two above.
pub const TILED_DIMS: [usize; 5] = [128, 192, 256, 384, 1024];
pub const TILED_NNZ: usize = 150;
pub const TILED_TILE: usize = 32;
pub const TILED_LLB_BYTES: usize = 16 * 1024;
pub const TILED_THREADS: usize = 2;

pub fn tiled_backend() -> TiledBackend {
    let config = MemoryConfig { tile: TILED_TILE, llb_bytes: TILED_LLB_BYTES, ..MemoryConfig::default() };
    TiledBackend::new(config).with_parallelism(Parallelism::Threads(TILED_THREADS))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <kernels-fast|kernels-cycle|kernels-tiled|serve-mixed> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let kernels = |name, cases, engine| {
        if args.trace {
            kernels::run_traced(name, cases, engine, seed, secs)
        } else {
            kernels::run(name, cases, engine, seed, secs)
        }
    };
    let mut report = match args.workload.as_str() {
        "kernels-fast" => {
            kernels("kernels-fast", gen::kernel_set(FAST_DIM, seed), Engine::Spec(BackendSpec::FastSerial))
        }
        "kernels-cycle" => {
            kernels("kernels-cycle", gen::kernel_set(CYCLE_DIM, seed), Engine::Spec(BackendSpec::Cycle))
        }
        "kernels-tiled" => kernels(
            "kernels-tiled",
            gen::tiled_set(&TILED_DIMS, TILED_NNZ, seed),
            Engine::Tiled(tiled_backend()),
        ),
        "serve-mixed" => serve::run(seed, secs, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    print!("{}", report.render());
}
