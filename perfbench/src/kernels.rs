//! The one-shot workloads — `kernels-fast`, `kernels-cycle` and
//! `kernels-tiled` — as a single closed-loop caller of `ExecRequest`.

use crate::check::{self, Expected};
use crate::gen::Case;
use crate::report::{self, Report};
use crate::spans::Spans;
use crate::stats::{quantile, Summary};
use custard::{ConcreteIndexNotation, ExecutableKernel, Formats, Schedule};
use sam_exec::{
    BackendSpec, CountersSink, ExecRequest, Execution, Inputs, MemoryCounters, PlanCache, PlanCacheStats,
    TiledBackend,
};
use std::time::Instant;

/// Setup runs often enough to fill about [`SETUP_SECS`], judged by the
/// first one, but at least [`SETUP_REPS`] and at most [`SETUP_MAX_REPS`]
/// times; `setup_s` is the median. The tiled set takes about 50 ms to set
/// up and the fast set several hundred, so one count would leave either
/// few samples or a long set-up. The setups after the first are spread
/// evenly over the measured run, so they see the same phases of the host
/// as the requests do (a two-thread set-up runs up to twice as long in a
/// busy phase that lasts seconds).
pub const SETUP_REPS: usize = 5;
pub const SETUP_SECS: f64 = 2.0;
pub const SETUP_MAX_REPS: usize = 31;

/// The largest share of a traced request's wall time that may fall in no
/// layer's span before the stage-sum check fails. On fast-serial about a
/// fifth of the run is outside every node's busy time today (output
/// assembly and per-node setup, ROADMAP item 1(a)).
pub const RESIDUAL: f64 = 0.35;

/// What runs the requests.
#[derive(Debug)]
pub enum Engine {
    /// A backend built per request from its spec (`kernels-fast`,
    /// `kernels-cycle`).
    Spec(BackendSpec),
    /// One configured tiled backend (`kernels-tiled`).
    Tiled(TiledBackend),
}

impl Engine {
    fn request<'a>(&'a self, kernel: &'a Kernel) -> ExecRequest<'a> {
        let request = ExecRequest::new(&kernel.compiled.graph, &kernel.inputs);
        match self {
            Engine::Spec(spec) => request.backend(*spec),
            Engine::Tiled(backend) => request.executor(backend),
        }
    }
}

/// One compiled, bound kernel with its expected output.
#[derive(Debug)]
pub struct Kernel {
    pub name: String,
    pub compiled: ExecutableKernel,
    pub inputs: Inputs,
    pub expected: Expected,
}

/// custard: parse + `lower_exec` (a catalog graph passes through).
pub fn compile(case: &Case) -> ExecutableKernel {
    if let Some(graph) = &case.graph {
        return ExecutableKernel { graph: graph.clone(), formats: case.formats.clone(), scalars: Vec::new() };
    }
    let assignment = custard::parse(&case.text).expect("generated expressions parse");
    let schedule = case.order.map_or_else(Schedule::new, |o| Schedule::new().reorder(o));
    let mut formats = Formats::new();
    for (name, format) in &case.formats {
        formats = formats.set(name, format.clone());
    }
    custard::lower_exec(&ConcreteIndexNotation::new(assignment, &schedule, formats))
        .expect("generated expressions lower")
}

/// Binds one operand in the format the compiled kernel derived for it.
fn bind_one(inputs: Inputs, kernel: &ExecutableKernel, name: &str, coo: &sam_tensor::CooTensor) -> Inputs {
    let format = kernel.formats.iter().find(|(n, _)| n == name).expect("operand of the kernel").1.clone();
    inputs.coo(name, coo, format)
}

fn bind(case: &Case, kernel: &ExecutableKernel) -> Inputs {
    let mut inputs = Inputs::new();
    for (name, coo) in &case.operands {
        inputs = bind_one(inputs, kernel, name, coo);
    }
    for (name, value) in &case.scalars {
        inputs = inputs.scalar(name, *value);
    }
    inputs
}

/// The reference outputs: harness work, outside every timed span.
pub fn expected(cases: &[Case]) -> Vec<Expected> {
    cases
        .iter()
        .map(|c| {
            let assignment = custard::parse(&c.text).expect("generated expressions parse");
            check::reference(&assignment, &c.operands, &c.scalars)
        })
        .collect()
}

/// The counts of one request that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exact {
    pub tokens: u64,
    pub spills: u64,
    pub cycles: u64,
    pub blocks: u64,
    pub channels: u64,
    /// blocks × cycles: the simulator's stepping work.
    pub block_cycles: u64,
    pub memory: MemoryCounters,
}

impl Exact {
    fn of(run: &Execution) -> Exact {
        Exact {
            tokens: run.tokens,
            spills: run.spills,
            cycles: run.cycles.unwrap_or(0),
            blocks: run.blocks as u64,
            channels: run.channels as u64,
            block_cycles: run.blocks as u64 * run.cycles.unwrap_or(0),
            memory: run.memory.unwrap_or_default(),
        }
    }
}

/// Per-request checking: output against the reference, and the exact
/// counts against the first pass.
#[derive(Debug, Default)]
struct Gate {
    first: Vec<Option<Exact>>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    drift: Vec<String>,
}

impl Gate {
    fn new(n: usize) -> Gate {
        Gate { first: vec![None; n], ..Gate::default() }
    }

    fn check(&mut self, i: usize, kernel: &Kernel, result: &Result<Execution, sam_exec::ExecError>) {
        self.attempted += 1;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    self.drift.push(format!("{}: typed error: {e}", kernel.name));
                }
                return;
            }
        };
        if !check::matches(run, &kernel.expected) {
            self.wrong += 1;
        }
        let exact = Exact::of(run);
        match self.first[i] {
            None => self.first[i] = Some(exact),
            Some(first) if first != exact => self.drift.push(format!(
                "{}: exact counts changed between passes: {first:?} vs {exact:?}",
                kernel.name
            )),
            Some(_) => {}
        }
    }

    /// Σ of one pass's exact counts.
    fn pass_total(&self) -> Exact {
        let mut t = Exact::default();
        for e in self.first.iter().flatten() {
            t.tokens += e.tokens;
            t.spills += e.spills;
            t.cycles += e.cycles;
            t.blocks += e.blocks;
            t.channels += e.channels;
            t.block_cycles += e.block_cycles;
            t.memory.dram_bytes += e.memory.dram_bytes;
            t.memory.llb_peak_bytes = t.memory.llb_peak_bytes.max(e.memory.llb_peak_bytes);
            t.memory.tiles_visited += e.memory.tiles_visited;
            t.memory.tiles_skipped += e.memory.tiles_skipped;
            t.memory.tiles_executed += e.memory.tiles_executed;
            t.memory.spill_events += e.memory.spill_events;
        }
        t
    }

    /// Keeps the first pass's exact counts and any wrong output, but starts
    /// the request counts afresh: priming requests belong to setup.
    fn after_setup(self) -> Gate {
        Gate { first: self.first, drift: self.drift, wrong: self.wrong, ..Gate::default() }
    }

    fn into_report(self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.wrong += self.wrong;
        if self.wrong > 0 {
            report.broken.push(format!("{} outputs differ from the dense reference", self.wrong));
        }
        report.broken.extend(self.drift.into_iter().filter(|d| !d.contains("typed error")));
    }
}

/// Compiles and binds every case and runs one priming pass, timed as one
/// setup; `spans`, when given, records each layer call.
fn setup(
    cases: &[Case],
    expected: &[Expected],
    engine: &Engine,
    mut spans: Option<&mut Spans>,
) -> (Vec<Kernel>, f64, Vec<Result<Execution, sam_exec::ExecError>>) {
    PlanCache::global().clear();
    let started = Instant::now();
    let mut kernels = Vec::with_capacity(cases.len());
    for (case, expected) in cases.iter().zip(expected) {
        let (compiled, inputs) = match spans.as_deref_mut() {
            None => {
                let compiled = compile(case);
                let inputs = bind(case, &compiled);
                (compiled, inputs)
            }
            Some(spans) => {
                let (compiled, _) = spans.time("custard.compile", None, 0, || compile(case));
                let mut inputs = Inputs::new();
                for (name, coo) in &case.operands {
                    inputs = spans.time("exec.bind", None, 0, || bind_one(inputs, &compiled, name, coo)).0;
                }
                for (name, value) in &case.scalars {
                    inputs = inputs.scalar(name, *value);
                }
                let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
                spans.time("verify", None, 0, || sam_verify::verify_bound(&compiled.graph, &bindings));
                (compiled, inputs)
            }
        };
        kernels.push(Kernel { name: case.name.clone(), compiled, inputs, expected: expected.clone() });
    }
    let primed: Vec<_> = kernels.iter().map(|k| engine.request(k).run()).collect();
    (kernels, started.elapsed().as_secs_f64(), primed)
}

/// One pass's totals.
#[derive(Debug, Default, Clone, Copy)]
struct Pass {
    wall_ns: u64,
    cycles: u64,
}

/// The untraced run: setup (several times), then closed-loop passes over
/// the kernel set until `seconds` have been measured.
pub fn run(workload: &'static str, cases: Vec<Case>, engine: Engine, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(workload, seed, false);
    let expected = expected(&cases);
    let mut gate = Gate::new(cases.len());
    // Priming requests are requests too: their outputs are checked and
    // they count as attempted.
    let setup_once = |gate: &mut Gate| {
        let (kernels, secs, primed) = setup(&cases, &expected, &engine, None);
        for (i, result) in primed.iter().enumerate() {
            gate.check(i, &kernels[i], result);
        }
        (kernels, secs)
    };
    let (mut kernels, first) = setup_once(&mut gate);
    let mut setups = vec![first];
    let rounds = ((SETUP_SECS / first.max(1e-6)).ceil() as usize).clamp(SETUP_REPS, SETUP_MAX_REPS);
    let mut walls = Vec::new();
    let mut per_kernel: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let mut in_setup = 0.0;
    loop {
        let measured = started.elapsed().as_secs_f64() - in_setup;
        if measured >= seconds {
            break;
        }
        if setups.len() < rounds && measured >= seconds * setups.len() as f64 / rounds as f64 {
            let t = Instant::now();
            let (k, secs) = setup_once(&mut gate);
            kernels = k;
            setups.push(secs);
            in_setup += t.elapsed().as_secs_f64();
            continue;
        }
        let mut pass = Pass::default();
        for (i, kernel) in kernels.iter().enumerate() {
            let t0 = Instant::now();
            let result = engine.request(kernel).run();
            let t1 = Instant::now();
            let wall = t1.duration_since(t0);
            walls.push(wall.as_secs_f64() * 1e3);
            per_kernel[i].push(wall.as_secs_f64() * 1e3);
            pass.wall_ns += wall.as_nanos() as u64;
            if let Ok(run) = &result {
                pass.cycles += run.cycles.unwrap_or(0);
            }
            gate.check(i, kernel, &result);
        }
        passes.push(pass);
    }
    let totals = gate.pass_total();
    // Rates are whole-run totals over the time spent inside `run`, so every
    // pass weighs by its length; the printed spread is over passes.
    let total_s = passes.iter().map(|p| p.wall_ns).sum::<u64>() as f64 / 1e9;
    let per_pass = |total: f64, f: &dyn Fn(&Pass) -> f64| Summary {
        median: total / total_s,
        ..Summary::of(&passes.iter().map(f).collect::<Vec<_>>())
    };
    report.set("setup_s", Summary::of(&setups));
    report.set("latency_p50_ms", latency_summary(&walls, 0.5, passes.len()));
    report.set("latency_p99_ms", latency_summary(&walls, 0.99, passes.len()));
    report.set(
        "throughput_rps",
        per_pass(walls.len() as f64, &|p| kernels.len() as f64 / (p.wall_ns as f64 / 1e9)),
    );
    report.set(
        "ok_frac",
        Summary::exact((gate.attempted - gate.failed - gate.wrong) as f64 / gate.attempted.max(1) as f64),
    );
    if totals.cycles > 0 {
        report.set("sim_cycles", Summary::exact(totals.cycles as f64));
        let cycles = passes.iter().map(|p| p.cycles).sum::<u64>() as f64;
        report.set("sim_cycles_per_s", per_pass(cycles, &|p| p.cycles as f64 / (p.wall_ns as f64 / 1e9)));
    }
    if totals.memory.dram_bytes > 0 {
        report.set("dram_bytes", Summary::exact(totals.memory.dram_bytes as f64));
    }
    report.set("peak_rss_mb", Summary::exact(report::peak_rss_mb()));
    report.note(format!(
        "closed loop, 1 caller: {} passes over {} kernels, {} requests in {:.1} s; latency percentiles over all \
         requests, rates over the whole run; {} setups spread over the run",
        passes.len(),
        kernels.len(),
        walls.len(),
        started.elapsed().as_secs_f64() - in_setup,
        setups.len()
    ));
    if totals.cycles > 0 {
        let cycles: Vec<String> = kernels
            .iter()
            .zip(&gate.first)
            .map(|(k, e)| format!("{} {}", k.name, e.map_or(0, |e| e.cycles)))
            .collect();
        report.note(format!("per-kernel cycles: {}", cycles.join(", ")));
    }
    let medians: Vec<String> = kernels
        .iter()
        .zip(&per_kernel)
        .map(|(k, w)| format!("{} {:.3}", k.name, crate::stats::median(w)))
        .collect();
    report.note(format!("per-kernel median ms: {}", medians.join(", ")));
    report.note(format!(
        "exact per pass: tokens {} cycles {} dram_bytes {} tiles visited/skipped/executed {}/{}/{}",
        totals.tokens,
        totals.cycles,
        totals.memory.dram_bytes,
        totals.memory.tiles_visited,
        totals.memory.tiles_skipped,
        totals.memory.tiles_executed
    ));
    gate.into_report(&mut report);
    report
}

/// A latency percentile over all samples, with its spread taken over
/// equal consecutive slices of the run (one per pass group), so the printed
/// spread says how much the percentile moves within the run.
fn latency_summary(samples: &[f64], q: f64, groups: usize) -> Summary {
    let overall = quantile(samples, q);
    let groups = groups.clamp(1, 10);
    let chunk = samples.len().div_ceil(groups).max(1);
    let per_group: Vec<f64> = samples.chunks(chunk).map(|c| quantile(c, q)).collect();
    Summary { median: overall, iqr_frac: Summary::of(&per_group).iqr_frac, samples: samples.len() }
}

/// The traced run: the same setup and load, but every layer call timed
/// from outside, each request split into `ExecRequest::plan` and a
/// `.planned(..).traced(..)` run. Untraced passes interleave with the
/// traced ones so `trace.overhead_ratio` compares neighbours.
pub fn run_traced(
    workload: &'static str,
    cases: Vec<Case>,
    engine: Engine,
    seed: u64,
    seconds: f64,
) -> Report {
    let mut report = Report::new(workload, seed, true);
    let expected = expected(&cases);
    let mut spans = Spans::new();
    let (kernels, _, primed) = setup(&cases, &expected, &engine, Some(&mut spans));
    let mut gate = Gate::new(cases.len());
    for (i, result) in primed.iter().enumerate() {
        gate.check(i, &kernels[i], result);
    }
    let mut gate = gate.after_setup();
    let plans_before = PlanCache::global().stats();
    let mut untraced_passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut traced: Vec<PassTrace> = Vec::new();
    let started = Instant::now();
    let mut request_id = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let mut untraced_ns = 0;
        for (i, kernel) in kernels.iter().enumerate() {
            let t0 = Instant::now();
            let result = engine.request(kernel).run();
            untraced_ns += t0.elapsed().as_nanos() as u64;
            gate.check(i, kernel, &result);
        }
        untraced_passes.push(untraced_ns as f64);
        let mut pass = PassTrace::default();
        for (i, kernel) in kernels.iter().enumerate() {
            request_id += 1;
            let root = spans.open("request", None, request_id);
            let (plan, plan_span) =
                spans.time("exec.plan", Some(root), request_id, || engine.request(kernel).plan());
            let sink = CountersSink::new();
            let (result, run_span) = spans.time("exec.run", Some(root), request_id, || match plan {
                Ok(plan) => engine.request(kernel).planned(plan).traced(&sink).run(),
                Err(e) => Err(e),
            });
            spans.close(root);
            pass.add(&spans, root, plan_span, run_span, &result);
            gate.check(i, kernel, &result);
        }
        traced_passes.push(pass.total_ns as f64);
        traced.push(pass);
    }
    let plans = PlanCache::global().stats().delta_since(&plans_before);
    let totals = gate.pass_total();
    fill_kernel_layers(&mut report, &spans, &traced, &plans, &totals, &engine);
    let ratio = crate::stats::median(&traced_passes) / crate::stats::median(&untraced_passes);
    report.layer("trace.overhead_ratio", ratio);
    report.note(format!(
        "{} traced and {} untraced passes interleaved; per-pass layer times are medians over traced passes",
        traced_passes.len(),
        untraced_passes.len()
    ));
    stage_sum_check(&mut report, &traced);
    probe(&mut report, &emptied(&cases));
    gate.into_report(&mut report);
    write_spans(&spans, workload, seed, &mut report);
    report
}

pub fn write_spans(spans: &Spans, workload: &str, seed: u64, report: &mut Report) {
    let path = std::path::PathBuf::from(format!("perfbench-out/spans-{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => report.note(format!("{} spans written to {}", spans.spans.len(), path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}

/// One traced pass, summed over its requests.
#[derive(Debug, Default, Clone)]
struct PassTrace {
    total_ns: u64,
    plan_ns: u64,
    run_ns: u64,
    elapsed_ns: u64,
    busy_ns: u64,
    critical_ns: u64,
    run_us: Vec<f64>,
    worker_tasks: u64,
    worker_steals: u64,
    worker_busy_ns: u64,
    worker_capacity_ns: u64,
}

impl PassTrace {
    fn add(
        &mut self,
        spans: &Spans,
        root: usize,
        plan: usize,
        run: usize,
        result: &Result<Execution, sam_exec::ExecError>,
    ) {
        self.total_ns += spans.spans[root].ns();
        self.plan_ns += spans.spans[plan].ns();
        self.run_ns += spans.spans[run].ns();
        let Ok(run) = result else { return };
        let elapsed = run.elapsed.as_nanos() as u64;
        self.elapsed_ns += elapsed;
        self.run_us.push(elapsed as f64 / 1e3);
        if let Some(profile) = &run.profile {
            self.busy_ns += profile.nodes.iter().map(|n| n.busy_ns).sum::<u64>();
            self.critical_ns += profile.critical_path_ns();
            if !profile.workers.is_empty() {
                self.worker_tasks += profile.workers.iter().map(|w| w.tasks).sum::<u64>();
                self.worker_steals += profile.workers.iter().map(|w| w.steals).sum::<u64>();
                self.worker_busy_ns += profile.workers.iter().map(|w| w.busy_ns).sum::<u64>();
                self.worker_capacity_ns += elapsed * profile.workers.len() as u64;
            }
        }
    }

    /// The part of `elapsed` the backend attributes to a stage below the
    /// request: per-node busy time where the backend times nodes serially;
    /// otherwise the whole run counts as the backend's single stage (the
    /// cycle simulator does not time nodes; the tiled pool's node times
    /// overlap across workers).
    fn backend_attributed_ns(&self) -> u64 {
        if self.busy_ns == 0 || self.worker_capacity_ns > 0 {
            self.elapsed_ns
        } else {
            self.busy_ns.min(self.elapsed_ns)
        }
    }

    fn unattributed_ns(&self) -> u64 {
        let attributed =
            self.plan_ns + self.run_ns.saturating_sub(self.elapsed_ns) + self.backend_attributed_ns();
        self.total_ns.saturating_sub(attributed)
    }
}

fn fill_kernel_layers(
    report: &mut Report,
    spans: &Spans,
    passes: &[PassTrace],
    plans: &PlanCacheStats,
    totals: &Exact,
    engine: &Engine,
) {
    let med = |f: &dyn Fn(&PassTrace) -> f64| crate::stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let us = |ns: u64| ns as f64 / 1e3;
    let compiles = spans.durations_us("custard.compile");
    report.layer("custard.compile_us", crate::stats::median(&compiles));
    report.layer("custard.compiles", compiles.len() as f64);
    report.layer("verify.us", crate::stats::median(&spans.durations_us("verify")));
    report.layer("exec.bind_us", crate::stats::median(&spans.durations_us("exec.bind")));
    report.layer("exec.plan_us", crate::stats::median(&spans.durations_us("exec.plan")));
    report.layer("exec.plan_hit_rate", plans.hit_rate());
    report.layer("exec.plan_misses", plans.misses as f64);
    report.layer("exec.plan_evictions", plans.evictions as f64);
    let run_us: Vec<f64> = passes.iter().flat_map(|p| p.run_us.iter().copied()).collect();
    report.layer("exec.run_us_p50", quantile(&run_us, 0.5));
    report.layer("exec.run_us_p99", quantile(&run_us, 0.99));
    report.layer("exec.tokens", totals.tokens as f64);
    let elapsed: u64 = passes.iter().map(|p| p.elapsed_ns).sum();
    let n_passes = passes.len().max(1) as f64;
    report.layer("exec.ns_per_token", elapsed as f64 / n_passes / totals.tokens.max(1) as f64);
    report.layer("exec.call_overhead_us", med(&|p| us(p.run_ns.saturating_sub(p.elapsed_ns))));
    report.layer("exec.unattributed_us", med(&|p| us(p.unattributed_ns())));
    let is = |spec: BackendSpec| matches!(engine, Engine::Spec(s) if *s == spec);
    if is(BackendSpec::FastSerial) {
        report.layer("exec.node_busy_us", med(&|p| us(p.busy_ns)));
        report.layer("exec.critical_path_us", med(&|p| us(p.critical_ns)));
    }
    if is(BackendSpec::Cycle) {
        report.layer("sim.blocks", totals.blocks as f64);
        report.layer("sim.channels", totals.channels as f64);
        report.layer("sim.block_cycles", totals.block_cycles as f64);
        report.layer("sim.host_ns_per_cycle", elapsed as f64 / n_passes / totals.cycles.max(1) as f64);
    }
    if let Engine::Tiled(_) = engine {
        report.layer("exec.spills", totals.spills as f64);
        report.layer("steal.tasks", med(&|p| p.worker_tasks as f64));
        report.layer("steal.steals", med(&|p| p.worker_steals as f64));
        report
            .layer("steal.busy_frac", med(&|p| p.worker_busy_ns as f64 / p.worker_capacity_ns.max(1) as f64));
        let m = totals.memory;
        report.layer("tiles.visited", m.tiles_visited as f64);
        report.layer("tiles.skipped", m.tiles_skipped as f64);
        report.layer("tiles.executed", m.tiles_executed as f64);
        report.layer("tiles.effectual_frac", m.tiles_executed as f64 / m.tiles_visited.max(1) as f64);
        report
            .layer("tiles.us_per_executed", elapsed as f64 / 1e3 / n_passes / m.tiles_executed.max(1) as f64);
        report.layer("memory.llb_peak_bytes", m.llb_peak_bytes as f64);
        report.layer("memory.llb_evictions", m.spill_events as f64);
    }
}

/// Stage sums: per traced pass, request wall time = plan span + call
/// overhead + the backend's attributed time + the unattributed rest; the
/// rest must stay within [`RESIDUAL`] of the total.
fn stage_sum_check(report: &mut Report, passes: &[PassTrace]) {
    let total: u64 = passes.iter().map(|p| p.total_ns).sum();
    let rest: u64 = passes.iter().map(PassTrace::unattributed_ns).sum();
    let share = rest as f64 / total.max(1) as f64;
    report.note(format!(
        "stage sum: {:.1}% of traced request time is in no layer's span or node (stated residual {:.0}%)",
        100.0 * share,
        100.0 * RESIDUAL
    ));
    if share > RESIDUAL {
        report.broken.push(format!(
            "stage sum residual {:.1}% exceeds {:.0}%",
            100.0 * share,
            100.0 * RESIDUAL
        ));
    }
}

/// Each case with its first operand emptied (same shape, no entries):
/// the degenerate inputs no workload generator forces away.
pub fn emptied(cases: &[Case]) -> Vec<Case> {
    cases
        .iter()
        .map(|case| {
            let mut emptied = case.clone();
            emptied.name = format!("{} (empty {})", case.name, case.operands[0].0);
            let first = &mut emptied.operands[0].1;
            *first = sam_tensor::CooTensor::new(first.shape().to_vec());
            emptied
        })
        .collect()
}

/// Known-defect probe: runs each case once on the default backend,
/// outside the workload's own requests, and counts typed errors and wrong
/// outputs. The inputs are ones the workloads do not generate on purpose
/// (see README.md), so the defects are measured on every traced run
/// instead of failing or being steered around.
pub fn probe(report: &mut Report, cases: &[Case]) {
    let (mut errors, mut wrong) = (Vec::new(), Vec::new());
    for (case, expected) in cases.iter().zip(expected(cases)) {
        let kernel = compile(case);
        let inputs = bind(case, &kernel);
        match ExecRequest::new(&kernel.graph, &inputs).run() {
            Err(_) => errors.push(case.name.clone()),
            Ok(run) if !check::matches(&run, &expected) => wrong.push(case.name.clone()),
            Ok(_) => {}
        }
    }
    report.layer("exec.probe_errors", errors.len() as f64);
    report.layer("exec.probe_wrong", wrong.len() as f64);
    let list = |v: &[String]| if v.is_empty() { "none".to_string() } else { v.join(", ") };
    report.note(format!(
        "defect probe over {} degenerate cases: typed errors: {}; wrong outputs: {}",
        cases.len(),
        list(&errors),
        list(&wrong)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use sam_exec::Planner;
    use std::sync::Arc;

    /// One pass over `cases`, planning through a private cache so tests
    /// running in parallel do not share counters.
    fn one_pass(cases: &[Case], engine: &Engine) -> (Vec<Exact>, PlanCacheStats) {
        let cache = Arc::new(PlanCache::new(64));
        let exact = cases
            .iter()
            .zip(expected(cases))
            .map(|(case, expected)| {
                let compiled = compile(case);
                let inputs = bind(case, &compiled);
                let kernel = Kernel { name: case.name.clone(), compiled, inputs, expected };
                let run = engine
                    .request(&kernel)
                    .planner(Planner::with_cache(Arc::clone(&cache)))
                    .run()
                    .expect("runs");
                assert!(check::matches(&run, &kernel.expected), "{}", kernel.name);
                Exact::of(&run)
            })
            .collect();
        (exact, cache.stats())
    }

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        for (cases, engine) in [
            (gen::kernel_set(40, 5), Engine::Spec(BackendSpec::Cycle)),
            (gen::kernel_set(60, 5), Engine::Spec(BackendSpec::FastSerial)),
            (gen::tiled_set(&[64, 128, 256], 40, 5), Engine::Tiled(crate::tiled_backend())),
        ] {
            let (first, first_plans) = one_pass(&cases, &engine);
            let (second, second_plans) = one_pass(&cases, &engine);
            assert_eq!(first, second, "{engine:?}");
            assert_eq!(
                (first_plans.misses, first_plans.evictions),
                (second_plans.misses, second_plans.evictions)
            );
            let (other, _) = one_pass(
                &match &engine {
                    Engine::Tiled(_) => gen::tiled_set(&[64, 128, 256], 40, 6),
                    Engine::Spec(BackendSpec::Cycle) => gen::kernel_set(40, 6),
                    Engine::Spec(_) => gen::kernel_set(60, 6),
                },
                &engine,
            );
            assert_ne!(first, other, "another seed must change the work done");
        }
    }

    #[test]
    fn the_skewed_spmv_compiles_with_a_skip_edge() {
        let cases = gen::kernel_set(40, 1);
        let skew = compile(cases.last().expect("nonempty"));
        assert!(skew.graph.edges().iter().any(|e| e.kind == sam_core::graph::StreamKind::Skip));
    }
}
