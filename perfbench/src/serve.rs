//! `serve-mixed`: an open loop of tiny Table 1 queries into a resident
//! `Service` built with `ServiceConfig::default()`.
//!
//! One generator thread (the main thread) submits on a seeded Poisson
//! schedule; one collector thread polls every outstanding handle's
//! `is_done` every [`POLL`], so completions are observed in any order
//! (no head-of-line bias) at that resolution. Latency runs from a query's
//! scheduled send time to its observed completion, less the generator's
//! own oversleep, so a blocked `submit` still counts against the queries
//! it delays. The traced run adds the `serve.slo_rps` ladder.

use crate::check::{self, Expected};
use crate::gen::{self, FreshExpr, Stored, MTM_SCALARS, SERVE_QUERIES};
use crate::report::{self, Report};
use crate::spans::Spans;
use crate::stats::{quantile, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sam_exec::{CountersSink, ExecRequest, Inputs, Planner};
use sam_serve::{MetricsSnapshot, Query, QueryHandle, Service, TensorStore};
use sam_trace::{HistogramSnapshot, Stage};
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collector polling period: the resolution of observed completions.
/// Polling faster costs the two vCPUs the service runs on enough wakeups
/// to raise its tail latency.
pub const POLL: Duration = Duration::from_micros(200);
/// The fixed offered rate, held constant so every commit is measured at
/// the same load: below half the `slo_rps` of the commit that introduced
/// this benchmark (see README.md).
pub const FIXED_RPS: f64 = 2500.0;
/// The latency objective `slo_rps` is measured against.
pub const SLO_P99_MS: f64 = 5.0;
/// The `slo_rps` ladder: rung `k` offers `FIXED_RPS * LADDER_STEP^k`
/// queries per second for `k` in `LADDER_LOW..LADDER_HIGH` (about 1,000 to
/// 17,000); the fixed rate is rung 0.
pub const LADDER_STEP: f64 = 1.04;
pub const LADDER_LOW: i32 = -24;
pub const LADDER_HIGH: i32 = 50;

fn rung_rate(k: i32) -> f64 {
    FIXED_RPS * LADDER_STEP.powi(k)
}

/// How long one rung is offered: ten chunks' worth of queries, at least
/// 1 s.
fn rung_secs(rate: f64) -> f64 {
    (10.0 * CHUNK as f64 / rate).max(1.0)
}

/// Shares of `--seconds` the traced run spends at the fixed rate and on
/// the `slo_rps` ladder; the untraced run offers the fixed rate throughout.
pub const FIXED_SHARE: f64 = 0.4;
pub const LADDER_SHARE: f64 = 0.45;
/// Query mix: repeats of the twelve, fresh scalar bindings, fresh texts.
pub const REPEAT_SHARE: f64 = 0.8;
pub const FRESH_SCALAR_SHARE: f64 = 0.1;
/// How many times setup runs in one invocation; `setup_s` is the median.
/// One setup takes a few milliseconds, so many are needed for a steady
/// median.
pub const SETUP_REPS: usize = 41;
/// Stated residual of the serve stage sum: the share of observed latency
/// (submit call to observed completion) outside the service's six stages
/// may not exceed this. It includes the collector's polling delay.
pub const RESIDUAL: f64 = 0.5;

/// What was asked, so the collector can check the answer.
#[derive(Debug, Clone)]
enum Kind {
    Repeat(usize),
    Scalars(f64, f64),
    Fresh(FreshExpr),
}

struct Sent {
    due: Instant,
    free: Instant,
    call: Instant,
    returned: Instant,
    kind: Kind,
    handle: QueryHandle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Failed,
    Wrong,
}

/// One observed completion. `free` is when the send could have started
/// had the generator woken exactly on time: the later of `due` and the
/// moment the previous `submit` would then have returned (see
/// [`Load::offer`]). `call - free` is the generator's own oversleep, which
/// the latency and the lag leave out; time the program kept the generator
/// waiting (a blocked `submit` delaying the sends behind it) stays in.
#[derive(Debug, Clone, Copy)]
struct Done {
    due: Instant,
    free: Instant,
    call: Instant,
    returned: Instant,
    seen: Instant,
    outcome: Outcome,
}

impl Done {
    /// Scheduled send to observed completion, less the generator's oversleep.
    fn latency_ms(&self) -> f64 {
        let ahead = self.free.saturating_duration_since(self.due);
        (ahead + self.seen.saturating_duration_since(self.call)).as_secs_f64() * 1e3
    }
    /// How late `submit` returned against the schedule, less the
    /// generator's oversleep.
    fn lag_ms(&self) -> f64 {
        let ahead = self.free.saturating_duration_since(self.due);
        (ahead + self.returned.saturating_duration_since(self.call)).as_secs_f64() * 1e3
    }
    /// How late `submit` returned against the schedule, oversleep included.
    fn raw_lag_ms(&self) -> f64 {
        self.returned.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Reference outputs: precomputed for the twelve, computed on demand for
/// fresh queries (on the collector, outside every timed span).
struct Refs {
    corpus: HashMap<&'static str, sam_tensor::CooTensor>,
    repeats: Vec<Expected>,
}

impl Refs {
    fn new(corpus: &[Stored]) -> Refs {
        let corpus: HashMap<_, _> = corpus.iter().map(|s| (s.name, s.coo.clone())).collect();
        let mut refs = Refs { corpus, repeats: Vec::new() };
        refs.repeats = (0..SERVE_QUERIES.len()).map(|i| refs.expected(&Kind::Repeat(i))).collect();
        refs
    }

    fn expected(&self, kind: &Kind) -> Expected {
        let (text, operands, scalars): (&str, Vec<&'static str>, Vec<(String, f64)>) = match kind {
            Kind::Repeat(i) => {
                let (name, text, _, ops) = SERVE_QUERIES[*i];
                let scalars = if name == "MatTransMul" { mtm_scalars(MTM_SCALARS) } else { Vec::new() };
                (text, ops.to_vec(), scalars)
            }
            Kind::Scalars(a, b) => {
                (SERVE_QUERIES[MTM].1, SERVE_QUERIES[MTM].3.to_vec(), mtm_scalars((*a, *b)))
            }
            Kind::Fresh(f) => (f.text.as_str(), f.operands.clone(), Vec::new()),
        };
        let operands: Vec<(String, sam_tensor::CooTensor)> =
            operands.iter().map(|n| (n.to_string(), self.corpus[n].clone())).collect();
        check::reference(&custard::parse(text).expect("generated text parses"), &operands, &scalars)
    }

    fn outcome(&self, kind: &Kind, result: Result<sam_exec::Execution, sam_serve::ServeError>) -> Outcome {
        let Ok(run) = result else { return Outcome::Failed };
        let ok = match kind {
            Kind::Repeat(i) => check::matches(&run, &self.repeats[*i]),
            other => check::matches(&run, &self.expected(other)),
        };
        if ok {
            Outcome::Ok
        } else {
            Outcome::Wrong
        }
    }
}

const MTM: usize = 8;

fn mtm_scalars((alpha, beta): (f64, f64)) -> Vec<(String, f64)> {
    vec![("alpha".into(), alpha), ("beta".into(), beta)]
}

fn query(kind: &Kind) -> Query {
    let (text, order, operands, scalars) = match kind {
        Kind::Repeat(i) => {
            let (name, text, order, ops) = SERVE_QUERIES[*i];
            (text, order, ops.to_vec(), if name == "MatTransMul" { Some(MTM_SCALARS) } else { None })
        }
        Kind::Scalars(a, b) => (SERVE_QUERIES[MTM].1, None, SERVE_QUERIES[MTM].3.to_vec(), Some((*a, *b))),
        Kind::Fresh(f) => (f.text.as_str(), None, f.operands.clone(), None),
    };
    let mut q = Query::new(text);
    if let Some(order) = order {
        q = q.order(order);
    }
    for name in operands {
        if name == "C_sd" || name == "D_sd" {
            q = q.format(name, sam_tensor::TensorFormat::dense(2));
        }
        q = q.operand(name);
    }
    if let Some((alpha, beta)) = scalars {
        q = q.scalar("alpha", alpha).scalar("beta", beta);
    }
    q
}

fn store(corpus: &[Stored]) -> TensorStore {
    let mut store = TensorStore::new();
    for s in corpus {
        match &s.format {
            Some(format) => store.insert_with_format(s.name, s.coo.clone(), format.clone()),
            None => store.insert(s.name, s.coo.clone()),
        };
    }
    store
}

/// Builds the store and the service and primes it with one round of the
/// twelve queries; returns the service, the seconds it took and whether
/// every priming answer matched the reference (checked after the clock).
fn setup(corpus: &[Stored], refs: &Refs) -> (Service, f64, bool) {
    let queries: Vec<Query> = (0..SERVE_QUERIES.len()).map(|i| query(&Kind::Repeat(i))).collect();
    let started = Instant::now();
    let service = Service::new(Arc::new(store(corpus)));
    let handles: Vec<QueryHandle> = queries.iter().map(|q| service.submit(q.clone())).collect();
    let results: Vec<_> = handles.into_iter().map(QueryHandle::wait).collect();
    let secs = started.elapsed().as_secs_f64();
    let ok = results.into_iter().enumerate().all(|(i, r)| refs.outcome(&Kind::Repeat(i), r) == Outcome::Ok);
    (service, secs, ok)
}

/// The twelve queries as one-shot cases over the corpus, each with its
/// first operand emptied, plus the order-3 element-wise product of every
/// pair of stored cubes (the shapes the fresh-text generator keeps to
/// addition; see `gen::fresh_expr`).
fn probe_cases(corpus: &[Stored]) -> Vec<gen::Case> {
    let coo = |name: &str| corpus.iter().find(|s| s.name == name).expect("stored operand").coo.clone();
    let twelve: Vec<gen::Case> = SERVE_QUERIES
        .iter()
        .map(|&(name, text, order, ops)| gen::Case {
            name: name.to_string(),
            text: text.to_string(),
            order,
            formats: ops
                .iter()
                .filter(|n| matches!(**n, "C_sd" | "D_sd"))
                .map(|n| (n.to_string(), sam_tensor::TensorFormat::dense(2)))
                .collect(),
            operands: ops.iter().map(|n| (n.to_string(), coo(n))).collect(),
            scalars: if name == "MatTransMul" { mtm_scalars(MTM_SCALARS) } else { Vec::new() },
            graph: None,
        })
        .collect();
    let mut cases = crate::kernels::emptied(&twelve);
    for (i, a) in gen::CUBES.iter().enumerate() {
        for b in &gen::CUBES[i + 1..] {
            cases.push(gen::Case {
                name: format!("{a}*{b}"),
                text: format!("X(i,j,k) = {a}(i,j,k) * {b}(i,j,k)"),
                order: None,
                formats: Vec::new(),
                operands: vec![(a.to_string(), coo(a)), (b.to_string(), coo(b))],
                scalars: Vec::new(),
                graph: None,
            });
        }
    }
    cases
}

/// Sleeps until shortly before `due`, then yields until it: a plain sleep
/// overshoots by a scheduler tick often enough to decide the lag's p99.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// How long before a send the generator stops sleeping.
const SPIN: Duration = Duration::from_micros(100);

/// The next query of the mix.
fn draw(rng: &mut StdRng, fresh_serial: &mut u64) -> Kind {
    let u = rng.gen::<f64>();
    if u < REPEAT_SHARE {
        Kind::Repeat(rng.gen_range(0..SERVE_QUERIES.len()))
    } else if u < REPEAT_SHARE + FRESH_SCALAR_SHARE {
        let alpha = f64::from(rng.gen_range(2..10_000u32));
        let beta = -f64::from(rng.gen_range(2..10_000u32));
        Kind::Scalars(alpha, beta)
    } else {
        *fresh_serial += 1;
        Kind::Fresh(gen::fresh_expr(rng, *fresh_serial))
    }
}

/// The open-loop load: the generator side lives here, the collector in
/// its own thread.
struct Load<'a> {
    service: &'a Service,
    tx: Option<Sender<Sent>>,
    done_rx: Receiver<Done>,
    collector: Option<std::thread::JoinHandle<()>>,
    rng: StdRng,
    fresh_serial: u64,
    sent: usize,
    received: Vec<Done>,
}

impl<'a> Load<'a> {
    fn new(service: &'a Service, refs: Arc<Refs>, seed: u64) -> Load<'a> {
        let (tx, rx) = mpsc::channel::<Sent>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let collector = std::thread::spawn(move || collect(&rx, &done_tx, &refs));
        Load {
            service,
            tx: Some(tx),
            done_rx,
            collector: Some(collector),
            rng: StdRng::seed_from_u64(seed ^ 0x5E_57E5),
            fresh_serial: 0,
            sent: 0,
            received: Vec::new(),
        }
    }

    /// Offers `rate` queries/s for `secs` (Poisson arrivals), then waits
    /// until every one of them has been observed. Returns this step's
    /// completions and the backlog sampled at [`BACKLOG_SAMPLES`] even
    /// points of the step.
    ///
    /// Each send also carries `free`, the send time of a generator that
    /// always wakes on time: `free = max(due, previous free + previous
    /// submit duration)`, so a blocked `submit` still delays the sends
    /// behind it.
    fn offer(&mut self, rate: f64, secs: f64, mut spans: Option<&mut Spans>) -> (Vec<Done>, Vec<u64>) {
        let start = Instant::now();
        let mut at = 0.0f64;
        let mut backlog = Vec::with_capacity(BACKLOG_SAMPLES);
        let first = self.sent;
        let mut ready = start;
        loop {
            at += -(1.0 - self.rng.gen::<f64>()).ln() / rate;
            if at >= secs {
                break;
            }
            while at >= secs * backlog.len() as f64 / BACKLOG_SAMPLES as f64 {
                backlog.push(self.backlog());
            }
            let due = start + Duration::from_secs_f64(at);
            wait_until(due);
            let kind = draw(&mut self.rng, &mut self.fresh_serial);
            let q = query(&kind);
            let call = Instant::now();
            let handle = self.service.submit(q);
            let returned = Instant::now();
            let free = ready.max(due);
            ready = free + returned.duration_since(call);
            if let Some(spans) = spans.as_deref_mut() {
                let id = self.sent as u64;
                spans.push("serve.submit", spans.at(call), spans.at(returned), None, id);
            }
            self.sent += 1;
            self.tx
                .as_ref()
                .expect("load is open")
                .send(Sent { due, free, call, returned, kind, handle })
                .expect("collector alive");
        }
        while backlog.len() < BACKLOG_SAMPLES {
            backlog.push(self.backlog());
        }
        let expected = self.sent - first;
        let mut got = Vec::with_capacity(expected);
        while got.len() < expected {
            got.push(self.done_rx.recv().expect("collector alive"));
        }
        self.received.extend(got.iter().copied());
        (got, backlog)
    }

    fn backlog(&self) -> u64 {
        let s = self.service.stats();
        s.submitted.saturating_sub(s.completed + s.failed)
    }

    fn close(mut self) -> Vec<Done> {
        drop(self.tx.take());
        if let Some(c) = self.collector.take() {
            c.join().expect("collector thread");
        }
        self.received
    }
}

fn collect(rx: &Receiver<Sent>, done_tx: &Sender<Done>, refs: &Refs) {
    let mut pending: Vec<Sent> = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        loop {
            match rx.try_recv() {
                Ok(s) => pending.push(s),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let seen = Instant::now();
        let mut finished = Vec::new();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].handle.is_done() {
                finished.push(pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for s in finished {
            let outcome = refs.outcome(&s.kind, s.handle.wait());
            let done = Done { due: s.due, free: s.free, call: s.call, returned: s.returned, seen, outcome };
            if done_tx.send(done).is_err() {
                return;
            }
        }
        std::thread::sleep(POLL);
    }
}

/// Queries per chunk: the p99 of one chunk has ten samples beyond it.
pub const CHUNK: usize = 1000;
/// Which chunk's percentile is reported: the tenth percentile over chunks.
/// Host interference comes in bursts of milliseconds that cover anywhere
/// from none to nearly all of a run's chunks; a service that got slower
/// moves every chunk, the quietest ones included.
pub const CHUNK_QUANTILE: f64 = 0.1;

/// `q`-quantiles of `f` over consecutive chunks of [`CHUNK`] queries, in
/// send order; a partial last chunk is dropped.
fn chunked(done: &[Done], q: f64, f: fn(&Done) -> f64) -> Vec<f64> {
    let mut sorted: Vec<&Done> = done.iter().collect();
    sorted.sort_by_key(|d| d.due);
    sorted
        .chunks(CHUNK)
        .filter(|c| c.len() == CHUNK)
        .map(|c| quantile(&c.iter().map(|d| f(d)).collect::<Vec<_>>(), q))
        .collect()
}

/// A percentile reported at [`CHUNK_QUANTILE`] over chunks, with the
/// quartile spread over chunks; the whole set below one chunk.
fn chunked_summary(done: &[Done], q: f64, f: fn(&Done) -> f64) -> Summary {
    let per_chunk = chunked(done, q, f);
    if per_chunk.is_empty() {
        return Summary {
            median: quantile(&done.iter().map(f).collect::<Vec<_>>(), q),
            iqr_frac: 0.0,
            samples: done.len(),
        };
    }
    let spread = Summary::of(&per_chunk);
    Summary { median: quantile(&per_chunk, CHUNK_QUANTILE), iqr_frac: spread.iqr_frac, samples: done.len() }
}

fn failed_frac(done: &[Done]) -> f64 {
    done.iter().filter(|d| d.outcome != Outcome::Ok).count() as f64 / done.len().max(1) as f64
}

/// Backlog samples per offered step.
pub const BACKLOG_SAMPLES: usize = 10;

/// Per-rung verdict on the ladder: the best chunk's p99 within the
/// objective (a rung below capacity has a quiet second even on a noisy
/// host; above capacity the queue grows and every chunk misses), no rise
/// in failures over the fixed phase, and a backlog that does not grow:
/// the median backlog of the rung's second half exceeds that of its first
/// half by less than the objective's worth of arrivals (medians, so one
/// burst of host interference at the end of a rung does not decide it).
fn rung_passes(done: &[Done], backlog: &[u64], rate: f64, base_failed_frac: f64) -> (bool, f64) {
    let p99 = chunked(done, 0.99, Done::latency_ms).into_iter().fold(f64::INFINITY, f64::min);
    let half = |h: &[u64]| crate::stats::median(&h.iter().map(|&b| b as f64).collect::<Vec<_>>());
    let (early, late) = backlog.split_at(backlog.len() / 2);
    let growth = half(late) - half(early);
    let pass =
        p99 <= SLO_P99_MS && failed_frac(done) <= base_failed_frac && growth <= rate * SLO_P99_MS / 1e3;
    (pass, p99)
}

/// The ladder's rung the search starts on: about 9,500 queries/s, near the
/// `slo_rps` measured when the benchmark was introduced, so few rungs go
/// to finding the knee.
pub const LADDER_START: i32 = 34;

/// An up-down staircase over the ladder: a rung that passes moves the next
/// offer up, one that misses moves it down. Until the first reversal the
/// step doubles (1, 2, 4, 8 rungs) so a service that got much faster or
/// slower is found in a few offers; after it the step is one rung, so the
/// offers circle the knee. `slo_rps` is the geometric mean of the rates
/// that passed from the first reversal on, so one verdict swung by a burst
/// of host interference moves it by a fraction of a rung instead of
/// deciding it, as it would in a binary search.
struct Search {
    k: i32,
    step: i32,
    last: Option<bool>,
    reversed: bool,
    passed_after_reversal: Vec<i32>,
    best_passed: Option<i32>,
    lowest_missed: Option<i32>,
    steps: Vec<String>,
    /// Set once the next rung no longer fits in the ladder's time.
    truncated: bool,
}

impl Search {
    fn new(fixed: &[Done], base_failed: f64) -> Search {
        let (ok, p99) = rung_passes(fixed, &[0], FIXED_RPS, base_failed);
        Search {
            k: LADDER_START,
            step: 1,
            last: None,
            reversed: false,
            passed_after_reversal: Vec::new(),
            best_passed: None,
            lowest_missed: None,
            steps: vec![format!("fixed {FIXED_RPS:.0}:{p99:.2}{}", if ok { "" } else { "!" })],
            truncated: false,
        }
    }

    /// Offers the next rung, unless it does not fit in `budget` seconds.
    fn step(&mut self, load: &mut Load<'_>, budget: f64, base_failed: f64) {
        let rate = rung_rate(self.k);
        if rung_secs(rate) > budget {
            self.truncated = true;
            return;
        }
        let (done, backlog) = load.offer(rate, rung_secs(rate), None);
        let (ok, p99) = rung_passes(&done, &backlog, rate, base_failed);
        self.steps.push(format!("{rate:.0}:{p99:.2}{}", if ok { "" } else { "!" }));
        match self.last {
            Some(last) if last != ok => {
                self.reversed = true;
                self.step = 1;
            }
            Some(_) if !self.reversed => self.step = (self.step * 2).min(8),
            _ => {}
        }
        if ok {
            self.best_passed = Some(self.best_passed.map_or(self.k, |b| b.max(self.k)));
            if self.reversed {
                self.passed_after_reversal.push(self.k);
            }
        } else {
            self.lowest_missed = Some(self.lowest_missed.map_or(self.k, |m| m.min(self.k)));
        }
        self.last = Some(ok);
        self.k =
            (if ok { self.k + self.step } else { self.k - self.step }).clamp(LADDER_LOW, LADDER_HIGH - 1);
    }

    /// The geometric mean of the rates that passed after the first
    /// reversal; without one, the highest rung that passed, or one below
    /// the lowest that missed.
    fn slo_rps(&self) -> f64 {
        let p = &self.passed_after_reversal;
        if !p.is_empty() {
            let mean_k = p.iter().map(|&k| f64::from(k)).sum::<f64>() / p.len() as f64;
            return FIXED_RPS * LADDER_STEP.powf(mean_k);
        }
        match (self.best_passed, self.lowest_missed) {
            (Some(k), _) => rung_rate(k),
            (None, Some(k)) => rung_rate(k - 1),
            (None, None) => rung_rate(LADDER_START),
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new("serve-mixed", seed, traced);
    let corpus = gen::serve_corpus(seed);
    let refs = Arc::new(Refs::new(&corpus));
    // The service under load is the first one set up; the other setups
    // build, prime and drop a service of their own, a third of them each
    // before the load, halfway through it and after it, so `setup_s` sees
    // the same phases of the host as the load does.
    let mut setups = Vec::new();
    let setup_into = |setups: &mut Vec<f64>, report: &mut Report| {
        let (s, secs, primed) = setup(&corpus, &refs);
        setups.push(secs);
        if !primed {
            report.broken.push("a priming query failed or differs from the reference".into());
        }
        s
    };
    let service = setup_into(&mut setups, &mut report);
    let more_setups = |n: usize, setups: &mut Vec<f64>, report: &mut Report| {
        for _ in 0..n {
            drop(setup_into(setups, report));
        }
    };
    if traced {
        run_traced(&mut report, &service, &refs, &corpus, seed, seconds);
        return report;
    }
    more_setups(SETUP_REPS / 3, &mut setups, &mut report);
    let mut load = Load::new(&service, Arc::clone(&refs), seed);
    // The fixed rate runs in two halves with a third of the setups between.
    let half_secs = seconds / 2.0;
    let mut segments = vec![load.offer(FIXED_RPS, half_secs, None).0];
    more_setups(SETUP_REPS / 3, &mut setups, &mut report);
    segments.push(load.offer(FIXED_RPS, half_secs, None).0);
    let fixed: Vec<Done> = segments.iter().flatten().copied().collect();
    let all = load.close();
    let peak_rss = report::peak_rss_mb();
    more_setups(SETUP_REPS - setups.len(), &mut setups, &mut report);
    report.set("setup_s", Summary::of(&setups));
    report.set("latency_p50_ms", chunked_summary(&fixed, 0.5, Done::latency_ms));
    report.set("latency_p99_ms", chunked_summary(&fixed, 0.99, Done::latency_ms));
    // Correct answers per second over each part's window, from its first
    // scheduled send to its last observed completion.
    let window = |c: &[Done]| {
        let first = c.iter().map(|d| d.due).min().expect("nonempty");
        let last = c.iter().map(|d| d.seen).max().expect("nonempty");
        last.duration_since(first).as_secs_f64()
    };
    let ok = |c: &[Done]| c.iter().filter(|d| d.outcome == Outcome::Ok).count() as f64;
    let rates: Vec<f64> = segments.iter().map(|c| ok(c) / window(c)).collect();
    let total = segments.iter().map(|c| ok(c)).sum::<f64>() / segments.iter().map(|c| window(c)).sum::<f64>();
    report.set("throughput_rps", Summary { median: total, ..Summary::of(&rates) });
    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|d| d.outcome == Outcome::Failed).count() as u64;
    report.wrong = all.iter().filter(|d| d.outcome == Outcome::Wrong).count() as u64;
    if report.wrong > 0 {
        report.broken.push(format!("{} outputs differ from the dense reference", report.wrong));
    }
    report.set("ok_frac", Summary::exact(1.0 - failed_frac(&all)));
    report.set("peak_rss_mb", Summary::exact(peak_rss));
    report.note(format!(
        "open loop at {FIXED_RPS} queries/s for 2 x {half_secs:.1} s: {} queries; latency from \
         scheduled send to completion observed by polling every {} us, less the generator's oversleep; \
         percentiles are the 10th percentile over chunks of {CHUNK} queries",
        fixed.len(),
        POLL.as_micros()
    ));
    let lags = |f: fn(&Done) -> f64| quantile(&fixed.iter().map(f).collect::<Vec<_>>(), 0.99);
    report.note(format!(
        "generator lag p99 over the fixed phase (per-layer serve.generator_lag_p99_ms): {:.4} ms, {:.4} ms with \
         the generator's own oversleep",
        lags(Done::lag_ms),
        lags(Done::raw_lag_ms)
    ));
    let stats = service.stats();
    report.note(format!(
        "service: compile hits/misses {}/{}, plan hits/misses/evictions {}/{}/{}",
        stats.compile_hits, stats.compile_misses, stats.plans.hits, stats.plans.misses, stats.plans.evictions
    ));
    report
}

fn diff(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier: HashMap<u64, u64> = before.buckets.iter().copied().collect();
    let buckets: Vec<(u64, u64)> = after
        .buckets
        .iter()
        .map(|&(upper, n)| (upper, n - earlier.get(&upper).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
        min: after.min,
        buckets,
    }
}

/// The traced run: the fixed-rate phase with every submit timed, the
/// service's own telemetry read before and after, then each distinct
/// query class replayed once through compile, verify, plan and run.
fn run_traced(
    report: &mut Report,
    service: &Service,
    refs: &Arc<Refs>,
    corpus: &[Stored],
    seed: u64,
    seconds: f64,
) {
    let mut spans = Spans::new();
    let before: MetricsSnapshot = service.metrics_snapshot();
    let stats_before = service.stats();
    let mut load = Load::new(service, Arc::clone(refs), seed);
    let secs = seconds * FIXED_SHARE;
    let started = Instant::now();
    let (fixed, _) = load.offer(FIXED_RPS, secs, Some(&mut spans));
    let window_ns = started.elapsed().as_nanos() as u64;
    let after = service.metrics_snapshot();
    let stats_after = service.stats();
    // The slo ladder comes after the service's counters are read, so the
    // stage figures stay those of the fixed rate.
    let base_failed = failed_frac(&fixed);
    let mut search = Search::new(&fixed, base_failed);
    let ladder_started = Instant::now();
    let ladder_budget = seconds * LADDER_SHARE;
    while !search.truncated {
        search.step(&mut load, ladder_budget - ladder_started.elapsed().as_secs_f64(), base_failed);
    }
    let all = load.close();
    report.layer("serve.slo_rps", search.slo_rps());
    report.note(format!(
        "slo staircase (rate:best chunk p99 ms, ! = miss; objective p99 <= {SLO_P99_MS} ms): {}",
        search.steps.join(" ")
    ));
    for (id, d) in fixed.iter().enumerate() {
        spans.push("query", spans.at(d.due), spans.at(d.seen), None, id as u64);
    }
    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|d| d.outcome == Outcome::Failed).count() as u64;
    report.wrong = all.iter().filter(|d| d.outcome == Outcome::Wrong).count() as u64;
    let us = |ns: u64| ns as f64 / 1e3;
    let stage = |s: Stage| diff(after.stage(s), before.stage(s));
    for (s, p50, p99) in [
        (Stage::Queue, "serve.queue_us_p50", "serve.queue_us_p99"),
        (Stage::Compile, "serve.compile_us_p50", "serve.compile_us_p99"),
        (Stage::Plan, "serve.plan_us_p50", "serve.plan_us_p99"),
        (Stage::Batch, "serve.batch_us_p50", "serve.batch_us_p99"),
        (Stage::Execute, "serve.execute_us_p50", "serve.execute_us_p99"),
    ] {
        let h = stage(s);
        report.layer(p50, us(h.p50()));
        report.layer(p99, us(h.p99()));
    }
    report.layer("serve.resolve_us_p50", us(stage(Stage::Resolve).p50()));
    let stage_means: f64 = Stage::ALL.iter().map(|&s| stage(s).mean() / 1e3).sum();
    let observed: Vec<f64> =
        fixed.iter().map(|d| d.seen.saturating_duration_since(d.call).as_secs_f64() * 1e6).collect();
    let observed_mean = observed.iter().sum::<f64>() / observed.len().max(1) as f64;
    let unattributed = observed_mean - stage_means;
    report.layer("serve.unattributed_us", unattributed);
    report.layer("serve.submit_us_p99", quantile(&spans.durations_us("serve.submit"), 0.99));
    report.layer(
        "serve.generator_lag_p99_ms",
        quantile(&fixed.iter().map(Done::lag_ms).collect::<Vec<_>>(), 0.99),
    );
    let dc_hits = stats_after.compile_hits - stats_before.compile_hits;
    let dc_misses = stats_after.compile_misses - stats_before.compile_misses;
    report.layer("serve.compile_hit_rate", dc_hits as f64 / (dc_hits + dc_misses).max(1) as f64);
    let plans = stats_after.plans.delta_since(&stats_before.plans);
    report.layer("serve.plan_hit_rate", plans.hit_rate());
    report.layer("exec.plan_hit_rate", plans.hit_rate());
    report.layer("exec.plan_misses", plans.misses as f64);
    report.layer("exec.plan_evictions", plans.evictions as f64);
    report.layer("custard.compiles", dc_misses as f64);
    report.layer("serve.mean_batch_size", diff(&after.batch_size, &before.batch_size).mean());
    let dispatched =
        (stats_after.completed + stats_after.failed) - (stats_before.completed + stats_before.failed);
    report.layer(
        "serve.same_plan_rate",
        (stats_after.batched_same_plan - stats_before.batched_same_plan) as f64 / dispatched.max(1) as f64,
    );
    report.layer("serve.lane_depth_hwm", after.lane_depth_high_water as f64);
    let util = after
        .workers
        .iter()
        .zip(&before.workers)
        .map(|(a, b)| (a.busy_ns - b.busy_ns) as f64 / window_ns.max(1) as f64)
        .fold(0.0, f64::max);
    report.layer("serve.worker_util_max", util);
    report.layer("serve.store_builds", (after.store.builds - before.store.builds) as f64);
    let share = unattributed / observed_mean.max(1e-9);
    report.note(format!(
        "stage sum: observed mean {observed_mean:.1} us (submit call to observed completion) = stage means \
         {stage_means:.1} us + unattributed {unattributed:.1} us ({:.1}%, stated residual {:.0}%, includes the \
         {} us polling resolution)",
        100.0 * share,
        100.0 * RESIDUAL,
        POLL.as_micros()
    ));
    if share.abs() > RESIDUAL {
        report.broken.push(format!(
            "serve stage sum residual {:.1}% exceeds {:.0}%",
            100.0 * share,
            100.0 * RESIDUAL
        ));
    }
    replay(report, &mut spans, corpus, seed);
    crate::kernels::probe(report, &probe_cases(corpus));
    report.note(format!(
        "{} queries at {FIXED_RPS} queries/s for {secs:.1} s, submit and completion timed",
        fixed.len()
    ));
    crate::kernels::write_spans(&spans, "serve-mixed", seed, report);
}

/// Each distinct query class once, outside the service: the twelve, a
/// fresh-scalar MatTransMul and one fresh text per generator family,
/// each through compile → verify → plan → run with every call timed.
fn replay(report: &mut Report, spans: &mut Spans, corpus: &[Stored], seed: u64) {
    let store = store(corpus);
    let mut kinds: Vec<Kind> = (0..SERVE_QUERIES.len()).map(Kind::Repeat).collect();
    kinds.push(Kind::Scalars(7.0, -5.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut families = std::collections::HashSet::new();
    let mut serial = 0;
    while families.len() < 5 && serial < 200 {
        serial += 1;
        let f = gen::fresh_expr(&mut rng, serial);
        let family: String =
            f.text.split('=').nth(1).unwrap_or("").chars().filter(|c| !c.is_ascii_uppercase()).collect();
        if families.insert(family) {
            kinds.push(Kind::Fresh(f));
        }
    }
    let mut run_us = Vec::new();
    let (mut tokens, mut elapsed_ns, mut busy_ns, mut critical_ns, mut overhead_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, kind) in kinds.iter().enumerate() {
        let q = query(kind);
        let id = 1_000_000 + i as u64;
        let root = spans.open("replay", None, id);
        let (kernel, _) = spans.time("custard.compile", Some(root), id, || {
            let assignment = custard::parse(q.expression()).expect("generated text parses");
            let schedule =
                q.reorder().map_or_else(custard::Schedule::new, |o| custard::Schedule::new().reorder(o));
            let mut formats = custard::Formats::new();
            for (n, f) in q.format_overrides() {
                formats = formats.set(n, f.clone());
            }
            custard::lower_exec(&custard::ConcreteIndexNotation::new(assignment, &schedule, formats))
                .expect("generated text lowers")
        });
        let mut inputs = Inputs::new();
        for (operand, stored) in q.bindings() {
            let format = kernel.formats.iter().find(|(n, _)| n == operand).expect("operand").1.clone();
            let tensor = spans
                .time("exec.bind", Some(root), id, || store.materialize(stored, operand, &format))
                .0
                .expect("stored operand");
            inputs = inputs.shared(tensor);
        }
        for (name, value) in q.scalar_bindings() {
            inputs = inputs.scalar(name, *value);
        }
        let bindings: sam_verify::Bindings<'_> = inputs.iter().collect();
        spans.time("verify", Some(root), id, || sam_verify::verify_bound(&kernel.graph, &bindings));
        let (plan, _) = spans.time("exec.plan", Some(root), id, || {
            ExecRequest::new(&kernel.graph, &inputs).planner(Planner::uncached()).plan()
        });
        let sink = CountersSink::new();
        let (result, run_span) = spans.time("exec.run", Some(root), id, || {
            ExecRequest::new(&kernel.graph, &inputs).planned(plan.expect("plans")).traced(&sink).run()
        });
        spans.close(root);
        if let Ok(run) = result {
            let e = run.elapsed.as_nanos() as u64;
            run_us.push(e as f64 / 1e3);
            tokens += run.tokens;
            elapsed_ns += e;
            overhead_ns += spans.spans[run_span].ns().saturating_sub(e);
            if let Some(p) = &run.profile {
                busy_ns += p.nodes.iter().map(|n| n.busy_ns).sum::<u64>();
                critical_ns += p.critical_path_ns();
            }
        }
    }
    let n = kinds.len() as f64;
    report.layer("custard.compile_us", crate::stats::median(&spans.durations_us("custard.compile")));
    report.layer("verify.us", crate::stats::median(&spans.durations_us("verify")));
    report.layer("exec.plan_us", crate::stats::median(&spans.durations_us("exec.plan")));
    report.layer("exec.bind_us", crate::stats::median(&spans.durations_us("exec.bind")));
    report.layer("exec.run_us_p50", quantile(&run_us, 0.5));
    report.layer("exec.run_us_p99", quantile(&run_us, 0.99));
    report.layer("exec.tokens", tokens as f64);
    report.layer("exec.ns_per_token", elapsed_ns as f64 / tokens.max(1) as f64);
    report.layer("exec.node_busy_us", busy_ns as f64 / 1e3 / n);
    report.layer("exec.critical_path_us", critical_ns as f64 / 1e3 / n);
    report.layer("exec.call_overhead_us", overhead_ns as f64 / 1e3 / n);
    report.layer("exec.unattributed_us", elapsed_ns.saturating_sub(busy_ns) as f64 / 1e3 / n);
    report.note(format!(
        "replay: {} query classes once each outside the service; exec.* per-request figures are means over them",
        kinds.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cache counters of a fresh service after `n` queries of the mix,
    /// submitted one at a time; every answer is checked.
    fn misses(seed: u64, n: usize) -> (u64, u64, u64) {
        let corpus = gen::serve_corpus(seed);
        let refs = Refs::new(&corpus);
        let service = Service::new(Arc::new(store(&corpus)));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut serial = 0;
        for _ in 0..n {
            let kind = draw(&mut rng, &mut serial);
            assert_eq!(refs.outcome(&kind, service.submit(query(&kind)).wait()), Outcome::Ok, "{kind:?}");
        }
        let s = service.stats();
        (s.compile_misses, s.plans.misses, s.plans.evictions)
    }

    #[test]
    fn cache_misses_repeat_for_a_seed() {
        assert_eq!(misses(3, 400), misses(3, 400));
    }

    #[test]
    fn the_defect_probe_finds_the_known_wrong_output() {
        // Seed 5 draws a B_tv/B_tm pair whose product loses k-fibers.
        let corpus = gen::serve_corpus(5);
        let mut report = Report::new("serve-mixed", 5, true);
        crate::kernels::probe(&mut report, &probe_cases(&corpus));
        assert!(report.layer["exec.probe_wrong"] >= 1.0);
    }
}
