//! The metric vocabulary and the report every run prints: a readable
//! block (provenance, each median beside the quartile spread behind it),
//! then one JSON line as the last line of standard output.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("ok_frac", "ratio"),
    ("sim_cycles", "cycles"),
    ("sim_cycles_per_s", "cycles/s"),
    ("dram_bytes", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("custard.compile_us", "us"),
    ("custard.compiles", "count"),
    ("verify.us", "us"),
    ("exec.plan_us", "us"),
    ("exec.plan_hit_rate", "ratio"),
    ("exec.plan_misses", "count"),
    ("exec.plan_evictions", "count"),
    ("exec.bind_us", "us"),
    ("exec.run_us_p50", "us"),
    ("exec.run_us_p99", "us"),
    ("exec.tokens", "count"),
    ("exec.ns_per_token", "ns"),
    ("exec.node_busy_us", "us"),
    ("exec.unattributed_us", "us"),
    ("exec.critical_path_us", "us"),
    ("exec.call_overhead_us", "us"),
    ("exec.spills", "count"),
    ("exec.probe_errors", "count"),
    ("exec.probe_wrong", "count"),
    ("steal.tasks", "count"),
    ("steal.steals", "count"),
    ("steal.busy_frac", "ratio"),
    ("sim.blocks", "count"),
    ("sim.channels", "count"),
    ("sim.block_cycles", "count"),
    ("sim.host_ns_per_cycle", "ns"),
    ("tiles.visited", "count"),
    ("tiles.skipped", "count"),
    ("tiles.executed", "count"),
    ("tiles.effectual_frac", "ratio"),
    ("tiles.us_per_executed", "us"),
    ("memory.llb_peak_bytes", "bytes"),
    ("memory.llb_evictions", "count"),
    ("serve.submit_us_p99", "us"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("serve.slo_rps", "req/s"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.compile_us_p50", "us"),
    ("serve.compile_us_p99", "us"),
    ("serve.plan_us_p50", "us"),
    ("serve.plan_us_p99", "us"),
    ("serve.batch_us_p50", "us"),
    ("serve.batch_us_p99", "us"),
    ("serve.execute_us_p50", "us"),
    ("serve.execute_us_p99", "us"),
    ("serve.resolve_us_p50", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.compile_hit_rate", "ratio"),
    ("serve.plan_hit_rate", "ratio"),
    ("serve.mean_batch_size", "count"),
    ("serve.same_plan_rate", "ratio"),
    ("serve.lane_depth_hwm", "count"),
    ("serve.worker_util_max", "ratio"),
    ("serve.store_builds", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Value printed for an end-to-end metric a workload does not exercise
/// (every metric is printed on every workload, and none may read 0).
pub const NOT_EXERCISED: f64 = 1.0;

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub e2e: BTreeMap<&'static str, Summary>,
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    /// Typed errors and refusals.
    pub failed: u64,
    /// Outputs that differ from the reference.
    pub wrong: u64,
    /// Broken checks other than outputs (non-repeating exact counts, a
    /// stage sum outside its residual); any one makes `correct` false.
    pub broken: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            broken: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: Summary) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn correct(&self) -> bool {
        self.wrong == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The readable block plus the final JSON line.
    pub fn render(&mut self) -> String {
        let mut out = String::new();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _ = writeln!(
            out,
            "perfbench workload={} seed={} trace={} nproc={nproc} commit={}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            commit()
        );
        let mut json = String::new();
        let mut idle = Vec::new();
        let metrics: Vec<(&str, &str, Option<f64>)> = if self.traced {
            PER_LAYER.iter().map(|&(n, u)| (n, u, self.layer.get(n).copied())).collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, self.e2e.get(n).map(|s| s.median))).collect()
        };
        for (name, unit, value) in metrics {
            let shown = match value {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.broken.push(format!("{name} is not finite ({v})"));
                    0.0
                }
                None => {
                    idle.push(name);
                    if self.traced {
                        0.0
                    } else {
                        NOT_EXERCISED
                    }
                }
            };
            match (self.traced, self.e2e.get(name)) {
                (false, Some(s)) => {
                    let _ = writeln!(
                        out,
                        "  {name:<22} {shown:>16.6} {unit:<9} quartile spread {:>6.2}% of median over {} samples",
                        100.0 * s.iqr_frac,
                        s.samples
                    );
                }
                _ if value.is_none() => {
                    let _ =
                        writeln!(out, "  {name:<22} {:>16} {unit:<9} not exercised by this workload", "n/a");
                }
                _ => {
                    let _ = writeln!(out, "  {name:<28} {shown:>16.4} {unit}");
                }
            }
            let _ = write!(
                json,
                "{}\"{name}\":{{\"value\":{shown},\"unit\":\"{unit}\"}}",
                if json.is_empty() { "" } else { "," }
            );
        }
        if !idle.is_empty() {
            let shown = if self.traced { "0" } else { "1" };
            let _ = writeln!(
                out,
                "  not exercised by {} (printed as {shown}): {}",
                self.workload,
                idle.join(", ")
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        let _ = writeln!(
            out,
            "  requests: {} attempted, {} failed with a typed error, {} wrong outputs",
            self.attempted, self.failed, self.wrong
        );
        for b in &self.broken {
            let _ = writeln!(out, "  CHECK FAILED: {b}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed + self.wrong
        );
        out
    }
}

/// The checkout's commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
