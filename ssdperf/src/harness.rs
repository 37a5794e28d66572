//! Command line, run directory, timing helpers and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub const USAGE: &'static str =
        "usage: ssdperf --workload cold-check|warm-serve|data-apps --seed N --seconds S --trace 0|1";

    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => a.workload = val,
                "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => a.trace = val != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        if !(a.seconds > 0.0 && a.seconds.is_finite()) {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(a)
    }
}

/// A per-run scratch directory under the working directory, removed on
/// drop (including while unwinding from a panic).
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(args: &Args) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(".bench_runs").join(format!(
            "{}-{}-{nanos}",
            args.workload,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Times whole rounds until `seconds` have passed; returns each round's
/// duration in seconds. The last round always completes, so every run
/// attempts the same operations a whole number of times.
pub fn timed_rounds(seconds: f64, mut round: impl FnMut()) -> Vec<f64> {
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let r0 = Instant::now();
        round();
        rounds.push(r0.elapsed().as_secs_f64());
        if t0.elapsed() >= budget {
            return rounds;
        }
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of `BENCHMARK.json`, in order, with units.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("schema.parse_ms", "ms"),
    ("schema.type_graph_ms", "ms"),
    ("schema.type_graph_builds", "count"),
    ("schema.conform_ms", "ms"),
    ("schema.conform_nodes_per_s", "nodes/s"),
    ("query.parse_ms", "ms"),
    ("core.decide_ms.trace_product", "ms"),
    ("core.decide_ms.bounded_joins", "ms"),
    ("core.decide_ms.tagged_suffix", "ms"),
    ("core.decide_ms.general_search", "ms"),
    ("core.decide_calls.trace_product", "count"),
    ("core.decide_calls.bounded_joins", "count"),
    ("core.decide_calls.tagged_suffix", "count"),
    ("core.decide_calls.general_search", "count"),
    ("core.fuel.bounded_joins", "fuel"),
    ("core.fuel.general_search", "fuel"),
    ("core.infer_ms", "ms"),
    ("core.typecheck_ms", "ms"),
    ("core.feas_memo.hit_ratio", "ratio"),
    ("core.feas_memo.misses", "count"),
    ("core.evicted", "count"),
    ("core.type_graph.hit_ratio", "ratio"),
    ("automata.hit_ratio", "ratio"),
    ("automata.misses", "count"),
    ("automata.nfa_entries", "count"),
    ("automata.compiled_bytes", "bytes"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.sections_loaded", "count"),
    ("obs.export_us", "us"),
    ("lint.ms", "ms"),
    ("lint.diagnostics", "count"),
    ("feedback.ms", "ms"),
    ("transform.infer_schema_ms", "ms"),
    ("transform.check_schema_ms", "ms"),
    ("transform.apply_ms", "ms"),
    ("model.parse_ms", "ms"),
    ("model.parse_mib_per_s", "MiB/s"),
    ("optimizer.compile_ms", "ms"),
    ("optimizer.adaptive_ms", "ms"),
    ("optimizer.naive_edges", "edges"),
    ("bench.self_ms", "ms"),
];

/// Span names whose self time feeds a `*_ms` layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("schema.parse", "schema.parse_ms"),
    ("schema.type_graph", "schema.type_graph_ms"),
    ("schema.conform", "schema.conform_ms"),
    ("query.parse", "query.parse_ms"),
    ("core.decide.trace_product", "core.decide_ms.trace_product"),
    ("core.decide.bounded_joins", "core.decide_ms.bounded_joins"),
    ("core.decide.tagged_suffix", "core.decide_ms.tagged_suffix"),
    (
        "core.decide.general_search",
        "core.decide_ms.general_search",
    ),
    ("core.infer", "core.infer_ms"),
    ("core.typecheck", "core.typecheck_ms"),
    ("snapshot.save", "snapshot.save_ms"),
    ("snapshot.load", "snapshot.load_ms"),
    ("lint", "lint.ms"),
    ("feedback", "feedback.ms"),
    ("transform.infer_schema", "transform.infer_schema_ms"),
    ("transform.check_schema", "transform.check_schema_ms"),
    ("transform.apply", "transform.apply_ms"),
    ("model.parse", "model.parse_ms"),
    ("optimizer.compile", "optimizer.compile_ms"),
    ("optimizer.adaptive", "optimizer.adaptive_ms"),
    ("op", "bench.self_ms"),
];

/// Route span and counter names for a dispatch outcome.
pub fn route(a: ssd_core::Algorithm) -> (&'static str, &'static str, Option<&'static str>) {
    use ssd_core::Algorithm::*;
    match a {
        TraceProduct => (
            "core.decide.trace_product",
            "core.decide_calls.trace_product",
            None,
        ),
        BoundedJoins => (
            "core.decide.bounded_joins",
            "core.decide_calls.bounded_joins",
            Some("core.fuel.bounded_joins"),
        ),
        TaggedSuffix => (
            "core.decide.tagged_suffix",
            "core.decide_calls.tagged_suffix",
            None,
        ),
        GeneralSearch => (
            "core.decide.general_search",
            "core.decide_calls.general_search",
            Some("core.fuel.general_search"),
        ),
    }
}

/// Per-layer values: span self times and counters per round, plus
/// whatever the workload sets directly.
pub fn layers_from(tr: &Tracer, rounds: u64) -> BTreeMap<&'static str, f64> {
    let per = rounds.max(1) as f64;
    let mut out = BTreeMap::new();
    let agg = tr.aggregates();
    for (span, metric) in SPAN_METRICS {
        if let Some(a) = agg.get(span) {
            out.insert(*metric, a.self_ns as f64 / 1e6 / per);
        }
    }
    for (name, v) in tr.counts() {
        out.insert(name, v / per);
    }
    out
}

/// Automata and session-cache figures from `Session::stats`: ratios as
/// they stand, counts divided by `rounds`.
pub fn cache_layers(
    out: &mut BTreeMap<&'static str, f64>,
    st: &ssd_core::SessionStats,
    rounds: u64,
) {
    let a = &st.automata;
    let per = rounds.max(1) as f64;
    out.insert("core.feas_memo.hit_ratio", st.feas_memo_table.hit_ratio());
    out.insert(
        "core.feas_memo.misses",
        st.feas_memo_table.misses as f64 / per,
    );
    out.insert("core.evicted", (st.evicted + a.evicted) as f64 / per);
    out.insert("core.type_graph.hit_ratio", st.type_graph_table.hit_ratio());
    out.insert("automata.hit_ratio", a.hit_ratio());
    out.insert("automata.misses", a.misses as f64 / per);
    out.insert("automata.nfa_entries", a.nfas as f64 / per);
    out.insert("automata.compiled_bytes", a.compiled_bytes as f64 / per);
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics: name, value, unit.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn print(&self, args: &Args) {
        for n in &self.notes {
            println!("{n}");
        }
        let metrics: Vec<(&str, f64, &str)> = if args.trace {
            LAYER_METRICS
                .iter()
                .map(|&(n, u)| (n, self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            self.e2e.clone()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// The fastest time each operation of a round took over the run's
/// rounds. Every round repeats the same operations on fresh sessions, so
/// the minimum is that operation's cost at the machine's uncontended
/// speed: the shared machine this benchmark runs on slows down by up to
/// 1.6x for seconds at a time, but its peak speed holds steady.
pub struct BestOps {
    /// Per operation position, in ns.
    best: Vec<u64>,
    /// The fastest per-round work outside the operations (a batch's
    /// preparation), in ns.
    overhead: u64,
}

impl BestOps {
    pub fn new(ops_per_round: usize) -> BestOps {
        BestOps {
            best: vec![u64::MAX; ops_per_round],
            overhead: u64::MAX,
        }
    }

    pub fn record(&mut self, op: usize, ns: u64) {
        self.best[op] = self.best[op].min(ns);
    }

    pub fn record_overhead(&mut self, ns: u64) {
        self.overhead = self.overhead.min(ns);
    }

    /// Every operation was timed at least once.
    pub fn complete(&self) -> bool {
        self.best.iter().all(|&b| b != u64::MAX)
    }

    /// `ops_per_s` (a round rebuilt from the fastest time of each of its
    /// parts), and `op_p50_us`/`op_p99_us` over the operations' fastest
    /// times.
    pub fn e2e(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let mut sorted = self.best.clone();
        sorted.sort_unstable();
        let overhead = if self.overhead == u64::MAX {
            0
        } else {
            self.overhead
        };
        let round_ns: u64 = overhead + sorted.iter().sum::<u64>();
        vec![
            ("setup_s", setup_s, "s"),
            (
                "ops_per_s",
                sorted.len() as f64 / (round_ns as f64 / 1e9),
                "ops/s",
            ),
            ("op_p50_us", percentile_us(&sorted, 0.50), "us"),
            ("op_p99_us", percentile_us(&sorted, 0.99), "us"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    }
}

/// One round of a workload whose rounds share state (a long-lived
/// session), so its operations are not repeats of each other.
pub struct RoundStat {
    pub secs: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

impl RoundStat {
    /// The round's percentiles from its latencies (reordered in place).
    pub fn new(secs: f64, lat_ns: &mut [u64]) -> RoundStat {
        let mut at = |p: f64| {
            let rank = ((p * lat_ns.len() as f64).ceil() as usize).clamp(1, lat_ns.len());
            *lat_ns.select_nth_unstable(rank - 1).1
        };
        RoundStat {
            p50_ns: at(0.50),
            p99_ns: at(0.99),
            secs,
        }
    }
}

/// `ops_per_s`, `op_p50_us` and `op_p99_us` of the best round for each:
/// the machine's uncontended speed, as in [`BestOps`].
pub fn best_round_e2e(
    setup_s: f64,
    ops_per_round: usize,
    rounds: &[RoundStat],
) -> Vec<(&'static str, f64, &'static str)> {
    let fastest = rounds.iter().map(|r| r.secs).fold(f64::INFINITY, f64::min);
    let min_us = |f: fn(&RoundStat) -> u64| rounds.iter().map(f).min().unwrap_or(0) as f64 / 1e3;
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_round as f64 / fastest, "ops/s"),
        ("op_p50_us", min_us(|r| r.p50_ns), "us"),
        ("op_p99_us", min_us(|r| r.p99_ns), "us"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}
