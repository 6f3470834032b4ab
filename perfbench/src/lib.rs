//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! One command drives one of two seeded, closed-loop workloads through
//! the public `sgc-net` `Client` against an in-process `Server` on
//! loopback, checks every output, and prints its metrics:
//!
//! * `--trace 0`: the timed run. Observability is off in the service and
//!   process-wide; the end-to-end metrics come from here.
//! * `--trace 1`: the traced run. The same traffic runs once with
//!   observability off and once with it on (the difference is
//!   `obs.overhead_pct`); the benchmark's own spans wrap its calls into
//!   each layer, the program's exposition is snapshotted around the traced
//!   traffic, and in-process probes time each layer on the workload's own
//!   inputs. The per-layer metrics come from here.
//!
//! See `README.md` beside this crate for why each workload exists, which
//! layers it loads and which per-layer metrics it is predicted not to move.

mod host;
pub mod inputs;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::time::Instant;

use inputs::{Inputs, Sizing};
use stats::median;
use trace::{self_times, Exposition, Tracer};
use workloads::{Phase, PhaseConfig};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold DB counts on a heavy-tailed graph: the paper's regime.
    SkewedCold,
    /// Graph deltas with a live watch on a low-skew lattice.
    RoadDeltaWatch,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::SkewedCold, Workload::RoadDeltaWatch];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewedCold => "skewed_cold",
            Workload::RoadDeltaWatch => "road_delta_watch",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, reported by `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("graph.csr_build_ms", "ms"),
    ("graph.snapshot_apply_ms", "ms"),
    ("graph.coloring_share", "share"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("core.trial_ms", "ms"),
    ("core.ops_per_trial", "count"),
    ("core.dp_share", "share"),
    ("core.peak_table_entries", "count"),
    ("core.arena_bytes", "bytes"),
    ("core.exchange_entries_per_trial", "count"),
    ("core.exchange_share", "share"),
    ("dyn.recount_ms", "ms"),
    ("dyn.replay_frac", "share"),
    ("dyn.store_bytes", "bytes"),
    ("dyn.store_hit_frac", "share"),
    ("service.run_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.hit_us", "us"),
    ("service.cache_hit_frac", "share"),
    ("service.trials_executed", "count"),
    ("net.overhead_us", "us"),
    ("net.frames_per_op", "count"),
    ("net.io_share", "share"),
    ("obs.overhead_pct", "%"),
];

/// A timed run repeats set-up until at least this many seconds of it were
/// measured (and at least `Sizing::setup_reps` times).
const SETUP_SECS: f64 = 1.0;

/// Problems printed in full; the rest are counted.
const MAX_PROBLEMS_SHOWN: usize = 20;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The result of one invocation.
pub struct Outcome {
    /// No wrong output and every premise held.
    pub correct: bool,
    /// Ops started.
    pub attempted: u64,
    /// Ops failed, refused or wrong.
    pub failed: u64,
    /// `(name, unit, value)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable report lines (host, inputs, details, problems).
    pub report: Vec<String>,
    /// The trace file's contents (traced runs only).
    pub trace_jsonl: Option<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run_phase(inputs: &Inputs, config: &PhaseConfig, tracer: &mut Tracer) -> Result<Phase, String> {
    subgraph_counting::obs::set_enabled(config.obs);
    match inputs.workload {
        Workload::SkewedCold => workloads::skewed_cold(inputs, config, tracer),
        Workload::RoadDeltaWatch => workloads::road_delta_watch(inputs, config, tracer),
    }
}

/// Runs one invocation at the given sizes.
///
/// # Errors
/// A description of a failure that leaves no result to report (the
/// server did not bind, too few ops completed, …). Wrong outputs are not
/// errors: they make [`Outcome::correct`] false.
pub fn run(args: &Args, sizing: &Sizing) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.workload, args.seed, sizing);
    let host = host::host_facts();
    let mut report = vec![
        format!(
            "host: nproc {}, cpu {}, L2 {}, L3 {}",
            host.nproc, host.cpu_model, host.l2, host.l3
        ),
        format!(
            "workload {} seed {}: graph {} vertices, {} edges, max degree {}",
            args.workload.name(),
            args.seed,
            inputs.vertices,
            inputs.edges.len(),
            inputs.max_degree
        ),
    ];
    let outcome = if args.trace {
        traced(args, &inputs, &host, &mut report)?
    } else {
        timed(args, &inputs, &mut report)?
    };
    Ok(Outcome { report, ..outcome })
}

fn finish(
    phases: &[&Phase],
    metrics: Vec<(&'static str, &'static str, f64)>,
    report: &mut Vec<String>,
) -> Outcome {
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let problems: Vec<&String> = phases.iter().flat_map(|p| &p.problems).collect();
    report.push(format!(
        "failed_frac = {} (failed, refused or wrong {failed} of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    for (name, unit, value) in &metrics {
        report.push(format!("metric {name} = {value} {unit}"));
    }
    for problem in problems.iter().take(MAX_PROBLEMS_SHOWN) {
        report.push(format!("PROBLEM: {problem}"));
    }
    if problems.len() > MAX_PROBLEMS_SHOWN {
        report.push(format!(
            "PROBLEM: … and {} more",
            problems.len() - MAX_PROBLEMS_SHOWN
        ));
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        report.push("PROBLEM: a metric is not a finite number".to_string());
    }
    Outcome {
        correct: problems.is_empty() && finite,
        attempted,
        failed,
        metrics,
        report: Vec::new(),
        trace_jsonl: None,
    }
}

fn timed(args: &Args, inputs: &Inputs, report: &mut Vec<String>) -> Result<Outcome, String> {
    let config = PhaseConfig {
        obs: false,
        seconds: args.seconds,
        setup_reps: inputs.sizing.setup_reps,
        setup_secs: SETUP_SECS,
    };
    let mut tracer = Tracer::new(Instant::now(), false);
    let ticks = host::cpu_ticks();
    let phase = run_phase(inputs, &config, &mut tracer)?;
    if let (Some(before), Some(after)) = (ticks, host::cpu_ticks()) {
        report.push(format!(
            "host steal during the run: {:.1}% of CPU time",
            100.0 * host::steal_share(before, after)
        ));
    }
    let summary = &phase.summary;
    report.push(format!(
        "latency_tail_ms is p{:.3} of {} ops",
        summary.tail.percentile, summary.tail.samples
    ));
    report.extend(phase.notes.iter().cloned());
    report.push(format!(
        "setup_s is the median of {} set-ups, which ranged {} to {} s",
        phase.setup_secs.len(),
        phase
            .setup_secs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        phase.setup_secs.iter().copied().fold(0.0, f64::max)
    ));
    let metrics = vec![
        ("setup_s", "s", median(&phase.setup_secs)),
        ("throughput_ops_s", "1/s", summary.throughput),
        ("latency_p50_ms", "ms", 1e3 * summary.p50),
        ("latency_tail_ms", "ms", 1e3 * summary.tail.value),
        ("trials_per_s", "1/s", summary.trials_per_s),
        ("peak_rss_mb", "MB", phase.peak_rss_mb),
    ];
    Ok(finish(&[&phase], metrics, report))
}

/// `Δ stage total / (capacity × wall)`, `0` without a wall.
fn share(ns: u64, capacity: f64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        ns as f64 / (capacity * wall_s * 1e9)
    } else {
        0.0
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    host: &host::HostFacts,
    report: &mut Vec<String>,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let half = PhaseConfig {
        obs: false,
        seconds: args.seconds / 2.0,
        setup_reps: 1,
        setup_secs: 0.0,
    };
    let untraced = run_phase(inputs, &half, &mut Tracer::new(epoch, false))?;
    let mut tracer = Tracer::new(epoch, true);
    let traced_phase = run_phase(inputs, &PhaseConfig { obs: true, ..half }, &mut tracer)?;
    let probes = probes::run(inputs, &traced_phase.graph, &mut tracer)?;

    let plain = &untraced.summary;
    let obs = &traced_phase.summary;
    let (before, after) = traced_phase
        .exposition
        .clone()
        .ok_or("the traced phase took no exposition snapshots")?;
    let (wire_hit, local_hit) = traced_phase
        .hit_p50
        .ok_or("the traced phase took no cache-hit timings")?;
    let wall = obs.wall;
    let workers = subgraph_counting::ServiceConfig::default().workers as f64;
    let span_ns = |stage: &str| after.since(&before, &format!("span_{stage}_total_ns"));
    let grew = |name: &str| after.since(&before, name) as f64;
    let chain = &probes.chain;
    let ops = obs.ops as f64;

    let metrics = vec![
        ("graph.csr_build_ms", "ms", probes.csr_build_ms),
        (
            "graph.snapshot_apply_ms",
            "ms",
            1e3 * median(&chain.apply_secs),
        ),
        (
            "graph.coloring_share",
            "share",
            share(span_ns("coloring"), workers, wall),
        ),
        ("query.parse_us", "us", probes.parse_us),
        ("query.plan_us", "us", probes.plan_us),
        ("core.trial_ms", "ms", probes.trial_ms),
        ("core.ops_per_trial", "count", probes.ops_per_trial),
        (
            "core.dp_share",
            "share",
            share(span_ns("dp_block_columnar"), workers, wall),
        ),
        (
            "core.peak_table_entries",
            "count",
            probes.peak_table_entries,
        ),
        ("core.arena_bytes", "bytes", probes.arena_bytes),
        (
            "core.exchange_entries_per_trial",
            "count",
            probes.exchange_entries_per_trial,
        ),
        (
            "core.exchange_share",
            "share",
            share(span_ns("exchange"), workers, wall),
        ),
        ("dyn.recount_ms", "ms", 1e3 * median(&chain.recount_secs)),
        (
            "dyn.replay_frac",
            "share",
            ratio(
                chain.replayed as f64,
                (chain.replayed + chain.computed) as f64,
            ),
        ),
        ("dyn.store_bytes", "bytes", chain.store.bytes as f64),
        (
            "dyn.store_hit_frac",
            "share",
            ratio(
                chain.store.hits as f64,
                (chain.store.hits + chain.store.misses) as f64,
            ),
        ),
        ("service.run_ms", "ms", probes.service_run_ms),
        ("service.overhead_ms", "ms", probes.service_overhead_ms),
        ("service.hit_us", "us", probes.service_hit_us),
        (
            "service.cache_hit_frac",
            "share",
            ratio(
                grew("service_cache_hits"),
                grew("service_cache_hits") + grew("service_cache_misses"),
            ),
        ),
        (
            "service.trials_executed",
            "count",
            grew("service_trials_executed"),
        ),
        ("net.overhead_us", "us", 1e6 * (wire_hit - local_hit)),
        (
            "net.frames_per_op",
            "count",
            ratio(grew("net_frames_written"), ops),
        ),
        (
            "net.io_share",
            "share",
            share(span_ns("net_encode") + span_ns("net_write"), 1.0, wall),
        ),
        (
            "obs.overhead_pct",
            "%",
            100.0 * ratio(plain.throughput - obs.throughput, plain.throughput),
        ),
    ];

    report.push(format!(
        "throughput untraced {} ops/s, traced {} ops/s ({} and {} ops)",
        plain.throughput, obs.throughput, plain.ops, obs.ops
    ));
    report.push(format!(
        "core.arena_bytes {} beside L2 {} and L3 {}",
        probes.arena_bytes, host.l2, host.l3
    ));
    report.push(format!(
        "dyn chain: {} deltas, {} of {} shard solves replayed",
        chain.recount_secs.len(),
        chain.replayed,
        chain.replayed + chain.computed
    ));
    let times = self_times(tracer.spans());
    report.push("self time by benchmark span (count, total ms, self ms):".to_string());
    for (name, time) in &times {
        report.push(format!(
            "  {name:<24} {:>7} {:>12.3} {:>12.3}",
            time.count,
            time.total_ns as f64 / 1e6,
            time.self_ns as f64 / 1e6
        ));
    }
    report.push(format!(
        "server-side stage totals over the traced traffic ({wall:.3} s wall, {workers} workers):"
    ));
    for stage in subgraph_counting::obs::Stage::ALL {
        let ns = span_ns(&stage.metric_prefix()["span_".len()..]);
        if ns > 0 {
            report.push(format!(
                "  {:<24} {:>12.3} ms",
                stage.name(),
                ns as f64 / 1e6
            ));
        }
    }
    let snapshots = vec![
        ("traced_phase.before".to_string(), before),
        ("traced_phase.after".to_string(), after),
        (
            "probes.after".to_string(),
            Exposition::parse(&subgraph_counting::obs::global().render()),
        ),
    ];
    let trace_jsonl = trace::render_jsonl(tracer.spans(), &snapshots, &times);
    let mut outcome = finish(&[&untraced, &traced_phase], metrics, report);
    outcome.trace_jsonl = Some(trace_jsonl);
    Ok(outcome)
}
