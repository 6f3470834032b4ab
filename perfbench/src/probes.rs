//! In-process layer probes for the traced run: each calls one layer's
//! public functions on the workload's own inputs, inside a benchmark span,
//! and reads the counters that layer exports.

use std::sync::Arc;
use std::time::Instant;

use subgraph_counting::core::kernel::ArenaPool;
use subgraph_counting::core::{Algorithm, Engine, KernelKind};
use subgraph_counting::dynamic::{
    run_trials, PartialStore, StoreStats, TrialSpec, VersionedGraph, DEFAULT_STORE_CAPACITY_BYTES,
};
use subgraph_counting::graph::{CsrGraph, EdgeDelta};
use subgraph_counting::query::{heuristic_plan, Pattern};
use subgraph_counting::{CountJob, Service, ServiceConfig};

use crate::inputs::{Inputs, JobKey};
use crate::stats::median;
use crate::trace::Tracer;

/// Shard count of the service's versioned jobs; the dyn probes mirror it.
fn dyn_shards() -> usize {
    ServiceConfig::default().dyn_shards
}

/// Repetitions of the cheap probes (CSR build, parse, plan, cache hit).
const CSR_REPS: usize = 5;
const PARSE_REPS: usize = 200;
const PLAN_REPS: usize = 20;
const HIT_REPS: usize = 200;

fn elapsed(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn registry(name: &str) -> u64 {
    subgraph_counting::obs::global().get(name).unwrap_or(0)
}

/// What replaying a delta chain on a side `VersionedGraph` +
/// `PartialStore` cost and saved.
pub struct ChainReplay {
    /// `apply_to_head` time per delta, in seconds.
    pub apply_secs: Vec<f64>,
    /// `run_trials` time per delta version, in seconds.
    pub recount_secs: Vec<f64>,
    /// Shard solves replayed over the delta versions.
    pub replayed: usize,
    /// Shard solves computed over the delta versions.
    pub computed: usize,
    /// The partial store after the chain.
    pub store: StoreStats,
}

/// Populates the root version's partials for `key`, then applies each
/// delta and recounts at the new head, as the service's watch does.
pub fn replay_chain(
    graph: &CsrGraph,
    key: &JobKey,
    deltas: &[EdgeDelta],
    tracer: &mut Tracer,
) -> Result<ChainReplay, String> {
    let query = Pattern::parse(key.pattern)
        .map_err(|e| e.to_string())?
        .into_query();
    let tree = heuristic_plan(&query).map_err(|e| e.to_string())?;
    let spec = TrialSpec {
        query: &query,
        tree: &tree,
        algorithm: Algorithm::DegreeBased,
        seed: key.seed,
        num_shards: dyn_shards(),
        kernel: KernelKind::default(),
    };
    let trials = 0..key.budget as usize;
    let mut versions = VersionedGraph::new(graph);
    let store = PartialStore::new(DEFAULT_STORE_CAPACITY_BYTES);
    let pool = ArenaPool::new();
    tracer
        .span("dyn.populate", 0, || {
            run_trials(
                &versions,
                &store,
                versions.root(),
                &spec,
                trials.clone(),
                &pool,
            )
        })
        .map_err(|e| e.to_string())?;
    let mut replay = ChainReplay {
        apply_secs: Vec::new(),
        recount_secs: Vec::new(),
        replayed: 0,
        computed: 0,
        store: store.stats(),
    };
    for (i, delta) in deltas.iter().enumerate() {
        let op = i as u64 + 1;
        let started = Instant::now();
        let version = tracer
            .span("graph.snapshot_apply", op, || versions.apply_to_head(delta))
            .map_err(|e| e.to_string())?;
        replay.apply_secs.push(elapsed(started));
        let started = Instant::now();
        let outcome = tracer
            .span("dyn.run_trials", op, || {
                run_trials(&versions, &store, version, &spec, trials.clone(), &pool)
            })
            .map_err(|e| e.to_string())?;
        replay.recount_secs.push(elapsed(started));
        replay.replayed += outcome.shards_replayed;
        replay.computed += outcome.shards_computed;
    }
    replay.store = store.stats();
    Ok(replay)
}

/// Everything the in-process probes measured.
pub struct Probes {
    pub csr_build_ms: f64,
    pub parse_us: f64,
    pub plan_us: f64,
    pub trial_ms: f64,
    pub ops_per_trial: f64,
    pub peak_table_entries: f64,
    pub arena_bytes: f64,
    pub exchange_entries_per_trial: f64,
    pub service_run_ms: f64,
    pub service_overhead_ms: f64,
    pub service_hit_us: f64,
    pub chain: ChainReplay,
}

/// Runs every probe on `inputs` (observability must be on, so the engine
/// publishes its counters).
pub fn run(inputs: &Inputs, graph: &Arc<CsrGraph>, tracer: &mut Tracer) -> Result<Probes, String> {
    let keys = inputs.probe_keys();
    let mut patterns: Vec<&'static str> = Vec::new();
    for key in &keys {
        if !patterns.contains(&key.pattern) {
            patterns.push(key.pattern);
        }
    }

    let csr: Vec<f64> = (0..CSR_REPS as u64)
        .map(|rep| {
            let started = Instant::now();
            std::hint::black_box(tracer.span("graph.csr_build", rep, || inputs.build_graph()));
            elapsed(started)
        })
        .collect();

    let mut parse = Vec::new();
    let mut plan = Vec::new();
    let mut queries = Vec::new();
    for (op, pattern) in patterns.iter().enumerate() {
        tracer.span("query.parse", op as u64, || {
            for _ in 0..PARSE_REPS {
                let started = Instant::now();
                std::hint::black_box(Pattern::parse(pattern).ok());
                parse.push(elapsed(started));
            }
        });
        let query = Pattern::parse(pattern)
            .map_err(|e| e.to_string())?
            .into_query();
        tracer.span("query.plan", op as u64, || {
            for _ in 0..PLAN_REPS {
                let started = Instant::now();
                std::hint::black_box(heuristic_plan(&query).ok());
                plan.push(elapsed(started));
            }
        });
        queries.push((*pattern, query));
    }
    let query_of = |pattern: &str| {
        &queries
            .iter()
            .find(|(p, _)| *p == pattern)
            .expect("every probe pattern was parsed")
            .1
    };

    // The engine path the service's solo jobs take (sequential trials,
    // unsharded) and the service itself, on the same keys. The two
    // alternate per key so neither always pays first-touch costs.
    let engine = tracer.span("core.engine_bind", 0, || {
        Engine::from_shared(Arc::clone(graph))
    });
    let service = tracer.span("service.bind", 0, || {
        Service::with_config(
            Arc::clone(graph),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
    });
    let job = |key: &JobKey| {
        CountJob::new(query_of(key.pattern).clone())
            .algorithm(Algorithm::DegreeBased)
            .seed(key.seed)
            .budget(key.budget as usize)
    };
    let mut engine_secs = 0.0;
    let mut service_secs = 0.0;
    let mut total_ops = 0;
    let mut trials = 0usize;
    for (op, key) in keys.iter().enumerate() {
        for engine_turn in [op % 2 == 0, op % 2 == 1] {
            let started = Instant::now();
            if engine_turn {
                // The service publishes into the same counter, but only
                // while its own call runs: the delta is the engine's.
                let ops_before = registry("engine_total_ops");
                tracer
                    .span("core.estimate", op as u64, || {
                        engine
                            .count(query_of(key.pattern))
                            .algorithm(Algorithm::DegreeBased)
                            .seed(key.seed)
                            .trials(key.budget as usize)
                            .parallel(false)
                            .obs(true)
                            .estimate()
                    })
                    .map_err(|e| e.to_string())?;
                engine_secs += elapsed(started);
                total_ops += registry("engine_total_ops") - ops_before;
            } else {
                tracer
                    .span("service.run", op as u64, || service.run(job(key)))
                    .map_err(|e| e.to_string())?;
                service_secs += elapsed(started);
            }
        }
        trials += key.budget as usize;
    }

    // The sharded runtime's exchange, on the first key.
    let first = &keys[0];
    let exchanged_before = registry("shard_entries_exchanged");
    tracer
        .span("core.estimate_sharded", 0, || {
            engine
                .count(query_of(first.pattern))
                .algorithm(Algorithm::DegreeBased)
                .seed(first.seed)
                .trials(first.budget as usize)
                .parallel(false)
                .sharded(dyn_shards())
                .obs(true)
                .estimate()
        })
        .map_err(|e| e.to_string())?;
    let exchanged = registry("shard_entries_exchanged") - exchanged_before;

    let mut hits = Vec::new();
    tracer.span("service.run_hit", 0, || {
        for key in keys.iter().cycle().take(HIT_REPS) {
            let job = job(key);
            let started = Instant::now();
            let _ = std::hint::black_box(service.run(job));
            hits.push(elapsed(started));
        }
    });
    drop(service);

    let deltas: Vec<EdgeDelta> = inputs
        .delta_chain()
        .take(inputs.sizing.probe_deltas)
        .collect();
    let chain = replay_chain(graph, first, &deltas, tracer)?;

    let jobs = keys.len() as f64;
    Ok(Probes {
        csr_build_ms: 1e3 * median(&csr),
        parse_us: 1e6 * median(&parse),
        plan_us: 1e6 * median(&plan),
        trial_ms: 1e3 * engine_secs / trials as f64,
        ops_per_trial: total_ops as f64 / trials as f64,
        peak_table_entries: registry("engine_peak_table_entries") as f64,
        arena_bytes: registry("kernel_arena_bytes") as f64,
        exchange_entries_per_trial: exchanged as f64 / first.budget as f64,
        service_run_ms: 1e3 * service_secs / jobs,
        service_overhead_ms: 1e3 * (service_secs - engine_secs) / jobs,
        service_hit_us: 1e6 * median(&hits),
        chain,
    })
}
