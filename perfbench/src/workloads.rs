//! The two closed-loop workloads, driven through the public `Client`
//! against an in-process `Server` on loopback. Each phase sets up, drives
//! traffic for a fixed time, then checks every output and the workload's
//! own premise outside the timed window.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::dynamic::VersionedGraph;
use subgraph_counting::graph::{CsrGraph, EdgeDelta};
use subgraph_counting::net::proto::{WatchFrame, WireOutput};
use subgraph_counting::query::{Pattern, QueryGraph};
use subgraph_counting::{Client, CountJob, Server, ServerConfig, ServiceConfig};

use crate::inputs::{Inputs, JobKey};
use crate::probes::replay_chain;
use crate::stats::{median, Op, Recorder, Summary};
use crate::trace::{Exposition, Tracer};

/// Client connections a workload may hold at once.
const MAX_CONNECTIONS: usize = 2;

/// Deltas the delta workload replays after every run to check that its
/// recounts really replay partials.
const PREMISE_DELTAS: usize = 2;

/// Deltas after which the delta workload reads its memory high-water mark.
/// Every applied version stays in the server's chain, so the mark grows
/// with each delta; read at a fixed delta it does not depend on how many
/// deltas a run's speed let through. A run that applies fewer reads it at
/// the end of the window.
const RSS_AFTER_DELTAS: usize = 60;

/// Cached requests timed on each side of the wire for `net.overhead_us`.
const HIT_PAIRS: usize = 200;

/// How one phase runs.
pub struct PhaseConfig {
    /// Whether the service records spans and publishes counters.
    pub obs: bool,
    /// Length of the timed window.
    pub seconds: f64,
    /// Set-ups before the timed window; the last one is driven.
    pub setup_reps: usize,
    /// Set-up keeps repeating, past `setup_reps`, until this much set-up
    /// time has accumulated, so a cheap set-up is timed often enough for a
    /// steady median.
    pub setup_secs: f64,
}

/// Upper bound on set-ups per phase.
const MAX_SETUPS: usize = 1000;

/// Whether another set-up should be timed after `done`.
fn more_setups(config: &PhaseConfig, done: &[f64]) -> bool {
    done.len() < config.setup_reps.max(1)
        || (done.iter().sum::<f64>() < config.setup_secs && done.len() < MAX_SETUPS)
}

/// What a phase measured and found.
pub struct Phase {
    /// Wall time of each set-up, in seconds.
    pub setup_secs: Vec<f64>,
    /// The ops that completed with a well-formed reply.
    pub summary: Summary,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Details for the report.
    pub notes: Vec<String>,
    /// Wrong outputs, failed ops and broken premises; any entry makes the
    /// run incorrect.
    pub problems: Vec<String>,
    /// `VmHWM` right after the timed window (the delta workload: after
    /// [`RSS_AFTER_DELTAS`] deltas), in MiB.
    pub peak_rss_mb: f64,
    /// Exposition snapshots around the timed window (obs phases only).
    pub exposition: Option<(Exposition, Exposition)>,
    /// p50 of cached requests over the wire and in process, in seconds
    /// (obs phases only).
    pub hit_p50: Option<(f64, f64)>,
    /// The graph the phase served, for the in-process probes.
    pub graph: Arc<CsrGraph>,
}

fn server_config(obs: bool) -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            obs,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Builds the CSR graph from the edge list and binds a server over it.
fn bind(
    inputs: &Inputs,
    obs: bool,
    tracer: &mut Tracer,
) -> Result<(Arc<CsrGraph>, Server), String> {
    let graph = Arc::new(tracer.span("graph.csr_build", 0, || inputs.build_graph()));
    let server = tracer
        .span("net.server_bind", 0, || {
            Server::bind("127.0.0.1:0", Arc::clone(&graph), server_config(obs))
        })
        .map_err(|e| format!("binding the server: {e}"))?;
    Ok((graph, server))
}

fn connect(server: &Server) -> Result<Client, String> {
    Client::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))
}

fn parse(pattern: &str) -> Result<QueryGraph, String> {
    Pattern::parse(pattern)
        .map(Pattern::into_query)
        .map_err(|e| format!("pattern {pattern:?}: {e}"))
}

fn wire_count(client: &mut Client, key: &JobKey) -> Result<WireOutput, String> {
    client
        .count(key.pattern)
        .algorithm(Algorithm::DegreeBased)
        .seed(key.seed)
        .budget(key.budget)
        .run()
        .map_err(|e| e.to_string())
}

/// Median latency of cached `keys` over the wire and through
/// `Service::run` on the same server: the difference is what the network
/// layer adds to a cache hit.
fn hit_p50(server: &Server, client: &mut Client, keys: &[JobKey]) -> Result<(f64, f64), String> {
    let mut wire = Vec::with_capacity(HIT_PAIRS);
    let mut local = Vec::with_capacity(HIT_PAIRS);
    for key in keys.iter().cycle().take(HIT_PAIRS) {
        let started = Instant::now();
        let out = wire_count(client, key)?;
        wire.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let job = CountJob::from_pattern_str(key.pattern)
            .map_err(|e| e.to_string())?
            .algorithm(Algorithm::DegreeBased)
            .seed(key.seed)
            .budget(key.budget as usize);
        let local_out = server.service().run(job).map_err(|e| e.to_string())?;
        local.push(started.elapsed().as_secs_f64());
        if !out.from_cache || !local_out.from_cache {
            return Err(format!("probe key {key:?} was not a cache hit"));
        }
    }
    Ok((median(&wire), median(&local)))
}

fn seconds_since(clock: Instant) -> f64 {
    clock.elapsed().as_secs_f64()
}

fn summary(recorder: Recorder) -> Result<Summary, String> {
    recorder
        .finish()
        .ok_or_else(|| "too few ops completed for a tail latency".to_string())
}

/// One cold reply kept for the output check.
struct ColdReply {
    key: JobKey,
    output: WireOutput,
    latency: f64,
}

/// `skewed_cold`: two clients, each sending solo DB count jobs round-robin
/// over [`crate::inputs::SKEWED_PATTERNS`], every job with a fresh seed.
pub fn skewed_cold(
    inputs: &Inputs,
    config: &PhaseConfig,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut setup_secs = Vec::new();
    let (graph, server, clients) = loop {
        let rep = setup_secs.len() as u64;
        let started = Instant::now();
        tracer.enter("setup", rep);
        let (graph, server) = bind(inputs, config.obs, tracer)?;
        // No warm-up: the workload is a cold server, whose plans and kernel
        // arenas fill during the first timed jobs. Warm-up jobs would run
        // again with every timed set-up, and the memory the allocator keeps
        // from them would make `peak_rss_mb` vary from run to run.
        let clients = tracer.span("net.connect", rep, || {
            (0..MAX_CONNECTIONS)
                .map(|_| connect(&server))
                .collect::<Result<Vec<_>, _>>()
        })?;
        tracer.exit();
        setup_secs.push(started.elapsed().as_secs_f64());
        if !more_setups(config, &setup_secs) {
            break (graph, server, clients);
        }
        // Dropped here: the set-up is torn down before the next is timed.
    };

    let before = config.obs.then(|| Exposition::parse(&server.exposition()));
    let next_job = AtomicU64::new(0);
    let recorder = Mutex::new(Recorder::new());
    let clock = Instant::now();
    let per_client: Vec<(Client, Tracer, Vec<ColdReply>, Vec<String>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(t, mut client)| {
                    let mut tracer = tracer.for_thread(t as u32 + 1);
                    let next_job = &next_job;
                    let recorder = &recorder;
                    scope.spawn(move || {
                        let mut replies = Vec::new();
                        let mut errors = Vec::new();
                        while seconds_since(clock) < config.seconds {
                            let job = next_job.fetch_add(1, Ordering::Relaxed);
                            let key = inputs.skewed_job(job);
                            let start = seconds_since(clock);
                            let reply =
                                tracer.span("net.count", job, || wire_count(&mut client, &key));
                            let end = seconds_since(clock);
                            match reply {
                                Ok(output) => {
                                    recorder.lock().expect("no recorder user panics").push(Op {
                                        start,
                                        end,
                                        trials: output.trials_run,
                                    });
                                    replies.push(ColdReply {
                                        key,
                                        output,
                                        latency: end - start,
                                    });
                                }
                                Err(e) => errors.push(format!("cold job {job}: {e}")),
                            }
                        }
                        (client, tracer, replies, errors)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
    let peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(f64::NAN);

    let mut phase = Phase {
        setup_secs,
        summary: summary(recorder.into_inner().expect("no recorder user panics"))?,
        attempted: next_job.load(Ordering::Relaxed),
        failed: 0,
        notes: Vec::new(),
        problems: Vec::new(),
        peak_rss_mb,
        exposition: None,
        hit_p50: None,
        graph: Arc::clone(&graph),
    };
    let mut replies = Vec::new();
    let mut clients = Vec::new();
    for (client, client_tracer, client_replies, errors) in per_client {
        clients.push(client);
        tracer.absorb(client_tracer);
        phase.failed += errors.len() as u64;
        phase.problems.extend(errors);
        replies.extend(client_replies);
    }
    for pattern in crate::inputs::SKEWED_PATTERNS {
        let latencies: Vec<f64> = replies
            .iter()
            .filter(|r| r.key.pattern == pattern)
            .map(|r| 1e3 * r.latency)
            .collect();
        phase.notes.push(format!(
            "{pattern}: {} jobs, median {:.1} ms, range {:.1} to {:.1} ms",
            latencies.len(),
            median(&latencies),
            latencies.iter().copied().fold(f64::INFINITY, f64::min),
            latencies.iter().copied().fold(0.0, f64::max)
        ));
    }
    let hits = server.service().metrics().cache_hits;
    if hits != 0 {
        phase.problems.push(format!(
            "premise: skewed_cold must be served without the cache, saw {hits} cache hits"
        ));
    }
    if let Some(before) = before {
        phase.exposition = Some((before, Exposition::parse(&server.exposition())));
        let keys: Vec<JobKey> = replies.iter().take(5).map(|r| r.key.clone()).collect();
        phase.hit_p50 = Some(tracer.span("net.hit_probe", 0, || {
            hit_p50(&server, &mut clients[0], &keys)
        })?);
    }
    for client in clients {
        let _ = client.bye();
    }
    drop(server);

    // Every wire estimate must equal an in-process engine estimate. The
    // references are recomputed on one thread per client connection, so
    // the check takes about as long as the timed window did.
    let chunk = replies.len().div_ceil(MAX_CONNECTIONS).max(1);
    let wrong = std::thread::scope(|scope| {
        let handles: Vec<_> = replies
            .chunks(chunk)
            .map(|part| scope.spawn(|| check_cold(&graph, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check threads do not panic"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    for problem in wrong.into_iter().flatten() {
        phase.failed += 1;
        phase.problems.push(problem);
    }
    Ok(phase)
}

/// Recomputes each of `replies` with an in-process engine and describes
/// every reply that differs from it or came from the cache.
fn check_cold(graph: &CsrGraph, replies: &[ColdReply]) -> Result<Vec<String>, String> {
    let engine = Engine::new(graph);
    let mut queries: HashMap<&str, QueryGraph> = HashMap::new();
    let mut wrong = Vec::new();
    for reply in replies {
        let key = &reply.key;
        if !queries.contains_key(key.pattern) {
            queries.insert(key.pattern, parse(key.pattern)?);
        }
        let expected = engine
            .count(&queries[key.pattern])
            .algorithm(Algorithm::DegreeBased)
            .seed(key.seed)
            .trials(key.budget as usize)
            .obs(false)
            .estimate()
            .map_err(|e| format!("in-process reference for {key:?}: {e}"))?;
        if reply.output.estimate.per_trial != expected.per_trial || reply.output.from_cache {
            wrong.push(format!(
                "wrong output: {key:?} per_trial {:?} (from_cache {}), engine {:?}",
                reply.output.estimate.per_trial, reply.output.from_cache, expected.per_trial
            ));
        }
    }
    Ok(wrong)
}

/// `road_delta_watch`: one connection holds a watch subscription, the
/// other applies the seeded delta chain. One op is an `apply_delta` round
/// trip plus reading the watch frame it re-emits.
pub fn road_delta_watch(
    inputs: &Inputs,
    config: &PhaseConfig,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let key = inputs.watch_key();
    let mut setup_secs = Vec::new();
    loop {
        let rep = setup_secs.len() as u64;
        let started = Instant::now();
        tracer.enter("setup", rep);
        let (graph, server) = bind(inputs, config.obs, tracer)?;
        let mut watcher = connect(&server)?;
        let mut mutator = connect(&server)?;
        let mut stream = tracer
            .span("net.watch_subscribe", rep, || {
                watcher
                    .count(key.pattern)
                    .algorithm(Algorithm::DegreeBased)
                    .seed(key.seed)
                    .budget(key.budget)
                    .watch()
            })
            .map_err(|e| format!("subscribing: {e}"))?;
        let first = tracer.span("net.watch_frame", rep, || stream.next());
        tracer.exit();
        setup_secs.push(started.elapsed().as_secs_f64());
        let first = match first {
            Some(Ok(frame)) => frame,
            other => return Err(format!("initial watch frame: {other:?}")),
        };
        if more_setups(config, &setup_secs) {
            let _ = stream.cancel();
            for _ in &mut stream {}
            continue;
        }

        let before = config.obs.then(|| Exposition::parse(&server.exposition()));
        let mut chain = inputs.delta_chain();
        let mut applied: Vec<EdgeDelta> = Vec::new();
        let mut frames: Vec<WatchFrame> = vec![first];
        let mut recorder = Recorder::new();
        let mut problems = Vec::new();
        let mut attempted = 0u64;
        let mut rss_after_deltas = None;
        let clock = Instant::now();
        while seconds_since(clock) < config.seconds {
            let delta = chain.next().ok_or("the delta chain ran dry")?;
            attempted += 1;
            let start = seconds_since(clock);
            tracer.enter("op.delta", attempted);
            let version = tracer.span("net.apply_delta", attempted, || {
                mutator.apply_delta(delta.inserts(), delta.deletes())
            });
            let frame = match &version {
                Ok(_) => tracer.span("net.watch_frame", attempted, || stream.next()),
                Err(_) => None,
            };
            tracer.exit();
            let end = seconds_since(clock);
            match (version, frame) {
                (Ok(version), Some(Ok(frame))) if frame.version == version => {
                    recorder.push(Op {
                        start,
                        end,
                        trials: frame.trials_run,
                    });
                    frames.push(frame);
                    applied.push(delta);
                    if applied.len() == RSS_AFTER_DELTAS {
                        rss_after_deltas = crate::host::peak_rss_mb();
                    }
                }
                (version, frame) => {
                    // The server's head and the chain may have diverged:
                    // later deltas would not be valid, so the phase ends.
                    problems.push(format!(
                        "delta {attempted} rejected or its watch frame missing: \
                         {version:?} / {frame:?}"
                    ));
                    break;
                }
            }
        }
        let peak_rss_mb = rss_after_deltas
            .or_else(crate::host::peak_rss_mb)
            .unwrap_or(f64::NAN);
        let mut phase = Phase {
            setup_secs: std::mem::take(&mut setup_secs),
            summary: summary(recorder)?,
            attempted,
            failed: problems.len() as u64,
            notes: Vec::new(),
            problems,
            peak_rss_mb,
            exposition: None,
            hit_p50: None,
            graph: Arc::clone(&graph),
        };
        if let Some(before) = before {
            phase.exposition = Some((before, Exposition::parse(&server.exposition())));
            // The root version's watch emission is cached under the plain
            // job key, so a count of the watch key is a cache hit.
            phase.hit_p50 = Some(tracer.span("net.hit_probe", 0, || {
                hit_p50(&server, &mut mutator, std::slice::from_ref(&key))
            })?);
        }
        let _ = stream.cancel();
        for _ in &mut stream {}
        let _ = watcher.bye();
        let _ = mutator.bye();
        drop(server);
        check_road(inputs, &key, &graph, &applied, &frames, &mut phase)?;
        return Ok(phase);
    }
}

/// Checks the delta workload outside the timed window: every version id
/// matches a side chain fed the same deltas, sampled versions' watch
/// estimates equal a fresh engine on the materialized graph, and the
/// recount replays partials.
fn check_road(
    inputs: &Inputs,
    key: &JobKey,
    graph: &CsrGraph,
    applied: &[EdgeDelta],
    frames: &[WatchFrame],
    phase: &mut Phase,
) -> Result<(), String> {
    let mut versions = VersionedGraph::new(graph);
    let mut ids = vec![versions.root()];
    for delta in applied {
        ids.push(
            versions
                .apply_to_head(delta)
                .map_err(|e| format!("side chain rejected a delta the server took: {e}"))?,
        );
    }
    for (id, frame) in ids.iter().zip(frames) {
        if id.as_u64() != frame.version {
            phase.failed += 1;
            phase.problems.push(format!(
                "wrong version: wire {:016x}, side chain {:016x}",
                frame.version,
                id.as_u64()
            ));
        }
    }
    let query = parse(key.pattern)?;
    let checks = inputs.sizing.checked_versions.max(1);
    let mut sampled: Vec<usize> = (0..=checks).map(|i| i * applied.len() / checks).collect();
    sampled.dedup();
    for index in sampled {
        let data = versions.data_at(ids[index]).map_err(|e| e.to_string())?;
        let expected = Engine::new(&data.graph)
            .count(&query)
            .algorithm(Algorithm::DegreeBased)
            .seed(key.seed)
            .trials(key.budget as usize)
            .obs(false)
            .estimate()
            .map_err(|e| format!("reference count at version {index}: {e}"))?;
        let got = frames[index].estimated_subgraphs;
        if got.to_bits() != expected.estimated_subgraphs.to_bits() {
            phase.failed += 1;
            phase.problems.push(format!(
                "wrong watch estimate at version {index}: wire {got}, engine {}",
                expected.estimated_subgraphs
            ));
        }
    }
    let premise = &applied[..applied.len().min(PREMISE_DELTAS)];
    let replay = replay_chain(graph, key, premise, &mut Tracer::new(Instant::now(), false))?;
    if premise.is_empty() || replay.replayed == 0 {
        phase.problems.push(format!(
            "premise: road_delta_watch recounts must replay partials, \
             saw {} replayed of {} shard solves over {} deltas",
            replay.replayed,
            replay.replayed + replay.computed,
            premise.len()
        ));
    }
    Ok(())
}
