//! The execution loop: bottom-up evaluation of decomposition trees.
//!
//! Implements the overall algorithm of Figure 3 together with the Section 7
//! partial-sum exchange: walk the decomposition tree bottom-up, solve each
//! block on each vertex shard, and sum the per-shard partials once per block
//! before any parent consumes them. The root's total is the number of
//! colorful matches of the whole query under the given coloring.
//!
//! Every count in this crate runs through one function, `execute`:
//!
//! * **serial is one shard** — the single shard is left unscoped (seeding
//!   walks the whole graph exactly as an unpartitioned run would), its
//!   solves run inline on the calling thread, and its exchange round is the
//!   identity;
//! * **a solo count is a batch of one** — [`Engine::count_batch`] passes
//!   many jobs, which share each block step's fan-out and exchange round;
//!   `run` and `estimate` pass one;
//! * **a from-scratch versioned count is an incremental count with nothing
//!   to replay** — a job may retain every shard's pre-exchange partial for a
//!   later delta, and may replay the clean shards of a parent version's
//!   partials instead of solving them ([`runtime::incremental`]).
//!
//! [`Engine::count_batch`]: crate::Engine::count_batch
//! [`runtime::incremental`]: crate::runtime::incremental

use crate::blocks::solve_block_with_index;
use crate::config::Algorithm;
use crate::context::{Context, GraphPrep};
use crate::error::SgcError;
use crate::kernel::{solve_block_columnar, ArenaPool, KernelArena, KernelKind, KernelMetrics};
use crate::metrics::{RunMetrics, ShardMetrics};
use crate::paths::BlockJoinIndex;
use crate::runtime::exchange;
use crate::runtime::incremental::TrialPartials;
use crate::runtime::shard::ShardPlan;
use sgc_engine::parallel::parallel_indexed;
use sgc_engine::{Count, ProjectionTable};
use sgc_graph::{Coloring, CsrGraph};
use sgc_query::DecompositionTree;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The outcome of one colorful-counting run.
#[derive(Clone, Debug)]
pub struct CountResult {
    /// Number of colorful matches of the query under the given coloring.
    pub colorful_matches: Count,
    /// Run metrics (operation counts, per-shard loads, table sizes,
    /// elapsed time).
    pub metrics: RunMetrics,
}

/// One count for [`execute`]: a coloring/plan/algorithm triple, plus what
/// the run keeps for later and what it may reuse from earlier.
pub(crate) struct Job<'a> {
    /// The trial coloring (batch members of one trial step share colorings
    /// by reference).
    pub coloring: &'a Coloring,
    /// The decomposition plan.
    pub plan: &'a DecompositionTree,
    /// The cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Which join kernel runs the shard solves.
    pub kernel: KernelKind,
    /// Whether the job records spans and publishes its run counters. Worker
    /// threads inherit nothing from the submitting thread, so the toggle
    /// rides along with the job.
    pub obs: bool,
    /// Whether to keep a copy of every shard's pre-exchange partial.
    pub retain: bool,
    /// Partials of an earlier run with the same coloring, plan, algorithm
    /// and shard count, replayed for every shard not flagged dirty.
    pub replay: Option<(&'a [bool], &'a TrialPartials)>,
}

impl<'a> Job<'a> {
    /// A plain count: nothing retained, nothing replayed.
    pub fn new(
        coloring: &'a Coloring,
        plan: &'a DecompositionTree,
        algorithm: Algorithm,
        kernel: KernelKind,
        obs: bool,
    ) -> Self {
        Job {
            coloring,
            plan,
            algorithm,
            kernel,
            obs,
            retain: false,
            replay: None,
        }
    }

    /// Block steps of the job's plan (a single-node query has one scalar
    /// step).
    fn steps(&self) -> usize {
        self.plan.blocks.len().max(1)
    }
}

/// What [`execute`] produced for one job.
pub(crate) struct JobOutcome {
    /// The count and its metrics.
    pub result: CountResult,
    /// The pre-exchange partials, if the job retained them.
    pub partials: Option<TrialPartials>,
    /// Shard solves replayed from cached partials instead of computed.
    pub shards_replayed: usize,
}

/// What [`execute`] produced: one outcome per job plus the exchange rounds
/// the jobs synchronized on together — one per block step, where running
/// the same jobs one at a time pays `Σ blocks`.
pub(crate) struct Outcome {
    /// Per-job outcomes, in input order.
    pub jobs: Vec<JobOutcome>,
    /// Exchange rounds shared by all jobs of the call.
    pub shared_rounds: u64,
}

impl Outcome {
    /// The outcome of a one-job call.
    pub fn single(mut self) -> JobOutcome {
        self.jobs.pop().expect("one job in, one outcome out")
    }
}

/// A columnar arena checked out of the pool for one fan-out lane of a run.
struct Lease {
    arena: KernelArena,
    reused: bool,
    bytes_at_checkout: usize,
}

impl Lease {
    fn checkout(pool: &ArenaPool) -> Self {
        let (arena, reused) = pool.checkout();
        let bytes_at_checkout = arena.capacity_bytes();
        Lease {
            arena,
            reused,
            bytes_at_checkout,
        }
    }

    fn give_back(self, pool: &ArenaPool, metrics: &mut KernelMetrics) {
        let bytes = self.arena.capacity_bytes();
        metrics.record_checkout(
            bytes as u64,
            self.reused,
            bytes.saturating_sub(self.bytes_at_checkout) as u64,
        );
        pool.give_back(self.arena);
    }
}

/// One shard's work on one block step.
struct ShardSolve {
    table: ProjectionTable,
    metrics: RunMetrics,
    replayed: bool,
}

/// Per-job state carried across block steps.
struct JobState {
    metrics: RunMetrics,
    shards: ShardMetrics,
    tables: Vec<Option<ProjectionTable>>,
    /// A single-node query's total, resolved by its step-0 scalar exchange.
    single_total: Option<Count>,
    retained: Vec<Vec<ProjectionTable>>,
    replayed: usize,
}

/// Solves block `step` of `job` on the shard `ctx` is scoped to, with the
/// job's kernel: the one scalar/columnar dispatch of the crate.
fn solve_shard(
    ctx: &Context<'_>,
    job: &Job<'_>,
    step: usize,
    index: &BlockJoinIndex<'_>,
    lease: &mut Option<Lease>,
    pool: &ArenaPool,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let block = &job.plan.blocks[step];
    match job.kernel {
        KernelKind::Scalar => {
            let _span = sgc_obs::span(sgc_obs::Stage::DpBlockScalar);
            solve_block_with_index(ctx, job.plan, block, index, job.algorithm, metrics)
        }
        KernelKind::Columnar => {
            let _span = sgc_obs::span(sgc_obs::Stage::DpBlockColumnar);
            let lease = lease.get_or_insert_with(|| Lease::checkout(pool));
            solve_block_columnar(
                ctx,
                job.plan,
                block,
                index,
                job.algorithm,
                &mut lease.arena,
                metrics,
            )
        }
    }
}

/// Runs `jobs` over `num_shards` vertex shards, block step by block step:
/// in step `s`, every job whose plan has a block `s` fans its shard solves
/// out over the thread pool, and one exchange round
/// ([`exchange::combine_round`]) then sums the partials of all of them.
///
/// Each job's count is bit-identical to its run alone and to its run at any
/// other shard count: jobs never mix tables, they only share the fan-out and
/// the round barrier, and the exchange sums disjoint per-shard `u64`
/// partials. Each job's counters are published to the `sgc-obs` registry
/// when both its `obs` flag and the process-wide switch are on.
///
/// # Errors
/// [`SgcError::ZeroShards`] for zero shards and
/// [`SgcError::ColoringSizeMismatch`] for a coloring that does not cover the
/// graph. Callers check the color count against the query.
pub(crate) fn execute(
    graph: &CsrGraph,
    prep: &GraphPrep,
    jobs: &[Job<'_>],
    num_shards: usize,
    pool: &ArenaPool,
) -> Result<Outcome, SgcError> {
    let plan = ShardPlan::new(graph.num_vertices(), num_shards)?;
    for job in jobs {
        Context::validate(graph, job.coloring)?;
    }
    // One shard owns every vertex: leaving it unscoped keeps the serial
    // seeding path, which walks a child table's groups instead of probing
    // every vertex.
    let scope = |s: usize| (num_shards > 1).then(|| plan.shard(s));
    // The fan-out runs each job as `lanes` items of consecutive shards, one
    // per worker thread at most. A columnar lane leases one arena for the
    // whole run, so a serial count checks out exactly one and a sharded one
    // holds no more arenas than it has workers.
    let per_lane = num_shards.div_ceil(num_shards.min(rayon::current_num_threads()).max(1));
    let lanes = num_shards.div_ceil(per_lane);
    let leases: Vec<Mutex<Option<Lease>>> =
        (0..jobs.len() * lanes).map(|_| Mutex::new(None)).collect();

    let mut states: Vec<JobState> = jobs
        .iter()
        .map(|job| JobState {
            metrics: RunMetrics::new(),
            shards: ShardMetrics::new(num_shards),
            tables: vec![None; job.plan.blocks.len()],
            single_total: None,
            retained: Vec::new(),
            replayed: 0,
        })
        .collect();
    // Wall time spent for each job: its index builds, its shard solves and
    // its share of the exchange rounds it took part in.
    let mut busy = vec![Duration::ZERO; jobs.len()];
    let mut shared_rounds = 0u64;

    let max_steps = jobs.iter().map(Job::steps).max().unwrap_or(0);
    for step in 0..max_steps {
        let active: Vec<usize> = (0..jobs.len())
            .filter(|&j| step < jobs[j].steps())
            .collect();
        // The join-side child-table indexes are shard-invariant, so each is
        // built once and shared by the job's lanes; the scope ends their
        // borrow of the job's tables before the combined tables are stored.
        let lane_solves: Vec<Vec<ShardSolve>> = {
            let indexes: Vec<Option<BlockJoinIndex<'_>>> = active
                .iter()
                .map(|&j| {
                    let started = Instant::now();
                    let index = jobs[j].plan.root.is_some().then(|| {
                        BlockJoinIndex::build(&jobs[j].plan.blocks[step], &states[j].tables)
                    });
                    busy[j] += started.elapsed();
                    index
                })
                .collect();
            parallel_indexed(active.len() * lanes, |item| {
                let (a, lane) = (item / lanes, item % lanes);
                let job = &jobs[active[a]];
                // Worker threads do not inherit the submitter's obs state,
                // so obs-off jobs re-suspend here for the span guards below.
                let _pause = (!job.obs).then(sgc_obs::suspend);
                let mut lease = leases[active[a] * lanes + lane]
                    .lock()
                    .expect("a lane solve panicked holding its arena");
                let shards = lane * per_lane..((lane + 1) * per_lane).min(num_shards);
                shards
                    .map(|s| {
                        let started = Instant::now();
                        let mut metrics = RunMetrics::new();
                        let cached = job.replay.filter(|(dirty, _)| !dirty[s]);
                        let table = match (cached, &indexes[a]) {
                            (Some((_, partials)), _) => {
                                let _span = sgc_obs::span(sgc_obs::Stage::DpRecountReplay);
                                partials.steps[step][s].clone()
                            }
                            (None, Some(index)) => {
                                let ctx = Context::scoped(graph, prep, job.coloring, scope(s));
                                solve_shard(&ctx, job, step, index, &mut lease, pool, &mut metrics)
                            }
                            // Single-node query: the shard's owned-vertex
                            // count is its scalar partial sum.
                            (None, None) => {
                                ProjectionTable::Scalar(plan.shard(s).num_vertices() as Count)
                            }
                        };
                        metrics.elapsed = started.elapsed();
                        ShardSolve {
                            table,
                            metrics,
                            replayed: cached.is_some(),
                        }
                    })
                    .collect()
            })
        };

        // Absorb each shard's metrics, then sum every active job's
        // partials in ONE shared exchange round.
        let mut lane_solves = lane_solves.into_iter();
        let mut round = Vec::with_capacity(active.len());
        for &j in &active {
            let state = &mut states[j];
            let mut partials = Vec::with_capacity(num_shards);
            for (s, solve) in (&mut lane_solves).take(lanes).flatten().enumerate() {
                state.shards.ops_per_shard[s] += solve.metrics.total_ops;
                state.metrics.absorb_shard(&solve.metrics);
                state.replayed += solve.replayed as usize;
                busy[j] += solve.metrics.elapsed;
                partials.push(solve.table);
            }
            if jobs[j].retain {
                state.retained.push(partials.clone());
            }
            round.push(partials);
        }
        let exchange_started = Instant::now();
        let mut round_metrics: Vec<ShardMetrics> = active
            .iter()
            .map(|&j| std::mem::take(&mut states[j].shards))
            .collect();
        let combined = {
            // The round is shared; record it if any active job observes.
            let _span = active
                .iter()
                .any(|&j| jobs[j].obs)
                .then(|| sgc_obs::span(sgc_obs::Stage::Exchange));
            exchange::combine_round(round, &mut round_metrics)
        };
        shared_rounds += 1;
        // The shared round's cost is split evenly across the jobs it served.
        let exchange_share = exchange_started.elapsed() / active.len() as u32;
        for ((&j, shards), table) in active.iter().zip(round_metrics).zip(combined) {
            let state = &mut states[j];
            state.shards = shards;
            busy[j] += exchange_share;
            if jobs[j].plan.root.is_some() {
                // With one shard the exchange hands back the partial its
                // solve already observed; only a real sum is a new table.
                if num_shards > 1 {
                    state.metrics.observe_table(table.len());
                }
                state.tables[jobs[j].plan.blocks[step].id] = Some(table);
            } else {
                state.single_total = Some(table.total());
            }
        }
    }

    let mut leases = leases.into_iter().map(|lease| {
        lease
            .into_inner()
            .expect("a lane solve panicked holding its arena")
    });
    let jobs = jobs
        .iter()
        .zip(states)
        .zip(busy)
        .map(|((job, state), busy)| {
            let colorful_matches = match job.plan.root {
                Some(root) => state.tables[root]
                    .as_ref()
                    .expect("root table was computed in its block step")
                    .total(),
                None => state
                    .single_total
                    .expect("single-node totals resolve in step 0"),
            };
            let mut metrics = state.metrics;
            for lease in (&mut leases).take(lanes).flatten() {
                lease.give_back(pool, &mut metrics.kernel);
            }
            metrics.shards = Some(state.shards);
            // The work done for THIS job, so batching other jobs alongside
            // never inflates a member's reported time.
            metrics.elapsed = busy;
            if job.obs && sgc_obs::enabled() {
                metrics.publish();
            }
            JobOutcome {
                result: CountResult {
                    colorful_matches,
                    metrics,
                },
                partials: job.retain.then_some(TrialPartials {
                    num_shards,
                    steps: state.retained,
                }),
                shards_replayed: state.replayed,
            }
        })
        .collect();
    Ok(Outcome {
        jobs,
        shared_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use sgc_graph::GraphBuilder;
    use sgc_query::QueryGraph;

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as u32, ((i + 1) % n) as u32);
        }
        b.build()
    }

    #[test]
    fn rainbow_square_counts_eight_matches() {
        // C4 data graph with 4 distinct colors; the C4 query has 8
        // automorphism-distinct colorful matches (aut(C4) = 8, one subgraph).
        let g = cycle_graph(4);
        let engine = Engine::new(&g);
        let coloring = Coloring::from_colors(vec![0, 1, 2, 3], 4);
        let query = sgc_query::catalog::cycle(4);
        for alg in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let res = engine
                .count(&query)
                .algorithm(alg)
                .coloring(&coloring)
                .run()
                .unwrap();
            assert_eq!(res.colorful_matches, 8, "{alg}");
        }
    }

    #[test]
    fn path_query_on_path_graph() {
        // Data path 0-1-2 with rainbow colors; query P3 has 2 colorful
        // matches (the two directions).
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let engine = Engine::new(&g);
        let coloring = Coloring::from_colors(vec![0, 1, 2], 3);
        let query = sgc_query::catalog::path(3);
        for alg in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let res = engine
                .count(&query)
                .algorithm(alg)
                .coloring(&coloring)
                .run()
                .unwrap();
            assert_eq!(res.colorful_matches, 2, "{alg}");
        }
    }

    #[test]
    fn single_node_query_counts_vertices() {
        let g = cycle_graph(5);
        let coloring = Coloring::from_colors(vec![0; 5], 1);
        let query = QueryGraph::new(1);
        let res = Engine::new(&g)
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap();
        assert_eq!(res.colorful_matches, 5);
    }

    #[test]
    fn single_edge_query_counts_bichromatic_edges() {
        // Path 0-1-2 colored 0,1,0: edges (0,1) and (1,2) are both
        // bichromatic; each contributes 2 matches (both orientations).
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let coloring = Coloring::from_colors(vec![0, 1, 0], 2);
        let query = QueryGraph::from_edges(2, &[(0, 1)]).unwrap();
        let res = Engine::new(&g)
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap();
        assert_eq!(res.colorful_matches, 4);
    }

    #[test]
    fn wrong_color_count_is_an_error_not_a_panic() {
        let g = cycle_graph(4);
        let coloring = Coloring::from_colors(vec![0; 4], 2);
        let query = sgc_query::catalog::cycle(4);
        let tree = sgc_query::decompose(&query).unwrap();
        let err = Engine::new(&g)
            .count(&query)
            .plan(&tree)
            .coloring(&coloring)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SgcError::WrongColorCount {
                expected: 4,
                actual: 2
            }
        );
    }
}
