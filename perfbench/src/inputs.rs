//! Seeded inputs: the graphs, the job keys and the delta chains each
//! workload feeds the server. Everything here is a pure function of the
//! workload, the `--seed` and the [`Sizing`]; the program under test only
//! ever sees the generated values.

use std::collections::HashSet;
use subgraph_counting::gen::catalog::spec_by_name;
use subgraph_counting::gen::road_like;
use subgraph_counting::graph::{CsrGraph, EdgeDelta, GraphBuilder};

use crate::Workload;

/// The datasets are fixed analogs (one instance per workload); `--seed`
/// drives the traffic over them. Keeping the instance fixed keeps the
/// per-layer costs comparable across seeds.
const GRAPH_SEED: u64 = 0xC0FFEE;

/// Patterns of the cold workload: mid-weight patterns whose treewidth-2
/// blocks keep the DP superlinear on a skewed graph. Their median job
/// latencies (budget 4, two clients) are about 85, 200, 260, 370 and
/// 730 ms; the tail falls inside `brain2`'s range, which at most touches
/// `brain1`'s. `satellite` is left out: its tables are
/// several times larger than any other's, so the largest of its
/// seed-dependent tables would decide `peak_rss_mb`.
pub const SKEWED_PATTERNS: [&str; 5] = ["dros", "cycle(6)", "ecoli2", "brain1", "brain2"];

/// Pattern of the watch subscription in the delta workload.
pub const WATCH_PATTERN: &str = "cycle(5)";

/// Sizes of every workload. [`Sizing::full`] is the benchmark;
/// [`Sizing::tiny`] is the smoke-test scale.
#[derive(Clone, Debug)]
pub struct Sizing {
    /// Fraction of the Table 1 `enron` size for `skewed_cold`.
    pub enron_scale: f64,
    /// Lattice side of the `road_like` graph for `road_delta_watch`.
    pub road_side: usize,
    /// Trial budget of each cold job.
    pub skewed_budget: u64,
    /// Trial budget of the watch subscription.
    pub watch_budget: u64,
    /// Fewest set-ups per timed run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Deltas of the side chain the graph/dyn probes replay.
    pub probe_deltas: usize,
    /// Job keys the in-process engine/service probes run.
    pub probe_keys: usize,
    /// Versions of the delta workload checked against a fresh engine.
    pub checked_versions: usize,
}

impl Sizing {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizing {
            enron_scale: 0.02,
            road_side: 150,
            skewed_budget: 4,
            watch_budget: 8,
            setup_reps: 5,
            probe_deltas: 6,
            probe_keys: 5,
            checked_versions: 4,
        }
    }

    /// Sizes for a smoke run that finishes in seconds.
    pub fn tiny() -> Self {
        Sizing {
            enron_scale: 0.002,
            road_side: 60,
            skewed_budget: 2,
            watch_budget: 2,
            setup_reps: 2,
            probe_deltas: 2,
            probe_keys: 2,
            checked_versions: 2,
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so the inputs of a seed
/// never depend on another crate's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mixes the workload seed with a stream tag and an index: the seed of one
/// job, one delta chain, one key.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0xA24B_AED4_963E_E407))
        .next_u64()
}

/// One count request as the wire carries it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// Pattern text.
    pub pattern: &'static str,
    /// Base seed of the job's colorings.
    pub seed: u64,
    /// Trial budget.
    pub budget: u64,
}

/// The generated inputs of one workload run.
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// The `--seed` they were made from.
    pub seed: u64,
    /// The graph's vertex count.
    pub vertices: usize,
    /// The graph as an edge list: set-up starts from here.
    pub edges: Vec<(u32, u32)>,
    /// The graph's maximum degree.
    pub max_degree: usize,
    /// The sizes used.
    pub sizing: Sizing,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, sizing: &Sizing) -> Inputs {
        let graph = match workload {
            Workload::SkewedCold => spec("enron").generate(sizing.enron_scale, GRAPH_SEED),
            Workload::RoadDeltaWatch => road_like(sizing.road_side, 0.9, 0.01, GRAPH_SEED),
        };
        Inputs {
            workload,
            seed,
            vertices: graph.num_vertices(),
            edges: graph.edges().collect(),
            max_degree: graph.max_degree(),
            sizing: sizing.clone(),
        }
    }

    /// Builds the CSR graph from the edge list (the first step of set-up).
    pub fn build_graph(&self) -> CsrGraph {
        let mut builder = GraphBuilder::with_capacity(self.vertices, self.edges.len());
        builder.extend_edges(self.edges.iter().copied());
        builder.build()
    }

    /// The `index`-th cold job: round-robin over [`SKEWED_PATTERNS`], each
    /// with its own coloring seed so no two jobs share a cache key.
    pub fn skewed_job(&self, index: u64) -> JobKey {
        JobKey {
            pattern: SKEWED_PATTERNS[(index % SKEWED_PATTERNS.len() as u64) as usize],
            seed: mix(self.seed, 1, index),
            budget: self.sizing.skewed_budget,
        }
    }

    /// The watch subscription of the delta workload.
    pub fn watch_key(&self) -> JobKey {
        JobKey {
            pattern: WATCH_PATTERN,
            seed: mix(self.seed, 3, 0),
            budget: self.sizing.watch_budget,
        }
    }

    /// The keys the in-process probes run: the first jobs of the workload's
    /// own traffic.
    pub fn probe_keys(&self) -> Vec<JobKey> {
        match self.workload {
            Workload::SkewedCold => (0..self.sizing.probe_keys as u64)
                .map(|i| self.skewed_job(i))
                .collect(),
            Workload::RoadDeltaWatch => vec![self.watch_key()],
        }
    }

    /// The seeded chain of single-edge deltas over this graph. The delta
    /// workload applies it in order; the cold workload's dyn probes replay
    /// its first few links on a side chain.
    pub fn delta_chain(&self) -> DeltaChain {
        DeltaChain::new(self.vertices, &self.edges, mix(self.seed, 4, 0))
    }
}

fn spec(name: &str) -> &'static subgraph_counting::gen::catalog::GraphSpec {
    spec_by_name(name).expect("the catalog registers every Table 1 analog the benchmark uses")
}

/// An endless chain of small local deltas, each valid against the head the
/// previous ones produced: a single-edge delete of an existing edge, or a
/// single-edge insert closing a triangle (`u`–`w`–`v` with `u`–`v` absent).
/// No edge is touched twice, so a later delta never reverts an earlier one
/// and every version id in the chain is new.
pub struct DeltaChain {
    adjacency: Vec<Vec<u32>>,
    touched: HashSet<(u32, u32)>,
    rng: SplitMix,
}

impl DeltaChain {
    fn new(vertices: usize, edges: &[(u32, u32)], seed: u64) -> Self {
        let mut adjacency = vec![Vec::new(); vertices];
        for &(u, v) in edges {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        DeltaChain {
            adjacency,
            touched: HashSet::new(),
            rng: SplitMix::new(seed),
        }
    }

    fn pick_neighbor(&mut self, u: u32) -> Option<u32> {
        let list = &self.adjacency[u as usize];
        if list.is_empty() {
            return None;
        }
        Some(list[self.rng.below(list.len())])
    }

    fn try_delta(&mut self) -> Option<EdgeDelta> {
        let u = self.rng.below(self.adjacency.len()) as u32;
        let delete = self.rng.next_u64() & 1 == 0;
        let w = self.pick_neighbor(u)?;
        let (a, b) = if delete {
            (u, w)
        } else {
            let v = self.pick_neighbor(w)?;
            if v == u || self.adjacency[u as usize].contains(&v) {
                return None;
            }
            (u, v)
        };
        let edge = (a.min(b), a.max(b));
        if !self.touched.insert(edge) {
            return None;
        }
        let (inserts, deletes) = if delete {
            self.adjacency[a as usize].retain(|&x| x != b);
            self.adjacency[b as usize].retain(|&x| x != a);
            (vec![], vec![edge])
        } else {
            self.adjacency[a as usize].push(b);
            self.adjacency[b as usize].push(a);
            (vec![edge], vec![])
        };
        Some(EdgeDelta::new(inserts, deletes).expect("a single non-loop edge is a canonical delta"))
    }
}

impl Iterator for DeltaChain {
    type Item = EdgeDelta;

    fn next(&mut self) -> Option<EdgeDelta> {
        // A draw fails only on an isolated vertex, a closed triangle or an
        // already-touched edge; on the benchmark graphs nearly every draw
        // succeeds, so the bound is never reached in practice.
        (0..100_000).find_map(|_| self.try_delta())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_counting::dynamic::VersionedGraph;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let sizing = Sizing::tiny();
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7, &sizing);
            let b = Inputs::generate(workload, 7, &sizing);
            let c = Inputs::generate(workload, 8, &sizing);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.probe_keys(), b.probe_keys());
            assert_ne!(a.probe_keys(), c.probe_keys(), "{workload:?}");
            let chain = |i: &Inputs| i.delta_chain().take(20).collect::<Vec<_>>();
            assert_eq!(chain(&a), chain(&b));
            assert_ne!(chain(&a), chain(&c), "{workload:?}");
        }
        let a = Inputs::generate(Workload::SkewedCold, 7, &sizing);
        let c = Inputs::generate(Workload::SkewedCold, 8, &sizing);
        let jobs = |i: &Inputs| (0..50).map(|j| i.skewed_job(j)).collect::<Vec<_>>();
        assert_eq!(jobs(&a), jobs(&a));
        assert_ne!(jobs(&a), jobs(&c));
    }

    #[test]
    fn cold_jobs_never_share_a_key() {
        let inputs = Inputs::generate(Workload::SkewedCold, 3, &Sizing::full());
        let keys: HashSet<JobKey> = (0..10_000).map(|j| inputs.skewed_job(j)).collect();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn every_delta_applies_to_the_evolving_head() {
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, 11, &Sizing::tiny());
            let mut versions = VersionedGraph::new(&inputs.build_graph());
            for (i, delta) in inputs.delta_chain().take(200).enumerate() {
                assert_eq!(delta.len(), 1);
                versions
                    .apply_to_head(&delta)
                    .unwrap_or_else(|e| panic!("{workload:?} delta {i} rejected: {e}"));
            }
            assert_eq!(versions.num_versions(), 201, "every version id is new");
        }
    }

    #[test]
    fn full_size_road_chain_is_valid() {
        let inputs = Inputs::generate(Workload::RoadDeltaWatch, 5, &Sizing::full());
        assert_eq!(inputs.vertices, 150 * 150);
        let mut versions = VersionedGraph::new(&inputs.build_graph());
        for delta in inputs.delta_chain().take(500) {
            versions
                .apply_to_head(&delta)
                .expect("valid against the head");
        }
    }
}
