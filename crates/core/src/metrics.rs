//! Run metrics: operation counts, per-shard loads, table sizes, timings.
//!
//! The paper's evaluation reports execution time (Figures 9, 10, 12, 13) and
//! the per-processor load — "the number of projection function operations" —
//! (Figure 11). [`RunMetrics`] collects the operation total and table-size
//! statistics useful for understanding memory behaviour; its
//! [`ShardMetrics`] record what each vertex shard of the run actually
//! executed and contributed to each exchange round — the measured
//! counterpart of the paper's Figure 11 load analysis. A serial run is a
//! one-shard run and reports one shard.

use crate::kernel::KernelMetrics;
use std::time::Duration;

/// Metrics accumulated over a single colorful-counting run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Projection function operations executed across all shards.
    pub total_ops: u64,
    /// Largest number of entries held by any single working table during the
    /// run — a proxy for peak memory.
    pub peak_table_entries: usize,
    /// Total table entries produced across all joins. Shard-dependent:
    /// per-shard partial tables and, with more than one shard, the
    /// exchanged block tables each count as produced entries (the same
    /// projection key may appear in several shards' partials), mirroring
    /// the entry duplication a distributed run really pays.
    pub entries_created: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-shard execution metrics (one shard for a serial run). `None`
    /// only in metrics that did not come from a run.
    pub shards: Option<ShardMetrics>,
    /// Arena accounting of the columnar kernel (all-zero under the scalar
    /// kernel, which allocates per join instead of from an arena).
    pub kernel: KernelMetrics,
}

/// Per-shard execution metrics of one sharded run.
///
/// Records what each shard of the runtime *did*: the projection operations
/// it executed (the paper's Figure 11 per-processor load) and the
/// partial-sum table entries it handed to the exchange step (the
/// shared-memory analog of the paper's alltoall message volume, Section 7).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Projection operations executed by each shard, summed over all blocks.
    pub ops_per_shard: Vec<u64>,
    /// Partial-sum table entries each shard contributed to the exchange
    /// steps, summed over all rounds.
    pub entries_exchanged: Vec<u64>,
    /// Number of exchange rounds performed (one per block of the plan).
    pub exchange_rounds: u64,
}

impl ShardMetrics {
    /// Creates zeroed metrics for `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        ShardMetrics {
            ops_per_shard: vec![0; num_shards],
            entries_exchanged: vec![0; num_shards],
            exchange_rounds: 0,
        }
    }

    /// Number of shards tracked.
    pub fn num_shards(&self) -> usize {
        self.ops_per_shard.len()
    }

    /// Maximum operations executed by any single shard — the critical-path
    /// load of the sharded runtime.
    pub fn max_ops(&self) -> u64 {
        self.ops_per_shard.iter().copied().max().unwrap_or(0)
    }

    /// Average operations per shard.
    pub fn avg_ops(&self) -> f64 {
        if self.ops_per_shard.is_empty() {
            0.0
        } else {
            self.ops_per_shard.iter().sum::<u64>() as f64 / self.ops_per_shard.len() as f64
        }
    }

    /// Ratio of the maximum to the average per-shard operations
    /// (1.0 = perfectly balanced; the paper's load-imbalance metric applied
    /// to the real shards).
    pub fn imbalance(&self) -> f64 {
        let avg = self.avg_ops();
        if avg == 0.0 {
            1.0
        } else {
            self.max_ops() as f64 / avg
        }
    }

    /// Total partial-sum entries moved through the exchange steps.
    pub fn total_entries_exchanged(&self) -> u64 {
        self.entries_exchanged.iter().sum()
    }
}

impl RunMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the metrics of one shard's partial solve into this run's
    /// totals: operation counts add up, peak table sizes take the max, and
    /// created-entry counts accumulate.
    pub fn absorb_shard(&mut self, shard: &RunMetrics) {
        self.total_ops += shard.total_ops;
        self.peak_table_entries = self.peak_table_entries.max(shard.peak_table_entries);
        self.entries_created += shard.entries_created;
        self.kernel.absorb(&shard.kernel);
    }

    /// Records the size of a freshly produced table.
    pub fn observe_table(&mut self, entries: usize) {
        self.peak_table_entries = self.peak_table_entries.max(entries);
        self.entries_created += entries as u64;
    }

    /// Publishes this run's counters into the process-wide `sgc-obs`
    /// registry: run, kernel and shard counters. Called once per run by the
    /// execution loop (never inside the DP), and only when observability is
    /// enabled for the run.
    pub fn publish(&self) {
        let registry = sgc_obs::global();
        registry.counter_add("engine_runs", 1);
        registry.counter_add("engine_total_ops", self.total_ops);
        registry.counter_add("engine_entries_created", self.entries_created);
        registry.gauge_max("engine_peak_table_entries", self.peak_table_entries as u64);
        registry.counter_add("kernel_arena_reuses", self.kernel.arena_reuses);
        registry.counter_add("kernel_arena_grown_bytes", self.kernel.arena_grown_bytes);
        registry.gauge_max("kernel_arena_bytes", self.kernel.arena_bytes);
        if let Some(shards) = &self.shards {
            registry.counter_add("shard_exchange_rounds", shards.exchange_rounds);
            registry.counter_add("shard_entries_exchanged", shards.total_entries_exchanged());
            registry.gauge_max("shard_max_ops", shards.max_ops());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_observe() {
        let mut m = RunMetrics::new();
        m.total_ops += 14;
        m.total_ops += 14;
        assert_eq!(m.total_ops, 28);

        m.observe_table(100);
        m.observe_table(40);
        assert_eq!(m.peak_table_entries, 100);
        assert_eq!(m.entries_created, 140);
    }

    #[test]
    fn new_metrics_are_zeroed() {
        let m = RunMetrics::new();
        assert_eq!(m.total_ops, 0);
        assert_eq!(m.peak_table_entries, 0);
        assert_eq!(m.elapsed, Duration::ZERO);
        assert!(m.shards.is_none());
        assert_eq!(m.kernel, KernelMetrics::default());
    }

    #[test]
    fn absorb_shard_merges_loads_and_maxes_peaks() {
        let mut total = RunMetrics::new();
        let mut a = RunMetrics::new();
        a.total_ops = 5;
        a.observe_table(10);
        let mut b = RunMetrics::new();
        b.total_ops = 7;
        b.observe_table(4);
        total.absorb_shard(&a);
        total.absorb_shard(&b);
        assert_eq!(total.total_ops, 12);
        assert_eq!(total.peak_table_entries, 10);
        assert_eq!(total.entries_created, 14);
    }

    #[test]
    fn shard_metrics_statistics() {
        let mut s = ShardMetrics::new(4);
        assert_eq!(s.num_shards(), 4);
        assert_eq!(s.max_ops(), 0);
        assert_eq!(s.imbalance(), 1.0);
        s.ops_per_shard = vec![10, 20, 30, 40];
        s.entries_exchanged = vec![1, 2, 3, 4];
        s.exchange_rounds = 2;
        assert_eq!(s.max_ops(), 40);
        assert!((s.avg_ops() - 25.0).abs() < 1e-12);
        assert!((s.imbalance() - 1.6).abs() < 1e-12);
        assert_eq!(s.total_entries_exchanged(), 10);
    }
}
