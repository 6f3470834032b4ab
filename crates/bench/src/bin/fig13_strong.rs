//! Figure 13 (left) — strong scaling of the DB algorithm on the enron graph.
//!
//! The paper fixes the enron graph and sweeps 32..512 ranks, reporting
//! speedup relative to the 32-rank baseline. This experiment measures
//! *real* scaling: the sweep is over shard
//! counts 1, 2, 4, ... up to the hardware limit, each run vertex-partitioned
//! over that many worker shards with partial-sum exchange rounds between
//! blocks, and speedup is reported relative to a single shard. Counts are
//! asserted bit-identical across the sweep (the runtime's determinism
//! contract), and the per-shard load imbalance at the widest sweep point is
//! printed alongside (the paper's Figure 11 quantity, measured).

use subgraph_counting::core::{Algorithm, Engine};

use sgc_bench::*;

fn main() {
    print_header("Figure 13 (left): strong scaling on the enron analog (sharded runtime)");
    // Strong scaling needs enough per-shard work to amortise fork/join
    // overhead, so this experiment runs at 5x the base scale.
    let scale = (experiment_scale() * 5.0).min(1.0);
    println!("(strong scaling uses scale {scale})");
    let graphs = benchmark_graphs(scale, &["enron"]);
    let enron = &graphs[0];
    let queries = benchmark_queries(&["glet2", "dros", "ecoli2", "glet1"]);

    // Sweep shard counts in powers of two up to the hardware limit (or
    // SGC_SHARDS, for measuring oversharded runs / pinning the sweep).
    let mut shard_counts = vec![1usize];
    while *shard_counts.last().unwrap() * 2 <= shard_count() {
        shard_counts.push(shard_counts.last().unwrap() * 2);
    }

    let engine = Engine::new(&enron.graph);
    print!("{:<10}", "query");
    for &s in &shard_counts {
        print!(" {:>10}", format!("{s} shard"));
    }
    println!(" {:>10}   (speedup vs 1 shard)", "imbal");
    for bq in &queries {
        print!("{:<10}", bq.name);
        let mut baseline = None;
        let mut reference_count = None;
        let mut widest_imbalance = 1.0;
        for &s in &shard_counts {
            let (result, seconds) =
                timed_count_sharded(&engine, &bq.plan, Algorithm::DegreeBased, s, 42);
            let count = *reference_count.get_or_insert(result.colorful_matches);
            assert_eq!(
                result.colorful_matches, count,
                "sharded counts must be bit-identical across shard counts"
            );
            widest_imbalance = result
                .metrics
                .shards
                .as_ref()
                .map(|m| m.imbalance())
                .unwrap_or(1.0);
            let base = *baseline.get_or_insert(seconds);
            print!(" {:>10.2}", base / seconds.max(1e-9));
        }
        println!(" {widest_imbalance:>10.2}");
    }
    println!();
    println!("ideal column values equal the shard count; the gap is exchange cost plus per-shard load imbalance (imbal = max/avg shard ops at the widest sweep)");
}
