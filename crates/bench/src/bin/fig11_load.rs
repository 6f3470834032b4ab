//! Figure 11 — normalized execution time, maximum load and average load of
//! PS and DB on the enron graph.
//!
//! The load of a rank is the number of projection function operations it
//! performs. The paper shows DB achieving both a lower average load (less
//! wasted work) and a lower maximum load (better balance) than PS; the
//! execution-time improvement correlates with the max-load improvement.
//!
//! The loads reported here are the *measured* per-shard operation counts
//! of vertex-partitioned execution (`RunMetrics::shards`): each run is
//! sharded over `SGC_SHARDS` worker shards (default: the hardware thread
//! count) and the max/avg/imbalance columns summarize what each shard
//! actually executed.

use subgraph_counting::core::{Algorithm, Engine};

use sgc_bench::*;

fn main() {
    print_header("Figure 11: normalized time / max load / avg load on the enron analog");
    let graphs = benchmark_graphs(experiment_scale(), &["enron"]);
    let enron = &graphs[0];
    let queries = benchmark_queries(query_subset());
    let shards = shard_count();
    println!("(per-shard loads measured over {shards} shards)");
    println!();

    let engine = Engine::new(&enron.graph);
    println!(
        "{:<10} | {:>9} {:>9} | {:>12} {:>12} | {:>12} {:>12} | {:>8} {:>8} | {:>9} {:>9}",
        "query",
        "PS time",
        "DB time",
        "PS max load",
        "DB max load",
        "PS avg load",
        "DB avg load",
        "PS imb",
        "DB imb",
        "IF time",
        "IF maxld"
    );
    for bq in &queries {
        let (ps, ps_t) =
            timed_count_sharded(&engine, &bq.plan, Algorithm::PathSplitting, shards, 42);
        let (db, db_t) = timed_count_sharded(&engine, &bq.plan, Algorithm::DegreeBased, shards, 42);
        assert_eq!(ps.colorful_matches, db.colorful_matches);
        let ps_shards = ps.metrics.shards.as_ref().expect("sharded run");
        let db_shards = db.metrics.shards.as_ref().expect("sharded run");
        println!(
            "{:<10} | {:>9.4} {:>9.4} | {:>12} {:>12} | {:>12.0} {:>12.0} | {:>8.2} {:>8.2} | {:>9.2} {:>9.2}",
            bq.name,
            ps_t,
            db_t,
            ps_shards.max_ops(),
            db_shards.max_ops(),
            ps_shards.avg_ops(),
            db_shards.avg_ops(),
            ps_shards.imbalance(),
            db_shards.imbalance(),
            ps_t / db_t.max(1e-9),
            ps_shards.max_ops() as f64 / db_shards.max_ops().max(1) as f64,
        );
    }
    println!();
    println!("loads are measured per shard ({shards} shards, set SGC_SHARDS to change); normalize each column by its PS value to match the paper's plot");
}
