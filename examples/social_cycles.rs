//! Cycle counting on a skewed social network, with load-balance metrics.
//!
//! Generates an R-MAT social network (the paper's weak-scaling generator with
//! Graph 500 parameters), counts 5-cycles and the fused-cycle `brain1` query
//! over 64 vertex shards, and prints for PS and DB the per-shard load
//! statistics that Figure 11 reports: total operations, maximum and average
//! operations per shard, and their max/avg imbalance. A shard owns the
//! paths that start at its vertices, so DB's high-starting paths put its
//! work on the shards holding the highest-degree vertices.
//!
//! Run with:
//! ```text
//! cargo run --release --example social_cycles
//! ```

use subgraph_counting::gen::rmat::{rmat, RmatParams};
use subgraph_counting::graph::{Coloring, DegreeStats};
use subgraph_counting::query::catalog;
use subgraph_counting::{Algorithm, Engine};

fn main() {
    let graph = rmat(11, RmatParams::paper(), 3); // 2048 vertices
    let stats = DegreeStats::compute(&graph);
    println!(
        "R-MAT social network: {} vertices, {} edges, skew {:.1}",
        stats.num_vertices,
        stats.num_edges,
        stats.skew()
    );
    println!();

    let shards = 64;
    let engine = Engine::new(&graph);
    for (name, query) in [
        ("glet2 (5-cycle)", catalog::glet2()),
        ("brain1", catalog::brain1()),
    ] {
        println!("query {name}:");
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 17);
        let mut results = Vec::new();
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let res = engine
                .count(&query)
                .algorithm(algorithm)
                .coloring(&coloring)
                .sharded(shards)
                .run()
                .unwrap();
            let load = res
                .metrics
                .shards
                .clone()
                .expect("every run reports its shards");
            println!(
                "  {:<3} colorful={:<12} total ops={:<12} max load={:<12} avg load={:<12.0} imbalance={:.2}",
                algorithm.short_name(),
                res.colorful_matches,
                res.metrics.total_ops,
                load.max_ops(),
                load.avg_ops(),
                load.imbalance()
            );
            results.push((res.colorful_matches, res.metrics.total_ops, load.max_ops()));
        }
        assert_eq!(results[0].0, results[1].0, "PS and DB must agree");
        let ops_if = results[0].1 as f64 / results[1].1.max(1) as f64;
        let max_if = results[0].2 as f64 / results[1].2.max(1) as f64;
        println!(
            "  DB improvement: {:.2}x total ops, {:.2}x max load",
            ops_if, max_if
        );
        println!();
    }
}
