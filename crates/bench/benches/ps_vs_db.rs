//! Criterion benchmark: PS vs DB on a skewed Chung-Lu graph and a low-skew
//! road-like graph, over representative queries.
//!
//! This is the microbenchmark counterpart of Figure 10: DB is expected to win
//! on the skewed graph (most clearly on cycle-heavy queries) and to be close
//! to PS on the low-skew graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subgraph_counting::core::{Algorithm, CountConfig, Engine};
use subgraph_counting::gen::{chung_lu, power_law_degrees, road_like};
use subgraph_counting::graph::{Coloring, CsrGraph};
use subgraph_counting::query::{catalog, heuristic_plan};

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let degrees: Vec<f64> = power_law_degrees(1500, 1.45)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    vec![
        ("powerlaw1500", chung_lu(&degrees, 11)),
        ("road1600", road_like(40, 0.65, 0.02, 11)),
    ]
}

fn bench_ps_vs_db(c: &mut Criterion) {
    let mut group = c.benchmark_group("ps_vs_db");
    group.sample_size(10);
    for (gname, graph) in graphs() {
        let engine = Engine::new(&graph);
        for qname in ["youtube", "glet2", "dros"] {
            let query = catalog::query_by_name(qname).unwrap();
            let plan = heuristic_plan(&query).unwrap();
            let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 5);
            for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                let config = CountConfig::new(algorithm);
                group.bench_with_input(
                    BenchmarkId::new(format!("{gname}/{qname}"), algorithm.short_name()),
                    &config,
                    |b, cfg| {
                        b.iter(|| {
                            engine
                                .count(&query)
                                .plan(&plan)
                                .config(*cfg)
                                .coloring(&coloring)
                                .run()
                                .unwrap()
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ps_vs_db);
criterion_main!(benches);
