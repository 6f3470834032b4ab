//! Criterion benchmark: the end-to-end estimator and an ablation of the DB
//! degree constraint.
//!
//! `db_vs_ps_trial` compares one full estimation trial under both algorithms
//! on a skewed graph (the end-to-end counterpart of the Figure 10 shape);
//! `treelet_vs_general` compares the dedicated tree-query dynamic program
//! against the general treewidth-2 machinery on a tree query (the FASCIA
//! special case).

use criterion::{criterion_group, criterion_main, Criterion};
use subgraph_counting::core::treelet::count_colorful_treelet;
use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::gen::{chung_lu, power_law_degrees};
use subgraph_counting::graph::Coloring;
use subgraph_counting::query::{catalog, heuristic_plan};

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    group.sample_size(10);
    let degrees: Vec<f64> = power_law_degrees(2000, 1.5)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 21);
    let engine = Engine::new(&graph);

    let query = catalog::glet1();
    let plan = heuristic_plan(&query).unwrap();
    let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 4);
    for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
        group.bench_function(format!("db_vs_ps_trial/{}", algorithm.short_name()), |b| {
            b.iter(|| {
                engine
                    .count(&query)
                    .plan(&plan)
                    .algorithm(algorithm)
                    .coloring(&coloring)
                    .run()
                    .unwrap()
            });
        });
    }

    let tree_query = catalog::binary_tree(3);
    let tree_plan = heuristic_plan(&tree_query).unwrap();
    let tree_coloring = Coloring::random(graph.num_vertices(), tree_query.num_nodes(), 4);
    group.bench_function("treelet_vs_general/treelet_dp", |b| {
        b.iter(|| count_colorful_treelet(&graph, &tree_coloring, &tree_query));
    });
    group.bench_function("treelet_vs_general/general_db", |b| {
        b.iter(|| {
            engine
                .count(&tree_query)
                .plan(&tree_plan)
                .algorithm(Algorithm::DegreeBased)
                .coloring(&tree_coloring)
                .run()
                .unwrap()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_estimator);
criterion_main!(benches);
