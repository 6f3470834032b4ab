//! Cross-validation of the PS and DB algorithms against the brute-force
//! oracle on every catalog query over a variety of small data graphs.
//!
//! This is the central correctness suite of the reproduction: for every
//! graph/query/coloring triple small enough to enumerate, the number of
//! colorful matches reported by the Path Splitting baseline, the Degree Based
//! algorithm and the exponential backtracking oracle must be identical, for
//! every decomposition plan of the query. All counts go through the
//! [`Engine`] front door, so this suite also exercises the plan cache and
//! the shared preprocessing.

use subgraph_counting::core::brute::count_colorful_matches;
use subgraph_counting::core::kernel::ArenaPool;
use subgraph_counting::core::{count_incremental, Algorithm, Engine, KernelKind};
use subgraph_counting::gen::{erdos_renyi::gnp, small};
use subgraph_counting::graph::{Coloring, CsrGraph};
use subgraph_counting::query::{catalog, enumerate_plans, QueryGraph, Registry};

const ALGORITHMS: [Algorithm; 2] = [Algorithm::PathSplitting, Algorithm::DegreeBased];

fn check_query_on_engine(
    engine: &Engine<'_>,
    query: &QueryGraph,
    seeds: std::ops::Range<u64>,
    label: &str,
) {
    let graph = engine.graph();
    for seed in seeds {
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), seed);
        let expected = count_colorful_matches(graph, query, &coloring);
        for algorithm in ALGORITHMS {
            let got = engine
                .count(query)
                .algorithm(algorithm)
                .sharded(8)
                .coloring(&coloring)
                .run()
                .unwrap()
                .colorful_matches;
            assert_eq!(
                got, expected,
                "{label}: {algorithm} disagrees with brute force (seed {seed})"
            );
        }
    }
}

#[test]
fn figure8_queries_match_brute_force_on_random_graphs() {
    // Data graphs: sparse and denser G(n, p), plus structured graphs.
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("gnp_14_0.25", gnp(14, 0.25, 1)),
        ("gnp_16_0.35", gnp(16, 0.35, 2)),
        ("petersen", small::petersen()),
        ("grid_4x4", small::grid(4, 4)),
    ];
    for (gname, graph) in &graphs {
        let engine = Engine::new(graph);
        for spec in catalog::FIGURE8_QUERIES {
            let query = (spec.build)();
            check_query_on_engine(&engine, &query, 0..2, &format!("{} on {gname}", spec.name));
        }
        // Ten structurally distinct catalog queries were planned exactly once
        // each through the shared cache.
        assert_eq!(engine.cached_plans(), catalog::FIGURE8_QUERIES.len());
    }
}

#[test]
fn satellite_query_matches_brute_force() {
    // The paper's 11-node worked example, on graphs dense enough to contain it.
    let graphs = [gnp(15, 0.45, 7), gnp(18, 0.35, 8)];
    let query = catalog::satellite();
    for (i, graph) in graphs.iter().enumerate() {
        let engine = Engine::new(graph);
        check_query_on_engine(&engine, &query, 0..2, &format!("satellite on graph {i}"));
    }
}

#[test]
fn karate_club_exact_counts_for_small_queries() {
    // Zachary's karate club is small enough for the oracle on ≤5-node queries
    // and exercises a genuinely skewed real network.
    let graph = small::karate_club();
    let engine = Engine::new(&graph);
    for (name, query) in [
        ("triangle", catalog::triangle()),
        ("c4", catalog::cycle(4)),
        ("c5", catalog::cycle(5)),
        ("glet1", catalog::glet1()),
        ("youtube", catalog::youtube()),
        ("path4", catalog::path(4)),
    ] {
        check_query_on_engine(&engine, &query, 0..2, &format!("{name} on karate"));
    }
}

#[test]
fn every_plan_of_a_query_gives_the_same_count() {
    // Counts must be independent of the decomposition tree chosen.
    let graph = gnp(15, 0.3, 3);
    let engine = Engine::new(&graph);
    for query in [
        catalog::brain1(),
        catalog::ecoli1(),
        catalog::dros(),
        catalog::satellite(),
    ] {
        let plans = enumerate_plans(&query).unwrap();
        assert!(!plans.is_empty());
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 9);
        let reference = count_colorful_matches(&graph, &query, &coloring);
        for (i, plan) in plans.iter().enumerate() {
            for algorithm in ALGORITHMS {
                let got = engine
                    .count(&query)
                    .algorithm(algorithm)
                    .sharded(8)
                    .plan(plan)
                    .coloring(&coloring)
                    .run()
                    .unwrap()
                    .colorful_matches;
                assert_eq!(
                    got, reference,
                    "plan {i} with {algorithm} disagrees with brute force"
                );
            }
        }
    }
}

#[test]
fn tree_queries_agree_with_treelet_dp_and_brute_force() {
    let graph = gnp(20, 0.2, 4);
    let engine = Engine::new(&graph);
    for query in [
        catalog::path(4),
        catalog::path(6),
        catalog::star(4),
        catalog::binary_tree(3),
    ] {
        for seed in 0..2 {
            let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), seed);
            let brute = count_colorful_matches(&graph, &query, &coloring);
            let dp =
                subgraph_counting::core::treelet::count_colorful_treelet(&graph, &coloring, &query);
            assert_eq!(dp, brute);
            for algorithm in ALGORITHMS {
                let got = engine
                    .count(&query)
                    .algorithm(algorithm)
                    .sharded(8)
                    .coloring(&coloring)
                    .run()
                    .unwrap()
                    .colorful_matches;
                assert_eq!(got, brute, "{algorithm}");
            }
        }
    }
}

#[test]
fn counts_are_independent_of_rank_count() {
    // The paper's ranks are this runtime's vertex shards.
    let graph = gnp(18, 0.3, 11);
    let engine = Engine::new(&graph);
    let query = catalog::brain2();
    let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 5);
    let reference = engine
        .count(&query)
        .algorithm(Algorithm::DegreeBased)
        .sharded(1)
        .coloring(&coloring)
        .run()
        .unwrap()
        .colorful_matches;
    for shards in [2, 7, 64, 512] {
        let got = engine
            .count(&query)
            .algorithm(Algorithm::DegreeBased)
            .sharded(shards)
            .coloring(&coloring)
            .run()
            .unwrap()
            .colorful_matches;
        assert_eq!(got, reference, "shards = {shards}");
    }
}

#[test]
fn serial_counts_are_one_shard_counts_across_the_registry() {
    // Serial is one shard: the plain run, an explicit `.sharded(1)` and a
    // one-shard count that retains its partials are the same execution.
    let graph = gnp(40, 0.15, 12);
    let engine = Engine::new(&graph);
    let pool = ArenaPool::new();
    let registry = Registry::builtin();
    for name in registry.names() {
        let query = registry.build(name).unwrap();
        let plan = engine.plan(&query).unwrap();
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 31);
        for algorithm in ALGORITHMS {
            let request = || {
                engine
                    .count(&query)
                    .algorithm(algorithm)
                    .coloring(&coloring)
            };
            let serial = request().run().unwrap();
            let one_shard = request().sharded(1).run().unwrap();
            let retaining = count_incremental(
                &graph,
                engine.prep(),
                &coloring,
                &plan,
                algorithm,
                1,
                KernelKind::default(),
                &pool,
                None,
            )
            .unwrap();
            for (label, count, metrics) in [
                ("sharded(1)", one_shard.colorful_matches, &one_shard.metrics),
                ("retaining", retaining.colorful_matches, &retaining.metrics),
            ] {
                let at = format!("{name} with {algorithm}: {label}");
                assert_eq!(count, serial.colorful_matches, "{at}");
                assert_eq!(metrics.total_ops, serial.metrics.total_ops, "{at}");
                assert_eq!(
                    metrics.peak_table_entries, serial.metrics.peak_table_entries,
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn empty_and_sparse_graphs_count_zero_for_cyclic_queries() {
    // A forest contains no cycles, so cyclic queries must count zero.
    let graph = small::star(12);
    let engine = Engine::new(&graph);
    for query in [catalog::triangle(), catalog::cycle(5), catalog::brain1()] {
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 0);
        for algorithm in ALGORITHMS {
            let got = engine
                .count(&query)
                .algorithm(algorithm)
                .sharded(8)
                .coloring(&coloring)
                .run()
                .unwrap()
                .colorful_matches;
            assert_eq!(got, 0);
        }
    }
}
