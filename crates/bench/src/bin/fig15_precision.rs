//! Figure 15 — precision of color coding: coefficient of variation of the
//! per-trial colorful counts over repeated random colorings.
//!
//! The paper performs 10 trials per graph-query pair and reports that with 3
//! trials 82% of the pairs have coefficient of variation at most 0.1, rising
//! to 91% with 10 trials.

use sgc_bench::*;
use subgraph_counting::core::Engine;

fn main() {
    print_header("Figure 15: coefficient of variation of the colorful count across trials");
    let graphs = benchmark_graphs(experiment_scale(), graph_subset());
    let queries = benchmark_queries(query_subset());
    // One engine per data graph, shared by both trial settings below: the
    // preprocessing and plan cache are built once per graph for the whole
    // binary.
    let engines: Vec<Engine<'_>> = graphs.iter().map(|bg| Engine::new(&bg.graph)).collect();

    for trials in [3usize, 10] {
        println!("--- {trials} trials ---");
        let mut below_01 = 0usize;
        let mut total = 0usize;
        print!("{:<12}", "graph\\query");
        for q in &queries {
            print!(" {:>8}", q.name);
        }
        println!();
        for (bg, engine) in graphs.iter().zip(&engines) {
            print!("{:<12}", bg.name);
            for bq in &queries {
                let est = engine
                    .count(&bq.query)
                    .plan(&bq.plan)
                    .trials(trials)
                    .seed(1000)
                    .estimate()
                    .expect("catalog queries are treewidth-2");
                total += 1;
                if est.coefficient_of_variation <= 0.1 {
                    below_01 += 1;
                }
                print!(" {:>8.3}", est.coefficient_of_variation);
            }
            println!();
        }
        println!(
            "combinations with CoV <= 0.1: {below_01}/{total} ({:.0}%)",
            100.0 * below_01 as f64 / total.max(1) as f64
        );
        println!();
    }
}
