//! A tiny-scale run of every workload, timed and traced, through the same
//! entry point the command uses.

use perfbench::inputs::Sizing;
use perfbench::{run, Args, Workload, END_TO_END, PER_LAYER};

// One test: the observability switch and the metrics registry are
// process-wide, so the runs must not overlap.
#[test]
fn every_workload_runs_correctly_at_tiny_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 3,
                // The traced run splits this in two; each half must complete
                // more than the 10 ops a tail latency needs, also on a slow
                // host.
                seconds: 2.0,
                trace,
            };
            let outcome = run(&args, &Sizing::tiny())
                .unwrap_or_else(|e| panic!("{workload:?} trace {trace}: {e}"));
            let report = outcome.report.join("\n");
            assert!(outcome.correct, "{workload:?} trace {trace}:\n{report}");
            assert_eq!(outcome.failed, 0, "{report}");
            assert!(outcome.attempted > 10, "{report}");
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.0, m.1)).collect();
            assert_eq!(got, expected);
            assert!(outcome.metrics.iter().all(|m| m.2.is_finite()), "{report}");
            if !trace {
                assert!(outcome.metrics.iter().all(|m| m.2 > 0.0), "{report}");
            }
            let json = outcome.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert_eq!(trace, outcome.trace_jsonl.is_some());
        }
    }
}

/// `BENCHMARK.json` at the repository root declares the same metrics, with
/// the same units, and the same workloads as this crate reports.
#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
    }
}
