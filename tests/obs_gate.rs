//! The one publish gate: every count publishes its run counters into the
//! `sgc-obs` registry exactly when its own `obs` flag and the process-wide
//! switch are both on — solo `run()`s and versioned `count_at` runs alike.
//!
//! These tests flip the process-wide switch, so they live in a test binary
//! of their own (no other suite shares the process) and take turns under a
//! lock (libtest runs the tests of one binary on several threads).

use std::sync::{Arc, Mutex, MutexGuard};
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::obs;
use subgraph_counting::query::catalog;
use subgraph_counting::{CountJob, Engine, Service, ServiceConfig};

static SWITCH: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    SWITCH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: &str) -> u64 {
    obs::global().get(name).unwrap_or(0)
}

#[test]
fn run_with_the_switch_off_leaves_engine_runs_unchanged() {
    let _turn = exclusive();
    let graph = gnp(40, 0.2, 1);
    let engine = Engine::new(&graph);
    let query = catalog::triangle();

    obs::set_enabled(false);
    let before = counter("engine_runs");
    let off = engine.count(&query).seed(3).obs(true).run();
    let after = counter("engine_runs");
    obs::set_enabled(true);
    assert_eq!(after, before, "a run published with the switch off");

    // The same request with the switch on publishes, and counts the same.
    let on = engine.count(&query).seed(3).obs(true).run().unwrap();
    assert_eq!(counter("engine_runs"), after + 1);
    assert_eq!(off.unwrap().colorful_matches, on.colorful_matches);
}

#[test]
fn versioned_count_at_publishes_run_and_exchange_counters() {
    let _turn = exclusive();
    obs::set_enabled(true);
    let service = Service::with_config(
        Arc::new(gnp(60, 0.1, 2)),
        ServiceConfig {
            workers: 1,
            obs: true,
            ..ServiceConfig::default()
        },
    );
    let runs = counter("engine_runs");
    let rounds = counter("shard_exchange_rounds");
    let output = service
        .count_at(
            service.root_version(),
            CountJob::new(catalog::cycle(4)).seed(5).budget(4),
        )
        .unwrap();
    assert_eq!(output.trials_run, 4);
    assert!(
        counter("engine_runs") >= runs + 4,
        "one published run per versioned trial"
    );
    assert!(counter("shard_exchange_rounds") > rounds);
    service.shutdown();
}
