//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON line with the result as
//! the last line of standard output. Exits 1 on a wrong output or a broken
//! workload premise (after printing the result) and 2 on bad arguments or
//! a run that produced no result.

use perfbench::inputs::Sizing;
use perfbench::{run, Args, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let outcome = match run(&args, &Sizing::full()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    if let Some(trace) = &outcome.trace_jsonl {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.jsonl", args.workload.name(), args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
