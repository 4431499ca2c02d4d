//! Command line of the wall-clock benchmark.
//!
//! ```text
//! canopus-wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric with its unit, one info line of run facts, and, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`. A traced
//! run also writes its trace document under `.bench_out/`. Exits non-zero
//! when the correctness gate fails or the run cannot complete.

use std::process::ExitCode;

use canopus_wallbench::bench::{self, Args};
use canopus_wallbench::report;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    bench::pin_environment();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match bench::bench(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &r.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", r.info);
    if let Some(doc) = &r.trace_doc {
        let path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    for f in &r.failures {
        eprintln!("correctness gate failed: {f}");
    }
    println!(
        "{}",
        report::result_line(r.correct, r.attempted, r.failed, &r.metrics)
    );
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
