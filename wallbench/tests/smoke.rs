//! Seconds-long smoke runs of every workload through the full procedure,
//! each of which must pass the correctness gate and report every metric.
//!
//! Run with `cargo test --release --manifest-path wallbench/Cargo.toml`.

use std::sync::Mutex;

use canopus_wallbench::bench::{self, Args, WORKLOADS};
use canopus_wallbench::report::{per_layer_defs, END_TO_END};

/// Live clusters share the process-wide reactor and the host's cores:
/// one run at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, trace: bool) -> bench::Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    bench::pin_environment();
    let r = bench::bench(&Args {
        workload: workload.to_string(),
        seed: 11,
        seconds: 1.0,
        trace,
    })
    .expect("run completes");
    assert!(
        r.correct,
        "{workload}: correctness gate failed: {:?}",
        r.failures
    );
    assert!(
        r.attempted > 0,
        "{workload}: no ops attempted in the window"
    );
    assert_eq!(r.failed, 0, "{workload}: ops failed");
    r
}

fn names(r: &bench::Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_passes_the_gate_and_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let r = smoke(w.name, false);
        let want: Vec<String> = END_TO_END.iter().map(|d| d.0.to_string()).collect();
        assert_eq!(names(&r), want, "{}", w.name);
        assert!(
            r.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: a metric is zero or missing: {:?}",
            w.name,
            r.metrics
        );
        assert!(r.info.contains("\"label\": \"wallclock\""));
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let r = smoke("sharded_closed", true);
    let want: Vec<String> = per_layer_defs().into_iter().map(|d| d.0).collect();
    assert_eq!(names(&r), want);
    let doc = r.trace_doc.expect("trace document");
    for span in [
        "gen.issue",
        "gen.reply",
        "shard.on_message.request",
        "kv.put",
    ] {
        assert!(doc.contains(span), "trace lacks {span} spans");
    }
}

#[test]
fn benchmark_manifest_lists_exactly_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(doc) = std::fs::read_to_string(path) else {
        return; // a bare copy of the benchmark files has no manifest above it
    };
    let listed = |name: &str| doc.contains(&format!("\"name\": \"{name}\""));
    for w in WORKLOADS {
        assert!(listed(w.name), "workload {} missing", w.name);
    }
    for (n, u, b) in END_TO_END {
        assert!(listed(n), "end-to-end metric {n} missing");
        assert!(doc.contains(&format!(
            "\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\""
        )));
    }
    for (n, u, b) in per_layer_defs() {
        assert!(
            doc.contains(&format!(
                "\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\""
            )),
            "per-layer metric {n} missing"
        );
    }
    let entries = doc.matches("\"name\": ").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + per_layer_defs().len()
    );
}
