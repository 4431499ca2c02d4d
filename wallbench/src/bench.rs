//! Workloads and the benchmark procedure behind the command line.

use std::time::Duration;

use canopus::{CanopusNode, ShardEngine};
use canopus_harness::live_time_unit;
use canopus_sim::{NodeId, Process};

use crate::gen::{ClientPlane, Load};
use crate::report::{self, Metric, Window};
use crate::run::{self, Outcome, RunSpec};
use crate::shim::Lots;
use crate::sys;

/// The live time unit every run pins, ms. `examples/live_scale.rs` uses
/// the same 100 ms for loaded hosts; on a shared 2-vCPU host the 50 ms
/// default spent ~15 % more CPU per op and its latency swung further with
/// host steal.
pub const TIME_UNIT_MS: u64 = 100;
/// Extra clusters set up per untraced invocation for the `setup_s`
/// median (the measured run's own set-up is one more sample).
pub const SETUP_REPEATS: usize = 10;

/// One named traffic mix.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Offered load for a host with `nproc` cores.
    pub load: fn(usize) -> Load,
    /// Share of `Put`s.
    pub write_frac: f64,
    /// Nodes are `ShardEngine`s with `nproc` shards.
    pub sharded: bool,
}

/// Open-loop rate of `write_open`, ops/s: well below the ~35 k/s at which
/// a plain node's latency turned bimodal from run to run on a 2-vCPU host.
pub const WRITE_OPEN_RATE: f64 = 15_000.0;
/// Open-loop rate of `read_heavy_open`, ops/s.
pub const READ_HEAVY_RATE: f64 = 20_000.0;
/// Closed-loop sessions of `sharded_closed`: enough to keep node CPU
/// saturated; at 4000 the p99 exceeded the goodput limit.
pub const SHARDED_SESSIONS: usize = 2000;

/// The benchmark's workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "write_open",
        load: |_| Load::Open {
            rate: WRITE_OPEN_RATE,
        },
        write_frac: 0.95,
        sharded: false,
    },
    Workload {
        name: "read_heavy_open",
        load: |_| Load::Open {
            rate: READ_HEAVY_RATE,
        },
        write_frac: 0.05,
        sharded: false,
    },
    Workload {
        name: "sharded_closed",
        load: |_| Load::Closed {
            sessions: SHARDED_SESSIONS,
        },
        write_frac: 0.5,
        sharded: true,
    },
];

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the process settings a run depends on instead of inheriting them
/// from the caller: the live time unit and the reactor loop count. Call
/// before any thread starts.
pub fn pin_environment() {
    std::env::set_var("LIVE_TIME_UNIT_MS", TIME_UNIT_MS.to_string());
    std::env::remove_var("CANOPUS_REACTOR_LOOPS");
    assert_eq!(live_time_unit().as_millis(), TIME_UNIT_MS);
}

/// Shards per `ShardEngine` on this host.
pub fn shard_count() -> u16 {
    nproc().clamp(1, 8) as u16
}

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Report {
    /// Every correctness check passed, on every run.
    pub correct: bool,
    /// Ops due in the measured window.
    pub attempted: u64,
    /// Of those, ops not answered in time.
    pub failed: u64,
    /// The metrics the invocation prints.
    pub metrics: Vec<Metric>,
    /// Run facts and sample counts, as one JSON object.
    pub info: String,
    /// Checks that failed, described.
    pub failures: Vec<String>,
    /// Traced runs: the trace document to write out.
    pub trace_doc: Option<String>,
}

/// The repository revision, read from `.git` without running git, or
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn spec(w: &Workload, a: &Args, trace: bool) -> RunSpec {
    RunSpec {
        load: (w.load)(nproc()),
        write_frac: w.write_frac,
        window: Duration::from_secs_f64(a.seconds),
        seed: a.seed,
        trace,
        sharded: w.sharded,
        targets: run::targets(nproc()),
    }
}

/// Runs one invocation: end-to-end (untraced) or per-layer (traced).
pub fn bench(a: &Args) -> Result<Report, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == a.workload)
        .ok_or_else(|| format!("unknown workload {:?}", a.workload))?;
    let cfg = run::node_config();
    let table = run::table();
    if w.sharded {
        let shards = shard_count();
        let make = move |id: NodeId| ShardEngine::new(id, table.clone(), cfg.clone(), shards, 7);
        bench_with(w, a, shards, &make)
    } else {
        let make = move |id: NodeId| CanopusNode::new(id, table.clone(), cfg.clone(), 7);
        bench_with(w, a, 1, &make)
    }
}

fn bench_with<M, P>(
    w: &Workload,
    a: &Args,
    shards: u16,
    make: &dyn Fn(NodeId) -> P,
) -> Result<Report, String>
where
    M: ClientPlane,
    P: Process<M> + Lots,
{
    let mut setups = Vec::new();
    if !a.trace {
        for i in 0..SETUP_REPEATS {
            let s = run::measure_setup::<M, P>(a.seed.wrapping_add(i as u64 + 1), make)?;
            setups.push(s.as_secs_f64());
        }
    }
    let plain = run::run::<M, P>(&spec(w, a, false), make)?;
    setups.push(plain.setup_ns as f64 / 1e9);
    let plain_w = Window::of(&plain.ops, plain.window, plain.open, &plain.seconds);
    let rss = sys::peak_rss_mib().unwrap_or(f64::NAN);
    let e2e = report::end_to_end(&plain_w, report::median(setups.clone()), rss);
    let mut failures = failed_checks(&plain);

    let (out, out_w, metrics, trace_doc) = if a.trace {
        let cpu_base = e2e
            .iter()
            .find(|m| m.name == "cpu_ms_per_kop")
            .map_or(f64::NAN, |m| m.value);
        let traced = run::run::<M, P>(&spec(w, a, true), make)?;
        failures.extend(failed_checks(&traced));
        let tw = Window::of(&traced.ops, traced.window, traced.open, &traced.seconds);
        let sharded = w.sharded.then_some(shards);
        let (layer, summary) = report::per_layer(&traced, &tw, sharded, cpu_base);
        let doc = trace_document(w, a, &traced, &layer, &summary);
        (traced, tw, layer, Some(doc))
    } else {
        (plain, plain_w, e2e, None)
    };
    let info = info_line(w, a, shards, &out, &out_w, &setups);
    Ok(Report {
        correct: failures.is_empty(),
        attempted: out_w.attempted,
        failed: out_w.failed,
        metrics,
        info,
        failures,
        trace_doc,
    })
}

fn failed_checks(o: &Outcome) -> Vec<String> {
    o.checks
        .iter()
        .filter(|(_, ok, _)| !ok)
        .map(|(name, _, detail)| format!("{name}: {detail}"))
        .collect()
}

fn info_line(
    w: &Workload,
    a: &Args,
    shards: u16,
    o: &Outcome,
    win: &Window,
    setups: &[f64],
) -> String {
    let cfg = run::node_config();
    let pct = |h: &crate::hist::LogHistogram, q: f64| {
        report::json_num(h.percentile(q).map_or(f64::NAN, |v| v as f64 / 1e6))
    };
    let whole = |l: &report::Latencies, q: f64| pct(&l.all, q);
    let slices = |l: &report::Latencies| {
        let (used, of) = win.slices_used(l);
        format!("[{used}, {of}]")
    };
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(n, ok, _)| format!("\"{n}\": {ok}"))
        .collect();
    format!(
        "{{\"label\": \"wallclock\", \"workload\": \"{}\", \"traced\": {}, \"seed\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {}, \"reactor_loops\": {}, \"time_unit_ms\": {}, \
         \"nodes\": {}, \"super_leaves\": {}, \"shards\": {}, \"targets\": {}, \
         \"node_config\": {{\"trigger\": \"{:?}\", \"max_linger_ms\": {}, \"max_pipeline_depth\": {}, \
         \"max_batch\": {}, \"read_mode\": \"{:?}\"}}, \"load\": \"{:?}\", \"write_frac\": {}, \
         \"window_s\": {}, \"latency_limit_ms\": {}, \"attempted\": {}, \"failed\": {}, \
         \"completed\": {}, \"write_samples\": {}, \"write_slices_used\": {}, \"write_beyond_p50\": {}, \
         \"write_beyond_p99\": {}, \"write_p99_ms\": {}, \"write_whole_p50_ms\": {}, \"write_whole_p99_ms\": {}, \
         \"read_samples\": {}, \"read_slices_used\": {}, \"read_beyond_p50\": {}, \"read_beyond_p99\": {}, \
         \"read_p99_ms\": {}, \"read_whole_p50_ms\": {}, \"read_whole_p99_ms\": {}, \"throughput_whole_ops_s\": {}, \
         \"goodput_whole_ops_s\": {}, \"cpu_whole_ms_per_kop\": {}, \"calm_seconds\": {}, \
         \"steal_frac\": {}, \"steal_by_second\": [{}], \
         \"gen_lag_ms_p50\": {}, \"gen_lag_ms_p99\": {}, \"gen_outstanding_max\": {}, \
         \"late_replies\": {}, \"setup_samples_s\": {:?}, \"checks\": {{{}}}}}",
        w.name,
        a.trace,
        a.seed,
        git_rev(),
        nproc(),
        canopus_net::reactor::loop_count(),
        live_time_unit().as_millis(),
        run::NODES,
        run::GROUPS,
        shards,
        run::targets(nproc()).len(),
        cfg.trigger,
        cfg.max_linger.as_millis_f64(),
        cfg.max_pipeline_depth,
        cfg.max_batch,
        cfg.read_mode,
        (w.load)(nproc()),
        w.write_frac,
        win.secs,
        report::LIMIT_MS,
        win.attempted,
        win.failed,
        win.completed,
        win.write.count(),
        slices(&win.write),
        win.write.all.count_beyond(50.0),
        win.write.all.count_beyond(99.0),
        report::json_num(win.pct_ms(&win.write, 99.0)),
        whole(&win.write, 50.0),
        whole(&win.write, 99.0),
        win.read.count(),
        slices(&win.read),
        win.read.all.count_beyond(50.0),
        win.read.all.count_beyond(99.0),
        report::json_num(win.pct_ms(&win.read, 99.0)),
        whole(&win.read, 50.0),
        whole(&win.read, 99.0),
        report::json_num(win.completed as f64 / win.secs),
        report::json_num(win.within_limit as f64 / win.secs),
        report::json_num(o.cpu.total_ms() / win.kops()),
        report::calm(&win.steal).len(),
        report::json_num(o.steal_frac),
        win.steal
            .iter()
            .map(|s| report::json_num((s * 1000.0).round() / 1000.0))
            .collect::<Vec<_>>()
            .join(", "),
        pct(&win.lag, 50.0),
        pct(&win.lag, 99.0),
        o.outstanding_max,
        o.late_replies,
        setups,
        checks.join(", "),
    )
}

/// Most spans written to the trace document; every span stays in memory
/// for the metrics, the file keeps an evenly spaced subset.
const TRACE_SPANS_WRITTEN: usize = 20_000;

fn trace_document(
    w: &Workload,
    a: &Args,
    o: &Outcome,
    layer: &[Metric],
    summary: &[report::SpanSummary],
) -> String {
    let t = o.trace.as_ref().expect("traced outcome");
    let metrics: Vec<String> = layer
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, report::json_num(m.value)))
        .collect();
    let by_name: Vec<String> = summary
        .iter()
        .map(|(n, count, total, own, p50, p99)| {
            format!(
                "\"{n}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                report::json_num(*total),
                report::json_num(*own),
                report::json_num(*p50),
                report::json_num(*p99)
            )
        })
        .collect();
    let all: Vec<&crate::span::Span> = t
        .nodes
        .iter()
        .flat_map(|n| n.spans.iter())
        .chain(&t.gen_spans)
        .chain(&t.replay_spans)
        .collect();
    let step = all.len().div_ceil(TRACE_SPANS_WRITTEN).max(1);
    let spans: Vec<String> = all
        .iter()
        .step_by(step)
        .map(|s| {
            let id = if s.id == crate::span::NO_ID {
                "null".to_string()
            } else {
                s.id.to_string()
            };
            format!(
                "[\"{}\", {}, {}, {}, {}]",
                s.name, s.node, id, s.start, s.end
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"window_ns\": [{}, {}], \"metrics\": {{{}}}, \
         \"spans_by_name\": {{{}}}, \"span_columns\": [\"name\", \"node\", \"op_id\", \"start_ns\", \"end_ns\"], \
         \"spans_total\": {}, \"spans\": [{}]}}\n",
        w.name,
        a.seed,
        o.window.0,
        o.window.1,
        metrics.join(", "),
        by_name.join(", "),
        all.len(),
        spans.join(", ")
    )
}
