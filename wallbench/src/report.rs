//! Metrics from a run's outcome: the end-to-end set (untraced runs) and
//! the per-layer set (traced runs), plus the one-line JSON result.

use std::collections::BTreeMap;

use canopus_kv::ShardRouter;

use crate::gen::{OpRec, OpState};
use crate::hist::LogHistogram;
use crate::run::{Outcome, Second};
use crate::shim::KINDS;
use crate::span::{self_times, Span};

/// The latency limit goodput is judged against (p99 target), ms.
pub const LIMIT_MS: f64 = 100.0;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metric names with unit and direction: `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// The end-to-end metrics every untraced run prints. The p99 latencies
/// are in the info line instead: on a shared host their run-to-run spread
/// follows hypervisor steal and exceeds any usable bound.
pub const END_TO_END: &[MetricDef] = &[
    ("throughput_ops_s", "ops/s", "higher"),
    ("goodput_ops_s", "ops/s", "higher"),
    ("write_p50_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("success_frac", "frac", "higher"),
    ("cpu_ms_per_kop", "ms/kop", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

const CORE_KINDS: [&str; 4] = ["request", "proposal_request", "proposal_response", "timer"];

/// The per-layer metrics every traced run prints.
pub fn per_layer_defs() -> Vec<(String, &'static str, &'static str)> {
    let mut d: Vec<(String, &'static str, &'static str)> = Vec::new();
    for k in CORE_KINDS {
        d.push((format!("core.{k}.calls_per_kop"), "1/kop", "lower"));
        d.push((format!("core.{k}.busy_ms_per_kop"), "ms/kop", "lower"));
        d.push((format!("core.{k}.handler_us.p50"), "us", "lower"));
        d.push((format!("core.{k}.handler_us.p99"), "us", "lower"));
    }
    for (n, u, b) in [
        ("core.cycle_ms.p50", "ms", "lower"),
        ("core.cycle_ms.p99", "ms", "lower"),
        ("core.cycles_per_s", "1/s", "higher"),
        ("core.ops_per_cycle", "ops", "higher"),
        ("core.in_flight_mean", "cycles", "higher"),
        ("core.write_commit_ms.p50", "ms", "lower"),
        ("core.read_hold_ms.p50", "ms", "lower"),
        ("raft.calls_per_kop", "1/kop", "lower"),
        ("raft.busy_ms_per_kop", "ms/kop", "lower"),
        ("raft.handler_us.p50", "us", "lower"),
        ("raft.bytes_per_kop", "B/kop", "lower"),
    ] {
        d.push((n.to_string(), u, b));
    }
    for k in KINDS {
        d.push((format!("net.{k}.msgs_per_kop"), "1/kop", "lower"));
        d.push((format!("net.{k}.bytes_per_kop"), "B/kop", "lower"));
    }
    for k in KINDS {
        d.push((format!("net.encode_ns.{k}"), "ns", "lower"));
        d.push((format!("net.decode_ns.{k}"), "ns", "lower"));
    }
    for (n, u, b) in [
        ("net.codec_ms_per_kop", "ms/kop", "lower"),
        ("net.request_deliver_us.p50", "us", "lower"),
        ("net.request_deliver_us.p99", "us", "lower"),
        ("net.sys_ms_per_kop", "ms/kop", "lower"),
        ("net.loop_residual_ms_per_kop", "ms/kop", "lower"),
        ("net.flush_bytes.mean", "B", "higher"),
        ("net.reactor.events_per_kop", "1/kop", "lower"),
        ("net.backpressure_drops", "count", "lower"),
        ("net.gate_incidents", "count", "lower"),
        ("kv.put_ns", "ns", "lower"),
        ("kv.get_ns", "ns", "lower"),
        ("shard.busy_ms_per_kop", "ms/kop", "lower"),
        ("shard.ops_s.min", "ops/s", "higher"),
        ("shard.ops_s.max", "ops/s", "higher"),
        ("shard.routed_single_frac", "frac", "higher"),
        ("gen.lag_ms.p99", "ms", "lower"),
        ("gen.busy_frac", "frac", "lower"),
        ("gen.outstanding.max", "ops", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ] {
        d.push((n.to_string(), u, b));
    }
    d
}

/// Latency percentiles are taken per slice of whole seconds, each slice
/// long enough to hold at least this many samples on average (so a p99
/// rests on at least ten samples beyond it).
pub const SLICE_SAMPLES: usize = 1000;
/// A slice is calm when the hypervisor stole at most this share of host
/// CPU during it. Steal is other machines' load, not this program's.
pub const CALM_STEAL: f64 = 0.02;
/// A reported percentile is the median over the calm slices, or over at
/// least this many least-stolen slices when fewer are calm.
pub const MIN_SLICES: usize = 5;

/// Indices of the calm units (seconds or slices) among units with the
/// given steal shares: those at or below [`CALM_STEAL`], or the
/// [`MIN_SLICES`] least stolen when fewer are calm. Unknown steal counts
/// as calm.
pub fn calm(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<(f64, usize)> = steal
        .iter()
        .map(|s| if s.is_nan() { 0.0 } else { *s })
        .zip(0..)
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let quiet = order.iter().filter(|(s, _)| *s <= CALM_STEAL).count();
    let keep = quiet.max(MIN_SLICES.min(order.len()));
    order[..keep].iter().map(|&(_, i)| i).collect()
}

/// Median of `v` (NaN when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency samples of one op kind answered inside the window.
#[derive(Debug, Default)]
pub struct Latencies {
    /// `(answer time, latency)` in ns, in op-id order.
    samples: Vec<(u64, u64)>,
    /// All samples.
    pub all: LogHistogram,
}

impl Latencies {
    fn record(&mut self, at: u64, lat: u64) {
        self.samples.push((at, lat));
        self.all.record(lat);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.all.count()
    }

    /// Cuts a window of `steal.len()` seconds starting at `ws` into
    /// slices and keeps the calm ones (see [`CALM_STEAL`], [`MIN_SLICES`]).
    /// Returns one histogram per kept slice and the number of slices.
    pub fn calm_slices(&self, ws: u64, steal: &[f64]) -> (Vec<LogHistogram>, usize) {
        let secs = steal.len().max(1);
        let per = (SLICE_SAMPLES * secs)
            .div_ceil(self.samples.len().max(1))
            .clamp(1, secs);
        let k = secs / per;
        let mut hists = vec![LogHistogram::default(); k];
        for &(at, lat) in &self.samples {
            let sec = (at.saturating_sub(ws) / 1_000_000_000) as usize;
            hists[(sec / per).min(k - 1)].record(lat);
        }
        let slice_steal: Vec<f64> = (0..k)
            .map(|i| {
                let s = &steal[(i * per).min(steal.len())..((i + 1) * per).min(steal.len())];
                s.iter()
                    .map(|v| if v.is_nan() { 0.0 } else { *v })
                    .sum::<f64>()
                    / per as f64
            })
            .collect();
        let kept = calm(&slice_steal)
            .into_iter()
            .map(|i| std::mem::take(&mut hists[i]))
            .collect();
        (kept, k)
    }

    /// The median over the calm slices of each slice's `q`-th percentile,
    /// in ns: robust both to a stall confined to a few seconds and to
    /// seconds when the host took the CPUs away.
    pub fn sliced_percentile(&self, ws: u64, steal: &[f64], q: f64) -> Option<u64> {
        let (slices, _) = self.calm_slices(ws, steal);
        let per: Vec<f64> = slices
            .iter()
            .filter_map(|h| h.percentile(q))
            .map(|v| v as f64)
            .collect();
        (!per.is_empty()).then(|| median(per) as u64)
    }
}

/// Load-side summary of a run's measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Window bounds, ns since the run's origin.
    pub bounds: (u64, u64),
    /// Window length, seconds.
    pub secs: f64,
    /// Non-probe ops due inside the window.
    pub attempted: u64,
    /// Of those, ops that were never answered in time.
    pub failed: u64,
    /// Ops answered inside the window.
    pub completed: u64,
    /// Of those, ops answered within the latency limit.
    pub within_limit: u64,
    /// Latency of writes answered inside the window.
    pub write: Latencies,
    /// Latency of reads answered inside the window.
    pub read: Latencies,
    /// Generator lag (due → send) of ops due inside the window, ns.
    pub lag: LogHistogram,
    /// Host steal share in each second of the window.
    pub steal: Vec<f64>,
    /// Process CPU in each second of the window, ms.
    pub cpu_ms: Vec<f64>,
    /// Ops answered in each second of the window.
    pub completed_by_second: Vec<u64>,
    /// Ops answered within the limit in each second of the window.
    pub within_by_second: Vec<u64>,
}

impl Window {
    /// Summarises the op log over `[ws, we)`, given what was sampled in
    /// each second of it.
    pub fn of(ops: &[OpRec], (ws, we): (u64, u64), open: bool, seconds: &[Second]) -> Window {
        let inside = |t: u64| t >= ws && t < we;
        let limit = (LIMIT_MS * 1e6) as u64;
        let n = seconds.len().max(1);
        let mut w = Window {
            bounds: (ws, we),
            secs: (we - ws) as f64 / 1e9,
            steal: seconds.iter().map(|s| s.steal).collect(),
            cpu_ms: seconds.iter().map(|s| s.cpu_ms).collect(),
            completed_by_second: vec![0; n],
            within_by_second: vec![0; n],
            ..Window::default()
        };
        let second = |t: u64| (((t - ws) / 1_000_000_000) as usize).min(n - 1);
        for op in ops.iter().filter(|o| !o.probe) {
            if inside(op.due) {
                w.attempted += 1;
                w.lag.record(op.lag());
                if op.state != OpState::Completed {
                    w.failed += 1;
                }
            }
            if op.state == OpState::Completed && inside(op.done) {
                let lat = op.latency(open);
                w.completed += 1;
                w.completed_by_second[second(op.done)] += 1;
                if lat <= limit {
                    w.within_limit += 1;
                    w.within_by_second[second(op.done)] += 1;
                }
                if op.write {
                    w.write.record(op.done, lat);
                } else {
                    w.read.record(op.done, lat);
                }
            }
        }
        w
    }

    /// Thousands of ops answered in the window (the per-kop base).
    pub fn kops(&self) -> f64 {
        (self.completed as f64 / 1000.0).max(1e-9)
    }

    /// Length of second `i` of the window, s (the last may be partial).
    fn second_len(&self, i: usize) -> f64 {
        (self.secs - i as f64).clamp(1e-9, 1.0)
    }

    /// Median over the calm seconds of a per-second count, per second.
    pub fn calm_rate(&self, by_second: &[u64]) -> f64 {
        let calm = calm(&self.steal);
        median(
            calm.iter()
                .map(|&i| by_second[i] as f64 / self.second_len(i))
                .collect(),
        )
    }

    /// Median over the calm seconds of process CPU per thousand ops
    /// answered.
    pub fn calm_cpu_ms_per_kop(&self) -> f64 {
        let calm = calm(&self.steal);
        median(
            calm.iter()
                .map(|&i| self.cpu_ms[i] / (self.completed_by_second[i].max(1) as f64 / 1000.0))
                .collect(),
        )
    }

    /// Calm-slice percentile of a latency set, in ms.
    pub fn pct_ms(&self, l: &Latencies, q: f64) -> f64 {
        ms(l.sliced_percentile(self.bounds.0, &self.steal, q))
    }

    /// Calm slices used for a latency set, and slices in the window.
    pub fn slices_used(&self, l: &Latencies) -> (usize, usize) {
        let (kept, k) = l.calm_slices(self.bounds.0, &self.steal);
        (kept.len(), k)
    }
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e6)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run: rates, CPU and latency are
/// medians over the window's calm seconds (see [`calm`]).
pub fn end_to_end(w: &Window, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        metric(
            "throughput_ops_s",
            w.calm_rate(&w.completed_by_second),
            "ops/s",
        ),
        metric("goodput_ops_s", w.calm_rate(&w.within_by_second), "ops/s"),
        metric("write_p50_ms", w.pct_ms(&w.write, 50.0), "ms"),
        metric("read_p50_ms", w.pct_ms(&w.read, 50.0), "ms"),
        metric(
            "success_frac",
            (w.attempted - w.failed) as f64 / w.attempted.max(1) as f64,
            "frac",
        ),
        metric("cpu_ms_per_kop", w.calm_cpu_ms_per_kop(), "ms/kop"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Per span name: count, total ms, self ms, p50 us, p99 us.
pub type SpanSummary = (&'static str, u64, f64, f64, f64, f64);

/// Spans grouped by name: durations (ns) and the sum of self times.
#[derive(Default)]
struct ByName {
    durs: BTreeMap<&'static str, (LogHistogram, u64, u64)>,
}

impl ByName {
    fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = self.durs.entry(s.name).or_default();
            e.0.record(s.dur());
            e.1 += s.dur();
            e.2 += own;
        }
    }

    fn count(&self, name: &str) -> u64 {
        self.durs.get(name).map_or(0, |e| e.0.count())
    }
    fn total_ns(&self, name: &str) -> u64 {
        self.durs.get(name).map_or(0, |e| e.1)
    }
    fn self_ns(&self, name: &str) -> u64 {
        self.durs.get(name).map_or(0, |e| e.2)
    }
    fn pct_us(&self, name: &str, q: f64) -> f64 {
        self.durs
            .get(name)
            .and_then(|e| e.0.percentile(q))
            .map_or(0.0, |v| v as f64 / 1e3)
    }

    fn summary(&self) -> Vec<SpanSummary> {
        self.durs
            .keys()
            .map(|&n| {
                (
                    n,
                    self.count(n),
                    self.total_ns(n) as f64 / 1e6,
                    self.self_ns(n) as f64 / 1e6,
                    self.pct_us(n, 50.0),
                    self.pct_us(n, 99.0),
                )
            })
            .collect()
    }
}

/// The per-layer metrics of a traced run, plus a span summary by name.
/// `shards` is `Some(count)` when nodes are `ShardEngine`s;
/// `untraced_cpu_ms_per_kop` is the same workload's untraced figure.
pub fn per_layer(
    o: &Outcome,
    w: &Window,
    shards: Option<u16>,
    untraced_cpu_ms_per_kop: f64,
) -> (Vec<Metric>, Vec<SpanSummary>) {
    let t = o.trace.as_ref().expect("a traced outcome");
    let kops = w.kops();
    let layer = if shards.is_some() { "shard" } else { "core" };
    let mut by = ByName::default();
    for n in &t.nodes {
        by.add(&n.spans);
    }
    by.add(&t.gen_spans);
    by.add(&t.replay_spans);
    let handler = |k: &str| -> String {
        match k {
            "timer" => format!("{layer}.on_timer"),
            k => format!("{layer}.on_message.{k}"),
        }
    };
    let mut m = Vec::new();
    for k in CORE_KINDS {
        let n = handler(k);
        m.push(metric(
            &format!("core.{k}.calls_per_kop"),
            by.count(&n) as f64 / kops,
            "1/kop",
        ));
        m.push(metric(
            &format!("core.{k}.busy_ms_per_kop"),
            by.self_ns(&n) as f64 / 1e6 / kops,
            "ms/kop",
        ));
        m.push(metric(
            &format!("core.{k}.handler_us.p50"),
            by.pct_us(&n, 50.0),
            "us",
        ));
        m.push(metric(
            &format!("core.{k}.handler_us.p99"),
            by.pct_us(&n, 99.0),
            "us",
        ));
    }

    let mut cycles = LogHistogram::default();
    for n in &t.nodes {
        cycles.merge(&n.cycle_ns);
    }
    m.push(metric(
        "core.cycle_ms.p50",
        ms(cycles.percentile(50.0)),
        "ms",
    ));
    m.push(metric(
        "core.cycle_ms.p99",
        ms(cycles.percentile(99.0)),
        "ms",
    ));
    let (mut d_cycles, mut d_weight, mut d_secs) = (0u64, 0u64, 0f64);
    for n in &t.nodes {
        if let (Some((t0, a)), Some((t1, b))) = (&n.stats_start, &n.stats_end) {
            d_cycles += b
                .iter()
                .zip(a)
                .map(|(b, a)| b.committed_cycles - a.committed_cycles)
                .sum::<u64>();
            d_weight += b
                .iter()
                .zip(a)
                .map(|(b, a)| b.committed_weight - a.committed_weight)
                .sum::<u64>();
            d_secs += (t1 - t0) as f64 / 1e9;
        }
    }
    m.push(metric(
        "core.cycles_per_s",
        d_cycles as f64 / d_secs.max(1e-9),
        "1/s",
    ));
    m.push(metric(
        "core.ops_per_cycle",
        d_weight as f64 / d_cycles.max(1) as f64,
        "ops",
    ));
    let nodes = t.nodes.len().max(1) as f64;
    m.push(metric(
        "core.in_flight_mean",
        t.nodes.iter().map(|n| n.in_flight_mean).sum::<f64>() / nodes,
        "cycles",
    ));

    // Request spans joined to the op log by op id.
    let req_name = handler("request");
    let mut handled: BTreeMap<u64, u64> = BTreeMap::new();
    for n in &t.nodes {
        for s in n.spans.iter().filter(|s| s.name == req_name) {
            handled.insert(s.id, s.start);
        }
    }
    let mut commit = LogHistogram::default();
    let mut hold = LogHistogram::default();
    let mut deliver = LogHistogram::default();
    for (&id, &at) in &handled {
        let op = &o.ops[id as usize];
        if op.state != OpState::Completed {
            continue;
        }
        deliver.record(at.saturating_sub(op.sent));
        let h = if op.write { &mut commit } else { &mut hold };
        h.record(op.done.saturating_sub(at));
    }
    m.push(metric(
        "core.write_commit_ms.p50",
        ms(commit.percentile(50.0)),
        "ms",
    ));
    m.push(metric(
        "core.read_hold_ms.p50",
        ms(hold.percentile(50.0)),
        "ms",
    ));

    let raft = handler("raft");
    let ki = |k: &str| KINDS.iter().position(|x| *x == k).expect("known kind");
    let (mut msgs, mut bytes) = ([0u64; 5], [0u64; 5]);
    for n in &t.nodes {
        for k in 0..5 {
            msgs[k] += n.msgs[k];
            bytes[k] += n.bytes[k];
        }
    }
    msgs[ki("reply")] += t.gen_recv.0;
    bytes[ki("reply")] += t.gen_recv.1;
    m.push(metric(
        "raft.calls_per_kop",
        by.count(&raft) as f64 / kops,
        "1/kop",
    ));
    m.push(metric(
        "raft.busy_ms_per_kop",
        by.self_ns(&raft) as f64 / 1e6 / kops,
        "ms/kop",
    ));
    m.push(metric("raft.handler_us.p50", by.pct_us(&raft, 50.0), "us"));
    m.push(metric(
        "raft.bytes_per_kop",
        bytes[ki("raft")] as f64 / kops,
        "B/kop",
    ));
    for (k, name) in KINDS.iter().enumerate() {
        m.push(metric(
            &format!("net.{name}.msgs_per_kop"),
            msgs[k] as f64 / kops,
            "1/kop",
        ));
        m.push(metric(
            &format!("net.{name}.bytes_per_kop"),
            bytes[k] as f64 / kops,
            "B/kop",
        ));
    }
    let mut codec_ns = 0.0;
    for (k, name) in KINDS.iter().enumerate() {
        let (e, d) = t.codec_ns[k].unwrap_or((0.0, 0.0));
        codec_ns += msgs[k] as f64 * (e + d);
        m.push(metric(&format!("net.encode_ns.{name}"), e, "ns"));
        m.push(metric(&format!("net.decode_ns.{name}"), d, "ns"));
    }
    m.push(metric(
        "net.codec_ms_per_kop",
        codec_ns / 1e6 / kops,
        "ms/kop",
    ));
    m.push(metric(
        "net.request_deliver_us.p50",
        deliver.percentile(50.0).map_or(0.0, |v| v as f64 / 1e3),
        "us",
    ));
    m.push(metric(
        "net.request_deliver_us.p99",
        deliver.percentile(99.0).map_or(0.0, |v| v as f64 / 1e3),
        "us",
    ));
    m.push(metric("net.sys_ms_per_kop", o.cpu.sys_ms / kops, "ms/kop"));
    let handler_ns: u64 = t
        .nodes
        .iter()
        .flat_map(|n| n.spans.iter())
        .map(Span::dur)
        .sum();
    let gen_self_ns: u64 = self_times(&t.gen_spans).iter().sum();
    m.push(metric(
        "net.loop_residual_ms_per_kop",
        (o.cpu.total_ms() - (handler_ns + gen_self_ns) as f64 / 1e6) / kops,
        "ms/kop",
    ));
    m.push(metric(
        "net.flush_bytes.mean",
        t.hubs
            .histogram("net.flush_bytes")
            .and_then(|h| h.mean())
            .unwrap_or(0.0),
        "B",
    ));
    m.push(metric(
        "net.reactor.events_per_kop",
        o.reactor_events as f64 / kops,
        "1/kop",
    ));
    m.push(metric(
        "net.backpressure_drops",
        t.hubs.counter("net.drops.backpressure").unwrap_or(0) as f64,
        "count",
    ));
    m.push(metric(
        "net.gate_incidents",
        o.gate_incidents as f64,
        "count",
    ));

    let puts = o.ops.iter().filter(|op| op.write).count().max(1) as f64;
    let gets = o.ops.iter().filter(|op| !op.write).count().max(1) as f64;
    m.push(metric(
        "kv.put_ns",
        by.total_ns("kv.put") as f64 / puts,
        "ns",
    ));
    m.push(metric(
        "kv.get_ns",
        by.total_ns("kv.get") as f64 / gets,
        "ns",
    ));

    m.push(metric(
        "shard.busy_ms_per_kop",
        handler_ns as f64 / 1e6 / kops,
        "ms/kop",
    ));
    let shards = shards.unwrap_or(1);
    let router = ShardRouter::new(shards);
    let mut per_shard = vec![0u64; shards.max(1) as usize];
    let (ws, we) = w.bounds;
    for op in o
        .ops
        .iter()
        .filter(|op| !op.probe && op.state == OpState::Completed && op.done >= ws && op.done < we)
    {
        per_shard[router.shard_of_key(op.key) as usize] += 1;
    }
    let rate = |n: u64| n as f64 / w.secs;
    m.push(metric(
        "shard.ops_s.min",
        rate(per_shard.iter().copied().min().unwrap_or(0)),
        "ops/s",
    ));
    m.push(metric(
        "shard.ops_s.max",
        rate(per_shard.iter().copied().max().unwrap_or(0)),
        "ops/s",
    ));
    let (single, received) = t
        .nodes
        .iter()
        .filter_map(|n| n.routed)
        .fold((0, 0), |(a, b), (s, r)| (a + s, b + r));
    m.push(metric(
        "shard.routed_single_frac",
        if received == 0 {
            1.0
        } else {
            single as f64 / received as f64
        },
        "frac",
    ));

    m.push(metric("gen.lag_ms.p99", ms(w.lag.percentile(99.0)), "ms"));
    let gen_root_ns: u64 = t
        .gen_spans
        .iter()
        .filter(|s| s.parent == crate::span::NO_PARENT)
        .map(Span::dur)
        .sum();
    m.push(metric(
        "gen.busy_frac",
        gen_root_ns as f64 / (w.secs * 1e9),
        "frac",
    ));
    m.push(metric(
        "gen.outstanding.max",
        o.outstanding_max as f64,
        "ops",
    ));
    let traced_cpu = w.calm_cpu_ms_per_kop();
    m.push(metric(
        "trace.overhead_frac",
        (traced_cpu - untraced_cpu_ms_per_kop) / untraced_cpu_ms_per_kop,
        "frac",
    ));
    (m, by.summary())
}

/// Renders a float the way JSON allows: non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn op(due: u64, sent: u64, done: u64, state: OpState) -> OpRec {
        OpRec {
            due,
            sent,
            done,
            key: 1,
            write: true,
            probe: false,
            session: 0,
            state,
        }
    }

    #[test]
    fn window_counts_due_ops_and_times_from_due() {
        let ops = vec![
            // Due before the window, answered inside: counts as completed
            // only.
            op(90 * MS, 90 * MS, 105 * MS, OpState::Completed),
            // Due inside, sent 3 ms late, answered 150 ms after due.
            op(110 * MS, 113 * MS, 260 * MS, OpState::Completed),
            // Due inside, never answered, and timed out.
            op(120 * MS, 120 * MS, 0, OpState::Failed),
            // Due inside, still outstanding at the end.
            op(130 * MS, 130 * MS, 0, OpState::Outstanding),
            // Due inside, answered after the window: attempted, not failed.
            op(290 * MS, 290 * MS, 310 * MS, OpState::Completed),
        ];
        let w = Window::of(&ops, (100 * MS, 300 * MS), true, &[]);
        assert_eq!(w.attempted, 4);
        assert_eq!(w.failed, 2);
        assert_eq!(w.completed, 2);
        assert_eq!(w.within_limit, 1, "the 150 ms op misses the limit");
        assert_eq!(w.write.all.percentile(100.0), Some(150 * MS));
        assert_eq!(w.lag.percentile(100.0), Some(3 * MS));
        // Closed-loop timing counts from issue instead.
        let closed = Window::of(&ops, (100 * MS, 300 * MS), false, &[]);
        assert_eq!(closed.write.all.percentile(100.0), Some(147 * MS));
    }

    #[test]
    fn sliced_percentile_skips_stalls_and_stolen_seconds() {
        const S: u64 = 1_000_000_000;
        let mut l = Latencies::default();
        // Ten seconds, 2000 ops each: 5–10 ms, except a 500 ms stall in
        // second 2 and 40 ms ops in the stolen seconds 6 to 9.
        for i in 0..20_000u64 {
            let (sec, at) = (i / 2000, i * S / 2000);
            let lat = match sec {
                2 => 500 * MS,
                6..=9 => 40 * MS,
                _ => (5 + i % 6) * MS,
            };
            l.record(at, lat);
        }
        let calm = [0.0, 0.01, 0.0, 0.0, 0.0, 0.0, 0.2, 0.3, 0.25, 0.1];
        let (kept, k) = l.calm_slices(0, &calm);
        assert_eq!((kept.len(), k), (6, 10));
        let p99 = l.sliced_percentile(0, &calm, 99.0).unwrap();
        assert!(
            (10 * MS - 50_000..=10 * MS + 50_000).contains(&p99),
            "{p99}"
        );
        assert!(
            l.all.percentile(99.0).unwrap() > 490 * MS,
            "the stall sets the whole-window p99"
        );
        // All seconds stolen: the five least-stolen slices are used.
        let stolen = [0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.9, 0.9, 0.9, 0.9];
        assert_eq!(l.calm_slices(0, &stolen).0.len(), 5);
        // 300 samples a second: 4-second slices, the last one taking the
        // leftover seconds.
        let mut sparse = Latencies::default();
        for i in 0..3000u64 {
            sparse.record(i * 10 * S / 3000, MS);
        }
        assert_eq!(sparse.calm_slices(0, &calm).1, 2);
        assert!(Latencies::default()
            .sliced_percentile(0, &calm, 50.0)
            .is_none());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 1, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
    }
}
