//! Throughput knee: batching + pipelining vs the unbatched baseline.
//!
//! Sweeps offered load on the paper's single-DC testbed (§8.1, 3 racks ×
//! 3 nodes) until the 10 ms saturation knee, for two Canopus
//! configurations:
//!
//! * **unbatched** — every client request is its own wire-level op
//!   (`client_max_batch = 1`), every op its own consensus proposal
//!   (`max_batch = 1`, no linger window), one cycle in flight;
//! * **batched** — 1 ms super-leaf batching windows, 1000-request
//!   overflow, 4 cycles in flight, clients aggregating up to 1000
//!   requests per op.
//!
//! Results — knees, per-node committed-op rates, the ladders, the Table-1
//! fabric validation, and a deterministic fixed-rate *smoke* section — are
//! emitted as schema-versioned JSON (committed as `BENCH_canopus.json` at
//! the repo root). The smoke numbers come from fixed seeds on the
//! deterministic simulator, so they reproduce bit-for-bit on any machine;
//! CI regenerates them with `BENCH_SWEEP=smoke` and `--check` fails the
//! build on a >20 % throughput regression against the committed file.
//!
//! Usage:
//!   cargo run --release -p canopus-bench --bin throughput_knee -- \
//!       [--out PATH] [--check BASELINE.json]
//!   BENCH_SWEEP=smoke|full   (default full; smoke skips the knee sweep)

use canopus::{CanopusConfig, CanopusMsg, CanopusNode};
use canopus_bench::json::{escape, extract_number, number, JsonObject};
use canopus_harness::run::collect;
use canopus_harness::{
    build_cluster, canopus_config_for, fmt_rate, open_loop_clients, ClusterObs, DeploymentSpec,
    LoadSpec, RunResult, SearchSpec,
};
use canopus_net::{ClosFabric, LinkParams, Topology, WanMatrix};
use canopus_obs::{bucket_bounds, HistogramSnapshot, Snapshot};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Payload, Process, Simulation, Time};

/// The schema of the emitted JSON. Bump when keys change meaning.
const SCHEMA_VERSION: u64 = 1;

/// Allowed relative throughput drop before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Offered rates of the deterministic smoke runs. Each config is driven
/// just under its own measured knee (from the committed full sweep:
/// unbatched saturates near 0.8 M/s offered, batched near 2.1 M/s), so
/// the recorded committed-op rates are capacity proxies — any protocol
/// slowdown pushes the config past its knee and the number collapses,
/// which is exactly what the CI regression gate wants to catch.
const SMOKE_RATE_UNBATCHED: f64 = 780_000.0;
const SMOKE_RATE_BATCHED: f64 = 2_000_000.0;

/// Flight-ring capacity for instrumented bench runs. The bench only
/// reads registries, but `ClusterObs::on` sizes the ring too.
const BENCH_FLIGHT_CAP: usize = 64;

/// One measured point, with the node-side commit rate the harness's
/// `RunResult` does not carry.
#[derive(Clone, Debug)]
struct Measured {
    run: RunResult,
    /// Node 0's committed weight per second of total run time — the
    /// "single-node committed ops/sec" measure the perf trajectory tracks.
    node0_committed_per_sec: f64,
    /// Merged cluster metrics at the end of the run (empty when the point
    /// was measured with observability off).
    metrics: Snapshot,
}

fn measure(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: CanopusConfig,
    seed: u64,
    obs: ClusterObs,
) -> Measured {
    let mut cluster =
        build_cluster::<CanopusMsg>(spec, cfg, seed, open_loop_clients(load, seed), obs);
    cluster.sim.run_for(load.warmup + load.duration);
    let run = collect(&cluster, load, |c| {
        c.nodes
            .iter()
            .all(|&n| c.sim.node::<CanopusNode>(n).stats().committed_cycles > 0)
    });
    let node0 = cluster.sim.node::<CanopusNode>(cluster.nodes[0]).stats();
    Measured {
        run,
        node0_committed_per_sec: node0.committed_weight as f64
            / (load.warmup + load.duration).as_secs_f64(),
        metrics: cluster.metrics_snapshot(),
    }
}

// -------------------------------------------------------------------
// The `metrics` section: the observability evidence behind each number.
// -------------------------------------------------------------------

/// Compact JSON for one histogram: count, sum, mean, and the non-empty
/// log₂ buckets as `[lo, hi, samples]` triples.
fn hist_json(h: &HistogramSnapshot) -> String {
    let mut out = format!("{{\"count\":{},\"sum\":{}", h.count, h.sum);
    if let Some(mean) = h.mean() {
        out.push_str(&format!(",\"mean\":{}", number(mean)));
    }
    out.push_str(",\"buckets\":[");
    for (i, &(b, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (lo, hi) = bucket_bounds(b);
        out.push_str(&format!("[{lo},{hi},{n}]"));
    }
    out.push_str("]}");
    out
}

/// The `metrics` object recorded next to each measured point: batch-size
/// and pipeline-occupancy histograms (summed over all nodes) plus wire
/// bytes broken down by message type. Empty object when the point was
/// measured with observability off.
fn metrics_json(snap: &Snapshot) -> String {
    let mut parts = Vec::new();
    for (key, name) in [
        ("batch_ops", "canopus.batch_ops"),
        ("batch_weight", "canopus.batch_weight"),
        ("pipeline_occupancy", "canopus.pipeline_occupancy"),
    ] {
        if let Some(h) = snap.histogram(name) {
            parts.push(format!("\"{key}\":{}", hist_json(h)));
        }
    }
    let bytes: Vec<String> = snap
        .counters
        .iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("net.sent.bytes.")
                .map(|kind| format!("\"{}\":{v}", escape(kind)))
        })
        .collect();
    if !bytes.is_empty() {
        parts.push(format!("\"bytes_by_msg_type\":{{{}}}", bytes.join(",")));
    }
    format!("{{{}}}", parts.join(","))
}

/// The two compared configurations, as (node config, client batch cap).
fn unbatched(spec: &DeploymentSpec) -> (CanopusConfig, u32) {
    let mut cfg = canopus_config_for(spec);
    cfg.max_batch = 1;
    cfg.max_linger = Dur::ZERO;
    cfg.max_pipeline_depth = 1;
    (cfg, 1)
}

fn batched(spec: &DeploymentSpec) -> (CanopusConfig, u32) {
    let mut cfg = canopus_config_for(spec);
    cfg.max_batch = 1000;
    cfg.max_linger = Dur::millis(1);
    cfg.max_pipeline_depth = 4;
    (cfg, 1000)
}

/// Geometric ladder to the knee, keeping the node-side rates.
fn knee_sweep(
    spec: &DeploymentSpec,
    cfg: &CanopusConfig,
    client_batch: u32,
    search: &SearchSpec,
    seed: u64,
) -> (Vec<Measured>, Option<Measured>) {
    let mut ladder = Vec::new();
    let mut best: Option<Measured> = None;
    let mut rate = search.start_rate;
    for _ in 0..search.max_steps {
        let load = LoadSpec::new(rate).with_client_batch(client_batch);
        let m = measure(
            spec,
            &load,
            cfg.clone(),
            seed,
            ClusterObs::on(BENCH_FLIGHT_CAP),
        );
        let sustainable = m.run.is_sustainable(search.latency_limit);
        eprintln!(
            "  offered={} achieved={} median={:?} node0={}/s{}",
            fmt_rate(m.run.offered),
            fmt_rate(m.run.achieved),
            m.run.median,
            fmt_rate(m.node0_committed_per_sec),
            if sustainable { "" } else { "  [knee]" },
        );
        ladder.push(m.clone());
        if sustainable {
            best = Some(m);
            rate *= search.growth;
        } else {
            break;
        }
    }
    (ladder, best)
}

fn ladder_json(ladder: &[Measured]) -> Vec<String> {
    ladder
        .iter()
        .map(|m| {
            let mut o = JsonObject::new();
            o.field_num("offered_per_sec", m.run.offered)
                .field_num("achieved_per_sec", m.run.achieved)
                .field_num(
                    "median_us",
                    m.run
                        .median
                        .map(|d| d.as_nanos() as f64 / 1e3)
                        .unwrap_or(f64::NAN),
                )
                .field_num("node0_committed_per_sec", m.node0_committed_per_sec)
                .field_raw("metrics", metrics_json(&m.metrics));
            o.render().replace('\n', " ")
        })
        .collect()
}

// -------------------------------------------------------------------
// Table-1 fabric validation (the same ping-pong as `table1_latencies`,
// reduced to the numbers the JSON records).
// -------------------------------------------------------------------

#[derive(Debug)]
enum PingMsg {
    Ping { seq: u64 },
    Pong { seq: u64 },
}

impl Payload for PingMsg {
    fn wire_size(&self) -> usize {
        64
    }
}

struct Pinger {
    peers: Vec<NodeId>,
    sent: std::collections::BTreeMap<u64, (NodeId, Time)>,
    rtts: Vec<(NodeId, Dur)>,
    next_seq: u64,
}

impl Process<PingMsg> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, PingMsg>) {
        for peer in self.peers.clone() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.sent.insert(seq, (peer, ctx.now()));
            ctx.send(peer, PingMsg::Ping { seq });
        }
    }
    fn on_message(&mut self, from: NodeId, msg: PingMsg, ctx: &mut Context<'_, PingMsg>) {
        match msg {
            PingMsg::Ping { seq } => ctx.send(from, PingMsg::Pong { seq }),
            PingMsg::Pong { seq } => {
                if let Some((peer, at)) = self.sent.remove(&seq) {
                    self.rtts.push((peer, ctx.now().saturating_since(at)));
                }
            }
        }
    }
    impl_process_any!();
}

/// Measures the Table-1 RTT matrix in the fabric; returns the measured
/// rows (ms) and the worst deviation from the paper's matrix (ms).
fn table1_measured() -> (Vec<Vec<f64>>, f64) {
    let wan = WanMatrix::paper_table1();
    let sites = wan.len();
    let topo = Topology::multi_dc(wan.clone(), 1, LinkParams::default());
    let mut sim = Simulation::new(ClosFabric::new(topo), 1);
    let all: Vec<NodeId> = (0..sites as u32).map(NodeId).collect();
    for i in 0..sites as u32 {
        let peers = all.iter().copied().filter(|&p| p != NodeId(i)).collect();
        sim.add_node(Box::new(Pinger {
            peers,
            sent: Default::default(),
            rtts: Vec::new(),
            next_seq: 0,
        }));
    }
    sim.run_for(Dur::secs(2));

    let mut rows = Vec::new();
    let mut worst = 0.0f64;
    for (i, a) in wan.sites().enumerate() {
        let pinger = sim.node::<Pinger>(NodeId(i as u32));
        let mut row = Vec::with_capacity(sites);
        for (j, b) in wan.sites().enumerate() {
            if i == j {
                row.push(0.0);
                continue;
            }
            let measured = pinger
                .rtts
                .iter()
                .find(|(p, _)| *p == NodeId(j as u32))
                .map(|(_, d)| d.as_millis_f64())
                .expect("pong received");
            worst = worst.max((measured - wan.rtt(a, b).as_millis_f64()).abs());
            row.push(measured);
        }
        rows.push(row);
    }
    (rows, worst)
}

// -------------------------------------------------------------------

fn check_baseline(doc: &str, fresh_unbatched: f64, fresh_batched: f64) -> Result<(), String> {
    let version = extract_number(doc, "schema_version")
        .ok_or("baseline is malformed: no numeric schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "baseline has schema_version {version}, expected {SCHEMA_VERSION}"
        ));
    }
    for (key, fresh) in [
        ("smoke_unbatched_committed_ops_per_sec", fresh_unbatched),
        ("smoke_batched_committed_ops_per_sec", fresh_batched),
    ] {
        let committed =
            extract_number(doc, key).ok_or_else(|| format!("baseline lacks numeric {key}"))?;
        if fresh < committed * (1.0 - REGRESSION_TOLERANCE) {
            return Err(format!(
                "{key} regressed: fresh {fresh:.0}/s vs committed {committed:.0}/s \
                 (> {:.0}% drop)",
                REGRESSION_TOLERANCE * 100.0
            ));
        }
        eprintln!("check {key}: fresh {fresh:.0}/s vs committed {committed:.0}/s ok");
    }
    Ok(())
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out takes a path")),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            other => panic!("unknown argument {other}"),
        }
    }
    let full = std::env::var("BENCH_SWEEP")
        .map(|v| v != "smoke")
        .unwrap_or(true);

    let spec = DeploymentSpec::paper_single_dc(3);
    let (cfg_unbatched, client_unbatched) = unbatched(&spec);
    let (cfg_batched, client_batched) = batched(&spec);

    let mut doc = JsonObject::new();
    doc.field_int("schema_version", SCHEMA_VERSION)
        .field_str("bench", "throughput_knee")
        .field_str("sweep", if full { "full" } else { "smoke" })
        .field_str("deployment", "paper_single_dc_3x3")
        .field_num("smoke_rate_unbatched_per_sec", SMOKE_RATE_UNBATCHED)
        .field_num("smoke_rate_batched_per_sec", SMOKE_RATE_BATCHED);

    // Deterministic fixed-rate smoke section (always present; the CI
    // regression gate reads exactly these keys).
    let smoke_load = |rate: f64| {
        let mut load = LoadSpec::new(rate);
        load.warmup = Dur::millis(100);
        load.duration = Dur::millis(400);
        load
    };
    eprintln!(
        "== smoke: unbatched @ {} ==",
        fmt_rate(SMOKE_RATE_UNBATCHED)
    );
    let smoke_u = measure(
        &spec,
        &smoke_load(SMOKE_RATE_UNBATCHED).with_client_batch(client_unbatched),
        cfg_unbatched.clone(),
        42,
        ClusterObs::on(BENCH_FLIGHT_CAP),
    );
    eprintln!("== smoke: batched @ {} ==", fmt_rate(SMOKE_RATE_BATCHED));
    let smoke_b = measure(
        &spec,
        &smoke_load(SMOKE_RATE_BATCHED).with_client_batch(client_batched),
        cfg_batched.clone(),
        42,
        ClusterObs::on(BENCH_FLIGHT_CAP),
    );
    let smoke_speedup = smoke_b.node0_committed_per_sec / smoke_u.node0_committed_per_sec;
    eprintln!(
        "smoke: unbatched {}/s, batched {}/s ({smoke_speedup:.2}x)",
        fmt_rate(smoke_u.node0_committed_per_sec),
        fmt_rate(smoke_b.node0_committed_per_sec),
    );
    doc.field_num(
        "smoke_unbatched_committed_ops_per_sec",
        smoke_u.node0_committed_per_sec,
    )
    .field_num(
        "smoke_batched_committed_ops_per_sec",
        smoke_b.node0_committed_per_sec,
    )
    .field_num("smoke_speedup", smoke_speedup)
    .field_raw("smoke_unbatched_metrics", metrics_json(&smoke_u.metrics))
    .field_raw("smoke_batched_metrics", metrics_json(&smoke_b.metrics));

    if full {
        let search = SearchSpec {
            start_rate: 30_000.0,
            growth: 1.6,
            latency_limit: Dur::millis(10),
            max_steps: 12,
        };
        eprintln!("== knee sweep: unbatched ==");
        let (ladder_u, best_u) = knee_sweep(&spec, &cfg_unbatched, client_unbatched, &search, 42);
        eprintln!("== knee sweep: batched ==");
        let (ladder_b, best_b) = knee_sweep(&spec, &cfg_batched, client_batched, &search, 42);

        let knee_u = best_u.as_ref().map(|m| m.run.achieved).unwrap_or(0.0);
        let knee_b = best_b.as_ref().map(|m| m.run.achieved).unwrap_or(0.0);
        let node0_u = best_u
            .as_ref()
            .map(|m| m.node0_committed_per_sec)
            .unwrap_or(0.0);
        let node0_b = best_b
            .as_ref()
            .map(|m| m.node0_committed_per_sec)
            .unwrap_or(0.0);
        eprintln!(
            "knee: unbatched {}/s, batched {}/s ({:.2}x); node0 committed {:.0}/s vs {:.0}/s ({:.2}x)",
            fmt_rate(knee_u),
            fmt_rate(knee_b),
            knee_b / knee_u,
            node0_u,
            node0_b,
            node0_b / node0_u,
        );

        // Latency at 70 % of each maximum (§8.1 reporting point).
        let lat = |rate: f64, cfg: &CanopusConfig, client: u32| {
            let load = LoadSpec::new(rate * 0.7).with_client_batch(client);
            measure(
                &spec,
                &load,
                cfg.clone(),
                43,
                ClusterObs::on(BENCH_FLIGHT_CAP),
            )
            .run
            .median
            .map(|d| d.as_nanos() as f64 / 1e3)
            .unwrap_or(f64::NAN)
        };
        doc.field_num("knee_unbatched_ops_per_sec", knee_u)
            .field_num("knee_batched_ops_per_sec", knee_b)
            .field_num("knee_speedup", knee_b / knee_u)
            .field_num("single_node_committed_ops_per_sec_unbatched", node0_u)
            .field_num("single_node_committed_ops_per_sec_batched", node0_b)
            .field_num("single_node_committed_speedup", node0_b / node0_u)
            .field_num(
                "latency70_unbatched_median_us",
                lat(knee_u, &cfg_unbatched, client_unbatched),
            )
            .field_num(
                "latency70_batched_median_us",
                lat(knee_b, &cfg_batched, client_batched),
            )
            .field_array("ladder_unbatched", &ladder_json(&ladder_u))
            .field_array("ladder_batched", &ladder_json(&ladder_b));

        // Table-1 fabric validation.
        eprintln!("== table 1 fabric validation ==");
        let (rtt_rows, worst) = table1_measured();
        let rows: Vec<String> = rtt_rows
            .iter()
            .map(|row| {
                format!(
                    "[{}]",
                    row.iter().map(|v| number(*v)).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        doc.field_num("table1_worst_rtt_deviation_ms", worst)
            .field_num(
                "table1_max_rtt_ms",
                WanMatrix::paper_table1().max_rtt().as_millis_f64(),
            )
            .field_array("table1_measured_rtt_ms", &rows);
        eprintln!("table 1 worst deviation: {worst:.3} ms");
    }

    let rendered = doc.render();
    match &out_path {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }

    if let Some(path) = check_path {
        // The instrumented runs above must be byte-for-byte the runs a
        // metrics-free build would do: rerun both smoke points with a
        // disabled registry and demand identical committed op counts.
        eprintln!("== check: observability must not perturb the run ==");
        for (name, rate, cfg, client, observed) in [
            (
                "unbatched",
                SMOKE_RATE_UNBATCHED,
                &cfg_unbatched,
                client_unbatched,
                &smoke_u,
            ),
            (
                "batched",
                SMOKE_RATE_BATCHED,
                &cfg_batched,
                client_batched,
                &smoke_b,
            ),
        ] {
            let bare = measure(
                &spec,
                &smoke_load(rate).with_client_batch(client),
                cfg.clone(),
                42,
                ClusterObs::off(),
            );
            assert!(
                bare.node0_committed_per_sec == observed.node0_committed_per_sec
                    && bare.run.achieved == observed.run.achieved,
                "metrics-enabled smoke ({name}) diverged from metrics-off: \
                 committed {}/s vs {}/s, achieved {}/s vs {}/s",
                observed.node0_committed_per_sec,
                bare.node0_committed_per_sec,
                observed.run.achieved,
                bare.run.achieved,
            );
            eprintln!(
                "check metrics-off {name}: identical committed ops ({:.0}/s)",
                bare.node0_committed_per_sec
            );
        }

        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_baseline(
            &baseline,
            smoke_u.node0_committed_per_sec,
            smoke_b.node0_committed_per_sec,
        ) {
            Ok(()) => eprintln!("baseline check passed ({path})"),
            Err(why) => {
                eprintln!("baseline check FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
}
