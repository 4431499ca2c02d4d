//! Shard scaling: aggregate committed throughput of the shard-parallel
//! engine vs the single-pipeline baseline.
//!
//! Drives the paper's single-DC testbed (3 racks × 3 nodes) with the
//! batched configuration (1 ms linger, 1000-op batches, 4 cycles in
//! flight) at an offered rate far past one pipeline's knee, once with a
//! 1-shard engine and once with 4 shards. Each shard is an independent
//! LOT pipeline on its own CPU lane, so the 4-shard run should commit
//! close to 4× the baseline; the bench *asserts* at least 3× (the
//! acceptance bar) and records per-shard committed rates, including a
//! Zipf-skewed split showing the hot-shard imbalance the chaos suite
//! exercises.
//!
//! Results are spliced into `BENCH_canopus.json` as the top-level
//! `"sharded"` object; `--check` fails on a >20 % aggregate regression
//! against the committed file.
//!
//! Usage:
//!   cargo run --release -p canopus-bench --bin shard_scale -- \
//!       [--out BENCH_canopus.json] [--check BENCH_canopus.json]

use canopus::{CanopusConfig, ShardEngine, ShardMsg};
use canopus_bench::json::{extract_number, splice_section, JsonObject};
use canopus_harness::{
    build_cluster, canopus_config_for, fmt_rate, open_loop_clients, ClusterObs, DeploymentSpec,
    LoadSpec, ShardedConfig,
};
use canopus_sim::Dur;

/// Allowed relative drop of the 4-shard aggregate before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Required 4-shard / 1-shard aggregate committed-throughput ratio.
const MIN_SPEEDUP: f64 = 3.0;

/// Offered rate for both runs: far past one batched pipeline's knee, so
/// 1-shard run is capacity-bound and the 4-shard run has headroom to
/// show its parallelism.
const OFFERED_RATE: f64 = 16_000_000.0;

/// Zipf exponent of the skewed split (shard 0 hottest).
const SKEW_THETA: f64 = 0.99;

const BENCH_FLIGHT_CAP: usize = 64;

fn batched(spec: &DeploymentSpec) -> (CanopusConfig, u32) {
    let mut cfg = canopus_config_for(spec);
    cfg.max_batch = 1000;
    cfg.max_linger = Dur::millis(1);
    cfg.max_pipeline_depth = 4;
    (cfg, 1000)
}

struct ShardMeasured {
    /// Node 0's committed weight per second, summed over all shards.
    aggregate_per_sec: f64,
    /// The same, broken out per shard.
    per_shard_per_sec: Vec<f64>,
}

fn measure(spec: &DeploymentSpec, load: &LoadSpec, seed: u64) -> ShardMeasured {
    let (cfg, client_batch) = batched(spec);
    let load = load.clone().with_client_batch(client_batch);
    let cfg = ShardedConfig {
        canopus: cfg,
        shards: load.shards,
    };
    let mut cluster = build_cluster::<ShardMsg>(
        spec,
        cfg,
        seed,
        open_loop_clients(&load, seed),
        ClusterObs::on(BENCH_FLIGHT_CAP),
    );
    cluster.sim.run_for(load.warmup + load.duration);
    let secs = (load.warmup + load.duration).as_secs_f64();
    let engine = cluster
        .sim
        .node_any(cluster.nodes[0])
        .downcast_ref::<ShardEngine>()
        .expect("shard engine");
    let per_shard: Vec<f64> = (0..engine.shard_count())
        .map(|s| engine.shard(s).stats().committed_weight as f64 / secs)
        .collect();
    ShardMeasured {
        aggregate_per_sec: per_shard.iter().sum(),
        per_shard_per_sec: per_shard,
    }
}

fn rates_array(rates: &[f64]) -> Vec<String> {
    rates.iter().map(|r| format!("{r:.0}")).collect()
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

    let spec = DeploymentSpec::paper_single_dc(3);
    let load = |shards: u16| {
        let mut l = LoadSpec::new(OFFERED_RATE).with_shards(shards);
        l.warmup = Dur::millis(100);
        l.duration = Dur::millis(400);
        l
    };

    // A single pipeline collapses when offered far past its knee (ingest
    // alone overcommits its one lane), so the baseline is its *best*
    // operating point across the sweep rate and half of it — comparing
    // the shard engine against a thrashing baseline would overstate the
    // speedup.
    let mut one = measure(&spec, &load(1), 42);
    let mut one_rate = OFFERED_RATE;
    eprintln!(
        "== 1 shard @ {} offered ==   committed {}",
        fmt_rate(OFFERED_RATE),
        fmt_rate(one.aggregate_per_sec)
    );
    let mut half = load(1);
    half.total_rate = OFFERED_RATE / 2.0;
    let one_half = measure(&spec, &half, 42);
    eprintln!(
        "== 1 shard @ {} offered ==   committed {}",
        fmt_rate(OFFERED_RATE / 2.0),
        fmt_rate(one_half.aggregate_per_sec)
    );
    if one_half.aggregate_per_sec > one.aggregate_per_sec {
        one = one_half;
        one_rate = OFFERED_RATE / 2.0;
    }

    eprintln!("== 4 shards @ {} offered ==", fmt_rate(OFFERED_RATE));
    let four = measure(&spec, &load(4), 42);
    eprintln!(
        "   committed {} aggregate, per shard: [{}]",
        fmt_rate(four.aggregate_per_sec),
        four.per_shard_per_sec
            .iter()
            .map(|r| fmt_rate(*r))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let speedup = four.aggregate_per_sec / one.aggregate_per_sec;
    eprintln!("speedup: {speedup:.2}x (bar: {MIN_SPEEDUP:.1}x)");
    assert!(
        speedup >= MIN_SPEEDUP,
        "4-shard aggregate is only {speedup:.2}x the single pipeline \
         ({:.0}/s vs {:.0}/s); the shard-parallel engine must deliver {MIN_SPEEDUP}x",
        four.aggregate_per_sec,
        one.aggregate_per_sec,
    );

    eprintln!("== 4 shards, Zipf theta={SKEW_THETA} ==");
    let skewed = measure(&spec, &load(4).with_shard_skew(SKEW_THETA), 42);
    eprintln!(
        "   committed {} aggregate, per shard: [{}]",
        fmt_rate(skewed.aggregate_per_sec),
        skewed
            .per_shard_per_sec
            .iter()
            .map(|r| fmt_rate(*r))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // The skew must actually land. Committed throughput is not monotone
    // in offered load (the hottest shard can be pushed past its knee),
    // so assert on the cold end, which stays under the knee: the shard
    // with the smallest Zipf share commits the least, and the per-shard
    // spread is far wider than the uniform run's.
    let coldest = *skewed.per_shard_per_sec.last().expect("4 shards");
    assert!(
        skewed
            .per_shard_per_sec
            .iter()
            .all(|&r| r >= coldest * 0.999),
        "Zipf split should make the last shard the coldest: {:?}",
        skewed.per_shard_per_sec
    );
    let spread = |rates: &[f64]| {
        rates.iter().cloned().fold(0.0f64, f64::max)
            / rates.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    assert!(
        spread(&skewed.per_shard_per_sec) > spread(&four.per_shard_per_sec) * 1.1,
        "Zipf split should widen the per-shard spread: skewed {:?} vs uniform {:?}",
        skewed.per_shard_per_sec,
        four.per_shard_per_sec
    );

    let mut section = JsonObject::new();
    section
        .field_num("offered_rate_per_sec", OFFERED_RATE)
        .field_int("shards", 4)
        .field_num("sharded_1_offered_rate_per_sec", one_rate)
        .field_num("sharded_1_committed_ops_per_sec", one.aggregate_per_sec)
        .field_num("sharded_4_committed_ops_per_sec", four.aggregate_per_sec)
        .field_num("sharded_speedup", speedup)
        .field_array(
            "per_shard_committed_ops_per_sec",
            &rates_array(&four.per_shard_per_sec),
        )
        .field_num("skew_theta", SKEW_THETA)
        .field_num(
            "skewed_aggregate_committed_ops_per_sec",
            skewed.aggregate_per_sec,
        )
        .field_array(
            "per_shard_committed_skewed_ops_per_sec",
            &rates_array(&skewed.per_shard_per_sec),
        );
    let rendered = section.render();

    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let committed = extract_number(&baseline, "sharded_4_committed_ops_per_sec")
            .expect("baseline lacks a sharded section: run with --out first");
        if four.aggregate_per_sec < committed * (1.0 - REGRESSION_TOLERANCE) {
            eprintln!(
                "sharded aggregate regressed: fresh {:.0}/s vs committed {committed:.0}/s \
                 (> {:.0}% drop)",
                four.aggregate_per_sec,
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "check sharded_4_committed_ops_per_sec: fresh {:.0}/s vs committed {committed:.0}/s ok",
            four.aggregate_per_sec
        );
    }

    match &out_path {
        Some(path) => {
            let doc = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read bench doc {path}: {e}"));
            std::fs::write(path, splice_section(&doc, "sharded", &rendered))
                .expect("write bench doc");
            eprintln!("spliced sharded section into {path}");
        }
        None => println!("{rendered}"),
    }
}
