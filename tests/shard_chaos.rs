//! Chaos suite for the shard-parallel engine: every node hosts four
//! independent LOT pipelines behind a `ShardEngine`, and the verdict's
//! sharding checks add per-shard agreement, key→shard routing stability,
//! and cross-shard transaction atomicity on top of the base §6 checks.
//!
//! The suite also carries the single-shard anchor tests: a 1-shard
//! engine must reproduce a pinned trace hash (catalog v2) so future
//! refactors of the multiplexing layer cannot silently change the
//! execution, and plain-vs-sharded runs are compared semantically.

use std::collections::BTreeSet;

use std::any::Any;

use canopus::{CanopusConfig, CanopusMsg, ShardEngine, ShardMsg};
use canopus_harness::{
    build_cluster, canopus_config_for, chaos_verdict, chaos_verdict_parts,
    cross_shard_atomicity_partition as cross_shard_atomicity_partition_in, history_clients,
    hot_shard_skew as hot_shard_skew_in, ChaosProtocol, ChaosReport, ChaosScenario, ChaosTimeline,
    ChaosTopology, Cluster, ClusterObs, DeploymentSpec, HistoryConfig, ShardedConfig,
    CHAOS_FLIGHT_CAP,
};
use canopus_sim::{Dur, NodeId};

const SHARDS: u16 = 4;

fn spec() -> DeploymentSpec {
    DeploymentSpec::paper_single_dc(3)
}

fn topo() -> ChaosTopology {
    ChaosTopology::sim_default()
}

fn timeline() -> ChaosTimeline {
    ChaosTimeline::sim_default()
}

fn history_config() -> HistoryConfig {
    HistoryConfig {
        probe_at: timeline().converge_after(),
        ..HistoryConfig::default()
    }
}

/// Every third write becomes a cross-shard `MultiPut` spanning the
/// client's whole key set — the anchor-protocol workload.
fn multi_put_config() -> HistoryConfig {
    HistoryConfig {
        multi_put_every: 3,
        ..history_config()
    }
}

/// All keys pinned to shard 0 of a 4-shard engine: one pipeline carries
/// the entire keyed workload while the other three idle.
fn hot_shard_config() -> HistoryConfig {
    HistoryConfig {
        hot_shard: Some((0, SHARDS)),
        ..history_config()
    }
}

fn seeds() -> Vec<u64> {
    let n = match std::env::var("CHAOS_SEEDS").as_deref() {
        Ok("ci") => 4,
        Ok("extended") => 60,
        Ok(other) => other.parse().unwrap_or(20),
        _ if cfg!(debug_assertions) => 2,
        _ => 20,
    };
    (1..=n).map(|i| 0x5A4D + i).collect()
}

/// Canopus with commit-log recording on, for the verdict.
fn canopus() -> CanopusConfig {
    CanopusConfig {
        record_log: true,
        ..canopus_config_for(&spec())
    }
}

/// A history-driven cluster of `M` with flight recorders on.
fn chaos_cluster<M: ChaosProtocol>(cfg: M::Config, hcfg: &HistoryConfig, seed: u64) -> Cluster<M> {
    build_cluster(
        &spec(),
        cfg,
        seed,
        history_clients(hcfg),
        ClusterObs::on(CHAOS_FLIGHT_CAP),
    )
}

fn sharded_cluster(hcfg: &HistoryConfig, seed: u64, shards: u16) -> Cluster<ShardMsg> {
    let cfg = ShardedConfig {
        canopus: canopus(),
        shards,
    };
    chaos_cluster(cfg, hcfg, seed)
}

fn run_one(
    hcfg: &HistoryConfig,
    scenario: &ChaosScenario,
    seed: u64,
    shards: u16,
) -> (ChaosReport, Cluster<ShardMsg>) {
    let mut cluster = sharded_cluster(hcfg, seed, shards);
    cluster.apply_plan(&scenario.plan, timeline().run_for);
    let report = chaos_verdict(
        &cluster,
        timeline().converge_after(),
        &(scenario.exempt)("canopus"),
    );
    (report, cluster)
}

const DUMP_EVENTS: usize = 40;

fn sweep(hcfg: HistoryConfig, scenario: ChaosScenario) {
    for seed in seeds() {
        let (report, cluster) = run_one(&hcfg, &scenario, seed, SHARDS);
        assert!(
            report.ok(),
            "canopus_sharded / {} / seed {:#x}: {} ok, {} timed out, violations: {:#?}
{}",
            scenario.name,
            seed,
            report.ops_ok,
            report.ops_timed_out,
            report.violations,
            cluster.flight_dump(DUMP_EVENTS)
        );
        assert!(
            report.ops_ok > 50,
            "canopus_sharded / {} / seed {:#x}: suspiciously little progress ({} ops)
{}",
            scenario.name,
            seed,
            report.ops_ok,
            cluster.flight_dump(DUMP_EVENTS)
        );
    }
}

// ---------------------------------------------------------------------
// Sharded sweeps
// ---------------------------------------------------------------------

#[test]
fn sharded_superleaf_partition() {
    sweep(
        history_config(),
        canopus_harness::scenarios::superleaf_partition(&topo(), &timeline()),
    );
}

#[test]
fn sharded_crash_restart_churn() {
    sweep(
        history_config(),
        canopus_harness::scenarios::crash_restart_churn(&topo(), &timeline()),
    );
}

#[test]
fn sharded_hot_shard_skew() {
    sweep(hot_shard_config(), hot_shard_skew_in(&topo(), &timeline()));
}

#[test]
fn sharded_cross_shard_atomicity_partition() {
    sweep(
        multi_put_config(),
        cross_shard_atomicity_partition_in(&topo(), &timeline()),
    );
}

/// Multi-key transactions under the stacked partition: the sweep above
/// proves atomicity; this asserts the anchor protocol actually engaged
/// (cross-shard transactions were split and fully committed, not just
/// absent).
#[test]
fn cross_shard_txns_flow_under_partition() {
    let scenario = cross_shard_atomicity_partition_in(&topo(), &timeline());
    let (report, cluster) = run_one(&multi_put_config(), &scenario, 0x5A4D + 1, SHARDS);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    let trusted = cluster.trusted_nodes();
    let node = trusted.first().copied().expect("some trusted node");
    let engine = cluster
        .sim
        .node_any(node)
        .downcast_ref::<ShardEngine>()
        .expect("shard engine");
    let stats = engine.stats();
    assert!(
        stats.txns_started > 10,
        "expected cross-shard transactions, got {stats:?}"
    );
    assert_eq!(
        stats.txns_started, stats.txns_committed,
        "every started txn must release its reply: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Key→shard stability across restarts
// ---------------------------------------------------------------------

/// After a crash-restart churn, EVERY node — including the restarted one,
/// which rebuilt its engine through the restart policy — must file each
/// committed key under the shard the router maps it to. A router that
/// drifted across restart would split a key's history between pipelines.
#[test]
fn key_to_shard_stable_across_restart() {
    let scenario = canopus_harness::scenarios::crash_restart_churn(&topo(), &timeline());
    let (report, cluster) = run_one(&history_config(), &scenario, 0x5A4D + 2, SHARDS);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    for i in 0..spec().node_count() {
        let node = NodeId(i as u32);
        if !cluster.sim.is_alive(node) {
            continue;
        }
        let engine = cluster
            .sim
            .node_any(node)
            .downcast_ref::<ShardEngine>()
            .expect("shard engine");
        let router = engine.router();
        for s in 0..engine.shard_count() {
            for cc in engine.shard(s).committed_log() {
                for set in &cc.sets {
                    for op in &set.ops {
                        let keys: Vec<u64> = match op {
                            canopus::CommittedOp::Put { key, .. } => vec![*key],
                            canopus::CommittedOp::MultiPut { keys, .. } => keys.clone(),
                            canopus::CommittedOp::Synthetic { .. } => vec![],
                        };
                        for key in keys {
                            assert_eq!(
                                router.shard_of_key(key),
                                s,
                                "node {node}: key {key} committed on shard {s} but routes \
                                 elsewhere"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Determinism and the single-shard anchor
// ---------------------------------------------------------------------

fn traced_run(hcfg: &HistoryConfig, seed: u64, shards: u16) -> (u64, u64) {
    let scenario = canopus_harness::scenarios::superleaf_partition(&topo(), &timeline());
    let mut cluster = sharded_cluster(hcfg, seed, shards);
    cluster.sim.enable_trace_hash();
    cluster.apply_plan(&scenario.plan, timeline().run_for);
    let report = chaos_verdict(
        &cluster,
        timeline().converge_after(),
        &(scenario.exempt)("canopus"),
    );
    assert!(report.ok(), "violations: {:#?}", report.violations);
    (
        cluster.sim.trace_hash().expect("enabled"),
        cluster.sim.events_processed(),
    )
}

/// Two sharded runs of the same plan + seed are byte-identical, and a
/// different seed explores a different schedule.
#[test]
fn sharded_determinism_same_seed_identical() {
    let a = traced_run(&history_config(), 7, SHARDS);
    let b = traced_run(&history_config(), 7, SHARDS);
    assert_eq!(a, b, "sharded runs diverged");
    let c = traced_run(&history_config(), 8, SHARDS);
    assert_ne!(a.0, c.0, "different seeds should differ");
}

/// The single-shard engine's execution is pinned (catalog v2): a refactor
/// of the shard multiplexing layer that changes even one event of the
/// degenerate 1-shard case must be an explicit, versioned decision.
#[test]
fn single_shard_trace_hash_is_pinned() {
    let (hash, events) = traced_run(&history_config(), 7, 1);
    let again = traced_run(&history_config(), 7, 1);
    assert_eq!((hash, events), again, "single-shard run not reproducible");
    assert_eq!(
        hash, 0xe82e_4821_6bcd_6f2b,
        "single-shard trace drifted: if intentional, bump CATALOG_VERSION and re-pin"
    );
}

/// Semantic equivalence of plain vs sharded(1): same clients, same seed,
/// same scenario — both verdicts must be clean and both must commit a
/// healthy volume of operations. (Bit-identical traces are impossible:
/// the sharded wire frames carry a shard id and the engine derives
/// per-shard RNG streams, so the pinned hash above anchors the sharded
/// execution instead.)
#[test]
fn single_shard_matches_plain_semantics() {
    let seed = 0x5A4D + 3;
    let scenario = canopus_harness::scenarios::superleaf_partition(&topo(), &timeline());

    let mut plain = chaos_cluster::<CanopusMsg>(canopus(), &history_config(), seed);
    plain.apply_plan(&scenario.plan, timeline().run_for);
    let plain_report = chaos_verdict(
        &plain,
        timeline().converge_after(),
        &(scenario.exempt)("canopus"),
    );

    let (sharded_report, _) = run_one(&history_config(), &scenario, seed, 1);

    assert!(plain_report.ok(), "plain: {:#?}", plain_report.violations);
    assert!(
        sharded_report.ok(),
        "sharded(1): {:#?}",
        sharded_report.violations
    );
    assert!(plain_report.ops_ok > 50 && sharded_report.ops_ok > 50);
    // The engines saw equivalent traffic: within 25% op volume of each
    // other (timing differs; the workload and its completion must not).
    let (a, b) = (plain_report.ops_ok as f64, sharded_report.ops_ok as f64);
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "plain committed {a} ops but sharded(1) committed {b}"
    );
}

/// The convergence-exemption plumbing reaches the sharded verdict: an
/// empty trusted set (every node exempted) still yields a well-formed
/// report.
#[test]
fn sharded_verdict_handles_exemptions() {
    let scenario = canopus_harness::scenarios::superleaf_partition(&topo(), &timeline());
    let (_, cluster) = run_one(&history_config(), &scenario, 0x5A4D + 4, SHARDS);
    let all: BTreeSet<NodeId> = (0..spec().node_count() as u32).map(NodeId).collect();
    let report = chaos_verdict(&cluster, timeline().converge_after(), &all);
    assert!(report.ok(), "violations: {:#?}", report.violations);
}

/// The sharding checks live in the protocol's verdict hook, so every
/// verdict entry point runs them — including the cluster-agnostic core
/// the live TCP suite goes through. Engines whose routers disagree (one
/// node on 4 shards, one on 2) must be reported, not silently merged.
#[test]
fn verdict_core_runs_shard_checks() {
    let hcfg = HistoryConfig {
        stop_at: canopus_sim::Time::ZERO + Dur::millis(300),
        ..history_config()
    };
    let mut four = sharded_cluster(&hcfg, 0x5A4D + 5, 4);
    let mut two = sharded_cluster(&hcfg, 0x5A4D + 5, 2);
    four.sim.run_for(Dur::millis(400));
    two.sim.run_for(Dur::millis(400));
    let trusted: Vec<(NodeId, &dyn Any)> = vec![
        (NodeId(0), four.sim.node_any(NodeId(0))),
        (NodeId(1), two.sim.node_any(NodeId(0))),
    ];
    let report = chaos_verdict_parts::<ShardMsg>(
        &trusted,
        &[],
        timeline().converge_after(),
        &BTreeSet::new(),
        false,
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("routes to shard")),
        "mixed shard counts must fail routing stability: {:#?}",
        report.violations
    );
}
