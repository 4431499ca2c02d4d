//! Seed-swept chaos and linearizability suite: every fault scenario runs
//! against all four protocols (Canopus, Raft KV, EPaxos, the ZooKeeper
//! model) across a seed sweep, asserting the §6 safety properties always
//! hold — agreement, client FIFO, linearizability where the read path
//! promises it — and that the cluster converges (commits fresh writes)
//! after the nemesis heals the network.
//!
//! Timeline of every run (virtual time):
//!
//! ```text
//! 0ms ── warm ── 200ms ── faults ── 900ms ── heal ── 1100ms ── probes on
//!        fresh keys ── 1800ms ── clients stop ── 2100ms ── verdict
//! ```
//!
//! Seed count: 20 by default (the acceptance sweep), `CHAOS_SEEDS=ci` for
//! a quick fixed set in CI, `CHAOS_SEEDS=extended` for a deep local sweep.

use canopus::{CanopusConfig, CanopusMsg};
use canopus_epaxos::{EpaxosConfig, EpaxosMsg};
use canopus_harness::scenarios::{
    asymmetric_loss as asymmetric_loss_in, crash_restart_churn as crash_restart_churn_in,
    leader_crash_mid_round as leader_crash_mid_round_in, link_flapping as link_flapping_in,
    majority_minority_split as majority_minority_split_in, node_isolated as node_isolated_in,
    partition_then_crash_restart as partition_then_crash_restart_in,
    superleaf_partition as superleaf_partition_in,
};
use canopus_harness::{
    build_cluster, canopus_config_for, chaos_verdict, history_clients, ChaosProtocol, ChaosReport,
    ChaosScenario, ChaosTimeline, ChaosTopology, Cluster, ClusterObs, DeploymentSpec,
    HistoryConfig, RaftKvConfig, RaftKvMsg, CHAOS_FLIGHT_CAP,
};
use canopus_sim::Dur;
use canopus_zab::{ZabConfig, ZabMsg};

// ---------------------------------------------------------------------
// Deployment and timeline
// ---------------------------------------------------------------------

/// 3 super-leaves (racks) × 3 nodes — the smallest deployment where every
/// protocol tolerates the catalog faults (Canopus leaf majority, Raft/Zab
/// quorum, EPaxos fast quorum).
fn spec() -> DeploymentSpec {
    DeploymentSpec::paper_single_dc(3)
}

/// The scenario catalog lives in `canopus_harness::scenarios` (shared
/// with the live-TCP suite); these wrappers pin the simulator topology
/// and PR 2's virtual-time schedule.
fn topo() -> ChaosTopology {
    ChaosTopology::sim_default()
}

fn timeline() -> ChaosTimeline {
    ChaosTimeline::sim_default()
}

fn superleaf_partition() -> ChaosScenario {
    superleaf_partition_in(&topo(), &timeline())
}
fn majority_minority_split() -> ChaosScenario {
    majority_minority_split_in(&topo(), &timeline())
}
fn leader_crash_mid_round() -> ChaosScenario {
    leader_crash_mid_round_in(&topo(), &timeline())
}
fn crash_restart_churn() -> ChaosScenario {
    crash_restart_churn_in(&topo(), &timeline())
}
fn asymmetric_loss() -> ChaosScenario {
    asymmetric_loss_in(&topo(), &timeline())
}
fn link_flapping() -> ChaosScenario {
    link_flapping_in(&topo(), &timeline())
}
fn node_isolated() -> ChaosScenario {
    node_isolated_in(&topo(), &timeline())
}
fn partition_then_crash_restart() -> ChaosScenario {
    partition_then_crash_restart_in(&topo(), &timeline())
}

// ---------------------------------------------------------------------
// Protocol configurations (commit-log recording on, for the verdict)
// ---------------------------------------------------------------------

fn canopus() -> CanopusConfig {
    CanopusConfig {
        record_log: true,
        ..canopus_config_for(&spec())
    }
}

/// Canopus with the throughput knobs on: 1 ms super-leaf batching windows
/// and 4 cycles in flight. The batched sweeps assert the same verdict as
/// the defaults — the knobs must not trade safety for throughput.
fn canopus_batched4() -> CanopusConfig {
    CanopusConfig {
        max_linger: Dur::millis(1),
        max_pipeline_depth: 4,
        ..canopus()
    }
}

fn raftkv() -> RaftKvConfig {
    RaftKvConfig::default()
}

/// 2 ms batches.
fn epaxos() -> EpaxosConfig {
    EpaxosConfig {
        batch_duration: Dur::millis(2),
        record_log: true,
        ..EpaxosConfig::default()
    }
}

/// At most 5 participants, the rest observers.
fn zab() -> ZabConfig {
    ZabConfig {
        participants: spec().node_count().min(5),
        ..ZabConfig::default()
    }
}

fn seeds() -> Vec<u64> {
    let n = match std::env::var("CHAOS_SEEDS").as_deref() {
        Ok("ci") => 4,
        Ok("extended") => 60,
        Ok(other) => other.parse().unwrap_or(20),
        // Debug builds (plain `cargo test --workspace`) get a spot check;
        // the acceptance sweep is `cargo test --release --test chaos`.
        _ if cfg!(debug_assertions) => 2,
        _ => 20,
    };
    (1..=n).map(|i| 0xC0DE + i).collect()
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

fn history_config() -> HistoryConfig {
    HistoryConfig {
        probe_at: timeline().converge_after(),
        ..HistoryConfig::default()
    }
}

/// A cluster of `M` driven by history clients. Observability is enabled
/// so a failing verdict can dump each node's flight recorder; recording
/// is observation-only, so the execution is identical to an unobserved
/// run (the determinism suite proves it).
fn chaos_cluster<M: ChaosProtocol>(cfg: M::Config, seed: u64, obs: ClusterObs) -> Cluster<M> {
    build_cluster(&spec(), cfg, seed, history_clients(&history_config()), obs)
}

fn run_one<M: ChaosProtocol>(
    cfg: fn() -> M::Config,
    scenario: &ChaosScenario,
    seed: u64,
) -> (ChaosReport, Cluster<M>) {
    let mut cluster = chaos_cluster(cfg(), seed, ClusterObs::on(CHAOS_FLIGHT_CAP));
    cluster.apply_plan(&scenario.plan, timeline().run_for);
    let report = chaos_verdict(
        &cluster,
        timeline().converge_after(),
        &(scenario.exempt)(M::NAME),
    );
    (report, cluster)
}

/// Events per node in the failure dump — the forensic tail, not the
/// whole ring.
const DUMP_EVENTS: usize = 40;

fn sweep<M: ChaosProtocol>(cfg: fn() -> M::Config, scenario: ChaosScenario) {
    for seed in seeds() {
        let (report, cluster) = run_one::<M>(cfg, &scenario, seed);
        assert!(
            report.ok(),
            "{} / {} / seed {:#x}: {} ok, {} timed out, violations: {:#?}
{}",
            M::NAME,
            scenario.name,
            seed,
            report.ops_ok,
            report.ops_timed_out,
            report.violations,
            cluster.flight_dump(DUMP_EVENTS)
        );
        assert!(
            report.ops_ok > 50,
            "{} / {} / seed {:#x}: suspiciously little progress ({} ops)
{}",
            M::NAME,
            scenario.name,
            seed,
            report.ops_ok,
            cluster.flight_dump(DUMP_EVENTS)
        );
    }
}

/// A deliberately failing verdict bar, demonstrating the failure artifact:
/// the panic message carries every node's flight-recorder tail, so chaos
/// forensics start from structured consensus events instead of a bare
/// assert. The `expected` string is `canopus_obs::DUMP_HEADER`.
#[test]
#[should_panic(expected = "flight recorder dump")]
fn broken_verdict_dumps_flight_recorders() {
    let scenario = superleaf_partition();
    let (report, cluster) = run_one::<CanopusMsg>(canopus, &scenario, 0xBAD5EED);
    assert!(
        report.ops_ok == 0, // deliberately impossible: healthy runs commit ops
        "deliberately broken bar ({} ops committed)
{}",
        report.ops_ok,
        cluster.flight_dump(DUMP_EVENTS)
    );
}

macro_rules! chaos_matrix {
    ($($test:ident: $cfg:ident / $msg:ty => $scenario:ident;)*) => {
        $(
            #[test]
            fn $test() {
                sweep::<$msg>($cfg, $scenario());
            }
        )*
    };
}

chaos_matrix! {
    canopus_superleaf_partition: canopus / CanopusMsg => superleaf_partition;
    canopus_majority_minority:   canopus / CanopusMsg => majority_minority_split;
    canopus_leader_crash:        canopus / CanopusMsg => leader_crash_mid_round;
    canopus_churn:               canopus / CanopusMsg => crash_restart_churn;
    canopus_asymmetric_loss:     canopus / CanopusMsg => asymmetric_loss;
    canopus_link_flapping:       canopus / CanopusMsg => link_flapping;
    canopus_node_isolated:       canopus / CanopusMsg => node_isolated;
    canopus_partition_crash_restart: canopus / CanopusMsg => partition_then_crash_restart;

    canopus_batched_superleaf_partition:     canopus_batched4 / CanopusMsg => superleaf_partition;
    canopus_batched_churn:                   canopus_batched4 / CanopusMsg => crash_restart_churn;
    canopus_batched_partition_crash_restart: canopus_batched4 / CanopusMsg => partition_then_crash_restart;

    raftkv_superleaf_partition:  raftkv / RaftKvMsg => superleaf_partition;
    raftkv_majority_minority:    raftkv / RaftKvMsg => majority_minority_split;
    raftkv_leader_crash:         raftkv / RaftKvMsg => leader_crash_mid_round;
    raftkv_churn:                raftkv / RaftKvMsg => crash_restart_churn;
    raftkv_asymmetric_loss:      raftkv / RaftKvMsg => asymmetric_loss;
    raftkv_link_flapping:        raftkv / RaftKvMsg => link_flapping;
    raftkv_node_isolated:        raftkv / RaftKvMsg => node_isolated;

    epaxos_superleaf_partition:  epaxos / EpaxosMsg => superleaf_partition;
    epaxos_majority_minority:    epaxos / EpaxosMsg => majority_minority_split;
    epaxos_leader_crash:         epaxos / EpaxosMsg => leader_crash_mid_round;
    epaxos_churn:                epaxos / EpaxosMsg => crash_restart_churn;
    epaxos_asymmetric_loss:      epaxos / EpaxosMsg => asymmetric_loss;
    epaxos_link_flapping:        epaxos / EpaxosMsg => link_flapping;
    epaxos_node_isolated:        epaxos / EpaxosMsg => node_isolated;

    zab_superleaf_partition:     zab / ZabMsg => superleaf_partition;
    zab_majority_minority:       zab / ZabMsg => majority_minority_split;
    zab_leader_crash:            zab / ZabMsg => leader_crash_mid_round;
    zab_churn:                   zab / ZabMsg => crash_restart_churn;
    zab_asymmetric_loss:         zab / ZabMsg => asymmetric_loss;
    zab_link_flapping:           zab / ZabMsg => link_flapping;
    zab_node_isolated:           zab / ZabMsg => node_isolated;
}

// ---------------------------------------------------------------------
// Determinism regression
// ---------------------------------------------------------------------

/// Two runs of the same plan + seed must be byte-identical: same kernel
/// trace hash, same applied fault timeline, same client histories.
#[test]
fn determinism_same_plan_same_seed_identical_traces() {
    let run = |seed: u64| {
        let scenario = superleaf_partition();
        let mut cluster =
            chaos_cluster::<CanopusMsg>(canopus(), seed, ClusterObs::on(CHAOS_FLIGHT_CAP));
        cluster.sim.enable_trace_hash();
        let applied = cluster.apply_plan(&scenario.plan, timeline().run_for);
        let histories: Vec<Vec<String>> = cluster
            .clients
            .iter()
            .map(|&c| {
                cluster
                    .sim
                    .node::<canopus_harness::HistoryClient<CanopusMsg>>(c)
                    .ops()
                    .iter()
                    .map(|op| format!("{op:?}"))
                    .collect()
            })
            .collect();
        (
            cluster.sim.trace_hash().expect("enabled"),
            format!("{applied:?}"),
            histories,
            cluster.sim.events_processed(),
            cluster.sim.stats(),
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.0, b.0, "trace hashes diverged");
    assert_eq!(a.1, b.1, "applied fault timelines diverged");
    assert_eq!(a.2, b.2, "client histories diverged");
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);
    // A different seed must explore a different schedule.
    let c = run(8);
    assert_ne!(a.0, c.0, "different seeds should differ");
}

/// Observability is observation-only: a run with registries and flight
/// recorders enabled must produce byte-identical executions (same kernel
/// trace hash, same event count) as one with them disabled. This is the
/// regression gate for the "one branch when disabled, zero interference
/// when enabled" contract.
#[test]
fn determinism_obs_enabled_matches_disabled() {
    let run = |obs: ClusterObs| {
        let scenario = superleaf_partition();
        let mut cluster = chaos_cluster::<CanopusMsg>(canopus(), 11, obs);
        cluster.sim.enable_trace_hash();
        let applied = cluster.apply_plan(&scenario.plan, timeline().run_for);
        (
            cluster.sim.trace_hash().expect("enabled"),
            format!("{applied:?}"),
            cluster.sim.events_processed(),
        )
    };
    let observed = run(ClusterObs::on(256));
    let bare = run(ClusterObs::off());
    assert_eq!(
        observed, bare,
        "enabling the obs layer changed the execution"
    );
}

/// The same determinism bar holds for a crash/restart plan on the Raft KV
/// service (restart factories must be deterministic too).
#[test]
fn determinism_crash_restart_raftkv() {
    let run = || {
        let scenario = crash_restart_churn();
        let mut cluster =
            chaos_cluster::<RaftKvMsg>(raftkv(), 11, ClusterObs::on(CHAOS_FLIGHT_CAP));
        cluster.sim.enable_trace_hash();
        cluster.apply_plan(&scenario.plan, timeline().run_for);
        (
            cluster.sim.trace_hash().expect("enabled"),
            cluster.sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}
