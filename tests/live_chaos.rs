//! Live chaos suite: the same fault scenarios the simulator sweep runs,
//! executed over **real loopback TCP sockets**.
//!
//! Each run spawns a 2-super-leaf × 3-node deployment plus one
//! closed-loop [`canopus_harness::HistoryClient`] per node on the
//! thread-based TCP transport, replays a `FaultPlan` on the wall clock
//! through the shared `FaultRules` table (crashes stop and respawn real
//! node loops), and then runs the shared chaos verdict over the recovered
//! states: agreement (global + per-key), client FIFO, read validity, and
//! post-heal convergence. Linearizability timing is not checked live —
//! nodes have no common clock base (see `chaos_verdict_parts`).
//!
//! The verdict is deterministic (it must pass for every seed), the
//! byte-level trace is not — this is a real scheduler and a real network
//! stack.
//!
//! Seed count: 3 in release (the acceptance sweep, ~1 min wall clock for
//! the whole suite), 1 in debug spot checks, `LIVE_CHAOS_SEEDS=ci` for
//! the fixed CI set, `LIVE_CHAOS_SEEDS=N` for deeper local sweeps.
//!
//! Canopus crash/restart scenarios are exercised by the simulator suite
//! only: live restarts would race the deliberately slow live failure
//! detector (see `canopus_harness::live`), so here Canopus runs the
//! partition and loss scenarios while ZAB and Raft KV cover
//! crash/restart.

use canopus::{CanopusConfig, CanopusMsg};
use canopus_harness::scenarios::{
    asymmetric_loss, leader_crash_mid_round, superleaf_partition, ChaosScenario,
};
use canopus_harness::{
    live_canopus_config, live_history_config, live_raftkv_config, live_time_unit, live_timeline,
    live_topology, live_zab_config, ChaosProtocol, ChaosTimeline, ChaosTopology, LiveCluster,
    RaftKvConfig, RaftKvMsg,
};
use canopus_net::Wire;
use canopus_zab::{ZabConfig, ZabMsg};

fn seeds() -> Vec<u64> {
    let n = match std::env::var("LIVE_CHAOS_SEEDS").as_deref() {
        Ok("ci") => 3,
        Ok(other) => other.parse().unwrap_or(3),
        // Debug builds (plain `cargo test --workspace`) spot-check one
        // seed; the acceptance sweep is `cargo test --release --test
        // live_chaos`.
        _ if cfg!(debug_assertions) => 1,
        _ => 3,
    };
    (1..=n).map(|i| 0x11FE + i).collect()
}

/// Canopus with commit-log recording on, for the verdict.
fn canopus() -> CanopusConfig {
    CanopusConfig {
        record_log: true,
        ..live_canopus_config()
    }
}

/// The throughput knobs over real sockets: an eighth-unit batching window
/// (the same scale as the clients' gap between operations, so windows
/// really do aggregate concurrent clients) and 4 cycles in flight.
fn canopus_batched4() -> CanopusConfig {
    CanopusConfig {
        max_linger: live_time_unit() / 8,
        max_pipeline_depth: 4,
        ..canopus()
    }
}

/// At most 5 quorum participants, the rest observers.
fn zab() -> ZabConfig {
    live_zab_config(live_topology().node_count().min(5))
}

fn raftkv() -> RaftKvConfig {
    live_raftkv_config()
}

fn sweep<M: ChaosProtocol + Wire + Send>(
    cfg: fn() -> M::Config,
    scenario_fn: fn(&ChaosTopology, &ChaosTimeline) -> ChaosScenario,
) {
    let topo = live_topology();
    let t = live_timeline();
    for seed in seeds() {
        let scenario = scenario_fn(&topo, &t);
        let mut cluster = LiveCluster::<M>::spawn(&topo, cfg(), &live_history_config(), seed);
        let applied = cluster.run_plan(&scenario.plan, t.run_for);
        assert!(
            !applied.is_empty(),
            "{} / {}: no fault was applied",
            M::NAME,
            scenario.name
        );
        let outcome = cluster.shutdown();
        let report = outcome.verdict(t.converge_after(), &(scenario.exempt)(M::NAME));
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
            outcome.flight_dump(40)
        );
        assert!(
            report.ops_ok > 20,
            "{} / {} / seed {:#x}: suspiciously little progress ({} ops)
{}",
            M::NAME,
            scenario.name,
            seed,
            report.ops_ok,
            outcome.flight_dump(40)
        );
    }
}

#[test]
fn live_canopus_superleaf_partition() {
    sweep::<CanopusMsg>(canopus, superleaf_partition);
}

#[test]
fn live_canopus_asymmetric_loss() {
    sweep::<CanopusMsg>(canopus, asymmetric_loss);
}

/// The throughput knobs (batching window + 4-deep pipelining) over real
/// sockets, with the same partition scenario and the same verdict bar as
/// the default configuration above.
#[test]
fn live_canopus_batched_superleaf_partition() {
    sweep::<CanopusMsg>(canopus_batched4, superleaf_partition);
}

#[test]
fn live_zab_superleaf_partition() {
    sweep::<ZabMsg>(zab, superleaf_partition);
}

#[test]
fn live_zab_leader_crash_restart() {
    sweep::<ZabMsg>(zab, leader_crash_mid_round);
}

#[test]
fn live_zab_asymmetric_loss() {
    sweep::<ZabMsg>(zab, asymmetric_loss);
}

#[test]
fn live_raftkv_leader_crash_restart() {
    sweep::<RaftKvMsg>(raftkv, leader_crash_mid_round);
}
