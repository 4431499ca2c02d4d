//! Cross-crate integration tests: all three protocols driven through the
//! harness on the topology-aware fabric.

use canopus::{CanopusMsg, CanopusNode};
use canopus_epaxos::{EpaxosConfig, EpaxosMsg, EpaxosNode};
use canopus_harness::*;
use canopus_sim::Dur;
use canopus_zab::{ZabConfig, ZabMsg, ZabNode};

fn small_load(rate: f64) -> LoadSpec {
    let mut load = LoadSpec::new(rate);
    load.warmup = Dur::millis(100);
    load.duration = Dur::millis(300);
    load
}

#[test]
fn canopus_single_dc_serves_load_with_agreement() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = small_load(30_000.0);
    let cfg = canopus_config_for(&spec);
    let mut cluster = build_cluster::<CanopusMsg>(
        &spec,
        cfg,
        7,
        open_loop_clients(&load, 7),
        ClusterObs::off(),
    );
    cluster.sim.run_for(load.warmup + load.duration);
    // Everyone committed and digests agree.
    let d0 = cluster.sim.node::<CanopusNode>(cluster.nodes[0]).stats();
    assert!(d0.committed_cycles > 10);
    for &n in &cluster.nodes {
        let s = cluster.sim.node::<CanopusNode>(n).stats();
        assert!(s.committed_cycles > 0, "{n} made no progress");
    }
    // Nodes at the same commit point have the same digest: compare the two
    // with equal committed_cycles.
    let mut by_cycles: std::collections::BTreeMap<u64, u64> = Default::default();
    for &n in &cluster.nodes {
        let s = cluster.sim.node::<CanopusNode>(n).stats();
        if let Some(&d) = by_cycles.get(&s.committed_cycles) {
            assert_eq!(d, s.commit_digest, "digest mismatch at equal commit point");
        } else {
            by_cycles.insert(s.committed_cycles, s.commit_digest);
        }
    }
}

#[test]
fn canopus_multi_dc_latency_tracks_wan_rtt() {
    let spec = DeploymentSpec::paper_multi_dc(3);
    let mut load = small_load(50_000.0);
    load.warmup = Dur::millis(500);
    load.duration = Dur::millis(700);
    let cfg = canopus_config_for(&spec);
    let result = run_canopus(&spec, &load, cfg, 11);
    assert!(result.healthy);
    let median = result.median.expect("measured");
    // Completion is bounded below by ~half the max RTT (the nearest DC's
    // cycle) and above by ~1.5 cycles of the farthest pair.
    let max_rtt = spec.max_rtt();
    assert!(
        median.as_nanos() > max_rtt.as_nanos() / 4,
        "median {median} implausibly fast vs RTT {max_rtt}"
    );
    assert!(
        median.as_nanos() < max_rtt.as_nanos() * 2,
        "median {median} implausibly slow vs RTT {max_rtt}"
    );
}

#[test]
fn epaxos_cluster_converges_under_load() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = small_load(30_000.0);
    let cfg = EpaxosConfig {
        batch_duration: Dur::millis(2),
        ..EpaxosConfig::default()
    };
    let mut cluster = build_cluster::<EpaxosMsg>(
        &spec,
        cfg,
        9,
        open_loop_clients(&load, 9),
        ClusterObs::off(),
    );
    cluster
        .sim
        .run_for(load.warmup + load.duration + Dur::millis(100));
    let w0 = cluster.sim.node::<EpaxosNode>(cluster.nodes[0]).stats();
    assert!(w0.executed_weight > 0);
    assert!(w0.fast_path > 0, "synthetic load takes the fast path");
    assert_eq!(w0.slow_path, 0, "0% interference: no slow path");
}

#[test]
fn zab_observers_scale_reads_leader_caps_writes() {
    let spec = DeploymentSpec::paper_single_dc(9); // 27 nodes
    let load = small_load(60_000.0);
    let cfg = ZabConfig {
        participants: 6,
        ..ZabConfig::default()
    };
    let mut cluster = build_cluster::<ZabMsg>(
        &spec,
        cfg,
        13,
        open_loop_clients(&load, 13),
        ClusterObs::off(),
    );
    cluster
        .sim
        .run_for(load.warmup + load.duration + Dur::millis(200));
    // All writes flow through node 0 (the leader); reads are served all over.
    let mut reads_served_away_from_leader = 0;
    for &n in &cluster.nodes[1..] {
        reads_served_away_from_leader += cluster.sim.node::<ZabNode>(n).stats().reads_served;
    }
    assert!(reads_served_away_from_leader > 0);
    let leader = cluster.sim.node::<ZabNode>(cluster.nodes[0]).stats();
    assert!(leader.applied_weight > 0, "leader applied transactions");
}

#[test]
fn whole_stack_is_deterministic() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let load = small_load(20_000.0);
    let cfg = canopus_config_for(&spec);
    assert!(deterministic_check(&spec, &load, cfg, 31337));
}

#[test]
fn throughput_search_finds_a_knee() {
    let spec = DeploymentSpec::paper_single_dc(3);
    let cfg = canopus_config_for(&spec);
    let search = SearchSpec {
        start_rate: 50_000.0,
        growth: 4.0,
        latency_limit: Dur::millis(10),
        max_steps: 6,
    };
    let result = find_max_throughput(
        |rate| run_canopus(&spec, &small_load(rate), cfg.clone(), 3),
        &search,
    );
    let best = result.best.expect("at least the first point sustains");
    assert!(best.achieved > 40_000.0);
    assert!(!result.ladder.is_empty());
    // The ladder is monotone in offered load.
    for pair in result.ladder.windows(2) {
        assert!(pair[1].offered > pair[0].offered);
    }
}
