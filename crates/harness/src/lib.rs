//! # canopus-harness — experiment orchestration
//!
//! Builds full protocol deployments (Canopus, EPaxos, the ZooKeeper model)
//! on the topology-aware simulator, drives them with the paper's client
//! model, and implements the evaluation methodology of §8.1: geometric
//! load ladders to the 10 ms latency knee for maximum throughput, and
//! representative latency at 70 % of that maximum. The `canopus-bench`
//! binaries regenerate every table and figure from these pieces.

#![warn(missing_docs)]

pub mod cluster;
pub mod history;
pub mod live;
pub mod mux;
pub mod protocol;
pub mod raftkv;
pub mod run;
pub mod scenarios;
pub mod spec;
pub mod table;

pub use cluster::{
    build_cluster, canopus_config_for, open_loop_clients, ChaosFabric, Cluster, ClusterObs,
    SilentNode,
};
pub use history::{
    chaos_verdict, chaos_verdict_parts, decode_tag, encode_tag, history_clients, ChaosReport,
    ClientHistory, HistoryClient, HistoryConfig, HistoryOp, CHAOS_FLIGHT_CAP,
};
pub use live::{
    live_canopus_config, live_history_config, live_raft_config, live_raftkv_config, live_time_unit,
    live_timeline, live_topology, live_zab_config, LiveCluster, LiveOutcome, LIVE_FLIGHT_CAP,
    LIVE_TIME_UNIT,
};
pub use mux::{session_op_base, ClientMux};
pub use protocol::{emulation_table_for, ChaosProtocol, Recipe, ShardedConfig};
pub use raftkv::{RaftKvConfig, RaftKvMsg, RaftKvNode, RaftKvStats};
pub use run::{
    deterministic_check, find_max_throughput, latency_at_70pct, run_canopus, run_epaxos, run_zab,
    RunResult, SearchResult, SearchSpec,
};
pub use scenarios::{
    all_scenarios, catalog_fingerprint, cross_shard_atomicity_partition, hot_shard_skew,
    partition_then_crash_restart, sharded_scenarios, ChaosScenario, ChaosTimeline, ChaosTopology,
    CATALOG_VERSION,
};
pub use spec::{DeploymentSpec, LoadSpec, TopoSpec};
pub use table::{fmt_dur, fmt_rate, render_table};
