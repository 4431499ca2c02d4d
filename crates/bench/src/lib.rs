//! # canopus-bench — regenerating every table and figure
//!
//! One binary per measured artifact of the paper's evaluation:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_latencies` | Table 1 (fabric validation) |
//! | `fig4_single_dc`   | Figure 4(a)+(b): single-DC scaling |
//! | `fig5_zookeeper`   | Figure 5: ZooKeeper vs ZKCanopus |
//! | `fig6_multi_dc`    | Figure 6: multi-DC scaling |
//! | `fig7_write_ratio` | Figure 7: write-ratio sweep |
//! | `ssd_persistence`  | §8.1 SSD-vs-memory logging check |
//! | `throughput_knee`  | batching/pipelining knee sweep → `BENCH_canopus.json` |
//! | `shard_scale`      | shard-parallel scaling → `BENCH_canopus.json` `sharded` |
//! | `micro`            | wall-clock hot-path micro-benchmarks + ingest cost-model check |
//!
//! The figure sweeps accept `--quick` for a reduced ladder (the Table 1
//! and SSD checks are already fast); `throughput_knee` reads
//! `BENCH_SWEEP=smoke|full` instead, and it and `shard_scale` can
//! regression-check a committed baseline with `--check`.

#![warn(missing_docs)]

pub mod json;

use canopus::CanopusConfig;
use canopus_harness::{canopus_config_for, DeploymentSpec};
use canopus_sim::Dur;

/// The batched+pipelined configuration the knee and shard benches run, as
/// (node config, client batch cap): 1 ms super-leaf batching windows with
/// 1000-request overflow, 4 cycles in flight, and clients aggregating up
/// to 1000 requests per wire-level op.
pub fn batched(spec: &DeploymentSpec) -> (CanopusConfig, u32) {
    let mut cfg = canopus_config_for(spec);
    cfg.max_batch = 1000;
    cfg.max_linger = Dur::millis(1);
    cfg.max_pipeline_depth = 4;
    (cfg, 1000)
}
