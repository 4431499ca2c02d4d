//! Wall-clock benchmark of a live Canopus cluster.
//!
//! One process runs the paper's 9-node testbed (three super-leaves of
//! three, a flat LOT) on loopback TCP through the repository's reactor
//! transport, plus one load-generator process attached to `nproc` nodes in
//! distinct super-leaves. Ops are real `Put`/`Get`s: 8-byte keys uniform
//! over one million and 8-byte values. All times are wall-clock.
//!
//! An untraced run reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run wraps every node in the timing
//! shim of [`shim`] and reports the per-layer metrics of
//! [`report::per_layer_defs`]. Either run passes the correctness gate or
//! the benchmark fails: commit and store digests agree on every node (per
//! shard), every `Get` returns nothing or a value issued for its key, and
//! op accounting balances.
//!
//! Metric notes:
//! - Open-loop latency counts from each op's due time, closed-loop
//!   latency from issue; only ops answered inside the window count.
//! - Rates, CPU per op and latency percentiles are medians over the
//!   window's calm seconds: the hypervisor of a shared host steals CPU in
//!   minute-long episodes that would otherwise swamp the program's own
//!   behaviour (see [`report::calm`]). Whole-window values and the steal
//!   of every second are in the info line.
//! - p99 latencies (calm-slice and whole-window, with sample counts and
//!   samples beyond) are reported in the info line, not as gated metrics.
//! - `goodput_ops_s` counts ops answered within [`report::LIMIT_MS`].
//! - `success_frac` is `1 − failed / attempted` over ops due in the
//!   window (a failed op is unanswered after [`run::OP_TIMEOUT`]).
//! - `core.*` handler metrics come from `shard.*` spans on a sharded
//!   workload; `shard.*` metrics treat a plain node as one shard.
//! - `core.ops_per_cycle` counts committed writes per committed cycle.
//! - `trace.overhead_frac` compares `cpu_ms_per_kop` of the traced run
//!   with an untraced run of the same invocation.

pub mod bench;
pub mod gen;
pub mod hist;
pub mod report;
pub mod run;
pub mod shim;
pub mod span;
pub mod sys;
pub mod trace;
