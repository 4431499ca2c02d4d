//! Running experiments and searching for maximum throughput.
//!
//! Reproduces the paper's methodology (§8.1): offered load is increased
//! until the median request completion time exceeds 10 ms; the last point
//! is the system's maximum throughput, and representative latency is
//! reported at 70 % of that maximum.

use canopus::{CanopusConfig, CanopusMsg, CanopusNode};
use canopus_epaxos::{EpaxosConfig, EpaxosMsg, EpaxosNode};
use canopus_sim::Dur;
use canopus_workload::{LatencyRecorder, OpenLoopClient};
use canopus_zab::{ZabConfig, ZabMsg, ZabNode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cluster::{build_cluster, open_loop_clients, Cluster, ClusterObs};
use crate::protocol::ChaosProtocol;
use crate::spec::{DeploymentSpec, LoadSpec};

/// The outcome of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Offered load (requests/second, whole deployment).
    pub offered: f64,
    /// Achieved completion rate over the measured window.
    pub achieved: f64,
    /// Median completion time across all requests.
    pub median: Option<Dur>,
    /// 95th percentile completion time.
    pub p95: Option<Dur>,
    /// Mean completion time.
    pub mean: Option<Dur>,
    /// Median for writes only.
    pub write_median: Option<Dur>,
    /// Median for reads only.
    pub read_median: Option<Dur>,
    /// Whether every protocol node made progress.
    pub healthy: bool,
}

impl RunResult {
    /// Whether this point is below the paper's 10 ms saturation knee and
    /// the system kept up with the offered load.
    ///
    /// The write median is checked separately: in systems that serve reads
    /// locally (ZooKeeper, lease-mode Canopus) a read-heavy mix keeps the
    /// combined median low even after the write path has collapsed, which
    /// would otherwise report absurd "sustained" rates.
    pub fn is_sustainable(&self, limit: Dur) -> bool {
        self.healthy
            && self.achieved >= 0.75 * self.offered
            && self.median.is_some_and(|m| m <= limit)
            && self.write_median.is_none_or(|m| m <= limit * 3)
    }
}

/// Collects the open-loop clients' recorders of a cluster that has run
/// `load` into a [`RunResult`]; `progressed` decides its health.
pub fn collect<M: ChaosProtocol>(
    cluster: &Cluster<M>,
    load: &LoadSpec,
    progressed: impl Fn(&Cluster<M>) -> bool,
) -> RunResult {
    let mut writes = LatencyRecorder::default();
    let mut reads = LatencyRecorder::default();
    let mut rng = SmallRng::seed_from_u64(0xA77E);
    for &c in &cluster.clients {
        let client = cluster.sim.node::<OpenLoopClient<M>>(c);
        writes.merge(&client.writes, &mut rng);
        reads.merge(&client.reads, &mut rng);
    }
    let mut total = writes.clone();
    total.merge(&reads, &mut rng);
    let achieved = total.completed() as f64 / load.duration.as_secs_f64();
    RunResult {
        offered: load.total_rate,
        achieved,
        median: total.median(),
        p95: total.percentile(95.0),
        mean: total.mean(),
        write_median: writes.median(),
        read_median: reads.median(),
        healthy: progressed(cluster),
    }
}

/// Runs a Canopus deployment and measures it.
pub fn run_canopus(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: CanopusConfig,
    seed: u64,
) -> RunResult {
    let mut cluster = build_cluster(
        spec,
        cfg,
        seed,
        open_loop_clients(load, seed),
        ClusterObs::off(),
    );
    cluster.sim.run_for(load.warmup + load.duration);
    collect::<CanopusMsg>(&cluster, load, |c| {
        c.nodes
            .iter()
            .all(|&n| c.sim.node::<CanopusNode>(n).stats().committed_cycles > 0)
    })
}

/// Runs an EPaxos deployment and measures it.
pub fn run_epaxos(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: EpaxosConfig,
    seed: u64,
) -> RunResult {
    let mut cluster = build_cluster(
        spec,
        cfg,
        seed,
        open_loop_clients(load, seed),
        ClusterObs::off(),
    );
    cluster.sim.run_for(load.warmup + load.duration);
    collect::<EpaxosMsg>(&cluster, load, |c| {
        c.nodes
            .iter()
            .all(|&n| c.sim.node::<EpaxosNode>(n).stats().executed_weight > 0)
    })
}

/// Runs a ZooKeeper-model deployment and measures it.
pub fn run_zab(spec: &DeploymentSpec, load: &LoadSpec, cfg: ZabConfig, seed: u64) -> RunResult {
    let mut cluster = build_cluster(
        spec,
        cfg,
        seed,
        open_loop_clients(load, seed),
        ClusterObs::off(),
    );
    cluster.sim.run_for(load.warmup + load.duration);
    collect::<ZabMsg>(&cluster, load, |c| {
        c.nodes
            .iter()
            .any(|&n| c.sim.node::<ZabNode>(n).stats().applied_weight > 0)
    })
}

/// Parameters of the max-throughput search.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// First offered rate tried.
    pub start_rate: f64,
    /// Geometric growth factor between steps.
    pub growth: f64,
    /// The paper's saturation knee.
    pub latency_limit: Dur,
    /// Upper bound on steps.
    pub max_steps: usize,
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec {
            start_rate: 20_000.0,
            growth: 1.6,
            latency_limit: Dur::millis(10),
            max_steps: 14,
        }
    }
}

/// Result of a throughput search: the best sustainable point and the whole
/// measured ladder (for latency-vs-throughput curves).
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The highest sustainable point (§8.1's "maximum throughput").
    pub best: Option<RunResult>,
    /// All measured points, in increasing offered load.
    pub ladder: Vec<RunResult>,
}

impl SearchResult {
    /// Max throughput (achieved rate at the best point), or 0.
    pub fn max_throughput(&self) -> f64 {
        self.best.as_ref().map(|b| b.achieved).unwrap_or(0.0)
    }
}

/// Geometric load ladder until the latency knee (the paper's §8.1 search).
pub fn find_max_throughput(
    mut run: impl FnMut(f64) -> RunResult,
    search: &SearchSpec,
) -> SearchResult {
    let mut ladder = Vec::new();
    let mut best: Option<RunResult> = None;
    let mut rate = search.start_rate;
    for _ in 0..search.max_steps {
        let result = run(rate);
        let sustainable = result.is_sustainable(search.latency_limit);
        ladder.push(result.clone());
        if sustainable {
            best = Some(result);
            rate *= search.growth;
        } else {
            break;
        }
    }
    SearchResult { best, ladder }
}

/// Runs the representative-latency measurement at 70 % of max throughput
/// (the paper reports medians at that operating point).
pub fn latency_at_70pct(max_rate: f64, mut run: impl FnMut(f64) -> RunResult) -> RunResult {
    run(max_rate * 0.7)
}

/// Identity and health check used by tests: same seed twice ⇒ identical
/// measurements (whole-stack determinism).
pub fn deterministic_check(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: CanopusConfig,
    seed: u64,
) -> bool {
    let a = run_canopus(spec, load, cfg.clone(), seed);
    let b = run_canopus(spec, load, cfg, seed);
    a.achieved == b.achieved && a.median == b.median && a.p95 == b.p95
}
