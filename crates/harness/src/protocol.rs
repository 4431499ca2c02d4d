//! One recipe per protocol.
//!
//! [`ChaosProtocol`] is implemented once per message type — Canopus, the
//! shard-parallel Canopus engine, EPaxos, the ZooKeeper model, and Raft
//! KV — and holds everything the harness needs to know about that
//! protocol: its configuration type, how a node is built and restarted,
//! how many CPU lanes it runs on, and how the chaos verdict reads a
//! replica's committed state. The simulator builder
//! ([`crate::cluster::build_cluster`]) and the live TCP cluster
//! ([`crate::live::LiveCluster::spawn`]) both build every node from a
//! [`Recipe`], so a restart policy is written exactly once.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use canopus::{
    CanopusConfig, CanopusMsg, CanopusNode, CommittedOp, EmulationTable, LotShape, ShardEngine,
    ShardMsg,
};
use canopus_epaxos::{EpaxosConfig, EpaxosMsg, EpaxosNode};
use canopus_kv::{check_agreement, Key};
use canopus_obs::{NodeObs, Snapshot};
use canopus_sim::{NodeId, Process, Time};
use canopus_workload::ProtocolMsg;
use canopus_zab::{ZabConfig, ZabMsg, ZabNode};

use crate::cluster::{ClusterObs, SilentNode};
use crate::raftkv::{RaftKvConfig, RaftKvMsg, RaftKvNode};

/// A protocol the harness can deploy, fault, restart, and judge.
///
/// Extraction takes the replica's process as `&dyn Any` so the same
/// verdict runs over a simulated cluster's nodes *and* over the final
/// processes recovered from a live TCP cluster ([`crate::live`]).
pub trait ChaosProtocol: ProtocolMsg + Sized + 'static {
    /// Short protocol name for reports.
    const NAME: &'static str;
    /// Whether the protocol's read path promises linearizability (the
    /// ZooKeeper model only promises sequential consistency).
    const LINEARIZABLE_READS: bool;
    /// The protocol's tuning.
    type Config: Clone + 'static;

    /// CPU lanes per node — one per independently committing pipeline.
    /// Each lane also gets its own observability hub.
    fn lanes(_cfg: &Self::Config) -> u32 {
        1
    }

    /// The flight-recorder tag of lane `lane` on node `node`.
    fn hub_tag(node: u32, _lane: u32) -> u32 {
        node
    }

    /// Builds node `id` as it first boots.
    fn node(id: NodeId, recipe: &Recipe<Self>) -> Box<dyn Process<Self>>;

    /// The restart policy: builds the replacement for crashed node `id`.
    /// `old` is the crashed process when it was retained, so protocols
    /// with durable state can model recovery. Defaults to a fresh node.
    fn restart(
        id: NodeId,
        _old: Option<Box<dyn Process<Self>>>,
        recipe: &Recipe<Self>,
    ) -> Box<dyn Process<Self>> {
        Self::node(id, recipe)
    }

    /// Per-key committed write order at a replica, as
    /// `(client, op_id, local apply/commit time)`.
    fn write_records(process: &dyn Any) -> BTreeMap<Key, Vec<(NodeId, u64, Time)>>;

    /// The full committed order at a replica as `(client, op_id)` pairs,
    /// for protocols with a total order (`None` where only per-key order
    /// is defined, i.e. EPaxos).
    fn global_log(process: &dyn Any) -> Option<Vec<(NodeId, u64)>>;

    /// Protocol-specific safety checks over the trusted replicas, run by
    /// every verdict after the shared ones. None by default.
    fn verdict_extras(_trusted: &[(NodeId, &dyn Any)]) -> Vec<String> {
        Vec::new()
    }
}

/// Everything needed to build — and rebuild after a crash — any node of
/// one deployment.
pub struct Recipe<M: ChaosProtocol> {
    /// The super-leaves (racks/datacenters), each a list of node ids;
    /// ids are dense from 0.
    pub groups: Vec<Vec<NodeId>>,
    /// The protocol configuration.
    pub cfg: M::Config,
    /// The run seed.
    pub seed: u64,
    /// Per node, one observability hub per lane.
    hubs: Vec<Vec<NodeObs>>,
}

impl<M: ChaosProtocol> Recipe<M> {
    /// A recipe whose hubs follow `obs`.
    pub(crate) fn new(
        groups: Vec<Vec<NodeId>>,
        cfg: M::Config,
        seed: u64,
        obs: ClusterObs,
    ) -> Self {
        let n = groups.iter().map(Vec::len).sum::<usize>() as u32;
        let lanes = M::lanes(&cfg);
        let hubs = (0..n)
            .map(|node| (0..lanes).map(|l| obs.hub(M::hub_tag(node, l))).collect())
            .collect();
        Recipe {
            groups,
            cfg,
            seed,
            hubs,
        }
    }

    /// Every protocol node id, in order.
    pub fn members(&self) -> Vec<NodeId> {
        self.groups.concat()
    }

    /// Node `id`'s hubs, one per lane.
    pub fn hubs(&self, id: NodeId) -> &[NodeObs] {
        &self.hubs[id.0 as usize]
    }

    /// Every hub, node-major.
    pub(crate) fn all_hubs(&self) -> impl Iterator<Item = &NodeObs> {
        self.hubs.iter().flatten()
    }

    /// Every node's flight recorder, dumped (`last` events each) into one
    /// string — the panic artifact chaos failures attach.
    pub(crate) fn flight_dump(&self, last: usize) -> String {
        self.all_hubs().map(|h| h.flight.dump_last(last)).collect()
    }

    /// Every node's metrics, snapshotted and merged across its lanes:
    /// `(node id, snapshot)`.
    pub(crate) fn metrics_snapshots(&self) -> Vec<(NodeId, Snapshot)> {
        self.hubs
            .iter()
            .enumerate()
            .map(|(i, lanes)| {
                let mut snap = Snapshot::default();
                for hub in lanes {
                    snap.merge(&hub.metrics.snapshot());
                }
                (NodeId(i as u32), snap)
            })
            .collect()
    }
}

/// The emulation table for a deployment: one super-leaf per group.
pub fn emulation_table_for(groups: &[Vec<NodeId>]) -> EmulationTable {
    EmulationTable::new(LotShape::flat(groups.len() as u16), groups.to_vec())
}

// ---------------------------------------------------------------------
// Canopus
// ---------------------------------------------------------------------

/// Folds one Canopus node's committed log into per-key write records
/// (shared by the plain and sharded extractions — a sharded engine merges
/// this across every hosted LOT instance).
fn canopus_write_records_into(n: &CanopusNode, out: &mut BTreeMap<Key, Vec<(NodeId, u64, Time)>>) {
    for cc in n.committed_log() {
        for set in &cc.sets {
            for op in &set.ops {
                match op {
                    CommittedOp::Put {
                        client, op_id, key, ..
                    } => {
                        out.entry(*key).or_default().push((*client, *op_id, cc.at));
                    }
                    CommittedOp::MultiPut {
                        client,
                        op_id,
                        keys,
                    } => {
                        for key in keys {
                            out.entry(*key).or_default().push((*client, *op_id, cc.at));
                        }
                    }
                    CommittedOp::Synthetic { .. } => {}
                }
            }
        }
    }
}

/// One Canopus node's total committed order as `(client, op_id)` pairs.
fn canopus_global_log(n: &CanopusNode) -> Vec<(NodeId, u64)> {
    n.committed_log()
        .iter()
        .flat_map(|cc| {
            cc.sets.iter().flat_map(|s| {
                s.ops.iter().map(|op| match *op {
                    CommittedOp::Put { client, op_id, .. }
                    | CommittedOp::Synthetic { client, op_id, .. }
                    | CommittedOp::MultiPut { client, op_id, .. } => (client, op_id),
                })
            })
        })
        .collect()
}

/// A restarted Canopus node comes back as a fresh process; the survivors'
/// tombstone machinery keeps it excluded (crash-stop rejoin is a ROADMAP
/// item), which is safe but means its clients see no further progress.
impl ChaosProtocol for CanopusMsg {
    const NAME: &'static str = "canopus";
    const LINEARIZABLE_READS: bool = true;
    type Config = CanopusConfig;

    fn node(id: NodeId, r: &Recipe<Self>) -> Box<dyn Process<Self>> {
        Box::new(
            CanopusNode::new(id, emulation_table_for(&r.groups), r.cfg.clone(), r.seed)
                .with_obs(r.hubs(id)[0].clone()),
        )
    }

    fn write_records(process: &dyn Any) -> BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        let mut out = BTreeMap::new();
        canopus_write_records_into(
            process.downcast_ref::<CanopusNode>().expect("canopus node"),
            &mut out,
        );
        out
    }

    fn global_log(process: &dyn Any) -> Option<Vec<(NodeId, u64)>> {
        let n = process.downcast_ref::<CanopusNode>().expect("canopus node");
        Some(canopus_global_log(n))
    }
}

// ---------------------------------------------------------------------
// Shard-parallel Canopus
// ---------------------------------------------------------------------

/// Configuration of a shard-parallel Canopus deployment.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// The configuration every shard's LOT instance runs.
    pub canopus: CanopusConfig,
    /// LOT instances per node (at least 1).
    pub shards: u16,
}

/// Every node hosts `shards` independent LOT instances behind one
/// transport identity ([`ShardEngine`]), with one CPU lane per shard so
/// the pipelines commit concurrently. A restarted node comes back as a
/// fresh engine (the survivors' per-shard tombstone machinery keeps it
/// excluded, exactly as for plain Canopus).
impl ChaosProtocol for ShardMsg {
    const NAME: &'static str = "canopus_sharded";
    const LINEARIZABLE_READS: bool = true;
    type Config = ShardedConfig;

    fn lanes(cfg: &ShardedConfig) -> u32 {
        u32::from(cfg.shards.max(1))
    }

    /// Flight events are tagged `node * 256 + shard`, which keeps
    /// per-shard streams distinguishable in a failure dump.
    fn hub_tag(node: u32, lane: u32) -> u32 {
        node * 256 + lane
    }

    fn node(id: NodeId, r: &Recipe<Self>) -> Box<dyn Process<Self>> {
        let hubs = r.hubs(id);
        Box::new(
            ShardEngine::new(
                id,
                emulation_table_for(&r.groups),
                r.cfg.canopus.clone(),
                r.cfg.shards,
                r.seed,
            )
            .with_obs(|s| hubs[s as usize].clone()),
        )
    }

    /// Per-key records merged across every hosted shard: keys are
    /// disjoint across shards (the router is a pure function of the key),
    /// so the merge never interleaves two shards' orders on one key.
    fn write_records(process: &dyn Any) -> BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        let e = process.downcast_ref::<ShardEngine>().expect("shard engine");
        let mut out = BTreeMap::new();
        for s in 0..e.shard_count() {
            canopus_write_records_into(e.shard(s), &mut out);
        }
        out
    }

    /// No cross-shard total order is promised — each shard totally orders
    /// its own traffic; the verdict extras check per-shard agreement.
    fn global_log(_process: &dyn Any) -> Option<Vec<(NodeId, u64)>> {
        None
    }

    fn verdict_extras(trusted: &[(NodeId, &dyn Any)]) -> Vec<String> {
        sharded_verdict_extras(trusted)
    }
}

/// The sharding-specific safety checks: per-shard total-order agreement
/// (the sharded engine promises a total order *within* each shard, not
/// across them), key→shard routing stability (every committed key lives
/// on the shard the router maps it to — a drifting hash would silently
/// split a key's history), and cross-shard atomicity (a multi-key
/// transaction's parts land on every trusted replica all-or-nothing).
fn sharded_verdict_extras(trusted: &[(NodeId, &dyn Any)]) -> Vec<String> {
    let mut violations = Vec::new();
    let engines: Vec<(NodeId, &ShardEngine)> = trusted
        .iter()
        .map(|&(n, p)| (n, p.downcast_ref::<ShardEngine>().expect("shard engine")))
        .collect();
    let Some(&(_, first)) = engines.first() else {
        return violations;
    };
    let router = first.router();

    // Per-shard agreement: each shard's log is a totally ordered
    // mini-Canopus; all trusted replicas hosting it must agree on its
    // prefix.
    let most = engines
        .iter()
        .map(|(_, e)| e.shard_count())
        .max()
        .unwrap_or(0);
    for s in 0..most {
        let hosts: Vec<(NodeId, &ShardEngine)> = engines
            .iter()
            .copied()
            .filter(|(_, e)| s < e.shard_count())
            .collect();
        let logs: Vec<Vec<(NodeId, u64)>> = hosts
            .iter()
            .map(|&(_, e)| canopus_global_log(e.shard(s)))
            .collect();
        if let Err(d) = check_agreement(&logs) {
            violations.push(format!(
                "shard {s} commit order diverged at index {} (replica {:?})",
                d.index, hosts[d.replica].0
            ));
        }
    }

    // Routing stability + cross-shard transaction key sets, one walk.
    let mut per_engine: Vec<(NodeId, BTreeMap<(NodeId, u64), BTreeSet<Key>>)> = Vec::new();
    let mut full: BTreeMap<(NodeId, u64), BTreeSet<Key>> = BTreeMap::new();
    for &(node, e) in &engines {
        let mut txns: BTreeMap<(NodeId, u64), BTreeSet<Key>> = BTreeMap::new();
        for s in 0..e.shard_count() {
            for cc in e.shard(s).committed_log() {
                for set in &cc.sets {
                    for op in &set.ops {
                        let keys: &[Key] = match op {
                            CommittedOp::Put { key, .. } => std::slice::from_ref(key),
                            CommittedOp::MultiPut { keys, .. } => keys,
                            CommittedOp::Synthetic { .. } => &[],
                        };
                        for &key in keys {
                            if router.shard_of_key(key) != s {
                                violations.push(format!(
                                    "key {key} committed on shard {s} of node {node} but \
                                     routes to shard {}",
                                    router.shard_of_key(key)
                                ));
                            }
                        }
                        if let CommittedOp::MultiPut {
                            client,
                            op_id,
                            keys,
                        } = op
                        {
                            txns.entry((*client, *op_id))
                                .or_default()
                                .extend(keys.iter().copied());
                        }
                    }
                }
            }
        }
        for (t, keys) in &txns {
            full.entry(*t).or_default().extend(keys.iter().copied());
        }
        per_engine.push((node, txns));
    }

    // All-or-nothing: a replica that committed *any* part of a
    // transaction must have committed every part some trusted replica
    // saw. The run leaves 300 ms of virtual drain after clients stop, so
    // a lingering half-applied transaction is a protocol bug, not tail
    // latency.
    for (node, txns) in &per_engine {
        for (t, keys) in txns {
            let want = &full[t];
            if keys != want {
                violations.push(format!(
                    "cross-shard txn (client {:?}, op {}) partially applied on node \
                     {node}: {} of {} keys",
                    t.0,
                    t.1,
                    keys.len(),
                    want.len()
                ));
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------
// EPaxos
// ---------------------------------------------------------------------

/// EPaxos has no recovery protocol (failure-free scope, see the crate
/// docs), so a restarted replica is re-installed as a permanently silent
/// crash-stop process — restarting it with empty state would silently
/// break quorum-intersection memory and could corrupt the dependency
/// graph.
impl ChaosProtocol for EpaxosMsg {
    const NAME: &'static str = "epaxos";
    const LINEARIZABLE_READS: bool = true;
    type Config = EpaxosConfig;

    fn node(id: NodeId, r: &Recipe<Self>) -> Box<dyn Process<Self>> {
        Box::new(EpaxosNode::new(id, r.members(), r.cfg.clone()).with_obs(r.hubs(id)[0].clone()))
    }

    fn restart(
        _id: NodeId,
        _old: Option<Box<dyn Process<Self>>>,
        _r: &Recipe<Self>,
    ) -> Box<dyn Process<Self>> {
        Box::new(SilentNode::<EpaxosMsg>::default())
    }

    fn write_records(process: &dyn Any) -> BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        process
            .downcast_ref::<EpaxosNode>()
            .expect("epaxos node")
            .write_log_timed()
            .clone()
    }

    fn global_log(_process: &dyn Any) -> Option<Vec<(NodeId, u64)>> {
        None // EPaxos only orders interfering commands; per-key order is the contract.
    }
}

// ---------------------------------------------------------------------
// ZooKeeper model
// ---------------------------------------------------------------------

/// A restarted node comes back amnesiac as a *follower*
/// ([`ZabNode::recovering`] — even a former leader must not reclaim
/// leadership with an empty log) and resyncs its full history from the
/// current leader (gap detection + `ResyncRequest`), modelling Zab's
/// synchronization phase.
impl ChaosProtocol for ZabMsg {
    const NAME: &'static str = "zab";
    const LINEARIZABLE_READS: bool = false; // local reads: sequential consistency.
    type Config = ZabConfig;

    fn node(id: NodeId, r: &Recipe<Self>) -> Box<dyn Process<Self>> {
        Box::new(ZabNode::new(id, r.members(), r.cfg.clone()).with_obs(r.hubs(id)[0].clone()))
    }

    fn restart(
        id: NodeId,
        _old: Option<Box<dyn Process<Self>>>,
        r: &Recipe<Self>,
    ) -> Box<dyn Process<Self>> {
        Box::new(
            ZabNode::recovering(id, r.members(), r.cfg.clone()).with_obs(r.hubs(id)[0].clone()),
        )
    }

    fn write_records(process: &dyn Any) -> BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        let mut out: BTreeMap<Key, Vec<(NodeId, u64, Time)>> = BTreeMap::new();
        let n = process.downcast_ref::<ZabNode>().expect("zab node");
        for (key, client, op_id) in n.applied_ops() {
            if let Some(key) = key {
                out.entry(key)
                    .or_default()
                    .push((client, op_id, Time::ZERO));
            }
        }
        out
    }

    fn global_log(process: &dyn Any) -> Option<Vec<(NodeId, u64)>> {
        Some(
            process
                .downcast_ref::<ZabNode>()
                .expect("zab node")
                .applied_log(),
        )
    }
}

// ---------------------------------------------------------------------
// Raft KV
// ---------------------------------------------------------------------

/// A restarted node recovers its durable Raft state (term, vote, log)
/// from the crashed process and rejoins as a follower; without a retained
/// process it boots fresh.
impl ChaosProtocol for RaftKvMsg {
    const NAME: &'static str = "raftkv";
    const LINEARIZABLE_READS: bool = true;
    type Config = RaftKvConfig;

    fn node(id: NodeId, r: &Recipe<Self>) -> Box<dyn Process<Self>> {
        Box::new(
            RaftKvNode::new(id, r.members(), r.cfg.clone(), r.seed).with_obs(r.hubs(id)[0].clone()),
        )
    }

    fn restart(
        id: NodeId,
        old: Option<Box<dyn Process<Self>>>,
        r: &Recipe<Self>,
    ) -> Box<dyn Process<Self>> {
        match old.and_then(|p| p.into_any().downcast::<RaftKvNode>().ok()) {
            Some(node) => {
                Box::new(RaftKvNode::recover(&node, r.seed).with_obs(r.hubs(id)[0].clone()))
            }
            None => Self::node(id, r),
        }
    }

    fn write_records(process: &dyn Any) -> BTreeMap<Key, Vec<(NodeId, u64, Time)>> {
        process
            .downcast_ref::<RaftKvNode>()
            .expect("raftkv node")
            .write_log_timed()
            .clone()
    }

    fn global_log(process: &dyn Any) -> Option<Vec<(NodeId, u64)>> {
        Some(
            process
                .downcast_ref::<RaftKvNode>()
                .expect("raftkv node")
                .applied_log()
                .to_vec(),
        )
    }
}
