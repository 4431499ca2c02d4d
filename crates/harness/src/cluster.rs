//! Cluster builders: a full protocol deployment plus its clients on the
//! topology-aware simulator.
//!
//! Per the paper's client model (§8.1), every protocol node has clients in
//! its own rack/datacenter; we aggregate them into one open-loop Poisson
//! client process per node, splitting the offered load evenly.
//!
//! Every cluster is built over [`ChaosFabric`] — a [`FaultFabric`] over
//! the Clos topology — so the nemesis engine ([`canopus_sim::fault`]) can
//! partition, impair, and heal any deployment mid-run. With no faults
//! installed the decorator is pass-through and the event schedule is
//! identical to the bare [`ClosFabric`].

use std::collections::BTreeSet;

use canopus::{CanopusConfig, CycleTrigger};
use canopus_net::ClosFabric;
use canopus_obs::{NodeObs, Registry, Snapshot};
use canopus_sim::fault::{FaultAction, FaultPlan, NemesisDriver};
use canopus_sim::{
    impl_process_any, Dur, FaultFabric, NodeConfig, NodeId, Payload, Process, Simulation, Time,
};
use canopus_workload::{OpenLoopClient, OpenLoopConfig, ProtocolMsg};

use crate::protocol::{ChaosProtocol, Recipe};
use crate::spec::{DeploymentSpec, LoadSpec, TopoSpec};

/// The default fabric of every built cluster: faults over the Clos
/// topology.
pub type ChaosFabric = FaultFabric<ClosFabric>;

/// Observability configuration for a cluster build: disabled (the
/// default for benchmarks — every recording is one branch) or enabled
/// with per-node flight rings of `flight_cap` events.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterObs {
    /// Capacity of each node's flight-recorder ring; 0 disables obs.
    pub flight_cap: usize,
}

impl ClusterObs {
    /// Fully disabled: nodes carry inert hubs.
    pub fn off() -> Self {
        ClusterObs { flight_cap: 0 }
    }

    /// Enabled with the given flight-ring capacity per node.
    pub fn on(flight_cap: usize) -> Self {
        ClusterObs { flight_cap }
    }

    pub(crate) fn hub(&self, node: u32) -> NodeObs {
        if self.flight_cap == 0 {
            NodeObs::disabled()
        } else {
            NodeObs::enabled(node, self.flight_cap)
        }
    }

    fn net_registry(&self) -> Registry {
        if self.flight_cap == 0 {
            Registry::disabled()
        } else {
            Registry::new()
        }
    }
}

/// A process that ignores every message: stands in for a replica whose
/// protocol has no crash-recovery path (EPaxos, whose paper-scoped
/// implementation is failure-free), so a "restarted" node behaves as
/// crash-stop instead of silently corrupting quorum intersection.
pub struct SilentNode<M> {
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> Default for SilentNode<M> {
    fn default() -> Self {
        SilentNode {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M: Payload> Process<M> for SilentNode<M> {
    fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut canopus_sim::Context<'_, M>) {}
    impl_process_any!();
}

/// A built cluster: the simulation, the protocol node ids, the client
/// process ids (parallel to the node list), and the recipe the nemesis
/// rebuilds a crashed node from when a fault plan revives it.
pub struct Cluster<M: ChaosProtocol> {
    /// The simulation, ready to run.
    pub sim: Simulation<M, ChaosFabric>,
    /// Protocol node ids (dense, starting at 0).
    pub nodes: Vec<NodeId>,
    /// One aggregated client per node, in node order.
    pub clients: Vec<NodeId>,
    /// Builds every protocol node and its restart replacement; holds the
    /// nodes' observability hubs (inert unless built with
    /// [`ClusterObs::on`]).
    recipe: Recipe<M>,
    ever_crashed: BTreeSet<NodeId>,
    /// The registry the simulator's network layer counts sent messages
    /// and bytes into (by wire kind).
    net_registry: Registry,
}

impl<M: ChaosProtocol> Cluster<M> {
    /// Applies `plan` while running the simulation for `horizon` of
    /// virtual time from now, restarting crashed nodes through the
    /// protocol's restart policy. Returns the concrete action timeline
    /// that was applied.
    pub fn apply_plan(&mut self, plan: &FaultPlan, horizon: Dur) -> Vec<(Time, FaultAction)> {
        let mut driver = NemesisDriver::new(plan, self.sim.now(), horizon);
        let until = self.sim.now() + horizon;
        let recipe = &self.recipe;
        driver.run(&mut self.sim, until, &mut |id, old| {
            M::restart(id, old, recipe)
        });
        self.ever_crashed
            .extend(driver.ever_crashed().iter().copied());
        driver.applied().to_vec()
    }

    /// Nodes the nemesis has crashed at least once.
    pub fn ever_crashed(&self) -> &BTreeSet<NodeId> {
        &self.ever_crashed
    }

    /// Protocol nodes that are alive and were never crashed — the set the
    /// chaos verdict holds to the full safety and convergence bar.
    pub fn trusted_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| self.sim.is_alive(n) && !self.ever_crashed.contains(&n))
            .collect()
    }

    /// The registry the simulated network counts into.
    pub fn net_registry(&self) -> &Registry {
        &self.net_registry
    }

    /// Every node's flight recorder, dumped (`last` events each) into one
    /// string — the panic artifact chaos failures attach.
    pub fn flight_dump(&self, last: usize) -> String {
        self.recipe.flight_dump(last)
    }

    /// One merged snapshot: every node's registry plus the network
    /// registry, aggregated by metric name.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.net_registry.snapshot();
        for hub in self.recipe.all_hubs() {
            snap.merge(&hub.metrics.snapshot());
        }
        snap
    }
}

/// Tuning knobs common to all protocol builders.
fn client_node_config() -> NodeConfig {
    // Client machines are dedicated (15 machines for 180 clients in the
    // paper); don't let them become the bottleneck.
    NodeConfig {
        base_msg_cost: Dur::nanos(200),
        per_send_cost: Dur::nanos(100),
        lanes: 1,
    }
}

/// Builds `M`'s deployment over `spec` on the simulator: one protocol
/// node per slot, built from the protocol's [`ChaosProtocol`] recipe
/// with `cfg` and `seed`, plus one client per node in the same rack.
/// `make_client(i, n, target)` builds the client co-located with node `i`
/// of `n` ([`open_loop_clients`], [`crate::history::history_clients`]).
///
/// `obs` attaches observability hubs to every node and a registry to the
/// simulated network. Recording is observation-only — it never touches
/// the RNG, the event queue, or the trace hash, so enabling obs cannot
/// change an execution.
pub fn build_cluster<M: ChaosProtocol>(
    spec: &DeploymentSpec,
    cfg: M::Config,
    seed: u64,
    mut make_client: impl FnMut(usize, usize, NodeId) -> Box<dyn Process<M>>,
    obs: ClusterObs,
) -> Cluster<M> {
    let recipe = Recipe::<M>::new(spec.super_leaves(), cfg, seed, obs);
    let node_cfg = NodeConfig::default().with_lanes(M::lanes(&recipe.cfg));
    let mut topo = spec.build_topology();
    let n = spec.node_count();
    // Place one client per protocol node in the same rack.
    let mut client_slots = Vec::with_capacity(n);
    for i in 0..n {
        let rack = topo.rack_of(NodeId(i as u32));
        client_slots.push(topo.add_node(rack));
    }
    let fabric = FaultFabric::new(ClosFabric::new(topo));
    let mut sim = Simulation::new(fabric, seed);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let id = sim.add_node_with(M::node(NodeId(i as u32), &recipe), node_cfg);
        assert_eq!(id, NodeId(i as u32), "node ids must match topology");
        nodes.push(id);
    }
    let mut clients = Vec::with_capacity(n);
    for (i, &slot) in client_slots.iter().enumerate() {
        let id = sim.add_node_with(make_client(i, n, nodes[i]), client_node_config());
        assert_eq!(id, slot, "client ids must match topology");
        clients.push(id);
    }
    let net_registry = obs.net_registry();
    sim.set_net_metrics(net_registry.clone());
    Cluster {
        sim,
        nodes,
        clients,
        recipe,
        ever_crashed: BTreeSet::new(),
        net_registry,
    }
}

/// The paper's client model (§8.1): one open-loop Poisson client per
/// protocol node, splitting `load`'s offered rate evenly.
pub fn open_loop_clients<M>(
    load: &LoadSpec,
    seed: u64,
) -> impl FnMut(usize, usize, NodeId) -> Box<dyn Process<M>>
where
    M: Payload + ProtocolMsg,
    OpenLoopClient<M>: Process<M>,
{
    let load = load.clone();
    move |i, n, target| {
        let cfg = OpenLoopConfig {
            rate_per_sec: load.total_rate / n as f64,
            write_ratio: load.write_ratio,
            tick: Dur::millis(1),
            op_bytes: 16,
            warmup: load.warmup,
            max_batch: load.client_max_batch,
            shards: load.shards,
            shard_theta: load.shard_theta,
        };
        Box::new(OpenLoopClient::<M>::new(
            target,
            cfg,
            seed ^ (0xC11E47 + i as u64),
        ))
    }
}

/// The default Canopus configuration for a deployment: self-clocked cycles
/// in a single datacenter, pipelined 5 ms cycles across datacenters (§8.2).
pub fn canopus_config_for(spec: &DeploymentSpec) -> CanopusConfig {
    match spec.topo {
        TopoSpec::SingleDc { .. } => CanopusConfig {
            trigger: CycleTrigger::OnCommit,
            fetch_timeout: Dur::millis(25),
            failure_timeout: Dur::millis(60),
            raft: canopus_raft::RaftConfig {
                heartbeat_interval: Dur::millis(5),
                election_timeout_min: Dur::millis(25),
                election_timeout_max: Dur::millis(50),
            },
            record_log: false,
            ..CanopusConfig::default()
        },
        TopoSpec::MultiDc { .. } => CanopusConfig {
            record_log: false,
            ..CanopusConfig::wide_area()
        },
    }
}
