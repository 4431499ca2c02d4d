//! Live-cluster chaos: the nemesis engine over real TCP sockets.
//!
//! [`LiveCluster`] spawns a protocol deployment on the reactor-backed TCP
//! transport (`canopus_net::tcp`), plus one [`HistoryClient`] per node —
//! all of them multiplexed onto a single extra transport node by a
//! [`ClientMux`] — every loop sharing one [`FaultRules`] table.
//! [`LiveCluster::run_plan`] then replays the *same* [`FaultPlan`]s the
//! simulator suite uses, on the wall clock:
//!
//! * network actions (cuts, isolation, loss) go to
//!   [`FaultRules::apply`], whose shared `FaultTable` the transport
//!   consults on its send and receive paths — the same table the
//!   simulator's `FaultFabric` routes through;
//! * `Crash` stops the node's loop (keeping its final process state) and
//!   marks it crashed in the rules so peers drop its traffic;
//! * `Restart` rebuilds a replacement process through the protocol's
//!   [`ChaosProtocol`] recipe — the same policies the simulator uses
//!   (ZAB resyncs as a recovering follower, Raft KV recovers its durable
//!   state, EPaxos re-installs a crash-stop silent node) — and respawns
//!   the loop on the *same* listening socket (kept alive across
//!   the crash via `TcpListener::try_clone`, so no rebind race).
//!
//! After the run, [`LiveCluster::shutdown`] collects every final process
//! and [`LiveOutcome::verdict`] runs the shared chaos verdict: agreement,
//! client FIFO, read validity, and post-heal convergence. The
//! linearizability *timing* check is skipped — live nodes measure time
//! from their own spawn instants, and cross-node clock-base skew makes
//! read/write interval comparisons unsound (see
//! [`crate::history::chaos_verdict_parts`]).
//!
//! # Timing
//!
//! All real-time-sensitive timeouts derive from one value,
//! [`live_time_unit`] (default [`LIVE_TIME_UNIT`], overridable with the
//! `LIVE_TIME_UNIT_MS` environment variable): the simulator's
//! microsecond-scale defaults assume a deterministic scheduler, and on a
//! real OS a descheduled thread would trigger false failovers (PR 1
//! learned this with `examples/live_cluster.rs`; this module centralizes
//! the relaxed values instead of scattering magic numbers).
//!
//! # Canopus crash scenarios
//!
//! Canopus restarts are *not* driven over live sockets yet: the
//! simulator relies on the crashed node being tombstoned before its
//! fresh replacement boots (its failure detector fires in tens of
//! milliseconds of virtual time), while the live failure timeout is
//! deliberately long to avoid false positives — so an amnesiac super-leaf
//! Raft member could rejoin un-tombstoned. Until the rejoin protocol
//! lands (ROADMAP), the live suite exercises Canopus under partitions and
//! loss, and crash/restart under ZAB and Raft KV, whose recovery paths
//! are sound without a failure-detector race.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use canopus::{CanopusConfig, CycleTrigger};
use canopus_net::tcp::{spawn_node_obs, NetObs, PeerMap, TcpNodeHandle};
use canopus_net::{FaultRules, Wire};
use canopus_obs::{EventKind as ObsEvent, Snapshot};
use canopus_raft::RaftConfig;
use canopus_sim::fault::{FaultAction, FaultPlan, NemesisSchedule};
use canopus_sim::{Dur, NodeId, Payload, Process, Time};
use canopus_zab::ZabConfig;

use crate::cluster::ClusterObs;
use crate::history::{
    chaos_verdict_parts, ChaosReport, ClientHistory, HistoryClient, HistoryConfig,
};
use crate::mux::ClientMux;
use crate::protocol::{ChaosProtocol, Recipe};
use crate::raftkv::RaftKvConfig;
use crate::scenarios::{ChaosTimeline, ChaosTopology};

/// Flight-ring capacity per live node: the tail of a run's consensus
/// events, kept small because each live node is a handful of OS threads.
pub const LIVE_FLIGHT_CAP: usize = 256;

/// The default real-time "tick" for live clusters. Every live election,
/// failure, and fetch timeout is a multiple of the unit; runs read it via
/// [`live_time_unit`], which allows an environment override.
pub const LIVE_TIME_UNIT: Dur = Dur::millis(50);

/// One real-time "tick" for live clusters: [`LIVE_TIME_UNIT`] unless the
/// `LIVE_TIME_UNIT_MS` environment variable names a positive whole number
/// of milliseconds — the retune knob for slow or oversubscribed CI
/// machines (e.g. `LIVE_TIME_UNIT_MS=100` doubles every live timeout).
/// Read once; the first call pins the unit for the process lifetime so a
/// cluster can never see two different units.
pub fn live_time_unit() -> Dur {
    static UNIT: OnceLock<Dur> = OnceLock::new();
    *UNIT.get_or_init(|| match std::env::var("LIVE_TIME_UNIT_MS") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Dur::millis(ms),
            _ => {
                eprintln!("ignoring invalid LIVE_TIME_UNIT_MS={raw:?} (want a positive integer)");
                LIVE_TIME_UNIT
            }
        },
        Err(_) => LIVE_TIME_UNIT,
    })
}

/// Raft timing for live sockets: 1-unit heartbeats, 6–12-unit elections
/// (the values PR 1 validated under concurrent stress on loaded hosts).
pub fn live_raft_config() -> RaftConfig {
    let unit = live_time_unit();
    RaftConfig {
        heartbeat_interval: unit,
        election_timeout_min: unit * 6,
        election_timeout_max: unit * 12,
    }
}

/// Canopus configuration for live sockets: self-clocked cycles, 4-unit
/// fetch retries, and a 40-unit (2 s) failure detector so OS scheduling
/// hiccups never look like node failures.
pub fn live_canopus_config() -> CanopusConfig {
    let unit = live_time_unit();
    CanopusConfig {
        trigger: CycleTrigger::OnCommit,
        fetch_timeout: unit * 4,
        failure_timeout: unit * 40,
        tick_interval: unit / 5,
        raft: live_raft_config(),
        record_log: false,
        ..CanopusConfig::default()
    }
}

/// ZAB configuration for live sockets (8-unit election silence).
pub fn live_zab_config(participants: usize) -> ZabConfig {
    let unit = live_time_unit();
    ZabConfig {
        participants,
        heartbeat: unit,
        election_timeout: unit * 8,
        tick_interval: unit / 5,
        ..ZabConfig::default()
    }
}

/// Raft KV configuration for live sockets.
pub fn live_raftkv_config() -> RaftKvConfig {
    let unit = live_time_unit();
    RaftKvConfig {
        raft: live_raft_config(),
        tick_interval: unit / 5,
        ..RaftKvConfig::default()
    }
}

/// The wall-clock chaos schedule matched to the live timeouts: faults at
/// 6 units, heal at 24, convergence probes from 30, clients stop at 40,
/// run ends at 45 (2.25 s per run with the default unit).
pub fn live_timeline() -> ChaosTimeline {
    let unit = live_time_unit();
    ChaosTimeline {
        fault_at: unit * 6,
        heal_at: unit * 24,
        probe_at: unit * 30,
        stop_at: unit * 40,
        run_for: unit * 45,
    }
}

/// The live suite's deployment: two super-leaves of three — the smallest
/// shape where every live protocol tolerates the catalog faults, kept
/// lean because each node is a handful of real OS threads.
pub fn live_topology() -> ChaosTopology {
    ChaosTopology {
        groups: 2,
        per_group: 3,
    }
}

/// History-client parameters matched to [`live_timeline`] — like every
/// other live timeout they derive from [`live_time_unit`], so raising the
/// unit retunes the clients along with the protocols (at the default
/// 50 ms unit: 150 ms op timeout, 6.25 ms gap, 3.125 ms tick — the same
/// scale as the simulator suite's 150/6/3 ms).
pub fn live_history_config() -> HistoryConfig {
    let unit = live_time_unit();
    let t = live_timeline();
    HistoryConfig {
        op_timeout: unit * 3,
        gap: unit / 8,
        tick: unit / 16,
        probe_at: Time::ZERO + t.probe_at,
        stop_at: Time::ZERO + t.stop_at,
        ..HistoryConfig::default()
    }
}

struct LiveSlot<M: Payload> {
    id: NodeId,
    /// Keeps the listening socket alive across crash/restart cycles; the
    /// running loop gets a `try_clone` of it.
    listener: TcpListener,
    handle: Option<TcpNodeHandle<M>>,
}

/// A protocol deployment plus its history clients on loopback TCP, with
/// runtime fault injection.
pub struct LiveCluster<M: ChaosProtocol + Wire + Send> {
    seed: u64,
    start: Instant,
    rules: Arc<FaultRules>,
    peers: PeerMap,
    nodes: Vec<LiveSlot<M>>,
    /// The single transport node hosting every history client (sessions
    /// keep their classic virtual ids `n..2n` inside the [`ClientMux`]).
    mux: LiveSlot<M>,
    /// Final states of currently-crashed nodes (fed to the restart
    /// policy, mirroring `Simulation::take_crashed`).
    down: BTreeMap<NodeId, Box<dyn Process<M>>>,
    ever_crashed: BTreeSet<NodeId>,
    /// Builds every node and its restart replacement; holds the nodes'
    /// enabled observability hubs.
    recipe: Recipe<M>,
}

impl<M: ChaosProtocol + Wire + Send> LiveCluster<M> {
    /// Binds one protocol node per slot of `topo` plus one client-mux
    /// node on loopback ephemeral ports and spawns every loop. Nodes are
    /// built from `M`'s recipe with `cfg` and `seed`; the mux hosts `n`
    /// [`HistoryClient`] sessions (virtual ids `n..2n`, each targeting its
    /// co-indexed node) behind a single listener — the peer map points
    /// every virtual client id at that listener, so replies multiplex
    /// over one connection per node.
    ///
    /// Every protocol node gets an enabled hub ([`LIVE_FLIGHT_CAP`]-event
    /// flight ring + registry) wired into both its process and its
    /// transport (per-peer traffic, flush sizes, queue depth).
    pub fn spawn(topo: &ChaosTopology, cfg: M::Config, hcfg: &HistoryConfig, seed: u64) -> Self {
        let n = topo.node_count();
        let recipe = Recipe::new(
            topo.super_leaves(),
            cfg,
            seed,
            ClusterObs::on(LIVE_FLIGHT_CAP),
        );
        let rules = Arc::new(FaultRules::new(seed));
        let mut peers = PeerMap::new();
        let bind = |id: NodeId, peers: &mut PeerMap| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            peers.insert(id, listener.local_addr().expect("local addr"));
            listener
        };
        let node_listeners: Vec<TcpListener> =
            (0..n).map(|i| bind(NodeId(i as u32), &mut peers)).collect();
        // One listener carries every client session: all virtual client
        // ids map to the mux's address, so each protocol node keeps a
        // single connection to the whole client population.
        let mux_id = NodeId(n as u32);
        let mux_listener = bind(mux_id, &mut peers);
        let mux_addr = peers.get(mux_id).expect("mux addr");
        for i in 1..n {
            peers.insert(NodeId((n + i) as u32), mux_addr);
        }

        let mut cluster = LiveCluster {
            seed,
            start: Instant::now(),
            rules,
            peers,
            nodes: Vec::with_capacity(n),
            mux: LiveSlot {
                id: mux_id,
                listener: mux_listener,
                handle: None,
            },
            down: BTreeMap::new(),
            ever_crashed: BTreeSet::new(),
            recipe,
        };
        for (i, listener) in node_listeners.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let process = M::node(id, &cluster.recipe);
            let handle = cluster.launch(id, &listener, process);
            cluster.nodes.push(LiveSlot {
                id,
                listener,
                handle: Some(handle),
            });
        }
        let mux = ClientMux::<M>::new(n, n as u32, hcfg, seed);
        let handle = cluster.launch(mux_id, &cluster.mux.listener, Box::new(mux));
        cluster.mux.handle = Some(handle);
        cluster
    }

    fn launch(
        &self,
        id: NodeId,
        listener: &TcpListener,
        process: Box<dyn Process<M>>,
    ) -> TcpNodeHandle<M> {
        let listener = listener.try_clone().expect("clone listener");
        // The client mux has no hub; its transport stays unobserved.
        let net_obs = if id == self.mux.id {
            NetObs::disabled()
        } else {
            NetObs::new(self.recipe.hubs(id)[0].clone())
        };
        spawn_node_obs(
            id,
            process,
            listener,
            self.peers.clone(),
            self.seed.wrapping_add(id.0 as u64),
            Arc::clone(&self.rules),
            net_obs,
        )
    }

    /// Wall-clock time since the cluster started, as a [`Time`].
    pub fn now(&self) -> Time {
        Time::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// The shared fault table (e.g. for ad-hoc faults outside a plan).
    pub fn rules(&self) -> &Arc<FaultRules> {
        &self.rules
    }

    /// Protocol node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|s| s.id).collect()
    }

    /// Replays `plan` against the live cluster over the next `horizon` of
    /// wall-clock time, sleeping between actions and applying each at its
    /// scheduled instant (±OS scheduling). Returns the applied timeline.
    pub fn run_plan(&mut self, plan: &FaultPlan, horizon: Dur) -> Vec<(Time, FaultAction)> {
        let anchor = self.now();
        let end = anchor + horizon;
        let mut sched = NemesisSchedule::new(plan, anchor, horizon);
        loop {
            let target = match sched.next_at() {
                Some(at) if at <= end => at,
                _ => break,
            };
            self.sleep_until(target);
            while let Some((at, action)) = sched.pop_due(self.now()) {
                match &action {
                    FaultAction::Crash(n) => {
                        if self.crash(*n) {
                            self.ever_crashed.insert(*n);
                        }
                    }
                    FaultAction::Restart(n) => self.restart(*n),
                    net => self.rules.apply(net),
                }
                sched.record(at, action);
            }
        }
        self.sleep_until(end);
        sched.applied().to_vec()
    }

    fn sleep_until(&self, at: Time) {
        let now = self.now();
        if at > now {
            std::thread::sleep(std::time::Duration::from_nanos(
                at.saturating_since(now).as_nanos(),
            ));
        }
    }

    /// Crash-stops a live node: peers start dropping its traffic, then its
    /// loop is stopped and its final state kept for the restart policy.
    /// Returns `false` if the node was already down.
    fn crash(&mut self, id: NodeId) -> bool {
        let slot = &mut self.nodes[id.0 as usize];
        let Some(handle) = slot.handle.take() else {
            return false;
        };
        // Mark first so in-flight traffic is dropped while the loop winds
        // down — the closest live analogue of an instantaneous crash.
        self.rules.set_crashed(id, true);
        self.recipe.hubs(id)[0].event(self.now().as_nanos(), ObsEvent::Crash);
        let process = handle.stop();
        self.down.insert(id, process);
        true
    }

    /// Restarts a crashed node through the protocol's restart policy, on
    /// the same listening socket. No-op if the node is up.
    fn restart(&mut self, id: NodeId) {
        if self.nodes[id.0 as usize].handle.is_some() {
            return;
        }
        let old = self.down.remove(&id);
        let process = M::restart(id, old, &self.recipe);
        self.recipe.hubs(id)[0].event(self.now().as_nanos(), ObsEvent::Restart);
        let listener = self.nodes[id.0 as usize]
            .listener
            .try_clone()
            .expect("clone listener");
        // Clear the crash mark before the replacement loop starts, or its
        // first sends and receives race the still-set mark and get
        // dropped (the mirror of crash()'s mark-before-stop ordering).
        self.rules.set_crashed(id, false);
        let handle = self.launch(id, &listener, process);
        self.nodes[id.0 as usize].handle = Some(handle);
    }

    /// Stops every loop (the client mux first, so no new operations race
    /// the teardown) and returns the final processes for the verdict. The
    /// mux is unpacked into its sessions, so the outcome keeps its
    /// one-entry-per-client shape.
    pub fn shutdown(mut self) -> LiveOutcome<M> {
        let n = self.nodes.len();
        let handle = self.mux.handle.take().expect("mux is never crashed");
        let mux = handle
            .stop()
            .into_any()
            .downcast::<ClientMux<M>>()
            .expect("client mux");
        let clients: Vec<(NodeId, NodeId, Box<dyn Process<M>>)> = mux
            .into_sessions()
            .into_iter()
            .enumerate()
            .map(|(i, session)| {
                (
                    NodeId((n + i) as u32),
                    NodeId(i as u32),
                    Box::new(session) as Box<dyn Process<M>>,
                )
            })
            .collect();
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for slot in &mut self.nodes {
            match slot.handle.take() {
                Some(handle) => nodes.push((slot.id, handle.stop(), true)),
                None => {
                    let process = self
                        .down
                        .remove(&slot.id)
                        .expect("crashed node state retained");
                    nodes.push((slot.id, process, false));
                }
            }
        }
        LiveOutcome {
            nodes,
            clients,
            ever_crashed: self.ever_crashed,
            recipe: self.recipe,
        }
    }
}

/// The final state of a live run: every node's and client's process,
/// ready for the chaos verdict.
pub struct LiveOutcome<M: ChaosProtocol> {
    /// `(id, final process, was up at shutdown)` for every protocol node.
    pub nodes: Vec<(NodeId, Box<dyn Process<M>>, bool)>,
    /// `(client id, its node, final process)` for every client.
    pub clients: Vec<(NodeId, NodeId, Box<dyn Process<M>>)>,
    /// Nodes the nemesis crashed at least once.
    pub ever_crashed: BTreeSet<NodeId>,
    /// The deployment's recipe, retained across shutdown so a failing
    /// verdict can still dump flight recorders and collect metrics.
    recipe: Recipe<M>,
}

impl<M: ChaosProtocol> LiveOutcome<M> {
    /// Every node's flight recorder, dumped (`last` events each) into one
    /// string — the panic artifact chaos failures attach.
    pub fn flight_dump(&self, last: usize) -> String {
        self.recipe.flight_dump(last)
    }

    /// Every node's metrics registry, snapshotted: `(node id, snapshot)`.
    pub fn metrics_snapshots(&self) -> Vec<(NodeId, Snapshot)> {
        self.recipe.metrics_snapshots()
    }

    /// Nodes held to the full safety and convergence bar: up at shutdown
    /// and never crashed.
    pub fn trusted_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(id, _, up)| *up && !self.ever_crashed.contains(id))
            .map(|&(id, _, _)| id)
            .collect()
    }

    /// A client's recorded history.
    pub fn client_ops(&self, client: NodeId) -> &[crate::history::HistoryOp] {
        let (_, _, p) = self
            .clients
            .iter()
            .find(|(id, _, _)| *id == client)
            .expect("known client");
        p.as_any()
            .downcast_ref::<HistoryClient<M>>()
            .expect("history client")
            .ops()
    }

    /// Runs the shared chaos verdict over the recovered states: agreement
    /// (global + per-key), client FIFO, read validity, post-heal
    /// convergence, and the protocol's own checks. Linearizability timing
    /// is skipped (no common clock across live nodes).
    pub fn verdict(
        &self,
        converge_after: Time,
        convergence_exempt: &BTreeSet<NodeId>,
    ) -> ChaosReport {
        let trusted_ids = self.trusted_nodes();
        let trusted: Vec<(NodeId, &dyn Any)> = self
            .nodes
            .iter()
            .filter(|(id, _, _)| trusted_ids.contains(id))
            .map(|(id, p, _)| (*id, p.as_any()))
            .collect();
        let clients: Vec<ClientHistory<'_>> = self
            .clients
            .iter()
            .filter(|(_, node, _)| trusted_ids.contains(node))
            .map(|(client, node, p)| ClientHistory {
                node: *node,
                client: *client,
                ops: p
                    .as_any()
                    .downcast_ref::<HistoryClient<M>>()
                    .expect("history client")
                    .ops(),
            })
            .collect();
        chaos_verdict_parts::<M>(
            &trusted,
            &clients,
            converge_after,
            convergence_exempt,
            false,
        )
    }
}
