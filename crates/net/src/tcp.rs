//! TCP transport: runs the same sans-IO [`Process`] state machines over
//! real sockets, one node-loop thread per node on top of the shared
//! [`reactor`](crate::reactor) pool (one epoll event loop per core).
//!
//! Frames are a 4-byte little-endian length prefix followed by the
//! [`Wire`]-encoded message. The first frame on every connection is a
//! handshake carrying the sender's [`NodeId`]. Outbound connections are
//! established lazily per peer address (and shared between peers at the
//! same address), nonblocking with exponential backoff on failure; like
//! the simulator's fabric, delivery is not guaranteed across a reconnect
//! (consensus protocols tolerate loss by design). Per-peer write queues
//! are bounded: when one fills, the send is shed as loss, counted under
//! `net.drops.backpressure`, and the node's [`SendGate`] is raised so
//! clients can back off.
//!
//! This module exists to make the library deployable, and to demonstrate
//! that the protocol crates are genuinely IO-free: `examples/live_cluster.rs`
//! runs a Canopus group over loopback TCP with zero changes to protocol
//! code, and `examples/live_scale.rs` runs 100+ nodes on one machine —
//! the reactor keeps the thread count proportional to nodes and cores,
//! not connections.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use bytes::Bytes;
use canopus_obs::{Counter, EventKind as ObsEvent, Gauge, Histogram, NodeObs};
use canopus_sim::{Context, Effect, NodeId, Payload, Process, Time, Timer, TimerId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::FaultRules;
use crate::reactor::{DispatchVerdict, NodeIo, SendGate, SendOutcome};
use crate::wire::{Wire, WireError, MAX_FRAME};

/// How long the node loop waits before re-checking the shutdown signal.
const POLL_INTERVAL: StdDuration = StdDuration::from_millis(20);

/// Largest chunk a frame's payload buffer grows by per read. A corrupt
/// (or hostile) length prefix under [`MAX_FRAME`] therefore allocates in
/// proportion to the bytes that actually arrive, never the claimed length
/// up front.
const READ_CHUNK: usize = 64 << 10;

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF.
///
/// A length prefix above [`MAX_FRAME`] is rejected with an
/// `InvalidData` error before any payload allocation, and the payload
/// buffer grows incrementally ([`READ_CHUNK`] at a time) as bytes arrive,
/// so a corrupt prefix can never trigger an unbounded — or even a large
/// speculative — allocation.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Option<Bytes>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::TooLarge(len),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let chunk = (len - payload.len()).min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + chunk, 0);
        stream.read_exact(&mut payload[start..])?;
    }
    Ok(Some(Bytes::from(payload)))
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    Ok(())
}

/// Observability bundle for one TCP node: the node's hub plus a wall-clock
/// origin so reactor-side recordings can stamp flight events without access
/// to the node loop's clock, plus an optional [`SendGate`] surfacing
/// transport backpressure to clients. Clones share the underlying registry,
/// recorder, and gate.
#[derive(Clone, Default)]
pub struct NetObs {
    hub: NodeObs,
    origin: Option<Instant>,
    gate: Option<SendGate>,
}

impl NetObs {
    /// A disabled bundle: every recording below is a single branch.
    pub fn disabled() -> Self {
        NetObs::default()
    }

    /// Wraps a node hub; timestamps count from this call.
    pub fn new(hub: NodeObs) -> Self {
        NetObs {
            hub,
            origin: Some(Instant::now()),
            gate: None,
        }
    }

    /// Attaches a backpressure gate: the transport raises it while any of
    /// the node's peer write queues is at high water, and lowers it once
    /// drained. Clients share the clone and shed or defer load while it
    /// is saturated.
    pub fn with_gate(mut self, gate: SendGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// The attached backpressure gate, if any.
    pub fn gate(&self) -> Option<&SendGate> {
        self.gate.as_ref()
    }

    /// The wrapped hub.
    pub fn hub(&self) -> &NodeObs {
        &self.hub
    }

    fn now_nanos(&self) -> u64 {
        self.origin
            .map(|o| o.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

/// Per-node transport metrics, with per-(peer, kind) counter handles cached
/// so steady-state sends and receives never take the registry lock.
struct NodeNetMetrics {
    obs: NetObs,
    sent: HashMap<(u32, &'static str), (Counter, Counter)>,
    recv: HashMap<(u32, &'static str), (Counter, Counter)>,
    queue_bytes: HashMap<u32, Gauge>,
    fault_drops_send: Counter,
    fault_drops_recv: Counter,
    backpressure_drops: Counter,
    flush_bytes: Histogram,
    no_addr_drops: Counter,
    /// Peers already flagged in the flight recorder, so a saturated or
    /// misconfigured link leaves one event, not one per shed message.
    flagged: HashSet<(u32, &'static str)>,
}

impl NodeNetMetrics {
    fn new(obs: NetObs) -> Self {
        let m = &obs.hub.metrics;
        NodeNetMetrics {
            sent: HashMap::new(),
            recv: HashMap::new(),
            queue_bytes: HashMap::new(),
            fault_drops_send: m.counter("net.drops.fault.send"),
            fault_drops_recv: m.counter("net.drops.fault.recv"),
            backpressure_drops: m.counter("net.drops.backpressure"),
            flush_bytes: m.histogram("net.flush_bytes"),
            no_addr_drops: m.counter("net.drops.no_address"),
            flagged: HashSet::new(),
            obs,
        }
    }

    fn count_sent(&mut self, to: NodeId, kind: &'static str, bytes: u64) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let m = &self.obs.hub.metrics;
        let (msgs, by) = self.sent.entry((to.0, kind)).or_insert_with(|| {
            (
                m.counter(&format!("net.sent.msgs.p{}.{kind}", to.0)),
                m.counter(&format!("net.sent.bytes.p{}.{kind}", to.0)),
            )
        });
        msgs.inc();
        by.add(bytes);
    }

    fn count_recv(&mut self, from: NodeId, kind: &'static str, bytes: u64) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let m = &self.obs.hub.metrics;
        let (msgs, by) = self.recv.entry((from.0, kind)).or_insert_with(|| {
            (
                m.counter(&format!("net.recv.msgs.p{}.{kind}", from.0)),
                m.counter(&format!("net.recv.bytes.p{}.{kind}", from.0)),
            )
        });
        msgs.inc();
        by.add(bytes);
    }

    fn set_queue_bytes(&mut self, to: NodeId, bytes: usize) {
        if !self.obs.hub.is_enabled() {
            return;
        }
        let m = &self.obs.hub.metrics;
        self.queue_bytes
            .entry(to.0)
            .or_insert_with(|| m.gauge(&format!("net.queue_depth.p{}", to.0)))
            .set(bytes as i64);
    }

    /// One flight event per (peer, reason); the counters carry the rate.
    fn flag_drop(&mut self, to: NodeId, reason: &'static str) {
        if self.flagged.insert((to.0, reason)) {
            self.obs.hub.event(
                self.obs.now_nanos(),
                ObsEvent::NetDrop { peer: to.0, reason },
            );
        }
    }
}

/// Static peer address book for a deployment.
#[derive(Clone, Debug, Default)]
pub struct PeerMap {
    addrs: HashMap<NodeId, SocketAddr>,
}

impl PeerMap {
    /// Empty map.
    pub fn new() -> Self {
        PeerMap::default()
    }

    /// Registers `node` at `addr`.
    pub fn insert(&mut self, node: NodeId, addr: SocketAddr) {
        self.addrs.insert(node, addr);
    }

    /// Looks up a peer address.
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.get(&node).copied()
    }
}

/// Handle to one running TCP node.
pub struct TcpNodeHandle<M: Payload> {
    /// The node's id.
    pub id: NodeId,
    /// The address the node listens on.
    pub addr: SocketAddr,
    shutdown: Option<Sender<()>>,
    join: JoinHandle<Box<dyn Process<M>>>,
}

impl<M: Payload> TcpNodeHandle<M> {
    /// Requests shutdown and returns the final process state.
    pub fn stop(mut self) -> Box<dyn Process<M>> {
        if let Some(tx) = self.shutdown.take() {
            let _ = tx.send(());
        }
        self.join.join().expect("node thread panicked")
    }
}

struct TimerEntry {
    at: Time,
    id: TimerId,
    token: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.id.0) == (other.at, other.id.0)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (at, id).
        (other.at, other.id.0).cmp(&(self.at, self.id.0))
    }
}

/// Runs one node over TCP until shutdown; returns the final process state.
///
/// `listener` must already be bound; `peers` maps every destination the
/// process will send to. Messages to unknown peers are dropped (consensus
/// protocols treat this as loss) with a flight-recorder event and a
/// `net.drops.no_address` count when observability is attached.
///
/// `rules` is consulted on the send path (full verdict, including
/// probabilistic loss) and on the receive path (deterministic cuts,
/// isolation, and crash marks — so messages already in flight when a rule
/// lands are still dropped). With no rules installed both checks are a
/// single relaxed atomic load; see [`FaultRules`].
///
/// `obs` records per-peer message/byte counts by wire kind on both paths,
/// fault-rule and backpressure drop counts, coalesced-flush sizes, and
/// per-peer write-queue depth in bytes. A disabled bundle costs one branch
/// per recording. Listening, reading, connecting, and writing all run on
/// the shared reactor pool; this function's thread only drives the state
/// machine and its timers.
#[allow(clippy::too_many_arguments)]
pub fn run_node_obs<M>(
    id: NodeId,
    mut process: Box<dyn Process<M>>,
    listener: TcpListener,
    peers: PeerMap,
    shutdown: Receiver<()>,
    seed: u64,
    rules: Arc<FaultRules>,
    obs: NetObs,
) -> Box<dyn Process<M>>
where
    M: Wire + Payload + Send,
{
    let gate = obs.gate.clone();
    let mut metrics = NodeNetMetrics::new(obs);
    let start = Instant::now();
    let now_fn = move || Time::from_nanos(start.elapsed().as_nanos() as u64);

    let (inbox_tx, inbox_rx) = mpsc::channel::<(NodeId, M)>();

    // Inbound frames are decoded on reactor threads and forwarded here;
    // the node loop below applies the receive-path fault check so rules
    // landing while a message is in flight still drop it.
    let dispatch: crate::reactor::Dispatch =
        Arc::new(
            move |from: NodeId, frame: Bytes| match M::from_bytes(frame) {
                Ok(msg) => {
                    if inbox_tx.send((from, msg)).is_err() {
                        DispatchVerdict::Closed
                    } else {
                        DispatchVerdict::Continue
                    }
                }
                Err(_) => DispatchVerdict::Corrupt,
            },
        );
    let mut io = NodeIo::register(id, listener, dispatch, gate, metrics.flush_bytes.clone());

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_timer_id: u64 = 0;
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    let mut armed: HashSet<u64> = HashSet::new();

    // Start the process.
    {
        let mut ctx = Context::detached(now_fn(), id, &mut rng, &mut next_timer_id);
        process.on_start(&mut ctx);
        let (effects, _) = ctx.into_effects();
        apply_effects(
            id,
            effects,
            now_fn(),
            &mut timers,
            &mut armed,
            &mut io,
            &peers,
            &rules,
            &mut metrics,
        );
    }

    'run: loop {
        // A dropped handle (sender disconnected) counts as shutdown, like
        // the closed-oneshot semantics this loop replaces — otherwise a
        // handle dropped without stop() would leak a live node forever.
        match shutdown.try_recv() {
            Ok(()) => break 'run,
            Err(mpsc::TryRecvError::Disconnected) => break 'run,
            Err(mpsc::TryRecvError::Empty) => {}
        }
        // Pop expired/cancelled timer heads to find the next real deadline.
        let next_deadline = loop {
            match timers.peek() {
                Some(entry) if !armed.contains(&entry.id.0) => {
                    timers.pop();
                }
                Some(entry) => break Some(entry.at),
                None => break None,
            }
        };
        let now = now_fn();
        if let Some(at) = next_deadline {
            if at <= now {
                if let Some(entry) = timers.pop() {
                    if armed.remove(&entry.id.0) {
                        let timer = Timer {
                            id: entry.id,
                            token: entry.token,
                        };
                        let mut ctx = Context::detached(now, id, &mut rng, &mut next_timer_id);
                        process.on_timer(timer, &mut ctx);
                        let (effects, _) = ctx.into_effects();
                        apply_effects(
                            id,
                            effects,
                            now_fn(),
                            &mut timers,
                            &mut armed,
                            &mut io,
                            &peers,
                            &rules,
                            &mut metrics,
                        );
                    }
                }
                continue 'run;
            }
        }
        // Wait for the next message, but never past the next timer deadline
        // or the shutdown-poll interval.
        let wait = match next_deadline {
            Some(at) => {
                StdDuration::from_nanos(at.saturating_since(now).as_nanos()).min(POLL_INTERVAL)
            }
            None => POLL_INTERVAL,
        };
        match inbox_rx.recv_timeout(wait) {
            Ok((from, msg)) => {
                // Receive-path fault check: deterministic rules only (loss
                // was already rolled once at the sender).
                if rules.should_drop_link(from, id) {
                    metrics.fault_drops_recv.inc();
                    continue 'run;
                }
                metrics.count_recv(from, msg.kind(), msg.wire_size() as u64);
                let mut ctx = Context::detached(now_fn(), id, &mut rng, &mut next_timer_id);
                process.on_message(from, msg, &mut ctx);
                let (effects, _) = ctx.into_effects();
                apply_effects(
                    id,
                    effects,
                    now_fn(),
                    &mut timers,
                    &mut armed,
                    &mut io,
                    &peers,
                    &rules,
                    &mut metrics,
                );
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break 'run,
        }
    }

    // Synchronous deregistration: when close() returns, every fd the node
    // owned (listener registration, inbound and outbound connections) has
    // been torn down on its loop — shutdown leaks nothing.
    io.close();
    drop(inbox_rx);
    process
}

#[allow(clippy::too_many_arguments)]
fn apply_effects<M>(
    self_id: NodeId,
    effects: Vec<Effect<M>>,
    now: Time,
    timers: &mut BinaryHeap<TimerEntry>,
    armed: &mut HashSet<u64>,
    io: &mut NodeIo,
    peers: &PeerMap,
    rules: &FaultRules,
    metrics: &mut NodeNetMetrics,
) where
    M: Wire + Payload + Send,
{
    for effect in effects {
        match effect {
            Effect::Send { to, msg } => {
                // Send-path fault check: full verdict, including the
                // probabilistic loss roll (exactly once per message).
                if rules.should_drop(self_id, to) {
                    metrics.fault_drops_send.inc();
                    continue;
                }
                let Some(addr) = peers.get(to) else {
                    // No address book entry: consensus treats this as
                    // loss, but it is almost always a deployment bug, so
                    // flag the link and count every message shed on it.
                    metrics.no_addr_drops.inc();
                    metrics.flag_drop(to, "no_address");
                    continue;
                };
                metrics.count_sent(to, msg.kind(), msg.wire_size() as u64);
                match io.send(addr, msg.to_bytes()) {
                    SendOutcome::Queued => {
                        metrics.set_queue_bytes(to, io.queued_bytes(addr));
                    }
                    SendOutcome::Backpressure => {
                        // The peer's bounded queue is full: shed as loss
                        // (never stall the protocol loop) and leave the
                        // gate raised for clients to observe.
                        metrics.backpressure_drops.inc();
                        metrics.flag_drop(to, "backpressure");
                    }
                }
            }
            Effect::SetTimer { id, after, token } => {
                armed.insert(id.0);
                timers.push(TimerEntry {
                    at: now + after,
                    id,
                    token,
                });
            }
            Effect::CancelTimer { id } => {
                armed.remove(&id.0);
            }
        }
    }
}

/// Spawns [`run_node_obs`] on a fresh thread and returns the node's
/// handle. `listener` must already be bound (its local address becomes
/// the handle's `addr`).
pub fn spawn_node_obs<M>(
    id: NodeId,
    process: Box<dyn Process<M>>,
    listener: TcpListener,
    peers: PeerMap,
    seed: u64,
    rules: Arc<FaultRules>,
    obs: NetObs,
) -> TcpNodeHandle<M>
where
    M: Wire + Payload + Send,
{
    let addr = listener.local_addr().expect("local addr");
    let (tx, rx) = mpsc::channel();
    let join = std::thread::spawn(move || {
        run_node_obs(id, process, listener, peers, rx, seed, rules, obs)
    });
    TcpNodeHandle {
        id,
        addr,
        shutdown: Some(tx),
        join,
    }
}

/// Spawns a whole cluster on loopback TCP with ephemeral ports, every
/// loop sharing the `rules` table so a test or nemesis driver can
/// partition, impair, and heal the live cluster mid-run.
///
/// Returns one handle per process, in order. Intended for examples and
/// integration tests; production deployments would use [`run_node_obs`]
/// with externally managed listeners and peer maps.
pub fn spawn_local_cluster<M>(
    processes: Vec<Box<dyn Process<M>>>,
    seed: u64,
    rules: Arc<FaultRules>,
) -> Vec<TcpNodeHandle<M>>
where
    M: Wire + Payload + Send,
{
    let mut listeners = Vec::new();
    let mut peers = PeerMap::new();
    for i in 0..processes.len() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        peers.insert(NodeId(i as u32), listener.local_addr().expect("local addr"));
        listeners.push(listener);
    }
    processes
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(i, (process, listener))| {
            spawn_node_obs(
                NodeId(i as u32),
                process,
                listener,
                peers.clone(),
                seed.wrapping_add(i as u64),
                Arc::clone(&rules),
                NetObs::disabled(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::append_frame;
    use bytes::BytesMut;
    use canopus_sim::impl_process_any;
    use std::net::TcpStream;

    #[derive(Debug, Clone, PartialEq)]
    struct Num(u64);

    impl Payload for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl Wire for Num {
        fn encode(&self, buf: &mut BytesMut) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
            Ok(Num(u64::decode(buf)?))
        }
    }

    /// Sends 1..=count to the peer on start; records what it receives.
    struct Counter {
        peer: Option<NodeId>,
        count: u64,
        seen: Vec<u64>,
    }

    impl Process<Num> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            if let Some(peer) = self.peer {
                for i in 1..=self.count {
                    ctx.send(peer, Num(i));
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Num, _ctx: &mut Context<'_, Num>) {
            self.seen.push(msg.0);
        }
        impl_process_any!();
    }

    #[test]
    fn frames_round_trip_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap().unwrap()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        write_frame(&mut client, b"hello").unwrap();
        let got = server.join().unwrap();
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn coalesced_flush_parses_back_into_individual_frames() {
        // One buffer holding three frames — exactly what a coalesced
        // reactor flush sends in a single write — must decode frame by
        // frame.
        let mut buf = Vec::new();
        append_frame(&mut buf, b"alpha");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"gamma!");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"alpha");
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"");
        assert_eq!(&read_frame(&mut cursor).unwrap().unwrap()[..], b"gamma!");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn read_frame_reports_clean_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap()
        });
        let client = TcpStream::connect(addr).unwrap();
        drop(client);
        assert!(server.join().unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn huge_prefix_with_short_body_errors_without_upfront_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        // A prefix just under the limit, but only 3 bytes of body: the
        // reader must fail with UnexpectedEof after allocating at most one
        // chunk, not reserve ~16 MiB for a stream that never delivers it.
        client
            .write_all(&((MAX_FRAME - 1) as u32).to_le_bytes())
            .unwrap();
        client.write_all(b"abc").unwrap();
        drop(client);
        let got = server.join().unwrap();
        assert!(got.is_err(), "truncated oversized frame must error");
    }

    #[test]
    fn fault_rules_cut_blocks_delivery_until_healed() {
        let a = Counter {
            peer: Some(NodeId(1)),
            count: 50,
            seen: Vec::new(),
        };
        let b = Counter {
            peer: None,
            count: 0,
            seen: Vec::new(),
        };
        let rules = Arc::new(FaultRules::new(3));
        rules.cut_groups(&[NodeId(0)], &[NodeId(1)]);
        let handles = spawn_local_cluster::<Num>(vec![Box::new(a), Box::new(b)], 7, rules.clone());
        std::thread::sleep(StdDuration::from_millis(200));
        let mut processes = Vec::new();
        for h in handles {
            processes.push(h.stop());
        }
        let b_final = processes.pop().unwrap();
        let counter = b_final.as_any().downcast_ref::<Counter>().expect("counter");
        assert!(
            counter.seen.is_empty(),
            "cut link must drop everything, saw {:?}",
            counter.seen
        );
    }

    #[test]
    fn cluster_delivers_messages_in_order() {
        let a = Counter {
            peer: Some(NodeId(1)),
            count: 100,
            seen: Vec::new(),
        };
        let b = Counter {
            peer: None,
            count: 0,
            seen: Vec::new(),
        };
        let handles = spawn_local_cluster::<Num>(
            vec![Box::new(a), Box::new(b)],
            7,
            Arc::new(FaultRules::new(7)),
        );
        // Give delivery a moment.
        std::thread::sleep(StdDuration::from_millis(300));
        let mut processes = Vec::new();
        for h in handles {
            processes.push(h.stop());
        }
        let b_final = processes.pop().unwrap();
        let counter = b_final.as_any().downcast_ref::<Counter>().expect("counter");
        assert_eq!(counter.seen, (1..=100).collect::<Vec<_>>());
    }

    /// Spawns a lone sink node with no peers; returns its handle.
    fn spawn_sink() -> TcpNodeHandle<Num> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        spawn_node_obs::<Num>(
            NodeId(0),
            Box::new(Counter {
                peer: None,
                count: 0,
                seen: Vec::new(),
            }),
            listener,
            PeerMap::new(),
            11,
            Arc::new(FaultRules::new(11)),
            NetObs::disabled(),
        )
    }

    #[test]
    fn partial_frames_split_across_readiness_events_reassemble() {
        let handle = spawn_sink();
        let addr = handle.addr;
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        // Handshake then two frames, dribbled a few bytes at a time with
        // pauses, so the reactor sees many readiness events per frame and
        // must hold partial headers and partial payloads across them.
        let mut stream_bytes = Vec::new();
        append_frame(&mut stream_bytes, &NodeId(9).to_bytes());
        append_frame(&mut stream_bytes, &Num(41).to_bytes());
        append_frame(&mut stream_bytes, &Num(42).to_bytes());
        for chunk in stream_bytes.chunks(3) {
            client.write_all(chunk).unwrap();
            client.flush().unwrap();
            std::thread::sleep(StdDuration::from_millis(2));
        }
        // Let the last dispatch land.
        std::thread::sleep(StdDuration::from_millis(100));
        let final_state = handle.stop();
        let counter = final_state.as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(counter.seen, vec![41, 42]);
    }

    #[test]
    fn truncated_oversized_frame_mid_chunk_closes_conn_but_not_node() {
        let handle = spawn_sink();
        let addr = handle.addr;
        // Connection 1: handshake, then a huge-but-legal length prefix
        // with only a sliver of body, then EOF. The reactor must reject
        // or drop it without buffering the claimed size and without
        // taking the node down.
        {
            let mut bad = TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            append_frame(&mut bytes, &NodeId(8).to_bytes());
            bytes.extend_from_slice(&((MAX_FRAME - 1) as u32).to_le_bytes());
            bytes.extend_from_slice(b"abc");
            bad.write_all(&bytes).unwrap();
        } // dropped: EOF mid-frame
          // Connection 2 (after the bad one): a valid frame still lands.
        std::thread::sleep(StdDuration::from_millis(50));
        let mut good = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        append_frame(&mut bytes, &NodeId(9).to_bytes());
        append_frame(&mut bytes, &Num(7).to_bytes());
        good.write_all(&bytes).unwrap();
        std::thread::sleep(StdDuration::from_millis(100));
        let final_state = handle.stop();
        let counter = final_state.as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(counter.seen, vec![7], "node must survive the bad conn");
    }

    #[test]
    fn over_limit_prefix_rejected_by_reactor_without_allocation() {
        let handle = spawn_sink();
        let addr = handle.addr;
        let mut bad = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        append_frame(&mut bytes, &NodeId(8).to_bytes());
        // Over MAX_FRAME: must be rejected on sight of the prefix.
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bad.write_all(&bytes).unwrap();
        // The reactor closes the connection: the next read sees EOF.
        bad.set_read_timeout(Some(StdDuration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        let n = bad.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "reactor must close the offending connection");
        drop(handle.stop());
    }

    /// A process that blasts large payloads at one peer on start.
    struct Blaster {
        peer: NodeId,
        frames: usize,
        frame_len: usize,
    }

    #[derive(Debug, Clone)]
    struct Blob(Vec<u8>);

    impl Payload for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }

    impl Wire for Blob {
        fn encode(&self, buf: &mut BytesMut) {
            buf.extend_from_slice(&self.0);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
            let all = buf.split_to(buf.len());
            Ok(Blob(all.to_vec()))
        }
    }

    impl Process<Blob> for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            for _ in 0..self.frames {
                ctx.send(self.peer, Blob(vec![0xAB; self.frame_len]));
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Blob, _ctx: &mut Context<'_, Blob>) {}
        impl_process_any!();
    }

    #[test]
    fn full_write_queue_signals_backpressure_and_raises_gate() {
        // A listener that accepts but never reads: the kernel buffers
        // fill, then the bounded reactor queue fills, then sends must
        // come back as explicit backpressure.
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let acceptor = std::thread::spawn(move || {
            sink.set_nonblocking(true).unwrap();
            let mut held = Vec::new();
            loop {
                if let Ok((s, _)) = sink.accept() {
                    held.push(s);
                }
                match stop_rx.recv_timeout(StdDuration::from_millis(10)) {
                    Err(RecvTimeoutError::Timeout) => {}
                    _ => return,
                }
            }
        });

        let mut peers = PeerMap::new();
        peers.insert(NodeId(1), sink_addr);
        let gate = SendGate::new();
        let hub = NodeObs::enabled(0, 16);
        let obs = NetObs::new(hub.clone()).with_gate(gate.clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // 256 frames x 256 KiB = 64 MiB >> kernel buffers + 2 MiB queue.
        let handle = spawn_node_obs::<Blob>(
            NodeId(0),
            Box::new(Blaster {
                peer: NodeId(1),
                frames: 256,
                frame_len: 256 << 10,
            }),
            listener,
            peers,
            5,
            Arc::new(FaultRules::new(5)),
            obs,
        );
        // The blast happens in on_start, before the node loop spins; by
        // the time sends return the queue must have saturated.
        std::thread::sleep(StdDuration::from_millis(300));
        let dropped = hub
            .metrics
            .snapshot()
            .counter("net.drops.backpressure")
            .unwrap_or(0);
        assert!(
            dropped > 0,
            "an unread peer must surface explicit backpressure"
        );
        assert!(gate.incidents() > 0, "gate must record the incident");
        drop(handle.stop());
        let _ = stop_tx.send(());
        acceptor.join().unwrap();
    }

    #[test]
    fn fault_rules_same_seed_same_sequence_identical_decisions() {
        // The reactor changed *when* and *on which thread* verdicts are
        // taken, but determinism must only depend on (seed, query
        // sequence). Replay the same interrogation twice and compare.
        let interrogate = |rules: &FaultRules| -> Vec<bool> {
            let mut verdicts = Vec::new();
            for round in 0..200u32 {
                let from = NodeId(round % 5);
                let to = NodeId((round + 1) % 5);
                verdicts.push(rules.should_drop(from, to));
            }
            verdicts
        };
        let build = || {
            let rules = FaultRules::new(0xC0FFEE);
            rules.set_loss(0.5);
            rules.cut_one_way(NodeId(2), NodeId(3));
            rules
        };
        let a = interrogate(&build());
        let b = interrogate(&build());
        assert_eq!(a, b, "same seed + same sequence => same verdicts");
        assert!(a.iter().any(|&v| v), "loss at 0.5 must drop something");
        assert!(!a.iter().all(|&v| v), "loss at 0.5 must pass something");

        // Deterministic rules (cuts/isolation/crash marks) must not
        // depend on query order at all — reactor loops interleave them
        // arbitrarily across threads.
        let rules = std::sync::Arc::new(build());
        let mut joins = Vec::new();
        for t in 0..4 {
            let r = std::sync::Arc::clone(&rules);
            joins.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let cut = r.should_drop_link(NodeId(2), NodeId(3));
                    assert!(cut, "cut link stays cut (thread {t}, iter {i})");
                    let open = r.should_drop_link(NodeId(0), NodeId(1));
                    assert!(!open, "open link stays open (thread {t}, iter {i})");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
