//! Client-visible operation histories and the chaos verdict.
//!
//! [`HistoryClient`] is a deterministic closed-loop client that records
//! the full invoke/ok/timeout history of every operation it issues —
//! writes carry a globally unique 12-byte tag (client id + op id) so a
//! read's observed value maps back to exactly one write. After a run,
//! [`chaos_verdict`] replays those histories against the replicas'
//! committed state and checks the paper's §6 properties mechanically:
//!
//! * **agreement** ([`check_agreement`]) over each protocol's global
//!   and/or per-key committed orders,
//! * **client FIFO** ([`check_client_fifo`]) over cleanly completed
//!   replies,
//! * **linearizability** ([`LinChecker`]) of reads, for the protocols
//!   whose read path promises it (Canopus, EPaxos, Raft KV — the
//!   ZooKeeper model serves reads locally and only promises sequential
//!   consistency, so its reads are exempt by construction),
//! * **convergence**: after the nemesis heals the network, every client
//!   of a trusted node must complete fresh writes again,
//! * the protocol's own checks ([`ChaosProtocol::verdict_extras`]) — for
//!   the sharded engine, per-shard agreement, key→shard routing
//!   stability, and cross-shard atomicity.
//!
//! Soundness of the linearizability feed: version `v` of a key is the
//! `v`-th write in the (prefix-agreed) committed order, and its
//! "commit time" is the *earliest* time any trusted replica applied it —
//! a lower bound on visibility, which can never flag a legal read as
//! from-the-future, and any read a trusted replica serves is ordered at
//! or after its own apply point, so staleness flags are genuine.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use canopus_kv::{
    check_agreement, check_client_fifo, ClientRequest, Key, LinChecker, Op, OpResult, ReadObs,
    ReplyEvent, ShardRouter, WriteObs,
};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Time, Timer};
use canopus_workload::ProtocolMsg;

use crate::cluster::Cluster;
use crate::protocol::ChaosProtocol;

const TICK: u64 = 1;

/// Keys below this base belong to the steady-state workload; probe-phase
/// keys start here so they are guaranteed fresh (no wedged dependencies
/// from the fault window can block them).
const PROBE_KEY_BASE: Key = 1 << 32;

/// Encodes the globally unique write tag carried as a value.
pub fn encode_tag(client: NodeId, op_id: u64) -> Bytes {
    let mut v = Vec::with_capacity(12);
    v.extend_from_slice(&client.0.to_le_bytes());
    v.extend_from_slice(&op_id.to_le_bytes());
    Bytes::from(v)
}

/// Decodes a write tag back to `(client, op_id)`.
pub fn decode_tag(value: &[u8]) -> Option<(NodeId, u64)> {
    if value.len() != 12 {
        return None;
    }
    let client = u32::from_le_bytes(value[0..4].try_into().ok()?);
    let op_id = u64::from_le_bytes(value[4..12].try_into().ok()?);
    Some((NodeId(client), op_id))
}

/// History client parameters.
#[derive(Clone, Debug)]
pub struct HistoryConfig {
    /// Give up on an operation after this long (the op stays in the
    /// history as a timeout; a later reply is recorded as late).
    pub op_timeout: Dur,
    /// Pause between an operation completing and the next one.
    pub gap: Dur,
    /// Timeout-check cadence.
    pub tick: Dur,
    /// Distinct steady-state keys owned by each client.
    pub keys_per_client: u64,
    /// From this instant, operations move to fresh probe keys (the
    /// convergence phase after the nemesis heals).
    pub probe_at: Time,
    /// Stop issuing operations at this instant (quiesce before verdict).
    pub stop_at: Time,
    /// Offset added to every op id this client assigns (ids are
    /// `base+1, base+2, ...`). Zero — the default — preserves the classic
    /// dense 1-based ids. A client multiplexer ([`crate::mux::ClientMux`])
    /// gives each hosted session a disjoint base so replies arriving on
    /// the shared transport can be routed back by op id alone.
    pub op_id_base: u64,
    /// Issue every `n`-th write as an [`Op::MultiPut`] spanning the
    /// client's steady-state keys (0 — the default — never does). Against
    /// a sharded deployment this exercises the cross-shard anchor
    /// protocol; the sharded verdict then checks all-or-nothing presence
    /// of every transaction's parts across per-shard logs.
    pub multi_put_every: u64,
    /// When set to `(shard, shards)`, every steady-state and probe key is
    /// remapped to the nearest key the [`ShardRouter`] assigns to that
    /// shard — the hot-shard skew harness, concentrating the entire
    /// client population on one LOT pipeline.
    pub hot_shard: Option<(u16, u16)>,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            op_timeout: Dur::millis(150),
            gap: Dur::millis(6),
            tick: Dur::millis(3),
            keys_per_client: 2,
            probe_at: Time::ZERO + Dur::millis(1100),
            stop_at: Time::ZERO + Dur::millis(1800),
            op_id_base: 0,
            multi_put_every: 0,
            hot_shard: None,
        }
    }
}

/// One recorded operation.
#[derive(Clone, Debug)]
pub struct HistoryOp {
    /// Client-assigned id (dense from `op_id_base + 1`; 1-based with the
    /// default base of zero).
    pub op_id: u64,
    /// Key operated on.
    pub key: Key,
    /// Whether this is a write.
    pub is_write: bool,
    /// Invocation time.
    pub invoke: Time,
    /// First reply, whenever it arrived (possibly after the timeout).
    pub complete: Option<(Time, OpResult)>,
    /// Client-local arrival sequence of that reply — preserves the real
    /// delivery order even when two replies land at the same virtual
    /// instant (the FIFO check orders by this, not by timestamp).
    pub complete_seq: Option<u64>,
    /// Set when the client gave up before any reply.
    pub timed_out_at: Option<Time>,
}

impl HistoryOp {
    /// Completed before the client's timeout — the ops the verdict checks.
    pub fn clean(&self) -> bool {
        self.complete.is_some() && self.timed_out_at.is_none()
    }
}

/// Deterministic closed-loop client recording a full op history.
pub struct HistoryClient<M: ProtocolMsg> {
    cfg: HistoryConfig,
    target: NodeId,
    index: usize,
    total: usize,
    counter: u64,
    replies_seen: u64,
    ops: Vec<HistoryOp>,
    outstanding: Option<usize>,
    next_issue: Time,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: ProtocolMsg> HistoryClient<M> {
    /// Creates the client with index `index` of `total`, bound to `target`.
    pub fn new(index: usize, total: usize, target: NodeId, cfg: HistoryConfig) -> Self {
        HistoryClient {
            cfg,
            target,
            index,
            total,
            counter: 0,
            replies_seen: 0,
            ops: Vec::new(),
            outstanding: None,
            next_issue: Time::ZERO,
            _marker: std::marker::PhantomData,
        }
    }

    /// The recorded history.
    pub fn ops(&self) -> &[HistoryOp] {
        &self.ops
    }

    /// Remaps `key` onto the configured hot shard: each base key owns a
    /// disjoint window of 256 candidates, and the first candidate the
    /// router assigns to the hot shard wins. Deterministic, and distinct
    /// base keys collide only with vanishing probability (a miss needs
    /// 256 consecutive hash misses); the verdict is collision-safe
    /// anyway — shared keys just share a per-key order.
    fn pin_hot(&self, key: Key) -> Key {
        let Some((shard, shards)) = self.cfg.hot_shard else {
            return key;
        };
        let router = ShardRouter::new(shards);
        let base = key * 256;
        (base..base + 256)
            .find(|&k| router.shard_of_key(k) == shard)
            .unwrap_or(base)
    }

    fn own_key(&self, j: u64) -> Key {
        self.pin_hot(1 + self.index as u64 * self.cfg.keys_per_client + j)
    }

    fn peer_key(&self, j: u64) -> Key {
        let peer = (self.index + 1) % self.total;
        self.pin_hot(1 + peer as u64 * self.cfg.keys_per_client + j)
    }

    fn probe_key(&self, j: u64) -> Key {
        self.pin_hot(PROBE_KEY_BASE + self.index as u64 * self.cfg.keys_per_client + j)
    }

    fn issue(&mut self, ctx: &mut Context<'_, M>) {
        let c = self.counter;
        self.counter += 1;
        let op_id = self.cfg.op_id_base + c + 1;
        let j = c % self.cfg.keys_per_client;
        let probing = ctx.now() >= self.cfg.probe_at;
        let (key, is_write) = if probing {
            // Alternate write/read *pairs on the same probe key*: op c
            // (even) writes probe_key((c/2) % K), op c+1 reads it back —
            // the post-heal reads must exercise freshly written keys or
            // the probe-phase linearizability check is vacuous.
            (
                self.probe_key((c / 2) % self.cfg.keys_per_client),
                c.is_multiple_of(2),
            )
        } else {
            match c % 3 {
                0 | 1 => (self.own_key(j), true),
                _ => {
                    // Alternate between re-reading an own key and reading a
                    // peer's key (cross-client reads are where
                    // linearizability checking has teeth).
                    let key = if (c / 3).is_multiple_of(2) {
                        self.own_key(j)
                    } else {
                        self.peer_key(j)
                    };
                    (key, false)
                }
            }
        };
        // Every n-th steady-state write becomes a multi-key transaction
        // over all of this client's own keys (same tag on every key, so
        // reads of any key map back to this op).
        let multi = is_write
            && !probing
            && self.cfg.multi_put_every > 0
            && c.is_multiple_of(self.cfg.multi_put_every)
            && self.cfg.keys_per_client > 1;
        let op = if multi {
            let value = encode_tag(ctx.id(), op_id);
            Op::MultiPut {
                puts: (0..self.cfg.keys_per_client)
                    .map(|j| (self.own_key(j), value.clone()))
                    .collect(),
            }
        } else if is_write {
            Op::Put {
                key,
                value: encode_tag(ctx.id(), op_id),
            }
        } else {
            Op::Get { key }
        };
        self.ops.push(HistoryOp {
            op_id,
            key,
            is_write,
            invoke: ctx.now(),
            complete: None,
            complete_seq: None,
            timed_out_at: None,
        });
        self.outstanding = Some(self.ops.len() - 1);
        ctx.send(
            self.target,
            M::request(ClientRequest {
                client: ctx.id(),
                op_id,
                op,
            }),
        );
    }
}

impl<M: ProtocolMsg + 'static> Process<M> for HistoryClient<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        // Stagger client phases deterministically by index.
        let phase = Dur::micros(173 * self.index as u64 + 211);
        self.next_issue = ctx.now() + phase;
        ctx.set_timer(phase, TICK);
    }

    fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, M>) {
        let now = ctx.now();
        if let Some(i) = self.outstanding {
            if self.ops[i].invoke + self.cfg.op_timeout <= now {
                self.ops[i].timed_out_at = Some(now);
                self.outstanding = None;
                self.next_issue = now + self.cfg.gap;
            }
        }
        if now < self.cfg.stop_at {
            if self.outstanding.is_none() && now >= self.next_issue {
                self.issue(ctx);
            }
            ctx.set_timer(self.cfg.tick, TICK);
        } else if self.outstanding.is_some() {
            // One more pass so a hanging final op gets its timeout mark.
            ctx.set_timer(self.cfg.op_timeout, TICK);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: M, ctx: &mut Context<'_, M>) {
        let Some(reply) = msg.reply() else { return };
        let Some(idx) = reply
            .op_id
            .checked_sub(self.cfg.op_id_base + 1)
            .map(|i| i as usize)
        else {
            return;
        };
        let Some(op) = self.ops.get_mut(idx) else {
            return;
        };
        if op.complete.is_none() {
            op.complete = Some((ctx.now(), reply.result.clone()));
            op.complete_seq = Some(self.replies_seen);
            self.replies_seen += 1;
        }
        if self.outstanding == Some(idx) {
            self.outstanding = None;
            self.next_issue = ctx.now() + self.cfg.gap;
        }
    }

    impl_process_any!();
}

// ---------------------------------------------------------------------
// Verdict
// ---------------------------------------------------------------------

/// The outcome of replaying a chaos run's histories against the replicas'
/// committed state.
#[derive(Debug)]
pub struct ChaosReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Cleanly completed operations across trusted clients.
    pub ops_ok: u64,
    /// Timed-out operations across trusted clients.
    pub ops_timed_out: u64,
    /// Reads fed to the linearizability checker.
    pub reads_checked: usize,
    /// Every safety or convergence failure, described.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// No violations of any kind.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One client's recorded history, bound to the protocol node it talked to.
pub struct ClientHistory<'a> {
    /// The protocol node this client targets (drives convergence
    /// exemptions).
    pub node: NodeId,
    /// The client's own node id.
    pub client: NodeId,
    /// The recorded operation history.
    pub ops: &'a [HistoryOp],
}

/// Runs the full verdict: agreement (global and per-key), client FIFO,
/// linearizability of reads (where the protocol promises it), post-heal
/// convergence, and the protocol's own checks.
///
/// Only **trusted** nodes — alive and never crashed — are held to the
/// bar: a restarted node's log legitimately restarts mid-history, and its
/// recovery semantics are protocol-specific. `convergence_exempt` names
/// trusted nodes whose clients are excused from the convergence check
/// (e.g. a Canopus node that was isolated from its super-leaf peers gets
/// tombstoned and, by design, stays excluded until a rejoin path exists).
pub fn chaos_verdict<M: ChaosProtocol>(
    cluster: &Cluster<M>,
    converge_after: Time,
    convergence_exempt: &BTreeSet<NodeId>,
) -> ChaosReport {
    let trusted_ids = cluster.trusted_nodes();
    let trusted: Vec<(NodeId, &dyn Any)> = trusted_ids
        .iter()
        .map(|&n| (n, cluster.sim.node_any(n)))
        .collect();
    let clients: Vec<ClientHistory<'_>> = cluster
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| trusted_ids.contains(node))
        .map(|(i, &node)| {
            let client = cluster.clients[i];
            ClientHistory {
                node,
                client,
                ops: cluster.sim.node::<HistoryClient<M>>(client).ops(),
            }
        })
        .collect();
    chaos_verdict_parts::<M>(&trusted, &clients, converge_after, convergence_exempt, true)
}

/// The verdict core, decoupled from any cluster representation.
///
/// `trusted` holds the trusted replicas' final processes; `clients` the
/// trusted clients' recorded histories. `check_lin` gates the
/// [`LinChecker`] pass: virtual-time runs enable it (one shared clock),
/// while live TCP runs disable it — each live node measures time from its
/// own spawn instant, and millisecond-level clock-base skew would make
/// cross-node read/write timing comparisons unsound. Read *validity*
/// (every read observes a value some trusted replica committed) is
/// checked regardless, it needs no common clock.
pub fn chaos_verdict_parts<M: ChaosProtocol>(
    trusted: &[(NodeId, &dyn Any)],
    clients: &[ClientHistory<'_>],
    converge_after: Time,
    convergence_exempt: &BTreeSet<NodeId>,
    check_lin: bool,
) -> ChaosReport {
    let mut report = ChaosReport {
        protocol: M::NAME,
        ops_ok: 0,
        ops_timed_out: 0,
        reads_checked: 0,
        violations: Vec::new(),
    };

    // 1. Global agreement, where the protocol defines a total order.
    let global: Vec<Vec<(NodeId, u64)>> = trusted
        .iter()
        .filter_map(|&(_, p)| M::global_log(p))
        .collect();
    if !global.is_empty() {
        if let Err(d) = check_agreement(&global) {
            report.violations.push(format!(
                "global agreement violated at index {} by replica {} ({:?})",
                d.index, d.replica, trusted[d.replica].0
            ));
        }
    }

    // 2. Per-key agreement, and the reference write order for versioning.
    let per_node: Vec<BTreeMap<Key, Vec<(NodeId, u64, Time)>>> =
        trusted.iter().map(|&(_, p)| M::write_records(p)).collect();
    let all_keys: BTreeSet<Key> = per_node.iter().flat_map(|m| m.keys().copied()).collect();
    // Per key: the agreed order (longest replica) and, per version, the
    // earliest apply time across trusted replicas.
    let mut reference: BTreeMap<Key, Vec<(NodeId, u64, Time)>> = BTreeMap::new();
    for &key in &all_keys {
        let seqs: Vec<Vec<(NodeId, u64)>> = per_node
            .iter()
            .map(|m| {
                m.get(&key)
                    .map(|v| v.iter().map(|&(c, o, _)| (c, o)).collect())
                    .unwrap_or_default()
            })
            .collect();
        if let Err(d) = check_agreement(&seqs) {
            report.violations.push(format!(
                "per-key write order diverged on key {key} at version {} (replica {:?})",
                d.index + 1,
                trusted[d.replica].0
            ));
        }
        let longest = per_node
            .iter()
            .filter_map(|m| m.get(&key))
            .max_by_key(|v| v.len())
            .cloned()
            .unwrap_or_default();
        let mut with_min_times = longest;
        for (v, slot) in with_min_times.iter_mut().enumerate() {
            let min_at = per_node
                .iter()
                .filter_map(|m| m.get(&key).and_then(|s| s.get(v)).map(|&(_, _, t)| t))
                .min()
                .unwrap_or(slot.2);
            slot.2 = min_at;
        }
        reference.insert(key, with_min_times);
    }

    // 3. Walk trusted clients' histories.
    let mut checker = LinChecker::new();
    if M::LINEARIZABLE_READS && check_lin {
        for (&key, order) in &reference {
            for (v, &(_, _, at)) in order.iter().enumerate() {
                checker.record_write(WriteObs {
                    key,
                    version: (v + 1) as u64,
                    committed: at,
                });
            }
        }
    }
    let mut reads: Vec<ReadObs> = Vec::new();
    for ch in clients {
        let node = ch.node;
        let client_id = ch.client;
        let mut replies: Vec<(u64, ReplyEvent)> = Vec::new();
        let mut converged = false;
        for op in ch.ops {
            if op.timed_out_at.is_some() {
                report.ops_timed_out += 1;
            }
            if !op.clean() {
                continue;
            }
            report.ops_ok += 1;
            let (at, result) = op.complete.clone().expect("clean implies complete");
            let seq = op.complete_seq.expect("clean implies a recorded arrival");
            replies.push((
                seq,
                ReplyEvent {
                    client: client_id,
                    op_id: op.op_id,
                    at,
                },
            ));
            if op.is_write && op.invoke >= converge_after {
                converged = true;
            }
            if op.is_write || !M::LINEARIZABLE_READS {
                continue;
            }
            let OpResult::Value(observed) = &result else {
                continue;
            };
            let version = match observed {
                None => 0,
                Some(bytes) => {
                    let Some(tag) = decode_tag(bytes) else {
                        report.violations.push(format!(
                            "client {client_id} read an undecodable value on key {}",
                            op.key
                        ));
                        continue;
                    };
                    let order = reference.get(&op.key).map(Vec::as_slice).unwrap_or(&[]);
                    match order.iter().position(|&(c, o, _)| (c, o) == tag) {
                        Some(pos) => (pos + 1) as u64,
                        None => {
                            report.violations.push(format!(
                                "client {client_id} read a value on key {} that no trusted \
                                 replica committed (writer {:?} op {})",
                                op.key, tag.0, tag.1
                            ));
                            continue;
                        }
                    }
                }
            };
            reads.push(ReadObs {
                key: op.key,
                version,
                invoke: op.invoke,
                respond: at,
            });
        }
        // Order replies by their recorded arrival sequence, not by
        // timestamp: two replies can land at the same virtual instant, and
        // a timestamp sort would silently mask a same-instant inversion.
        replies.sort_by_key(|&(seq, _)| seq);
        let replies: Vec<ReplyEvent> = replies.into_iter().map(|(_, e)| e).collect();
        if let Err((a, b)) = check_client_fifo(&replies) {
            report.violations.push(format!(
                "client {client_id} FIFO violated: op {} replied before op {}",
                b.op_id, a.op_id
            ));
        }
        if !converged && !convergence_exempt.contains(&node) {
            report.violations.push(format!(
                "no post-heal write completed for client {client_id} (node {node}) after \
                 {} ms",
                converge_after.as_millis()
            ));
        }
    }

    // 4. Linearizability of the collected reads.
    report.reads_checked = reads.len();
    if M::LINEARIZABLE_READS && check_lin {
        for v in checker.check_all(&reads) {
            report
                .violations
                .push(format!("linearizability violation: {v:?}"));
        }
    }

    // 5. The protocol's own checks (e.g. per-shard agreement).
    report.violations.extend(M::verdict_extras(trusted));
    report
}

/// The chaos client model: one [`HistoryClient`] per protocol node, all
/// sharing `cfg`.
pub fn history_clients<M: ProtocolMsg + 'static>(
    cfg: &HistoryConfig,
) -> impl FnMut(usize, usize, NodeId) -> Box<dyn Process<M>> {
    let cfg = cfg.clone();
    move |i, n, target| Box::new(HistoryClient::<M>::new(i, n, target, cfg.clone()))
}

/// Flight-ring capacity for chaos clusters: enough to hold the tail of a
/// run's consensus events for the failure dump without unbounded memory.
pub const CHAOS_FLIGHT_CAP: usize = 256;
