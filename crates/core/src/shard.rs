//! Shard-parallel consensus: N independent LOT pipelines per node.
//!
//! Canopus totally orders *everything* through one LOT pipeline, but most
//! KV traffic is single-key and only needs per-key order. [`ShardEngine`]
//! runs one complete [`CanopusNode`] per key-space shard inside a single
//! process: every shard has its own cycle pipeline, linger timer, batching
//! window, and broadcast-group log, all multiplexed over one transport
//! identity (one socket set on TCP, one sim node). Shard `s`'s traffic
//! carries `s` in the wire frame ([`ShardMsg::Shard`]) and is steered to
//! CPU lane `s` of a multi-lane node, so shards commit concurrently
//! instead of queueing behind one per-node CPU clock.
//!
//! ## Cross-shard transactions: the anchor-shard protocol
//!
//! A multi-key write ([`Op::MultiPut`]) touching several shards is split
//! into per-shard parts that share the client's `(client, op_id)`
//! identity, and runs a deterministic two-phase commit with no extra
//! wire messages:
//!
//! 1. **Sequence** — every touched shard independently orders its part in
//!    its own LOT. LOT cycles never abort, so once a part is in a shard's
//!    request set its commitment is inevitable; there is no prepare/abort
//!    vote to take.
//! 2. **Anchor** — the *anchor shard* (the lowest touched shard id, a
//!    pure function of the key set) fixes the transaction's position in
//!    the cross-shard serialization: the transaction is considered
//!    committed at the anchor part's commit position, and the engine
//!    releases the single client reply only when every part has applied.
//!
//! Atomicity follows from the no-abort property: either the client's
//! request reached the engine (and then every part eventually commits on
//! every correct node of its shard) or it did not; the chaos verdict
//! checks exactly this all-or-nothing presence across per-shard logs.
//!
//! ## Determinism
//!
//! Inner nodes run under detached [`Context`]s (the same mechanism the
//! harness's `ClientMux` uses): effects are translated, never reordered.
//! Timer armings are multiplexed by packing the shard id into the outer
//! token's high bits — Canopus nodes discriminate timers by token only
//! and never cancel them, so the engine synthesizes the inner delivery on
//! fire without any per-arming state.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use canopus_kv::shard::ShardRouter;
use canopus_kv::{shard_hash, ClientReply, ClientRequest, Op, OpResult};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_obs::NodeObs;
use canopus_sim::{Context, Effect, NodeId, Payload, Process, Timer};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::CanopusConfig;
use crate::emulation::EmulationTable;
use crate::msg::CanopusMsg;
use crate::node::{CanopusNode, CanopusStats};

/// Salt folded into client-id lane hints; must match
/// `canopus_kv::shard`'s client routing so the lane a synthetic request
/// queues on is the lane its shard runs on.
const CLIENT_SALT: u64 = 0xC11E_17A0_5EED_0001;

/// Wire messages of a sharded deployment: the client plane plus every
/// shard's inner Canopus traffic, tagged with its shard id.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardMsg {
    /// A client submits an operation; the engine routes it to the owning
    /// shard (or splits a cross-shard `MultiPut`).
    Client(ClientRequest),
    /// Inner protocol traffic of one shard, multiplexed on the shared
    /// transport. The two-byte shard id is part of the wire frame.
    Shard {
        /// Which LOT instance this belongs to.
        shard: u16,
        /// The shard's Canopus message.
        inner: CanopusMsg,
    },
    /// The engine answers a client (one reply per client request, even
    /// for cross-shard transactions).
    Reply(ClientReply),
}

impl Payload for ShardMsg {
    fn wire_size(&self) -> usize {
        match self {
            // Same framing as CanopusMsg::Request — the client plane is
            // not sharded.
            ShardMsg::Client(r) => 1 + 13 + r.op.payload_bytes().min(64),
            ShardMsg::Shard { inner, .. } => 1 + 2 + inner.wire_size(),
            ShardMsg::Reply(_) => 1 + 14,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            ShardMsg::Client(_) => "request",
            ShardMsg::Shard { inner, .. } => inner.kind(),
            ShardMsg::Reply(_) => "reply",
        }
    }

    fn lane_hint(&self) -> u64 {
        match self {
            // Mirror ShardRouter: keyed ops by key hash, keyless
            // aggregates by client hash (a client's whole synthetic
            // stream stays on one shard), multi-key writes by their
            // first key (the engine splits them; all split work is
            // charged to that lane).
            ShardMsg::Client(r) => match &r.op {
                Op::Put { key, .. } | Op::Get { key } => shard_hash(*key),
                Op::SyntheticWrite { .. } | Op::SyntheticRead { .. } => {
                    shard_hash(u64::from(r.client.0) ^ CLIENT_SALT)
                }
                Op::MultiPut { puts } => shard_hash(puts.first().map(|(k, _)| *k).unwrap_or(0)),
            },
            ShardMsg::Shard { shard, .. } => u64::from(*shard),
            ShardMsg::Reply(_) => 0,
        }
    }
}

impl Wire for ShardMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ShardMsg::Client(r) => {
                0u8.encode(buf);
                r.encode(buf);
            }
            ShardMsg::Shard { shard, inner } => {
                1u8.encode(buf);
                shard.encode(buf);
                inner.encode(buf);
            }
            ShardMsg::Reply(r) => {
                2u8.encode(buf);
                r.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(ShardMsg::Client(ClientRequest::decode(buf)?)),
            1 => Ok(ShardMsg::Shard {
                shard: u16::decode(buf)?,
                inner: CanopusMsg::decode(buf)?,
            }),
            2 => Ok(ShardMsg::Reply(ClientReply::decode(buf)?)),
            _ => Err(WireError::Invalid("shard msg tag")),
        }
    }
}

/// A cross-shard transaction awaiting its remaining parts.
#[derive(Debug)]
struct TxnState {
    parts_remaining: u32,
}

/// Aggregate counters across all shards of one engine.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardEngineStats {
    /// Cross-shard transactions started (split into >1 part).
    pub txns_started: u64,
    /// Cross-shard transactions fully committed (client reply released).
    pub txns_committed: u64,
    /// Client requests routed to a single shard.
    pub routed_single: u64,
}

/// N independent Canopus LOT instances behind one node identity.
pub struct ShardEngine {
    me: NodeId,
    router: ShardRouter,
    shards: Vec<CanopusNode>,
    rng: SmallRng,
    /// Shared detached-context timer counter: inner timer ids stay unique
    /// across shards for the engine's lifetime.
    timer_seq: u64,
    txns: BTreeMap<(NodeId, u64), TxnState>,
    /// Where to deliver a reply when the request's `client` field is not
    /// the transport-level sender: shard-aware workload generators issue
    /// each shard's stream under a distinct *pseudo* client identity (the
    /// router maps keyless synthetics by client hash), and the reply must
    /// still reach the real process. Keyed `(pseudo client, op_id)`,
    /// removed when the reply is released.
    reply_via: BTreeMap<(NodeId, u64), NodeId>,
    stats: ShardEngineStats,
}

/// Bits of the outer timer token holding the inner token; the shard id
/// lives above them. Canopus tokens are tiny constants (TICK/CYCLE/
/// LINGER), so 32 bits is generous.
const TOKEN_SHIFT: u32 = 32;

impl ShardEngine {
    /// An engine hosting `shards` LOT instances on node `me`, all running
    /// `cfg` and sharing the node roster in `table`.
    pub fn new(
        me: NodeId,
        table: EmulationTable,
        cfg: CanopusConfig,
        shards: u16,
        seed: u64,
    ) -> Self {
        let shards = shards.max(1);
        let instances = (0..shards)
            .map(|s| {
                // Distinct RNG stream per shard: proposal numbers and
                // Raft timeouts must not correlate across shards.
                let shard_seed = seed ^ shard_hash(0x5AD0_0000 + u64::from(s));
                CanopusNode::new(me, table.clone(), cfg.clone(), shard_seed)
            })
            .collect();
        ShardEngine {
            me,
            router: ShardRouter::new(shards),
            shards: instances,
            rng: SmallRng::seed_from_u64(seed ^ shard_hash(0xE16)),
            timer_seq: 0,
            txns: BTreeMap::new(),
            reply_via: BTreeMap::new(),
            stats: ShardEngineStats::default(),
        }
    }

    /// Installs a per-shard observability hub (`hub_of(shard)`), so each
    /// LOT instance records to its own metrics registry and flight
    /// recorder.
    pub fn with_obs(mut self, mut hub_of: impl FnMut(u16) -> NodeObs) -> Self {
        self.shards = self
            .shards
            .drain(..)
            .enumerate()
            .map(|(s, n)| n.with_obs(hub_of(s as u16)))
            .collect();
        self
    }

    /// This engine's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The shared key→shard router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of hosted shards.
    pub fn shard_count(&self) -> u16 {
        self.shards.len() as u16
    }

    /// One shard's LOT instance, for per-shard inspection (logs, stats,
    /// stores).
    pub fn shard(&self, s: u16) -> &CanopusNode {
        &self.shards[s as usize]
    }

    /// Engine-level counters.
    pub fn stats(&self) -> ShardEngineStats {
        self.stats
    }

    /// Sum of a per-shard statistic across all shards.
    pub fn aggregate<T: std::iter::Sum>(&self, f: impl Fn(&CanopusStats) -> T) -> T {
        self.shards.iter().map(|n| f(&n.stats())).sum()
    }

    /// Runs one inner-node callback on shard `s` under a detached context
    /// and replays its effects onto the real context: protocol sends are
    /// wrapped with the shard id, replies are filtered through the
    /// cross-shard transaction table, timers are re-tokenized.
    fn drive(
        &mut self,
        s: u16,
        ctx: &mut Context<'_, ShardMsg>,
        f: impl FnOnce(&mut CanopusNode, &mut Context<'_, CanopusMsg>),
    ) {
        let mut sub = Context::detached(ctx.now(), self.me, &mut self.rng, &mut self.timer_seq);
        f(&mut self.shards[s as usize], &mut sub);
        let (effects, charged) = sub.into_effects();
        ctx.charge(charged);
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => match msg {
                    CanopusMsg::Reply(reply) => {
                        if let Some(reply) = self.resolve_reply(to, reply) {
                            let dest = self.reply_via.remove(&(to, reply.op_id)).unwrap_or(to);
                            ctx.send(dest, ShardMsg::Reply(reply));
                        }
                    }
                    inner => ctx.send(to, ShardMsg::Shard { shard: s, inner }),
                },
                Effect::SetTimer { after, token, .. } => {
                    debug_assert!(token < 1 << TOKEN_SHIFT, "inner token too wide");
                    ctx.set_timer(after, (u64::from(s) << TOKEN_SHIFT) | token);
                }
                Effect::CancelTimer { .. } => {
                    // Canopus nodes never cancel timers; if that ever
                    // changes this multiplexer needs an id map like the
                    // harness ClientMux.
                    debug_assert!(false, "unexpected inner cancel_timer");
                }
            }
        }
    }

    /// Passes a shard's client reply through the transaction table: a
    /// part of a cross-shard transaction releases the single client
    /// reply only when it is the last part to commit.
    fn resolve_reply(&mut self, client: NodeId, reply: ClientReply) -> Option<ClientReply> {
        let key = (client, reply.op_id);
        let Some(txn) = self.txns.get_mut(&key) else {
            return Some(reply); // single-shard op: pass through
        };
        txn.parts_remaining -= 1;
        if txn.parts_remaining > 0 {
            return None;
        }
        self.txns.remove(&key);
        self.stats.txns_committed += 1;
        Some(ClientReply {
            op_id: reply.op_id,
            weight: 1,
            result: OpResult::Written,
        })
    }

    /// Routes one client request: single-shard ops go straight to their
    /// owner; a cross-shard `MultiPut` is split into per-shard parts
    /// sharing the client identity, registered in the transaction table.
    fn route_client(&mut self, from: NodeId, req: ClientRequest, ctx: &mut Context<'_, ShardMsg>) {
        if from != req.client {
            // Pseudo-client stream: remember the real sender for the reply.
            self.reply_via.insert((req.client, req.op_id), from);
        }
        if let Some(s) = self.router.shard_of(req.client, &req.op) {
            self.stats.routed_single += 1;
            self.drive(s, ctx, |n, sub| {
                n.on_message(from, CanopusMsg::Request(req), sub)
            });
            return;
        }
        // Cross-shard MultiPut. The anchor (lowest touched shard) is
        // implicit in the split: BTreeMap iteration order delivers the
        // anchor part first, and the reply releases when all parts have
        // committed.
        let Op::MultiPut { puts } = &req.op else {
            unreachable!("only MultiPut can span shards");
        };
        let parts = self.router.split_multi(puts);
        debug_assert!(parts.len() > 1, "single-shard multiput routed above");
        self.txns.insert(
            (req.client, req.op_id),
            TxnState {
                parts_remaining: parts.len() as u32,
            },
        );
        self.stats.txns_started += 1;
        for (s, shard_puts) in parts {
            let part = ClientRequest {
                client: req.client,
                op_id: req.op_id,
                op: Op::MultiPut { puts: shard_puts },
            };
            self.drive(s, ctx, |n, sub| {
                n.on_message(from, CanopusMsg::Request(part), sub)
            });
        }
    }
}

impl Process<ShardMsg> for ShardEngine {
    fn on_start(&mut self, ctx: &mut Context<'_, ShardMsg>) {
        for s in 0..self.shard_count() {
            self.drive(s, ctx, |n, sub| n.on_start(sub));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ShardMsg, ctx: &mut Context<'_, ShardMsg>) {
        match msg {
            ShardMsg::Client(req) => self.route_client(from, req, ctx),
            ShardMsg::Shard { shard, inner } => {
                if shard < self.shard_count() {
                    self.drive(shard, ctx, |n, sub| n.on_message(from, inner, sub));
                }
            }
            // Replies terminate at clients; an engine receiving one
            // (e.g. echoed by a confused peer) drops it.
            ShardMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, ShardMsg>) {
        let s = (timer.token >> TOKEN_SHIFT) as u16;
        let token = timer.token & ((1 << TOKEN_SHIFT) - 1);
        if s >= self.shard_count() {
            return;
        }
        // Timer work belongs to the shard's lane (cycle starts, linger
        // fires — the CPU-heavy paths).
        ctx.use_lane(u64::from(s));
        self.drive(s, ctx, |n, sub| {
            n.on_timer(
                Timer {
                    id: timer.id,
                    token,
                },
                sub,
            )
        });
    }

    canopus_sim::impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LotShape;
    use canopus_sim::Time;

    fn table() -> EmulationTable {
        EmulationTable::new(
            LotShape::flat(1),
            vec![vec![NodeId(0), NodeId(1), NodeId(2)]],
        )
    }

    #[test]
    fn shard_msgs_round_trip() {
        let msgs = vec![
            ShardMsg::Client(ClientRequest {
                client: NodeId(9),
                op_id: 7,
                op: Op::Get { key: 3 },
            }),
            ShardMsg::Shard {
                shard: 3,
                inner: CanopusMsg::ProposalRequest {
                    cycle: crate::types::CycleId(4),
                    vnode: crate::types::VnodeId(vec![0]),
                },
            },
            ShardMsg::Reply(ClientReply {
                op_id: 7,
                weight: 1,
                result: OpResult::Written,
            }),
        ];
        for msg in msgs {
            assert_eq!(ShardMsg::from_bytes(msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn lane_hint_matches_router() {
        let router = ShardRouter::new(4);
        for key in 0..200u64 {
            let msg = ShardMsg::Client(ClientRequest {
                client: NodeId(50),
                op_id: 1,
                op: Op::Put {
                    key,
                    value: Bytes::new(),
                },
            });
            assert_eq!(
                (msg.lane_hint() % 4) as u16,
                router.shard_of_key(key),
                "lane and shard must agree for key {key}"
            );
        }
        // Synthetic streams: lane follows the client hash.
        for c in 0..50u32 {
            let msg = ShardMsg::Client(ClientRequest {
                client: NodeId(c),
                op_id: 1,
                op: Op::SyntheticRead { count: 4 },
            });
            assert_eq!(
                (msg.lane_hint() % 4) as u16,
                router.shard_of_client(NodeId(c))
            );
        }
        // Shard traffic rides its own lane.
        let m = ShardMsg::Shard {
            shard: 2,
            inner: CanopusMsg::ProposalRequest {
                cycle: crate::types::CycleId(1),
                vnode: crate::types::VnodeId(vec![0]),
            },
        };
        assert_eq!(m.lane_hint(), 2);
    }

    #[test]
    fn timer_tokens_pack_shard_and_inner() {
        let mut engine = ShardEngine::new(NodeId(0), table(), CanopusConfig::default(), 4, 11);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seq = 0;
        let mut ctx: Context<'_, ShardMsg> =
            Context::detached(Time::ZERO, NodeId(0), &mut rng, &mut seq);
        engine.on_start(&mut ctx);
        let (effects, _) = ctx.into_effects();
        let tokens: Vec<u64> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .collect();
        assert!(!tokens.is_empty(), "startup arms per-shard timers");
        // Every shard armed at least one timer and the shard id is
        // recoverable from the token's high bits.
        let shards: std::collections::BTreeSet<u64> =
            tokens.iter().map(|t| t >> TOKEN_SHIFT).collect();
        assert_eq!(shards, (0..4u64).collect());
    }

    #[test]
    fn cross_shard_txn_releases_one_reply_when_all_parts_commit() {
        let mut engine = ShardEngine::new(NodeId(0), table(), CanopusConfig::default(), 4, 11);
        let router = engine.router();
        let k0 = (0..).find(|k| router.shard_of_key(*k) == 0).unwrap();
        let k3 = (0..).find(|k| router.shard_of_key(*k) == 3).unwrap();
        let client = NodeId(40);
        let req = ClientRequest {
            client,
            op_id: 5,
            op: Op::MultiPut {
                puts: vec![
                    (k0, Bytes::from_static(b"a")),
                    (k3, Bytes::from_static(b"b")),
                ],
            },
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seq = 0;
        let mut ctx: Context<'_, ShardMsg> =
            Context::detached(Time::ZERO, NodeId(0), &mut rng, &mut seq);
        engine.on_message(client, ShardMsg::Client(req), &mut ctx);
        assert_eq!(engine.stats().txns_started, 1);
        assert_eq!(engine.txns.len(), 1);

        // Simulate both parts committing: the inner nodes would emit one
        // reply each; the resolver must swallow the first and release
        // exactly one aggregated reply on the last.
        let part_reply = ClientReply {
            op_id: 5,
            weight: 1,
            result: OpResult::Written,
        };
        assert!(engine.resolve_reply(client, part_reply.clone()).is_none());
        let released = engine
            .resolve_reply(client, part_reply)
            .expect("final part");
        assert_eq!(released.op_id, 5);
        assert_eq!(released.result, OpResult::Written);
        assert_eq!(engine.stats().txns_committed, 1);
        assert!(engine.txns.is_empty());

        // Unrelated replies pass through untouched.
        let plain = ClientReply {
            op_id: 99,
            weight: 1,
            result: OpResult::Batch,
        };
        assert_eq!(engine.resolve_reply(client, plain.clone()), Some(plain));
    }
}
