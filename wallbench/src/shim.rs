//! The timing shim of the traced run.
//!
//! [`Traced`] wraps a node's `Process` (a `CanopusNode` or a
//! `ShardEngine`) and, around every callback, records a span per message
//! kind or timer, counts messages and wire bytes by kind, keeps a sample
//! of real messages for codec replay, and polls each LOT instance's
//! started/committed cycle to time cycles at this node. Only the measured
//! window is recorded.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use canopus::{CanopusNode, CanopusStats, ShardEngine};
use canopus_sim::{impl_process_any, Context, NodeId, Process, Timer};

use crate::gen::{ClientPlane, GenShared};
use crate::hist::LogHistogram;
use crate::span::{names, SpanBuf, NO_ID, NO_PARENT};

/// Wire kinds, in the order every per-kind table uses.
pub const KINDS: [&str; 5] = [
    "request",
    "reply",
    "raft",
    "proposal_request",
    "proposal_response",
];
const CORE_MSG: [&str; 5] = [
    "core.on_message.request",
    "core.on_message.reply",
    "core.on_message.raft",
    "core.on_message.proposal_request",
    "core.on_message.proposal_response",
];
const SHARD_MSG: [&str; 5] = [
    "shard.on_message.request",
    "shard.on_message.reply",
    "shard.on_message.raft",
    "shard.on_message.proposal_request",
    "shard.on_message.proposal_response",
];

/// Index of a wire kind in [`KINDS`].
pub fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or_else(|| panic!("unknown wire kind {kind:?}"))
}

/// Every `SAMPLE_EVERY`-th message of a kind is kept for codec replay,
/// up to `SAMPLE_CAP` messages or `SAMPLE_BYTES` wire bytes per kind.
const SAMPLE_EVERY: u64 = 8;
const SAMPLE_CAP: usize = 256;
const SAMPLE_BYTES: usize = 2 << 20;

/// Access to the LOT instances a process hosts.
pub trait Lots {
    /// Number of LOT instances (1 for a plain node).
    fn lot_count(&self) -> usize;
    /// One LOT instance.
    fn lot(&self, i: usize) -> &CanopusNode;
    /// Requests routed to a single shard, if the process shards.
    fn routed_single(&self) -> Option<u64>;
}

impl Lots for CanopusNode {
    fn lot_count(&self) -> usize {
        1
    }
    fn lot(&self, _i: usize) -> &CanopusNode {
        self
    }
    fn routed_single(&self) -> Option<u64> {
        None
    }
}

impl Lots for ShardEngine {
    fn lot_count(&self) -> usize {
        self.shard_count() as usize
    }
    fn lot(&self, i: usize) -> &CanopusNode {
        self.shard(i as u16)
    }
    fn routed_single(&self) -> Option<u64> {
        Some(self.stats().routed_single)
    }
}

/// Cycle bookkeeping of one LOT instance at one node.
#[derive(Debug, Default)]
struct LotClock {
    started: u64,
    committed: u64,
    /// Start times of cycles not yet committed here.
    starts: VecDeque<(u64, u64)>,
    /// ∫ (started − committed) dt over the window, ns·cycles.
    in_flight_area: u128,
    last_poll: u64,
}

/// What one node's shim measured, handed to the report after the run.
#[derive(Debug, Default)]
pub struct NodeTrace {
    /// Spans recorded inside the window.
    pub spans: Vec<crate::span::Span>,
    /// Messages received in the window, by kind.
    pub msgs: [u64; 5],
    /// Wire bytes received in the window, by kind.
    pub bytes: [u64; 5],
    /// Cycle start → commit at this node, for commits in the window.
    pub cycle_ns: LogHistogram,
    /// Mean cycles in flight per LOT instance over the window.
    pub in_flight_mean: f64,
    /// Per-LOT stats at the window's start and end, with their times.
    pub stats_start: Option<(u64, Vec<CanopusStats>)>,
    /// See `stats_start`.
    pub stats_end: Option<(u64, Vec<CanopusStats>)>,
    /// Requests the process routed to one shard, and requests received.
    pub routed: Option<(u64, u64)>,
}

/// A node process wrapped in the timing shim.
pub struct Traced<P, M> {
    inner: P,
    sharded: bool,
    node: u32,
    shared: Arc<GenShared>,
    warmup: u64,
    window_len: u64,
    window: Option<(u64, u64)>,
    spans: Option<SpanBuf>,
    clocks: Vec<LotClock>,
    seen: [u64; 5],
    requests: u64,
    /// Sampled messages by kind, for codec replay.
    pub samples: Vec<Vec<M>>,
    sample_bytes: [usize; 5],
    out: NodeTrace,
}

impl<P: Lots, M> Traced<P, M> {
    /// Wraps `inner`; the window is `warmup` after set-up, `window_len` long.
    pub fn new(
        inner: P,
        node: NodeId,
        sharded: bool,
        shared: Arc<GenShared>,
        warmup: u64,
        window_len: u64,
    ) -> Self {
        let clocks = (0..inner.lot_count())
            .map(|_| LotClock::default())
            .collect();
        Traced {
            inner,
            sharded,
            node: node.0,
            shared,
            warmup,
            window_len,
            window: None,
            spans: None,
            clocks,
            seen: [0; 5],
            requests: 0,
            samples: (0..KINDS.len()).map(|_| Vec::new()).collect(),
            sample_bytes: [0; 5],
            out: NodeTrace::default(),
        }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Finishes the trace: closes the window bookkeeping and hands over
    /// what was measured.
    pub fn finish(&mut self) -> NodeTrace {
        let mut out = std::mem::take(&mut self.out);
        out.spans = self
            .spans
            .take()
            .map(SpanBuf::into_spans)
            .unwrap_or_default();
        if let Some((ws, we)) = self.window {
            let lots = self.clocks.len().max(1) as f64;
            let area: u128 = self.clocks.iter().map(|c| c.in_flight_area).sum();
            out.in_flight_mean = area as f64 / (we - ws) as f64 / lots;
        }
        out.routed = self.inner.routed_single().map(|r| (r, self.requests));
        out
    }

    /// The window, once set-up has finished.
    fn window(&mut self) -> Option<(u64, u64)> {
        if self.window.is_none() {
            let done = self.shared.setup_done.load(Ordering::SeqCst);
            if done != 0 {
                let ws = done + self.warmup;
                let w = (ws, ws + self.window_len);
                self.window = Some(w);
                self.spans = Some(SpanBuf::new(self.shared.origin, self.node, w.0, w.1));
            }
        }
        self.window
    }

    fn snapshot(&self) -> Vec<CanopusStats> {
        (0..self.inner.lot_count())
            .map(|i| self.inner.lot(i).stats())
            .collect()
    }

    /// Polls every LOT instance after a callback that ended at `now`.
    fn poll(&mut self, now: u64) {
        let Some((ws, we)) = self.window() else {
            return;
        };
        for (i, clock) in self.clocks.iter_mut().enumerate() {
            let lot = self.inner.lot(i);
            let (started, committed) = (lot.last_started().0, lot.last_committed().0);
            // Integrate cycles in flight over the part of [last, now]
            // inside the window.
            let (a, b) = (clock.last_poll.max(ws), now.min(we));
            if b > a {
                let depth = clock.started.saturating_sub(clock.committed);
                clock.in_flight_area += u128::from(depth) * u128::from(b - a);
            }
            clock.last_poll = now;
            for c in clock.started + 1..=started {
                clock.starts.push_back((c, now));
            }
            clock.started = clock.started.max(started);
            if committed > clock.committed {
                while let Some(&(c, t)) = clock.starts.front() {
                    if c > committed {
                        break;
                    }
                    clock.starts.pop_front();
                    if now >= ws && now < we {
                        self.out.cycle_ns.record(now - t);
                    }
                }
                clock.committed = committed;
            }
        }
        if now >= ws && self.out.stats_start.is_none() {
            self.out.stats_start = Some((now, self.snapshot()));
        }
        if now >= we && self.out.stats_end.is_none() {
            self.out.stats_end = Some((now, self.snapshot()));
        }
    }

    fn in_window(&self, t: u64) -> bool {
        self.window.is_some_and(|(ws, we)| t >= ws && t < we)
    }
}

impl<P, M> Process<M> for Traced<P, M>
where
    P: Process<M> + Lots,
    M: ClientPlane,
{
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>) {
        let k = kind_index(msg.kind());
        let id = msg.client_request().map_or(NO_ID, |r| r.op_id);
        if id != NO_ID {
            self.requests += 1;
        }
        if self.in_window(self.shared.now()) {
            let size = msg.wire_size();
            self.out.msgs[k] += 1;
            self.out.bytes[k] += size as u64;
            self.seen[k] += 1;
            if self.seen[k].is_multiple_of(SAMPLE_EVERY)
                && self.samples[k].len() < SAMPLE_CAP
                && self.sample_bytes[k] + size <= SAMPLE_BYTES
            {
                self.sample_bytes[k] += size;
                self.samples[k].push(msg.clone());
            }
        }
        let start = self.shared.now();
        self.inner.on_message(from, msg, ctx);
        let end = self.shared.now();
        let name = if self.sharded {
            SHARD_MSG[k]
        } else {
            CORE_MSG[k]
        };
        if let Some(buf) = &mut self.spans {
            buf.push(name, id, start, end, NO_PARENT);
        }
        self.poll(end);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, M>) {
        let start = self.shared.now();
        self.inner.on_timer(timer, ctx);
        let end = self.shared.now();
        let name = if self.sharded {
            names::SHARD_TIMER
        } else {
            names::CORE_TIMER
        };
        if let Some(buf) = &mut self.spans {
            buf.push(name, NO_ID, start, end, NO_PARENT);
        }
        self.poll(end);
    }

    impl_process_any!();
}
