//! The load generator: one transport process, one thread, one connection
//! per target node.
//!
//! It first sends probe writes until one is acknowledged (the end of
//! set-up), then drives an open loop (Poisson arrivals at a fixed rate) or
//! a closed loop (sessions with one op outstanding each and no think time)
//! for a warm-up and a measured window, stops issuing, and drains. Every
//! op lands in an op log the report reads after the run; every `Get`
//! result is checked against the writes issued for its key as it arrives.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use canopus::{CanopusMsg, ShardMsg};
use canopus_kv::{ClientReply, ClientRequest, Op, OpResult};
use canopus_net::Wire;
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Payload, Process, Timer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::span::{names, SpanBuf, NO_ID, NO_PARENT};

/// The client plane of a deployment's wire message.
pub trait ClientPlane: Payload + Wire + Send + Clone + PartialEq {
    /// Wraps a client request.
    fn request(req: ClientRequest) -> Self;
    /// The reply this message carries, if any.
    fn reply(&self) -> Option<&ClientReply>;
    /// The client request this message carries, if any.
    fn client_request(&self) -> Option<&ClientRequest>;
}

impl ClientPlane for CanopusMsg {
    fn request(req: ClientRequest) -> Self {
        CanopusMsg::Request(req)
    }
    fn reply(&self) -> Option<&ClientReply> {
        match self {
            CanopusMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn client_request(&self) -> Option<&ClientRequest> {
        match self {
            CanopusMsg::Request(r) => Some(r),
            _ => None,
        }
    }
}

impl ClientPlane for ShardMsg {
    fn request(req: ClientRequest) -> Self {
        ShardMsg::Client(req)
    }
    fn reply(&self) -> Option<&ClientReply> {
        match self {
            ShardMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
    fn client_request(&self) -> Option<&ClientRequest> {
        match self {
            ShardMsg::Client(r) => Some(r),
            _ => None,
        }
    }
}

/// How load is offered once set-up is done.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Load {
    /// Poisson arrivals at this many ops per second.
    Open { rate: f64 },
    /// This many sessions, each with one op outstanding, zero think time.
    Closed { sessions: usize },
    /// Set-up measurement only: stop after the first acknowledged probe.
    ProbeOnly,
}

/// Generator settings. Durations are nanoseconds.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Offered load.
    pub load: Load,
    /// Share of ops that are `Put`s.
    pub write_frac: f64,
    /// Keys are uniform over `0..keys`.
    pub keys: u64,
    /// Nodes the generator sends to.
    pub targets: Vec<NodeId>,
    /// Load before the measured window.
    pub warmup: u64,
    /// Measured window.
    pub window: u64,
    /// An op unanswered this long counts as failed.
    pub op_timeout: u64,
    /// Longest wait for outstanding ops after the window.
    pub drain: u64,
    /// Workload seed (keys, mix, arrivals, targets).
    pub seed: u64,
    /// Record spans.
    pub trace: bool,
}

/// Interval between probe writes while the cluster comes up.
const PROBE_EVERY: u64 = 5_000_000;
/// The generator's own tick.
const TICK: Dur = Dur::millis(1);

/// Progress the orchestrating thread watches. Times are ns since `origin`.
#[derive(Debug)]
pub struct GenShared {
    /// Common time origin of the run (node spawns count from here too).
    pub origin: Instant,
    /// When the first probe write was acknowledged (0 = not yet).
    pub setup_done: AtomicU64,
    /// Set once issuing has stopped and outstanding ops have drained.
    pub done: AtomicBool,
}

impl GenShared {
    /// Fresh progress record with `origin` as time zero.
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(GenShared {
            origin,
            setup_done: AtomicU64::new(0),
            done: AtomicBool::new(false),
        })
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Life of one op.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpState {
    /// Sent, no reply yet.
    Outstanding,
    /// Answered in time.
    Completed,
    /// Not answered within the op timeout.
    Failed,
}

/// One issued op. Times are ns since the origin.
#[derive(Copy, Clone, Debug)]
pub struct OpRec {
    /// When the op was due (open loop: its arrival; closed loop: when its
    /// session became ready).
    pub due: u64,
    /// When the generator sent it.
    pub sent: u64,
    /// When its reply arrived (0 while none).
    pub done: u64,
    /// The key.
    pub key: u64,
    /// `Put` (true) or `Get`.
    pub write: bool,
    /// A set-up probe, not load.
    pub probe: bool,
    /// Closed-loop session (0 in an open loop).
    pub session: u32,
    /// Outcome.
    pub state: OpState,
}

impl OpRec {
    /// Latency as the workload defines it: from due time (open loop) or
    /// issue time (closed loop) to reply.
    pub fn latency(&self, open: bool) -> u64 {
        self.done - if open { self.due } else { self.sent }
    }

    /// How late the generator sent the op.
    pub fn lag(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// The generator process.
pub struct Generator<M> {
    me: NodeId,
    cfg: GenConfig,
    shared: Arc<GenShared>,
    rng: SmallRng,
    /// Indexed by op id.
    pub ops: Vec<OpRec>,
    /// Op ids in issue order that may still be outstanding.
    pending: VecDeque<u64>,
    outstanding: u64,
    next_probe: u64,
    next_due: u64,
    /// Window start and end, fixed when set-up completes.
    pub window: (u64, u64),
    stopped_issuing: bool,
    /// Replies that arrived after their op had failed.
    pub late: u64,
    /// Counts kept as events happen, checked against the op log.
    pub issued: u64,
    /// Replies accepted.
    pub completed: u64,
    /// Ops timed out.
    pub failed: u64,
    /// Highest number of ops outstanding at once during the window.
    pub outstanding_max: u64,
    /// Correctness violations seen at the client, with the first few
    /// described.
    pub violations: u64,
    /// Descriptions of the first violations.
    pub violation_notes: Vec<String>,
    /// Spans of the window, when tracing.
    pub spans: Option<SpanBuf>,
    /// Replies received inside the window: messages, wire bytes.
    pub recv_in_window: (u64, u64),
    /// Every eighth reply received in the window (up to 256), for codec
    /// replay.
    pub reply_samples: Vec<M>,
}

impl<M: ClientPlane> Generator<M> {
    /// A generator with transport id `me`.
    pub fn new(me: NodeId, cfg: GenConfig, shared: Arc<GenShared>) -> Self {
        Generator {
            me,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x6e6e_0001),
            cfg,
            shared,
            ops: Vec::new(),
            pending: Default::default(),
            outstanding: 0,
            next_probe: 0,
            next_due: 0,
            window: (u64::MAX, u64::MAX),
            stopped_issuing: false,
            late: 0,
            issued: 0,
            completed: 0,
            failed: 0,
            outstanding_max: 0,
            violations: 0,
            violation_notes: Vec::new(),
            spans: None,
            recv_in_window: (0, 0),
            reply_samples: Vec::new(),
        }
    }

    /// Whether the load is an open loop.
    pub fn is_open(&self) -> bool {
        matches!(self.cfg.load, Load::Open { .. })
    }

    fn violation(&mut self, note: String) {
        self.violations += 1;
        if self.violation_notes.len() < 8 {
            self.violation_notes.push(note);
        }
    }

    fn now(&self) -> u64 {
        self.shared.now()
    }

    /// Issues one op and returns its id.
    fn issue(
        &mut self,
        due: u64,
        session: u32,
        probe: bool,
        parent: u32,
        ctx: &mut Context<'_, M>,
    ) -> u64 {
        let start = self.now();
        let op_id = self.ops.len() as u64;
        // Probes draw nothing from the workload's random stream, so the
        // load's keys and mix do not depend on how long set-up took.
        let (write, key) = if probe {
            (true, op_id % self.cfg.keys)
        } else {
            let write = self.rng.gen_bool(self.cfg.write_frac);
            (write, self.rng.gen_range(0..self.cfg.keys))
        };
        let n = self.cfg.targets.len();
        let target = match self.cfg.load {
            _ if probe => self.cfg.targets[op_id as usize % n],
            Load::Closed { .. } => self.cfg.targets[session as usize % n],
            _ => self.cfg.targets[self.rng.gen_range(0..n)],
        };
        // The value names the op that wrote it, so a read can be traced
        // back to an issued write of the same key.
        let op = if write {
            Op::Put {
                key,
                value: Bytes::copy_from_slice(&op_id.to_le_bytes()),
            }
        } else {
            Op::Get { key }
        };
        ctx.send(
            target,
            M::request(ClientRequest {
                client: self.me,
                op_id,
                op,
            }),
        );
        self.ops.push(OpRec {
            due,
            sent: start,
            done: 0,
            key,
            write,
            probe,
            session,
            state: OpState::Outstanding,
        });
        self.pending.push_back(op_id);
        self.issued += 1;
        self.outstanding += 1;
        if start >= self.window.0 && start < self.window.1 {
            self.outstanding_max = self.outstanding_max.max(self.outstanding);
        }
        if let Some(buf) = &mut self.spans {
            let end = buf.now();
            buf.push(names::GEN_SEND, op_id, start, end, parent);
        }
        op_id
    }

    /// Marks ops unanswered past the timeout as failed; returns the
    /// closed-loop sessions that are free again.
    fn expire(&mut self, now: u64) -> Vec<u32> {
        let mut freed = Vec::new();
        while let Some(&id) = self.pending.front() {
            let op = &mut self.ops[id as usize];
            if op.state != OpState::Outstanding {
                self.pending.pop_front();
                continue;
            }
            if now.saturating_sub(op.sent) < self.cfg.op_timeout {
                break;
            }
            op.state = OpState::Failed;
            self.pending.pop_front();
            self.failed += 1;
            self.outstanding -= 1;
            if !op.probe {
                freed.push(op.session);
            }
        }
        freed
    }

    fn start_load(&mut self, now: u64, ctx: &mut Context<'_, M>) {
        self.shared.setup_done.store(now, Ordering::SeqCst);
        let ws = now + self.cfg.warmup;
        self.window = (ws, ws + self.cfg.window);
        if self.cfg.trace {
            let buf = SpanBuf::new(self.shared.origin, self.me.0, ws, ws + self.cfg.window);
            self.spans = Some(buf);
        }
        match self.cfg.load {
            Load::Open { .. } => self.next_due = now,
            Load::Closed { sessions } => {
                for s in 0..sessions as u32 {
                    self.issue(now, s, false, NO_PARENT, ctx);
                }
            }
            Load::ProbeOnly => {
                self.stopped_issuing = true;
                self.shared.done.store(true, Ordering::SeqCst);
            }
        }
    }
}

impl<M: ClientPlane> Process<M> for Generator<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, _from: NodeId, msg: M, ctx: &mut Context<'_, M>) {
        let Some(reply) = msg.reply() else {
            return;
        };
        let now = self.now();
        if now >= self.window.0 && now < self.window.1 {
            self.recv_in_window.0 += 1;
            self.recv_in_window.1 += msg.wire_size() as u64;
            if self.cfg.trace
                && self.recv_in_window.0.is_multiple_of(8)
                && self.reply_samples.len() < 256
            {
                self.reply_samples.push(msg.clone());
            }
        }
        let tick = self
            .spans
            .as_mut()
            .map(|b| b.open(names::GEN_REPLY, reply.op_id, now));
        let Some(op) = self.ops.get(reply.op_id as usize).copied() else {
            self.violation(format!("reply for unknown op {}", reply.op_id));
            return;
        };
        match op.state {
            OpState::Failed => {
                self.late += 1;
                return;
            }
            OpState::Completed => {
                self.violation(format!("second reply for op {}", reply.op_id));
                return;
            }
            OpState::Outstanding => {}
        }
        match (&reply.result, op.write) {
            (OpResult::Written, true) => {}
            (OpResult::Value(None), false) => {}
            (OpResult::Value(Some(v)), false) => {
                let writer = <[u8; 8]>::try_from(&v[..]).ok().map(u64::from_le_bytes);
                let valid = writer
                    .and_then(|w| self.ops.get(w as usize))
                    .is_some_and(|w| w.write && w.key == op.key && w.sent <= now);
                if !valid {
                    self.violation(format!(
                        "get of key {} (op {}) returned a value no write of that key issued",
                        op.key, reply.op_id
                    ));
                }
            }
            (other, write) => {
                self.violation(format!(
                    "op {} (write: {write}) answered with {other:?}",
                    reply.op_id
                ));
            }
        }
        let rec = &mut self.ops[reply.op_id as usize];
        rec.done = now;
        rec.state = OpState::Completed;
        self.completed += 1;
        self.outstanding -= 1;

        let parent = tick.unwrap_or(NO_PARENT);
        if op.probe {
            if self.shared.setup_done.load(Ordering::SeqCst) == 0 {
                self.start_load(now, ctx);
            }
        } else if matches!(self.cfg.load, Load::Closed { .. }) && now < self.window.1 {
            self.issue(now, op.session, false, parent, ctx);
        }
        if let (Some(buf), Some(idx)) = (&mut self.spans, tick) {
            let end = buf.now();
            buf.close(idx, end);
        }
    }

    fn on_timer(&mut self, _timer: Timer, ctx: &mut Context<'_, M>) {
        ctx.set_timer(TICK, 0);
        let now = self.now();
        if self.shared.setup_done.load(Ordering::SeqCst) == 0 {
            if now >= self.next_probe {
                self.next_probe = now + PROBE_EVERY;
                self.issue(now, 0, true, NO_PARENT, ctx);
            }
            self.expire(now);
            return;
        }
        if self.stopped_issuing {
            self.expire(now);
            if self.outstanding == 0 || now >= self.window.1 + self.cfg.drain {
                self.shared.done.store(true, Ordering::SeqCst);
            }
            return;
        }
        let tick = self
            .spans
            .as_mut()
            .map(|b| b.open(names::GEN_TICK, NO_ID, now));
        let parent = tick.unwrap_or(NO_PARENT);
        let freed = self.expire(now);
        let end_issue = self.window.1;
        match self.cfg.load {
            Load::Open { rate } => {
                while self.next_due <= now && self.next_due < end_issue {
                    let due = self.next_due;
                    self.issue(due, 0, false, parent, ctx);
                    // Exponential inter-arrival gap: a Poisson process.
                    let u: f64 = self.rng.gen();
                    self.next_due += (-(1.0 - u).ln() / rate * 1e9) as u64;
                }
            }
            Load::Closed { .. } => {
                for s in freed {
                    self.issue(now, s, false, parent, ctx);
                }
            }
            Load::ProbeOnly => {}
        }
        if now >= end_issue {
            self.stopped_issuing = true;
        }
        if let (Some(buf), Some(idx)) = (&mut self.spans, tick) {
            let end = buf.now();
            buf.close(idx, end);
        }
    }

    impl_process_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due: u64, sent: u64, done: u64) -> OpRec {
        OpRec {
            due,
            sent,
            done,
            key: 1,
            write: true,
            probe: false,
            session: 0,
            state: OpState::Completed,
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 10 ms, sent 4 ms late, answered at 30 ms.
        let op = rec(10_000_000, 14_000_000, 30_000_000);
        assert_eq!(op.latency(true), 20_000_000);
        assert_eq!(op.lag(), 4_000_000);
        // A closed loop times from issue.
        assert_eq!(op.latency(false), 16_000_000);
    }

    #[test]
    fn lag_never_underflows() {
        let op = rec(5, 5, 9);
        assert_eq!(op.lag(), 0);
        assert_eq!(op.latency(true), 4);
    }
}
