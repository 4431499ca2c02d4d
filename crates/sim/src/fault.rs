//! The deterministic nemesis engine: seeded, time-ordered fault schedules
//! applied to a running [`Simulation`], and the one network fault policy
//! both runtimes share.
//!
//! A [`FaultPlan`] is a declarative, virtual-time schedule of
//! [`FaultEvent`]s — partitions, crashes, restarts, loss injection, node
//! isolation, link flapping — built with combinators (`at`, `then`,
//! `repeat`, `randomized`). A [`NemesisDriver`] replays the plan against
//! any simulation over a [`FaultFabric`], interleaving fault application
//! with event processing so faults land at exact virtual instants.
//!
//! A [`FaultTable`] is what every network [`FaultAction`] means: cuts,
//! isolation, crash marks, global and per-sender loss, and the drop
//! verdict they give one message. The simulator's [`FaultFabric`] and the
//! live transport's `canopus_net::FaultRules` both decide drops through
//! it, so the same plan injects the same faults simulated and live.
//!
//! Determinism: the plan is data, the jitter is seeded, and the driver
//! advances the simulation with `run_until` between events — so the same
//! plan + seed always yields the same execution (guarded by the trace-hash
//! regression tests in the chaos suite).

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fabric::{Fabric, FaultFabric};
use crate::process::{NodeId, Payload, Process};
use crate::sim::Simulation;
use crate::time::{Dur, Time};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Cut every link with one endpoint in `a` and the other in `b`.
    CutGroups {
        /// One side of the partition.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
    /// Remove every installed partition and isolation, and zero all loss.
    HealAll,
    /// Crash-stop a node.
    Crash(NodeId),
    /// Restart a crashed node with a fresh (or recovered) process.
    Restart(NodeId),
    /// Set the global message-loss probability.
    SetLoss(f64),
    /// Set an asymmetric loss rate on one node's outbound traffic.
    SetNodeOutLoss {
        /// The impaired sender.
        node: NodeId,
        /// Drop probability for its outbound messages.
        loss: f64,
    },
    /// Cut a node off from everyone (both directions).
    IsolateNode(NodeId),
    /// Toggle the `a`↔`b` cut every `period`, starting cut, until the next
    /// `HealAll` in the plan (or the driver's horizon).
    FlapLink {
        /// One side of the flapping link.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// Toggle period.
        period: Dur,
    },
}

/// A concrete action on the timeline after flap expansion.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Install a group cut.
    Cut(Vec<NodeId>, Vec<NodeId>),
    /// Remove a group cut.
    Heal(Vec<NodeId>, Vec<NodeId>),
    /// Remove all partitions/isolations and zero loss.
    HealAll,
    /// Crash-stop a node.
    Crash(NodeId),
    /// Restart a crashed node.
    Restart(NodeId),
    /// Set the global loss probability.
    SetLoss(f64),
    /// Set one node's outbound loss probability.
    SetNodeOutLoss(NodeId, f64),
    /// Isolate a node.
    Isolate(NodeId),
}

/// A seeded, time-ordered schedule of fault events. Offsets are relative
/// to the instant the plan is handed to a [`NemesisDriver`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(Dur, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds `event` at absolute offset `at` from the plan start.
    pub fn at(mut self, at: Dur, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Adds `event` `gap` after the previously added event (or at `gap`
    /// for the first event).
    pub fn then(self, gap: Dur, event: FaultEvent) -> Self {
        let base = self.events.last().map(|(d, _)| *d).unwrap_or(Dur::ZERO);
        self.at(base + gap, event)
    }

    /// Repeats the current schedule `times` additional times, each copy
    /// shifted by a further `period`. The original occupies repetition 0.
    pub fn repeat(mut self, times: usize, period: Dur) -> Self {
        let base: Vec<(Dur, FaultEvent)> = self.events.clone();
        for i in 1..=times {
            let shift = Dur::nanos(period.as_nanos() * i as u64);
            for (d, ev) in &base {
                self.events.push((*d + shift, ev.clone()));
            }
        }
        self
    }

    /// Applies deterministic jitter of up to `jitter` to every event
    /// offset, drawn from a `seed`ed RNG. Same seed ⇒ same jitter.
    pub fn randomized(mut self, seed: u64, jitter: Dur) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4e454d45_53495321);
        for (d, _) in &mut self.events {
            let j = Dur::nanos(rng.gen_range(0..jitter.as_nanos().max(1)));
            *d += j;
        }
        self
    }

    /// The raw schedule, in insertion order.
    pub fn events(&self) -> &[(Dur, FaultEvent)] {
        &self.events
    }

    /// Expands the plan into a concrete, time-sorted action timeline
    /// anchored at `start`, bounded by `horizon`. `FlapLink` unrolls into
    /// alternating cut/heal actions until the next `HealAll` after it (or
    /// the horizon).
    pub fn timeline(&self, start: Time, horizon: Dur) -> Vec<(Time, FaultAction)> {
        let end = start + horizon;
        let mut out: Vec<(Time, u64, FaultAction)> = Vec::new();
        let mut seq = 0u64;
        let push = |out: &mut Vec<(Time, u64, FaultAction)>, seq: &mut u64, t, a| {
            out.push((t, *seq, a));
            *seq += 1;
        };
        for (i, (offset, event)) in self.events.iter().enumerate() {
            let t = start + *offset;
            if t > end {
                continue;
            }
            match event {
                FaultEvent::CutGroups { a, b } => {
                    push(
                        &mut out,
                        &mut seq,
                        t,
                        FaultAction::Cut(a.clone(), b.clone()),
                    );
                }
                FaultEvent::HealAll => push(&mut out, &mut seq, t, FaultAction::HealAll),
                FaultEvent::Crash(n) => push(&mut out, &mut seq, t, FaultAction::Crash(*n)),
                FaultEvent::Restart(n) => push(&mut out, &mut seq, t, FaultAction::Restart(*n)),
                FaultEvent::SetLoss(p) => push(&mut out, &mut seq, t, FaultAction::SetLoss(*p)),
                FaultEvent::SetNodeOutLoss { node, loss } => {
                    push(
                        &mut out,
                        &mut seq,
                        t,
                        FaultAction::SetNodeOutLoss(*node, *loss),
                    );
                }
                FaultEvent::IsolateNode(n) => {
                    push(&mut out, &mut seq, t, FaultAction::Isolate(*n));
                }
                FaultEvent::FlapLink { a, b, period } => {
                    assert!(!period.is_zero(), "flap period must be positive");
                    // Flap until the next HealAll scheduled after this event.
                    let stop = self
                        .events
                        .iter()
                        .enumerate()
                        .filter(|(j, (d, ev))| {
                            matches!(ev, FaultEvent::HealAll)
                                && (*d > *offset || (*d == *offset && *j > i))
                        })
                        .map(|(_, (d, _))| start + *d)
                        .min()
                        .unwrap_or(end)
                        .min(end);
                    let mut cut = true;
                    let mut when = t;
                    while when < stop {
                        let action = if cut {
                            FaultAction::Cut(a.clone(), b.clone())
                        } else {
                            FaultAction::Heal(a.clone(), b.clone())
                        };
                        push(&mut out, &mut seq, when, action);
                        cut = !cut;
                        when += *period;
                    }
                    // Leave the link healed when the flap window closes
                    // without a terminating HealAll of its own.
                    if !cut {
                        push(
                            &mut out,
                            &mut seq,
                            stop,
                            FaultAction::Heal(a.clone(), b.clone()),
                        );
                    }
                }
            }
        }
        out.sort_by_key(|(t, s, _)| (*t, *s));
        out.into_iter().map(|(t, _, a)| (t, a)).collect()
    }
}

/// The network fault state of a cluster and the drop verdict it gives each
/// message. Plain data with no clock or I/O: the simulator's
/// [`FaultFabric`] owns one, and the live transport shares one behind a
/// lock.
#[derive(Debug, Default)]
pub struct FaultTable {
    /// Cut pairs keyed `(min, max)`: traffic between the two is dropped in
    /// both directions.
    cut: BTreeSet<(NodeId, NodeId)>,
    /// Nodes cut off from everyone, both directions.
    isolated: BTreeSet<NodeId>,
    /// Crash-stopped nodes whose traffic peers drop (the live transport
    /// marks them; the simulator stops crashed processes itself).
    crashed: BTreeSet<NodeId>,
    /// Global message-loss probability.
    loss: f64,
    /// Per-sender loss rates; an entry replaces the global rate for that
    /// sender, so 0.0 shields it.
    out_loss: BTreeMap<NodeId, f64>,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

fn assert_probability(p: f64) {
    assert!((0.0..=1.0).contains(&p), "loss must be a probability");
}

impl FaultTable {
    /// Applies a network action. `Crash` and `Restart` act on nodes and are
    /// ignored; `HealAll` clears cuts, isolation and all loss but keeps
    /// crash marks (a crashed node stays down until restarted).
    pub fn apply(&mut self, action: &FaultAction) {
        match action {
            FaultAction::Cut(a, b) => {
                for &x in a {
                    for &y in b {
                        self.cut.insert(pair(x, y));
                    }
                }
            }
            FaultAction::Heal(a, b) => {
                for &x in a {
                    for &y in b {
                        self.cut.remove(&pair(x, y));
                    }
                }
            }
            FaultAction::HealAll => {
                self.cut.clear();
                self.isolated.clear();
                self.loss = 0.0;
                self.out_loss.clear();
            }
            FaultAction::SetLoss(p) => {
                assert_probability(*p);
                self.loss = *p;
            }
            FaultAction::SetNodeOutLoss(n, p) => {
                assert_probability(*p);
                self.out_loss.insert(*n, *p);
            }
            FaultAction::Isolate(n) => {
                self.isolated.insert(*n);
            }
            FaultAction::Crash(_) | FaultAction::Restart(_) => {}
        }
    }

    /// Marks `node` crash-stopped (or clears the mark): while set, traffic
    /// to and from it is dropped.
    pub fn set_crashed(&mut self, node: NodeId, crashed: bool) {
        if crashed {
            self.crashed.insert(node);
        } else {
            self.crashed.remove(&node);
        }
    }

    /// Whether no rule is installed, so nothing is ever dropped.
    pub fn is_clear(&self) -> bool {
        self.cut.is_empty()
            && self.isolated.is_empty()
            && self.crashed.is_empty()
            && self.loss <= 0.0
            && self.out_loss.is_empty()
    }

    /// The deterministic verdict for `from → to`: isolation, then cuts,
    /// then crash marks. Never applies loss, so it is safe to consult more
    /// than once per message.
    pub fn drops_link(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.cut.contains(&pair(from, to))
            || self.crashed.contains(&from)
            || self.crashed.contains(&to)
    }

    /// The full verdict for `from → to`: the link verdict first, then one
    /// `rng` roll against the sender's loss rate, made only when that rate
    /// is above 0. Consult exactly once per message, or the loss compounds.
    pub fn drops(&self, from: NodeId, to: NodeId, rng: &mut SmallRng) -> bool {
        if self.drops_link(from, to) {
            return true;
        }
        let p = self.out_loss.get(&from).copied().unwrap_or(self.loss);
        p > 0.0 && rng.gen::<f64>() < p
    }
}

/// Factory invoked by the driver on `Restart`: receives the node id and,
/// when the kernel still holds it, the crashed process (so protocols with
/// durable state — e.g. Raft's term/vote/log — can model recovery).
pub type RestartFn<'a, M> =
    &'a mut dyn FnMut(NodeId, Option<Box<dyn Process<M>>>) -> Box<dyn Process<M>>;

/// The clock-agnostic core of a nemesis run: a cursor over the expanded
/// action timeline plus the applied/crash bookkeeping every driver needs.
///
/// The schedule knows nothing about *how* time advances — the virtual-time
/// [`NemesisDriver`] steps a [`Simulation`] between actions, while the
/// wall-clock live driver in `canopus-harness` sleeps real time between
/// them. Both pop due actions with [`NemesisSchedule::pop_due`], apply
/// network actions to their [`FaultTable`], and record the outcome with
/// [`NemesisSchedule::record`].
pub struct NemesisSchedule {
    timeline: Vec<(Time, FaultAction)>,
    next: usize,
    applied: Vec<(Time, FaultAction)>,
    ever_crashed: BTreeSet<NodeId>,
}

impl NemesisSchedule {
    /// Expands `plan` into a schedule anchored at `start`, bounded by
    /// `start + horizon`.
    pub fn new(plan: &FaultPlan, start: Time, horizon: Dur) -> Self {
        NemesisSchedule {
            timeline: plan.timeline(start, horizon),
            next: 0,
            applied: Vec::new(),
            ever_crashed: BTreeSet::new(),
        }
    }

    /// The instant of the next unapplied action, if any remain.
    pub fn next_at(&self) -> Option<Time> {
        self.timeline.get(self.next).map(|&(t, _)| t)
    }

    /// Pops the next action if it is due at or before `now`. The caller
    /// applies it to its fabric, then calls [`NemesisSchedule::record`].
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, FaultAction)> {
        match self.timeline.get(self.next) {
            Some(&(at, _)) if at <= now => {
                let entry = self.timeline[self.next].clone();
                self.next += 1;
                Some(entry)
            }
            _ => None,
        }
    }

    /// Records an action as applied. `Crash` actions the caller actually
    /// executed should also be reported via
    /// [`NemesisSchedule::mark_crashed`].
    pub fn record(&mut self, at: Time, action: FaultAction) {
        self.applied.push((at, action));
    }

    /// Notes that `node` was genuinely crashed (it was alive when the
    /// `Crash` action fired).
    pub fn mark_crashed(&mut self, node: NodeId) {
        self.ever_crashed.insert(node);
    }

    /// Whether every scheduled action has been popped.
    pub fn finished(&self) -> bool {
        self.next >= self.timeline.len()
    }

    /// The actions applied so far, with their application times.
    pub fn applied(&self) -> &[(Time, FaultAction)] {
        &self.applied
    }

    /// Nodes crashed at least once by this schedule.
    pub fn ever_crashed(&self) -> &BTreeSet<NodeId> {
        &self.ever_crashed
    }
}

/// Replays a [`FaultPlan`] timeline against a simulation as virtual time
/// advances.
pub struct NemesisDriver {
    sched: NemesisSchedule,
}

impl NemesisDriver {
    /// Builds a driver for `plan`, anchored at `start` and expanded up to
    /// `start + horizon`.
    pub fn new(plan: &FaultPlan, start: Time, horizon: Dur) -> Self {
        NemesisDriver {
            sched: NemesisSchedule::new(plan, start, horizon),
        }
    }

    /// Runs `sim` until `until`, applying every scheduled action at its
    /// exact virtual instant. `restart` builds replacement processes for
    /// `Restart` actions.
    pub fn run<M, F>(
        &mut self,
        sim: &mut Simulation<M, FaultFabric<F>>,
        until: Time,
        restart: RestartFn<'_, M>,
    ) where
        M: Payload,
        F: Fabric<M>,
    {
        while let Some(next) = self.sched.next_at().filter(|&at| at <= until) {
            sim.run_until(next);
            while let Some((at, action)) = self.sched.pop_due(next) {
                self.apply(sim, at, action, restart);
            }
        }
        sim.run_until(until);
    }

    fn apply<M, F>(
        &mut self,
        sim: &mut Simulation<M, FaultFabric<F>>,
        at: Time,
        action: FaultAction,
        restart: RestartFn<'_, M>,
    ) where
        M: Payload,
        F: Fabric<M>,
    {
        match &action {
            FaultAction::Crash(n) => {
                if sim.is_alive(*n) {
                    sim.crash(*n);
                    self.sched.mark_crashed(*n);
                }
            }
            FaultAction::Restart(n) => {
                if !sim.is_alive(*n) {
                    let old = sim.take_crashed(*n);
                    sim.restart(*n, restart(*n, old));
                }
            }
            net => sim.fabric_mut().faults_mut().apply(net),
        }
        self.sched.record(at, action);
    }

    /// Whether every scheduled action has been applied.
    pub fn finished(&self) -> bool {
        self.sched.finished()
    }

    /// The actions applied so far, with their application times.
    pub fn applied(&self) -> &[(Time, FaultAction)] {
        self.sched.applied()
    }

    /// Nodes crashed at least once by this driver.
    pub fn ever_crashed(&self) -> &BTreeSet<NodeId> {
        self.sched.ever_crashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn combinators_build_ordered_timelines() {
        let plan = FaultPlan::new()
            .at(Dur::millis(10), FaultEvent::Crash(n(1)))
            .then(Dur::millis(5), FaultEvent::Restart(n(1)))
            .at(Dur::millis(2), FaultEvent::SetLoss(0.1));
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        assert_eq!(tl.len(), 3);
        assert_eq!(
            tl[0],
            (Time::ZERO + Dur::millis(2), FaultAction::SetLoss(0.1))
        );
        assert_eq!(
            tl[1],
            (Time::ZERO + Dur::millis(10), FaultAction::Crash(n(1)))
        );
        assert_eq!(
            tl[2],
            (Time::ZERO + Dur::millis(15), FaultAction::Restart(n(1)))
        );
    }

    #[test]
    fn repeat_shifts_whole_schedule() {
        let plan = FaultPlan::new()
            .at(Dur::millis(1), FaultEvent::Crash(n(0)))
            .then(Dur::millis(1), FaultEvent::Restart(n(0)))
            .repeat(2, Dur::millis(10));
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        assert_eq!(tl.len(), 6);
        assert_eq!(tl[2].0, Time::ZERO + Dur::millis(11));
        assert_eq!(tl[5].0, Time::ZERO + Dur::millis(22));
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let base = || {
            FaultPlan::new()
                .at(Dur::millis(10), FaultEvent::HealAll)
                .then(Dur::millis(10), FaultEvent::Crash(n(2)))
        };
        let a = base()
            .randomized(7, Dur::millis(3))
            .timeline(Time::ZERO, Dur::secs(1));
        let b = base()
            .randomized(7, Dur::millis(3))
            .timeline(Time::ZERO, Dur::secs(1));
        let c = base()
            .randomized(8, Dur::millis(3))
            .timeline(Time::ZERO, Dur::secs(1));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed jitters differently");
    }

    #[test]
    fn flap_expands_until_heal_all() {
        let plan = FaultPlan::new()
            .at(
                Dur::millis(0),
                FaultEvent::FlapLink {
                    a: vec![n(0)],
                    b: vec![n(1)],
                    period: Dur::millis(10),
                },
            )
            .at(Dur::millis(35), FaultEvent::HealAll);
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        // Toggles at 0 (cut), 10 (heal), 20 (cut), 30 (heal), then HealAll.
        let cuts = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Cut(..)))
            .count();
        let heals = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Heal(..)))
            .count();
        assert_eq!(cuts, 2);
        assert_eq!(heals, 2);
        assert!(matches!(tl.last().unwrap().1, FaultAction::HealAll));
    }

    #[test]
    fn repeat_period_expansion_orders_copies_and_preserves_ties() {
        // Two events per repetition; with a period shorter than the
        // schedule span the copies interleave, and the sort must order by
        // time first, insertion sequence second.
        let plan = FaultPlan::new()
            .at(Dur::millis(0), FaultEvent::Crash(n(0)))
            .then(Dur::millis(8), FaultEvent::Restart(n(0)))
            .repeat(1, Dur::millis(4));
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        let times: Vec<u64> = tl.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![0, 4, 8, 12], "copies interleave time-sorted");
        assert_eq!(tl[1].1, FaultAction::Crash(n(0)), "copy's crash at 4ms");
        assert_eq!(tl[2].1, FaultAction::Restart(n(0)));

        // Degenerate period 0: every copy collides in time; insertion
        // order (repetition-major) must break the ties deterministically.
        let plan = FaultPlan::new()
            .at(Dur::millis(1), FaultEvent::Crash(n(1)))
            .then(Dur::millis(1), FaultEvent::Restart(n(1)))
            .repeat(2, Dur::ZERO);
        let tl = plan.timeline(Time::ZERO, Dur::secs(1));
        let kinds: Vec<bool> = tl
            .iter()
            .map(|(_, a)| matches!(a, FaultAction::Crash(_)))
            .collect();
        assert_eq!(kinds, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn randomized_jitter_is_bounded_and_identical_across_identical_seeds() {
        let base = || {
            FaultPlan::new()
                .at(Dur::millis(5), FaultEvent::Crash(n(0)))
                .then(Dur::millis(5), FaultEvent::Restart(n(0)))
                .repeat(3, Dur::millis(20))
        };
        let jitter = Dur::millis(4);
        let a = base().randomized(99, jitter);
        let b = base().randomized(99, jitter);
        assert_eq!(
            a.timeline(Time::ZERO, Dur::secs(1)),
            b.timeline(Time::ZERO, Dur::secs(1)),
            "identical seeds must jitter identically"
        );
        // Every jittered offset stays within [original, original + jitter).
        for ((d, _), (orig, _)) in a.events().iter().zip(base().events()) {
            assert!(*d >= *orig, "jitter never moves events earlier");
            assert!(
                *d < *orig + jitter,
                "jitter bounded: {d:?} vs {orig:?} + {jitter:?}"
            );
        }
    }

    #[test]
    fn flap_boundary_at_horizon_is_exclusive_and_leaves_link_healed() {
        // Toggles at 0 (cut), 10 (heal), 20 (cut); the toggle that would
        // land exactly on the 30 ms horizon must NOT fire — the window is
        // half-open — and the dangling cut is closed by a forced heal at
        // the horizon itself.
        let plan = FaultPlan::new().at(
            Dur::millis(0),
            FaultEvent::FlapLink {
                a: vec![n(0)],
                b: vec![n(1)],
                period: Dur::millis(10),
            },
        );
        let tl = plan.timeline(Time::ZERO, Dur::millis(30));
        let times: Vec<u64> = tl.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![0, 10, 20, 30]);
        assert!(matches!(tl[2].1, FaultAction::Cut(..)));
        assert!(
            matches!(tl[3].1, FaultAction::Heal(..)),
            "forced heal exactly at the horizon"
        );
        // A flap scheduled exactly at the horizon produces no toggles at
        // all (when < stop is false immediately) and needs no closing heal.
        let plan = FaultPlan::new().at(
            Dur::millis(30),
            FaultEvent::FlapLink {
                a: vec![n(0)],
                b: vec![n(1)],
                period: Dur::millis(10),
            },
        );
        assert!(plan.timeline(Time::ZERO, Dur::millis(30)).is_empty());
    }

    #[test]
    fn schedule_cursor_pops_in_order_and_tracks_bookkeeping() {
        let plan = FaultPlan::new()
            .at(Dur::millis(10), FaultEvent::Crash(n(2)))
            .then(Dur::millis(10), FaultEvent::Restart(n(2)))
            .then(Dur::millis(10), FaultEvent::HealAll);
        let mut sched = NemesisSchedule::new(&plan, Time::ZERO, Dur::secs(1));
        assert_eq!(sched.next_at(), Some(Time::ZERO + Dur::millis(10)));
        assert!(sched.pop_due(Time::ZERO + Dur::millis(5)).is_none());
        let (at, action) = sched.pop_due(Time::ZERO + Dur::millis(25)).expect("due");
        assert_eq!(action, FaultAction::Crash(n(2)));
        sched.record(at, action);
        sched.mark_crashed(n(2));
        let (at, action) = sched.pop_due(Time::ZERO + Dur::millis(25)).expect("due");
        assert_eq!(action, FaultAction::Restart(n(2)));
        sched.record(at, action);
        assert!(sched.pop_due(Time::ZERO + Dur::millis(25)).is_none());
        assert!(!sched.finished());
        assert_eq!(sched.applied().len(), 2);
        assert_eq!(
            sched.ever_crashed().iter().copied().collect::<Vec<_>>(),
            [n(2)]
        );
        let _ = sched.pop_due(Time::ZERO + Dur::secs(1)).expect("heal due");
        assert!(sched.finished());
    }

    #[test]
    fn flap_without_heal_ends_healed_at_horizon() {
        let plan = FaultPlan::new().at(
            Dur::millis(0),
            FaultEvent::FlapLink {
                a: vec![n(0)],
                b: vec![n(1)],
                period: Dur::millis(10),
            },
        );
        let tl = plan.timeline(Time::ZERO, Dur::millis(25));
        // cut@0, heal@10, cut@20, forced heal@25.
        assert!(matches!(tl.last().unwrap().1, FaultAction::Heal(..)));
        let cuts = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Cut(..)))
            .count();
        let heals = tl
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Heal(..)))
            .count();
        assert_eq!(cuts, heals);
    }

    fn cut(a: &[u32], b: &[u32]) -> FaultAction {
        FaultAction::Cut(
            a.iter().copied().map(n).collect(),
            b.iter().copied().map(n).collect(),
        )
    }

    fn drop_count(t: &FaultTable, from: NodeId, to: NodeId, rng: &mut SmallRng) -> usize {
        (0..10_000).filter(|_| t.drops(from, to, rng)).count()
    }

    #[test]
    fn table_starts_clear_and_drops_nothing() {
        let t = FaultTable::default();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(t.is_clear());
        assert!(!t.drops_link(n(0), n(1)));
        assert_eq!(drop_count(&t, n(0), n(1), &mut rng), 0);
    }

    #[test]
    fn group_cut_covers_the_cross_product_both_ways_and_heals() {
        let mut t = FaultTable::default();
        t.apply(&cut(&[0, 1], &[2]));
        assert!(!t.is_clear());
        for a in [0, 1] {
            assert!(t.drops_link(n(a), n(2)));
            assert!(t.drops_link(n(2), n(a)));
        }
        assert!(!t.drops_link(n(0), n(1)), "same side stays connected");
        t.apply(&FaultAction::Heal(vec![n(0), n(1)], vec![n(2)]));
        assert!(t.is_clear());
        assert!(!t.drops_link(n(0), n(2)));
    }

    #[test]
    fn isolation_cuts_both_directions_until_heal_all() {
        let mut t = FaultTable::default();
        t.apply(&FaultAction::Isolate(n(5)));
        assert!(t.drops_link(n(5), n(0)));
        assert!(t.drops_link(n(0), n(5)));
        assert!(!t.drops_link(n(0), n(1)));
        t.apply(&FaultAction::HealAll);
        assert!(t.is_clear());
        assert!(!t.drops_link(n(5), n(0)));
    }

    #[test]
    fn crash_marks_survive_heal_all_and_node_actions_are_ignored() {
        let mut t = FaultTable::default();
        t.apply(&FaultAction::Crash(n(2)));
        t.apply(&FaultAction::Restart(n(2)));
        assert!(t.is_clear(), "crash and restart act on nodes, not links");
        t.set_crashed(n(2), true);
        t.apply(&FaultAction::HealAll);
        assert!(t.drops_link(n(0), n(2)));
        assert!(t.drops_link(n(2), n(0)));
        t.set_crashed(n(2), false);
        assert!(t.is_clear());
    }

    #[test]
    fn loss_drops_roughly_at_rate() {
        let mut t = FaultTable::default();
        let mut rng = SmallRng::seed_from_u64(42);
        t.apply(&FaultAction::SetLoss(0.25));
        let dropped = drop_count(&t, n(0), n(1), &mut rng);
        assert!((2000..3000).contains(&dropped), "dropped {dropped}/10000");
        assert!(!t.drops_link(n(0), n(1)), "the link verdict ignores loss");
    }

    #[test]
    fn out_loss_replaces_the_global_rate_per_sender() {
        let mut t = FaultTable::default();
        let mut rng = SmallRng::seed_from_u64(7);
        t.apply(&FaultAction::SetLoss(1.0));
        t.apply(&FaultAction::SetNodeOutLoss(n(4), 0.0));
        assert_eq!(drop_count(&t, n(4), n(0), &mut rng), 0, "0.0 shields 4");
        assert_eq!(drop_count(&t, n(0), n(4), &mut rng), 10_000);
        t.apply(&FaultAction::SetLoss(0.0));
        t.apply(&FaultAction::SetNodeOutLoss(n(4), 1.0));
        assert_eq!(drop_count(&t, n(4), n(0), &mut rng), 10_000);
        assert_eq!(drop_count(&t, n(0), n(4), &mut rng), 0);
        assert!(!t.drops_link(n(4), n(0)), "the link verdict ignores loss");
        t.apply(&FaultAction::HealAll);
        assert!(t.is_clear(), "heal-all clears every loss rate");
    }

    #[test]
    fn loss_rolls_once_and_only_after_the_link_verdict_passes() {
        let mut t = FaultTable::default();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut twin = SmallRng::seed_from_u64(9);
        // No loss: no roll.
        assert!(!t.drops(n(0), n(1), &mut rng));
        // A cut link drops before rolling.
        t.apply(&cut(&[0], &[1]));
        t.apply(&FaultAction::SetLoss(0.5));
        assert!(t.drops(n(0), n(1), &mut rng));
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "no roll consumed");
        // An open link with loss rolls exactly once.
        let verdict = t.drops(n(0), n(2), &mut rng);
        assert_eq!(verdict, twin.gen::<f64>() < 0.5);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "exactly one roll");
    }
}
