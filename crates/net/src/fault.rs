//! Runtime fault injection for the real TCP transport.
//!
//! [`FaultRules`] is a shared, cluster-wide rule table — directional link
//! cuts, node isolation, a crashed-node set, global and per-sender loss
//! probabilities — consulted by every node loop spawned with
//! [`crate::tcp::run_node_obs`]. It is the live-socket analogue of
//! the simulator's `PartitionableFabric<LossyFabric<_>>` composition, and
//! the live nemesis driver in `canopus-harness` applies the same
//! `FaultPlan` actions to it that the virtual-time driver applies to a
//! simulation fabric.
//!
//! # Hot-path cost
//!
//! The no-fault path is one relaxed atomic load: [`FaultRules::should_drop`]
//! and [`FaultRules::should_drop_link`] first check an `active` flag that is
//! only set while at least one rule is installed, and return immediately
//! when it is clear. The mutex-guarded rule table is touched only while
//! faults are actually in force, so installing the rules object on a
//! production transport costs nothing measurable when no nemesis is running
//! (the `live_cluster` stress example runs with rules installed).
//!
//! Deterministic rules (cuts, isolation, crashes) are enforced on both the
//! send and the receive path — so a message in flight when a cut lands is
//! still dropped — while probabilistic loss is applied on the send path
//! only, to keep the configured rate from compounding.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use canopus_sim::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Default)]
struct RulesInner {
    /// Directed cut links: a message `from → to` is dropped when
    /// `(from, to)` is present.
    cut: HashSet<(NodeId, NodeId)>,
    /// Nodes cut off from everyone, both directions.
    isolated: HashSet<NodeId>,
    /// Nodes currently crash-stopped by the nemesis: traffic to and from
    /// them is dropped at every live peer (their own loops are not
    /// running), modelling loss of everything in flight.
    crashed: HashSet<NodeId>,
    /// Global message-loss probability.
    loss: f64,
    /// Extra per-sender outbound loss probability (asymmetric impairment).
    out_loss: Vec<(NodeId, f64)>,
}

impl RulesInner {
    fn any_active(&self) -> bool {
        !self.cut.is_empty()
            || !self.isolated.is_empty()
            || !self.crashed.is_empty()
            || self.loss > 0.0
            || !self.out_loss.is_empty()
    }

    fn drops_link(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.crashed.contains(&from)
            || self.crashed.contains(&to)
            || self.cut.contains(&(from, to))
    }

    fn loss_for(&self, from: NodeId) -> f64 {
        // A per-sender entry *overrides* the global rate — identical to
        // the simulator's `LossyFabric`, so the same `FaultPlan` injects
        // the same faults live and simulated (an entry of 0.0 shields a
        // sender from global loss).
        self.out_loss
            .iter()
            .find(|(n, _)| *n == from)
            .map(|&(_, p)| p)
            .unwrap_or(self.loss)
    }
}

/// Shared runtime fault table for a live TCP cluster. All methods take
/// `&self`; hand one instance (via `Arc`) to every node in the cluster.
#[derive(Debug)]
pub struct FaultRules {
    /// Fast-path guard: `true` iff at least one rule is installed.
    active: AtomicBool,
    inner: Mutex<RulesInner>,
    rng: Mutex<SmallRng>,
}

impl FaultRules {
    /// An empty rule table; `seed` drives the loss coin-flips.
    pub fn new(seed: u64) -> Self {
        FaultRules {
            active: AtomicBool::new(false),
            inner: Mutex::new(RulesInner::default()),
            rng: Mutex::new(SmallRng::seed_from_u64(seed ^ 0x4641554c54)),
        }
    }

    fn update(&self, f: impl FnOnce(&mut RulesInner)) {
        let mut inner = self.inner.lock().expect("fault rules poisoned");
        f(&mut inner);
        self.active.store(inner.any_active(), Ordering::Release);
    }

    /// Cuts one direction of one link: messages `from → to` are dropped.
    pub fn cut_one_way(&self, from: NodeId, to: NodeId) {
        self.update(|r| {
            r.cut.insert((from, to));
        });
    }

    /// Cuts every link with one endpoint in `a` and the other in `b`,
    /// both directions.
    pub fn cut_groups(&self, a: &[NodeId], b: &[NodeId]) {
        self.update(|r| {
            for &x in a {
                for &y in b {
                    r.cut.insert((x, y));
                    r.cut.insert((y, x));
                }
            }
        });
    }

    /// Heals every link with one endpoint in `a` and the other in `b`.
    pub fn heal_groups(&self, a: &[NodeId], b: &[NodeId]) {
        self.update(|r| {
            for &x in a {
                for &y in b {
                    r.cut.remove(&(x, y));
                    r.cut.remove(&(y, x));
                }
            }
        });
    }

    /// Cuts `node` off from everyone, both directions.
    pub fn isolate(&self, node: NodeId) {
        self.update(|r| {
            r.isolated.insert(node);
        });
    }

    /// Marks `node` crash-stopped (or clears the mark): while set, every
    /// live peer drops traffic to and from it.
    pub fn set_crashed(&self, node: NodeId, crashed: bool) {
        self.update(|r| {
            if crashed {
                r.crashed.insert(node);
            } else {
                r.crashed.remove(&node);
            }
        });
    }

    /// Sets the global loss probability.
    pub fn set_loss(&self, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.update(|r| r.loss = loss);
    }

    /// Sets one node's outbound loss probability, overriding the global
    /// rate for that sender (0.0 shields it — same contract as the
    /// simulator's `LossyFabric::set_out_loss`). Cleared by
    /// [`FaultRules::heal_all`].
    pub fn set_out_loss(&self, node: NodeId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.update(|r| {
            r.out_loss.retain(|(n, _)| *n != node);
            r.out_loss.push((node, loss));
        });
    }

    /// Removes every cut and isolation and zeroes all loss. Crash marks are
    /// *not* cleared: a crashed node stays down until explicitly restarted.
    pub fn heal_all(&self) {
        self.update(|r| {
            r.cut.clear();
            r.isolated.clear();
            r.loss = 0.0;
            r.out_loss.clear();
        });
    }

    /// Whether any rule is currently installed (one relaxed atomic load).
    #[inline]
    pub fn any_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Deterministic drop verdict for `from → to`: cuts, isolation, and
    /// crash marks, but no probabilistic loss. Safe to consult on both the
    /// send and the receive path.
    #[inline]
    pub fn should_drop_link(&self, from: NodeId, to: NodeId) -> bool {
        if !self.active.load(Ordering::Relaxed) {
            return false;
        }
        self.inner
            .lock()
            .expect("fault rules poisoned")
            .drops_link(from, to)
    }

    /// Full drop verdict for `from → to`, including probabilistic loss.
    /// Consult exactly once per message (the send path), or the loss rate
    /// compounds.
    #[inline]
    pub fn should_drop(&self, from: NodeId, to: NodeId) -> bool {
        if !self.active.load(Ordering::Relaxed) {
            return false;
        }
        let p = {
            let inner = self.inner.lock().expect("fault rules poisoned");
            if inner.drops_link(from, to) {
                return true;
            }
            inner.loss_for(from)
        };
        p > 0.0 && self.rng.lock().expect("fault rng poisoned").gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_rules_drop_nothing_and_report_inactive() {
        let rules = FaultRules::new(1);
        assert!(!rules.any_active());
        assert!(!rules.should_drop(n(0), n(1)));
        assert!(!rules.should_drop_link(n(1), n(0)));
    }

    #[test]
    fn group_cut_is_bidirectional_and_heals() {
        let rules = FaultRules::new(1);
        rules.cut_groups(&[n(0), n(1)], &[n(2)]);
        assert!(rules.any_active());
        assert!(rules.should_drop_link(n(0), n(2)));
        assert!(rules.should_drop_link(n(2), n(1)));
        assert!(!rules.should_drop_link(n(0), n(1)));
        rules.heal_groups(&[n(0), n(1)], &[n(2)]);
        assert!(!rules.any_active());
        assert!(!rules.should_drop_link(n(0), n(2)));
    }

    #[test]
    fn one_way_cut_is_directional() {
        let rules = FaultRules::new(1);
        rules.cut_one_way(n(3), n(4));
        assert!(rules.should_drop_link(n(3), n(4)));
        assert!(!rules.should_drop_link(n(4), n(3)));
    }

    #[test]
    fn isolation_cuts_both_directions_until_heal_all() {
        let rules = FaultRules::new(1);
        rules.isolate(n(5));
        assert!(rules.should_drop_link(n(5), n(0)));
        assert!(rules.should_drop_link(n(0), n(5)));
        assert!(!rules.should_drop_link(n(0), n(1)));
        rules.heal_all();
        assert!(!rules.should_drop_link(n(5), n(0)));
    }

    #[test]
    fn crash_marks_survive_heal_all() {
        let rules = FaultRules::new(1);
        rules.set_crashed(n(2), true);
        rules.heal_all();
        assert!(rules.should_drop_link(n(0), n(2)));
        assert!(rules.should_drop_link(n(2), n(0)));
        rules.set_crashed(n(2), false);
        assert!(!rules.any_active());
    }

    #[test]
    fn loss_rates_drop_roughly_proportionally() {
        let rules = FaultRules::new(42);
        rules.set_loss(0.5);
        let dropped = (0..2000).filter(|_| rules.should_drop(n(0), n(1))).count();
        assert!(
            (700..1300).contains(&dropped),
            "p=0.5 dropped {dropped}/2000"
        );
        rules.heal_all();
        assert!(!rules.should_drop(n(0), n(1)));
    }

    #[test]
    fn out_loss_is_per_sender_and_link_check_ignores_loss() {
        let rules = FaultRules::new(7);
        rules.set_out_loss(n(4), 1.0);
        assert!(rules.should_drop(n(4), n(0)), "p=1 always drops");
        assert!(!rules.should_drop(n(0), n(4)), "other senders unaffected");
        // The deterministic link check never applies probabilistic loss.
        assert!(!rules.should_drop_link(n(4), n(0)));
        rules.heal_all();
        assert!(!rules.any_active());
    }

    #[test]
    fn out_loss_overrides_global_like_the_simulator_fabric() {
        // Mirrors LossyFabric: the per-sender rate replaces the global
        // rate, so an explicit 0.0 shields that sender entirely.
        let rules = FaultRules::new(7);
        rules.set_loss(1.0);
        rules.set_out_loss(n(4), 0.0);
        assert!(!rules.should_drop(n(4), n(0)), "override shields sender 4");
        assert!(rules.should_drop(n(0), n(1)), "global p=1 drops the rest");
        rules.heal_all();
        assert!(!rules.any_active(), "heal_all clears loss overrides");
    }
}
