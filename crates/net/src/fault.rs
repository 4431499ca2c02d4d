//! Runtime fault injection for the real TCP transport.
//!
//! [`FaultRules`] shares one [`FaultTable`] — the same fault policy the
//! simulator's `FaultFabric` routes through — across every node loop
//! spawned with [`crate::tcp::run_node_obs`]. The live nemesis driver in
//! `canopus-harness` hands each network `FaultAction` of a `FaultPlan` to
//! [`FaultRules::apply`], so a plan injects the same faults live and
//! simulated.
//!
//! # Hot-path cost
//!
//! The no-fault path is one relaxed atomic load: [`FaultRules::should_drop`]
//! and [`FaultRules::should_drop_link`] first check an `active` flag that is
//! only set while the table holds at least one rule, and return immediately
//! when it is clear. The mutex-guarded table is touched only while faults
//! are actually in force, so installing the rules object on a production
//! transport costs nothing measurable when no nemesis is running (the
//! `live_cluster` stress example runs with rules installed).
//!
//! Deterministic rules (cuts, isolation, crashes) are enforced on both the
//! send and the receive path — so a message in flight when a cut lands is
//! still dropped — while probabilistic loss is applied on the send path
//! only, to keep the configured rate from compounding.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use canopus_sim::{FaultAction, FaultTable, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Shared runtime fault table for a live TCP cluster. All methods take
/// `&self`; hand one instance (via `Arc`) to every node in the cluster.
#[derive(Debug)]
pub struct FaultRules {
    /// Fast-path guard: `true` iff the table holds at least one rule.
    active: AtomicBool,
    table: Mutex<FaultTable>,
    rng: Mutex<SmallRng>,
}

impl FaultRules {
    /// An empty rule table; `seed` drives the loss coin-flips.
    pub fn new(seed: u64) -> Self {
        FaultRules {
            active: AtomicBool::new(false),
            table: Mutex::new(FaultTable::default()),
            rng: Mutex::new(SmallRng::seed_from_u64(seed ^ 0x4641554c54)),
        }
    }

    fn update(&self, f: impl FnOnce(&mut FaultTable)) {
        let mut table = self.table.lock().expect("fault rules poisoned");
        f(&mut table);
        self.active.store(!table.is_clear(), Ordering::Release);
    }

    /// Applies a network fault action (see [`FaultTable::apply`]); `Crash`
    /// and `Restart` are ignored.
    pub fn apply(&self, action: &FaultAction) {
        self.update(|t| t.apply(action));
    }

    /// Marks `node` crash-stopped (or clears the mark): while set, every
    /// live peer drops traffic to and from it.
    pub fn set_crashed(&self, node: NodeId, crashed: bool) {
        self.update(|t| t.set_crashed(node, crashed));
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
        self.table
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
        let table = self.table.lock().expect("fault rules poisoned");
        let mut rng = self.rng.lock().expect("fault rng poisoned");
        table.drops(from, to, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn active_flag_follows_the_table() {
        let rules = FaultRules::new(1);
        assert!(!rules.any_active());
        assert!(!rules.should_drop(n(0), n(1)));
        rules.apply(&FaultAction::Cut(vec![n(0)], vec![n(2)]));
        assert!(rules.any_active());
        assert!(rules.should_drop_link(n(2), n(0)));
        rules.apply(&FaultAction::Heal(vec![n(0)], vec![n(2)]));
        assert!(!rules.any_active());
        rules.set_crashed(n(2), true);
        rules.apply(&FaultAction::HealAll);
        assert!(rules.any_active(), "crash marks survive heal-all");
        rules.set_crashed(n(2), false);
        assert!(!rules.any_active());
    }

    #[test]
    fn loss_sequence_is_the_tables_under_the_mixed_seed() {
        let rules = FaultRules::new(42);
        let mut table = FaultTable::default();
        let mut rng = SmallRng::seed_from_u64(42 ^ 0x4641554c54);
        for action in [
            FaultAction::SetLoss(0.5),
            FaultAction::Isolate(n(3)),
            FaultAction::SetNodeOutLoss(n(1), 0.9),
        ] {
            rules.apply(&action);
            table.apply(&action);
        }
        let live: Vec<bool> = (0..2000)
            .map(|i| rules.should_drop(n(i % 4), n((i + 1) % 4)))
            .collect();
        let sim: Vec<bool> = (0..2000)
            .map(|i| table.drops(n(i % 4), n((i + 1) % 4), &mut rng))
            .collect();
        assert_eq!(live, sim);
        rules.apply(&FaultAction::HealAll);
        assert!(!rules.any_active());
        assert!(!rules.should_drop(n(1), n(0)));
    }
}
