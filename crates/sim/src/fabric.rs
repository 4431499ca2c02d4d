//! Pluggable network fabrics.
//!
//! The simulation kernel asks its [`Fabric`] what happens to each message:
//! when it arrives, or that it is lost. `canopus-net` supplies the
//! topology-aware Clos/WAN fabric used by the experiments; this module
//! provides a uniform fabric for unit tests plus the fault decorator that
//! wraps any inner fabric.

use rand::rngs::SmallRng;

use crate::fault::FaultTable;
use crate::process::{NodeId, Payload};
use crate::time::{Dur, Time};

/// The fate of one message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Deliver at the given absolute time (must be ≥ the send time).
    Deliver(Time),
    /// Silently drop the message.
    Drop,
}

/// Decides delivery times for messages.
///
/// The fabric owns all link state (bandwidth occupancy, queues) and may
/// mutate it per message, which is how serialization delay and queueing
/// emerge in the topology-aware implementation.
pub trait Fabric<M: Payload> {
    /// Routes one message sent at `now` from `from` to `to`.
    fn route(&mut self, from: NodeId, to: NodeId, msg: &M, now: Time, rng: &mut SmallRng) -> Route;
}

/// Uniform-latency fabric: every message arrives exactly `latency` later.
/// Useful for protocol unit tests where topology is irrelevant.
#[derive(Debug, Clone)]
pub struct UniformFabric {
    latency: Dur,
}

impl UniformFabric {
    /// Creates a fabric with a fixed one-way `latency`.
    pub fn new(latency: Dur) -> Self {
        UniformFabric { latency }
    }
}

impl<M: Payload> Fabric<M> for UniformFabric {
    fn route(&mut self, _: NodeId, _: NodeId, _: &M, now: Time, _: &mut SmallRng) -> Route {
        Route::Deliver(now + self.latency)
    }
}

/// Decorator that drops every message its [`FaultTable`] drops (cuts,
/// isolation, loss — §3.4 of the paper: Canopus must stall, not diverge,
/// under partition) and otherwise defers to the inner fabric. With no
/// faults installed it is pass-through and consumes no randomness, so the
/// event schedule is identical to the bare inner fabric's.
pub struct FaultFabric<F> {
    inner: F,
    faults: FaultTable,
}

impl<F> FaultFabric<F> {
    /// Wraps `inner` with no faults installed.
    pub fn new(inner: F) -> Self {
        FaultFabric {
            inner,
            faults: FaultTable::default(),
        }
    }

    /// Mutable access to the installed faults, e.g. to
    /// [`FaultTable::apply`] a `FaultAction`.
    pub fn faults_mut(&mut self) -> &mut FaultTable {
        &mut self.faults
    }
}

impl<M: Payload, F: Fabric<M>> Fabric<M> for FaultFabric<F> {
    fn route(&mut self, from: NodeId, to: NodeId, msg: &M, now: Time, rng: &mut SmallRng) -> Route {
        if self.faults.drops(from, to, rng) {
            return Route::Drop;
        }
        self.inner.route(from, to, msg, now, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl Payload for u32 {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn uniform_fabric_adds_latency() {
        let mut f = UniformFabric::new(Dur::micros(50));
        let mut rng = SmallRng::seed_from_u64(0);
        let t = Time::ZERO + Dur::millis(1);
        assert_eq!(
            Fabric::<u32>::route(&mut f, NodeId(0), NodeId(1), &7, t, &mut rng),
            Route::Deliver(t + Dur::micros(50))
        );
    }

    #[test]
    fn fault_fabric_drops_what_its_table_drops_and_defers_otherwise() {
        use crate::fault::FaultAction;
        let mut f = FaultFabric::new(UniformFabric::new(Dur::micros(5)));
        let mut rng = SmallRng::seed_from_u64(0);
        f.faults_mut()
            .apply(&FaultAction::Cut(vec![NodeId(1)], vec![NodeId(2)]));
        assert_eq!(
            Fabric::<u32>::route(&mut f, NodeId(2), NodeId(1), &7, Time::ZERO, &mut rng),
            Route::Drop
        );
        assert_eq!(
            Fabric::<u32>::route(&mut f, NodeId(0), NodeId(1), &7, Time::ZERO, &mut rng),
            Route::Deliver(Time::ZERO + Dur::micros(5))
        );
    }
}
