//! The [`Node`] trait and the context handed to nodes during callbacks.
//!
//! A node is anything attached to the topology: hosts, switches, middlebox
//! censors, passive monitors. Nodes never touch each other directly — they
//! emit packets and timers through a [`NodeCtx`], and the simulator applies
//! those effects after the callback returns. That buffering keeps the whole
//! simulation single-threaded and free of re-entrancy.

use std::any::Any;

use crate::event::TimerToken;
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node within a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies an interface (port) on a node. Interfaces are dense small
/// integers allocated by the topology builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub usize);

/// Deferred effects a node requests during a callback.
#[derive(Debug)]
pub(crate) enum Emit {
    /// Transmit a packet out of an interface.
    Send {
        /// Outgoing interface.
        iface: IfaceId,
        /// Packet to transmit.
        packet: Packet,
    },
    /// Arrange a timer callback.
    Timer {
        /// Delay from now.
        delay: SimDuration,
        /// Token to hand back when the timer fires.
        token: TimerToken,
    },
}

/// The context passed to node callbacks.
///
/// Provides the current simulated time, a deterministic RNG stream, and the
/// ability to send packets and set timers. Effects are applied by the
/// simulator after the callback returns, in the order they were requested.
pub struct NodeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) emits: &'a mut Vec<Emit>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) next_timer: &'a mut u64,
}

impl NodeCtx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transmit `packet` out of `iface`. Delivery time and loss are decided
    /// by the link the interface is wired to; sends on unwired interfaces
    /// are silently dropped (like a cable that is not plugged in).
    pub fn send(&mut self, iface: IfaceId, packet: Packet) {
        self.emits.push(Emit::Send { iface, packet });
    }

    /// Set a one-shot timer `delay` from now; the returned token is passed
    /// to [`Node::on_timer`] when it fires.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerToken {
        let token = TimerToken(*self.next_timer);
        *self.next_timer += 1;
        self.emits.push(Emit::Timer { delay, token });
        token
    }

    /// The node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// An entity attached to the simulated topology.
pub trait Node: Any {
    /// Human-readable name, used in traces and captures.
    fn name(&self) -> &str;

    /// Called once when the simulation starts, before any packet flows.
    /// Nodes use this to arm their initial timers (e.g. scheduled tasks).
    fn start(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// A packet arrived on `iface`.
    fn receive(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, packet: Packet);

    /// A timer set with [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: TimerToken) {}

    /// Return to the state the node was built in, for the next run of a
    /// reused world ([`crate::Simulator::reset`]): drop everything a run
    /// added (tasks, connections, flows, logs, counters, tracers) and keep
    /// what construction configured, and heap capacity. Required, so no
    /// node type can carry one run's state into the next.
    fn reset(&mut self);

    /// Downcast support for typed access through the simulator.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support for typed access through the simulator.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        name: String,
        seen: Vec<Packet>,
    }

    impl Node for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn receive(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, packet: Packet) {
            self.seen.push(packet);
        }
        fn reset(&mut self) {
            self.seen.clear();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ctx_buffers_effects_in_order() {
        let mut emits = Vec::new();
        let mut rng = SimRng::seed_from_u64(0);
        let mut next_timer = 0;
        let mut ctx = NodeCtx {
            now: SimTime::ZERO,
            emits: &mut emits,
            rng: &mut rng,
            next_timer: &mut next_timer,
        };
        let a = std::net::Ipv4Addr::new(1, 1, 1, 1);
        let p = Packet::udp(a, a, 1, 2, vec![]);
        ctx.send(IfaceId(0), p.clone());
        let t1 = ctx.set_timer(SimDuration::from_millis(5));
        let t2 = ctx.set_timer(SimDuration::from_millis(9));
        assert_ne!(t1, t2);
        assert_eq!(emits.len(), 3);
        assert!(matches!(emits[0], Emit::Send { .. }));
        assert!(matches!(emits[1], Emit::Timer { token, .. } if token == t1));
        assert!(matches!(emits[2], Emit::Timer { token, .. } if token == t2));
    }

    #[test]
    fn node_trait_is_object_safe_and_downcastable() {
        let mut node: Box<dyn Node> = Box::new(Probe {
            name: "p".into(),
            seen: vec![],
        });
        assert_eq!(node.name(), "p");
        let probe = node.as_any_mut().downcast_mut::<Probe>().expect("downcast");
        assert!(probe.seen.is_empty());
    }
}
