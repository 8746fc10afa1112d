//! Point-to-point links.
//!
//! A link joins two (node, interface) endpoints full-duplex. Each direction
//! applies, in order: random loss, store-and-forward serialization at the
//! configured bandwidth, and propagation latency.
//!
//! Each direction is FIFO by construction: a delivery arrives at the
//! transmitter's busy horizon plus the link's fixed latency, and that
//! horizon never moves back. Reordering — along with duplication and
//! payload corruption — is an explicit adversarial impairment knob, drawn
//! from the link's RNG in simulated-time order so seeded runs stay
//! byte-identical regardless of sharding.

use crate::node::{IfaceId, NodeId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a link within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The attached node.
    pub node: NodeId,
    /// The interface on that node.
    pub iface: IfaceId,
}

/// Link behaviour parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Bandwidth in bits per second; `0` means infinite (no serialization).
    pub bandwidth_bps: u64,
    /// Probability in `[0, 1]` that a packet is dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a packet is reordered: it is displaced
    /// by up to [`LinkConfig::reorder_extra`], letting later packets
    /// overtake it.
    pub reorder: f64,
    /// Displacement bound for reordered packets: uniform extra delay in
    /// `[0, reorder_extra)` on top of the packet's natural delivery time.
    pub reorder_extra: SimDuration,
    /// Probability in `[0, 1]` that a packet is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that one payload byte is flipped in transit.
    pub corrupt: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // 1 ms / 1 Gbps / lossless: an uncongested LAN segment, matching the
        // paper's Mininet defaults closely enough for protocol behaviour.
        LinkConfig {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 1_000_000_000,
            loss: 0.0,
            reorder: 0.0,
            reorder_extra: SimDuration::ZERO,
            duplicate: 0.0,
            corrupt: 0.0,
        }
    }
}

impl LinkConfig {
    /// An ideal link: zero latency, infinite bandwidth, lossless.
    pub fn ideal() -> Self {
        LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_bps: 0,
            loss: 0.0,
            reorder: 0.0,
            reorder_extra: SimDuration::ZERO,
            duplicate: 0.0,
            corrupt: 0.0,
        }
    }

    /// Builder: set latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Builder: set bandwidth in bits per second (`0` = infinite).
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Builder: set loss probability (clamped to `[0, 1]`).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the reorder probability (clamped to `[0, 1]`) and the
    /// displacement bound for reordered packets.
    pub fn with_reorder(mut self, reorder: f64, extra: SimDuration) -> Self {
        self.reorder = reorder.clamp(0.0, 1.0);
        self.reorder_extra = extra;
        self
    }

    /// Builder: set the duplication probability (clamped to `[0, 1]`).
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the corruption probability (clamped to `[0, 1]`).
    pub fn with_corrupt(mut self, corrupt: f64) -> Self {
        self.corrupt = corrupt.clamp(0.0, 1.0);
        self
    }

    /// Time to serialize `bytes` onto the wire at this bandwidth.
    pub fn serialize_time(&self, bytes: usize) -> SimDuration {
        if self.bandwidth_bps == 0 {
            return SimDuration::ZERO;
        }
        let bits = (bytes as u64).saturating_mul(8);
        // ns = bits / bps * 1e9, computed to avoid overflow for sane values.
        SimDuration::from_nanos(bits.saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// A scheduled delivery, with any impairments the link applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxDelivery {
    /// Arrival time of the (first) copy.
    pub at: SimTime,
    /// The reorder knob selected this packet: it arrives after its FIFO
    /// slot and later packets may overtake it.
    pub reordered: bool,
    /// One payload byte should be flipped in transit.
    pub corrupt: bool,
    /// A second copy arrives at this time (the duplicate knob fired).
    pub duplicate_at: Option<SimTime>,
}

/// The outcome of offering a packet to a link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet will arrive as described.
    Deliver(TxDelivery),
    /// The packet was lost.
    Lost,
}

/// A full-duplex link between two endpoints.
#[derive(Debug)]
pub struct Link {
    /// Endpoint A.
    pub a: Endpoint,
    /// Endpoint B.
    pub b: Endpoint,
    /// Behaviour parameters (shared by both directions).
    pub config: LinkConfig,
    next_free_ab: SimTime,
    next_free_ba: SimTime,
}

impl Link {
    /// Create a link between `a` and `b`.
    pub fn new(a: Endpoint, b: Endpoint, config: LinkConfig) -> Self {
        Link {
            a,
            b,
            config,
            next_free_ab: SimTime::ZERO,
            next_free_ba: SimTime::ZERO,
        }
    }

    /// Forget both directions' transmitter horizons, as a new link.
    pub fn reset(&mut self) {
        self.next_free_ab = SimTime::ZERO;
        self.next_free_ba = SimTime::ZERO;
    }

    /// The endpoint opposite `from`, or `None` if `from` is not on this link.
    pub fn peer_of(&self, node: NodeId, iface: IfaceId) -> Option<Endpoint> {
        if self.a.node == node && self.a.iface == iface {
            Some(self.b)
        } else if self.b.node == node && self.b.iface == iface {
            Some(self.a)
        } else {
            None
        }
    }

    /// Offer a packet of `bytes` length for transmission from `(node, iface)`
    /// at time `now`. Applies loss, serialization, latency and the
    /// impairment knobs, and advances the direction's transmitter-busy
    /// horizon. Delivery times never decrease within a direction unless the
    /// reorder knob selects the packet for bounded displacement.
    pub fn transmit(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        bytes: usize,
        now: SimTime,
        rng: &mut SimRng,
    ) -> TxOutcome {
        if rng.chance(self.config.loss) {
            return TxOutcome::Lost;
        }
        let from_a = self.a.node == node && self.a.iface == iface;
        let next_free = if from_a {
            &mut self.next_free_ab
        } else {
            &mut self.next_free_ba
        };
        // The busy horizon only moves forward and the latency is fixed, so
        // natural slots never decrease within a direction (FIFO).
        *next_free = now.max(*next_free) + self.config.serialize_time(bytes);
        let slot = *next_free + self.config.latency;
        let reordered = rng.chance(self.config.reorder);
        let at = if reordered {
            // Displaced past its natural slot, so later packets may
            // overtake it.
            let extra = if self.config.reorder_extra == SimDuration::ZERO {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.range_u64(0, self.config.reorder_extra.as_nanos()))
            };
            slot + extra
        } else {
            slot
        };
        let duplicate_at = if rng.chance(self.config.duplicate) {
            Some(at)
        } else {
            None
        };
        let corrupt = rng.chance(self.config.corrupt);
        TxOutcome::Deliver(TxDelivery {
            at,
            reordered,
            corrupt,
            duplicate_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(config: LinkConfig) -> Link {
        Link::new(
            Endpoint {
                node: NodeId(0),
                iface: IfaceId(0),
            },
            Endpoint {
                node: NodeId(1),
                iface: IfaceId(0),
            },
            config,
        )
    }

    #[test]
    fn serialize_time_scales_with_size() {
        let cfg = LinkConfig::default().with_bandwidth_bps(8_000_000); // 1 MB/s
        assert_eq!(cfg.serialize_time(1_000), SimDuration::from_millis(1));
        assert_eq!(cfg.serialize_time(0), SimDuration::ZERO);
        assert_eq!(
            LinkConfig::ideal().serialize_time(1_000_000),
            SimDuration::ZERO
        );
    }

    #[test]
    fn delivery_includes_latency_and_serialization() {
        let cfg = LinkConfig::default()
            .with_latency(SimDuration::from_millis(10))
            .with_bandwidth_bps(8_000_000);
        let mut l = link(cfg);
        let mut rng = SimRng::seed_from_u64(0);
        match l.transmit(NodeId(0), IfaceId(0), 1_000, SimTime::ZERO, &mut rng) {
            TxOutcome::Deliver(d) => assert_eq!(d.at, SimTime::from_nanos(11_000_000)),
            TxOutcome::Lost => panic!("lossless link dropped a packet"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let cfg = LinkConfig::default()
            .with_latency(SimDuration::ZERO)
            .with_bandwidth_bps(8_000); // 1 KB/s: 1 byte per ms
        let mut l = link(cfg);
        let mut rng = SimRng::seed_from_u64(0);
        let t1 = match l.transmit(NodeId(0), IfaceId(0), 5, SimTime::ZERO, &mut rng) {
            TxOutcome::Deliver(d) => d.at,
            _ => panic!("lost"),
        };
        let t2 = match l.transmit(NodeId(0), IfaceId(0), 5, SimTime::ZERO, &mut rng) {
            TxOutcome::Deliver(d) => d.at,
            _ => panic!("lost"),
        };
        assert_eq!(t1, SimTime::from_nanos(5_000_000));
        assert_eq!(
            t2,
            SimTime::from_nanos(10_000_000),
            "second packet waits for the first"
        );
    }

    #[test]
    fn directions_are_independent() {
        let cfg = LinkConfig::default()
            .with_latency(SimDuration::ZERO)
            .with_bandwidth_bps(8_000);
        let mut l = link(cfg);
        let mut rng = SimRng::seed_from_u64(0);
        let _ = l.transmit(NodeId(0), IfaceId(0), 1_000, SimTime::ZERO, &mut rng);
        // The reverse direction is idle, so a packet departs immediately.
        match l.transmit(NodeId(1), IfaceId(0), 1, SimTime::ZERO, &mut rng) {
            TxOutcome::Deliver(d) => assert_eq!(d.at, SimTime::from_nanos(1_000_000)),
            _ => panic!("lost"),
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut l = link(LinkConfig::default().with_loss(1.0));
        let mut rng = SimRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                l.transmit(NodeId(0), IfaceId(0), 100, SimTime::ZERO, &mut rng),
                TxOutcome::Lost
            );
        }
    }

    #[test]
    fn partial_loss_is_roughly_calibrated() {
        let mut l = link(LinkConfig::ideal().with_loss(0.3));
        let mut rng = SimRng::seed_from_u64(42);
        let mut lost = 0;
        for _ in 0..10_000 {
            if l.transmit(NodeId(0), IfaceId(0), 10, SimTime::ZERO, &mut rng) == TxOutcome::Lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn peer_lookup() {
        let l = link(LinkConfig::default());
        assert_eq!(
            l.peer_of(NodeId(0), IfaceId(0)),
            Some(Endpoint {
                node: NodeId(1),
                iface: IfaceId(0)
            })
        );
        assert_eq!(
            l.peer_of(NodeId(1), IfaceId(0)),
            Some(Endpoint {
                node: NodeId(0),
                iface: IfaceId(0)
            })
        );
        assert_eq!(l.peer_of(NodeId(2), IfaceId(0)), None);
    }

    #[test]
    fn reorder_knob_displaces_within_bound_and_lets_others_pass() {
        let cfg = LinkConfig::ideal()
            .with_latency(SimDuration::from_millis(1))
            .with_reorder(1.0, SimDuration::from_millis(3));
        let mut l = link(cfg);
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..200 {
            match l.transmit(NodeId(0), IfaceId(0), 10, SimTime::ZERO, &mut rng) {
                TxOutcome::Deliver(d) => {
                    assert!(d.reordered);
                    // Natural slot is 1 ms; displacement adds < 3 ms on top.
                    assert!(d.at >= SimTime::from_nanos(1_000_000));
                    assert!(
                        d.at.as_nanos() < 4_000_000,
                        "displacement unbounded: {}",
                        d.at
                    );
                }
                TxOutcome::Lost => panic!("lossless"),
            }
        }
    }

    #[test]
    fn duplicate_and_corrupt_knobs_mark_deliveries() {
        let cfg = LinkConfig::ideal().with_duplicate(1.0).with_corrupt(1.0);
        let mut l = link(cfg);
        let mut rng = SimRng::seed_from_u64(3);
        match l.transmit(NodeId(0), IfaceId(0), 10, SimTime::ZERO, &mut rng) {
            TxOutcome::Deliver(d) => {
                assert_eq!(d.duplicate_at, Some(d.at));
                assert!(d.corrupt);
            }
            TxOutcome::Lost => panic!("lossless"),
        }
    }

    #[test]
    fn zero_impairment_knobs_draw_no_rng() {
        // Backward compatibility: with the new knobs at their defaults, the
        // RNG stream is untouched, so existing seeded traces are unchanged.
        let mut l = link(LinkConfig::default());
        let mut rng = SimRng::seed_from_u64(9);
        let _ = l.transmit(NodeId(0), IfaceId(0), 10, SimTime::ZERO, &mut rng);
        let after = rng.next_u64();
        let mut fresh = SimRng::seed_from_u64(9);
        assert_eq!(after, fresh.next_u64(), "default transmit consumed rng");
    }
}
