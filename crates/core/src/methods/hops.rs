//! Hop discovery for TTL calibration (§4.1).
//!
//! "Scanning the network from the server could yield the number of hops
//! between the network boundary and each host, thus making it possible to
//! set reply TTLs so they are dropped after they pass through the
//! surveillance system but before they reach the client."
//!
//! [`HopProbe`] is a traceroute-style prober: TCP SYNs with increasing TTL
//! toward a target. Routers answer expiring probes with ICMP Time
//! Exceeded (identifying each hop); the first TTL whose probe draws a TCP
//! response from the target itself (RST from a closed port or SYN/ACK
//! from an open one) is the hop distance. `reply TTL = hops − 1` is then
//! the largest TTL guaranteed to die before the target.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use underradar_netsim::host::{HostApi, HostTask, RawVerdict};
use underradar_netsim::packet::Packet;
use underradar_netsim::time::SimDuration;
use underradar_netsim::wire::icmp::{IcmpKind, IcmpRepr};
use underradar_netsim::wire::tcp::TcpFlags;

use crate::probe::{Evidence, Probe};
use crate::verdict::Verdict;

const TIMER_NEXT: u64 = 1;
const TIMER_DONE: u64 = 2;
const BASE_SPORT: u16 = 46000;
/// Gap between successive TTL probes.
const PACE: SimDuration = SimDuration::from_millis(100);

/// What a probe at one TTL observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopReply {
    /// ICMP Time Exceeded from this router address.
    Router(Ipv4Addr),
    /// A TCP answer from the target itself (it was reached).
    Target,
    /// Nothing came back.
    Silent,
}

/// A traceroute-style hop prober.
pub struct HopProbe {
    target: Ipv4Addr,
    port: u16,
    max_ttl: u8,
    next_ttl: u8,
    /// Replies per probed TTL.
    pub replies: BTreeMap<u8, HopReply>,
    finished: bool,
}

impl HopProbe {
    /// Probe toward `(target, port)` with TTLs `1..=max_ttl`.
    pub fn new(target: Ipv4Addr, port: u16, max_ttl: u8) -> HopProbe {
        HopProbe {
            target,
            port,
            max_ttl: max_ttl.max(1),
            next_ttl: 1,
            replies: BTreeMap::new(),
            finished: false,
        }
    }

    /// Hop distance to the target: the smallest TTL whose probe reached it.
    pub fn hops_to_target(&self) -> Option<u8> {
        self.replies
            .iter()
            .find(|(_, r)| **r == HopReply::Target)
            .map(|(ttl, _)| *ttl)
    }

    /// The calibrated reply TTL for stateful mimicry: one less than the
    /// hop distance, so replies die at the last router before the target.
    pub fn calibrated_reply_ttl(&self) -> Option<u8> {
        self.hops_to_target()
            .map(|h| h.saturating_sub(1))
            .filter(|&t| t > 0)
    }

    /// The router addresses discovered, in hop order.
    pub fn path(&self) -> Vec<(u8, Ipv4Addr)> {
        self.replies
            .iter()
            .filter_map(|(ttl, r)| match r {
                HopReply::Router(ip) => Some((*ttl, *ip)),
                _ => None,
            })
            .collect()
    }

    fn send_probe(&mut self, api: &mut HostApi<'_, '_>) {
        if self.next_ttl > self.max_ttl {
            api.set_timer(SimDuration::from_secs(1), TIMER_DONE);
            return;
        }
        let ttl = self.next_ttl;
        self.next_ttl += 1;
        let iss = api.rng().next_u32();
        let probe = Packet::tcp(
            api.ip(),
            self.target,
            BASE_SPORT + u16::from(ttl),
            self.port,
            iss,
            0,
            TcpFlags::syn(),
            vec![],
        )
        .with_ttl(ttl);
        api.raw_send(probe);
        api.set_timer(PACE, TIMER_NEXT);
    }

    fn ttl_of_sport(sport: u16) -> Option<u8> {
        let delta = sport.wrapping_sub(BASE_SPORT);
        (1..=255).contains(&delta).then_some(delta as u8)
    }
}

impl Probe for HopProbe {
    fn label(&self) -> &'static str {
        "hops"
    }

    /// Whether the sweep completed (all TTLs probed, grace elapsed).
    fn is_finished(&self) -> bool {
        self.finished
    }

    /// Hop discovery is calibration, not a censorship measurement: a
    /// completed sweep that reached the target reads reachable; a silent
    /// target within `max_ttl` cannot be distinguished from a short sweep.
    fn verdict(&self) -> Verdict {
        if !self.finished {
            return Verdict::Inconclusive("hop sweep in progress".to_string());
        }
        if self.hops_to_target().is_some() {
            Verdict::Reachable
        } else {
            Verdict::Inconclusive("target silent within max TTL".to_string())
        }
    }

    fn evidence(&self) -> Evidence {
        vec![
            ("max_ttl", self.max_ttl.to_string()),
            ("routers", self.path().len().to_string()),
            (
                "hops_to_target",
                self.hops_to_target()
                    .map_or("-".to_string(), |h| h.to_string()),
            ),
            (
                "calibrated_reply_ttl",
                self.calibrated_reply_ttl()
                    .map_or("-".to_string(), |t| t.to_string()),
            ),
        ]
    }
}

impl HostTask for HopProbe {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        self.send_probe(api);
    }

    fn on_raw(&mut self, api: &mut HostApi<'_, '_>, packet: &Packet) -> RawVerdict {
        // ICMP Time Exceeded quoting one of our probes.
        if let Some(icmp) = packet.as_icmp() {
            if icmp.kind == IcmpKind::TimeExceeded {
                if let Some((qsrc, qdst)) = IcmpRepr::quoted_addresses(&icmp.payload) {
                    if qsrc == api.ip() && qdst == self.target {
                        // The quoted TCP header holds our sport (bytes 20..22).
                        if let Some(sport_bytes) = icmp.payload.get(20..22) {
                            let sport = u16::from_be_bytes([sport_bytes[0], sport_bytes[1]]);
                            if let Some(ttl) = Self::ttl_of_sport(sport) {
                                self.replies
                                    .entry(ttl)
                                    .or_insert(HopReply::Router(packet.src));
                                return RawVerdict::Consume;
                            }
                        }
                    }
                }
            }
            return RawVerdict::Continue;
        }
        // TCP answer from the target (RST for closed ports, SYN/ACK for
        // open ones): the probe got through.
        if packet.src == self.target {
            if let Some(seg) = packet.as_tcp() {
                if seg.src_port == self.port {
                    if let Some(ttl) = Self::ttl_of_sport(seg.dst_port) {
                        self.replies.entry(ttl).or_insert(HopReply::Target);
                        // Swallow RSTs; let SYN/ACKs fall through so the
                        // stack tears the half-open connection down.
                        if seg.flags.has_rst() {
                            return RawVerdict::Consume;
                        }
                    }
                }
            }
        }
        RawVerdict::Continue
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, token: u64) {
        match token {
            TIMER_NEXT => self.send_probe(api),
            TIMER_DONE => {
                for ttl in 1..=self.max_ttl {
                    self.replies.entry(ttl).or_insert(HopReply::Silent);
                }
                self.finished = true;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::stateful::RoutedMimicryNet;
    use underradar_censor::CensorPolicy;

    /// Run a hop probe from the measurement server toward the cover
    /// client in the routed Fig-3b topology (the paper's direction: the
    /// *server* scans toward the network).
    fn probe_from_server(max_ttl: u8) -> RoutedMimicryNet {
        let mut net = RoutedMimicryNet::build(91, CensorPolicy::new());
        let probe = HopProbe::new(net.cover_ip, 33434, max_ttl);
        net.spawn(net.mserver, Box::new(probe));
        net.run_secs(10);
        net
    }

    fn probe_of(net: &RoutedMimicryNet) -> &HopProbe {
        net.mserver_task::<HopProbe>(0).expect("probe")
    }

    #[test]
    fn discovers_router_path_and_target_distance() {
        let net = probe_from_server(6);
        let probe = probe_of(&net);
        assert!(probe.is_finished());
        // Routers R3, R2, R1 (from the server side) at TTLs 1, 2, 3.
        let path = probe.path();
        assert_eq!(path.len(), 3, "{path:?}");
        assert_eq!(path[0], (1, std::net::Ipv4Addr::new(192, 0, 2, 3)));
        assert_eq!(path[1], (2, std::net::Ipv4Addr::new(192, 0, 2, 2)));
        assert_eq!(path[2], (3, std::net::Ipv4Addr::new(192, 0, 2, 1)));
        // The cover host is 4 hops out (answers the TTL-4 probe with RST).
        assert_eq!(probe.hops_to_target(), Some(4));
    }

    #[test]
    fn calibrated_ttl_matches_the_figure_3b_sweet_spot() {
        let net = probe_from_server(6);
        let probe = probe_of(&net);
        assert_eq!(
            probe.calibrated_reply_ttl(),
            Some(RoutedMimicryNet::HOPS_TO_COVER),
            "discovery agrees with the topology constant"
        );
    }

    #[test]
    fn sweep_too_short_reports_silent_tail() {
        let net = probe_from_server(2);
        let probe = probe_of(&net);
        assert_eq!(probe.hops_to_target(), None);
        assert_eq!(probe.calibrated_reply_ttl(), None);
        assert_eq!(probe.path().len(), 2);
    }

    #[test]
    fn sport_ttl_mapping_roundtrip() {
        for ttl in 1u8..=32 {
            let sport = BASE_SPORT + u16::from(ttl);
            assert_eq!(HopProbe::ttl_of_sport(sport), Some(ttl));
        }
        assert_eq!(HopProbe::ttl_of_sport(BASE_SPORT), None);
        assert_eq!(HopProbe::ttl_of_sport(100), None);
    }
}
