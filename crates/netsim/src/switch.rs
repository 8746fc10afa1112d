//! The switch/router node.
//!
//! Plays the role of the Open vSwitch box in the paper's Figure 1 testbed:
//! it forwards packets between ports by longest-prefix match on the
//! destination address, and can mirror every forwarded packet to *tap*
//! ports, where passive monitors (the censor IDS and the surveillance MVR)
//! sit. In *router mode* it also decrements TTL and emits ICMP Time
//! Exceeded, which is what makes the paper's TTL-limited replies (§4.1,
//! Fig 3b) observable.

use std::any::Any;

use crate::addr::Cidr;
use crate::node::{IfaceId, Node, NodeCtx};
use crate::packet::Packet;
use crate::wire::icmp::{IcmpKind, IcmpRepr};
use crate::wire::ipv4::DEFAULT_TTL;

/// A forwarding table entry.
#[derive(Debug, Clone, Copy)]
struct Route {
    prefix: Cidr,
    out: IfaceId,
}

/// Counters the switch maintains, useful for assertions in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Packets forwarded to a routed port.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
    /// Packets dropped because TTL reached zero (router mode).
    pub ttl_expired: u64,
    /// Copies delivered to tap ports.
    pub tapped: u64,
}

/// A prefix-routing switch with tap (mirror) ports.
#[derive(Debug)]
pub struct Switch {
    name: String,
    routes: Vec<Route>,
    taps: Vec<IfaceId>,
    /// Router mode: decrement TTL and emit ICMP Time Exceeded on expiry.
    router_mode: bool,
    /// Address used as the source of ICMP errors this switch originates.
    router_addr: std::net::Ipv4Addr,
    stats: SwitchStats,
}

impl Switch {
    /// Create a switch (L2-like: no TTL handling).
    pub fn new(name: &str) -> Switch {
        Switch {
            name: name.to_string(),
            routes: Vec::new(),
            taps: Vec::new(),
            router_mode: false,
            router_addr: std::net::Ipv4Addr::new(192, 0, 2, 254),
            stats: SwitchStats::default(),
        }
    }

    /// Create a router: decrements TTL, expires packets, emits ICMP errors.
    pub fn router(name: &str, router_addr: std::net::Ipv4Addr) -> Switch {
        let mut s = Switch::new(name);
        s.router_mode = true;
        s.router_addr = router_addr;
        s
    }

    /// Add a forwarding entry: packets whose destination is inside `prefix`
    /// leave through `out`. Longest prefix wins; ties go to the earliest
    /// entry.
    pub fn add_route(&mut self, prefix: Cidr, out: IfaceId) {
        self.routes.push(Route { prefix, out });
    }

    /// Declare `iface` a tap port: it receives a copy of every forwarded
    /// packet but is never a routing target. Packets arriving *from* a tap
    /// port are forwarded normally (monitors can inject, e.g. censor RSTs).
    pub fn add_tap(&mut self, iface: IfaceId) {
        if !self.taps.contains(&iface) {
            self.taps.push(iface);
        }
    }

    /// Forwarding statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    fn lookup(&self, dst: std::net::Ipv4Addr) -> Option<IfaceId> {
        self.routes
            .iter()
            .filter(|r| r.prefix.contains(dst))
            .max_by_key(|r| r.prefix.prefix())
            .map(|r| r.out)
    }
}

impl Node for Switch {
    fn name(&self) -> &str {
        &self.name
    }

    /// Zero the counters; routes, taps and router mode stay.
    fn reset(&mut self) {
        self.stats = SwitchStats::default();
    }

    fn receive(&mut self, ctx: &mut NodeCtx<'_>, in_iface: IfaceId, mut packet: Packet) {
        if self.router_mode {
            if packet.ttl <= 1 {
                self.stats.ttl_expired += 1;
                let quoted = IcmpRepr::error_payload(&packet.to_wire());
                let err =
                    Packet::icmp(self.router_addr, packet.src, IcmpKind::TimeExceeded, quoted)
                        .with_ttl(DEFAULT_TTL);
                if let Some(back) = self.lookup(err.dst) {
                    ctx.send(back, err.clone());
                    self.stats.forwarded += 1;
                }
                // The expiry event is still visible to taps: monitors on
                // the path see the ICMP error go by.
                for &tap in &self.taps {
                    if tap != in_iface {
                        ctx.send(tap, err.clone());
                        self.stats.tapped += 1;
                    }
                }
                return;
            }
            packet.ttl -= 1;
        }

        // Mirror to taps before forwarding (monitors see what crossed the
        // switch, whether or not a route exists).
        for &tap in &self.taps {
            if tap != in_iface {
                ctx.send(tap, packet.clone());
                self.stats.tapped += 1;
            }
        }

        match self.lookup(packet.dst) {
            Some(out) if out != in_iface => {
                self.stats.forwarded += 1;
                ctx.send(out, packet);
            }
            Some(_) => {
                // Route points back out the ingress interface: treat as
                // delivered locally / already on the right segment.
                self.stats.no_route += 1;
            }
            None => {
                self.stats.no_route += 1;
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::node::NodeId;
    use crate::sim::Simulator;
    use crate::time::SimTime;
    use crate::wire::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    /// A sink node that records everything it receives.
    struct Sink {
        name: String,
        got: Vec<Packet>,
    }

    impl Sink {
        fn boxed(name: &str) -> Box<Sink> {
            Box::new(Sink {
                name: name.into(),
                got: Vec::new(),
            })
        }
    }

    impl Node for Sink {
        fn name(&self) -> &str {
            &self.name
        }
        fn receive(&mut self, _: &mut NodeCtx<'_>, _: IfaceId, p: Packet) {
            self.got.push(p);
        }
        fn reset(&mut self) {
            self.got.clear();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);

    /// client -- sw -- server, with a monitor on a tap port.
    fn star() -> (Simulator, NodeId, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(3);
        let client = sim.add_node(Sink::boxed("client"));
        let server = sim.add_node(Sink::boxed("server"));
        let monitor = sim.add_node(Sink::boxed("monitor"));
        let mut sw = Switch::new("sw");
        sw.add_route(Cidr::slash24(CLIENT), IfaceId(0));
        sw.add_route(Cidr::slash24(SERVER), IfaceId(1));
        sw.add_tap(IfaceId(2));
        let sw = sim.add_node(Box::new(sw));
        sim.wire(client, IfaceId(0), sw, IfaceId(0), LinkConfig::ideal())
            .expect("wire");
        sim.wire(server, IfaceId(0), sw, IfaceId(1), LinkConfig::ideal())
            .expect("wire");
        sim.wire(monitor, IfaceId(0), sw, IfaceId(2), LinkConfig::ideal())
            .expect("wire");
        (sim, client, server, monitor, sw)
    }

    #[test]
    fn forwards_by_longest_prefix_and_mirrors_to_tap() {
        let (mut sim, client, server, monitor, sw) = star();
        let p = Packet::tcp(CLIENT, SERVER, 1000, 80, 0, 0, TcpFlags::syn(), vec![]);
        sim.send_from(client, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        assert_eq!(sim.node_ref::<Sink>(server).expect("server").got.len(), 1);
        assert_eq!(sim.node_ref::<Sink>(monitor).expect("monitor").got.len(), 1);
        let stats = sim.node_ref::<Switch>(sw).expect("sw").stats();
        assert_eq!(stats.forwarded, 1);
        assert_eq!(stats.tapped, 1);
    }

    #[test]
    fn tap_injection_is_forwarded_not_remirrored() {
        let (mut sim, client, _server, monitor, _sw) = star();
        // Monitor injects a RST toward the client (like a censor would).
        let rst = Packet::tcp(SERVER, CLIENT, 80, 1000, 1, 1, TcpFlags::rst(), vec![]);
        sim.send_from(monitor, IfaceId(0), rst, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        assert_eq!(sim.node_ref::<Sink>(client).expect("client").got.len(), 1);
        // The monitor must not receive a copy of its own injection.
        assert_eq!(sim.node_ref::<Sink>(monitor).expect("monitor").got.len(), 0);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut sw = Switch::new("sw");
        sw.add_route(Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8), IfaceId(0));
        sw.add_route(Cidr::slash24(Ipv4Addr::new(10, 0, 2, 0)), IfaceId(1));
        assert_eq!(sw.lookup(Ipv4Addr::new(10, 0, 2, 9)), Some(IfaceId(1)));
        assert_eq!(sw.lookup(Ipv4Addr::new(10, 9, 9, 9)), Some(IfaceId(0)));
        assert_eq!(sw.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn router_decrements_ttl() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Sink::boxed("a"));
        let b = sim.add_node(Sink::boxed("b"));
        let mut rt = Switch::router("r1", Ipv4Addr::new(192, 0, 2, 1));
        rt.add_route(Cidr::slash24(CLIENT), IfaceId(0));
        rt.add_route(Cidr::slash24(SERVER), IfaceId(1));
        let rt = sim.add_node(Box::new(rt));
        sim.wire(a, IfaceId(0), rt, IfaceId(0), LinkConfig::ideal())
            .expect("wire");
        sim.wire(b, IfaceId(0), rt, IfaceId(1), LinkConfig::ideal())
            .expect("wire");
        let p = Packet::udp(CLIENT, SERVER, 1, 2, vec![]).with_ttl(10);
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let got = &sim.node_ref::<Sink>(b).expect("b").got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ttl, 9);
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded_toward_source() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Sink::boxed("a"));
        let b = sim.add_node(Sink::boxed("b"));
        let mut rt = Switch::router("r1", Ipv4Addr::new(192, 0, 2, 1));
        rt.add_route(Cidr::slash24(CLIENT), IfaceId(0));
        rt.add_route(Cidr::slash24(SERVER), IfaceId(1));
        let rt_id = sim.add_node(Box::new(rt));
        sim.wire(a, IfaceId(0), rt_id, IfaceId(0), LinkConfig::ideal())
            .expect("wire");
        sim.wire(b, IfaceId(0), rt_id, IfaceId(1), LinkConfig::ideal())
            .expect("wire");
        let p = Packet::udp(CLIENT, SERVER, 7, 9, b"dying".to_vec()).with_ttl(1);
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        assert!(
            sim.node_ref::<Sink>(b).expect("b").got.is_empty(),
            "packet must die"
        );
        let got = &sim.node_ref::<Sink>(a).expect("a").got;
        assert_eq!(got.len(), 1);
        let icmp = got[0].as_icmp().expect("icmp");
        assert_eq!(icmp.kind, IcmpKind::TimeExceeded);
        let (qsrc, qdst) = IcmpRepr::quoted_addresses(&icmp.payload).expect("quote");
        assert_eq!((qsrc, qdst), (CLIENT, SERVER));
        assert_eq!(
            sim.node_ref::<Switch>(rt_id)
                .expect("rt")
                .stats()
                .ttl_expired,
            1
        );
    }

    #[test]
    fn l2_switch_does_not_touch_ttl() {
        let (mut sim, client, server, _monitor, _sw) = star();
        let p = Packet::udp(CLIENT, SERVER, 1, 2, vec![]).with_ttl(1);
        sim.send_from(client, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let got = &sim.node_ref::<Sink>(server).expect("server").got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ttl, 1, "L2 switch must not decrement TTL");
    }

    #[test]
    fn unroutable_packets_counted() {
        let (mut sim, client, _server, monitor, sw) = star();
        let p = Packet::udp(CLIENT, Ipv4Addr::new(172, 31, 0, 1), 1, 2, vec![]);
        sim.send_from(client, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let stats = sim.node_ref::<Switch>(sw).expect("sw").stats();
        assert_eq!(stats.no_route, 1);
        assert_eq!(stats.forwarded, 0);
        // Taps still saw it: monitors observe even undeliverable traffic.
        assert_eq!(sim.node_ref::<Sink>(monitor).expect("monitor").got.len(), 1);
    }
}
