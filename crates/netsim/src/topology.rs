//! Topology construction helpers.
//!
//! [`TopologyBuilder`] wraps a [`Simulator`] and takes care of the
//! mechanical parts of wiring: allocating switch ports, installing host
//! routes, and attaching tap monitors. The paper's Figure 1 testbed
//! (client — switch — server, with censor and MVR instances watching the
//! switch) is three calls.

use std::net::Ipv4Addr;

use crate::addr::Cidr;
use crate::error::NetsimError;
use crate::hash::FxHashMap;
use crate::host::{Host, HOST_IFACE};
use crate::link::LinkConfig;
use crate::node::{IfaceId, Node, NodeId};
use crate::sim::Simulator;
use crate::switch::Switch;

/// Builds a simulator topology incrementally.
pub struct TopologyBuilder {
    sim: Simulator,
    next_port: FxHashMap<NodeId, usize>,
}

impl TopologyBuilder {
    /// Start a topology with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        TopologyBuilder {
            sim: Simulator::new(seed),
            next_port: FxHashMap::default(),
        }
    }

    /// Record every packet crossing any link.
    pub fn enable_capture(&mut self) {
        self.sim.enable_capture();
    }

    /// Add a host node.
    pub fn add_host(&mut self, host: Host) -> NodeId {
        self.sim.add_node(Box::new(host))
    }

    /// Add a switch (or router) node.
    pub fn add_switch(&mut self, switch: Switch) -> NodeId {
        self.sim.add_node(Box::new(switch))
    }

    /// Add an arbitrary node (passive monitors, custom middleboxes).
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.sim.add_node(node)
    }

    fn alloc_port(&mut self, switch: NodeId) -> IfaceId {
        let port = self.next_port.entry(switch).or_insert(0);
        let iface = IfaceId(*port);
        *port += 1;
        iface
    }

    /// Wire a host to a switch port and install a host route (/32) for it.
    /// Returns the switch port used.
    pub fn attach_host(
        &mut self,
        host: NodeId,
        host_ip: Ipv4Addr,
        switch: NodeId,
        config: LinkConfig,
    ) -> Result<IfaceId, NetsimError> {
        let port = self.alloc_port(switch);
        self.sim.wire(host, HOST_IFACE, switch, port, config)?;
        if let Some(sw) = self.sim.node_mut::<Switch>(switch) {
            sw.add_route(Cidr::host(host_ip), port);
        }
        Ok(port)
    }

    /// Wire a monitor node to a switch tap port: the monitor receives a
    /// copy of all forwarded traffic and may inject packets (they are
    /// routed normally). Returns the switch port used.
    pub fn attach_tap(
        &mut self,
        monitor: NodeId,
        switch: NodeId,
        config: LinkConfig,
    ) -> Result<IfaceId, NetsimError> {
        let port = self.alloc_port(switch);
        self.sim.wire(monitor, HOST_IFACE, switch, port, config)?;
        if let Some(sw) = self.sim.node_mut::<Switch>(switch) {
            sw.add_tap(port);
        }
        Ok(port)
    }

    /// Wire a node's interface `iface` to the next free port of `switch`
    /// (an in-path middlebox, say). Returns the switch port used; add
    /// routes through it with [`TopologyBuilder::route`].
    pub fn attach_iface(
        &mut self,
        switch: NodeId,
        node: NodeId,
        iface: IfaceId,
        config: LinkConfig,
    ) -> Result<IfaceId, NetsimError> {
        let port = self.alloc_port(switch);
        self.sim.wire(switch, port, node, iface, config)?;
        Ok(port)
    }

    /// Wire two switches together. Returns `(port on a, port on b)`; add
    /// routes across the trunk with [`TopologyBuilder::route`].
    pub fn trunk(
        &mut self,
        a: NodeId,
        b: NodeId,
        config: LinkConfig,
    ) -> Result<(IfaceId, IfaceId), NetsimError> {
        let pa = self.alloc_port(a);
        let pb = self.alloc_port(b);
        self.sim.wire(a, pa, b, pb, config)?;
        Ok((pa, pb))
    }

    /// Add a prefix route on a switch.
    pub fn route(&mut self, switch: NodeId, prefix: Cidr, out: IfaceId) {
        if let Some(sw) = self.sim.node_mut::<Switch>(switch) {
            sw.add_route(prefix, out);
        }
    }

    /// Finish building and return the simulator.
    pub fn finish(self) -> Simulator {
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::time::{SimDuration, SimTime};
    use crate::wire::tcp::TcpFlags;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);
    const MONITOR: Ipv4Addr = Ipv4Addr::new(10, 0, 9, 9);

    #[test]
    fn figure1_testbed_shape() {
        // client -- switch -- server, with a monitor on a tap.
        let mut topo = TopologyBuilder::new(5);
        topo.enable_capture();
        let client = topo.add_host(Host::new("client", CLIENT));
        let server = topo.add_host(Host::new("server", SERVER));
        let monitor = topo.add_host(Host::new("monitor", MONITOR));
        let sw = topo.add_switch(Switch::new("ovs"));
        topo.attach_host(client, CLIENT, sw, LinkConfig::default())
            .expect("client");
        topo.attach_host(server, SERVER, sw, LinkConfig::default())
            .expect("server");
        topo.attach_tap(monitor, sw, LinkConfig::default())
            .expect("tap");
        let mut sim = topo.finish();

        let syn = Packet::tcp(CLIENT, SERVER, 1234, 80, 0, 0, TcpFlags::syn(), vec![]);
        sim.send_from(client, HOST_IFACE, syn, SimTime::ZERO)
            .expect("send");
        sim.run_for(SimDuration::from_secs(2)).expect("run");

        let cap = sim.capture().expect("capture");
        // The monitor saw the SYN (tap copy) and the server's RST (closed
        // port), i.e. 2 tapped packets; plus the direct copies.
        let monitor_copies = cap
            .records()
            .iter()
            .filter(|r| r.to_node == monitor)
            .count();
        assert_eq!(monitor_copies, 2, "tap mirrors both directions");
    }

    #[test]
    fn trunked_switches_route_across() {
        let mut topo = TopologyBuilder::new(6);
        let client = topo.add_host(Host::new("client", CLIENT));
        let server = topo.add_host(Host::new("server", SERVER));
        let sw1 = topo.add_switch(Switch::new("sw1"));
        let sw2 = topo.add_switch(Switch::new("sw2"));
        topo.attach_host(client, CLIENT, sw1, LinkConfig::default())
            .expect("c");
        topo.attach_host(server, SERVER, sw2, LinkConfig::default())
            .expect("s");
        let (p1, p2) = topo.trunk(sw1, sw2, LinkConfig::default()).expect("trunk");
        topo.route(sw1, Cidr::slash24(SERVER), p1);
        topo.route(sw2, Cidr::slash24(CLIENT), p2);
        topo.enable_capture();
        let mut sim = topo.finish();

        let ping = Packet::icmp(
            CLIENT,
            SERVER,
            crate::wire::icmp::IcmpKind::EchoRequest { ident: 9, seq: 1 },
            vec![],
        );
        sim.send_from(client, HOST_IFACE, ping, SimTime::ZERO)
            .expect("send");
        sim.run_for(SimDuration::from_secs(2)).expect("run");
        let cap = sim.capture().expect("capture");
        // Echo reply made it all the way back to the client.
        let reply_back = cap
            .records()
            .iter()
            .any(|r| r.to_node == client && r.packet.as_icmp().is_some());
        assert!(
            reply_back,
            "reply crossed both switches:\n{}",
            cap.render(sim.node_names())
        );
    }
}
