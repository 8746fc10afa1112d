//! Packet capture.
//!
//! The simulator can record every packet accepted onto a link, together with
//! its endpoints and timestamp. Experiments use captures both as ground
//! truth ("what actually crossed the wire") and as the input replayed into
//! offline analyses.

use std::net::Ipv4Addr;

use crate::node::{IfaceId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;

/// One recorded packet transmission.
#[derive(Debug, Clone)]
pub struct CapturedPacket {
    /// When the packet was accepted onto the link.
    pub time: SimTime,
    /// Transmitting node.
    pub from_node: NodeId,
    /// Transmitting interface.
    pub from_iface: IfaceId,
    /// Receiving node (link peer).
    pub to_node: NodeId,
    /// Receiving interface.
    pub to_iface: IfaceId,
    /// The packet.
    pub packet: Packet,
}

/// An in-memory packet capture.
#[derive(Debug, Default)]
pub struct Capture {
    records: Vec<CapturedPacket>,
}

impl Capture {
    /// An empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a transmission.
    pub fn record(&mut self, rec: CapturedPacket) {
        self.records.push(rec);
    }

    /// All records, in transmission order.
    pub fn records(&self) -> &[CapturedPacket] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Discard all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Records transmitted by `node`.
    pub fn sent_by(&self, node: NodeId) -> impl Iterator<Item = &CapturedPacket> {
        self.records.iter().filter(move |r| r.from_node == node)
    }

    /// Records whose packet source address is `src`.
    pub fn from_addr(&self, src: Ipv4Addr) -> impl Iterator<Item = &CapturedPacket> {
        self.records.iter().filter(move |r| r.packet.src == src)
    }

    /// Total wire bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.packet.wire_len() as u64)
            .sum()
    }

    /// Render the capture as text, one packet per line, using `names` to
    /// resolve node ids (indexed by `NodeId.0`).
    pub fn render(&self, names: &[String]) -> String {
        let mut out = String::new();
        for r in &self.records {
            let from = names.get(r.from_node.0).map(String::as_str).unwrap_or("?");
            let to = names.get(r.to_node.0).map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "{} {}[{}] -> {}[{}]  {}\n",
                r.time,
                from,
                r.from_iface.0,
                to,
                r.to_iface.0,
                r.packet.summary()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::tcp::TcpFlags;

    fn rec(t: u64, from: usize, src: [u8; 4], dst: [u8; 4]) -> CapturedPacket {
        CapturedPacket {
            time: SimTime::from_nanos(t),
            from_node: NodeId(from),
            from_iface: IfaceId(0),
            to_node: NodeId(9),
            to_iface: IfaceId(1),
            packet: Packet::tcp(src.into(), dst.into(), 1, 2, 0, 0, TcpFlags::syn(), vec![]),
        }
    }

    #[test]
    fn filters() {
        let mut cap = Capture::new();
        cap.record(rec(1, 0, [10, 0, 0, 1], [10, 0, 0, 2]));
        cap.record(rec(2, 1, [10, 0, 0, 2], [10, 0, 0, 1]));
        cap.record(rec(3, 0, [10, 0, 0, 1], [10, 0, 0, 3]));
        assert_eq!(cap.len(), 3);
        assert_eq!(cap.sent_by(NodeId(0)).count(), 2);
        assert_eq!(cap.from_addr([10, 0, 0, 1].into()).count(), 2);
    }

    #[test]
    fn total_bytes_counts_wire_length() {
        let mut cap = Capture::new();
        cap.record(rec(1, 0, [1, 1, 1, 1], [2, 2, 2, 2]));
        assert_eq!(cap.total_bytes(), 40); // 20 IP + 20 TCP, no payload
    }

    #[test]
    fn render_resolves_names() {
        let mut cap = Capture::new();
        cap.record(rec(1_000_000, 0, [1, 1, 1, 1], [2, 2, 2, 2]));
        let text = cap.render(&["alice".to_string()]);
        assert!(text.contains("alice[0]"));
        assert!(text.contains("?[1]"), "unknown receiver renders as ?");
        cap.clear();
        assert!(cap.is_empty());
    }
}
