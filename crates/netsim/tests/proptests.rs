//! Property-based tests for the netsim substrate: wire-format roundtrips,
//! checksum integrity, CIDR algebra, event ordering, per-direction link
//! FIFO, and TCP data-transfer invariants under arbitrary segmentation. Inputs come from the in-tree
//! seeded generator ([`underradar_netsim::testprop`]).

use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;
use underradar_netsim::event::TimerToken;
use underradar_netsim::event::{EventKind, EventQueue};
use underradar_netsim::link::{Endpoint, Link, LinkConfig, TxOutcome};
use underradar_netsim::node::{IfaceId, NodeId};
use underradar_netsim::packet::{Packet, PacketBody};
use underradar_netsim::rng::SimRng;
use underradar_netsim::stack::tcp::{TcpConn, TcpEvent};
use underradar_netsim::testprop::{cases, Gen};
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::wire::checksum;
use underradar_netsim::wire::icmp::IcmpKind;
use underradar_netsim::wire::tcp::TcpFlags;

fn arb_ip(g: &mut Gen) -> Ipv4Addr {
    Ipv4Addr::from(g.u32())
}

fn arb_packet(g: &mut Gen) -> Packet {
    match g.usize_in(0, 3) {
        0 => Packet::tcp(
            arb_ip(g),
            arb_ip(g),
            g.u16(),
            g.u16(),
            g.u32(),
            g.u32(),
            TcpFlags(g.u8_in(0, 64)),
            g.bytes(0, 256),
        )
        .with_ttl(g.u8_in(1, 255).max(1))
        .with_ident(g.u16()),
        1 => Packet::udp(arb_ip(g), arb_ip(g), g.u16(), g.u16(), g.bytes(0, 256))
            .with_ttl(g.u8_in(1, 255).max(1)),
        _ => {
            let kind = match g.usize_in(0, 4) {
                0 => IcmpKind::EchoRequest {
                    ident: g.u16(),
                    seq: g.u16(),
                },
                1 => IcmpKind::EchoReply {
                    ident: g.u16(),
                    seq: g.u16(),
                },
                2 => IcmpKind::TimeExceeded,
                _ => IcmpKind::DestUnreachable {
                    code: g.u8_in(0, 16),
                },
            };
            Packet::icmp(arb_ip(g), arb_ip(g), kind, g.bytes(0, 64))
        }
    }
}

/// decode(encode(p)) == p for every packet the simulator can build.
#[test]
fn packet_wire_roundtrip() {
    cases(256, 0xA001, |g| {
        let p = arb_packet(g);
        let wire = p.to_wire();
        let q = Packet::from_wire(&wire).expect("emitted packets always parse");
        assert_eq!(p, q);
    });
}

/// Emitted packets always carry verifiable checksums, and any single-bit
/// flip in the IP header is caught.
#[test]
fn emitted_ip_header_checksum_detects_bit_flips() {
    cases(256, 0xA002, |g| {
        let p = arb_packet(g);
        let bit = g.usize_in(0, 20 * 8);
        let mut wire = p.to_wire();
        if Packet::from_wire(&wire).is_err() {
            return;
        }
        let byte = bit / 8;
        // Skip flips inside the checksum field itself (bytes 10..12): those
        // are detected too, but produce a different error taxonomy.
        if (10..12).contains(&byte) {
            return;
        }
        wire[byte] ^= 1 << (bit % 8);
        assert!(Packet::from_wire(&wire).is_err());
    });
}

/// Truncating an emitted packet anywhere never panics and always errors.
#[test]
fn truncation_is_always_an_error() {
    cases(256, 0xA003, |g| {
        let p = arb_packet(g);
        let wire = p.to_wire();
        let cut = g.usize_in(0, 100);
        if cut >= wire.len() {
            return;
        }
        assert!(Packet::from_wire(&wire[..cut]).is_err());
    });
}

/// Parsing arbitrary bytes never panics.
#[test]
fn arbitrary_bytes_never_panic() {
    cases(512, 0xA004, |g| {
        let bytes = g.bytes(0, 600);
        let _ = Packet::from_wire(&bytes);
    });
}

/// RFC 1071: a buffer with its computed checksum spliced in verifies.
#[test]
fn checksum_splice_verifies() {
    cases(256, 0xA005, |g| {
        let mut data = g.bytes(2, 512);
        data[0] = 0;
        data[1] = 0;
        let c = checksum::checksum(&data);
        data[0] = (c >> 8) as u8;
        data[1] = (c & 0xff) as u8;
        assert!(checksum::verify(&data));
    });
}

/// CIDR: an address is contained in every prefix derived from it.
#[test]
fn cidr_contains_its_seed() {
    cases(512, 0xA006, |g| {
        let addr = arb_ip(g);
        let prefix = g.u8_in(0, 33);
        let c = Cidr::new(addr, prefix);
        assert!(c.contains(addr));
        assert!(c.contains(c.network()));
        // nth stays inside the prefix.
        assert!(c.contains(c.nth(12345)));
    });
}

/// CIDR: nesting — a /24 is inside its /16.
#[test]
fn cidr_nesting() {
    cases(512, 0xA007, |g| {
        let addr = arb_ip(g);
        let c24 = Cidr::slash24(addr);
        let c16 = Cidr::slash16(addr);
        for i in 0..8u64 {
            assert!(c16.contains(c24.nth(i * 31)));
        }
    });
}

/// Event queue: pops are globally ordered by (time, insertion order).
#[test]
fn event_queue_total_order() {
    cases(128, 0xA008, |g| {
        let n = g.usize_in(1, 200);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(
                SimTime::from_nanos(g.u64() % 1_000),
                EventKind::Timer {
                    node: NodeId(0),
                    token: TimerToken(i as u64),
                },
            );
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(e) = q.pop() {
            if let Some((lt, ls)) = last {
                assert!(e.time > lt || (e.time == lt && e.seq > ls));
            }
            last = Some((e.time, e.seq));
        }
    });
}

/// Links are FIFO per direction by construction: a delivery lands at the
/// transmitter's busy horizon plus the fixed latency, and the horizon never
/// moves back. With reorder off, no delivery arrives before the previous
/// one in its direction, whatever the sizes, offer times, bandwidth and
/// loss/duplicate/corrupt draws; with reorder at 1.0, no packet arrives
/// before its natural (FIFO) slot.
#[test]
fn link_directions_are_fifo_by_construction() {
    let end = |node| Endpoint {
        node: NodeId(node),
        iface: IfaceId(0),
    };
    let chance = |g: &mut Gen| f64::from(g.u32_in(0, 101)) / 100.0;
    cases(256, 0xA00C, |g| {
        let base = match g.usize_in(0, 3) {
            0 => LinkConfig::default(),
            1 => LinkConfig::ideal(),
            _ => LinkConfig::default().with_bandwidth_bps(8_000),
        };
        let cfg = base
            .with_loss(chance(g))
            .with_duplicate(chance(g))
            .with_corrupt(chance(g));
        let extra = SimDuration::from_nanos(g.u64() % 5_000_000);
        let mut fifo = Link::new(end(0), end(1), cfg);
        let mut shuffled = Link::new(end(0), end(1), cfg.with_reorder(1.0, extra));
        let mut rng = SimRng::seed_from_u64(g.u64());
        // Per direction: last FIFO arrival, and the reordering link's
        // transmitter horizon as the test models it.
        let mut last = [SimTime::ZERO; 2];
        let mut horizon = [SimTime::ZERO; 2];
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1, 64) {
            if g.bool() {
                now += SimDuration::from_nanos(g.u64() % 2_000_000);
            }
            let dir = g.usize_in(0, 2);
            let bytes = g.usize_in(0, 1_500);
            if let TxOutcome::Deliver(d) =
                fifo.transmit(NodeId(dir), IfaceId(0), bytes, now, &mut rng)
            {
                assert!(!d.reordered);
                assert!(d.at >= last[dir], "{} arrived before {}", d.at, last[dir]);
                last[dir] = d.at;
            }
            if let TxOutcome::Deliver(d) =
                shuffled.transmit(NodeId(dir), IfaceId(0), bytes, now, &mut rng)
            {
                horizon[dir] = now.max(horizon[dir]) + cfg.serialize_time(bytes);
                let slot = horizon[dir] + cfg.latency;
                assert!(d.reordered);
                assert!(d.at >= slot, "{} arrived before its slot {slot}", d.at);
                assert!(d.at < slot + extra || d.at == slot);
            }
        }
    });
}

/// TCP: whatever way a byte stream is chopped into sends, the peer
/// reassembles exactly that stream, in order.
#[test]
fn tcp_delivers_stream_in_order() {
    cases(64, 0xA009, |g| {
        let n_chunks = g.usize_in(1, 20);
        let chunks: Vec<Vec<u8>> = (0..n_chunks).map(|_| g.bytes(1, 300)).collect();
        let c_ip = Ipv4Addr::new(10, 0, 0, 1);
        let s_ip = Ipv4Addr::new(10, 0, 0, 2);
        let t0 = SimTime::ZERO;
        let (mut client, syn) = TcpConn::connect((c_ip, 4000), (s_ip, 80), 77, t0);
        let syn_seg = syn.as_tcp().expect("syn").clone();
        let (mut server, syn_ack) =
            TcpConn::accept((s_ip, 80), (c_ip, 4000), syn_seg.seq, 1010, t0);
        let (mut out, mut events) = (Vec::new(), Vec::new());
        client.on_segment(syn_ack.as_tcp().expect("sa"), t0, &mut out, &mut events);
        let ack = out.pop().expect("handshake ack");
        out.clear();
        events.clear();
        server.on_segment(ack.as_tcp().expect("ack"), t0, &mut out, &mut events);
        out.clear();
        events.clear();

        let mut sent = Vec::new();
        let mut received = Vec::new();
        let (mut data, mut acks) = (Vec::new(), Vec::new());
        for chunk in &chunks {
            sent.extend_from_slice(chunk);
            client.send(chunk, t0, &mut data);
            for pkt in data.drain(..) {
                server.on_segment(pkt.as_tcp().expect("data"), t0, &mut acks, &mut events);
                for ev in events.drain(..) {
                    if let TcpEvent::Data(d) = ev {
                        received.extend_from_slice(&d);
                    }
                }
                for ack in acks.drain(..) {
                    client.on_segment(ack.as_tcp().expect("ack"), t0, &mut out, &mut events);
                    out.clear();
                    events.clear();
                }
            }
        }
        assert_eq!(sent, received);
        assert!(!client.has_unacked(), "everything acked");
    });
}

/// TCP: feeding arbitrary segments to a fresh connection never panics.
#[test]
fn tcp_survives_arbitrary_segments() {
    cases(128, 0xA00A, |g| {
        let c_ip = Ipv4Addr::new(10, 0, 0, 1);
        let s_ip = Ipv4Addr::new(10, 0, 0, 2);
        let (mut conn, _syn) = TcpConn::connect((c_ip, 4000), (s_ip, 80), 0, SimTime::ZERO);
        let (mut out, mut events) = (Vec::new(), Vec::new());
        for i in 0..g.usize_in(0, 30) {
            let seg = underradar_netsim::packet::TcpSegment {
                src_port: 80,
                dst_port: 4000,
                seq: g.u32(),
                ack: g.u32(),
                flags: TcpFlags(g.u8_in(0, 64)),
                window: 1000,
                payload: g.bytes(0, 64),
            };
            let now = SimTime::from_nanos(i as u64 * 1_000_000);
            conn.on_segment(&seg, now, &mut out, &mut events);
        }
    });
}

/// Body protocol classification is stable through the wire.
#[test]
fn protocol_preserved() {
    cases(256, 0xA00B, |g| {
        let p = arb_packet(g);
        let proto_before = p.body.protocol();
        let q = Packet::from_wire(&p.to_wire()).expect("parse");
        assert_eq!(proto_before, q.body.protocol());
        match (&p.body, &q.body) {
            (PacketBody::Tcp(a), PacketBody::Tcp(b)) => assert_eq!(&a.payload, &b.payload),
            (PacketBody::Udp(a), PacketBody::Udp(b)) => assert_eq!(&a.payload, &b.payload),
            (PacketBody::Icmp(a), PacketBody::Icmp(b)) => assert_eq!(&a.payload, &b.payload),
            _ => {}
        }
    });
}
