//! Monitor ≡ endpoint property: a monitor tapping the wire *next to the
//! endpoint* must reconstruct exactly the bytes the endpoint's
//! application received, for any in-bound channel impairment schedule —
//! bounded reordering (adjacent swaps, well inside the monitor's
//! hold-back budget), duplication, and loss repaired by the real stack's
//! RTO/fast-retransmit machinery.
//!
//! This is the complement of E13: that experiment seeds the attacks that
//! *must* diverge (TTL-limited copies, conflicting overlaps, TCB
//! desync); this property pins the attack-free half of the matrix — the
//! monitor/endpoint pair never diverges merely because the channel was
//! unkind. The endpoint is the real simulator TCP stack ([`TcpConn`],
//! both sides), so retransmitted segments genuinely overlap bytes the
//! monitor already holds, and the property checks those overlaps resolve
//! identically at both vantage points.

use std::net::Ipv4Addr;

use underradar_ids::stream::{Direction, FlowKey, StreamReassembler};
use underradar_netsim::testprop::{cases, Gen};
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::{Packet, TcpConn, TcpEvent, TcpSegment};

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);
const SPORT: u16 = 40123;
const DPORT: u16 = 80;

/// Wire direction of an in-flight packet.
#[derive(Clone, Copy, PartialEq)]
enum Dest {
    ToServer,
    ToClient,
}

/// One in-flight packet: delivery time, FIFO tiebreak, destination.
struct InFlight {
    at: SimTime,
    order: u64,
    dest: Dest,
    pkt: Packet,
}

struct Wire {
    queue: Vec<InFlight>,
    order: u64,
    /// Impairment budget: total c2s drops this run (bounded so the
    /// stack's retry limit can never be exhausted).
    drops_left: u32,
}

impl Wire {
    fn new(drops_left: u32) -> Wire {
        Wire {
            queue: Vec::new(),
            order: 0,
            drops_left,
        }
    }

    /// Enqueue a client→server packet through the impaired channel.
    fn send_c2s(&mut self, g: &mut Gen, now: SimTime, pkt: Packet) {
        if self.drops_left > 0 && g.u8() < 32 {
            self.drops_left -= 1;
            return;
        }
        if g.u8() < 24 {
            self.push(now, Dest::ToServer, pkt.clone());
        }
        self.push(now, Dest::ToServer, pkt);
    }

    /// Enqueue a server→client packet (the ACK channel is clean — the
    /// property is about the data path the monitor taps).
    fn send_s2c(&mut self, now: SimTime, pkt: Packet) {
        self.push(now, Dest::ToClient, pkt);
    }

    fn push(&mut self, now: SimTime, dest: Dest, pkt: Packet) {
        self.queue.push(InFlight {
            at: now + SimDuration::from_millis(10),
            order: self.order,
            dest,
            pkt,
        });
        self.order += 1;
    }

    /// Swap some adjacent c2s deliveries: displacement of one segment at
    /// a time keeps held-back bytes under one MSS, far inside the
    /// monitor's out-of-order budget.
    fn reorder(&mut self, g: &mut Gen) {
        self.queue.sort_by_key(|f| (f.at, f.order));
        let mut i = 0;
        while i + 1 < self.queue.len() {
            if self.queue[i].dest == Dest::ToServer
                && self.queue[i + 1].dest == Dest::ToServer
                && g.u8() < 48
            {
                let t = self.queue[i].at;
                self.queue[i].at = self.queue[i + 1].at;
                self.queue[i + 1].at = t;
                let o = self.queue[i].order;
                self.queue[i].order = self.queue[i + 1].order;
                self.queue[i + 1].order = o;
                self.queue.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    fn pop(&mut self) -> Option<InFlight> {
        if self.queue.is_empty() {
            return None;
        }
        let best = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| (f.at, f.order))
            .map(|(i, _)| i)
            .expect("non-empty");
        Some(self.queue.remove(best))
    }
}

/// [`TcpConn::on_segment`] into fresh output vectors.
fn on_segment(conn: &mut TcpConn, seg: &TcpSegment, now: SimTime) -> (Vec<Packet>, Vec<TcpEvent>) {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    conn.on_segment(seg, now, &mut out, &mut events);
    (out, events)
}

/// [`TcpConn::on_rto`] into fresh output vectors.
fn on_rto(conn: &mut TcpConn, now: SimTime) -> (Vec<Packet>, Vec<TcpEvent>) {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    conn.on_rto(now, &mut out, &mut events);
    (out, events)
}

/// Drive one full connection through the impaired wire and return
/// (monitor stream, endpoint stream, bytes the client queued).
fn run_connection(g: &mut Gen) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let payload = g.bytes(1, 4000);
    let iss = g.u32();
    let mut now = SimTime::ZERO;
    let mut wire = Wire::new(3);

    let mut monitor = StreamReassembler::new();
    let mut key: Option<FlowKey> = None;

    let (mut client, syn) = TcpConn::connect((CLIENT, SPORT), (SERVER, DPORT), iss, now);
    let mut server: Option<TcpConn> = None;
    let mut endpoint_stream: Vec<u8> = Vec::new();
    let mut sent = false;

    wire.send_c2s(g, now, syn);
    let mut steps = 0u32;
    loop {
        steps += 1;
        assert!(steps < 10_000, "driver failed to converge");
        if g.u8() < 64 {
            wire.reorder(g);
        }
        let Some(flight) = wire.pop() else {
            // Wire idle: if the client still has unacknowledged or
            // untransmitted data, fire its retransmission timer.
            if client.has_unacked() && !client.is_closed() {
                now += client.rto();
                let (pkts, events) = on_rto(&mut client, now);
                if events.iter().any(|e| matches!(e, TcpEvent::TimedOut)) {
                    break;
                }
                for p in pkts {
                    wire.send_c2s(g, now, p);
                }
                continue;
            }
            break;
        };
        if flight.at > now {
            now = flight.at;
        }
        // The tap sits on the endpoint's access link: it sees exactly the
        // packets the endpoint sees, in the same order, both directions.
        monitor.set_now(now.as_nanos());
        if let Some(ctx) = monitor.process(&flight.pkt) {
            if ctx.direction == Direction::ToServer {
                key = Some(ctx.key);
            }
        }
        match flight.dest {
            Dest::ToServer => {
                let seg = flight.pkt.as_tcp().expect("driver only sends tcp");
                let conn = match server.as_mut() {
                    Some(conn) => conn,
                    None => {
                        let (conn, syn_ack) = TcpConn::accept(
                            (SERVER, DPORT),
                            (CLIENT, SPORT),
                            seg.seq,
                            g.u32(),
                            now,
                        );
                        wire.send_s2c(now, syn_ack);
                        server = Some(conn);
                        continue;
                    }
                };
                let (replies, events) = on_segment(conn, seg, now);
                for ev in events {
                    if let TcpEvent::Data(d) = ev {
                        endpoint_stream.extend_from_slice(&d);
                    }
                }
                for p in replies {
                    wire.send_s2c(now, p);
                }
            }
            Dest::ToClient => {
                let seg = flight.pkt.as_tcp().expect("driver only sends tcp");
                let (replies, events) = on_segment(&mut client, seg, now);
                for p in replies {
                    wire.send_c2s(g, now, p);
                }
                let connected = events.iter().any(|e| matches!(e, TcpEvent::Connected));
                if connected && !sent {
                    sent = true;
                    let mut data = Vec::new();
                    client.send(&payload, now, &mut data);
                    for p in data {
                        wire.send_c2s(g, now, p);
                    }
                }
            }
        }
    }

    let monitor_stream = key
        .map(|k| monitor.stream_of(&k, Direction::ToServer).to_vec())
        .unwrap_or_default();
    assert_eq!(
        monitor.stats().ooo_dropped,
        0,
        "impairments stayed in bound"
    );
    (monitor_stream, endpoint_stream, payload)
}

/// Under bounded loss/reorder/duplication, the monitor's reassembled
/// client→server stream is byte-identical to the bytes the endpoint
/// delivered to its application — and those are the bytes the client
/// queued (the channel impairments were fully repaired).
#[test]
fn monitor_stream_equals_endpoint_stream_under_impairments() {
    cases(120, 0xE9D0_71B5, |g| {
        let (monitor, endpoint, payload) = run_connection(g);
        assert_eq!(
            endpoint, payload,
            "endpoint received exactly what the client sent"
        );
        assert_eq!(
            monitor, endpoint,
            "monitor reconstruction diverged from the endpoint"
        );
    });
}
