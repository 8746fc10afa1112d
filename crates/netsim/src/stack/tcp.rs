//! A full-fidelity TCP endpoint (RFC 793 state machine + loss recovery).
//!
//! Covers what the censorship testbed needs from a *real* endpoint so the
//! monitor-in-the-middle (`ids::stream`) can be compared against it segment
//! for segment: three-way handshake, cumulative ACKs, RFC 6298 adaptive RTO
//! (SRTT/RTTVAR, exponential backoff, Karn's rule, retries reset on forward
//! progress), head-of-queue retransmission, fast retransmit on three
//! duplicate ACKs, a compact slow-start/AIMD congestion window,
//! advertised-receive-window respect, an out-of-order receive buffer in
//! which the most recent copy of overlapping bytes wins (real stacks
//! disagree on who wins when retransmitted bytes differ, which is exactly
//! the ambiguity Ptacek–Newsham evasion exploits; the monitor's side of
//! that choice is `ids::stream::OverlapPolicy`), windowed RST validation
//! (out-of-window RSTs draw a challenge ACK instead of tearing down, RFC
//! 5961-style), FIN teardown, and per-connection reply-TTL override (the
//! paper's TTL-limited stateful mimicry, §4.1).
//!
//! Still deliberately omitted: SACK, window scaling, timestamps,
//! simultaneous open, and delayed ACKs. None of these affect the
//! censorship/surveillance behaviours under study.
//!
//! The connection is pure logic: methods consume segments and append the
//! packets to transmit, and the events for the application, to buffers
//! the caller owns (the host reuses one pair for every connection, so a
//! segment allocates no output vectors). The host owns timers, passes the
//! simulated clock into every call, and re-arms the retransmission timer
//! from [`TcpConn::rto`] (which reflects the current backed-off value).

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use crate::packet::{Packet, TcpSegment};
use crate::time::{SimDuration, SimTime};
use crate::wire::tcp::TcpFlags;

/// Maximum retransmissions before the connection gives up.
pub const MAX_RETRIES: u32 = 5;

/// Maximum payload per segment (a conventional Ethernet-ish MSS).
pub const MSS: usize = 1460;

/// Initial congestion window (RFC 6928's IW10).
pub const INIT_CWND: u32 = 10 * MSS as u32;

/// Lower bound for the slow-start threshold after a loss event.
const MIN_SSTHRESH: u32 = 2 * MSS as u32;

/// Upper bound on the congestion window (keeps runaway growth bounded).
const MAX_CWND: u32 = 4 * 1024 * 1024;

/// Floor for the computed RTO, and the RTO used before any RTT sample.
const RTO_MIN: SimDuration = SimDuration::from_millis(200);

/// Upper bound on the retransmission timeout (RFC 6298 §2.5).
const RTO_MAX: SimDuration = SimDuration::from_secs(60);

/// Clock granularity `G` in the RTO formula (RFC 6298 §2.4).
const RTO_GRANULARITY: SimDuration = SimDuration::from_millis(1);

/// Default advertised receive window.
const DEFAULT_WINDOW: u32 = 65535;

/// Duplicate-ACK threshold for fast retransmit.
const DUP_ACK_THRESHOLD: u32 = 3;

/// `a < b` in sequence space.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// TCP connection states (RFC 793 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN/ACK.
    SynSent,
    /// SYN received and SYN/ACK sent, awaiting ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we sent our FIN.
    LastAck,
    /// Both sides sent FINs simultaneously.
    Closing,
    /// Fully closed (TIME_WAIT is collapsed into this state).
    Closed,
}

/// Events a connection reports to its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// The handshake completed.
    Connected,
    /// In-order payload bytes arrived.
    Data(Vec<u8>),
    /// The peer sent FIN (no more data will arrive).
    PeerClosed,
    /// The connection was reset by a RST segment. This is both an error path
    /// and a *measurement signal*: injected RSTs are how the GFC censors.
    Reset,
    /// Our SYN was answered with RST (connection refused).
    Refused,
    /// Retransmissions were exhausted.
    TimedOut,
    /// The connection closed cleanly in both directions.
    Closed,
}

/// A retransmittable chunk (SYN, FIN, or payload bytes).
#[derive(Debug, Clone)]
struct Chunk {
    seq: u32,
    data: Vec<u8>,
    syn: bool,
    fin: bool,
}

impl Chunk {
    fn seq_len(&self) -> u32 {
        self.data.len() as u32 + u32::from(self.syn) + u32::from(self.fin)
    }
    fn end_seq(&self) -> u32 {
        self.seq.wrapping_add(self.seq_len())
    }
}

/// One TCP connection.
#[derive(Debug)]
pub struct TcpConn {
    /// Local (address, port).
    pub local: (Ipv4Addr, u16),
    /// Remote (address, port).
    pub remote: (Ipv4Addr, u16),
    state: TcpState,
    iss: u32,
    snd_nxt: u32,
    snd_una: u32,
    rcv_nxt: u32,
    /// Chunks queued by the application but not yet transmitted (held back
    /// by the congestion or peer-advertised window). `snd_nxt` already
    /// covers them.
    pending: VecDeque<Chunk>,
    /// Chunks transmitted and awaiting acknowledgment, in sequence order.
    unacked: VecDeque<Chunk>,
    /// Sum of `seq_len` over `unacked`.
    in_flight: u32,
    /// Peer-advertised receive window (from the latest ACK).
    snd_wnd: u32,
    /// Congestion window.
    cwnd: u32,
    /// Slow-start threshold.
    ssthresh: u32,
    /// Consecutive duplicate ACKs observed at `snd_una`.
    dup_acks: u32,
    retries: u32,
    /// Smoothed RTT (None until the first sample).
    srtt: Option<SimDuration>,
    /// RTT variance estimator.
    rttvar: SimDuration,
    /// Current RTO, including exponential backoff.
    rto_cur: SimDuration,
    /// The one segment currently being timed for an RTT sample (Karn's
    /// algorithm: cleared on any retransmission): `(end_seq, sent_at)`.
    rtt_probe: Option<(u32, SimTime)>,
    /// Our advertised receive window.
    rcv_wnd: u32,
    /// Out-of-order received bytes ahead of `rcv_nxt`: `(seq, bytes)`,
    /// sorted by offset from `rcv_nxt`, non-overlapping. Because offsets are
    /// clipped to `rcv_wnd`, total held bytes never exceed the window.
    rcv_ooo: Vec<(u32, Vec<u8>)>,
    fin_sent: bool,
}

impl TcpConn {
    fn new(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        state: TcpState,
        iss: u32,
        rcv_nxt: u32,
    ) -> TcpConn {
        TcpConn {
            local,
            remote,
            state,
            iss,
            snd_nxt: iss.wrapping_add(1),
            snd_una: iss,
            rcv_nxt,
            pending: VecDeque::new(),
            unacked: VecDeque::new(),
            in_flight: 0,
            snd_wnd: DEFAULT_WINDOW,
            cwnd: INIT_CWND,
            ssthresh: MAX_CWND,
            dup_acks: 0,
            retries: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto_cur: RTO_MIN,
            rtt_probe: None,
            rcv_wnd: DEFAULT_WINDOW,
            rcv_ooo: Vec::new(),
            fin_sent: false,
        }
    }

    /// Open a connection: returns the connection in `SynSent` plus the SYN
    /// packet to transmit. `iss` is the initial send sequence number.
    pub fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        now: SimTime,
    ) -> (TcpConn, Packet) {
        let mut conn = TcpConn::new(local, remote, TcpState::SynSent, iss, 0);
        conn.unacked.push_back(Chunk {
            seq: iss,
            data: Vec::new(),
            syn: true,
            fin: false,
        });
        conn.in_flight = 1;
        conn.rtt_probe = Some((iss.wrapping_add(1), now));
        let syn = conn.make_packet(iss, 0, TcpFlags::syn(), Vec::new());
        (conn, syn)
    }

    /// Accept a connection from a received SYN: returns the connection in
    /// `SynReceived` plus the SYN/ACK to transmit.
    pub fn accept(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        peer_seq: u32,
        iss: u32,
        now: SimTime,
    ) -> (TcpConn, Packet) {
        let mut conn = TcpConn::new(
            local,
            remote,
            TcpState::SynReceived,
            iss,
            peer_seq.wrapping_add(1),
        );
        conn.unacked.push_back(Chunk {
            seq: iss,
            data: Vec::new(),
            syn: true,
            fin: false,
        });
        conn.in_flight = 1;
        conn.rtt_probe = Some((iss.wrapping_add(1), now));
        let syn_ack = conn.make_packet(iss, conn.rcv_nxt, TcpFlags::syn_ack(), Vec::new());
        (conn, syn_ack)
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Whether the connection still has untransmitted or unacknowledged
    /// chunks (the host keeps an RTO timer armed while this is true).
    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty() || !self.pending.is_empty()
    }

    /// Whether the connection is fully closed and can be dropped.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// The current retransmission timeout, including exponential backoff.
    /// The host arms its RTO timer with this value.
    pub fn rto(&self) -> SimDuration {
        self.rto_cur
    }

    /// Set the advertised receive window (bytes). Segments wholly beyond
    /// `rcv_nxt + rcv_wnd` are dropped — the lever for window-based evasion.
    pub fn set_rcv_wnd(&mut self, wnd: u32) {
        self.rcv_wnd = wnd;
    }

    /// Next sequence number the receive side expects.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Latest peer-advertised receive window in bytes.
    pub fn snd_wnd(&self) -> u32 {
        self.snd_wnd
    }

    /// Bytes (plus SYN/FIN octets) currently in flight.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    fn make_packet(&self, seq: u32, ack: u32, flags: TcpFlags, payload: Vec<u8>) -> Packet {
        Packet::tcp(
            self.local.0,
            self.remote.0,
            self.local.1,
            self.remote.1,
            seq,
            ack,
            flags,
            payload,
        )
        .with_tcp_window(self.rcv_wnd.min(u16::MAX as u32) as u16)
    }

    fn ack_packet(&self) -> Packet {
        self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::ack(), Vec::new())
    }

    /// The effective send window: min(congestion window, peer window).
    fn send_limit(&self) -> u32 {
        self.cwnd.min(self.snd_wnd)
    }

    /// Move chunks from `pending` to the wire while the window allows. At
    /// least one chunk is always released when nothing is in flight (the
    /// zero-window probe, collapsed into sending the head chunk).
    fn transmit_pending(&mut self, out: &mut Vec<Packet>, now: SimTime) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::LastAck
                | TcpState::Closing
        ) {
            return;
        }
        let limit = self.send_limit();
        while let Some(front) = self.pending.front() {
            let len = front.seq_len();
            if self.in_flight != 0 && self.in_flight.saturating_add(len) > limit {
                break;
            }
            let chunk = self.pending.pop_front().expect("front exists");
            if self.rtt_probe.is_none() && !chunk.syn {
                self.rtt_probe = Some((chunk.end_seq(), now));
            }
            let flags = if chunk.fin {
                TcpFlags::fin_ack()
            } else {
                TcpFlags::psh_ack()
            };
            out.push(self.make_packet(chunk.seq, self.rcv_nxt, flags, chunk.data.clone()));
            self.in_flight = self.in_flight.saturating_add(len);
            self.unacked.push_back(chunk);
        }
    }

    /// Queue application data, appending the packets transmitted now to
    /// `out` (the remainder is window-clocked out as ACKs arrive; all data
    /// is retained for retransmission). Only legal while the local side is
    /// open (`Established` or `CloseWait`); otherwise transmits nothing.
    pub fn send(&mut self, data: &[u8], now: SimTime, out: &mut Vec<Packet>) {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait) || data.is_empty() {
            return;
        }
        for piece in data.chunks(MSS) {
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(piece.len() as u32);
            self.pending.push_back(Chunk {
                seq,
                data: piece.to_vec(),
                syn: false,
                fin: false,
            });
        }
        self.transmit_pending(out, now);
    }

    /// Close the local side (send FIN), appending packets to transmit to
    /// `out`.
    pub fn close(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        match self.state {
            TcpState::Established => self.state = TcpState::FinWait1,
            TcpState::CloseWait => self.state = TcpState::LastAck,
            TcpState::SynSent => {
                // Nothing on the wire worth tearing down.
                self.state = TcpState::Closed;
                self.unacked.clear();
                self.pending.clear();
                self.in_flight = 0;
                return;
            }
            _ => return,
        }
        let seq = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.fin_sent = true;
        self.pending.push_back(Chunk {
            seq,
            data: Vec::new(),
            syn: false,
            fin: true,
        });
        self.transmit_pending(out, now);
    }

    /// Abort the connection: returns the RST to transmit (if the connection
    /// had reached a state where a RST is meaningful).
    pub fn abort(&mut self) -> Option<Packet> {
        let was = self.state;
        self.state = TcpState::Closed;
        self.unacked.clear();
        self.pending.clear();
        self.in_flight = 0;
        if was == TcpState::Closed {
            None
        } else {
            Some(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::rst_ack(), Vec::new()))
        }
    }

    /// Retransmit the head of the unacked queue (the only segment an RTO or
    /// fast retransmit resends — retransmitting the whole queue was the old
    /// go-back-N storm).
    fn retransmit_head(&mut self, out: &mut Vec<Packet>) {
        let Some(chunk) = self.unacked.front() else {
            return;
        };
        let flags = if chunk.syn {
            if self.state == TcpState::SynReceived {
                TcpFlags::syn_ack()
            } else {
                TcpFlags::syn()
            }
        } else if chunk.fin {
            TcpFlags::fin_ack()
        } else {
            TcpFlags::psh_ack()
        };
        let ack = if self.state == TcpState::SynSent {
            0
        } else {
            self.rcv_nxt
        };
        let pkt = self.make_packet(chunk.seq, ack, flags, chunk.data.clone());
        out.push(pkt);
        // Karn's algorithm: never time a retransmitted segment.
        self.rtt_probe = None;
    }

    /// Retransmission timer fired. Retransmits only the head of the queue,
    /// backs off the RTO exponentially, and collapses the congestion window.
    /// Appends packets to retransmit to `out` and any events to `events` (a
    /// [`TcpEvent::TimedOut`] when retries are exhausted).
    pub fn on_rto(&mut self, now: SimTime, out: &mut Vec<Packet>, events: &mut Vec<TcpEvent>) {
        if (self.unacked.is_empty() && self.pending.is_empty()) || self.state == TcpState::Closed {
            return;
        }
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            self.state = TcpState::Closed;
            self.unacked.clear();
            self.pending.clear();
            self.in_flight = 0;
            events.push(TcpEvent::TimedOut);
            return;
        }
        // Loss response: multiplicative decrease and exponential backoff.
        self.ssthresh = (self.in_flight / 2).max(MIN_SSTHRESH);
        self.cwnd = MSS as u32;
        self.dup_acks = 0;
        self.rto_cur = cap_duration(self.rto_cur.saturating_mul(2), RTO_MAX);
        if self.unacked.is_empty() {
            // Window-blocked with nothing in flight: release the head
            // pending chunk as a probe.
            self.transmit_pending(out, now);
        } else {
            self.retransmit_head(out);
        }
    }

    /// Process a received segment, appending packets to transmit to `out`
    /// and events for the application to `events`, in order.
    pub fn on_segment(
        &mut self,
        seg: &TcpSegment,
        now: SimTime,
        out: &mut Vec<Packet>,
        events: &mut Vec<TcpEvent>,
    ) {
        if self.state == TcpState::Closed {
            return;
        }

        // RST handling. In SynSent a RST means the port refused us. In
        // synchronized states the RST must fall inside the receive window
        // (RFC 5961-flavoured): an out-of-window RST draws a challenge ACK
        // and is otherwise ignored. In-network censors that track sequence
        // numbers (ours do) inject in-window RSTs, which still kill the
        // connection; blind off-window RSTs no longer do.
        if seg.flags.has_rst() {
            if self.state == TcpState::SynSent {
                self.enter_closed();
                events.push(TcpEvent::Refused);
                return;
            }
            let off = seg.seq.wrapping_sub(self.rcv_nxt);
            if seg.seq == self.rcv_nxt || off < self.rcv_wnd {
                self.enter_closed();
                events.push(TcpEvent::Reset);
            } else {
                out.push(self.ack_packet());
            }
            return;
        }

        match self.state {
            TcpState::SynSent => {
                if seg.flags.has_syn() && seg.flags.has_ack() {
                    if seg.ack != self.iss.wrapping_add(1) {
                        // Wrong ACK: answer with RST per RFC 793.
                        out.push(self.make_packet(seg.ack, 0, TcpFlags::rst(), Vec::new()));
                        return;
                    }
                    self.snd_una = seg.ack;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.unacked.clear();
                    self.in_flight = 0;
                    self.retries = 0;
                    self.snd_wnd = seg.window as u32;
                    if let Some((end, sent_at)) = self.rtt_probe.take() {
                        if seq_le(end, seg.ack) {
                            self.take_rtt_sample(now.saturating_since(sent_at));
                        }
                    }
                    self.rto_cur = self.computed_rto();
                    self.state = TcpState::Established;
                    out.push(self.ack_packet());
                    events.push(TcpEvent::Connected);
                }
                // Bare SYN (simultaneous open) is not supported; ignore.
                // A stray SYN on an established tuple is likewise ignored
                // below — the endpoint does NOT resync its TCB, which is
                // exactly where SYN-desync evasion diverges from a naive
                // monitor that does.
            }
            _ => {
                // ACK processing: drop fully-acknowledged chunks, take RTT
                // samples, grow the congestion window, count duplicates.
                if seg.flags.has_ack() {
                    self.process_ack(seg, out, events, now);
                    if self.state == TcpState::Closed {
                        return;
                    }
                }

                // Data processing: in-order delivery plus an out-of-order
                // hold buffer bounded by our advertised window.
                let data_len = seg.payload.len() as u32;
                let mut advanced = false;
                if data_len > 0 && self.receiving_open() {
                    let end = seg.seq.wrapping_add(data_len);
                    if seq_le(end, self.rcv_nxt) {
                        // Entirely old bytes: re-ACK so the sender moves on.
                        out.push(self.ack_packet());
                    } else if seq_le(seg.seq, self.rcv_nxt) {
                        // Overlaps rcv_nxt: deliverable right now.
                        self.deliver_in_order(seg.seq, &seg.payload, events);
                        advanced = true;
                    } else {
                        let off = seg.seq.wrapping_sub(self.rcv_nxt);
                        if off >= self.rcv_wnd {
                            // Wholly beyond our advertised window: an honest
                            // sender never does this; drop and re-ACK. This
                            // is the window-evasion boundary.
                            out.push(self.ack_packet());
                        } else {
                            self.hold_ooo(seg.seq, &seg.payload);
                            // Duplicate ACK signals the gap to the sender.
                            out.push(self.ack_packet());
                        }
                    }
                } else if data_len > 0 {
                    // Receive side closed: just re-ACK.
                    out.push(self.ack_packet());
                }

                // FIN processing.
                if seg.flags.has_fin() {
                    let fin_seq = seg.seq.wrapping_add(data_len);
                    if fin_seq == self.rcv_nxt {
                        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                        advanced = true;
                        events.push(TcpEvent::PeerClosed);
                        match self.state {
                            TcpState::SynReceived | TcpState::Established => {
                                self.state = TcpState::CloseWait;
                            }
                            TcpState::FinWait1 => {
                                // Our FIN not yet acked: both sides closing.
                                self.state = TcpState::Closing;
                            }
                            TcpState::FinWait2 => {
                                self.state = TcpState::Closed;
                                events.push(TcpEvent::Closed);
                            }
                            _ => {}
                        }
                    } else if seq_lt(fin_seq, self.rcv_nxt) {
                        // Retransmitted FIN: re-ACK.
                        out.push(self.ack_packet());
                    }
                }

                if advanced {
                    out.push(self.ack_packet());
                }

                // An ACK may have opened the window: clock out queued data.
                self.transmit_pending(out, now);
            }
        }
    }

    fn enter_closed(&mut self) {
        self.state = TcpState::Closed;
        self.unacked.clear();
        self.pending.clear();
        self.in_flight = 0;
        self.rcv_ooo.clear();
    }

    fn receiving_open(&self) -> bool {
        matches!(
            self.state,
            TcpState::SynReceived | TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        )
    }

    /// Deliver bytes that overlap `rcv_nxt` (seq <= rcv_nxt < end), then
    /// drain any out-of-order bytes this makes contiguous.
    fn deliver_in_order(&mut self, seq: u32, payload: &[u8], events: &mut Vec<TcpEvent>) {
        let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
        if skip >= payload.len() {
            return;
        }
        let mut bytes = payload[skip..].to_vec();
        if bytes.len() as u32 > self.rcv_wnd.max(1) {
            bytes.truncate(self.rcv_wnd.max(1) as usize);
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(bytes.len() as u32);
        events.push(TcpEvent::Data(bytes));
        self.drain_ooo(events);
    }

    /// Pop held out-of-order chunks made contiguous by an advance of
    /// `rcv_nxt`, delivering their undelivered suffixes.
    fn drain_ooo(&mut self, events: &mut Vec<TcpEvent>) {
        while !self.rcv_ooo.is_empty() {
            let (hseq, _) = self.rcv_ooo[0];
            if seq_lt(self.rcv_nxt, hseq) {
                break;
            }
            let (hseq, hdata) = self.rcv_ooo.remove(0);
            let skip = self.rcv_nxt.wrapping_sub(hseq) as usize;
            if skip < hdata.len() {
                let bytes = hdata[skip..].to_vec();
                self.rcv_nxt = self.rcv_nxt.wrapping_add(bytes.len() as u32);
                events.push(TcpEvent::Data(bytes));
            }
        }
    }

    /// Buffer a future segment (rcv_nxt < seq, inside the window). The held
    /// set stays sorted and non-overlapping; where the new range crosses held
    /// ranges the new bytes win (keep-last).
    fn hold_ooo(&mut self, seq: u32, payload: &[u8]) {
        let base = self.rcv_nxt;
        let off = seq.wrapping_sub(base);
        let avail = self.rcv_wnd.saturating_sub(off);
        if avail == 0 || payload.is_empty() {
            return;
        }
        let mut data = payload.to_vec();
        if data.len() as u32 > avail {
            data.truncate(avail as usize);
        }
        let new_start = off;
        let new_end = off + data.len() as u32;
        // Trim or split held chunks the new range crosses, then
        // insert the new bytes whole.
        let mut kept: Vec<(u32, Vec<u8>)> = Vec::new();
        for (hseq, hdata) in std::mem::take(&mut self.rcv_ooo) {
            let hs = hseq.wrapping_sub(base);
            let he = hs + hdata.len() as u32;
            if he <= new_start || hs >= new_end {
                kept.push((hseq, hdata));
                continue;
            }
            if hs < new_start {
                kept.push((hseq, hdata[..(new_start - hs) as usize].to_vec()));
            }
            if he > new_end {
                kept.push((
                    base.wrapping_add(new_end),
                    hdata[(new_end - hs) as usize..].to_vec(),
                ));
            }
        }
        kept.push((base.wrapping_add(new_start), data));
        self.rcv_ooo = kept;
        self.rcv_ooo.sort_by_key(|(s, _)| s.wrapping_sub(base));
    }

    /// RFC 6298 estimator update.
    fn take_rtt_sample(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample.div(2);
            }
            Some(srtt) => {
                let s = srtt.as_nanos();
                let r = sample.as_nanos();
                let diff = s.abs_diff(r);
                // rttvar = 3/4 rttvar + 1/4 |srtt - r|
                self.rttvar = SimDuration::from_nanos(
                    (self.rttvar.as_nanos() / 4).saturating_mul(3) + diff / 4,
                );
                // srtt = 7/8 srtt + 1/8 r
                self.srtt = Some(SimDuration::from_nanos((s / 8).saturating_mul(7) + r / 8));
            }
        }
    }

    /// RTO = clamp(srtt + max(G, 4·rttvar), RTO_MIN, RTO_MAX).
    fn computed_rto(&self) -> SimDuration {
        match self.srtt {
            Some(srtt) => {
                let var = self
                    .rttvar
                    .saturating_mul(4)
                    .max(RTO_GRANULARITY)
                    .as_nanos();
                let rto = SimDuration::from_nanos(srtt.as_nanos().saturating_add(var));
                cap_duration(rto.max(RTO_MIN), RTO_MAX)
            }
            None => RTO_MIN,
        }
    }

    fn process_ack(
        &mut self,
        seg: &TcpSegment,
        out: &mut Vec<Packet>,
        events: &mut Vec<TcpEvent>,
        now: SimTime,
    ) {
        let ack = seg.ack;
        if !seq_le(ack, self.snd_nxt) {
            return; // Acks data we never sent; ignore.
        }
        if seq_lt(ack, self.snd_una) {
            return; // Old ACK; ignore.
        }
        self.snd_wnd = seg.window as u32;
        if ack == self.snd_una {
            // Possible duplicate ACK: a pure ACK at snd_una while data is
            // outstanding means the peer got something out of order.
            let pure_ack = seg.payload.is_empty() && !seg.flags.has_syn() && !seg.flags.has_fin();
            if pure_ack && !self.unacked.is_empty() {
                self.dup_acks += 1;
                if self.dup_acks == DUP_ACK_THRESHOLD {
                    // Fast retransmit: the head chunk is the likely loss.
                    self.ssthresh = (self.in_flight / 2).max(MIN_SSTHRESH);
                    self.cwnd = self.ssthresh;
                    self.retransmit_head(out);
                }
            }
            return;
        }

        // Forward progress.
        let acked_bytes = ack.wrapping_sub(self.snd_una);
        while let Some(front) = self.unacked.front() {
            if seq_le(front.end_seq(), ack) {
                let was_syn = front.syn;
                let was_fin = front.fin;
                self.in_flight = self.in_flight.saturating_sub(front.seq_len());
                self.unacked.pop_front();
                if was_syn && self.state == TcpState::SynReceived {
                    self.state = TcpState::Established;
                    events.push(TcpEvent::Connected);
                }
                if was_fin {
                    match self.state {
                        TcpState::FinWait1 => self.state = TcpState::FinWait2,
                        TcpState::Closing | TcpState::LastAck => {
                            self.state = TcpState::Closed;
                            events.push(TcpEvent::Closed);
                        }
                        _ => {}
                    }
                }
            } else {
                break;
            }
        }
        self.snd_una = ack;
        self.retries = 0;
        self.dup_acks = 0;
        if let Some((end, sent_at)) = self.rtt_probe {
            if seq_le(end, ack) {
                self.take_rtt_sample(now.saturating_since(sent_at));
                self.rtt_probe = None;
            }
        }
        self.rto_cur = self.computed_rto();
        // Congestion window growth: slow start below ssthresh, AIMD above.
        let mss = MSS as u32;
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(acked_bytes.min(mss)).min(MAX_CWND);
        } else {
            let add = (mss.saturating_mul(mss) / self.cwnd.max(1)).max(1);
            self.cwnd = self.cwnd.saturating_add(add).min(MAX_CWND);
        }
    }
}

fn cap_duration(d: SimDuration, max: SimDuration) -> SimDuration {
    if d > max {
        max
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const T0: SimTime = SimTime::ZERO;

    fn seg_of(p: &Packet) -> TcpSegment {
        p.as_tcp().expect("tcp packet").clone()
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// [`TcpConn::on_segment`] into fresh output vectors.
    fn segment(conn: &mut TcpConn, seg: &TcpSegment, now: SimTime) -> (Vec<Packet>, Vec<TcpEvent>) {
        let (mut out, mut events) = (Vec::new(), Vec::new());
        conn.on_segment(seg, now, &mut out, &mut events);
        (out, events)
    }

    /// [`TcpConn::on_rto`] into fresh output vectors.
    fn rto(conn: &mut TcpConn, now: SimTime) -> (Vec<Packet>, Vec<TcpEvent>) {
        let (mut out, mut events) = (Vec::new(), Vec::new());
        conn.on_rto(now, &mut out, &mut events);
        (out, events)
    }

    /// [`TcpConn::send`] into a fresh output vector.
    fn send(conn: &mut TcpConn, data: &[u8], now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        conn.send(data, now, &mut out);
        out
    }

    /// [`TcpConn::close`] into a fresh output vector.
    fn close(conn: &mut TcpConn, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        conn.close(now, &mut out);
        out
    }

    /// Drive a full handshake; returns (client, server).
    fn handshake() -> (TcpConn, TcpConn) {
        let (mut client, syn) = TcpConn::connect((C, 4000), (S, 80), 1000, T0);
        let syn_seg = seg_of(&syn);
        assert!(syn_seg.flags.has_syn() && !syn_seg.flags.has_ack());

        let (mut server, syn_ack) = TcpConn::accept((S, 80), (C, 4000), syn_seg.seq, 9000, T0);
        let (cl_out, cl_ev) = segment(&mut client, &seg_of(&syn_ack), T0);
        assert_eq!(cl_ev, vec![TcpEvent::Connected]);
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(cl_out.len(), 1);

        let (sv_out, sv_ev) = segment(&mut server, &seg_of(&cl_out[0]), T0);
        assert_eq!(sv_ev, vec![TcpEvent::Connected]);
        assert_eq!(server.state(), TcpState::Established);
        assert!(sv_out.is_empty());
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        handshake();
    }

    #[test]
    fn data_transfer_and_ack() {
        let (mut client, mut server) = handshake();
        let data_pkts = send(&mut client, b"GET / HTTP/1.0\r\n\r\n", T0);
        assert_eq!(data_pkts.len(), 1);
        assert!(client.has_unacked());
        let (sv_out, sv_ev) = segment(&mut server, &seg_of(&data_pkts[0]), T0);
        assert_eq!(
            sv_ev,
            vec![TcpEvent::Data(b"GET / HTTP/1.0\r\n\r\n".to_vec())]
        );
        assert_eq!(sv_out.len(), 1, "server ACKs");
        let (_, cl_ev) = segment(&mut client, &seg_of(&sv_out[0]), T0);
        assert!(cl_ev.is_empty());
        assert!(!client.has_unacked());
    }

    #[test]
    fn large_send_is_segmented_at_mss() {
        let (mut client, mut server) = handshake();
        let payload = vec![0x41u8; MSS * 2 + 100];
        let pkts = send(&mut client, &payload, T0);
        assert_eq!(pkts.len(), 3);
        let mut received = Vec::new();
        for p in &pkts {
            let (_, ev) = segment(&mut server, &seg_of(p), T0);
            for e in ev {
                if let TcpEvent::Data(d) = e {
                    received.extend_from_slice(&d);
                }
            }
        }
        assert_eq!(received, payload);
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut client, mut server) = handshake();
        // Client closes.
        let fin = close(&mut client, T0);
        assert_eq!(client.state(), TcpState::FinWait1);
        let (sv_out, sv_ev) = segment(&mut server, &seg_of(&fin[0]), T0);
        assert_eq!(sv_ev, vec![TcpEvent::PeerClosed]);
        assert_eq!(server.state(), TcpState::CloseWait);
        let (_, cl_ev) = segment(&mut client, &seg_of(&sv_out[0]), T0);
        assert!(cl_ev.is_empty());
        assert_eq!(client.state(), TcpState::FinWait2);
        // Server closes.
        let fin2 = close(&mut server, T0);
        assert_eq!(server.state(), TcpState::LastAck);
        let (cl_out, cl_ev) = segment(&mut client, &seg_of(&fin2[0]), T0);
        assert_eq!(cl_ev, vec![TcpEvent::PeerClosed, TcpEvent::Closed]);
        assert!(client.is_closed());
        let (_, sv_ev) = segment(&mut server, &seg_of(&cl_out[0]), T0);
        assert_eq!(sv_ev, vec![TcpEvent::Closed]);
        assert!(server.is_closed());
    }

    #[test]
    fn injected_rst_resets_established_connection() {
        // The censorship primitive: an on-path device injects a RST with the
        // right four-tuple and an in-window sequence number.
        let (mut client, _server) = handshake();
        let rst = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: 1001,
            flags: TcpFlags::rst_ack(),
            window: 0,
            payload: Vec::new(),
        };
        let (_, ev) = segment(&mut client, &rst, T0);
        assert_eq!(ev, vec![TcpEvent::Reset]);
        assert!(client.is_closed());
    }

    #[test]
    fn out_of_window_rst_draws_challenge_ack_and_is_ignored() {
        let (mut client, _server) = handshake();
        // A blind RST far outside the receive window must not kill the
        // connection (RFC 5961 behaviour) — but the monitor, which accepts
        // any RST, desyncs here. That asymmetry is an E13 evasion class.
        let rst = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001u32.wrapping_add(200_000),
            ack: 1001,
            flags: TcpFlags::rst_ack(),
            window: 0,
            payload: Vec::new(),
        };
        let (out, ev) = segment(&mut client, &rst, T0);
        assert!(ev.is_empty());
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(out.len(), 1, "challenge ACK");
        let challenge = seg_of(&out[0]);
        assert!(challenge.flags.has_ack() && !challenge.flags.has_rst());
        assert_eq!(challenge.ack, 9001);
    }

    #[test]
    fn rst_to_syn_is_refused() {
        let (mut client, _syn) = TcpConn::connect((C, 4000), (S, 81), 5, T0);
        let rst = TcpSegment {
            src_port: 81,
            dst_port: 4000,
            seq: 0,
            ack: 6,
            flags: TcpFlags::rst_ack(),
            window: 0,
            payload: Vec::new(),
        };
        let (_, ev) = segment(&mut client, &rst, T0);
        assert_eq!(ev, vec![TcpEvent::Refused]);
        assert!(client.is_closed());
    }

    #[test]
    fn rto_retransmits_then_times_out() {
        let (mut client, _syn) = TcpConn::connect((C, 4000), (S, 80), 100, T0);
        for _ in 0..MAX_RETRIES {
            let (pkts, ev) = rto(&mut client, T0);
            assert_eq!(pkts.len(), 1, "SYN retransmitted");
            assert!(seg_of(&pkts[0]).flags.has_syn());
            assert!(ev.is_empty());
        }
        let (pkts, ev) = rto(&mut client, T0);
        assert!(pkts.is_empty());
        assert_eq!(ev, vec![TcpEvent::TimedOut]);
        assert!(client.is_closed());
    }

    #[test]
    fn rto_retransmits_head_only() {
        // The old implementation resent the entire unacked queue on every
        // RTO (a go-back-N storm). Only the head may be retransmitted.
        let (mut client, _server) = handshake();
        let pkts = send(&mut client, &vec![0x42u8; MSS * 3], T0);
        assert_eq!(pkts.len(), 3);
        let (retx, ev) = rto(&mut client, T0);
        assert!(ev.is_empty());
        assert_eq!(retx.len(), 1, "head-of-queue only");
        assert_eq!(seg_of(&retx[0]).seq, seg_of(&pkts[0]).seq);
    }

    #[test]
    fn rto_backs_off_exponentially_and_resets_on_progress() {
        let (mut client, _server) = handshake();
        let base = client.rto();
        let pkts = send(&mut client, b"hello", T0);
        let _ = rto(&mut client, T0);
        assert_eq!(client.rto(), base.saturating_mul(2));
        let _ = rto(&mut client, T0);
        assert_eq!(client.rto(), base.saturating_mul(4));
        // A fresh cumulative ACK is forward progress: backoff resets.
        let seq = seg_of(&pkts[0]);
        let ack = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: seq.seq.wrapping_add(seq.payload.len() as u32),
            flags: TcpFlags::ack(),
            window: 65535,
            payload: Vec::new(),
        };
        let (_, ev) = segment(&mut client, &ack, T0);
        assert!(ev.is_empty());
        assert!(client.rto() <= base, "backoff cleared on forward progress");
        assert!(!client.has_unacked());
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let (mut client, _server) = handshake();
        let pkts = send(&mut client, &vec![0x42u8; MSS * 3], T0);
        assert_eq!(pkts.len(), 3);
        let dup = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: 1001, // snd_una: nothing new
            flags: TcpFlags::ack(),
            window: 65535,
            payload: Vec::new(),
        };
        let (out1, _) = segment(&mut client, &dup, T0);
        let (out2, _) = segment(&mut client, &dup, T0);
        assert!(out1.is_empty() && out2.is_empty(), "below threshold");
        let (out3, _) = segment(&mut client, &dup, T0);
        assert_eq!(out3.len(), 1, "third duplicate triggers fast retransmit");
        assert_eq!(seg_of(&out3[0]).seq, 1001);
        assert_eq!(seg_of(&out3[0]).payload.len(), MSS);
        // Further duplicates do not retransmit again.
        let (out4, _) = segment(&mut client, &dup, T0);
        assert!(out4.is_empty());
    }

    #[test]
    fn slow_start_grows_cwnd_and_rto_collapses_it() {
        let (mut client, _server) = handshake();
        let cwnd0 = client.cwnd();
        assert_eq!(cwnd0, INIT_CWND);
        let pkts = send(&mut client, &vec![1u8; MSS * 2], T0);
        let end = seg_of(&pkts[1]).seq.wrapping_add(MSS as u32);
        let ack = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: end,
            flags: TcpFlags::ack(),
            window: 65535,
            payload: Vec::new(),
        };
        let (_, _) = segment(&mut client, &ack, T0);
        assert!(client.cwnd() > cwnd0, "slow start grows the window");
        // An RTO is a loss event: multiplicative decrease to one MSS.
        let _ = send(&mut client, b"more", T0);
        let _ = rto(&mut client, T0);
        assert_eq!(client.cwnd(), MSS as u32);
    }

    #[test]
    fn peer_window_gates_transmission() {
        let (mut client, _server) = handshake();
        // Peer advertises a 2-MSS window.
        let wnd_update = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: 1001,
            flags: TcpFlags::ack(),
            window: (MSS * 2) as u16,
            payload: Vec::new(),
        };
        let _ = segment(&mut client, &wnd_update, T0);
        assert_eq!(client.snd_wnd(), (MSS * 2) as u32);
        let pkts = send(&mut client, &vec![7u8; MSS * 4], T0);
        assert_eq!(pkts.len(), 2, "only two segments fit the peer window");
        assert!(client.has_unacked());
        // ACK of the first segment releases the next queued chunk.
        let ack = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: 1001 + MSS as u32,
            flags: TcpFlags::ack(),
            window: (MSS * 2) as u16,
            payload: Vec::new(),
        };
        let (out, _) = segment(&mut client, &ack, T0);
        assert_eq!(out.len(), 1, "window-clocked release");
        assert_eq!(seg_of(&out[0]).payload.len(), MSS);
    }

    #[test]
    fn zero_window_still_probes_one_chunk() {
        let (mut client, _server) = handshake();
        let zero = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 9001,
            ack: 1001,
            flags: TcpFlags::ack(),
            window: 0,
            payload: Vec::new(),
        };
        let _ = segment(&mut client, &zero, T0);
        let pkts = send(&mut client, &vec![7u8; MSS * 2], T0);
        assert_eq!(pkts.len(), 1, "one probe chunk despite a closed window");
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut client, mut server) = handshake();
        let pkts = send(&mut client, &vec![0x61u8; MSS * 2], T0);
        assert_eq!(pkts.len(), 2);
        // Second segment arrives first: held, and the server dup-ACKs.
        let (out, ev) = segment(&mut server, &seg_of(&pkts[1]), T0);
        assert!(ev.is_empty(), "no delivery yet");
        assert_eq!(out.len(), 1);
        assert_eq!(seg_of(&out[0]).ack, 1001, "duplicate ACK names the gap");
        // First segment fills the gap: both deliver in order.
        let (out, ev) = segment(&mut server, &seg_of(&pkts[0]), T0);
        let delivered: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(delivered, vec![0x61u8; MSS * 2]);
        let last = seg_of(out.last().expect("cumulative ack"));
        assert_eq!(last.ack, 1001 + (MSS * 2) as u32);
    }

    #[test]
    fn later_copy_wins_conflicting_retransmits() {
        // An evasion client sends two different payloads for the same
        // out-of-order range. The endpoint keeps the most recent copy.
        let (mut client, mut server) = handshake();
        let first = seg_of(&send(&mut client, b"0123", T0)[0]);
        let mut a = first.clone();
        a.seq = first.seq.wrapping_add(4);
        a.payload = b"AAAA".to_vec();
        let mut b = a.clone();
        b.payload = b"BBBB".to_vec();
        // Both conflicting copies arrive ahead of the gap fill.
        let (_, ev) = segment(&mut server, &a, T0);
        assert!(ev.is_empty());
        let (_, ev) = segment(&mut server, &b, T0);
        assert!(ev.is_empty());
        // Now the in-order bytes arrive and everything drains.
        let (_, ev) = segment(&mut server, &first, T0);
        let got: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, b"0123BBBB".to_vec());
    }

    #[test]
    fn late_in_order_copy_overwrites_held_bytes() {
        // A conflicting copy for [2,4) arrives out of order and is held;
        // then the original "0123" arrives in order covering the same range.
        // The late in-order copy wins → "0123".
        let (mut client, mut server) = handshake();
        let first = seg_of(&send(&mut client, b"0123", T0)[0]);
        let mut held = first.clone();
        held.seq = first.seq.wrapping_add(2);
        held.payload = b"XX".to_vec();
        let (_, ev) = segment(&mut server, &held, T0);
        assert!(ev.is_empty());
        let (_, ev) = segment(&mut server, &first, T0);
        let got: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, b"0123".to_vec());
    }

    #[test]
    fn data_beyond_receive_window_is_dropped() {
        let (mut client, mut server) = handshake();
        server.set_rcv_wnd(4096);
        let first = seg_of(&send(&mut client, b"lead", T0)[0]);
        // A segment wholly beyond rcv_nxt + 4096: the endpoint drops it,
        // while a monitor with a larger hold-back window would keep it.
        let mut far = first.clone();
        far.seq = first.seq.wrapping_add(6000);
        far.payload = b"forbidden".to_vec();
        let (out, ev) = segment(&mut server, &far, T0);
        assert!(ev.is_empty());
        assert_eq!(out.len(), 1, "re-ACK only");
        // Filling everything up to 6000 must NOT make the dropped bytes
        // appear.
        let (_, ev) = segment(&mut server, &first, T0);
        let got: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(d) => Some(d.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, b"lead".to_vec());
    }

    #[test]
    fn adaptive_rto_tracks_rtt_samples() {
        let (mut client, syn) = TcpConn::connect((C, 4000), (S, 80), 1000, T0);
        let syn_seg = seg_of(&syn);
        // SYN/ACK arrives 50 ms later: the first RTT sample.
        let (mut server, syn_ack) =
            TcpConn::accept((S, 80), (C, 4000), syn_seg.seq, 9000, at_ms(50));
        let (cl_out, _) = segment(&mut client, &seg_of(&syn_ack), at_ms(50));
        assert_eq!(client.srtt(), Some(SimDuration::from_millis(50)));
        // RTO = srtt + 4·rttvar = 50 + 100 = 150ms, floored at base 200ms.
        assert_eq!(client.rto(), SimDuration::from_millis(200));
        let _ = segment(&mut server, &seg_of(&cl_out[0]), at_ms(50));
        // A slow data exchange pushes the RTO above the floor.
        let pkts = send(&mut client, b"ping", at_ms(100));
        let (sv_out, _) = segment(&mut server, &seg_of(&pkts[0]), at_ms(1100));
        let (_, _) = segment(&mut client, &seg_of(&sv_out[0]), at_ms(1100));
        let srtt = client.srtt().expect("sampled");
        assert!(
            srtt > SimDuration::from_millis(100),
            "srtt moved up: {srtt}"
        );
        assert!(client.rto() > SimDuration::from_millis(200));
        assert!(client.rto() <= SimDuration::from_secs(60));
    }

    #[test]
    fn retransmission_recovers_lost_data() {
        let (mut client, mut server) = handshake();
        let pkts = send(&mut client, b"hello", T0);
        // Pretend the packet was lost; RTO fires.
        let (retx, _) = rto(&mut client, T0);
        assert_eq!(retx.len(), 1);
        assert_eq!(seg_of(&retx[0]).payload, seg_of(&pkts[0]).payload);
        let (sv_out, sv_ev) = segment(&mut server, &seg_of(&retx[0]), T0);
        assert_eq!(sv_ev, vec![TcpEvent::Data(b"hello".to_vec())]);
        // Duplicate of the original arrives late: server re-ACKs, no event.
        let (dup_out, dup_ev) = segment(&mut server, &seg_of(&pkts[0]), T0);
        assert!(dup_ev.is_empty());
        assert_eq!(dup_out.len(), 1);
        let _ = sv_out;
    }

    #[test]
    fn abort_emits_rst_once() {
        let (mut client, _server) = handshake();
        let rst = client.abort().expect("rst");
        assert!(seg_of(&rst).flags.has_rst());
        assert!(client.is_closed());
        assert!(client.abort().is_none(), "second abort is a no-op");
    }

    #[test]
    fn send_outside_established_is_noop() {
        let (mut client, _syn) = TcpConn::connect((C, 1), (S, 2), 0, T0);
        assert!(send(&mut client, b"too early", T0).is_empty());
        let mut closed = client;
        let _ = closed.abort();
        assert!(send(&mut closed, b"too late", T0).is_empty());
    }

    #[test]
    fn close_in_syn_sent_just_closes() {
        let (mut client, _syn) = TcpConn::connect((C, 1), (S, 2), 0, T0);
        assert!(close(&mut client, T0).is_empty());
        assert!(client.is_closed());
    }

    #[test]
    fn wrong_ack_in_syn_sent_gets_rst() {
        let (mut client, _syn) = TcpConn::connect((C, 4000), (S, 80), 100, T0);
        let bad = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 7,
            ack: 999, // should be 101
            flags: TcpFlags::syn_ack(),
            window: 0,
            payload: Vec::new(),
        };
        let (out, ev) = segment(&mut client, &bad, T0);
        assert!(ev.is_empty());
        assert_eq!(out.len(), 1);
        assert!(seg_of(&out[0]).flags.has_rst());
        assert_eq!(
            client.state(),
            TcpState::SynSent,
            "still waiting for the real SYN/ACK"
        );
    }

    #[test]
    fn stray_syn_on_established_connection_is_ignored() {
        // The endpoint never resyncs its TCB from a mid-stream SYN; a naive
        // monitor that does opens the SYN-desync evasion class.
        let (mut client, _server) = handshake();
        let stray = TcpSegment {
            src_port: 80,
            dst_port: 4000,
            seq: 424242,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 65535,
            payload: Vec::new(),
        };
        let (out, ev) = segment(&mut client, &stray, T0);
        assert!(ev.is_empty());
        assert!(out.is_empty());
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(client.rcv_nxt(), 9001, "rcv_nxt unchanged");
    }

    #[test]
    fn simultaneous_close() {
        let (mut client, mut server) = handshake();
        let cfin = close(&mut client, T0);
        let sfin = close(&mut server, T0);
        // Each side receives the other's FIN before the ACK of its own.
        let (cl_out, cl_ev) = segment(&mut client, &seg_of(&sfin[0]), T0);
        assert_eq!(cl_ev, vec![TcpEvent::PeerClosed]);
        assert_eq!(client.state(), TcpState::Closing);
        let (sv_out, sv_ev) = segment(&mut server, &seg_of(&cfin[0]), T0);
        assert_eq!(sv_ev, vec![TcpEvent::PeerClosed]);
        // Now the crossed ACKs arrive.
        let (_, cl_ev) = segment(&mut client, &seg_of(&sv_out[0]), T0);
        assert_eq!(cl_ev, vec![TcpEvent::Closed]);
        let (_, sv_ev) = segment(&mut server, &seg_of(&cl_out[0]), T0);
        assert_eq!(sv_ev, vec![TcpEvent::Closed]);
        assert!(client.is_closed() && server.is_closed());
    }

    #[test]
    fn seq_compare_wraps() {
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 10, 5));
        assert!(!seq_lt(5, u32::MAX - 10));
        assert!(seq_le(7, 7));
    }
}
