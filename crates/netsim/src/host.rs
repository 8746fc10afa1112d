//! Hosts: end systems with a TCP/UDP stack, application tasks and services.
//!
//! A [`Host`] owns:
//!
//! * **Tasks** ([`HostTask`]) — client-side state machines started at a
//!   scheduled time. Tasks can open TCP connections, bind UDP ports, send
//!   raw (including spoofed) packets, observe every incoming packet, and set
//!   timers. Measurement techniques in `underradar-core` are tasks.
//! * **TCP services** ([`Service`]) — per-connection server handlers spawned
//!   by a listener when a SYN arrives (HTTP, SMTP servers).
//! * **UDP services** ([`UdpService`]) — datagram handlers bound to a port
//!   (DNS servers).
//!
//! The host also reproduces the kernel behaviours the paper's techniques
//! lean on: a TCP segment for which no socket exists is answered with RST —
//! this is exactly why a spoofed client would kill a mimicked flow (§4.1)
//! and why SYN scans of closed ports see RSTs (§3.1).

use std::any::Any;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

use crate::event::TimerToken;
use crate::hash::FxHashMap;
use crate::node::{IfaceId, Node, NodeCtx};
use crate::packet::{Packet, PacketBody, TcpSegment};
use crate::stack::tcp::{TcpConn, TcpEvent};
use crate::stack::udp::{UdpBindings, UdpOwner};
use crate::time::{SimDuration, SimTime};
use crate::wire::icmp::IcmpKind;
use crate::wire::tcp::TcpFlags;

/// The interface every host uses (hosts are single-homed).
pub const HOST_IFACE: IfaceId = IfaceId(0);

/// Handle to a TCP connection on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u64);

/// What a raw-packet observer decides about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawVerdict {
    /// Let the packet continue into the stack.
    Continue,
    /// Swallow the packet (the stack never sees it).
    Consume,
}

/// Convenience alias for raw handler callbacks.
pub type RawHandler = Box<dyn FnMut(&Packet) -> RawVerdict>;

/// A client-side application running on a host.
///
/// All callbacks receive a [`HostApi`] for I/O. Implementations are state
/// machines; the typical pattern is to kick off work in [`HostTask::on_start`]
/// and react to events.
pub trait HostTask: Any {
    /// Called at the task's scheduled start time.
    fn on_start(&mut self, api: &mut HostApi<'_, '_>);

    /// A TCP event arrived on a connection this task opened.
    fn on_tcp(&mut self, _api: &mut HostApi<'_, '_>, _conn: ConnId, _event: TcpEvent) {}

    /// A UDP datagram arrived on a port this task bound.
    fn on_udp(
        &mut self,
        _api: &mut HostApi<'_, '_>,
        _local_port: u16,
        _src: Ipv4Addr,
        _src_port: u16,
        _payload: &[u8],
    ) {
    }

    /// Every packet delivered to the host passes here first (sniffing).
    /// Returning [`RawVerdict::Consume`] hides it from the stack.
    fn on_raw(&mut self, _api: &mut HostApi<'_, '_>, _packet: &Packet) -> RawVerdict {
        RawVerdict::Continue
    }

    /// A timer set with [`HostApi::set_timer`] fired.
    fn on_timer(&mut self, _api: &mut HostApi<'_, '_>, _token: u64) {}
}

/// A per-connection TCP server handler.
pub trait Service: Any {
    /// The handshake completed.
    fn on_connected(&mut self, _api: &mut ServiceApi<'_, '_>) {}
    /// Payload bytes arrived.
    fn on_data(&mut self, api: &mut ServiceApi<'_, '_>, data: &[u8]);
    /// The peer closed its sending side.
    fn on_peer_closed(&mut self, _api: &mut ServiceApi<'_, '_>) {}
    /// The connection died (RST or retransmission timeout).
    fn on_aborted(&mut self, _api: &mut ServiceApi<'_, '_>) {}
    /// The connection closed cleanly.
    fn on_closed(&mut self, _api: &mut ServiceApi<'_, '_>) {}
}

/// A UDP datagram server bound to a port.
pub trait UdpService: Any {
    /// A datagram arrived.
    fn on_datagram(
        &mut self,
        api: &mut UdpApi<'_, '_>,
        src: Ipv4Addr,
        src_port: u16,
        payload: &[u8],
    );

    /// Forget what earlier datagrams left behind (counters, caches), for
    /// the next run of a reused world ([`crate::Node::reset`]).
    fn reset(&mut self);
}

/// Counters a host maintains (assertable in experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    /// TCP segments delivered to the stack.
    pub tcp_in: u64,
    /// UDP datagrams delivered to the stack.
    pub udp_in: u64,
    /// RSTs sent in response to segments with no matching socket.
    pub rst_sent: u64,
    /// ICMP echo replies sent.
    pub echo_replies: u64,
    /// Packets swallowed by raw handlers.
    pub raw_consumed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnOwner {
    Task(usize),
    Service,
}

struct ConnEntry {
    conn: TcpConn,
    owner: ConnOwner,
    /// Epoch for RTO timers: a fired timer is honored only if its recorded
    /// epoch matches, which "cancels" timers obsoleted by progress.
    epoch: u64,
}

#[derive(Debug, Clone, Copy)]
enum TimerPurpose {
    TaskStart(usize),
    Task(usize, u64),
    Rto(ConnId, u64),
}

type ConnKey = (u16, Ipv4Addr, u16); // (local port, remote addr, remote port)

/// Host-internal stack state, separated from the task table so tasks can be
/// called while the stack is mutably borrowed.
///
/// The tables are keyed by values the simulation generates and none is
/// iterated, so they use the Fx hasher and no output depends on its order.
pub struct HostStack {
    ip: Ipv4Addr,
    conns: FxHashMap<ConnId, ConnEntry>,
    conn_index: FxHashMap<ConnKey, ConnId>,
    listeners: FxHashMap<u16, usize>,
    udp_binds: UdpBindings,
    next_conn: u64,
    next_ephemeral: u16,
    timer_map: FxHashMap<TimerToken, TimerPurpose>,
    respond_rst: bool,
    counters: HostCounters,
    /// Events produced during stack processing, dispatched afterwards.
    pending_dispatch: VecDeque<(ConnId, TcpEvent)>,
    /// Packets and events one [`TcpConn`] call produced; reused by every
    /// call on every connection and empty between calls.
    tcp_out: Vec<Packet>,
    tcp_events: Vec<TcpEvent>,
}

impl HostStack {
    /// This host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    fn alloc_conn_id(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        id
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        // Skip listener ports; collisions on in-use four-tuples are
        // tolerated (different remotes disambiguate).
        loop {
            let p = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral == u16::MAX {
                49152
            } else {
                self.next_ephemeral + 1
            };
            if !self.listeners.contains_key(&p) && !self.udp_binds.is_bound(p) {
                return p;
            }
        }
    }

    fn arm_rto(&mut self, ctx: &mut NodeCtx<'_>, cid: ConnId) {
        let Some(entry) = self.conns.get_mut(&cid) else {
            return;
        };
        if !entry.conn.has_unacked() {
            return;
        }
        entry.epoch += 1;
        // The connection's RTO reflects RTT samples and exponential backoff.
        let token = ctx.set_timer(entry.conn.rto());
        self.timer_map
            .insert(token, TimerPurpose::Rto(cid, entry.epoch));
    }

    /// Run `call` on connection `cid` with the reused output buffers, then
    /// send the packets it produced, re-arm the connection's RTO and queue
    /// its events for dispatch.
    fn drive<F>(&mut self, ctx: &mut NodeCtx<'_>, cid: ConnId, call: F)
    where
        F: FnOnce(&mut TcpConn, &mut Vec<Packet>, &mut Vec<TcpEvent>),
    {
        let Some(entry) = self.conns.get_mut(&cid) else {
            return;
        };
        debug_assert!(self.tcp_out.is_empty() && self.tcp_events.is_empty());
        call(&mut entry.conn, &mut self.tcp_out, &mut self.tcp_events);
        for p in self.tcp_out.drain(..) {
            ctx.send(HOST_IFACE, p);
        }
        self.arm_rto(ctx, cid);
        self.pending_dispatch
            .extend(self.tcp_events.drain(..).map(|e| (cid, e)));
    }

    fn conn_send(&mut self, ctx: &mut NodeCtx<'_>, cid: ConnId, data: &[u8]) {
        let now = ctx.now();
        self.drive(ctx, cid, |conn, out, _| conn.send(data, now, out));
    }

    fn conn_close(&mut self, ctx: &mut NodeCtx<'_>, cid: ConnId) {
        let now = ctx.now();
        self.drive(ctx, cid, |conn, out, _| conn.close(now, out));
    }

    fn conn_abort(&mut self, ctx: &mut NodeCtx<'_>, cid: ConnId) {
        let Some(entry) = self.conns.get_mut(&cid) else {
            return;
        };
        if let Some(rst) = entry.conn.abort() {
            ctx.send(HOST_IFACE, rst);
        }
        self.gc(cid);
    }

    fn conn_peer(&self, cid: ConnId) -> Option<(Ipv4Addr, u16)> {
        self.conns.get(&cid).map(|e| e.conn.remote)
    }

    /// Remove a closed connection from the tables.
    fn gc(&mut self, cid: ConnId) {
        let closed = self
            .conns
            .get(&cid)
            .map(|e| e.conn.is_closed())
            .unwrap_or(false);
        if closed {
            if let Some(entry) = self.conns.remove(&cid) {
                let key = (entry.conn.local.1, entry.conn.remote.0, entry.conn.remote.1);
                self.conn_index.remove(&key);
            }
        }
    }

    /// RFC 793-style RST in response to a segment with no matching socket.
    fn rst_for(&self, pkt: &Packet, seg: &TcpSegment) -> Packet {
        if seg.flags.has_ack() {
            Packet::tcp(
                self.ip,
                pkt.src,
                seg.dst_port,
                seg.src_port,
                seg.ack,
                0,
                TcpFlags::rst(),
                Vec::new(),
            )
        } else {
            let ack = seg
                .seq
                .wrapping_add(seg.payload.len() as u32)
                .wrapping_add(u32::from(seg.flags.has_syn()))
                .wrapping_add(u32::from(seg.flags.has_fin()));
            Packet::tcp(
                self.ip,
                pkt.src,
                seg.dst_port,
                seg.src_port,
                0,
                ack,
                TcpFlags::rst_ack(),
                Vec::new(),
            )
        }
    }
}

/// The I/O surface handed to [`HostTask`] callbacks.
pub struct HostApi<'a, 'b> {
    stack: &'a mut HostStack,
    ctx: &'a mut NodeCtx<'b>,
    task_idx: usize,
}

impl HostApi<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.stack.ip
    }

    /// The deterministic RNG stream.
    pub fn rng(&mut self) -> &mut crate::rng::SimRng {
        self.ctx.rng()
    }

    /// Open a TCP connection; events arrive via [`HostTask::on_tcp`].
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> ConnId {
        let local_port = self.stack.alloc_ephemeral();
        let iss = self.ctx.rng().next_u32();
        let (conn, syn) = TcpConn::connect(
            (self.stack.ip, local_port),
            (dst, dst_port),
            iss,
            self.ctx.now(),
        );
        let cid = self.stack.alloc_conn_id();
        self.stack
            .conn_index
            .insert((local_port, dst, dst_port), cid);
        self.stack.conns.insert(
            cid,
            ConnEntry {
                conn,
                owner: ConnOwner::Task(self.task_idx),
                epoch: 0,
            },
        );
        self.ctx.send(HOST_IFACE, syn);
        self.stack.arm_rto(self.ctx, cid);
        cid
    }

    /// Send bytes on a connection.
    pub fn tcp_send(&mut self, conn: ConnId, data: &[u8]) {
        self.stack.conn_send(self.ctx, conn, data);
    }

    /// Close a connection gracefully (FIN).
    pub fn tcp_close(&mut self, conn: ConnId) {
        self.stack.conn_close(self.ctx, conn);
    }

    /// Abort a connection (RST).
    pub fn tcp_abort(&mut self, conn: ConnId) {
        self.stack.conn_abort(self.ctx, conn);
    }

    /// Bind a UDP port for this task (0 picks an ephemeral port). Returns
    /// the bound port, or `None` if the requested port is taken.
    pub fn udp_bind(&mut self, port: u16) -> Option<u16> {
        let port = if port == 0 {
            self.stack.alloc_ephemeral()
        } else {
            port
        };
        if self
            .stack
            .udp_binds
            .bind(port, UdpOwner::Task(self.task_idx))
        {
            Some(port)
        } else {
            None
        }
    }

    /// Send a UDP datagram from a bound (or arbitrary) local port.
    pub fn udp_send(&mut self, src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>) {
        let pkt = Packet::udp(self.stack.ip, dst, src_port, dst_port, payload);
        self.ctx.send(HOST_IFACE, pkt);
    }

    /// Transmit an arbitrary packet (spoofed sources, crafted TTLs, raw
    /// SYNs — the measurement primitives).
    pub fn raw_send(&mut self, packet: Packet) {
        self.ctx.send(HOST_IFACE, packet);
    }

    /// Set a timer; `user_token` comes back via [`HostTask::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, user_token: u64) {
        let token = self.ctx.set_timer(delay);
        self.stack
            .timer_map
            .insert(token, TimerPurpose::Task(self.task_idx, user_token));
    }
}

/// The I/O surface handed to [`Service`] callbacks (scoped to one
/// connection).
pub struct ServiceApi<'a, 'b> {
    stack: &'a mut HostStack,
    ctx: &'a mut NodeCtx<'b>,
    conn: ConnId,
}

impl ServiceApi<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The remote endpoint of this connection.
    pub fn peer(&self) -> Option<(Ipv4Addr, u16)> {
        self.stack.conn_peer(self.conn)
    }

    /// Send bytes to the peer.
    pub fn send(&mut self, data: &[u8]) {
        self.stack.conn_send(self.ctx, self.conn, data);
    }

    /// Close this side (FIN).
    pub fn close(&mut self) {
        self.stack.conn_close(self.ctx, self.conn);
    }

    /// Abort (RST).
    pub fn abort(&mut self) {
        self.stack.conn_abort(self.ctx, self.conn);
    }
}

/// The I/O surface handed to [`UdpService`] callbacks.
pub struct UdpApi<'a, 'b> {
    stack: &'a mut HostStack,
    ctx: &'a mut NodeCtx<'b>,
    local_port: u16,
}

impl UdpApi<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.stack.ip
    }

    /// The port this service is bound to.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Send a datagram from the service's port.
    pub fn send(&mut self, dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>) {
        let pkt = Packet::udp(self.stack.ip, dst, self.local_port, dst_port, payload);
        self.ctx.send(HOST_IFACE, pkt);
    }
}

type ServiceFactory = Box<dyn Fn() -> Box<dyn Service>>;

/// An end host.
pub struct Host {
    name: String,
    stack: HostStack,
    tasks: Vec<Option<Box<dyn HostTask>>>,
    task_starts: Vec<(usize, SimTime)>,
    listener_factories: Vec<ServiceFactory>,
    conn_services: FxHashMap<ConnId, Box<dyn Service>>,
    udp_services: Vec<Option<Box<dyn UdpService>>>,
}

impl Host {
    /// Create a host named `name` with address `ip`.
    pub fn new(name: &str, ip: Ipv4Addr) -> Host {
        Host {
            name: name.to_string(),
            stack: HostStack {
                ip,
                conns: FxHashMap::default(),
                conn_index: FxHashMap::default(),
                listeners: FxHashMap::default(),
                udp_binds: UdpBindings::new(),
                next_conn: 0,
                next_ephemeral: 49152,
                timer_map: FxHashMap::default(),
                respond_rst: true,
                counters: HostCounters::default(),
                pending_dispatch: VecDeque::new(),
                tcp_out: Vec::new(),
                tcp_events: Vec::new(),
            },
            tasks: Vec::new(),
            task_starts: Vec::new(),
            listener_factories: Vec::new(),
            conn_services: FxHashMap::default(),
            udp_services: Vec::new(),
        }
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.stack.ip
    }

    /// Stack counters.
    pub fn counters(&self) -> HostCounters {
        self.stack.counters
    }

    /// TCP connections the stack still holds (handshaking, open or
    /// closing).
    pub fn open_connections(&self) -> usize {
        self.stack.conns.len()
    }

    /// Timers armed and not yet fired: task starts, task timers and RTOs.
    pub fn pending_timers(&self) -> usize {
        self.stack.timer_map.len()
    }

    /// Disable RST responses to unexpected TCP segments (a host that drops
    /// silently instead of the default kernel behaviour).
    pub fn set_respond_rst(&mut self, respond: bool) {
        self.stack.respond_rst = respond;
    }

    /// Schedule `task` to start at `at`. Returns the task index, usable
    /// with [`Host::task_ref`] to read results after the run.
    ///
    /// Start timers are armed when the simulation starts, so a task added
    /// here to an already-running simulation never starts;
    /// [`crate::Simulator::spawn_task`] starts a task either way.
    pub fn spawn_task_at(&mut self, at: SimTime, task: Box<dyn HostTask>) -> usize {
        let idx = self.add_task(task);
        self.task_starts.push((idx, at));
        idx
    }

    /// Register a task without scheduling its start.
    pub(crate) fn add_task(&mut self, task: Box<dyn HostTask>) -> usize {
        let idx = self.tasks.len();
        self.tasks.push(Some(task));
        idx
    }

    /// Bind a scheduled timer token to a task's start: when the token
    /// fires, `on_start` runs.
    pub(crate) fn bind_task_start(&mut self, idx: usize, token: TimerToken) {
        self.stack
            .timer_map
            .insert(token, TimerPurpose::TaskStart(idx));
    }

    /// Typed access to a task (e.g. to read collected measurements).
    pub fn task_ref<T: HostTask>(&self, idx: usize) -> Option<&T> {
        self.tasks.get(idx)?.as_ref()?;
        let any: &dyn Any = self.tasks[idx].as_deref()? as &dyn Any;
        any.downcast_ref::<T>()
    }

    /// Listen for TCP connections on `port`; `factory` builds a [`Service`]
    /// per accepted connection.
    pub fn add_tcp_listener<F>(&mut self, port: u16, factory: F)
    where
        F: Fn() -> Box<dyn Service> + 'static,
    {
        let idx = self.listener_factories.len();
        self.listener_factories.push(Box::new(factory));
        self.stack.listeners.insert(port, idx);
    }

    /// Bind a UDP service to `port`. Returns `false` if the port is taken.
    pub fn add_udp_service(&mut self, port: u16, service: Box<dyn UdpService>) -> bool {
        let idx = self.udp_services.len();
        if !self.stack.udp_binds.bind(port, UdpOwner::Service(idx)) {
            return false;
        }
        self.udp_services.push(Some(service));
        true
    }

    fn with_task<F>(&mut self, ctx: &mut NodeCtx<'_>, idx: usize, f: F)
    where
        F: FnOnce(&mut dyn HostTask, &mut HostApi<'_, '_>),
    {
        let Some(slot) = self.tasks.get_mut(idx) else {
            return;
        };
        let Some(mut task) = slot.take() else { return };
        {
            let mut api = HostApi {
                stack: &mut self.stack,
                ctx,
                task_idx: idx,
            };
            f(task.as_mut(), &mut api);
        }
        self.tasks[idx] = Some(task);
        self.drain_dispatch(ctx);
    }

    fn with_service<F>(&mut self, ctx: &mut NodeCtx<'_>, cid: ConnId, f: F)
    where
        F: FnOnce(&mut dyn Service, &mut ServiceApi<'_, '_>),
    {
        let Some(mut service) = self.conn_services.remove(&cid) else {
            return;
        };
        {
            let mut api = ServiceApi {
                stack: &mut self.stack,
                ctx,
                conn: cid,
            };
            f(service.as_mut(), &mut api);
        }
        // Drop the handler once its connection is gone.
        if self.stack.conns.contains_key(&cid) {
            self.conn_services.insert(cid, service);
        }
        self.drain_dispatch(ctx);
    }

    /// Deliver queued (conn, event) pairs to their owners. Dispatching can
    /// itself enqueue more events (e.g. a task closing a connection inside
    /// a callback), so loop until quiescent.
    fn drain_dispatch(&mut self, ctx: &mut NodeCtx<'_>) {
        while let Some((cid, event)) = self.stack.pending_dispatch.pop_front() {
            let owner = match self.stack.conns.get(&cid) {
                Some(e) => e.owner,
                // Connection already gone (aborted); route terminal events
                // to services that may still exist.
                None if self.conn_services.contains_key(&cid) => ConnOwner::Service,
                None => continue,
            };
            match owner {
                ConnOwner::Task(idx) => {
                    self.with_task(ctx, idx, |task, api| task.on_tcp(api, cid, event));
                }
                ConnOwner::Service => {
                    self.with_service(ctx, cid, |svc, api| match event {
                        TcpEvent::Connected => svc.on_connected(api),
                        TcpEvent::Data(d) => svc.on_data(api, &d),
                        TcpEvent::PeerClosed => svc.on_peer_closed(api),
                        TcpEvent::Reset | TcpEvent::TimedOut | TcpEvent::Refused => {
                            svc.on_aborted(api)
                        }
                        TcpEvent::Closed => svc.on_closed(api),
                    });
                }
            }
            self.stack.gc(cid);
            if !self.stack.conns.contains_key(&cid) {
                self.conn_services.remove(&cid);
            }
        }
    }

    fn handle_tcp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet, seg: &TcpSegment) {
        self.stack.counters.tcp_in += 1;
        let key: ConnKey = (seg.dst_port, pkt.src, seg.src_port);
        if let Some(&cid) = self.stack.conn_index.get(&key) {
            let now = ctx.now();
            self.stack.drive(ctx, cid, |conn, out, events| {
                conn.on_segment(seg, now, out, events)
            });
            self.drain_dispatch(ctx);
            self.stack.gc(cid);
            return;
        }

        // No socket. A SYN to a listening port creates a connection.
        if seg.flags.has_syn() && !seg.flags.has_ack() {
            if let Some(&factory_idx) = self.stack.listeners.get(&seg.dst_port) {
                let iss = ctx.rng().next_u32();
                let (conn, syn_ack) = TcpConn::accept(
                    (self.stack.ip, seg.dst_port),
                    (pkt.src, seg.src_port),
                    seg.seq,
                    iss,
                    ctx.now(),
                );
                let cid = self.stack.alloc_conn_id();
                self.stack.conn_index.insert(key, cid);
                self.stack.conns.insert(
                    cid,
                    ConnEntry {
                        conn,
                        owner: ConnOwner::Service,
                        epoch: 0,
                    },
                );
                let service = (self.listener_factories[factory_idx])();
                self.conn_services.insert(cid, service);
                ctx.send(HOST_IFACE, syn_ack);
                self.stack.arm_rto(ctx, cid);
                return;
            }
        }

        // Closed port or unexpected segment: kernel-style RST.
        if self.stack.respond_rst && !seg.flags.has_rst() {
            let rst = self.stack.rst_for(pkt, seg);
            ctx.send(HOST_IFACE, rst);
            self.stack.counters.rst_sent += 1;
        }
    }

    fn handle_udp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet) {
        let Some(dgram) = pkt.as_udp() else { return };
        self.stack.counters.udp_in += 1;
        match self.stack.udp_binds.owner(dgram.dst_port) {
            Some(UdpOwner::Task(idx)) => {
                let (src, src_port, local_port) = (pkt.src, dgram.src_port, dgram.dst_port);
                self.with_task(ctx, idx, |task, api| {
                    task.on_udp(api, local_port, src, src_port, &dgram.payload)
                });
            }
            Some(UdpOwner::Service(idx)) => {
                let Some(mut svc) = self.udp_services.get_mut(idx).and_then(Option::take) else {
                    return;
                };
                {
                    let mut api = UdpApi {
                        stack: &mut self.stack,
                        ctx,
                        local_port: dgram.dst_port,
                    };
                    svc.on_datagram(&mut api, pkt.src, dgram.src_port, &dgram.payload);
                }
                self.udp_services[idx] = Some(svc);
            }
            None => {
                // Unbound port: silently dropped (ICMP port unreachable is
                // not modeled; no experiment depends on it).
            }
        }
    }

    fn handle_icmp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet) {
        let Some(icmp) = pkt.as_icmp() else { return };
        if let IcmpKind::EchoRequest { ident, seq } = icmp.kind {
            let reply = Packet::icmp(
                self.stack.ip,
                pkt.src,
                IcmpKind::EchoReply { ident, seq },
                icmp.payload.clone(),
            );
            ctx.send(HOST_IFACE, reply);
            self.stack.counters.echo_replies += 1;
        }
    }
}

impl Node for Host {
    fn name(&self) -> &str {
        &self.name
    }

    /// Drop every task, connection, per-connection service, pending timer
    /// and task-bound UDP port, and restart connection ids, ephemeral
    /// ports and counters. Listeners, UDP services (themselves reset) and
    /// the RST behaviour stay. The stack's tables are never iterated, so
    /// the capacity they keep cannot show in a later run.
    fn reset(&mut self) {
        let stack = &mut self.stack;
        stack.conns.clear();
        stack.conn_index.clear();
        stack.udp_binds.unbind_tasks();
        stack.next_conn = 0;
        stack.next_ephemeral = 49152;
        stack.timer_map.clear();
        stack.counters = HostCounters::default();
        stack.pending_dispatch.clear();
        stack.tcp_out.clear();
        stack.tcp_events.clear();
        self.tasks.clear();
        self.task_starts.clear();
        self.conn_services.clear();
        for service in self.udp_services.iter_mut().flatten() {
            service.reset();
        }
    }

    fn start(&mut self, ctx: &mut NodeCtx<'_>) {
        for (idx, at) in self.task_starts.clone() {
            let delay = at.saturating_since(ctx.now());
            let token = ctx.set_timer(delay);
            self.stack
                .timer_map
                .insert(token, TimerPurpose::TaskStart(idx));
        }
    }

    fn receive(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, packet: Packet) {
        // Raw observers first (in task order).
        for idx in 0..self.tasks.len() {
            let Some(mut task) = self.tasks[idx].take() else {
                continue;
            };
            let verdict = {
                let mut api = HostApi {
                    stack: &mut self.stack,
                    ctx,
                    task_idx: idx,
                };
                task.on_raw(&mut api, &packet)
            };
            self.tasks[idx] = Some(task);
            self.drain_dispatch(ctx);
            if verdict == RawVerdict::Consume {
                self.stack.counters.raw_consumed += 1;
                return;
            }
        }

        // Only traffic addressed to us enters the stack (no promiscuous
        // mode; raw observers above see everything delivered to the NIC).
        if packet.dst != self.stack.ip {
            return;
        }

        match &packet.body {
            PacketBody::Tcp(seg) => self.handle_tcp(ctx, &packet, seg),
            PacketBody::Udp(_) => self.handle_udp(ctx, &packet),
            PacketBody::Icmp(_) => self.handle_icmp(ctx, &packet),
            PacketBody::Raw { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        let Some(purpose) = self.stack.timer_map.remove(&token) else {
            return;
        };
        match purpose {
            TimerPurpose::TaskStart(idx) => {
                self.with_task(ctx, idx, |task, api| task.on_start(api));
            }
            TimerPurpose::Task(idx, user) => {
                self.with_task(ctx, idx, |task, api| task.on_timer(api, user));
            }
            TimerPurpose::Rto(cid, epoch) => {
                let Some(entry) = self.stack.conns.get(&cid) else {
                    return;
                };
                if entry.epoch != epoch || !entry.conn.has_unacked() {
                    return;
                }
                let now = ctx.now();
                self.stack
                    .drive(ctx, cid, |conn, out, events| conn.on_rto(now, out, events));
                self.drain_dispatch(ctx);
                self.stack.gc(cid);
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
    use crate::sim::Simulator;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);

    /// Echo service: sends back whatever it receives, then closes when the
    /// peer closes.
    struct EchoService {
        received: Vec<u8>,
    }

    impl Service for EchoService {
        fn on_data(&mut self, api: &mut ServiceApi<'_, '_>, data: &[u8]) {
            self.received.extend_from_slice(data);
            api.send(data);
        }
        fn on_peer_closed(&mut self, api: &mut ServiceApi<'_, '_>) {
            api.close();
        }
    }

    /// Client task: connect, send a message, collect the echo, close.
    struct EchoClient {
        server: Ipv4Addr,
        conn: Option<ConnId>,
        echoed: Vec<u8>,
        connected: bool,
        closed: bool,
        refused: bool,
        reset: bool,
        timed_out: bool,
    }

    impl EchoClient {
        fn new(server: Ipv4Addr) -> Self {
            EchoClient {
                server,
                conn: None,
                echoed: Vec::new(),
                connected: false,
                closed: false,
                refused: false,
                reset: false,
                timed_out: false,
            }
        }
    }

    impl HostTask for EchoClient {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            self.conn = Some(api.tcp_connect(self.server, 7));
        }
        fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, event: TcpEvent) {
            match event {
                TcpEvent::Connected => {
                    self.connected = true;
                    api.tcp_send(conn, b"hello echo");
                }
                TcpEvent::Data(d) => {
                    self.echoed.extend_from_slice(&d);
                    if self.echoed == b"hello echo" {
                        api.tcp_close(conn);
                    }
                }
                TcpEvent::Closed => self.closed = true,
                TcpEvent::Refused => self.refused = true,
                TcpEvent::Reset => self.reset = true,
                TcpEvent::TimedOut => self.timed_out = true,
                TcpEvent::PeerClosed => {}
            }
        }
    }

    fn two_hosts(loss: f64) -> (Simulator, crate::node::NodeId, crate::node::NodeId) {
        let mut sim = Simulator::new(11);
        let client = Host::new("client", CLIENT_IP);
        let mut server = Host::new("server", SERVER_IP);
        server.add_tcp_listener(7, || {
            Box::new(EchoService {
                received: Vec::new(),
            })
        });
        let c = sim.add_node(Box::new(client));
        let s = sim.add_node(Box::new(server));
        sim.wire(
            c,
            HOST_IFACE,
            s,
            HOST_IFACE,
            LinkConfig::default().with_loss(loss),
        )
        .expect("wire");
        (sim, c, s)
    }

    /// A reset host runs the next trial as a freshly built one: the same
    /// connection ids, ephemeral ports, sequence numbers and counters,
    /// with the listener still in place and no trace of the first run.
    #[test]
    fn reset_host_runs_like_a_fresh_one() {
        let run = |sim: &mut Simulator, c| {
            sim.node_mut::<Host>(c)
                .expect("client host")
                .spawn_task_at(SimTime::ZERO, Box::new(EchoClient::new(SERVER_IP)));
            sim.run_for(SimDuration::from_secs(5)).expect("run");
            let host = sim.node_ref::<Host>(c).expect("client host");
            let task = host.task_ref::<EchoClient>(0).expect("task");
            assert!(task.closed && task.echoed == b"hello echo");
            format!("{:?} {:?}", task.conn, host.counters())
        };
        let (mut fresh, c, _) = two_hosts(0.0);
        let expected = run(&mut fresh, c);
        let (mut reused, c, s) = two_hosts(0.0);
        // A first run that leaves a connection open and a task-bound port.
        reused
            .node_mut::<Host>(c)
            .expect("client host")
            .spawn_task_at(SimTime::ZERO, Box::new(EchoClient::new(SERVER_IP)));
        reused
            .run_for(SimDuration::from_millis(2))
            .expect("partial run");
        reused.reset(11);
        let host = reused.node_ref::<Host>(c).expect("client host");
        assert!(host.task_ref::<EchoClient>(0).is_none(), "tasks are gone");
        assert_eq!(host.counters().tcp_in, 0);
        assert_eq!((host.open_connections(), host.pending_timers()), (0, 0));
        let server = reused.node_ref::<Host>(s).expect("server host");
        assert!(server.stack.listeners.contains_key(&7), "listeners stay");
        assert!(server.conn_services.is_empty());
        assert_eq!(run(&mut reused, c), expected);
    }

    #[test]
    fn tcp_echo_end_to_end() {
        let (mut sim, c, _s) = two_hosts(0.0);
        sim.node_mut::<Host>(c)
            .expect("client host")
            .spawn_task_at(SimTime::ZERO, Box::new(EchoClient::new(SERVER_IP)));
        sim.run_for(SimDuration::from_secs(5)).expect("run");
        let host = sim.node_ref::<Host>(c).expect("client host");
        let task = host.task_ref::<EchoClient>(0).expect("task");
        assert!(task.connected);
        assert_eq!(task.echoed, b"hello echo");
        assert!(task.closed, "clean bidirectional close");
    }

    #[test]
    fn tcp_echo_survives_packet_loss() {
        // 20% loss: retransmission must still deliver everything.
        let (mut sim, c, _s) = two_hosts(0.20);
        sim.node_mut::<Host>(c)
            .expect("client host")
            .spawn_task_at(SimTime::ZERO, Box::new(EchoClient::new(SERVER_IP)));
        sim.run_for(SimDuration::from_secs(30)).expect("run");
        let task = sim
            .node_ref::<Host>(c)
            .expect("client host")
            .task_ref::<EchoClient>(0)
            .expect("task");
        assert!(task.connected, "handshake completed despite loss");
        assert_eq!(task.echoed, b"hello echo");
    }

    #[test]
    fn syn_to_closed_port_is_refused() {
        let (mut sim, c, s) = two_hosts(0.0);
        struct ClosedPortClient {
            refused: bool,
        }
        impl HostTask for ClosedPortClient {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(SERVER_IP, 81); // nothing listens on 81
            }
            fn on_tcp(&mut self, _api: &mut HostApi<'_, '_>, _c: ConnId, ev: TcpEvent) {
                if ev == TcpEvent::Refused {
                    self.refused = true;
                }
            }
        }
        sim.node_mut::<Host>(c)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(ClosedPortClient { refused: false }));
        sim.run_for(SimDuration::from_secs(2)).expect("run");
        assert!(
            sim.node_ref::<Host>(c)
                .expect("client")
                .task_ref::<ClosedPortClient>(0)
                .expect("task")
                .refused
        );
        assert_eq!(
            sim.node_ref::<Host>(s).expect("server").counters().rst_sent,
            1
        );
    }

    #[test]
    fn syn_to_unreachable_host_times_out() {
        let mut sim = Simulator::new(1);
        let client = Host::new("client", CLIENT_IP);
        let c = sim.add_node(Box::new(client));
        // Wire to a black hole: a host that never answers (respond_rst off,
        // and not the destination IP anyway).
        let mut hole = Host::new("hole", Ipv4Addr::new(10, 9, 9, 9));
        hole.set_respond_rst(false);
        let h = sim.add_node(Box::new(hole));
        sim.wire(c, HOST_IFACE, h, HOST_IFACE, LinkConfig::default())
            .expect("wire");
        sim.node_mut::<Host>(c)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(EchoClient::new(SERVER_IP)));
        // With exponential backoff the last retry fires after
        // 200ms·(2+4+8+16+32+64) ≈ 25s; give the run room for it.
        sim.run_for(SimDuration::from_secs(30)).expect("run");
        let task = sim
            .node_ref::<Host>(c)
            .expect("client")
            .task_ref::<EchoClient>(0)
            .expect("task");
        assert!(task.timed_out, "SYN retransmissions exhausted");
        assert!(!task.connected);
    }

    #[test]
    fn unexpected_syn_ack_draws_rst() {
        // The Fig 3b replay problem: a spoofed "client" that receives a
        // SYN/ACK it never asked for answers with RST.
        let (mut sim, c, s) = two_hosts(0.0);
        let syn_ack = Packet::tcp(
            SERVER_IP,
            CLIENT_IP,
            7,
            5555,
            100,
            1,
            TcpFlags::syn_ack(),
            vec![],
        );
        sim.inject_at(c, HOST_IFACE, syn_ack, SimTime::ZERO)
            .expect("inject");
        sim.run_for(SimDuration::from_secs(1)).expect("run");
        assert_eq!(
            sim.node_ref::<Host>(c).expect("client").counters().rst_sent,
            1
        );
        let _ = s;
    }

    #[test]
    fn raw_handler_can_consume_before_stack() {
        let (mut sim, c, _s) = two_hosts(0.0);
        struct Sniffer {
            seen: usize,
        }
        impl HostTask for Sniffer {
            fn on_start(&mut self, _api: &mut HostApi<'_, '_>) {}
            fn on_raw(&mut self, _api: &mut HostApi<'_, '_>, p: &Packet) -> RawVerdict {
                if p.as_tcp()
                    .map(|t| t.flags.has_syn() && t.flags.has_ack())
                    .unwrap_or(false)
                {
                    self.seen += 1;
                    return RawVerdict::Consume;
                }
                RawVerdict::Continue
            }
        }
        sim.node_mut::<Host>(c)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(Sniffer { seen: 0 }));
        let syn_ack = Packet::tcp(
            SERVER_IP,
            CLIENT_IP,
            7,
            5555,
            0,
            1,
            TcpFlags::syn_ack(),
            vec![],
        );
        sim.inject_at(c, HOST_IFACE, syn_ack, SimTime::ZERO)
            .expect("inject");
        sim.run_for(SimDuration::from_secs(1)).expect("run");
        let host = sim.node_ref::<Host>(c).expect("client");
        assert_eq!(host.task_ref::<Sniffer>(0).expect("task").seen, 1);
        assert_eq!(host.counters().rst_sent, 0, "stack never saw the SYN/ACK");
        assert_eq!(host.counters().raw_consumed, 1);
    }

    #[test]
    fn udp_task_roundtrip() {
        let mut sim = Simulator::new(2);
        struct UdpEchoService;
        impl UdpService for UdpEchoService {
            fn on_datagram(
                &mut self,
                api: &mut UdpApi<'_, '_>,
                src: Ipv4Addr,
                src_port: u16,
                payload: &[u8],
            ) {
                let mut reply = payload.to_vec();
                reply.reverse();
                api.send(src, src_port, reply);
            }
            fn reset(&mut self) {}
        }
        struct UdpClient {
            reply: Vec<u8>,
        }
        impl HostTask for UdpClient {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                let port = api.udp_bind(0).expect("bind");
                api.udp_send(port, SERVER_IP, 9999, b"abc".to_vec());
            }
            fn on_udp(
                &mut self,
                _api: &mut HostApi<'_, '_>,
                _local: u16,
                _src: Ipv4Addr,
                _sport: u16,
                payload: &[u8],
            ) {
                self.reply = payload.to_vec();
            }
        }
        let client = Host::new("client", CLIENT_IP);
        let mut server = Host::new("server", SERVER_IP);
        assert!(server.add_udp_service(9999, Box::new(UdpEchoService)));
        let c = sim.add_node(Box::new(client));
        let s = sim.add_node(Box::new(server));
        sim.wire(c, HOST_IFACE, s, HOST_IFACE, LinkConfig::default())
            .expect("wire");
        sim.node_mut::<Host>(c)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(UdpClient { reply: Vec::new() }));
        sim.run_for(SimDuration::from_secs(1)).expect("run");
        assert_eq!(
            sim.node_ref::<Host>(c)
                .expect("client")
                .task_ref::<UdpClient>(0)
                .expect("t")
                .reply,
            b"cba"
        );
    }

    #[test]
    fn ping_gets_echo_reply() {
        let (mut sim, c, s) = two_hosts(0.0);
        let ping = Packet::icmp(
            CLIENT_IP,
            SERVER_IP,
            IcmpKind::EchoRequest { ident: 1, seq: 1 },
            b"probe".to_vec(),
        );
        sim.send_from(c, HOST_IFACE, ping, SimTime::ZERO)
            .expect("send");
        sim.enable_capture();
        sim.run_for(SimDuration::from_secs(1)).expect("run");
        assert_eq!(
            sim.node_ref::<Host>(s)
                .expect("server")
                .counters()
                .echo_replies,
            1
        );
        let cap = sim.capture().expect("cap");
        let reply = cap
            .records()
            .iter()
            .find(|r| {
                r.packet
                    .as_icmp()
                    .map(|i| matches!(i.kind, IcmpKind::EchoReply { .. }))
                    .unwrap_or(false)
            })
            .expect("echo reply on the wire");
        assert_eq!(reply.packet.as_icmp().expect("icmp").payload, b"probe");
    }

    #[test]
    fn task_timers_roundtrip() {
        let (mut sim, c, _s) = two_hosts(0.0);
        struct TimerTask {
            fired: Vec<u64>,
        }
        impl HostTask for TimerTask {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.set_timer(SimDuration::from_millis(5), 100);
                api.set_timer(SimDuration::from_millis(1), 200);
            }
            fn on_timer(&mut self, _api: &mut HostApi<'_, '_>, token: u64) {
                self.fired.push(token);
            }
        }
        sim.node_mut::<Host>(c)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(TimerTask { fired: Vec::new() }));
        sim.run_for(SimDuration::from_secs(1)).expect("run");
        assert_eq!(
            sim.node_ref::<Host>(c)
                .expect("client")
                .task_ref::<TimerTask>(0)
                .expect("t")
                .fired,
            vec![200, 100],
            "timers fire in delay order with user tokens"
        );
    }

    #[test]
    fn late_spawn_after_simulation_started() {
        // spawn_task_at only arms timers at Node::start; the simulator's
        // spawn_task starts a task mid-run too.
        let (mut sim, c, _s) = two_hosts(0.0);
        sim.run_for(SimDuration::from_secs(1))
            .expect("warm up: sim started");
        let at = SimTime::ZERO + SimDuration::from_secs(2);
        let echo = || Box::new(EchoClient::new(SERVER_IP));
        let idx = sim.spawn_task(c, at, echo()).expect("client is a host");
        let ghost = crate::NodeId(99);
        assert_eq!(
            sim.spawn_task(ghost, at, echo()),
            Err(crate::NetsimError::NotAHost(99))
        );
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let task = sim
            .node_ref::<Host>(c)
            .expect("client host")
            .task_ref::<EchoClient>(idx)
            .expect("task");
        assert!(task.connected, "late-spawned task ran");
        assert_eq!(task.echoed, b"hello echo");
    }

    #[test]
    fn spoofed_raw_send_carries_foreign_source() {
        let (mut sim, c, _s) = two_hosts(0.0);
        struct Spoofer;
        impl HostTask for Spoofer {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                let spoofed = Packet::udp(
                    Ipv4Addr::new(10, 0, 1, 77), // not our address
                    SERVER_IP,
                    5000,
                    53,
                    b"spoofed query".to_vec(),
                );
                api.raw_send(spoofed);
            }
        }
        sim.node_mut::<Host>(c)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(Spoofer));
        sim.enable_capture();
        sim.run_for(SimDuration::from_secs(1)).expect("run");
        let cap = sim.capture().expect("cap");
        assert_eq!(cap.from_addr(Ipv4Addr::new(10, 0, 1, 77)).count(), 1);
    }
}
