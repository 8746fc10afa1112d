#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-netsim
//!
//! A deterministic, discrete-event network simulator that stands in for the
//! Mininet testbed used in *"Can Censorship Measurements Be Safe(r)?"*
//! (Jones & Feamster, HotNets 2015), Figure 1.
//!
//! The simulator provides:
//!
//! * **Wire formats** ([`wire`]): IPv4, TCP, UDP and ICMP headers with full
//!   encode/decode and Internet checksums, in the style of smoltcp's typed
//!   packet views.
//! * **Packets** ([`packet`]): an owned, parsed representation used inside
//!   the simulator, convertible to/from wire bytes.
//! * **Events** ([`event`]): a deterministic event queue keyed by simulated
//!   nanoseconds with stable FIFO tie-breaking.
//! * **Topology** ([`topology`], [`link`], [`switch`]): hosts, point-to-point
//!   links with latency/bandwidth/loss, and a learning switch with *tap*
//!   ports used to attach passive monitors (the censor and the MVR in the
//!   paper's testbed both observe traffic from a tap).
//! * **Host stack** ([`stack`], [`host`]): a small but real TCP state machine
//!   (handshake, retransmission, FIN/RST teardown) plus UDP, enough to carry
//!   the DNS/SMTP/HTTP substrates and the paper's packet-level tricks
//!   (spoofed sources, TTL-limited replies, RST injection).
//!
//! Everything is seeded and single-threaded: the same seed reproduces the
//! same packet trace, which the test suite exploits heavily.
//!
//! The scheduler counts its own activity (events by kind, link
//! transmits/bytes/impairments, and queue depths once a handle is attached
//! with [`Simulator::set_telemetry`]) and writes it by name into an
//! `underradar-telemetry` registry via [`Simulator::export_telemetry`];
//! the crate is re-exported as [`telemetry`] for downstream convenience.

pub mod addr;
pub mod capture;
pub mod error;
pub mod event;
pub mod flow;
pub mod hash;
pub mod host;
pub mod link;
pub mod node;
pub mod packet;
pub mod pcap;
pub mod rng;
pub mod sim;
pub mod slab;
pub mod stack;
pub mod switch;
pub mod testprop;
pub mod time;
pub mod topology;
pub mod wire;

pub use underradar_telemetry as telemetry;

pub use addr::Cidr;
pub use capture::{Capture, CapturedPacket};
pub use error::{NetsimError, WireError};
pub use event::{EventQueue, TimerToken};
pub use flow::{FlowId, FlowKey, FlowTable, FlowTuple};
pub use hash::{FxHashMap, FxHashSet};
pub use host::{
    ConnId, Host, HostApi, HostTask, RawHandler, RawVerdict, Service, ServiceApi, UdpApi,
    UdpService, HOST_IFACE,
};
pub use link::{Link, LinkConfig, TxDelivery, TxOutcome};
pub use node::{IfaceId, Node, NodeCtx, NodeId};
pub use packet::{IcmpSegment, Packet, PacketBody, TcpSegment, UdpDatagram};
pub use rng::SimRng;
pub use sim::Simulator;
pub use slab::{Slab, SlabKey};
pub use stack::tcp::{TcpConn, TcpEvent, TcpState};
pub use switch::Switch;
pub use time::{SimDuration, SimTime};
pub use topology::TopologyBuilder;
