//! The host protocol stack: a small but real TCP implementation plus UDP
//! port demultiplexing. The stack is transport logic only — packet I/O and
//! timers are driven by [`crate::host::Host`].

pub mod tcp;
pub mod udp;

pub use tcp::{TcpConn, TcpEvent, TcpState};
pub use udp::UdpBindings;
