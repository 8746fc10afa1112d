//! Error types for the simulator.
//!
//! Library code never panics on malformed input: wire parsing returns
//! [`WireError`] and simulator operations return [`NetsimError`].

use std::fmt;

/// Errors raised while parsing or emitting wire-format packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header requires.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A version or header-length field has an unsupported value.
    Malformed(&'static str),
    /// A checksum did not verify.
    BadChecksum {
        /// Protocol layer that failed ("ipv4", "tcp", "udp", "icmp").
        layer: &'static str,
    },
    /// The total-length field disagrees with the buffer.
    LengthMismatch {
        /// Length claimed by the header.
        claimed: usize,
        /// Length of the buffer supplied.
        actual: usize,
    },
    /// An unknown IP protocol number was encountered where a known one was
    /// required.
    UnknownProtocol(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated packet: needed {needed} bytes, got {got}")
            }
            WireError::Malformed(what) => write!(f, "malformed packet: {what}"),
            WireError::BadChecksum { layer } => write!(f, "bad {layer} checksum"),
            WireError::LengthMismatch { claimed, actual } => {
                write!(
                    f,
                    "length mismatch: header claims {claimed}, buffer has {actual}"
                )
            }
            WireError::UnknownProtocol(p) => write!(f, "unknown IP protocol {p}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Errors raised by simulator configuration and runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetsimError {
    /// A node id did not refer to a registered node.
    UnknownNode(usize),
    /// A task was spawned on a node that is not a host.
    NotAHost(usize),
    /// An interface id was out of range for the node.
    UnknownIface {
        /// The node whose interface table was consulted.
        node: usize,
        /// The offending interface index.
        iface: usize,
    },
    /// The interface is not connected to a link.
    IfaceNotWired {
        /// The node whose interface is dangling.
        node: usize,
        /// The dangling interface index.
        iface: usize,
    },
    /// An attempt to wire an interface that is already connected.
    IfaceAlreadyWired {
        /// The node whose interface is already in use.
        node: usize,
        /// The occupied interface index.
        iface: usize,
    },
    /// A socket operation failed (port in use, no such socket, ...).
    Socket(&'static str),
    /// A wire-format error surfaced through the simulator API.
    Wire(WireError),
    /// The simulation exceeded its configured event budget (runaway guard).
    EventBudgetExhausted {
        /// The configured budget that was hit.
        budget: u64,
    },
}

impl fmt::Display for NetsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetsimError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            NetsimError::NotAHost(id) => write!(f, "node {id} is not a host"),
            NetsimError::UnknownIface { node, iface } => {
                write!(f, "unknown iface {iface} on node {node}")
            }
            NetsimError::IfaceNotWired { node, iface } => {
                write!(f, "iface {iface} on node {node} is not wired to a link")
            }
            NetsimError::IfaceAlreadyWired { node, iface } => {
                write!(f, "iface {iface} on node {node} is already wired")
            }
            NetsimError::Socket(what) => write!(f, "socket error: {what}"),
            NetsimError::Wire(e) => write!(f, "wire error: {e}"),
            NetsimError::EventBudgetExhausted { budget } => {
                write!(f, "simulation exceeded event budget of {budget}")
            }
        }
    }
}

impl std::error::Error for NetsimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetsimError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetsimError {
    fn from(e: WireError) -> Self {
        NetsimError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = WireError::Truncated { needed: 20, got: 4 };
        assert!(e.to_string().contains("20"));
        assert!(e.to_string().contains("4"));
        let e = NetsimError::from(WireError::BadChecksum { layer: "tcp" });
        assert!(e.to_string().contains("tcp"));
    }

    #[test]
    fn source_chains_wire_errors() {
        use std::error::Error;
        let e = NetsimError::Wire(WireError::Malformed("bad version"));
        assert!(e.source().is_some());
        let e = NetsimError::Socket("port in use");
        assert!(e.source().is_none());
    }
}
