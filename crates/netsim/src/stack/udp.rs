//! UDP port bookkeeping.
//!
//! UDP needs no state machine; the stack only tracks which local ports are
//! bound and who owns them, so incoming datagrams can be demultiplexed to
//! the right task or service.

use crate::hash::FxHashMap;

/// Who owns a bound UDP port on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpOwner {
    /// A host task (index into the host's task table).
    Task(usize),
    /// A UDP service (index into the host's UDP service table).
    Service(usize),
}

/// The set of bound UDP ports on one host.
#[derive(Debug, Default)]
pub struct UdpBindings {
    ports: FxHashMap<u16, UdpOwner>,
}

impl UdpBindings {
    /// Empty binding table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `port` to `owner`. Returns `false` if the port was taken.
    pub fn bind(&mut self, port: u16, owner: UdpOwner) -> bool {
        use std::collections::hash_map::Entry;
        match self.ports.entry(port) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(owner);
                true
            }
        }
    }

    /// Release every port a task bound, keeping the services' bindings.
    pub fn unbind_tasks(&mut self) {
        self.ports
            .retain(|_, owner| matches!(owner, UdpOwner::Service(_)));
    }

    /// Who owns `port`, if bound.
    pub fn owner(&self, port: u16) -> Option<UdpOwner> {
        self.ports.get(&port).copied()
    }

    /// Whether `port` is bound.
    pub fn is_bound(&self, port: u16) -> bool {
        self.ports.contains_key(&port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_demux() {
        let mut b = UdpBindings::new();
        assert!(b.bind(53, UdpOwner::Service(0)));
        assert!(b.bind(5353, UdpOwner::Task(2)));
        assert_eq!(b.owner(53), Some(UdpOwner::Service(0)));
        assert_eq!(b.owner(5353), Some(UdpOwner::Task(2)));
        assert_eq!(b.owner(9999), None);
    }

    #[test]
    fn unbinding_tasks_keeps_services() {
        let mut b = UdpBindings::new();
        assert!(b.bind(53, UdpOwner::Service(0)));
        assert!(b.bind(49152, UdpOwner::Task(0)));
        b.unbind_tasks();
        assert_eq!(b.owner(53), Some(UdpOwner::Service(0)));
        assert!(!b.is_bound(49152));
    }

    #[test]
    fn double_bind_rejected() {
        let mut b = UdpBindings::new();
        assert!(b.bind(53, UdpOwner::Service(0)));
        assert!(!b.bind(53, UdpOwner::Task(1)));
        assert_eq!(b.owner(53), Some(UdpOwner::Service(0)));
    }
}
