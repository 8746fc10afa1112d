//! Ingress source-address validation (BCP 38 and friends).
//!
//! A filter sits where an access network meets the wider network and
//! checks that packets leaving the access side carry source addresses the
//! network could legitimately originate. Granularity decides how much
//! spoofing survives: exact-match filtering kills it, /24-granular
//! filtering still lets a host borrow any neighbor in its /24 — the case
//! Beverly et al. found for 77 % of clients.

use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;

/// How precisely the ingress filter validates source addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterGranularity {
    /// No validation: any source passes.
    None,
    /// Source must fall in the same /24 as the true sender.
    Slash24,
    /// Source must fall in the same /16 as the true sender.
    Slash16,
    /// Source must equal the true sender's address (full BCP 38).
    Exact,
}

impl FilterGranularity {
    /// Whether a host at `actual` may emit a packet with source `claimed`.
    pub fn permits(self, actual: Ipv4Addr, claimed: Ipv4Addr) -> bool {
        match self {
            FilterGranularity::None => true,
            FilterGranularity::Slash24 => Cidr::slash24(actual).contains(claimed),
            FilterGranularity::Slash16 => Cidr::slash16(actual).contains(claimed),
            FilterGranularity::Exact => actual == claimed,
        }
    }

    /// The number of addresses a host can claim under this filter (its
    /// spoofing freedom).
    pub fn address_freedom(self) -> u64 {
        match self {
            FilterGranularity::None => 1u64 << 32,
            FilterGranularity::Slash24 => 256,
            FilterGranularity::Slash16 => 65_536,
            FilterGranularity::Exact => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: Ipv4Addr = Ipv4Addr::new(10, 7, 3, 20);

    #[test]
    fn granularity_predicates() {
        let same24 = Ipv4Addr::new(10, 7, 3, 99);
        let same16 = Ipv4Addr::new(10, 7, 200, 1);
        let far = Ipv4Addr::new(172, 16, 0, 1);
        assert!(FilterGranularity::None.permits(HOST, far));
        assert!(FilterGranularity::Slash24.permits(HOST, same24));
        assert!(!FilterGranularity::Slash24.permits(HOST, same16));
        assert!(FilterGranularity::Slash16.permits(HOST, same16));
        assert!(!FilterGranularity::Slash16.permits(HOST, far));
        assert!(FilterGranularity::Exact.permits(HOST, HOST));
        assert!(!FilterGranularity::Exact.permits(HOST, same24));
    }

    #[test]
    fn address_freedom_counts() {
        assert_eq!(FilterGranularity::Exact.address_freedom(), 1);
        assert_eq!(FilterGranularity::Slash24.address_freedom(), 256);
        assert_eq!(FilterGranularity::Slash16.address_freedom(), 65_536);
        assert_eq!(FilterGranularity::None.address_freedom(), 1u64 << 32);
    }
}
