//! Scan blocklists: reserved ranges plus user exclusion requests.
//!
//! The paper's ethics section (§III-A) describes honoring exclusion
//! requests and preemptively excluding previously opted-out networks;
//! the scanner consults a [`Blocklist`] before every probe.

use netsim::ip::{reserved_ranges, Ipv4Net};
use std::net::Ipv4Addr;

/// A set of excluded prefixes.
#[derive(Debug, Clone, Default)]
pub struct Blocklist {
    ranges: Vec<Ipv4Net>,
}

impl Blocklist {
    /// An empty blocklist (everything scannable).
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard baseline: IANA-reserved and RFC 1918 space.
    pub fn standard() -> Self {
        Blocklist { ranges: reserved_ranges() }
    }

    /// Adds an exclusion (e.g. an opt-out request from an operator).
    pub fn exclude(&mut self, net: Ipv4Net) {
        self.ranges.push(net);
    }

    /// True if `ip` must not be probed.
    pub fn is_blocked(&self, ip: Ipv4Addr) -> bool {
        self.ranges.iter().any(|r| r.contains(ip))
    }

    /// Number of excluded prefixes.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when nothing is excluded.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

impl Extend<Ipv4Net> for Blocklist {
    fn extend<T: IntoIterator<Item = Ipv4Net>>(&mut self, iter: T) {
        self.ranges.extend(iter);
    }
}

impl FromIterator<Ipv4Net> for Blocklist {
    fn from_iter<T: IntoIterator<Item = Ipv4Net>>(iter: T) -> Self {
        Blocklist { ranges: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_blocks_private_space() {
        let b = Blocklist::standard();
        assert!(b.is_blocked(Ipv4Addr::new(192, 168, 1, 1)));
        assert!(b.is_blocked(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(b.is_blocked(Ipv4Addr::new(127, 0, 0, 1)));
        assert!(!b.is_blocked(Ipv4Addr::new(141, 212, 0, 1)));
    }

    #[test]
    fn empty_blocks_nothing() {
        let b = Blocklist::new();
        assert!(b.is_empty());
        assert!(!b.is_blocked(Ipv4Addr::new(10, 0, 0, 1)));
    }

    #[test]
    fn exclusions_accumulate() {
        let mut b = Blocklist::new();
        b.exclude("141.212.0.0/16".parse().unwrap());
        assert!(b.is_blocked(Ipv4Addr::new(141, 212, 5, 5)));
        assert!(!b.is_blocked(Ipv4Addr::new(141, 213, 5, 5)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn collect_from_iterator() {
        let b: Blocklist = ["1.0.0.0/24".parse().unwrap(), "2.0.0.0/24".parse().unwrap()]
            .into_iter()
            .collect();
        assert_eq!(b.len(), 2);
        assert!(b.is_blocked(Ipv4Addr::new(2, 0, 0, 9)));
    }
}
