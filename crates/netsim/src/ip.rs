//! IPv4 prefix (CIDR) utilities.
//!
//! The simulator, the ZMap-style scanner's blocklist, and the worldgen
//! AS-prefix allocator all reason about address ranges; this module gives
//! them one `Ipv4Net` type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix such as `10.0.0.0/8`.
///
/// # Example
///
/// ```
/// use netsim::Ipv4Net;
/// use std::net::Ipv4Addr;
///
/// let net: Ipv4Net = "192.168.0.0/16".parse()?;
/// assert!(net.contains(Ipv4Addr::new(192, 168, 55, 1)));
/// assert_eq!(net.size(), 65536);
/// # Ok::<(), netsim::ip::ParseNetError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Net {
    base: u32,
    prefix_len: u8,
}

/// Error parsing an [`Ipv4Net`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetError {
    input: String,
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR prefix: {:?}", self.input)
    }
}

impl std::error::Error for ParseNetError {}

impl Ipv4Net {
    /// Creates a prefix, masking `base` down to the prefix boundary.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(base: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} exceeds 32");
        let mask = Self::mask_bits(prefix_len);
        Ipv4Net { base: u32::from(base) & mask, prefix_len }
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// The (masked) network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// The prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// Whether `ip` lies inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_bits(self.prefix_len) == self.base
    }

    /// The `index`-th address of the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.size()`.
    pub fn addr_at(&self, index: u64) -> Ipv4Addr {
        assert!(index < self.size(), "index {index} out of range for /{}", self.prefix_len);
        Ipv4Addr::from(self.base + index as u32)
    }

    /// Zero-based offset of `ip` within the prefix, or `None` if outside.
    pub fn index_of(&self, ip: Ipv4Addr) -> Option<u64> {
        if self.contains(ip) {
            Some(u64::from(u32::from(ip) - self.base))
        } else {
            None
        }
    }

    /// Iterator over every address in the prefix (ascending).
    pub fn iter(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.size()).map(move |i| self.addr_at(i))
    }

    /// Whether the prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        let shorter = self.prefix_len.min(other.prefix_len);
        let mask = Self::mask_bits(shorter);
        self.base & mask == other.base & mask
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.prefix_len)
    }
}

impl FromStr for Ipv4Net {
    type Err = ParseNetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseNetError { input: s.to_owned() };
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let base: Ipv4Addr = addr.trim().parse().map_err(|_| err())?;
        let prefix_len: u8 = len.trim().parse().map_err(|_| err())?;
        if prefix_len > 32 {
            return Err(err());
        }
        Ok(Ipv4Net::new(base, prefix_len))
    }
}

/// Deterministic shard assignment for an address: which of `shards`
/// partitions `(seed, ip)` hashes into.
///
/// This is the partition key of the sharded study runner: worldgen
/// materializes a host into exactly the shard this function names, and
/// the scanner probes exactly the addresses this function assigns to
/// it, so every shard simulates a self-contained slice of the world.
/// The hash is a splitmix64 finalizer over `(seed, ip)` — a pure
/// function of its inputs, stable across shard counts in the sense that
/// the K-way partition is always a refinement-free re-bucketing of the
/// same per-address hash (no RNG state, no ordering dependence).
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(seed: u64, ip: Ipv4Addr, shards: u64) -> u64 {
    assert!(shards > 0, "need at least one shard");
    let mut z = seed
        .wrapping_add(0x5AAD_0000_0000_0000)
        .wrapping_add(u64::from(u32::from(ip)).rotate_left(17))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % shards
}

/// Deterministic batch assignment for an address: which of `batches`
/// sequential slices `(seed, ip)` hashes into.
///
/// This is the partition key of the *streaming* study runner, the
/// second axis of the `(shard, batch)` grid: a shard walks its batches
/// in order, materializing and simulating only the addresses whose
/// batch index matches, so memory is bounded by the batch population
/// rather than the shard population. The salt differs from
/// [`shard_of`]'s on purpose — with a shared salt the two partitions
/// would be the *same* hash re-bucketed, making `shard i ∩ batch j`
/// empty whenever `i ≠ j` for equal counts instead of an even grid.
/// Like [`shard_of`], this is a pure function of its inputs, so the
/// union of all batches of all shards reconstructs the whole world
/// independent of visit order.
///
/// # Panics
///
/// Panics if `batches` is zero.
pub fn batch_of(seed: u64, ip: Ipv4Addr, batches: u64) -> u64 {
    assert!(batches > 0, "need at least one batch");
    let mut z = seed
        .wrapping_add(0xBA7C_0000_0000_0000)
        .wrapping_add(u64::from(u32::from(ip)).rotate_left(23))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % batches
}

/// IANA-reserved ranges a responsible Internet-wide scan must exclude
/// (the paper followed Durumeric et al.'s scanning recommendations).
pub fn reserved_ranges() -> Vec<Ipv4Net> {
    [
        "0.0.0.0/8",       // "this" network
        "10.0.0.0/8",      // RFC 1918
        "100.64.0.0/10",   // CGN shared space
        "127.0.0.0/8",     // loopback
        "169.254.0.0/16",  // link local
        "172.16.0.0/12",   // RFC 1918
        "192.0.0.0/24",    // IETF protocol assignments
        "192.0.2.0/24",    // TEST-NET-1
        "192.168.0.0/16",  // RFC 1918
        "198.18.0.0/15",   // benchmarking
        "198.51.100.0/24", // TEST-NET-2
        "203.0.113.0/24",  // TEST-NET-3
        "224.0.0.0/4",     // multicast
        "240.0.0.0/4",     // future use
    ]
    .iter()
    .map(|s| s.parse().expect("static table parses"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Ipv4Net = "10.1.2.3/8".parse().unwrap();
        assert_eq!(n.to_string(), "10.0.0.0/8"); // masked down
        assert_eq!(n.prefix_len(), 8);
    }

    #[test]
    fn parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("bogus/8".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn contains_and_index() {
        let n: Ipv4Net = "192.168.0.0/16".parse().unwrap();
        let ip = Ipv4Addr::new(192, 168, 3, 7);
        assert!(n.contains(ip));
        let ix = n.index_of(ip).unwrap();
        assert_eq!(n.addr_at(ix), ip);
        assert_eq!(n.index_of(Ipv4Addr::new(192, 169, 0, 0)), None);
    }

    #[test]
    fn size_and_bounds() {
        let n: Ipv4Net = "1.2.3.4/32".parse().unwrap();
        assert_eq!(n.size(), 1);
        assert_eq!(n.addr_at(0), Ipv4Addr::new(1, 2, 3, 4));
        let whole: Ipv4Net = "0.0.0.0/0".parse().unwrap();
        assert_eq!(whole.size(), 1u64 << 32);
        assert!(whole.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn addr_at_out_of_range_panics() {
        let n: Ipv4Net = "1.2.3.0/24".parse().unwrap();
        let _ = n.addr_at(256);
    }

    #[test]
    fn overlap() {
        let a: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Net = "10.5.0.0/16".parse().unwrap();
        let c: Ipv4Net = "11.0.0.0/8".parse().unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn iter_matches_size() {
        let n: Ipv4Net = "1.2.3.0/30".parse().unwrap();
        let all: Vec<_> = n.iter().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], Ipv4Addr::new(1, 2, 3, 3));
    }

    #[test]
    fn shard_of_partitions_completely() {
        let net: Ipv4Net = "10.10.0.0/22".parse().unwrap();
        for shards in [1, 2, 3, 8] {
            let mut counts = vec![0u64; shards as usize];
            for ip in net.iter() {
                let s = shard_of(77, ip, shards);
                assert!(s < shards, "{ip} assigned to shard {s} of {shards}");
                counts[s as usize] += 1;
            }
            assert_eq!(counts.iter().sum::<u64>(), net.size());
            // A splitmix64 hash over a /22 should land well within 2x
            // of the even split on every shard.
            let fair = net.size() / shards;
            for (i, &c) in counts.iter().enumerate() {
                assert!(c > fair / 2 && c < fair * 2, "shard {i} got {c} of ~{fair}");
            }
        }
    }

    #[test]
    fn shard_of_is_deterministic_and_seed_sensitive() {
        let ip = Ipv4Addr::new(203, 7, 44, 9);
        assert_eq!(shard_of(1, ip, 8), shard_of(1, ip, 8));
        assert_eq!(shard_of(9, ip, 1), 0, "one shard gets everything");
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|seed| shard_of(seed, ip, 8)).collect();
        assert!(spread.len() > 1, "seed must perturb the assignment");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_zero_shards_panics() {
        let _ = shard_of(1, Ipv4Addr::new(1, 2, 3, 4), 0);
    }

    #[test]
    fn batch_of_partitions_completely() {
        let net: Ipv4Net = "10.10.0.0/22".parse().unwrap();
        for batches in [1, 2, 7, 16] {
            let mut counts = vec![0u64; batches as usize];
            for ip in net.iter() {
                let b = batch_of(77, ip, batches);
                assert!(b < batches, "{ip} assigned to batch {b} of {batches}");
                counts[b as usize] += 1;
            }
            assert_eq!(counts.iter().sum::<u64>(), net.size());
            let fair = net.size() / batches;
            for (i, &c) in counts.iter().enumerate() {
                assert!(c > fair / 2 && c < fair * 2, "batch {i} got {c} of ~{fair}");
            }
        }
    }

    #[test]
    fn batch_and_shard_axes_are_independent() {
        // The (shard, batch) grid must be a real product partition: with
        // equal counts every cell should be populated, which fails if the
        // two hashes share a salt (then cell (i, j) is empty for i ≠ j).
        let net: Ipv4Net = "10.10.0.0/20".parse().unwrap();
        let k = 4u64;
        let mut cells = vec![0u64; (k * k) as usize];
        for ip in net.iter() {
            let s = shard_of(9, ip, k);
            let b = batch_of(9, ip, k);
            cells[(s * k + b) as usize] += 1;
        }
        for (i, &c) in cells.iter().enumerate() {
            assert!(c > 0, "grid cell {i} empty: shard/batch hashes are correlated");
        }
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn batch_of_zero_batches_panics() {
        let _ = batch_of(1, Ipv4Addr::new(1, 2, 3, 4), 0);
    }

    #[test]
    fn reserved_ranges_cover_rfc1918() {
        let ranges = reserved_ranges();
        for ip in [
            Ipv4Addr::new(10, 1, 1, 1),
            Ipv4Addr::new(172, 20, 0, 1),
            Ipv4Addr::new(192, 168, 1, 1),
            Ipv4Addr::new(127, 0, 0, 1),
        ] {
            assert!(ranges.iter().any(|r| r.contains(ip)), "{ip} not covered");
        }
        assert!(!ranges.iter().any(|r| r.contains(Ipv4Addr::new(8, 8, 8, 8))));
    }
}
