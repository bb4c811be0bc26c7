//! A tiny non-cryptographic hasher for the simulator's hot maps.
//!
//! The event loop does a `conns`/`hosts` lookup per dispatched event, and
//! every server engine keys its session tables by connection id. The
//! standard library's SipHash is a measurable fraction of that path; the
//! keys here are small integers under our own control (connection ids,
//! ports, IPs), so a multiply-xor hash in the fxhash family is plenty.
//! HashDoS resistance is irrelevant inside a deterministic simulation.
//!
//! Safety for determinism: nothing in the simulator or the engines
//! iterates these maps on a behavior-affecting path, so the change of
//! bucket order cannot leak into results (the byte-identity suites gate
//! this).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (fxhash variant) for small integer keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 2^64 / golden-ratio constant; spreads consecutive integers
/// across the high bits after the multiply.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply carries each input bit only upward, so the product's
    /// low bits, which pick the bucket, see only the key's low bits (for
    /// an `Ipv4Addr`, hashed as `u32::from_ne_bytes`, the network octets
    /// on little-endian machines). Rotating brings the well-mixed high
    /// bits down, as rustc-hash 2 does.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` with the fast hasher — for hot, small-integer-keyed tables.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` counterpart of [`FastMap`].
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_apart() {
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(k);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "small consecutive keys must not collide");
    }

    #[test]
    fn addresses_spread_over_low_bits() {
        // Every address of a /12: the low 13 bits pick among 8,192
        // buckets, and a world's hosts share their leading octets.
        let mut seen = std::collections::HashSet::new();
        let base = u32::from(std::net::Ipv4Addr::new(10, 16, 0, 0));
        for i in 0..1u32 << 20 {
            let mut h = FxHasher::default();
            std::hash::Hash::hash(&std::net::Ipv4Addr::from(base + i), &mut h);
            seen.insert(h.finish() & 0x1fff);
        }
        assert!(seen.len() >= 4_096, "low bits took only {} values", seen.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k, k as u32 * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&777), Some(&2331));
        assert_eq!(m.remove(&0), Some(0));
        assert_eq!(m.len(), 999);
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(b"abcdefghij"); // 8-byte chunk + 2-byte tail
        let mut b = FxHasher::default();
        b.write(b"abcdefghik");
        assert_ne!(a.finish(), b.finish());
    }
}
