//! The cyclic multiplicative-group permutation at the heart of ZMap.
//!
//! To scan an address space of size *n* in pseudorandom order without
//! keeping per-address state, ZMap picks a prime *p* > *n*, a random
//! generator *g* of the multiplicative group ℤ*ₚ*, and walks the orbit
//! `x → g·x mod p`, skipping values that fall outside `1..=n`. Because
//! *g* generates the whole group, the walk visits every value in
//! `1..p-1` exactly once; the skipped overshoot is at most `p - n - 1`
//! values per cycle. ZMap uses `p = 2³² + 15` for the full IPv4 space;
//! for smaller simulated spaces we select the smallest prime from a
//! precomputed ladder.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Primes just above successive powers of two, `2^k + δ`.
const PRIME_LADDER: &[u64] = &[
    257,           // 2^8 + 1
    1_031,         // 2^10 + 7
    4_099,         // 2^12 + 3
    16_411,        // 2^14 + 27
    65_537,        // 2^16 + 1
    262_147,       // 2^18 + 3
    1_048_583,     // 2^20 + 7
    4_194_319,     // 2^22 + 15
    16_777_259,    // 2^24 + 43
    67_108_879,    // 2^26 + 15
    268_435_459,   // 2^28 + 3
    1_073_741_827, // 2^30 + 3
    4_294_967_311, // 2^32 + 15 (ZMap's prime)
];

fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Prime factors of `n` (distinct), by trial division. `n` here is
/// `p - 1 ≤ 2³² + 14`, so trial division is instantaneous.
fn distinct_prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

fn is_primitive_root(g: u64, p: u64, factors: &[u64]) -> bool {
    factors.iter().all(|&q| powmod(g, (p - 1) / q, p) != 1)
}

/// A full-cycle pseudorandom permutation of `0..size`.
///
/// # Example
///
/// ```
/// use zscan::CyclicPermutation;
///
/// let perm = CyclicPermutation::new(1000, 42);
/// let mut seen: Vec<u64> = perm.iter().collect();
/// assert_eq!(seen.len(), 1000);
/// seen.sort();
/// assert_eq!(seen, (0..1000).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub struct CyclicPermutation {
    size: u64,
    p: u64,
    generator: u64,
    start: u64,
}

impl CyclicPermutation {
    /// Builds a permutation of `0..size` using the smallest ladder prime
    /// above `size`, with generator and start position drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds 2³² (the IPv4 space).
    pub fn new(size: u64, seed: u64) -> Self {
        assert!(size > 0, "empty permutation");
        assert!(size <= 1 << 32, "size exceeds the IPv4 space");
        let p = *PRIME_LADDER
            .iter()
            .find(|&&p| p > size)
            .expect("ladder covers sizes up to 2^32");
        let factors = distinct_prime_factors(p - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        // Find the smallest primitive root, then randomize: root^e is a
        // generator whenever gcd(e, p-1) = 1 — this is how ZMap picks a
        // fresh scan order per run.
        let root = (2..p).find(|&g| is_primitive_root(g, p, &factors)).expect("root exists");
        let generator = loop {
            let e = rng.random_range(1..p - 1);
            if gcd(e, p - 1) == 1 {
                break powmod(root, e, p);
            }
        };
        let start = rng.random_range(1..p);
        CyclicPermutation { size, p, generator, start }
    }

    /// The permutation's domain size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The prime modulus in use.
    pub fn prime(&self) -> u64 {
        self.p
    }

    /// Iterates the full permutation: every value in `0..size` exactly
    /// once, in the generator's orbit order.
    ///
    /// ZMap can also split this orbit across machines (its `--shards`).
    /// This crate does not: a study shard must probe exactly the hosts
    /// worldgen built in its simulator, so shards and batches partition
    /// the *address space* by hash instead ([`crate::HashShard`],
    /// [`crate::HashBatch`]) and each filters this one orbit.
    pub fn iter(&self) -> Iter<'_> {
        Iter { perm: self, current: self.start, remaining: self.p - 1 }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Iterator over a full [`CyclicPermutation`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    perm: &'a CyclicPermutation,
    current: u64,
    remaining: u64,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.remaining > 0 {
            let v = self.current;
            self.current = mulmod(self.current, self.perm.generator, self.perm.p);
            self.remaining -= 1;
            // Group elements are 1..p-1; map to 0-based and skip overshoot.
            if v - 1 < self.perm.size {
                return Some(v - 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ladder_entries_are_prime() {
        fn is_prime(n: u64) -> bool {
            if n < 2 {
                return false;
            }
            let mut d = 2u64;
            while d * d <= n {
                if n.is_multiple_of(d) {
                    return false;
                }
                d += 1;
            }
            true
        }
        for &p in PRIME_LADDER {
            assert!(is_prime(p), "{p} is not prime");
        }
    }

    #[test]
    fn permutation_visits_every_value_once() {
        for size in [1u64, 2, 100, 255, 256, 257, 1000, 5000] {
            let perm = CyclicPermutation::new(size, 7);
            let values: Vec<u64> = perm.iter().collect();
            assert_eq!(values.len() as u64, size, "size {size}");
            let set: HashSet<u64> = values.iter().copied().collect();
            assert_eq!(set.len() as u64, size, "duplicates at size {size}");
            assert!(values.iter().all(|&v| v < size));
        }
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let a: Vec<u64> = CyclicPermutation::new(1000, 1).iter().collect();
        let b: Vec<u64> = CyclicPermutation::new(1000, 2).iter().collect();
        assert_ne!(a, b);
        let a2: Vec<u64> = CyclicPermutation::new(1000, 1).iter().collect();
        assert_eq!(a, a2, "same seed reproduces the order");
    }

    #[test]
    fn order_is_not_sequential() {
        let perm = CyclicPermutation::new(10_000, 3);
        let first: Vec<u64> = perm.iter().take(100).collect();
        let sorted = {
            let mut s = first.clone();
            s.sort();
            s
        };
        assert_ne!(first, sorted, "scan order must look random");
    }

    #[test]
    fn primitive_root_check() {
        // 3 is a primitive root mod 257; 4 = 2² is not (2 is, 4 has order 64... actually
        // 4's order divides 128). Verify via the helper.
        let factors = distinct_prime_factors(256);
        assert_eq!(factors, vec![2]);
        assert!(is_primitive_root(3, 257, &factors));
        assert!(!is_primitive_root(4, 257, &factors));
    }

    #[test]
    fn full_ipv4_scale_prime_selected() {
        let perm = CyclicPermutation::new(1 << 32, 1);
        assert_eq!(perm.prime(), 4_294_967_311);
        // Don't iterate 2^32 values in a unit test; just sample a few.
        let first: Vec<u64> = perm.iter().take(10).collect();
        assert_eq!(first.len(), 10);
        assert!(first.iter().all(|&v| v < (1u64 << 32)));
    }

    #[test]
    fn mulmod_handles_large_operands() {
        let p = 4_294_967_311u64;
        let a = p - 1;
        assert_eq!(mulmod(a, a, p), 1); // (-1)² = 1 mod p
    }
}
