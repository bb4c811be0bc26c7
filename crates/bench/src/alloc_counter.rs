//! A counting global allocator for allocation-budget benchmarks.
//!
//! Wraps [`std::alloc::System`] and counts every `alloc`/`realloc`/
//! `alloc_zeroed` call (and the bytes it requested) in process-wide
//! atomics. Binaries opt in by installing it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bench::CountingAlloc = bench::CountingAlloc::new();
//! ```
//!
//! The counters live in this module — not in the allocator instance — so
//! [`reset`]/[`snapshot`] observe whichever instance a binary installed.
//! `dealloc` never counts toward the *pressure* gauges (`allocs`/
//! `bytes` track how often the hot path hits the allocator, and frees
//! mirror allocs one-to-one in steady state), but it does subtract from
//! the live-bytes gauge, which — together with its high-water mark —
//! is the allocator's-eye view of peak RSS. The streaming-study memory
//! ceiling tests are built on that mark: a stage's peak footprint is
//! `high_water - live_bytes_at_reset`, independent of what the OS maps.
//!
//! Counting must not distort the timings it annotates, so the counters
//! are bumped with unsynchronized load+store pairs rather than atomic
//! read-modify-write instructions (a `lock xadd` on every allocation is
//! a measurable tax on allocation-heavy stages). The deterministic
//! simulation runs single-threaded, where this is exact; if several
//! threads allocate concurrently the counters may drop increments,
//! which is acceptable for a benchmark-pressure gauge.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static LIVE_AT_RESET: AtomicU64 = AtomicU64::new(0);

#[inline(always)]
fn bump(counter: &AtomicU64, delta: u64) {
    // Deliberately not `fetch_add`: see the module docs.
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed);
}

/// Grows the live-bytes gauge and ratchets the high-water mark.
#[inline(always)]
fn live_grow(delta: u64) {
    let live = LIVE_BYTES.load(Ordering::Relaxed).wrapping_add(delta);
    LIVE_BYTES.store(live, Ordering::Relaxed);
    if live > HIGH_WATER.load(Ordering::Relaxed) {
        HIGH_WATER.store(live, Ordering::Relaxed);
    }
}

/// Shrinks the live-bytes gauge. Saturating: frees of memory allocated
/// before the gauge was zeroed must not wrap it.
#[inline(always)]
fn live_shrink(delta: u64) {
    let live = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(delta);
    LIVE_BYTES.store(live, Ordering::Relaxed);
}

/// Counters captured by [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Heap allocations (including reallocations) since the last reset.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Bytes currently live (allocated and not yet freed). Unlike the
    /// pressure counters this gauge is *not* zeroed by [`reset`]; it
    /// tracks real heap state.
    pub live_bytes: u64,
    /// Highest value `live_bytes` reached since the last [`reset`] —
    /// the allocator's-eye peak-RSS mark.
    pub high_water: u64,
}

/// The counting allocator; see the module docs for how to install it.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Creates the allocator (const so it can be a `static`).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: defers every allocation to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        live_grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_shrink(layout.size() as u64);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, new_size as u64);
        live_shrink(layout.size() as u64);
        live_grow(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        live_grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }
}

/// Zeroes the pressure counters and re-arms the high-water mark at the
/// current live-bytes level. The live-bytes gauge itself is left alone —
/// it tracks real heap state, not a measurement window.
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    HIGH_WATER.store(live, Ordering::Relaxed);
    LIVE_AT_RESET.store(live, Ordering::Relaxed);
}

/// Reads the counters accumulated since the last [`reset`].
pub fn snapshot() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        high_water: HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// Peak heap growth since the last [`reset`]: how far above its
/// starting level the live-bytes gauge climbed. This is the number the
/// streaming-memory tests bound — a streamed study's peak growth stays
/// O(batch) while the in-memory path's grows with the world.
pub fn peak_growth_since_reset() -> u64 {
    HIGH_WATER.load(Ordering::Relaxed).saturating_sub(LIVE_AT_RESET.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gauge arithmetic, exercised directly (the test binary does
    /// not install the allocator, so the statics only move when we move
    /// them).
    #[test]
    fn high_water_ratchets_and_reset_rearms() {
        reset();
        let base = LIVE_BYTES.load(Ordering::Relaxed);
        live_grow(1000);
        live_shrink(400);
        live_grow(100);
        assert_eq!(peak_growth_since_reset(), 1000, "peak was the first spike");
        assert_eq!(LIVE_BYTES.load(Ordering::Relaxed), base + 700);
        reset();
        assert_eq!(peak_growth_since_reset(), 0, "reset re-arms at current live level");
        live_shrink(base + 10_000);
        assert_eq!(LIVE_BYTES.load(Ordering::Relaxed), 0, "shrink saturates at zero");
        live_shrink(base + 700);
        assert_eq!(peak_growth_since_reset(), 0, "shrinking never raises the peak");
    }
}
