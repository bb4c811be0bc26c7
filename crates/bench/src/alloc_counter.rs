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
//! The counts must stay exact when several threads allocate at once:
//! world building runs on every core, inside the regions the
//! allocation tests and studybench's traced pass measure. Every update
//! is therefore one atomic read-modify-write — `fetch_add` for the
//! counts and the live-bytes gauge, `fetch_max` for the high-water mark,
//! and a compare-and-swap loop where the gauge saturates at zero.
//! Relaxed ordering suffices: the counters are independent, and readers
//! snapshot them only after the measured work has finished.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static LIVE_AT_RESET: AtomicU64 = AtomicU64::new(0);

#[inline(always)]
fn bump(counter: &AtomicU64, delta: u64) {
    counter.fetch_add(delta, Ordering::Relaxed);
}

/// Grows the live-bytes gauge and ratchets the high-water mark.
#[inline(always)]
fn live_grow(delta: u64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed).wrapping_add(delta);
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

/// Shrinks the live-bytes gauge. Saturating: frees of memory allocated
/// before the gauge was zeroed must not wrap it.
#[inline(always)]
fn live_shrink(delta: u64) {
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(delta))
    });
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

    use std::sync::Mutex;

    /// Serializes the tests here: they share the module's statics.
    static STATICS: Mutex<()> = Mutex::new(());

    /// The gauge arithmetic, exercised directly (the test binary does
    /// not install the allocator, so the statics only move when we move
    /// them).
    #[test]
    fn high_water_ratchets_and_reset_rearms() {
        let _guard = STATICS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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

    /// Updates from several threads at once all land: none is lost to
    /// a racing read-modify-write.
    #[test]
    fn concurrent_updates_are_exact() {
        let _guard = STATICS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        let before = snapshot();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // All four threads update at once, not one by one.
                    start.wait();
                    for _ in 0..20_000 {
                        bump(&ALLOCS, 1);
                        live_grow(8);
                        live_shrink(8);
                    }
                });
            }
        });
        let after = snapshot();
        assert_eq!(after.allocs - before.allocs, 80_000);
        assert_eq!(after.live_bytes, before.live_bytes, "every grow was matched by a shrink");
        let peak = peak_growth_since_reset();
        assert!((8..=32).contains(&peak), "at most four 8-byte grows overlap: {peak}");
    }
}
