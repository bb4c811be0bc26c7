//! Hierarchical timer wheel backing the simulator's event queue.
//!
//! The simulator's hot loop is schedule/pop of events whose delays are
//! almost always short (sub-second network latencies, protocol
//! timeouts). A binary heap pays `O(log n)` per operation and bounces
//! through cache-hostile sift paths; the wheel below makes both
//! operations near-`O(1)` for the common case while preserving the
//! exact total order the determinism suite depends on: events are
//! ordered by `(at, seq)` — time first, insertion sequence as the
//! tie-break — and [`TimerWheel::pop`] yields precisely that order.
//!
//! # Layout
//!
//! Six levels of 64 slots each, 1µs base granularity. Level `l` covers
//! deltas below `64^(l+1)` µs, so the wheel spans `2^36` µs (~19h)
//! ahead of its cursor. An entry is filed at the level of the most
//! significant bit where its deadline differs from the cursor
//! (`msb(at ^ cursor) / 6`), which guarantees its slot is within 64
//! slots ahead of the cursor's slot at that level. Each level keeps a
//! `u64` occupancy bitmap so finding the next non-empty slot is a
//! rotate + trailing-zeros, never a scan over empty slots.
//!
//! Entries beyond the span (e.g. a honeypot's 90-day sweep timer) go
//! to an **overflow** binary heap and are re-filed into the wheel once
//! the cursor's 19h epoch reaches them. No entry is ever filed *behind*
//! the cursor: the simulator's clock is the last popped instant, which
//! the cursor never passes, and every event is scheduled at `now +
//! delay`. [`TimerWheel::insert`] asserts it.
//!
//! # Ordering invariants
//!
//! * `cursor ≤ levels < overflow` — every wheel entry precedes every
//!   overflow entry, so popping wheel then overflow is globally ordered.
//! * The cursor only advances, and never past a stored entry's
//!   deadline: pop advances it to the earliest occupied slot's start,
//!   which is `≤` the earliest stored deadline.
//! * Cascading a level-`l` slot re-files entries strictly below `l`
//!   (after the cursor advances to the slot's start, every entry in it
//!   differs from the cursor only in bits below `6l`), so pop
//!   terminates.
//! * A level-0 slot only ever holds entries sharing one exact `at`, so
//!   once the cursor reaches that instant the whole slot drains into
//!   the **now queue** — sorted by `seq` once, popped `O(1)` from the
//!   front. This keeps same-instant bursts (a scanner scheduling
//!   thousands of probe timeouts on one tick) linearithmic instead of
//!   the quadratic a per-pop min-`seq` scan would cost.
//! * Entries scheduled *at* the cursor's instant (zero-delay events
//!   from a dispatch handler) append to the now queue directly; their
//!   `seq` is monotonically larger than anything already there, so the
//!   common case is an ordered `push_back`.
//!
//! # Retained memory
//!
//! Every buffer the wheel reuses keeps only what live entries need plus
//! a small fixed spare, so a long-lived wheel (one arena across a
//! streamed study's batches) does not grow with the number of bursts it
//! has seen:
//!
//! * **Slots.** Draining a slot swaps its `Vec` with the cascade
//!   scratch; the drained buffer becomes the next scratch only if its
//!   capacity is at most [`SLOT_KEEP`] entries, and is freed otherwise.
//!   So an *empty* slot, like the scratch, holds at most `SLOT_KEEP`
//!   entries of capacity, and the wheel holds at most about twice its
//!   live entries (a `Vec` grows by doubling) plus `(6 × 64 + 1) ×
//!   SLOT_KEEP` spare entries. Keeping whatever passed through instead
//!   lets each of the 385 buffers grow to the largest occupancy it ever
//!   meets.
//! * **Now queue and overflow heap.** Both hold a subset of the live
//!   entries, so their capacity is bounded by the peak live count of
//!   one run (the now queue by the largest same-instant burst).
//!
//! [`TimerWheel::reset`] keeps these buffers, dropping any slot buffer
//! above `SLOT_KEEP`, so the bound holds across resets too.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels.
const LEVELS: usize = 6;
/// The wheel covers deadlines within `2^SPAN_BITS` µs of the cursor.
const SPAN_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Largest capacity, in entries, a drained slot buffer may have and
/// still be kept for reuse (3.5 KiB at 56 bytes per simulator entry).
/// Most slots hold a handful of entries; a burst larger than this
/// allocates its own buffer, which is freed once the slot drains.
const SLOT_KEEP: usize = 64;

/// A scheduled entry: deadline, global insertion sequence, payload.
pub(crate) struct Entry<T> {
    pub at: SimTime,
    pub seq: u64,
    pub ev: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

struct Level<T> {
    /// Bit `i` set ⇔ `slots[i]` is non-empty.
    occupied: u64,
    slots: [Vec<Entry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Level { occupied: 0, slots: std::array::from_fn(|_| Vec::new()) }
    }
}

/// Occupancy and cascade statistics for one wheel's lifetime.
///
/// Maintained unconditionally — a handful of integer adds per
/// insert/cascade, invisible next to the filing arithmetic — so the
/// observability layer can read them at end of run without putting any
/// recorder call (or gate check) inside the wheel's hot loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Entries filed via `TimerWheel::insert`.
    pub inserts: u64,
    /// Cascade passes (a level-`l > 0` slot drained and re-filed).
    pub cascades: u64,
    /// Entries moved during cascade passes.
    pub cascaded_entries: u64,
    /// Peak simultaneous occupancy across all stores.
    pub max_occupancy: u64,
}

/// Hierarchical timer wheel ordered by `(at, seq)`.
pub(crate) struct TimerWheel<T> {
    /// High-water mark in µs: every entry in `levels` has `at ≥ cursor`.
    cursor: u64,
    /// Entry count across `levels` only.
    in_levels: usize,
    levels: [Level<T>; LEVELS],
    /// Entries beyond the wheel's span; strictly later than everything
    /// in the wheel, drained in as the cursor's epoch reaches them.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Recycled scratch for draining slots, so re-filing a slot's
    /// entries doesn't allocate. Always empty, with at most
    /// [`SLOT_KEEP`] entries of capacity.
    cascade_buf: Vec<Entry<T>>,
    /// Entries with `at == cursor`, popped before anything in `levels`.
    /// Sorted ascending by `seq` unless `now_dirty` is set.
    now_q: VecDeque<Entry<T>>,
    /// True when `now_q` needs a sort before its next pop.
    now_dirty: bool,
    /// Lifetime occupancy/cascade statistics (see [`WheelStats`]).
    stats: WheelStats,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            in_levels: 0,
            levels: std::array::from_fn(|_| Level::new()),
            overflow: BinaryHeap::new(),
            cascade_buf: Vec::new(),
            now_q: VecDeque::new(),
            now_dirty: false,
            stats: WheelStats::default(),
        }
    }

    /// Lifetime statistics for this wheel.
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Empties the wheel and rewinds the cursor to 0. What it keeps for
    /// reuse is what a drained wheel keeps (see the module docs' *Retained
    /// memory*): every slot buffer of at most [`SLOT_KEEP`] entries, the
    /// scratch, and the now queue's and overflow heap's capacity. A slot
    /// still holding a larger buffer drops it. Statistics are *not*
    /// cleared — they describe the wheel's lifetime across resets (see
    /// [`crate::Simulator::reset`]).
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.in_levels = 0;
        for level in &mut self.levels {
            if level.occupied != 0 {
                for slot in &mut level.slots {
                    if slot.capacity() > SLOT_KEEP {
                        *slot = Vec::new();
                    } else {
                        slot.clear();
                    }
                }
                level.occupied = 0;
            }
        }
        self.overflow.clear();
        self.now_q.clear();
        self.now_dirty = false;
    }

    /// Total stored entries.
    pub fn len(&self) -> usize {
        self.in_levels + self.now_q.len() + self.overflow.len()
    }

    /// Entry capacity held by the slot vectors and the scratch.
    pub fn slot_capacity(&self) -> usize {
        let slots: usize =
            self.levels.iter().flat_map(|level| &level.slots).map(Vec::capacity).sum();
        slots + self.cascade_buf.capacity()
    }

    /// Files an entry, preserving `(at, seq)` pop order.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is due before the cursor (see module docs).
    pub fn insert(&mut self, entry: Entry<T>) {
        let at = entry.at.as_micros();
        assert!(at >= self.cursor, "timer filed behind the wheel cursor");
        if (at ^ self.cursor) >> SPAN_BITS != 0 {
            self.overflow.push(Reverse(entry));
        } else {
            self.place(entry);
        }
        self.stats.inserts += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.len() as u64);
    }

    /// Files an entry into `levels` — or into the now queue when its
    /// deadline *is* the cursor's instant. Caller guarantees `at ≥
    /// cursor` and that `at` shares the cursor's `2^SPAN_BITS` epoch.
    fn place(&mut self, entry: Entry<T>) {
        let at = entry.at.as_micros();
        let diff = at ^ self.cursor;
        if diff == 0 {
            self.push_now(entry);
            return;
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let idx = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].slots[idx].push(entry);
        self.levels[level].occupied |= 1u64 << idx;
        self.in_levels += 1;
    }

    /// Appends to the now queue. A zero-delay schedule from a dispatch
    /// handler carries the largest `seq` yet, so the queue usually stays
    /// sorted; anything else (a cascade) marks it for one lazy sort
    /// before the next pop.
    fn push_now(&mut self, entry: Entry<T>) {
        if !self.now_dirty {
            if let Some(back) = self.now_q.back() {
                if back.seq > entry.seq {
                    self.now_dirty = true;
                }
            }
        }
        self.now_q.push_back(entry);
    }

    /// Empties slot `idx` of `level` and returns its entries; the slot
    /// gets the empty scratch buffer in exchange.
    fn take_slot(&mut self, level: usize, idx: usize) -> Vec<Entry<T>> {
        let scratch = std::mem::take(&mut self.cascade_buf);
        let drained = std::mem::replace(&mut self.levels[level].slots[idx], scratch);
        self.levels[level].occupied &= !(1u64 << idx);
        self.in_levels -= drained.len();
        drained
    }

    /// Keeps an emptied slot buffer as the next scratch if it is at
    /// most [`SLOT_KEEP`] entries, and frees it otherwise.
    fn recycle_slot(&mut self, buf: Vec<Entry<T>>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() <= SLOT_KEEP {
            self.cascade_buf = buf;
        }
    }

    /// Pops the smallest-`seq` now-queue entry, sorting first if needed.
    fn pop_now(&mut self) -> Option<Entry<T>> {
        if self.now_dirty {
            self.now_q.make_contiguous().sort_unstable_by_key(|e| e.seq);
            self.now_dirty = false;
        }
        self.now_q.pop_front()
    }

    /// Drains the earliest entry *and every other entry sharing its
    /// instant* into `out`, in `(at, seq)` order — the batch analogue of
    /// calling [`TimerWheel::pop`] until the instant changes, without
    /// paying the slot-search machinery per entry.
    ///
    /// Soundness: once [`TimerWheel::pop`] returns an entry at instant
    /// `t`, every remaining entry at `t` is already in the now queue
    /// (the level-0 drain moves a whole same-`at` slot there, and
    /// coarser slots tying on the slot start cascade down first), so
    /// draining the now queue completes the same-instant batch.
    ///
    /// `out` is appended to (not cleared), so a caller can reuse one
    /// buffer across drains.
    pub fn pop_batch(&mut self, out: &mut Vec<Entry<T>>) {
        let Some(first) = self.pop() else { return };
        let at = first.at;
        out.push(first);
        // Every now-queue entry shares one instant (== the cursor), so
        // checking the front suffices even while the queue is unsorted.
        if self.now_q.front().is_some_and(|e| e.at == at) {
            while let Some(entry) = self.pop_now() {
                out.push(entry);
            }
        }
    }

    /// Removes and returns the earliest entry by `(at, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if let Some(entry) = self.pop_now() {
            return Some(entry);
        }
        loop {
            // Re-file any overflow entries the cursor's epoch has
            // reached; they must enter the wheel before it can pass
            // them. (Checked each iteration because cascades below
            // advance the cursor.)
            while let Some(Reverse(peek)) = self.overflow.peek() {
                if (peek.at.as_micros() ^ self.cursor) >> SPAN_BITS != 0 {
                    break;
                }
                let Reverse(entry) = self.overflow.pop().expect("peeked entry");
                self.place(entry);
            }
            if self.in_levels == 0 {
                // Cascades may have moved same-instant entries to the
                // now queue and emptied the levels; serve those before
                // considering a cursor jump.
                if let Some(entry) = self.pop_now() {
                    return Some(entry);
                }
                // Wheel empty: jump the cursor to the overflow's
                // earliest epoch and re-file from there.
                let Reverse(entry) = self.overflow.pop()?;
                self.cursor = entry.at.as_micros();
                self.place(entry);
                continue;
            }
            // Earliest occupied slot across levels, by absolute slot
            // start. On ties prefer the HIGHEST level: a coarser slot
            // starting at the same instant may hold an entry with a
            // smaller `seq` at the same `at`, so it must cascade down
            // before the level-0 slot is drained.
            let mut best: Option<(usize, usize, u64)> = None;
            for level in 0..LEVELS {
                let occupied = self.levels[level].occupied;
                if occupied == 0 {
                    continue;
                }
                let shift = SLOT_BITS * level as u32;
                let cursor_slot = self.cursor >> shift;
                let base = (cursor_slot & (SLOTS as u64 - 1)) as u32;
                // Distance to the nearest occupied slot at/after the
                // cursor's slot; every occupied slot is within 64.
                let dist = occupied.rotate_right(base).trailing_zeros() as u64;
                let slot_abs = cursor_slot + dist;
                let idx = (slot_abs & (SLOTS as u64 - 1)) as usize;
                let start = (slot_abs << shift).max(self.cursor);
                if best.is_none_or(|(_, _, best_start)| start <= best_start) {
                    best = Some((level, idx, start));
                }
            }
            let (level, idx, start) = best.expect("in_levels > 0");
            if start > self.cursor {
                // Earlier cascades routed same-instant entries into the
                // now queue; they precede every strictly-later slot.
                if let Some(entry) = self.pop_now() {
                    return Some(entry);
                }
            }
            self.cursor = start;
            if level == 0 {
                // All entries here share one `at` (== the cursor now):
                // drain the whole slot into the now queue, sort once,
                // then pop O(1) per event.
                let mut drained = self.take_slot(0, idx);
                self.now_dirty = true;
                self.now_q.extend(drained.drain(..));
                self.recycle_slot(drained);
                return self.pop_now();
            }
            // Cascade: advance the cursor to the slot start (done
            // above) and re-file its entries at strictly lower levels
            // (or into the now queue when their `at` is the slot start).
            let mut drained = self.take_slot(level, idx);
            self.stats.cascades += 1;
            self.stats.cascaded_entries += drained.len() as u64;
            for entry in drained.drain(..) {
                self.place(entry);
            }
            self.recycle_slot(drained);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Deterministic LCG so the model test needs no RNG dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn entry(at: u64, seq: u64) -> Entry<u64> {
        Entry { at: SimTime::ZERO + SimDuration::from_micros(at), seq, ev: seq }
    }

    /// Reference model: a sorted vector popped from the front.
    #[derive(Default)]
    struct Model {
        items: Vec<(u64, u64)>,
    }
    impl Model {
        fn insert(&mut self, at: u64, seq: u64) {
            self.items.push((at, seq));
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            let min_ix = self
                .items
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, seq))| (at, seq))
                .map(|(ix, _)| ix)?;
            Some(self.items.remove(min_ix))
        }
    }

    #[test]
    fn drains_in_time_then_seq_order() {
        let mut wheel = TimerWheel::new();
        // Same instant, shuffled insertion; plus spread-out instants.
        for (seq, at) in [(0u64, 50u64), (1, 10), (2, 10), (3, 7000), (4, 10), (5, 0)] {
            wheel.insert(entry(at, seq));
        }
        let mut got = Vec::new();
        while let Some(e) = wheel.pop() {
            got.push((e.at.as_micros(), e.seq));
        }
        assert_eq!(got, vec![(0, 5), (10, 1), (10, 2), (10, 4), (50, 0), (7000, 3)]);
    }

    #[test]
    fn matches_reference_model_under_random_workload() {
        let mut lcg = Lcg(0x5eed);
        let mut wheel = TimerWheel::new();
        let mut model = Model::default();
        let mut clock = 0u64; // mirrors the sim's `now`
        let mut seq = 0u64;
        for round in 0..20_000u64 {
            let roll = lcg.next() % 100;
            if roll < 55 {
                // Mixed horizons: mostly short, some medium, a few far
                // beyond the wheel span (overflow path).
                let delay = match lcg.next() % 10 {
                    0..=5 => lcg.next() % 5_000,
                    6..=7 => lcg.next() % 5_000_000,
                    8 => lcg.next() % (1 << 34),
                    _ => (1 << 37) + lcg.next() % (1 << 40),
                };
                let at = clock + delay;
                wheel.insert(entry(at, seq));
                model.insert(at, seq);
                seq += 1;
            } else if roll < 95 {
                let got = wheel.pop().map(|e| (e.at.as_micros(), e.seq));
                let want = model.pop();
                assert_eq!(got, want, "divergence at round {round}");
                if let Some((at, _)) = got {
                    clock = clock.max(at);
                }
            } else {
                // Overshoot: pop, then re-file the entry unchanged. Its
                // deadline is at or after the cursor, so this is legal.
                if let Some(e) = wheel.pop() {
                    let (at, popped_seq) = (e.at.as_micros(), e.seq);
                    let want = model.pop();
                    assert_eq!(Some((at, popped_seq)), want, "divergence at round {round}");
                    clock = clock.max(at);
                    wheel.insert(e);
                    model.insert(at, popped_seq);
                }
            }
        }
        loop {
            let got = wheel.pop().map(|e| (e.at.as_micros(), e.seq));
            let want = model.pop();
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn len_tracks_all_three_stores() {
        let mut wheel = TimerWheel::new();
        wheel.insert(entry(5, 0)); // levels
        wheel.insert(entry(1 << 40, 1)); // overflow
        wheel.insert(entry(0, 2)); // the cursor's instant: now queue
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        // Cursor now at 5; a same-instant insert joins the now queue.
        wheel.insert(entry(5, 3));
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop().map(|e| e.seq), Some(3));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1));
        assert_eq!(wheel.len(), 0);
        assert!(wheel.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "behind the wheel cursor")]
    fn insert_behind_cursor_panics() {
        let mut wheel = TimerWheel::new();
        wheel.insert(entry(10, 0));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0)); // cursor → 10
        wheel.insert(entry(9, 1));
    }

    #[test]
    fn same_instant_burst_drains_in_seq_order() {
        // A scanner-style burst: thousands of entries on one tick,
        // inserted in scrambled seq order, with zero-delay refills
        // arriving mid-drain. Exercises the now-queue path that keeps
        // this linearithmic.
        let mut wheel = TimerWheel::new();
        let n = 5_000u64;
        for i in 0..n {
            let seq = (i * 2_654_435_761) % n; // scrambled, collision-free
            wheel.insert(entry(1_000, seq));
        }
        let mut prev = None;
        for drained in 0..n {
            let e = wheel.pop().expect("burst entry");
            assert_eq!(e.at.as_micros(), 1_000);
            assert!(prev.is_none_or(|p| p < e.seq), "seq order violated");
            prev = Some(e.seq);
            if drained == 0 {
                // Zero-delay schedules land behind everything buffered.
                wheel.insert(entry(1_000, n));
                wheel.insert(entry(1_000, n + 1));
            }
        }
        assert_eq!(wheel.pop().map(|e| e.seq), Some(n));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(n + 1));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn pop_batch_matches_pop_until_instant_changes() {
        // pop_batch must yield exactly the same stream as repeated
        // pop(), chunked at instant boundaries — including across the
        // now-queue and overflow paths.
        let build = || {
            let mut wheel = TimerWheel::new();
            let mut lcg = Lcg(77);
            for seq in 0..4_000u64 {
                // Heavy instant collisions plus a few overflow horizons.
                let at = match lcg.next() % 10 {
                    0..=6 => (lcg.next() % 50) * 1_000,
                    7..=8 => lcg.next() % 5_000_000,
                    _ => (1 << 37) + lcg.next() % 1_000,
                };
                wheel.insert(entry(at, seq));
            }
            wheel
        };
        let mut reference = build();
        let mut batched = build();
        let mut ref_stream = Vec::new();
        while let Some(e) = reference.pop() {
            ref_stream.push((e.at.as_micros(), e.seq));
        }
        let mut got_stream = Vec::new();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            batched.pop_batch(&mut buf);
            if buf.is_empty() {
                break;
            }
            let at = buf[0].at;
            assert!(buf.iter().all(|e| e.at == at), "batch spans instants");
            got_stream.extend(buf.iter().map(|e| (e.at.as_micros(), e.seq)));
        }
        assert_eq!(got_stream, ref_stream);
        assert_eq!(batched.len(), 0);
    }

    #[test]
    fn reset_empties_and_reuses_cleanly() {
        let mut wheel = TimerWheel::new();
        for seq in 0..100u64 {
            wheel.insert(entry(seq * 17, seq));
        }
        wheel.insert(entry(1 << 40, 100)); // overflow
        assert_eq!(wheel.pop().map(|e| e.seq), Some(0));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1)); // cursor → 17
        let inserts_before = wheel.stats().inserts;
        wheel.reset();
        assert_eq!(wheel.len(), 0);
        assert!(wheel.pop().is_none());
        assert_eq!(wheel.stats().inserts, inserts_before, "stats survive reset");
        // Behaves like a fresh wheel afterwards.
        for (seq, at) in [(0u64, 50u64), (1, 10), (2, 10), (3, 7000), (4, 10), (5, 0)] {
            wheel.insert(entry(at, seq));
        }
        let mut got = Vec::new();
        while let Some(e) = wheel.pop() {
            got.push((e.at.as_micros(), e.seq));
        }
        assert_eq!(got, vec![(0, 5), (10, 1), (10, 2), (10, 4), (50, 0), (7000, 3)]);
    }

    /// Capacity of every slot buffer, scratch last.
    fn slot_capacities(wheel: &TimerWheel<u64>) -> Vec<usize> {
        let mut caps: Vec<usize> =
            wheel.levels.iter().flat_map(|level| &level.slots).map(Vec::capacity).collect();
        caps.push(wheel.cascade_buf.capacity());
        caps
    }

    #[test]
    fn drained_slots_keep_only_small_buffers() {
        // Bursts of 1,000 entries at distinct deadlines filed at levels
        // 0–3; the coarser ones cascade through the finer levels on
        // their way to the now queue. Keeping every drained buffer
        // leaves a burst-sized one in each slot that ever held a burst.
        fn bursts(wheel: &mut TimerWheel<u64>, base: u64, seq: &mut u64) {
            for level in 0..4u32 {
                for k in 1..20u64 {
                    let at = base + (k << (SLOT_BITS * level)) + k;
                    for _ in 0..1_000 {
                        wheel.insert(entry(at, *seq));
                        *seq += 1;
                    }
                }
            }
        }
        let bound = (LEVELS * SLOTS + 1) * SLOT_KEEP;
        let mut wheel = TimerWheel::new();
        let mut seq = 0u64;
        bursts(&mut wheel, 0, &mut seq);
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop() {
            popped.push((e.at.as_micros(), e.seq));
        }
        assert_eq!(popped.len() as u64, seq);
        assert!(popped.is_sorted(), "pop order");
        assert!(wheel.stats().cascaded_entries > 0, "no cascade exercised");
        let caps = slot_capacities(&wheel);
        assert!(caps.iter().all(|&c| c <= SLOT_KEEP), "an empty slot kept a burst: {caps:?}");
        assert!(wheel.slot_capacity() <= bound, "{} > {bound}", wheel.slot_capacity());

        // A reset with bursts still filed drops their buffers too.
        let cursor = wheel.cursor;
        bursts(&mut wheel, cursor, &mut seq);
        for _ in 0..5_000 {
            wheel.pop();
        }
        assert!(wheel.len() > 0);
        wheel.reset();
        let caps = slot_capacities(&wheel);
        assert!(caps.iter().all(|&c| c <= SLOT_KEEP), "reset kept a burst: {caps:?}");
        assert!(wheel.slot_capacity() <= bound);
    }

    #[test]
    fn same_instant_across_levels_respects_seq() {
        // seq 0 lands at a coarse level; after the cursor advances to
        // the same instant via a level-0 insert with a LARGER seq, the
        // coarse entry must still pop first.
        let mut wheel = TimerWheel::new();
        wheel.insert(entry(100_000, 0)); // level ≥ 1 relative to cursor 0
        wheel.insert(entry(99_999, 1));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(1)); // cursor → 99_999
        wheel.insert(entry(100_000, 2)); // level 0 now, same at as seq 0
        assert_eq!(wheel.pop().map(|e| (e.at.as_micros(), e.seq)), Some((100_000, 0)));
        assert_eq!(wheel.pop().map(|e| e.seq), Some(2));
    }
}
