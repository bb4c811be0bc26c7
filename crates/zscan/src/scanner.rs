//! The host-discovery scanner: paced, stateless SYN probing of an
//! address space through the simulator.

use crate::blocklist::Blocklist;
use crate::cyclic::CyclicPermutation;
use netsim::ip::{batch_of, shard_of};
use netsim::{Ctx, Endpoint, Ipv4Net, ProbeStatus, SimDuration};
use std::net::Ipv4Addr;

/// Hash-based shard filter: probe only the addresses that
/// [`netsim::ip::shard_of`] assigns to `index` of `shards` under
/// `seed`.
///
/// A hash shard selects a slice of the *address space itself*, matching
/// how the sharded study runner partitions worldgen: each worker's
/// scanner probes exactly the addresses whose hosts were materialized
/// in its simulator. It is the scanner's only partition; ZMap's
/// orbit sharding is not reproduced (see [`CyclicPermutation::iter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashShard {
    /// Hash seed; must match the partitioning side (worldgen).
    pub seed: u64,
    /// This shard's index in `0..shards`.
    pub index: u64,
    /// Total shard count.
    pub shards: u64,
}

impl HashShard {
    /// Whether `ip` belongs to this shard.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        shard_of(self.seed, ip, self.shards) == self.index
    }
}

/// Hash-based batch filter: probe only the addresses that
/// [`netsim::ip::batch_of`] assigns to `index` of `batches` under
/// `seed`.
///
/// The streaming study runner sweeps a shard's address slice in
/// sequential batches — one bounded simulator lifetime per batch — and
/// this filter is the scan-side half of that partition (worldgen's
/// batched materialization is the other). It composes with
/// [`HashShard`]: an address is probed when *both* filters accept it,
/// so the `(shard, batch)` grid covers the space exactly once. Note
/// this is unrelated to [`ScanConfig::batch`], which is the pacing
/// burst size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashBatch {
    /// Hash seed; must match the partitioning side (worldgen).
    pub seed: u64,
    /// This batch's index in `0..batches`.
    pub index: u64,
    /// Total batch count.
    pub batches: u64,
}

impl HashBatch {
    /// Whether `ip` belongs to this batch.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        batch_of(self.seed, ip, self.batches) == self.index
    }
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Address space to sweep.
    pub space: Ipv4Net,
    /// TCP port to probe (21 for the study).
    pub port: u16,
    /// Probes sent per pacing tick.
    pub batch: usize,
    /// Interval between pacing ticks.
    pub tick: SimDuration,
    /// Permutation seed (scan order).
    pub seed: u64,
    /// SYN probes sent per address (ZMap's `-P`); extra probes recover
    /// targets whose first probe (or its answer) was lost.
    pub probes_per_target: u8,
    /// Optional hash-based address filter (see [`HashShard`]);
    /// addresses outside the hash shard are skipped before pacing,
    /// blocklisting, or probing, so counters reflect only this shard's
    /// slice of the space.
    pub hash_shard: Option<HashShard>,
    /// Optional hash-based batch filter (see [`HashBatch`]); composed
    /// with `hash_shard`, selecting one cell of the `(shard, batch)`
    /// grid for streamed studies.
    pub hash_batch: Option<HashBatch>,
    /// Addresses never probed.
    pub blocklist: Blocklist,
    /// Schedule each probe as its own simulator event instead of the
    /// default batched [`netsim::Ctx::probe_batch`] per pacing tick.
    /// The two paths are byte-identical in every observable (results,
    /// callback order, RNG stream); this knob exists so the workspace's
    /// equivalence matrix (`tests/equivalence/mod.rs`), which turns it on,
    /// can prove that, and as an escape hatch while doing so.
    pub per_probe_events: bool,
}

impl ScanConfig {
    /// A scan of `space` on TCP/21 with a sensible default rate and the
    /// standard blocklist.
    pub fn tcp21(space: Ipv4Net, seed: u64) -> Self {
        ScanConfig {
            space,
            port: 21,
            batch: 512,
            tick: SimDuration::from_millis(10),
            seed,
            probes_per_target: 1,
            hash_shard: None,
            hash_batch: None,
            blocklist: Blocklist::standard(),
            per_probe_events: false,
        }
    }

    /// Hands `f` each index of the permutation order this config
    /// sweeps, in order, without collecting them: the permutation's
    /// orbit, filtered by the hash shard/batch filters, as permutation
    /// indices into `space`. This lets a caller that runs many scans
    /// over one space (the streaming study runner's batch grid) walk
    /// the orbit once and split it as it goes, feeding each piece to
    /// [`HostDiscovery::with_order`], without holding the whole orbit
    /// next to its pieces.
    pub fn walk_order(&self, mut f: impl FnMut(u64)) {
        let perm = CyclicPermutation::new(self.space.size(), self.seed);
        for ix in perm.iter() {
            let ip = self.space.addr_at(ix);
            if self.hash_shard.is_none_or(|hs| hs.contains(ip))
                && self.hash_batch.is_none_or(|hb| hb.contains(ip))
            {
                f(ix);
            }
        }
    }

    /// Materializes the order [`Self::walk_order`] walks. This is
    /// exactly the list [`HostDiscovery::new`] computes.
    pub fn materialize_order(&self) -> Vec<u64> {
        let mut order = Vec::new();
        self.walk_order(|ix| order.push(ix));
        order
    }
}

/// Scan outcome counters and the responsive-host list.
#[derive(Debug, Clone, Default)]
pub struct ScanResults {
    /// Addresses that answered SYN-ACK, in discovery order.
    pub open: Vec<Ipv4Addr>,
    /// Count of RST answers.
    pub closed: u64,
    /// Count of timeouts/drops.
    pub filtered: u64,
    /// Probes actually sent (excludes blocklisted skips).
    pub probes_sent: u64,
    /// Addresses skipped due to the blocklist.
    pub blocked: u64,
}

/// Per-address probe state, two bytes in the scanner's dense table.
/// `remaining == 0` doubles as "not outstanding" — an address that was
/// never probed and one whose verdict is already recorded look the
/// same, and both ignore further answers.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeSlot {
    /// Answers still expected; 0 = not outstanding.
    remaining: u8,
    /// Best status seen so far, ranked 0 = Filtered, 1 = Closed,
    /// 2 = Open (the scanner's status preference order).
    best: u8,
}

fn rank(s: ProbeStatus) -> u8 {
    match s {
        ProbeStatus::Open => 2,
        ProbeStatus::Closed => 1,
        ProbeStatus::Filtered => 0,
    }
}

/// Stable label for a probe status / verdict, used in host journals.
fn status_label(rank: u8) -> &'static str {
    match rank {
        2 => "open",
        1 => "closed",
        _ => "filtered",
    }
}

/// Bytes of sweep state a [`HostDiscovery`] holds, by structure:
/// allocated capacity, so a buffer the sweep has walked past still
/// counts until it is freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanFootprint {
    /// The materialized probe order.
    pub order: usize,
    /// The per-address probe-slot table.
    pub slots: usize,
}

/// The scanning endpoint. Register it, bind nothing, and kick it with a
/// timer; when the simulator drains, read [`HostDiscovery`]'s results via
/// the shared handle returned by [`HostDiscovery::new`].
///
/// Probe tracking is ZMap-style stateless: instead of a per-target hash
/// map churning an insert and a remove per address, state lives in a
/// flat `ProbeSlot` table indexed by the address's offset in
/// `cfg.space` ([`Ipv4Net::index_of`]) — one allocation for the whole
/// sweep, O(1) untouched lookups, nothing per host.
///
/// The order and the slot table live only as long as the sweep: once
/// the order is exhausted and every probed address has its verdict,
/// both are freed, though the endpoint stays registered until its
/// simulator is dropped or reset. A straggler answer after that finds
/// no slot and is ignored, as an answer for a resolved address always
/// was.
#[derive(Debug)]
pub struct HostDiscovery {
    cfg: ScanConfig,
    /// Permutation indices to probe (pre-materialized for the shard);
    /// `next` is the first not yet taken.
    order: Vec<u64>,
    next: usize,
    /// Dense per-address probe state, indexed by position in
    /// `cfg.space`.
    slots: Vec<ProbeSlot>,
    /// Addresses still awaiting a verdict (the count of live slots).
    outstanding: usize,
    /// Reused per-tick probe target scratch (one element per probe, so
    /// a K-probes-per-target address appears K times in a row).
    targets: Vec<Ipv4Addr>,
    results: std::rc::Rc<std::cell::RefCell<ScanResults>>,
    done: bool,
}

impl HostDiscovery {
    /// Builds the scanner and returns it with a shared handle to its
    /// results (readable after the simulation drains).
    pub fn new(cfg: ScanConfig) -> (Self, std::rc::Rc<std::cell::RefCell<ScanResults>>) {
        let order = cfg.materialize_order();
        HostDiscovery::with_order(cfg, order)
    }

    /// Builds the scanner around a precomputed probe order (permutation
    /// indices into `cfg.space`, normally from
    /// [`ScanConfig::materialize_order`] or a cached split of it). The
    /// order is trusted as-is: `cfg`'s hash filters are *not*
    /// re-applied.
    pub fn with_order(
        cfg: ScanConfig,
        order: Vec<u64>,
    ) -> (Self, std::rc::Rc<std::cell::RefCell<ScanResults>>) {
        let results = std::rc::Rc::new(std::cell::RefCell::new(ScanResults::default()));
        let slots = vec![ProbeSlot::default(); cfg.space.size() as usize];
        if obs::enabled() {
            obs::counter(obs::Counter::ScanSlots, slots.len() as u64);
        }
        (
            HostDiscovery {
                cfg,
                order,
                next: 0,
                slots,
                outstanding: 0,
                targets: Vec::new(),
                results: results.clone(),
                done: false,
            },
            results,
        )
    }

    /// Bytes of sweep state the scanner still holds.
    pub fn footprint(&self) -> ScanFootprint {
        ScanFootprint {
            order: self.order.capacity() * std::mem::size_of::<u64>(),
            slots: self.slots.capacity() * std::mem::size_of::<ProbeSlot>(),
        }
    }

    /// Frees the order and the slot table once the sweep is complete:
    /// the order is exhausted and no probed address awaits a verdict.
    fn release_if_swept(&mut self) {
        if self.done && self.outstanding == 0 {
            self.order = Vec::new();
            self.slots = Vec::new();
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        // Collect the tick's targets first, then hand the whole burst
        // to the simulator in one call — by default one queue entry per
        // distinct answer deadline instead of one per probe. Deferring
        // the sends does not reorder anything observable: nothing in
        // this loop touches the sim RNG or schedules events, so the
        // probes' RNG draws and sequence numbers are consecutive
        // exactly as in the probe-per-iteration formulation.
        self.targets.clear();
        let probes = self.cfg.probes_per_target.max(1);
        let mut sent = 0;
        let mut blocked = 0u64;
        while sent < self.cfg.batch {
            let Some(&ix) = self.order.get(self.next) else {
                self.done = true;
                break;
            };
            self.next += 1;
            let ip = self.cfg.space.addr_at(ix);
            if self.cfg.blocklist.is_blocked(ip) {
                blocked += 1;
                continue;
            }
            for k in 0..probes {
                self.targets.push(ip);
                obs::journal!(ip, obs::JournalEvent::ProbeSent { attempt: k + 1 });
            }
            // `ix` is the address's offset in the space — the slot index.
            self.slots[ix as usize] = ProbeSlot { remaining: probes, best: 0 };
            self.outstanding += 1;
            sent += 1;
        }
        if self.cfg.per_probe_events {
            for &ip in &self.targets {
                ctx.probe(ip, self.cfg.port);
            }
        } else {
            ctx.probe_batch(&self.targets, self.cfg.port);
        }
        self.release_if_swept();
        let mut r = self.results.borrow_mut();
        r.blocked += blocked;
        r.probes_sent += self.targets.len() as u64;
    }
}

impl Endpoint for HostDiscovery {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.pump(ctx);
        if !self.done {
            let tick = self.cfg.tick;
            ctx.set_timer(tick, 0);
        }
    }

    fn on_probe(&mut self, _ctx: &mut Ctx<'_>, target: Ipv4Addr, _port: u16, status: ProbeStatus) {
        let Some(ix) = self.cfg.space.index_of(target) else { return };
        obs::journal!(target, obs::JournalEvent::ProbeReply { status: status_label(rank(status)) });
        // No slot once the sweep is complete and its table freed.
        let Some(slot) = self.slots.get_mut(ix as usize) else { return };
        if slot.remaining == 0 {
            // Never probed, or verdict already recorded (an Open answer
            // resolves early; stragglers land here).
            return;
        }
        // Status preference: Open > Closed > Filtered.
        slot.best = slot.best.max(rank(status));
        slot.remaining -= 1;
        if slot.remaining == 0 || slot.best == rank(ProbeStatus::Open) {
            let best = slot.best;
            slot.remaining = 0;
            self.outstanding -= 1;
            obs::journal!(target, obs::JournalEvent::ProbeVerdict { verdict: status_label(best) });
            let mut r = self.results.borrow_mut();
            match best {
                2 => r.open.push(target),
                1 => r.closed += 1,
                _ => r.filtered += 1,
            }
            if obs::enabled() && self.done && self.outstanding == 0 {
                obs::event!(
                    "zscan.sweep_done",
                    open = r.open.len(),
                    closed = r.closed,
                    filtered = r.filtered,
                    probes_sent = r.probes_sent,
                    blocked = r.blocked,
                );
            }
            drop(r);
            self.release_if_swept();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, Simulator};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    struct Sink;
    impl Endpoint for Sink {}

    /// Builds a /24 world: .1..=.20 run a bound service on 21, .21..=.40
    /// exist with the port closed, and every other address has no host.
    fn build_world(sim: &mut Simulator) {
        let svc = sim.register_endpoint(Box::new(Sink));
        for i in 1..=20u8 {
            sim.bind(Ipv4Addr::new(100, 0, 0, i), 21, svc);
        }
        for i in 21..=40u8 {
            sim.add_host(Ipv4Addr::new(100, 0, 0, i));
        }
    }

    #[test]
    fn scan_classifies_open_closed_filtered() {
        let mut sim = Simulator::new(42);
        build_world(&mut sim);
        let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
        let mut cfg = ScanConfig::tcp21(space, 9);
        cfg.blocklist = Blocklist::new();
        let (scanner, results) = HostDiscovery::new(cfg);
        let id = sim.register_endpoint(Box::new(scanner));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        let r = results.borrow();
        assert_eq!(r.open.len(), 20);
        assert_eq!(r.closed, 20);
        // 216 addresses with no host.
        assert_eq!(r.filtered, 216);
        assert_eq!(r.probes_sent, 256);
    }

    #[test]
    fn open_list_is_permuted_not_sequential() {
        let mut sim = Simulator::new(42);
        let svc = sim.register_endpoint(Box::new(Sink));
        for i in 0..=255u8 {
            sim.bind(Ipv4Addr::new(100, 0, 0, i), 21, svc);
        }
        let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
        let mut cfg = ScanConfig::tcp21(space, 5);
        cfg.blocklist = Blocklist::new();
        cfg.batch = 256; // one burst so arrival order ≈ send order modulo latency
        let (scanner, results) = HostDiscovery::new(cfg);
        let id = sim.register_endpoint(Box::new(scanner));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        let r = results.borrow();
        assert_eq!(r.open.len(), 256);
        let sorted = {
            let mut s = r.open.clone();
            s.sort();
            s
        };
        assert_ne!(r.open, sorted);
    }

    #[test]
    fn blocklist_suppresses_probes() {
        let mut sim = Simulator::new(42);
        build_world(&mut sim);
        let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
        let mut cfg = ScanConfig::tcp21(space, 9);
        let mut bl = Blocklist::new();
        bl.exclude("100.0.0.0/25".parse().unwrap()); // blocks .0-.127, i.e. all live hosts
        cfg.blocklist = bl;
        let (scanner, results) = HostDiscovery::new(cfg);
        let id = sim.register_endpoint(Box::new(scanner));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        let r = results.borrow();
        assert_eq!(r.open.len(), 0);
        assert_eq!(r.blocked, 128);
        assert_eq!(r.probes_sent, 128);
    }

    #[test]
    fn hash_shards_cover_space_exactly_once() {
        let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
        let shards = 4u64;
        let mut total_open = 0;
        let mut total_probes = 0;
        let mut seen: std::collections::HashSet<Ipv4Addr> = std::collections::HashSet::new();
        for index in 0..shards {
            let mut sim = Simulator::new(42);
            build_world(&mut sim);
            let mut cfg = ScanConfig::tcp21(space, 9);
            cfg.blocklist = Blocklist::new();
            cfg.hash_shard = Some(HashShard { seed: 42, index, shards });
            let (scanner, results) = HostDiscovery::new(cfg);
            let id = sim.register_endpoint(Box::new(scanner));
            sim.schedule_timer(id, SimDuration::ZERO, 0);
            sim.run();
            let r = results.borrow();
            total_open += r.open.len();
            total_probes += r.probes_sent;
            for &ip in &r.open {
                assert!(seen.insert(ip), "{ip} discovered by two shards");
            }
        }
        assert_eq!(total_open, 20, "hash shards find each open host exactly once");
        assert_eq!(total_probes, space.size(), "hash shards probe each address exactly once");
    }

    #[test]
    fn shard_batch_grid_covers_space_exactly_once() {
        // One scan per (shard, batch) cell: the union must equal one
        // unsharded sweep, with no address probed twice — the coverage
        // contract the streaming study runner builds on.
        let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
        let (shards, batches) = (2u64, 3u64);
        let mut total_open = 0;
        let mut total_probes = 0;
        let mut seen: std::collections::HashSet<Ipv4Addr> = std::collections::HashSet::new();
        for index in 0..shards {
            for b in 0..batches {
                let mut sim = Simulator::new(42);
                build_world(&mut sim);
                let mut cfg = ScanConfig::tcp21(space, 9);
                cfg.blocklist = Blocklist::new();
                cfg.hash_shard = Some(HashShard { seed: 42, index, shards });
                cfg.hash_batch = Some(HashBatch { seed: 42, index: b, batches });
                let (scanner, results) = HostDiscovery::new(cfg);
                let id = sim.register_endpoint(Box::new(scanner));
                sim.schedule_timer(id, SimDuration::ZERO, 0);
                sim.run();
                let r = results.borrow();
                total_open += r.open.len();
                total_probes += r.probes_sent;
                for &ip in &r.open {
                    assert!(seen.insert(ip), "{ip} discovered by two grid cells");
                }
            }
        }
        assert_eq!(total_open, 20, "grid cells find each open host exactly once");
        assert_eq!(total_probes, space.size(), "grid cells probe each address exactly once");
    }

    #[test]
    fn retries_recover_lossy_targets() {
        use netsim::SimConfig;
        // With 60% probe loss, one probe misses many hosts; five probes
        // per target recover nearly all of them.
        let run = |probes: u8| {
            let cfg_sim = SimConfig { probe_loss: 0.6 };
            let mut sim = Simulator::with_config(42, cfg_sim);
            build_world(&mut sim);
            let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
            let mut cfg = ScanConfig::tcp21(space, 9);
            cfg.blocklist = Blocklist::new();
            cfg.probes_per_target = probes;
            let (scanner, results) = HostDiscovery::new(cfg);
            let id = sim.register_endpoint(Box::new(scanner));
            sim.schedule_timer(id, SimDuration::ZERO, 0);
            sim.run();
            let n = results.borrow().open.len();
            n
        };
        let single = run(1);
        let retried = run(5);
        assert!(single < 20, "loss must bite: {single}");
        assert!(retried > single, "{retried} vs {single}");
        // With 5 probes at 60% loss each host is missed with p = 0.6^5
        // ≈ 7.8%, so ~18.4 of 20 recover in expectation. Assert ≥ 16
        // (mean - 2.5σ) to stay robust to the RNG stream.
        assert!(retried >= 16, "retries recover most hosts: {retried}");
    }

    /// Forwards the simulator's calls to a scanner the test keeps a
    /// handle on, and checks every answer that arrives once the
    /// scanner has freed its sweep state: it must change no count.
    struct Watched {
        scanner: Rc<RefCell<HostDiscovery>>,
        results: Rc<RefCell<ScanResults>>,
        late_answers: Rc<Cell<usize>>,
    }

    impl Endpoint for Watched {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.scanner.borrow_mut().on_timer(ctx, token);
        }

        fn on_probe(
            &mut self,
            ctx: &mut Ctx<'_>,
            target: Ipv4Addr,
            port: u16,
            status: ProbeStatus,
        ) {
            let counts = |r: &ScanResults| (r.open.clone(), r.closed, r.filtered, r.probes_sent);
            let released = self.scanner.borrow().footprint() == ScanFootprint::default();
            let before = counts(&self.results.borrow());
            self.scanner.borrow_mut().on_probe(ctx, target, port, status);
            if released {
                self.late_answers.set(self.late_answers.get() + 1);
                assert_eq!(counts(&self.results.borrow()), before, "straggler from {target}");
            }
        }
    }

    #[test]
    fn completed_sweep_frees_its_order_and_slots() {
        let mut sim = Simulator::new(42);
        let svc = sim.register_endpoint(Box::new(Sink));
        for i in 0..16u8 {
            sim.bind(Ipv4Addr::new(100, 0, 0, i), 21, svc);
        }
        let space: Ipv4Net = "100.0.0.0/28".parse().unwrap();
        let mut cfg = ScanConfig::tcp21(space, 9);
        cfg.blocklist = Blocklist::new();
        // Every address is open and probed twice: its first answer
        // settles it, so the second is a straggler, and the last
        // address's straggler arrives after the sweep completes.
        cfg.probes_per_target = 2;
        let (scanner, results) = HostDiscovery::new(cfg);
        assert_eq!(scanner.footprint(), ScanFootprint { order: 16 * 8, slots: 16 * 2 });
        let scanner = Rc::new(RefCell::new(scanner));
        let late_answers = Rc::new(Cell::new(0));
        let watched = Watched {
            scanner: scanner.clone(),
            results: results.clone(),
            late_answers: late_answers.clone(),
        };
        let id = sim.register_endpoint(Box::new(watched));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(scanner.borrow().footprint(), ScanFootprint::default());
        assert!(late_answers.get() > 0, "no answer arrived after the release");
        let r = results.borrow();
        assert_eq!(r.open.len(), 16);
        assert_eq!((r.closed, r.filtered, r.probes_sent), (0, 0, 32));
    }

    #[test]
    fn pacing_spreads_probes_over_time() {
        let mut sim = Simulator::new(42);
        build_world(&mut sim);
        let space: Ipv4Net = "100.0.0.0/24".parse().unwrap();
        let mut cfg = ScanConfig::tcp21(space, 9);
        cfg.blocklist = Blocklist::new();
        cfg.batch = 16; // 256 probes / 16 per tick = 16 ticks
        cfg.tick = SimDuration::from_millis(100);
        let (scanner, results) = HostDiscovery::new(cfg);
        let id = sim.register_endpoint(Box::new(scanner));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(results.borrow().probes_sent, 256);
        // 16 ticks at 100ms = at least 1.5s of simulated pacing.
        assert!(sim.now().as_micros() >= 1_500_000, "{}", sim.now());
    }
}
