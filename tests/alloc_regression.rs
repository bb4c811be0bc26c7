//! Allocation-budget regression tests (DESIGN.md §8).
//!
//! Installs [`bench::CountingAlloc`] — the same counting global
//! allocator the pipeline benchmarks use — and pins two memory
//! invariants:
//!
//! 1. **Allocation pressure.** Enumerating a fixed 50-host world costs
//!    a bounded number of allocations per host. The zero-copy work in
//!    the server engine, enumerator, and codec (stack-rendered replies,
//!    LIST bodies rendered into one reused buffer, borrowed reply
//!    lines) is what keeps this low; a change that reintroduces
//!    per-event or per-reply heap churn fails here long before it shows
//!    up on a wall clock.
//! 2. **Peak live bytes.** A streamed study's live-heap high-water mark
//!    stays a fraction of the in-memory path's on the same world. This
//!    is the streaming pipeline's whole reason to exist — O(batch)
//!    instead of O(world) residency — expressed as a comparative
//!    ceiling so it holds on any machine and at any build profile.
//! 3. **Released worlds.** Once every host has been enumerated, the
//!    simulator holds a fraction of the heap the world took to build:
//!    each FTP engine drops its filesystem when its session closes.
//!
//! Ceilings are deliberately loose (~2x the measured cost) so they only
//! trip on structural regressions — an accidental `format!` in a
//! per-reply path multiplies the count, it doesn't nudge it.
//!
//! The allocator's counters are process-wide, so the tests serialize on
//! a mutex. Within one test they are exact even though world building
//! runs on several threads: every counter update is an atomic
//! read-modify-write (see `bench::alloc_counter`).

use enumerator::client::EnumResults;
use enumerator::{EnumConfig, Enumerator};
use ftp_study::{run_study, run_study_streamed, StreamOptions, StreamOutcome, StudyConfig};
use netsim::{EndpointId, SimDuration, Simulator};
use std::sync::Mutex;
use worldgen::{PopulationSpec, WorldTruth};
use zscan::{Blocklist, HostDiscovery, ScanConfig};

#[global_allocator]
static ALLOC: bench::CountingAlloc = bench::CountingAlloc::new();

/// Serializes the tests in this binary: they share the allocator's
/// process-wide counters.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 1;
const SERVERS: usize = 50;

/// Registers and arms an enumerator over every FTP host of `truth`;
/// `sim.run()` then enumerates them all.
fn arm_enumerator(sim: &mut Simulator, truth: &WorldTruth) -> (EndpointId, EnumResults) {
    let mut cfg = EnumConfig::new(std::net::Ipv4Addr::new(198, 108, 0, 1)).with_concurrency(64);
    cfg.request_gap = SimDuration::from_millis(10);
    let (en, results) = Enumerator::new(cfg, truth.ftp_addresses());
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    (id, results)
}

/// Enumerates the fixed world, counting only allocations made while the
/// event loop runs (world construction is setup cost, not the per-event
/// hot path this test pins). Returns `(records, allocs)`.
fn enumerate_world() -> (usize, u64) {
    let mut sim = Simulator::new(SEED);
    let spec = PopulationSpec::small(SEED, SERVERS);
    let truth = worldgen::build(&mut sim, &spec);
    let (_, results) = arm_enumerator(&mut sim, &truth);
    let before = bench::snapshot().allocs;
    sim.run();
    let allocs = bench::snapshot().allocs - before;
    let n = results.borrow().len();
    (n, allocs)
}

#[test]
fn enumeration_stays_under_allocation_budget() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // First run pays one-time lazy initialization; measure the second.
    let (warmup_records, _) = enumerate_world();
    assert!(warmup_records > 0, "world produced no records");

    let (records, total) = enumerate_world();
    assert_eq!(records, warmup_records, "enumeration must be deterministic");

    let per_host = total / SERVERS as u64;
    // Measured ~113 allocs/host after the zero-alloc session-loop pass
    // (borrowed codec lines, `ReplyBuf` reuse, commands rendered into a
    // reused buffer, listings parsed straight into the columnar file
    // table — down from ~3.8k); the ceiling is pinned at ~2.5x that
    // (counts are deterministic, so the headroom covers code drift, not
    // machine noise). Every build carries the obs calls, so the ceiling
    // also proves that instrumentation with no recorder installed costs
    // nothing on the per-event path.
    const CEILING: u64 = 280;
    assert!(
        per_host <= CEILING,
        "allocation budget blown: {per_host} allocs/host (total {total} for {SERVERS} hosts), \
         ceiling {CEILING}"
    );

    // Recorder neutrality: installing a recorder for one run and
    // removing it must leave the disabled path exactly where it was —
    // the same behavior and the same allocation count as the baseline.
    obs::install(Box::new(obs::CollectingRecorder::new(0, false)));
    let (recorded, _with_recorder_allocs) = enumerate_world();
    assert_eq!(recorded, warmup_records, "recorder must not change behavior");
    let report = obs::uninstall().expect("recorder installed").finish();
    assert!(
        report.metrics.counter(obs::Counter::SimEvents) > 0,
        "recorder observed the run"
    );
    let (after_records, after_allocs) = enumerate_world();
    assert_eq!(after_records, warmup_records, "behavior stable after uninstall");
    assert_eq!(
        after_allocs, total,
        "allocation count with the recorder uninstalled must match the baseline exactly"
    );
}

/// Live-heap ceiling after enumeration: every FTP engine drops its
/// filesystem and render scratch when its control session closes, so
/// once the records and the enumerator are gone the simulator holds
/// profiles, rebuild recipes and its own tables, not the world's trees.
#[test]
fn enumeration_releases_host_filesystems() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let spec = PopulationSpec::small(SEED, 150);
    let live = || bench::snapshot().live_bytes;
    let before = live();
    let mut sim = Simulator::new(SEED);
    let truth = worldgen::build(&mut sim, &spec);
    let world = live().saturating_sub(before);
    let (id, results) = arm_enumerator(&mut sim, &truth);
    sim.run();
    assert_eq!(results.borrow().len(), truth.hosts.len(), "every host enumerated");
    drop(results);
    drop(sim.take_endpoint(id));
    let held = live().saturating_sub(before);

    assert!(world > 0, "allocator saw no world — counter broken?");
    // Measured 0.35× (1.54 of 4.38 MB); engines that kept their trees
    // held 1.34×.
    let ceiling = (world as f64 * 0.7) as u64;
    assert!(
        held <= ceiling,
        "after enumeration the simulator holds {held} B, over {ceiling} B \
         (70% of the {world} B the world took to build) — host filesystems are not released"
    );
}

/// Builds the fixed world, counting every allocation the generator
/// makes. Unlike [`enumerate_world`] there is no setup to exclude:
/// world materialization *is* the stage under test. Returns
/// `(hosts, allocs)`.
fn generate_world() -> (usize, u64) {
    let mut sim = Simulator::new(SEED);
    let spec = PopulationSpec::small(SEED, SERVERS);
    let before = bench::snapshot().allocs;
    let truth = worldgen::build(&mut sim, &spec);
    let allocs = bench::snapshot().allocs - before;
    (truth.hosts.len(), allocs)
}

/// Runs a TCP/21 discovery sweep over the fixed world, counting only
/// allocations made from scanner construction onward (the world itself
/// is the worldgen stage's cost). Returns `(open_hosts, allocs)`.
fn scan_world() -> (usize, u64) {
    let mut sim = Simulator::new(SEED);
    let spec = PopulationSpec::small(SEED, SERVERS);
    let _truth = worldgen::build(&mut sim, &spec);
    let mut cfg = ScanConfig::tcp21(spec.space, 7);
    cfg.blocklist = Blocklist::new();
    let before = bench::snapshot().allocs;
    let (scanner, results) = HostDiscovery::new(cfg);
    let id = sim.register_endpoint(Box::new(scanner));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let allocs = bench::snapshot().allocs - before;
    let n = results.borrow().open.len();
    (n, allocs)
}

/// Worldgen stage budget: materializing a host against the arena VFS
/// allocates only for arena growth (node slab, interner, content
/// strings), not per-path or per-mtime `format!` churn. The scratch
/// threading through content.rs/campaigns.rs/population.rs is what
/// keeps this low; one revived `format!` in a per-file loop multiplies
/// the count.
#[test]
fn worldgen_stays_under_allocation_budget() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let (warmup_hosts, _) = generate_world();
    assert!(warmup_hosts > 0, "world produced no hosts");

    let (hosts, total) = generate_world();
    assert_eq!(hosts, warmup_hosts, "worldgen must be deterministic");

    let per_host = total / SERVERS as u64;
    // Measured ~111 allocs/host after the arena-VFS pass (the HashMap
    // VFS cost thousands); the ceiling is ~2x the measurement. Counts
    // are deterministic, so the headroom covers code drift, not noise.
    const CEILING: u64 = 250;
    assert!(
        per_host <= CEILING,
        "worldgen budget blown: {per_host} allocs/host (total {total} for {SERVERS} hosts), \
         ceiling {CEILING}"
    );
}

/// Scan stage budget: the discovery sweep's bookkeeping is a flat
/// slot-indexed table (2 B per address, one allocation up front), so
/// per-probe tracking allocates nothing. What remains is simulator
/// event churn and the result vectors; a revived per-target map entry
/// or per-probe allocation multiplies the count.
#[test]
fn scan_stays_under_allocation_budget() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let (warmup_open, _) = scan_world();
    assert!(warmup_open > 0, "scan found no open hosts");

    let (open, total) = scan_world();
    assert_eq!(open, warmup_open, "scan must be deterministic");

    let per_host = total / SERVERS as u64;
    // Measured ~16 allocs/host — the sweep's tracking is one up-front
    // slot-table allocation, so what remains is simulator plumbing and
    // the result vectors; ceiling ~2.5x. A revived per-target map blows
    // straight through it (the old HashMap cost ~16k allocs/host here).
    const CEILING: u64 = 40;
    assert!(
        per_host <= CEILING,
        "scan budget blown: {per_host} allocs/host (total {total} for {SERVERS} hosts), \
         ceiling {CEILING}"
    );
}

/// Peak-live-bytes ceiling for the streaming pipeline: on the same
/// world, a streamed run's live-heap high-water mark must stay well
/// under the in-memory path's, which holds every `HostRecord` (file
/// listings included) until the end. One shard on both sides.
#[test]
fn streamed_study_peak_heap_stays_bounded() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let cfg = StudyConfig::small(SEED, 150);

    // Warm both paths once so lazy initialization doesn't count.
    let warm = run_study(&cfg);
    assert!(!warm.records.is_empty());
    drop(warm);

    bench::reset();
    let results = run_study(&cfg);
    let legacy_peak = bench::peak_growth_since_reset();
    assert!(!results.records.is_empty());
    drop(results);

    // 8 batches: small enough that the record vector never forms,
    // large enough that per-batch overhead stays secondary.
    let opts = StreamOptions::new(25);
    bench::reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_peak = bench::peak_growth_since_reset();
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }

    assert!(streamed_peak > 0, "allocator saw no streamed allocations — counter broken?");
    // Measured at 0.54 (3.6 MB against 6.7 MB, the same in debug and
    // release): the streamed side's peak is its shard's scan order,
    // split per batch, not its records. 0.7 is the
    // structural-regression tripwire (e.g. batching silently
    // re-accumulating records).
    let ceiling = (legacy_peak as f64 * 0.7) as u64;
    assert!(
        streamed_peak <= ceiling,
        "streamed peak heap {streamed_peak} B exceeds {ceiling} B \
         (70% of in-memory peak {legacy_peak} B) — streaming is no longer bounded-memory"
    );
}

/// Peak-live-bytes ceiling with the flight recorder on: per-batch
/// journal flushing must keep a streamed run's high-water mark a
/// fraction of the in-memory path's, which holds every probed address's
/// journal in the recorder until shard end. Same 0.7 tripwire as the
/// baseline streaming test — if flushing silently stops draining (or
/// drains without rendering), the streamed side re-accumulates
/// O(space) journals and blows through it.
#[test]
fn streamed_study_peak_heap_stays_bounded_with_journaling() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let mut cfg = StudyConfig::small(SEED, 150);
    cfg.obs = obs::ObsConfig { journal: true, ..obs::ObsConfig::default() };
    let journal = std::env::temp_dir()
        .join(format!("ftpcloud_alloc_journal_{}.jsonl", std::process::id()));
    let opts = StreamOptions {
        journal_path: Some(journal.clone()),
        ..StreamOptions::new(25)
    };

    // Host rows and silent addresses: what a journal accounts for.
    let addresses = |text: &str| {
        let file = obs::JournalFile::parse(text).expect("journal parses");
        (file.hosts.len(), file.silent())
    };

    // Warm both paths once so lazy initialization doesn't count.
    drop(run_study(&cfg));
    drop(run_study_streamed(&cfg, &opts));

    bench::reset();
    let results = run_study(&cfg);
    let legacy_peak = bench::peak_growth_since_reset();
    let in_memory = addresses(results.obs.as_ref().expect("journaling requested").journal.as_str());
    assert!(in_memory.0 > 0, "in-memory path collected journals");
    drop(results);

    bench::reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_peak = bench::peak_growth_since_reset();
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
    let flushed = std::fs::read_to_string(&journal).expect("journal written");
    let _ = std::fs::remove_file(&journal);
    assert_eq!(
        addresses(&flushed),
        in_memory,
        "streamed flushing must cover every address the in-memory path journals"
    );

    let ceiling = (legacy_peak as f64 * 0.7) as u64;
    assert!(
        streamed_peak <= ceiling,
        "streamed+journal peak heap {streamed_peak} B exceeds {ceiling} B \
         (70% of in-memory peak {legacy_peak} B) — per-batch journal flushing regressed"
    );
}

/// Allocation-count ceiling for the streaming pipeline, pinned as a
/// ratio against the in-memory path on the same world. The perf-wave-2
/// diet (one `Simulator` arena per shard reset between batches, a
/// single orbit walk split per batch, plan bucketing) brought streamed
/// allocs from 2.3× the in-memory path to ~1.01×; this test is the
/// tripwire that keeps the diet from silently regressing — a revived
/// per-`(shard, batch)` rebuild multiplies the count, it doesn't nudge
/// it.
#[test]
fn streamed_study_allocation_count_stays_near_in_memory_path() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let cfg = StudyConfig::small(SEED, 150);
    let opts = StreamOptions::new(25);

    // Warm both paths once so lazy initialization doesn't count.
    drop(run_study(&cfg));
    drop(run_study_streamed(&cfg, &opts));

    bench::reset();
    let results = run_study(&cfg);
    let legacy_allocs = bench::snapshot().allocs;
    assert!(!results.records.is_empty());
    drop(results);

    bench::reset();
    let outcome = run_study_streamed(&cfg, &opts).expect("streamed study runs");
    let streamed_allocs = bench::snapshot().allocs;
    match outcome {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }

    assert!(streamed_allocs > 0, "allocator saw no streamed allocations — counter broken?");
    let ceiling = (legacy_allocs as f64 * 1.5) as u64;
    assert!(
        streamed_allocs <= ceiling,
        "streamed study made {streamed_allocs} allocs vs {legacy_allocs} in-memory \
         (ceiling 1.5×) — the streaming allocation diet regressed"
    );
}

/// Allocation-count ceiling for the flight recorder: a study with the
/// journal on, rendered to JSONL, makes at most 1.5× the allocations of
/// the same study with it off (metrics on in both). The recorder appends
/// fixed-size entries to one flat log and renders every line into one
/// buffer, so journaling costs a few dozen buffer growths, not
/// allocations per probed address; a per-address record or per-line
/// `String` multiplies the count (by ~40× on this world).
#[test]
fn journaled_study_allocation_count_stays_near_unjournaled() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let mut cfg = StudyConfig::small(SEED, 150).with_fault_fraction(0.5);
    cfg.obs = obs::ObsConfig { metrics: true, ..obs::ObsConfig::default() };
    let mut journaled = cfg.clone();
    journaled.obs.journal = true;

    // Warm both configurations once so lazy initialization doesn't count.
    drop(run_study(&cfg));
    drop(run_study(&journaled));

    bench::reset();
    let results = run_study(&cfg);
    let plain_allocs = bench::snapshot().allocs;
    drop(results);

    bench::reset();
    let results = run_study(&journaled);
    let journal = results.obs.as_ref().expect("journaling requested").journal_jsonl();
    let journaled_allocs = bench::snapshot().allocs;
    let file = obs::JournalFile::parse(&journal).expect("journal parses");
    assert_eq!(
        file.hosts.len() as u64 + file.silent(),
        results.ips_scanned,
        "rows plus tallies cover every probed address"
    );
    drop(results);

    assert!(plain_allocs > 0, "allocator saw no allocations — counter broken?");
    let ceiling = (plain_allocs as f64 * 1.5) as u64;
    assert!(
        journaled_allocs <= ceiling,
        "journaled study made {journaled_allocs} allocs vs {plain_allocs} without the journal \
         (ceiling 1.5×) — the flight recorder allocates per address again"
    );
}
