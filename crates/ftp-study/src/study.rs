//! The end-to-end study pipeline: worldgen → host discovery →
//! enumeration → HTTP sweep.
//!
//! This module holds the study's configuration and results, and the
//! measurement stages every `(shard, batch)` cell runs
//! (`run_partition`). The shard loop that drives them is
//! [`crate::stream`]'s. [`run_study_sharded`] is that loop at one
//! batch per shard: it keeps every cell whole and merges the shards to
//! the same bytes at any shard count.

use crate::stream::{run_shard_batches, run_shards};
use crate::webprobe::{HttpObservation, WebProbe};
use analysis::StreamingAggregate;
use enumerator::{BounceCollector, EnumConfig, Enumerator, HostRecord, RunSummary};
use ftp_proto::HostPort;
use netsim::{AsRegistry, Endpoint, SimDuration, Simulator};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::net::Ipv4Addr;
use std::rc::Rc;
use worldgen::{PopulationSpec, WorldTruth};
use zscan::{Blocklist, HashBatch, HashShard, ScanConfig, ScanResults};

/// Addresses the study's own machines occupy (outside the population
/// space).
const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 1);
const COLLECTOR_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 2);
const WEB_IP: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 3);
const COLLECTOR_PORT: u16 = 2121;

/// Study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// World generation parameters.
    pub population: PopulationSpec,
    /// Enumerator request cap (paper: 500).
    pub request_cap: u32,
    /// Enumerator concurrency.
    pub concurrency: usize,
    /// Probe `PORT` validation (§VII-B).
    pub probe_bounce: bool,
    /// Sweep HTTP for the §VI-B overlap.
    pub probe_http: bool,
    /// Honor robots.txt (ablation switch).
    pub respect_robots: bool,
    /// Strict-RFC reply parsing (ablation switch).
    pub strict_replies: bool,
    /// Inter-command gap; the paper's 2 req/s is 500 ms, but simulated
    /// time is free so the default keeps it faithful.
    pub request_gap: SimDuration,
    /// Observability collection switches. Default-off, which guarantees
    /// the study output stays byte-identical to an uninstrumented run;
    /// any flag set installs a per-shard [`obs::CollectingRecorder`]
    /// whose merged [`obs::Report`] lands in [`StudyResults::obs`].
    pub obs: obs::ObsConfig,
    /// Schedule every discovery probe as its own simulator event instead
    /// of the default one-batch-per-pacing-tick drain (see
    /// [`zscan::ScanConfig::per_probe_events`]). Results are
    /// byte-identical either way; the equivalence matrix
    /// (`tests/equivalence/mod.rs`) turns this on to prove it.
    pub per_probe_events: bool,
}

impl StudyConfig {
    /// Paper-faithful configuration over the given population.
    pub fn new(population: PopulationSpec) -> Self {
        StudyConfig {
            population,
            request_cap: 500,
            concurrency: 256,
            probe_bounce: true,
            probe_http: true,
            respect_robots: true,
            strict_replies: false,
            request_gap: SimDuration::from_millis(500),
            obs: obs::ObsConfig::default(),
            per_probe_events: false,
        }
    }

    /// A small, fast configuration for tests.
    pub fn small(seed: u64, servers: usize) -> Self {
        let mut cfg = StudyConfig::new(PopulationSpec::small(seed, servers));
        cfg.request_gap = SimDuration::from_millis(10);
        cfg
    }

    /// Builder: make a fraction of the population hostile (see
    /// [`worldgen::PopulationSpec::fault_fraction`]).
    pub fn with_fault_fraction(mut self, fraction: f64) -> Self {
        self.population = self.population.with_fault_fraction(fraction);
        self
    }
}

/// Everything the pipeline measured, plus ground truth for validation.
#[derive(Debug)]
pub struct StudyResults {
    /// Ground truth (never consulted by the analyses).
    pub truth: WorldTruth,
    /// Addresses probed by host discovery.
    pub ips_scanned: u64,
    /// Hosts answering on TCP/21.
    pub open_port: u64,
    /// Per-host enumeration records.
    pub records: Vec<HostRecord>,
    /// Server addresses whose bounced connections reached the collector.
    pub bounce_hits: HashSet<Ipv4Addr>,
    /// HTTP sweep results.
    pub http: HashMap<Ipv4Addr, HttpObservation>,
    /// Merged observability report (metrics, span stats, trace) when
    /// [`StudyConfig::obs`] requested any collection; `None` otherwise.
    /// Lives outside the measured result fields so enabling it cannot
    /// perturb them.
    pub obs: Option<obs::Report>,
}

impl StudyResults {
    /// The Table I funnel, measured.
    pub fn funnel(&self) -> analysis::Funnel {
        analysis::Funnel::from_results(self.ips_scanned, self.open_port, &self.records)
    }

    /// Operational telemetry for the run: give-ups, retries, timeouts,
    /// and the rest of the fault counters, aggregated over all records.
    pub fn summary(&self) -> RunSummary {
        RunSummary::from_records(&self.records)
    }
}

/// What one partition's measurement stages produced: the per-host
/// records and counters for whatever slice of the address space the
/// scan filters admitted.
pub(crate) struct PartitionOutput {
    /// Addresses probed by host discovery inside this partition.
    pub(crate) ips_scanned: u64,
    /// Hosts answering on TCP/21.
    pub(crate) open_port: u64,
    /// Per-host enumeration records, kept or folded.
    pub(crate) records: CellRecords,
    /// Server addresses whose bounced connections reached the collector.
    pub(crate) bounce_hits: HashSet<Ipv4Addr>,
    /// HTTP sweep observations.
    pub(crate) http: HashMap<Ipv4Addr, HttpObservation>,
}

/// A partition's enumeration records, as their sessions closed.
pub(crate) enum CellRecords {
    /// Every record, in finish order, each file table at exact size:
    /// the in-memory study keeps them until its report.
    Kept(Vec<HostRecord>),
    /// The records' share of the cell aggregate, each folded as its
    /// session closed and dropped: a streamed cell keeps no record.
    /// Boxed: the aggregate is a kilobyte-scale struct.
    Folded(Box<StreamingAggregate>),
}

impl CellRecords {
    /// How many records the partition's sessions produced.
    pub(crate) fn count(&self) -> u64 {
        match self {
            CellRecords::Kept(records) => records.len() as u64,
            CellRecords::Folded(aggregate) => aggregate.summary.hosts,
        }
    }
}

/// What a streamed cell keeps of the records it folds at session close.
#[derive(Default)]
struct SessionFold {
    /// The records' share of the cell aggregate.
    aggregate: StreamingAggregate,
    /// FTP-compliant addresses in finish order: the HTTP sweep's
    /// targets.
    ftp_ips: Vec<Ipv4Addr>,
    /// Addresses that accepted a third-party `PORT`. Whether their
    /// bounce reached the collector is settled at cell end: a bounce
    /// connection may land after its session closed (a step timeout
    /// can end the session first).
    accepted: Vec<Ipv4Addr>,
}

impl SessionFold {
    /// Folds a closed session's record, its collector hit still
    /// unknown.
    fn fold(&mut self, r: &HostRecord, registry: &AsRegistry) {
        self.aggregate.fold_record(r, false, Some(registry));
        if r.ftp_compliant {
            self.ftp_ips.push(r.ip);
        }
        if analysis::bounce::accepted_third_party(r) {
            self.accepted.push(r.ip);
        }
    }

    /// The folded records, with the accepted addresses the collector
    /// saw counted as confirmed.
    fn settle(self, bounce_hits: &HashSet<Ipv4Addr>) -> StreamingAggregate {
        let mut aggregate = self.aggregate;
        let confirmed = self.accepted.iter().filter(|ip| bounce_hits.contains(ip)).count();
        aggregate.bounce.confirmed += confirmed as u64;
        aggregate
    }
}

/// The study's TCP/21 discovery sweep, restricted to `hash_shard` and,
/// when given, `hash_batch`.
pub(crate) fn scan_config(
    cfg: &StudyConfig,
    hash_shard: HashShard,
    hash_batch: Option<HashBatch>,
) -> ScanConfig {
    let mut scan_cfg = ScanConfig::tcp21(cfg.population.space, cfg.population.seed ^ 0x5ca);
    scan_cfg.blocklist = Blocklist::standard();
    scan_cfg.hash_shard = Some(hash_shard);
    scan_cfg.hash_batch = hash_batch;
    scan_cfg.per_probe_events = cfg.per_probe_events;
    scan_cfg
}

/// Runs the three measurement stages — ZMap-style discovery,
/// enumeration, HTTP sweep — against a simulator that already holds the
/// partition's hosts. `scanner` is the discovery endpoint, restricted
/// to the slice the caller materialized, and `scan_results` its results
/// handle. With a `registry`, each record is folded as its session
/// closes and dropped, resolving writable ASes in the registry (a
/// streamed cell); without one the records are kept. The caller owns
/// recorder installation.
pub(crate) fn run_partition(
    cfg: &StudyConfig,
    sim: &mut Simulator,
    scanner: Box<dyn Endpoint>,
    scan_results: &RefCell<ScanResults>,
    registry: Option<&Rc<AsRegistry>>,
) -> PartitionOutput {
    // Stage 1: host discovery over this partition's slice of the
    // population space.
    let sid = sim.register_endpoint(scanner);
    sim.schedule_timer(sid, SimDuration::ZERO, 0);
    {
        let _span = obs::span!("stage.scan");
        sim.run();
    }
    let (open, ips_scanned) = {
        let mut r = scan_results.borrow_mut();
        (std::mem::take(&mut r.open), r.probes_sent)
    };
    let open_port = open.len() as u64;
    obs::event!("shard.stage", stage = "scan", open_port = open.len());

    // Stage 2: enumerate every responsive host.
    let (collector, bounce_hits) = BounceCollector::new();
    let cid = sim.register_endpoint(Box::new(collector));
    sim.bind(COLLECTOR_IP, COLLECTOR_PORT, cid);
    let mut enum_cfg = EnumConfig::new(SCANNER_IP)
        .with_request_cap(cfg.request_cap)
        .with_concurrency(cfg.concurrency)
        .with_request_gap(cfg.request_gap);
    enum_cfg.respect_robots = cfg.respect_robots;
    enum_cfg.strict_replies = cfg.strict_replies;
    if cfg.probe_bounce {
        enum_cfg = enum_cfg.with_bounce_probe(HostPort::new(COLLECTOR_IP, COLLECTOR_PORT));
    }
    let folds = Rc::new(RefCell::new(SessionFold::default()));
    let (enumerator, kept) = match registry {
        None => {
            let (enumerator, records) = Enumerator::new(enum_cfg, open);
            (enumerator, Some(records))
        }
        Some(registry) => {
            let (folds, registry) = (folds.clone(), registry.clone());
            let sink = move |r: HostRecord| folds.borrow_mut().fold(&r, &registry);
            (Enumerator::with_sink(enum_cfg, open, sink), None)
        }
    };
    let eid = sim.register_endpoint(Box::new(enumerator));
    sim.schedule_timer(eid, SimDuration::ZERO, 0);
    {
        let _span = obs::span!("stage.enumerate");
        sim.run();
    }
    // The enumerator has drained, so its handles can be emptied; the
    // spent endpoint is dropped with the simulator or its next reset.
    let kept = kept.map(|records| std::mem::take(&mut *records.borrow_mut()));
    let mut folds = std::mem::take(&mut *folds.borrow_mut());
    let (count, ftp_ips) = match &kept {
        Some(records) => {
            let ftp_ips = records.iter().filter(|r| r.ftp_compliant).map(|r| r.ip).collect();
            (records.len(), ftp_ips)
        }
        None => (folds.aggregate.summary.hosts as usize, std::mem::take(&mut folds.ftp_ips)),
    };
    obs::event!("shard.stage", stage = "enumerate", records = count);

    // Stage 3: HTTP overlap sweep of the FTP-responsive hosts.
    let mut http = HashMap::new();
    if cfg.probe_http {
        let (probe, web_results) = WebProbe::new(WEB_IP, ftp_ips);
        let wid = sim.register_endpoint(Box::new(probe));
        sim.schedule_timer(wid, SimDuration::ZERO, 0);
        {
            let _span = obs::span!("stage.webprobe");
            sim.run();
        }
        http = std::mem::take(&mut *web_results.borrow_mut());
    }

    let bounce_hits = std::mem::take(&mut *bounce_hits.borrow_mut());
    let records = match kept {
        Some(records) => CellRecords::Kept(records),
        None => CellRecords::Folded(Box::new(folds.settle(&bounce_hits))),
    };
    PartitionOutput { ips_scanned, open_port, records, bounce_hits, http }
}

/// Runs the complete pipeline single-threaded.
///
/// Equivalent to [`run_study_sharded`] with one shard — parallelism is
/// a pure performance knob, never visible in the results.
pub fn run_study(cfg: &StudyConfig) -> StudyResults {
    run_study_sharded(cfg, 1)
}

/// Runs the complete pipeline partitioned into `shards` independent
/// simulations, one `std::thread` worker each, and merges their outputs.
///
/// Each shard runs the shard loop of [`crate::stream`] at one batch —
/// its whole slice of the world — and hands the cell back whole
/// (records, bounce hits, HTTP observations and host truth) instead of
/// folding it.
///
/// The merged [`StudyResults`] is **byte-identical for every shard
/// count**, including 1: hosts, records, and non-FTP addresses are
/// canonically ordered by IP, bounce hits and HTTP observations are
/// unions of disjoint sets, and the scan counters are sums over a
/// partition of the address space. This holds because every per-host
/// outcome is a pure function of `(seed, ip)` — world materialization
/// uses per-host RNGs, per-path latency depends only on the simulator
/// seed and the endpoints, fault assignment hashes `(seed, ip)`, and
/// enumeration sessions never interact across hosts.
///
/// # Panics
///
/// Panics if `shards` is zero or a shard worker panics.
pub fn run_study_sharded(cfg: &StudyConfig, shards: u64) -> StudyResults {
    assert!(shards > 0, "need at least one shard");
    let plan = worldgen::plan_world(&cfg.population);
    let seed = cfg.population.seed;

    let (shard_cells, mut obs_report) = run_shards(cfg, shards, |index| {
        let mut cells = Vec::with_capacity(1);
        let shard = HashShard { seed, index, shards };
        let Ok(()) = run_shard_batches(cfg, &plan, shard, 1, 0..1, false, |cell| {
            cells.push(cell);
            Ok::<_, Infallible>(())
        });
        cells
    });

    // Merge: canonical order is by IP, counters are sums, hit sets are
    // unions (shards are disjoint, so no deduplication is needed).
    // Timed with wall clock only — the merge runs outside any simulator,
    // so there is no sim time to attribute to it.
    let merge_start = std::time::Instant::now();
    let mut hosts = Vec::new();
    let mut non_ftp = Vec::new();
    let mut ips_scanned = 0;
    let mut open_port = 0;
    let mut records = Vec::new();
    let mut bounce_hits = HashSet::new();
    let mut http = HashMap::new();
    for cell in shard_cells.into_iter().flatten() {
        hosts.extend(cell.hosts);
        non_ftp.extend(cell.non_ftp);
        ips_scanned += cell.out.ips_scanned;
        open_port += cell.out.open_port;
        let CellRecords::Kept(cell_records) = cell.out.records else {
            unreachable!("in-memory cells keep their records")
        };
        records.extend(cell_records);
        bounce_hits.extend(cell.out.bounce_hits);
        http.extend(cell.out.http);
    }
    hosts.sort_by_key(|h| h.ip);
    non_ftp.sort_unstable();
    records.sort_by_key(|r| r.ip);
    if let Some(report) = obs_report.as_mut() {
        report.add_span("study.merge", 0, merge_start.elapsed().as_nanos() as u64);
    }

    StudyResults {
        truth: plan.into_truth(hosts, non_ftp),
        ips_scanned,
        open_port,
        records,
        bounce_hits,
        http,
        obs: obs_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_smoke() {
        let results = run_study(&StudyConfig::small(11, 120));
        assert!(results.ips_scanned > 0);
        let funnel = results.funnel();
        assert_eq!(funnel.ftp_servers as usize, results.truth.hosts.len());
        assert!(funnel.open_port > funnel.ftp_servers, "non-FTP responders exist");
        assert!(funnel.anonymous > 0);
    }

    /// Forwards the simulator's calls to a scanner the test keeps a
    /// handle on, so its footprint can be read after the run.
    struct Watched(Rc<RefCell<zscan::HostDiscovery>>);

    impl Endpoint for Watched {
        fn on_timer(&mut self, ctx: &mut netsim::Ctx<'_>, token: u64) {
            self.0.borrow_mut().on_timer(ctx, token);
        }

        fn on_probe(
            &mut self,
            ctx: &mut netsim::Ctx<'_>,
            target: Ipv4Addr,
            port: u16,
            status: netsim::ProbeStatus,
        ) {
            self.0.borrow_mut().on_probe(ctx, target, port, status);
        }
    }

    /// Prints what the records of `ftpcloud study`'s default run (the
    /// benchmark's `paper`) hold in their file tables, by structure and
    /// against what they have allocated, and the buffers its simulator
    /// and scanner keep once enumeration has drained. Runs the shard
    /// loop's one cell by hand to reach the simulator and the scanner,
    /// without the HTTP sweep (which changes no record). Asserts
    /// nothing about memory; run with `cargo test --release --
    /// --ignored --nocapture memory_breakdown` (the trees half is in
    /// `worldgen`).
    #[test]
    #[ignore]
    #[allow(clippy::print_stdout)]
    fn memory_breakdown() {
        let mut cfg = StudyConfig::new(PopulationSpec::study(42, 4_096));
        cfg.request_gap = SimDuration::from_millis(20);
        cfg.probe_http = false;
        let plan = worldgen::plan_world(&cfg.population);
        let seed = cfg.population.seed;
        let mut sim = Simulator::new(seed);
        plan.materialize(&mut sim, |_| true);
        let shard = HashShard { seed, index: 0, shards: 1 };
        let (scanner, scan_results) = zscan::HostDiscovery::new(scan_config(&cfg, shard, None));
        let scanner = Rc::new(RefCell::new(scanner));
        let watched = Box::new(Watched(scanner.clone()));
        let out = run_partition(&cfg, &mut sim, watched, &scan_results, None);
        let CellRecords::Kept(records) = &out.records else { unreachable!("records kept") };
        let mb = |bytes: usize| bytes as f64 / 1e6;

        let sim_fp = sim.footprint();
        let peak = sim_fp.peak_entries as usize;
        println!("simulator after enumeration, buffers kept for reuse:");
        println!(
            "  wheel slots  {:8.2} MB  (peak {peak} live entries = {:.2} MB at {} B)",
            mb(sim_fp.wheel_slots),
            mb(peak * sim_fp.entry_bytes),
            sim_fp.entry_bytes
        );
        println!("  payload pool {:8.2} MB", mb(sim_fp.payload_pool));
        println!("  probe pool   {:8.2} MB", mb(sim_fp.probe_pool));
        let scan_fp = scanner.borrow().footprint();
        println!("scanner after enumeration, sweep state kept:");
        println!("  probe order  {:8.2} MB", mb(scan_fp.order));
        println!("  probe slots  {:8.2} MB", mb(scan_fp.slots));

        let rows: usize = records.iter().map(|r| r.files.len()).sum();
        let mut total = enumerator::TableFootprint::default();
        for r in records {
            let f = r.files.footprint();
            total.rows += f.rows;
            total.names += f.names;
            total.dirs += f.dirs;
            total.exts += f.exts;
            total.capacity += f.capacity;
        }
        println!(
            "{} records, {rows} file-table rows at {} B each",
            records.len(),
            total.rows / rows
        );
        println!("  rows         {:8.1} MB", mb(total.rows));
        println!("  names        {:8.1} MB", mb(total.names));
        println!("  directories  {:8.1} MB", mb(total.dirs));
        println!("  extensions   {:8.1} MB", mb(total.exts));
        let used = total.rows + total.names + total.dirs + total.exts;
        println!(
            "  allocated    {:8.1} MB  ({:.1} MB over the length)",
            mb(total.capacity),
            mb(total.capacity - used)
        );
    }
}
