//! The study's one shard loop, and the bounded-memory streamed runner
//! built on it.
//!
//! A study runs on a `(shard, batch)` grid. Shards partition the
//! address space by [`netsim::shard_of`], one thread each. Batches split
//! a shard's slice again along the independent [`netsim::ip::batch_of`]
//! axis, and a shard runs its batches one at a time in a **reset
//! simulator** (one arena per shard, [`netsim::Simulator::reset`]
//! between batches — byte-identical to a fresh one, but reusing its
//! allocation caches): worldgen, then the scan → enumerate → HTTP-sweep
//! pipeline, then the finished cell goes to the caller. Per-shard setup
//! runs once, not per cell: the plan is bucketed by batch in a single
//! pass ([`worldgen::WorldPlan::bucket_shard`]), and with more than one
//! batch the scan permutation orbit is walked once and split per batch.
//!
//! Both runners are this loop. [`crate::run_study_sharded`] runs it at
//! one batch per shard and keeps each cell whole. [`run_study_streamed`]
//! runs `ceil(hosts / batch_size)` batches per shard, folds each record
//! into a constant-size [`StreamingAggregate`] as its session closes,
//! merges each finished cell into the shard's aggregate and drops
//! everything else, so its peak memory is O(batch), regardless of
//! world size.
//!
//! Correctness rests on one purity argument: every per-host outcome is
//! a pure function of `(seed, ip)`, so a host observes identical
//! behavior whichever simulator it lands in, and the grid partitions
//! the space exactly. The equivalence test suite checks byte-identity
//! of the rendered report across batch sizes, shard counts, and fault
//! fractions.
//!
//! With a checkpoint directory set, each shard persists its aggregate
//! and next-batch cursor after every batch ([`crate::checkpoint`]); a
//! later invocation with the same parameters resumes where it stopped
//! and produces a byte-identical final report. The "RNG cursor" is just
//! the batch index — per-host RNGs derive from `(seed, ip)`, so there is
//! no generator state to save.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::study::{
    run_partition, scan_config, CellRecords, PartitionOutput, StudyConfig, StudyResults,
};
use crate::webprobe::HttpObservation;
use analysis::{Funnel, StreamingAggregate};
use enumerator::HostRecord;
use netsim::{AsRegistry, Simulator};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use worldgen::{HostTruth, PopulationSpec, WorldPlan};
use zscan::{HashBatch, HashShard, HostDiscovery};

/// Streaming-specific knobs, on top of a [`StudyConfig`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Target hosts per batch; the batch count is
    /// `ceil(planned_hosts / batch_size)` (hash partitioning makes the
    /// realized batch populations approximately, not exactly, this
    /// size).
    pub batch_size: usize,
    /// Shard (worker thread) count, exactly as in
    /// [`crate::run_study_sharded`].
    pub shards: u64,
    /// Where to persist per-shard checkpoints; `None` disables
    /// checkpointing (and therefore resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Test hook simulating a crash: each shard stops cleanly after
    /// executing this many batches *in this invocation* (checkpoints
    /// already written stay on disk). `None` runs to completion.
    pub interrupt_after_batches: Option<u64>,
    /// Where to stream host journals (JSONL: a row per answering host
    /// and a silent tally per `(shard, batch)`; DESIGN.md §9). Each
    /// `(shard, batch)` cell's journals are drained from the recorder
    /// and appended as soon as the batch completes, so journaling never
    /// grows peak memory past O(batch). A resumed run keeps the lines of
    /// the cells its checkpoints cover and appends the rest. Requires
    /// [`obs::ObsConfig::journal`] to be set; `None` disables flushing
    /// (journals then surface in [`StreamResults::obs`] at shard end).
    pub journal_path: Option<PathBuf>,
    /// Emit a wall-clock heartbeat (batches done, hosts/s, ETA) through
    /// [`obs::diag!`] after every batch. Wall-clock only — enabling it
    /// cannot perturb study output.
    pub progress: bool,
}

impl StreamOptions {
    /// Single-shard streaming with the given batch size and no
    /// checkpointing.
    pub fn new(batch_size: usize) -> Self {
        StreamOptions {
            batch_size,
            shards: 1,
            checkpoint_dir: None,
            interrupt_after_batches: None,
            journal_path: None,
            progress: false,
        }
    }
}

/// Why a streamed study could not run.
#[derive(Debug)]
pub enum StreamError {
    /// Invalid options (zero batch size or shard count).
    Config(String),
    /// Checkpoint load/store failure (corruption, I/O, config mismatch).
    Checkpoint(CheckpointError),
    /// Journal sink I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Config(why) => write!(f, "invalid streaming options: {why}"),
            StreamError::Checkpoint(e) => write!(f, "{e}"),
            StreamError::Io(e) => write!(f, "journal i/o failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> Self {
        StreamError::Checkpoint(e)
    }
}

/// A completed streamed study.
#[derive(Debug, Clone)]
pub struct StreamResults {
    /// The merged aggregate over every `(shard, batch)` cell.
    pub aggregate: StreamingAggregate,
    /// The population the study ran over (for report scale/boost lines).
    pub spec: PopulationSpec,
    /// Shard count the run used.
    pub shards: u64,
    /// Batch count per shard.
    pub batches: u64,
    /// Merged observability report when [`StudyConfig::obs`] requested
    /// any collection; `None` otherwise. Shard reports merge in index
    /// order, exactly as the in-memory runner's do. Reports are not
    /// checkpointed: a resumed run's report covers only the batches the
    /// resuming invocation executed.
    pub obs: Option<obs::Report>,
}

/// Outcome of [`run_study_streamed`].
#[derive(Debug)]
pub enum StreamOutcome {
    /// Every shard folded every batch. Boxed: the aggregate is a
    /// kilobyte-scale struct and the enum travels by value.
    Complete(Box<StreamResults>),
    /// The interrupt hook fired first. `next_batches[i]` is shard `i`'s
    /// resume cursor; with a checkpoint directory, rerunning with
    /// identical parameters continues from exactly there.
    Interrupted {
        /// Per-shard next-batch cursors at the stop point.
        next_batches: Vec<u64>,
    },
}

/// Fingerprint over every parameter that affects study results, binding
/// checkpoints to their exact invocation. Floats enter as IEEE-754 bit
/// patterns so the string is deterministic.
pub fn config_fingerprint(cfg: &StudyConfig, shards: u64, batches: u64, batch_size: usize) -> u64 {
    let p = &cfg.population;
    let canon = format!(
        "seed={} space={:?} ftp_servers={} scale={} rare_boost={:016x} \
         fault={:016x} request_cap={} concurrency={} \
         probe_bounce={} probe_http={} respect_robots={} strict_replies={} \
         request_gap={:?} shards={shards} batches={batches} batch_size={batch_size}",
        p.seed,
        p.space,
        p.ftp_servers,
        p.scale,
        p.rare_boost.to_bits(),
        p.fault_fraction.to_bits(),
        cfg.request_cap,
        cfg.concurrency,
        cfg.probe_bounce,
        cfg.probe_http,
        cfg.respect_robots,
        cfg.strict_replies,
        cfg.request_gap,
    );
    crate::checkpoint::fnv1a(canon.as_bytes())
}

/// Shared append-only sink for per-batch journal flushes. Shards drain
/// their recorder's journals after every batch and append under the
/// lock. The recorder sorts its log by address when it renders, so
/// host rows within a batch are in ip order, followed by the batch's
/// silent tally, and a single-shard run's file is fully deterministic.
struct JournalSink {
    out: Mutex<BufWriter<File>>,
}

impl JournalSink {
    /// Opens the journal for a run whose shards start at batches
    /// `next_batches` of `batches`. A fresh run truncates the file. A
    /// resumed run keeps the lines of the `(shard, batch)` cells its
    /// checkpoints cover (host rows and tally rows both carry the two
    /// tags) and drops the rest: lines of a batch flushed but never
    /// checkpointed, or a torn last line. Resuming a finished run leaves
    /// the file as it is.
    fn open(path: &Path, next_batches: &[u64], batches: u64) -> Result<Self, StreamError> {
        let file = if next_batches.iter().all(|&next| next == 0) {
            File::create(path)
        } else {
            if next_batches.iter().any(|&next| next < batches) {
                keep_checkpointed_lines(path, next_batches).map_err(StreamError::Io)?;
            }
            File::options().create(true).append(true).open(path)
        };
        Ok(JournalSink { out: Mutex::new(BufWriter::new(file.map_err(StreamError::Io)?)) })
    }

    /// Drains the installed recorder's journals into `buf`, a scratch
    /// buffer the shard reuses across batches, and appends it to the
    /// file in one write.
    fn flush_batch(&self, buf: &mut obs::JournalBuf) -> Result<(), StreamError> {
        buf.clear();
        obs::drain_journal(buf);
        if buf.is_empty() {
            return Ok(());
        }
        let mut out = self.out.lock().expect("journal sink poisoned");
        out.write_all(buf.as_str().as_bytes()).map_err(StreamError::Io)
    }

    /// Pushes buffered lines to the file. Shards call this before
    /// saving a checkpoint, so a checkpoint never covers a line that is
    /// not on disk.
    fn flush(&self) -> Result<(), StreamError> {
        self.out.lock().expect("journal sink poisoned").flush().map_err(StreamError::Io)
    }
}

/// Rewrites the journal at `path` with only its complete lines whose
/// shard `s` and batch `b` satisfy `b < next_batches[s]`. A missing
/// file is left missing.
fn keep_checkpointed_lines(path: &Path, next_batches: &[u64]) -> std::io::Result<()> {
    let mut input = match File::open(path) {
        Ok(file) => BufReader::new(file),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".resume");
    let tmp = PathBuf::from(tmp_name);
    let mut output = BufWriter::new(File::create(&tmp)?);
    let mut line = Vec::new();
    while input.read_until(b'\n', &mut line)? > 0 {
        let checkpointed = line.ends_with(b"\n")
            && std::str::from_utf8(&line).ok().and_then(obs::JournalFile::cell).is_some_and(
                |(shard, batch)| {
                    usize::try_from(shard)
                        .ok()
                        .and_then(|s| next_batches.get(s))
                        .is_some_and(|&next| batch < next)
                },
            );
        if checkpointed {
            output.write_all(&line)?;
        }
        line.clear();
    }
    output.into_inner().map_err(std::io::IntoInnerError::into_error)?.sync_all()?;
    fs::rename(&tmp, path)
}

/// Wall-clock heartbeat state shared by every shard. All fields are
/// wall-time or atomics — nothing here can feed back into sim results.
struct Progress {
    start: std::time::Instant,
    /// Batches the checkpoints of earlier invocations cover.
    resumed: u64,
    /// Batches, and their hosts, run by this invocation.
    batches_run: AtomicU64,
    hosts_run: AtomicU64,
    total_batches: u64,
}

impl Progress {
    fn new(total_batches: u64, resumed: u64) -> Self {
        Progress {
            start: std::time::Instant::now(),
            resumed,
            batches_run: AtomicU64::new(0),
            hosts_run: AtomicU64::new(0),
            total_batches,
        }
    }

    /// Records one finished batch and emits a heartbeat line. The batch
    /// count includes the resumed batches; the host count, the rate and
    /// the ETA's pace cover only this invocation's, and the line says so.
    fn tick(&self, batch_hosts: u64) {
        let run = self.batches_run.fetch_add(1, Ordering::Relaxed) + 1;
        let hosts = self.hosts_run.fetch_add(batch_hosts, Ordering::Relaxed) + batch_hosts;
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = hosts as f64 / secs;
        let done = self.resumed + run;
        let eta = secs / run as f64 * self.total_batches.saturating_sub(done) as f64;
        obs::diag!(
            "progress: batches {done}/{} hosts {hosts} this run ({rate:.0} hosts/s) eta {eta:.0}s",
            self.total_batches,
        );
    }
}

/// Where a shard starts: the aggregate over the batches its checkpoint
/// covers, and the next batch to run.
type ResumePoint = (StreamingAggregate, u64);

/// Shard `index`'s resume point: its checkpoint in `dir` when one
/// exists and matches this exact configuration, otherwise a fresh start.
fn resume_point(
    dir: Option<&Path>,
    index: u64,
    fingerprint: u64,
    shards: u64,
    batches: u64,
) -> Result<ResumePoint, StreamError> {
    let Some(ckpt) = dir.map(|dir| Checkpoint::load(dir, index)).transpose()?.flatten() else {
        return Ok((StreamingAggregate::default(), 0));
    };
    if ckpt.config != fingerprint || ckpt.shards != shards || ckpt.batches != batches {
        return Err(
            CheckpointError::ConfigMismatch { found: ckpt.config, expected: fingerprint }.into()
        );
    }
    Ok((ckpt.aggregate, ckpt.next_batch))
}

/// One finished `(shard, batch)` cell, as the shard loop hands it over.
pub(crate) struct Cell {
    /// The cell's batch index within its shard.
    pub(crate) batch: u64,
    /// Ground truth of the FTP hosts the cell materialized, in plan
    /// order.
    pub(crate) hosts: Vec<HostTruth>,
    /// The non-FTP port-21 responders it materialized.
    pub(crate) non_ftp: Vec<Ipv4Addr>,
    /// What its measurement stages produced.
    pub(crate) out: PartitionOutput,
}

/// Runs `shard(index)` for every shard of a `shards`-way study, each
/// inside the recorder [`StudyConfig::obs`] asks for: on the calling
/// thread when there is one shard, else on one scoped thread per shard.
/// Returns the outputs in shard order and the shard reports merged in
/// shard order, so the merged trace is deterministic.
///
/// # Panics
///
/// Panics if a shard panics.
pub(crate) fn run_shards<T: Send>(
    cfg: &StudyConfig,
    shards: u64,
    shard: impl Fn(u64) -> T + Sync,
) -> (Vec<T>, Option<obs::Report>) {
    let run = |index| {
        if cfg.obs.any() {
            obs::install(Box::new(obs::CollectingRecorder::with_config(index, cfg.obs)));
        }
        let out = shard(index);
        (out, obs::uninstall().map(|r| r.finish()))
    };
    let runs: Vec<(T, Option<obs::Report>)> = if shards == 1 {
        vec![run(0)]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..shards).map(|index| scope.spawn(move || run(index))).collect();
            workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
        })
    };
    let (outputs, reports): (Vec<T>, Vec<_>) = runs.into_iter().unzip();
    let merged = reports.into_iter().flatten().reduce(|mut merged, report| {
        merged.absorb(report);
        merged
    });
    (outputs, merged)
}

/// Runs the batches `range` of `shard`'s slice, cut into `batches`
/// batches, one at a time in one reset simulator, and hands each
/// finished [`Cell`] to `on_cell`. Stops at the first error `on_cell`
/// returns. With `fold`, each cell folds every record as its session
/// closes and keeps none ([`CellRecords::Folded`]); without it, cells
/// keep their records.
///
/// Every simulator is seeded with the *master* seed — not a derived
/// one — because per-path latency is a pure function of the simulator
/// seed and the endpoint addresses, and merge identity requires a host
/// to observe the same latencies whichever simulator it lands in.
pub(crate) fn run_shard_batches<E>(
    cfg: &StudyConfig,
    plan: &WorldPlan,
    shard: HashShard,
    batches: u64,
    range: Range<u64>,
    fold: bool,
    mut on_cell: impl FnMut(Cell) -> Result<(), E>,
) -> Result<(), E> {
    let shard_span = obs::span!("shard.run");
    // The recorder stamps every line with the shard index, so events
    // only carry what the envelope does not.
    obs::event!("shard.start", shards = shard.shards);
    let seed = cfg.population.seed;
    let space = cfg.population.space;

    // Per-shard state hoisted out of the batch loop: one simulator arena
    // reset between batches (retaining its allocation caches), and the
    // plan bucketed by batch in a single pass. With more than one batch,
    // the scan permutation orbit is walked once here and split by batch
    // in one pass, each batch in orbit order: the order a per-batch
    // `materialize_order` would produce. A single batch's scanner walks
    // the shard's orbit itself.
    let mut sim = Simulator::new(seed);
    // The record sinks are `'static`, so a folding shard gives them its
    // own shared copy of the plan's registry.
    let registry = fold.then(|| Rc::new(plan.registry().clone()));
    let buckets = plan.bucket_shard((shard.index, shard.shards), batches);
    let mut batch_orders: Vec<Vec<u64>> = Vec::new();
    if batches > 1 {
        batch_orders.resize(batches as usize, Vec::new());
        scan_config(cfg, shard, None).walk_order(|ix| {
            let batch = netsim::ip::batch_of(seed, space.addr_at(ix), batches);
            if range.contains(&batch) {
                batch_orders[batch as usize].push(ix);
            }
        });
    }

    for batch in range {
        // Tag the recorder before any event of this batch: journals
        // opened inside the cell carry `(shard, batch)`, and the clock
        // and sim-time sampler restart with the reset simulator's.
        obs::set_batch(batch);
        // Reset gives a byte-identical blank simulator: batch teardown
        // is the reset, so nothing observable survives to the next
        // batch (endpoints and queue cleared, RNG re-seeded).
        sim.reset(seed);
        let (hosts, non_ftp) = {
            let _span = obs::span!("stage.worldgen");
            plan.materialize_bucket(&mut sim, &buckets, batch)
        };
        let (scanner, scan_results) = match batch_orders.get_mut(batch as usize) {
            None => HostDiscovery::new(scan_config(cfg, shard, None)),
            Some(order) => {
                let hash_batch = HashBatch { seed, index: batch, batches };
                HostDiscovery::with_order(
                    scan_config(cfg, shard, Some(hash_batch)),
                    std::mem::take(order),
                )
            }
        };
        let out = run_partition(cfg, &mut sim, Box::new(scanner), &scan_results, registry.as_ref());
        if obs::enabled() {
            count_funnel_violations(&out);
            obs::counter(obs::Counter::HttpObservations, out.http.len() as u64);
            obs::event!("batch.done", batch = batch, records = out.records.count());
        }
        on_cell(Cell { batch, hosts, non_ftp, out })?;
    }

    if obs::enabled() {
        // Harvest the timer wheel's unconditionally-maintained stats into
        // the recorder at shard end; the wheel itself never calls obs.
        // They accumulate across `Simulator::reset` by design, so one
        // harvest covers every batch.
        let ws = sim.wheel_stats();
        obs::counter(obs::Counter::WheelInserts, ws.inserts);
        obs::counter(obs::Counter::WheelCascades, ws.cascades);
        obs::counter(obs::Counter::WheelCascadedEntries, ws.cascaded_entries);
        obs::gauge_max(obs::Gauge::WheelMaxOccupancy, ws.max_occupancy);
        obs::event!("shard.done", sim_us = sim.now().as_micros());
    }
    drop(shard_span);
    Ok(())
}

/// Counts the funnel invariants one cell breaks on the thread's
/// recorder. A cell is a funnel of its own (its scan found every host
/// it enumerated), so a healthy run counts none.
fn count_funnel_violations(out: &PartitionOutput) {
    let funnel = match &out.records {
        CellRecords::Kept(records) => Funnel::tally(out.ips_scanned, out.open_port, records),
        CellRecords::Folded(aggregate) => Funnel {
            ips_scanned: out.ips_scanned,
            open_port: out.open_port,
            ftp_servers: aggregate.summary.ftp,
            anonymous: aggregate.summary.anonymous,
            gave_up: aggregate.summary.gave_up,
        },
    };
    let violations = funnel.invariant_violations().len() as u64;
    if violations > 0 {
        obs::counter(obs::Counter::FunnelInvariantViolations, violations);
    }
}

/// Runs the study in bounded-memory streaming mode.
///
/// Partitions the world into `opts.shards × ceil(hosts/batch_size)`
/// hash cells, pipelines each shard's batches sequentially through one
/// reset simulator, folds each cell into the shard's aggregate, and
/// merges the per-shard aggregates in shard order. The merged report is
/// byte-identical for every batch size and shard count, and — via
/// checkpoints — across interrupt/resume cycles.
pub fn run_study_streamed(
    cfg: &StudyConfig,
    opts: &StreamOptions,
) -> Result<StreamOutcome, StreamError> {
    if opts.batch_size == 0 {
        return Err(StreamError::Config("batch size must be at least 1".into()));
    }
    if opts.shards == 0 {
        return Err(StreamError::Config("need at least one shard".into()));
    }

    let plan = worldgen::plan_world(&cfg.population);
    let batches = (plan.planned_host_count() as u64).div_ceil(opts.batch_size as u64).max(1);
    let fingerprint = config_fingerprint(cfg, opts.shards, batches, opts.batch_size);
    // Every shard's resume point is loaded before any shard runs, so the
    // journal can be cut back to exactly the cells the checkpoints cover.
    let starts = (0..opts.shards)
        .map(|index| {
            let dir = opts.checkpoint_dir.as_deref();
            resume_point(dir, index, fingerprint, opts.shards, batches)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let journal_sink = match &opts.journal_path {
        Some(path) => {
            let next_batches: Vec<u64> = starts.iter().map(|&(_, next)| next).collect();
            Some(JournalSink::open(path, &next_batches, batches)?)
        }
        None => None,
    };
    let resumed = starts.iter().map(|&(_, next)| next).sum();
    let progress = opts.progress.then(|| Progress::new(batches * opts.shards, resumed));
    let seed = cfg.population.seed;

    let (runs, mut obs_report) = run_shards(cfg, opts.shards, |index| {
        let (mut aggregate, start) = starts[index as usize].clone();
        // The interrupt hook stops the shard cleanly after `limit`
        // batches of this invocation.
        let end = opts
            .interrupt_after_batches
            .map_or(batches, |limit| batches.min(start.saturating_add(limit)));
        let shard = HashShard { seed, index, shards: opts.shards };
        let mut journal_buf = obs::JournalBuf::default();
        let fold_cell = |cell: Cell| -> Result<(), StreamError> {
            let out = &cell.out;
            fold_output(&mut aggregate, out, plan.registry());
            // Flush this cell's journals to disk now so the recorder
            // never holds more than one batch's worth of them.
            if let Some(sink) = &journal_sink {
                sink.flush_batch(&mut journal_buf)?;
            }
            if let Some(progress) = &progress {
                progress.tick(out.records.count());
            }
            if let Some(dir) = &opts.checkpoint_dir {
                if let Some(sink) = &journal_sink {
                    sink.flush()?;
                }
                Checkpoint {
                    config: fingerprint,
                    shard: index,
                    shards: opts.shards,
                    batches,
                    next_batch: cell.batch + 1,
                    aggregate: aggregate.clone(),
                }
                .save(dir)?;
            }
            Ok(())
        };
        run_shard_batches(cfg, &plan, shard, batches, start..end, true, fold_cell)?;
        Ok::<_, StreamError>((aggregate, end))
    });
    if let Some(sink) = &journal_sink {
        sink.flush()?;
    }

    let merge_start = std::time::Instant::now();
    let mut aggregate = StreamingAggregate::default();
    let mut next_batches = Vec::with_capacity(runs.len());
    for run in runs {
        let (shard_aggregate, next_batch) = run?;
        next_batches.push(next_batch);
        aggregate.merge(&shard_aggregate);
    }
    if next_batches.iter().any(|&next| next < batches) {
        return Ok(StreamOutcome::Interrupted { next_batches });
    }
    if let Some(report) = obs_report.as_mut() {
        report.add_span("study.merge", 0, merge_start.elapsed().as_nanos() as u64);
    }
    Ok(StreamOutcome::Complete(Box::new(StreamResults {
        aggregate,
        spec: cfg.population.clone(),
        shards: opts.shards,
        batches,
        obs: obs_report,
    })))
}

/// Folds one cell's output into `agg`: its scan counters, its records
/// (merged when the cell folded them at session close) and its HTTP
/// observations.
fn fold_output(agg: &mut StreamingAggregate, out: &PartitionOutput, registry: &AsRegistry) {
    let records: &[HostRecord] = match &out.records {
        CellRecords::Kept(records) => records,
        CellRecords::Folded(folded) => {
            agg.merge(folded);
            &[]
        }
    };
    fold_partition(
        agg,
        out.ips_scanned,
        out.open_port,
        records,
        &out.bounce_hits,
        &out.http,
        registry,
    );
}

/// Folds one partition's measurements into `agg`: its scan counters,
/// every record (with whether its bounce reached the collector), and
/// every HTTP observation. [`aggregate_of`] folds a whole in-memory
/// study with it, and the streamed runner a cell's scan counters and
/// HTTP observations, its records folded already.
fn fold_partition(
    agg: &mut StreamingAggregate,
    ips_scanned: u64,
    open_port: u64,
    records: &[HostRecord],
    bounce_hits: &HashSet<Ipv4Addr>,
    http: &HashMap<Ipv4Addr, HttpObservation>,
    registry: &AsRegistry,
) {
    agg.fold_scan(ips_scanned, open_port);
    for r in records {
        agg.fold_record(r, bounce_hits.contains(&r.ip), Some(registry));
    }
    for o in http.values() {
        agg.fold_http(o.powered_by.is_some());
    }
}

/// Folds in-memory results into a streaming aggregate with a single
/// pass over the record vector. This is [`crate::tables::full_report`]'s
/// fold: the in-memory report renders every section it shares with the
/// streamed report from this aggregate, so both runners print those
/// sections through the same functions.
pub fn aggregate_of(results: &StudyResults) -> StreamingAggregate {
    let mut agg = StreamingAggregate::default();
    fold_partition(
        &mut agg,
        results.ips_scanned,
        results.open_port,
        &results.records,
        &results.bounce_hits,
        &results.http,
        &results.truth.registry,
    );
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_options_are_rejected() {
        let cfg = StudyConfig::small(3, 20);
        assert!(matches!(
            run_study_streamed(&cfg, &StreamOptions { batch_size: 0, ..StreamOptions::new(1) }),
            Err(StreamError::Config(_))
        ));
        let mut opts = StreamOptions::new(8);
        opts.shards = 0;
        assert!(matches!(run_study_streamed(&cfg, &opts), Err(StreamError::Config(_))));
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let cfg = StudyConfig::small(3, 20);
        let base = config_fingerprint(&cfg, 2, 5, 16);
        assert_eq!(base, config_fingerprint(&cfg, 2, 5, 16));
        assert_ne!(base, config_fingerprint(&cfg, 3, 5, 16));
        assert_ne!(base, config_fingerprint(&cfg, 2, 6, 16));
        assert_ne!(base, config_fingerprint(&cfg, 2, 5, 17));
        let mut other = cfg.clone();
        other.request_cap += 1;
        assert_ne!(base, config_fingerprint(&other, 2, 5, 16));
        let faulty = cfg.clone().with_fault_fraction(0.25);
        assert_ne!(base, config_fingerprint(&faulty, 2, 5, 16));
    }

    /// One cell, folded at session close, aggregates to what folding
    /// the same cell's collected records does, line by line of the
    /// encoded aggregate (one line per field), `bounce.confirmed`
    /// included.
    #[test]
    fn session_close_fold_matches_the_collected_records() {
        for fault in [0.0, 0.5] {
            let cfg = StudyConfig::small(7177, 150).with_fault_fraction(fault);
            let plan = worldgen::plan_world(&cfg.population);
            let seed = cfg.population.seed;
            let cell = |registry: Option<&Rc<AsRegistry>>| {
                let mut sim = Simulator::new(seed);
                plan.materialize(&mut sim, |_| true);
                let shard = HashShard { seed, index: 0, shards: 1 };
                let (scanner, scan_results) = HostDiscovery::new(scan_config(&cfg, shard, None));
                let out = run_partition(&cfg, &mut sim, Box::new(scanner), &scan_results, registry);
                let mut aggregate = StreamingAggregate::default();
                fold_output(&mut aggregate, &out, plan.registry());
                (out.records, aggregate)
            };
            let (kept, want) = cell(None);
            let (folded, got) = cell(Some(&Rc::new(plan.registry().clone())));
            assert!(matches!(kept, CellRecords::Kept(_)), "no registry keeps the records");
            assert!(matches!(folded, CellRecords::Folded(_)), "a registry folds them");
            assert!(want.bounce.confirmed > 0, "the cell confirms a bounce at {fault}");
            let (want, got) = (want.encode(), got.encode());
            for (w, g) in want.lines().zip(got.lines()) {
                assert_eq!(g, w, "at {fault} faults");
            }
            assert_eq!(got, want);
        }
    }

    /// A cell whose scan opened more ports than it probed moves
    /// `funnel_invariant_violations` on the recorder it runs under.
    #[test]
    fn broken_cell_funnel_is_counted() {
        let cell = PartitionOutput {
            ips_scanned: 3,
            open_port: 4,
            records: CellRecords::Kept(Vec::new()),
            bounce_hits: HashSet::new(),
            http: HashMap::new(),
        };
        obs::install(Box::new(obs::CollectingRecorder::new(0, false)));
        count_funnel_violations(&cell);
        let report = obs::uninstall().expect("recorder installed").finish();
        assert_eq!(report.metrics.counter(obs::Counter::FunnelInvariantViolations), 1);
    }
}
