//! Streaming study runner: bounded-memory batches with checkpoint/resume.
//!
//! The legacy runner ([`crate::study::run_study_sharded`]) materializes a
//! shard's entire host slice and keeps every [`enumerator::HostRecord`]
//! until the end — O(world) RSS, which caps study size. This runner
//! splits each shard's address space into `batches` hash-partitioned
//! sub-slices (the [`netsim::ip::batch_of`] axis, independent of the
//! shard axis), runs the full scan → enumerate → HTTP-sweep pipeline on
//! one batch at a time in a **reset simulator** (one arena per shard,
//! [`netsim::Simulator::reset`] between batches — byte-identical to a
//! fresh one, but reusing its allocation caches), folds the batch's
//! records into a constant-size [`StreamingAggregate`], and drops
//! everything else. Peak memory is O(batch), regardless of world size.
//! Per-shard setup runs once, not per cell: the plan is bucketed by
//! batch in a single pass ([`worldgen::WorldPlan::bucket_shard`]) and
//! the scan permutation orbit is walked once and split per batch.
//!
//! Correctness rests on the same purity argument as sharding: every
//! per-host outcome is a pure function of `(seed, ip)`, so a host
//! observes identical behavior whichever simulator it lands in, and the
//! `(shard, batch)` grid partitions the space exactly. The
//! equivalence test suite checks byte-identity of the rendered report
//! against the in-memory path at several batch sizes, shard counts, and
//! fault fractions.
//!
//! With a checkpoint directory set, each shard persists its aggregate
//! and next-batch cursor after every batch ([`crate::checkpoint`]); a
//! later invocation with the same parameters resumes where it stopped
//! and produces a byte-identical final report. The "RNG cursor" is just
//! the batch index — per-host RNGs derive from `(seed, ip)`, so there is
//! no generator state to save.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::study::{run_partition, StudyConfig, StudyResults};
use analysis::StreamingAggregate;
use netsim::Simulator;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use worldgen::{PopulationSpec, WorldPlan};
use zscan::{Blocklist, HashBatch, HashShard, ScanConfig};

/// Streaming-specific knobs, on top of a [`StudyConfig`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Target hosts per batch; the batch count is
    /// `ceil(planned_hosts / batch_size)` (hash partitioning makes the
    /// realized batch populations approximately, not exactly, this
    /// size).
    pub batch_size: usize,
    /// Shard (worker thread) count, exactly as in the legacy runner.
    pub shards: u64,
    /// Where to persist per-shard checkpoints; `None` disables
    /// checkpointing (and therefore resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Test hook simulating a crash: each shard stops cleanly after
    /// executing this many batches *in this invocation* (checkpoints
    /// already written stay on disk). `None` runs to completion.
    pub interrupt_after_batches: Option<u64>,
    /// Where to stream host journals (JSONL, one line per host). Each
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
         include_non_ftp={} include_http={} fault={:016x} request_cap={} concurrency={} \
         probe_bounce={} probe_http={} respect_robots={} strict_replies={} \
         request_gap={:?} shards={shards} batches={batches} batch_size={batch_size}",
        p.seed,
        p.space,
        p.ftp_servers,
        p.scale,
        p.rare_boost.to_bits(),
        p.include_non_ftp,
        p.include_http,
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

/// One shard's run: its aggregate, where it stopped, and what the
/// observability layer (if enabled) collected along the way.
struct ShardRun {
    aggregate: StreamingAggregate,
    next_batch: u64,
    obs: Option<obs::Report>,
}

/// Shared append-only sink for per-batch journal flushes. Shards drain
/// their recorder's journals after every batch and append under the
/// lock. The recorder sorts its log by address when it renders, so
/// lines within a batch are in ip order and a single-shard run's file
/// is fully deterministic.
struct JournalSink {
    out: Mutex<BufWriter<File>>,
}

impl JournalSink {
    /// Opens the journal for a run whose shards start at batches
    /// `next_batches` of `batches`. A fresh run truncates the file. A
    /// resumed run keeps the lines of the `(shard, batch)` cells its
    /// checkpoints cover (every line carries both tags) and drops the
    /// rest: lines of a batch flushed but never checkpointed, or a torn
    /// last line. Resuming a finished run leaves the file as it is.
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
            && std::str::from_utf8(&line).ok().and_then(obs::ParsedJournal::cell).is_some_and(
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
    batches_done: AtomicU64,
    hosts_done: AtomicU64,
    total_batches: u64,
}

impl Progress {
    fn new(total_batches: u64) -> Self {
        Progress {
            start: std::time::Instant::now(),
            batches_done: AtomicU64::new(0),
            hosts_done: AtomicU64::new(0),
            total_batches,
        }
    }

    /// Records one finished batch and emits a heartbeat line.
    fn tick(&self, batch_hosts: u64) {
        let done = self.batches_done.fetch_add(1, Ordering::Relaxed) + 1;
        let hosts = self.hosts_done.fetch_add(batch_hosts, Ordering::Relaxed) + batch_hosts;
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = hosts as f64 / secs;
        let eta = secs / done as f64 * self.total_batches.saturating_sub(done) as f64;
        obs::diag!(
            "progress: batches {done}/{} hosts {hosts} ({rate:.0} hosts/s) eta {eta:.0}s",
            self.total_batches,
        );
    }
}

/// Per-run hooks threaded into each shard's batch loop: the journal
/// sink (when `--journal` is set) and the heartbeat (when `--progress`
/// is set).
#[derive(Clone, Copy)]
struct StreamHooks<'a> {
    journal: Option<&'a JournalSink>,
    progress: Option<&'a Progress>,
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

/// Installs the shard's recorder (when configured), runs the batch
/// loop, and always uninstalls — errors included — so a failed shard
/// never leaks a recorder into the worker thread.
#[allow(clippy::too_many_arguments)]
fn run_stream_shard(
    cfg: &StudyConfig,
    plan: &WorldPlan,
    index: u64,
    shards: u64,
    batches: u64,
    fingerprint: u64,
    start: ResumePoint,
    opts: &StreamOptions,
    hooks: StreamHooks<'_>,
) -> Result<ShardRun, StreamError> {
    if cfg.obs.any() {
        obs::install(Box::new(obs::CollectingRecorder::with_config(index, cfg.obs)));
    }
    let result =
        stream_shard_batches(cfg, plan, index, shards, batches, fingerprint, start, opts, hooks);
    let report = obs::uninstall().map(|r| r.finish());
    result.map(|(aggregate, next_batch)| ShardRun { aggregate, next_batch, obs: report })
}

#[allow(clippy::too_many_arguments)]
fn stream_shard_batches(
    cfg: &StudyConfig,
    plan: &WorldPlan,
    index: u64,
    shards: u64,
    batches: u64,
    fingerprint: u64,
    (mut aggregate, start_batch): ResumePoint,
    opts: &StreamOptions,
    hooks: StreamHooks<'_>,
) -> Result<(StreamingAggregate, u64), StreamError> {
    let shard_span = obs::span!("shard.run");
    obs::event!("shard.start", shards = shards);
    let seed = cfg.population.seed;
    let mut journal_buf = obs::JournalBuf::default();

    // Per-shard state hoisted out of the batch loop: one simulator arena
    // reset between batches (retaining its allocation caches), the plan
    // bucketed by batch in a single pass, and the scan permutation orbit
    // walked once and split per batch — each of which the first streaming
    // cut paid for from scratch at every `(shard, batch)` cell.
    let mut sim = Simulator::new(seed);
    let buckets = plan.bucket_shard((index, shards), batches);
    let shard_order = {
        let mut sc = ScanConfig::tcp21(cfg.population.space, seed ^ 0x5ca);
        sc.blocklist = Blocklist::standard();
        sc.hash_shard = Some(HashShard { seed, index, shards });
        sc.materialize_order()
    };
    let space = cfg.population.space;

    for (executed, batch) in (start_batch..batches).enumerate() {
        if opts.interrupt_after_batches.is_some_and(|limit| executed as u64 >= limit) {
            harvest_shard_obs(&sim);
            drop(shard_span);
            return Ok((aggregate, batch));
        }

        // Tag the recorder before any event of this batch: journals
        // opened inside the cell carry `(shard, batch)`, and the
        // sim-time sampler re-arms for the reset clock.
        obs::set_batch(batch);
        // Reset gives a byte-identical blank simulator: batch teardown
        // is the reset, so nothing observable survives to the next
        // batch (endpoints and queue cleared, RNG re-seeded).
        sim.reset(seed);
        // Materialized ground truth is folded into the sim and
        // immediately dropped — the streaming path never holds a host
        // vector.
        {
            let _span = obs::span!("stage.worldgen");
            let _ = plan.materialize_bucket(&mut sim, &buckets, batch);
        }
        let hash_batch = HashBatch { seed, index: batch, batches };
        // Filtering the shard's orbit preserves relative order, so this
        // equals the order a per-cell `materialize_order` would produce.
        let batch_order: Vec<u64> = shard_order
            .iter()
            .copied()
            .filter(|&ix| hash_batch.contains(space.addr_at(ix)))
            .collect();
        let out = run_partition(
            cfg,
            &mut sim,
            Some(HashShard { seed, index, shards }),
            Some(hash_batch),
            Some(batch_order),
        );

        aggregate.fold_scan(out.ips_scanned, out.open_port);
        for r in &out.records {
            aggregate.fold_record(r, out.bounce_hits.contains(&r.ip), Some(plan.registry()));
        }
        for o in out.http.values() {
            aggregate.fold_http(o.powered_by.is_some());
        }
        if obs::enabled() {
            obs::counter(obs::Counter::HttpObservations, out.http.len() as u64);
            obs::event!("batch.done", batch = batch, records = out.records.len());
        }
        // Flush this cell's journals to disk now so the recorder never
        // holds more than one batch's worth of them.
        if let Some(sink) = hooks.journal {
            sink.flush_batch(&mut journal_buf)?;
        }
        if let Some(progress) = hooks.progress {
            progress.tick(out.records.len() as u64);
        }

        if let Some(dir) = &opts.checkpoint_dir {
            if let Some(sink) = hooks.journal {
                sink.flush()?;
            }
            Checkpoint {
                config: fingerprint,
                shard: index,
                shards,
                batches,
                next_batch: batch + 1,
                aggregate: aggregate.clone(),
            }
            .save(dir)?;
        }
    }
    harvest_shard_obs(&sim);
    drop(shard_span);
    Ok((aggregate, batches))
}

/// Harvests the simulator's unconditionally-maintained wheel statistics
/// into the installed recorder, mirroring the in-memory runner's
/// shard-end harvest. Wheel stats accumulate across [`Simulator::reset`]
/// by design, so one harvest at shard end covers every batch.
fn harvest_shard_obs(sim: &Simulator) {
    if !obs::enabled() {
        return;
    }
    let ws = sim.wheel_stats();
    obs::counter(obs::Counter::WheelInserts, ws.inserts);
    obs::counter(obs::Counter::WheelCascades, ws.cascades);
    obs::counter(obs::Counter::WheelCascadedEntries, ws.cascaded_entries);
    obs::gauge_max(obs::Gauge::WheelMaxOccupancy, ws.max_occupancy);
    obs::event!("shard.done", sim_us = sim.now().as_micros());
}

/// Runs the study in bounded-memory streaming mode.
///
/// Partitions the world into `opts.shards × ceil(hosts/batch_size)`
/// hash cells, pipelines each shard's batches sequentially through a
/// per-batch simulator, and merges the per-shard aggregates in shard
/// order. The merged report is byte-identical for every batch size and
/// shard count, and — via checkpoints — across interrupt/resume cycles.
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
    let progress = opts.progress.then(|| Progress::new(batches * opts.shards));
    let hooks = StreamHooks { journal: journal_sink.as_ref(), progress: progress.as_ref() };

    let runs: Vec<Result<ShardRun, StreamError>> = if opts.shards == 1 {
        let start = starts.into_iter().next().expect("one resume point per shard");
        vec![run_stream_shard(cfg, &plan, 0, 1, batches, fingerprint, start, opts, hooks)]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..opts.shards)
                .zip(starts)
                .map(|(index, start)| {
                    let plan = &plan;
                    scope.spawn(move || {
                        run_stream_shard(
                            cfg,
                            plan,
                            index,
                            opts.shards,
                            batches,
                            fingerprint,
                            start,
                            opts,
                            hooks,
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("stream shard worker panicked"))
                .collect()
        })
    };
    if let Some(sink) = &journal_sink {
        sink.flush()?;
    }

    let merge_start = std::time::Instant::now();
    let mut aggregate = StreamingAggregate::default();
    let mut obs_report: Option<obs::Report> = None;
    let mut next_batches = Vec::with_capacity(runs.len());
    let mut complete = true;
    for run in runs {
        let run = run?;
        next_batches.push(run.next_batch);
        if run.next_batch < batches {
            complete = false;
        }
        aggregate.merge(&run.aggregate);
        if let Some(shard_report) = run.obs {
            // Shard reports arrive in index order (runs is built in
            // spawn order), so the merged trace is deterministic.
            match obs_report.as_mut() {
                Some(merged) => merged.absorb(shard_report),
                None => obs_report = Some(shard_report),
            }
        }
    }
    if !complete {
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

/// Folds in-memory results into a streaming aggregate with a single
/// pass over the record vector. This is [`crate::tables::full_report`]'s
/// fold: the in-memory report renders every section it shares with the
/// streamed report from this aggregate, so both runners print those
/// sections through the same functions.
pub fn aggregate_of(results: &StudyResults) -> StreamingAggregate {
    let mut agg = StreamingAggregate::default();
    agg.fold_scan(results.ips_scanned, results.open_port);
    for r in &results.records {
        agg.fold_record(r, results.bounce_hits.contains(&r.ip), Some(&results.truth.registry));
    }
    for o in results.http.values() {
        agg.fold_http(o.powered_by.is_some());
    }
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
}
