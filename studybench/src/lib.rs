//! Seed-to-report benchmark of the FTP study pipeline.
//!
//! Every workload runs the study's real entry point — the in-memory
//! runner plus `full_report`, or the streamed runner plus
//! `stream_report` — from a seed to its rendered artifacts, one study
//! per process, and measures what a user of `ftpcloud study` sees. The
//! traced pass (`studybench-trace`) drives the same world through the
//! crates' public calls one layer at a time. README.md describes the
//! workloads, the metrics and how they relate.

pub mod format;
pub mod stats;

use ftp_study::{
    full_report, run_study_sharded, run_study_streamed, stream_report, StreamOptions,
    StreamOutcome, StudyConfig,
};
use netsim::{SimDuration, Simulator};
use std::time::{Duration, Instant};
use worldgen::{PopulationSpec, WorldPlan};

/// The seed every workload defaults to: `ftpcloud`'s own default, and
/// the seed [`PINNED_DIGESTS`] holds report digests for.
pub const DEFAULT_SEED: u64 = 42;

/// Report digests at [`DEFAULT_SEED`], one `workload 0xHEX` line each
/// (see [`format::parse_digests`]).
pub const PINNED_DIGESTS: &str = include_str!("../digests.txt");

/// End-to-end metrics, `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("hosts_per_s", "hosts/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
];

/// Per-layer rows, `(name, unit)`, in output order. The `bench.*` rows
/// are computed by the driver; every other row comes from the traced
/// pass.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("worldgen.plan_s", "s"),
    ("worldgen.materialize_s", "s"),
    ("worldgen.allocs", "count"),
    ("worldgen.peak_mb", "MB"),
    ("worldgen.hosts", "count"),
    ("worldgen.vfs_nodes", "count"),
    ("zscan.s", "s"),
    ("zscan.allocs", "count"),
    ("zscan.probes", "count"),
    ("zscan.open", "count"),
    ("zscan.hit_ratio", "ratio"),
    ("zscan.ns_per_probe", "ns"),
    ("enumerator.s", "s"),
    ("enumerator.allocs_per_host", "count"),
    ("enumerator.peak_mb", "MB"),
    ("enumerator.sessions", "count"),
    ("enumerator.completed_ratio", "ratio"),
    ("enumerator.replies", "count"),
    ("enumerator.ns_per_reply", "ns"),
    ("enumerator.listing_mb", "MB"),
    ("enumerator.connect_retries", "count"),
    ("enumerator.step_timeouts", "count"),
    ("netsim.scan.events", "count"),
    ("netsim.scan.ns_per_event", "ns"),
    ("netsim.scan.wheel_cascaded", "count"),
    ("netsim.scan.sim_s", "s"),
    ("netsim.enumerate.events", "count"),
    ("netsim.enumerate.ns_per_event", "ns"),
    ("netsim.enumerate.wheel_cascaded", "count"),
    ("netsim.enumerate.sim_s", "s"),
    ("netsim.webprobe.events", "count"),
    ("netsim.webprobe.ns_per_event", "ns"),
    ("netsim.webprobe.wheel_cascaded", "count"),
    ("netsim.webprobe.sim_s", "s"),
    ("webprobe.s", "s"),
    ("webprobe.observations", "count"),
    ("stream.bucket_s", "s"),
    ("stream.order_s", "s"),
    ("stream.reset_s", "s"),
    ("stream.batches", "count"),
    ("analysis.fold_s", "s"),
    ("analysis.fold_allocs", "count"),
    ("tables.report_s", "s"),
    ("tables.report_allocs", "count"),
    ("tables.report_bytes", "count"),
    ("obs.finish_s", "s"),
    ("obs.journal_render_s", "s"),
    ("obs.journal_lines", "count"),
    ("obs.journal_mb", "MB"),
    ("obs.tax_ratio", "ratio"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// The layer rows that are wall time spent inside a layer's calls: the
/// ones [`stats::unattributed_s`] subtracts from the end-to-end time.
pub const TIME_ROWS: [&str; 12] = [
    "worldgen.plan_s",
    "worldgen.materialize_s",
    "zscan.s",
    "enumerator.s",
    "webprobe.s",
    "stream.bucket_s",
    "stream.order_s",
    "stream.reset_s",
    "analysis.fold_s",
    "tables.report_s",
    "obs.finish_s",
    "obs.journal_render_s",
];

/// The benchmark's workloads. README.md says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// What `ftpcloud study` runs by default: the paper's density in a
    /// /12, in memory at one shard.
    Paper,
    /// 12,000 servers in a /14, streamed in 1,500-host batches at one
    /// shard.
    DenseStream,
    /// 3,000 servers, half of them hostile, in memory with the flight
    /// recorder on.
    HostileJournal,
}

/// How a workload partitions its world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `run_study_sharded(cfg, 1)`, rendered by `full_report`.
    InMemory,
    /// `run_study_streamed`, rendered by `stream_report`.
    Streamed {
        /// Target hosts per batch.
        batch_size: usize,
        /// Shard threads.
        shards: u64,
    },
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Paper,
        Workload::DenseStream,
        Workload::HostileJournal,
    ];

    /// The name the benchmark is invoked with.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::DenseStream => "dense_stream",
            Workload::HostileJournal => "hostile_journal",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world the workload studies.
    pub fn spec(self, seed: u64) -> PopulationSpec {
        match self {
            Workload::Paper => PopulationSpec::study(seed, 4_096),
            // Stops well below the 20,000-server size at which
            // `plan_world` panics (README.md, "Known worldgen failure").
            Workload::DenseStream => PopulationSpec::sized(seed, 12_000),
            Workload::HostileJournal => PopulationSpec::sized(seed, 3_000).with_fault_fraction(0.5),
        }
    }

    /// The study configuration, as `ftpcloud study` builds it.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = StudyConfig::new(self.spec(seed));
        cfg.request_gap = SimDuration::from_millis(20);
        if self == Workload::HostileJournal {
            cfg.obs = obs::ObsConfig {
                metrics: true,
                journal: true,
                timeseries_every_us: 500_000,
                ..obs::ObsConfig::default()
            };
        }
        cfg
    }

    /// How the workload partitions its world.
    pub fn shape(self) -> Shape {
        match self {
            // One shard: at two, the wall time on a shared two-core
            // machine follows the neighbours' load (README.md).
            Workload::DenseStream => Shape::Streamed {
                batch_size: 1_500,
                shards: 1,
            },
            Workload::Paper | Workload::HostileJournal => Shape::InMemory,
        }
    }
}

/// Batches per shard for a streamed study: the streamed runner's own
/// rule.
pub fn batch_count(plan: &WorldPlan, batch_size: usize) -> u64 {
    (plan.planned_host_count() as u64)
        .div_ceil(batch_size as u64)
        .max(1)
}

/// Everything one study renders, held in memory: nothing is written to
/// disk, so sizes and times measure the program, not the filesystem.
pub struct Artifacts {
    /// The rendered paper report.
    pub report: String,
    /// The host journal (JSONL); empty without the flight recorder.
    pub journal: String,
    /// The sim-time series (CSV); empty without the flight recorder.
    pub timeseries: String,
    /// The Table I funnel the report was rendered from.
    pub funnel: analysis::Funnel,
    /// The pipeline's counters, when the configuration collected them.
    pub metrics: Option<obs::MetricsSnapshot>,
}

impl Artifacts {
    /// Bytes of every rendered artifact.
    pub fn bytes(&self) -> usize {
        self.report.len() + self.journal.len() + self.timeseries.len()
    }

    /// The pinned output: the report alone. The journal's format is
    /// expected to change, so pinning it would tie the benchmark to it.
    pub fn digest(&self) -> u64 {
        ftp_study::checkpoint::fnv1a(self.report.as_bytes())
    }
}

/// Runs one study through the workload's real entry point and renders
/// its artifacts. Returns them with the wall time from the runner call
/// to the last rendered byte; the study's results are dropped after the
/// clock stops.
///
/// # Panics
///
/// Panics if a streamed study does not complete.
pub fn run_study(shape: Shape, cfg: &StudyConfig) -> (Artifacts, Duration) {
    let start = Instant::now();
    match shape {
        Shape::InMemory => {
            let results = run_study_sharded(cfg, 1);
            let report = full_report(&results);
            let (journal, timeseries) = match &results.obs {
                Some(o) => (o.journal_jsonl(), o.timeseries_csv()),
                None => (String::new(), String::new()),
            };
            let wall = start.elapsed();
            let artifacts = Artifacts {
                report,
                journal,
                timeseries,
                funnel: results.funnel(),
                metrics: results.obs.as_ref().map(|o| o.metrics.clone()),
            };
            (artifacts, wall)
        }
        Shape::Streamed { batch_size, shards } => {
            let opts = StreamOptions {
                shards,
                ..StreamOptions::new(batch_size)
            };
            let results = match run_study_streamed(cfg, &opts) {
                Ok(StreamOutcome::Complete(results)) => results,
                other => panic!("streamed study did not complete: {other:?}"),
            };
            let report = stream_report(&results.aggregate, &results.spec);
            let wall = start.elapsed();
            let artifacts = Artifacts {
                report,
                journal: String::new(),
                timeseries: String::new(),
                funnel: results.aggregate.funnel(),
                metrics: results.obs.as_ref().map(|o| o.metrics.clone()),
            };
            (artifacts, wall)
        }
    }
}

/// Times the set-up before the first simulated probe: planning the
/// world and materializing its first partition — the whole world in
/// memory, shard 0's batch 0 when streamed. The recorder is installed
/// around materialization when the configuration asks for one, as the
/// runner does.
pub fn setup(shape: Shape, cfg: &StudyConfig) -> Duration {
    let start = Instant::now();
    let plan = worldgen::plan_world(&cfg.population);
    let seed = cfg.population.seed;
    let mut sim = Simulator::new(seed);
    if cfg.obs.any() {
        obs::install(Box::new(obs::CollectingRecorder::with_config(0, cfg.obs)));
    }
    match shape {
        Shape::InMemory => {
            let _ = plan.materialize(&mut sim, |ip| netsim::shard_of(seed, ip, 1) == 0);
        }
        Shape::Streamed { batch_size, shards } => {
            let buckets = plan.bucket_shard((0, shards), batch_count(&plan, batch_size));
            let _ = plan.materialize_bucket(&mut sim, &buckets, 0);
        }
    }
    let wall = start.elapsed();
    drop(obs::uninstall());
    wall
}
