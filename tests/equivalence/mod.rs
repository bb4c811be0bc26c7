//! The equivalence matrix: every configuration of the study runners
//! hits one committed digest table.
//!
//! Shard count, recorder switches, probe scheduling, batch size and
//! resume point are performance and operator knobs. They show in wall
//! time, memory and the recorder's own artifacts, and nowhere in what
//! the study measured. A [`Cell`] is one configuration run on one
//! world, `StudyConfig::small(7177, 150)`, at 0%, 10% or 50% hostile
//! hosts, and every run must hit its fault fraction's row of [`TABLE`].
//! The table was captured from a known-good build, so a change that
//! moves every configuration together fails here just as one that
//! splits them does. A deliberate output change updates the table in
//! the same change, with the reason.
//!
//! The suites that include this module (`shard_determinism`,
//! `probe_batching`, `streaming_equivalence`, `obs_validation`,
//! `journal_validation`, `checkpoint_resume` and `chaos_validation`)
//! list their cells in their own tests and pass them to [`run`]; each
//! configuration is listed once, so it runs once per `cargo test`.
//!
//! Runs with the recorder on also check what must hold within a run:
//! the metrics agree with each other and with the results, the journal
//! alone rebuilds every funnel row but FTP servers (a host that greeted
//! and timed out before login has no row field saying it greeted),
//! every trace line keeps its envelope, no span ends before it starts,
//! and the profile covers every stage.

use analysis::StreamingAggregate;
use ftp_study::checkpoint::fnv1a;
use ftp_study::{
    aggregate_of, full_report, run_study_sharded, run_study_streamed, stream_report, StreamOptions,
    StreamOutcome, StreamResults, StudyConfig, StudyResults,
};
use obs::{HostJournal, JournalFile};
use std::fs;
use std::path::PathBuf;

const SEED: u64 = 7177;
const SERVERS: usize = 150;

/// Shard counts with their own recorder artifacts in each [`Row`].
const SHARDS: [u64; 3] = [1, 2, 8];

/// The batch size of the journaled streamed runs and of the resumed
/// runs.
const JOURNAL_BATCH: usize = 64;

/// One batch per shard.
pub const WHOLE_WORLD: usize = usize::MAX;

/// What every configuration at one fault fraction must reproduce.
struct Row {
    /// Share of hostile hosts.
    fault: f64,
    /// [`results_digest`] of every in-memory run.
    results: u64,
    /// [`aggregate_digest`] of every run.
    aggregate: u64,
    /// fnv1a of `full_report` for every in-memory run.
    full_report: u64,
    /// fnv1a of `stream_report` for every run.
    stream_report: u64,
    /// [`normalized_digest`] of every journal.
    journal: u64,
    /// [`file_digest`] of the journal file a streamed run in
    /// [`JOURNAL_BATCH`]-host batches writes, resumed or not, at each of
    /// [`SHARDS`]; `None` where no streamed run is made.
    journal_file: Option<[u64; 3]>,
    /// [`invariant_digest`] of every recorded run's metrics.
    invariant_counters: u64,
    /// What the full recorder collects at each of [`SHARDS`], in memory
    /// or as one whole-world batch: fnv1a of the trace with every
    /// `wall_ns` field removed,
    trace: [u64; 3],
    /// of the metrics snapshot's JSON,
    metrics: [u64; 3],
    /// of the journal text,
    journal_text: [u64; 3],
    /// and of the time-series CSV.
    timeseries: [u64; 3],
}

/// fnv1a of the K=1 journal text at 50% faults: every host row and
/// tally byte for byte.
const JOURNAL_TEXT_DIGEST: u64 = 12_127_608_812_749_377_742;

/// fnv1a of the K=1 time series at 50% faults: every sampled row byte
/// for byte.
const TIMESERIES_CSV_DIGEST: u64 = 7_755_980_719_193_154_476;

/// [`normalized_digest`] of every journal at 50% faults.
const NORMALIZED_DIGEST: u64 = 0xbff5_cd6f_daff_92e2;

/// The committed table, one row per fault fraction.
static TABLE: [Row; 3] = [
    Row {
        fault: 0.0,
        results: 0x51ac_c4cf_0193_4d3e,
        aggregate: 0x4cab_8d48_705b_6a03,
        full_report: 0x030b_d56a_0517_6be6,
        stream_report: 0xc49f_8a80_14fc_72ec,
        journal: 0x4d55_0ce8_7aba_0591,
        journal_file: Some([0xe30c_9263_cbee_fcc4, 0x3d74_e970_b25b_b0a5, 0x6b58_7e84_f2d1_ddf9]),
        invariant_counters: 0x6191_7ee8_e4ae_9af7,
        trace: [0xc07c_7556_98bd_c2ad, 0x1748_e97f_4a07_5bf4, 0x80a6_45a1_b5fa_1c8f],
        metrics: [0x9cd8_f089_bf83_452c, 0x5510_cd45_f11a_6033, 0xa025_996b_3a8a_0cfc],
        journal_text: [0x3445_890f_fe3b_7c63, 0x7203_4e1c_0403_1be5, 0x3afb_d389_0c80_d647],
        timeseries: [0x061c_b1b0_308c_6142, 0xcbf2_1a15_b154_efda, 0xb4de_82fc_19c9_e35f],
    },
    Row {
        fault: 0.1,
        results: 0x466c_e48f_469e_ecb0,
        aggregate: 0xf2d2_111a_ae42_e52d,
        full_report: 0x4107_80c2_d8ac_0be5,
        stream_report: 0x94cf_170b_4d17_779c,
        journal: 0xf8fa_980e_43f2_47ce,
        journal_file: None,
        invariant_counters: 0xf30e_283a_6aca_b60e,
        trace: [0x8186_5d50_ce71_7fbb, 0xa9e5_3f94_0a3c_a306, 0x8801_eb3c_f7e7_851c],
        metrics: [0x42b6_d856_d4c3_7155, 0x0f9c_f415_d9d1_6800, 0x520f_f5a8_55fe_20ef],
        journal_text: [0x5c20_bd04_032e_1f43, 0x2e95_e0d3_ff67_e0e0, 0x27a9_4591_089d_5f37],
        timeseries: [0x5ec7_fab7_beef_3d30, 0x8061_3381_074b_8b46, 0xf503_645a_730d_87da],
    },
    Row {
        fault: 0.5,
        results: 0xbc77_8441_981b_36e9,
        aggregate: 0x3f2f_be9e_4974_fd00,
        full_report: 0x1987_8f10_23d1_0097,
        stream_report: 0x2f1f_105a_628c_0ad5,
        journal: NORMALIZED_DIGEST,
        journal_file: Some([0x2a2b_9770_33ab_4312, 0x5b59_c350_3999_587e, 0x85c8_1108_a31b_d09e]),
        invariant_counters: 0xa988_1795_a8b4_d00d,
        trace: [0x7f17_d269_8cd8_3e90, 0x6e12_68b7_60c4_782e, 0x82e9_7753_2524_23a9],
        metrics: [0x2375_d492_a515_99db, 0x7310_13d9_dd29_b2d0, 0x43f6_0b5e_6f0b_89e7],
        journal_text: [JOURNAL_TEXT_DIGEST, 0xa7d1_5cdb_00e7_bb85, 0x6932_108c_18cf_e66a],
        timeseries: [TIMESERIES_CSV_DIGEST, 0xeef7_d70d_c558_f733, 0x4f30_dc88_0479_29be],
    },
];

/// Every counter of the K=1 run at 50% faults, by name, in registry
/// order.
const PINNED_COUNTERS: [(&str, u64); obs::Counter::COUNT] = [
    ("sim_events", 23_398),
    ("sim_ev_data", 9335),
    ("sim_ev_timer", 6969),
    ("sim_ev_connect", 4811),
    ("sim_ev_close", 1534),
    ("sim_ev_probe", 262_144),
    ("connects", 1616),
    ("connect_failures", 27),
    ("connect_retries", 18),
    ("backoff_wait_us", 27_000_000),
    ("replies_total", 4316),
    ("reply_1xx", 1232),
    ("reply_2xx", 2763),
    ("reply_3xx", 106),
    ("reply_4xx", 0),
    ("reply_5xx", 215),
    ("reply_other", 0),
    ("sessions_started", 237),
    ("sessions_finished", 237),
    ("gave_ups", 121),
    ("step_timeouts", 63),
    ("listing_bytes", 1_563_563),
    ("probes_sent", 262_144),
    ("vfs_ops", 48_900),
    ("vfs_nodes", 45_503),
    ("vfs_interned_bytes", 58_633),
    ("scan_slots", 262_144),
    ("wheel_inserts", 23_398),
    ("wheel_cascades", 29_940),
    ("wheel_cascaded_entries", 58_954),
    ("hosts_materialized", 237),
    ("http_observations", 67),
    ("funnel_invariant_violations", 0),
    ("codec_lines_borrowed", 7424),
    ("codec_lines_copied", 4),
    ("vfs_dead_nodes", 0),
];

/// Counters that sum a per-host quantity over the hosts, so every
/// shard count and batch size must agree on them.
const INVARIANT_COUNTERS: [obs::Counter; 12] = [
    obs::Counter::Connects,
    obs::Counter::RepliesTotal,
    obs::Counter::SessionsStarted,
    obs::Counter::SessionsFinished,
    obs::Counter::GaveUps,
    obs::Counter::ListingBytes,
    obs::Counter::HostsMaterialized,
    obs::Counter::HttpObservations,
    obs::Counter::ProbesSent,
    obs::Counter::VfsNodes,
    obs::Counter::VfsOps,
    obs::Counter::VfsInternedBytes,
];

fn config(fault: f64) -> StudyConfig {
    StudyConfig::small(SEED, SERVERS).with_fault_fraction(fault)
}

/// [`config`] with the full recorder: `ObsConfig::all()` plus the
/// journal and a 500 ms time series.
fn full_recorder(fault: f64) -> StudyConfig {
    let mut cfg = config(fault);
    cfg.obs =
        obs::ObsConfig { journal: true, timeseries_every_us: 500_000, ..obs::ObsConfig::all() };
    cfg
}

fn streamed(cfg: &StudyConfig, opts: &StreamOptions) -> StreamResults {
    match run_study_streamed(cfg, opts).expect("streamed study runs") {
        StreamOutcome::Complete(results) => *results,
        StreamOutcome::Interrupted { next_batches } => {
            panic!("no interrupt requested, stopped at {next_batches:?}")
        }
    }
}

/// A fresh scratch path, unique per test process.
fn scratch(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("ftpcloud-equivalence-{}-{name}", std::process::id()));
    fs::remove_dir_all(&path).ok();
    path
}

fn digest(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// fnv1a over the measured results in address order: the scan
/// counters, records, ground truth, non-FTP responders, bounce hits
/// and HTTP observations. The funnel and run summary derive from these.
fn results_digest(r: &StudyResults) -> u64 {
    let mut bounce_hits: Vec<_> = r.bounce_hits.iter().collect();
    bounce_hits.sort_unstable();
    let mut http: Vec<_> = r.http.iter().collect();
    http.sort_unstable_by_key(|&(ip, _)| *ip);
    digest(&format!(
        "{} {}\n{:?}\n{:?}\n{:?}\n{bounce_hits:?}\n{http:?}\n",
        r.ips_scanned, r.open_port, r.records, r.truth.hosts, r.truth.non_ftp_open
    ))
}

/// fnv1a of an aggregate's `Debug` text with its batch count zeroed:
/// that count is how many cells were folded, which differs by geometry.
fn aggregate_digest(aggregate: &StreamingAggregate) -> u64 {
    digest(&format!("{:?}", StreamingAggregate { batches: 0, ..aggregate.clone() }))
}

/// fnv1a of a journal's partition-invariant content: its host rows
/// normalized and sorted by address, each as `Debug` text, then its
/// silent total.
fn normalized_digest(file: &JournalFile) -> u64 {
    let mut rows: Vec<HostJournal> = file.hosts.iter().map(HostJournal::normalized).collect();
    rows.sort_by_key(|j| u32::from(j.ip));
    let mut text = String::new();
    for row in &rows {
        text.push_str(&format!("{row:?}\n"));
    }
    text.push_str(&format!("silent {}\n", file.silent()));
    digest(&text)
}

/// fnv1a of a journal file a streamed run at `shards` wrote: of its
/// bytes at K=1, and of its lines sorted at K>1, where the shards
/// interleave their lines.
fn file_digest(text: &str, shards: u64) -> u64 {
    if shards == 1 {
        return digest(text);
    }
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    digest(&lines.join("\n"))
}

/// fnv1a of the [`INVARIANT_COUNTERS`], one `name=value` line each.
fn invariant_digest(metrics: &obs::MetricsSnapshot) -> u64 {
    let lines: String = INVARIANT_COUNTERS
        .iter()
        .map(|&c| format!("{}={}\n", c.name(), metrics.counter(c)))
        .collect();
    digest(&lines)
}

/// Removes the one nondeterministic field (`"wall_ns":<digits>`) from a
/// trace line.
fn strip_wall(line: &str) -> String {
    match line.find("\"wall_ns\":") {
        None => line.to_owned(),
        Some(at) => {
            let digits_at = at + "\"wall_ns\":".len();
            let end = line[digits_at..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |e| digits_at + e);
            format!("{}{}", &line[..at], &line[end..])
        }
    }
}

/// The value of the numeric field `key` in a trace line.
fn field(line: &str, key: &str) -> u64 {
    let at = line.find(key).unwrap_or_else(|| panic!("{key} missing: {line}")) + key.len();
    line[at..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

/// Every miss of the table, collected so that one failure names them
/// all.
#[derive(Default)]
struct Misses(Vec<String>);

impl Misses {
    fn check(&mut self, cell: &str, what: &str, got: u64, pinned: u64) {
        if got != pinned {
            self.0.push(format!("{cell}: {what} {got:#018x}, pinned {pinned:#018x}"));
        }
    }

    fn none(self) {
        assert!(self.0.is_empty(), "{} misses of the table:\n{}", self.0.len(), self.0.join("\n"));
    }
}

/// Holds an in-memory run to its row: results in address order, the
/// aggregate, and both reports.
fn check_in_memory(misses: &mut Misses, cell: &str, row: &Row, r: &StudyResults) {
    assert!(r.records.windows(2).all(|w| w[0].ip < w[1].ip), "{cell}: records out of order");
    assert!(r.truth.hosts.windows(2).all(|w| w[0].ip < w[1].ip), "{cell}: hosts out of order");
    assert!(r.truth.non_ftp_open.windows(2).all(|w| w[0] < w[1]), "{cell}: non-FTP out of order");
    misses.check(cell, "results", results_digest(r), row.results);
    let aggregate = aggregate_of(r);
    misses.check(cell, "aggregate", aggregate_digest(&aggregate), row.aggregate);
    misses.check(cell, "full_report", digest(&full_report(r)), row.full_report);
    let report = stream_report(&aggregate, &r.truth.spec);
    misses.check(cell, "stream_report", digest(&report), row.stream_report);
}

/// Holds a streamed run to its row: the aggregate and its report.
fn check_streamed(misses: &mut Misses, cell: &str, row: &Row, r: &StreamResults) {
    misses.check(cell, "aggregate", aggregate_digest(&r.aggregate), row.aggregate);
    let report = stream_report(&r.aggregate, &r.spec);
    misses.check(cell, "stream_report", digest(&report), row.stream_report);
}

/// A whole-world batch is one batch per shard, each folded once.
fn check_whole_world(cell: &str, r: &StreamResults) {
    assert_eq!(r.batches, 1, "{cell}: one batch per shard");
    assert_eq!(r.aggregate.batches, r.shards, "{cell}: one fold per shard");
}

/// Holds a journal to its row's normalized digest.
fn check_journal(misses: &mut Misses, cell: &str, row: &Row, text: &str) {
    let file = JournalFile::parse(text)
        .unwrap_or_else(|e| panic!("{cell}: journal does not parse: {e}"));
    misses.check(cell, "normalized journal", normalized_digest(&file), row.journal);
}

/// Holds the journal file a streamed run at `shards` wrote to its row's
/// normalized digest and to the row's pin for the file at that K.
fn check_journal_file(misses: &mut Misses, cell: &str, row: &Row, shards: u64, text: &str) {
    let pinned = row.journal_file.expect("rows with streamed runs pin their journal file");
    misses.check(cell, "journal file", file_digest(text, shards), pinned[shard_index(shards)]);
    check_journal(misses, cell, row, text);
}

/// Position of `shards` in [`SHARDS`], which orders the per-K pins.
fn shard_index(shards: u64) -> usize {
    SHARDS.iter().position(|&k| k == shards).expect("a pinned shard count")
}

/// Checks what holds within any fully recorded run: the per-host
/// counters hit the row, every trace line keeps its envelope with
/// sequence numbers rising per shard, and no span ends before it
/// starts. `scans` is how many scan stages the run ran.
fn check_recorder(misses: &mut Misses, cell: &str, row: &Row, report: &obs::Report, scans: u64) {
    misses.check(
        cell,
        "invariant counters",
        invariant_digest(&report.metrics),
        row.invariant_counters,
    );
    assert!(!report.trace.is_empty(), "{cell}: trace requested, lines collected");
    let mut last_seq = std::collections::HashMap::new();
    for line in &report.trace {
        let span = line.starts_with("{\"type\":\"span\",\"shard\":");
        assert!(span || line.starts_with("{\"type\":\"event\",\"shard\":"), "{cell}: {line}");
        assert!(line.ends_with('}'), "{cell}: unterminated line: {line}");
        assert!(line.contains("\"seq\":") && line.contains("\"name\":"), "{cell}: {line}");
        if span {
            let (start, end) = (field(line, "\"sim_start_us\":"), field(line, "\"sim_end_us\":"));
            assert!(start <= end, "{cell}: span ends before it starts: {line}");
            assert!(line.contains("\"wall_ns\":"), "{cell}: span without wall_ns: {line}");
        } else {
            assert!(line.contains("\"sim_us\":"), "{cell}: event without sim_us: {line}");
        }
        let (shard, seq) = (field(line, "\"shard\":"), field(line, "\"seq\":"));
        if let Some(prev) = last_seq.insert(shard, seq) {
            assert!(seq > prev, "{cell}: shard {shard} seq {prev} then {seq}");
        }
    }
    let profile = report.render_profile();
    for span in ["shard.run", "stage.scan", "stage.enumerate", "stage.webprobe", "study.merge"] {
        assert!(profile.contains(span), "{cell}: profile misses {span}:\n{profile}");
    }
    let scan = report.spans.iter().find(|s| s.name == "stage.scan").expect("scan span");
    assert_eq!(scan.count, scans, "{cell}: one scan span per cell");
    assert!(scan.sim_total_us > 0, "{cell}: scan consumed simulated time");
}

/// Holds a fully recorded run at `shards` with its journal still in the
/// report (in memory, or one whole-world batch) to the row's recorder
/// artifacts.
fn check_recorded(misses: &mut Misses, cell: &str, row: &Row, shards: u64, report: &obs::Report) {
    let k = shard_index(shards);
    let trace: String = report.trace.iter().map(|l| strip_wall(l) + "\n").collect();
    misses.check(cell, "trace", digest(&trace), row.trace[k]);
    misses.check(cell, "metrics", digest(&report.metrics.render_json()), row.metrics[k]);
    misses.check(cell, "journal text", digest(report.journal.as_str()), row.journal_text[k]);
    misses.check(cell, "time series", digest(&report.timeseries_csv()), row.timeseries[k]);
    check_journal(misses, cell, row, report.journal.as_str());
    check_recorder(misses, cell, row, report, shards);
    if shards == 1 && row.fault == 0.5 {
        let m = &report.metrics;
        let drifted: Vec<String> = obs::Counter::ALL
            .iter()
            .zip(PINNED_COUNTERS)
            .filter(|&(c, (name, pinned))| c.name() != name || m.counter(*c) != pinned)
            .map(|(c, (name, pinned))| {
                format!("{} = {} (pinned {name} = {pinned})", c.name(), m.counter(*c))
            })
            .collect();
        assert!(drifted.is_empty(), "{cell}: counters drifted from PINNED_COUNTERS: {drifted:#?}");
    }
}

/// What holds within a fully recorded in-memory run: the metrics agree
/// with each other and with the results, and the journal alone rebuilds
/// the measured funnel.
fn check_coherent(cell: &str, r: &StudyResults) {
    let report = r.obs.as_ref().expect("collection requested");
    let m = &report.metrics;
    let by_class: u64 = [
        obs::Counter::Reply1xx,
        obs::Counter::Reply2xx,
        obs::Counter::Reply3xx,
        obs::Counter::Reply4xx,
        obs::Counter::Reply5xx,
        obs::Counter::ReplyOther,
    ]
    .iter()
    .map(|&c| m.counter(c))
    .sum();
    let busy = m.counter(obs::Counter::SimEvents) > 0 && m.counter(obs::Counter::Connects) > 0;
    assert!(busy, "{cell}: no events or connects counted");
    assert_eq!(m.counter(obs::Counter::RepliesTotal), by_class, "{cell}: reply classes");
    let sessions = m.counter(obs::Counter::SessionsFinished);
    assert_eq!(m.counter(obs::Counter::SessionsStarted), sessions, "{cell}: unfinished sessions");
    assert_eq!(m.hist(obs::Hist::SessionSimUs).count, sessions, "{cell}: session latencies");
    assert_eq!(m.counter(obs::Counter::ProbesSent), r.ips_scanned, "{cell}: probes");
    let funnel = r.funnel();
    assert_eq!(m.counter(obs::Counter::GaveUps), funnel.gave_up, "{cell}: give-ups");
    assert_eq!(m.counter(obs::Counter::HttpObservations), r.http.len() as u64, "{cell}: http");
    assert_eq!(m.counter(obs::Counter::FunnelInvariantViolations), 0, "{cell}: funnel invariant");

    let journal = JournalFile::parse(report.journal.as_str()).expect("journal parses");
    let summary = obs::summarize(&journal);
    assert_eq!(summary.hosts, r.ips_scanned, "{cell}: rows plus tallies cover every address");
    assert_eq!(summary.open, funnel.open_port, "{cell}: explained open ports");
    assert_eq!(summary.anonymous, funnel.anonymous, "{cell}: explained anonymous logins");
    let gave_up: u64 = summary.gave_up.iter().map(|&(_, n)| n).sum();
    assert_eq!(gave_up, funnel.gave_up, "{cell}: explained give-ups");
    assert!(summary.sessions >= summary.ftp, "{cell}: sessions cover every FTP host");
    for j in journal.hosts.iter().take(64) {
        assert!(j.timeline().contains("journal timeline"), "{cell}: {}", j.timeline());
    }
}

/// How a cell runs the study.
#[derive(Clone, Copy, Debug)]
#[allow(dead_code)] // each suite including this module constructs only some variants
pub enum Run {
    /// The in-memory runner, recorder off.
    InMemory,
    /// The in-memory runner with the [`full_recorder`].
    Recorded,
    /// The in-memory runner with one discovery event per probe instead
    /// of one per pacing tick.
    PerProbe,
    /// The streamed runner in batches of this many hosts, recorder off.
    Streamed(usize),
    /// The streamed runner in [`JOURNAL_BATCH`]-host batches with the
    /// full recorder, writing its journal to a file batch by batch.
    Journaled,
    /// One [`WHOLE_WORLD`] batch per shard with the full recorder: it
    /// must collect what [`Run::Recorded`] does at the same K.
    WholeWorld,
    /// The streamed runner in [`JOURNAL_BATCH`]-host batches with the
    /// journal on, stopped and resumed from its checkpoints.
    Resumed,
}

/// One configuration at one fault fraction.
pub struct Cell {
    row: &'static Row,
    shards: u64,
    run: Run,
}

/// The cell that runs `run` at `shards` on the world with a `fault`
/// share of hostile hosts, which must be one of [`TABLE`]'s rows.
pub fn cell(fault: f64, shards: u64, run: Run) -> Cell {
    let row = TABLE.iter().find(|row| row.fault == fault).expect("a pinned fault fraction");
    Cell { row, shards, run }
}

/// Runs `cells` one after another on the calling thread, and fails
/// naming every miss of [`TABLE`].
pub fn run(cells: &[Cell]) {
    let mut misses = Misses::default();
    for cell in cells {
        cell.check(&mut misses);
    }
    misses.none();
}

impl Cell {
    fn check(&self, misses: &mut Misses) {
        let (row, shards) = (self.row, self.shards);
        let label = &format!("{:.0}% faults, K={shards} {:?}", row.fault * 100.0, self.run);
        match self.run {
            Run::InMemory => {
                let r = run_study_sharded(&config(row.fault), shards);
                assert!(r.obs.is_none(), "{label}: no collection requested, no report");
                check_in_memory(misses, label, row, &r);
            }
            Run::Recorded => {
                let r = run_study_sharded(&full_recorder(row.fault), shards);
                check_in_memory(misses, label, row, &r);
                check_recorded(misses, label, row, shards, r.obs.as_ref().expect("report"));
                check_coherent(label, &r);
            }
            Run::PerProbe => {
                let mut cfg = config(row.fault);
                cfg.per_probe_events = true;
                check_in_memory(misses, label, row, &run_study_sharded(&cfg, shards));
            }
            Run::Streamed(batch_size) => {
                let opts = StreamOptions { shards, ..StreamOptions::new(batch_size) };
                let r = streamed(&config(row.fault), &opts);
                check_streamed(misses, label, row, &r);
                if batch_size == WHOLE_WORLD {
                    check_whole_world(label, &r);
                }
            }
            Run::Journaled => journaled(misses, label, row, shards),
            Run::WholeWorld => {
                let opts = StreamOptions { shards, ..StreamOptions::new(WHOLE_WORLD) };
                let r = streamed(&full_recorder(row.fault), &opts);
                check_streamed(misses, label, row, &r);
                check_whole_world(label, &r);
                check_recorded(misses, label, row, shards, r.obs.as_ref().expect("report"));
            }
            Run::Resumed => resumed(misses, label, row, shards),
        }
    }
}

/// A [`Run::Journaled`] cell: its journal file must hit the row.
fn journaled(misses: &mut Misses, label: &str, row: &Row, shards: u64) {
    let path = scratch(&format!("journaled-{}-{shards}.jsonl", row.fault));
    let opts = StreamOptions {
        shards,
        journal_path: Some(path.clone()),
        ..StreamOptions::new(JOURNAL_BATCH)
    };
    let r = streamed(&full_recorder(row.fault), &opts);
    assert!(r.batches > 1, "{label}: several batches");
    check_streamed(misses, label, row, &r);
    let text = fs::read_to_string(&path).expect("journal written");
    fs::remove_file(&path).ok();
    check_journal_file(misses, label, row, shards, &text);
    let report = r.obs.as_ref().expect("collection requested");
    check_recorder(misses, label, row, report, r.batches * shards);
}

/// A [`Run::Resumed`] cell. At K=1 each invocation runs one batch, so
/// every checkpoint boundary is resumed from; at K>1 the run stops
/// after one batch per shard and resumes to the end. After the first
/// stop the journal gains what a crash between flushing a batch and
/// checkpointing it leaves, that batch's line and a torn one, which the
/// resume must drop. Resuming the finished run changes nothing.
fn resumed(misses: &mut Misses, label: &str, row: &Row, shards: u64) {
    let mut cfg = config(row.fault);
    cfg.obs = obs::ObsConfig { journal: true, ..obs::ObsConfig::default() };
    let dir = scratch(&format!("resume-{}-{shards}", row.fault));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let opts = |interrupt| StreamOptions {
        shards,
        checkpoint_dir: Some(dir.clone()),
        interrupt_after_batches: interrupt,
        journal_path: Some(path.clone()),
        ..StreamOptions::new(JOURNAL_BATCH)
    };
    let mut next = 0;
    let results = loop {
        let interrupt = (shards == 1 || next == 0).then_some(1);
        match run_study_streamed(&cfg, &opts(interrupt)).expect("streamed study runs") {
            StreamOutcome::Complete(results) => break *results,
            StreamOutcome::Interrupted { next_batches } => {
                next += 1;
                assert_eq!(next_batches, vec![next; shards as usize], "{label}: cursors");
            }
        }
        if next == 1 {
            let text = fs::read_to_string(&path).unwrap();
            let last = text.lines().last().expect("a flushed batch");
            let (shard, _) = JournalFile::cell(last).expect("a tagged line");
            let unfinished = last.replacen("\"batch\":0,", "\"batch\":1,", 1);
            assert_eq!(JournalFile::cell(&unfinished), Some((shard, 1)), "{label}");
            let torn = &unfinished[..unfinished.len() / 2];
            fs::write(&path, format!("{text}{unfinished}\n{torn}")).unwrap();
        }
    };
    assert!(results.batches > 2, "{label}: several boundaries");
    check_streamed(misses, label, row, &results);
    let text = fs::read_to_string(&path).expect("journal written");
    check_journal_file(misses, label, row, shards, &text);
    check_streamed(misses, label, row, &streamed(&cfg, &opts(None)));
    assert_eq!(fs::read_to_string(&path).unwrap(), text, "{label}: finished run resumed");
    fs::remove_dir_all(&dir).ok();
}
