//! Host-journal and time-series validation (DESIGN.md §9).
//!
//! The flight recorder's contract: journaling and sim-time sampling are
//! write-only — study results stay **byte-identical** with them on or
//! off, at any shard count, clean or hostile world — and the journal
//! itself is a faithful, partition-invariant reconstruction of each
//! host's journey: the same host produces the same record (modulo
//! partition-relative timestamps) whichever `(shard, batch)` cell it
//! lands in, rows plus silent tallies account for every probed address,
//! and `explain`-style summaries rebuilt from the journal alone agree
//! with the study's own funnel. The journal itself is pinned: its exact
//! text at K=1, and its normalized content at every geometry. So is the
//! K=1 time series, byte for byte.

use ftp_study::checkpoint::fnv1a;
use ftp_study::{
    run_study_sharded, run_study_streamed, tables, StreamOptions, StreamOutcome, StudyConfig,
    StudyResults,
};
use obs::{JournalFile, ParsedJournal};

const SEED: u64 = 7177;
const SERVERS: usize = 150;

fn journal_obs() -> obs::ObsConfig {
    obs::ObsConfig {
        metrics: true,
        trace: false,
        profile: false,
        journal: true,
        timeseries_every_us: 500_000,
    }
}

fn study(fraction: f64, shards: u64, obs_on: bool) -> StudyResults {
    let mut cfg = StudyConfig::small(SEED, SERVERS).with_fault_fraction(fraction);
    if obs_on {
        cfg.obs = journal_obs();
    }
    run_study_sharded(&cfg, shards)
}

/// Field-by-field identity of the measured results; the `obs` report is
/// the only field allowed to differ.
fn assert_identical(a: &StudyResults, b: &StudyResults, label: &str) {
    assert_eq!(a.ips_scanned, b.ips_scanned, "{label}: ips_scanned");
    assert_eq!(a.open_port, b.open_port, "{label}: open_port");
    assert_eq!(a.records, b.records, "{label}: records");
    assert_eq!(a.bounce_hits, b.bounce_hits, "{label}: bounce hits");
    assert_eq!(a.http, b.http, "{label}: http observations");
    assert_eq!(a.funnel(), b.funnel(), "{label}: funnel");
    assert_eq!(a.truth.hosts, b.truth.hosts, "{label}: ground truth");
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ftpcloud_jtest_{}_{name}", std::process::id()))
}

/// Runs the streamed study with journaling into `path`, returning the
/// rendered report.
fn streamed_report(cfg: &StudyConfig, shards: u64, path: Option<&std::path::Path>) -> String {
    let opts = StreamOptions {
        shards,
        journal_path: path.map(std::path::Path::to_path_buf),
        ..StreamOptions::new(25)
    };
    match run_study_streamed(cfg, &opts).expect("streamed study runs") {
        StreamOutcome::Complete(r) => tables::stream_report(&r.aggregate, &r.spec),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
}

#[test]
fn journaling_is_invisible_to_study_results() {
    for fraction in [0.0, 0.5] {
        let off = study(fraction, 1, false);
        assert!(off.obs.is_none(), "no collection requested, no report");
        for shards in [1, 8] {
            let on = study(fraction, shards, true);
            let report = on.obs.as_ref().expect("collection requested");
            assert!(!report.journal.is_empty(), "journals collected");
            assert!(!report.series.is_empty(), "timeseries sampled");
            assert_identical(&off, &on, &format!("{:.0}% faults, K={shards}", fraction * 100.0));
        }
    }
}

#[test]
fn streamed_report_is_identical_with_journaling_on() {
    let mut plain = StudyConfig::small(SEED, SERVERS).with_fault_fraction(0.5);
    let baseline = streamed_report(&plain, 1, None);

    plain.obs = journal_obs();
    for shards in [1, 8] {
        let path = temp(&format!("stream_k{shards}.jsonl"));
        let report = streamed_report(&plain, shards, Some(&path));
        assert_eq!(
            baseline, report,
            "streamed report must be byte-identical with journaling on (K={shards})"
        );
        let text = std::fs::read_to_string(&path).expect("journal written");
        let parsed = ParsedJournal::parse_file(&text).expect("every flushed line parses");
        assert!(!parsed.hosts.is_empty(), "streamed journal is non-empty");
        let _ = std::fs::remove_file(&path);
    }
}

/// fnv1a of `Report::journal`'s text for the K=1 hostile study: every
/// host row and tally byte for byte.
const JOURNAL_TEXT_DIGEST: u64 = 12_127_608_812_749_377_742;

/// fnv1a of `Report::timeseries_csv` for the same K=1 hostile study:
/// every sampled metric row byte for byte.
const TIMESERIES_CSV_DIGEST: u64 = 7_755_980_719_193_154_476;

/// fnv1a of the normalized host rows in address order followed by the
/// silent total; every shard count and batch geometry must hit it.
const NORMALIZED_DIGEST: u64 = 5_978_285_795_313_635_603;

/// The partition-invariant content of a journal: its host rows
/// normalized and sorted by address, and its silent total.
fn normalized(file: &JournalFile) -> (Vec<ParsedJournal>, u64) {
    let mut rows: Vec<ParsedJournal> = file.hosts.iter().map(ParsedJournal::normalized).collect();
    rows.sort_by_key(|j| u32::from(j.ip));
    (rows, file.silent())
}

/// The pinned digest of [`normalized`]'s output: each row's `Debug`
/// text, then the silent total.
fn normalized_digest((rows, silent): &(Vec<ParsedJournal>, u64)) -> u64 {
    let mut text = String::new();
    for row in rows {
        text.push_str(&format!("{row:?}\n"));
    }
    text.push_str(&format!("silent {silent}\n"));
    fnv1a(text.as_bytes())
}

/// The same host's journal is identical — modulo the partition-relative
/// wall/sim-time fields that [`ParsedJournal::normalized`] zeroes —
/// whether it was recorded by the in-memory runner at K=1 or K=8, or by
/// the streaming runner in any batch geometry; so is the number of
/// silent addresses. The K=1 text, the K=1 time series and the
/// normalized content are pinned.
#[test]
fn journal_content_is_partition_invariant_modulo_time() {
    let in_memory = |shards: u64| -> (String, String, JournalFile) {
        let report = study(0.5, shards, true).obs.expect("collection requested");
        let text = report.journal_jsonl();
        let file = ParsedJournal::parse_file(&text).expect("in-memory journal parses");
        (text, report.timeseries_csv(), file)
    };

    let (k1_text, k1_series, k1_file) = in_memory(1);
    assert_eq!(fnv1a(k1_text.as_bytes()), JOURNAL_TEXT_DIGEST, "K=1 journal text drifted");
    assert_eq!(fnv1a(k1_series.as_bytes()), TIMESERIES_CSV_DIGEST, "K=1 time series drifted");
    let k1 = normalized(&k1_file);
    assert_eq!(normalized_digest(&k1), NORMALIZED_DIGEST, "K=1: normalized journal drifted");

    let k8 = normalized(&in_memory(8).2);
    assert_eq!(
        k1.0.len() as u64 + k1.1,
        k8.0.len() as u64 + k8.1,
        "rows plus tallies cover every probed address at any K"
    );
    assert_eq!(k1, k8, "journals must be shard-invariant modulo time fields");

    let mut cfg = StudyConfig::small(SEED, SERVERS).with_fault_fraction(0.5);
    cfg.obs = journal_obs();
    let path = temp("partition.jsonl");
    let _ = streamed_report(&cfg, 1, Some(&path));
    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let streamed = normalized(&ParsedJournal::parse_file(&text).expect("streamed journal parses"));
    assert_eq!(k1, streamed, "journals must be batch-invariant modulo time fields");
    for (label, journal) in [("K=8", &k8), ("streamed batch 25", &streamed)] {
        assert_eq!(normalized_digest(journal), NORMALIZED_DIGEST, "{label}: journal drifted");
    }
}

/// `explain` reconstructs the study from the journal alone: the funnel
/// stages derivable from per-host outcomes must agree exactly with the
/// study's measured funnel, and every line must round-trip through the
/// parser into a renderable timeline.
#[test]
fn explain_summary_agrees_with_the_measured_funnel() {
    let results = study(0.5, 1, true);
    let funnel = results.funnel();
    let report = results.obs.expect("collection requested");
    let journal = ParsedJournal::parse_file(&report.journal_jsonl()).expect("every line parses");

    assert_eq!(
        journal.hosts.len() as u64 + journal.silent(),
        results.ips_scanned,
        "rows plus tallies cover every probed address"
    );
    let summary = obs::summarize(&journal);
    assert_eq!(summary.hosts, results.ips_scanned);
    assert_eq!(summary.open, funnel.open_port, "open verdicts match the funnel");
    assert_eq!(summary.anonymous, funnel.anonymous, "anonymous logins match the funnel");
    let gave_up: u64 = summary.gave_up.iter().map(|&(_, n)| n).sum();
    assert_eq!(gave_up, funnel.gave_up, "give-ups match the funnel");
    assert!(summary.sessions >= summary.ftp, "sessions cover every ftp host");

    for j in journal.hosts.iter().take(64) {
        let timeline = j.timeline();
        assert!(timeline.contains("journal timeline"), "timeline renders: {timeline}");
    }
}

/// The acceptance scenario: a 600-server streamed hostile run writes a
/// journal from which `explain` can reconstruct at least one gave-up
/// host's full fault-and-backoff history.
#[test]
fn streamed_600_server_journal_explains_a_gave_up_host() {
    let mut cfg = StudyConfig::small(SEED, 600).with_fault_fraction(0.5);
    cfg.obs = journal_obs();
    let path = temp("acceptance.jsonl");
    let opts = StreamOptions {
        journal_path: Some(path.clone()),
        ..StreamOptions::new(64)
    };
    match run_study_streamed(&cfg, &opts).expect("streamed study runs") {
        StreamOutcome::Complete(r) => assert!(r.aggregate.summary.hosts > 0),
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let journal = ParsedJournal::parse_file(&text).expect("every flushed line parses");

    let batches: std::collections::HashSet<u64> = journal.hosts.iter().map(|j| j.batch).collect();
    assert!(batches.len() > 1, "journals span multiple batches");

    let hostile = journal
        .hosts
        .iter()
        .find(|j| j.gave_up.is_some() && !j.faults.is_empty() && !j.retries.is_empty())
        .expect("a hostile world yields a gave-up host with faults and retries");
    let timeline = hostile.timeline();
    assert!(timeline.contains("fault encountered"), "timeline shows faults:\n{timeline}");
    assert!(timeline.contains("connect retry"), "timeline shows backoff:\n{timeline}");
    assert!(timeline.contains("gave_up="), "timeline shows the outcome:\n{timeline}");
}
