//! Host-journal and time-series validation (DESIGN.md §9).
//!
//! Journaling and sim-time sampling are write-only: study results stay
//! byte-identical with them on or off, at any shard count, clean or
//! hostile world. The journal itself is a faithful, partition-invariant
//! record of each host's journey, and `explain`-style summaries rebuilt
//! from it alone agree with the study's own funnel. The first four tests
//! run journaled cells of the equivalence matrix (`equivalence/mod.rs`),
//! whose table pins every journal's normalized content, the K=1 journal
//! text and time series byte for byte, and the journal file a streamed
//! run writes: its bytes at K=1, its sorted lines at K>1. The last is
//! the streamed acceptance scenario on its own, larger world.

mod equivalence;

use equivalence::{cell, run, Run};
use ftp_study::{run_study_streamed, StreamOptions, StreamOutcome, StudyConfig};
use obs::JournalFile;

#[test]
fn journaling_is_invisible_to_study_results() {
    run(&[cell(0.5, 2, Run::Recorded)]);
}

/// A journaled streamed run hits the report pinned for the in-memory
/// run, and its journal file the lines pinned for K=2.
#[test]
fn streamed_report_is_identical_with_journaling_on() {
    run(&[cell(0.0, 2, Run::Journaled)]);
}

/// A host's journal row is the same, modulo partition-relative time,
/// whichever `(shard, batch)` cell records it.
#[test]
fn journal_content_is_partition_invariant_modulo_time() {
    run(&[cell(0.1, 8, Run::Recorded)]);
}

/// Rows plus silent tallies cover every probed address, and the funnel
/// rebuilt from the journal alone equals the measured one.
#[test]
fn explain_summary_agrees_with_the_measured_funnel() {
    run(&[cell(0.1, 1, Run::Recorded)]);
}

/// The acceptance scenario: a 600-server streamed hostile run writes a
/// journal from which `explain` can reconstruct at least one gave-up
/// host's full fault-and-backoff history.
#[test]
fn streamed_600_server_journal_explains_a_gave_up_host() {
    let mut cfg = StudyConfig::small(7177, 600).with_fault_fraction(0.5);
    cfg.obs = obs::ObsConfig {
        metrics: true,
        journal: true,
        timeseries_every_us: 500_000,
        ..obs::ObsConfig::default()
    };
    let path = std::env::temp_dir()
        .join(format!("ftpcloud_jtest_{}_acceptance.jsonl", std::process::id()));
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
    let journal = JournalFile::parse(&text).expect("every flushed line parses");

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
