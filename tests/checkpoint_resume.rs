//! Crash-recovery guarantees of the streaming study runner.
//!
//! A streamed shard checkpoints its aggregate and next-batch cursor
//! after every batch. The first four tests run the resumed cells of the
//! equivalence matrix (`equivalence/mod.rs`): a run killed after a
//! batch (via the `interrupt_after_batches` hook, which stops exactly
//! where a SIGKILL between batches would) and resumed from its
//! checkpoints must end in the report and journal the matrix table
//! pins for an uninterrupted run. The rest hold the loader to its
//! promise that damaged checkpoints (truncated, edited, garbage, or
//! from a different configuration) fail with actionable diagnostics,
//! never panics, and hold a resumed run's progress heartbeat to the
//! batches the checkpoints already cover.

mod equivalence;

use equivalence::{cell, Run};
use ftp_study::{
    run_study_streamed, Checkpoint, CheckpointError, StreamError, StreamOptions, StreamOutcome,
    StudyConfig,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const SEED: u64 = 4242;
const SERVERS: usize = 90;
const BATCH_SIZE: usize = 48;

fn config() -> StudyConfig {
    StudyConfig::small(SEED, SERVERS).with_fault_fraction(0.2)
}

/// A fresh scratch directory, unique per test, inside the system temp
/// dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftpcloud-resume-{}-{name}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn run(opts: &StreamOptions) -> StreamOutcome {
    run_study_streamed(&config(), opts).expect("streamed study runs")
}

/// A K=1 run stopped after every batch boundary in turn.
#[test]
fn resume_from_every_batch_boundary_is_byte_identical() {
    equivalence::run(&[cell(0.0, 1, Run::Resumed)]);
}

/// Every resumed cell resumes once more after finishing; its journal
/// must not change.
#[test]
fn resume_after_completion_is_idempotent() {
    equivalence::run(&[cell(0.5, 8, Run::Resumed)]);
}

/// Each shard keeps its own cursor file: K=8, stopped after one batch
/// per shard, its journal file ending with the lines pinned for K=8.
#[test]
fn multi_shard_resume_is_byte_identical() {
    equivalence::run(&[cell(0.0, 8, Run::Resumed)]);
}

/// The lines of checkpointed cells stay, an unfinished batch's line and
/// a torn one are dropped, and the resumed run's journal file ends as
/// an uninterrupted run's.
#[test]
fn resumed_journal_equals_an_uninterrupted_run() {
    equivalence::run(&[cell(0.5, 1, Run::Resumed)]);
}

/// Leaves an interrupted run's checkpoint in `dir` and returns its
/// resume options.
fn interrupted_checkpoint(dir: &Path) -> StreamOptions {
    let opts = StreamOptions {
        checkpoint_dir: Some(dir.to_path_buf()),
        interrupt_after_batches: Some(1),
        ..StreamOptions::new(BATCH_SIZE)
    };
    match run(&opts) {
        StreamOutcome::Interrupted { .. } => {}
        StreamOutcome::Complete(_) => panic!("interrupt did not fire"),
    }
    StreamOptions { checkpoint_dir: Some(dir.to_path_buf()), ..StreamOptions::new(BATCH_SIZE) }
}

/// A truncated checkpoint (torn write with no temp-file rename, disk
/// full, …) is a checksum error with a diagnostic, not a panic — and
/// not silent data loss.
#[test]
fn truncated_checkpoint_is_a_clean_error() {
    let dir = scratch("truncated");
    let resume = interrupted_checkpoint(&dir);

    let path = dir.join(Checkpoint::file_name(0));
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() / 2]).unwrap();

    let err = run_study_streamed(&config(), &resume).expect_err("must reject truncated file");
    match &err {
        StreamError::Checkpoint(
            CheckpointError::ChecksumMismatch { .. } | CheckpointError::Corrupt(_),
        ) => {}
        other => panic!("wrong error class: {other}"),
    }
    assert!(!err.to_string().is_empty(), "diagnostic must not be empty");
    fs::remove_dir_all(&dir).ok();
}

/// A corrupted (bit-flipped) checkpoint fails checksum verification
/// before any field is interpreted.
#[test]
fn edited_checkpoint_is_a_clean_error() {
    let dir = scratch("edited");
    let resume = interrupted_checkpoint(&dir);

    let path = dir.join(Checkpoint::file_name(0));
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replacen("next 1", "next 0", 1)).unwrap();

    let err = run_study_streamed(&config(), &resume).expect_err("must reject edited file");
    let msg = err.to_string();
    assert!(
        matches!(err, StreamError::Checkpoint(CheckpointError::ChecksumMismatch { .. })),
        "wrong error class: {msg}"
    );
    assert!(msg.contains("checksum"), "diagnostic should name the failure: {msg}");
    fs::remove_dir_all(&dir).ok();
}

/// A file that is not a checkpoint at all gets the bad-magic
/// diagnostic.
#[test]
fn garbage_checkpoint_is_a_clean_error() {
    let dir = scratch("garbage");
    let resume = interrupted_checkpoint(&dir);

    fs::write(dir.join(Checkpoint::file_name(0)), "this is not a checkpoint\n").unwrap();
    let err = run_study_streamed(&config(), &resume).expect_err("must reject garbage");
    assert!(matches!(
        err,
        StreamError::Checkpoint(
            CheckpointError::Corrupt(_)
                | CheckpointError::BadMagic
                | CheckpointError::ChecksumMismatch { .. }
        )
    ));
    fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from a different study invocation (here: a different
/// batch geometry) is refused with the config-mismatch diagnostic
/// instead of silently producing a half-batched hybrid.
#[test]
fn checkpoint_from_other_configuration_is_refused() {
    let dir = scratch("config-mismatch");
    let _ = interrupted_checkpoint(&dir);

    let other_geometry =
        StreamOptions { checkpoint_dir: Some(dir.clone()), ..StreamOptions::new(BATCH_SIZE / 2) };
    let err = run_study_streamed(&config(), &other_geometry)
        .expect_err("must reject mismatched geometry");
    let msg = err.to_string();
    assert!(
        matches!(err, StreamError::Checkpoint(CheckpointError::ConfigMismatch { .. })),
        "wrong error class: {msg}"
    );
    assert!(msg.contains("different study configuration"), "diagnostic should explain: {msg}");
    fs::remove_dir_all(&dir).ok();
}

/// A resumed run's progress heartbeat counts the batches its
/// checkpoints cover as done: it goes on from there to the last batch,
/// where no time is left. Its host count covers only the hosts it ran
/// itself, and says so.
#[test]
fn resumed_progress_counts_checkpointed_batches() {
    static LINES: Mutex<Vec<String>> = Mutex::new(Vec::new());
    struct Collect;
    impl obs::DiagSink for Collect {
        fn line(&self, msg: &str) {
            LINES.lock().unwrap().push(msg.to_owned());
        }
    }
    obs::set_diag(Box::new(Collect));

    let dir = scratch("progress");
    let opts = StreamOptions {
        checkpoint_dir: Some(dir.clone()),
        progress: true,
        ..StreamOptions::new(BATCH_SIZE)
    };
    let first = StreamOptions { interrupt_after_batches: Some(1), ..opts.clone() };
    assert!(matches!(run(&first), StreamOutcome::Interrupted { .. }), "interrupt fires");
    let results = match run(&opts) {
        StreamOutcome::Complete(results) => results,
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    };
    let lines: Vec<String> =
        LINES.lock().unwrap().iter().filter(|l| l.starts_with("progress:")).cloned().collect();
    let batches = results.batches;
    assert!(batches > 2, "need batches left after the checkpointed one");
    assert_eq!(lines.len() as u64, batches, "one line per batch of either run: {lines:?}");
    for (line, done) in lines.iter().zip(1..) {
        let prefix = format!("progress: batches {done}/{batches} hosts ");
        assert!(line.starts_with(&prefix), "expected {prefix:?}, got {line:?}");
        assert!(line.contains(" this run ("), "the host count names its scope: {line:?}");
    }
    let hosts = |line: &str| -> u64 {
        line["progress: batches ".len()..].split(' ').nth(2).unwrap().parse().unwrap()
    };
    let (interrupted, resumed) = (hosts(&lines[0]), hosts(lines.last().unwrap()));
    assert_eq!(interrupted + resumed, results.aggregate.summary.hosts, "{lines:?}");
    assert!(lines.last().unwrap().ends_with(" eta 0s"), "{lines:?}");
    fs::remove_dir_all(&dir).ok();
}
