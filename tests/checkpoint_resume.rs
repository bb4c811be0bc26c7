//! Crash-recovery guarantees of the streaming study runner.
//!
//! A streamed shard checkpoints its aggregate and next-batch cursor
//! after every batch. These tests kill the run after *every possible*
//! batch boundary (via the `interrupt_after_batches` hook, which stops
//! exactly where a SIGKILL between batches would), resume from the
//! checkpoint directory, and demand a final report byte-identical to an
//! uninterrupted run. They also hold the loader to its promise that
//! damaged checkpoints — truncated, edited, garbage, or from a
//! different configuration — fail with actionable diagnostics, never
//! panics.

use ftp_study::{
    run_study_streamed, stream_report, Checkpoint, CheckpointError, StreamError, StreamOptions,
    StreamOutcome, StreamResults, StudyConfig,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

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

fn complete(outcome: StreamOutcome) -> StreamResults {
    match outcome {
        StreamOutcome::Complete(results) => *results,
        StreamOutcome::Interrupted { next_batches } => {
            panic!("expected completion, interrupted at {next_batches:?}")
        }
    }
}

/// Uninterrupted single-shard reference run (no checkpointing).
fn reference() -> &'static (StreamResults, String) {
    static CELL: OnceLock<(StreamResults, String)> = OnceLock::new();
    CELL.get_or_init(|| {
        let results = complete(run(&StreamOptions::new(BATCH_SIZE)));
        let report = stream_report(&results.aggregate, &results.spec);
        (results, report)
    })
}

/// Kill after every batch boundary in turn; each resumed run must end
/// in a byte-identical report.
#[test]
fn resume_from_every_batch_boundary_is_byte_identical() {
    let (reference, reference_report) = reference();
    assert!(reference.batches >= 2, "need a multi-batch geometry for this test to bite");

    for stop_after in 0..reference.batches {
        let dir = scratch(&format!("boundary-{stop_after}"));
        let opts = StreamOptions {
            checkpoint_dir: Some(dir.clone()),
            interrupt_after_batches: Some(stop_after),
            ..StreamOptions::new(BATCH_SIZE)
        };
        match run(&opts) {
            StreamOutcome::Interrupted { next_batches } => {
                assert_eq!(next_batches, vec![stop_after], "cursor after simulated crash")
            }
            StreamOutcome::Complete(_) => panic!("interrupt at {stop_after} did not fire"),
        }

        let resumed = complete(run(&StreamOptions {
            checkpoint_dir: Some(dir.clone()),
            ..StreamOptions::new(BATCH_SIZE)
        }));
        let report = stream_report(&resumed.aggregate, &resumed.spec);
        assert_eq!(
            &report, reference_report,
            "resumed report diverged after stopping at batch {stop_after}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// Resuming a run that already finished is a cheap no-op with the same
/// answer: every shard's cursor is already at `batches`.
#[test]
fn resume_after_completion_is_idempotent() {
    let (_, reference_report) = reference();
    let dir = scratch("idempotent");
    let opts =
        StreamOptions { checkpoint_dir: Some(dir.clone()), ..StreamOptions::new(BATCH_SIZE) };
    let first = complete(run(&opts));
    let again = complete(run(&opts));
    assert_eq!(first.aggregate, again.aggregate, "re-run from finished checkpoints diverged");
    assert_eq!(&stream_report(&again.aggregate, &again.spec), reference_report);
    fs::remove_dir_all(&dir).ok();
}

/// Multi-shard crash/resume: each shard keeps its own cursor file.
#[test]
fn multi_shard_resume_is_byte_identical() {
    let (_, reference_report) = reference();
    let dir = scratch("multishard");
    let interrupted = StreamOptions {
        shards: 4,
        checkpoint_dir: Some(dir.to_path_buf()),
        interrupt_after_batches: Some(1),
        ..StreamOptions::new(BATCH_SIZE)
    };
    if let StreamOutcome::Interrupted { next_batches } = run(&interrupted) {
        assert_eq!(next_batches.len(), 4, "one cursor per shard");
    }

    let resumed = complete(run(&StreamOptions {
        shards: 4,
        checkpoint_dir: Some(dir.clone()),
        ..StreamOptions::new(BATCH_SIZE)
    }));
    assert_eq!(
        &stream_report(&resumed.aggregate, &resumed.spec),
        reference_report,
        "4-shard resumed report diverged from the single-shard reference"
    );
    fs::remove_dir_all(&dir).ok();
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

/// `--journal` survives a resume: the lines of checkpointed cells stay,
/// anything else in the file is dropped, and the resumed run appends
/// the rest, ending equal to an uninterrupted run's journal —
/// byte-identical at one shard, the same lines at two (shards append
/// concurrently). Resuming a finished run leaves the journal untouched.
#[test]
fn resumed_journal_equals_an_uninterrupted_run() {
    let mut cfg = config();
    cfg.obs = obs::ObsConfig { journal: true, ..obs::ObsConfig::default() };
    // Smaller batches than the other tests, so some remain after three.
    let opts = |shards, checkpoint_dir: Option<&Path>, interrupt, journal: &Path| StreamOptions {
        shards,
        checkpoint_dir: checkpoint_dir.map(Path::to_path_buf),
        interrupt_after_batches: interrupt,
        journal_path: Some(journal.to_path_buf()),
        ..StreamOptions::new(BATCH_SIZE / 3)
    };
    let stream =
        |opts: &StreamOptions| run_study_streamed(&cfg, opts).expect("streamed study runs");
    let sorted_lines = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines.sort();
        lines
    };

    for shards in [1, 2] {
        let dir = scratch(&format!("journal-k{shards}"));
        fs::create_dir_all(&dir).unwrap();
        let reference_path = dir.join("reference.jsonl");
        let reference_run = complete(stream(&opts(shards, None, None, &reference_path)));
        assert!(reference_run.batches > 3, "need batches left after the interrupt");
        let reference = fs::read_to_string(&reference_path).unwrap();
        assert!(!reference.is_empty(), "journaling requested, lines written");

        let checkpoints = dir.join("checkpoints");
        let path = dir.join("resumed.jsonl");
        match stream(&opts(shards, Some(&checkpoints), Some(3), &path)) {
            StreamOutcome::Interrupted { next_batches } => {
                assert_eq!(next_batches, vec![3; shards as usize], "cursors after the interrupt")
            }
            StreamOutcome::Complete(_) => panic!("interrupt after 3 batches did not fire"),
        }
        if shards == 1 {
            // A crash after flushing batch 3 but before checkpointing it
            // leaves that batch's lines, possibly torn, after the
            // checkpointed ones; the resume must drop them.
            let unfinished = reference
                .lines()
                .find(|line| obs::ParsedJournal::cell(line) == Some((0, 3)))
                .expect("batch 3 journals a host");
            let mut text = fs::read_to_string(&path).unwrap();
            text.push_str(unfinished);
            text.push('\n');
            text.push_str(&unfinished[..unfinished.len() / 2]);
            fs::write(&path, text).unwrap();
        }

        complete(stream(&opts(shards, Some(&checkpoints), None, &path)));
        let resumed = fs::read_to_string(&path).unwrap();
        if shards == 1 {
            assert_eq!(resumed, reference, "resumed single-shard journal must be byte-identical");
        } else {
            assert_eq!(
                sorted_lines(&resumed),
                sorted_lines(&reference),
                "resumed {shards}-shard journal must hold the same lines"
            );
        }

        complete(stream(&opts(shards, Some(&checkpoints), None, &path)));
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            resumed,
            "resuming a finished run must leave the journal untouched"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
