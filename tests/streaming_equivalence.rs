//! Streamed-study equivalence: the headline guarantee of the
//! bounded-memory pipeline.
//!
//! `run_study_streamed` partitions each shard's host set into batches
//! by a hash of `(seed, ip)`, runs one short-lived simulator per batch,
//! and folds every batch into a `StreamingAggregate` instead of
//! accumulating `HostRecord`s. The guarantee under test: the streamed
//! aggregate — and the report text rendered from it — is
//! **byte-identical for every batch size and shard count** to the
//! in-memory path folded through `aggregate_of`. Batching is a pure
//! memory knob, observable in the allocator high-water mark and nowhere
//! else. These tests hold batch sizes {1, 7, 64, whole-world} × K ∈
//! {1, 8} shards to that claim, on clean worlds and under 50% fault
//! injection. The in-memory baselines are also pinned absolutely: both
//! reports of each baseline world must hit a committed digest.

use ftp_study::checkpoint::fnv1a;
use ftp_study::{
    aggregate_of, full_report, run_study, run_study_streamed, stream_report, StreamOptions,
    StreamOutcome, StreamResults, StudyConfig,
};
use std::sync::OnceLock;

const SEED: u64 = 7177;
const SERVERS: usize = 110;

/// `usize::MAX` forces a single batch covering the whole world, which
/// must also degenerate to the in-memory partition.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

fn config(fraction: f64) -> StudyConfig {
    StudyConfig::small(SEED, SERVERS).with_fault_fraction(fraction)
}

/// fnv1a-64 digests of the baseline world's `(full_report,
/// stream_report)` at 0% and at 50% faults. A deliberate change to
/// either report updates its digest here, with the reason, in the same
/// change.
const CLEAN_DIGESTS: (u64, u64) = (0xa4fc_2c0f_d3b1_719f, 0xc929_68ed_7fa0_1e30);
const FIFTY_DIGESTS: (u64, u64) = (0x4df1_d98e_106f_2b95, 0xb9b7_6108_2a4c_c277);

/// In-memory baselines, computed once per fault intensity, with both
/// reports checked against their pinned digests.
fn baseline(fraction: f64) -> &'static (ftp_study::StudyResults, String) {
    static CLEAN: OnceLock<(ftp_study::StudyResults, String)> = OnceLock::new();
    static FIFTY: OnceLock<(ftp_study::StudyResults, String)> = OnceLock::new();
    let (cell, pinned) =
        if fraction == 0.0 { (&CLEAN, CLEAN_DIGESTS) } else { (&FIFTY, FIFTY_DIGESTS) };
    cell.get_or_init(|| {
        let results = run_study(&config(fraction));
        let full = full_report(&results);
        let report = stream_report(&aggregate_of(&results), &results.truth.spec);
        let digests = (fnv1a(full.as_bytes()), fnv1a(report.as_bytes()));
        assert_eq!(
            digests, pinned,
            "report digests (full, streamed) at fault={fraction}: {:#018x}, {:#018x}",
            digests.0, digests.1
        );
        (results, report)
    })
}

fn streamed(fraction: f64, batch_size: usize, shards: u64) -> StreamResults {
    let opts = StreamOptions { shards, ..StreamOptions::new(batch_size) };
    match run_study_streamed(&config(fraction), &opts).expect("streamed study runs") {
        StreamOutcome::Complete(results) => *results,
        StreamOutcome::Interrupted { .. } => panic!("no interrupt requested"),
    }
}

/// The core identity: streamed aggregate == in-memory aggregate, and the
/// rendered reports match byte for byte, across the full grid.
fn assert_equivalent(fraction: f64, batch_size: usize, shards: u64) {
    let (in_memory, in_memory_report) = baseline(fraction);
    let mut in_memory_agg = aggregate_of(in_memory);
    let streamed = streamed(fraction, batch_size, shards);

    // `batches` counts fold_scan calls — pure bookkeeping that differs
    // by construction across geometries; everything measured must not.
    in_memory_agg.batches = streamed.aggregate.batches;
    assert_eq!(
        streamed.aggregate, in_memory_agg,
        "aggregate diverged at fault={fraction} batch_size={batch_size} shards={shards}"
    );

    let report = stream_report(&streamed.aggregate, &streamed.spec);
    assert_eq!(
        &report, in_memory_report,
        "report text diverged at fault={fraction} batch_size={batch_size} shards={shards}"
    );
}

#[test]
fn clean_world_single_shard_all_batch_sizes() {
    for batch_size in BATCH_SIZES {
        assert_equivalent(0.0, batch_size, 1);
    }
}

#[test]
fn clean_world_eight_shards_all_batch_sizes() {
    for batch_size in BATCH_SIZES {
        assert_equivalent(0.0, batch_size, 8);
    }
}

#[test]
fn faulty_world_single_shard_all_batch_sizes() {
    for batch_size in BATCH_SIZES {
        assert_equivalent(0.5, batch_size, 1);
    }
}

#[test]
fn faulty_world_eight_shards_all_batch_sizes() {
    for batch_size in BATCH_SIZES {
        assert_equivalent(0.5, batch_size, 8);
    }
}

/// The whole-world batch on one shard is exactly the in-memory partition:
/// even the batch count collapses to one per shard.
#[test]
fn whole_world_batch_is_one_batch_per_shard() {
    let one = streamed(0.0, usize::MAX, 1);
    assert_eq!(one.batches, 1, "single batch expected");
    let eight = streamed(0.0, usize::MAX, 8);
    assert_eq!(eight.batches, 1, "batch count is per-shard, not global");
    assert_eq!(eight.aggregate.batches, 8, "one fold_scan per shard");
}

/// Repeat streamed runs are bit-stable — no hidden global state leaks
/// across simulator teardowns.
#[test]
fn streamed_runs_are_reproducible() {
    let a = streamed(0.5, 7, 2);
    let b = streamed(0.5, 7, 2);
    assert_eq!(a.aggregate, b.aggregate, "repeat run diverged");
    assert_eq!(
        stream_report(&a.aggregate, &a.spec),
        stream_report(&b.aggregate, &b.spec),
        "repeat report diverged"
    );
}
