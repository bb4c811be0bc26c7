//! Streamed-study equivalence: the headline guarantee of the
//! bounded-memory pipeline.
//!
//! `run_study_streamed` partitions each shard's host set into batches
//! by a hash of `(seed, ip)`, runs one short-lived simulator per batch,
//! and folds every batch into a `StreamingAggregate` instead of
//! accumulating `HostRecord`s. The streamed aggregate, and the report
//! rendered from it, must be byte-identical for every batch size and
//! shard count to the in-memory run folded through `aggregate_of`:
//! batching is a pure memory knob. These tests run the streamed cells
//! of the equivalence matrix (`equivalence/mod.rs`) and hold each to
//! the aggregate and report digests its table pins for the in-memory
//! run. Clean and at 50% faults, batch sizes 1 and 64 run at K=1, and
//! 7 and the whole world at K=8.

mod equivalence;

use equivalence::{cell, run, Run, WHOLE_WORLD};

#[test]
fn clean_world_single_shard_all_batch_sizes() {
    run(&[cell(0.0, 1, Run::Streamed(1)), cell(0.0, 1, Run::Journaled)]);
}

#[test]
fn clean_world_eight_shards_all_batch_sizes() {
    run(&[cell(0.0, 8, Run::Streamed(7)), cell(0.0, 8, Run::Streamed(WHOLE_WORLD))]);
}

#[test]
fn faulty_world_single_shard_all_batch_sizes() {
    run(&[cell(0.5, 1, Run::Streamed(1)), cell(0.5, 1, Run::Journaled)]);
}

#[test]
fn faulty_world_eight_shards_all_batch_sizes() {
    run(&[cell(0.5, 8, Run::Streamed(7)), cell(0.5, 8, Run::Streamed(WHOLE_WORLD))]);
}

/// One batch per shard, each folded once: every whole-world cell checks
/// it, this one at K=2.
#[test]
fn whole_world_batch_is_one_batch_per_shard() {
    run(&[cell(0.0, 2, Run::Streamed(WHOLE_WORLD))]);
}

/// No hidden global state leaks across simulator teardowns: a hostile
/// K=2 run in 7-host batches hits the digests of a run in another
/// process.
#[test]
fn streamed_runs_are_reproducible() {
    run(&[cell(0.5, 2, Run::Streamed(7))]);
}
