//! Observability-layer validation (DESIGN.md §9).
//!
//! The recorder is write-only from the simulation's point of view:
//! turning every collector on must leave the study results
//! byte-identical at any shard count, clean or hostile world, and the
//! collected artifacts must themselves be deterministic. These tests run
//! fully recorded cells of the equivalence matrix (`equivalence/mod.rs`):
//! each must hit the results its fault fraction's row pins for a
//! recorder-off run, and the trace (wall time removed), metrics, journal
//! and time series pinned for its shard count. Within each run, the
//! metrics agree with each other and with the results, every trace line
//! keeps its envelope with sequence numbers rising per shard, no span
//! ends before it starts, and the profile covers every pipeline stage.

mod equivalence;

use equivalence::{cell, run, Run};

#[test]
fn recorder_is_invisible_on_clean_worlds() {
    run(&[cell(0.0, 1, Run::Recorded), cell(0.0, 8, Run::Recorded)]);
}

#[test]
fn recorder_is_invisible_under_fault_injection() {
    run(&[cell(0.5, 8, Run::Recorded)]);
}

/// The K=1 hostile run: every counter equals `PINNED_COUNTERS`, and the
/// per-host counters equal those of every recorded run at 50%.
#[test]
fn metrics_snapshot_is_coherent_and_shard_invariant() {
    run(&[cell(0.5, 1, Run::Recorded)]);
}

#[test]
fn trace_is_schema_stable_and_deterministic_modulo_wall_time() {
    run(&[cell(0.1, 2, Run::Recorded)]);
}

/// The in-memory runner is the streamed runner at one batch per shard:
/// a whole-world batch at K ∈ {1, 2} collects what is pinned for the
/// in-memory run. That a recorder starts from sim time 0 whatever its
/// thread ran before is the `obs` crate's own unit test.
#[test]
fn in_memory_runner_is_the_streamed_runner_at_one_batch() {
    run(&[cell(0.5, 1, Run::WholeWorld), cell(0.5, 2, Run::WholeWorld)]);
}

/// Every batch restarts the sim clock at 0, and so must the recorder's
/// published sim time: a fully recorded streamed run in several
/// batches.
#[test]
fn streamed_spans_never_end_before_they_start() {
    run(&[cell(0.5, 2, Run::Journaled)]);
}

#[test]
fn profile_table_covers_the_pipeline_stages() {
    run(&[cell(0.0, 2, Run::Recorded)]);
}
