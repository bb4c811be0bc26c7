//! Shard-merge determinism: the headline guarantee of the sharded
//! study runner.
//!
//! `run_study_sharded` partitions the population space by a hash of
//! `(seed, ip)`, runs one private simulator per shard, and merges the
//! outputs. The merged `StudyResults` must be byte-identical for every
//! shard count: parallelism is a pure performance knob, observable in
//! wall-clock time and nowhere else. These tests run the recorder-off
//! in-memory cells of the equivalence matrix (`equivalence/mod.rs`) at
//! K ∈ {1, 2, 8}, clean and at 10% and 50% faults, and hold each to its
//! row of the matrix's committed table, captured from a K=1 run. A
//! repeat run must hit the digests a run in another process committed,
//! and every in-memory cell checks that records, ground truth and the
//! non-FTP list come out sorted by address.

mod equivalence;

use equivalence::{cell, run, Run};

#[test]
fn two_shards_match_single_threaded_run() {
    run(&[cell(0.0, 2, Run::InMemory)]);
}

#[test]
fn eight_shards_match_single_threaded_run() {
    run(&[cell(0.0, 8, Run::InMemory)]);
}

#[test]
fn sharding_is_invisible_at_ten_percent_faults() {
    run(&[cell(0.1, 1, Run::InMemory), cell(0.1, 2, Run::InMemory), cell(0.1, 8, Run::InMemory)]);
}

#[test]
fn sharding_is_invisible_at_fifty_percent_faults() {
    run(&[cell(0.5, 8, Run::InMemory)]);
}

#[test]
fn repeat_sharded_runs_are_stable() {
    run(&[cell(0.5, 2, Run::InMemory)]);
}

#[test]
fn results_are_canonically_ordered() {
    run(&[cell(0.0, 1, Run::InMemory)]);
}
