//! Batched-probe byte-identity: the guarantee of the batched drain
//! path.
//!
//! Host discovery schedules, by default, one timer-wheel entry per
//! pacing tick carrying the whole probe burst. `per_probe_events`
//! keeps the one-event-per-probe formulation alive so that these tests
//! can run it: its cells of the equivalence matrix (`equivalence/mod.rs`)
//! must hit the same committed results and reports as every batched
//! run. Batching is a pure scheduling optimization, observable in event
//! counts and nowhere else. Coverage is the full study pipeline at
//! K ∈ {1, 8} shards, clean and at 50% faults, because both sharding
//! and hostile worlds reshuffle when probe answers interleave with
//! enumeration traffic.

mod equivalence;

use equivalence::{cell, run, Run};

#[test]
fn batched_drain_is_invisible_on_a_clean_world() {
    run(&[cell(0.0, 1, Run::PerProbe)]);
}

#[test]
fn batched_drain_is_invisible_on_a_clean_sharded_world() {
    run(&[cell(0.0, 8, Run::PerProbe)]);
}

#[test]
fn batched_drain_is_invisible_at_fifty_percent_faults() {
    run(&[cell(0.5, 1, Run::PerProbe)]);
}

#[test]
fn batched_drain_is_invisible_at_fifty_percent_faults_sharded() {
    run(&[cell(0.5, 8, Run::PerProbe)]);
}
