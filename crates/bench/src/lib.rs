//! Benchmark support shared by the workspace.
//!
//! [`alloc_counter`] is a counting [`std::alloc::GlobalAlloc`] wrapper,
//! so a measurement can report allocations alongside wall-clock time
//! (DESIGN.md §8 "Event engine and memory model"). The allocation
//! regression tests and the study benchmark's traced pass install it.
//! The criterion micro-benchmarks live in `benches/micro.rs`; DESIGN.md
//! §4 indexes them.

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod alloc_counter;

pub use alloc_counter::{peak_growth_since_reset, reset, snapshot, AllocStats, CountingAlloc};
