//! ZMap-style stateless host discovery over the simulated Internet.
//!
//! The paper's first data-collection stage used ZMap (Durumeric et al.,
//! USENIX Security 2013) to find hosts answering on TCP/21. This crate
//! reproduces ZMap's core ideas:
//!
//! * **Cyclic-group address permutation** ([`cyclic`]): the scan order is
//!   the orbit of a random generator of the multiplicative group modulo
//!   a prime just above the address-space size, so the entire space is
//!   visited exactly once in a pseudorandom order with O(1) state —
//!   ZMap's signature trick (it uses p = 2³² + 15; we select the
//!   smallest suitable prime for the simulated space).
//! * **Blocklists** ([`blocklist`]): reserved ranges and user exclusions
//!   are never probed, matching the paper's ethics section.
//! * **Hash partitioning** ([`HashShard`], [`HashBatch`]): a study shard
//!   or batch probes the slice of the address space whose hosts worldgen
//!   built in its simulator, filtering the one permutation orbit.
//! * **Stateless probing with rate limiting** ([`scanner`]): probes go
//!   out in paced batches; responses classify targets as open / closed /
//!   filtered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod blocklist;
pub mod cyclic;
pub mod scanner;

pub use blocklist::Blocklist;
pub use cyclic::CyclicPermutation;
pub use scanner::{HashBatch, HashShard, HostDiscovery, ScanConfig, ScanFootprint, ScanResults};
