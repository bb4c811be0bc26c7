//! Synthetic-Internet population generator for the *FTP: The Forgotten
//! Cloud* reproduction.
//!
//! The paper measured the live IPv4 Internet of June 2015; this crate
//! generates a simulated one whose population is *sampled from the
//! paper's own published distributions* — the funnel rates of Table I,
//! the classification shares of Table II, the device catalogs of Tables
//! IV/V/VII, the AS structure of Table VI and Figure 1, the content and
//! sensitive-file rates of §V and Tables VIII/IX, the campaign
//! prevalences of §VI, the PORT-validation and NAT rates of §VII-B, and
//! the FTPS/certificate ecosystem of §IX and Tables XII/XIII.
//!
//! Crucially, the generator hands the measurement pipeline *servers*,
//! not *labels*: every statistic the reproduction reports is measured by
//! actually scanning and enumerating the generated hosts, and the
//! returned [`WorldTruth`] exists only so tests can check measurement
//! against ground truth.
//!
//! # Example
//!
//! ```
//! use netsim::Simulator;
//! use worldgen::{build, PopulationSpec};
//!
//! let mut sim = Simulator::new(42);
//! let truth = build(&mut sim, &PopulationSpec::small(42, 200));
//! assert_eq!(truth.hosts.len(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod campaigns;
pub mod catalog;
pub mod content;
mod placement;
pub mod population;
pub mod rates;

pub use catalog::{Daemon, DeviceKind, DeviceModel};
pub use content::{ContentKind, OsKind, SensitiveKind};
pub use population::{
    build, plan_world, HostTruth, PopulationSpec, ShardBatchIndex, WorldPlan, WorldTruth,
};
pub use rates::{Campaign, Category};
