//! End-to-end orchestration of the *FTP: The Forgotten Cloud*
//! reproduction study.
//!
//! [`run_study`] executes the complete pipeline inside one deterministic
//! simulation — synthetic-Internet generation, ZMap-style host
//! discovery, FTP enumeration (with the `PORT`-bounce probe and
//! certificate collection), and the HTTP overlap sweep — and returns
//! [`StudyResults`] holding both measurements and ground truth.
//! [`tables`] renders every table and figure of the paper from those
//! measurements; the §VIII honeypot experiment lives in the
//! [`honeypot`] crate and is re-exported here for convenience.
//!
//! # Example
//!
//! ```
//! use ftp_study::{run_study, StudyConfig};
//!
//! let results = run_study(&StudyConfig::small(7, 150));
//! let funnel = results.funnel();
//! assert!(funnel.anonymous > 0);
//! println!("{}", ftp_study::tables::table01_funnel(&funnel));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod checkpoint;
pub mod stream;
pub mod study;
pub mod tables;
pub mod verdicts;
pub mod webprobe;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use honeypot::farm::run_experiment as run_honeypot_experiment;
pub use stream::{
    aggregate_of, run_study_streamed, StreamError, StreamOptions, StreamOutcome, StreamResults,
};
pub use study::{run_study, run_study_sharded, StudyConfig, StudyResults};
pub use tables::{full_report, stream_report};
pub use webprobe::{HttpObservation, WebProbe};
