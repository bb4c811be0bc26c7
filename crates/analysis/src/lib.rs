//! Measurement analysis for the *FTP: The Forgotten Cloud* reproduction.
//!
//! Everything in this crate consumes the enumerator's
//! [`enumerator::HostRecord`]s (plus the AS registry and scan counters)
//! and produces the paper's tables and figures. Nothing here touches
//! worldgen ground truth: like the original study, the analyses work
//! only from what a scanner could observe — banners, listings,
//! certificates, and reply behavior. Tests compare these measurements
//! against ground truth to validate the pipeline.
//!
//! Module ↔ paper mapping:
//!
//! | module | reproduces |
//! |---|---|
//! | [`funnel`] | Table I |
//! | [`fingerprint`] | Tables II, IV, V, VII |
//! | [`ases`] | Tables III, VI and Figure 1 |
//! | [`exposure`] | §V, Tables VIII, IX, X |
//! | [`writable`] | §VI-A |
//! | [`campaigns`] | §VI-B/C |
//! | [`cve`] | Table XI |
//! | [`bounce`] | §VII-B |
//! | [`ftps`] | §IX, Tables XII, XIII |
//! | [`cyberul`] | §X's proposed device-certification suite |
//! | [`notify`] | §III-A's responsible-disclosure workflow |
//! | [`report`] | paper-style table rendering |
//! | [`stream`] | bounded-memory aggregation for streamed studies |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod ases;
pub mod bounce;
pub mod campaigns;
mod ci;
pub mod cve;
pub mod cyberul;
pub mod exposure;
pub mod fingerprint;
pub mod funnel;
pub mod ftps;
pub mod notify;
pub mod report;
pub mod stream;
#[cfg(test)]
mod testing;
pub mod writable;

pub use fingerprint::{classify, Classification, DeviceClass};
pub use funnel::Funnel;
pub use stream::StreamingAggregate;
