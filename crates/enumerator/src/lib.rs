//! The FTP enumerator — the paper's primary engineering contribution,
//! re-implemented in Rust against the network simulator.
//!
//! Given a list of responsive hosts (from `zscan`), the enumerator runs
//! one robust, quirk-tolerant FTP session per host:
//!
//! 1. connect and collect the banner (bailing out on non-FTP services);
//! 2. check the banner for "no anonymous access" statements and, unless
//!    present, attempt an RFC 1635 anonymous login with the team's abuse
//!    address as password;
//! 3. fetch and honor `robots.txt` (Google semantics);
//! 4. traverse the visible directory tree **breadth-first**, under a
//!    per-connection request cap (500 in the paper) and a per-host rate
//!    limit (two requests per second);
//! 5. collect `HELP`, `FEAT`, `SITE`, and `SYST` output;
//! 6. optionally probe `PORT` validation against a collector address the
//!    study controls (§VII-B);
//! 7. attempt `AUTH TLS` to harvest the server certificate regardless of
//!    whether anonymous access succeeded (§IX);
//! 8. `QUIT`.
//!
//! A server closing the connection at any point is treated as an
//! explicit refusal of service and the session ends immediately — the
//! paper's ethics stance (§III-A).
//!
//! Sessions are chaos-hardened (§III, DESIGN.md "Fault model"):
//! connects retry on a bounded exponential [`backoff::RetrySchedule`],
//! every step and every whole session is deadline-bounded, and hosts
//! that defeat the enumerator produce partial records tagged with a
//! [`record::GaveUpReason`] plus per-session [`record::FaultStats`]
//! rather than hanging or poisoning the run.
//!
//! Results are [`record::HostRecord`]s: everything the analysis crate
//! consumes. The enumerator never issues a write command; this is
//! enforced structurally (there is no code path that sends `STOR`,
//! `DELE`, `MKD`, or `RNFR`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod backoff;
pub mod client;
pub mod collector;
pub mod config;
pub mod record;

pub use backoff::RetrySchedule;
pub use client::Enumerator;
pub use collector::BounceCollector;
pub use config::{EnumConfig, TraversalOrder};
pub use record::{
    FaultStats, FileEntryRef, FileTable, FileTableIter, FtpsObservation, GaveUpReason, HostRecord,
    LoginOutcome, RobotsInfo, RunSummary, TableFootprint,
};
