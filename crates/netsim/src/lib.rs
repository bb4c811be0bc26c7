//! Deterministic discrete-event IPv4 network simulator.
//!
//! This crate is the reproduction's stand-in for the public Internet: the
//! paper's tools scanned and enumerated live IPv4 hosts, while ours scan
//! and enumerate hosts inside this simulator. It provides:
//!
//! * a virtual clock and event queue ([`Simulator`], driven by
//!   [`Simulator::run`]),
//! * simulated TCP with the semantics the study's tools depend on —
//!   SYN-ACK from a bound port, RST from any other port of a host, and
//!   silence from an address with no host (so a ZMap-style scanner can
//!   distinguish *open* / *closed* / *filtered*), ordered byte streams,
//!   seeded per-path latency, and abrupt resets,
//! * per-host services bound to ports ([`Endpoint`]) and NAT
//!   (internal-address) configuration,
//! * an AS/prefix registry ([`topology::AsRegistry`]) so analyses can map
//!   every address to an autonomous system, as the paper's Table III/VI
//!   and Figure 1 require.
//!
//! Everything is single-threaded and deterministic: the same seed and the
//! same program produce identical traces, which the test suite relies on.
//!
//! # Example
//!
//! ```
//! use netsim::{Simulator, Endpoint, Ctx, ConnId};
//! use std::net::Ipv4Addr;
//!
//! struct EchoServer;
//! impl Endpoint for EchoServer {
//!     fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
//!         let echoed = data.to_vec();
//!         ctx.send(conn, &echoed);
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let server_ip = Ipv4Addr::new(10, 0, 0, 1);
//! sim.add_host(server_ip);
//! let id = sim.register_endpoint(Box::new(EchoServer));
//! sim.bind(server_ip, 7, id);
//! // ... drive clients against it; see the crate tests for full sessions.
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod fasthash;
pub mod fault;
pub mod ip;
pub mod sim;
pub mod time;
pub mod topology;
mod wheel;

pub use fault::{FaultKind, FaultProfile};
pub use ip::{batch_of, shard_of, Ipv4Net};
pub use sim::{
    ConnId, ConnectError, Ctx, Endpoint, EndpointId, ProbeStatus, SimConfig, SimFootprint,
    Simulator,
};
pub use time::{SimDuration, SimTime};
pub use topology::{AsKind, AsRegistry, Asn};
pub use wheel::WheelStats;
