//! The discrete-event simulator core: hosts, connections, and endpoints.
//!
//! # Model
//!
//! * A **host** is an IPv4 address with bound services and optional
//!   NAT metadata. A SYN to a bound port is answered with SYN-ACK, a
//!   SYN to any other port of a host with RST; an address with no host
//!   answers nothing. That is what lets a scanner tell *open*, *closed*
//!   and *filtered* apart.
//! * An **endpoint** is event-driven application code implementing
//!   [`Endpoint`]. One endpoint may serve many hosts/ports (worldgen
//!   binds one FTP engine per simulated server host) and many concurrent
//!   connections (the enumerator drives thousands of sessions from one
//!   endpoint).
//! * A **connection** is a reliable, ordered byte stream established via
//!   a simulated three-way handshake with per-path latency.
//!
//! Handlers receive a [`Ctx`] with immediate-effect APIs (send bytes,
//! open connections, bind ephemeral ports, set timers). The simulator is
//! single-threaded; determinism comes from the totally-ordered event
//! queue (time, then insertion sequence).

use crate::fasthash::FastMap;
use crate::fault::{garbage_reply_into, FaultKind, FaultProfile};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Entry, TimerWheel, WheelStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::net::Ipv4Addr;

/// Identifies a registered [`Endpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(u32);

/// Identifies a live (or recently closed) connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(u64);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Outcome of a stateless SYN probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeStatus {
    /// SYN-ACK received: the port is open.
    Open,
    /// RST received: host up, port closed.
    Closed,
    /// Nothing came back: no host at the address, or the probe was lost.
    Filtered,
}

/// Why an outbound connect failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectError {
    /// The peer sent RST (port closed, connection rejected).
    Refused,
    /// No answer within the connect timeout.
    Timeout,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::Refused => f.write_str("connection refused"),
            ConnectError::Timeout => f.write_str("connection timed out"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Event-driven application logic attached to the simulator.
///
/// All methods have no-op defaults so implementations override only what
/// they need. Methods receive a [`Ctx`] for interacting with the network.
#[allow(unused_variables)]
pub trait Endpoint {
    /// A new inbound connection was accepted on `local_port`.
    fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local_port: u16) {}
    /// An outbound connect initiated with `token` finished.
    fn on_outbound(&mut self, ctx: &mut Ctx<'_>, token: u64, result: Result<ConnId, ConnectError>) {
    }
    /// Bytes arrived on an established connection.
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {}
    /// The peer closed (or reset) the connection.
    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {}
    /// A timer set with `token` fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {}
    /// A stateless SYN probe completed.
    fn on_probe(&mut self, ctx: &mut Ctx<'_>, target: Ipv4Addr, port: u16, status: ProbeStatus) {}
}

/// Tunable simulator parameters.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Probability a SYN probe (or its answer) is lost, `0.0..=1.0`.
    /// Stream data is never lost — simulated TCP retransmits.
    pub probe_loss: f64,
}

/// Minimum one-way path latency.
const BASE_LATENCY: SimDuration = SimDuration::from_millis(10);
/// Maximum additional per-path jitter (seeded, stable per path).
const JITTER: SimDuration = SimDuration::from_millis(40);
/// How long a connect waits for SYN-ACK before timing out.
const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// How long a probe waits before reporting *filtered*.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(5);

#[derive(Debug)]
struct Host {
    bound: FastMap<u16, EndpointId>,
    /// RFC 1918 address this host believes it has (NAT deployment).
    internal_ip: Option<Ipv4Addr>,
    next_ephemeral: u16,
    /// Connections attempted *to* this host so far. Fault randomness is
    /// keyed on this instead of the global connection id: a host only
    /// ever receives connections from its own measurement session, so
    /// the ordinal is identical whether the host shares a simulator
    /// with the whole population or with one shard of it.
    conn_ordinal: u64,
}

impl Host {
    fn new() -> Self {
        Host {
            bound: FastMap::default(),
            internal_ip: None,
            next_ephemeral: 49_152,
            conn_ordinal: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    Established,
    Closed,
}

#[derive(Debug, Clone)]
struct Conn {
    initiator_ip: Ipv4Addr,
    initiator_port: u16,
    initiator_ep: EndpointId,
    responder_ip: Ipv4Addr,
    responder_port: u16,
    responder_ep: Option<EndpointId>,
    token: u64,
    state: ConnState,
    latency: SimDuration,
    /// Fault-layer accounting: server replies intercepted on this
    /// connection (drives `MidSessionRst` / `GarbageReplies` ordinals).
    fault_sends: u32,
    /// Fault-layer accounting: server bytes let through so far (drives
    /// `Tarpit` / `TruncateData` budgets).
    fault_bytes: u64,
    /// When the tarpit's last dripped byte lands; later sends queue
    /// behind it.
    drip_until: SimTime,
    /// The responder host's [`Host::conn_ordinal`] at connect time —
    /// the shard-invariant key for per-connection fault randomness.
    fault_ordinal: u64,
}

/// Publishes sim time and per-kind dispatch counters to the
/// observability layer when a recorder is installed on this thread;
/// without one the cost is one branch on the thread-local fast flag.
#[inline]
fn obs_note_dispatch(at: SimTime, ev: &Ev) {
    if obs::enabled() {
        obs::set_sim_now(at.as_micros());
        obs::counter(obs::Counter::SimEvents, 1);
        let (kind, n) = match ev {
            Ev::Data { .. } => (obs::Counter::EvData, 1),
            Ev::Timer { .. } => (obs::Counter::EvTimer, 1),
            Ev::ProbeResult { .. } => (obs::Counter::EvProbe, 1),
            // One queue entry, many probe completions: the counter keeps
            // meaning "probe results delivered".
            Ev::ProbeBatch { results, .. } => (obs::Counter::EvProbe, results.len() as u64),
            Ev::Close { .. } => (obs::Counter::EvClose, 1),
            Ev::SynArrive { .. } | Ev::ConnectResult { .. } | Ev::ConnectTimeout { .. } => {
                (obs::Counter::EvConnect, 1)
            }
        };
        obs::counter(kind, n);
    }
}

#[derive(Debug)]
enum Ev {
    SynArrive { conn: ConnId },
    ConnectResult { conn: ConnId, ok: bool },
    ConnectTimeout { conn: ConnId },
    Data { conn: ConnId, to_initiator: bool, bytes: Vec<u8> },
    Close { conn: ConnId, to: Ends },
    Timer { ep: EndpointId, token: u64 },
    ProbeResult { ep: EndpointId, target: Ipv4Addr, port: u16, status: ProbeStatus },
    /// Several probe completions sharing one deadline, delivered as one
    /// queue entry (see [`Ctx::probe_batch`]); `on_probe` fires per
    /// element in vec order, which is the probes' call order.
    ProbeBatch { ep: EndpointId, port: u16, results: Vec<(Ipv4Addr, ProbeStatus)> },
}

/// The ends of a connection an [`Ev::Close`] reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ends {
    Initiator,
    Responder,
    /// A fault-layer reset: the initiator hears it first, then the
    /// responder.
    Both,
}

/// Shared simulator state reachable from handlers via [`Ctx`].
pub struct SimCore {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<Ev>,
    hosts: FastMap<Ipv4Addr, Host>,
    conns: FastMap<u64, Conn>,
    faults: FastMap<Ipv4Addr, FaultProfile>,
    next_conn: u64,
    cfg: SimConfig,
    seed: u64,
    rng: StdRng,
    events_processed: u64,
    /// Recycled `Ev::Data` payload buffers. Every byte in flight lives
    /// in a `Vec<u8>` owned by its queued event; a study run moves
    /// millions of small payloads, so dispatched buffers are returned
    /// here and reused by the next send instead of hitting the
    /// allocator each time. Purely an allocation cache: contents are
    /// always overwritten before reuse, so determinism is unaffected.
    /// At most [`BUF_POOL_MAX`] buffers of at most
    /// [`BUF_POOL_MAX_CAPACITY`] bytes each.
    buf_pool: Vec<Vec<u8>>,
    /// Recycled `Ev::ProbeBatch` payload vectors (same contract as
    /// `buf_pool`: allocation cache only), at most [`PROBE_POOL_MAX`].
    probe_pool: Vec<Vec<(Ipv4Addr, ProbeStatus)>>,
    /// Scratch for [`Ctx::probe_batch`]'s delay grouping:
    /// `(delay µs, call index, target, status)`.
    probe_scratch: Vec<(u64, u32, Ipv4Addr, ProbeStatus)>,
}

/// Bounds on the [`SimCore`] payload pool: don't hoard more buffers
/// than a busy event queue keeps in flight, and don't retain large
/// ones. Payloads here are FTP reply lines and listings; on the study's
/// worlds a listing body's median is 1.1–1.2 KB and its 99th percentile
/// about 2 KB, and 0.4–0.7% exceed 4 KiB (the largest, 36 KB). The pool
/// is last in, first out, so a buffer that once carried a large listing
/// would otherwise be handed to 20-byte replies and kept for the rest
/// of the run: a larger payload gets a buffer of its own, freed once
/// delivered.
const BUF_POOL_MAX: usize = 1024;
const BUF_POOL_MAX_CAPACITY: usize = 4 * 1024;
/// Bound on the probe-group pool. A sweep keeps one group in flight per
/// pacing tick within the probe timeout, hundreds at once, and all of
/// them come back when it drains. While it runs, groups return as fast
/// as they are taken, so a few pooled vectors serve it; keeping every
/// one would hold them idle through enumeration.
const PROBE_POOL_MAX: usize = 64;

impl SimCore {
    /// A buffer holding a copy of `bytes`, reusing a pooled allocation
    /// when one is available.
    fn fill_buf(&mut self, bytes: &[u8]) -> Vec<u8> {
        match self.buf_pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(bytes);
                buf
            }
            None => bytes.to_vec(),
        }
    }

    /// Returns a dispatched payload buffer to the pool.
    fn recycle_buf(&mut self, buf: Vec<u8>) {
        if self.buf_pool.len() < BUF_POOL_MAX && buf.capacity() <= BUF_POOL_MAX_CAPACITY {
            self.buf_pool.push(buf);
        }
    }

    /// An empty probe-batch payload vector, pooled when available.
    fn take_probe_group(&mut self) -> Vec<(Ipv4Addr, ProbeStatus)> {
        self.probe_pool.pop().map_or_else(Vec::new, |mut v| {
            v.clear();
            v
        })
    }

    /// Returns a dispatched probe-batch payload to the pool.
    fn recycle_probe_group(&mut self, group: Vec<(Ipv4Addr, ProbeStatus)>) {
        if self.probe_pool.len() < PROBE_POOL_MAX {
            self.probe_pool.push(group);
        }
    }

    /// Classifies a SYN probe against `target:port` and picks its answer
    /// delay. Draws the shared RNG once when probe loss is configured —
    /// exactly one draw per probe, in call order, so the per-probe and
    /// batched scheduling paths consume an identical RNG stream.
    fn probe_outcome(&mut self, target: Ipv4Addr, port: u16) -> (ProbeStatus, SimDuration) {
        let lost = self.cfg.probe_loss > 0.0 && self.rng.random::<f64>() < self.cfg.probe_loss;
        let status = if lost {
            ProbeStatus::Filtered
        } else {
            match self.hosts.get(&target) {
                None => ProbeStatus::Filtered,
                Some(h) if h.bound.contains_key(&port) => ProbeStatus::Open,
                Some(_) => ProbeStatus::Closed,
            }
        };
        let delay = match status {
            ProbeStatus::Filtered => PROBE_TIMEOUT,
            _ => {
                // Round trip on the real path (seeded per path).
                let lat = self.latency(Ipv4Addr::UNSPECIFIED, target);
                lat + lat
            }
        };
        (status, delay)
    }

    fn schedule(&mut self, delay: SimDuration, ev: Ev) {
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.queue.insert(Entry { at, seq, ev });
    }

    /// Stable per-path one-way latency.
    fn latency(&self, a: Ipv4Addr, b: Ipv4Addr) -> SimDuration {
        let mut x = self.seed ^ ((u32::from(a) as u64) << 32 | u32::from(b) as u64);
        // splitmix64 finalizer — stable, seeded, uniform.
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        BASE_LATENCY + SimDuration::from_micros(x % JITTER.as_micros())
    }

    /// Intercepts a server→initiator send on a connection whose
    /// responder host carries `profile`. Returns `true` when the fault
    /// layer consumed the send (delivering mangled bytes, or nothing);
    /// `false` lets the normal path deliver it untouched.
    ///
    /// All randomness here is keyed on `(profile.seed, conn id, reply
    /// ordinal)` — never the shared RNG — so faulty hosts cannot
    /// perturb clean hosts' streams (see the `fault` module docs).
    fn apply_send_fault(&mut self, conn: ConnId, profile: FaultProfile, bytes: &[u8]) -> bool {
        let now = self.now;
        let Some(c) = self.conns.get_mut(&conn.0) else { return true };
        let on_control = c.responder_port == profile.control_port;
        let lat = c.latency;
        let faulty_ip = c.responder_ip;
        match profile.kind {
            // Connect-time faults: established traffic is untouched
            // (SynBlackhole never establishes; DataChannelBroken only
            // blocks non-control SYNs).
            FaultKind::SynBlackhole | FaultKind::DataChannelBroken => false,
            FaultKind::MidSessionRst { after_sends } => {
                c.fault_sends += 1;
                if c.fault_sends > after_sends {
                    // Abrupt reset: both ends see the close, nothing more
                    // flows.
                    c.state = ConnState::Closed;
                    self.schedule(lat, Ev::Close { conn, to: Ends::Both });
                    obs::journal!(
                        faulty_ip,
                        obs::JournalEvent::FaultHit { kind: profile.kind.label() }
                    );
                    true
                } else {
                    false
                }
            }
            FaultKind::Tarpit { drip, max_bytes } => {
                let budget = max_bytes.saturating_sub(c.fault_bytes) as usize;
                let n = bytes.len().min(budget);
                c.fault_bytes += n as u64;
                // Bytes drip one at a time, queued behind any previous
                // drips still in flight; the remainder beyond the budget
                // is swallowed (the host goes silent — never closes).
                let start = c.drip_until.max(now);
                for (i, &b) in bytes[..n].iter().enumerate() {
                    let at = start + drip.saturating_mul(i as u64 + 1) + lat;
                    let drop_buf = self.fill_buf(&[b]);
                    self.schedule(at - now, Ev::Data { conn, to_initiator: true, bytes: drop_buf });
                }
                if n > 0 {
                    let c = self.conns.get_mut(&conn.0).expect("conn present");
                    c.drip_until = start + drip.saturating_mul(n as u64);
                }
                obs::journal!(
                    faulty_ip,
                    obs::JournalEvent::FaultHit { kind: profile.kind.label() }
                );
                true
            }
            FaultKind::TruncateData { after_bytes } => {
                if on_control {
                    return false;
                }
                let budget = after_bytes.saturating_sub(c.fault_bytes) as usize;
                let n = bytes.len().min(budget);
                c.fault_bytes += n as u64;
                if n > 0 {
                    let prefix = self.fill_buf(&bytes[..n]);
                    self.schedule(lat, Ev::Data { conn, to_initiator: true, bytes: prefix });
                }
                if n < bytes.len() {
                    // Cut mid-transfer: close right behind the prefix.
                    let c = self.conns.get_mut(&conn.0).expect("conn present");
                    if c.state != ConnState::Closed {
                        c.state = ConnState::Closed;
                        self.schedule(lat, Ev::Close { conn, to: Ends::Initiator });
                    }
                    obs::journal!(
                        faulty_ip,
                        obs::JournalEvent::FaultHit { kind: profile.kind.label() }
                    );
                }
                true
            }
            FaultKind::GarbageReplies { overlong } => {
                if !on_control {
                    return false;
                }
                c.fault_sends += 1;
                let (ordinal, sends) = (c.fault_ordinal, c.fault_sends);
                // Render into a pooled buffer: the garbage path rides
                // the same recycled data-path buffers as clean sends.
                let mut junk = self.fill_buf(&[]);
                garbage_reply_into(profile.seed, ordinal, sends, overlong, &mut junk);
                self.schedule(lat, Ev::Data { conn, to_initiator: true, bytes: junk });
                obs::journal!(
                    faulty_ip,
                    obs::JournalEvent::FaultHit { kind: profile.kind.label() }
                );
                true
            }
        }
    }
}

/// Handler-side API: everything an [`Endpoint`] may do to the network.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    me: EndpointId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the endpoint this context belongs to.
    pub fn me(&self) -> EndpointId {
        self.me
    }

    /// Sends bytes on an established connection. Bytes on closed or
    /// half-open connections are silently dropped, as data racing a
    /// close would be on a real network.
    pub fn send(&mut self, conn: ConnId, bytes: &[u8]) {
        let Some(c) = self.core.conns.get(&conn.0) else { return };
        if c.state != ConnState::Established {
            return;
        }
        let to_initiator = self.me != c.initiator_ep;
        let (responder_ip, lat) = (c.responder_ip, c.latency);
        // Server→client traffic from a faulty host goes through the
        // fault layer, which may mangle, delay, or swallow it.
        if to_initiator {
            if let Some(profile) = self.core.faults.get(&responder_ip).copied() {
                if self.core.apply_send_fault(conn, profile, bytes) {
                    return;
                }
            }
        }
        let payload = self.core.fill_buf(bytes);
        self.core.schedule(lat, Ev::Data { conn, to_initiator, bytes: payload });
    }

    /// Closes a connection; the peer receives `on_close` one latency
    /// later. Closing an already-closed connection is a no-op.
    pub fn close(&mut self, conn: ConnId) {
        let Some(c) = self.core.conns.get_mut(&conn.0) else { return };
        if c.state == ConnState::Closed {
            return;
        }
        c.state = ConnState::Closed;
        let to = if self.me == c.initiator_ep { Ends::Responder } else { Ends::Initiator };
        let lat = c.latency;
        self.core.schedule(lat, Ev::Close { conn, to });
    }

    /// Initiates a connection from `src_ip` (a host this endpoint
    /// controls) to `dst`. The result arrives via
    /// [`Endpoint::on_outbound`] carrying `token`.
    pub fn connect(&mut self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr, dst_port: u16, token: u64) {
        if obs::enabled() {
            obs::counter(obs::Counter::Connects, 1);
        }
        let src_port = {
            let host = self.core.hosts.entry(src_ip).or_insert_with(Host::new);
            let p = host.next_ephemeral;
            host.next_ephemeral = if p == u16::MAX { 49_152 } else { p + 1 };
            p
        };
        let latency = self.core.latency(src_ip, dst_ip);
        // Nonexistent destinations refuse at SynArrive and never carry
        // fault profiles, so they don't need (or get) an ordinal — and
        // must not be created here, or probe classification would see
        // them.
        let fault_ordinal = match self.core.hosts.get_mut(&dst_ip) {
            Some(h) => {
                let o = h.conn_ordinal;
                h.conn_ordinal += 1;
                o
            }
            None => 0,
        };
        let id = self.core.next_conn;
        self.core.next_conn += 1;
        self.core.conns.insert(
            id,
            Conn {
                initiator_ip: src_ip,
                initiator_port: src_port,
                initiator_ep: self.me,
                responder_ip: dst_ip,
                responder_port: dst_port,
                responder_ep: None,
                token,
                state: ConnState::SynSent,
                latency,
                fault_sends: 0,
                fault_bytes: 0,
                drip_until: SimTime::ZERO,
                fault_ordinal,
            },
        );
        self.core.schedule(latency, Ev::SynArrive { conn: ConnId(id) });
        self.core.schedule(CONNECT_TIMEOUT, Ev::ConnectTimeout { conn: ConnId(id) });
    }

    /// Sends a stateless SYN probe (ZMap-style host discovery). The
    /// answer arrives via [`Endpoint::on_probe`].
    pub fn probe(&mut self, target: Ipv4Addr, port: u16) {
        if obs::enabled() {
            obs::counter(obs::Counter::ProbesSent, 1);
        }
        let ep = self.me;
        let (status, delay) = self.core.probe_outcome(target, port);
        self.core.schedule(delay, Ev::ProbeResult { ep, target, port, status });
    }

    /// Sends one SYN probe per element of `targets` (repeats allowed —
    /// a scanner retrying each address K times lists it K times), as if
    /// by that many [`Ctx::probe`] calls, but schedules same-deadline
    /// answers as a single [`Endpoint::on_probe`]-per-element batch
    /// event instead of one queue entry each.
    ///
    /// Ordering-observable behavior is byte-identical to the per-probe
    /// path: RNG draws happen per target in slice order, callbacks for
    /// a shared deadline fire in slice order, and distinct deadlines
    /// within one call can never tie at the same instant (they differ
    /// by construction), so grouping only collapses entries whose
    /// relative order was already fixed by call order. The win is for
    /// sweeps where most probes share the fixed `probe_timeout`
    /// deadline: a 512-probe pacing tick collapses from 512 wheel
    /// entries to one (plus one per distinct answered-path latency).
    pub fn probe_batch(&mut self, targets: &[Ipv4Addr], port: u16) {
        if obs::enabled() {
            obs::counter(obs::Counter::ProbesSent, targets.len() as u64);
        }
        let ep = self.me;
        let mut scratch = std::mem::take(&mut self.core.probe_scratch);
        scratch.clear();
        for (idx, &target) in targets.iter().enumerate() {
            let (status, delay) = self.core.probe_outcome(target, port);
            scratch.push((delay.as_micros(), idx as u32, target, status));
        }
        // Group by delay; the call index keeps the sort deterministic
        // and preserves call order within each group. Group-to-group
        // schedule order is unobservable: their deadlines all differ.
        scratch.sort_unstable_by_key(|&(delay, idx, _, _)| (delay, idx));
        let mut i = 0;
        while i < scratch.len() {
            let delay = scratch[i].0;
            let mut j = i + 1;
            while j < scratch.len() && scratch[j].0 == delay {
                j += 1;
            }
            if j - i == 1 {
                let (_, _, target, status) = scratch[i];
                self.core.schedule(
                    SimDuration::from_micros(delay),
                    Ev::ProbeResult { ep, target, port, status },
                );
            } else {
                let mut results = self.core.take_probe_group();
                results.extend(scratch[i..j].iter().map(|&(_, _, target, status)| (target, status)));
                self.core
                    .schedule(SimDuration::from_micros(delay), Ev::ProbeBatch { ep, port, results });
            }
            i = j;
        }
        self.core.probe_scratch = scratch;
    }

    /// Binds an ephemeral port on `host_ip` to this endpoint (for `PASV`
    /// data listeners). Returns the chosen port.
    pub fn listen_ephemeral(&mut self, host_ip: Ipv4Addr) -> u16 {
        let me = self.me;
        let host = self.core.hosts.entry(host_ip).or_insert_with(Host::new);
        loop {
            let p = host.next_ephemeral;
            host.next_ephemeral = if p == u16::MAX { 49_152 } else { p + 1 };
            if let std::collections::hash_map::Entry::Vacant(e) = host.bound.entry(p) {
                e.insert(me);
                return p;
            }
        }
    }

    /// Removes a port binding created with [`Ctx::listen_ephemeral`] (or
    /// [`Simulator::bind`]).
    pub fn unlisten(&mut self, host_ip: Ipv4Addr, port: u16) {
        if let Some(h) = self.core.hosts.get_mut(&host_ip) {
            h.bound.remove(&port);
        }
    }

    /// Arms a timer; [`Endpoint::on_timer`] fires with `token` after
    /// `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let ep = self.me;
        self.core.schedule(delay, Ev::Timer { ep, token });
    }

    /// Remote address of a connection (`None` once fully forgotten).
    pub fn peer_of(&self, conn: ConnId) -> Option<(Ipv4Addr, u16)> {
        let c = self.core.conns.get(&conn.0)?;
        if self.me == c.initiator_ep && c.responder_ep != Some(self.me) {
            Some((c.responder_ip, c.responder_port))
        } else {
            Some((c.initiator_ip, c.initiator_port))
        }
    }

    /// The RFC 1918 address a NATed host believes it has, if configured.
    pub fn internal_ip_of(&self, host_ip: Ipv4Addr) -> Option<Ipv4Addr> {
        self.core.hosts.get(&host_ip).and_then(|h| h.internal_ip)
    }
}

/// Buffer capacity a [`Simulator`] keeps for reuse, in bytes unless
/// stated (see [`Simulator::footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimFootprint {
    /// The timer wheel's slot vectors and their drain scratch.
    pub wheel_slots: usize,
    /// Most entries the wheel ever held at once (a count, see
    /// [`WheelStats::max_occupancy`]).
    pub peak_entries: u64,
    /// Bytes per wheel entry.
    pub entry_bytes: usize,
    /// Pooled stream payload buffers.
    pub payload_pool: usize,
    /// Pooled probe-batch vectors.
    pub probe_pool: usize,
}

/// The simulator: owns the clock, hosts, connections, and endpoints.
pub struct Simulator {
    core: SimCore,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    /// Reused same-instant batch buffer for [`Simulator::run`]'s drain
    /// loop (see [`TimerWheel::pop_batch`]); empty between runs.
    drain_buf: Vec<Entry<Ev>>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.core.now)
            .field("hosts", &self.core.hosts.len())
            .field("conns", &self.core.conns.len())
            .field("endpoints", &self.endpoints.len())
            .field("queued", &self.core.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator with default [`SimConfig`] and the given RNG
    /// seed.
    pub fn new(seed: u64) -> Self {
        Simulator::with_config(seed, SimConfig::default())
    }

    /// Creates a simulator with explicit configuration.
    pub fn with_config(seed: u64, cfg: SimConfig) -> Self {
        Simulator {
            core: SimCore {
                now: SimTime::ZERO,
                seq: 0,
                queue: TimerWheel::new(),
                hosts: FastMap::default(),
                conns: FastMap::default(),
                faults: FastMap::default(),
                next_conn: 0,
                cfg,
                seed,
                rng: StdRng::seed_from_u64(seed),
                events_processed: 0,
                buf_pool: Vec::new(),
                probe_pool: Vec::new(),
                probe_scratch: Vec::new(),
            },
            endpoints: Vec::new(),
            drain_buf: Vec::new(),
        }
    }

    /// Rewinds this simulator to the state [`Simulator::with_config`]
    /// would produce for `seed` and the current config, but keeps its
    /// allocation caches and container capacity. A caller running many
    /// bounded simulations back to back — the streaming study runner's
    /// `(shard, batch)` grid — reuses one arena instead of rebuilding it
    /// per cell.
    ///
    /// What is kept is bounded by live work, not by everything that ever
    /// passed through ([`Simulator::footprint`] reports the wheel slots
    /// and the pools):
    /// - timer-wheel slots and their scratch: at most 64 entries of
    ///   capacity each (a slot holding more drops its buffer);
    /// - the wheel's now queue and overflow heap, and the drain buffer:
    ///   at most one run's peak of queued (or same-instant) entries;
    /// - the payload pool: at most 1,024 buffers of at most 4 KiB;
    /// - the probe-group pool: at most 64 vectors, each at most one
    ///   [`Ctx::probe_batch`] call long, and the probe scratch: the
    ///   longest such call;
    /// - the host, connection and endpoint tables: the most hosts,
    ///   live connections and endpoints one run had.
    ///
    /// Behavior from a reset simulator is byte-identical to a fresh
    /// one: every piece of state consulted by the event loop (clock,
    /// sequence counter, RNG, hosts, connections, faults, endpoints) is
    /// cleared; what survives is reusable capacity whose contents are
    /// always overwritten before use. Timer-wheel statistics
    /// ([`Simulator::wheel_stats`]) intentionally keep accumulating
    /// across resets — they describe the arena's lifetime, which is
    /// what a per-shard observability harvest wants.
    pub fn reset(&mut self, seed: u64) {
        self.core.now = SimTime::ZERO;
        self.core.seq = 0;
        self.core.queue.reset();
        self.core.hosts.clear();
        self.core.conns.clear();
        self.core.faults.clear();
        self.core.next_conn = 0;
        self.core.seed = seed;
        self.core.rng = StdRng::seed_from_u64(seed);
        self.core.events_processed = 0;
        self.endpoints.clear();
        self.drain_buf.clear();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Lifetime timer-wheel statistics (inserts, cascades, peak
    /// occupancy) for this simulator's event queue.
    pub fn wheel_stats(&self) -> WheelStats {
        self.core.queue.stats()
    }

    /// Bytes of buffer capacity the simulator keeps for reuse, by
    /// buffer, next to the wheel's peak live entries.
    pub fn footprint(&self) -> SimFootprint {
        let core = &self.core;
        let entry = std::mem::size_of::<Entry<Ev>>();
        let probe = std::mem::size_of::<(Ipv4Addr, ProbeStatus)>();
        SimFootprint {
            wheel_slots: core.queue.slot_capacity() * entry,
            peak_entries: core.queue.stats().max_occupancy,
            entry_bytes: entry,
            payload_pool: core.buf_pool.iter().map(Vec::capacity).sum(),
            probe_pool: core.probe_pool.iter().map(Vec::capacity).sum::<usize>() * probe,
        }
    }

    /// Registers a host (idempotent).
    pub fn add_host(&mut self, ip: Ipv4Addr) {
        self.core.hosts.entry(ip).or_insert_with(Host::new);
    }

    /// Marks a host as NAT-deployed with the given internal address.
    pub fn set_internal_ip(&mut self, ip: Ipv4Addr, internal: Ipv4Addr) {
        self.core.hosts.entry(ip).or_insert_with(Host::new).internal_ip = Some(internal);
    }

    /// Attaches a fault profile to a host: from now on the transport
    /// layer rewrites that host's observable behavior (see
    /// [`crate::fault`]). Replaces any previous profile.
    pub fn set_fault(&mut self, ip: Ipv4Addr, profile: FaultProfile) {
        self.core.faults.insert(ip, profile);
    }

    /// Registers application logic; returns its id for [`Simulator::bind`].
    pub fn register_endpoint(&mut self, ep: Box<dyn Endpoint>) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(Some(ep));
        id
    }

    /// Binds `port` on `ip` to an endpoint (creating the host if needed).
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that host.
    pub fn bind(&mut self, ip: Ipv4Addr, port: u16, ep: EndpointId) {
        let host = self.core.hosts.entry(ip).or_insert_with(Host::new);
        let prev = host.bound.insert(port, ep);
        assert!(prev.is_none(), "{ip}:{port} bound twice");
    }

    /// Schedules a timer for an endpoint from outside any handler — the
    /// idiomatic way to kick off client drivers.
    pub fn schedule_timer(&mut self, ep: EndpointId, delay: SimDuration, token: u64) {
        self.core.schedule(delay, Ev::Timer { ep, token });
    }

    /// Detaches an endpoint from the simulator (consuming its slot), so a
    /// caller can drop it, and what it holds, before the simulator goes.
    /// Events still addressed to it are dropped. Results are not read
    /// from the endpoint: each endpoint's constructor returns a shared
    /// handle to them (e.g. `zscan::HostDiscovery::new`).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint was already taken.
    pub fn take_endpoint(&mut self, id: EndpointId) -> Box<dyn Endpoint> {
        self.endpoints[id.0 as usize].take().expect("endpoint detached or already taken")
    }

    /// Runs until the event queue is exhausted. This is the only way to
    /// drive the simulator.
    ///
    /// Drains the queue in same-instant batches: one
    /// `TimerWheel::pop_batch` pulls every entry sharing the earliest
    /// deadline (already `(at, seq)`-ordered), then dispatches them
    /// back to back. Events a handler schedules at the current instant
    /// carry larger sequence numbers than everything in the drained
    /// batch, so they correctly run in the *next* batch — dispatch
    /// order is exactly the queue's `(at, seq)` order.
    pub fn run(&mut self) {
        let mut batch = std::mem::take(&mut self.drain_buf);
        loop {
            debug_assert!(batch.is_empty());
            self.core.queue.pop_batch(&mut batch);
            if batch.is_empty() {
                break;
            }
            for entry in batch.drain(..) {
                self.core.now = entry.at;
                self.core.events_processed += 1;
                obs_note_dispatch(entry.at, &entry.ev);
                self.dispatch(entry.ev);
            }
        }
        self.drain_buf = batch;
    }

    fn call<F>(&mut self, ep: EndpointId, f: F)
    where
        F: FnOnce(&mut dyn Endpoint, &mut Ctx<'_>),
    {
        let slot = ep.0 as usize;
        let Some(mut boxed) = self.endpoints.get_mut(slot).and_then(Option::take) else {
            return;
        };
        {
            let mut ctx = Ctx { core: &mut self.core, me: ep };
            f(boxed.as_mut(), &mut ctx);
        }
        self.endpoints[slot] = Some(boxed);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::SynArrive { conn } => {
                let Some(c) = self.core.conns.get(&conn.0) else { return };
                if c.state != ConnState::SynSent {
                    return;
                }
                let (dst_ip, dst_port) = (c.responder_ip, c.responder_port);
                let lat = c.latency;
                // Connect-time faults: a SYN-blackholed host (or the
                // non-control ports of a broken-data-channel host)
                // swallows the SYN — the initiator's connect timer
                // fires, as for an address with no host, but probes
                // still see the port open.
                match self.core.faults.get(&dst_ip).map(|p| (p.kind, p.control_port)) {
                    Some((kind @ FaultKind::SynBlackhole, _)) => {
                        obs::journal!(dst_ip, obs::JournalEvent::FaultHit { kind: kind.label() });
                        return;
                    }
                    Some((kind @ FaultKind::DataChannelBroken, control)) if dst_port != control => {
                        obs::journal!(dst_ip, obs::JournalEvent::FaultHit { kind: kind.label() });
                        return;
                    }
                    _ => {}
                }
                // No host: nobody answers, the SYN is simply lost and
                // the initiator's connect timer fires.
                let Some(host) = self.core.hosts.get(&dst_ip) else { return };
                match host.bound.get(&dst_port).copied() {
                    Some(ep) => {
                        let c = self.core.conns.get_mut(&conn.0).expect("conn present");
                        c.responder_ep = Some(ep);
                        c.state = ConnState::Established;
                        self.core.schedule(lat, Ev::ConnectResult { conn, ok: true });
                        self.call(ep, |e, ctx| e.on_inbound(ctx, conn, dst_port));
                    }
                    // Unbound port: RST.
                    None => self.core.schedule(lat, Ev::ConnectResult { conn, ok: false }),
                }
            }
            Ev::ConnectResult { conn, ok } => {
                let Some(c) = self.core.conns.get(&conn.0) else { return };
                let ep = c.initiator_ep;
                let token = c.token;
                if ok {
                    if c.state != ConnState::Established {
                        return; // raced a close
                    }
                    self.call(ep, |e, ctx| e.on_outbound(ctx, token, Ok(conn)));
                } else {
                    self.core.conns.remove(&conn.0);
                    self.call(ep, |e, ctx| {
                        e.on_outbound(ctx, token, Err(ConnectError::Refused))
                    });
                }
            }
            Ev::ConnectTimeout { conn } => {
                let Some(c) = self.core.conns.get(&conn.0) else { return };
                if c.state != ConnState::SynSent {
                    return;
                }
                let ep = c.initiator_ep;
                let token = c.token;
                self.core.conns.remove(&conn.0);
                self.call(ep, |e, ctx| e.on_outbound(ctx, token, Err(ConnectError::Timeout)));
            }
            Ev::Data { conn, to_initiator, bytes } => {
                // Deliver while the connection record exists — a local
                // close() only stops *new* sends; bytes already in flight
                // were sent before the FIN and must still arrive (the
                // Close event, queued after them, removes the record).
                if let Some(c) = self.core.conns.get(&conn.0) {
                    let ep = if to_initiator { Some(c.initiator_ep) } else { c.responder_ep };
                    if let Some(ep) = ep {
                        self.call(ep, |e, ctx| e.on_data(ctx, conn, &bytes));
                    }
                }
                self.core.recycle_buf(bytes);
            }
            Ev::Close { conn, to } => {
                let Some(c) = self.core.conns.get(&conn.0) else { return };
                let (initiator, responder) = (c.initiator_ep, c.responder_ep);
                if to != Ends::Responder {
                    self.call(initiator, |e, ctx| e.on_close(ctx, conn));
                }
                if to != Ends::Initiator {
                    if let Some(ep) = responder {
                        self.call(ep, |e, ctx| e.on_close(ctx, conn));
                    }
                }
                self.core.conns.remove(&conn.0);
            }
            Ev::Timer { ep, token } => {
                self.call(ep, |e, ctx| e.on_timer(ctx, token));
            }
            Ev::ProbeResult { ep, target, port, status } => {
                self.call(ep, |e, ctx| e.on_probe(ctx, target, port, status));
            }
            Ev::ProbeBatch { ep, port, results } => {
                // One endpoint detach for the whole batch; `on_probe`
                // fires per element in vec order (= probe call order).
                let slot = ep.0 as usize;
                if let Some(mut boxed) = self.endpoints.get_mut(slot).and_then(Option::take) {
                    {
                        let mut ctx = Ctx { core: &mut self.core, me: ep };
                        for &(target, status) in &results {
                            boxed.on_probe(&mut ctx, target, port, status);
                        }
                    }
                    self.endpoints[slot] = Some(boxed);
                }
                self.core.recycle_probe_group(results);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records everything that happens to it; shared via Rc for
    /// post-run inspection.
    #[derive(Default)]
    struct Recorder {
        log: Rc<RefCell<Vec<String>>>,
        conn: Option<ConnId>,
    }

    impl Endpoint for Recorder {
        fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local_port: u16) {
            self.log.borrow_mut().push(format!("inbound:{local_port}"));
            ctx.send(conn, b"hello");
        }
        fn on_outbound(
            &mut self,
            ctx: &mut Ctx<'_>,
            token: u64,
            result: Result<ConnId, ConnectError>,
        ) {
            match result {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.log.borrow_mut().push(format!("connected:{token}"));
                    ctx.send(conn, b"ping");
                }
                Err(e) => self.log.borrow_mut().push(format!("failed:{token}:{e}")),
            }
        }
        fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, data: &[u8]) {
            self.log.borrow_mut().push(format!("data:{}", String::from_utf8_lossy(data)));
        }
        fn on_close(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
            self.log.borrow_mut().push("closed".into());
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.log.borrow_mut().push(format!("timer:{token}"));
            if token >= 1000 {
                // Convention for tests: token >= 1000 means "connect to
                // 10.0.0.1:21 from 10.9.9.9".
                ctx.connect(
                    Ipv4Addr::new(10, 9, 9, 9),
                    Ipv4Addr::new(10, 0, 0, 1),
                    (token - 1000) as u16,
                    token,
                );
            }
        }
        fn on_probe(&mut self, _ctx: &mut Ctx<'_>, target: Ipv4Addr, _port: u16, status: ProbeStatus) {
            self.log.borrow_mut().push(format!("probe:{target}:{status:?}"));
        }
    }

    type Log = Rc<RefCell<Vec<String>>>;

    fn setup() -> (Simulator, Log, Log, EndpointId, EndpointId) {
        let mut sim = Simulator::new(7);
        let server_log = Rc::new(RefCell::new(Vec::new()));
        let client_log = Rc::new(RefCell::new(Vec::new()));
        let server = Recorder { log: server_log.clone(), conn: None };
        let client = Recorder { log: client_log.clone(), conn: None };
        let sid = sim.register_endpoint(Box::new(server));
        let cid = sim.register_endpoint(Box::new(client));
        sim.add_host(Ipv4Addr::new(10, 0, 0, 1));
        sim.bind(Ipv4Addr::new(10, 0, 0, 1), 21, sid);
        (sim, server_log, client_log, sid, cid)
    }

    #[test]
    fn full_handshake_and_data_exchange() {
        let (mut sim, server_log, client_log, _sid, cid) = setup();
        sim.schedule_timer(cid, SimDuration::ZERO, 1021);
        sim.run();
        let s = server_log.borrow();
        let c = client_log.borrow();
        assert!(s.contains(&"inbound:21".to_string()), "{s:?}");
        assert!(s.contains(&"data:ping".to_string()), "{s:?}");
        assert!(c.contains(&"connected:1021".to_string()), "{c:?}");
        assert!(c.contains(&"data:hello".to_string()), "{c:?}");
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let (mut sim, _s, client_log, _sid, cid) = setup();
        sim.schedule_timer(cid, SimDuration::ZERO, 1080); // port 80 unbound
        sim.run();
        let c = client_log.borrow();
        assert!(
            c.iter().any(|l| l.starts_with("failed:1080:connection refused")),
            "{c:?}"
        );
    }

    #[test]
    fn connect_to_missing_host_times_out() {
        let mut sim = Simulator::new(7);
        let log = Rc::new(RefCell::new(Vec::new()));
        let cid = sim.register_endpoint(Box::new(Recorder { log: log.clone(), conn: None }));
        sim.schedule_timer(cid, SimDuration::ZERO, 0);
        // Manually drive a connect to an address with no host.
        struct Kick;
        impl Endpoint for Kick {}
        let _ = Kick; // silence unused warning in older compilers
        sim.run();
        // Directly test via a one-off endpoint:
        let log2 = Rc::new(RefCell::new(Vec::new()));
        struct Conn2 {
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Endpoint for Conn2 {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.connect(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 21, 5);
            }
            fn on_outbound(
                &mut self,
                _ctx: &mut Ctx<'_>,
                token: u64,
                result: Result<ConnId, ConnectError>,
            ) {
                self.log.borrow_mut().push(format!("{token}:{result:?}"));
            }
        }
        let mut sim2 = Simulator::new(9);
        let id = sim2.register_endpoint(Box::new(Conn2 { log: log2.clone() }));
        sim2.schedule_timer(id, SimDuration::ZERO, 0);
        sim2.run();
        assert_eq!(log2.borrow().as_slice(), ["5:Err(Timeout)"]);
    }

    #[test]
    fn probe_statuses() {
        struct Prober {
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Endpoint for Prober {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.probe(Ipv4Addr::new(10, 0, 0, 1), 21); // open
                ctx.probe(Ipv4Addr::new(10, 0, 0, 1), 80); // closed (RST)
                ctx.probe(Ipv4Addr::new(10, 0, 0, 2), 21); // filtered (no host)
            }
            fn on_probe(&mut self, _ctx: &mut Ctx<'_>, target: Ipv4Addr, port: u16, status: ProbeStatus) {
                self.log.borrow_mut().push(format!("{target}:{port}:{status:?}"));
            }
        }
        let mut sim = Simulator::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        struct Sink;
        impl Endpoint for Sink {}
        let sid = sim.register_endpoint(Box::new(Sink));
        sim.bind(Ipv4Addr::new(10, 0, 0, 1), 21, sid);
        let pid = sim.register_endpoint(Box::new(Prober { log: log.clone() }));
        sim.schedule_timer(pid, SimDuration::ZERO, 0);
        sim.run();
        let mut got = log.borrow().clone();
        got.sort();
        assert_eq!(got, vec!["10.0.0.1:21:Open", "10.0.0.1:80:Closed", "10.0.0.2:21:Filtered"]);
    }

    #[test]
    fn close_notifies_peer_and_drops_late_data() {
        struct Closer;
        impl Endpoint for Closer {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
                ctx.send(conn, b"bye");
                ctx.close(conn);
                // This send races the close and must be dropped.
                ctx.send(conn, b"ghost");
            }
        }
        let mut sim = Simulator::new(3);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sid = sim.register_endpoint(Box::new(Closer));
        sim.bind(Ipv4Addr::new(10, 0, 0, 1), 21, sid);
        let cid = sim.register_endpoint(Box::new(Recorder { log: log.clone(), conn: None }));
        sim.schedule_timer(cid, SimDuration::ZERO, 1021);
        sim.run();
        let c = log.borrow();
        assert!(c.contains(&"closed".to_string()), "{c:?}");
        assert!(!c.iter().any(|l| l.contains("ghost")), "{c:?}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut sim, server_log, client_log, _sid, cid) = setup();
            sim.schedule_timer(cid, SimDuration::ZERO, 1021);
            sim.run();
            let trace =
                (server_log.borrow().clone(), client_log.borrow().clone(), sim.now().as_micros());
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_is_stable_per_path() {
        let sim = Simulator::new(99);
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let b = Ipv4Addr::new(5, 6, 7, 8);
        assert_eq!(sim.core.latency(a, b), sim.core.latency(a, b));
        // Different path, (almost certainly) different latency.
        let c = Ipv4Addr::new(9, 9, 9, 9);
        assert_ne!(sim.core.latency(a, b), sim.core.latency(a, c));
    }

    #[test]
    fn ephemeral_listener_receives_connection() {
        struct PasvServer {
            data_port: Option<u16>,
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Endpoint for PasvServer {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local_port: u16) {
                if Some(local_port) == self.data_port {
                    self.log.borrow_mut().push("data-conn".into());
                    ctx.send(conn, b"listing");
                } else {
                    let p = ctx.listen_ephemeral(Ipv4Addr::new(10, 0, 0, 1));
                    self.data_port = Some(p);
                    ctx.send(conn, format!("PASV {p}").as_bytes());
                }
            }
        }
        struct PasvClient {
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Endpoint for PasvClient {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.connect(Ipv4Addr::new(10, 9, 9, 9), Ipv4Addr::new(10, 0, 0, 1), 21, 1);
            }
            fn on_data(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, data: &[u8]) {
                let text = String::from_utf8_lossy(data).into_owned();
                if let Some(port) = text.strip_prefix("PASV ") {
                    let port: u16 = port.parse().unwrap();
                    ctx.connect(Ipv4Addr::new(10, 9, 9, 9), Ipv4Addr::new(10, 0, 0, 1), port, 2);
                } else {
                    self.log.borrow_mut().push(text);
                }
            }
        }
        let mut sim = Simulator::new(5);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sid =
            sim.register_endpoint(Box::new(PasvServer { data_port: None, log: log.clone() }));
        sim.bind(Ipv4Addr::new(10, 0, 0, 1), 21, sid);
        let cid = sim.register_endpoint(Box::new(PasvClient { log: log.clone() }));
        sim.schedule_timer(cid, SimDuration::ZERO, 0);
        sim.run();
        let l = log.borrow();
        assert!(l.contains(&"data-conn".to_string()), "{l:?}");
        assert!(l.contains(&"listing".to_string()), "{l:?}");
    }

    #[test]
    fn internal_ip_exposed_via_ctx() {
        let mut sim = Simulator::new(1);
        let ip = Ipv4Addr::new(7, 7, 7, 7);
        sim.set_internal_ip(ip, Ipv4Addr::new(192, 168, 1, 50));
        struct Check {
            ok: Rc<RefCell<bool>>,
        }
        impl Endpoint for Check {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                *self.ok.borrow_mut() =
                    ctx.internal_ip_of(Ipv4Addr::new(7, 7, 7, 7))
                        == Some(Ipv4Addr::new(192, 168, 1, 50));
            }
        }
        let ok = Rc::new(RefCell::new(false));
        let id = sim.register_endpoint(Box::new(Check { ok: ok.clone() }));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        assert!(*ok.borrow());
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut sim = Simulator::new(1);
        struct S;
        impl Endpoint for S {}
        let a = sim.register_endpoint(Box::new(S));
        let b = sim.register_endpoint(Box::new(S));
        sim.bind(Ipv4Addr::new(1, 1, 1, 1), 21, a);
        sim.bind(Ipv4Addr::new(1, 1, 1, 1), 21, b);
    }

    #[test]
    fn probe_loss_forces_filtered() {
        let cfg = SimConfig { probe_loss: 1.0 };
        let mut sim = Simulator::with_config(1, cfg);
        struct S;
        impl Endpoint for S {}
        let sid = sim.register_endpoint(Box::new(S));
        sim.bind(Ipv4Addr::new(1, 1, 1, 1), 21, sid);
        let log = Rc::new(RefCell::new(Vec::new()));
        struct P {
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Endpoint for P {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.probe(Ipv4Addr::new(1, 1, 1, 1), 21);
            }
            fn on_probe(&mut self, _c: &mut Ctx<'_>, _t: Ipv4Addr, _p: u16, status: ProbeStatus) {
                self.log.borrow_mut().push(format!("{status:?}"));
            }
        }
        let pid = sim.register_endpoint(Box::new(P { log: log.clone() }));
        sim.schedule_timer(pid, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(log.borrow().as_slice(), ["Filtered"]);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultProfile};
    use std::cell::RefCell;
    use std::rc::Rc;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    /// Server that sends a reply on connect and echoes every chunk.
    struct ChattyServer;
    impl Endpoint for ChattyServer {
        fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
            ctx.send(conn, b"220 hello\r\n");
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _data: &[u8]) {
            ctx.send(conn, b"200 ok\r\n");
        }
    }

    /// Client that connects, fires `pings` commands, and logs all it sees.
    struct Driver {
        log: Rc<RefCell<Vec<String>>>,
        pings: u32,
    }
    impl Endpoint for Driver {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            ctx.connect(CLIENT, SERVER, token as u16, token);
        }
        fn on_outbound(&mut self, ctx: &mut Ctx<'_>, t: u64, r: Result<ConnId, ConnectError>) {
            match r {
                Ok(conn) => {
                    self.log.borrow_mut().push(format!("up:{t}"));
                    for _ in 0..self.pings {
                        ctx.send(conn, b"CMD\r\n");
                    }
                }
                Err(e) => self.log.borrow_mut().push(format!("err:{t}:{e}")),
            }
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, data: &[u8]) {
            let t = ctx.now().as_micros();
            self.log
                .borrow_mut()
                .push(format!("data@{t}:{}", String::from_utf8_lossy(data).escape_debug()));
        }
        fn on_close(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId) {
            self.log.borrow_mut().push("close".into());
        }
        fn on_probe(&mut self, _ctx: &mut Ctx<'_>, _t: Ipv4Addr, _p: u16, status: ProbeStatus) {
            self.log.borrow_mut().push(format!("probe:{status:?}"));
        }
    }

    fn faulted_sim(kind: FaultKind, pings: u32) -> (Simulator, Rc<RefCell<Vec<String>>>) {
        let mut sim = Simulator::new(11);
        let sid = sim.register_endpoint(Box::new(ChattyServer));
        sim.bind(SERVER, 21, sid);
        sim.set_fault(SERVER, FaultProfile::new(kind).with_seed(77));
        let log = Rc::new(RefCell::new(Vec::new()));
        let cid = sim.register_endpoint(Box::new(Driver { log: log.clone(), pings }));
        sim.schedule_timer(cid, SimDuration::ZERO, 21);
        (sim, log)
    }

    #[test]
    fn syn_blackhole_times_out_but_probes_open() {
        let (mut sim, log) = faulted_sim(FaultKind::SynBlackhole, 0);
        sim.run();
        let l = log.borrow();
        assert!(l.iter().any(|e| e.starts_with("err:21:connection timed out")), "{l:?}");
        // Probes bypass the blackhole: the port still advertises open.
        drop(l);
        let (mut sim2, log2) = faulted_sim(FaultKind::SynBlackhole, 0);
        let pid = {
            struct P(Rc<RefCell<Vec<String>>>);
            impl Endpoint for P {
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                    ctx.probe(SERVER, 21);
                }
                fn on_probe(
                    &mut self,
                    _c: &mut Ctx<'_>,
                    _t: Ipv4Addr,
                    _p: u16,
                    status: ProbeStatus,
                ) {
                    self.0.borrow_mut().push(format!("probe:{status:?}"));
                }
            }
            sim2.register_endpoint(Box::new(P(log2.clone())))
        };
        sim2.schedule_timer(pid, SimDuration::ZERO, 0);
        sim2.run();
        assert!(log2.borrow().iter().any(|e| e == "probe:Open"), "{:?}", log2.borrow());
    }

    #[test]
    fn mid_session_rst_cuts_after_n_replies() {
        let (mut sim, log) = faulted_sim(FaultKind::MidSessionRst { after_sends: 2 }, 5);
        sim.run();
        let l = log.borrow();
        let datas = l.iter().filter(|e| e.starts_with("data@")).count();
        assert_eq!(datas, 2, "exactly two replies delivered: {l:?}");
        assert!(l.iter().any(|e| e == "close"), "reset delivered as close: {l:?}");
    }

    /// A reset reaches both ends in one event: the initiator hears it
    /// first, then the responder.
    #[test]
    fn mid_session_rst_closes_both_ends() {
        struct Greeter(Rc<RefCell<Vec<String>>>);
        impl Endpoint for Greeter {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _port: u16) {
                ctx.send(conn, b"220 hello\r\n");
            }
            fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _data: &[u8]) {
                ctx.send(conn, b"200 ok\r\n");
            }
            fn on_close(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId) {
                self.0.borrow_mut().push("server close".into());
            }
        }
        let mut sim = Simulator::new(11);
        let log = Rc::new(RefCell::new(Vec::new()));
        let sid = sim.register_endpoint(Box::new(Greeter(log.clone())));
        sim.bind(SERVER, 21, sid);
        sim.set_fault(SERVER, FaultProfile::new(FaultKind::MidSessionRst { after_sends: 1 }));
        let cid = sim.register_endpoint(Box::new(Driver { log: log.clone(), pings: 1 }));
        sim.schedule_timer(cid, SimDuration::ZERO, 21);
        sim.run();
        let log = log.borrow();
        assert_eq!(log[0], "up:21");
        assert!(log[1].ends_with(":220 hello\\r\\n"), "{log:?}");
        assert_eq!(log[2..], ["close", "server close"]);
    }

    #[test]
    fn tarpit_drips_bytes_then_goes_silent() {
        let kind = FaultKind::Tarpit { drip: SimDuration::from_millis(500), max_bytes: 4 };
        let (mut sim, log) = faulted_sim(kind, 0);
        sim.run();
        let l = log.borrow();
        let datas: Vec<&String> = l.iter().filter(|e| e.starts_with("data@")).collect();
        // Banner is 11 bytes but only 4 drip through, one per event.
        assert_eq!(datas.len(), 4, "{l:?}");
        assert!(datas.iter().all(|e| e.ends_with("2") || e.len() > 6), "single bytes: {l:?}");
        // Spacing: at least the 500 ms drip between consecutive bytes.
        let times: Vec<u64> = datas
            .iter()
            .map(|e| e[5..e.find(':').unwrap()].parse().unwrap())
            .collect();
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 500_000, "drip spacing: {times:?}");
        }
        assert!(!l.iter().any(|e| e == "close"), "tarpit never closes: {l:?}");
    }

    #[test]
    fn data_channel_broken_blocks_only_other_ports() {
        let (mut sim, log) = faulted_sim(FaultKind::DataChannelBroken, 1);
        // Bind a "data" port on the same host.
        struct DataSrv;
        impl Endpoint for DataSrv {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
                ctx.send(conn, b"payload");
            }
        }
        let did = sim.register_endpoint(Box::new(DataSrv));
        sim.bind(SERVER, 50_000, did);
        // Second driver dials the data port.
        let log2 = Rc::new(RefCell::new(Vec::new()));
        let c2 = sim.register_endpoint(Box::new(Driver { log: log2.clone(), pings: 0 }));
        sim.schedule_timer(c2, SimDuration::ZERO, 50_000);
        sim.run();
        assert!(log.borrow().iter().any(|e| e.starts_with("up:21")), "{:?}", log.borrow());
        assert!(
            log2.borrow().iter().any(|e| e.starts_with("err:50000:connection timed out")),
            "{:?}",
            log2.borrow()
        );
    }

    #[test]
    fn truncate_data_cuts_transfers_but_not_control() {
        let kind = FaultKind::TruncateData { after_bytes: 3 };
        let (mut sim, log) = faulted_sim(kind, 1);
        struct BigSrv;
        impl Endpoint for BigSrv {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
                ctx.send(conn, b"0123456789");
            }
        }
        let did = sim.register_endpoint(Box::new(BigSrv));
        sim.bind(SERVER, 50_001, did);
        let log2 = Rc::new(RefCell::new(Vec::new()));
        let c2 = sim.register_endpoint(Box::new(Driver { log: log2.clone(), pings: 0 }));
        sim.schedule_timer(c2, SimDuration::ZERO, 50_001);
        sim.run();
        // Control channel flows untouched.
        assert!(
            log.borrow().iter().any(|e| e.contains("220 hello")),
            "{:?}",
            log.borrow()
        );
        // Data channel: exactly 3 bytes then close.
        let l2 = log2.borrow();
        assert!(l2.iter().any(|e| e.contains(":012") && !e.contains("3")), "{l2:?}");
        assert!(l2.iter().any(|e| e == "close"), "{l2:?}");
    }

    #[test]
    fn garbage_replies_mangle_control_deterministically() {
        let run = || {
            let (mut sim, log) = faulted_sim(FaultKind::GarbageReplies { overlong: false }, 2);
            sim.run();
            let l = log.borrow().clone();
            l
        };
        let a = run();
        assert!(a.iter().any(|e| e.starts_with("data@")), "{a:?}");
        assert!(!a.iter().any(|e| e.contains("220 hello")), "banner replaced: {a:?}");
        assert_eq!(a, run(), "garbage is deterministic");
    }

    #[test]
    fn clean_hosts_unaffected_by_faults_elsewhere() {
        // Two identical servers; faulting one must not change one byte
        // of the other's session (determinism requirement (c) of the
        // chaos suite).
        let other = Ipv4Addr::new(10, 0, 0, 2);
        let run = |with_fault: bool| {
            let mut sim = Simulator::new(5);
            let s1 = sim.register_endpoint(Box::new(ChattyServer));
            sim.bind(SERVER, 21, s1);
            let s2 = sim.register_endpoint(Box::new(ChattyServer));
            sim.bind(other, 21, s2);
            if with_fault {
                sim.set_fault(SERVER, FaultProfile::sample(123));
            }
            struct Dialer {
                log: Rc<RefCell<Vec<String>>>,
            }
            impl Endpoint for Dialer {
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                    ctx.connect(CLIENT, Ipv4Addr::new(10, 0, 0, 2), 21, 1);
                }
                fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, data: &[u8]) {
                    self.log.borrow_mut().push(String::from_utf8_lossy(data).into_owned());
                }
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            let d = sim.register_endpoint(Box::new(Dialer { log: log.clone() }));
            sim.schedule_timer(d, SimDuration::ZERO, 0);
            // Also dial the faulted host so its behavior interleaves.
            let log_f = Rc::new(RefCell::new(Vec::new()));
            let df = sim.register_endpoint(Box::new(Driver { log: log_f, pings: 3 }));
            sim.schedule_timer(df, SimDuration::ZERO, 21);
            sim.run();
            let l = log.borrow().clone();
            l
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Nop;
    impl Endpoint for Nop {}

    #[test]
    fn events_processed_counts_dispatches() {
        let mut sim = Simulator::new(1);
        let id = sim.register_endpoint(Box::new(Nop));
        for i in 0..5 {
            sim.schedule_timer(id, SimDuration::from_micros(i), i);
        }
        assert_eq!(sim.events_processed(), 0);
        sim.run();
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn ephemeral_ports_skip_bound_ones_and_wrap() {
        let mut sim = Simulator::new(1);
        let ip = Ipv4Addr::new(9, 9, 9, 9);
        struct Binder {
            ip: Ipv4Addr,
            got: Rc<RefCell<Vec<u16>>>,
        }
        impl Endpoint for Binder {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                for _ in 0..5 {
                    let p = ctx.listen_ephemeral(self.ip);
                    self.got.borrow_mut().push(p);
                }
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let id = sim.register_endpoint(Box::new(Binder { ip, got: got.clone() }));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        let ports = got.borrow().clone();
        assert_eq!(ports.len(), 5);
        let set: std::collections::HashSet<u16> = ports.iter().copied().collect();
        assert_eq!(set.len(), 5, "no duplicates: {ports:?}");
        assert!(ports.iter().all(|&p| p >= 49_152));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn take_endpoint_twice_panics() {
        let mut sim = Simulator::new(1);
        let id = sim.register_endpoint(Box::new(Nop));
        let _ = sim.take_endpoint(id);
        let _ = sim.take_endpoint(id);
    }

    #[test]
    fn close_is_idempotent_and_safe_after_removal() {
        struct Closer;
        impl Endpoint for Closer {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
                ctx.close(conn);
                ctx.close(conn); // double close: must be a no-op
            }
        }
        struct Dialer;
        impl Endpoint for Dialer {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.connect(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 21, 0);
            }
        }
        let mut sim = Simulator::new(3);
        let sid = sim.register_endpoint(Box::new(Closer));
        sim.bind(Ipv4Addr::new(2, 2, 2, 2), 21, sid);
        let did = sim.register_endpoint(Box::new(Dialer));
        sim.schedule_timer(did, SimDuration::ZERO, 0);
        sim.run(); // must terminate without panic
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn payload_pool_drops_large_buffers() {
        // A 32 KiB listing, then small replies that reuse the pool.
        struct Lister;
        impl Endpoint for Lister {
            fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
                ctx.send(conn, &[b'x'; 32 * 1024]);
                for _ in 0..3 {
                    ctx.send(conn, b"226 ok\r\n");
                }
            }
        }
        struct Reader(Rc<RefCell<usize>>);
        impl Endpoint for Reader {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.connect(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 20, 0);
            }
            fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, data: &[u8]) {
                *self.0.borrow_mut() += data.len();
            }
        }
        let mut sim = Simulator::new(3);
        let sid = sim.register_endpoint(Box::new(Lister));
        sim.bind(Ipv4Addr::new(2, 2, 2, 2), 20, sid);
        let got = Rc::new(RefCell::new(0));
        let rid = sim.register_endpoint(Box::new(Reader(got.clone())));
        sim.schedule_timer(rid, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(*got.borrow(), 32 * 1024 + 3 * 8, "every byte delivered");
        let pool = &sim.core.buf_pool;
        assert!(!pool.is_empty(), "small replies are pooled");
        assert!(
            pool.iter().all(|b| b.capacity() <= BUF_POOL_MAX_CAPACITY && b.capacity() < 32 * 1024),
            "pooled capacities {:?}",
            pool.iter().map(Vec::capacity).collect::<Vec<_>>()
        );
        assert_eq!(sim.footprint().payload_pool, pool.iter().map(Vec::capacity).sum::<usize>());
    }

    #[test]
    fn probe_pool_keeps_a_few_groups() {
        // 200 two-target batches in one handler: 200 groups in flight,
        // all sharing the probe timeout, all returned when it fires.
        struct Sweeper;
        impl Endpoint for Sweeper {
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                for i in 0..200u8 {
                    ctx.probe_batch(&[Ipv4Addr::new(5, 0, i, 1), Ipv4Addr::new(5, 0, i, 2)], 21);
                }
            }
        }
        let mut sim = Simulator::new(3);
        let id = sim.register_endpoint(Box::new(Sweeper));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.events_processed(), 201, "one event per group");
        assert_eq!(sim.core.probe_pool.len(), PROBE_POOL_MAX);
    }
}
