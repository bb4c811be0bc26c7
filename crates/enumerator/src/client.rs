//! The enumeration engine: concurrent, quirk-tolerant FTP sessions.
//!
//! One [`Enumerator`] endpoint drives up to `max_concurrent` host
//! sessions at once, each a small per-phase state machine advanced by
//! network events. Every command is paced by the configured request gap
//! (the paper's two-requests-per-second limit) and guarded by a step
//! timeout; a server that hangs up mid-session is recorded as having
//! refused service and is never contacted again.
//!
//! Sessions are hardened against hostile hosts (DESIGN.md "Fault
//! model"): failed connects retry on a bounded exponential backoff, a
//! per-session wall-clock deadline backstops every other defense, and
//! each give-up path records a [`GaveUpReason`] plus fault counters on
//! the partial record instead of panicking or hanging.
//!
//! The session loop is allocation-free at steady state (DESIGN.md §8):
//! control lines are dispatched as borrows of the codec's buffer,
//! replies accumulate in a reused [`ReplyBuf`] and reach the state
//! machine as [`ReplyRef`] borrows, commands render into a reused
//! per-session buffer, and LIST bodies parse line-by-line straight out
//! of the raw transfer bytes into the columnar
//! [`FileTable`](crate::record::FileTable).

use crate::config::{EnumConfig, CONNECT_RETRY, MAX_DEPTH, SESSION_DEADLINE};
use crate::record::{GaveUpReason, HostRecord, LoginOutcome};
use ftp_proto::listing::{self, ListingFormat};
use ftp_proto::reply::{ReplyBuf, ReplyRef};
use ftp_proto::{Banner, HostPort, LineCodec, Robots};
use netsim::{ConnId, ConnectError, Ctx, Endpoint};
use simtls::SimCertificate;
use std::cell::RefCell;
use netsim::fasthash::{FastMap, FastSet};
use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Shared handle to the records [`Enumerator::new`] collects.
pub type EnumResults = Rc<RefCell<Vec<HostRecord>>>;

/// Where an [`Enumerator`] hands each record when its session closes.
struct RecordSink(Box<dyn FnMut(HostRecord)>);

impl fmt::Debug for RecordSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RecordSink")
    }
}

/// Commands reserved after traversal for the wrap-up phases
/// (SYST/HELP/FEAT/SITE/PORT/LIST/AUTH/QUIT).
const RESERVED_REQUESTS: u32 = 8;

/// Session phases. `Copy` on purpose: the per-reply phase read on the
/// traversal hot path is a plain load. The directory being traversed
/// lives in [`Session::cur_dir`]/[`Session::cur_depth`] — traversal is
/// strictly sequential per session, so one slot suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connecting,
    Banner,
    User,
    Pass,
    RobotsPasv,
    RobotsRetr,
    TravPasv,
    TravList,
    Syst,
    Help,
    Feat,
    Site,
    PortProbe,
    PortList,
    AuthTls,
    TlsHello,
    Quit,
    Done,
}

impl Phase {
    /// Stable snake_case tag for host journals and diagnostics.
    const fn label(self) -> &'static str {
        match self {
            Phase::Connecting => "connecting",
            Phase::Banner => "banner",
            Phase::User => "user",
            Phase::Pass => "pass",
            Phase::RobotsPasv => "robots_pasv",
            Phase::RobotsRetr => "robots_retr",
            Phase::TravPasv => "trav_pasv",
            Phase::TravList => "trav_list",
            Phase::Syst => "syst",
            Phase::Help => "help",
            Phase::Feat => "feat",
            Phase::Site => "site",
            Phase::PortProbe => "port_probe",
            Phase::PortList => "port_list",
            Phase::AuthTls => "auth_tls",
            Phase::TlsHello => "tls_hello",
            Phase::Quit => "quit",
            Phase::Done => "done",
        }
    }
}

/// What to render into the pending-command buffer. Commands that embed
/// config or session state are rendered inside [`Enumerator::queue_cmd`]
/// (where both halves of `self` are in scope) instead of being built
/// with `format!` at every call site.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Fixed(&'static str),
    /// `PASS <cfg.password>`.
    Pass,
    /// `PORT <cfg.bounce_collector as h1,h2,h3,h4,p1,p2>`.
    Port,
    /// `LIST <session.cur_dir>`.
    ListCurDir,
}

const KIND_SEND: u64 = 0;
const KIND_TIMEOUT: u64 = 1;
const KIND_CONTROL: u64 = 2;
const KIND_DATA: u64 = 3;
const KIND_RETRY: u64 = 4;
const KIND_DEADLINE: u64 = 5;

fn token(slot: usize, gen: u32, kind: u64) -> u64 {
    ((slot as u64) << 32) | ((gen as u64 & 0xff_ffff) << 8) | kind
}

fn untoken(t: u64) -> (usize, u32, u64) {
    (((t >> 32) & 0xffff_ffff) as usize, ((t >> 8) & 0xff_ffff) as u32, t & 0xff)
}

#[derive(Debug)]
struct Session {
    ip: Ipv4Addr,
    gen: u32,
    /// The generation at session start; the session-deadline timer is
    /// validated against this (unlike step timers, it must survive the
    /// constant generation bumps of a live session).
    start_gen: u32,
    record: HostRecord,
    control: Option<ConnId>,
    codec: LineCodec,
    reply: ReplyBuf,
    phase: Phase,
    /// Rendered command awaiting its rate-limit gap; reused so
    /// steady-state command building is allocation-free.
    pending_cmd: String,
    pending_next: Option<Phase>,
    /// Directory currently being traversed (PASV → LIST → ingest).
    cur_dir: Rc<str>,
    cur_depth: usize,
    data_conn: Option<ConnId>,
    data_buf: Vec<u8>,
    data_closed: bool,
    awaiting_data_connect: bool,
    got_final_reply: bool,
    last_331_text: String,
    robots: Robots,
    queue: VecDeque<(Rc<str>, usize)>,
    visited: FastSet<Rc<str>>,
    listing_hint: ListingFormat,
    /// Scratch for the rare listing body that needs a lossy re-decode.
    lossy_scratch: String,
    /// Scratch where a listed subdirectory's path is joined before it
    /// is queued.
    path_scratch: String,
    /// Sim time (µs) when the session's first connect was issued; only
    /// read by the observability layer for the session-latency histogram.
    started_us: u64,
}

impl Session {
    fn new(ip: Ipv4Addr) -> Self {
        Session {
            ip,
            gen: 0,
            start_gen: 0,
            record: HostRecord::new(ip),
            control: None,
            codec: LineCodec::new(),
            reply: ReplyBuf::new(),
            phase: Phase::Connecting,
            pending_cmd: String::new(),
            pending_next: None,
            cur_dir: Rc::from("/"),
            cur_depth: 0,
            data_conn: None,
            data_buf: Vec::new(),
            data_closed: false,
            awaiting_data_connect: false,
            got_final_reply: false,
            last_331_text: String::new(),
            robots: Robots::allow_all(),
            queue: VecDeque::new(),
            visited: FastSet::default(),
            listing_hint: ListingFormat::Unix,
            lossy_scratch: String::new(),
            path_scratch: String::new(),
            started_us: 0,
        }
    }

    fn bump(&mut self) -> u32 {
        self.gen = self.gen.wrapping_add(1) & 0xff_ffff;
        self.gen
    }
}

/// The enumerator endpoint. Build it with [`Enumerator::with_sink`],
/// register it, kick it with a timer and run the simulator: each
/// session's record goes to the sink as the session closes, so the
/// enumerator keeps no finished record. [`Enumerator::new`] builds one
/// whose sink collects the records into a shared vector, to be read
/// from the returned handle once the simulator drains.
#[derive(Debug)]
pub struct Enumerator {
    cfg: EnumConfig,
    targets: std::vec::IntoIter<Ipv4Addr>,
    sessions: Vec<Option<Session>>,
    /// Per-slot generation counters that survive session turnover: a
    /// stale timer or connect result from a finished session must never
    /// match a successor session on the same slot.
    slot_gens: Vec<u32>,
    free_slots: Vec<usize>,
    conns: FastMap<ConnId, (usize, bool)>,
    sink: RecordSink,
    active: usize,
    /// Reused wire buffer for `"{line}\r\n"` command rendering.
    send_buf: Vec<u8>,
}

impl Enumerator {
    /// Creates an enumerator over `targets` that hands every record to
    /// `sink` when its session closes, in the order sessions finish.
    pub fn with_sink(
        cfg: EnumConfig,
        targets: Vec<Ipv4Addr>,
        sink: impl FnMut(HostRecord) + 'static,
    ) -> Self {
        Enumerator {
            cfg,
            targets: targets.into_iter(),
            sessions: Vec::new(),
            slot_gens: Vec::new(),
            free_slots: Vec::new(),
            conns: FastMap::default(),
            sink: RecordSink(Box::new(sink)),
            active: 0,
            send_buf: Vec::new(),
        }
    }

    /// Creates an enumerator over `targets` whose sink collects the
    /// records, in finish order, and returns it with the shared handle
    /// to them. Each record's file table is compacted as it is
    /// collected ([`FileTable::compact`](crate::FileTable::compact)),
    /// so a held record keeps none of its session's growth slack.
    pub fn new(cfg: EnumConfig, targets: Vec<Ipv4Addr>) -> (Self, EnumResults) {
        let results = EnumResults::default();
        let collected = results.clone();
        let sink = move |mut record: HostRecord| {
            record.files.compact();
            collected.borrow_mut().push(record);
        };
        (Enumerator::with_sink(cfg, targets, sink), results)
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        while self.active < self.cfg.max_concurrent {
            let Some(ip) = self.targets.next() else { return };
            let slot = match self.free_slots.pop() {
                Some(s) => s,
                None => {
                    self.sessions.push(None);
                    self.slot_gens.push(0);
                    self.sessions.len() - 1
                }
            };
            let mut session = Session::new(ip);
            session.gen = self.slot_gens[slot];
            let gen = session.bump();
            session.start_gen = gen;
            session.phase = Phase::Connecting;
            session.started_us = ctx.now().as_micros();
            self.sessions[slot] = Some(session);
            self.active += 1;
            if obs::enabled() {
                obs::counter(obs::Counter::SessionsStarted, 1);
                obs::gauge_max(obs::Gauge::MaxActiveSessions, self.active as u64);
            }
            obs::journal!(ip, obs::JournalEvent::SessionStart);
            obs::journal!(ip, obs::JournalEvent::Phase { phase: Phase::Connecting.label() });
            ctx.connect(self.cfg.source_ip, ip, 21, token(slot, gen, KIND_CONTROL));
            ctx.set_timer(SESSION_DEADLINE, token(slot, gen, KIND_DEADLINE));
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let Some(mut session) = self.sessions[slot].take() else { return };
        // Invalidate every outstanding timer/connect of this session and
        // hand the advanced counter to the slot's next occupant.
        session.bump();
        self.slot_gens[slot] = session.gen;
        session.phase = Phase::Done;
        if let Some(c) = session.control.take() {
            self.conns.remove(&c);
            ctx.close(c);
        }
        if let Some(d) = session.data_conn.take() {
            self.conns.remove(&d);
            ctx.close(d);
        }
        if obs::enabled() {
            obs::counter(obs::Counter::SessionsFinished, 1);
            let sim_us = ctx.now().as_micros().saturating_sub(session.started_us);
            obs::observe(obs::Hist::SessionSimUs, sim_us);
            obs::observe(obs::Hist::SessionRequests, u64::from(session.record.requests_used));
            if let Some(reason) = session.record.gave_up {
                obs::counter(obs::Counter::GaveUps, 1);
                obs::event!(
                    "enum.gave_up",
                    ip = session.ip,
                    reason = reason.label(),
                    requests = session.record.requests_used,
                    sim_us = sim_us,
                );
            }
        }
        obs::journal!(
            session.ip,
            obs::JournalEvent::SessionEnd {
                login: session.record.login.label(),
                gave_up: session.record.gave_up.map(GaveUpReason::label),
                requests: session.record.requests_used,
                files: session.record.files.len() as u64,
            }
        );
        (self.sink.0)(session.record);
        self.free_slots.push(slot);
        self.active -= 1;
        self.start_next(ctx);
    }

    /// Renders `cmd` into the session's pending buffer to be sent after
    /// the rate-limit gap, then moves to `next`. Returns `false` (and
    /// does nothing) when the request budget is exhausted.
    fn queue_cmd(&mut self, ctx: &mut Ctx<'_>, slot: usize, cmd: Cmd, next: Phase) -> bool {
        use std::fmt::Write as _;
        let gap = self.cfg.request_gap;
        let Some(s) = self.sessions[slot].as_mut() else { return false };
        if s.record.requests_used >= self.cfg.request_cap {
            return false;
        }
        s.pending_cmd.clear();
        match cmd {
            Cmd::Fixed(line) => s.pending_cmd.push_str(line),
            Cmd::Pass => {
                s.pending_cmd.push_str("PASS ");
                s.pending_cmd.push_str(&self.cfg.password);
            }
            Cmd::Port => {
                let Some(collector) = self.cfg.bounce_collector else { return false };
                let _ = write!(s.pending_cmd, "PORT {}", collector.port_args());
            }
            Cmd::ListCurDir => {
                s.pending_cmd.push_str("LIST ");
                s.pending_cmd.push_str(&s.cur_dir);
            }
        }
        s.pending_next = Some(next);
        let gen = s.bump();
        ctx.set_timer(gap, token(slot, gen, KIND_SEND));
        true
    }

    fn send_pending(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let timeout = self.cfg.step_timeout;
        let Some(s) = self.sessions[slot].as_mut() else { return };
        let Some(next) = s.pending_next.take() else { return };
        let Some(control) = s.control else { return };
        s.record.requests_used += 1;
        s.phase = next;
        obs::journal!(s.ip, obs::JournalEvent::Phase { phase: next.label() });
        s.got_final_reply = false;
        let gen = s.gen;
        self.send_buf.clear();
        self.send_buf.extend_from_slice(s.pending_cmd.as_bytes());
        self.send_buf.extend_from_slice(b"\r\n");
        ctx.send(control, &self.send_buf);
        ctx.set_timer(timeout, token(slot, gen, KIND_TIMEOUT));
    }

    /// Remaining request budget once the wrap-up reserve is held back.
    fn traversal_budget_left(&self, slot: usize) -> bool {
        let Some(s) = self.sessions[slot].as_ref() else { return false };
        s.record.requests_used + 2 + RESERVED_REQUESTS <= self.cfg.request_cap
    }

    /// Re-dials the control channel after a backoff delay.
    fn retry_connect(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let src = self.cfg.source_ip;
        let Some(s) = self.sessions[slot].as_mut() else { return };
        s.phase = Phase::Connecting;
        obs::journal!(s.ip, obs::JournalEvent::Phase { phase: Phase::Connecting.label() });
        let gen = s.gen;
        let ip = s.ip;
        ctx.connect(src, ip, 21, token(slot, gen, KIND_CONTROL));
    }

    fn open_data_channel(&mut self, ctx: &mut Ctx<'_>, slot: usize, port: u16) {
        let src = self.cfg.source_ip;
        let Some(s) = self.sessions[slot].as_mut() else { return };
        s.awaiting_data_connect = true;
        s.data_buf.clear();
        s.data_closed = false;
        let gen = s.gen;
        let ip = s.ip;
        ctx.connect(src, ip, port, token(slot, gen, KIND_DATA));
    }

    // ----- phase drivers -----

    fn begin_post_login(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        // Anonymous session established: fetch robots.txt first.
        if !self.queue_cmd(ctx, slot, Cmd::Fixed("PASV"), Phase::RobotsPasv) {
            self.begin_extras(ctx, slot);
        }
    }

    fn begin_traversal(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        if let Some(s) = self.sessions[slot].as_mut() {
            let root: Rc<str> = Rc::from("/");
            s.queue.clear();
            s.queue.push_back((root.clone(), 0));
            s.visited.clear();
            s.visited.insert(root);
        }
        self.next_dir(ctx, slot);
    }

    fn next_dir(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let order = self.cfg.traversal;
        loop {
            let Some(s) = self.sessions[slot].as_mut() else { return };
            let next = match order {
                crate::config::TraversalOrder::BreadthFirst => s.queue.pop_front(),
                crate::config::TraversalOrder::DepthFirst => s.queue.pop_back(),
            };
            let Some((dir, depth)) = next else {
                self.begin_extras(ctx, slot);
                return;
            };
            // Listing a directory fetches its contents, so match robots
            // rules against the container form ("/backup/"), as Google's
            // crawler does.
            if self.cfg.respect_robots
                && !self.sessions[slot]
                    .as_ref()
                    .map(|s| {
                        if dir.ends_with('/') {
                            s.robots.is_allowed(&dir)
                        } else {
                            s.robots.is_allowed_dir(&dir)
                        }
                    })
                    .unwrap_or(true)
            {
                continue;
            }
            if !self.traversal_budget_left(slot) {
                if let Some(s) = self.sessions[slot].as_mut() {
                    s.record.truncated = true;
                }
                self.begin_extras(ctx, slot);
                return;
            }
            if let Some(s) = self.sessions[slot].as_mut() {
                s.cur_dir = dir;
                s.cur_depth = depth;
            }
            if self.queue_cmd(ctx, slot, Cmd::Fixed("PASV"), Phase::TravPasv) {
                return;
            }
            // Budget refused the PASV; wrap up.
            if let Some(s) = self.sessions[slot].as_mut() {
                s.record.truncated = true;
            }
            self.begin_extras(ctx, slot);
            return;
        }
    }

    fn begin_extras(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        if !self.queue_cmd(ctx, slot, Cmd::Fixed("SYST"), Phase::Syst) {
            self.begin_quit(ctx, slot);
        }
    }

    fn begin_port_probe_or_tls(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let logged_in = self.sessions[slot]
            .as_ref()
            .map(|s| s.record.login == LoginOutcome::Anonymous)
            .unwrap_or(false);
        if self.cfg.bounce_collector.is_some()
            && logged_in
            && self.queue_cmd(ctx, slot, Cmd::Port, Phase::PortProbe)
        {
            return;
        }
        self.begin_tls(ctx, slot);
    }

    fn begin_tls(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        if !self.queue_cmd(ctx, slot, Cmd::Fixed("AUTH TLS"), Phase::AuthTls) {
            self.begin_quit(ctx, slot);
        }
    }

    fn begin_quit(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        if !self.queue_cmd(ctx, slot, Cmd::Fixed("QUIT"), Phase::Quit) {
            self.finish(ctx, slot);
        }
    }

    // ----- transfer completion -----

    fn transfer_complete(&mut self, ctx: &mut Ctx<'_>, slot: usize, success: bool) {
        let (phase, depth) = {
            let Some(s) = self.sessions[slot].as_mut() else { return };
            if obs::enabled() && success {
                obs::observe(obs::Hist::TransferBytes, s.data_buf.len() as u64);
            }
            if let Some(d) = s.data_conn.take() {
                self.conns.remove(&d);
                ctx.close(d);
            }
            (s.phase, s.cur_depth)
        };
        match phase {
            Phase::RobotsRetr => {
                if success {
                    let (robots, present, denies_all) = {
                        let s = self.sessions[slot].as_ref().expect("session live");
                        // Borrowed `Cow` unless the body held invalid UTF-8.
                        let body = String::from_utf8_lossy(&s.data_buf);
                        let robots = Robots::parse(&body, &self.cfg.user_agent);
                        let denies = robots.denies_everything();
                        (robots, true, denies)
                    };
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.robots = robots;
                        s.record.robots.present = present;
                        s.record.robots.denies_all = denies_all;
                    }
                }
                let denies_all = self.sessions[slot]
                    .as_ref()
                    .map(|s| s.record.robots.denies_all)
                    .unwrap_or(false);
                if denies_all && self.cfg.respect_robots {
                    self.begin_extras(ctx, slot);
                } else {
                    self.begin_traversal(ctx, slot);
                }
            }
            Phase::TravList => {
                if success {
                    self.ingest_listing(slot, depth);
                }
                self.next_dir(ctx, slot);
            }
            _ => {}
        }
    }

    fn ingest_listing(&mut self, slot: usize, depth: usize) {
        let Some(s) = self.sessions[slot].as_mut() else { return };
        // Parse straight out of the raw transfer bytes: one UTF-8 check
        // for the whole body, no per-entry owned strings. Only a body
        // holding invalid bytes is lossy-decoded, into session scratch;
        // that equals lossy-decoding each line, since a replacement
        // covers only the bad sequence, which never includes a '\n'.
        let data_buf = std::mem::take(&mut s.data_buf);
        let body = match std::str::from_utf8(&data_buf) {
            Ok(text) => text,
            Err(_) => {
                s.lossy_scratch.clear();
                ftp_proto::lossy_append(&mut s.lossy_scratch, &data_buf);
                s.lossy_scratch.as_str()
            }
        };
        // `lines` splits at '\n' and drops a '\r' before it; the parser
        // trims any other trailing '\r'.
        for line in body.lines() {
            match listing::parse_line_ref(line, s.listing_hint) {
                Ok(Some(e)) => {
                    if e.name == "." || e.name == ".." {
                        continue;
                    }
                    // The parts go straight into the record's columnar
                    // arenas — no per-entry String materializes here.
                    s.record.files.push_parts(
                        &s.cur_dir,
                        e.name,
                        e.is_dir,
                        e.size,
                        e.readability(),
                        e.owner,
                        e.permissions.map(|p| p.other_write()),
                    );
                    if e.is_dir && !e.is_symlink && depth < MAX_DEPTH {
                        s.path_scratch.clear();
                        let row = s.record.files.last().expect("a row was just pushed");
                        row.push_path(&mut s.path_scratch);
                        let shared: Rc<str> = Rc::from(s.path_scratch.as_str());
                        if s.visited.insert(shared.clone()) {
                            s.queue.push_back((shared, depth + 1));
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => s.record.unparsed_lines += 1,
            }
        }
        s.data_buf = data_buf;
    }

    // ----- reply handling -----

    #[allow(clippy::too_many_lines)]
    fn on_reply(&mut self, ctx: &mut Ctx<'_>, slot: usize, reply: ReplyRef<'_>) {
        // Strict-mode ablation: any multiline reply or out-of-spec code
        // aborts the session (the un-hardened parser of DESIGN.md §5.4).
        if self.cfg.strict_replies && reply.has_multiple_lines() {
            self.finish(ctx, slot);
            return;
        }
        let code = reply.code().value();
        let preliminary = reply.code().is_positive_preliminary();
        if obs::enabled() {
            obs::counter(obs::Counter::RepliesTotal, 1);
            obs::counter(obs::reply_class_counter(code), 1);
        }
        let phase = {
            let Some(s) = self.sessions[slot].as_mut() else { return };
            // A reply ends the step-timeout window.
            s.bump();
            obs::journal!(s.ip, obs::JournalEvent::Reply { code });
            s.phase
        };
        match phase {
            Phase::Connecting => { /* ignore stray */ }
            Phase::Banner => {
                if code == 220 {
                    let parsed = Banner::parse(reply.full_text());
                    let forbids = parsed.forbids_anonymous();
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.banner = Some(reply.full_text().to_owned());
                        s.record.ftp_compliant = true;
                        // IIS and friends emit DOS listings; seed the hint.
                        if parsed.software().family
                            == ftp_proto::SoftwareFamily::MicrosoftFtp
                        {
                            s.listing_hint = ListingFormat::Dos;
                        }
                    }
                    if forbids {
                        if let Some(s) = self.sessions[slot].as_mut() {
                            s.record.login = LoginOutcome::SkippedBannerForbids;
                        }
                        self.begin_tls(ctx, slot);
                    } else if !self.queue_cmd(
                        ctx,
                        slot,
                        Cmd::Fixed("USER anonymous"),
                        Phase::User,
                    ) {
                        self.begin_quit(ctx, slot);
                    }
                } else {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.login = LoginOutcome::NotFtp;
                    }
                    self.finish(ctx, slot);
                }
            }
            Phase::User => {
                if code == 230 {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.login = LoginOutcome::Anonymous;
                    }
                    self.begin_post_login(ctx, slot);
                } else if code == 331 || code == 332 {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.last_331_text.clear();
                        s.last_331_text.push_str(reply.full_text());
                    }
                    if !self.queue_cmd(ctx, slot, Cmd::Pass, Phase::Pass) {
                        self.begin_quit(ctx, slot);
                    }
                } else {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.login = LoginOutcome::Denied;
                    }
                    self.begin_tls(ctx, slot);
                }
            }
            Phase::Pass => {
                if code == 230 {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.login = LoginOutcome::Anonymous;
                    }
                    self.begin_post_login(ctx, slot);
                } else {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.login = LoginOutcome::Denied;
                        let hint = s.last_331_text.to_ascii_lowercase();
                        if hint.contains("encryption")
                            || hint.contains("tls")
                            || hint.contains("ftps")
                            || hint.contains("secure")
                        {
                            s.record.ftps.required_before_login = true;
                        }
                    }
                    self.begin_tls(ctx, slot);
                }
            }
            Phase::RobotsPasv | Phase::TravPasv => {
                if code == 227 {
                    match HostPort::parse_pasv_reply(reply.text()) {
                        Ok(hp) => {
                            if let Some(s) = self.sessions[slot].as_mut() {
                                if s.record.pasv_addr.is_none() {
                                    s.record.pasv_addr = Some(hp);
                                }
                            }
                            self.open_data_channel(ctx, slot, hp.port());
                        }
                        Err(_) => self.begin_extras(ctx, slot),
                    }
                } else {
                    // Server without working PASV: no traversal possible.
                    self.begin_extras(ctx, slot);
                }
            }
            Phase::RobotsRetr | Phase::TravList => {
                if preliminary {
                    // 150 — keep waiting.
                } else if code >= 400 {
                    self.transfer_complete(ctx, slot, false);
                } else {
                    let done = {
                        let Some(s) = self.sessions[slot].as_mut() else { return };
                        s.got_final_reply = true;
                        s.data_closed || s.data_conn.is_none()
                    };
                    if done {
                        self.transfer_complete(ctx, slot, true);
                    }
                }
            }
            Phase::Syst => {
                if let Some(s) = self.sessions[slot].as_mut() {
                    if code == 215 {
                        s.record.syst = Some(reply.full_text().to_owned());
                    }
                }
                if !self.queue_cmd(ctx, slot, Cmd::Fixed("HELP"), Phase::Help) {
                    self.begin_quit(ctx, slot);
                }
            }
            Phase::Help => {
                if let Some(s) = self.sessions[slot].as_mut() {
                    if code == 214 || code == 211 {
                        s.record.help = Some(reply.full_text().to_owned());
                    }
                }
                if !self.queue_cmd(ctx, slot, Cmd::Fixed("FEAT"), Phase::Feat) {
                    self.begin_quit(ctx, slot);
                }
            }
            Phase::Feat => {
                if let Some(s) = self.sessions[slot].as_mut() {
                    // A FEAT body is "211-Features:" / one line per
                    // feature / "211 End": keep only the interior lines.
                    let n = reply.line_count();
                    if code == 211 && n > 2 {
                        s.record.feat =
                            reply.lines().skip(1).take(n - 2).map(str::to_owned).collect();
                    }
                }
                if !self.queue_cmd(ctx, slot, Cmd::Fixed("SITE HELP"), Phase::Site) {
                    self.begin_quit(ctx, slot);
                }
            }
            Phase::Site => {
                if let Some(s) = self.sessions[slot].as_mut() {
                    if code < 300 {
                        s.record.site = Some(reply.full_text().to_owned());
                    }
                }
                self.begin_port_probe_or_tls(ctx, slot);
            }
            Phase::PortProbe => {
                if code == 200 {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.port_accepts_third_party = Some(true);
                    }
                    // Trigger the actual bounce so the collector can
                    // confirm the connection.
                    if !self.queue_cmd(ctx, slot, Cmd::Fixed("LIST /"), Phase::PortList) {
                        self.begin_tls(ctx, slot);
                    }
                } else {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.port_accepts_third_party = Some(false);
                    }
                    self.begin_tls(ctx, slot);
                }
            }
            Phase::PortList => {
                if !preliminary {
                    self.begin_tls(ctx, slot);
                }
            }
            Phase::AuthTls => {
                if code == 234 {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.ftps.supported = true;
                        if let Some(c) = s.control {
                            self.send_buf.clear();
                            self.send_buf.extend_from_slice(simtls::CLIENT_HELLO.as_bytes());
                            self.send_buf.extend_from_slice(b"\r\n");
                            ctx.send(c, &self.send_buf);
                        }
                        s.phase = Phase::TlsHello;
                        obs::journal!(s.ip, obs::JournalEvent::Phase {
                            phase: Phase::TlsHello.label(),
                        });
                        let gen = s.gen;
                        let timeout = self.cfg.step_timeout;
                        ctx.set_timer(timeout, token(slot, gen, KIND_TIMEOUT));
                    }
                } else {
                    self.begin_quit(ctx, slot);
                }
            }
            Phase::TlsHello => { /* cert arrives as a SIMTLS line, not a reply */ }
            Phase::Quit => {
                self.finish(ctx, slot);
            }
            Phase::Done => {}
        }
    }

    fn on_control_line(&mut self, ctx: &mut Ctx<'_>, slot: usize, line: &str) {
        // Simulated-TLS certificate line.
        if line.starts_with('\u{1}') {
            let in_hello = self.sessions[slot]
                .as_ref()
                .map(|s| s.phase == Phase::TlsHello)
                .unwrap_or(false);
            if in_hello {
                if let Some(cert) = SimCertificate::parse_server_hello(line) {
                    if let Some(s) = self.sessions[slot].as_mut() {
                        s.record.ftps.cert = Some(cert);
                        s.bump();
                    }
                }
                self.begin_quit(ctx, slot);
            }
            return;
        }
        // Accumulate in the reused buffer and dispatch a borrow. The
        // buffer is taken out for the duration of the dispatch (the
        // reply borrows it while `self` is re-borrowed mutably) and
        // handed back afterwards — unless the session finished and the
        // slot was re-occupied by a different host.
        let (owner_ip, mut rb) = {
            let Some(s) = self.sessions[slot].as_mut() else { return };
            (s.ip, std::mem::take(&mut s.reply))
        };
        match rb.push_line(line) {
            Ok(Some(reply)) => self.on_reply(ctx, slot, reply),
            Ok(None) => {}
            Err(_) => {
                // Garbage on the control channel: not an FTP server (or
                // one broken beyond use).
                if let Some(s) = self.sessions[slot].as_mut() {
                    s.record.faults.garbage_lines += 1;
                    s.record.gave_up = Some(GaveUpReason::ControlGarbage);
                    if s.phase == Phase::Banner {
                        s.record.login = LoginOutcome::NotFtp;
                    }
                }
                self.finish(ctx, slot);
            }
        }
        if let Some(Some(s)) = self.sessions.get_mut(slot) {
            if s.ip == owner_ip {
                s.reply = rb;
            }
        }
    }
}

impl Endpoint for Enumerator {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        if t == 0 {
            // Kick-off timer from the orchestrator.
            self.start_next(ctx);
            return;
        }
        let (slot, gen, kind) = untoken(t);
        let Some(Some(s)) = self.sessions.get(slot) else { return };
        // The deadline timer is pinned to the session's *starting*
        // generation; every other timer must match the current one.
        let expected = if kind == KIND_DEADLINE { s.start_gen } else { s.gen };
        if expected != gen {
            return; // stale timer
        }
        match kind {
            KIND_SEND => self.send_pending(ctx, slot),
            KIND_TIMEOUT => {
                // The step stalled: give up and keep the partial record.
                if obs::enabled() {
                    obs::counter(obs::Counter::StepTimeouts, 1);
                }
                if let Some(s) = self.sessions[slot].as_mut() {
                    s.record.faults.step_timeouts += 1;
                    s.record.gave_up = Some(GaveUpReason::StepTimeout);
                }
                self.finish(ctx, slot);
            }
            KIND_RETRY => self.retry_connect(ctx, slot),
            KIND_DEADLINE => {
                // Whole-session backstop: no single host, however
                // hostile, may hold its slot past this bound.
                if let Some(s) = self.sessions[slot].as_mut() {
                    s.record.gave_up = Some(GaveUpReason::SessionDeadline);
                }
                self.finish(ctx, slot);
            }
            _ => {}
        }
    }

    fn on_outbound(&mut self, ctx: &mut Ctx<'_>, t: u64, result: Result<ConnId, ConnectError>) {
        let (slot, gen, kind) = untoken(t);
        let Some(Some(s)) = self.sessions.get_mut(slot) else { return };
        if s.gen != gen {
            // Stale connect (session moved on); close if it succeeded.
            if let Ok(conn) = result {
                ctx.close(conn);
            }
            return;
        }
        match (kind, result) {
            (KIND_CONTROL, Ok(conn)) => {
                s.control = Some(conn);
                s.phase = Phase::Banner;
                obs::journal!(s.ip, obs::JournalEvent::Phase { phase: Phase::Banner.label() });
                self.conns.insert(conn, (slot, false));
                let timeout = self.cfg.step_timeout;
                let gen = s.gen;
                ctx.set_timer(timeout, token(slot, gen, KIND_TIMEOUT));
            }
            (KIND_CONTROL, Err(_)) => {
                // Lost SYN or refused connect: retry on the backoff
                // schedule until the budget runs out.
                if obs::enabled() {
                    obs::counter(obs::Counter::ConnectFailures, 1);
                }
                let retries_used = s.record.faults.connect_retries;
                if let Some(delay) = CONNECT_RETRY.delay_for(retries_used) {
                    s.record.faults.connect_retries += 1;
                    if obs::enabled() {
                        obs::counter(obs::Counter::ConnectRetries, 1);
                        obs::counter(obs::Counter::BackoffWaitUs, delay.as_micros());
                        obs::event!(
                            "enum.retry",
                            ip = s.ip,
                            attempt = s.record.faults.connect_retries,
                            backoff_us = delay.as_micros(),
                        );
                    }
                    obs::journal!(s.ip, obs::JournalEvent::Retry {
                        attempt: s.record.faults.connect_retries,
                        backoff_us: delay.as_micros(),
                    });
                    let gen = s.bump();
                    ctx.set_timer(delay, token(slot, gen, KIND_RETRY));
                } else {
                    s.record.login = LoginOutcome::Aborted;
                    s.record.gave_up = Some(GaveUpReason::ConnectFailed);
                    self.finish(ctx, slot);
                }
            }
            (KIND_DATA, Ok(conn)) => {
                s.data_conn = Some(conn);
                s.awaiting_data_connect = false;
                self.conns.insert(conn, (slot, true));
                // Data channel up: issue the transfer command.
                let phase = s.phase;
                match phase {
                    Phase::RobotsPasv
                        if !self.queue_cmd(
                            ctx,
                            slot,
                            Cmd::Fixed("RETR robots.txt"),
                            Phase::RobotsRetr,
                        ) => {
                            self.begin_extras(ctx, slot);
                        }
                    Phase::TravPasv
                        if !self.queue_cmd(ctx, slot, Cmd::ListCurDir, Phase::TravList) =>
                    {
                        if let Some(s) = self.sessions[slot].as_mut() {
                            s.record.truncated = true;
                        }
                        self.begin_extras(ctx, slot);
                    }
                    _ => {}
                }
            }
            (KIND_DATA, Err(_)) => {
                if obs::enabled() {
                    obs::counter(obs::Counter::ConnectFailures, 1);
                }
                s.record.faults.data_conn_failures += 1;
                s.awaiting_data_connect = false;
                // No data channel: skip whatever needed it.
                let phase = s.phase;
                match phase {
                    Phase::RobotsPasv => self.begin_traversal(ctx, slot),
                    Phase::TravPasv => self.begin_extras(ctx, slot),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let Some(&(slot, is_data)) = self.conns.get(&conn) else { return };
        if is_data {
            if obs::enabled() {
                obs::counter(obs::Counter::ListingBytes, data.len() as u64);
            }
            if let Some(Some(s)) = self.sessions.get_mut(slot) {
                obs::journal!(s.ip, obs::JournalEvent::DataBytes { n: data.len() as u64 });
                s.data_buf.extend_from_slice(data);
            }
            return;
        }
        // Control data: feed the codec, then dispatch each line as a
        // borrow of its buffer — no per-line String. The batch must be
        // fully framed before any line is dispatched (a hostile over-long
        // line aborts the whole batch); the codec only errors on an
        // unterminated tail past MAX_LINE, which is checkable up front.
        let Some(Some(s)) = self.sessions.get_mut(slot) else { return };
        s.codec.extend(data);
        let overlong = s.codec.unterminated_tail_len() > ftp_proto::codec::MAX_LINE;
        if overlong {
            s.record.faults.overlong_lines += 1;
            s.record.gave_up = Some(GaveUpReason::OverlongLine);
            if s.phase == Phase::Banner {
                s.record.login = LoginOutcome::NotFtp;
            }
        }
        let owner_ip = s.ip;
        if overlong {
            self.finish(ctx, slot);
            return;
        }
        loop {
            // The codec is taken out for the dispatch (the line borrows
            // it while `self` is re-borrowed) and handed back after.
            // A session that finished mid-loop may leave the slot empty
            // or re-occupied by a *different* host's session; leftover
            // lines belong to the dead session — never leak them.
            let mut codec = {
                let Some(Some(s)) = self.sessions.get_mut(slot) else { return };
                if s.ip != owner_ip {
                    return;
                }
                std::mem::take(&mut s.codec)
            };
            match codec.next_line_str() {
                Ok(Some(line)) => self.on_control_line(ctx, slot, line),
                Ok(None) => {
                    if let Some(Some(s)) = self.sessions.get_mut(slot) {
                        if s.ip == owner_ip {
                            s.codec = codec;
                        }
                    }
                    return;
                }
                Err(_) => {
                    // Unreachable given the tail pre-check above; kept
                    // for defense in depth.
                    if let Some(Some(s)) = self.sessions.get_mut(slot) {
                        if s.ip == owner_ip {
                            s.record.faults.overlong_lines += 1;
                            s.record.gave_up = Some(GaveUpReason::OverlongLine);
                            if s.phase == Phase::Banner {
                                s.record.login = LoginOutcome::NotFtp;
                            }
                        }
                    }
                    self.finish(ctx, slot);
                    return;
                }
            }
            if let Some(Some(s)) = self.sessions.get_mut(slot) {
                if s.ip == owner_ip {
                    s.codec = codec;
                    continue;
                }
            }
            return;
        }
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some((slot, is_data)) = self.conns.remove(&conn) else { return };
        if is_data {
            let done = {
                let Some(Some(s)) = self.sessions.get_mut(slot) else { return };
                if s.data_conn == Some(conn) {
                    s.data_conn = None;
                }
                s.data_closed = true;
                s.got_final_reply
                    && matches!(s.phase, Phase::RobotsRetr | Phase::TravList)
            };
            if done {
                self.transfer_complete(ctx, slot, true);
            }
            return;
        }
        // Control closed by the server: explicit refusal of service.
        let Some(Some(s)) = self.sessions.get_mut(slot) else { return };
        s.control = None;
        if s.phase != Phase::Quit && s.phase != Phase::Done {
            s.record.server_terminated = true;
        }
        self.finish(ctx, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        for (slot, gen, kind) in [(0usize, 0u32, 0u64), (5, 1000, 3), (65_000, 0xff_ffff, 1)] {
            let t = token(slot, gen, kind);
            assert_eq!(untoken(t), (slot, gen, kind));
        }
    }

    // Compile-time guard: the wrap-up reserve must be non-zero.
    const _: () = assert!(RESERVED_REQUESTS > 0);

    // Compile-time guard: the per-reply phase read must stay a plain
    // load (the zero-alloc session loop depends on it).
    const _: () = {
        const fn assert_copy<T: Copy>() {}
        assert_copy::<Phase>();
    };
}
