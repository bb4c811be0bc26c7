//! Per-host flight recorder: the *host journal* (DESIGN.md §9).
//!
//! Where the metrics registry answers "how many hosts timed out?", the
//! journal answers "what happened to host 10.3.7.9?". Every instrumented
//! stage feeds one [`JournalEvent`] stream per host — probe tx/rx from
//! the scanner, fault encounters from the network layer, phase
//! transitions / replies / retries from the enumerator. The recorder
//! appends each event to a flat [`JournalLog`] as it arrives; draining
//! sorts the log by host once and folds each host's run of events into
//! one [`HostJournal`] wide record, rendered as a single versioned JSONL
//! *host row*. [`HostJournal::parse_line`] reads a host row back into
//! the same type, so a row has one type whether folded or read.
//!
//! Almost every probed address never answers. An address whose only
//! events are probes ending in a `filtered` verdict gets no row: the
//! drain counts it, and writes one *tally row* per `(shard, batch)`
//! after its host rows, so rows plus tallies still account for every
//! probed address.
//!
//! Everything in a journal line is **sim-time data**: there are no
//! wall-clock fields, so a journal is deterministic for a fixed
//! partitioning. Sim timestamps are coordinates *relative to the host's
//! simulator*, and therefore shift with the shard/batch geometry (a
//! shard holding fewer hosts scans each of them sooner); the
//! partition-invariant content is the event sequence itself — statuses,
//! phases in order, retry counts, backoff durations, reply tallies, and
//! final outcome. [`HostJournal::normalized`] strips the
//! geometry-dependent coordinates so tests can assert that invariance.
//!
//! The line format is versioned (`"v":2` leads every row) and the key
//! order of both row kinds is pinned by a golden schema test, so
//! downstream consumers can parse by position or by name and CI catches
//! drift. The reader here accepts exactly what the writer emits: each
//! key in the writer's order, numbers that fit the field they came
//! from, and every string escaped by the one rule [`escape_json`]
//! applies. A file another tool reformatted is refused.

use crate::recorder::escape_json;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Journal line format version; bumped on any schema change.
pub const JOURNAL_VERSION: u64 = 2;

/// Reply-class slots in a journal's `replies` array: 1xx–5xx plus
/// out-of-range codes.
pub const REPLY_CLASSES: usize = 6;

/// One observation in a host's journey, stamped with sim time by the
/// recorder. Labels are `'static` so recording never allocates for the
/// event itself.
#[derive(Debug, Clone, Copy)]
pub enum JournalEvent {
    /// The scanner transmitted a SYN probe (attempt is 1-based).
    ProbeSent {
        /// 1-based probe attempt number for this address.
        attempt: u8,
    },
    /// A probe answer (or its timeout) arrived at the scanner.
    ProbeReply {
        /// Probe status label: `open`, `closed`, or `filtered`.
        status: &'static str,
    },
    /// The scanner resolved its final verdict for this address.
    ProbeVerdict {
        /// Verdict label (best status over all attempts).
        verdict: &'static str,
    },
    /// The network fault layer acted on this host's traffic.
    FaultHit {
        /// Fault kind label (e.g. `tarpit`, `syn_blackhole`).
        kind: &'static str,
    },
    /// An enumeration session was opened against this host.
    SessionStart,
    /// The session entered a new protocol phase.
    Phase {
        /// Phase label (e.g. `banner`, `user`, `trav_list`).
        phase: &'static str,
    },
    /// A complete FTP reply line was parsed.
    Reply {
        /// The 3-digit reply code.
        code: u16,
    },
    /// A connect attempt failed and a backoff retry was scheduled.
    Retry {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Scheduled backoff before the retry, sim-microseconds.
        backoff_us: u64,
    },
    /// Bytes arrived on a data channel (listings and transfers).
    DataBytes {
        /// Byte count in this delivery.
        n: u64,
    },
    /// The session finished and its record was pushed.
    SessionEnd {
        /// Login outcome label (see `enumerator::LoginOutcome`).
        login: &'static str,
        /// Give-up reason label, if the enumerator gave up.
        gave_up: Option<&'static str>,
        /// Control-channel requests issued.
        requests: u32,
        /// Files enumerated.
        files: u64,
    },
}

/// One host's journal row: every journal event for the host folded into
/// per-category timelines and tallies. The drain folds events into one
/// reused row and renders it as a JSONL line; [`HostJournal::parse_line`]
/// reads such a line back into this type. Folded labels borrow the
/// recorder's `'static` ones; labels read from a file are owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostJournal {
    /// The host this journal describes.
    pub ip: Ipv4Addr,
    /// Shard that executed the host.
    pub shard: u64,
    /// Batch (streamed runs; 0 in-memory) that executed the host.
    pub batch: u64,
    /// Probe transmissions as `(sim_us, attempt)`.
    pub probe_tx: Vec<(u64, u8)>,
    /// Probe answers as `(sim_us, status)`.
    pub probe_rx: Vec<(u64, Cow<'static, str>)>,
    /// Final scan verdict, when the scanner resolved one.
    pub verdict: Option<Cow<'static, str>>,
    /// Fault-layer encounters as `(sim_us, kind)`.
    pub faults: Vec<(u64, Cow<'static, str>)>,
    /// Session phase transitions as `(sim_us, phase)`.
    pub phases: Vec<(u64, Cow<'static, str>)>,
    /// Connect retries as `(sim_us, attempt, backoff_us)`.
    pub retries: Vec<(u64, u32, u64)>,
    /// Reply tallies by class (1xx..5xx, other).
    pub replies: [u64; REPLY_CLASSES],
    /// Bytes received on data channels.
    pub listing_bytes: u64,
    /// Control-channel requests issued.
    pub requests: u32,
    /// Files enumerated.
    pub files: u64,
    /// Login outcome label, when a session finished.
    pub login: Option<Cow<'static, str>>,
    /// Give-up reason label, when the enumerator gave up.
    pub gave_up: Option<Cow<'static, str>>,
    /// Session open sim-time.
    pub start_us: Option<u64>,
    /// Session close sim-time.
    pub end_us: Option<u64>,
}

impl HostJournal {
    /// A fresh journal for `ip`, tagged with the recorder's shard and the
    /// batch the stream runner is currently executing.
    #[must_use]
    pub fn new(ip: Ipv4Addr, shard: u64, batch: u64) -> Self {
        HostJournal {
            ip,
            shard,
            batch,
            probe_tx: Vec::new(),
            probe_rx: Vec::new(),
            verdict: None,
            faults: Vec::new(),
            phases: Vec::new(),
            retries: Vec::new(),
            replies: [0; REPLY_CLASSES],
            listing_bytes: 0,
            requests: 0,
            files: 0,
            login: None,
            gave_up: None,
            start_us: None,
            end_us: None,
        }
    }

    /// Empties the record for another host, keeping the lists' capacity.
    fn reset(&mut self, ip: Ipv4Addr, shard: u64, batch: u64) {
        self.ip = ip;
        self.shard = shard;
        self.batch = batch;
        self.probe_tx.clear();
        self.probe_rx.clear();
        self.verdict = None;
        self.faults.clear();
        self.phases.clear();
        self.retries.clear();
        self.replies = [0; REPLY_CLASSES];
        self.listing_bytes = 0;
        self.requests = 0;
        self.files = 0;
        self.login = None;
        self.gave_up = None;
        self.start_us = None;
        self.end_us = None;
    }

    /// Folds one event, stamped at `sim_us`, into the record.
    pub fn note(&mut self, sim_us: u64, ev: &JournalEvent) {
        match *ev {
            JournalEvent::ProbeSent { attempt } => self.probe_tx.push((sim_us, attempt)),
            JournalEvent::ProbeReply { status } => self.probe_rx.push((sim_us, status.into())),
            JournalEvent::ProbeVerdict { verdict } => self.verdict = Some(verdict.into()),
            JournalEvent::FaultHit { kind } => self.faults.push((sim_us, kind.into())),
            JournalEvent::SessionStart => self.start_us = Some(sim_us),
            JournalEvent::Phase { phase } => self.phases.push((sim_us, phase.into())),
            JournalEvent::Reply { code } => {
                let class = match code {
                    100..=599 => (code / 100) as usize - 1,
                    _ => REPLY_CLASSES - 1,
                };
                self.replies[class] += 1;
            }
            JournalEvent::Retry { attempt, backoff_us } => {
                self.retries.push((sim_us, attempt, backoff_us));
            }
            JournalEvent::DataBytes { n } => self.listing_bytes += n,
            JournalEvent::SessionEnd { login, gave_up, requests, files } => {
                self.login = Some(login.into());
                self.gave_up = gave_up.map(Cow::Borrowed);
                self.requests = requests;
                self.files = files;
                self.end_us = Some(sim_us);
            }
        }
    }

    /// Renders the journal as one versioned JSONL host row (no trailing
    /// newline). Key order is part of the schema and pinned by the
    /// golden test — do not reorder without bumping [`JOURNAL_VERSION`].
    ///
    /// Integers and the address are formatted by hand, not with
    /// `write!`: the formatting machinery per field would dominate the
    /// cost of a row.
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"v\":");
        push_u64(out, JOURNAL_VERSION);
        out.push_str(",\"ip\":\"");
        for (i, octet) in self.ip.octets().into_iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            push_u64(out, u64::from(octet));
        }
        out.push_str("\",\"shard\":");
        push_u64(out, self.shard);
        out.push_str(",\"batch\":");
        push_u64(out, self.batch);
        out.push_str(",\"probe_tx\":[");
        for (i, &(us, attempt)) in self.probe_tx.iter().enumerate() {
            push_pair_head(out, i, us);
            push_u64(out, u64::from(attempt));
            out.push(']');
        }
        out.push_str("],\"probe_rx\":[");
        push_labelled(out, &self.probe_rx);
        out.push_str("],\"verdict\":");
        push_opt_str(out, self.verdict.as_deref());
        out.push_str(",\"faults\":[");
        push_labelled(out, &self.faults);
        out.push_str("],\"phases\":[");
        push_labelled(out, &self.phases);
        out.push_str("],\"retries\":[");
        for (i, &(us, attempt, backoff)) in self.retries.iter().enumerate() {
            push_pair_head(out, i, us);
            push_u64(out, u64::from(attempt));
            out.push(',');
            push_u64(out, backoff);
            out.push(']');
        }
        out.push_str("],\"replies\":[");
        for (i, &n) in self.replies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_u64(out, n);
        }
        out.push_str("],\"listing_bytes\":");
        push_u64(out, self.listing_bytes);
        out.push_str(",\"requests\":");
        push_u64(out, u64::from(self.requests));
        out.push_str(",\"files\":");
        push_u64(out, self.files);
        out.push_str(",\"login\":");
        push_opt_str(out, self.login.as_deref());
        out.push_str(",\"gave_up\":");
        push_opt_str(out, self.gave_up.as_deref());
        out.push_str(",\"start_us\":");
        push_opt_u64(out, self.start_us);
        out.push_str(",\"end_us\":");
        push_opt_u64(out, self.end_us);
        out.push('}');
    }

    /// Reads a host row back into the record it was rendered from: the
    /// writer's keys in the writer's order, numbers that fit the field
    /// they were written from, and strings as the writer escapes them. `None` for a tally row, another version, or anything else,
    /// a reformatted row included.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<HostJournal> {
        let mut r = Reader::row(line)?;
        let row = HostJournal {
            ip: r.field("ip", Reader::string)?.parse().ok()?,
            shard: r.field("shard", Reader::num)?,
            batch: r.field("batch", Reader::num)?,
            probe_tx: r.field("probe_tx", |r| r.timeline(Reader::num))?,
            probe_rx: r.field("probe_rx", |r| r.timeline(Reader::string))?,
            verdict: r.field("verdict", |r| r.opt(Reader::string))?,
            faults: r.field("faults", |r| r.timeline(Reader::string))?,
            phases: r.field("phases", |r| r.timeline(Reader::string))?,
            retries: r.field("retries", |r| {
                r.list(|r| r.bracketed(|r| Some((r.num()?, r.then(Reader::num)?, r.then(Reader::num)?))))
            })?,
            replies: r.field("replies", |r| r.list(Reader::num)?.try_into().ok())?,
            listing_bytes: r.field("listing_bytes", Reader::num)?,
            requests: r.field("requests", Reader::num)?,
            files: r.field("files", Reader::num)?,
            login: r.field("login", |r| r.opt(Reader::string))?,
            gave_up: r.field("gave_up", |r| r.opt(Reader::string))?,
            start_us: r.field("start_us", |r| r.opt(Reader::num))?,
            end_us: r.field("end_us", |r| r.opt(Reader::num))?,
        };
        (r.rest == "}").then_some(row)
    }

    /// The partition-invariant projection of this journal: shard, batch,
    /// and every sim-time coordinate zeroed, keeping event order,
    /// statuses, attempt counts, backoff *durations* (pure per-host
    /// quantities), tallies, and outcomes. Two runs of the same world at
    /// any shard count × batch size agree on this projection.
    #[must_use]
    pub fn normalized(&self) -> HostJournal {
        let mut n = self.clone();
        n.shard = 0;
        n.batch = 0;
        for (us, _) in &mut n.probe_tx {
            *us = 0;
        }
        for (us, _) in n.probe_rx.iter_mut().chain(&mut n.faults).chain(&mut n.phases) {
            *us = 0;
        }
        for (us, _, _) in &mut n.retries {
            *us = 0;
        }
        n.start_us = n.start_us.map(|_| 0);
        n.end_us = n.end_us.map(|_| 0);
        n
    }

    /// Renders the human-readable timeline `ftpcloud explain` prints:
    /// every journal event in sim-time order, then an outcome summary.
    /// Purely a function of the row, so the output is stable across
    /// re-renders and re-runs.
    #[must_use]
    pub fn timeline(&self) -> String {
        let mut entries: Vec<(u64, u8, String)> = Vec::new();
        for (us, attempt) in &self.probe_tx {
            entries.push((*us, 0, format!("probe #{attempt} sent")));
        }
        for (us, status) in &self.probe_rx {
            entries.push((*us, 1, format!("probe reply: {status}")));
        }
        if let Some(start) = self.start_us {
            entries.push((start, 2, "session opened".to_owned()));
        }
        for (us, kind) in &self.faults {
            entries.push((*us, 3, format!("fault encountered: {kind}")));
        }
        for (us, attempt, backoff) in &self.retries {
            entries.push((
                *us,
                4,
                format!("connect retry #{attempt} scheduled (backoff {:.1} ms)", *backoff as f64 / 1_000.0),
            ));
        }
        for (us, phase) in &self.phases {
            entries.push((*us, 5, format!("phase -> {phase}")));
        }
        if let Some(end) = self.end_us {
            entries.push((end, 6, "session closed".to_owned()));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut out = String::new();
        let _ = writeln!(out, "host {} — journal timeline (shard {}, batch {})", self.ip, self.shard, self.batch);
        if let Some(v) = &self.verdict {
            let _ = writeln!(out, "  scan verdict: {v}");
        }
        for (us, _, text) in &entries {
            let _ = writeln!(out, "  [{:>12.3} ms] {text}", *us as f64 / 1_000.0);
        }
        let classes = ["1xx", "2xx", "3xx", "4xx", "5xx", "other"];
        let tallies: Vec<String> = classes
            .iter()
            .zip(self.replies.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(c, n)| format!("{c}×{n}"))
            .collect();
        let _ = writeln!(
            out,
            "  replies: {}; data bytes: {}; requests: {}; files: {}",
            if tallies.is_empty() { "none".to_owned() } else { tallies.join(" ") },
            self.listing_bytes,
            self.requests,
            self.files
        );
        let _ = writeln!(
            out,
            "  outcome: login={}, gave_up={}",
            self.login.as_deref().unwrap_or("-"),
            self.gave_up.as_deref().unwrap_or("-")
        );
        out
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    if n < 10 {
        // Most numbers on a row: tags, zeros and small tallies.
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Opens the `i`th `[sim_us,…]` tuple of a timeline array.
fn push_pair_head(out: &mut String, i: usize, us: u64) {
    out.push_str(if i == 0 { "[" } else { ",[" });
    push_u64(out, us);
    out.push(',');
}

/// Appends a `[[sim_us,"label"],…]` timeline body, each label escaped
/// as every string on a row is.
fn push_labelled(out: &mut String, items: &[(u64, Cow<'static, str>)]) {
    for (i, (us, label)) in items.iter().enumerate() {
        push_pair_head(out, i, *us);
        push_opt_str(out, Some(label));
        out.push(']');
    }
}

/// Appends `v` as a quoted, escaped JSON string, or `null`.
fn push_opt_str(out: &mut String, v: Option<&str>) {
    match v {
        Some(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(n) => push_u64(out, n),
        None => out.push_str("null"),
    }
}

/// Rendered journal lines in one contiguous buffer, each line ending in
/// `\n`. [`crate::Report::journal`] holds one; `len()` counts lines and
/// `&buf` iterates them as `&str` without the newline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalBuf {
    text: String,
    lines: usize,
}

impl JournalBuf {
    /// Number of lines: host rows plus tally rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines
    }

    /// True when no line has been rendered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// The whole buffer as JSONL text, every line newline-terminated.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The lines, without their newlines.
    pub fn iter(&self) -> std::str::SplitTerminator<'_, char> {
        self.text.split_terminator('\n')
    }

    /// Appends `other`'s lines after this buffer's; moves instead of
    /// copying when this buffer is empty.
    pub fn append(&mut self, other: JournalBuf) {
        if self.text.is_empty() {
            *self = other;
        } else {
            self.text.push_str(&other.text);
            self.lines += other.lines;
        }
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.text.clear();
        self.lines = 0;
    }

    /// Appends the row `render` writes, and its newline.
    fn push(&mut self, render: impl FnOnce(&mut String)) {
        render(&mut self.text);
        self.text.push('\n');
        self.lines += 1;
    }
}

impl<'a> IntoIterator for &'a JournalBuf {
    type Item = &'a str;
    type IntoIter = std::str::SplitTerminator<'a, char>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One logged event: 16 bytes, no pointers. `word` holds the event kind
/// in its low [`KIND_BITS`] bits and a payload above them: an attempt
/// number, a reply code, a byte count, an index into
/// [`JournalLog::labels`], or an index into [`JournalLog::wide`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    sim_us: u64,
    ip: u32,
    word: u32,
}

const KIND_BITS: u32 = 4;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;
const PAYLOAD_LIMIT: u64 = 1 << (32 - KIND_BITS);
const PROBE_SENT: u32 = 0;
const PROBE_REPLY: u32 = 1;
const PROBE_VERDICT: u32 = 2;
const FAULT_HIT: u32 = 3;
const SESSION_START: u32 = 4;
const PHASE: u32 = 5;
const REPLY: u32 = 6;
const DATA_BYTES: u32 = 7;
const WIDE: u32 = 8;

/// A recorder's journal: every event appended in arrival order to one
/// flat log, with no per-host state until [`JournalLog::drain_into`]
/// sorts the log by host and renders it. Almost every probed address
/// never answers, so per-address maps and buffers on the hot path cost
/// far more than the few fixed-size entries each address produces.
#[derive(Debug, Default)]
pub(crate) struct JournalLog {
    entries: Vec<Entry>,
    /// Events too wide for an entry's payload (retries, session ends,
    /// deliveries of `PAYLOAD_LIMIT` bytes or more).
    wide: Vec<JournalEvent>,
    /// Every distinct label seen, indexed by the ids entries carry.
    labels: Vec<&'static str>,
    /// `(first entry, batch)` for each run of entries logged under one
    /// batch tag, in log order.
    batches: Vec<(usize, u64)>,
    /// Sort scratch: `(ip << 32) | entry index`, kept between drains.
    keys: Vec<u64>,
}

impl JournalLog {
    /// Appends one event for `ip`, stamped at `sim_us` in `batch`.
    pub(crate) fn push(&mut self, ip: u32, sim_us: u64, batch: u64, ev: &JournalEvent) {
        if self.batches.last().is_none_or(|&(_, b)| b != batch) {
            self.batches.push((self.entries.len(), batch));
        }
        let (kind, payload) = match *ev {
            JournalEvent::ProbeSent { attempt } => (PROBE_SENT, u32::from(attempt)),
            JournalEvent::ProbeReply { status } => (PROBE_REPLY, self.label_id(status)),
            JournalEvent::ProbeVerdict { verdict } => (PROBE_VERDICT, self.label_id(verdict)),
            JournalEvent::FaultHit { kind } => (FAULT_HIT, self.label_id(kind)),
            JournalEvent::SessionStart => (SESSION_START, 0),
            JournalEvent::Phase { phase } => (PHASE, self.label_id(phase)),
            JournalEvent::Reply { code } => (REPLY, u32::from(code)),
            JournalEvent::DataBytes { n } if n < PAYLOAD_LIMIT => (DATA_BYTES, n as u32),
            JournalEvent::DataBytes { .. }
            | JournalEvent::Retry { .. }
            | JournalEvent::SessionEnd { .. } => {
                self.wide.push(*ev);
                (WIDE, payload(self.wide.len() - 1))
            }
        };
        self.entries.push(Entry { sim_us, ip, word: kind | payload << KIND_BITS });
    }

    /// The id of `label`, interning it on first sight. Labels are
    /// `'static`, so identity is the pointer; the handful of distinct
    /// labels keeps the scan short.
    fn label_id(&mut self, label: &'static str) -> u32 {
        let ix = match self.labels.iter().position(|&l| std::ptr::eq(l, label)) {
            Some(ix) => ix,
            None => {
                self.labels.push(label);
                self.labels.len() - 1
            }
        };
        payload(ix)
    }

    fn event(&self, word: u32) -> JournalEvent {
        let payload = (word >> KIND_BITS) as usize;
        match word & KIND_MASK {
            PROBE_SENT => JournalEvent::ProbeSent { attempt: payload as u8 },
            PROBE_REPLY => JournalEvent::ProbeReply { status: self.labels[payload] },
            PROBE_VERDICT => JournalEvent::ProbeVerdict { verdict: self.labels[payload] },
            FAULT_HIT => JournalEvent::FaultHit { kind: self.labels[payload] },
            SESSION_START => JournalEvent::SessionStart,
            PHASE => JournalEvent::Phase { phase: self.labels[payload] },
            REPLY => JournalEvent::Reply { code: payload as u16 },
            DATA_BYTES => JournalEvent::DataBytes { n: payload as u64 },
            _ => self.wide[payload],
        }
    }

    /// Renders one host row per answering host into `out`, hosts in
    /// address order and each host's events in arrival order; a row's
    /// batch tag is the batch of its host's first event. A silent host,
    /// whose events are probes only with every answer and verdict
    /// `filtered` and a verdict among them, is only counted; each batch
    /// tag with silent hosts gets one tally row after the host rows.
    /// Empties the log, keeping its capacity for the next batch.
    pub(crate) fn drain_into(&mut self, shard: u64, out: &mut JournalBuf) {
        assert!(self.entries.len() <= (u32::MAX >> 2) as usize, "journal log exceeds 2^30 events");
        let filtered: Vec<bool> = self.labels.iter().map(|&label| label == "filtered").collect();
        self.keys.clear();
        self.keys.extend(self.entries.iter().enumerate().map(|(ix, e)| sort_key(ix, e, &filtered)));
        // Keys are unique, so the unstable sort orders each host's
        // events by arrival exactly.
        self.keys.sort_unstable();
        let mut journal = HostJournal::new(Ipv4Addr::UNSPECIFIED, shard, 0);
        // `(batch, silent hosts)`; the runners drain once per batch, so
        // this holds one entry.
        let mut silent: Vec<(u64, u64)> = Vec::new();
        let entry_of = |key: u64| (key as u32 >> 2) as usize;
        for host in self.keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            let first = entry_of(host[0]);
            let batch_run = self.batches.partition_point(|&(start, _)| start <= first) - 1;
            let batch = self.batches[batch_run].1;
            let tags = host.iter().fold(0, |tags, key| tags | key & (LOUD | FILTERED_VERDICT));
            if tags == FILTERED_VERDICT {
                match silent.iter_mut().find(|&&mut (b, _)| b == batch) {
                    Some((_, n)) => *n += 1,
                    None => silent.push((batch, 1)),
                }
                continue;
            }
            journal.reset(Ipv4Addr::from((host[0] >> 32) as u32), shard, batch);
            for &key in host {
                let entry = self.entries[entry_of(key)];
                journal.note(entry.sim_us, &self.event(entry.word));
            }
            out.push(|text| journal.render(text));
        }
        silent.sort_unstable();
        for (batch, n) in silent {
            out.push(|text| SilentTally { shard, batch, silent: n }.render(text));
        }
        self.entries.clear();
        self.wide.clear();
        self.batches.clear();
    }
}

/// The drain's sort key for entry `ix`: `(ip << 32) | (ix << 2) | tag`.
/// The tag marks the entry [`LOUD`] (anything but a probe sent or a
/// `filtered` probe answer or verdict) or a [`FILTERED_VERDICT`], so a
/// host's run of keys tells whether it was silent without reading its
/// entries again. `filtered[id]` says whether label `id` is `filtered`.
fn sort_key(ix: usize, entry: &Entry, filtered: &[bool]) -> u64 {
    let filtered = || filtered[(entry.word >> KIND_BITS) as usize];
    let tag = match entry.word & KIND_MASK {
        PROBE_SENT => 0,
        PROBE_REPLY if filtered() => 0,
        PROBE_VERDICT if filtered() => FILTERED_VERDICT,
        _ => LOUD,
    };
    u64::from(entry.ip) << 32 | (ix as u64) << 2 | tag
}

/// Sort-key tag: the entry shows its host answered, retried, hit a
/// fault or had a session.
const LOUD: u64 = 1;
/// Sort-key tag: the entry is a `filtered` probe verdict.
const FILTERED_VERDICT: u64 = 2;

/// An entry payload from an index that must fit in its bits.
fn payload(ix: usize) -> u32 {
    assert!((ix as u64) < PAYLOAD_LIMIT, "journal log payload index overflow");
    ix as u32
}

// ---------------------------------------------------------------------
// Parsing: a journal file read back into the rows that were rendered,
// by a reader that walks the writer's own layout.
// ---------------------------------------------------------------------

/// A journal file parsed back: its host rows and its silent tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalFile {
    /// One record per host row, in file order.
    pub hosts: Vec<HostJournal>,
    /// One entry per tally row, in file order.
    pub tallies: Vec<SilentTally>,
}

impl JournalFile {
    /// Silent addresses tallied over every `(shard, batch)` cell.
    #[must_use]
    pub fn silent(&self) -> u64 {
        self.tallies.iter().map(|t| t.silent).sum()
    }

    /// Parses a whole journal file into its host rows and tallies,
    /// skipping blank lines. Any other line that is neither row kind of
    /// this version is an error naming the line (and its version, when
    /// it leads with another one).
    pub fn parse(text: &str) -> Result<JournalFile, String> {
        let mut file = JournalFile::default();
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            if let Some(host) = HostJournal::parse_line(line) {
                file.hosts.push(host);
            } else if let Some(tally) = SilentTally::parse_line(line) {
                file.tallies.push(tally);
            } else {
                return Err(match leading_version(line) {
                    Some((v, _)) if v != JOURNAL_VERSION => format!(
                        "line {} is a v{v} journal row; this reader reads v{JOURNAL_VERSION} only",
                        n + 1
                    ),
                    _ => format!("line {} is not a v{JOURNAL_VERSION} journal row", n + 1),
                });
            }
        }
        Ok(file)
    }

    /// Reads the `(shard, batch)` tags of a host or tally row: the
    /// row reader's first steps, without reading the rest. `None` for
    /// anything else.
    #[must_use]
    pub fn cell(line: &str) -> Option<(u64, u64)> {
        let mut r = Reader::row(line)?;
        if r.key("ip").is_some() {
            r.string()?;
        }
        let cell = (r.field("shard", Reader::num)?, r.field("batch", Reader::num)?);
        r.rest.starts_with(',').then_some(cell)
    }
}

/// A tally row: how many addresses of one `(shard, batch)` cell were
/// probed and never answered, and so have no host row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SilentTally {
    /// Shard that probed them.
    pub shard: u64,
    /// Batch (streamed runs; 0 in-memory) that probed them.
    pub batch: u64,
    /// Silent addresses counted.
    pub silent: u64,
}

impl SilentTally {
    /// Renders the tally row, `{"v":2,"shard":S,"batch":B,"silent":N}`
    /// (no trailing newline).
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"v\":");
        push_u64(out, JOURNAL_VERSION);
        out.push_str(",\"shard\":");
        push_u64(out, self.shard);
        out.push_str(",\"batch\":");
        push_u64(out, self.batch);
        out.push_str(",\"silent\":");
        push_u64(out, self.silent);
        out.push('}');
    }

    /// Reads a tally row back; `None` for anything else.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<SilentTally> {
        let mut r = Reader::row(line)?;
        let tally = SilentTally {
            shard: r.field("shard", Reader::num)?,
            batch: r.field("batch", Reader::num)?,
            silent: r.field("silent", Reader::num)?,
        };
        (r.rest == "}").then_some(tally)
    }
}

/// A cursor over one row that reads exactly what the writer writes:
/// each literal in order, numbers as [`push_u64`] writes them, strings
/// as [`escape_json`] escapes them.
struct Reader<'a> {
    rest: &'a str,
}

impl<'a> Reader<'a> {
    /// Opens a row of this version, past its leading `{"v":2`.
    fn row(line: &'a str) -> Option<Reader<'a>> {
        let (version, rest) = leading_version(line)?;
        (version == JOURNAL_VERSION).then_some(Reader { rest })
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(lit)?;
        Some(())
    }

    /// Consumes the key `,"name":`, or nothing.
    fn key(&mut self, name: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(",\"")?.strip_prefix(name)?.strip_prefix("\":")?;
        Some(())
    }

    /// The value of key `name`, read by `value`.
    fn field<T>(&mut self, name: &str, value: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.key(name)?;
        value(self)
    }

    /// A `,`, then what `value` reads.
    fn then<T>(&mut self, value: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.lit(",")?;
        value(self)
    }

    /// `[`, what `inner` reads, `]`.
    fn bracketed<T>(&mut self, inner: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.lit("[")?;
        let value = inner(self)?;
        self.lit("]")?;
        Some(value)
    }

    /// A number that fits `T`, the type the writer wrote it from.
    fn num<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let (n, rest) = leading_u64(self.rest)?;
        self.rest = rest;
        T::try_from(n).ok()
    }

    /// `null`, or what `value` reads.
    fn opt<T>(&mut self, value: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.lit("null") {
            Some(()) => Some(None),
            None => value(self).map(Some),
        }
    }

    /// `[item,…]`, each item read by `item`.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.lit("[")?;
        let mut items = Vec::new();
        while self.lit("]").is_none() {
            if !items.is_empty() {
                self.lit(",")?;
            }
            items.push(item(self)?);
        }
        Some(items)
    }

    /// A timeline `[[sim_us,value],…]`.
    fn timeline<T>(&mut self, value: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<(u64, T)>> {
        self.list(|r| r.bracketed(|r| Some((r.num()?, r.then(&value)?))))
    }

    /// A quoted string as [`escape_json`] escapes it; `None` for any
    /// other spelling of the same text.
    fn string(&mut self) -> Option<Cow<'static, str>> {
        let body = self.rest.strip_prefix('"')?;
        let mut text = String::new();
        let mut chars = body.chars();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => text.push(match chars.next()? {
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let hex = chars.as_str().get(..4)?;
                        chars = chars.as_str()[4..].chars();
                        char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                    }
                    quoted => quoted,
                }),
                c => text.push(c),
            }
        }
        self.rest = chars.as_str();
        let raw = &body[..body.len() - self.rest.len() - 1];
        let mut escaped = String::with_capacity(raw.len());
        escape_json(&text, &mut escaped);
        (escaped == raw).then_some(Cow::Owned(text))
    }
}

/// The version a row leads with, and the text after it.
fn leading_version(line: &str) -> Option<(u64, &str)> {
    leading_u64(line.strip_prefix("{\"v\":")?)
}

/// Splits the decimal number leading `s`, as [`push_u64`] writes it (no
/// sign, no leading zero), from what follows it.
fn leading_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.bytes().position(|b| !b.is_ascii_digit()).unwrap_or(s.len());
    if end > 1 && s.starts_with('0') {
        return None;
    }
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Aggregate view over a parsed journal file: the `--top` summaries and
/// the counts `ftpcloud explain` turns into a funnel check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Probed addresses: host rows plus tallied silent addresses.
    pub hosts: u64,
    /// Hosts whose scan verdict was `open`.
    pub open: u64,
    /// Hosts that got an enumeration session.
    pub sessions: u64,
    /// Hosts whose login outcome marks a real FTP service.
    pub ftp: u64,
    /// Hosts that logged in anonymously.
    pub anonymous: u64,
    /// Give-up reasons, tallied, sorted by count descending then label.
    pub gave_up: Vec<(String, u64)>,
    /// Fault kinds encountered, tallied, same order.
    pub faults: Vec<(String, u64)>,
    /// Total connect retries across all hosts.
    pub retries: u64,
}

/// Builds the aggregate summary from a parsed journal file. A silent
/// address counts as probed and adds nothing else.
#[must_use]
pub fn summarize(file: &JournalFile) -> JournalSummary {
    use std::collections::BTreeMap;
    let mut gave: BTreeMap<&str, u64> = BTreeMap::new();
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    let hosts = file.hosts.len() as u64 + file.silent();
    let mut s = JournalSummary { hosts, ..JournalSummary::default() };
    for j in &file.hosts {
        if j.verdict.as_deref() == Some("open") {
            s.open += 1;
        }
        if j.start_us.is_some() {
            s.sessions += 1;
        }
        match j.login.as_deref() {
            Some("anonymous") => {
                s.ftp += 1;
                s.anonymous += 1;
            }
            Some("denied") | Some("skipped_banner_forbids") => s.ftp += 1,
            _ => {}
        }
        if let Some(reason) = &j.gave_up {
            *gave.entry(reason).or_default() += 1;
        }
        for (_, kind) in &j.faults {
            *faults.entry(kind).or_default() += 1;
        }
        s.retries += j.retries.len() as u64;
    }
    let rank = |m: BTreeMap<&str, u64>| {
        let mut v: Vec<(String, u64)> = m.into_iter().map(|(k, n)| (k.to_owned(), n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    };
    s.gave_up = rank(gave);
    s.faults = rank(faults);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HostJournal {
        let mut j = HostJournal::new(Ipv4Addr::new(10, 3, 7, 9), 2, 5);
        j.note(1_000, &JournalEvent::ProbeSent { attempt: 1 });
        j.note(21_000, &JournalEvent::ProbeReply { status: "open" });
        j.note(21_000, &JournalEvent::ProbeVerdict { verdict: "open" });
        j.note(30_000, &JournalEvent::SessionStart);
        j.note(30_000, &JournalEvent::Phase { phase: "connecting" });
        j.note(32_000, &JournalEvent::FaultHit { kind: "tarpit" });
        j.note(35_000, &JournalEvent::Retry { attempt: 1, backoff_us: 250_000 });
        j.note(40_000, &JournalEvent::Phase { phase: "banner" });
        j.note(41_000, &JournalEvent::Reply { code: 220 });
        j.note(42_000, &JournalEvent::Reply { code: 530 });
        j.note(43_000, &JournalEvent::DataBytes { n: 512 });
        j.note(
            90_000,
            &JournalEvent::SessionEnd {
                login: "denied",
                gave_up: Some("step_timeout"),
                requests: 7,
                files: 0,
            },
        );
        j
    }

    /// A journal with every list holding at least two entries and every
    /// number at its type's extreme, for `ip`.
    fn extremes(ip: Ipv4Addr) -> HostJournal {
        let mut j = HostJournal::new(ip, u64::MAX, u64::MAX);
        j.note(0, &JournalEvent::ProbeSent { attempt: 1 });
        j.note(u64::MAX, &JournalEvent::ProbeSent { attempt: u8::MAX });
        j.note(7, &JournalEvent::ProbeReply { status: "filtered" });
        j.note(u64::MAX, &JournalEvent::ProbeReply { status: "open" });
        j.note(u64::MAX, &JournalEvent::ProbeVerdict { verdict: "open" });
        j.note(0, &JournalEvent::SessionStart);
        j.note(10, &JournalEvent::FaultHit { kind: "tarpit" });
        j.note(u64::MAX, &JournalEvent::FaultHit { kind: "syn_blackhole" });
        j.note(0, &JournalEvent::Phase { phase: "connecting" });
        j.note(u64::MAX, &JournalEvent::Phase { phase: "banner" });
        j.note(99, &JournalEvent::Retry { attempt: 1, backoff_us: 0 });
        j.note(u64::MAX, &JournalEvent::Retry { attempt: u32::MAX, backoff_us: u64::MAX });
        for code in [100, 199, 220, 331, 450, 599, 0, 99, 600, u16::MAX] {
            j.note(5, &JournalEvent::Reply { code });
        }
        j.replies[1] = u64::MAX;
        j.note(5, &JournalEvent::DataBytes { n: u64::MAX });
        j.note(
            u64::MAX,
            &JournalEvent::SessionEnd {
                login: "denied",
                gave_up: Some("step_timeout"),
                requests: u32::MAX,
                files: u64::MAX,
            },
        );
        j
    }

    /// The renderer's exact bytes, pinned to lines produced by the
    /// original `write!`-based renderer: the hand-written integer and
    /// address formatting must not change a byte of the row format.
    #[test]
    fn render_bytes_are_pinned() {
        const BODY: &str = r#""shard":18446744073709551615,"batch":18446744073709551615,"probe_tx":[[0,1],[18446744073709551615,255]],"probe_rx":[[7,"filtered"],[18446744073709551615,"open"]],"verdict":"open","faults":[[10,"tarpit"],[18446744073709551615,"syn_blackhole"]],"phases":[[0,"connecting"],[18446744073709551615,"banner"]],"retries":[[99,1,0],[18446744073709551615,4294967295,18446744073709551615]],"replies":[2,18446744073709551615,1,1,1,4],"listing_bytes":18446744073709551615,"requests":4294967295,"files":18446744073709551615,"login":"denied","gave_up":"step_timeout","start_us":0,"end_us":18446744073709551615}"#;
        for (ip, text) in [
            (Ipv4Addr::new(0, 0, 0, 0), "0.0.0.0"),
            (Ipv4Addr::new(255, 255, 255, 255), "255.255.255.255"),
        ] {
            let mut line = String::new();
            extremes(ip).render(&mut line);
            assert_eq!(line, format!(r#"{{"v":2,"ip":"{text}",{BODY}"#));
        }

        // Rendering appends: an empty journal after existing text.
        let mut out = String::from("x");
        HostJournal::new(Ipv4Addr::new(10, 3, 7, 9), 0, 0).render(&mut out);
        assert_eq!(
            out,
            r#"x{"v":2,"ip":"10.3.7.9","shard":0,"batch":0,"probe_tx":[],"probe_rx":[],"verdict":null,"faults":[],"phases":[],"retries":[],"replies":[0,0,0,0,0,0],"listing_bytes":0,"requests":0,"files":0,"login":null,"gave_up":null,"start_us":null,"end_us":null}"#
        );
    }

    /// Renders `row` and reads it back.
    fn roundtrip(row: &HostJournal) -> Option<HostJournal> {
        let mut line = String::new();
        row.render(&mut line);
        HostJournal::parse_line(&line)
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut line = String::new();
        sample().render(&mut line);
        assert!(line.starts_with("{\"v\":2,\"ip\":\"10.3.7.9\",\"shard\":2,\"batch\":5,"));
        assert_eq!(HostJournal::parse_line(&line), Some(sample()));
        for ip in [Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(255, 255, 255, 255)] {
            assert_eq!(roundtrip(&extremes(ip)), Some(extremes(ip)));
        }
    }

    /// Every label is escaped as the optional strings are, so a quoted
    /// label renders as valid JSON and reads back.
    #[test]
    fn quoted_labels_round_trip() {
        let mut row = HostJournal::new(Ipv4Addr::new(10, 3, 7, 9), 0, 0);
        row.phases.push((5, Cow::Borrowed("a\"b")));
        row.faults.push((6, Cow::Borrowed("back\\slash\n\u{1}ünï")));
        row.probe_rx.push((7, Cow::Borrowed("")));
        let mut line = String::new();
        row.render(&mut line);
        assert!(line.contains(r#""phases":[[5,"a\"b"]]"#), "{line}");
        assert!(line.contains(r#""faults":[[6,"back\\slash\n\u0001ünï"]]"#), "{line}");
        assert_eq!(HostJournal::parse_line(&line), Some(row));
    }

    /// The reader refuses what the writer cannot write, and a file
    /// holding such a row is refused naming its line.
    #[test]
    fn rows_the_writer_cannot_write_are_refused() {
        let mut line = String::new();
        extremes(Ipv4Addr::new(10, 3, 7, 9)).render(&mut line);
        let spaced = line.replacen(",\"shard\"", ", \"shard\"", 1);
        let swapped = line.replacen("\"shard\":18446744073709551615,\"batch\"", "\"batch\":18446744073709551615,\"shard\"", 1);
        let attempt = line.replacen("255]],\"probe_rx\"", "256]],\"probe_rx\"", 1);
        let requests = line.replacen("\"requests\":4294967295", "\"requests\":4294967296", 1);
        let padded = line.replacen("\"listing_bytes\":", "\"listing_bytes\":0", 1);
        let uppercase = line.replacen("\"tarpit\"", "\"tarpi\\u0074\"", 1);
        let torn = line[..line.len() - 1].to_owned();
        for (why, bad) in [
            ("a space after a comma", &spaced),
            ("two keys swapped", &swapped),
            ("a probe attempt of 256", &attempt),
            ("requests of 2^32", &requests),
            ("a leading zero", &padded),
            ("an escape escape_json does not write", &uppercase),
            ("a torn row", &torn),
        ] {
            assert_ne!(bad, &line, "{why}: the case changes the row");
            assert_eq!(HostJournal::parse_line(bad), None, "{why}: {bad}");
            assert_eq!(
                JournalFile::parse(&format!("{line}\n{bad}\n")),
                Err("line 2 is not a v2 journal row".into()),
                "{why}"
            );
        }
        let tally = r#"{"v":2,"shard":1,"batch":3,"silent":40}"#;
        for bad in [
            r#"{"v":2, "shard":1,"batch":3,"silent":40}"#,
            r#"{"v":2,"batch":3,"shard":1,"silent":40}"#,
            r#"{"v":2,"shard":01,"batch":3,"silent":40}"#,
            r#"{"v":2,"shard":1,"batch":3,"silent":40"#,
        ] {
            assert_eq!(SilentTally::parse_line(bad), None, "{bad}");
        }
        assert!(SilentTally::parse_line(tally).is_some());
    }

    #[test]
    fn normalization_strips_partition_coordinates() {
        let mut line = String::new();
        sample().render(&mut line);
        let p = HostJournal::parse_line(&line).unwrap();
        let n = p.normalized();
        assert_eq!(n.shard, 0);
        assert_eq!(n.batch, 0);
        assert_eq!(n.probe_tx, vec![(0, 1)]);
        assert_eq!(n.retries, vec![(0, 1, 250_000)], "backoff durations survive");
        assert_eq!(n.start_us, Some(0));
        // Outcome content untouched.
        assert_eq!(n.gave_up.as_deref(), Some("step_timeout"));
    }

    #[test]
    fn timeline_is_stable_and_ordered() {
        let mut line = String::new();
        sample().render(&mut line);
        let p = HostJournal::parse_line(&line).unwrap();
        let a = p.timeline();
        let b = p.timeline();
        assert_eq!(a, b);
        let probe = a.find("probe #1 sent").unwrap();
        let fault = a.find("fault encountered: tarpit").unwrap();
        let closed = a.find("session closed").unwrap();
        assert!(probe < fault && fault < closed, "timeline must be chronological:\n{a}");
        assert!(a.contains("gave_up=step_timeout"));
    }

    #[test]
    fn summary_tallies_outcomes() {
        let mut line = String::new();
        sample().render(&mut line);
        let p = HostJournal::parse_line(&line).unwrap();
        let mut other = p.clone();
        other.ip = Ipv4Addr::new(10, 3, 7, 10);
        other.gave_up = None;
        other.login = Some("anonymous".into());
        other.faults.clear();
        let mut file = JournalFile { hosts: vec![p, other], tallies: vec![] };
        let s = summarize(&file);
        assert_eq!(s.hosts, 2);
        assert_eq!(s.open, 2);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.ftp, 2);
        assert_eq!(s.anonymous, 1);
        assert_eq!(s.gave_up, vec![("step_timeout".to_owned(), 1)]);
        assert_eq!(s.faults, vec![("tarpit".to_owned(), 1)]);
        assert_eq!(s.retries, 2);

        // Silent addresses count as probed and add nothing else.
        file.tallies = vec![
            SilentTally { shard: 0, batch: 0, silent: 3 },
            SilentTally { shard: 1, batch: 4, silent: 5 },
        ];
        let with_silent = summarize(&file);
        assert_eq!(with_silent, JournalSummary { hosts: 10, ..s });
    }

    #[test]
    fn malformed_and_wrong_version_lines_are_rejected() {
        assert!(HostJournal::parse_line("not json").is_none());
        assert!(HostJournal::parse_line("{\"v\":99,\"ip\":\"1.2.3.4\"}").is_none());
        let mut line = String::new();
        sample().render(&mut line);
        let tally = r#"{"v":2,"shard":1,"batch":3,"silent":40}"#;
        let file = JournalFile::parse(&format!("{line}\n\n{line}\n{tally}\n"))
            .expect("rows and a tally parse");
        assert_eq!(file.hosts.len(), 2);
        assert_eq!(file.tallies, vec![SilentTally { shard: 1, batch: 3, silent: 40 }]);
        assert_eq!(file.silent(), 40);
        assert!(HostJournal::parse_line(tally).is_none(), "a tally is not a host row");
        assert!(SilentTally::parse_line(&line).is_none(), "a host row is not a tally");
        assert!(SilentTally::parse_line(r#"{"v":1,"shard":1,"batch":3,"silent":40}"#).is_none());
        assert!(SilentTally::parse_line(r#"{"v":2,"shard":1,"batch":3}"#).is_none());
        assert_eq!(JournalFile::parse("{}\n"), Err("line 1 is not a v2 journal row".into()));

        // A v1 journal is refused with both versions named.
        let v1 = line.replacen("\"v\":2", "\"v\":1", 1);
        assert_eq!(
            JournalFile::parse(&format!("\n{v1}\n")),
            Err("line 2 is a v1 journal row; this reader reads v2 only".into())
        );
    }

    #[test]
    fn cell_reads_the_partition_tags() {
        let mut line = String::new();
        sample().render(&mut line);
        assert_eq!(JournalFile::cell(&line), Some((2, 5)));
        let mut line = String::new();
        extremes(Ipv4Addr::new(255, 255, 255, 255)).render(&mut line);
        assert_eq!(JournalFile::cell(&line), Some((u64::MAX, u64::MAX)));
        assert_eq!(JournalFile::cell(&line[..40]), None, "torn inside the tags");
        assert_eq!(JournalFile::cell(&line.replacen("\"v\":2", "\"v\":1", 1)), None);
        assert_eq!(JournalFile::cell("not json"), None);

        // Tally rows carry the same tags at the same place.
        let mut buf = JournalBuf::default();
        for (shard, batch, silent) in [(3, 11, 250), (u64::MAX, u64::MAX, u64::MAX)] {
            let tally = SilentTally { shard, batch, silent };
            buf.push(|text| tally.render(text));
            assert_eq!(SilentTally::parse_line(buf.iter().next_back().unwrap()), Some(tally));
        }
        let rows: Vec<&str> = buf.iter().collect();
        assert_eq!(rows[0], r#"{"v":2,"shard":3,"batch":11,"silent":250}"#);
        assert_eq!(JournalFile::cell(rows[0]), Some((3, 11)));
        assert_eq!(JournalFile::cell(rows[1]), Some((u64::MAX, u64::MAX)));
        assert_eq!(JournalFile::cell(&rows[0][..26]), None, "torn inside the tags");
        assert_eq!(JournalFile::cell(&rows[0].replacen("\"v\":2", "\"v\":1", 1)), None);
    }

    /// Logs `events` for `ip` in batch `batch`, at ascending sim times.
    fn log(journal: &mut JournalLog, ip: [u8; 4], batch: u64, events: &[JournalEvent]) {
        for (t, ev) in events.iter().enumerate() {
            journal.push(u32::from(Ipv4Addr::from(ip)), t as u64, batch, ev);
        }
    }

    const SENT: JournalEvent = JournalEvent::ProbeSent { attempt: 1 };
    const RESENT: JournalEvent = JournalEvent::ProbeSent { attempt: 2 };
    const NO_ANSWER: JournalEvent = JournalEvent::ProbeReply { status: "filtered" };
    const FILTERED: JournalEvent = JournalEvent::ProbeVerdict { verdict: "filtered" };
    const FAULT: JournalEvent = JournalEvent::FaultHit { kind: "syn_blackhole" };

    /// An address whose only events are probes that ended in a
    /// `filtered` verdict is tallied; anything that answered, hit a
    /// fault, or opened a session keeps its row. The tally comes once
    /// per drain, after the drain's rows.
    #[test]
    fn drain_tallies_silent_addresses_and_keeps_every_answer() {
        let mut journal = JournalLog::default();
        let silent = [SENT, NO_ANSWER, RESENT, NO_ANSWER, FILTERED];
        log(&mut journal, [10, 0, 0, 1], 6, &silent);
        log(&mut journal, [10, 0, 0, 9], 6, &[SENT, NO_ANSWER, FILTERED]);
        let reply = |status| JournalEvent::ProbeReply { status };
        let verdict = |verdict| JournalEvent::ProbeVerdict { verdict };
        let kept: [(&str, [u8; 4], Vec<JournalEvent>); 6] = [
            ("open", [10, 0, 0, 2], vec![SENT, reply("open"), verdict("open")]),
            ("closed", [10, 0, 0, 3], vec![SENT, reply("closed"), verdict("closed")]),
            ("fault", [10, 0, 0, 4], vec![SENT, FAULT, NO_ANSWER, FILTERED]),
            ("session", [10, 0, 0, 5], vec![SENT, NO_ANSWER, FILTERED, JournalEvent::SessionStart]),
            ("retry", [10, 0, 0, 6], vec![SENT, NO_ANSWER, RESENT, reply("open"), verdict("open")]),
            ("no verdict", [10, 0, 0, 7], vec![SENT, NO_ANSWER]),
        ];
        for (_, ip, events) in &kept {
            log(&mut journal, *ip, 6, events);
        }

        let mut out = JournalBuf::default();
        journal.drain_into(2, &mut out);
        let rows: Vec<&str> = out.iter().collect();
        assert_eq!(out.len(), kept.len() + 1, "one row per kept address, one tally:\n{rows:#?}");
        for (row, (why, ip, _)) in rows.iter().zip(&kept) {
            let host = HostJournal::parse_line(row).unwrap_or_else(|| panic!("{why}: {row}"));
            assert_eq!(host.ip, Ipv4Addr::from(*ip), "{why} keeps its row, in address order");
        }
        assert_eq!(rows[kept.len()], r#"{"v":2,"shard":2,"batch":6,"silent":2}"#);

        // The next drain tallies only its own silent addresses.
        log(&mut journal, [10, 0, 0, 1], 7, &silent);
        log(&mut journal, [10, 0, 0, 2], 7, &kept[0].2);
        journal.drain_into(2, &mut out);
        let rows: Vec<&str> = out.iter().skip(kept.len() + 1).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(JournalFile::cell(rows[0]), Some((2, 7)));
        assert_eq!(rows[1], r#"{"v":2,"shard":2,"batch":7,"silent":1}"#);

        // A drain with no silent address writes no tally.
        log(&mut journal, [10, 0, 0, 2], 8, &kept[0].2);
        let mut only_rows = JournalBuf::default();
        journal.drain_into(2, &mut only_rows);
        assert_eq!(only_rows.len(), 1);
        assert!(HostJournal::parse_line(only_rows.as_str().trim_end()).is_some());
    }
}
