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
//! line.
//!
//! Everything in a journal line is **sim-time data**: there are no
//! wall-clock fields, so a journal is deterministic for a fixed
//! partitioning. Sim timestamps are coordinates *relative to the host's
//! simulator*, and therefore shift with the shard/batch geometry (a
//! shard holding fewer hosts scans each of them sooner); the
//! partition-invariant content is the event sequence itself — statuses,
//! phases in order, retry counts, backoff durations, reply tallies, and
//! final outcome. [`ParsedJournal::normalized`] strips the
//! geometry-dependent coordinates so tests can assert that invariance.
//!
//! The line format is versioned (`"v":1` leads every line) and the key
//! order is pinned by a golden schema test, so downstream consumers can
//! parse by position or by name and CI catches drift.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Journal line format version; bumped on any schema change.
pub const JOURNAL_VERSION: u64 = 1;

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

/// The accumulated wide record for one host: every journal event folded
/// into per-category timelines and tallies, rendered to one JSONL line.
/// A drain reuses one record for every host in its log.
#[derive(Debug, Clone, Default)]
pub struct HostJournal {
    ip: u32,
    shard: u64,
    batch: u64,
    probe_tx: Vec<(u64, u8)>,
    probe_rx: Vec<(u64, &'static str)>,
    verdict: Option<&'static str>,
    faults: Vec<(u64, &'static str)>,
    phases: Vec<(u64, &'static str)>,
    retries: Vec<(u64, u32, u64)>,
    replies: [u64; REPLY_CLASSES],
    listing_bytes: u64,
    requests: u32,
    files: u64,
    login: Option<&'static str>,
    gave_up: Option<&'static str>,
    start_us: Option<u64>,
    end_us: Option<u64>,
}

impl HostJournal {
    /// A fresh journal for `ip`, tagged with the recorder's shard and the
    /// batch the stream runner is currently executing.
    #[must_use]
    pub fn new(ip: Ipv4Addr, shard: u64, batch: u64) -> Self {
        HostJournal { ip: u32::from(ip), shard, batch, ..HostJournal::default() }
    }

    /// Empties the record for another host, keeping the lists' capacity.
    fn reset(&mut self, ip: u32, shard: u64, batch: u64) {
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
            JournalEvent::ProbeReply { status } => self.probe_rx.push((sim_us, status)),
            JournalEvent::ProbeVerdict { verdict } => self.verdict = Some(verdict),
            JournalEvent::FaultHit { kind } => self.faults.push((sim_us, kind)),
            JournalEvent::SessionStart => self.start_us = Some(sim_us),
            JournalEvent::Phase { phase } => self.phases.push((sim_us, phase)),
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
                self.login = Some(login);
                self.gave_up = gave_up;
                self.requests = requests;
                self.files = files;
                self.end_us = Some(sim_us);
            }
        }
    }

    /// Renders the journal as one versioned JSONL line (no trailing
    /// newline). Key order is part of the v1 schema and pinned by the
    /// golden test — do not reorder without bumping [`JOURNAL_VERSION`].
    ///
    /// Integers and the address are formatted by hand, not with
    /// `write!`: a study renders one line per probed address, and the
    /// formatting machinery per field would dominate that cost.
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"v\":");
        push_u64(out, JOURNAL_VERSION);
        out.push_str(",\"ip\":\"");
        for (i, octet) in self.ip.to_be_bytes().into_iter().enumerate() {
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
        push_opt_str(out, self.verdict);
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
        push_opt_str(out, self.login);
        out.push_str(",\"gave_up\":");
        push_opt_str(out, self.gave_up);
        out.push_str(",\"start_us\":");
        push_opt_u64(out, self.start_us);
        out.push_str(",\"end_us\":");
        push_opt_u64(out, self.end_us);
        out.push('}');
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    if n < 10 {
        // Most numbers on a silent address's line: tags and zeros.
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

/// Appends a `[[sim_us,"label"],…]` timeline body. Labels are
/// `'static` identifiers written verbatim, as v1 always has.
fn push_labelled(out: &mut String, items: &[(u64, &'static str)]) {
    for (i, &(us, label)) in items.iter().enumerate() {
        push_pair_head(out, i, us);
        out.push('"');
        out.push_str(label);
        out.push_str("\"]");
    }
}

fn push_opt_str(out: &mut String, v: Option<&str>) {
    match v {
        Some(s) => {
            out.push('"');
            crate::recorder::escape_json(s, out);
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
    /// Number of lines (one per journaled host).
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

    fn push(&mut self, journal: &HostJournal) {
        journal.render(&mut self.text);
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
        match word & ((1 << KIND_BITS) - 1) {
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

    /// Renders one line per host into `out`, hosts in address order and
    /// each host's events in arrival order; a line's batch tag is the
    /// batch of its host's first event. Empties the log, keeping its
    /// capacity for the next batch.
    pub(crate) fn drain_into(&mut self, shard: u64, out: &mut JournalBuf) {
        assert!(self.entries.len() <= u32::MAX as usize, "journal log exceeds 2^32 events");
        self.keys.clear();
        self.keys.extend(
            self.entries.iter().enumerate().map(|(ix, e)| u64::from(e.ip) << 32 | ix as u64),
        );
        // Keys are unique, so the unstable sort orders each host's
        // events by arrival exactly.
        self.keys.sort_unstable();
        let mut journal = HostJournal::default();
        for host in self.keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            let first = host[0] as u32 as usize;
            let batch_run = self.batches.partition_point(|&(start, _)| start <= first) - 1;
            journal.reset((host[0] >> 32) as u32, shard, self.batches[batch_run].1);
            for &key in host {
                let entry = self.entries[key as u32 as usize];
                journal.note(entry.sim_us, &self.event(entry.word));
            }
            out.push(&journal);
        }
        self.entries.clear();
        self.wide.clear();
        self.batches.clear();
    }
}

/// An entry payload from an index that must fit in its bits.
fn payload(ix: usize) -> u32 {
    assert!((ix as u64) < PAYLOAD_LIMIT, "journal log payload index overflow");
    ix as u32
}

// ---------------------------------------------------------------------
// Parsing: owned journal records, reconstructed from the JSONL file
// alone (the vendored serde is a stub, so this is a hand-rolled reader
// for the pinned v1 schema).
// ---------------------------------------------------------------------

/// A journal line parsed back into owned data; everything `ftpcloud
/// explain` needs to reconstruct a host's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedJournal {
    /// The host this journal describes.
    pub ip: Ipv4Addr,
    /// Shard that executed the host.
    pub shard: u64,
    /// Batch (streamed runs; 0 in-memory) that executed the host.
    pub batch: u64,
    /// Probe transmissions as `(sim_us, attempt)`.
    pub probe_tx: Vec<(u64, u64)>,
    /// Probe answers as `(sim_us, status)`.
    pub probe_rx: Vec<(u64, String)>,
    /// Final scan verdict, when the scanner resolved one.
    pub verdict: Option<String>,
    /// Fault-layer encounters as `(sim_us, kind)`.
    pub faults: Vec<(u64, String)>,
    /// Session phase transitions as `(sim_us, phase)`.
    pub phases: Vec<(u64, String)>,
    /// Connect retries as `(sim_us, attempt, backoff_us)`.
    pub retries: Vec<(u64, u64, u64)>,
    /// Reply tallies by class (1xx..5xx, other).
    pub replies: [u64; REPLY_CLASSES],
    /// Bytes received on data channels.
    pub listing_bytes: u64,
    /// Control-channel requests issued.
    pub requests: u64,
    /// Files enumerated.
    pub files: u64,
    /// Login outcome label, when a session finished.
    pub login: Option<String>,
    /// Give-up reason label, when the enumerator gave up.
    pub gave_up: Option<String>,
    /// Session open sim-time.
    pub start_us: Option<u64>,
    /// Session close sim-time.
    pub end_us: Option<u64>,
}

impl ParsedJournal {
    /// Parses one v1 journal line; `None` on malformed input or an
    /// unsupported version.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<ParsedJournal> {
        let json = Json::parse(line)?;
        let obj = json.as_obj()?;
        let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        if get("v")?.as_u64()? != JOURNAL_VERSION {
            return None;
        }
        let ip: Ipv4Addr = get("ip")?.as_str()?.parse().ok()?;
        let pair_num = |v: &Json| -> Option<(u64, u64)> {
            let a = v.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_u64()?))
        };
        let pair_str = |v: &Json| -> Option<(u64, String)> {
            let a = v.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_str()?.to_owned()))
        };
        let triple = |v: &Json| -> Option<(u64, u64, u64)> {
            let a = v.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_u64()?, a.get(2)?.as_u64()?))
        };
        let mut replies = [0u64; REPLY_CLASSES];
        for (slot, v) in replies.iter_mut().zip(get("replies")?.as_arr()?.iter()) {
            *slot = v.as_u64()?;
        }
        Some(ParsedJournal {
            ip,
            shard: get("shard")?.as_u64()?,
            batch: get("batch")?.as_u64()?,
            probe_tx: get("probe_tx")?.as_arr()?.iter().filter_map(pair_num).collect(),
            probe_rx: get("probe_rx")?.as_arr()?.iter().filter_map(pair_str).collect(),
            verdict: get("verdict")?.as_str().map(str::to_owned),
            faults: get("faults")?.as_arr()?.iter().filter_map(pair_str).collect(),
            phases: get("phases")?.as_arr()?.iter().filter_map(pair_str).collect(),
            retries: get("retries")?.as_arr()?.iter().filter_map(triple).collect(),
            replies,
            listing_bytes: get("listing_bytes")?.as_u64()?,
            requests: get("requests")?.as_u64()?,
            files: get("files")?.as_u64()?,
            login: get("login")?.as_str().map(str::to_owned),
            gave_up: get("gave_up")?.as_str().map(str::to_owned),
            start_us: get("start_us")?.as_u64(),
            end_us: get("end_us")?.as_u64(),
        })
    }

    /// Reads the `(shard, batch)` tags of a v1 line from its fixed
    /// prefix, without parsing the rest; `None` for anything else.
    #[must_use]
    pub fn cell(line: &str) -> Option<(u64, u64)> {
        let (version, rest) = leading_u64(line.strip_prefix("{\"v\":")?)?;
        let rest = rest.strip_prefix(",\"ip\":\"")?;
        let rest = &rest[rest.find('"')?..];
        let (shard, rest) = leading_u64(rest.strip_prefix("\",\"shard\":")?)?;
        let (batch, rest) = leading_u64(rest.strip_prefix(",\"batch\":")?)?;
        (version == JOURNAL_VERSION && rest.starts_with(',')).then_some((shard, batch))
    }

    /// Parses a whole journal file (one line per host), skipping blank
    /// lines; `None` if any non-blank line fails to parse.
    #[must_use]
    pub fn parse_file(text: &str) -> Option<Vec<ParsedJournal>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(ParsedJournal::parse_line)
            .collect()
    }

    /// The partition-invariant projection of this journal: shard, batch,
    /// and every sim-time coordinate zeroed, keeping event order,
    /// statuses, attempt counts, backoff *durations* (pure per-host
    /// quantities), tallies, and outcomes. Two runs of the same world at
    /// any shard count × batch size agree on this projection.
    #[must_use]
    pub fn normalized(&self) -> ParsedJournal {
        let mut n = self.clone();
        n.shard = 0;
        n.batch = 0;
        for (us, _) in &mut n.probe_tx {
            *us = 0;
        }
        for (us, _) in &mut n.probe_rx {
            *us = 0;
        }
        for (us, _) in &mut n.faults {
            *us = 0;
        }
        for (us, _) in &mut n.phases {
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
    /// Purely a function of the parsed record, so the output is stable
    /// across re-renders and re-runs.
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

/// Splits the decimal number leading `s` from what follows it.
fn leading_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.bytes().position(|b| !b.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Aggregate view over a parsed journal file: the `--top` summaries and
/// the counts `ftpcloud explain` turns into a funnel check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Journaled hosts (= addresses the scanner touched).
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

/// Builds the aggregate summary from parsed journal records.
#[must_use]
pub fn summarize(journals: &[ParsedJournal]) -> JournalSummary {
    use std::collections::BTreeMap;
    let mut gave: BTreeMap<String, u64> = BTreeMap::new();
    let mut faults: BTreeMap<String, u64> = BTreeMap::new();
    let mut s = JournalSummary { hosts: journals.len() as u64, ..JournalSummary::default() };
    for j in journals {
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
            *gave.entry(reason.clone()).or_default() += 1;
        }
        for (_, kind) in &j.faults {
            *faults.entry(kind.clone()).or_default() += 1;
        }
        s.retries += j.retries.len() as u64;
    }
    let rank = |m: BTreeMap<String, u64>| {
        let mut v: Vec<(String, u64)> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    };
    s.gave_up = rank(gave);
    s.faults = rank(faults);
    s
}

// ---------------------------------------------------------------------
// Minimal JSON reader for the journal's own output (numbers are u64,
// no nested objects beyond the top level).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Json {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => {
            if b.get(*pos..*pos + 4)? == b"null" {
                *pos += 4;
                Some(Json::Null)
            } else {
                None
            }
        }
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match *b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if *b.get(*pos)? != b':' {
                    return None;
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match *b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'0'..=b'9' => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos]).ok()?.parse().ok().map(Json::Num)
        }
        _ => None,
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through; find the char span.
                let s = std::str::from_utf8(&b[*pos..]).ok()?;
                let ch = s.chars().next()?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
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
    /// address formatting must not change a byte of the v1 format.
    #[test]
    fn render_bytes_are_pinned() {
        const BODY: &str = r#""shard":18446744073709551615,"batch":18446744073709551615,"probe_tx":[[0,1],[18446744073709551615,255]],"probe_rx":[[7,"filtered"],[18446744073709551615,"open"]],"verdict":"open","faults":[[10,"tarpit"],[18446744073709551615,"syn_blackhole"]],"phases":[[0,"connecting"],[18446744073709551615,"banner"]],"retries":[[99,1,0],[18446744073709551615,4294967295,18446744073709551615]],"replies":[2,18446744073709551615,1,1,1,4],"listing_bytes":18446744073709551615,"requests":4294967295,"files":18446744073709551615,"login":"denied","gave_up":"step_timeout","start_us":0,"end_us":18446744073709551615}"#;
        for (ip, text) in [
            (Ipv4Addr::new(0, 0, 0, 0), "0.0.0.0"),
            (Ipv4Addr::new(255, 255, 255, 255), "255.255.255.255"),
        ] {
            let mut line = String::new();
            extremes(ip).render(&mut line);
            assert_eq!(line, format!(r#"{{"v":1,"ip":"{text}",{BODY}"#));
        }

        // Rendering appends: an empty journal after existing text.
        let mut out = String::from("x");
        HostJournal::new(Ipv4Addr::new(10, 3, 7, 9), 0, 0).render(&mut out);
        assert_eq!(
            out,
            r#"x{"v":1,"ip":"10.3.7.9","shard":0,"batch":0,"probe_tx":[],"probe_rx":[],"verdict":null,"faults":[],"phases":[],"retries":[],"replies":[0,0,0,0,0,0],"listing_bytes":0,"requests":0,"files":0,"login":null,"gave_up":null,"start_us":null,"end_us":null}"#
        );
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut line = String::new();
        sample().render(&mut line);
        assert!(line.starts_with("{\"v\":1,\"ip\":\"10.3.7.9\",\"shard\":2,\"batch\":5,"));
        let p = ParsedJournal::parse_line(&line).expect("line parses");
        assert_eq!(p.ip, Ipv4Addr::new(10, 3, 7, 9));
        assert_eq!(p.shard, 2);
        assert_eq!(p.batch, 5);
        assert_eq!(p.probe_tx, vec![(1_000, 1)]);
        assert_eq!(p.probe_rx, vec![(21_000, "open".to_owned())]);
        assert_eq!(p.verdict.as_deref(), Some("open"));
        assert_eq!(p.faults, vec![(32_000, "tarpit".to_owned())]);
        assert_eq!(p.retries, vec![(35_000, 1, 250_000)]);
        assert_eq!(p.replies, [0, 1, 0, 0, 1, 0]);
        assert_eq!(p.listing_bytes, 512);
        assert_eq!(p.requests, 7);
        assert_eq!(p.files, 0);
        assert_eq!(p.login.as_deref(), Some("denied"));
        assert_eq!(p.gave_up.as_deref(), Some("step_timeout"));
        assert_eq!(p.start_us, Some(30_000));
        assert_eq!(p.end_us, Some(90_000));
    }

    #[test]
    fn normalization_strips_partition_coordinates() {
        let mut line = String::new();
        sample().render(&mut line);
        let p = ParsedJournal::parse_line(&line).unwrap();
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
        let p = ParsedJournal::parse_line(&line).unwrap();
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
        let p = ParsedJournal::parse_line(&line).unwrap();
        let mut other = p.clone();
        other.ip = Ipv4Addr::new(10, 3, 7, 10);
        other.gave_up = None;
        other.login = Some("anonymous".to_owned());
        other.faults.clear();
        let s = summarize(&[p, other]);
        assert_eq!(s.hosts, 2);
        assert_eq!(s.open, 2);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.ftp, 2);
        assert_eq!(s.anonymous, 1);
        assert_eq!(s.gave_up, vec![("step_timeout".to_owned(), 1)]);
        assert_eq!(s.faults, vec![("tarpit".to_owned(), 1)]);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn malformed_and_wrong_version_lines_are_rejected() {
        assert!(ParsedJournal::parse_line("not json").is_none());
        assert!(ParsedJournal::parse_line("{\"v\":99,\"ip\":\"1.2.3.4\"}").is_none());
        let mut line = String::new();
        sample().render(&mut line);
        assert!(ParsedJournal::parse_file(&format!("{line}\n\n{line}\n")).is_some());
        assert!(ParsedJournal::parse_file("{}\n").is_none());
    }

    #[test]
    fn cell_reads_the_partition_tags() {
        let mut line = String::new();
        sample().render(&mut line);
        assert_eq!(ParsedJournal::cell(&line), Some((2, 5)));
        let mut line = String::new();
        extremes(Ipv4Addr::new(255, 255, 255, 255)).render(&mut line);
        assert_eq!(ParsedJournal::cell(&line), Some((u64::MAX, u64::MAX)));
        assert_eq!(ParsedJournal::cell(&line[..40]), None, "torn inside the tags");
        assert_eq!(ParsedJournal::cell(&line.replacen("\"v\":1", "\"v\":2", 1)), None);
        assert_eq!(ParsedJournal::cell("not json"), None);
    }
}
