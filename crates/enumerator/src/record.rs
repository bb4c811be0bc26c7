//! Per-host enumeration records: the study's raw dataset.

use ftp_proto::listing::Readability;
use ftp_proto::HostPort;
use serde::{Deserialize, Serialize};
use simtls::SimCertificate;
use std::net::Ipv4Addr;

/// Outcome of the anonymous-login attempt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoginOutcome {
    /// Login not attempted: the banner stated anonymous access is
    /// forbidden (the enumerator's ethics rule).
    SkippedBannerForbids,
    /// Attempted and rejected.
    Denied,
    /// Anonymous session established.
    Anonymous,
    /// The host never presented a valid FTP greeting.
    NotFtp,
    /// The connection failed or timed out before login finished.
    Aborted,
}

impl LoginOutcome {
    /// Stable snake_case tag for structured diagnostics and journals.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            LoginOutcome::SkippedBannerForbids => "skipped_banner_forbids",
            LoginOutcome::Denied => "denied",
            LoginOutcome::Anonymous => "anonymous",
            LoginOutcome::NotFtp => "not_ftp",
            LoginOutcome::Aborted => "aborted",
        }
    }
}

/// Why the enumerator unilaterally abandoned a session.
///
/// `None` on a [`HostRecord`] means the session ended on the
/// enumerator's terms (orderly QUIT, or the server closed on us —
/// see [`HostRecord::server_terminated`]). `Some` marks a partial
/// record: everything gathered before the give-up point is retained,
/// and the reason says which defense fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GaveUpReason {
    /// Every connection attempt failed or timed out, retries included.
    ConnectFailed,
    /// A command went unanswered past the per-step deadline.
    StepTimeout,
    /// The whole session exceeded its wall-clock deadline.
    SessionDeadline,
    /// The control channel produced data no reply parser understood.
    ControlGarbage,
    /// An unterminated control line exceeded the codec's line limit.
    OverlongLine,
}

impl GaveUpReason {
    /// Stable snake_case tag for structured diagnostics and traces.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            GaveUpReason::ConnectFailed => "connect_failed",
            GaveUpReason::StepTimeout => "step_timeout",
            GaveUpReason::SessionDeadline => "session_deadline",
            GaveUpReason::ControlGarbage => "control_garbage",
            GaveUpReason::OverlongLine => "overlong_line",
        }
    }
}

/// Per-session tallies of the hostile behavior the enumerator absorbed.
///
/// These are the operator-facing health counters the paper's team
/// watched while hardening their tool (§III); [`RunSummary`] aggregates
/// them across a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FaultStats {
    /// Connection attempts beyond the first.
    pub connect_retries: u32,
    /// Steps abandoned because no reply arrived in time.
    pub step_timeouts: u32,
    /// Data-channel connections that failed or timed out.
    pub data_conn_failures: u32,
    /// Control lines rejected by the reply parser.
    pub garbage_lines: u32,
    /// Control lines that overran the codec's length limit.
    pub overlong_lines: u32,
}

impl FaultStats {
    /// True when the session saw no hostile behavior at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// What the enumerator learned from `robots.txt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RobotsInfo {
    /// The file existed and parsed.
    pub present: bool,
    /// The policy excluded the entire filesystem.
    pub denies_all: bool,
}

/// One file or directory observed during traversal: a borrowed view of
/// one [`FileTable`] row.
///
/// `Copy`, and every string accessor returns a slice tied to the
/// *table's* lifetime (`self` is taken by value), so callers can hold
/// names and extensions in borrowed seen-sets while iterating.
#[derive(Debug, Clone, Copy)]
pub struct FileEntryRef<'a> {
    /// Full canonical path.
    pub path: &'a str,
    /// True for directories.
    pub is_dir: bool,
    /// Size, when the listing exposed it.
    pub size: Option<u64>,
    /// The paper's three-way readability classification.
    pub readability: Readability,
    /// Owner column, when exposed (`ftp`, `root`, …).
    pub owner: Option<&'a str>,
    /// All-users write bit, when permissions were exposed.
    pub other_writable: Option<bool>,
    name: &'a str,
    ext: &'a str,
}

impl<'a> FileEntryRef<'a> {
    /// The file's name (final path component).
    pub fn name(self) -> &'a str {
        self.name
    }

    /// Lower-cased extension without the dot, if any — precomputed at
    /// insertion time, so this is a slice lookup, not an allocation.
    pub fn extension(self) -> Option<&'a str> {
        if self.ext.is_empty() {
            None
        } else {
            Some(self.ext)
        }
    }
}

/// Arena-backed storage for a host's observed files.
///
/// Owned rows would cost four-plus heap allocations each (path
/// `String`, optional owner `String`, and a fresh lowercase `String` per
/// `extension()` call in every analysis pass). This table stores all
/// paths in one arena string, interns the handful of distinct owner
/// names per host, and precomputes lowercase extensions into a side
/// arena; each row's offsets and scalar fields sit together in one
/// fixed-size `Row`, so a row costs one push to `rows` rather than
/// one per column. Row access hands out [`FileEntryRef`] slices and
/// never allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileTable {
    /// Every path, concatenated; row `i` is
    /// `paths[rows[i-1].path_end..rows[i].path_end]`.
    paths: String,
    /// Lower-cased extensions, concatenated; zero-length slice = none.
    ext_buf: String,
    rows: Vec<Row>,
    owners: Vec<String>,
}

/// One [`FileTable`] row: arena offsets plus the scalar columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Row {
    /// End of the row's path in `paths` (it starts at the previous
    /// row's end).
    path_end: u32,
    /// Byte offset into `paths` where the row's final component begins.
    name_start: u32,
    /// End of the row's extension in `ext_buf` (it starts at the
    /// previous row's end).
    ext_end: u32,
    /// Index into `owners`, or `u32::MAX` for "owner column absent".
    owner_ix: u32,
    size: Option<u64>,
    is_dir: bool,
    readability: Readability,
    other_writable: Option<bool>,
}

impl FileTable {
    /// Number of rows (files and directories).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row from its parts without materializing the joined
    /// path: `dir` + `/` + `name` is written straight into the arena.
    /// Canonical directories never end in `/` except the root itself.
    #[allow(clippy::too_many_arguments)]
    pub fn push_parts(
        &mut self,
        dir: &str,
        name: &str,
        is_dir: bool,
        size: Option<u64>,
        readability: Readability,
        owner: Option<&str>,
        other_writable: Option<bool>,
    ) {
        if dir != "/" {
            self.paths.push_str(dir);
        }
        self.paths.push('/');
        let name_start = self.paths.len() as u32;
        self.paths.push_str(name);
        if let Some(dot) = name.rfind('.') {
            if dot != 0 && dot + 1 != name.len() {
                // ASCII lowercasing leaves every other byte alone, so it
                // can run on the copied bytes in place.
                let ext_start = self.ext_buf.len();
                self.ext_buf.push_str(&name[dot + 1..]);
                self.ext_buf[ext_start..].make_ascii_lowercase();
            }
        }
        let owner_ix = match owner {
            None => u32::MAX,
            // Hosts expose a handful of distinct owners at most, so a
            // linear probe beats a hash map here.
            Some(o) => match self.owners.iter().position(|have| have == o) {
                Some(i) => i as u32,
                None => {
                    self.owners.push(o.to_owned());
                    (self.owners.len() - 1) as u32
                }
            },
        };
        self.rows.push(Row {
            path_end: self.paths.len() as u32,
            name_start,
            ext_end: self.ext_buf.len() as u32,
            owner_ix,
            size,
            is_dir,
            readability,
            other_writable,
        });
    }

    /// The row at `ix`. Panics when out of bounds, like slice indexing.
    pub fn get(&self, ix: usize) -> FileEntryRef<'_> {
        let row = self.rows[ix];
        let (path_start, ext_start) = match ix.checked_sub(1).map(|p| self.rows[p]) {
            Some(prev) => (prev.path_end as usize, prev.ext_end as usize),
            None => (0, 0),
        };
        let path_end = row.path_end as usize;
        FileEntryRef {
            path: &self.paths[path_start..path_end],
            name: &self.paths[row.name_start as usize..path_end],
            ext: &self.ext_buf[ext_start..row.ext_end as usize],
            is_dir: row.is_dir,
            size: row.size,
            readability: row.readability,
            owner: match row.owner_ix {
                u32::MAX => None,
                i => Some(self.owners[i as usize].as_str()),
            },
            other_writable: row.other_writable,
        }
    }

    /// Iterates rows as borrowed [`FileEntryRef`] views.
    pub fn iter(&self) -> FileTableIter<'_> {
        FileTableIter { table: self, ix: 0 }
    }

    /// The most recently pushed path, if any — lets the traversal loop
    /// build its visited/queue keys without re-joining the path.
    pub fn last_path(&self) -> Option<&str> {
        let ix = self.len().checked_sub(1)?;
        Some(self.get(ix).path)
    }
}

/// Borrowing iterator over [`FileTable`] rows.
#[derive(Debug, Clone)]
pub struct FileTableIter<'a> {
    table: &'a FileTable,
    ix: usize,
}

impl<'a> Iterator for FileTableIter<'a> {
    type Item = FileEntryRef<'a>;

    fn next(&mut self) -> Option<FileEntryRef<'a>> {
        if self.ix >= self.table.len() {
            return None;
        }
        let row = self.table.get(self.ix);
        self.ix += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.table.len() - self.ix;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FileTableIter<'_> {}

impl<'a> IntoIterator for &'a FileTable {
    type Item = FileEntryRef<'a>;
    type IntoIter = FileTableIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// FTPS observation for one host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FtpsObservation {
    /// `AUTH TLS`/`AUTH SSL` accepted.
    pub supported: bool,
    /// Plaintext login was refused pending TLS (FTPS required).
    pub required_before_login: bool,
    /// The certificate captured from the simulated handshake.
    pub cert: Option<SimCertificate>,
}

/// Everything the enumerator learned about one host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostRecord {
    /// The host address.
    pub ip: Ipv4Addr,
    /// Raw banner text (`220` body), if any arrived.
    pub banner: Option<String>,
    /// The host sent a syntactically valid FTP greeting.
    pub ftp_compliant: bool,
    /// Login outcome.
    pub login: LoginOutcome,
    /// robots.txt findings (only meaningful after login).
    pub robots: RobotsInfo,
    /// Every file and directory observed, in columnar form.
    pub files: FileTable,
    /// Traversal stopped at the request cap (the paper's 26.7 K
    /// ">500 requests" population).
    pub truncated: bool,
    /// The server closed the control channel mid-session.
    pub server_terminated: bool,
    /// Control-channel commands issued.
    pub requests_used: u32,
    /// `SYST` reply text.
    pub syst: Option<String>,
    /// `HELP` reply text (joined lines).
    pub help: Option<String>,
    /// `FEAT` feature lines.
    pub feat: Vec<String>,
    /// `SITE` reply text.
    pub site: Option<String>,
    /// FTPS observation.
    pub ftps: FtpsObservation,
    /// Host-port tuple from the first `227` reply (NAT detection: a
    /// private or mismatching address reveals NAT deployment).
    pub pasv_addr: Option<HostPort>,
    /// `PORT` probe verdict: `Some(true)` = accepted a third-party
    /// address (bounce-vulnerable), `Some(false)` = rejected it,
    /// `None` = not probed.
    pub port_accepts_third_party: Option<bool>,
    /// Listing lines no parser understood.
    pub unparsed_lines: u64,
    /// Set when the enumerator abandoned the session; the record is
    /// partial but everything gathered before that point is kept.
    pub gave_up: Option<GaveUpReason>,
    /// Hostile-behavior tallies for this session.
    pub faults: FaultStats,
}

impl HostRecord {
    /// A fresh record for `ip`.
    pub fn new(ip: Ipv4Addr) -> Self {
        HostRecord {
            ip,
            banner: None,
            ftp_compliant: false,
            login: LoginOutcome::Aborted,
            robots: RobotsInfo::default(),
            files: FileTable::default(),
            truncated: false,
            server_terminated: false,
            requests_used: 0,
            syst: None,
            help: None,
            feat: Vec::new(),
            site: None,
            ftps: FtpsObservation::default(),
            pasv_addr: None,
            port_accepts_third_party: None,
            unparsed_lines: 0,
            gave_up: None,
            faults: FaultStats::default(),
        }
    }

    /// True when the anonymous session succeeded.
    pub fn is_anonymous(&self) -> bool {
        self.login == LoginOutcome::Anonymous
    }

    /// Count of non-directory entries.
    pub fn file_count(&self) -> usize {
        self.files.iter().filter(|f| !f.is_dir).count()
    }

    /// True when any (non-directory) data was observed — the paper's
    /// "exposed some form of data" 24% statistic.
    pub fn exposes_data(&self) -> bool {
        self.files.iter().any(|f| !f.is_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_extension() {
        let mut t = FileTable::default();
        for (dir, name) in [
            ("/pub/photos", "DSC_0001.JPG"),
            ("/x", "noext"),
            ("/x", ".hidden"),
            ("/x", "trailing."),
            ("/a", "b.tar.gz"),
            ("/", "readme.TXT"),
            ("/", "ÜBER.TÄR"),
        ] {
            t.push_parts(dir, name, false, None, Readability::Unknown, None, None);
        }
        let rows: Vec<(&str, &str, Option<&str>)> =
            t.iter().map(|r| (r.path, r.name(), r.extension())).collect();
        assert_eq!(
            rows,
            [
                ("/pub/photos/DSC_0001.JPG", "DSC_0001.JPG", Some("jpg")),
                ("/x/noext", "noext", None),
                ("/x/.hidden", ".hidden", None),
                ("/x/trailing.", "trailing.", None),
                ("/a/b.tar.gz", "b.tar.gz", Some("gz")),
                ("/readme.TXT", "readme.TXT", Some("txt")),
                // Only ASCII letters fold; other characters keep their case.
                ("/ÜBER.TÄR", "ÜBER.TÄR", Some("tÄr")),
            ]
        );
    }

    #[test]
    fn table_roundtrips_entries() {
        let mut t = FileTable::default();
        t.push_parts(
            "/pub/photos",
            "DSC_0001.JPG",
            false,
            Some(120),
            Readability::Readable,
            Some("ftp"),
            Some(false),
        );
        t.push_parts("/", "pub", true, None, Readability::Unknown, None, None);
        t.push_parts("/etc", "shadow", false, None, Readability::NonReadable, Some("root"), None);
        t.push_parts("/", "root-file", false, None, Readability::Unknown, None, None);
        assert_eq!(t.len(), 4);
        let rows: Vec<_> = t
            .iter()
            .map(|r| (r.path, r.is_dir, r.size, r.readability, r.owner, r.other_writable))
            .collect();
        assert_eq!(
            rows,
            [
                (
                    "/pub/photos/DSC_0001.JPG",
                    false,
                    Some(120),
                    Readability::Readable,
                    Some("ftp"),
                    Some(false)
                ),
                ("/pub", true, None, Readability::Unknown, None, None),
                ("/etc/shadow", false, None, Readability::NonReadable, Some("root"), None),
                ("/root-file", false, None, Readability::Unknown, None, None),
            ]
        );
        assert_eq!(t.last_path(), Some("/root-file"));
    }

    #[test]
    fn exposes_data_ignores_directories() {
        let mut r = HostRecord::new(Ipv4Addr::new(1, 2, 3, 4));
        assert!(!r.exposes_data());
        r.files.push_parts("/", "pub", true, None, Readability::Unknown, None, None);
        assert!(!r.exposes_data());
        r.files.push_parts("/pub", "file.txt", false, None, Readability::Unknown, None, None);
        assert!(r.exposes_data());
        assert_eq!(r.file_count(), 1);
    }

    #[test]
    fn fresh_record_defaults() {
        let r = HostRecord::new(Ipv4Addr::new(1, 1, 1, 1));
        assert!(!r.ftp_compliant);
        assert!(!r.is_anonymous());
        assert_eq!(r.login, LoginOutcome::Aborted);
        assert_eq!(r.port_accepts_third_party, None);
    }
}

/// Operational summary of an enumeration run — the tool telemetry an
/// operator watches (the paper's team iterated on exactly these signals
/// while hardening the enumerator, §III).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Hosts contacted.
    pub hosts: u64,
    /// Hosts that presented a valid FTP greeting.
    pub ftp: u64,
    /// Anonymous sessions established.
    pub anonymous: u64,
    /// Sessions the server terminated early.
    pub server_terminated: u64,
    /// Sessions that hit the request cap.
    pub truncated: u64,
    /// Sessions aborted by timeout/connect failure.
    pub aborted: u64,
    /// Total control-channel commands issued.
    pub total_requests: u64,
    /// Total file/directory entries observed.
    pub total_entries: u64,
    /// Listing lines no parser understood.
    pub unparsed_lines: u64,
    /// Sessions the enumerator abandoned (any [`GaveUpReason`]).
    pub gave_up: u64,
    /// Connection attempts beyond the first, summed over hosts.
    pub connect_retries: u64,
    /// Steps abandoned on the per-step deadline, summed over hosts.
    pub step_timeouts: u64,
    /// Data-channel connect failures, summed over hosts.
    pub data_conn_failures: u64,
    /// Control lines rejected as garbage (parser or codec), summed.
    pub garbage_lines: u64,
}

impl RunSummary {
    /// Aggregates a record set.
    pub fn from_records(records: &[HostRecord]) -> Self {
        let mut s = RunSummary::default();
        for r in records {
            s.fold(r);
        }
        s
    }

    /// Folds one record into the summary. Every field is a plain sum,
    /// so fold order is irrelevant and [`RunSummary::absorb`]-merging
    /// per-batch summaries equals one summary over all records — the
    /// law the streaming study runner relies on.
    pub fn fold(&mut self, r: &HostRecord) {
        self.hosts += 1;
        if r.ftp_compliant {
            self.ftp += 1;
        }
        if r.is_anonymous() {
            self.anonymous += 1;
        }
        if r.server_terminated {
            self.server_terminated += 1;
        }
        if r.truncated {
            self.truncated += 1;
        }
        if r.login == LoginOutcome::Aborted {
            self.aborted += 1;
        }
        self.total_requests += u64::from(r.requests_used);
        self.total_entries += r.files.len() as u64;
        self.unparsed_lines += r.unparsed_lines;
        if r.gave_up.is_some() {
            self.gave_up += 1;
        }
        self.connect_retries += u64::from(r.faults.connect_retries);
        self.step_timeouts += u64::from(r.faults.step_timeouts);
        self.data_conn_failures += u64::from(r.faults.data_conn_failures);
        self.garbage_lines +=
            u64::from(r.faults.garbage_lines) + u64::from(r.faults.overlong_lines);
    }

    /// Adds another summary field-by-field (commutative, associative).
    pub fn absorb(&mut self, other: &RunSummary) {
        self.hosts += other.hosts;
        self.ftp += other.ftp;
        self.anonymous += other.anonymous;
        self.server_terminated += other.server_terminated;
        self.truncated += other.truncated;
        self.aborted += other.aborted;
        self.total_requests += other.total_requests;
        self.total_entries += other.total_entries;
        self.unparsed_lines += other.unparsed_lines;
        self.gave_up += other.gave_up;
        self.connect_retries += other.connect_retries;
        self.step_timeouts += other.step_timeouts;
        self.data_conn_failures += other.data_conn_failures;
        self.garbage_lines += other.garbage_lines;
    }

    /// Mean commands per contacted host.
    pub fn mean_requests(&self) -> f64 {
        if self.hosts == 0 {
            0.0
        } else {
            self.total_requests as f64 / self.hosts as f64
        }
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn aggregates_records() {
        let mut a = HostRecord::new(Ipv4Addr::new(1, 1, 1, 1));
        a.ftp_compliant = true;
        a.login = LoginOutcome::Anonymous;
        a.requests_used = 10;
        a.truncated = true;
        let mut b = HostRecord::new(Ipv4Addr::new(1, 1, 1, 2));
        b.login = LoginOutcome::Aborted;
        b.requests_used = 2;
        let s = RunSummary::from_records(&[a, b]);
        assert_eq!(s.hosts, 2);
        assert_eq!(s.ftp, 1);
        assert_eq!(s.anonymous, 1);
        assert_eq!(s.truncated, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.total_requests, 12);
        assert!((s.mean_requests() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = RunSummary::from_records(&[]);
        assert_eq!(s.hosts, 0);
        assert_eq!(s.mean_requests(), 0.0);
    }

    #[test]
    fn absorb_of_splits_equals_whole() {
        let mut a = HostRecord::new(Ipv4Addr::new(1, 1, 1, 1));
        a.ftp_compliant = true;
        a.requests_used = 10;
        a.faults.garbage_lines = 3;
        let mut b = HostRecord::new(Ipv4Addr::new(1, 1, 1, 2));
        b.requests_used = 2;
        b.unparsed_lines = 5;
        let mut c = HostRecord::new(Ipv4Addr::new(1, 1, 1, 3));
        c.truncated = true;
        let whole = RunSummary::from_records(&[a.clone(), b.clone(), c.clone()]);
        // Any batch split, any merge order.
        let mut merged = RunSummary::from_records(&[c]);
        merged.absorb(&RunSummary::from_records(&[a, b]));
        assert_eq!(merged, whole);
    }
}
