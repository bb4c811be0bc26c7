//! Per-host enumeration records: the study's raw dataset.
//!
//! A record's listing is a [`FileTable`]: rows of 32 bytes that point
//! into a name arena, a directory arena holding each listed directory
//! once per listing, and an extension arena. A file's path is its
//! directory and its name, joined only when a caller asks
//! ([`FileEntryRef::path`]).

use ftp_proto::listing::Readability;
use ftp_proto::HostPort;
use serde::{Deserialize, Serialize};
use simtls::SimCertificate;
use std::fmt;
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
    /// The listed directory the entry was found in: `/`, or a canonical
    /// path such as `/pub/photos`.
    pub dir: &'a str,
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
    /// The file's name (final path component, as listed).
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

    /// Full canonical path: the directory and the name, joined.
    pub fn path(self) -> String {
        let mut path = String::with_capacity(self.dir.len() + 1 + self.name.len());
        self.push_path(&mut path);
        path
    }

    /// Appends [`Self::path`] to `out`, for callers that reuse a buffer.
    pub(crate) fn push_path(self, out: &mut String) {
        if self.dir != "/" {
            out.push_str(self.dir);
        }
        out.push('/');
        out.push_str(self.name);
    }

    /// The bytes of [`Self::path`], without joining them.
    fn path_bytes(self) -> impl Iterator<Item = u8> + 'a {
        let dir = if self.dir == "/" { "" } else { self.dir };
        dir.bytes().chain(std::iter::once(b'/')).chain(self.name.bytes())
    }
}

/// Arena-backed storage for a host's observed files.
///
/// Owned rows would cost four-plus heap allocations each (path
/// `String`, optional owner `String`, and a fresh lowercase `String` per
/// `extension()` call in every analysis pass). This table keeps three
/// arenas instead: the listed names, the listed directories and the
/// precomputed lowercase extensions, and interns the handful of
/// distinct owner names per host. A row references its directory
/// rather than repeating it: a listing's rows arrive one after another
/// and share one directory, which the arena stores once per listing
/// (paths would repeat it once per file, most of a path's bytes). Each
/// row's offsets and scalar columns sit together in one 32-byte
/// `Row`, so a row costs one push to `rows` rather than one per
/// column. Row access hands out [`FileEntryRef`] slices and never
/// allocates.
///
/// `Debug` prints, and `==` compares, the logical rows (path, is_dir,
/// size, readability, owner, other_writable), so neither depends on the
/// arena layout.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct FileTable {
    /// Every listed name, concatenated; row `i` is
    /// `names[rows[i-1].name_end..rows[i].name_end]`.
    names: String,
    /// Listed directories, concatenated, one per run of rows sharing
    /// it; directory `d` is `dirs[dir_ends[d-1]..dir_ends[d]]`.
    dirs: String,
    dir_ends: Vec<u32>,
    /// Lower-cased extensions, concatenated; zero-length slice = none.
    ext_buf: String,
    rows: Vec<Row>,
    owners: Vec<String>,
}

/// One [`FileTable`] row: arena offsets plus the scalar columns.
#[derive(Clone, Copy)]
struct Row {
    /// End of the row's name in `names` (it starts at the previous
    /// row's end).
    name_end: u32,
    /// End of the row's extension in `ext_buf` (it starts at the
    /// previous row's end).
    ext_end: u32,
    /// Index into `dir_ends`.
    dir_ix: u32,
    /// Index into `owners`, or `u32::MAX` for "owner column absent".
    owner_ix: u32,
    /// The listed size when [`HAS_SIZE`] is set, else 0.
    size: u64,
    /// [`IS_DIR`], [`HAS_SIZE`], the readability and write-bit flags.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Row>() <= 32);

/// How many of the latest distinct owners a new row's owner is looked
/// up among.
const OWNER_PROBE: usize = 16;

const IS_DIR: u8 = 1;
const HAS_SIZE: u8 = 1 << 1;
/// Neither readability flag: [`Readability::Unknown`].
const READABLE: u8 = 1 << 2;
const NON_READABLE: u8 = 1 << 3;
/// Set when the all-users write bit was exposed; [`OTHER_WRITABLE`]
/// then holds it.
const WRITE_KNOWN: u8 = 1 << 4;
const OTHER_WRITABLE: u8 = 1 << 5;

/// Bytes a [`FileTable`] stores, by structure: lengths, not capacities,
/// so growth slack is left out of the four columns and shows only in
/// `capacity`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableFootprint {
    /// The fixed-size rows.
    pub rows: usize,
    /// The name arena.
    pub names: usize,
    /// The directory arena and its offsets.
    pub dirs: usize,
    /// The extension arena.
    pub exts: usize,
    /// Bytes the same four columns have allocated: their sum plus any
    /// growth slack.
    pub capacity: usize,
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

    /// Appends a row from its parts, without joining them into a path.
    /// `dir` is canonical (`/`, or `/a/b` with no trailing `/`); it is
    /// stored only when it differs from the previous row's directory.
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
        debug_assert!(dir.starts_with('/'), "directories are canonical: {dir:?}");
        let last_dir_start = match self.dir_ends.len() {
            0 | 1 => 0,
            n => self.dir_ends[n - 2] as usize,
        };
        if self.dir_ends.is_empty() || self.dirs[last_dir_start..] != *dir {
            self.dirs.push_str(dir);
            self.dir_ends.push(self.dirs.len() as u32);
        }
        self.names.push_str(name);
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
            // Hosts expose a handful of distinct owners, so a short
            // linear probe beats a hash map. It looks at the latest
            // `OWNER_PROBE` only: a listing showing more stores some
            // twice, which costs bytes, not meaning, and keeps a hostile
            // listing of distinct owners linear.
            Some(o) => {
                let probed = self.owners.len().saturating_sub(OWNER_PROBE);
                match self.owners[probed..].iter().position(|have| have == o) {
                    Some(i) => (probed + i) as u32,
                    None => {
                        self.owners.push(o.to_owned());
                        (self.owners.len() - 1) as u32
                    }
                }
            }
        };
        let mut flags = match readability {
            Readability::Readable => READABLE,
            Readability::NonReadable => NON_READABLE,
            Readability::Unknown => 0,
        };
        if is_dir {
            flags |= IS_DIR;
        }
        if size.is_some() {
            flags |= HAS_SIZE;
        }
        match other_writable {
            Some(true) => flags |= WRITE_KNOWN | OTHER_WRITABLE,
            Some(false) => flags |= WRITE_KNOWN,
            None => {}
        }
        self.rows.push(Row {
            name_end: self.names.len() as u32,
            ext_end: self.ext_buf.len() as u32,
            dir_ix: (self.dir_ends.len() - 1) as u32,
            owner_ix,
            size: size.unwrap_or(0),
            flags,
        });
    }

    /// The row at `ix`. Panics when out of bounds, like slice indexing.
    pub fn get(&self, ix: usize) -> FileEntryRef<'_> {
        let row = self.rows[ix];
        let (name_start, ext_start) = match ix.checked_sub(1).map(|p| self.rows[p]) {
            Some(prev) => (prev.name_end as usize, prev.ext_end as usize),
            None => (0, 0),
        };
        let d = row.dir_ix as usize;
        let dir_start = d.checked_sub(1).map_or(0, |p| self.dir_ends[p] as usize);
        let flag = |f: u8| row.flags & f != 0;
        FileEntryRef {
            dir: &self.dirs[dir_start..self.dir_ends[d] as usize],
            name: &self.names[name_start..row.name_end as usize],
            ext: &self.ext_buf[ext_start..row.ext_end as usize],
            is_dir: flag(IS_DIR),
            size: flag(HAS_SIZE).then_some(row.size),
            readability: if flag(READABLE) {
                Readability::Readable
            } else if flag(NON_READABLE) {
                Readability::NonReadable
            } else {
                Readability::Unknown
            },
            owner: match row.owner_ix {
                u32::MAX => None,
                i => Some(self.owners[i as usize].as_str()),
            },
            other_writable: flag(WRITE_KNOWN).then_some(flag(OTHER_WRITABLE)),
        }
    }

    /// The most recently pushed row, if any.
    pub(crate) fn last(&self) -> Option<FileEntryRef<'_>> {
        Some(self.get(self.len().checked_sub(1)?))
    }

    /// Iterates rows as borrowed [`FileEntryRef`] views.
    pub fn iter(&self) -> FileTableIter<'_> {
        FileTableIter { table: self, ix: 0 }
    }

    /// Bytes the table stores, by structure.
    pub fn footprint(&self) -> TableFootprint {
        let u32_bytes = std::mem::size_of::<u32>();
        TableFootprint {
            rows: self.rows.len() * std::mem::size_of::<Row>(),
            names: self.names.len(),
            dirs: self.dirs.len() + self.dir_ends.len() * u32_bytes,
            exts: self.ext_buf.len(),
            capacity: self.rows.capacity() * std::mem::size_of::<Row>()
                + self.names.capacity()
                + self.dirs.capacity()
                + self.dir_ends.capacity() * u32_bytes
                + self.ext_buf.capacity(),
        }
    }

    /// Moves every column into an allocation of exactly its length and
    /// frees the growth buffers whole. A table grows a row at a time
    /// while its session lists directories; once the session closes it
    /// is only read.
    pub fn compact(&mut self) {
        *self = self.clone();
    }
}

impl fmt::Debug for FileTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(
                self.iter().map(|e| {
                    (e.path(), e.is_dir, e.size, e.readability, e.owner, e.other_writable)
                }),
            )
            .finish()
    }
}

impl PartialEq for FileTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.iter().zip(other).all(|(a, b)| {
                a.is_dir == b.is_dir
                    && a.size == b.size
                    && a.readability == b.readability
                    && a.owner == b.owner
                    && a.other_writable == b.other_writable
                    && a.path_bytes().eq(b.path_bytes())
            })
    }
}
impl Eq for FileTable {}

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
    use proptest::prelude::*;

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
        let paths: Vec<String> = t.iter().map(FileEntryRef::path).collect();
        let rows: Vec<(&str, &str, Option<&str>)> =
            t.iter().zip(&paths).map(|(r, p)| (p.as_str(), r.name(), r.extension())).collect();
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
        t.push_parts("/", "top-file", false, None, Readability::Unknown, None, None);
        assert_eq!(t.len(), 4);
        let paths: Vec<String> = t.iter().map(FileEntryRef::path).collect();
        let rows: Vec<_> = t
            .iter()
            .zip(&paths)
            .map(|(r, p)| (p.as_str(), r.is_dir, r.size, r.readability, r.owner, r.other_writable))
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
                ("/top-file", false, None, Readability::Unknown, None, None),
            ]
        );
        assert_eq!(t.last().map(FileEntryRef::path).as_deref(), Some("/top-file"));
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

    /// A naive row: what [`FileTable`]'s `Debug` prints and `==` compares.
    type ModelRow = (String, bool, Option<u64>, Readability, Option<String>, Option<bool>);

    fn logical_rows(t: &FileTable) -> Vec<ModelRow> {
        t.iter()
            .map(|e| {
                let owner = e.owner.map(str::to_owned);
                (e.path(), e.is_dir, e.size, e.readability, owner, e.other_writable)
            })
            .collect()
    }

    /// Draws bounded choices from one random word.
    struct Bits(u64);

    impl Bits {
        fn take(&mut self, n: usize) -> usize {
            let v = self.0 % n as u64;
            self.0 /= n as u64;
            v as usize
        }
    }

    const DIRS: [&str; 6] = ["/", "/pub", "/pub/photos", "/a b", "/ü/日本", "/pub/photos/2015"];
    /// Listed names: a `/` inside a name, spaces, non-ASCII, and every
    /// extension edge case.
    const NAMES: [&str; 9] = [
        "readme.TXT",
        "a/b.Tar",
        "my file.jpg",
        "ÜBER.TÄR",
        ".hidden",
        "trailing.",
        "noext",
        "x.y.Z",
        "dir/",
    ];

    fn model_extension(name: &str) -> Option<String> {
        match name.rfind('.') {
            Some(dot) if dot != 0 && dot + 1 != name.len() => {
                Some(name[dot + 1..].to_ascii_lowercase())
            }
            _ => None,
        }
    }

    proptest! {
        /// Any sequence of listings reads back as the naive rows, with
        /// each row's directory, name and extension.
        #[test]
        fn table_matches_a_naive_model(
            ops in proptest::collection::vec(any::<u64>(), 1..200)
        ) {
            let mut table = FileTable::default();
            let mut model: Vec<ModelRow> = Vec::new();
            let mut parts: Vec<(&str, &str)> = Vec::new();
            let mut dir = "/";
            for op in ops {
                let mut bits = Bits(op);
                // Rows arrive in listings. A quarter of them start a new
                // one, in any directory, so a directory can come back
                // after another.
                if bits.take(4) == 0 {
                    dir = DIRS[bits.take(DIRS.len())];
                }
                let name = NAMES[bits.take(NAMES.len())];
                let is_dir = bits.take(2) == 1;
                let size = match bits.take(4) {
                    0 => None,
                    1 => Some(u64::MAX),
                    2 => Some(0),
                    _ => Some(bits.take(1 << 20) as u64),
                };
                let readability =
                    [Readability::Readable, Readability::NonReadable, Readability::Unknown]
                        [bits.take(3)];
                let owner = match bits.take(5) {
                    0 => None,
                    k => Some(format!("user{k}")),
                };
                let other_writable = [None, Some(false), Some(true)][bits.take(3)];
                table.push_parts(
                    dir,
                    name,
                    is_dir,
                    size,
                    readability,
                    owner.as_deref(),
                    other_writable,
                );
                let path =
                    if dir == "/" { format!("/{name}") } else { format!("{dir}/{name}") };
                model.push((path, is_dir, size, readability, owner, other_writable));
                parts.push((dir, name));
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(logical_rows(&table), model.clone());
            prop_assert_eq!(format!("{table:?}"), format!("{model:?}"));
            for (e, &(dir, name)) in table.iter().zip(&parts) {
                prop_assert_eq!(e.dir, dir);
                prop_assert_eq!(e.name(), name);
                prop_assert_eq!(e.extension().map(str::to_owned), model_extension(name));
            }
            let last = table.last().map(FileEntryRef::path);
            prop_assert_eq!(last, model.last().map(|r| r.0.clone()));
            prop_assert_eq!(table.clone(), table);
        }
    }

    #[test]
    fn equality_and_debug_follow_the_joined_path() {
        let mut split_late = FileTable::default();
        split_late.push_parts("/a", "b/c", false, Some(1), Readability::Unknown, None, None);
        let mut split_early = FileTable::default();
        split_early.push_parts("/a/b", "c", false, Some(1), Readability::Unknown, None, None);
        assert_eq!(split_late, split_early);
        assert_eq!(format!("{split_late:?}"), format!("{split_early:?}"));
        assert_eq!(
            format!("{split_late:?}"),
            r#"[("/a/b/c", false, Some(1), Unknown, None, None)]"#
        );
        let mut other = FileTable::default();
        other.push_parts("/a/b", "c", false, None, Readability::Unknown, None, None);
        assert_ne!(split_early, other, "a missing size differs from any size");
    }

    #[test]
    fn many_owners_keep_their_names() {
        // More distinct owners than a u16 index holds, then the first
        // ones again, interleaved with rows showing none.
        const OWNERS: usize = 70_000;
        let mut t = FileTable::default();
        let owner = |i: usize| (!i.is_multiple_of(3)).then(|| format!("o{}", i % OWNERS));
        for i in 0..OWNERS + 100 {
            let o = owner(i);
            t.push_parts("/d", "f", false, None, Readability::Unknown, o.as_deref(), None);
        }
        for (i, e) in t.iter().enumerate() {
            assert_eq!(e.owner, owner(i).as_deref(), "row {i}");
        }
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
