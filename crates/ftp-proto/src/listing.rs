//! Directory-listing formats: UNIX `ls -l`, MS-DOS/IIS, EPLF and MLSD.
//!
//! `LIST` output is not standardized; the paper's enumerator had to parse
//! whatever each implementation produced. This module implements both
//! directions — parsing (for the enumerator and honeypot log analysis)
//! and rendering (for the simulated servers) — so the reproduction's
//! client and servers exercise realistic, mutually-independent code
//! paths: servers render a format, the enumerator sniffs and parses it.
//!
//! The `# Readable` / `# Non-readable` / `# Unk-readability` columns of
//! the paper's Table IX come straight from the permission bits carried
//! here: UNIX-style listings expose an all-users read bit, DOS-style
//! listings do not (the paper labels those files "unk-readability").

use crate::error::ProtoError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The listing dialect a server emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ListingFormat {
    /// `drwxr-xr-x  2 ftp ftp 4096 Jun 18  2015 pub` — the common case.
    #[default]
    Unix,
    /// `06-18-15  09:43AM       <DIR>          aspnet_client` — IIS/DOS.
    Dos,
    /// `+i8388621.48594,m825718503,r,s280,\tdjb.html` — EPLF.
    Eplf,
    /// RFC 3659 `MLSD` fact lines.
    Mlsd,
}

/// Whether the anonymous (all-users) read permission could be determined.
///
/// Mirrors the paper's three-way readability split (§III): UNIX listings
/// carry an "other" read bit; DOS-style listings carry no permissions at
/// all, so files on most Windows-based servers are *unk-readability*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Readability {
    /// All-users read bit set.
    Readable,
    /// All-users read bit clear.
    NonReadable,
    /// Listing format exposes no permission information.
    Unknown,
}

/// The `rwx` text of one permission triple, indexed by its three bits.
const RWX: [&str; 8] = ["---", "--x", "-w-", "-wx", "r--", "r-x", "rw-", "rwx"];

/// UNIX permission bits as shown in an `ls -l` mode string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permissions {
    bits: u16,
}

impl Permissions {
    /// Permissions from the low nine mode bits (`0o755`-style).
    pub fn from_mode(mode: u16) -> Self {
        Permissions { bits: mode & 0o777 }
    }

    /// The standard anonymous-directory permissions, `0o755`.
    pub fn public_dir() -> Self {
        Permissions::from_mode(0o755)
    }

    /// World-readable file permissions, `0o644`.
    pub fn public_file() -> Self {
        Permissions::from_mode(0o644)
    }

    /// Owner-only file permissions, `0o600`.
    pub fn private_file() -> Self {
        Permissions::from_mode(0o600)
    }

    /// The raw nine permission bits.
    pub fn mode(&self) -> u16 {
        self.bits
    }

    /// True if the all-users ("other") read bit is set — the bit the
    /// paper used to decide whether an anonymous user could likely
    /// retrieve a file.
    pub fn other_read(&self) -> bool {
        self.bits & 0o004 != 0
    }

    /// True if the all-users write bit is set.
    pub fn other_write(&self) -> bool {
        self.bits & 0o002 != 0
    }

    /// Renders the nine-character `rwxr-xr-x` suffix of a mode string.
    pub fn to_rwx(&self) -> String {
        self.rwx_triples().concat()
    }

    /// The owner, group and other `rwx` triples of the mode string.
    fn rwx_triples(self) -> [&'static str; 3] {
        [6u16, 3, 0].map(|shift| RWX[usize::from((self.bits >> shift) & 0o7)])
    }

    /// Parses the nine-character `rwx` triple-group; returns `None` on
    /// unexpected characters (setuid `s`/`t` letters are accepted).
    pub fn parse_rwx(s: &str) -> Option<Self> {
        Self::parse_rwx_bytes(s.as_bytes())
    }

    /// [`Permissions::parse_rwx`] over raw bytes. Mode strings are
    /// ASCII, so a byte of a multi-byte character never matches an
    /// expected letter: this rejects exactly what a char-wise scan
    /// would, and lets a caller read a mode out of a line without first
    /// knowing where its characters begin.
    fn parse_rwx_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 9 {
            return None;
        }
        let mut bits = 0u16;
        for (i, &c) in bytes.iter().enumerate() {
            let expected = [b'r', b'w', b'x'][i % 3];
            let set = match c {
                b'-' => false,
                b's' | b't' if expected == b'x' => true,
                b'S' | b'T' if expected == b'x' => false,
                c if c == expected => true,
                _ => return None,
            };
            if set {
                bits |= 1 << (8 - i);
            }
        }
        Some(Permissions { bits })
    }
}

impl fmt::Display for Permissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.rwx_triples().into_iter().try_for_each(|t| f.write_str(t))
    }
}

/// Modification-time text as parsed from a listing line, kept as slices
/// of the source columns so parsing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtimeRef<'a> {
    /// Format exposes no mtime.
    None,
    /// A single contiguous slice (EPLF `m…` fact, MLSD `modify=` value).
    Raw(&'a str),
    /// UNIX `ls -l` columns, conventionally joined as `month day tail`.
    Unix {
        /// Month name column (`Jun`).
        month: &'a str,
        /// Day-of-month column (`18`).
        day: &'a str,
        /// Time-or-year column (`09:43` or `2015`).
        tail: &'a str,
    },
    /// DOS columns, conventionally joined as `date time`.
    Dos {
        /// Date column (`06-18-15`).
        date: &'a str,
        /// Time column (`09:43AM`).
        time: &'a str,
    },
}

/// A parsed listing entry: every text field is a slice of the source
/// line, so parsing a 10 000-entry directory body allocates nothing —
/// the enumerator copies the fields it keeps straight into its columnar
/// `FileTable` arenas.
#[derive(Debug, Clone, Copy)]
pub struct ParsedEntryRef<'a> {
    /// File or directory name (final component only).
    pub name: &'a str,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes when the format exposes it.
    pub size: Option<u64>,
    /// UNIX permissions when the format exposes them.
    pub permissions: Option<Permissions>,
    /// Owner name when the format exposes it (e.g. `ftp`).
    pub owner: Option<&'a str>,
    /// Modification-time columns when the format exposes them.
    pub mtime: MtimeRef<'a>,
    /// True for symlinks (UNIX `l` type); the link target is stripped.
    pub is_symlink: bool,
}

impl ParsedEntryRef<'_> {
    /// The paper's three-way readability classification for this entry.
    pub fn readability(&self) -> Readability {
        match self.permissions {
            Some(p) if p.other_read() => Readability::Readable,
            Some(_) => Readability::NonReadable,
            None => Readability::Unknown,
        }
    }
}

/// Parses one listing line, trying the given format first and falling
/// back to sniffing the others — the tolerance strategy the paper's
/// enumerator converged on after iterative testing against live servers.
/// The returned entry's text fields are slices of `line`.
///
/// Lines that are recognized as noise (e.g. `total 52` headers) return
/// `Ok(None)`.
///
/// # Errors
///
/// Returns [`ProtoError::BadListing`] if no parser recognizes the line.
pub fn parse_line_ref(
    line: &str,
    hint: ListingFormat,
) -> Result<Option<ParsedEntryRef<'_>>, ProtoError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(None);
    }
    let order: [ListingFormat; 4] = match hint {
        ListingFormat::Unix => {
            [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd]
        }
        ListingFormat::Dos => {
            [ListingFormat::Dos, ListingFormat::Unix, ListingFormat::Eplf, ListingFormat::Mlsd]
        }
        ListingFormat::Eplf => {
            [ListingFormat::Eplf, ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Mlsd]
        }
        ListingFormat::Mlsd => {
            [ListingFormat::Mlsd, ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf]
        }
    };
    if line.starts_with("total ") && line[6..].trim().chars().all(|c| c.is_ascii_digit()) {
        return Ok(None);
    }
    for fmt in order {
        let parsed = match fmt {
            ListingFormat::Unix => parse_unix(line),
            ListingFormat::Dos => parse_dos(line),
            ListingFormat::Eplf => parse_eplf(line),
            ListingFormat::Mlsd => parse_mlsd(line),
        };
        if let Some(e) = parsed {
            return Ok(Some(e));
        }
    }
    Err(ProtoError::bad_listing(line))
}

/// The whitespace-separated tokens of a string from a byte offset on,
/// split exactly where `str::split_whitespace` splits. ASCII bytes are
/// classified directly; a `char` is decoded only at a byte ≥ 0x80, so a
/// listing line is tokenized in one pass over its bytes.
struct Tokens<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Tokens<'a> {
    /// Tokens of `s[from..]`; `from` must be a char boundary.
    fn new(s: &'a str, from: usize) -> Self {
        Tokens { s, pos: from }
    }

    /// Whether the non-ASCII `char` starting at byte `i` is whitespace,
    /// and its length in bytes.
    #[cold]
    fn wide_char(&self, i: usize) -> (bool, usize) {
        let c = self.s[i..].chars().next().expect("tokenizer stays on char boundaries");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// ASCII whitespace as `char::is_whitespace` defines it: the space and
/// `\t`..=`\r` (`u8::is_ascii_whitespace` leaves out `\x0B`).
fn is_ascii_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.s.as_bytes();
        let mut i = self.pos;
        let start = loop {
            let &b = bytes.get(i)?;
            if b >= 0x80 {
                let (space, n) = self.wide_char(i);
                if !space {
                    break i;
                }
                i += n;
            } else if is_ascii_space(b) {
                i += 1;
            } else {
                break i;
            }
        };
        while let Some(&b) = bytes.get(i) {
            if b > b' ' && b < 0x80 {
                // Printable ASCII: nearly every byte of a listing.
                i += 1;
            } else if b >= 0x80 {
                let (space, n) = self.wide_char(i);
                if space {
                    break;
                }
                i += n;
            } else if is_ascii_space(b) {
                break;
            } else {
                i += 1;
            }
        }
        self.pos = i;
        Some(&self.s[start..i])
    }
}

fn parse_unix(line: &str) -> Option<ParsedEntryRef<'_>> {
    // drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub
    // -rw-r--r--   1 1000     1000      1048576 Jun 18 09:43 photo.jpg
    // lrwxrwxrwx   1 root     root           11 Jan  1  2014 www -> /var/www
    let bytes = line.as_bytes();
    if bytes.len() < 11 {
        return None;
    }
    let (is_dir, is_symlink) = match bytes[0] {
        b'd' => (true, false),
        b'-' => (false, false),
        b'l' => (false, true),
        b'b' | b'c' | b'p' | b's' => (false, false),
        _ => return None,
    };
    // Read from the bytes: a valid mode is ASCII, so byte 10 is then a
    // char boundary; a mode cut by a multi-byte character is rejected.
    let perms = Permissions::parse_rwx_bytes(&bytes[1..10])?;
    // Tokenize: links owner group size month day time-or-year name...
    let mut tokens = Tokens::new(line, 10);
    let _links = tokens.next()?;
    let owner = tokens.next()?;
    let group_or_size = tokens.next()?;
    // Some embedded servers omit the group column; detect by checking if
    // the next token after `group_or_size` is a month name.
    let mut size_tok;
    let month;
    let maybe = tokens.next()?;
    if is_month(maybe) {
        size_tok = group_or_size;
        month = maybe;
    } else {
        size_tok = maybe;
        let m = tokens.next()?;
        if !is_month(m) {
            // device files have "maj, min" instead of size
            size_tok = m;
            let m2 = tokens.next()?;
            if !is_month(m2) {
                return None;
            }
            month = m2;
        } else {
            month = m;
        }
    }
    let day = tokens.next()?;
    let time_or_year = tokens.next()?;
    let size: Option<u64> = size_tok.trim_end_matches(',').parse().ok();
    // The name is everything after the time column in the original line.
    let time_pos = find_token_end(line, time_or_year)?;
    let mut name = line[time_pos..].trim_start();
    if name.is_empty() {
        return None;
    }
    if is_symlink {
        if let Some(ix) = name.find(" -> ") {
            name = &name[..ix];
        }
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: Some(perms),
        owner: Some(owner),
        mtime: MtimeRef::Unix { month, day, tail: time_or_year },
        is_symlink,
    })
}

fn is_month(s: &str) -> bool {
    matches!(
        s,
        "Jan" | "Feb" | "Mar" | "Apr" | "May" | "Jun" | "Jul" | "Aug" | "Sep" | "Oct" | "Nov"
            | "Dec"
    )
}

/// Byte offset just past the *time column* occurrence of `tok` in `line`.
///
/// Searches from the right — the name may itself contain month-like
/// text, but the time/year column precedes the name — for an occurrence
/// bounded by spaces (or the line's ends) with something after it. Once
/// an occurrence is rejected, the search resumes left of its start, so
/// occurrences never overlap. Both strings are UTF-8, so every byte-level
/// match of a non-empty `tok` starts and ends on char boundaries.
fn find_token_end(line: &str, tok: &str) -> Option<usize> {
    let (hay, needle) = (line.as_bytes(), tok.as_bytes());
    let (&last, head) = needle.split_last()?;
    // `end` is one past the last byte a match may cover.
    let mut end = hay.len();
    while end >= needle.len() {
        if hay[end - 1] != last || &hay[end - needle.len()..end - 1] != head {
            end -= 1;
            continue;
        }
        let pos = end - needle.len();
        let before_ok = pos == 0 || hay[pos - 1] == b' ';
        if before_ok && end < hay.len() && hay[end] == b' ' {
            return Some(end);
        }
        end = pos;
    }
    None
}

fn parse_dos(line: &str) -> Option<ParsedEntryRef<'_>> {
    // 06-18-15  09:43AM       <DIR>          aspnet_client
    // 06-18-15  09:43AM              1043901 products.mdb
    let mut tokens = Tokens::new(line, 0);
    let date = tokens.next()?;
    let time = tokens.next()?;
    if !looks_like_dos_date(date) || !looks_like_dos_time(time) {
        return None;
    }
    let size_or_dir = tokens.next()?;
    let (is_dir, size) = if size_or_dir.eq_ignore_ascii_case("<dir>") {
        (true, None)
    } else {
        (false, size_or_dir.parse::<u64>().ok())
    };
    if !is_dir && size.is_none() {
        return None;
    }
    let name_start = find_token_end(line, size_or_dir)?;
    let name = line[name_start..].trim_start();
    if name.is_empty() {
        return None;
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: None,
        owner: None,
        mtime: MtimeRef::Dos { date, time },
        is_symlink: false,
    })
}

fn looks_like_dos_date(s: &str) -> bool {
    let b = s.as_bytes();
    (b.len() == 8 || b.len() == 10)
        && b[2] == b'-'
        && b[5] == b'-'
        && b.iter().filter(|c| c.is_ascii_digit()).count() >= 6
}

fn looks_like_dos_time(s: &str) -> bool {
    let b = s.as_bytes();
    let meridiem = b.len() >= 2 && {
        let suffix = &b[b.len() - 2..];
        suffix.eq_ignore_ascii_case(b"AM") || suffix.eq_ignore_ascii_case(b"PM")
    };
    meridiem && s.contains(':')
}

fn parse_eplf(line: &str) -> Option<ParsedEntryRef<'_>> {
    // +i8388621.48594,m825718503,r,s280,\tdjb.html
    let rest = line.strip_prefix('+')?;
    let tab = rest.find('\t')?;
    let (facts, name) = (&rest[..tab], &rest[tab + 1..]);
    if name.is_empty() {
        return None;
    }
    let mut is_dir = false;
    let mut size = None;
    let mut mtime = MtimeRef::None;
    for fact in facts.split(',') {
        if fact == "/" {
            is_dir = true;
        } else if let Some(s) = fact.strip_prefix('s') {
            size = s.parse::<u64>().ok();
        } else if let Some(m) = fact.strip_prefix('m') {
            mtime = MtimeRef::Raw(m);
        }
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: None,
        owner: None,
        mtime,
        is_symlink: false,
    })
}

fn parse_mlsd(line: &str) -> Option<ParsedEntryRef<'_>> {
    // type=dir;modify=20150618094300;perm=el; pub
    let space = line.find("; ")?;
    let (facts, name) = (&line[..space + 1], &line[space + 2..]);
    if name.is_empty() || !facts.contains('=') {
        return None;
    }
    let mut is_dir = false;
    let mut size = None;
    let mut mtime = MtimeRef::None;
    let mut seen_type = false;
    for fact in facts.split(';') {
        let Some((k, v)) = fact.split_once('=') else { continue };
        let k = k.trim();
        if k.eq_ignore_ascii_case("type") {
            seen_type = true;
            is_dir = matches!(v, "dir" | "cdir" | "pdir");
        } else if k.eq_ignore_ascii_case("size") {
            size = v.parse::<u64>().ok();
        } else if k.eq_ignore_ascii_case("modify") {
            mtime = MtimeRef::Raw(v);
        }
    }
    if !seen_type && size.is_none() && matches!(mtime, MtimeRef::None) {
        return None;
    }
    Some(ParsedEntryRef {
        name,
        is_dir,
        size,
        permissions: None,
        owner: None,
        mtime,
        is_symlink: false,
    })
}

/// A listing entry to render: borrowed fields, so the simulated servers
/// render straight from their VFS metadata.
#[derive(Debug, Clone, Copy)]
pub struct ListingEntryRef<'a> {
    /// File or directory name (final component only).
    pub name: &'a str,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes when known.
    pub size: Option<u64>,
    /// UNIX permissions when known.
    pub permissions: Option<Permissions>,
    /// Owner name when known.
    pub owner: Option<&'a str>,
    /// Modification-time text when known.
    pub mtime: Option<&'a str>,
}

/// Appends one rendered listing line (no trailing CRLF) to `out`.
///
/// Servers render whole directory bodies into one reused buffer, so
/// this writes bytes directly rather than going through `fmt`; each
/// column is padded exactly as the `ls -l`-style format string
/// `"{t}{perms}   1 {owner:<8} {owner:<8} {size:>12} {mtime} {name}"`
/// would pad it.
pub fn render_line_into(entry: ListingEntryRef<'_>, format: ListingFormat, out: &mut String) {
    match format {
        ListingFormat::Unix => {
            let perms = entry.permissions.unwrap_or_else(Permissions::public_file);
            let owner = entry.owner.unwrap_or("ftp");
            let size = entry.size.unwrap_or(if entry.is_dir { 4096 } else { 0 });
            out.push(if entry.is_dir { 'd' } else { '-' });
            for triple in perms.rwx_triples() {
                out.push_str(triple);
            }
            out.push_str("   1 ");
            push_left_aligned(out, owner, 8);
            out.push(' ');
            push_left_aligned(out, owner, 8);
            out.push(' ');
            push_u64(out, size, 12);
            out.push(' ');
            out.push_str(entry.mtime.unwrap_or("Jun 18  2015"));
            out.push(' ');
        }
        ListingFormat::Dos => {
            // Only reuse the entry's mtime when it is already DOS-shaped;
            // a UNIX "Jun 18  2015" string would render an unparseable line.
            let mtime = match entry.mtime {
                Some(m) if Tokens::new(m, 0).next().is_some_and(looks_like_dos_date) => m,
                _ => "06-18-15 09:43AM",
            };
            out.push_str(mtime);
            if entry.is_dir {
                out.push_str("       <DIR>          ");
            } else {
                out.push(' ');
                push_u64(out, entry.size.unwrap_or(0), 20);
                out.push(' ');
            }
        }
        ListingFormat::Eplf => {
            out.push('+');
            out.push_str(if entry.is_dir { "/," } else { "r," });
            if let Some(s) = entry.size {
                out.push('s');
                push_u64(out, s, 0);
                out.push(',');
            }
            out.push('\t');
        }
        ListingFormat::Mlsd => {
            out.push_str(if entry.is_dir { "type=dir;" } else { "type=file;" });
            if let Some(s) = entry.size {
                out.push_str("size=");
                push_u64(out, s, 0);
                out.push(';');
            }
            out.push_str("modify=20150618094300; ");
        }
    }
    out.push_str(entry.name);
}

/// Enough spaces for the widest padded column (a DOS size).
const SPACES: &str = "                    ";

/// Appends `s` padded with spaces to `width` chars, as `{s:<width$}`
/// does: the width counts `char`s, not bytes.
fn push_left_aligned(out: &mut String, s: &str, width: usize) {
    out.push_str(s);
    let chars = s.chars().count();
    if chars < width {
        out.push_str(&SPACES[..width - chars]);
    }
}

/// Appends `n` in decimal, right-aligned in `width` columns as
/// `{n:>width$}` does (`width` 0 means no padding).
fn push_u64(out: &mut String, mut n: u64, width: usize) {
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
    let len = digits.len() - start;
    if len < width {
        out.push_str(&SPACES[..width - len]);
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(line: &str, hint: ListingFormat) -> ParsedEntryRef<'_> {
        parse_line_ref(line, hint).unwrap().unwrap()
    }

    fn render(entry: ListingEntryRef<'_>, format: ListingFormat) -> String {
        let mut out = String::new();
        render_line_into(entry, format, &mut out);
        out
    }

    const FORMATS: [ListingFormat; 4] =
        [ListingFormat::Unix, ListingFormat::Dos, ListingFormat::Eplf, ListingFormat::Mlsd];

    #[test]
    fn permissions_roundtrip() {
        for mode in [0o777u16, 0o755, 0o644, 0o600, 0o000, 0o700] {
            let p = Permissions::from_mode(mode);
            assert_eq!(Permissions::parse_rwx(&p.to_rwx()).unwrap(), p);
            assert_eq!(p.to_string(), p.to_rwx());
        }
    }

    #[test]
    fn permissions_setuid_letters() {
        let p = Permissions::parse_rwx("rwsr-xr-t").unwrap();
        assert!(p.other_read());
        assert_eq!(p.mode() & 0o100, 0o100);
        assert!(Permissions::parse_rwx("rwSr-xr-T").is_some());
        assert!(Permissions::parse_rwx("rwzr-xr-x").is_none());
    }

    #[test]
    fn unix_dir_line() {
        let e = parse("drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub", ListingFormat::Unix);
        assert!(e.is_dir);
        assert_eq!(e.name, "pub");
        assert_eq!(e.readability(), Readability::Readable);
        assert_eq!(e.owner, Some("ftp"));
    }

    #[test]
    fn unix_file_with_spaces_in_name() {
        let e = parse(
            "-rw-r--r--   1 user     user      1048576 Jun 18 09:43 Tax Return 2014.pdf",
            ListingFormat::Unix,
        );
        assert_eq!(e.name, "Tax Return 2014.pdf");
        assert_eq!(e.size, Some(1_048_576));
    }

    #[test]
    fn unix_private_file_nonreadable() {
        let e = parse(
            "-rw-------   1 root     root          718 Jan  5  2015 shadow",
            ListingFormat::Unix,
        );
        assert_eq!(e.readability(), Readability::NonReadable);
    }

    #[test]
    fn unix_symlink_strips_target() {
        let e = parse(
            "lrwxrwxrwx   1 root     root           11 Jan  1  2014 www -> /var/www",
            ListingFormat::Unix,
        );
        assert!(e.is_symlink);
        assert_eq!(e.name, "www");
    }

    #[test]
    fn unix_total_header_skipped() {
        assert!(parse_line_ref("total 52", ListingFormat::Unix).unwrap().is_none());
    }

    /// A mode string whose tenth byte falls inside a multi-byte
    /// character used to panic on a byte-offset slice.
    #[test]
    fn mode_cut_by_a_multibyte_char_is_rejected() {
        let line = "-rw-r--r-é 1 ftp ftp 10 Jun 18  2015 x";
        assert!(!line.is_char_boundary(10));
        for hint in FORMATS {
            assert!(parse_line_ref(line, hint).is_err(), "{hint:?}");
        }
    }

    #[test]
    fn dos_lines() {
        let d = parse("06-18-15  09:43AM       <DIR>          aspnet_client", ListingFormat::Dos);
        assert!(d.is_dir);
        assert_eq!(d.name, "aspnet_client");
        assert_eq!(d.readability(), Readability::Unknown);

        let f = parse("06-18-15  09:43AM              1043901 products.mdb", ListingFormat::Dos);
        assert!(!f.is_dir);
        assert_eq!(f.size, Some(1_043_901));
        assert_eq!(f.readability(), Readability::Unknown);

        let lower = parse("06-18-15  09:43pm              7 late.txt", ListingFormat::Dos);
        assert_eq!(lower.mtime, MtimeRef::Dos { date: "06-18-15", time: "09:43pm" });
        for not_a_time in ["09:43", "0943AM", "M", "09:43AN"] {
            let line = format!("06-18-15  {not_a_time}              7 x.txt");
            assert!(parse_line_ref(&line, ListingFormat::Dos).is_err(), "{line}");
        }
    }

    #[test]
    fn eplf_lines() {
        let f = parse("+i8388621.48594,m825718503,r,s280,\tdjb.html", ListingFormat::Eplf);
        assert_eq!(f.name, "djb.html");
        assert_eq!(f.size, Some(280));
        assert!(!f.is_dir);

        let d = parse("+i8388621.50690,m824255907,/,\t514", ListingFormat::Eplf);
        assert!(d.is_dir);
        assert_eq!(d.name, "514");
    }

    #[test]
    fn mlsd_lines() {
        let e = parse("type=dir;modify=20150618094300;perm=el; pub", ListingFormat::Mlsd);
        assert!(e.is_dir);
        assert_eq!(e.name, "pub");
        let f = parse("type=file;size=1024;modify=20150618094300; a.txt", ListingFormat::Mlsd);
        assert_eq!(f.size, Some(1024));
    }

    #[test]
    fn sniffing_falls_back_across_formats() {
        // Ask for DOS but feed UNIX.
        let e = parse("drwxr-xr-x   2 ftp      ftp          4096 Jun 18  2015 pub", ListingFormat::Dos);
        assert!(e.is_dir);
    }

    #[test]
    fn unparseable_line_is_error() {
        assert!(parse_line_ref("not a listing at all %%%", ListingFormat::Unix).is_err());
    }

    #[test]
    fn parse_body_counts_failures() {
        let body = "total 8\r\ndrwxr-xr-x   2 ftp ftp 4096 Jun 18  2015 pub\r\n???garbage???\r\n";
        let (mut entries, mut failures) = (0, 0);
        for line in body.lines() {
            match parse_line_ref(line, ListingFormat::Unix) {
                Ok(Some(_)) => entries += 1,
                Ok(None) => {}
                Err(_) => failures += 1,
            }
        }
        assert_eq!((entries, failures), (1, 1));
    }

    /// Every field of a parsed line, for each format's sample line.
    #[test]
    fn parse_line_ref_reads_every_field() {
        let unix = parse(
            "lrwxrwxrwx   1 root     root           11 Jan  1  2014 www -> /var/www",
            ListingFormat::Unix,
        );
        assert_eq!(
            (unix.name, unix.is_dir, unix.size, unix.owner, unix.is_symlink),
            ("www", false, Some(11), Some("root"), true)
        );
        assert_eq!(unix.permissions, Some(Permissions::from_mode(0o777)));
        assert_eq!(unix.mtime, MtimeRef::Unix { month: "Jan", day: "1", tail: "2014" });

        // No group column: the month follows the size directly.
        let nogroup = parse("-rw-r--r--   1 ftp 512 Jun 18 09:43 a.txt", ListingFormat::Unix);
        assert_eq!((nogroup.owner, nogroup.size), (Some("ftp"), Some(512)));
        // Device files carry "maj, min" where the size goes.
        let dev = parse("crw-rw-rw-   1 root root 1, 3 Jun 18  2015 null", ListingFormat::Unix);
        assert_eq!((dev.name, dev.size), ("null", Some(3)));

        let dos = parse("06-18-15  09:43AM              1043901 products.mdb", ListingFormat::Unix);
        assert_eq!((dos.name, dos.size, dos.owner), ("products.mdb", Some(1_043_901), None));
        assert_eq!(dos.mtime, MtimeRef::Dos { date: "06-18-15", time: "09:43AM" });

        let eplf = parse("+i8388621.48594,m825718503,r,s280,\tdjb.html", ListingFormat::Unix);
        assert_eq!(eplf.mtime, MtimeRef::Raw("825718503"));
        assert_eq!(eplf.permissions, None);

        let mlsd = parse("type=dir;modify=20150618094300;perm=el; pub", ListingFormat::Unix);
        assert_eq!((mlsd.name, mlsd.is_dir, mlsd.size), ("pub", true, None));
        assert_eq!(mlsd.mtime, MtimeRef::Raw("20150618094300"));
    }

    /// The name is whatever follows the rightmost space-bounded copy of
    /// the time column, even when that copy sits inside the name.
    #[test]
    fn name_follows_the_rightmost_time_column_copy() {
        let e = parse("-rw-r--r--   1 ftp ftp 9 Jun 18  2015 report 2015 final.txt", ListingFormat::Unix);
        assert_eq!(e.name, "final.txt");
        let e = parse("-rw-r--r--   1 ftp ftp 9 Jun 18  2015 x2015 y.txt", ListingFormat::Unix);
        assert_eq!(e.name, "x2015 y.txt");
    }

    #[test]
    fn render_parse_roundtrip_all_formats() {
        let entry = ListingEntryRef {
            name: "backup.tar.gz",
            is_dir: false,
            size: Some(123_456),
            permissions: Some(Permissions::public_file()),
            owner: Some("ftp"),
            mtime: Some("Jun 18  2015"),
        };
        for fmt in FORMATS {
            let line = render(entry, fmt);
            let back = parse(&line, fmt);
            assert_eq!(back.name, entry.name, "{fmt:?}: {line}");
            assert_eq!(back.size, entry.size, "{fmt:?}: {line}");
            assert!(!back.is_dir);
        }
    }

    #[test]
    fn render_parse_roundtrip_dir() {
        let entry = ListingEntryRef {
            name: "pub",
            is_dir: true,
            size: None,
            permissions: Some(Permissions::public_dir()),
            owner: Some("ftp"),
            mtime: None,
        };
        for fmt in FORMATS {
            let line = render(entry, fmt);
            let back = parse(&line, fmt);
            assert!(back.is_dir, "{fmt:?}: {line}");
            assert_eq!(back.name, "pub");
        }
    }

    /// Literal lines captured from the `write!`-based renderer this one
    /// replaced: padding by `char` count, sizes wider than their column,
    /// and every `None` default.
    #[test]
    fn render_bytes_are_pinned() {
        use ListingFormat::{Dos, Eplf, Mlsd, Unix};
        let p = |mode| Some(Permissions::from_mode(mode));
        let e = |name, is_dir, size, permissions, owner, mtime| ListingEntryRef {
            name,
            is_dir,
            size,
            permissions,
            owner,
            mtime,
        };
        let cases = [
            (
                e("pub", true, Some(4096), p(0o755), Some("ftp"), Some("Jun 18  2015")),
                Unix,
                "drwxr-xr-x   1 ftp      ftp              4096 Jun 18  2015 pub",
            ),
            (
                e("Tax Return.pdf", false, Some(0), p(0o600), Some("administrator"), Some("Jan  5 09:43")),
                Unix,
                "-rw-------   1 administrator administrator            0 Jan  5 09:43 Tax Return.pdf",
            ),
            (
                e("x", false, Some(u64::MAX), p(0o777), Some("jörg"), Some("Dec 31  1999")),
                Unix,
                "-rwxrwxrwx   1 jörg     jörg     18446744073709551615 Dec 31  1999 x",
            ),
            (
                e("日本", false, Some(123_456_789_012), p(0o000), Some("日本語"), Some("Feb  1 00:00")),
                Unix,
                "----------   1 日本語      日本語      123456789012 Feb  1 00:00 日本",
            ),
            (
                e("y", false, Some(1_234_567_890_123), p(0o751), Some("exactly8"), Some("Mar 10  2010")),
                Unix,
                "-rwxr-x--x   1 exactly8 exactly8 1234567890123 Mar 10  2010 y",
            ),
            (
                e("nothing", false, None, None, None, None),
                Unix,
                "-rw-r--r--   1 ftp      ftp                 0 Jun 18  2015 nothing",
            ),
            (
                e("nodir", true, None, None, None, None),
                Unix,
                "drw-r--r--   1 ftp      ftp              4096 Jun 18  2015 nodir",
            ),
            (
                e("", false, Some(7), p(0o644), Some(""), Some("")),
                Unix,
                "-rw-r--r--   1                              7  ",
            ),
            (
                e("aspnet_client", true, Some(4096), p(0o755), Some("ftp"), Some("06-18-15 09:43AM")),
                Dos,
                "06-18-15 09:43AM       <DIR>          aspnet_client",
            ),
            (
                e("zero.bin", false, Some(0), None, None, Some("01-02-03 11:11PM")),
                Dos,
                "01-02-03 11:11PM                    0 zero.bin",
            ),
            (
                e("max.bin", false, Some(u64::MAX), None, None, Some("Jun 18  2015")),
                Dos,
                "06-18-15 09:43AM 18446744073709551615 max.bin",
            ),
            (
                e("nothing", false, None, None, None, None),
                Dos,
                "06-18-15 09:43AM                    0 nothing",
            ),
            (e("nodir", true, None, None, None, None), Dos, "06-18-15 09:43AM       <DIR>          nodir"),
            (e("djb.html", false, Some(280), None, None, None), Eplf, "+r,s280,\tdjb.html"),
            (e("514", true, Some(4096), None, None, None), Eplf, "+/,s4096,\t514"),
            (e("nosize", false, None, None, None, None), Eplf, "+r,\tnosize"),
            (e("max", false, Some(u64::MAX), None, None, None), Eplf, "+r,s18446744073709551615,\tmax"),
            (
                e("pub", true, None, p(0o755), Some("ftp"), Some("Jun 18  2015")),
                Mlsd,
                "type=dir;modify=20150618094300; pub",
            ),
            (e("a.txt", false, Some(0), None, None, None), Mlsd, "type=file;size=0;modify=20150618094300; a.txt"),
            (
                e("max", false, Some(u64::MAX), None, None, None),
                Mlsd,
                "type=file;size=18446744073709551615;modify=20150618094300; max",
            ),
        ];
        for (entry, fmt, want) in cases {
            assert_eq!(render(entry, fmt), want, "{fmt:?} {entry:?}");
        }
    }

    /// The search `find_token_end` replaced: `str::rfind` from the
    /// right, each next search ending where the rejected match began.
    fn find_token_end_oracle(line: &str, tok: &str) -> Option<usize> {
        let mut search_end = line.len();
        while let Some(pos) = line[..search_end].rfind(tok) {
            let before_ok = pos == 0 || line.as_bytes()[pos - 1] == b' ';
            let after = pos + tok.len();
            let after_ok = after >= line.len() || line.as_bytes()[after] == b' ';
            if before_ok && after_ok && after < line.len() {
                return Some(after);
            }
            if pos == 0 {
                break;
            }
            search_end = pos;
        }
        None
    }

    /// Characters the generated strings draw from: every ASCII and
    /// non-ASCII whitespace class `split_whitespace` knows, multi-byte
    /// letters, and the letters of mode strings, months and DOS times.
    const ALPHABET: &str =
        "[ \t\n\u{b}\u{c}\r\u{85}\u{a0}\u{1680}\u{2000}\u{200a}\u{2028}\u{202f}\u{3000}\u{200b}é日a-dA-Drwxlst0-9:+,;=<>/-]{0,48}";

    /// Listing-shaped fragments, so generated lines reach deep into each
    /// parser instead of failing at the first byte.
    const FRAGMENTS: [&str; 28] = [
        "-", "d", "l", "c", "rw-r--r--", "rwxr-xr-x", "rw-r--r-", "é", "日本", " ", "   ", "\t",
        "\u{a0}", "\u{3000}", "1", "ftp", "Jun", "18", "2015", "09:43", "06-18-15", "09:43AM",
        "<DIR>", "+r,s5,\t", "type=dir;", "; ", "total ", " -> ",
    ];

    fn fragments() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..FRAGMENTS.len(), 0..14)
            .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    /// Any Unicode scalar values, weighted toward ASCII.
    fn scalars() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..40).prop_map(|v| {
            v.into_iter()
                .filter_map(|x| match x % 4 {
                    0 => char::from_u32(x / 4 % 0x11_0000),
                    _ => char::from_u32(x / 4 % 0x80),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tokens_split_where_split_whitespace_does(a in ALPHABET, b in scalars(), c in fragments()) {
            for s in [&a, &b, &c] {
                let ours: Vec<&str> = Tokens::new(s, 0).collect();
                let want: Vec<&str> = s.split_whitespace().collect();
                prop_assert_eq!(ours, want, "{:?}", s);
            }
        }

        #[test]
        fn find_token_end_matches_the_rfind_search(line in "[ ab]{0,24}", tok in "[ ab]{1,4}",
                                                   words in fragments()) {
            prop_assert_eq!(find_token_end(&line, &tok), find_token_end_oracle(&line, &tok),
                            "{:?} in {:?}", tok, line);
            for tok in Tokens::new(&words, 0) {
                prop_assert_eq!(find_token_end(&words, tok), find_token_end_oracle(&words, tok),
                                "{:?} in {:?}", tok, words);
            }
        }

        #[test]
        fn parse_line_ref_never_panics(a in ALPHABET, b in scalars(), c in fragments()) {
            for s in [&a, &b, &c] {
                for hint in FORMATS {
                    let _ = parse_line_ref(s, hint);
                }
            }
        }
    }
}
