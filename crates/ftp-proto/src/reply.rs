//! FTP server replies: three-digit codes and multiline reply assembly.

use crate::error::ProtoError;
use std::fmt;

/// A three-digit FTP reply code (RFC 959 §4.2).
///
/// The wrapper gives the digit classes names, because the enumerator's
/// decision logic ("is this a success? should I retry? give up?") is
/// driven entirely by the first digit — the paper notes that the *text*
/// attached to a code is implementation- and language-specific and cannot
/// be relied upon (§II gives four different meanings of 331).
///
/// # Example
///
/// ```
/// use ftp_proto::ReplyCode;
///
/// let code = ReplyCode::new(230);
/// assert!(code.is_positive_completion());
/// assert!(!code.is_transient_negative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplyCode(u16);

impl ReplyCode {
    /// Service ready for new user.
    pub const SERVICE_READY: ReplyCode = ReplyCode(220);
    /// Service closing control connection.
    pub const SERVICE_CLOSING: ReplyCode = ReplyCode(221);
    /// User logged in, proceed.
    pub const LOGGED_IN: ReplyCode = ReplyCode(230);
    /// Requested file action okay, completed.
    pub const FILE_ACTION_OK: ReplyCode = ReplyCode(250);
    /// `PATHNAME` created (also `PWD` response).
    pub const PATHNAME_CREATED: ReplyCode = ReplyCode(257);
    /// User name okay, need password.
    pub const NEED_PASSWORD: ReplyCode = ReplyCode(331);
    /// Entering passive mode.
    pub const ENTERING_PASSIVE: ReplyCode = ReplyCode(227);
    /// Not logged in.
    pub const NOT_LOGGED_IN: ReplyCode = ReplyCode(530);
    /// Requested action not taken (file unavailable).
    pub const FILE_UNAVAILABLE: ReplyCode = ReplyCode(550);

    /// Wraps a raw code. Values outside `100..=599` are preserved as-is;
    /// real servers emit junk and the enumerator must carry it through.
    pub fn new(code: u16) -> Self {
        ReplyCode(code)
    }

    /// The raw numeric value.
    pub fn value(self) -> u16 {
        self.0
    }

    /// First digit is 1: positive preliminary (e.g. `150 Opening data
    /// connection`).
    pub fn is_positive_preliminary(self) -> bool {
        (100..200).contains(&self.0)
    }

    /// First digit is 2: positive completion.
    pub fn is_positive_completion(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// First digit is 3: positive intermediate (more input wanted).
    pub fn is_positive_intermediate(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// First digit is 4: transient negative completion (retryable).
    pub fn is_transient_negative(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// First digit is 5: permanent negative completion.
    pub fn is_permanent_negative(self) -> bool {
        (500..600).contains(&self.0)
    }
}

impl fmt::Display for ReplyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03}", self.0)
    }
}

impl From<u16> for ReplyCode {
    fn from(v: u16) -> Self {
        ReplyCode(v)
    }
}

/// A complete server reply, owned: a code plus one or more lines of
/// text. The owned copy of a [`ReplyRef`] ([`ReplyRef::to_reply`]), for
/// callers that keep replies past the assembler's next line.
///
/// Multiline replies follow RFC 959: the first line is `ddd-text`, the
/// terminating line is `ddd text` with the *same* code. Lines in between
/// may be arbitrary (some servers even start them with other digits),
/// which [`ReplyBuf`] tolerates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    code: ReplyCode,
    lines: Vec<String>,
}

impl Reply {
    /// The reply code.
    pub fn code(&self) -> ReplyCode {
        self.code
    }

    /// All text lines (without codes or CRLF).
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The first line of text — for banners and quick matching.
    pub fn text(&self) -> &str {
        &self.lines[0]
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.lines[0])
    }
}

/// Renders a reply's wire bytes from its code and lines: CRLF line
/// endings and RFC 959 multiline framing (`ddd-first`, ` middle`,
/// `ddd last`; a single line is `ddd text`).
///
/// # Panics
///
/// Panics if `lines` is empty; a reply always has at least one line.
///
/// # Example
///
/// ```
/// use ftp_proto::reply::wire_bytes;
///
/// assert_eq!(wire_bytes(250u16, ["Okay"]), b"250 Okay\r\n");
/// assert_eq!(
///     wire_bytes(211u16, ["Features:", "MDTM", "End"]),
///     b"211-Features:\r\n MDTM\r\n211 End\r\n"
/// );
/// ```
pub fn wire_bytes<'a>(
    code: impl Into<ReplyCode>,
    lines: impl IntoIterator<Item = &'a str>,
) -> Vec<u8> {
    use fmt::Write as _;
    let code = code.into();
    let mut out = String::new();
    let mut lines = lines.into_iter().peekable();
    let mut first = true;
    while let Some(line) = lines.next() {
        let _ = match (first, lines.peek().is_some()) {
            (_, false) => write!(out, "{code} {line}\r\n"),
            (true, true) => write!(out, "{code}-{line}\r\n"),
            (false, true) => write!(out, " {line}\r\n"),
        };
        first = false;
    }
    assert!(!out.is_empty(), "a reply must have at least one line");
    out.into_bytes()
}

/// Splits `"230 Login ok"` into `(230, ' ', "Login ok")`.
fn split_reply_line(line: &str) -> Option<(u16, char, &str)> {
    let b = line.as_bytes();
    if b.len() < 3 || !b[..3].iter().all(u8::is_ascii_digit) {
        return None;
    }
    let code: u16 = line[..3].parse().ok()?;
    match b.get(3) {
        None => Some((code, ' ', "")),
        Some(b' ') => Some((code, ' ', &line[4..])),
        Some(b'-') => Some((code, '-', &line[4..])),
        // Some implementations jam text against the code ("220Welcome").
        Some(_) => Some((code, ' ', &line[3..])),
    }
}

/// A borrowed view of one complete reply: the code plus a slice of the
/// assembled text (lines joined with `\n`).
///
/// Every reply is decoded through [`ReplyBuf`] into one of these, so
/// decoding allocates nothing; [`ReplyRef::to_reply`] copies one out
/// when a caller must keep it. Lifetime is tied to the [`ReplyBuf`] (or
/// other buffer) the text lives in, which stays valid until the next
/// `push_line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyRef<'a> {
    code: ReplyCode,
    text: &'a str,
    line_count: usize,
}

impl<'a> ReplyRef<'a> {
    /// Builds a view over already-joined reply text (`\n` separators).
    pub fn new(code: impl Into<ReplyCode>, text: &'a str) -> Self {
        ReplyRef { code: code.into(), text, line_count: text.split('\n').count() }
    }

    /// The reply code.
    pub fn code(self) -> ReplyCode {
        self.code
    }

    /// The first line of text — for banners and quick matching.
    pub fn text(self) -> &'a str {
        match self.text.split_once('\n') {
            Some((first, _)) => first,
            None => self.text,
        }
    }

    /// All lines joined with `\n`, without a join allocation.
    pub fn full_text(self) -> &'a str {
        self.text
    }

    /// Iterates the text lines (without codes or CRLF).
    pub fn lines(self) -> std::str::Split<'a, char> {
        self.text.split('\n')
    }

    /// Number of text lines.
    pub fn line_count(self) -> usize {
        self.line_count
    }

    /// Whether the reply spans more than one line — O(1), unlike
    /// collecting [`ReplyRef::lines`] just to test its length.
    pub fn has_multiple_lines(self) -> bool {
        self.line_count > 1
    }

    /// Copies into an owned [`Reply`].
    pub fn to_reply(self) -> Reply {
        Reply { code: self.code, lines: self.lines().map(str::to_owned).collect() }
    }
}

/// Incremental assembler for (possibly multiline) replies, with a
/// reusable text buffer.
///
/// Feed complete lines via [`ReplyBuf::push_line`]; a `Some(ReplyRef)`
/// return borrows the assembled text straight out of the buffer, which
/// is recycled for the next reply instead of reallocated. The assembler
/// implements the real-world tolerance the paper's enumerator needed: a
/// fresh reply may jam its text against the code (`220Welcome`) or be a
/// bare code, continuation lines need not repeat the code, inner lines
/// may start with digits, and a terminator is a strict `ddd<SP>` (or
/// bare `ddd`) line repeating the opening code.
///
/// # Example
///
/// ```
/// use ftp_proto::ReplyBuf;
///
/// let mut b = ReplyBuf::new();
/// assert!(b.push_line("230-Welcome to example FTP").unwrap().is_none());
/// assert!(b.push_line("Mirror of ftp.example.org").unwrap().is_none());
/// let reply = b.push_line("230 Login successful").unwrap().unwrap();
/// assert_eq!(reply.code().value(), 230);
/// assert_eq!(reply.line_count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplyBuf {
    code: u16,
    /// Lines assembled so far, joined with `\n`.
    text: String,
    line_count: usize,
    in_progress: bool,
}

impl ReplyBuf {
    /// Creates an idle assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if a multiline reply is partially assembled.
    pub fn in_progress(&self) -> bool {
        self.in_progress
    }

    /// Feeds one line (trailing CR/LF tolerated). Returns a borrowed
    /// view of the completed reply, valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::BadReplyCode`] only when a *fresh* reply
    /// line lacks a leading code; continuation lines are accepted
    /// verbatim.
    pub fn push_line(&mut self, line: &str) -> Result<Option<ReplyRef<'_>>, ProtoError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if !self.in_progress {
            let (code, sep, text) =
                split_reply_line(line).ok_or_else(|| ProtoError::bad_reply(line))?;
            self.code = code;
            self.text.clear();
            self.text.push_str(text);
            self.line_count = 1;
            if sep == '-' {
                self.in_progress = true;
                return Ok(None);
            }
            return Ok(Some(ReplyRef {
                code: ReplyCode(code),
                text: &self.text,
                line_count: 1,
            }));
        }
        // A terminator must be a *strict* `ddd<SP>` (or bare `ddd`) line
        // repeating the opening code — the jammed-text tolerance applied
        // to fresh replies would otherwise misread inner lines like
        // "211x ..." as terminators.
        let strict_sep = line.len() == 3 || line.as_bytes().get(3) == Some(&b' ');
        if strict_sep {
            if let Some((code, ' ', text)) = split_reply_line(line) {
                if code == self.code {
                    self.text.push('\n');
                    self.text.push_str(text);
                    self.line_count += 1;
                    self.in_progress = false;
                    return Ok(Some(ReplyRef {
                        code: ReplyCode(code),
                        text: &self.text,
                        line_count: self.line_count,
                    }));
                }
            }
        }
        // Continuation line: strip the conventional leading space.
        let text = line.strip_prefix(' ').unwrap_or(line);
        self.text.push('\n');
        self.text.push_str(text);
        self.line_count += 1;
        Ok(None)
    }

    /// Signals end-of-stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::TruncatedReply`] if a multiline reply was
    /// still being assembled — the server hung up mid-reply, which the
    /// enumerator treats as refusal of service.
    pub fn finish(&mut self) -> Result<(), ProtoError> {
        if std::mem::take(&mut self.in_progress) {
            Err(ProtoError::TruncatedReply)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_classes() {
        assert!(ReplyCode::new(150).is_positive_preliminary());
        assert!(ReplyCode::new(230).is_positive_completion());
        assert!(ReplyCode::new(331).is_positive_intermediate());
        assert!(ReplyCode::new(421).is_transient_negative());
        assert!(ReplyCode::new(530).is_permanent_negative());
    }

    #[test]
    fn single_line_parse() {
        let mut b = ReplyBuf::new();
        let r = b.push_line("220 ProFTPD 1.3.5 Server ready.\r\n").unwrap().unwrap();
        assert_eq!(r.code(), ReplyCode::SERVICE_READY);
        assert_eq!(r.text(), "ProFTPD 1.3.5 Server ready.");
    }

    #[test]
    fn jammed_text_tolerated() {
        let mut b = ReplyBuf::new();
        let r = b.push_line("220Welcome").unwrap().unwrap();
        assert_eq!(r.code().value(), 220);
        assert_eq!(r.text(), "Welcome");
    }

    #[test]
    fn bare_code_tolerated() {
        let mut b = ReplyBuf::new();
        let r = b.push_line("230").unwrap().unwrap();
        assert_eq!(r.code().value(), 230);
        assert_eq!(r.text(), "");
    }

    #[test]
    fn garbage_rejected() {
        let mut b = ReplyBuf::new();
        assert!(b.push_line("hello world").is_err());
        assert!(b.push_line("22 partial").is_err());
    }

    #[test]
    fn multiline_assembly() {
        let mut b = ReplyBuf::new();
        assert_eq!(b.push_line("220-Welcome").unwrap(), None);
        assert!(b.in_progress());
        assert_eq!(b.push_line(" to the machine").unwrap(), None);
        let r = b.push_line("220 Ready").unwrap().unwrap();
        assert_eq!(r.line_count(), 3);
        assert_eq!(r.lines().nth(1), Some("to the machine"));
        assert!(!b.in_progress());
    }

    #[test]
    fn multiline_inner_lines_with_other_codes() {
        // Some servers embed digit-leading lines mid-reply.
        let mut b = ReplyBuf::new();
        b.push_line("211-Features:").unwrap();
        assert_eq!(b.push_line("211x not terminator").unwrap(), None);
        assert_eq!(b.push_line("500 different code is continuation").unwrap(), None);
        let r = b.push_line("211 End").unwrap().unwrap();
        assert_eq!(r.code().value(), 211);
        assert_eq!(
            r.full_text(),
            "Features:\n211x not terminator\n500 different code is continuation\nEnd"
        );
    }

    #[test]
    fn truncated_multiline_detected() {
        let mut b = ReplyBuf::new();
        b.push_line("220-Hello").unwrap();
        assert_eq!(b.finish(), Err(ProtoError::TruncatedReply));
        // finish() clears state.
        assert!(b.finish().is_ok());
    }

    /// Feeds rendered wire bytes line by line; the completed reply's
    /// code and lines.
    fn reassemble(wire: &[u8]) -> (u16, Vec<String>) {
        let mut b = ReplyBuf::new();
        let mut out = None;
        for line in std::str::from_utf8(wire).unwrap().split_inclusive("\r\n") {
            if let Some(r) = b.push_line(line).unwrap() {
                out = Some((r.code().value(), r.lines().map(str::to_owned).collect()));
            }
        }
        out.expect("a complete reply")
    }

    #[test]
    fn wire_roundtrip_single() {
        let wire = wire_bytes(250u16, ["Okay"]);
        assert_eq!(wire, b"250 Okay\r\n");
        assert_eq!(reassemble(&wire), (250, vec!["Okay".to_owned()]));
    }

    #[test]
    fn wire_roundtrip_multiline() {
        let wire = wire_bytes(230u16, ["a", "b", "c"]);
        assert_eq!(wire, b"230-a\r\n b\r\n230 c\r\n");
        assert_eq!(reassemble(&wire), (230, vec!["a".into(), "b".into(), "c".into()]));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn multiline_requires_lines() {
        let _ = wire_bytes(230u16, []);
    }

    #[test]
    fn display_shows_code_and_first_line() {
        let r = ReplyRef::new(230u16, "Login successful\nsecond").to_reply();
        assert_eq!(r.to_string(), "230 Login successful");
    }

    #[test]
    fn reply_buf_single_line() {
        let mut b = ReplyBuf::new();
        let r = b.push_line("220 Ready\r\n").unwrap().unwrap();
        assert_eq!(r.code().value(), 220);
        assert_eq!(r.text(), "Ready");
        assert_eq!(r.full_text(), "Ready");
        assert!(!r.has_multiple_lines());
        assert_eq!(r.line_count(), 1);
    }

    #[test]
    fn reply_buf_multiline_and_reuse() {
        let mut b = ReplyBuf::new();
        assert!(b.push_line("230-Welcome").unwrap().is_none());
        assert!(b.in_progress());
        assert!(b.push_line(" to the machine").unwrap().is_none());
        {
            let r = b.push_line("230 Ready").unwrap().unwrap();
            assert_eq!(r.line_count(), 3);
            assert!(r.has_multiple_lines());
            assert_eq!(r.text(), "Welcome");
            assert_eq!(r.full_text(), "Welcome\nto the machine\nReady");
            assert_eq!(r.lines().nth(1), Some("to the machine"));
        }
        // The buffer is recycled: the next reply starts clean.
        let r = b.push_line("221 Bye").unwrap().unwrap();
        assert_eq!(r.full_text(), "Bye");
        assert_eq!(r.line_count(), 1);
    }

    #[test]
    fn reply_buf_assembles_quirky_streams() {
        // Each stream completes on its last line, with this code and text.
        let streams: &[(&[&str], u16, &str)] = &[
            (&["220 ProFTPD ready"], 220, "ProFTPD ready"),
            (&["220Welcome"], 220, "Welcome"),
            (&["230"], 230, ""),
            (
                &["211-Features:", "211x not terminator", "500 other code", "211 End"],
                211,
                "Features:\n211x not terminator\n500 other code\nEnd",
            ),
            (
                &["230-Welcome", " indented", "plain", "230 Done"],
                230,
                "Welcome\nindented\nplain\nDone",
            ),
        ];
        for &(stream, code, text) in streams {
            let mut b = ReplyBuf::new();
            let (last, inner) = stream.split_last().unwrap();
            for line in inner {
                assert_eq!(b.push_line(line).unwrap(), None, "{line:?} completed early");
            }
            let r = b.push_line(last).unwrap().expect("complete");
            assert_eq!((r.code().value(), r.full_text()), (code, text));
            assert_eq!(r.to_reply().lines().len(), r.line_count());
        }
    }

    #[test]
    fn reply_buf_truncation_detected() {
        let mut b = ReplyBuf::new();
        b.push_line("220-Hello").unwrap();
        assert_eq!(b.finish(), Err(ProtoError::TruncatedReply));
        assert!(b.finish().is_ok());
        // And garbage on a fresh line still errors.
        assert!(b.push_line("garbage").is_err());
    }

    #[test]
    fn reply_ref_view_helpers() {
        let r = ReplyRef::new(211u16, "Features:\nMDTM\nEnd");
        assert_eq!(r.line_count(), 3);
        assert!(r.has_multiple_lines());
        assert_eq!(r.text(), "Features:");
        assert_eq!(r.lines().collect::<Vec<_>>(), ["Features:", "MDTM", "End"]);
    }
}
