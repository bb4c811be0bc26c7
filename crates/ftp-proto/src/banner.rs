//! FTP banner analysis: software identification and version extraction.
//!
//! Banners are "arbitrary text" (§III), but they are the study's main
//! fingerprinting signal: Table XI (CVE exposure) is computed entirely
//! from version strings presented in banners, and the device tables
//! (IV, V, VII) rely on banner substrings among other signals. This
//! module recognizes the implementations the paper names plus the device
//! banners it reports (e.g. the Ramnit botnet's
//! `220 220 RMNetwork FTP`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Software families the study distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SoftwareFamily {
    /// ProFTPD.
    ProFtpd,
    /// Pure-FTPd.
    PureFtpd,
    /// vsFTPd.
    VsFtpd,
    /// FileZilla Server.
    FileZilla,
    /// Serv-U.
    ServU,
    /// Microsoft FTP Service (IIS).
    MicrosoftFtp,
    /// wu-ftpd (legacy).
    WuFtpd,
    /// Device/embedded firmware with a recognizable banner.
    Embedded,
    /// The Ramnit botnet's FTP backdoor (`220 220 RMNetwork FTP`).
    Ramnit,
    /// Anything else.
    Unknown,
}

impl fmt::Display for SoftwareFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SoftwareFamily::ProFtpd => "ProFTPD",
            SoftwareFamily::PureFtpd => "Pure-FTPd",
            SoftwareFamily::VsFtpd => "vsFTPd",
            SoftwareFamily::FileZilla => "FileZilla",
            SoftwareFamily::ServU => "Serv-U",
            SoftwareFamily::MicrosoftFtp => "Microsoft FTP",
            SoftwareFamily::WuFtpd => "wu-ftpd",
            SoftwareFamily::Embedded => "embedded",
            SoftwareFamily::Ramnit => "Ramnit",
            SoftwareFamily::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// A dotted software version, e.g. `1.3.5` or `2.0.8a`.
///
/// Comparison is numeric per component with an optional trailing letter
/// (so `1.3.3g < 1.3.4` and `1.0.0 < 1.0.0a`), matching how CVE ranges
/// for the FTP daemons in Table XI are expressed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Version {
    components: Vec<(u32, Option<char>)>,
}

impl Version {
    /// Parses a dotted version from text; returns `None` when the text
    /// contains no leading digit.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if !s.starts_with(|c: char| c.is_ascii_digit()) {
            return None;
        }
        let mut components = Vec::new();
        for part in s.split('.') {
            let digits: String = part.chars().take_while(|c| c.is_ascii_digit()).collect();
            if digits.is_empty() {
                break;
            }
            let num: u32 = digits.parse().ok()?;
            let letter = part.chars().nth(digits.len()).filter(|c| c.is_ascii_alphabetic());
            let stop = letter.is_some() || digits.len() < part.len();
            components.push((num, letter.map(|c| c.to_ascii_lowercase())));
            if stop {
                break;
            }
        }
        if components.is_empty() {
            None
        } else {
            Some(Version { components })
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (n, letter)) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{n}")?;
            if let Some(c) = letter {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// Identified server software: family plus optional version.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServerSoftware {
    /// The recognized family.
    pub family: SoftwareFamily,
    /// Extracted version, when the banner includes one.
    pub version: Option<Version>,
}

/// A parsed FTP greeting banner.
///
/// # Example
///
/// ```
/// use ftp_proto::{Banner, SoftwareFamily};
///
/// let b = Banner::parse("ProFTPD 1.3.5 Server (Debian) [::ffff:10.0.0.1]");
/// assert_eq!(b.software().family, SoftwareFamily::ProFtpd);
/// assert_eq!(b.software().version.as_ref().unwrap().to_string(), "1.3.5");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Banner {
    raw: String,
    software: ServerSoftware,
}

impl Banner {
    /// Parses a banner's text (the body of the `220` greeting).
    pub fn parse(raw: &str) -> Self {
        let software = identify(raw);
        Banner { raw: raw.to_owned(), software }
    }

    /// The raw banner text.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// Identified software.
    pub fn software(&self) -> &ServerSoftware {
        &self.software
    }

    /// Heuristic check for banners that announce "no anonymous access" —
    /// the paper's enumerator parsed banners for such statements and
    /// discontinued login attempts (§III-A).
    pub fn forbids_anonymous(&self) -> bool {
        let lower = self.raw.to_ascii_lowercase();
        (lower.contains("no anonymous") || lower.contains("anonymous access denied")
            || lower.contains("anonymous login is not allowed")
            || lower.contains("authorized users only"))
            && !lower.contains("anonymous ok")
    }

    /// Extracts a private (RFC 1918) IPv4 address displayed in the banner,
    /// if any — §V observed devices leaking their internal addressing this
    /// way, indicating NAT/port-forward deployment.
    pub fn leaked_private_ip(&self) -> Option<std::net::Ipv4Addr> {
        for word in self.raw.split(|c: char| !(c.is_ascii_digit() || c == '.')) {
            if word.matches('.').count() == 3 {
                if let Ok(ip) = word.parse::<std::net::Ipv4Addr>() {
                    if ip.is_private() {
                        return Some(ip);
                    }
                }
            }
        }
        None
    }
}

fn identify(raw: &str) -> ServerSoftware {
    let lower = raw.to_ascii_lowercase();
    // Ramnit's distinctive doubled banner must win over generic matching.
    if lower.contains("rmnetwork ftp") {
        return ServerSoftware { family: SoftwareFamily::Ramnit, version: None };
    }
    let table: &[(&str, SoftwareFamily)] = &[
        ("proftpd", SoftwareFamily::ProFtpd),
        ("pure-ftpd", SoftwareFamily::PureFtpd),
        ("vsftpd", SoftwareFamily::VsFtpd),
        ("filezilla", SoftwareFamily::FileZilla),
        ("serv-u", SoftwareFamily::ServU),
        ("microsoft ftp service", SoftwareFamily::MicrosoftFtp),
        ("wu-", SoftwareFamily::WuFtpd),
    ];
    for (needle, family) in table {
        if let Some(pos) = lower.find(needle) {
            let version = version_after(raw, pos + needle.len());
            return ServerSoftware { family: *family, version };
        }
    }
    // Device-ish banners: contain a known device word but no daemon name.
    let device_words =
        ["nas", "router", "printer", "camera", "dvr", "modem", "fritz!box", "dreambox"];
    if device_words.iter().any(|w| lower.contains(w)) {
        return ServerSoftware { family: SoftwareFamily::Embedded, version: None };
    }
    ServerSoftware { family: SoftwareFamily::Unknown, version: None }
}

/// Finds the first version-looking token at or after byte `from`.
fn version_after(raw: &str, from: usize) -> Option<Version> {
    let tail = &raw[from..];
    for token in tail.split(|c: char| c.is_whitespace() || c == '(' || c == ')' || c == '[') {
        let token = token.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '.');
        // Tolerate the common "v15.1" prefix style (Serv-U, many devices).
        let token = token.strip_prefix(['v', 'V']).unwrap_or(token);
        if token.starts_with(|c: char| c.is_ascii_digit()) && token.contains('.') {
            if let Some(v) = Version::parse(token) {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifies_major_daemons() {
        let cases = [
            ("ProFTPD 1.3.5 Server (Debian)", SoftwareFamily::ProFtpd, Some("1.3.5")),
            ("Welcome to Pure-FTPd [privsep] [TLS]", SoftwareFamily::PureFtpd, None),
            ("(vsFTPd 2.3.4)", SoftwareFamily::VsFtpd, Some("2.3.4")),
            ("FileZilla Server version 0.9.41 beta", SoftwareFamily::FileZilla, Some("0.9.41")),
            ("Serv-U FTP Server v6.4 ready...", SoftwareFamily::ServU, Some("6.4")),
            ("Microsoft FTP Service", SoftwareFamily::MicrosoftFtp, None),
        ];
        for (raw, family, version) in cases {
            let b = Banner::parse(raw);
            assert_eq!(b.software().family, family, "{raw}");
            assert_eq!(
                b.software().version.as_ref().map(|v| v.to_string()),
                version.map(str::to_owned),
                "{raw}"
            );
        }
    }

    #[test]
    fn serv_u_v_prefix_version() {
        // Both "v15.1" and bare "15.1" styles must extract.
        let b = Banner::parse("Serv-U FTP Server 15.1 ready");
        assert_eq!(b.software().version.as_ref().unwrap().to_string(), "15.1");
        let v = Banner::parse("Serv-U FTP Server v15.1 ready");
        assert_eq!(v.software().version.as_ref().unwrap().to_string(), "15.1");
    }

    #[test]
    fn ramnit_banner() {
        let b = Banner::parse("220 RMNetwork FTP");
        assert_eq!(b.software().family, SoftwareFamily::Ramnit);
    }

    #[test]
    fn unknown_banner() {
        let b = Banner::parse("Welcome to my ftp");
        assert_eq!(b.software().family, SoftwareFamily::Unknown);
    }

    #[test]
    fn embedded_device_words() {
        let b = Banner::parse("FRITZ!Box with FTP access ready");
        assert_eq!(b.software().family, SoftwareFamily::Embedded);
    }

    #[test]
    fn forbids_anonymous_detection() {
        assert!(Banner::parse("No anonymous access allowed; members only").forbids_anonymous());
        assert!(Banner::parse("Authorized users only!").forbids_anonymous());
        assert!(!Banner::parse("Anonymous OK, welcome").forbids_anonymous());
        assert!(!Banner::parse("ProFTPD 1.3.5").forbids_anonymous());
    }

    #[test]
    fn private_ip_leak() {
        let b = Banner::parse("NAS-FTP server at 192.168.1.50 ready");
        assert_eq!(b.leaked_private_ip(), Some(std::net::Ipv4Addr::new(192, 168, 1, 50)));
        assert_eq!(Banner::parse("server at 8.8.8.8").leaked_private_ip(), None);
    }

    #[test]
    fn version_ordering() {
        let parse = |s| Version::parse(s).unwrap();
        assert!(parse("1.3.3g") < parse("1.3.4"));
        assert!(parse("1.3.5") > parse("1.3.4a"));
        assert!(parse("2.0.8a") > parse("2.0.8"));
        assert!(parse("1.0.0") == parse("1.0.0"));
        assert!(parse("0.9.41") < parse("0.9.60"));
    }

    #[test]
    fn version_parse_edge_cases() {
        assert_eq!(Version::parse("v1.2"), None);
        assert_eq!(Version::parse(""), None);
        assert_eq!(Version::parse("1").unwrap().to_string(), "1");
        assert_eq!(Version::parse("1.3.5rc3").unwrap().to_string(), "1.3.5r");
    }
}
