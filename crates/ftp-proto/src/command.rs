//! FTP client commands (RFC 959, RFC 2228, RFC 2389, RFC 2428, RFC 4217).

use crate::error::ProtoError;
use crate::hostport::HostPort;
use std::fmt;
use std::str::FromStr;

/// An FTP command as sent by a client on the control channel.
///
/// The parser is intentionally liberal, mirroring the hardening the
/// paper's enumerator needed to speak with "diverse real-world
/// implementations" (§III): verbs are matched case-insensitively,
/// surrounding whitespace is tolerated, and unknown verbs are preserved in
/// [`Command::Other`] rather than rejected so a server (or honeypot) can
/// still log and answer `502 Command not implemented`.
///
/// # Example
///
/// ```
/// use ftp_proto::Command;
///
/// let c: Command = "user anonymous".parse()?;
/// assert_eq!(c, Command::User("anonymous".into()));
/// assert_eq!(c.to_string(), "USER anonymous\r\n");
/// # Ok::<(), ftp_proto::ProtoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Command {
    /// `USER <name>` — begin login.
    User(String),
    /// `PASS <password>` — complete login.
    Pass(String),
    /// `ACCT <info>` — account information (rarely used).
    Acct(String),
    /// `CWD <dir>` — change working directory.
    Cwd(String),
    /// `CDUP` — change to parent directory.
    Cdup,
    /// `QUIT` — end session.
    Quit,
    /// `REIN` — reinitialize session.
    Rein,
    /// `PORT h1,h2,h3,h4,p1,p2` — active-mode data channel.
    Port(HostPort),
    /// `PASV` — request passive-mode data channel.
    Pasv,
    /// `EPRT |1|h.h.h.h|p|` — extended active mode (RFC 2428).
    Eprt(HostPort),
    /// `EPSV` — extended passive mode (RFC 2428).
    Epsv,
    /// `TYPE <A|I|E|L>` — transfer type.
    Type(TransferType),
    /// `MODE <S|B|C>` — transfer mode.
    Mode(char),
    /// `STRU <F|R|P>` — file structure.
    Stru(char),
    /// `RETR <path>` — download a file.
    Retr(String),
    /// `STOR <path>` — upload a file.
    Stor(String),
    /// `STOU` — store with unique name.
    Stou,
    /// `APPE <path>` — append to a file.
    Appe(String),
    /// `REST <marker>` — restart transfer at offset.
    Rest(u64),
    /// `RNFR <path>` — rename from.
    Rnfr(String),
    /// `RNTO <path>` — rename to.
    Rnto(String),
    /// `ABOR` — abort transfer.
    Abor,
    /// `DELE <path>` — delete a file.
    Dele(String),
    /// `RMD <path>` — remove a directory.
    Rmd(String),
    /// `MKD <path>` — make a directory.
    Mkd(String),
    /// `PWD` — print working directory.
    Pwd,
    /// `LIST [path]` — long directory listing.
    List(Option<String>),
    /// `NLST [path]` — names-only listing.
    Nlst(Option<String>),
    /// `MLSD [path]` — machine-readable listing (RFC 3659).
    Mlsd(Option<String>),
    /// `MLST [path]` — machine-readable single entry (RFC 3659).
    Mlst(Option<String>),
    /// `SIZE <path>` — file size (RFC 3659).
    Size(String),
    /// `MDTM <path>` — modification time (RFC 3659).
    Mdtm(String),
    /// `SITE <params>` — site-specific commands.
    Site(String),
    /// `SYST` — system type.
    Syst,
    /// `STAT [path]` — status.
    Stat(Option<String>),
    /// `HELP [topic]` — help text.
    Help(Option<String>),
    /// `FEAT` — feature list (RFC 2389).
    Feat,
    /// `OPTS <name> [value]` — set options (RFC 2389).
    Opts(String),
    /// `NOOP` — no operation.
    Noop,
    /// `AUTH <TLS|SSL>` — upgrade to FTPS (RFC 4217 / RFC 2228).
    Auth(AuthMechanism),
    /// `PBSZ <size>` — protection buffer size (RFC 2228).
    Pbsz(u64),
    /// `PROT <C|P>` — data-channel protection level (RFC 2228).
    Prot(char),
    /// Any verb this crate does not model; `(verb, argument)`.
    Other(String, String),
}

/// Transfer type for the `TYPE` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferType {
    /// ASCII (`TYPE A`) — the protocol default.
    #[default]
    Ascii,
    /// Image/binary (`TYPE I`).
    Image,
    /// EBCDIC (`TYPE E`) — historical.
    Ebcdic,
    /// Local byte size (`TYPE L`).
    Local,
}

/// Mechanism requested in an `AUTH` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuthMechanism {
    /// `AUTH TLS` (RFC 4217).
    Tls,
    /// `AUTH SSL` (legacy draft; still widely sent by clients).
    Ssl,
}

impl Command {
    /// The canonical verb for this command, e.g. `"RETR"`.
    pub fn verb(&self) -> &str {
        match self {
            Command::User(_) => "USER",
            Command::Pass(_) => "PASS",
            Command::Acct(_) => "ACCT",
            Command::Cwd(_) => "CWD",
            Command::Cdup => "CDUP",
            Command::Quit => "QUIT",
            Command::Rein => "REIN",
            Command::Port(_) => "PORT",
            Command::Pasv => "PASV",
            Command::Eprt(_) => "EPRT",
            Command::Epsv => "EPSV",
            Command::Type(_) => "TYPE",
            Command::Mode(_) => "MODE",
            Command::Stru(_) => "STRU",
            Command::Retr(_) => "RETR",
            Command::Stor(_) => "STOR",
            Command::Stou => "STOU",
            Command::Appe(_) => "APPE",
            Command::Rest(_) => "REST",
            Command::Rnfr(_) => "RNFR",
            Command::Rnto(_) => "RNTO",
            Command::Abor => "ABOR",
            Command::Dele(_) => "DELE",
            Command::Rmd(_) => "RMD",
            Command::Mkd(_) => "MKD",
            Command::Pwd => "PWD",
            Command::List(_) => "LIST",
            Command::Nlst(_) => "NLST",
            Command::Mlsd(_) => "MLSD",
            Command::Mlst(_) => "MLST",
            Command::Size(_) => "SIZE",
            Command::Mdtm(_) => "MDTM",
            Command::Site(_) => "SITE",
            Command::Syst => "SYST",
            Command::Stat(_) => "STAT",
            Command::Help(_) => "HELP",
            Command::Feat => "FEAT",
            Command::Opts(_) => "OPTS",
            Command::Noop => "NOOP",
            Command::Auth(_) => "AUTH",
            Command::Pbsz(_) => "PBSZ",
            Command::Prot(_) => "PROT",
            Command::Other(v, _) => v,
        }
    }
}

fn opt_arg(arg: &str) -> Option<String> {
    if arg.is_empty() {
        None
    } else {
        Some(arg.to_owned())
    }
}

impl FromStr for Command {
    type Err = ProtoError;

    /// Parses one control-channel line (with or without trailing CRLF).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::BadCommand`] when the line is empty, and
    /// [`ProtoError::BadHostPort`] when a `PORT`/`EPRT` argument is
    /// malformed. Unknown verbs succeed as [`Command::Other`].
    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let line = line.trim_end_matches(['\r', '\n']).trim();
        if line.is_empty() {
            return Err(ProtoError::bad_command(line));
        }
        let (verb, arg) = match line.find(' ') {
            Some(ix) => (&line[..ix], line[ix + 1..].trim()),
            None => (line, ""),
        };
        // Every known verb is at most 4 ASCII bytes, so uppercase into a
        // stack buffer and only allocate for the unknown-verb fallback.
        let mut verb_buf = [0u8; 4];
        let upper = if verb.len() <= 4 {
            let buf = &mut verb_buf[..verb.len()];
            buf.copy_from_slice(verb.as_bytes());
            buf.make_ascii_uppercase();
            // ASCII-uppercasing bytes never invalidates UTF-8.
            std::str::from_utf8(buf).unwrap_or("")
        } else {
            ""
        };
        Ok(match upper {
            "USER" => Command::User(arg.to_owned()),
            "PASS" => Command::Pass(arg.to_owned()),
            "ACCT" => Command::Acct(arg.to_owned()),
            "CWD" | "XCWD" => Command::Cwd(arg.to_owned()),
            "CDUP" | "XCUP" => Command::Cdup,
            "QUIT" => Command::Quit,
            "REIN" => Command::Rein,
            "PORT" => Command::Port(arg.parse()?),
            "PASV" => Command::Pasv,
            "EPRT" => Command::Eprt(HostPort::parse_eprt(arg)?),
            "EPSV" => Command::Epsv,
            "TYPE" => Command::Type(match arg.chars().next().map(|c| c.to_ascii_uppercase()) {
                Some('A') | None => TransferType::Ascii,
                Some('I') => TransferType::Image,
                Some('E') => TransferType::Ebcdic,
                Some('L') => TransferType::Local,
                Some(_) => return Err(ProtoError::bad_command(line)),
            }),
            "MODE" => Command::Mode(first_char_upper(arg).unwrap_or('S')),
            "STRU" => Command::Stru(first_char_upper(arg).unwrap_or('F')),
            "RETR" => Command::Retr(arg.to_owned()),
            "STOR" => Command::Stor(arg.to_owned()),
            "STOU" => Command::Stou,
            "APPE" => Command::Appe(arg.to_owned()),
            "REST" => Command::Rest(arg.parse().map_err(|_| ProtoError::bad_command(line))?),
            "RNFR" => Command::Rnfr(arg.to_owned()),
            "RNTO" => Command::Rnto(arg.to_owned()),
            "ABOR" => Command::Abor,
            "DELE" => Command::Dele(arg.to_owned()),
            "RMD" | "XRMD" => Command::Rmd(arg.to_owned()),
            "MKD" | "XMKD" => Command::Mkd(arg.to_owned()),
            "PWD" | "XPWD" => Command::Pwd,
            "LIST" => Command::List(opt_arg(arg)),
            "NLST" => Command::Nlst(opt_arg(arg)),
            "MLSD" => Command::Mlsd(opt_arg(arg)),
            "MLST" => Command::Mlst(opt_arg(arg)),
            "SIZE" => Command::Size(arg.to_owned()),
            "MDTM" => Command::Mdtm(arg.to_owned()),
            "SITE" => Command::Site(arg.to_owned()),
            "SYST" => Command::Syst,
            "STAT" => Command::Stat(opt_arg(arg)),
            "HELP" => Command::Help(opt_arg(arg)),
            "FEAT" => Command::Feat,
            "OPTS" => Command::Opts(arg.to_owned()),
            "NOOP" => Command::Noop,
            "AUTH" => {
                if arg.eq_ignore_ascii_case("TLS") || arg.eq_ignore_ascii_case("TLS-C") {
                    Command::Auth(AuthMechanism::Tls)
                } else if arg.eq_ignore_ascii_case("SSL") {
                    Command::Auth(AuthMechanism::Ssl)
                } else {
                    Command::Other("AUTH".into(), arg.to_owned())
                }
            }
            "PBSZ" => Command::Pbsz(arg.parse().unwrap_or(0)),
            "PROT" => Command::Prot(first_char_upper(arg).unwrap_or('C')),
            _ => Command::Other(verb.to_ascii_uppercase(), arg.to_owned()),
        })
    }
}

fn first_char_upper(s: &str) -> Option<char> {
    s.chars().next().map(|c| c.to_ascii_uppercase())
}

impl fmt::Display for Command {
    /// Serializes the command as a wire line *including* trailing CRLF.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::User(a) => write!(f, "USER {a}\r\n"),
            Command::Pass(a) => write!(f, "PASS {a}\r\n"),
            Command::Acct(a) => write!(f, "ACCT {a}\r\n"),
            Command::Cwd(a) => write!(f, "CWD {a}\r\n"),
            Command::Cdup => write!(f, "CDUP\r\n"),
            Command::Quit => write!(f, "QUIT\r\n"),
            Command::Rein => write!(f, "REIN\r\n"),
            Command::Port(hp) => write!(f, "PORT {}\r\n", hp.to_port_args()),
            Command::Pasv => write!(f, "PASV\r\n"),
            Command::Eprt(hp) => write!(f, "EPRT {}\r\n", hp.to_eprt_args()),
            Command::Epsv => write!(f, "EPSV\r\n"),
            Command::Type(t) => write!(
                f,
                "TYPE {}\r\n",
                match t {
                    TransferType::Ascii => 'A',
                    TransferType::Image => 'I',
                    TransferType::Ebcdic => 'E',
                    TransferType::Local => 'L',
                }
            ),
            Command::Mode(c) => write!(f, "MODE {c}\r\n"),
            Command::Stru(c) => write!(f, "STRU {c}\r\n"),
            Command::Retr(a) => write!(f, "RETR {a}\r\n"),
            Command::Stor(a) => write!(f, "STOR {a}\r\n"),
            Command::Stou => write!(f, "STOU\r\n"),
            Command::Appe(a) => write!(f, "APPE {a}\r\n"),
            Command::Rest(n) => write!(f, "REST {n}\r\n"),
            Command::Rnfr(a) => write!(f, "RNFR {a}\r\n"),
            Command::Rnto(a) => write!(f, "RNTO {a}\r\n"),
            Command::Abor => write!(f, "ABOR\r\n"),
            Command::Dele(a) => write!(f, "DELE {a}\r\n"),
            Command::Rmd(a) => write!(f, "RMD {a}\r\n"),
            Command::Mkd(a) => write!(f, "MKD {a}\r\n"),
            Command::Pwd => write!(f, "PWD\r\n"),
            Command::List(None) => write!(f, "LIST\r\n"),
            Command::List(Some(a)) => write!(f, "LIST {a}\r\n"),
            Command::Nlst(None) => write!(f, "NLST\r\n"),
            Command::Nlst(Some(a)) => write!(f, "NLST {a}\r\n"),
            Command::Mlsd(None) => write!(f, "MLSD\r\n"),
            Command::Mlsd(Some(a)) => write!(f, "MLSD {a}\r\n"),
            Command::Mlst(None) => write!(f, "MLST\r\n"),
            Command::Mlst(Some(a)) => write!(f, "MLST {a}\r\n"),
            Command::Size(a) => write!(f, "SIZE {a}\r\n"),
            Command::Mdtm(a) => write!(f, "MDTM {a}\r\n"),
            Command::Site(a) => write!(f, "SITE {a}\r\n"),
            Command::Syst => write!(f, "SYST\r\n"),
            Command::Stat(None) => write!(f, "STAT\r\n"),
            Command::Stat(Some(a)) => write!(f, "STAT {a}\r\n"),
            Command::Help(None) => write!(f, "HELP\r\n"),
            Command::Help(Some(a)) => write!(f, "HELP {a}\r\n"),
            Command::Feat => write!(f, "FEAT\r\n"),
            Command::Opts(a) => write!(f, "OPTS {a}\r\n"),
            Command::Noop => write!(f, "NOOP\r\n"),
            Command::Auth(AuthMechanism::Tls) => write!(f, "AUTH TLS\r\n"),
            Command::Auth(AuthMechanism::Ssl) => write!(f, "AUTH SSL\r\n"),
            Command::Pbsz(n) => write!(f, "PBSZ {n}\r\n"),
            Command::Prot(c) => write!(f, "PROT {c}\r\n"),
            Command::Other(v, a) if a.is_empty() => write!(f, "{v}\r\n"),
            Command::Other(v, a) => write!(f, "{v} {a}\r\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_case_insensitively() {
        assert_eq!("user anonymous".parse::<Command>().unwrap(), Command::User("anonymous".into()));
        assert_eq!("QuIt".parse::<Command>().unwrap(), Command::Quit);
    }

    #[test]
    fn tolerates_crlf_and_whitespace() {
        assert_eq!(
            "  RETR  file.txt \r\n".parse::<Command>().unwrap(),
            Command::Retr("file.txt".into())
        );
    }

    #[test]
    fn unknown_verbs_become_other() {
        let c: Command = "XSHA1 foo".parse().unwrap();
        assert_eq!(c, Command::Other("XSHA1".into(), "foo".into()));
        assert_eq!(c.verb(), "XSHA1");
    }

    #[test]
    fn empty_line_is_error() {
        assert!("".parse::<Command>().is_err());
        assert!("\r\n".parse::<Command>().is_err());
    }

    #[test]
    fn port_roundtrip() {
        let c: Command = "PORT 192,168,1,2,4,1".parse().unwrap();
        match &c {
            Command::Port(hp) => {
                assert_eq!(hp.ip().octets(), [192, 168, 1, 2]);
                assert_eq!(hp.port(), 4 * 256 + 1);
            }
            _ => panic!("expected PORT"),
        }
        assert_eq!(c.to_string(), "PORT 192,168,1,2,4,1\r\n");
    }

    #[test]
    fn eprt_parse() {
        let c: Command = "EPRT |1|10.0.0.1|8080|".parse().unwrap();
        match c {
            Command::Eprt(hp) => assert_eq!(hp.port(), 8080),
            _ => panic!("expected EPRT"),
        }
    }

    #[test]
    fn x_aliases_map_to_canonical() {
        assert_eq!("XPWD".parse::<Command>().unwrap(), Command::Pwd);
        assert_eq!("XCWD /tmp".parse::<Command>().unwrap(), Command::Cwd("/tmp".into()));
    }

    #[test]
    fn auth_variants() {
        assert_eq!("AUTH TLS".parse::<Command>().unwrap(), Command::Auth(AuthMechanism::Tls));
        assert_eq!("auth ssl".parse::<Command>().unwrap(), Command::Auth(AuthMechanism::Ssl));
        // Unknown mechanisms survive as Other for honeypot logging.
        assert!(matches!("AUTH KRB5".parse::<Command>().unwrap(), Command::Other(_, _)));
    }

    #[test]
    fn display_always_ends_with_crlf() {
        for line in ["USER a", "PASV", "LIST", "SITE CHMOD 777 x", "TYPE I"] {
            let c: Command = line.parse().unwrap();
            assert!(c.to_string().ends_with("\r\n"), "{line}");
        }
    }

    #[test]
    fn rest_requires_numeric_argument() {
        assert!("REST 100".parse::<Command>().is_ok());
        assert!("REST abc".parse::<Command>().is_err());
    }
}
