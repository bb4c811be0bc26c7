//! The FTP server engine: a [`netsim::Endpoint`] that speaks FTP for one
//! simulated host, driven entirely by a [`ServerProfile`] and a [`Vfs`].

use crate::profile::{AnonPolicy, ServerProfile, UploadQuirk, UserReplyStyle};
use ftp_proto::command::{AuthMechanism, Command};
use ftp_proto::listing::{self, ListingEntryRef};
use ftp_proto::reply::wire_bytes;
use ftp_proto::{FtpPath, HostPort, LineCodec};
use netsim::{ConnId, ConnectError, Ctx, Endpoint};
use simvfs::{FileAttrs, NodeRef, Owner, Vfs};
use netsim::fasthash::FastMap;
use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;

/// Pure-FTPd's distinctive refusal for unapproved anonymous uploads.
pub const NEEDS_APPROVAL_TEXT: &str = "This file has been uploaded by an anonymous user. It has not yet been approved for downloading by the site administrators.";

/// Why the engine may assume it holds its tree: the tree is released
/// only while no control session is open, and rebuilt before the next
/// session's banner.
const HELD: &str = "an open control session holds the tree";

/// Stack capacity for rendering one reply line; covers every fixed
/// engine reply with room to spare. Longer dynamic replies fall back to
/// a heap render.
const REPLY_STACK: usize = 512;

/// `fmt::Write` into a fixed stack buffer; errors (instead of
/// truncating) when full so callers can fall back to the heap.
struct StackWriter<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl fmt::Write for StackWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let bytes = s.as_bytes();
        let end = self.len + bytes.len();
        if end > self.buf.len() {
            return Err(fmt::Error);
        }
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
        Ok(())
    }
}

/// A queued data-channel operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Transfer {
    List(FtpPath),
    Retr(FtpPath),
    Stor(FtpPath),
}

/// Per-control-connection data-channel state.
#[derive(Debug)]
enum DataState {
    None,
    /// `PASV` issued; waiting for the client to connect.
    PasvListening { port: u16, pending: Option<Transfer> },
    /// Client connected to the passive port; no transfer queued yet.
    PasvReady { port: u16, data_conn: ConnId },
    /// `PORT` accepted; waiting for a transfer command.
    PortSet { target: HostPort },
    /// Active-mode connect in flight.
    PortConnecting { token: u64, transfer: Transfer },
    /// `STOR` receiving bytes until the data channel closes.
    Receiving { data_conn: ConnId, path: FtpPath, bytes: Vec<u8> },
}

#[derive(Debug)]
struct Session {
    codec: LineCodec,
    commands: u32,
    peer_ip: Ipv4Addr,
    user: Option<String>,
    authed: bool,
    anonymous: bool,
    tls: bool,
    awaiting_tls_hello: bool,
    cwd: FtpPath,
    rnfr: Option<String>,
    data: DataState,
}

impl Session {
    fn new(peer_ip: Ipv4Addr) -> Self {
        Session {
            codec: LineCodec::new(),
            commands: 0,
            peer_ip,
            user: None,
            authed: false,
            anonymous: false,
            tls: false,
            awaiting_tls_hello: false,
            cwd: FtpPath::root(),
            rnfr: None,
            data: DataState::None,
        }
    }
}

/// Rebuilds a released tree (see [`FtpServerEngine::with_rebuild`]).
struct Rebuild(Box<dyn Fn() -> Vfs + Send + Sync>);

impl fmt::Debug for Rebuild {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Rebuild")
    }
}

/// Counters the experiments read back after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Control connections accepted.
    pub sessions: u64,
    /// Successful logins (anonymous or otherwise).
    pub logins: u64,
    /// Commands processed.
    pub commands: u64,
    /// Files stored via anonymous upload.
    pub uploads: u64,
    /// Times the engine connected a data channel to an address different
    /// from the control-channel peer — i.e. accepted bounce `PORT`s.
    pub bounced_connects: u64,
    /// Simulated TLS handshakes completed.
    pub tls_handshakes: u64,
}

/// An FTP server for a single simulated host.
///
/// Register it as a [`netsim::Endpoint`] and bind it to port 21 of its
/// host. It manages any number of concurrent control sessions plus their
/// data channels.
#[derive(Debug)]
pub struct FtpServerEngine {
    ip: Ipv4Addr,
    profile: ServerProfile,
    /// The published tree; `None` only while released, when no control
    /// session is open.
    vfs: Option<Vfs>,
    /// Rebuilds a released tree. Engines without one keep theirs for
    /// life, and so does an engine whose tree a session took mutably
    /// (upload, mkdir, delete, rename): that drops the recipe, which no
    /// longer reproduces the tree.
    rebuild: Option<Rebuild>,
    sessions: FastMap<ConnId, Session>,
    /// Passive listening port → owning control connection.
    pasv_ports: FastMap<u16, ConnId>,
    /// Established data connection → owning control connection.
    data_conns: FastMap<ConnId, ConnId>,
    /// Outbound (active-mode) connect token → owning control connection.
    out_tokens: FastMap<u64, ConnId>,
    next_token: u64,
    stats: EngineStats,
    /// Welcome banner, pre-rendered to wire bytes at construction —
    /// sent verbatim to every new control session instead of re-cloning
    /// and re-splitting the profile's banner per connection.
    banner_wire: Vec<u8>,
    /// `211` FEAT reply wire bytes; empty when the profile advertises no
    /// features (the 502 path).
    feat_wire: Vec<u8>,
    /// `214` HELP reply wire bytes; empty when the profile has none.
    help_wire: Vec<u8>,
    /// `211` STAT reply wire bytes (fixed text).
    stat_wire: Vec<u8>,
    /// Scratch for rendering one `LIST` body: an enumerator lists each
    /// directory once, so bodies are rendered per `LIST` into this one
    /// reused buffer rather than kept.
    list_body: String,
    /// Scratch for synthesized RETR payloads (files without content).
    payload_scratch: Vec<u8>,
    /// Scratch for decoding control-channel lines (one per engine, not
    /// one `String` per line).
    line_scratch: String,
    /// Scratch for the `user<N>` owner names of listing entries.
    owner_scratch: String,
}

impl FtpServerEngine {
    /// Creates an engine for the host at `ip` publishing `vfs` with the
    /// given behavior profile. It keeps `vfs` for life unless
    /// [`FtpServerEngine::with_rebuild`] lets it release the tree.
    pub fn new(ip: Ipv4Addr, profile: ServerProfile, vfs: Vfs) -> Self {
        // Render the canned wire blocks straight from borrowed lines,
        // without an intermediate `Vec<String>` per host.
        let banner_wire = if profile.banner.contains('\n') {
            // Multiline welcome banner (common on mirrors and corporate
            // servers; the enumerator's hardened parser must cope).
            wire_bytes(220u16, profile.banner.lines())
        } else {
            wire_bytes(220u16, [profile.banner.as_str()])
        };
        let feat_wire = if profile.feat_lines.is_empty() {
            Vec::new()
        } else {
            let lines = std::iter::once("Features:")
                .chain(profile.feat_lines.iter().map(String::as_str))
                .chain(std::iter::once("End"));
            wire_bytes(211u16, lines)
        };
        let help_wire = if profile.help_lines.is_empty() {
            Vec::new()
        } else {
            let extra = if profile.help_lines.len() == 1 { Some("Help OK.") } else { None };
            wire_bytes(214u16, profile.help_lines.iter().map(String::as_str).chain(extra))
        };
        let stat_wire = wire_bytes(211u16, ["FTP server status:", "End of status"]);
        FtpServerEngine {
            ip,
            profile,
            vfs: Some(vfs),
            rebuild: None,
            sessions: FastMap::default(),
            pasv_ports: FastMap::default(),
            data_conns: FastMap::default(),
            out_tokens: FastMap::default(),
            next_token: 1,
            stats: EngineStats::default(),
            banner_wire,
            feat_wire,
            help_wire,
            stat_wire,
            list_body: String::new(),
            payload_scratch: Vec::new(),
            line_scratch: String::new(),
            owner_scratch: String::new(),
        }
    }

    /// Lets the engine hold its tree only while a control session is
    /// open. When the last control session closes, and no session has
    /// changed the tree, the engine drops the tree and its render
    /// scratch; the next control session gets a tree from `rebuild`
    /// before its banner. `rebuild` must return the tree the engine was
    /// created with.
    pub fn with_rebuild(mut self, rebuild: impl Fn() -> Vfs + Send + Sync + 'static) -> Self {
        self.rebuild = Some(Rebuild(Box::new(rebuild)));
        self
    }

    /// The published filesystem (uploads mutate it), or `None` while it
    /// is released between sessions.
    pub fn vfs(&self) -> Option<&Vfs> {
        self.vfs.as_ref()
    }

    /// The tree, for a handler serving an open session.
    fn tree(&self) -> &Vfs {
        self.vfs.as_ref().expect(HELD)
    }

    /// The tree for a write, which drops the recipe: the tree is kept
    /// for life from then on.
    fn tree_mut(&mut self) -> &mut Vfs {
        self.rebuild = None;
        self.vfs.as_mut().expect(HELD)
    }

    /// Drops the tree and the render scratch once no control session is
    /// open, if the engine can rebuild the tree.
    fn release_if_idle(&mut self) {
        if self.sessions.is_empty() && self.rebuild.is_some() {
            self.vfs = None;
            self.list_body = String::new();
            self.payload_scratch = Vec::new();
            self.line_scratch = String::new();
            self.owner_scratch = String::new();
        }
    }

    /// Run counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Sends a single-line reply, rendered on the stack: a heap render
    /// per reply would dominate the engine's profile. Replies longer
    /// than [`REPLY_STACK`] (rare: only pathological profile text) fall
    /// back to [`wire_bytes`] on the heap.
    fn reply(ctx: &mut Ctx<'_>, conn: ConnId, code: u16, text: &str) {
        Self::reply_fmt(ctx, conn, code, format_args!("{text}"));
    }

    /// [`Self::reply`] for formatted text: renders `"{code} {args}\r\n"`
    /// into a stack buffer without allocating.
    fn reply_fmt(ctx: &mut Ctx<'_>, conn: ConnId, code: u16, args: fmt::Arguments<'_>) {
        let mut stack = [0u8; REPLY_STACK];
        let mut w = StackWriter { buf: &mut stack, len: 0 };
        if write!(w, "{code:03} {args}\r\n").is_ok() {
            let len = w.len;
            ctx.send(conn, &stack[..len]);
        } else {
            // Overflowed the stack buffer: render on the heap. Same
            // bytes, just slower.
            ctx.send(conn, &wire_bytes(code, [args.to_string().as_str()]));
        }
    }

    fn resolve(&self, session: &Session, arg: &str) -> Option<FtpPath> {
        // Strip `ls`-style flags some clients prepend ("-la /pub").
        let arg = arg.trim();
        let arg = if let Some(rest) = arg.strip_prefix('-') {
            match rest.split_once(' ') {
                Some((_, path)) => path.trim(),
                None => "",
            }
        } else {
            arg
        };
        if arg.is_empty() {
            Some(session.cwd.clone())
        } else {
            session.cwd.join(arg).ok()
        }
    }

    /// Renders the listing of `path` into `body`, one line per child.
    /// Appends nothing and returns `false` when `path` is not a listable
    /// directory. Takes the pieces of `self` it reads so the caller can
    /// hold the body buffer mutably at the same time.
    fn render_listing_into(
        vfs: &Vfs,
        format: listing::ListingFormat,
        owner_scratch: &mut String,
        path: &FtpPath,
        body: &mut String,
    ) -> bool {
        let Ok(children) = vfs.list(path.as_str()) else { return false };
        for (name, node) in children {
            let (is_dir, size, perms, owner, mtime) = match node {
                NodeRef::File(f) => (false, Some(f.size), f.perms, f.owner, f.mtime),
                NodeRef::Dir(d) => (true, Some(4096), d.perms, d.owner, d.mtime),
            };
            listing::render_line_into(
                ListingEntryRef {
                    name,
                    is_dir,
                    size,
                    permissions: Some(perms),
                    owner: Some(owner.name(owner_scratch)),
                    mtime: Some(mtime),
                },
                format,
                body,
            );
            body.push_str("\r\n");
        }
        true
    }

    /// Executes a transfer on an established data connection, then closes
    /// it and completes on the control channel.
    fn run_transfer(
        &mut self,
        ctx: &mut Ctx<'_>,
        control: ConnId,
        data_conn: ConnId,
        transfer: Transfer,
    ) {
        match transfer {
            Transfer::List(path) => {
                self.list_body.clear();
                let ok = Self::render_listing_into(
                    self.vfs.as_ref().expect(HELD),
                    self.profile.listing_format,
                    &mut self.owner_scratch,
                    &path,
                    &mut self.list_body,
                );
                if ok {
                    ctx.send(data_conn, self.list_body.as_bytes());
                }
                ctx.close(data_conn);
                self.forget_data_conn(ctx, control, data_conn);
                if ok {
                    Self::reply(ctx, control, 226, "Transfer complete.");
                } else {
                    Self::reply(ctx, control, 550, "Failed to open directory.");
                }
            }
            Transfer::Retr(path) => {
                // Send straight from the VFS (or a reused scratch for
                // synthesized bodies) — no per-RETR payload clone.
                let ok = match self.vfs.as_ref().expect(HELD).file(path.as_str()) {
                    Ok(meta) => {
                        match meta.content {
                            Some(c) => ctx.send(data_conn, c.as_bytes()),
                            None => {
                                let n = meta.size.min(2048) as usize;
                                self.payload_scratch.clear();
                                self.payload_scratch.resize(n, b'A');
                                ctx.send(data_conn, &self.payload_scratch);
                            }
                        }
                        true
                    }
                    Err(_) => false,
                };
                ctx.close(data_conn);
                self.forget_data_conn(ctx, control, data_conn);
                if ok {
                    Self::reply(ctx, control, 226, "Transfer complete.");
                } else {
                    Self::reply(ctx, control, 550, "Failed to open file.");
                }
            }
            Transfer::Stor(path) => {
                // Stay open; bytes accumulate until the client closes.
                if let Some(s) = self.sessions.get_mut(&control) {
                    s.data = DataState::Receiving { data_conn, path, bytes: Vec::new() };
                }
            }
        }
    }

    /// Removes data-channel bookkeeping after a completed transfer.
    fn forget_data_conn(&mut self, ctx: &mut Ctx<'_>, control: ConnId, data_conn: ConnId) {
        self.data_conns.remove(&data_conn);
        if let Some(s) = self.sessions.get_mut(&control) {
            if let DataState::PasvReady { port, .. } = s.data {
                ctx.unlisten(self.ip, port);
                self.pasv_ports.remove(&port);
            }
            s.data = DataState::None;
        }
    }

    /// Unbinds any passive listeners still registered to `control` (a
    /// `STOR` leaves its listener behind once the state moves to
    /// `Receiving`).
    fn unlisten_session_ports(&mut self, ctx: &mut Ctx<'_>, control: ConnId) {
        let stale: Vec<u16> = self
            .pasv_ports
            .iter()
            .filter(|&(_, &c)| c == control)
            .map(|(&p, _)| p)
            .collect();
        for p in stale {
            ctx.unlisten(self.ip, p);
            self.pasv_ports.remove(&p);
        }
    }

    fn finalize_upload(&mut self, ctx: &mut Ctx<'_>, control: ConnId) {
        self.unlisten_session_ports(ctx, control);
        let Some(s) = self.sessions.get_mut(&control) else { return };
        let DataState::Receiving { data_conn, path, bytes } =
            std::mem::replace(&mut s.data, DataState::None)
        else {
            return;
        };
        self.data_conns.remove(&data_conn);
        let attrs = FileAttrs {
            owner: Owner::Anonymous,
            content: std::str::from_utf8(&bytes).ok(),
            ..FileAttrs::public(bytes.len() as u64)
        };
        let stored = match self.profile.upload_quirk {
            UploadQuirk::Overwrite => self.tree_mut().add_file(path.as_str(), attrs),
            UploadQuirk::UniqueSuffix => {
                self.tree_mut().store_unique(path.as_str(), attrs).map(|_| ())
            }
            UploadQuirk::NeedsApproval => self.tree_mut().add_file(path.as_str(), attrs),
        };
        match stored {
            Ok(()) => {
                self.stats.uploads += 1;
                Self::reply(ctx, control, 226, "Transfer complete.");
            }
            Err(_) => Self::reply(ctx, control, 550, "Store failed."),
        }
    }

    /// Whether the session may write at `path`.
    fn may_write(&self, session: &Session, path: &FtpPath) -> bool {
        session.authed && self.profile.is_writable_path(path.as_str())
    }

    fn effective_user_style(&self, session: &Session) -> UserReplyStyle {
        if let Some(ftps) = &self.profile.ftps {
            if ftps.required_before_login && !session.tls {
                return UserReplyStyle::FtpsRequired;
            }
        }
        self.profile.user_reply_style
    }

    fn start_transfer_command(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, transfer: Transfer) {
        let Some(s) = self.sessions.get_mut(&conn) else { return };
        match std::mem::replace(&mut s.data, DataState::None) {
            DataState::PasvReady { port, data_conn } => {
                s.data = DataState::PasvReady { port, data_conn };
                Self::reply(ctx, conn, 150, "Opening BINARY mode data connection.");
                self.run_transfer(ctx, conn, data_conn, transfer);
            }
            DataState::PasvListening { port, .. } => {
                s.data = DataState::PasvListening { port, pending: Some(transfer) };
                Self::reply(ctx, conn, 150, "Opening BINARY mode data connection.");
            }
            DataState::PortSet { target } => {
                let token = self.next_token;
                self.next_token += 1;
                if target.ip() != s.peer_ip {
                    self.stats.bounced_connects += 1;
                }
                s.data = DataState::PortConnecting { token, transfer };
                self.out_tokens.insert(token, conn);
                Self::reply(ctx, conn, 150, "Opening BINARY mode data connection.");
                ctx.connect(self.ip, target.ip(), target.port(), token);
            }
            other => {
                s.data = other;
                Self::reply(ctx, conn, 425, "Use PORT or PASV first.");
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn handle_command(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cmd: Command) {
        self.stats.commands += 1;
        {
            let Some(s) = self.sessions.get_mut(&conn) else { return };
            s.commands += 1;
            if self.profile.drop_after_commands > 0
                && s.commands > self.profile.drop_after_commands
            {
                Self::reply(ctx, conn, 421, "Service not available, closing control connection.");
                ctx.close(conn);
                self.cleanup(ctx, conn);
                return;
            }
        }
        let authed = self.sessions.get(&conn).map(|s| s.authed).unwrap_or(false);
        match cmd {
            Command::User(name) => self.cmd_user(ctx, conn, name),
            Command::Pass(pass) => self.cmd_pass(ctx, conn, pass),
            Command::Quit => {
                Self::reply(ctx, conn, 221, "Goodbye.");
                ctx.close(conn);
                self.cleanup(ctx, conn);
            }
            Command::Noop => Self::reply(ctx, conn, 200, "NOOP ok."),
            Command::Syst => Self::reply(ctx, conn, 215, &self.profile.syst),
            Command::Type(_) => Self::reply(ctx, conn, 200, "Type set."),
            Command::Mode(_) => Self::reply(ctx, conn, 200, "Mode set."),
            Command::Stru(_) => Self::reply(ctx, conn, 200, "Structure set."),
            Command::Feat => {
                if self.feat_wire.is_empty() {
                    Self::reply(ctx, conn, 502, "Command not implemented.");
                } else {
                    ctx.send(conn, &self.feat_wire);
                }
            }
            Command::Help(_) => {
                if self.help_wire.is_empty() {
                    Self::reply(ctx, conn, 502, "Command not implemented.");
                } else {
                    ctx.send(conn, &self.help_wire);
                }
            }
            Command::Site(_) => match &self.profile.site_reply {
                Some(text) => Self::reply(ctx, conn, 200, text),
                None => Self::reply(ctx, conn, 502, "SITE command not implemented."),
            },
            Command::Stat(_) => ctx.send(conn, &self.stat_wire),
            Command::Auth(mech) => self.cmd_auth(ctx, conn, mech),
            Command::Pbsz(_) => Self::reply(ctx, conn, 200, "PBSZ=0"),
            Command::Prot(_) => Self::reply(ctx, conn, 200, "Protection level set."),
            Command::Rest(_) => Self::reply(ctx, conn, 350, "Restarting at offset."),
            Command::Abor => Self::reply(ctx, conn, 226, "Abort successful."),
            // --- Authenticated filesystem commands ---
            _ if !authed => {
                Self::reply(ctx, conn, 530, "Please login with USER and PASS.");
            }
            Command::Pwd => {
                let cwd = &self.sessions[&conn].cwd;
                Self::reply_fmt(ctx, conn, 257, format_args!("\"{cwd}\" is the current directory"));
            }
            Command::Cwd(arg) => {
                let target = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match target {
                    Some(p) if self.tree().is_dir(p.as_str()) => {
                        if let Some(s) = self.sessions.get_mut(&conn) {
                            s.cwd = p;
                        }
                        Self::reply(ctx, conn, 250, "Directory successfully changed.");
                    }
                    _ => Self::reply(ctx, conn, 550, "Failed to change directory."),
                }
            }
            Command::Cdup => {
                if let Some(s) = self.sessions.get_mut(&conn) {
                    s.cwd = s.cwd.parent();
                }
                Self::reply(ctx, conn, 250, "Directory successfully changed.");
            }
            Command::Pasv => self.cmd_pasv(ctx, conn),
            Command::Epsv => {
                // Minimal EPSV: reuse the PASV machinery but reply 229.
                self.cmd_pasv_inner(ctx, conn, true);
            }
            Command::Port(hp) | Command::Eprt(hp) => self.cmd_port(ctx, conn, hp),
            Command::List(arg) | Command::Nlst(arg) | Command::Mlsd(arg) => {
                let arg = arg.unwrap_or_default();
                let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                let dir = resolved.and_then(|p| match self.tree().node(p.as_str()) {
                    Ok(NodeRef::Dir(d)) => Some((p, d.perms)),
                    _ => None,
                });
                match dir {
                    Some((_, perms)) if self.profile.enforce_dir_perms && !perms.other_read() => {
                        Self::reply(ctx, conn, 550, "Permission denied.");
                    }
                    Some((p, _)) => self.start_transfer_command(ctx, conn, Transfer::List(p)),
                    None => Self::reply(ctx, conn, 550, "No such directory."),
                }
            }
            Command::Retr(arg) => {
                let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match resolved {
                    Some(p) => match self.tree().file(p.as_str()) {
                        Ok(meta) => {
                            if self.profile.upload_quirk == UploadQuirk::NeedsApproval
                                && meta.owner == Owner::Anonymous
                            {
                                Self::reply(ctx, conn, 550, NEEDS_APPROVAL_TEXT);
                            } else if !meta.perms.other_read() {
                                Self::reply(ctx, conn, 550, "Permission denied.");
                            } else {
                                self.start_transfer_command(ctx, conn, Transfer::Retr(p));
                            }
                        }
                        Err(_) => Self::reply(ctx, conn, 550, "Failed to open file."),
                    },
                    None => Self::reply(ctx, conn, 550, "Failed to open file."),
                }
            }
            Command::Stor(arg) | Command::Appe(arg) => {
                let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match resolved {
                    Some(p)
                        if self
                            .sessions
                            .get(&conn)
                            .map(|s| self.may_write(s, &p))
                            .unwrap_or(false) =>
                    {
                        self.start_transfer_command(ctx, conn, Transfer::Stor(p));
                    }
                    Some(_) => Self::reply(ctx, conn, 550, "Permission denied."),
                    None => Self::reply(ctx, conn, 553, "Could not create file."),
                }
            }
            Command::Size(arg) => {
                let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match resolved.and_then(|p| self.tree().file(p.as_str()).ok().map(|m| m.size)) {
                    Some(size) => Self::reply_fmt(ctx, conn, 213, format_args!("{size}")),
                    None => Self::reply(ctx, conn, 550, "Could not get file size."),
                }
            }
            Command::Mdtm(arg) => {
                let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match resolved.and_then(|p| self.tree().file(p.as_str()).ok().map(|_| ())) {
                    Some(()) => Self::reply(ctx, conn, 213, "20150618094300"),
                    None => Self::reply(ctx, conn, 550, "Could not get modification time."),
                }
            }
            Command::Dele(arg) => self.write_op(ctx, conn, &arg, |vfs, p| {
                vfs.file(p).map(|_| ()).and_then(|()| vfs.remove(p))
            }),
            Command::Rmd(arg) => self.write_op(ctx, conn, &arg, |vfs, p| vfs.remove(p)),
            Command::Mkd(arg) => self.write_op(ctx, conn, &arg, |vfs, p| vfs.mkdir(p)),
            Command::Rnfr(arg) => {
                let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match resolved {
                    Some(p)
                        if self.tree().exists(p.as_str())
                            && self
                                .sessions
                                .get(&conn)
                                .map(|s| self.may_write(s, &p))
                                .unwrap_or(false) =>
                    {
                        if let Some(s) = self.sessions.get_mut(&conn) {
                            s.rnfr = Some(p.as_str().to_owned());
                        }
                        Self::reply(ctx, conn, 350, "Ready for RNTO.");
                    }
                    _ => Self::reply(ctx, conn, 550, "RNFR failed."),
                }
            }
            Command::Rnto(arg) => {
                let from = self.sessions.get_mut(&conn).and_then(|s| s.rnfr.take());
                let to = self.sessions.get(&conn).and_then(|s| self.resolve(s, &arg));
                match (from, to) {
                    (Some(f), Some(t))
                        if self
                            .sessions
                            .get(&conn)
                            .map(|s| self.may_write(s, &t))
                            .unwrap_or(false) =>
                    {
                        match self.tree_mut().rename(&f, t.as_str()) {
                            Ok(()) => Self::reply(ctx, conn, 250, "Rename successful."),
                            Err(_) => Self::reply(ctx, conn, 550, "Rename failed."),
                        }
                    }
                    _ => Self::reply(ctx, conn, 503, "RNFR required first."),
                }
            }
            Command::Stou => Self::reply(ctx, conn, 502, "STOU not implemented."),
            Command::Mlst(_) => Self::reply(ctx, conn, 502, "MLST not implemented."),
            Command::Opts(_) => Self::reply(ctx, conn, 200, "Options OK."),
            Command::Acct(_) | Command::Rein => {
                Self::reply(ctx, conn, 202, "Command superfluous.")
            }
            Command::Other(verb, _) => {
                Self::reply_fmt(ctx, conn, 500, format_args!("'{verb}': command not understood."));
            }
            // `Command` is #[non_exhaustive]; future variants degrade to
            // "not implemented" rather than breaking the engine.
            _ => Self::reply(ctx, conn, 502, "Command not implemented."),
        }
    }

    fn write_op<F>(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, arg: &str, op: F)
    where
        F: FnOnce(&mut Vfs, &str) -> Result<(), simvfs::VfsError>,
    {
        let resolved = self.sessions.get(&conn).and_then(|s| self.resolve(s, arg));
        match resolved {
            Some(p)
                if self.sessions.get(&conn).map(|s| self.may_write(s, &p)).unwrap_or(false) =>
            {
                match op(self.tree_mut(), p.as_str()) {
                    Ok(()) => Self::reply(ctx, conn, 250, "Requested file action okay."),
                    Err(_) => Self::reply(ctx, conn, 550, "Requested action not taken."),
                }
            }
            Some(_) => Self::reply(ctx, conn, 550, "Permission denied."),
            None => Self::reply(ctx, conn, 550, "Invalid path."),
        }
    }

    fn cmd_user(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, name: String) {
        let style = {
            let Some(s) = self.sessions.get(&conn) else { return };
            self.effective_user_style(s)
        };
        let is_anon = name.eq_ignore_ascii_case("anonymous") || name.eq_ignore_ascii_case("ftp");
        let Some(s) = self.sessions.get_mut(&conn) else { return };
        s.user = Some(name);
        if is_anon && self.profile.anonymous == AnonPolicy::NoPassword
            && style != UserReplyStyle::FtpsRequired
            && style != UserReplyStyle::RejectAtUser
        {
            s.authed = true;
            s.anonymous = true;
            self.stats.logins += 1;
            Self::reply(ctx, conn, 230, "Anonymous access granted.");
            return;
        }
        match style {
            UserReplyStyle::Standard => {
                Self::reply(ctx, conn, 331, "User name okay, need password.")
            }
            UserReplyStyle::AnyPassword => {
                Self::reply(ctx, conn, 331, "Any password will work.")
            }
            UserReplyStyle::VirtualHost => Self::reply(
                ctx,
                conn,
                331,
                "Virtual users must supply the site hostname with the username.",
            ),
            UserReplyStyle::FtpsRequired => Self::reply(
                ctx,
                conn,
                331,
                "Non-anonymous sessions must use encryption; secure the connection first.",
            ),
            UserReplyStyle::RejectAtUser => {
                Self::reply(ctx, conn, 530, "Not logged in: anonymous access denied.")
            }
        }
    }

    fn cmd_pass(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _pass: String) {
        let style = {
            let Some(s) = self.sessions.get(&conn) else { return };
            self.effective_user_style(s)
        };
        let Some(s) = self.sessions.get_mut(&conn) else { return };
        let Some(user) = s.user.clone() else {
            Self::reply(ctx, conn, 503, "Login with USER first.");
            return;
        };
        let is_anon = user.eq_ignore_ascii_case("anonymous") || user.eq_ignore_ascii_case("ftp");
        let accept = is_anon
            && matches!(self.profile.anonymous, AnonPolicy::Allowed | AnonPolicy::NoPassword)
            && !matches!(
                style,
                UserReplyStyle::FtpsRequired
                    | UserReplyStyle::VirtualHost
                    | UserReplyStyle::RejectAtUser
            );
        if accept {
            s.authed = true;
            s.anonymous = true;
            self.stats.logins += 1;
            Self::reply(ctx, conn, 230, "Login successful.");
        } else {
            Self::reply(ctx, conn, 530, "Login incorrect.");
        }
    }

    fn cmd_auth(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _mech: AuthMechanism) {
        if self.profile.ftps.is_some() {
            if let Some(s) = self.sessions.get_mut(&conn) {
                s.awaiting_tls_hello = true;
            }
            Self::reply(ctx, conn, 234, "AUTH command ok; starting TLS negotiation.");
        } else {
            Self::reply(ctx, conn, 502, "AUTH not understood.");
        }
    }

    fn cmd_pasv(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.cmd_pasv_inner(ctx, conn, false);
    }

    fn cmd_pasv_inner(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, extended: bool) {
        // Tear down any previous passive listener for this session.
        if let Some(s) = self.sessions.get_mut(&conn) {
            if let DataState::PasvListening { port, .. } | DataState::PasvReady { port, .. } =
                s.data
            {
                ctx.unlisten(self.ip, port);
                self.pasv_ports.remove(&port);
            }
            let port = ctx.listen_ephemeral(self.ip);
            s.data = DataState::PasvListening { port, pending: None };
            self.pasv_ports.insert(port, conn);
            if extended {
                Self::reply_fmt(
                    ctx,
                    conn,
                    229,
                    format_args!("Entering Extended Passive Mode (|||{port}|)"),
                );
            } else {
                let advertised = if self.profile.pasv_advertises_internal {
                    ctx.internal_ip_of(self.ip).unwrap_or(self.ip)
                } else {
                    self.ip
                };
                // Same bytes as `HostPort::to_port_args`, without the
                // intermediate `String` — PASV is sent once per
                // directory visited, making this a hot reply.
                let o = advertised.octets();
                Self::reply_fmt(
                    ctx,
                    conn,
                    227,
                    format_args!(
                        "Entering Passive Mode ({},{},{},{},{},{}).",
                        o[0],
                        o[1],
                        o[2],
                        o[3],
                        port >> 8,
                        port & 0xff
                    ),
                );
            }
        }
    }

    fn cmd_port(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, hp: HostPort) {
        let Some(s) = self.sessions.get_mut(&conn) else { return };
        if self.profile.validates_port && hp.ip() != s.peer_ip {
            Self::reply(ctx, conn, 500, "Illegal PORT command.");
            return;
        }
        if let DataState::PasvListening { port, .. } | DataState::PasvReady { port, .. } = s.data {
            ctx.unlisten(self.ip, port);
            self.pasv_ports.remove(&port);
        }
        s.data = DataState::PortSet { target: hp };
        Self::reply(ctx, conn, 200, "PORT command successful.");
    }

    fn cleanup(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.unlisten_session_ports(ctx, conn);
        if let Some(s) = self.sessions.remove(&conn) {
            if let DataState::Receiving { data_conn, .. } = s.data {
                self.data_conns.remove(&data_conn);
                ctx.close(data_conn);
            }
        }
    }
}

impl Endpoint for FtpServerEngine {
    fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, local_port: u16) {
        if let Some(&control) = self.pasv_ports.get(&local_port) {
            // Data channel for a passive session.
            self.data_conns.insert(conn, control);
            let pending = match self.sessions.get_mut(&control) {
                Some(s) => match std::mem::replace(&mut s.data, DataState::None) {
                    DataState::PasvListening { port, pending } => {
                        s.data = DataState::PasvReady { port, data_conn: conn };
                        pending
                    }
                    other => {
                        s.data = other;
                        None
                    }
                },
                None => None,
            };
            if let Some(t) = pending {
                self.run_transfer(ctx, control, conn, t);
            }
            return;
        }
        // New control session: a released tree is rebuilt first.
        if self.vfs.is_none() {
            self.vfs = self.rebuild.as_ref().map(|r| (r.0)());
        }
        let peer_ip = ctx.peer_of(conn).map(|(ip, _)| ip).unwrap_or(Ipv4Addr::UNSPECIFIED);
        self.sessions.insert(conn, Session::new(peer_ip));
        self.stats.sessions += 1;
        ctx.send(conn, &self.banner_wire);
    }

    fn on_outbound(&mut self, ctx: &mut Ctx<'_>, token: u64, result: Result<ConnId, ConnectError>) {
        let Some(control) = self.out_tokens.remove(&token) else { return };
        let transfer = match self.sessions.get_mut(&control) {
            Some(s) => match std::mem::replace(&mut s.data, DataState::None) {
                DataState::PortConnecting { token: t, transfer } if t == token => Some(transfer),
                other => {
                    s.data = other;
                    None
                }
            },
            None => None,
        };
        match (result, transfer) {
            (Ok(data_conn), Some(t)) => {
                self.data_conns.insert(data_conn, control);
                self.run_transfer(ctx, control, data_conn, t);
            }
            (Ok(data_conn), None) => ctx.close(data_conn),
            (Err(_), Some(_)) => {
                Self::reply(ctx, control, 425, "Can't open data connection.");
            }
            (Err(_), None) => {}
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        // Data-channel bytes (uploads).
        if let Some(&control) = self.data_conns.get(&conn) {
            if let Some(s) = self.sessions.get_mut(&control) {
                if let DataState::Receiving { data_conn, bytes, .. } = &mut s.data {
                    if *data_conn == conn {
                        bytes.extend_from_slice(data);
                    }
                }
            }
            return;
        }
        // Control-channel bytes: decode and dispatch one line at a time
        // through a single reused scratch buffer. The session (and its
        // codec) may be dropped by a handler (QUIT / 421), so the
        // session is re-looked-up each iteration.
        {
            let Some(s) = self.sessions.get_mut(&conn) else { return };
            s.codec.extend(data);
        }
        loop {
            let mut line = std::mem::take(&mut self.line_scratch);
            let got = match self.sessions.get_mut(&conn).map(|s| s.codec.next_line_str()) {
                Some(Ok(Some(l))) => {
                    line.clear();
                    line.push_str(l);
                    true
                }
                _ => false,
            };
            if !got {
                self.line_scratch = line;
                break;
            }
            self.dispatch_control_line(ctx, conn, &line);
            self.line_scratch = line;
        }
        // A `QUIT` or a 421 may have closed the last session.
        self.release_if_idle();
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if let Some(&control) = self.data_conns.get(&conn) {
            // Data connection closed by the client: finalize uploads.
            let is_upload = matches!(
                self.sessions.get(&control).map(|s| &s.data),
                Some(DataState::Receiving { data_conn, .. }) if *data_conn == conn
            );
            if is_upload {
                self.finalize_upload(ctx, control);
            }
            self.data_conns.remove(&conn);
            return;
        }
        self.cleanup(ctx, conn);
        self.release_if_idle();
    }
}

impl FtpServerEngine {
    /// Handles one decoded control-channel line.
    fn dispatch_control_line(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, line: &str) {
        // Simulated TLS handshake interleaves with command lines.
        if line.starts_with('\u{1}') {
            let awaiting = self.sessions.get(&conn).map(|s| s.awaiting_tls_hello).unwrap_or(false);
            if awaiting && line.starts_with(simtls::CLIENT_HELLO) {
                if let Some(ftps) = &self.profile.ftps {
                    let hello = ftps.cert.to_server_hello();
                    self.payload_scratch.clear();
                    self.payload_scratch.extend_from_slice(hello.as_bytes());
                    self.payload_scratch.extend_from_slice(b"\r\n");
                    ctx.send(conn, &self.payload_scratch);
                    if let Some(s) = self.sessions.get_mut(&conn) {
                        s.tls = true;
                        s.awaiting_tls_hello = false;
                    }
                    self.stats.tls_handshakes += 1;
                }
            }
            return;
        }
        match line.parse::<Command>() {
            Ok(cmd) => self.handle_command(ctx, conn, cmd),
            Err(_) => Self::reply(ctx, conn, 500, "Syntax error, command unrecognized."),
        }
    }
}
