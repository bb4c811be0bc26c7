//! End-to-end behavioral tests of the FTP server engine, driven by the
//! scripted client over the network simulator.

use ftpd::engine::NEEDS_APPROVAL_TEXT;
use ftpd::profile::{AnonPolicy, ServerProfile, UploadQuirk, UserReplyStyle};
use ftpd::{Action, FtpServerEngine, ScriptedFtpClient};
use netsim::{Endpoint, SimDuration, Simulator};
use simtls::SimCertificate;
use simvfs::{FileAttrs, Vfs};
use std::net::Ipv4Addr;

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

fn sample_vfs() -> Vfs {
    let mut v = Vfs::new();
    let robots = FileAttrs::public(0).with_content("User-agent: *\nDisallow: /private/\n");
    v.add_file("/robots.txt", robots).unwrap();
    v.add_file("/pub/readme.txt", FileAttrs::public(0).with_content("hello world")).unwrap();
    v.add_file("/pub/photos/DSC_0001.JPG", FileAttrs::public(2_400_000)).unwrap();
    v.add_file("/private/secret.txt", FileAttrs::private(100)).unwrap();
    v.mkdir_p("/incoming").unwrap();
    v
}

/// A typed harness that keeps concrete ownership outside the simulator —
/// endpoints are registered by reference-counted proxy.
struct Proxy<T: Endpoint>(std::rc::Rc<std::cell::RefCell<T>>);

impl<T: Endpoint> Endpoint for Proxy<T> {
    fn on_inbound(&mut self, ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId, local_port: u16) {
        self.0.borrow_mut().on_inbound(ctx, conn, local_port);
    }
    fn on_outbound(
        &mut self,
        ctx: &mut netsim::Ctx<'_>,
        token: u64,
        result: Result<netsim::ConnId, netsim::ConnectError>,
    ) {
        self.0.borrow_mut().on_outbound(ctx, token, result);
    }
    fn on_data(&mut self, ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId, data: &[u8]) {
        self.0.borrow_mut().on_data(ctx, conn, data);
    }
    fn on_close(&mut self, ctx: &mut netsim::Ctx<'_>, conn: netsim::ConnId) {
        self.0.borrow_mut().on_close(ctx, conn);
    }
    fn on_timer(&mut self, ctx: &mut netsim::Ctx<'_>, token: u64) {
        self.0.borrow_mut().on_timer(ctx, token);
    }
    fn on_probe(
        &mut self,
        ctx: &mut netsim::Ctx<'_>,
        target: Ipv4Addr,
        port: u16,
        status: netsim::ProbeStatus,
    ) {
        self.0.borrow_mut().on_probe(ctx, target, port, status);
    }
}

fn run(
    profile: ServerProfile,
    vfs: Vfs,
    script: Vec<Action>,
) -> (
    std::rc::Rc<std::cell::RefCell<ScriptedFtpClient>>,
    std::rc::Rc<std::cell::RefCell<FtpServerEngine>>,
) {
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut sim = Simulator::new(11);
    let engine = Rc::new(RefCell::new(FtpServerEngine::new(SERVER, profile, vfs)));
    let sid = sim.register_endpoint(Box::new(Proxy(engine.clone())));
    sim.bind(SERVER, 21, sid);
    let client = Rc::new(RefCell::new(ScriptedFtpClient::new(CLIENT, (SERVER, 21), script)));
    let cid = sim.register_endpoint(Box::new(Proxy(client.clone())));
    sim.schedule_timer(cid, SimDuration::ZERO, 0);
    sim.run();
    (client, engine)
}

/// Runs each script of `groups` as a session of one engine that
/// publishes `sample_vfs()` and rebuilds it from `sample_vfs` after a
/// release. The sessions in a group start together; a group starts once
/// the one before it has finished. Returns every client, in script
/// order, and whether the engine held a tree after each group.
fn run_rebuilding_groups(
    profile: ServerProfile,
    groups: Vec<Vec<Vec<Action>>>,
) -> (Vec<std::rc::Rc<std::cell::RefCell<ScriptedFtpClient>>>, Vec<bool>) {
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut sim = Simulator::new(11);
    let engine = FtpServerEngine::new(SERVER, profile, sample_vfs()).with_rebuild(sample_vfs);
    let engine = Rc::new(RefCell::new(engine));
    let sid = sim.register_endpoint(Box::new(Proxy(engine.clone())));
    sim.bind(SERVER, 21, sid);
    let mut clients = Vec::new();
    let mut held = Vec::new();
    for (g, group) in groups.into_iter().enumerate() {
        for (i, script) in group.into_iter().enumerate() {
            let src = Ipv4Addr::new(10, 9, g as u8, i as u8 + 1);
            let client = Rc::new(RefCell::new(ScriptedFtpClient::new(src, (SERVER, 21), script)));
            let cid = sim.register_endpoint(Box::new(Proxy(client.clone())));
            sim.schedule_timer(cid, SimDuration::ZERO, 0);
            clients.push(client);
        }
        sim.run();
        held.push(engine.borrow().vfs().is_some());
    }
    (clients, held)
}

fn anon_profile() -> ServerProfile {
    ServerProfile::new("ProFTPD 1.3.5 Server (Debian)").with_anonymous(AnonPolicy::Allowed)
}

fn login() -> Vec<Action> {
    vec![
        Action::Send("USER anonymous".into()),
        Action::Send("PASS scan@example.org".into()),
    ]
}

#[test]
fn banner_login_and_pwd() {
    let mut script = login();
    script.push(Action::Send("PWD".into()));
    script.push(Action::Quit);
    let (client, engine) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert!(c.finished());
    assert_eq!(c.codes(), vec![220, 331, 230, 257, 221]);
    assert!(c.replies()[0].text().contains("ProFTPD"));
    assert_eq!(engine.borrow().stats().logins, 1);
}

#[test]
fn anonymous_denied_gets_530() {
    let script = vec![
        Action::Send("USER anonymous".into()),
        Action::Send("PASS x@y".into()),
        Action::Quit,
    ];
    let profile = ServerProfile::new("Private FTP"); // AnonPolicy::Denied
    let (client, _) = run(profile, sample_vfs(), script);
    assert_eq!(client.borrow().codes(), vec![220, 331, 530, 221]);
}

#[test]
fn no_password_devices_accept_at_user() {
    let script = vec![Action::Send("USER anonymous".into()), Action::Quit];
    let profile =
        ServerProfile::new("NAS-FTP ready").with_anonymous(AnonPolicy::NoPassword);
    let (client, _) = run(profile, sample_vfs(), script);
    assert_eq!(client.borrow().codes(), vec![220, 230, 221]);
}

#[test]
fn four_meanings_of_331_reject_variants() {
    // VirtualHost style: 331 then PASS fails.
    let (client, _) = run(
        anon_profile().with_user_reply(UserReplyStyle::VirtualHost),
        sample_vfs(),
        login(),
    );
    assert_eq!(client.borrow().codes(), vec![220, 331, 530]);

    // FTPS-required style.
    let cert = SimCertificate::self_signed("localhost", 5);
    let (client, _) = run(
        anon_profile().with_ftps(cert, true),
        sample_vfs(),
        login(),
    );
    let c = client.borrow();
    assert_eq!(c.codes(), vec![220, 331, 530]);
    assert!(c.replies()[1].text().to_lowercase().contains("encryption"));
}

#[test]
fn commands_before_login_rejected() {
    let script = vec![Action::Send("PWD".into()), Action::Send("CWD /pub".into()), Action::Quit];
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    assert_eq!(client.borrow().codes(), vec![220, 530, 530, 221]);
}

#[test]
fn list_via_pasv_returns_unix_listing() {
    let mut script = login();
    script.extend([
        Action::Send("CWD /pub".into()),
        Action::OpenPasv,
        Action::TransferGet("LIST".into()),
        Action::Quit,
    ]);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert!(c.finished());
    let (_, bytes) = &c.downloads()[0];
    let body = String::from_utf8_lossy(bytes);
    assert!(body.contains("readme.txt"), "{body}");
    assert!(body.contains("photos"), "{body}");
    assert!(body.starts_with('-') || body.starts_with('d'), "unix format: {body}");
    // 150 + 226 present.
    assert!(c.codes().contains(&150));
    assert!(c.codes().contains(&226));
}

/// `LIST` bodies for every `Owner` variant, in both formats the
/// engine's profiles use, pinned to literal bytes captured from the
/// `write!`-based renderer the engine used to call.
#[test]
fn list_bodies_are_pinned_for_every_owner() {
    use ftp_proto::listing::ListingFormat;
    use simvfs::Owner;
    let mut v = Vfs::new();
    v.add_file("/o/u7.txt", FileAttrs::public(12).with_owner(Owner::User(7))).unwrap();
    v.add_file("/o/umax.dat", FileAttrs::public(0).with_owner(Owner::User(u16::MAX))).unwrap();
    v.add_file(
        "/o/root.cfg",
        FileAttrs::private(718).with_owner(Owner::Root).with_mtime("Jan  5  2015"),
    )
    .unwrap();
    v.add_file("/o/anon.bin", FileAttrs::public(5).with_owner(Owner::Anonymous)).unwrap();
    v.add_file("/o/ftp.txt", FileAttrs::public(1_048_576).with_owner(Owner::Ftp)).unwrap();
    v.mkdir_p("/o/sub").unwrap();
    let unix = "-rw-r--r--   1 ftp      ftp                 5 Jun 18  2015 anon.bin\r\n\
                -rw-r--r--   1 ftp      ftp           1048576 Jun 18  2015 ftp.txt\r\n\
                -rw-------   1 root     root              718 Jan  5  2015 root.cfg\r\n\
                drwxr-xr-x   1 ftp      ftp              4096 Jun 18  2015 sub\r\n\
                -rw-r--r--   1 user7    user7              12 Jun 18  2015 u7.txt\r\n\
                -rw-r--r--   1 user65535 user65535            0 Jun 18  2015 umax.dat\r\n";
    let dos = "06-18-15 09:43AM                    5 anon.bin\r\n\
               06-18-15 09:43AM              1048576 ftp.txt\r\n\
               06-18-15 09:43AM                  718 root.cfg\r\n\
               06-18-15 09:43AM       <DIR>          sub\r\n\
               06-18-15 09:43AM                   12 u7.txt\r\n\
               06-18-15 09:43AM                    0 umax.dat\r\n";
    for (format, want) in [(ListingFormat::Unix, unix), (ListingFormat::Dos, dos)] {
        let mut script = login();
        script.extend([Action::OpenPasv, Action::TransferGet("LIST /o".into()), Action::Quit]);
        let (client, _) = run(anon_profile().with_listing_format(format), v.clone(), script);
        let c = client.borrow();
        let (_, bytes) = &c.downloads()[0];
        assert_eq!(String::from_utf8_lossy(bytes), want, "{format:?}");
    }
}

#[test]
fn retr_downloads_file_content() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferGet("RETR /pub/readme.txt".into()),
        Action::Quit,
    ]);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert_eq!(c.downloads()[0].1, b"hello world");
}

#[test]
fn retr_robots_txt() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferGet("RETR robots.txt".into()),
        Action::Quit,
    ]);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    let body = String::from_utf8_lossy(&c.downloads()[0].1).into_owned();
    assert!(body.contains("Disallow: /private/"));
}

#[test]
fn retr_permission_denied_for_private_file() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferGet("RETR /private/secret.txt".into()),
        Action::Quit,
    ]);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert!(c.codes().contains(&550), "{:?}", c.codes());
    assert!(c.downloads().is_empty());
}

#[test]
fn stor_denied_outside_writable_dirs() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferPut("STOR /pub/evil.txt".into(), b"x".to_vec()),
        Action::Quit,
    ]);
    let (client, engine) = run(anon_profile(), sample_vfs(), script);
    assert!(client.borrow().codes().contains(&550));
    assert_eq!(engine.borrow().stats().uploads, 0);
    assert!(!engine.borrow().vfs().unwrap().exists("/pub/evil.txt"));
}

#[test]
fn stor_allowed_in_writable_dir() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferPut("STOR /incoming/probe.txt".into(), b"w0000000t".to_vec()),
        Action::Quit,
    ]);
    let (client, engine) = run(
        anon_profile().with_writable("/incoming"),
        sample_vfs(),
        script,
    );
    let c = client.borrow();
    assert!(c.codes().contains(&226), "{:?}", c.codes());
    let e = engine.borrow();
    assert_eq!(e.stats().uploads, 1);
    let f = e.vfs().unwrap().file("/incoming/probe.txt").unwrap();
    assert_eq!(f.content, Some("w0000000t"));
}

#[test]
fn unique_suffix_quirk_appends_numbers() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferPut("STOR /incoming/name".into(), b"1".to_vec()),
        Action::OpenPasv,
        Action::TransferPut("STOR /incoming/name".into(), b"2".to_vec()),
        Action::Quit,
    ]);
    let (_, engine) = run(
        anon_profile().with_writable("/incoming").with_upload_quirk(UploadQuirk::UniqueSuffix),
        sample_vfs(),
        script,
    );
    let e = engine.borrow();
    assert!(e.vfs().unwrap().exists("/incoming/name"));
    assert!(e.vfs().unwrap().exists("/incoming/name.1"));
}

#[test]
fn needs_approval_quirk_blocks_download_of_upload() {
    let mut script = login();
    script.extend([
        Action::OpenPasv,
        Action::TransferPut("STOR /incoming/up.txt".into(), b"data".to_vec()),
        Action::OpenPasv,
        Action::TransferGet("RETR /incoming/up.txt".into()),
        Action::Quit,
    ]);
    let (client, _) = run(
        anon_profile().with_writable("/incoming").with_upload_quirk(UploadQuirk::NeedsApproval),
        sample_vfs(),
        script,
    );
    let c = client.borrow();
    let denial = c
        .replies()
        .iter()
        .find(|r| r.code().value() == 550 && r.text().contains("anonymous user"))
        .expect("approval denial present");
    assert_eq!(denial.text(), NEEDS_APPROVAL_TEXT);
}

#[test]
fn mkd_dele_rmd_in_writable_tree() {
    let mut script = login();
    script.extend([
        Action::Send("MKD /incoming/newdir".into()),
        Action::Send("RMD /incoming/newdir".into()),
        Action::Send("MKD /pub/forbidden".into()),
        Action::Quit,
    ]);
    let (client, engine) = run(anon_profile().with_writable("/incoming"), sample_vfs(), script);
    assert_eq!(client.borrow().codes(), vec![220, 331, 230, 250, 250, 550, 221]);
    assert!(!engine.borrow().vfs().unwrap().exists("/pub/forbidden"));
}

#[test]
fn port_validation_rejects_third_party() {
    let mut script = login();
    // 203.0.113.7 is not the client's address.
    script.push(Action::Send("PORT 203,0,113,7,4,1".into()));
    script.push(Action::Quit);
    let (client, engine) = run(anon_profile(), sample_vfs(), script);
    assert_eq!(client.borrow().codes(), vec![220, 331, 230, 500, 221]);
    assert_eq!(engine.borrow().stats().bounced_connects, 0);
}

#[test]
fn vulnerable_server_bounces_to_third_party() {
    use netsim::{ConnId, Ctx};
    use std::cell::RefCell;
    use std::rc::Rc;

    // A collector host that records inbound connections.
    #[derive(Default)]
    struct Collector {
        hits: Rc<RefCell<u32>>,
    }
    impl Endpoint for Collector {
        fn on_inbound(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _p: u16) {
            *self.hits.borrow_mut() += 1;
        }
    }

    let mut sim = Simulator::new(11);
    let vulnerable = anon_profile().without_port_validation();
    let engine = std::rc::Rc::new(std::cell::RefCell::new(FtpServerEngine::new(
        SERVER,
        vulnerable,
        sample_vfs(),
    )));
    let sid = sim.register_endpoint(Box::new(Proxy(engine.clone())));
    sim.bind(SERVER, 21, sid);

    let hits = Rc::new(RefCell::new(0));
    let collector_ip = Ipv4Addr::new(203, 0, 113, 7);
    let col_id = sim.register_endpoint(Box::new(Collector { hits: hits.clone() }));
    sim.bind(collector_ip, 1025, col_id);

    let mut script = login();
    script.push(Action::Send("PORT 203,0,113,7,4,1".into())); // 4*256+1 = 1025
    script.push(Action::Send("LIST /pub".into())); // triggers the bounce
    script.push(Action::Quit);
    let client = Rc::new(RefCell::new(ScriptedFtpClient::new(CLIENT, (SERVER, 21), script)));
    let cid = sim.register_endpoint(Box::new(Proxy(client.clone())));
    sim.schedule_timer(cid, SimDuration::ZERO, 0);
    sim.run();

    assert_eq!(*hits.borrow(), 1, "third party received the bounced connection");
    assert_eq!(engine.borrow().stats().bounced_connects, 1);
    let codes = client.borrow().codes();
    assert!(codes.contains(&200), "PORT accepted: {codes:?}");
}

#[test]
fn pasv_leaks_internal_ip_when_configured() {
    let mut sim = Simulator::new(11);
    let profile = anon_profile().with_nat_leak();
    let engine = std::rc::Rc::new(std::cell::RefCell::new(FtpServerEngine::new(
        SERVER,
        profile,
        sample_vfs(),
    )));
    let sid = sim.register_endpoint(Box::new(Proxy(engine)));
    sim.bind(SERVER, 21, sid);
    sim.set_internal_ip(SERVER, Ipv4Addr::new(192, 168, 1, 50));
    let mut script = login();
    script.push(Action::OpenPasv);
    script.push(Action::TransferGet("LIST".into()));
    script.push(Action::Quit);
    let client = std::rc::Rc::new(std::cell::RefCell::new(ScriptedFtpClient::new(
        CLIENT,
        (SERVER, 21),
        script,
    )));
    let cid = sim.register_endpoint(Box::new(Proxy(client.clone())));
    sim.schedule_timer(cid, SimDuration::ZERO, 0);
    sim.run();
    let c = client.borrow();
    let hp = c.pasv_addr().expect("227 parsed");
    assert_eq!(hp.ip(), Ipv4Addr::new(192, 168, 1, 50), "internal address advertised");
    // Transfer still succeeds because the client reconnects to the real
    // address (as real clients do when the advertised address is bogus).
    assert!(c.downloads().len() == 1);
}

#[test]
fn ftps_handshake_yields_certificate() {
    let cert = SimCertificate::browser_trusted("*.bluehost.com", "CA GlobalTrust", 77);
    let mut script = vec![Action::TlsHandshake];
    script.extend(login());
    script.push(Action::Quit);
    let (client, engine) = run(
        anon_profile().with_ftps(cert.clone(), false),
        sample_vfs(),
        script,
    );
    let c = client.borrow();
    assert_eq!(c.certificate(), Some(&cert));
    assert_eq!(engine.borrow().stats().tls_handshakes, 1);
    // Login still works after the upgrade.
    assert!(c.codes().contains(&230));
}

#[test]
fn auth_tls_without_ftps_support_gets_502() {
    let script = vec![Action::TlsHandshake, Action::Quit];
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert!(c.codes().contains(&502));
    assert!(c.certificate().is_none());
}

#[test]
fn feat_syst_help_site_replies() {
    let mut profile = anon_profile();
    profile.site_reply = Some("SITE OK".to_owned());
    let mut script = login();
    script.extend([
        Action::Send("SYST".into()),
        Action::Send("FEAT".into()),
        Action::Send("HELP".into()),
        Action::Send("SITE CHMOD 777 x".into()),
        Action::Quit,
    ]);
    let (client, _) = run(profile, sample_vfs(), script);
    let c = client.borrow();
    let codes = c.codes();
    assert_eq!(codes, vec![220, 331, 230, 215, 211, 214, 200, 221]);
    let feat = &c.replies()[4];
    assert!(feat.lines().len() >= 3, "FEAT is multiline: {feat:?}");
}

#[test]
fn drop_after_commands_cuts_session() {
    let mut script = login();
    for _ in 0..5 {
        script.push(Action::Send("NOOP".into()));
    }
    script.push(Action::Quit);
    let (client, _) = run(anon_profile().with_drop_after(3), sample_vfs(), script);
    let c = client.borrow();
    assert!(c.codes().contains(&421), "{:?}", c.codes());
    assert!(c.finished());
}

#[test]
fn cwd_and_cdup_navigation() {
    let mut script = login();
    script.extend([
        Action::Send("CWD /pub/photos".into()),
        Action::Send("PWD".into()),
        Action::Send("CDUP".into()),
        Action::Send("PWD".into()),
        Action::Send("CWD /does/not/exist".into()),
        Action::Quit,
    ]);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert_eq!(c.codes(), vec![220, 331, 230, 250, 257, 250, 257, 550, 221]);
    assert!(c.replies()[4].text().contains("/pub/photos"));
    assert!(c.replies()[6].text().contains("/pub"));
}

#[test]
fn size_and_mdtm() {
    let mut script = login();
    script.extend([
        Action::Send("SIZE /pub/readme.txt".into()),
        Action::Send("MDTM /pub/readme.txt".into()),
        Action::Send("SIZE /nope".into()),
        Action::Quit,
    ]);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    let c = client.borrow();
    assert_eq!(c.codes(), vec![220, 331, 230, 213, 213, 550, 221]);
    assert_eq!(c.replies()[3].text(), "11"); // "hello world"
}

#[test]
fn unknown_command_gets_500() {
    let mut script = login();
    script.push(Action::Send("XSHA1 foo".into()));
    script.push(Action::Quit);
    let (client, _) = run(anon_profile(), sample_vfs(), script);
    assert!(client.borrow().codes().contains(&500));
}

#[test]
fn rename_in_writable_tree() {
    let mut v = sample_vfs();
    v.add_file("/incoming/a.txt", FileAttrs::public(1)).unwrap();
    let mut script = login();
    script.extend([
        Action::Send("RNFR /incoming/a.txt".into()),
        Action::Send("RNTO /incoming/b.txt".into()),
        Action::Quit,
    ]);
    let (client, engine) = run(anon_profile().with_writable("/incoming"), v, script);
    assert_eq!(client.borrow().codes(), vec![220, 331, 230, 350, 250, 221]);
    assert!(engine.borrow().vfs().unwrap().exists("/incoming/b.txt"));
    assert!(!engine.borrow().vfs().unwrap().exists("/incoming/a.txt"));
}

/// A rejected `RNTO` (its parent is a file) answers 550 and leaves the
/// `RNFR` source where it was: the next `LIST` still shows it.
#[test]
fn rejected_rename_keeps_the_source() {
    let mut v = sample_vfs();
    v.add_file("/incoming/a.txt", FileAttrs::public(1)).unwrap();
    v.add_file("/incoming/b.txt", FileAttrs::public(2)).unwrap();
    let mut script = login();
    script.extend([
        Action::Send("RNFR /incoming/a.txt".into()),
        Action::Send("RNTO /incoming/b.txt/c".into()),
        Action::Send("CWD /incoming".into()),
        Action::OpenPasv,
        Action::TransferGet("LIST".into()),
        Action::Quit,
    ]);
    let (client, engine) = run(anon_profile().with_writable("/incoming"), v, script);
    let c = client.borrow();
    assert_eq!(&c.codes()[..5], &[220, 331, 230, 350, 550], "{:?}", c.codes());
    let (_, bytes) = &c.downloads()[0];
    let body = String::from_utf8_lossy(bytes);
    assert!(body.contains("a.txt"), "{body}");
    assert!(body.contains("b.txt"), "{body}");
    assert!(engine.borrow().vfs().unwrap().file("/incoming/a.txt").is_ok());
}

fn list_session(dir: &str) -> Vec<Action> {
    let mut script = login();
    script.extend([Action::OpenPasv, Action::TransferGet(format!("LIST {dir}")), Action::Quit]);
    script
}

/// An engine with a rebuild drops its tree when its only session closes,
/// and the next session lists the rebuilt tree byte for byte.
#[test]
fn released_tree_is_rebuilt_for_the_next_session() {
    let (clients, held) =
        run_rebuilding_groups(anon_profile(), vec![vec![list_session("/pub")]; 2]);
    assert_eq!(held, [false, false], "released after each session");
    let (first, second) = (clients[0].borrow(), clients[1].borrow());
    assert!(first.finished() && second.finished());
    assert_eq!(first.codes(), second.codes());
    assert_eq!(first.downloads().len(), 1);
    assert!(String::from_utf8_lossy(&first.downloads()[0].1).contains("photos"));
    assert_eq!(first.downloads(), second.downloads(), "same LIST bytes");
}

/// Closing one of two open sessions keeps the tree for the other.
#[test]
fn tree_is_released_only_when_the_last_session_closes() {
    let (clients, held) =
        run_rebuilding_groups(anon_profile(), vec![vec![vec![Action::Quit], list_session("/pub")]]);
    assert_eq!(held, [false]);
    let (quitter, lister) = (clients[0].borrow(), clients[1].borrow());
    assert_eq!(quitter.codes(), vec![220, 221]);
    assert_eq!(lister.codes(), vec![220, 331, 230, 227, 150, 226, 221]);
    assert_eq!(lister.downloads().len(), 1);
}

/// A tree that a session changed is kept, and the next session sees the
/// change instead of a rebuilt tree.
#[test]
fn changed_tree_is_kept_across_sessions() {
    let changes = [
        (
            vec![
                Action::OpenPasv,
                Action::TransferPut("STOR /incoming/up.txt".into(), b"data".to_vec()),
            ],
            "up.txt",
        ),
        (vec![Action::Send("MKD /incoming/newdir".into())], "newdir"),
    ];
    for (change, name) in changes {
        let mut script = login();
        script.extend(change);
        script.push(Action::Quit);
        let (clients, held) = run_rebuilding_groups(
            anon_profile().with_writable("/incoming"),
            vec![vec![script], vec![list_session("/incoming")]],
        );
        assert_eq!(held, [true, true], "{name}: a changed tree is never released");
        let lister = clients[1].borrow();
        let body = String::from_utf8_lossy(&lister.downloads()[0].1).into_owned();
        assert!(body.contains(name), "{name} missing from {body}");
    }
}
