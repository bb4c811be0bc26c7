//! End-to-end enumeration tests: the enumerator against simulated
//! servers built from ftpd profiles.

use enumerator::{BounceCollector, EnumConfig, Enumerator, HostRecord, LoginOutcome};
use ftp_proto::HostPort;
use ftpd::misc::{RawBannerService, SilentService};
use ftpd::profile::{AnonPolicy, ServerProfile};
use ftpd::FtpServerEngine;
use netsim::{FaultKind, FaultProfile, SimDuration, Simulator};
use simtls::SimCertificate;
use simvfs::{FileAttrs, Vfs};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const SCANNER: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 1);

fn sample_vfs() -> Vfs {
    let mut v = Vfs::new();
    v.add_file("/pub/readme.txt", FileAttrs::public(11).with_content("hello world")).unwrap();
    v.add_file("/pub/photos/DSC_0001.JPG", FileAttrs::public(2_400_000)).unwrap();
    v.add_file("/backup/finances.qdf", FileAttrs::public(88_000)).unwrap();
    v.add_file("/etc/shadow", FileAttrs::private(718)).unwrap();
    v
}

fn anon_profile() -> ServerProfile {
    ServerProfile::new("ProFTPD 1.3.5 Server (Debian)").with_anonymous(AnonPolicy::Allowed)
}

/// Spins up `servers` (ip, profile, vfs), enumerates them, and returns
/// the records sorted by IP.
fn enumerate(
    servers: Vec<(Ipv4Addr, ServerProfile, Vfs)>,
    tweak: impl FnOnce(EnumConfig) -> EnumConfig,
) -> Vec<HostRecord> {
    let mut sim = Simulator::new(99);
    let mut targets = Vec::new();
    for (ip, profile, vfs) in servers {
        let id = sim.register_endpoint(Box::new(FtpServerEngine::new(ip, profile, vfs)));
        sim.bind(ip, 21, id);
        targets.push(ip);
    }
    let cfg = tweak(EnumConfig::new(SCANNER));
    let (en, results) = Enumerator::new(cfg, targets);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let mut out = results.borrow().clone();
    out.sort_by_key(|r| r.ip);
    out
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(100, 64, 0, n)
}

#[test]
fn enumerates_anonymous_server_fully() {
    let records = enumerate(vec![(ip(1), anon_profile(), sample_vfs())], |c| c);
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert!(r.ftp_compliant);
    assert_eq!(r.login, LoginOutcome::Anonymous);
    assert!(r.banner.as_deref().unwrap().contains("ProFTPD"));
    let paths: Vec<String> = r.files.iter().map(|f| f.path()).collect();
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    assert!(paths.contains(&"/pub"), "{paths:?}");
    assert!(paths.contains(&"/pub/readme.txt"), "{paths:?}");
    assert!(paths.contains(&"/pub/photos/DSC_0001.JPG"), "{paths:?}");
    assert!(paths.contains(&"/backup/finances.qdf"), "{paths:?}");
    assert!(paths.contains(&"/etc/shadow"), "{paths:?}");
    assert!(r.exposes_data());
    assert!(!r.truncated);
    assert!(!r.server_terminated);
    // SYST/HELP/FEAT collected.
    assert!(r.syst.is_some());
    assert!(r.help.is_some());
    assert!(!r.feat.is_empty());
    // robots.txt absent.
    assert!(!r.robots.present);
    // Readability captured from permissions.
    let shadow = r.files.iter().find(|f| f.path() == "/etc/shadow").unwrap();
    assert_eq!(shadow.readability, ftp_proto::listing::Readability::NonReadable);
}

#[test]
fn respects_robots_deny_all() {
    let mut v = sample_vfs();
    v.add_file(
        "/robots.txt",
        FileAttrs::public(0).with_content("User-agent: *\nDisallow: /\n"),
    )
    .unwrap();
    let records = enumerate(vec![(ip(1), anon_profile(), v)], |c| c);
    let r = &records[0];
    assert!(r.robots.present);
    assert!(r.robots.denies_all);
    assert!(r.files.is_empty(), "no traversal at all: {:?}", r.files);
}

#[test]
fn respects_robots_partial_exclusion() {
    let mut v = sample_vfs();
    v.add_file(
        "/robots.txt",
        FileAttrs::public(0).with_content("User-agent: *\nDisallow: /backup/\n"),
    )
    .unwrap();
    let records = enumerate(vec![(ip(1), anon_profile(), v)], |c| c);
    let r = &records[0];
    assert!(r.robots.present);
    assert!(!r.robots.denies_all);
    let paths: Vec<String> = r.files.iter().map(|f| f.path()).collect();
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    assert!(paths.contains(&"/pub/readme.txt"));
    // The /backup dir entry is listed (it appears in /'s listing) but its
    // contents are never traversed.
    assert!(paths.contains(&"/backup"));
    assert!(!paths.contains(&"/backup/finances.qdf"), "{paths:?}");
}

#[test]
fn ignores_robots_when_configured() {
    let mut v = sample_vfs();
    v.add_file(
        "/robots.txt",
        FileAttrs::public(0).with_content("User-agent: *\nDisallow: /\n"),
    )
    .unwrap();
    let records = enumerate(vec![(ip(1), anon_profile(), v)], |mut c| {
        c.respect_robots = false;
        c
    });
    let r = &records[0];
    assert!(r.robots.denies_all, "still recorded");
    assert!(!r.files.is_empty(), "traversed anyway (ablation mode)");
}

#[test]
fn denied_server_recorded_and_cert_still_collected() {
    let cert = SimCertificate::self_signed("localhost", 3);
    let profile = ServerProfile::new("Private corp FTP").with_ftps(cert.clone(), false);
    let records = enumerate(vec![(ip(1), profile, Vfs::new())], |c| c);
    let r = &records[0];
    assert_eq!(r.login, LoginOutcome::Denied);
    assert!(r.files.is_empty());
    assert!(r.ftps.supported);
    assert_eq!(r.ftps.cert.as_ref(), Some(&cert));
}

#[test]
fn banner_forbidding_anonymous_skips_login() {
    let profile = ServerProfile::new("No anonymous access allowed; authorized users only")
        .with_anonymous(AnonPolicy::Allowed);
    let records = enumerate(vec![(ip(1), profile, sample_vfs())], |c| c);
    let r = &records[0];
    assert_eq!(r.login, LoginOutcome::SkippedBannerForbids);
    assert!(r.files.is_empty(), "never even tried USER");
}

#[test]
fn non_ftp_banner_marks_not_ftp() {
    let mut sim = Simulator::new(7);
    let sid = sim.register_endpoint(Box::new(RawBannerService::new("SSH-2.0-OpenSSH_5.3")));
    sim.bind(ip(1), 21, sid);
    let (en, results) = Enumerator::new(EnumConfig::new(SCANNER), vec![ip(1)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let r = &results.borrow()[0];
    assert_eq!(r.login, LoginOutcome::NotFtp);
    assert!(!r.ftp_compliant);
}

#[test]
fn silent_service_times_out_as_not_ftp() {
    let mut sim = Simulator::new(7);
    let sid = sim.register_endpoint(Box::new(SilentService));
    sim.bind(ip(1), 21, sid);
    let (en, results) = Enumerator::new(EnumConfig::new(SCANNER), vec![ip(1)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let r = &results.borrow()[0];
    assert!(!r.ftp_compliant);
    assert_ne!(r.login, LoginOutcome::Anonymous);
}

#[test]
fn missing_host_aborts() {
    let mut sim = Simulator::new(7);
    let (en, results) = Enumerator::new(EnumConfig::new(SCANNER), vec![ip(1)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let r = &results.borrow()[0];
    assert_eq!(r.login, LoginOutcome::Aborted);
}

#[test]
fn request_cap_truncates_traversal() {
    // Build a wide tree needing far more than the cap.
    let mut v = Vfs::new();
    for d in 0..40 {
        for f in 0..3 {
            v.add_file(&format!("/d{d:02}/file{f}"), FileAttrs::public(10)).unwrap();
        }
    }
    let records = enumerate(vec![(ip(1), anon_profile(), v)], |c| c.with_request_cap(30));
    let r = &records[0];
    assert!(r.truncated, "cap 30 cannot finish 40 dirs");
    assert!(r.requests_used <= 30);
    assert!(!r.files.is_empty(), "partial results retained");
    // Wrap-up still ran within the reserve.
    assert!(r.syst.is_some());
}

#[test]
fn port_probe_distinguishes_validating_servers() {
    let collector_ip = Ipv4Addr::new(198, 108, 0, 9);
    let collector_hp = HostPort::new(collector_ip, 2121);

    let mut sim = Simulator::new(31);
    let vulnerable = anon_profile().without_port_validation();
    let sid1 = sim.register_endpoint(Box::new(FtpServerEngine::new(ip(1), vulnerable, sample_vfs())));
    sim.bind(ip(1), 21, sid1);
    let validating = anon_profile();
    let sid2 = sim.register_endpoint(Box::new(FtpServerEngine::new(ip(2), validating, sample_vfs())));
    sim.bind(ip(2), 21, sid2);

    let (collector, hits) = BounceCollector::new();
    let cid = sim.register_endpoint(Box::new(collector));
    sim.bind(collector_ip, 2121, cid);

    let cfg = EnumConfig::new(SCANNER).with_bounce_probe(collector_hp);
    let (en, results) = Enumerator::new(cfg, vec![ip(1), ip(2)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();

    let mut records = results.borrow().clone();
    records.sort_by_key(|r| r.ip);
    assert_eq!(records[0].port_accepts_third_party, Some(true), "vulnerable");
    assert_eq!(records[1].port_accepts_third_party, Some(false), "validating");
    assert!(hits.borrow().contains(&ip(1)), "collector saw the bounce");
    assert!(!hits.borrow().contains(&ip(2)));
}

#[test]
fn nat_leak_shows_in_pasv_addr() {
    let mut sim = Simulator::new(31);
    let profile = anon_profile().with_nat_leak();
    let sid = sim.register_endpoint(Box::new(FtpServerEngine::new(ip(1), profile, sample_vfs())));
    sim.bind(ip(1), 21, sid);
    sim.set_internal_ip(ip(1), Ipv4Addr::new(192, 168, 1, 50));
    let (en, results) = Enumerator::new(EnumConfig::new(SCANNER), vec![ip(1)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let r = &results.borrow()[0];
    let pasv = r.pasv_addr.expect("PASV observed");
    assert_eq!(pasv.ip(), Ipv4Addr::new(192, 168, 1, 50));
    assert!(r.exposes_data(), "traversal still worked via the real address");
}

#[test]
fn ftps_required_before_login_detected() {
    let cert = SimCertificate::browser_trusted("*.secure.example", "CA WildWest", 8);
    let profile = anon_profile().with_ftps(cert, true);
    let records = enumerate(vec![(ip(1), profile, sample_vfs())], |c| c);
    let r = &records[0];
    assert_eq!(r.login, LoginOutcome::Denied);
    assert!(r.ftps.required_before_login, "FTPS-required phrasing recognized");
    assert!(r.ftps.supported);
    assert!(r.ftps.cert.is_some());
}

#[test]
fn server_termination_recorded() {
    let profile = anon_profile().with_drop_after(5);
    let records = enumerate(vec![(ip(1), profile, sample_vfs())], |c| c);
    let r = &records[0];
    assert!(r.server_terminated);
}

#[test]
fn many_hosts_enumerate_concurrently() {
    let servers: Vec<_> = (1..=30u8)
        .map(|n| {
            let profile = if n % 3 == 0 {
                ServerProfile::new("Members only FTP")
            } else {
                anon_profile()
            };
            (ip(n), profile, sample_vfs())
        })
        .collect();
    let records = enumerate(servers, |c| c.with_concurrency(4));
    assert_eq!(records.len(), 30);
    let anon = records.iter().filter(|r| r.is_anonymous()).count();
    assert_eq!(anon, 20);
    let denied = records.iter().filter(|r| r.login == LoginOutcome::Denied).count();
    assert_eq!(denied, 10);
    // Every anonymous host yielded the same file set.
    for r in records.iter().filter(|r| r.is_anonymous()) {
        assert_eq!(r.file_count(), 4, "{:?}", r.ip);
    }
}

#[test]
fn dos_listing_servers_yield_unknown_readability() {
    let mut profile = ftpd::implementations::iis().with_anonymous(AnonPolicy::Allowed);
    profile.enforce_dir_perms = false;
    let records = enumerate(vec![(ip(1), profile, sample_vfs())], |c| c);
    let r = &records[0];
    assert!(r.is_anonymous());
    assert!(!r.files.is_empty());
    for f in &r.files {
        assert_eq!(
            f.readability,
            ftp_proto::listing::Readability::Unknown,
            "DOS listings expose no permissions: {f:?}"
        );
    }
}

#[test]
fn no_password_device_logs_in_at_user() {
    let profile =
        ServerProfile::new("NAS device FTP ready").with_anonymous(AnonPolicy::NoPassword);
    let records = enumerate(vec![(ip(1), profile, sample_vfs())], |c| c);
    assert_eq!(records[0].login, LoginOutcome::Anonymous);
}

/// Forwards the simulator's calls to an engine the test keeps a handle
/// on, so the engine can be inspected after the run.
struct Shared(Rc<RefCell<FtpServerEngine>>);

impl netsim::Endpoint for Shared {
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
}

/// Enumerates `engine`, served at `ip(1)` with `fault` on that host,
/// and returns its record.
fn enumerate_shared(engine: &Rc<RefCell<FtpServerEngine>>, fault: Option<FaultKind>) -> HostRecord {
    let mut sim = Simulator::new(13);
    let sid = sim.register_endpoint(Box::new(Shared(engine.clone())));
    sim.bind(ip(1), 21, sid);
    if let Some(kind) = fault {
        sim.set_fault(ip(1), FaultProfile::new(kind));
    }
    let (en, results) = Enumerator::new(EnumConfig::new(SCANNER), vec![ip(1)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let record = results.borrow()[0].clone();
    record
}

#[test]
fn enumerator_never_writes() {
    // A server writable everywhere ends its enumeration with the tree
    // it started with, and no upload counted.
    let vfs = sample_vfs();
    let before = vfs.file_count();
    let engine = FtpServerEngine::new(ip(1), anon_profile().with_writable("/"), vfs);
    let engine = Rc::new(RefCell::new(engine));
    let record = enumerate_shared(&engine, None);
    assert!(record.is_anonymous());
    assert!(record.file_count() > 0, "the tree was listed");
    let engine = engine.borrow();
    assert_eq!(engine.stats().uploads, 0, "no upload reached the server");
    let vfs = engine.vfs().expect("an engine without a recipe keeps its tree");
    assert_eq!(vfs.file_count(), before, "no file appeared during enumeration");
}

/// A fault-layer reset reaches the server as well as the enumerator:
/// the server closes the session the reset cut, so an engine with a
/// rebuild recipe releases its tree.
#[test]
fn reset_session_releases_the_servers_tree() {
    let engine = FtpServerEngine::new(ip(1), anon_profile(), sample_vfs()).with_rebuild(sample_vfs);
    let engine = Rc::new(RefCell::new(engine));
    let record = enumerate_shared(&engine, Some(FaultKind::MidSessionRst { after_sends: 3 }));
    assert!(record.server_terminated, "{record:?}");
    let engine = engine.borrow();
    assert_eq!(engine.stats().sessions, 1);
    assert!(engine.vfs().is_none(), "the server kept the reset session's tree");
}

#[test]
fn strict_reply_ablation_loses_multiline_banner_hosts() {
    // A server whose banner is multiline: the hardened parser copes, the
    // strict one aborts.
    let mut profile = anon_profile();
    profile.banner = "Welcome to Example FTP\nMirror of ftp.example.org\nReady".to_owned();
    let records = enumerate(vec![(ip(1), profile.clone(), sample_vfs())], |c| c);
    assert_eq!(records[0].login, LoginOutcome::Anonymous, "hardened parser logs in");

    let records = enumerate(vec![(ip(1), profile, sample_vfs())], |mut c| {
        c.strict_replies = true;
        c
    });
    assert_ne!(records[0].login, LoginOutcome::Anonymous, "strict parser gives up");
}

#[test]
fn bfs_beats_dfs_on_breadth_coverage_under_cap() {
    use enumerator::TraversalOrder;
    // A wide tree with one deep spine: /spine/s1/s2/…/s12 plus 30 wide
    // top-level dirs. Under a tight cap, BFS samples the breadth while
    // DFS burns its budget down the spine.
    let mut v = Vfs::new();
    let mut spine = String::from("/zz-spine");
    for i in 0..12 {
        spine.push_str(&format!("/s{i}"));
        v.add_file(&format!("{spine}/deep{i}.txt"), FileAttrs::public(1)).unwrap();
    }
    for d in 0..30 {
        v.add_file(&format!("/wide{d:02}/file.txt"), FileAttrs::public(1)).unwrap();
    }

    let run_with = |order: TraversalOrder| {
        let records = enumerate(
            vec![(ip(1), anon_profile(), {
                let mut v2 = Vfs::new();
                let mut spine = String::from("/zz-spine");
                for i in 0..12 {
                    spine.push_str(&format!("/s{i}"));
                    v2.add_file(&format!("{spine}/deep{i}.txt"), FileAttrs::public(1)).unwrap();
                }
                for d in 0..30 {
                    v2.add_file(&format!("/wide{d:02}/file.txt"), FileAttrs::public(1)).unwrap();
                }
                v2
            })],
            |c| c.with_request_cap(40).with_traversal(order),
        );
        records[0].clone()
    };
    let _ = v;

    let bfs = run_with(TraversalOrder::BreadthFirst);
    let dfs = run_with(TraversalOrder::DepthFirst);
    assert!(bfs.truncated && dfs.truncated, "cap must bind in both runs");

    let top_dirs = |r: &enumerator::HostRecord| {
        r.files
            .iter()
            .filter(|f| f.is_dir && f.path().starts_with("/wide"))
            .count()
    };
    let max_depth = |r: &enumerator::HostRecord| {
        r.files.iter().map(|f| f.path().matches('/').count()).max().unwrap_or(0)
    };
    assert!(
        max_depth(&dfs) > max_depth(&bfs),
        "DFS goes deeper: {} vs {}",
        max_depth(&dfs),
        max_depth(&bfs)
    );
    // Both list "/" so both see the wide dir *entries*; the difference
    // is whose *contents* get listed. Compare listed wide files.
    let wide_files = |r: &enumerator::HostRecord| {
        r.files.iter().filter(|f| !f.is_dir && f.path().starts_with("/wide")).count()
    };
    assert!(
        wide_files(&bfs) > wide_files(&dfs),
        "BFS covers more breadth: {} vs {}",
        wide_files(&bfs),
        wide_files(&dfs)
    );
    assert_eq!(top_dirs(&bfs), 30, "BFS lists every top-level dir entry");
}

/// A tree of eight directories with 40 files each: enough rows that a
/// growing file table overshoots its length.
fn wide_vfs() -> Vfs {
    let mut v = Vfs::new();
    for d in 0..8 {
        for f in 0..40 {
            v.add_file(&format!("/dir{d}/file{f:02}.dat"), FileAttrs::public(f)).unwrap();
        }
    }
    v
}

/// Three hosts whose sessions start together and end in another order
/// than they start: a wide listing, a refused login and a short one.
fn mixed_servers(sim: &mut Simulator) -> Vec<Ipv4Addr> {
    let servers = [
        (ip(1), anon_profile(), wide_vfs()),
        (ip(2), ServerProfile::new("Members only FTP"), sample_vfs()),
        (ip(3), anon_profile(), sample_vfs()),
    ];
    let mut targets = Vec::new();
    for (ip, profile, vfs) in servers {
        let id = sim.register_endpoint(Box::new(FtpServerEngine::new(ip, profile, vfs)));
        sim.bind(ip, 21, id);
        targets.push(ip);
    }
    targets
}

fn run_enumerator(mut sim: Simulator, en: Enumerator) {
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
}

#[test]
fn sink_gets_every_record_once_in_finish_order() {
    let mut sim = Simulator::new(99);
    let targets = mixed_servers(&mut sim);
    let handed = Rc::new(RefCell::new(Vec::new()));
    let sink = {
        let handed = handed.clone();
        move |record: HostRecord| handed.borrow_mut().push(record)
    };
    run_enumerator(sim, Enumerator::with_sink(EnumConfig::new(SCANNER), targets.clone(), sink));
    let handed = handed.borrow();

    let mut seen: Vec<Ipv4Addr> = handed.iter().map(|r| r.ip).collect();
    assert_ne!(seen, targets, "sessions that start together finish in another order");
    seen.sort();
    assert_eq!(seen, targets, "every target's record, each once");
    // Every session starts at once and paces each command by the same
    // gap, so a session that sends fewer commands closes first.
    let requests: Vec<u32> = handed.iter().map(|r| r.requests_used).collect();
    assert!(requests.windows(2).all(|w| w[0] < w[1]), "not in finish order: {requests:?}");

    let mut sim = Simulator::new(99);
    mixed_servers(&mut sim);
    let (en, collected) = Enumerator::new(EnumConfig::new(SCANNER), targets);
    run_enumerator(sim, en);
    assert_eq!(*collected.borrow(), *handed, "Enumerator::new collects what a sink is handed");
}

#[test]
fn collected_records_keep_no_spare_capacity() {
    let mut sim = Simulator::new(99);
    let targets = mixed_servers(&mut sim);
    let (en, collected) = Enumerator::new(EnumConfig::new(SCANNER), targets);
    run_enumerator(sim, en);
    let collected = collected.borrow();
    let wide = collected.iter().find(|r| r.ip == ip(1)).expect("the wide host's record");
    assert_eq!(wide.file_count(), 320, "the whole tree was listed");
    for r in collected.iter() {
        let fp = r.files.footprint();
        assert_eq!(fp.capacity, fp.rows + fp.names + fp.dirs + fp.exts, "{}: {fp:?}", r.ip);
    }
}
