//! Robustness: the enumerator against hostile or broken servers.
//!
//! The paper's tool had to survive "oddities found in the wild" (§III);
//! the strongest form of that requirement is surviving *adversarial*
//! servers: random reply garbage, reply floods, half-open behavior, and
//! abrupt resets — without panicking, leaking sessions, or stalling the
//! rest of the scan.

use enumerator::{EnumConfig, Enumerator, HostRecord};
use ftpd::profile::{AnonPolicy, ServerProfile};
use ftpd::FtpServerEngine;
use netsim::{ConnId, Ctx, Endpoint, FaultKind, FaultProfile, SimDuration, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simvfs::{FileAttrs, Vfs};
use std::net::Ipv4Addr;

const SCANNER: Ipv4Addr = Ipv4Addr::new(198, 108, 0, 1);

/// A server that answers every line with seeded garbage and sometimes
/// hangs up.
struct HostileServer {
    seed: u64,
}

impl HostileServer {
    fn garbage(&self, salt: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt);
        let style = rng.random_range(0..5u8);
        match style {
            0 => b"220 welcome\r\n".to_vec(), // plausible then nothing
            1 => {
                // Random printable noise with stray CRLFs.
                let mut v = Vec::new();
                for _ in 0..rng.random_range(1..120) {
                    v.push(rng.random_range(0x20..0x7f));
                }
                v.extend_from_slice(b"\r\n");
                v
            }
            2 => {
                // Reply-code soup: valid-looking codes with junk text.
                format!("{} {:x}\r\n", rng.random_range(100..700), rng.random::<u64>())
                    .into_bytes()
            }
            3 => {
                // A never-terminated multiline reply.
                b"230-never finishes\r\n part two\r\n".to_vec()
            }
            _ => {
                // Binary noise, no line terminator.
                (0..rng.random_range(1..200)).map(|_| rng.random()).collect()
            }
        }
    }
}

impl Endpoint for HostileServer {
    fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _port: u16) {
        let g = self.garbage(1);
        ctx.send(conn, &g);
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        let g = self.garbage(data.len() as u64 + 2);
        ctx.send(conn, &g);
        if data.len().is_multiple_of(7) {
            ctx.close(conn);
        }
    }
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(100, 64, 1, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A mixed population of hostile and honest servers: the enumerator
    /// finishes every session, the honest hosts are fully enumerated,
    /// and no session wedges the scan.
    #[test]
    fn enumerator_survives_hostile_servers(seed in any::<u64>()) {
        let mut sim = Simulator::new(5);
        let mut targets = Vec::new();
        // Five hostile servers.
        for n in 1..=5u8 {
            let id = sim.register_endpoint(Box::new(HostileServer { seed: seed ^ n as u64 }));
            sim.bind(ip(n), 21, id);
            targets.push(ip(n));
        }
        // Two honest ones interleaved.
        for n in 6..=7u8 {
            let mut vfs = Vfs::new();
            vfs.add_file("/pub/data.txt", FileAttrs::public(3).with_content("ok")).unwrap();
            let profile =
                ServerProfile::new("ProFTPD 1.3.5 Server").with_anonymous(AnonPolicy::Allowed);
            let id = sim.register_endpoint(Box::new(FtpServerEngine::new(ip(n), profile, vfs)));
            sim.bind(ip(n), 21, id);
            targets.push(ip(n));
        }
        let mut cfg = EnumConfig::new(SCANNER).with_concurrency(3);
        cfg.step_timeout = SimDuration::from_secs(5);
        cfg.request_gap = SimDuration::from_millis(5);
        let (en, results) = Enumerator::new(cfg, targets);
        let id = sim.register_endpoint(Box::new(en));
        sim.schedule_timer(id, SimDuration::ZERO, 0);
        sim.run();

        let records = results.borrow();
        prop_assert_eq!(records.len(), 7, "every target produced a record");
        // Honest servers enumerated completely despite the hostile noise.
        for n in 6..=7u8 {
            let r = records.iter().find(|r| r.ip == ip(n)).expect("record");
            prop_assert!(r.is_anonymous(), "honest host lost: {:?}", r.login);
            prop_assert!(r.files.iter().any(|f| f.path() == "/pub/data.txt"));
        }
        // No hostile server was ever recorded as anonymous with files —
        // garbage must not synthesize data.
        for n in 1..=5u8 {
            let r = records.iter().find(|r| r.ip == ip(n)).expect("record");
            prop_assert!(r.files.is_empty(), "garbage produced files: {:?}", r.files);
        }
    }
}

/// Binds an honest anonymous server with one public file at `addr`.
fn bind_honest(sim: &mut Simulator, addr: Ipv4Addr) {
    let mut vfs = Vfs::new();
    vfs.add_file("/pub/data.txt", FileAttrs::public(3).with_content("ok")).unwrap();
    let profile = ServerProfile::new("ProFTPD 1.3.5 Server").with_anonymous(AnonPolicy::Allowed);
    let id = sim.register_endpoint(Box::new(FtpServerEngine::new(addr, profile, vfs)));
    sim.bind(addr, 21, id);
}

/// Enumerates `targets` against `build`-constructed worlds and returns
/// the records. Used twice per property to assert determinism.
fn enumerate(build: &dyn Fn(&mut Simulator) -> Vec<Ipv4Addr>) -> Vec<HostRecord> {
    let mut sim = Simulator::new(3);
    let targets = build(&mut sim);
    let mut cfg = EnumConfig::new(SCANNER).with_concurrency(2);
    cfg.step_timeout = SimDuration::from_secs(5);
    cfg.request_gap = SimDuration::from_millis(5);
    let (en, results) = Enumerator::new(cfg, targets);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let records = results.borrow().clone();
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The netsim fault layer's own shapes — garbage replies, truncated
    /// transfers, byte-at-a-time drip-feeds, mid-session resets, broken
    /// data channels — against real server engines: every session ends,
    /// the clean control host enumerates fully, and the same seed
    /// reproduces the same `HostRecord`s byte for byte.
    #[test]
    fn enumerator_survives_injected_fault_profiles(seed in any::<u64>()) {
        let build = |sim: &mut Simulator| {
            let mut targets = Vec::new();
            for n in 1..=6u8 {
                bind_honest(sim, ip(n));
                sim.set_fault(ip(n), FaultProfile::sample(seed ^ u64::from(n)));
                targets.push(ip(n));
            }
            // Clean control host, enumerated amid the chaos.
            bind_honest(sim, ip(7));
            targets.push(ip(7));
            targets
        };
        let first = enumerate(&build);
        let second = enumerate(&build);
        prop_assert_eq!(first.len(), 7, "every target produced a record");
        prop_assert_eq!(&first, &second, "same seed must reproduce identical records");
        let clean = first.iter().find(|r| r.ip == ip(7)).expect("control record");
        prop_assert!(clean.is_anonymous(), "control host lost: {:?}", clean.login);
        prop_assert!(clean.gave_up.is_none());
        prop_assert!(clean.faults.is_clean(), "control host saw faults: {:?}", clean.faults);
        prop_assert!(clean.files.iter().any(|f| f.path() == "/pub/data.txt"));
    }

    /// Each fault shape individually, with generated parameters: the
    /// record degrades along the taxonomy (partial, counted, no panic)
    /// and deterministically.
    #[test]
    fn fault_shapes_degrade_to_partial_records(
        shape in 0..5usize,
        after_sends in 1..6u32,
        after_bytes in 0..64u64,
        drip_ms in 300..2_000u64,
        garbage_seed in any::<u64>(),
        overlong in any::<bool>(),
    ) {
        let kind = match shape {
            0 => FaultKind::GarbageReplies { overlong },
            1 => FaultKind::TruncateData { after_bytes },
            2 => FaultKind::Tarpit {
                drip: SimDuration::from_millis(drip_ms),
                max_bytes: 8 + after_bytes,
            },
            3 => FaultKind::MidSessionRst { after_sends },
            _ => FaultKind::DataChannelBroken,
        };
        let build = |sim: &mut Simulator| {
            bind_honest(sim, ip(1));
            sim.set_fault(ip(1), FaultProfile::new(kind).with_seed(garbage_seed));
            bind_honest(sim, ip(2));
            vec![ip(1), ip(2)]
        };
        let first = enumerate(&build);
        let second = enumerate(&build);
        prop_assert_eq!(first.len(), 2);
        prop_assert_eq!(&first, &second, "fault behavior must be deterministic");
        let faulty = first.iter().find(|r| r.ip == ip(1)).expect("faulty record");
        let clean = first.iter().find(|r| r.ip == ip(2)).expect("clean record");
        prop_assert!(clean.is_anonymous());
        prop_assert!(clean.faults.is_clean());
        match kind {
            FaultKind::GarbageReplies { .. } => {
                // Never mistaken for a working FTP server, and the
                // garbage is tallied.
                prop_assert!(!faulty.is_anonymous());
                prop_assert!(
                    faulty.faults.garbage_lines + faulty.faults.overlong_lines > 0
                        || faulty.faults.step_timeouts > 0,
                    "garbage host left no trace: {:?}",
                    faulty.faults
                );
            }
            FaultKind::Tarpit { .. } => {
                // The drip never completes a greeting line: the step
                // deadline reaps the session.
                prop_assert!(faulty.gave_up.is_some(), "tarpit session never reaped");
            }
            FaultKind::DataChannelBroken => {
                // Control conversation works; transfers all fail.
                prop_assert!(faulty.is_anonymous(), "control channel should work");
                prop_assert!(faulty.files.is_empty(), "no listing could have arrived");
                prop_assert!(faulty.faults.data_conn_failures > 0);
            }
            FaultKind::MidSessionRst { .. } => {
                prop_assert!(
                    faulty.server_terminated || faulty.gave_up.is_some(),
                    "reset must be recorded"
                );
            }
            _ => {}
        }
    }
}

/// A tarpit that accepts the login then answers nothing further: the
/// per-step timeout must reap it without blocking the others.
#[test]
fn tarpit_after_login_is_reaped() {
    struct Tarpit;
    impl Endpoint for Tarpit {
        fn on_inbound(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: u16) {
            ctx.send(conn, b"220 slow server\r\n");
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
            let line = String::from_utf8_lossy(data);
            if line.starts_with("USER") {
                ctx.send(conn, b"331 ok\r\n");
            } else if line.starts_with("PASS") {
                ctx.send(conn, b"230 in\r\n");
            }
            // …and then silence forever.
        }
    }
    let mut sim = Simulator::new(9);
    let tid = sim.register_endpoint(Box::new(Tarpit));
    sim.bind(ip(1), 21, tid);
    let honest = ServerProfile::new("FTP ready").with_anonymous(AnonPolicy::Allowed);
    let hid = sim.register_endpoint(Box::new(FtpServerEngine::new(ip(2), honest, Vfs::new())));
    sim.bind(ip(2), 21, hid);

    let mut cfg = EnumConfig::new(SCANNER).with_concurrency(1);
    cfg.step_timeout = SimDuration::from_secs(5);
    let (en, results) = Enumerator::new(cfg, vec![ip(1), ip(2)]);
    let id = sim.register_endpoint(Box::new(en));
    sim.schedule_timer(id, SimDuration::ZERO, 0);
    sim.run();
    let records = results.borrow();
    assert_eq!(records.len(), 2, "the tarpit did not block the queue");
    let tarpit = records.iter().find(|r| r.ip == ip(1)).unwrap();
    assert!(tarpit.is_anonymous(), "login succeeded before the stall");
    let honest = records.iter().find(|r| r.ip == ip(2)).unwrap();
    assert!(honest.is_anonymous());
}
