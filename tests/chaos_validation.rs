//! Chaos validation: the full scan→enumerate pipeline under fault
//! injection.
//!
//! The tentpole claim of the fault layer (DESIGN.md "Fault model") is
//! that hostility *degrades* the dataset without *corrupting* it: the
//! study completes at any fault intensity, hostile hosts produce
//! partial records tagged with a give-up reason, and — because fault
//! randomness never touches the shared simulation RNG — the records of
//! clean hosts are byte-identical no matter how hostile the rest of
//! the population is. These tests run the identical world at 0%, 10%,
//! and 50% fault intensity and hold the pipeline to that claim.

mod equivalence;

use ftp_study::{run_study, StudyConfig, StudyResults};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

const SEED: u64 = 4242;
const SERVERS: usize = 500;

fn study_at(fraction: f64) -> StudyResults {
    run_study(&StudyConfig::small(SEED, SERVERS).with_fault_fraction(fraction))
}

fn clean() -> &'static StudyResults {
    static S: OnceLock<StudyResults> = OnceLock::new();
    S.get_or_init(|| study_at(0.0))
}

fn ten() -> &'static StudyResults {
    static S: OnceLock<StudyResults> = OnceLock::new();
    S.get_or_init(|| study_at(0.1))
}

fn fifty() -> &'static StudyResults {
    static S: OnceLock<StudyResults> = OnceLock::new();
    S.get_or_init(|| study_at(0.5))
}

fn records_by_ip(s: &StudyResults) -> HashMap<Ipv4Addr, &enumerator::HostRecord> {
    s.records.iter().map(|r| (r.ip, r)).collect()
}

/// 0% faults: the golden funnel numbers of `pipeline_validation.rs`
/// still hold, and no defense fires against a well-behaved FTP host.
/// (The world's *non-FTP* port-21 responders — silent sockets, SSH and
/// HTTP banners — do trip the taxonomy, by design: they are exactly the
/// dead endpoints the give-up row exists to count.)
#[test]
fn clean_run_matches_golden_funnel_and_stays_quiet() {
    let s = clean();
    let f = s.funnel();
    assert!((f.ftp_rate() - 0.6316).abs() < 0.05, "FTP per open: {}", f.ftp_rate());
    assert!((f.anonymous_rate() - 0.0815).abs() < 0.02, "anon rate: {}", f.anonymous_rate());
    assert_eq!(s.truth.faulted_count(), 0);
    let by_ip = records_by_ip(s);
    for h in &s.truth.hosts {
        let r = by_ip[&h.ip];
        assert!(r.gave_up.is_none(), "{}: gave up ({:?}) on a clean host", h.ip, r.gave_up);
        assert!(r.faults.is_clean(), "{}: fault counters {:?} on a clean host", h.ip, r.faults);
    }
    // Give-ups at 0% are confined to the non-FTP responder population.
    assert!(f.gave_up > 0, "silent non-FTP responders should be counted");
    assert!(f.gave_up <= s.truth.non_ftp_open.len() as u64);
    let summary = s.summary();
    assert_eq!(f.gave_up, summary.gave_up);
    assert_eq!(summary.connect_retries, 0, "every open port accepts connects at 0%");
    assert_eq!(summary.unparsed_lines, 0);
}

/// Every intensity completes the full pipeline: one record per open
/// host, nobody dropped, nobody enumerated twice. (Reaching this
/// assertion at all is the zero-panics, wall-clock-bounded criterion —
/// a hung session would keep the simulator's event queue alive
/// forever.)
#[test]
fn every_intensity_completes_with_full_coverage() {
    for (label, s) in [("0%", clean()), ("10%", ten()), ("50%", fifty())] {
        assert_eq!(
            s.records.len() as u64,
            s.open_port,
            "{label}: record count != open hosts"
        );
        let by_ip = records_by_ip(s);
        assert_eq!(by_ip.len(), s.records.len(), "{label}: duplicate records");
        for h in &s.truth.hosts {
            assert!(by_ip.contains_key(&h.ip), "{label}: {} never enumerated", h.ip);
        }
    }
}

/// The scan stage is fault-blind by design: SYN blackholes ACK the
/// stateless probe (the LZR "unexpected service" gap), so discovery
/// numbers are identical at every intensity.
#[test]
fn discovery_is_identical_across_intensities() {
    let (a, b, c) = (clean(), ten(), fifty());
    assert_eq!(a.ips_scanned, b.ips_scanned);
    assert_eq!(a.ips_scanned, c.ips_scanned);
    assert_eq!(a.open_port, b.open_port);
    assert_eq!(a.open_port, c.open_port);
}

/// Hostile hosts appear at roughly the configured rate, monotonically
/// (every 10% casualty is a 50% casualty), and their damage is visible
/// in the funnel's give-up row and the run summary's fault counters.
#[test]
fn fault_intensity_shows_up_in_funnel_and_telemetry() {
    let (t, f) = (ten(), fifty());
    let expected_ten = SERVERS as f64 * 0.1;
    let got_ten = t.truth.faulted_count() as f64;
    assert!((got_ten - expected_ten).abs() < expected_ten * 0.5 + 5.0, "{got_ten}");
    let faulted_ten: Vec<Ipv4Addr> =
        t.truth.hosts.iter().filter(|h| h.fault.is_some()).map(|h| h.ip).collect();
    let fifty_by_ip: HashMap<Ipv4Addr, &worldgen::HostTruth> =
        f.truth.hosts.iter().map(|h| (h.ip, h)).collect();
    for ip in faulted_ten {
        assert!(fifty_by_ip[&ip].fault.is_some(), "{ip} faulted at 10% but not 50%");
    }

    let baseline = clean().funnel().gave_up;
    for s in [t, f] {
        let funnel = s.funnel();
        let summary = s.summary();
        assert!(funnel.gave_up > baseline, "hostile hosts added no give-ups");
        assert_eq!(funnel.gave_up, summary.gave_up);
        assert!(
            summary.connect_retries > 0,
            "SYN blackholes should have triggered retries"
        );
        assert!(summary.step_timeouts > 0, "tarpits should have timed out steps");
        // The defenses never misfire: a clean FTP host never trips them,
        // at any ambient intensity.
        let by_ip = records_by_ip(s);
        for h in s.truth.hosts.iter().filter(|h| h.fault.is_none()) {
            let r = by_ip[&h.ip];
            assert!(r.gave_up.is_none(), "{}: clean host gave up {:?}", h.ip, r.gave_up);
            assert!(r.faults.is_clean(), "{}: clean host counters {:?}", h.ip, r.faults);
        }
    }
    assert!(f.summary().gave_up > t.summary().gave_up);
}

/// The core isolation invariant: a clean host's record is byte-for-byte
/// identical whether 0%, 10%, or 50% of the rest of the population is
/// hostile.
#[test]
fn clean_host_records_are_identical_across_intensities() {
    let (a, t, f) = (clean(), ten(), fifty());
    let by_ip_clean = records_by_ip(a);
    let by_ip_ten = records_by_ip(t);
    let by_ip_fifty = records_by_ip(f);
    let mut compared = 0;
    for h in f.truth.hosts.iter().filter(|h| h.fault.is_none()) {
        let r0 = by_ip_clean[&h.ip];
        let r1 = by_ip_ten[&h.ip];
        let r2 = by_ip_fifty[&h.ip];
        assert_eq!(r0, r2, "{}: record changed under 50% ambient faults", h.ip);
        assert_eq!(r0, r1, "{}: record changed under 10% ambient faults", h.ip);
        compared += 1;
    }
    assert!(compared > SERVERS / 3, "too few clean hosts compared: {compared}");
}

/// The 50%-faulty study is fully deterministic, down to bounce hits and
/// the funnel: the hostile K=1 cell of the equivalence matrix
/// (`equivalence/mod.rs`) hits the digests of a run in another process.
#[test]
fn fifty_percent_run_is_deterministic() {
    equivalence::run(&[equivalence::cell(0.5, 1, equivalence::Run::InMemory)]);
}
