//! Table I: the discovery funnel.

use enumerator::HostRecord;
use serde::{Deserialize, Serialize};

/// The four rows of Table I, as measured by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Funnel {
    /// Addresses probed (space minus blocklist).
    pub ips_scanned: u64,
    /// Hosts that answered SYN-ACK on TCP/21.
    pub open_port: u64,
    /// Hosts that sent an FTP-compliant banner.
    pub ftp_servers: u64,
    /// Hosts that allowed anonymous login.
    pub anonymous: u64,
    /// Hosts the enumerator gave up on (hostile or dead — the funnel's
    /// leakage row; zero on a fault-free population).
    pub gave_up: u64,
}

impl Funnel {
    /// Counts the funnel's stages from scan counters and enumeration
    /// records, without checking them.
    pub fn tally(ips_scanned: u64, open_port: u64, records: &[HostRecord]) -> Self {
        let ftp_servers = records.iter().filter(|r| r.ftp_compliant).count() as u64;
        let anonymous = records.iter().filter(|r| r.is_anonymous()).count() as u64;
        let gave_up = records.iter().filter(|r| r.gave_up.is_some()).count() as u64;
        Funnel { ips_scanned, open_port, ftp_servers, anonymous, gave_up }
    }

    /// Builds the funnel from scan counters and enumeration records.
    ///
    /// Stage counts must shrink monotonically down the funnel; a
    /// violation means the pipeline double-counted or dropped a stage,
    /// so it is surfaced as a structured [`obs::diag!`] warning (and a
    /// `debug_assert!` in debug builds) rather than silently rendered
    /// into Table I. The study counts violations per cell, while its
    /// recorders are installed (`funnel_invariant_violations`).
    pub fn from_results(ips_scanned: u64, open_port: u64, records: &[HostRecord]) -> Self {
        let funnel = Self::tally(ips_scanned, open_port, records);
        let violations = funnel.invariant_violations();
        if !violations.is_empty() {
            for v in &violations {
                obs::diag!("warning: funnel invariant violated: {v} ({funnel:?})");
            }
            debug_assert!(
                violations.is_empty(),
                "funnel stages must be monotonic: {violations:?} in {funnel:?}"
            );
        }
        funnel
    }

    /// Checks the funnel's monotonicity invariants, returning a
    /// description of every stage pair that is out of order (empty on a
    /// well-formed funnel). Exposed so tests can probe hand-built
    /// funnels without tripping the `debug_assert!` in
    /// [`Funnel::from_results`].
    #[must_use]
    pub fn invariant_violations(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.open_port > self.ips_scanned {
            v.push("open_port > ips_scanned");
        }
        if self.ftp_servers > self.open_port {
            v.push("ftp_servers > open_port");
        }
        if self.anonymous > self.ftp_servers {
            v.push("anonymous > ftp_servers");
        }
        if self.gave_up > self.open_port {
            v.push("gave_up > open_port");
        }
        v
    }

    /// FTP-compliance rate per open port.
    pub fn ftp_rate(&self) -> f64 {
        ratio(self.ftp_servers, self.open_port)
    }

    /// Anonymous rate per FTP server — the paper's headline 8%.
    pub fn anonymous_rate(&self) -> f64 {
        ratio(self.anonymous, self.ftp_servers)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn rates_computed() {
        let mut records = Vec::new();
        for i in 0..100u8 {
            let mut r = HostRecord::new(Ipv4Addr::new(1, 1, 1, i));
            r.ftp_compliant = true;
            if i < 8 {
                r.login = enumerator::LoginOutcome::Anonymous;
            }
            records.push(r);
        }
        // 20 non-FTP responders.
        for i in 0..20u8 {
            records.push(HostRecord::new(Ipv4Addr::new(1, 1, 2, i)));
        }
        let f = Funnel::from_results(10_000, 120, &records);
        assert_eq!(f.ftp_servers, 100);
        assert_eq!(f.anonymous, 8);
        assert!((f.ftp_rate() - 100.0 / 120.0).abs() < 1e-9);
        assert!((f.anonymous_rate() - 0.08).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let f = Funnel::default();
        assert_eq!(f.ftp_rate(), 0.0);
        assert_eq!(f.anonymous_rate(), 0.0);
    }

    #[test]
    fn invariants_hold_on_well_formed_funnel() {
        let f = Funnel {
            ips_scanned: 1000,
            open_port: 100,
            ftp_servers: 80,
            anonymous: 8,
            gave_up: 20,
        };
        assert!(f.invariant_violations().is_empty());
        assert!(Funnel::default().invariant_violations().is_empty());
    }

    #[test]
    fn invariants_flag_non_monotonic_stages() {
        let f = Funnel {
            ips_scanned: 10,
            open_port: 100,
            ftp_servers: 80,
            anonymous: 90,
            gave_up: 200,
        };
        let v = f.invariant_violations();
        assert_eq!(
            v,
            vec!["open_port > ips_scanned", "anonymous > ftp_servers", "gave_up > open_port"]
        );
    }
}
