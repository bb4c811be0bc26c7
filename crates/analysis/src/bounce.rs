//! `PORT`-validation and NAT analysis (§VII-B).

use crate::writable;
use enumerator::HostRecord;
use ftp_proto::SoftwareFamily;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// §VII-B summary statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BounceSummary {
    /// Anonymous servers probed for `PORT` validation.
    pub probed: u64,
    /// Servers that accepted a third-party `PORT` (replied 200).
    pub accepted: u64,
    /// Of those, servers whose bounce connection the collector actually
    /// observed (confirmation join).
    pub confirmed: u64,
    /// Servers detected behind NAT (PASV advertised a private or
    /// mismatching address).
    pub nat: u64,
    /// NATed servers that also accept third-party `PORT`s — the paper's
    /// internal-network-scan pivot (846 servers).
    pub nat_and_vulnerable: u64,
    /// World-writable servers that also fail validation — the classic
    /// bounce-attack combination (1 973 servers).
    pub writable_and_vulnerable: u64,
    /// FileZilla servers observed (banner), the §VII-B 409 K population.
    pub filezilla_total: u64,
}

/// True when the PASV reply revealed NAT deployment: the advertised
/// address is RFC 1918 or differs from the host's public address.
pub fn is_nated(record: &HostRecord) -> bool {
    match record.pasv_addr {
        Some(hp) => hp.ip().is_private() || hp.ip() != record.ip,
        None => false,
    }
}

/// True when `record` is an FTP server that accepted a third-party
/// `PORT`: the servers whose collector hits count as confirmed.
pub fn accepted_third_party(record: &HostRecord) -> bool {
    record.ftp_compliant && record.port_accepts_third_party == Some(true)
}

/// Computes the §VII-B statistics. `collector_hits` is the set of server
/// addresses whose bounced connections the study's collector observed.
pub fn summarize(records: &[HostRecord], collector_hits: &HashSet<Ipv4Addr>) -> BounceSummary {
    let writable = writable::detect(records, None).servers;
    let mut s = BounceSummary::default();
    for r in records.iter().filter(|r| r.ftp_compliant) {
        if r.banner.as_deref().map(|b| {
            ftp_proto::Banner::parse(b).software().family == SoftwareFamily::FileZilla
        }) == Some(true)
        {
            s.filezilla_total += 1;
        }
        let nated = is_nated(r);
        if nated {
            s.nat += 1;
        }
        match r.port_accepts_third_party {
            Some(true) => {
                s.probed += 1;
                s.accepted += 1;
                if collector_hits.contains(&r.ip) {
                    s.confirmed += 1;
                }
                if nated {
                    s.nat_and_vulnerable += 1;
                }
                if writable.contains(&r.ip) {
                    s.writable_and_vulnerable += 1;
                }
            }
            Some(false) => s.probed += 1,
            None => {}
        }
    }
    s
}

impl BounceSummary {
    /// The paper's 12.74%: acceptance rate among probed servers.
    pub fn acceptance_rate(&self) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.probed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::files;
    use enumerator::LoginOutcome;
    use ftp_proto::listing::Readability;
    use ftp_proto::HostPort;

    fn rec(ip: [u8; 4]) -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::from(ip));
        r.ftp_compliant = true;
        r.login = LoginOutcome::Anonymous;
        r
    }

    #[test]
    fn nat_detection() {
        let mut r = rec([8, 8, 8, 8]);
        r.pasv_addr = Some(HostPort::new(Ipv4Addr::new(192, 168, 0, 10), 50_000));
        assert!(is_nated(&r));
        let mut honest = rec([8, 8, 8, 8]);
        honest.pasv_addr = Some(HostPort::new(Ipv4Addr::new(8, 8, 8, 8), 50_000));
        assert!(!is_nated(&honest));
        assert!(!is_nated(&rec([8, 8, 8, 8])), "no PASV observed");
    }

    #[test]
    fn summary_joins() {
        let mut vulnerable = rec([1, 0, 0, 1]);
        vulnerable.port_accepts_third_party = Some(true);
        vulnerable.files = files([("/up/sjutd.txt", false, Readability::Readable)]);
        let mut safe = rec([1, 0, 0, 2]);
        safe.port_accepts_third_party = Some(false);
        let mut nat_vuln = rec([1, 0, 0, 3]);
        nat_vuln.port_accepts_third_party = Some(true);
        nat_vuln.pasv_addr = Some(HostPort::new(Ipv4Addr::new(10, 0, 0, 5), 50_000));
        let mut fz = rec([1, 0, 0, 4]);
        fz.banner = Some("FileZilla Server version 0.9.41 beta".into());

        let hits: HashSet<Ipv4Addr> = [Ipv4Addr::new(1, 0, 0, 1)].into_iter().collect();
        let s = summarize(&[vulnerable, safe, nat_vuln, fz], &hits);
        assert_eq!(s.probed, 3);
        assert_eq!(s.accepted, 2);
        assert_eq!(s.confirmed, 1);
        assert_eq!(s.nat, 1);
        assert_eq!(s.nat_and_vulnerable, 1);
        assert_eq!(s.writable_and_vulnerable, 1);
        assert_eq!(s.filezilla_total, 1);
        assert!((s.acceptance_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let s = summarize(&[], &HashSet::new());
        assert_eq!(s.acceptance_rate(), 0.0);
    }
}
