//! Server classification and device fingerprinting (Tables II, IV, V,
//! VII).
//!
//! The study classified 69% of all FTP servers (86% of anonymous ones)
//! by developing fingerprints from banners, certificates, and
//! implementation-specific responses (§IV). This module is the
//! reproduction's fingerprint database: banner substrings → device model
//! / deployment class. It deliberately knows nothing about worldgen; the
//! patterns were "learned" from the same surface a real scan would see.

use enumerator::HostRecord;
use serde::{Deserialize, Serialize};

/// Table II deployment classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Classification {
    /// Recognizable general-purpose daemon.
    Generic,
    /// Shared-hosting deployment.
    Hosted,
    /// Embedded-device firmware.
    Embedded,
    /// No fingerprint matched.
    Unknown,
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Classification::Generic => "Generic Server",
            Classification::Hosted => "Hosted Server",
            Classification::Embedded => "Embedded Server",
            Classification::Unknown => "Unknown",
        };
        f.write_str(s)
    }
}

/// Device classes used by Tables IV and X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Network-attached storage.
    Nas,
    /// Consumer router.
    Router,
    /// Printer.
    Printer,
    /// Provider-deployed CPE.
    ProviderCpe,
    /// Recognized device of another kind.
    Other,
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceClass::Nas => "NAS",
            DeviceClass::Router => "Router",
            DeviceClass::Printer => "Printer",
            DeviceClass::ProviderCpe => "Provider CPE",
            DeviceClass::Other => "Other device",
        };
        f.write_str(s)
    }
}

/// A fingerprint hit: display name (as the paper's tables print it) and
/// device class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceFingerprint {
    /// Catalog display name.
    pub name: &'static str,
    /// Device class.
    pub class: DeviceClass,
    /// True for provider-deployed (Table V) rather than consumer
    /// (Table VII) devices.
    pub provider_deployed: bool,
}

/// Banner-substring fingerprints for the devices the paper names.
/// Matching is case-insensitive; first hit wins.
const DEVICE_PATTERNS: &[(&str, &str, DeviceClass, bool)] = &[
    // Consumer devices (Table VII).
    ("qnap", "QNAP Turbo NAS", DeviceClass::Nas, false),
    ("asus wireless router", "ASUS wireless routers", DeviceClass::Router, false),
    ("synology", "Synology NAS devices", DeviceClass::Nas, false),
    ("buffalo linkstation", "Buffalo NAS storage", DeviceClass::Nas, false),
    ("zyxel nas", "ZyXEL/MitraStar NAS", DeviceClass::Nas, false),
    ("ricoh", "RICOH Printers", DeviceClass::Printer, false),
    ("lacie", "LaCie storage", DeviceClass::Nas, false),
    ("lexmark", "Lexmark Printers", DeviceClass::Printer, false),
    ("xerox", "Xerox Printers", DeviceClass::Printer, false),
    ("dell laser printer", "Dell Printers", DeviceClass::Printer, false),
    ("linksys smart router", "Linksys Wifi Routers", DeviceClass::Router, false),
    ("lutron homeworks", "Lutron HomeWorks Processor", DeviceClass::Other, false),
    ("seagate central", "Seagate Storage devices", DeviceClass::Nas, false),
    ("nas storage ftp daemon", "Other NAS", DeviceClass::Nas, false),
    ("wireless router ftp media share", "Other Router", DeviceClass::Router, false),
    ("network printer ftp spooler", "Other Printer", DeviceClass::Printer, false),
    // Provider-deployed devices (Table V).
    ("fritz!box", "FRITZ!Box DSL modem", DeviceClass::ProviderCpe, true),
    ("zyxel dsl modem", "ZyXEL DSL Modem", DeviceClass::ProviderCpe, true),
    ("axis network camera", "AXIS Physical Security Device", DeviceClass::ProviderCpe, true),
    ("zte wimax", "ZTE WiMax Router", DeviceClass::ProviderCpe, true),
    ("speedport", "Speedport DSL Modem", DeviceClass::ProviderCpe, true),
    ("dreambox", "Dreambox Set-top Box", DeviceClass::ProviderCpe, true),
    ("zyxel usg", "ZyXEL Unified Security Gateway", DeviceClass::ProviderCpe, true),
    ("alcatel router", "Alcatel Router", DeviceClass::ProviderCpe, true),
    ("draytek", "DrayTek Network Devices", DeviceClass::ProviderCpe, true),
];

/// Daemon banner substrings for the Generic class.
const GENERIC_PATTERNS: &[&str] = &[
    "proftpd",
    "pure-ftpd",
    "vsftpd",
    "filezilla",
    "serv-u",
    "microsoft ftp service",
    "wu-2.",
    "wu-ftpd",
    "glftpd",
    "bftpd",
    "ncftpd",
    "ws_ftp",
    "titan ftp",
];

/// Fingerprints a host's device model from its banner.
pub fn device_of(record: &HostRecord) -> Option<DeviceFingerprint> {
    let banner = record.banner.as_deref()?.to_ascii_lowercase();
    for &(needle, name, class, provider) in DEVICE_PATTERNS {
        if banner.contains(needle) {
            return Some(DeviceFingerprint { name, class, provider_deployed: provider });
        }
    }
    None
}

/// Classifies a host into the paper's four deployment classes.
pub fn classify(record: &HostRecord) -> Classification {
    let Some(banner) = record.banner.as_deref() else {
        return Classification::Unknown;
    };
    let lower = banner.to_ascii_lowercase();
    if device_of(record).is_some() {
        return Classification::Embedded;
    }
    // Shared-hosting deployments brand their banners (and the study also
    // keyed on hosting-provider certificates).
    if lower.contains("shared hosting")
        || lower.contains("cpanel")
        || lower.contains("plesk")
        || record
            .ftps
            .cert
            .as_ref()
            .map(|c| {
                c.subject_cn.starts_with("*.")
                    && (c.subject_cn.contains("transfer")
                        || c.subject_cn.contains("host")
                        || c.subject_cn.contains("sites")
                        || c.subject_cn.contains("home.pl"))
            })
            .unwrap_or(false)
    {
        return Classification::Hosted;
    }
    if GENERIC_PATTERNS.iter().any(|p| lower.contains(p)) {
        return Classification::Generic;
    }
    Classification::Unknown
}

/// Table II: classification shares over all and anonymous servers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassBreakdown {
    /// `(class display name, all-FTP count, anonymous count)` rows in
    /// Table II order.
    pub rows: Vec<(String, u64, u64)>,
    /// Total FTP servers considered.
    pub total: u64,
    /// Total anonymous servers considered.
    pub total_anon: u64,
}

/// Computes Table II from enumeration records (FTP-compliant hosts only).
pub fn class_breakdown(records: &[HostRecord]) -> ClassBreakdown {
    let mut rows: Vec<(Classification, u64, u64)> = vec![
        (Classification::Generic, 0, 0),
        (Classification::Hosted, 0, 0),
        (Classification::Embedded, 0, 0),
        (Classification::Unknown, 0, 0),
    ];
    let mut total = 0;
    let mut total_anon = 0;
    for r in records.iter().filter(|r| r.ftp_compliant) {
        total += 1;
        let anon = r.is_anonymous();
        if anon {
            total_anon += 1;
        }
        let class = classify(r);
        for row in rows.iter_mut() {
            if row.0 == class {
                row.1 += 1;
                if anon {
                    row.2 += 1;
                }
            }
        }
    }
    ClassBreakdown {
        rows: rows.into_iter().map(|(c, a, b)| (c.to_string(), a, b)).collect(),
        total,
        total_anon,
    }
}

/// Per-device rows for Tables V and VII: `(name, total, anonymous)`.
pub fn device_breakdown(records: &[HostRecord], provider_deployed: bool) -> Vec<(String, u64, u64)> {
    let mut map: std::collections::HashMap<&'static str, (u64, u64)> =
        std::collections::HashMap::new();
    for r in records.iter().filter(|r| r.ftp_compliant) {
        if let Some(fp) = device_of(r) {
            if fp.provider_deployed == provider_deployed {
                let e = map.entry(fp.name).or_default();
                e.0 += 1;
                if r.is_anonymous() {
                    e.1 += 1;
                }
            }
        }
    }
    let mut rows: Vec<(String, u64, u64)> =
        map.into_iter().map(|(n, (t, a))| (n.to_owned(), t, a)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn record_with_banner(banner: &str, anon: bool) -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::new(1, 2, 3, 4));
        r.banner = Some(banner.to_owned());
        r.ftp_compliant = true;
        if anon {
            r.login = enumerator::LoginOutcome::Anonymous;
        }
        r
    }

    #[test]
    fn devices_fingerprint_to_expected_names() {
        let cases = [
            ("QNAP NAS FTP server ready", "QNAP Turbo NAS", DeviceClass::Nas),
            ("Buffalo LinkStation NAS FTP ready", "Buffalo NAS storage", DeviceClass::Nas),
            ("FRITZ!Box with FTP access ready", "FRITZ!Box DSL modem", DeviceClass::ProviderCpe),
            ("Lexmark printer FTP server", "Lexmark Printers", DeviceClass::Printer),
            ("Welcome to ASUS wireless router FTP service", "ASUS wireless routers", DeviceClass::Router),
        ];
        for (banner, name, class) in cases {
            let fp = device_of(&record_with_banner(banner, false)).expect(banner);
            assert_eq!(fp.name, name);
            assert_eq!(fp.class, class);
        }
    }

    #[test]
    fn classify_buckets() {
        assert_eq!(
            classify(&record_with_banner("ProFTPD 1.3.5 Server (Debian)", false)),
            Classification::Generic
        );
        assert_eq!(
            classify(&record_with_banner("ProFTPD 1.3.5 Server (Debian) [shared hosting]", false)),
            Classification::Hosted
        );
        assert_eq!(
            classify(&record_with_banner("Synology NAS FTP ready", false)),
            Classification::Embedded
        );
        assert_eq!(
            classify(&record_with_banner("My own strange ftp", false)),
            Classification::Unknown
        );
    }

    #[test]
    fn hosting_cert_marks_hosted() {
        let mut r = record_with_banner("FTP server ready.", false);
        r.ftps.cert = Some(simtls::SimCertificate::browser_trusted(
            "*.opentransfer.com",
            "CA WildWest",
            1,
        ));
        assert_eq!(classify(&r), Classification::Hosted);
    }

    #[test]
    fn class_breakdown_counts() {
        let records = vec![
            record_with_banner("ProFTPD 1.3.5", true),
            record_with_banner("ProFTPD 1.3.5", false),
            record_with_banner("QNAP NAS FTP server ready", true),
            record_with_banner("???", false),
        ];
        let b = class_breakdown(&records);
        assert_eq!(b.total, 4);
        assert_eq!(b.total_anon, 2);
        let get = |name: &str| b.rows.iter().find(|r| r.0 == name).unwrap().clone();
        assert_eq!(get("Generic Server").1, 2);
        assert_eq!(get("Generic Server").2, 1);
        assert_eq!(get("Embedded Server").1, 1);
        assert_eq!(get("Unknown").1, 1);
    }

    #[test]
    fn device_breakdown_sorted_by_total() {
        let records = vec![
            record_with_banner("Lexmark printer FTP server", true),
            record_with_banner("Lexmark printer FTP server", true),
            record_with_banner("QNAP NAS FTP server ready", false),
        ];
        let rows = device_breakdown(&records, false);
        assert_eq!(rows[0].0, "Lexmark Printers");
        assert_eq!(rows[0].1, 2);
        assert_eq!(rows[0].2, 2);
        assert_eq!(rows[1].0, "QNAP Turbo NAS");
        // Provider table is empty here.
        assert!(device_breakdown(&records, true).is_empty());
    }

    #[test]
    fn class_rollup() {
        let records = vec![
            record_with_banner("Lexmark printer FTP server", true),
            record_with_banner("Xerox WorkCentre printer FTP", false),
            record_with_banner("QNAP NAS FTP server ready", false),
            record_with_banner("FRITZ!Box with FTP access ready", false), // provider → excluded
        ];
        // Table IV reads these rows off the aggregate.
        let mut agg = crate::StreamingAggregate::default();
        for r in &records {
            agg.fold_record(r, false, None);
        }
        let row = |class| {
            let ix = crate::stream::DEVICE_CLASS_ORDER.iter().position(|c| *c == class).unwrap();
            agg.device_classes[ix]
        };
        assert_eq!(row(DeviceClass::Printer), (2, 1));
        assert_eq!(row(DeviceClass::ProviderCpe), (0, 0), "provider CPE excluded");
    }

    #[test]
    fn hosts_without_banner_are_unknown() {
        let r = HostRecord::new(Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(classify(&r), Classification::Unknown);
        assert!(device_of(&r).is_none());
    }
}
