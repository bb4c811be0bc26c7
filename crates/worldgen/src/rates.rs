//! The paper's published numbers, expressed as the rates the generator
//! samples from.
//!
//! Every constant here cites the table or section it comes from. The
//! generator consumes *conditional* rates (e.g. "fraction of anonymous
//! servers that are world-writable") so that populations of any size
//! reproduce the paper's proportions; EXPERIMENTS.md compares measured
//! proportions against these same sources.

/// Table I: addresses scanned (after exclusions), of 2³² total.
pub const SCANNED_FRACTION: f64 = 0.8579;
/// Table I: hosts with TCP/21 open, per scanned address.
pub const OPEN_PER_SCANNED: f64 = 21_832_903.0 / 3_684_755_175.0;
/// Table I: FTP-compliant banners per open port.
pub const FTP_PER_OPEN: f64 = 13_789_641.0 / 21_832_903.0;
/// Table I: anonymous logins per FTP server.
pub const ANON_PER_FTP: f64 = 1_123_326.0 / 13_789_641.0;

/// §IV: fraction of anonymous servers exposing at least some data.
pub const ANON_EXPOSING_DATA: f64 = 0.24;
/// §IV: servers with robots.txt, per anonymous server (11.3 K / 1.1 M).
pub const ROBOTS_PER_ANON: f64 = 11_300.0 / 1_123_326.0;
/// §IV: robots.txt files that exclude everything (5.9 K / 11.3 K).
pub const ROBOTS_DENY_ALL: f64 = 5_900.0 / 11_300.0;
/// §IV: servers whose traversal exceeded 500 requests (26.7 K / 1.1 M).
pub const TRUNCATED_PER_ANON: f64 = 26_700.0 / 1_123_326.0;

/// Table II: server-classification shares, all FTP servers.
pub const CLASS_ALL: [(Category, f64); 4] = [
    (Category::Generic, 0.4321),
    (Category::Hosted, 0.1302),
    (Category::Embedded, 0.1295),
    (Category::Unknown, 0.3082),
];
/// Table II: server-classification shares, anonymous FTP servers.
pub const CLASS_ANON: [(Category, f64); 4] = [
    (Category::Generic, 0.6266),
    (Category::Hosted, 0.1550),
    (Category::Embedded, 0.0832),
    (Category::Unknown, 0.1352),
];

/// The paper's four server classes (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Category {
    /// Recognizable general-purpose daemon.
    Generic,
    /// Identified shared-hosting deployment.
    Hosted,
    /// Embedded device firmware.
    Embedded,
    /// Unclassifiable.
    Unknown,
}

/// §VI-A: world-writable servers per anonymous server (19.4 K / 1.1 M).
pub const WRITABLE_PER_ANON: f64 = 19_400.0 / 1_123_326.0;

/// §VII-B: anonymous servers failing PORT validation (143 073 / 1.1 M).
pub const BOUNCE_PER_ANON: f64 = 0.1274;
/// §VII-B: share of bounce-vulnerable servers inside AS12824 home.pl.
pub const BOUNCE_SHARE_HOMEPL: f64 = 0.715;
/// §VII-B: NATed anonymous servers (18 947 / 1.1 M).
pub const NAT_PER_ANON: f64 = 18_947.0 / 1_123_326.0;
/// §VII-B: NATed servers that also fail PORT validation (846 / 18 947).
pub const BOUNCE_PER_NAT: f64 = 846.0 / 18_947.0;
/// §VII-B: servers both world-writable and bounce-vulnerable (1 973).
pub const WRITABLE_AND_BOUNCE: f64 = 1_973.0 / 1_123_326.0;

/// §IX: FTP servers supporting FTPS (3.4 M / 13.8 M).
pub const FTPS_PER_FTP: f64 = 3_400_000.0 / 13_789_641.0;
/// §IX: FTPS servers requiring TLS before login (<85 K / 3.4 M).
pub const FTPS_REQUIRED: f64 = 85_000.0 / 3_400_000.0;
/// §IX: FTPS servers using self-signed certificates (~50%).
pub const FTPS_SELF_SIGNED: f64 = 0.50;

/// §VI-B: FTP IPs also serving HTTP (65.27%).
pub const HTTP_PER_FTP: f64 = 0.6527;
/// §VI-B: FTP IPs with X-Powered-By scripting headers (15.01%).
pub const SCRIPTING_PER_FTP: f64 = 0.1501;

/// Campaign prevalences, per anonymous server (§VI). The reference-set
/// campaigns imply writability; the generator conditions accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Campaign {
    /// `w0000000t.[txt/php]` write probe.
    ProbeW0t,
    /// `sjutd.txt` write probe.
    ProbeSjutd,
    /// `hello.world.txt` write probe.
    ProbeHelloWorld,
    /// Four-stage `ftpchk3` infection (§VI-B).
    Ftpchk3,
    /// PHP remote-access tools (§VI-B).
    Rat,
    /// `history.php`/`phzLtoxn.php` UDP DDoS scripts (§VI-B).
    Ddos,
    /// Holy Bible SEO campaign tag file (§VI-B).
    HolyBible,
    /// Software-cracking-service fliers (§VI-C).
    KeygenFlier,
    /// Dated WaReZ transport directories (§VI-C).
    Warez,
}

/// `(campaign, servers-in-paper, requires-writable)` — counts are out of
/// the 1.1 M anonymous servers.
pub const CAMPAIGNS: [(Campaign, f64, bool); 9] = [
    (Campaign::ProbeW0t, 7_000.0, true),
    (Campaign::ProbeSjutd, 5_000.0, true),
    (Campaign::ProbeHelloWorld, 6_000.0, true),
    (Campaign::Ftpchk3, 1_264.0, true),
    (Campaign::Rat, 724.0, true),
    (Campaign::Ddos, 1_792.0, true),
    // Holy Bible: only 55.35% of its 1 131 servers carry reference-set
    // files, so it does not strictly require detected writability.
    (Campaign::HolyBible, 1_131.0, false),
    (Campaign::KeygenFlier, 2_095.0, true),
    (Campaign::Warez, 4_868.0, true),
];

/// §VI-B: share of Holy Bible servers that also carry reference-set
/// (writable-indicating) files.
pub const HOLY_BIBLE_WRITABLE_SHARE: f64 = 0.5535;

/// §VI-C: Ramnit-infected hosts exposing the botnet's FTP banner, per
/// FTP server (1 051 / 13.8 M).
pub const RAMNIT_PER_FTP: f64 = 1_051.0 / 13_789_641.0;

/// Table IX rows: (label, servers, files, readable, non-readable,
/// unk-readable) out of 1.1 M anonymous servers.
pub const SENSITIVE: [(&str, f64, f64, f64, f64, f64); 9] = [
    ("TurboTax Export", 464.0, 8_190.0, 8_139.0, 6.0, 45.0),
    ("Quicken Data", 440.0, 7_702.0, 7_652.0, 6.0, 241.0),
    ("KeePass", 210.0, 1_812.0, 1_762.0, 6.0, 44.0),
    ("1Password", 11.0, 24.0, 23.0, 0.0, 1.0),
    ("SSH host keys", 819.0, 1_597.0, 139.0, 1_427.0, 31.0),
    ("Putty keys", 82.0, 128.0, 98.0, 0.0, 30.0),
    ("priv PEM", 701.0, 1_397.0, 1_335.0, 2.0, 60.0),
    ("shadow files", 590.0, 718.0, 238.0, 473.0, 7.0),
    ("PST mailboxes", 2_419.0, 12_636.0, 10_918.0, 103.0, 1_615.0),
];

/// §V: OS-root exposures out of 1.1 M anonymous servers.
pub const OS_ROOT_WINDOWS: f64 = 825.0;
/// §V: Linux OS-root exposures.
pub const OS_ROOT_LINUX: f64 = 3_858.0;
/// §V: OS X OS-root exposures.
pub const OS_ROOT_OSX: f64 = 15.0;

/// §V: photo-library hosts (17 K servers with 13.7 M photos).
pub const PHOTO_SERVERS: f64 = 17_000.0;
/// §V: scripting-source hosts (32 K servers, 10.2 M files).
pub const SCRIPT_SOURCE_SERVERS: f64 = 32_000.0;
/// §V: `.htaccess` hosts (4.5 K servers, 189.4 K files).
pub const HTACCESS_SERVERS: f64 = 4_500.0;

/// The anonymous-server denominator the absolute counts above refer to.
pub const PAPER_ANON: f64 = 1_123_326.0;
/// The all-FTP denominator.
pub const PAPER_FTP: f64 = 13_789_641.0;

/// Scales a paper server-count (out of [`PAPER_ANON`]) to a probability.
pub fn per_anon(paper_count: f64) -> f64 {
    paper_count / PAPER_ANON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_shares_sum_to_one() {
        let all: f64 = CLASS_ALL.iter().map(|&(_, p)| p).sum();
        let anon: f64 = CLASS_ANON.iter().map(|&(_, p)| p).sum();
        assert!((all - 1.0).abs() < 1e-9, "{all}");
        assert!((anon - 1.0).abs() < 1e-9, "{anon}");
    }

    #[test]
    fn funnel_rates_match_table_one() {
        assert!((OPEN_PER_SCANNED - 0.0059).abs() < 0.001);
        assert!((FTP_PER_OPEN - 0.6316).abs() < 0.001);
        assert!((ANON_PER_FTP - 0.0815).abs() < 0.001);
    }

    #[test]
    fn probabilities_are_valid() {
        for p in [
            SCANNED_FRACTION,
            OPEN_PER_SCANNED,
            FTP_PER_OPEN,
            ANON_PER_FTP,
            ANON_EXPOSING_DATA,
            WRITABLE_PER_ANON,
            BOUNCE_PER_ANON,
            NAT_PER_ANON,
            FTPS_PER_FTP,
            FTPS_REQUIRED,
            HTTP_PER_FTP,
            SCRIPTING_PER_FTP,
        ] {
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
        for (c, count, _) in CAMPAIGNS {
            assert!(per_anon(count) < 0.01, "{c:?} is a rare phenomenon");
        }
    }

    #[test]
    fn sensitive_readability_splits_sum() {
        for (label, _servers, files, r, n, u) in SENSITIVE {
            // The paper's own Quicken row is internally inconsistent
            // (7 652 + 6 + 241 = 7 899 ≠ 7 702); we keep its literal
            // numbers and tolerate that row.
            let slack = if label == "Quicken Data" { 200.0 } else { 1.0 };
            assert!(
                (r + n + u - files).abs() < slack,
                "{label}: {r}+{n}+{u} != {files}"
            );
        }
    }
}
