//! Data-exposure analysis (§V): extension statistics, sensitive-file
//! detection, photo libraries, OS roots, scripting source, and the
//! device breakout (Tables VIII, IX, X).

use crate::ci;
use crate::fingerprint::{self, DeviceClass};
use enumerator::{FileEntryRef, HostRecord};
use ftp_proto::listing::Readability;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Table VIII row: one extension's prevalence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtensionRow {
    /// Extension (lower case, no dot).
    pub extension: String,
    /// Total files with that extension.
    pub files: u64,
    /// Servers carrying at least one such file.
    pub servers: u64,
}

/// Computes the extension histogram over hosts accepted by `filter`
/// (Table VIII restricts to known SOHO devices).
pub fn extension_histogram(
    records: &[HostRecord],
    filter: impl Fn(&HostRecord) -> bool,
) -> Vec<ExtensionRow> {
    let mut files: HashMap<String, u64> = HashMap::new();
    let mut servers: HashMap<String, u64> = HashMap::new();
    for r in records.iter().filter(|r| filter(r)) {
        // Borrowed seen-set: extensions live in the record's arena, so
        // per-record dedup costs no String clones.
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for f in r.files.iter().filter(|f| !f.is_dir) {
            if let Some(ext) = f.extension() {
                match files.get_mut(ext) {
                    Some(n) => *n += 1,
                    None => {
                        files.insert(ext.to_owned(), 1);
                    }
                }
                if seen.insert(ext) {
                    match servers.get_mut(ext) {
                        Some(n) => *n += 1,
                        None => {
                            servers.insert(ext.to_owned(), 1);
                        }
                    }
                }
            }
        }
    }
    let mut rows: Vec<ExtensionRow> = files
        .into_iter()
        .map(|(extension, n)| ExtensionRow {
            servers: servers.get(&extension).copied().unwrap_or(0),
            extension,
            files: n,
        })
        .collect();
    rows.sort_by(|a, b| b.files.cmp(&a.files).then(a.extension.cmp(&b.extension)));
    rows
}

/// True when the host fingerprints as a small-office/home-office device
/// (the Table VIII population).
pub fn is_soho(record: &HostRecord) -> bool {
    fingerprint::device_of(record)
        .map(|d| matches!(d.class, DeviceClass::Nas | DeviceClass::Router | DeviceClass::Printer))
        .unwrap_or(false)
}

/// Sensitive-file classes (Table IX), detected by filename heuristics —
/// the same iterative name-matching methodology as §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensitiveClass {
    /// TurboTax exports (`.tax`, `.tax2013`, …).
    TurboTax,
    /// Quicken data (`.qdf`).
    Quicken,
    /// KeePass databases (`.kdb`, `.kdbx`).
    KeePass,
    /// 1Password keychains.
    OnePassword,
    /// SSH host private keys.
    SshHostKey,
    /// PuTTY keys (`.ppk`).
    PuttyKey,
    /// Private PEM key material.
    PrivPem,
    /// Unix shadow files.
    Shadow,
    /// Outlook mailboxes (`.pst`).
    Pst,
}

impl SensitiveClass {
    /// All classes in Table IX order.
    pub const ALL: [SensitiveClass; 9] = [
        SensitiveClass::TurboTax,
        SensitiveClass::Quicken,
        SensitiveClass::KeePass,
        SensitiveClass::OnePassword,
        SensitiveClass::SshHostKey,
        SensitiveClass::PuttyKey,
        SensitiveClass::PrivPem,
        SensitiveClass::Shadow,
        SensitiveClass::Pst,
    ];

    /// The display label Table IX uses.
    pub fn label(&self) -> &'static str {
        match self {
            SensitiveClass::TurboTax => "TurboTax Export",
            SensitiveClass::Quicken => "Quicken Data",
            SensitiveClass::KeePass => "KeePass/KeePassX",
            SensitiveClass::OnePassword => "1Password",
            SensitiveClass::SshHostKey => "SSH host private keys",
            SensitiveClass::PuttyKey => "Putty SSH client keys",
            SensitiveClass::PrivPem => "\"priv\" .pem files",
            SensitiveClass::Shadow => "shadow files",
            SensitiveClass::Pst => ".pst files",
        }
    }

    /// Classifies one file by name.
    ///
    /// Allocation-free: the table precomputes lowercase extensions, and
    /// name comparisons fold ASCII case in place.
    pub fn of(entry: FileEntryRef<'_>) -> Option<SensitiveClass> {
        let name = entry.name();
        let ext = entry.extension().unwrap_or_default();
        if ext.starts_with("tax") {
            return Some(SensitiveClass::TurboTax);
        }
        if ext == "qdf" {
            return Some(SensitiveClass::Quicken);
        }
        if ext == "kdb" || ext == "kdbx" {
            return Some(SensitiveClass::KeePass);
        }
        if ci::contains(name, "agilekeychain")
            || ext.starts_with("onepassword")
            || ci::contains(name, "1password")
        {
            return Some(SensitiveClass::OnePassword);
        }
        if ci::starts_with(name, "ssh_host_")
            && ci::contains(name, "key")
            && !ci::ends_with(name, ".pub")
        {
            return Some(SensitiveClass::SshHostKey);
        }
        if ext == "ppk" {
            return Some(SensitiveClass::PuttyKey);
        }
        if ext == "pem" && ci::contains(name, "priv") {
            return Some(SensitiveClass::PrivPem);
        }
        if name.eq_ignore_ascii_case("shadow")
            || ci::starts_with(name, "shadow.")
            || ci::starts_with(name, "shadow-")
        {
            return Some(SensitiveClass::Shadow);
        }
        if ext == "pst" {
            return Some(SensitiveClass::Pst);
        }
        None
    }
}

/// A Table IX row with readability splits.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensitiveRow {
    /// Servers with at least one hit.
    pub servers: u64,
    /// Total matching files.
    pub files: u64,
    /// All-users-readable files.
    pub readable: u64,
    /// Permission-denied files.
    pub non_readable: u64,
    /// Files on servers whose listings expose no permissions.
    pub unk_readable: u64,
}

/// Computes Table IX over anonymous servers.
pub fn sensitive_exposure(records: &[HostRecord]) -> HashMap<SensitiveClass, SensitiveRow> {
    let mut out: HashMap<SensitiveClass, SensitiveRow> = HashMap::new();
    for r in records.iter().filter(|r| r.is_anonymous()) {
        let mut seen: std::collections::HashSet<SensitiveClass> = std::collections::HashSet::new();
        for f in r.files.iter().filter(|f| !f.is_dir) {
            if let Some(class) = SensitiveClass::of(f) {
                let row = out.entry(class).or_default();
                row.files += 1;
                match f.readability {
                    Readability::Readable => row.readable += 1,
                    Readability::NonReadable => row.non_readable += 1,
                    Readability::Unknown => row.unk_readable += 1,
                }
                if seen.insert(class) {
                    row.servers += 1;
                }
            }
        }
    }
    out
}

/// True when the host carries at least one sensitive file.
pub fn exposes_sensitive(record: &HostRecord) -> bool {
    record.files.iter().any(|f| !f.is_dir && SensitiveClass::of(f).is_some())
}

/// Photo-library detection (§V): at least `threshold` files matching the
/// default camera naming patterns.
pub fn is_photo_library(record: &HostRecord, threshold: usize) -> bool {
    record
        .files
        .iter()
        .filter(|f| {
            let n = f.name();
            !f.is_dir
                && (ci::starts_with(n, "DSC_")
                    || ci::starts_with(n, "DSC0")
                    || ci::starts_with(n, "IMG_"))
                && (ci::ends_with(n, ".JPG") || ci::ends_with(n, ".JPEG"))
        })
        .count()
        >= threshold
}

/// Operating systems detectable from root-directory markers (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsRoot {
    /// Linux root exposed.
    Linux,
    /// Windows root exposed.
    Windows,
    /// OS X root exposed.
    OsX,
}

/// Detects an exposed OS root from top-level directory names, using the
/// marker sets §V lists.
pub fn os_root_of(record: &HostRecord) -> Option<OsRoot> {
    let top: std::collections::HashSet<&str> = record
        .files
        .iter()
        // A path with one `/`: a root entry whose listed name holds
        // none (a listed name may).
        .filter(|f| f.is_dir && f.dir == "/" && !f.name().contains('/'))
        .map(|f| f.name())
        .collect();
    let has = |names: &[&str]| names.iter().all(|n| top.contains(n));
    if has(&["bin", "var", "boot", "etc"]) {
        return Some(OsRoot::Linux);
    }
    if has(&["Applications", "bin", "var", "Library", "Users"]) {
        return Some(OsRoot::OsX);
    }
    if has(&["Windows", "Program Files", "Users"])
        || has(&["Program Files", "Documents and Settings", "WINDOWS"])
        || has(&["Windows", "Program Files", "Documents and Settings"])
    {
        return Some(OsRoot::Windows);
    }
    None
}

/// Exposure classes for the Table X breakout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExposureClass {
    /// At least one Table IX sensitive file.
    SensitiveDocuments,
    /// A photo library.
    PhotoLibrary,
    /// An exposed OS root.
    RootFilesystem,
    /// Scripting source files.
    ScriptingSource,
}

/// Table X: for each exposure class, the share of responsible hosts per
/// fingerprint bucket (NAS / Router / other embedded / hosting / generic
/// / unknown). Returns `exposure class → (bucket label → count)`.
pub fn device_breakout(
    records: &[HostRecord],
) -> HashMap<ExposureClass, HashMap<&'static str, u64>> {
    let mut out: HashMap<ExposureClass, HashMap<&'static str, u64>> = HashMap::new();
    for r in records.iter().filter(|r| r.is_anonymous()) {
        let bucket = match fingerprint::device_of(r) {
            Some(d) => match d.class {
                DeviceClass::Nas => "Embedded NAS",
                DeviceClass::Router => "Embedded Router",
                _ => "Embedded Other",
            },
            None => match fingerprint::classify(r) {
                fingerprint::Classification::Generic => "Generic",
                fingerprint::Classification::Hosted => "Hosting",
                fingerprint::Classification::Embedded => "Embedded Other",
                fingerprint::Classification::Unknown => "Unknown",
            },
        };
        let mut mark = |class: ExposureClass| {
            *out.entry(class).or_default().entry(bucket).or_default() += 1;
        };
        if exposes_sensitive(r) {
            mark(ExposureClass::SensitiveDocuments);
        }
        if is_photo_library(r, 50) {
            mark(ExposureClass::PhotoLibrary);
        }
        if os_root_of(r).is_some() {
            mark(ExposureClass::RootFilesystem);
        }
        let has_scripts = r
            .files
            .iter()
            .any(|f| !f.is_dir && matches!(f.extension(), Some("php" | "asp" | "aspx" | "cgi")));
        if has_scripts {
            mark(ExposureClass::ScriptingSource);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::files;
    use enumerator::LoginOutcome;
    use std::net::Ipv4Addr;

    fn anon_record<'a>(rows: impl IntoIterator<Item = (&'a str, bool, Readability)>) -> HostRecord {
        let mut r = HostRecord::new(Ipv4Addr::new(9, 9, 9, 9));
        r.ftp_compliant = true;
        r.login = LoginOutcome::Anonymous;
        r.files = files(rows);
        r
    }

    fn classify(path: &str) -> Option<SensitiveClass> {
        SensitiveClass::of(files([(path, false, Readability::Readable)]).get(0))
    }

    #[test]
    fn sensitive_classifier_matches_vocabulary() {
        let cases = [
            ("/a/2014_return.tax2014", SensitiveClass::TurboTax),
            ("/a/budget.qdf", SensitiveClass::Quicken),
            ("/a/passwords.kdbx", SensitiveClass::KeePass),
            ("/a/1Password.agilekeychain", SensitiveClass::OnePassword),
            ("/etc/ssh/ssh_host_rsa_key", SensitiveClass::SshHostKey),
            ("/a/aws.ppk", SensitiveClass::PuttyKey),
            ("/a/server-priv.pem", SensitiveClass::PrivPem),
            ("/etc/shadow", SensitiveClass::Shadow),
            ("/mail/archive.pst", SensitiveClass::Pst),
        ];
        for (path, class) in cases {
            assert_eq!(classify(path), Some(class), "{path}");
        }
        // Negatives.
        for path in ["/a/photo.jpg", "/a/ssh_host_rsa_key.pub", "/a/ca-cert.pem", "/a/shadowplay.mp4"] {
            assert_eq!(classify(path), None, "{path}");
        }
    }

    #[test]
    fn sensitive_exposure_readability_split() {
        let r = anon_record([
            ("/etc/shadow", false, Readability::NonReadable),
            ("/b/shadow.bak", false, Readability::Readable),
            ("/c/shadow-", false, Readability::Unknown),
        ]);
        let table = sensitive_exposure(&[r]);
        let row = &table[&SensitiveClass::Shadow];
        assert_eq!(row.servers, 1);
        assert_eq!(row.files, 3);
        assert_eq!(row.readable, 1);
        assert_eq!(row.non_readable, 1);
        assert_eq!(row.unk_readable, 1);
    }

    #[test]
    fn extension_histogram_counts_files_and_servers() {
        let a = anon_record([
            ("/p/DSC_0001.JPG", false, Readability::Readable),
            ("/p/DSC_0002.JPG", false, Readability::Readable),
            ("/m/track.mp3", false, Readability::Readable),
        ]);
        let b = anon_record([("/x/other.jpg", false, Readability::Readable)]);
        let rows = extension_histogram(&[a, b], |_| true);
        let jpg = rows.iter().find(|r| r.extension == "jpg").unwrap();
        assert_eq!(jpg.files, 3);
        assert_eq!(jpg.servers, 2);
        assert_eq!(rows[0].extension, "jpg", "sorted by file count");
    }

    #[test]
    fn photo_library_threshold() {
        let mut paths: Vec<String> = (0..49).map(|i| format!("/p/DSC_{i:04}.JPG")).collect();
        let library = |paths: &[String]| {
            anon_record(paths.iter().map(|p| (p.as_str(), false, Readability::Readable)))
        };
        assert!(!is_photo_library(&library(&paths), 50));
        paths.push("/p/IMG_9999.jpg".into());
        assert!(is_photo_library(&library(&paths), 50));
    }

    #[test]
    fn os_root_markers() {
        let linux = anon_record([
            ("/bin", true, Readability::Readable),
            ("/var", true, Readability::Readable),
            ("/boot", true, Readability::Readable),
            ("/etc", true, Readability::Readable),
        ]);
        assert_eq!(os_root_of(&linux), Some(OsRoot::Linux));
        let windows = anon_record([
            ("/Windows", true, Readability::Unknown),
            ("/Program Files", true, Readability::Unknown),
            ("/Users", true, Readability::Unknown),
        ]);
        assert_eq!(os_root_of(&windows), Some(OsRoot::Windows));
        let partial = anon_record([("/bin", true, Readability::Readable)]);
        assert_eq!(os_root_of(&partial), None);
        // Markers below the top level don't count.
        let nested = anon_record([
            ("/x/bin", true, Readability::Readable),
            ("/x/var", true, Readability::Readable),
            ("/x/boot", true, Readability::Readable),
            ("/x/etc", true, Readability::Readable),
        ]);
        assert_eq!(os_root_of(&nested), None);
    }

    #[test]
    fn breakout_buckets_by_fingerprint() {
        let mut nas = anon_record([("/s/budget.qdf", false, Readability::Readable)]);
        nas.banner = Some("QNAP NAS FTP server ready".into());
        let mut generic = anon_record([("/s/x.qdf", false, Readability::Readable)]);
        generic.banner = Some("ProFTPD 1.3.5 Server".into());
        let out = device_breakout(&[nas, generic]);
        let sens = &out[&ExposureClass::SensitiveDocuments];
        assert_eq!(sens.get("Embedded NAS"), Some(&1));
        assert_eq!(sens.get("Generic"), Some(&1));
    }

    #[test]
    fn soho_filter() {
        let mut r = anon_record([]);
        r.banner = Some("Buffalo LinkStation NAS FTP ready".into());
        assert!(is_soho(&r));
        let mut h = anon_record([]);
        h.banner = Some("ProFTPD 1.3.5".into());
        assert!(!is_soho(&h));
        let mut cpe = anon_record([]);
        cpe.banner = Some("FRITZ!Box with FTP access ready".into());
        assert!(!is_soho(&cpe), "provider CPE is not SOHO");
    }
}
