//! Filesystem content generators: what the simulated servers publish.
//!
//! Each generator produces the *kind* of tree the paper found: hosting
//! webroots full of scripting source (§V "Scripting Source Code"), NAS
//! media libraries with default-named camera photos (§V "Photo
//! Libraries"), exposed OS roots (§V "Root File Systems Exposed"),
//! office-wide backups, and the sensitive-file classes of Table IX.
//! File-name vocabularies match the patterns the analysis crate detects,
//! exactly as the real study iterated between observed names and
//! detection heuristics (§III).
//!
//! Generators thread a [`GenScratch`] so materializing a host allocates
//! only for arena growth: paths are built segment-by-segment in a
//! reusable [`PathScratch`], mtimes render into a reused buffer, and
//! files land via [`Vfs::add_file_in`] with everything borrowed.

use ftp_proto::listing::Permissions;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simvfs::{FileAttrs, Owner, PathScratch, Vfs};
use std::fmt::Write as _;

/// Reusable buffers threaded through world materialization; create one
/// per host batch (or per test) and every generator call reuses it.
#[derive(Debug, Default, Clone)]
pub struct GenScratch {
    /// Segment-stack path builder.
    pub path: PathScratch,
    /// Render buffer for listing mtimes.
    pub mtime: String,
    /// Render buffer for small generated file contents.
    pub text: String,
    /// Render buffer for a single file-name component (bulk
    /// [`Vfs::add_file_in`] insertion).
    pub name: String,
}

/// What a host's filesystem looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentKind {
    /// Nothing visible (the 76% of anonymous servers exposing no data).
    Empty,
    /// Shared-hosting webroot: HTML, server-side scripts, `.htaccess`.
    HostingWebroot,
    /// Consumer NAS: photos, music, movies, personal documents.
    NasMedia,
    /// Printer spool: scanned documents.
    PrinterSpool,
    /// An exposed operating-system root.
    OsRoot(OsKind),
    /// Company/office backup dump: mail archives, financial records.
    OfficeBackup,
}

/// Operating systems whose roots the study fingerprinted (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsKind {
    /// Linux (`bin`, `var`, `boot`, `etc`).
    Linux,
    /// Windows (`Windows`, `Program Files`, `Users`).
    Windows,
    /// Mac OS X (`Applications`, `Library`, `Users`, …).
    OsX,
}

/// Sensitive-file classes of Table IX, injectable on any tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensitiveKind {
    /// TurboTax export files.
    TurboTax,
    /// Quicken data files.
    Quicken,
    /// KeePass/KeePassX databases.
    KeePass,
    /// 1Password keychains.
    OnePassword,
    /// SSH host private keys.
    SshHostKey,
    /// PuTTY client keys.
    PuttyKey,
    /// `*priv*.pem` key material.
    PrivPem,
    /// Unix `shadow` password databases.
    Shadow,
    /// Outlook `.pst` mailboxes.
    Pst,
}

impl SensitiveKind {
    /// All classes, in Table IX order.
    pub const ALL: [SensitiveKind; 9] = [
        SensitiveKind::TurboTax,
        SensitiveKind::Quicken,
        SensitiveKind::KeePass,
        SensitiveKind::OnePassword,
        SensitiveKind::SshHostKey,
        SensitiveKind::PuttyKey,
        SensitiveKind::PrivPem,
        SensitiveKind::Shadow,
        SensitiveKind::Pst,
    ];

    /// Representative filenames for this class (the vocabulary both the
    /// generator and the detector share).
    pub fn filenames(&self) -> &'static [&'static str] {
        match self {
            SensitiveKind::TurboTax => {
                &["2014_return.tax2014", "family.tax2013", "export.tax", "taxes 2012.tax2012"]
            }
            SensitiveKind::Quicken => &["family-finances.qdf", "budget.qdf", "QDATA.QDF"],
            SensitiveKind::KeePass => &["passwords.kdbx", "vault.kdb", "keepass-backup.kdbx"],
            SensitiveKind::OnePassword => &["1Password.agilekeychain", "license.onepassword4"],
            SensitiveKind::SshHostKey => {
                &["ssh_host_rsa_key", "ssh_host_dsa_key", "ssh_host_ecdsa_key"]
            }
            SensitiveKind::PuttyKey => &["server-login.ppk", "aws.ppk", "mykey.ppk"],
            SensitiveKind::PrivPem => &["server-priv.pem", "priv_key.pem", "privkey.pem"],
            SensitiveKind::Shadow => &["shadow", "shadow.bak", "shadow-"],
            SensitiveKind::Pst => &["archive.pst", "Outlook.pst", "mail-backup-2013.pst"],
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

const PHOTO_EVENTS: &[&str] = &[
    "wedding", "family-reunion", "vacation-florida", "birthday-party", "graduation",
    "christmas-2014", "new-years", "camping-trip", "baby-shower", "anniversary",
];

const MONTHS: &[&str] = &["Jan", "Feb", "Mar", "Apr", "May", "Jun"];

/// Renders a random listing mtime into `out` (same draw order as the
/// old `String`-returning version: month, day, year digit).
fn mtime_into(rng: &mut StdRng, out: &mut String) {
    out.clear();
    let _ = write!(
        out,
        "{} {:2}  201{}",
        pick(rng, MONTHS),
        rng.random_range(1..29),
        rng.random_range(2..6)
    );
}

/// Draws an mtime into `scratch` and returns public-file attrs for it.
fn public_attrs<'a>(rng: &mut StdRng, size: u64, mtime_buf: &'a mut String) -> FileAttrs<'a> {
    mtime_into(rng, mtime_buf);
    FileAttrs::public(size).with_mtime(mtime_buf)
}

/// Generates a photo library under `base`: `count` default-named camera
/// files across per-event directories.
pub fn add_photo_library(
    vfs: &mut Vfs,
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    base: &str,
    count: usize,
) {
    let mut remaining = count;
    let mut serial = rng.random_range(1..2000u32);
    while remaining > 0 {
        let year = rng.random_range(2009..2016);
        let event = pick(rng, PHOTO_EVENTS);
        scratch.path.set(base);
        scratch.path.push_fmt(format_args!("{year}"));
        scratch.path.push(event);
        // One descent for the whole roll; files insert by name.
        let dir = vfs.dir_handle(scratch.path.as_str()).ok();
        let in_dir = rng.random_range(40..320usize).min(remaining);
        for _ in 0..in_dir {
            serial += 1;
            let dsc = rng.random_bool(0.7);
            let size = rng.random_range(800_000..6_000_000);
            let attrs = public_attrs(rng, size, &mut scratch.mtime);
            scratch.name.clear();
            if dsc {
                let _ = write!(scratch.name, "DSC_{serial:04}.JPG");
            } else {
                let _ = write!(scratch.name, "IMG_{serial:04}.jpg");
            }
            if let Some(d) = dir {
                let _ = vfs.add_file_in(d, &scratch.name, attrs);
            }
        }
        remaining -= in_dir;
    }
}

/// Adds a music/movie media collection.
pub fn add_media_collection(
    vfs: &mut Vfs,
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    base: &str,
    songs: usize,
    movies: usize,
) {
    const ARTISTS: &[&str] = &["The Beatles", "Daft Punk", "Miles Davis", "Nirvana", "Adele"];
    for i in 0..songs {
        let artist = pick(rng, ARTISTS);
        scratch.path.set(base);
        scratch.path.push("music");
        scratch.path.push(artist);
        let dir = vfs.dir_handle(scratch.path.as_str()).ok();
        let size = rng.random_range(3_000_000..9_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "track{:03}.mp3", i % 20 + 1);
        if let Some(d) = dir {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
    }
    const TITLES: &[&str] = &["home-video", "holiday", "movie-backup", "recital", "soccer-game"];
    scratch.path.set(base);
    scratch.path.push("videos");
    let videos = if movies > 0 { vfs.dir_handle(scratch.path.as_str()).ok() } else { None };
    for i in 0..movies {
        let t = pick(rng, TITLES);
        let ext = if rng.random_bool(0.55) { "avi" } else { "mp4" };
        let size = rng.random_range(200_000_000..1_500_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "{t}-{i:02}.{ext}");
        if let Some(d) = videos {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
    }
}

/// Adds personal documents (PDF/DOC/ZIP and friends) under `base`.
pub fn add_documents(
    vfs: &mut Vfs,
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    base: &str,
    count: usize,
) {
    const NAMES: &[&str] = &[
        "resume", "insurance-policy", "mortgage-statement", "recipes", "travel-itinerary",
        "school-report", "manual", "newsletter", "meeting-notes", "scan",
    ];
    scratch.path.set(base);
    scratch.path.push("documents");
    let dir = if count > 0 { vfs.dir_handle(scratch.path.as_str()).ok() } else { None };
    for i in 0..count {
        let n = pick(rng, NAMES);
        let ext = match rng.random_range(0..10) {
            0..=3 => "pdf",
            4..=5 => "doc",
            6 => "zip",
            7 => "gif",
            8 => "png",
            _ => "html",
        };
        let size = rng.random_range(20_000..4_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "{n}-{i:03}.{ext}");
        if let Some(d) = dir {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
    }
}

/// Builds a shared-hosting webroot with `sites` vhosts.
pub fn hosting_webroot(
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    sites: usize,
    scripting: bool,
) -> Vfs {
    let mut vfs = Vfs::new();
    const SITES: &[&str] = &["shop", "blog", "forum", "landing", "wiki", "store", "portal"];
    for s in 0..sites {
        let site = pick(rng, SITES);
        scratch.path.set("/www");
        scratch.path.push_fmt(format_args!("{site}{s}"));
        let dir = vfs.dir_handle(scratch.path.as_str()).ok();
        let attrs = public_attrs(rng, 8_192, &mut scratch.mtime);
        if let Some(d) = dir {
            let _ = vfs.add_file_in(d, "index.html", attrs);
        }
        let attrs = public_attrs(rng, 4_096, &mut scratch.mtime);
        if let Some(d) = dir {
            let _ = vfs.add_file_in(d, "style.css", attrs);
        }
        if scripting {
            let attrs = public_attrs(rng, 512, &mut scratch.mtime);
            if let Some(d) = dir {
                let _ = vfs.add_file_in(d, ".htaccess", attrs);
            }
            scratch.path.push("app");
            let app = vfs.dir_handle(scratch.path.as_str()).ok();
            let n = rng.random_range(8..60);
            for i in 0..n {
                scratch.name.clear();
                match rng.random_range(0..6) {
                    0 => scratch.name.push_str("index.php"),
                    1 => scratch.name.push_str("config.php"),
                    2 => scratch.name.push_str("db_connect.php"),
                    3 => {
                        let _ = write!(scratch.name, "page{i}.php");
                    }
                    4 => {
                        let _ = write!(scratch.name, "admin{i}.asp");
                    }
                    _ => {
                        let _ = write!(scratch.name, "include{i}.php");
                    }
                }
                let size = rng.random_range(1_000..40_000);
                let attrs = public_attrs(rng, size, &mut scratch.mtime);
                if let Some(d) = app {
                    let _ = vfs.add_file_in(d, &scratch.name, attrs);
                }
            }
        }
    }
    vfs
}

/// Builds a consumer-NAS media share.
pub fn nas_media(
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    photos: usize,
    songs: usize,
    movies: usize,
    docs: usize,
) -> Vfs {
    let mut vfs = Vfs::new();
    if photos > 0 {
        add_photo_library(&mut vfs, rng, scratch, "/share/photos", photos);
    }
    if songs > 0 || movies > 0 {
        add_media_collection(&mut vfs, rng, scratch, "/share", songs, movies);
    }
    if docs > 0 {
        add_documents(&mut vfs, rng, scratch, "/share", docs);
    }
    vfs
}

/// Builds a printer spool tree (scanned documents).
pub fn printer_spool(rng: &mut StdRng, scratch: &mut GenScratch) -> Vfs {
    let mut vfs = Vfs::new();
    let n = rng.random_range(0..25);
    let dir = if n > 0 { vfs.dir_handle("/scans").ok() } else { None };
    for i in 0..n {
        let size = rng.random_range(100_000..2_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "scan{i:04}.pdf");
        if let Some(d) = dir {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
    }
    vfs
}

/// Builds an exposed OS root with the marker directories §V keys on.
/// Trees here are a handful of static paths, so files land by path
/// with [`Vfs::add_file`]: there is no per-directory loop for a
/// [`Vfs::dir_handle`] to save descents in.
pub fn os_root(rng: &mut StdRng, scratch: &mut GenScratch, kind: OsKind) -> Vfs {
    let mut vfs = Vfs::new();
    match kind {
        OsKind::Linux => {
            for d in ["bin", "var", "boot", "etc", "home", "usr"] {
                scratch.path.set("");
                scratch.path.push(d);
                vfs.mkdir_p(scratch.path.as_str()).expect("static path");
            }
            mtime_into(rng, &mut scratch.mtime);
            let _ = vfs.add_file(
                "/etc/passwd",
                FileAttrs::public(2_048).with_mtime(&scratch.mtime),
            );
            mtime_into(rng, &mut scratch.mtime);
            let _ = vfs.add_file(
                "/etc/shadow",
                FileAttrs::private(718).with_owner(Owner::Root).with_mtime(&scratch.mtime),
            );
            let _ = vfs.add_file(
                "/etc/ssh/ssh_host_rsa_key",
                FileAttrs::private(1_679).with_owner(Owner::Root),
            );
            mtime_into(rng, &mut scratch.mtime);
            let _ = vfs.add_file(
                "/home/user/.bash_history",
                FileAttrs::public(9_000).with_mtime(&scratch.mtime),
            );
        }
        OsKind::Windows => {
            for d in ["Windows", "Program Files", "Users", "Documents and Settings"] {
                scratch.path.set("");
                scratch.path.push(d);
                vfs.mkdir_p(scratch.path.as_str()).expect("static path");
            }
            mtime_into(rng, &mut scratch.mtime);
            let _ = vfs.add_file(
                "/Windows/system.ini",
                FileAttrs::public(219).with_mtime(&scratch.mtime),
            );
            mtime_into(rng, &mut scratch.mtime);
            let _ = vfs.add_file(
                "/Users/owner/Documents/budget.xls",
                FileAttrs::public(88_000).with_mtime(&scratch.mtime),
            );
        }
        OsKind::OsX => {
            for d in ["Applications", "bin", "var", "Library", "Users"] {
                scratch.path.set("");
                scratch.path.push(d);
                vfs.mkdir_p(scratch.path.as_str()).expect("static path");
            }
            mtime_into(rng, &mut scratch.mtime);
            let _ = vfs.add_file(
                "/Users/owner/Desktop/notes.txt",
                FileAttrs::public(1_024).with_mtime(&scratch.mtime),
            );
        }
    }
    vfs
}

/// Builds an office-wide backup dump (the paper found single servers
/// with hundreds of `.pst` files and years of financial backups).
pub fn office_backup(rng: &mut StdRng, scratch: &mut GenScratch) -> Vfs {
    let mut vfs = Vfs::new();
    let mailboxes = rng.random_range(5..60);
    let mail = vfs.dir_handle("/backups/mail").ok();
    for i in 0..mailboxes {
        let size = rng.random_range(50_000_000..2_000_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "user{i:03}.pst");
        if let Some(d) = mail {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
    }
    let finance = vfs.dir_handle("/backups/finance").ok();
    for year in 2010..2015 {
        let size = rng.random_range(1_000_000..30_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "ledger-{year}.qdf");
        if let Some(d) = finance {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
        let size = rng.random_range(5_000_000..80_000_000);
        let attrs = public_attrs(rng, size, &mut scratch.mtime);
        scratch.name.clear();
        let _ = write!(scratch.name, "payroll-{year}.zip");
        if let Some(d) = finance {
            let _ = vfs.add_file_in(d, &scratch.name, attrs);
        }
    }
    vfs
}

/// Injects one Table IX sensitive-file class onto an existing tree,
/// using the class's readable/non-readable file-count ratio to set
/// permissions.
pub fn inject_sensitive(
    vfs: &mut Vfs,
    rng: &mut StdRng,
    scratch: &mut GenScratch,
    kind: SensitiveKind,
    files: usize,
    readable_fraction: f64,
) {
    const SPOTS: &[&str] = &["/share/documents", "/backups", "/home/user", "/private", "/data"];
    let spot = pick(rng, SPOTS);
    let dir = if files > 0 { vfs.dir_handle(spot).ok() } else { None };
    for i in 0..files {
        let name = pick(rng, kind.filenames());
        let readable = rng.random_bool(readable_fraction.clamp(0.0, 1.0));
        let perms =
            if readable { Permissions::public_file() } else { Permissions::private_file() };
        let size = rng.random_range(1_000..5_000_000);
        mtime_into(rng, &mut scratch.mtime);
        scratch.name.clear();
        if i == 0 {
            scratch.name.push_str(name);
        } else {
            let _ = write!(scratch.name, "{i}-{name}");
        }
        if let Some(d) = dir {
            let _ = vfs.add_file_in(
                d,
                &scratch.name,
                FileAttrs { size, perms, owner: Owner::Ftp, mtime: &scratch.mtime, content: None },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simvfs::NodeRef;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Walks the tree into owned `(path, is_dir)` pairs for assertions.
    fn walked(vfs: &Vfs) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        vfs.walk(|p, n| out.push((p.to_owned(), n.is_dir())));
        out
    }

    #[test]
    fn photo_library_count_and_names() {
        let mut vfs = Vfs::new();
        let mut s = GenScratch::default();
        add_photo_library(&mut vfs, &mut rng(), &mut s, "/share/photos", 500);
        assert_eq!(vfs.file_count(), 500);
        let entries = walked(&vfs);
        let jpgs = entries
            .iter()
            .filter(|(p, is_dir)| !is_dir && p.to_lowercase().ends_with(".jpg"))
            .count();
        assert_eq!(jpgs, 500, "all photos are jpgs");
        // Default camera naming.
        assert!(entries.iter().any(|(p, _)| p.contains("DSC_") || p.contains("IMG_")));
    }

    #[test]
    fn webroot_has_index_and_scripts() {
        let vfs = hosting_webroot(&mut rng(), &mut GenScratch::default(), 3, true);
        let paths: Vec<String> = walked(&vfs).into_iter().map(|(p, _)| p).collect();
        assert!(paths.iter().any(|p| p.ends_with("index.html")));
        assert!(paths.iter().any(|p| p.ends_with(".htaccess")));
        assert!(paths.iter().any(|p| p.ends_with(".php")));
    }

    #[test]
    fn webroot_without_scripting_is_static() {
        let vfs = hosting_webroot(&mut rng(), &mut GenScratch::default(), 2, false);
        let paths: Vec<String> = walked(&vfs).into_iter().map(|(p, _)| p).collect();
        assert!(paths.iter().any(|p| p.ends_with("index.html")));
        assert!(!paths.iter().any(|p| p.ends_with(".php")), "{paths:?}");
    }

    #[test]
    fn os_roots_have_markers() {
        let linux = os_root(&mut rng(), &mut GenScratch::default(), OsKind::Linux);
        for d in ["/bin", "/var", "/boot", "/etc"] {
            assert!(linux.is_dir(d), "{d}");
        }
        assert!(linux.file("/etc/shadow").is_ok());

        let win = os_root(&mut rng(), &mut GenScratch::default(), OsKind::Windows);
        assert!(win.is_dir("/Windows"));
        assert!(win.is_dir("/Program Files"));

        let mac = os_root(&mut rng(), &mut GenScratch::default(), OsKind::OsX);
        assert!(mac.is_dir("/Applications"));
        assert!(mac.is_dir("/Library"));
    }

    #[test]
    fn sensitive_injection_sets_permissions() {
        let mut vfs = Vfs::new();
        inject_sensitive(
            &mut vfs,
            &mut rng(),
            &mut GenScratch::default(),
            SensitiveKind::Shadow,
            10,
            0.0,
        );
        let mut nonreadable = 0;
        vfs.walk(|_, n| {
            if let NodeRef::File(m) = n {
                if !m.perms.other_read() {
                    nonreadable += 1;
                }
            }
        });
        assert_eq!(nonreadable, 10, "0.0 readable fraction → all private");

        let mut vfs2 = Vfs::new();
        inject_sensitive(
            &mut vfs2,
            &mut rng(),
            &mut GenScratch::default(),
            SensitiveKind::Quicken,
            10,
            1.0,
        );
        assert_eq!(vfs2.file_count(), 10);
    }

    #[test]
    fn sensitive_filenames_match_their_class() {
        for kind in SensitiveKind::ALL {
            assert!(!kind.filenames().is_empty(), "{kind:?}");
        }
        assert!(SensitiveKind::Pst.filenames().iter().all(|f| f.ends_with(".pst")));
        assert!(SensitiveKind::SshHostKey.filenames().iter().all(|f| f.starts_with("ssh_host_")));
    }

    #[test]
    fn office_backup_is_pst_heavy() {
        let vfs = office_backup(&mut rng(), &mut GenScratch::default());
        let psts = walked(&vfs)
            .iter()
            .filter(|(p, is_dir)| !is_dir && p.ends_with(".pst"))
            .count();
        assert!(psts >= 5);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = nas_media(&mut StdRng::seed_from_u64(3), &mut GenScratch::default(), 100, 20, 5, 10);
        let b = nas_media(&mut StdRng::seed_from_u64(3), &mut GenScratch::default(), 100, 20, 5, 10);
        assert_eq!(a, b);
    }
}
