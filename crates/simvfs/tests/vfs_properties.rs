//! Property-based tests for the virtual filesystem.

use proptest::prelude::*;
use simvfs::{FileAttrs, Vfs};

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 1..5)
        .prop_filter("dot segments canonicalize away", |segs| {
            segs.iter().all(|s| s != "." && s != "..")
        })
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    /// Files added are retrievable; counts track additions.
    #[test]
    fn add_then_lookup(paths in proptest::collection::hash_set(path_strategy(), 1..20)) {
        let mut vfs = Vfs::new();
        let mut added = Vec::new();
        for p in &paths {
            // A path may fail if a previously-added file occupies one of
            // its parent components; that's legal and must error cleanly.
            if vfs.add_file(p, FileAttrs::public(1)).is_ok() {
                added.push(p.clone());
            }
        }
        for p in &added {
            // Unless a later add replaced an ancestor, the file exists.
            if let Ok(meta) = vfs.file(p) {
                prop_assert_eq!(meta.size, 1);
            }
        }
        prop_assert!(vfs.file_count() <= added.len());
        prop_assert!(vfs.file_count() >= 1);
    }

    /// store_unique never overwrites: after N stores of the same name,
    /// N distinct files exist.
    #[test]
    fn store_unique_preserves(n in 1usize..12) {
        let mut vfs = Vfs::new();
        let mut stored = std::collections::HashSet::new();
        for i in 0..n {
            let id = vfs
                .store_unique("/up/probe.txt", FileAttrs::public(i as u64))
                .unwrap();
            let path = vfs.path_of(id);
            prop_assert!(stored.insert(path.clone()), "duplicate {path}");
        }
        prop_assert_eq!(vfs.file_count(), n);
        prop_assert!(vfs.exists("/up/probe.txt"));
    }

    /// walk() visits exactly file_count() files and dir_count() dirs,
    /// in sorted order, and every walked path resolves.
    #[test]
    fn walk_is_complete_and_sorted(paths in proptest::collection::hash_set(path_strategy(), 1..15)) {
        let mut vfs = Vfs::new();
        for p in &paths {
            let _ = vfs.add_file(p, FileAttrs::public(2));
        }
        let mut walked: Vec<(String, bool)> = Vec::new();
        vfs.walk(|p, n| walked.push((p.to_owned(), n.is_dir())));
        let files = walked.iter().filter(|(_, is_dir)| !is_dir).count();
        let dirs = walked.iter().filter(|(_, is_dir)| *is_dir).count();
        prop_assert_eq!(files, vfs.file_count());
        prop_assert_eq!(dirs, vfs.dir_count());
        for (p, _) in &walked {
            prop_assert!(vfs.exists(p), "{p}");
        }
        // Note: DFS over BTreeMaps is *sibling*-sorted, not globally
        // string-sorted (a sibling can be a prefix of another plus a
        // character smaller than '/'), so we assert per-directory order.
        let mut by_parent: std::collections::HashMap<String, Vec<String>> =
            std::collections::HashMap::new();
        for (p, _) in &walked {
            let parent = match p.rfind('/') {
                Some(0) => "/".to_owned(),
                Some(ix) => p[..ix].to_owned(),
                None => "/".to_owned(),
            };
            by_parent.entry(parent).or_default().push(p.clone());
        }
        for siblings in by_parent.values() {
            let mut sorted = siblings.clone();
            sorted.sort();
            prop_assert_eq!(siblings, &sorted, "siblings listed in name order");
        }
    }

    /// rename moves the whole subtree and removes the source.
    #[test]
    fn rename_moves_subtree(leaf in "[a-z]{1,6}") {
        let mut vfs = Vfs::new();
        vfs.add_file(&format!("/src/a/{leaf}"), FileAttrs::public(1)).unwrap();
        vfs.add_file("/src/b", FileAttrs::public(1)).unwrap();
        let before = vfs.file_count();
        vfs.rename("/src", "/dst").unwrap();
        prop_assert_eq!(vfs.file_count(), before);
        let moved = format!("/dst/a/{leaf}");
        prop_assert!(vfs.exists(&moved));
        prop_assert!(vfs.exists("/dst/b"));
        prop_assert!(!vfs.exists("/src"));
    }

    /// remove() deletes exactly the target subtree.
    #[test]
    fn remove_subtree(n in 1usize..8) {
        let mut vfs = Vfs::new();
        for i in 0..n {
            vfs.add_file(&format!("/doomed/f{i}"), FileAttrs::public(1)).unwrap();
        }
        vfs.add_file("/kept/file", FileAttrs::public(1)).unwrap();
        vfs.remove("/doomed").unwrap();
        prop_assert_eq!(vfs.file_count(), 1);
        prop_assert!(vfs.exists("/kept/file"));
    }
}

// ---------------------------------------------------------------------
// Model-based: random operation sequences against a tree of BTreeMaps.
// ---------------------------------------------------------------------

use ftp_proto::listing::Permissions;
use simvfs::{NodeRef, Owner};
use std::collections::BTreeMap;

/// A file as the model holds it: size, mode, owner, mtime, content.
type MFile = (u64, u16, Owner, String, Option<String>);

/// The model: what the tree was before it became an arena, a map per
/// directory. Directories carry no attributes: nothing can change a
/// directory's, so every one has the defaults.
#[derive(Debug, Clone)]
enum M {
    File(MFile),
    Dir(BTreeMap<String, M>),
}

struct Model {
    root: BTreeMap<String, M>,
    /// Nodes ever created, the root excluded: [`Vfs::node_count`] - 1.
    created: usize,
}

impl Model {
    fn get(&self, segs: &[&str]) -> Option<&M> {
        let mut dir = &self.root;
        let (last, parents) = segs.split_last()?;
        for s in parents {
            match dir.get(*s)? {
                M::Dir(d) => dir = d,
                M::File(_) => return None,
            }
        }
        dir.get(*last)
    }

    fn dir(&self, segs: &[&str]) -> Option<&BTreeMap<String, M>> {
        match segs.is_empty() {
            true => Some(&self.root),
            false => match self.get(segs)? {
                M::Dir(d) => Some(d),
                M::File(_) => None,
            },
        }
    }

    fn dir_mut(&mut self, segs: &[&str]) -> Option<&mut BTreeMap<String, M>> {
        let mut dir = &mut self.root;
        for s in segs {
            match dir.get_mut(*s)? {
                M::Dir(d) => dir = d,
                M::File(_) => return None,
            }
        }
        Some(dir)
    }

    /// `mkdir -p`: `None` when a file blocks the path.
    fn descend_creating(&mut self, segs: &[&str]) -> Option<&mut BTreeMap<String, M>> {
        let mut dir = &mut self.root;
        for s in segs {
            if !dir.contains_key(*s) {
                dir.insert((*s).to_owned(), M::Dir(BTreeMap::new()));
                self.created += 1;
            }
            match dir.get_mut(*s)? {
                M::Dir(d) => dir = d,
                M::File(_) => return None,
            }
        }
        Some(dir)
    }

    /// A file would stand where one of `segs`' directories must be.
    fn blocked(&self, segs: &[&str]) -> bool {
        (1..=segs.len()).any(|n| matches!(self.get(&segs[..n]), Some(M::File(_))))
    }

    /// Places a file, as `add_file` does once its parent exists.
    fn put_file(&mut self, parent: &[&str], name: &str, file: MFile) -> bool {
        let Some(dir) = self.descend_creating(parent) else { return false };
        let fresh = match dir.get(name) {
            Some(M::Dir(_)) => return false,
            Some(M::File(_)) => false,
            None => true,
        };
        dir.insert(name.to_owned(), M::File(file));
        self.created += usize::from(fresh);
        true
    }

    /// Every node in walk order: path, and the file or `None` for a
    /// directory.
    fn walk(&self) -> Vec<(String, Option<MFile>)> {
        fn rec(dir: &BTreeMap<String, M>, path: &str, out: &mut Vec<(String, Option<MFile>)>) {
            for (name, node) in dir {
                let p = format!("{path}/{name}");
                match node {
                    M::File(f) => out.push((p, Some(f.clone()))),
                    M::Dir(d) => {
                        out.push((p.clone(), None));
                        rec(d, &p, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        rec(&self.root, "", &mut out);
        out
    }
}

fn model_file(f: simvfs::FileAttrs<'_>) -> MFile {
    (f.size, f.perms.mode(), f.owner, f.mtime.to_owned(), f.content.map(str::to_owned))
}

/// Draws bounded choices from one random word.
struct Bits(u64);

impl Bits {
    fn take(&mut self, n: usize) -> usize {
        let v = self.0 % n as u64;
        self.0 /= n as u64;
        v as usize
    }

    /// Names whose byte order differs from their paths' (`-` and `.`
    /// sort before `/`), so sibling order is exercised.
    fn segs(&mut self, min: usize) -> Vec<&'static str> {
        const NAMES: [&str; 5] = ["a", "b", "a-c", "a.b", "zz"];
        let depth = min + self.take(4 - min);
        (0..depth).map(|_| NAMES[self.take(NAMES.len())]).collect()
    }

    fn attrs(&mut self) -> simvfs::FileAttrs<'static> {
        simvfs::FileAttrs {
            size: [0, 1, 4_096, u64::MAX][self.take(4)],
            perms: Permissions::from_mode([0o644, 0o600, 0o777][self.take(3)]),
            owner: [Owner::Ftp, Owner::Root, Owner::Anonymous, Owner::User(3)][self.take(4)],
            mtime: ["Jun 18  2015", "Jan  1  2014", "Mar  3 12:00"][self.take(3)],
            content: [None, Some("hello"), Some("")][self.take(3)],
        }
    }
}

fn path(segs: &[&str]) -> String {
    if segs.is_empty() {
        "/".to_owned()
    } else {
        format!("/{}", segs.join("/"))
    }
}

/// Applies one operation to both; `Err` names where they disagreed.
fn step(vfs: &mut Vfs, model: &mut Model, op: u64) -> Result<(), String> {
    let mut bits = Bits(op);
    let kind = bits.take(7);
    let segs = bits.segs(1);
    let (name, parent) = segs.split_last().expect("depth >= 1");
    let p = path(&segs);
    let (got, want) = match kind {
        0 => (vfs.mkdir_p(&p).is_ok(), model.descend_creating(&segs).is_some()),
        1 => {
            let attrs = bits.attrs();
            (vfs.add_file(&p, attrs).is_ok(), model.put_file(parent, name, model_file(attrs)))
        }
        2 => {
            let attrs = bits.attrs();
            let got = match vfs.dir_handle(&path(parent)) {
                Ok(dir) => vfs.add_file_in(dir, name, attrs).is_ok(),
                Err(_) => false,
            };
            (got, model.put_file(parent, name, model_file(attrs)))
        }
        3 => {
            let attrs = bits.attrs();
            let got = vfs.store_unique(&p, attrs).map(|id| vfs.path_of(id));
            let want = model.descend_creating(parent).map(|dir| {
                let mut unique = (*name).to_owned();
                let mut n = 0;
                while dir.contains_key(&unique) {
                    n += 1;
                    unique = format!("{name}.{n}");
                }
                dir.insert(unique.clone(), M::File(model_file(attrs)));
                unique
            });
            if want.is_some() {
                model.created += 1;
            }
            let want = want.map(|unique| path(&[parent, &[unique.as_str()]].concat()));
            if got.as_ref().ok() != want.as_ref() {
                return Err(format!("store_unique {p}: {got:?}, model {want:?}"));
            }
            (got.is_ok(), want.is_some())
        }
        4 => {
            let want = model.dir_mut(parent).is_some_and(|d| d.remove(*name).is_some());
            (vfs.remove(&p).is_ok(), want)
        }
        5 => {
            let to = bits.segs(1);
            let (to_name, to_parent) = to.split_last().expect("depth >= 1");
            let inside = to.len() > segs.len() && to[..segs.len()] == segs[..];
            let want = model.get(&to).is_none()
                && !inside
                && model.dir(parent).is_some()
                && !model.blocked(to_parent)
                && match model.dir_mut(parent).and_then(|d| d.remove(*name)) {
                    Some(node) => {
                        let dir = model.descend_creating(to_parent).expect("checked unblocked");
                        dir.insert((*to_name).to_owned(), node);
                        true
                    }
                    None => false,
                };
            (vfs.rename(&p, &path(&to)).is_ok(), want)
        }
        _ => {
            let (size, mode, owner) = (bits.take(1_000) as u64, 0o640, Owner::User(7));
            let got = match vfs.file_mut(&p) {
                Ok(f) => {
                    *f.size = size;
                    *f.perms = Permissions::from_mode(mode);
                    *f.owner = owner;
                    true
                }
                Err(_) => false,
            };
            let want = match model.dir_mut(parent).and_then(|d| d.get_mut(*name)) {
                Some(M::File(f)) => {
                    (f.0, f.1, f.2) = (size, mode, owner);
                    true
                }
                _ => false,
            };
            (got, want)
        }
    };
    if got != want {
        return Err(format!("op {kind} on {p}: vfs ok={got}, model ok={want}"));
    }
    Ok(())
}

/// Everything the tree shows, checked against the model.
fn agree(vfs: &Vfs, model: &Model) -> Result<(), String> {
    let mut walked = Vec::new();
    vfs.walk(|p, n| {
        walked.push((
            p.to_owned(),
            match n {
                NodeRef::File(f) => Some(model_file(f)),
                NodeRef::Dir(_) => None,
            },
        ))
    });
    let want = model.walk();
    if walked != want {
        return Err(format!("walk {walked:?}\nmodel {want:?}"));
    }
    if vfs.node_count() != model.created + 1 {
        return Err(format!("node_count {} != {}", vfs.node_count(), model.created + 1));
    }
    let dirs = std::iter::once("/".to_owned())
        .chain(want.iter().filter(|(_, f)| f.is_none()).map(|(p, _)| p.clone()));
    for dir in dirs {
        let segs: Vec<&str> = dir.split('/').filter(|s| !s.is_empty()).collect();
        let listed: Vec<(String, bool)> = vfs
            .list(&dir)
            .map_err(|e| e.to_string())?
            .map(|(n, node)| (n.to_owned(), node.is_dir()))
            .collect();
        let children = model.dir(&segs).expect("a model directory");
        let expected: Vec<(String, bool)> =
            children.iter().map(|(n, node)| (n.clone(), matches!(node, M::Dir(_)))).collect();
        if listed != expected {
            return Err(format!("list {dir}: {listed:?}, model {expected:?}"));
        }
    }
    for (p, f) in &want {
        if let Some(f) = f {
            let got = vfs.file(p).map(model_file).map_err(|e| e.to_string())?;
            if got != *f {
                return Err(format!("file {p}: {got:?}, model {f:?}"));
            }
        }
    }
    // Equality is content equality: a tree built straight from the
    // model equals the one the operations left, and one byte apart
    // does not.
    let mut fresh = Vfs::new();
    for (p, f) in &want {
        match f {
            None => fresh.mkdir_p(p).map_err(|e| e.to_string())?,
            Some((size, mode, owner, mtime, content)) => {
                let attrs = simvfs::FileAttrs {
                    size: *size,
                    perms: Permissions::from_mode(*mode),
                    owner: *owner,
                    mtime,
                    content: content.as_deref(),
                };
                fresh.add_file(p, attrs).map_err(|e| e.to_string())?;
            }
        }
    }
    if *vfs != fresh || vfs.clone() != *vfs {
        return Err("the tree differs from one built from the model".to_owned());
    }
    if let Some((p, _)) = want.iter().find(|(_, f)| f.is_some()) {
        *fresh.file_mut(p).map_err(|e| e.to_string())?.size ^= 1;
        if *vfs == fresh {
            return Err(format!("a changed size at {p} still compares equal"));
        }
    }
    Ok(())
}

proptest! {
    /// Random sequences of every write operation leave the tree exactly
    /// as the map-per-directory model: the same walk, listings, files,
    /// slot count and equality.
    #[test]
    fn operations_match_a_map_model(ops in proptest::collection::vec(any::<u64>(), 1..60)) {
        let mut vfs = Vfs::new();
        let mut model = Model { root: BTreeMap::new(), created: 0 };
        for op in ops {
            if let Err(e) = step(&mut vfs, &mut model, op).and_then(|()| agree(&vfs, &model)) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}
