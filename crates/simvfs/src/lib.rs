//! A virtual filesystem with UNIX permissions for simulated FTP servers.
//!
//! Every simulated server in the reproduction publishes a [`Vfs`]: a tree
//! of directories and files with permission bits, owners, sizes and
//! modification times. File *contents* are deliberately not stored —
//! matching the paper's ethics stance of not bulk-downloading files — but
//! each file can carry a small optional `content` used where the paper
//! did download or upload specific artifacts (write probes, the
//! `ftpchk3` stages, `robots.txt`).
//!
//! The metadata here is exactly what directory listings expose: the
//! enumerator reconstructs its view of a server from rendered listings,
//! never from this structure directly, so the measurement pipeline is
//! honest about what a real client could observe.
//!
//! # Arena representation
//!
//! Internally the tree is *not* a pointer structure: nodes live in a
//! single slab of 24-byte nodes indexed by `u32`, and names and mtimes
//! are interned into a shared string arena (photo mtimes repeat across
//! thousands of files). A node holds a file's size or a directory's
//! index, its name and mtime ids, owner, permissions and kind; what
//! only some nodes need lives beside the slab. Directory `d`'s children
//! are a `Vec<u32>` of slot indices, `children[d]`, kept **sorted by
//! name bytes**, and the rare file contents sit in a map keyed by slot.
//! Files are most of a generated tree, so they pay for no child list,
//! and dropping a tree frees the slab and one `Vec` per directory
//! without visiting each node. The sort order is what the previous
//! `BTreeMap<String, Node>` representation iterated in, so
//! [`Vfs::list`] and [`Vfs::walk`] produce byte-identical orderings —
//! the rendered `LIST` bodies the whole study pipeline hashes against
//! do not change. Inserting a file allocates only when an arena grows
//! (amortized ~0 per file) instead of one owned `String` key plus tree
//! nodes per path segment.
//!
//! Generated trees insert most names in ascending order and give long
//! runs of files one mtime, so the insert paths compare a name with the
//! directory's last child before binary-searching, and a one-entry
//! cache skips re-interning a repeated mtime. Lookups search as usual.
//!
//! Inserts take, and lookups return, borrowed views ([`FileAttrs`],
//! [`NodeRef`], [`DirRef`]) rather than owned nodes: plain `Copy`
//! structs whose string fields borrow from the caller or the arena,
//! mirroring the enumerator's columnar `FileTable`.
//!
//! # Example
//!
//! ```
//! use simvfs::{FileAttrs, Vfs};
//!
//! let mut vfs = Vfs::new();
//! vfs.mkdir_p("/pub/photos")?;
//! vfs.add_file("/pub/photos/DSC_0001.JPG", FileAttrs::public(2_400_000))?;
//! assert_eq!(vfs.list("/pub/photos")?.len(), 1);
//! assert_eq!(vfs.file_count(), 1);
//! # Ok::<(), simvfs::VfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

use ftp_proto::listing::Permissions;
use ftp_proto::FtpPath;
use std::collections::BTreeMap;
use std::fmt;

mod scratch;
pub use scratch::PathScratch;

/// Who owns a node — rendered as the owner column of UNIX listings and
/// used by upload-approval quirks (Pure-FTPd refuses to serve files still
/// owned by [`Owner::Anonymous`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Owner {
    /// `root`.
    Root,
    /// The FTP service account, `ftp`.
    #[default]
    Ftp,
    /// An anonymous upload not yet approved by the administrator.
    Anonymous,
    /// A local user account (uid rendered as `user<N>`).
    User(u16),
}

impl serde::Serialize for Owner {}
impl serde::Deserialize for Owner {}

impl Owner {
    /// The account name a listing's owner column shows: a static string,
    /// except for [`Owner::User`], whose `user<N>` is formatted into
    /// `scratch` (so only that variant writes anything).
    pub fn name(self, scratch: &mut String) -> &str {
        use fmt::Write as _;
        match self {
            Owner::Root => "root",
            Owner::Ftp | Owner::Anonymous => "ftp",
            Owner::User(n) => {
                scratch.clear();
                let _ = write!(scratch, "user{n}");
                scratch
            }
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name(&mut String::new()))
    }
}

/// The mtime a file or directory gets when none is given.
const DEFAULT_MTIME: &str = "Jun 18  2015";

/// A file's listing-visible attributes, borrowed: what inserts take
/// ([`Vfs::add_file`], [`Vfs::add_file_in`], [`Vfs::store_unique`]) and
/// what reads return ([`Vfs::file`], [`NodeRef::File`]). The string
/// fields borrow from the caller on insert (worldgen renders mtimes
/// into a reused scratch buffer, so materializing a file costs no owned
/// `String`s) and from the tree's arena on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttrs<'a> {
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub perms: Permissions,
    /// Owner account.
    pub owner: Owner,
    /// Modification time as rendered in listings (`"Jun 18  2015"`).
    pub mtime: &'a str,
    /// Optional small content (write probes, scripts, robots.txt).
    pub content: Option<&'a str>,
}

impl<'a> FileAttrs<'a> {
    /// A world-readable (`0644`) file of the given size, owned by `ftp`
    /// and dated `Jun 18  2015`.
    pub fn public(size: u64) -> Self {
        FileAttrs {
            size,
            perms: Permissions::public_file(),
            owner: Owner::Ftp,
            mtime: DEFAULT_MTIME,
            content: None,
        }
    }

    /// An owner-only (`0600`) file of the given size.
    pub fn private(size: u64) -> Self {
        FileAttrs { perms: Permissions::private_file(), ..FileAttrs::public(size) }
    }

    /// Builder-style: replaces the content (and size, to match).
    pub fn with_content(self, content: &'a str) -> Self {
        FileAttrs { size: content.len() as u64, content: Some(content), ..self }
    }

    /// Builder-style: replaces the owner.
    pub fn with_owner(self, owner: Owner) -> Self {
        FileAttrs { owner, ..self }
    }

    /// Builder-style: replaces the mtime text.
    pub fn with_mtime(self, mtime: &'a str) -> Self {
        FileAttrs { mtime, ..self }
    }
}

/// Errors from [`Vfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VfsError {
    /// The path (or one of its parents) does not exist.
    NotFound {
        /// The missing path.
        path: String,
    },
    /// A file exists where a directory is required (or vice versa).
    NotADirectory {
        /// The conflicting path.
        path: String,
    },
    /// Target name already exists.
    AlreadyExists {
        /// The conflicting path.
        path: String,
    },
    /// The path string itself is malformed.
    BadPath {
        /// The malformed input.
        path: String,
    },
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound { path } => write!(f, "no such file or directory: {path}"),
            VfsError::NotADirectory { path } => write!(f, "not a directory: {path}"),
            VfsError::AlreadyExists { path } => write!(f, "already exists: {path}"),
            VfsError::BadPath { path } => write!(f, "malformed path: {path}"),
        }
    }
}

impl std::error::Error for VfsError {}

// ---------------------------------------------------------------------
// Interner: the shared name/mtime arena.
// ---------------------------------------------------------------------

/// Id of an interned string (index into [`Interner::spans`]).
type StrId = u32;

/// Append-only string arena with open-addressing dedup. All node names
/// and mtimes live here; repeated strings (mtimes, `index.html`, …)
/// cost nothing after their first appearance, and unique strings cost
/// only amortized arena growth — never a per-string allocation.
#[derive(Debug, Clone, Default)]
struct Interner {
    /// Every interned string, concatenated.
    buf: String,
    /// `id -> (offset, len)` into `buf`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of `StrId`s (power-of-two capacity,
    /// `EMPTY` marks free slots). Rebuilt on growth; never tombstoned —
    /// the arena is append-only.
    table: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

/// Multiplicative hash over 8-byte words (the tail zero-padded). The
/// multiply carries every input bit into the high half, so the table
/// index is taken from the top bits ([`Interner::slot`]).
fn word_hash(s: &str) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (s.len() as u64).wrapping_mul(K);
    let mut words = s.as_bytes().chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = (h.rotate_left(23) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    }
    h
}

impl Interner {
    fn get(&self, id: StrId) -> &str {
        let (off, len) = self.spans[id as usize];
        &self.buf[off as usize..(off + len) as usize]
    }

    /// [`Self::get`] as bytes: name comparisons need no char-boundary
    /// checks, and byte order is `str` order.
    fn bytes_of(&self, id: StrId) -> &[u8] {
        let (off, len) = self.spans[id as usize];
        &self.buf.as_bytes()[off as usize..(off + len) as usize]
    }

    /// Total bytes held by the arena (unique strings only).
    fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// Home slot of hash `h` in a table of `len` (a power of two) slots.
    fn slot(h: u64, len: usize) -> usize {
        (h >> (64 - len.trailing_zeros())) as usize
    }

    fn intern(&mut self, s: &str) -> StrId {
        if self.table.is_empty() {
            self.table = vec![EMPTY; 16];
        }
        let mask = self.table.len() - 1;
        let mut ix = Self::slot(word_hash(s), self.table.len());
        loop {
            match self.table[ix] {
                EMPTY => break,
                id if self.bytes_of(id) == s.as_bytes() => return id,
                _ => ix = (ix + 1) & mask,
            }
        }
        let id = self.spans.len() as u32;
        let off = self.buf.len() as u32;
        self.buf.push_str(s);
        self.spans.push((off, s.len() as u32));
        if obs::enabled() {
            obs::counter(obs::Counter::VfsInternedBytes, s.len() as u64);
        }
        self.table[ix] = id;
        // Keep load factor under 1/2.
        if self.spans.len() * 2 > self.table.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let mut table = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for id in 0..self.spans.len() as u32 {
            let mut ix = Self::slot(word_hash(self.get(id)), new_cap);
            while table[ix] != EMPTY {
                ix = (ix + 1) & mask;
            }
            table[ix] = id;
        }
        self.table = table;
    }
}

// ---------------------------------------------------------------------
// Node slab.
// ---------------------------------------------------------------------

/// Index of a node slot in the arena. Returned by write operations that
/// used to return owned paths ([`Vfs::store_unique`]); resolve it back
/// to text with [`Vfs::path_of`]. Stable until the node is removed or
/// renamed away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

/// Handle to a directory node from [`Vfs::dir_handle`], for bulk
/// insertion with [`Vfs::add_file_in`]. Valid for the `Vfs`'s lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirId(u32);

const ROOT: u32 = 0;

/// What a node is. Only `FileWithContent` nodes have an entry in
/// `Vfs::contents`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    File,
    FileWithContent,
    Dir,
}

/// One node of the slab: its listing-visible attributes, with `val`
/// holding a file's size or a directory's index into `Vfs::children`.
#[derive(Debug, Clone, Copy)]
struct Node {
    val: u64,
    /// Interned name (the root's is the empty string).
    name: StrId,
    /// Interned mtime text.
    mtime: StrId,
    owner: Owner,
    perms: Permissions,
    kind: Kind,
}

const _: () = assert!(std::mem::size_of::<Node>() <= 24);

impl Node {
    fn is_dir(self) -> bool {
        self.kind == Kind::Dir
    }
}

/// Bytes a [`Vfs`] stores, by structure: lengths, not capacities, so
/// growth slack is left out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The node slab.
    pub slab: usize,
    /// The per-directory child lists, their headers included.
    pub children: usize,
    /// The name/mtime intern arena, its span and hash tables included.
    pub interner: usize,
}

// ---------------------------------------------------------------------
// Borrowed views.
// ---------------------------------------------------------------------

/// Borrowed view of a directory node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirRef<'v> {
    /// Permission bits (other-read governs anonymous LIST).
    pub perms: Permissions,
    /// Owner account.
    pub owner: Owner,
    /// Modification time as rendered in listings.
    pub mtime: &'v str,
    /// Number of children.
    pub len: usize,
}

/// Borrowed view of any node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeRef<'v> {
    /// A regular file.
    File(FileAttrs<'v>),
    /// A directory.
    Dir(DirRef<'v>),
}

impl NodeRef<'_> {
    /// True for directory nodes.
    pub fn is_dir(&self) -> bool {
        matches!(self, NodeRef::Dir(_))
    }
}

/// Mutable access to a file's listing-visible attributes (from
/// [`Vfs::file_mut`]). Mtime and content are append-only arena data and
/// stay immutable; nothing in the pipeline rewrites them in place.
#[derive(Debug)]
pub struct FileMut<'v> {
    /// Size in bytes.
    pub size: &'v mut u64,
    /// Permission bits.
    pub perms: &'v mut Permissions,
    /// Owner account.
    pub owner: &'v mut Owner,
}

/// Name-ordered iterator over a directory's children (from
/// [`Vfs::list`]). Items borrow from the tree, not the iterator, so it
/// composes with `collect`/`filter` like any slice iterator.
#[derive(Debug, Clone)]
pub struct DirList<'v> {
    vfs: &'v Vfs,
    children: std::slice::Iter<'v, u32>,
}

impl<'v> Iterator for DirList<'v> {
    type Item = (&'v str, NodeRef<'v>);

    fn next(&mut self) -> Option<Self::Item> {
        let &child = self.children.next()?;
        let node = self.vfs.nodes[child as usize];
        Some((self.vfs.strings.get(node.name), self.vfs.node_ref(child)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.children.size_hint()
    }
}

impl ExactSizeIterator for DirList<'_> {}

/// The virtual filesystem: a tree rooted at `/`, stored as an indexed
/// arena (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Vfs {
    /// Node slab; slot 0 is the root directory. Slots detached by
    /// `remove` simply become unreachable — removal is rare (FTP `DELE`
    /// on simulated hosts) and the slab lives only as long as its host.
    nodes: Vec<Node>,
    /// Child slot indices of each directory (indexed by the directory
    /// node's `val`), sorted by name bytes — the same order the old
    /// `BTreeMap<String, _>` iterated in, so listings are byte-identical.
    children: Vec<Vec<u32>>,
    /// Interned names and mtimes.
    strings: Interner,
    /// File contents (write probes, scripts, robots.txt) by node — rare,
    /// so they live out-of-line from the slab.
    contents: BTreeMap<u32, Box<str>>,
    /// The last file mtime interned: generators give runs of files one
    /// mtime (a deep tree ~7,000 of them), which then skip the hash.
    last_mtime: StrId,
}

// The serde stubs are marker traits (nothing in the workspace
// serializes); a real serializer would need a path-walk representation
// for the arena anyway, so these stay manual rather than derived.
impl serde::Serialize for Vfs {}
impl serde::Deserialize for Vfs {}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

/// Equality compares tree *content* only: two filesystems with the same
/// nodes are equal regardless of how many mutations produced them or
/// how their arenas are laid out.
impl PartialEq for Vfs {
    fn eq(&self, other: &Self) -> bool {
        fn dir_eq(a: &Vfs, an: u32, b: &Vfs, bn: u32) -> bool {
            let (da, db) = (a.nodes[an as usize], b.nodes[bn as usize]);
            if !da.is_dir()
                || !db.is_dir()
                || a.children(an).len() != b.children(bn).len()
                || da.perms != db.perms
                || da.owner != db.owner
                || a.strings.get(da.mtime) != b.strings.get(db.mtime)
            {
                return false;
            }
            a.children(an).iter().zip(b.children(bn)).all(|(&ca, &cb)| {
                let (sa, sb) = (a.nodes[ca as usize], b.nodes[cb as usize]);
                if a.strings.get(sa.name) != b.strings.get(sb.name) {
                    return false;
                }
                match (sa.is_dir(), sb.is_dir()) {
                    (false, false) => {
                        sa.val == sb.val
                            && sa.perms == sb.perms
                            && sa.owner == sb.owner
                            && a.strings.get(sa.mtime) == b.strings.get(sb.mtime)
                            && a.content_of(ca) == b.content_of(cb)
                    }
                    (true, true) => dir_eq(a, ca, b, cb),
                    _ => false,
                }
            })
        }
        dir_eq(self, ROOT, other, ROOT)
    }
}
impl Eq for Vfs {}

impl Vfs {
    /// An empty filesystem containing only `/`.
    pub fn new() -> Self {
        let mut strings = Interner::default();
        let root_name = strings.intern("");
        let default_mtime = strings.intern(DEFAULT_MTIME);
        let root = Node {
            val: 0,
            name: root_name,
            mtime: default_mtime,
            owner: Owner::Ftp,
            perms: Permissions::public_dir(),
            kind: Kind::Dir,
        };
        Vfs {
            nodes: vec![root],
            children: vec![Vec::new()],
            strings,
            contents: BTreeMap::new(),
            last_mtime: default_mtime,
        }
    }

    /// Node slots ever created (the root included; detached slots too —
    /// this measures arena footprint, not live-tree size).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes held by the name/mtime intern arena.
    pub fn interned_bytes(&self) -> usize {
        self.strings.bytes()
    }

    /// Bytes the tree stores, by structure.
    pub fn footprint(&self) -> Footprint {
        let child_ids: usize = self.children.iter().map(Vec::len).sum();
        Footprint {
            slab: self.nodes.len() * std::mem::size_of::<Node>(),
            children: self.children.len() * std::mem::size_of::<Vec<u32>>()
                + child_ids * std::mem::size_of::<u32>(),
            interner: self.strings.buf.len()
                + self.strings.spans.len() * std::mem::size_of::<(u32, u32)>()
                + self.strings.table.len() * std::mem::size_of::<u32>(),
        }
    }

    fn canon(path: &str) -> Result<FtpPath, VfsError> {
        path.parse().map_err(|_| VfsError::BadPath { path: path.to_owned() })
    }

    /// True if `path` is already in the canonical form [`canon`] would
    /// produce, so lookups can walk its segments without allocating a
    /// parsed path first. Control bytes disqualify (they must surface as
    /// [`VfsError::BadPath`] through the slow path).
    fn is_canonical(path: &str) -> bool {
        path == "/"
            || (path.len() > 1
                && path.starts_with('/')
                && !path.ends_with('/')
                && path[1..].split('/').all(|seg| {
                    !seg.is_empty()
                        && seg != "."
                        && seg != ".."
                        && !seg.bytes().any(|b| matches!(b, 0 | b'\r' | b'\n'))
                }))
    }

    fn is_dir_node(&self, ix: u32) -> bool {
        self.nodes[ix as usize].is_dir()
    }

    fn content_of(&self, ix: u32) -> Option<&str> {
        match self.nodes[ix as usize].kind {
            Kind::FileWithContent => Some(&self.contents[&ix]),
            Kind::File | Kind::Dir => None,
        }
    }

    fn node_ref(&self, ix: u32) -> NodeRef<'_> {
        let n = self.nodes[ix as usize];
        let mtime = self.strings.get(n.mtime);
        match n.kind {
            Kind::Dir => NodeRef::Dir(DirRef {
                perms: n.perms,
                owner: n.owner,
                mtime,
                len: self.children[n.val as usize].len(),
            }),
            Kind::File | Kind::FileWithContent => NodeRef::File(FileAttrs {
                size: n.val,
                perms: n.perms,
                owner: n.owner,
                mtime,
                content: self.content_of(ix),
            }),
        }
    }

    /// Index of directory node `dir` into `self.children`.
    fn dir_ix(&self, dir: u32) -> usize {
        let n = self.nodes[dir as usize];
        assert!(n.is_dir(), "children of a file node");
        n.val as usize
    }

    fn children(&self, dir: u32) -> &[u32] {
        &self.children[self.dir_ix(dir)]
    }

    fn children_mut(&mut self, dir: u32) -> &mut Vec<u32> {
        let ix = self.dir_ix(dir);
        &mut self.children[ix]
    }

    fn name_bytes(&self, node: u32) -> &[u8] {
        self.strings.bytes_of(self.nodes[node as usize].name)
    }

    /// Binary search for `name` among `dir`'s children: `Ok(position)`
    /// when present, `Err(insertion position)` when not.
    fn child_pos(&self, dir: u32, name: &str) -> Result<usize, usize> {
        self.children(dir).binary_search_by(|&c| self.name_bytes(c).cmp(name.as_bytes()))
    }

    /// `Ok(child slot)` when `dir` has a child `name`, `Err(insertion
    /// position)` when not.
    fn find_child(&self, dir: u32, name: &str) -> Result<u32, usize> {
        self.child_pos(dir, name).map(|pos| self.children(dir)[pos])
    }

    /// [`Self::find_child`] for the insert paths. Generators mostly add
    /// names in ascending order, so the last child is compared first:
    /// an append, or a repeat of the last name, skips the search.
    fn find_child_for_insert(&self, dir: u32, name: &str) -> Result<u32, usize> {
        let children = self.children(dir);
        let Some(&last) = children.last() else { return Err(0) };
        match self.name_bytes(last).cmp(name.as_bytes()) {
            std::cmp::Ordering::Less => Err(children.len()),
            std::cmp::Ordering::Equal => Ok(last),
            std::cmp::Ordering::Greater => self.find_child(dir, name),
        }
    }

    /// Walks canonical `path` segments from the root; `Ok(slot)` or the
    /// error the legacy tree produced for the same shape.
    fn resolve_canonical(&self, path: &str) -> Result<u32, VfsError> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|s| !s.is_empty()) {
            if !self.is_dir_node(cur) {
                return Err(VfsError::NotADirectory { path: path.to_owned() });
            }
            cur = self
                .find_child(cur, comp)
                .map_err(|_| VfsError::NotFound { path: path.to_owned() })?;
        }
        Ok(cur)
    }

    fn resolve(&self, path: &str) -> Result<u32, VfsError> {
        if Self::is_canonical(path) {
            return self.resolve_canonical(path);
        }
        let p = Self::canon(path)?;
        self.resolve_canonical(p.as_str())
    }

    /// Allocates a slot for `node`, named `name`, and links it into
    /// `dir`'s children at `pos` (from a failed
    /// [`Self::find_child_for_insert`] for `name`).
    fn insert_child(&mut self, dir: u32, pos: usize, name: &str, node: Node) -> u32 {
        let name = self.strings.intern(name);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { name, ..node });
        if obs::enabled() {
            obs::counter(obs::Counter::VfsNodes, 1);
        }
        self.children_mut(dir).insert(pos, id);
        id
    }

    /// A new, empty directory node (its name is set on insertion).
    fn new_dir_node(&mut self) -> Node {
        self.children.push(Vec::new());
        Node {
            val: (self.children.len() - 1) as u64,
            name: 0,
            mtime: self.strings.intern(DEFAULT_MTIME),
            owner: Owner::Ftp,
            perms: Permissions::public_dir(),
            kind: Kind::Dir,
        }
    }

    /// A file node for `attrs` (its name is set on insertion, its
    /// content by [`Self::set_content`] once it has a slot).
    fn file_node(&mut self, attrs: FileAttrs<'_>) -> Node {
        if self.strings.bytes_of(self.last_mtime) != attrs.mtime.as_bytes() {
            self.last_mtime = self.strings.intern(attrs.mtime);
        }
        Node {
            val: attrs.size,
            name: 0,
            mtime: self.last_mtime,
            owner: attrs.owner,
            perms: attrs.perms,
            kind: if attrs.content.is_some() { Kind::FileWithContent } else { Kind::File },
        }
    }

    /// Stores (or drops) the content of file slot `ix`.
    fn set_content(&mut self, ix: u32, content: Option<&str>) {
        match content {
            Some(c) => {
                self.contents.insert(ix, c.into());
            }
            None => {
                self.contents.remove(&ix);
            }
        }
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if any component is missing,
    /// [`VfsError::NotADirectory`] if a file appears mid-path.
    pub fn node(&self, path: &str) -> Result<NodeRef<'_>, VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        self.resolve(path).map(|ix| self.node_ref(ix))
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.node(path).is_ok()
    }

    /// True if `path` exists and is a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        matches!(self.node(path), Ok(NodeRef::Dir(_)))
    }

    /// Creates a directory and all missing parents (like `mkdir -p`).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if a file blocks the path.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if Self::is_canonical(path) {
            return self.mkdir_p_canonical(path);
        }
        let p = Self::canon(path)?;
        self.mkdir_p_canonical(p.as_str())
    }

    fn mkdir_p_canonical(&mut self, path: &str) -> Result<(), VfsError> {
        self.descend_creating(path)?;
        Ok(())
    }

    /// Walks canonical `path`, creating missing directories, and returns
    /// the final slot (a directory).
    fn descend_creating(&mut self, path: &str) -> Result<u32, VfsError> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|s| !s.is_empty()) {
            if !self.is_dir_node(cur) {
                return Err(VfsError::NotADirectory { path: path.to_owned() });
            }
            cur = match self.find_child_for_insert(cur, comp) {
                Ok(child) => {
                    if !self.is_dir_node(child) {
                        return Err(VfsError::NotADirectory { path: path.to_owned() });
                    }
                    child
                }
                Err(pos) => {
                    let node = self.new_dir_node();
                    self.insert_child(cur, pos, comp, node)
                }
            };
        }
        Ok(cur)
    }

    /// Creates a directory whose parent must already exist (FTP `MKD`).
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the name is taken;
    /// [`VfsError::NotFound`]/[`VfsError::NotADirectory`] for bad parents.
    pub fn mkdir(&mut self, path: &str) -> Result<(), VfsError> {
        let p = Self::canon(path)?;
        let Some(name) = p.file_name() else {
            return Err(VfsError::BadPath { path: path.to_owned() });
        };
        let parent = self.resolve(p.parent().as_str())?;
        if !self.is_dir_node(parent) {
            return Err(VfsError::NotADirectory { path: path.to_owned() });
        }
        match self.find_child(parent, name) {
            Ok(_) => Err(VfsError::AlreadyExists { path: path.to_owned() }),
            Err(pos) => {
                let name = name.to_owned();
                let node = self.new_dir_node();
                self.insert_child(parent, pos, &name, node);
                Ok(())
            }
        }
    }

    /// Adds a file, creating parent directories as needed. Overwrites an
    /// existing file at the same path. One descent creates missing
    /// parents and places the file; nothing is allocated beyond
    /// amortized arena growth.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if the target is an existing directory
    /// or a file blocks a parent component.
    pub fn add_file(&mut self, path: &str, attrs: FileAttrs<'_>) -> Result<(), VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        let mut owned = None;
        let (path, parent, name) = self.file_parent(path, &mut owned)?;
        if self.put_file(parent, name, attrs) {
            Ok(())
        } else {
            Err(VfsError::NotADirectory { path: path.to_owned() })
        }
    }

    /// Descends to `path` once (creating missing directories, like
    /// [`Vfs::mkdir_p`]) and returns a handle for direct insertion via
    /// [`Vfs::add_file_in`]. The worldgen bulk path: generators place
    /// dozens to thousands of files per directory, and the handle
    /// replaces a full root-to-leaf descent per file with one descent
    /// per directory.
    ///
    /// The handle stays valid for the `Vfs`'s lifetime (nodes are never
    /// removed), but points at whatever the directory becomes.
    ///
    /// # Errors
    ///
    /// As [`Vfs::mkdir_p`]: a file blocking a component or a malformed
    /// path.
    pub fn dir_handle(&mut self, path: &str) -> Result<DirId, VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if Self::is_canonical(path) {
            return self.descend_creating(path).map(DirId);
        }
        let p = Self::canon(path)?;
        self.descend_creating(p.as_str()).map(DirId)
    }

    /// Adds (or overwrites) the file `name` directly inside the
    /// directory `dir` — [`Vfs::add_file`] without the per-file path
    /// render and descent. `name` is a single component: no `/`.
    ///
    /// # Errors
    ///
    /// [`VfsError::BadPath`] for an empty/`.`/`..`/separator-bearing
    /// name, [`VfsError::NotADirectory`] when a directory named `name`
    /// already exists.
    pub fn add_file_in(
        &mut self,
        dir: DirId,
        name: &str,
        attrs: FileAttrs<'_>,
    ) -> Result<(), VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        if name.is_empty()
            || name == "."
            || name == ".."
            || name.bytes().any(|b| matches!(b, 0 | b'\r' | b'\n' | b'/'))
        {
            return Err(VfsError::BadPath { path: name.to_owned() });
        }
        if self.put_file(dir.0, name, attrs) {
            Ok(())
        } else {
            Err(VfsError::NotADirectory { path: name.to_owned() })
        }
    }

    /// Places the file `name` in directory `dir`, overwriting a file of
    /// that name. `false` (and nothing placed) when a directory holds
    /// the name.
    fn put_file(&mut self, dir: u32, name: &str, attrs: FileAttrs<'_>) -> bool {
        let file = self.file_node(attrs);
        let child = match self.find_child_for_insert(dir, name) {
            Ok(child) if self.is_dir_node(child) => return false,
            Ok(child) => {
                let slot = &mut self.nodes[child as usize];
                *slot = Node { name: slot.name, ..file };
                child
            }
            Err(pos) => self.insert_child(dir, pos, name, file),
        };
        self.set_content(child, attrs.content);
        true
    }

    /// Canonicalizes a file `path` (into `owned` only when it is not
    /// canonical already) and returns it with its parent directory,
    /// created as needed, and its final name.
    fn file_parent<'p>(
        &mut self,
        path: &'p str,
        owned: &'p mut Option<FtpPath>,
    ) -> Result<(&'p str, u32, &'p str), VfsError> {
        let path = if Self::is_canonical(path) {
            path
        } else {
            let p = owned.insert(Self::canon(path)?);
            if p.file_name().is_none() {
                return Err(VfsError::BadPath { path: path.to_owned() });
            }
            p.as_str()
        };
        if path == "/" {
            return Err(VfsError::BadPath { path: path.to_owned() });
        }
        let (parent_path, name) = match path.rfind('/') {
            Some(0) => ("/", &path[1..]),
            Some(ix) => (&path[..ix], &path[ix + 1..]),
            None => return Err(VfsError::BadPath { path: path.to_owned() }),
        };
        let parent = self.descend_creating(parent_path).map_err(|e| match e {
            // Blocked parents are reported against the full target path.
            VfsError::NotADirectory { .. } => VfsError::NotADirectory { path: path.to_owned() },
            other => other,
        })?;
        Ok((path, parent, name))
    }

    /// Stores an upload with the *unique-suffix* quirk: if `name` exists,
    /// the stored file becomes `name.1`, then `name.2`, … (the behavior
    /// §VI-A uses as a world-writable indicator). Returns the stored
    /// node's id; render it with [`Vfs::path_of`] when the text is
    /// needed. `Copy` attrs make repeat stores of the same upload free.
    ///
    /// # Errors
    ///
    /// As [`Vfs::add_file`], for a malformed path or a blocked parent.
    pub fn store_unique(&mut self, path: &str, attrs: FileAttrs<'_>) -> Result<NodeId, VfsError> {
        use fmt::Write as _;
        let mut owned = None;
        let (_, parent, name) = self.file_parent(path, &mut owned)?;
        let place = |vfs: &mut Vfs, pos: usize, name: &str| {
            let file = vfs.file_node(attrs);
            let id = vfs.insert_child(parent, pos, name, file);
            vfs.set_content(id, attrs.content);
            NodeId(id)
        };
        if let Err(pos) = self.find_child_for_insert(parent, name) {
            return Ok(place(self, pos, name));
        }
        // Candidate names are probed inside the already-resolved parent:
        // one suffix scratch reused across candidates, no re-descent.
        let mut candidate = String::with_capacity(name.len() + 4);
        for n in 1u32.. {
            candidate.clear();
            let _ = write!(candidate, "{name}.{n}");
            if let Err(pos) = self.find_child_for_insert(parent, &candidate) {
                return Ok(place(self, pos, &candidate));
            }
        }
        unreachable!("u32 suffix space exhausted")
    }

    /// Renders the absolute path of a node returned by
    /// [`Vfs::store_unique`]. Walks parent links by searching from the
    /// root — this is a test/diagnostic affordance, not a hot path.
    pub fn path_of(&self, id: NodeId) -> String {
        fn rec(vfs: &Vfs, cur: u32, target: u32, out: &mut String) -> bool {
            if cur == target {
                return true;
            }
            if vfs.is_dir_node(cur) {
                for &c in vfs.children(cur) {
                    out.push('/');
                    out.push_str(vfs.strings.get(vfs.nodes[c as usize].name));
                    if rec(vfs, c, target, out) {
                        return true;
                    }
                    out.truncate(out.rfind('/').unwrap_or(0));
                }
            }
            false
        }
        let mut out = String::new();
        if !rec(self, ROOT, id.0, &mut out) {
            out.clear();
        }
        if out.is_empty() {
            out.push('/');
        }
        out
    }

    /// Removes a file or (recursively) a directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if absent; [`VfsError::BadPath`] for `/`.
    pub fn remove(&mut self, path: &str) -> Result<(), VfsError> {
        let p = Self::canon(path)?;
        let Some(name) = p.file_name() else {
            return Err(VfsError::BadPath { path: path.to_owned() });
        };
        let parent = self.resolve(p.parent().as_str())?;
        if !self.is_dir_node(parent) {
            return Err(VfsError::NotADirectory { path: path.to_owned() });
        }
        match self.detach_child(parent, name) {
            // The subtree's slots become unreachable garbage in the
            // slab; nothing frees them (removal is rare and the slab
            // dies with its host). The gauge makes that leak visible.
            Some(node) => {
                if obs::enabled() {
                    obs::counter(obs::Counter::VfsDeadNodes, self.subtree_slots(node));
                }
                Ok(())
            }
            None => Err(VfsError::NotFound { path: path.to_owned() }),
        }
    }

    /// Slab slots in the subtree rooted at `node`, including `node`.
    fn subtree_slots(&self, node: u32) -> u64 {
        let mut stack = vec![node];
        let mut n = 0u64;
        while let Some(ix) = stack.pop() {
            n += 1;
            if self.is_dir_node(ix) {
                stack.extend_from_slice(self.children(ix));
            }
        }
        n
    }

    /// Renames `from` to `to` (FTP `RNFR`/`RNTO`). The subtree keeps its
    /// slots; only the parent links and the node's name change. Missing
    /// parents of `to` are created. The whole target is checked before
    /// `from` is unlinked, so a rename that fails changes nothing.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if `from` is missing,
    /// [`VfsError::AlreadyExists`] if `to` is taken,
    /// [`VfsError::NotADirectory`] if a file blocks `to`'s parent, and
    /// [`VfsError::BadPath`] for a malformed path, `/`, or a `to` inside
    /// `from`.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), VfsError> {
        if self.exists(to) {
            return Err(VfsError::AlreadyExists { path: to.to_owned() });
        }
        let pf = Self::canon(from)?;
        let Some(name) = pf.file_name() else {
            return Err(VfsError::BadPath { path: from.to_owned() });
        };
        let pt = Self::canon(to)?;
        let Some(to_name) = pt.file_name() else {
            return Err(VfsError::BadPath { path: to.to_owned() });
        };
        // A directory cannot move into its own subtree.
        if pt.as_str().strip_prefix(pf.as_str()).is_some_and(|rest| rest.starts_with('/')) {
            return Err(VfsError::BadPath { path: to.to_owned() });
        }
        let parent = self.resolve(pf.parent().as_str())?;
        if !self.is_dir_node(parent) {
            return Err(VfsError::NotADirectory { path: from.to_owned() });
        }
        if self.descent_blocked(pt.parent().as_str()) {
            return Err(VfsError::NotADirectory { path: to.to_owned() });
        }
        let node = self
            .detach_child(parent, name)
            .ok_or_else(|| VfsError::NotFound { path: from.to_owned() })?;
        // `to` lies outside `from`, so unlinking `from` left the target
        // path exactly as checked: the descent succeeds and `to` is free.
        let new_parent =
            self.descend_creating(pt.parent().as_str()).expect("target parent checked above");
        self.nodes[node as usize].name = self.strings.intern(to_name);
        let Err(pos) = self.child_pos(new_parent, to_name) else {
            unreachable!("`to` was checked absent");
        };
        self.children_mut(new_parent).insert(pos, node);
        Ok(())
    }

    /// True if [`Self::descend_creating`] would fail on canonical `path`:
    /// a file stands where one of its directories must be. Creates
    /// nothing.
    fn descent_blocked(&self, path: &str) -> bool {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|s| !s.is_empty()) {
            match self.find_child(cur, comp) {
                Ok(child) if self.is_dir_node(child) => cur = child,
                Ok(_) => return true,
                // Everything from here down would be created.
                Err(_) => return false,
            }
        }
        false
    }

    /// Unlinks `name` from `dir`'s child list, returning its slot.
    fn detach_child(&mut self, dir: u32, name: &str) -> Option<u32> {
        let pos = self.child_pos(dir, name).ok()?;
        Some(self.children_mut(dir).remove(pos))
    }

    /// Lists a directory's children as `(name, node)` pairs in name
    /// order.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::NotADirectory`].
    pub fn list(&self, path: &str) -> Result<DirList<'_>, VfsError> {
        if obs::enabled() {
            obs::counter(obs::Counter::VfsOps, 1);
        }
        let ix = self.resolve(path)?;
        if !self.is_dir_node(ix) {
            return Err(VfsError::NotADirectory { path: path.to_owned() });
        }
        Ok(DirList { vfs: self, children: self.children(ix).iter() })
    }

    /// File metadata at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if absent or a directory.
    pub fn file(&self, path: &str) -> Result<FileAttrs<'_>, VfsError> {
        match self.node(path)? {
            NodeRef::File(f) => Ok(f),
            NodeRef::Dir(_) => Err(VfsError::NotFound { path: path.to_owned() }),
        }
    }

    /// Mutable file metadata at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if absent or a directory.
    pub fn file_mut(&mut self, path: &str) -> Result<FileMut<'_>, VfsError> {
        let ix = self.resolve(path)?;
        let node = &mut self.nodes[ix as usize];
        if node.is_dir() {
            return Err(VfsError::NotFound { path: path.to_owned() });
        }
        Ok(FileMut { size: &mut node.val, perms: &mut node.perms, owner: &mut node.owner })
    }

    /// Total number of files in the (live) tree.
    pub fn file_count(&self) -> usize {
        fn rec(vfs: &Vfs, ix: u32) -> usize {
            if vfs.is_dir_node(ix) {
                vfs.children(ix).iter().map(|&c| rec(vfs, c)).sum()
            } else {
                1
            }
        }
        rec(self, ROOT)
    }

    /// Total number of directories (excluding the root).
    pub fn dir_count(&self) -> usize {
        fn rec(vfs: &Vfs, ix: u32) -> usize {
            vfs.children(ix).iter().filter(|&&c| vfs.is_dir_node(c)).map(|&c| 1 + rec(vfs, c)).sum()
        }
        rec(self, ROOT)
    }

    /// Depth-first visit of every node as `(path, node)`, siblings in
    /// name order — the same preorder the old `Vec`-returning walk
    /// produced, minus the per-node `String` materialization: one path
    /// buffer is grown and truncated across the whole traversal.
    pub fn walk(&self, mut f: impl FnMut(&str, NodeRef<'_>)) {
        let mut path = String::new();
        self.walk_rec(ROOT, &mut path, &mut f);
    }

    fn walk_rec(&self, dir: u32, path: &mut String, f: &mut impl FnMut(&str, NodeRef<'_>)) {
        if !self.is_dir_node(dir) {
            return;
        }
        for &child in self.children(dir) {
            let len = path.len();
            path.push('/');
            path.push_str(self.strings.get(self.nodes[child as usize].name));
            f(path, self.node_ref(child));
            self.walk_rec(child, path, f);
            path.truncate(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects `walk`'s visit order for assertions.
    fn walked(v: &Vfs) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        v.walk(|p, n| out.push((p.to_owned(), n.is_dir())));
        out
    }

    #[test]
    fn mkdir_p_and_lookup() {
        let mut v = Vfs::new();
        v.mkdir_p("/a/b/c").unwrap();
        assert!(v.is_dir("/a/b/c"));
        assert!(v.is_dir("/a"));
        assert!(!v.exists("/a/b/c/d"));
        // Idempotent.
        v.mkdir_p("/a/b/c").unwrap();
        assert_eq!(v.dir_count(), 3);
    }

    #[test]
    fn add_and_read_file() {
        let mut v = Vfs::new();
        v.add_file("/pub/readme.txt", FileAttrs::public(42).with_content("hello")).unwrap();
        let f = v.file("/pub/readme.txt").unwrap();
        assert_eq!(f.size, 5); // with_content resizes
        assert_eq!(f.content, Some("hello"));
        assert_eq!(v.file_count(), 1);
    }

    #[test]
    fn file_blocks_directory_path() {
        let mut v = Vfs::new();
        v.add_file("/x", FileAttrs::public(1)).unwrap();
        assert!(matches!(v.mkdir_p("/x/y"), Err(VfsError::NotADirectory { .. })));
        assert!(matches!(v.node("/x/y"), Err(VfsError::NotADirectory { .. })));
    }

    #[test]
    fn mkdir_requires_parent_and_uniqueness() {
        let mut v = Vfs::new();
        assert!(matches!(v.mkdir("/no/parent"), Err(VfsError::NotFound { .. })));
        v.mkdir("/top").unwrap();
        assert!(matches!(v.mkdir("/top"), Err(VfsError::AlreadyExists { .. })));
    }

    #[test]
    fn store_unique_appends_suffixes() {
        let mut v = Vfs::new();
        let a = v.store_unique("/up/probe.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.path_of(a), "/up/probe.txt");
        let b = v.store_unique("/up/probe.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.path_of(b), "/up/probe.txt.1");
        let c = v.store_unique("/up/probe.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.path_of(c), "/up/probe.txt.2");
        assert_eq!(v.file_count(), 3);
    }

    #[test]
    fn remove_file_and_dir() {
        let mut v = Vfs::new();
        v.add_file("/d/f1", FileAttrs::public(1)).unwrap();
        v.add_file("/d/sub/f2", FileAttrs::public(1)).unwrap();
        v.remove("/d/f1").unwrap();
        assert!(!v.exists("/d/f1"));
        v.remove("/d").unwrap(); // recursive
        assert!(!v.exists("/d/sub/f2"));
        assert!(matches!(v.remove("/d"), Err(VfsError::NotFound { .. })));
        assert!(matches!(v.remove("/"), Err(VfsError::BadPath { .. })));
    }

    #[test]
    fn rename_moves_subtree() {
        let mut v = Vfs::new();
        v.add_file("/a/b/file", FileAttrs::public(9)).unwrap();
        v.rename("/a/b", "/c/moved").unwrap();
        assert!(v.exists("/c/moved/file"));
        assert!(!v.exists("/a/b"));
        assert!(matches!(v.rename("/missing", "/x"), Err(VfsError::NotFound { .. })));
        v.add_file("/taken", FileAttrs::public(1)).unwrap();
        assert!(matches!(v.rename("/c", "/taken"), Err(VfsError::AlreadyExists { .. })));
    }

    #[test]
    fn rejected_rename_keeps_the_source() {
        let mut v = Vfs::new();
        v.add_file("/incoming/a.txt", FileAttrs::public(1)).unwrap();
        v.add_file("/incoming/b.txt", FileAttrs::public(2)).unwrap();
        let before = v.clone();
        assert!(matches!(
            v.rename("/incoming/a.txt", "/incoming/b.txt/c"),
            Err(VfsError::NotADirectory { .. })
        ));
        assert!(matches!(v.rename("/incoming/a.txt", "/../x"), Err(VfsError::BadPath { .. })));
        assert!(matches!(v.rename("/incoming", "/incoming/sub/x"), Err(VfsError::BadPath { .. })));
        assert_eq!(v, before, "a failed rename changes nothing");
        assert_eq!(v.file("/incoming/a.txt").unwrap().size, 1);
        // The same source still renames once the target is valid.
        v.rename("/incoming/a.txt", "/incoming/sub/c").unwrap();
        assert_eq!(v.file("/incoming/sub/c").unwrap().size, 1);
    }

    #[test]
    fn inserts_in_any_order_keep_children_sorted() {
        // The insert paths try an append before searching; every order
        // must still produce the one name-sorted tree.
        let names = ["m", "a", "z", "b", "y", "m", "c", "zz", "0"];
        let mut forward = Vfs::new();
        let dir = forward.dir_handle("/d").unwrap();
        for n in names {
            forward.add_file_in(dir, n, FileAttrs::public(1).with_mtime("Jan  1  2014")).unwrap();
        }
        let mut sorted_names = names.to_vec();
        sorted_names.sort_unstable();
        sorted_names.dedup();
        let listed: Vec<&str> = forward.list("/d").unwrap().map(|(n, _)| n).collect();
        assert_eq!(listed, sorted_names);
        let mut reverse = Vfs::new();
        for n in names.iter().rev() {
            reverse
                .add_file(&format!("/d/{n}"), FileAttrs::public(1).with_mtime("Jan  1  2014"))
                .unwrap();
        }
        assert_eq!(forward, reverse);
    }

    #[test]
    fn list_is_name_ordered() {
        let mut v = Vfs::new();
        v.add_file("/d/zeta", FileAttrs::public(1)).unwrap();
        v.add_file("/d/alpha", FileAttrs::public(1)).unwrap();
        v.mkdir_p("/d/beta").unwrap();
        let names: Vec<&str> = v.list("/d").unwrap().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "beta", "zeta"]);
        assert!(matches!(v.list("/d/alpha"), Err(VfsError::NotADirectory { .. })));
    }

    #[test]
    fn walk_visits_everything() {
        let mut v = Vfs::new();
        v.add_file("/a/f1", FileAttrs::public(1)).unwrap();
        v.add_file("/a/b/f2", FileAttrs::public(1)).unwrap();
        let paths: Vec<String> = walked(&v).into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["/a", "/a/b", "/a/b/f2", "/a/f1"]);
    }

    #[test]
    fn counts() {
        let mut v = Vfs::new();
        v.add_file("/a/f1", FileAttrs::public(1)).unwrap();
        v.add_file("/a/b/f2", FileAttrs::public(1)).unwrap();
        v.mkdir_p("/empty/nested").unwrap();
        assert_eq!(v.file_count(), 2);
        assert_eq!(v.dir_count(), 4); // a, a/b, empty, empty/nested
    }

    #[test]
    fn bad_paths_rejected() {
        let mut v = Vfs::new();
        assert!(matches!(v.mkdir_p("/../escape"), Err(VfsError::BadPath { .. })));
        assert!(matches!(v.add_file("/", FileAttrs::public(1)), Err(VfsError::BadPath { .. })));
    }

    #[test]
    fn owner_display() {
        assert_eq!(Owner::Root.to_string(), "root");
        assert_eq!(Owner::Ftp.to_string(), "ftp");
        assert_eq!(Owner::Anonymous.to_string(), "ftp");
        assert_eq!(Owner::User(3).to_string(), "user3");
    }

    #[test]
    fn file_mut_updates_in_place() {
        let mut v = Vfs::new();
        v.add_file("/f", FileAttrs::public(1).with_owner(Owner::Anonymous)).unwrap();
        *v.file_mut("/f").unwrap().owner = Owner::Ftp;
        assert_eq!(v.file("/f").unwrap().owner, Owner::Ftp);
        assert!(v.file_mut("/nope").is_err());
    }

    #[test]
    fn interner_dedups_and_counts_bytes() {
        let mut v = Vfs::new();
        let before = v.interned_bytes();
        v.add_file("/x/a.txt", FileAttrs::public(1)).unwrap();
        let after_first = v.interned_bytes();
        assert!(after_first > before);
        // Same names elsewhere in the tree intern to the same spans.
        v.add_file("/y/a.txt", FileAttrs::public(1)).unwrap();
        assert_eq!(v.interned_bytes(), after_first + 1, "only the new name byte 'y'");
        assert_eq!(v.node_count(), 1 + 4); // root + x, a.txt, y, a.txt
    }

    #[test]
    fn content_equality_ignores_history() {
        let mut a = Vfs::new();
        let mut b = Vfs::new();
        a.add_file("/d/one", FileAttrs::public(1)).unwrap();
        a.add_file("/d/two", FileAttrs::public(2)).unwrap();
        // Same tree, different construction order and extra churn.
        b.add_file("/d/two", FileAttrs::public(2)).unwrap();
        b.add_file("/d/tmp", FileAttrs::public(9)).unwrap();
        b.remove("/d/tmp").unwrap();
        b.add_file("/d/one", FileAttrs::public(1)).unwrap();
        assert_eq!(a, b);
        b.add_file("/d/one", FileAttrs::public(7)).unwrap();
        assert_ne!(a, b);
    }
}
