//! Fixtures shared by the analysis modules' unit tests.

use enumerator::FileTable;
use ftp_proto::listing::Readability;

/// A file table of `(path, is_dir, readability)` rows, each of size 1
/// with no owner or write bit, built through the enumerator's own
/// insert path ([`FileTable::push_parts`]).
pub(crate) fn files<'a>(rows: impl IntoIterator<Item = (&'a str, bool, Readability)>) -> FileTable {
    let mut table = FileTable::default();
    for (path, is_dir, readability) in rows {
        let (dir, name) = path.rsplit_once('/').expect("absolute path");
        let dir = if dir.is_empty() { "/" } else { dir };
        table.push_parts(dir, name, is_dir, Some(1), readability, None, None);
    }
    table
}
