//! The network-accessible filesystem.
//!
//! Like the paper's setup, checkpoint images and application files live on a
//! file system reachable from every node, so an application checkpointed on
//! one machine can be restarted on any other. The store is a single shared
//! object; each node accesses it through its own handle.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

/// A shared in-memory filesystem.
///
/// Cloning the handle shares the same underlying store (this is the
/// "network" part — every node mounts the same server).
///
/// # Examples
///
/// ```
/// use simos::fs::NetFs;
///
/// let fs = NetFs::new();
/// let node_a = fs.clone();
/// let node_b = fs.clone();
/// node_a.write_file("/ckpt/pod1.img", b"image".to_vec());
/// assert_eq!(node_b.read_file("/ckpt/pod1.img").unwrap(), b"image");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetFs {
    files: Rc<RefCell<BTreeMap<String, Vec<u8>>>>,
}

impl NetFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or truncates a file with `data`.
    pub fn write_file(&self, path: &str, data: Vec<u8>) {
        self.files.borrow_mut().insert(path.to_owned(), data);
    }

    /// Appends to a file, creating it if needed. Returns the new length.
    pub fn append_file(&self, path: &str, data: &[u8]) -> usize {
        let mut files = self.files.borrow_mut();
        let f = files.entry(path.to_owned()).or_default();
        f.extend_from_slice(data);
        f.len()
    }

    /// Reads a whole file.
    pub fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.files.borrow().get(path).cloned()
    }

    /// Runs `f` over a file's bytes in place, without copying them; `None`
    /// if the file does not exist. `f` must not touch this filesystem (the
    /// file table stays borrowed while it runs).
    pub fn with_file<R>(&self, path: &str, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.files.borrow().get(path).map(|d| f(d))
    }

    /// True if the file exists and holds exactly `data` (compared in
    /// place, without copying the file).
    pub fn file_eq(&self, path: &str, data: &[u8]) -> bool {
        self.with_file(path, |d| d == data).unwrap_or(false)
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read_at(&self, path: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        let files = self.files.borrow();
        let f = files.get(path)?;
        let start = (offset as usize).min(f.len());
        let end = (start + len).min(f.len());
        Some(f[start..end].to_vec())
    }

    /// Writes `data` at `offset`, extending the file with zeros if needed.
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) {
        let mut files = self.files.borrow_mut();
        let f = files.entry(path.to_owned()).or_default();
        let end = offset as usize + data.len();
        if f.len() < end {
            f.resize(end, 0);
        }
        f[offset as usize..end].copy_from_slice(data);
    }

    /// File size, if it exists.
    pub fn len_of(&self, path: &str) -> Option<u64> {
        self.files.borrow().get(path).map(|f| f.len() as u64)
    }

    /// True if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    /// Removes a file; returns true if it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.files.borrow_mut().remove(path).is_some()
    }

    /// Lists paths under a prefix, ascending.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        under(&self.files.borrow(), prefix)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Makes the files under `prefix` exactly `src`'s files under
    /// `src_prefix` (matched by the path after the prefix): files `src`
    /// lacks are removed and only files whose bytes differ are written.
    /// Returns true if anything changed. `src` must be another filesystem.
    pub fn mirror(&self, prefix: &str, src: &NetFs, src_prefix: &str) -> bool {
        assert!(
            !Rc::ptr_eq(&self.files, &src.files),
            "mirror source must be another filesystem"
        );
        let src = src.files.borrow();
        // Both ranges ascend by the path after their prefix, so one merge
        // walk pairs them up: `None` marks a removal.
        let mut changes: Vec<(String, Option<&Vec<u8>>)> = Vec::new();
        {
            let dst = self.files.borrow();
            let mut have = under(&dst, prefix)
                .map(|(k, v)| (&k[prefix.len()..], v))
                .peekable();
            let mut want = under(&src, src_prefix)
                .map(|(k, v)| (&k[src_prefix.len()..], v))
                .peekable();
            loop {
                let order = match (have.peek(), want.peek()) {
                    (None, None) => break,
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (Some((h, _)), Some((w, _))) => h.cmp(w),
                };
                match order {
                    Ordering::Less => {
                        let (h, _) = have.next().expect("peeked");
                        changes.push((h.to_owned(), None));
                    }
                    Ordering::Greater => {
                        let (w, data) = want.next().expect("peeked");
                        changes.push((w.to_owned(), Some(data)));
                    }
                    Ordering::Equal => {
                        let (_, old) = have.next().expect("peeked");
                        let (w, data) = want.next().expect("peeked");
                        if old != data {
                            changes.push((w.to_owned(), Some(data)));
                        }
                    }
                }
            }
        }
        let mut dst = self.files.borrow_mut();
        for (rest, data) in &changes {
            let path = format!("{prefix}{rest}");
            match data {
                Some(data) => dst.insert(path, data.to_vec()),
                None => dst.remove(&path),
            };
        }
        !changes.is_empty()
    }
}

/// The entries of `files` whose paths start with `prefix`, ascending: a
/// range walk from the prefix, not a scan of every key.
fn under<'a>(
    files: &'a BTreeMap<String, Vec<u8>>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, &'a Vec<u8>)> {
    files
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_across_clones() {
        let fs = NetFs::new();
        let other = fs.clone();
        fs.write_file("/a", vec![1, 2, 3]);
        assert_eq!(other.read_file("/a"), Some(vec![1, 2, 3]));
        assert!(other.exists("/a"));
    }

    #[test]
    fn positional_io() {
        let fs = NetFs::new();
        fs.write_at("/f", 4, b"xy");
        assert_eq!(fs.read_file("/f").unwrap(), vec![0, 0, 0, 0, b'x', b'y']);
        assert_eq!(fs.read_at("/f", 4, 10).unwrap(), b"xy");
        assert_eq!(fs.read_at("/f", 100, 10).unwrap(), b"");
        assert_eq!(fs.read_at("/missing", 0, 1), None);
    }

    #[test]
    fn append_and_len() {
        let fs = NetFs::new();
        assert_eq!(fs.append_file("/log", b"ab"), 2);
        assert_eq!(fs.append_file("/log", b"cd"), 4);
        assert_eq!(fs.len_of("/log"), Some(4));
    }

    #[test]
    fn list_and_remove() {
        let fs = NetFs::new();
        fs.write_file("/ckpt/1", vec![]);
        fs.write_file("/ckpt/2", vec![]);
        fs.write_file("/data/x", vec![]);
        assert_eq!(fs.list("/ckpt/").len(), 2);
        assert!(fs.remove("/ckpt/1"));
        assert!(!fs.remove("/ckpt/1"));
        assert_eq!(fs.list("/ckpt/").len(), 1);
    }

    #[test]
    fn list_walks_only_the_prefix_range() {
        let fs = NetFs::new();
        for p in [
            "/a",
            "/ck",
            "/ckpt",
            "/ckpt/",
            "/ckpt/x",
            "/ckpt/y/z",
            "/ckpu/1",
            "/d",
        ] {
            fs.write_file(p, vec![]);
        }
        assert_eq!(fs.list("/ckpt/"), vec!["/ckpt/", "/ckpt/x", "/ckpt/y/z"]);
        assert_eq!(
            fs.list("/ckpt"),
            vec!["/ckpt", "/ckpt/", "/ckpt/x", "/ckpt/y/z"]
        );
        assert_eq!(fs.list("").len(), 8);
        assert!(fs.list("/e").is_empty());
    }

    #[test]
    fn borrowed_compare() {
        let fs = NetFs::new();
        fs.write_file("/f", b"abc".to_vec());
        assert!(fs.file_eq("/f", b"abc"));
        assert!(!fs.file_eq("/f", b"ab"));
        assert!(!fs.file_eq("/missing", b""));
        assert_eq!(fs.with_file("/f", <[u8]>::len), Some(3));
    }

    #[test]
    fn mirror_writes_only_differences() {
        let src = NetFs::new();
        src.write_file("/s/keep", b"same".to_vec());
        src.write_file("/s/new", b"n".to_vec());
        src.write_file("/s/upd", b"v2".to_vec());
        src.write_file("/other", b"x".to_vec());
        let dst = NetFs::new();
        dst.write_file("/d/keep", b"same".to_vec());
        dst.write_file("/d/upd", b"v1".to_vec());
        dst.write_file("/d/gone", b"g".to_vec());
        dst.write_file("/e/untouched", b"u".to_vec());
        assert!(dst.mirror("/d/", &src, "/s/"));
        assert_eq!(dst.list("/d/"), vec!["/d/keep", "/d/new", "/d/upd"]);
        assert_eq!(dst.read_file("/d/upd"), Some(b"v2".to_vec()));
        assert_eq!(dst.read_file("/e/untouched"), Some(b"u".to_vec()));
        assert!(!dst.mirror("/d/", &src, "/s/"));
    }
}
