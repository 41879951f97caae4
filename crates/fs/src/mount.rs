//! The mount table: composing backends into a single hierarchy, with a
//! dentry cache in front.
//!
//! BrowserFS supports "multiple mounted filesystems in a single hierarchical
//! directory structure"; the Browsix kernel holds one such composed instance
//! and routes every path-based system call through it.  [`MountedFs`] plays
//! that role here: a root backend plus any number of mounts, itself
//! implementing [`FileSystem`] so the kernel deals with a single object.
//!
//! Two things make the composed view fast:
//!
//! * a **dentry cache** mapping already-seen paths to their resolved
//!   `(backend, inner path)` pair, so `stat`-heavy workloads (`ls`, a
//!   recursive `grep`) stop re-normalising strings and re-scanning the mount
//!   table on every call.  Entries are invalidated on `rename`/`unlink`/
//!   `rmdir` (the whole subtree) and the cache is flushed on mount-table
//!   changes.  Hit/miss counters surface through
//!   [`FileSystem::io_stats`].
//! * **open-file handles**: [`FileSystem::open_handle`] resolves the mount
//!   point once and returns the backend's handle directly, so descriptor I/O
//!   never routes through the mount table again.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::backend::{FileSystem, FsResult, IoStats};
use crate::errno::Errno;
use crate::handle::FileHandle;
use crate::path::{basename, dirname, normalize, starts_with_normalized, strip_prefix_normalized};
use crate::types::{DirEntry, FileType, Metadata, OpenFlags};

/// Upper bound on cached dentries; the cache is flushed wholesale when it
/// fills (simple, and a 4096-entry working set covers the case studies).
const DENTRY_CACHE_CAPACITY: usize = 4096;

struct Mount {
    point: String,
    fs: Arc<dyn FileSystem>,
}

/// A resolved path: the backend responsible for it and the path within that
/// backend.  Routing depends only on the mount table, so cached entries stay
/// valid until the table changes (invalidation on namespace ops is belt and
/// braces, and keeps the door open for caching negative lookups later).
#[derive(Clone)]
struct Dentry {
    fs: Arc<dyn FileSystem>,
    inner: String,
}

#[derive(Default)]
struct DentryCache {
    entries: Mutex<HashMap<String, Dentry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DentryCache {
    fn get(&self, path: &str) -> Option<Dentry> {
        let cached = self.entries.lock().get(path).cloned();
        if cached.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    fn insert(&self, path: String, dentry: Dentry) {
        let mut entries = self.entries.lock();
        if entries.len() >= DENTRY_CACHE_CAPACITY {
            entries.clear();
        }
        entries.insert(path, dentry);
    }

    /// Drops the normalised `path` and everything beneath it.  Keys are
    /// normalised when they go in, so each is one comparison.
    fn invalidate_subtree(&self, path: &str) {
        self.entries.lock().retain(|key, _| !starts_with_normalized(key, path));
    }

    fn clear(&self) {
        self.entries.lock().clear();
    }

    fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// A composed file system: one root backend plus zero or more mounts.
pub struct MountedFs {
    root: Arc<dyn FileSystem>,
    mounts: RwLock<Vec<Mount>>,
    dcache: DentryCache,
}

impl std::fmt::Debug for MountedFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mounts: Vec<String> = self
            .mounts
            .read()
            .iter()
            .map(|m| format!("{} ({})", m.point, m.fs.backend_name()))
            .collect();
        f.debug_struct("MountedFs")
            .field("root", &self.root.backend_name())
            .field("mounts", &mounts)
            .finish()
    }
}

impl MountedFs {
    /// Creates a mount table with `root` mounted at `/`.
    pub fn new(root: Arc<dyn FileSystem>) -> MountedFs {
        MountedFs {
            root,
            mounts: RwLock::new(Vec::new()),
            dcache: DentryCache::default(),
        }
    }

    /// Mounts `fs` at `point` (an absolute path).  Longer mount points shadow
    /// shorter ones, so `/usr/share/texmf` can be mounted inside `/usr`.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] if `point` is `/` (replace the root instead), or
    /// [`Errno::EBUSY`] if something is already mounted there.
    pub fn mount(&self, point: &str, fs: Arc<dyn FileSystem>) -> FsResult<()> {
        let point = normalize(point);
        if point == "/" {
            return Err(Errno::EINVAL);
        }
        let mut mounts = self.mounts.write();
        if mounts.iter().any(|m| m.point == point) {
            return Err(Errno::EBUSY);
        }
        mounts.push(Mount { point, fs });
        // Longest mount point first so resolution picks the most specific.
        mounts.sort_by_key(|m| std::cmp::Reverse(m.point.len()));
        // Routing changed: every cached dentry is suspect.
        self.dcache.clear();
        Ok(())
    }

    /// Unmounts whatever is mounted at `point`.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] if nothing is mounted there.
    pub fn unmount(&self, point: &str) -> FsResult<()> {
        let point = normalize(point);
        let mut mounts = self.mounts.write();
        let before = mounts.len();
        mounts.retain(|m| m.point != point);
        if mounts.len() == before {
            Err(Errno::EINVAL)
        } else {
            self.dcache.clear();
            Ok(())
        }
    }

    /// The list of active mount points (excluding the root), most specific
    /// first.
    pub fn mount_points(&self) -> Vec<String> {
        self.mounts.read().iter().map(|m| m.point.clone()).collect()
    }

    /// Dentry-cache hit and miss counts since creation.
    pub fn dentry_cache_counters(&self) -> (u64, u64) {
        self.dcache.counters()
    }

    /// Resolves `path` to the responsible backend and the path within it.
    fn route(&self, path: &str) -> (Arc<dyn FileSystem>, String) {
        self.route_normalized(normalize(path))
    }

    /// [`MountedFs::route`] for a path that is already normalised — every
    /// call normalises its argument once, here or before it looks at the
    /// mount table itself — consulting the dentry cache first.
    fn route_normalized(&self, normalized: String) -> (Arc<dyn FileSystem>, String) {
        if let Some(dentry) = self.dcache.get(&normalized) {
            return (dentry.fs, dentry.inner);
        }
        // Resolve AND insert under the mount-table read lock: a concurrent
        // mount/unmount takes the write lock (and flushes the cache) either
        // strictly before or strictly after this block, so a stale dentry can
        // never be inserted after the flush.  Lock order is always
        // mounts → dcache, so this cannot deadlock with the flush paths.
        let mounts = self.mounts.read();
        let resolved = mounts
            .iter()
            .find_map(|mount| {
                let inner = strip_prefix_normalized(&normalized, &mount.point)?;
                Some((Arc::clone(&mount.fs), inner.to_owned()))
            })
            .unwrap_or_else(|| (Arc::clone(&self.root), normalized.clone()));
        self.dcache.insert(
            normalized,
            Dentry {
                fs: Arc::clone(&resolved.0),
                inner: resolved.1.clone(),
            },
        );
        resolved
    }

    /// Mount points whose parent directory is the normalised `dir` — these
    /// must show up in directory listings even if the underlying backend has
    /// no entry there.
    fn mounts_directly_under(&self, dir: &str) -> Vec<String> {
        self.mounts
            .read()
            .iter()
            .filter(|m| dirname(&m.point) == dir)
            .map(|m| basename(&m.point))
            .collect()
    }
}

impl FileSystem for MountedFs {
    fn backend_name(&self) -> &'static str {
        "mounted"
    }

    fn io_stats(&self) -> IoStats {
        let (dentry_hits, dentry_misses) = self.dcache.counters();
        let mut stats = IoStats {
            dentry_hits,
            dentry_misses,
            ..IoStats::default()
        };
        stats.merge(self.root.io_stats());
        for mount in self.mounts.read().iter() {
            stats.merge(mount.fs.io_stats());
        }
        stats
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let normalized = normalize(path);
        // A mount point is always a directory, even if the root backend has
        // nothing at that path.
        let is_mount_point = self.mounts.read().iter().any(|m| m.point == normalized);
        let (fs, inner) = self.route_normalized(normalized);
        let stat = fs.stat(&inner);
        if is_mount_point {
            return stat.or_else(|_| Ok(Metadata::directory()));
        }
        stat
    }

    fn read_dir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let dir = normalize(path);
        let mounted_here = self.mounts_directly_under(&dir);
        let (fs, inner) = self.route_normalized(dir);
        let mut entries: BTreeMap<String, DirEntry> = BTreeMap::new();
        match fs.read_dir(&inner) {
            Ok(list) => {
                for entry in list {
                    entries.insert(entry.name.clone(), entry);
                }
            }
            Err(e) => {
                // The directory may exist purely as a parent of mount points.
                if mounted_here.is_empty() {
                    return Err(e);
                }
            }
        }
        for name in mounted_here {
            entries.insert(
                name.clone(),
                DirEntry {
                    name,
                    file_type: FileType::Directory,
                },
            );
        }
        Ok(entries.into_values().collect())
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let (fs, inner) = self.route(path);
        fs.mkdir(&inner)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let normalized = normalize(path);
        if self.mounts.read().iter().any(|m| m.point == normalized) {
            return Err(Errno::EBUSY);
        }
        let (fs, inner) = self.route_normalized(normalized.clone());
        let result = fs.rmdir(&inner);
        if result.is_ok() {
            self.dcache.invalidate_subtree(&normalized);
        }
        result
    }

    fn create(&self, path: &str, mode: u32) -> FsResult<()> {
        let (fs, inner) = self.route(path);
        fs.create(&inner, mode)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let normalized = normalize(path);
        let (fs, inner) = self.route_normalized(normalized.clone());
        let result = fs.unlink(&inner);
        if result.is_ok() {
            self.dcache.invalidate_subtree(&normalized);
        }
        result
    }

    /// Renames within one backend.  A rename whose source and destination
    /// resolve to *different* mounts fails with [`Errno::EXDEV`], exactly as
    /// `rename(2)` does across device boundaries — callers that want the
    /// copy-then-unlink behaviour (like `mv`) must do it themselves.
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let (from, to) = (normalize(from), normalize(to));
        let (from_fs, from_inner) = self.route_normalized(from.clone());
        let (to_fs, to_inner) = self.route_normalized(to.clone());
        if !Arc::ptr_eq(&from_fs, &to_fs) {
            return Err(Errno::EXDEV);
        }
        let result = from_fs.rename(&from_inner, &to_inner);
        if result.is_ok() {
            self.dcache.invalidate_subtree(&from);
            self.dcache.invalidate_subtree(&to);
        }
        result
    }

    /// Resolves the mount point once; the returned handle goes straight to
    /// the owning backend for every subsequent operation.
    fn open_handle(&self, path: &str, flags: OpenFlags) -> FsResult<Arc<dyn FileHandle>> {
        let (fs, inner) = self.route(path);
        fs.open_handle(&inner, flags)
    }

    fn set_times(&self, path: &str, atime_ms: u64, mtime_ms: u64) -> FsResult<()> {
        let (fs, inner) = self.route(path);
        fs.set_times(&inner, atime_ms, mtime_ms)
    }

    fn chmod(&self, path: &str, mode: u32) -> FsResult<()> {
        let (fs, inner) = self.route(path);
        fs.chmod(&inner, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{Bundle, BundleFs};
    use crate::memfs::MemFs;

    fn texmf_bundle() -> Arc<dyn FileSystem> {
        let mut bundle = Bundle::new();
        bundle.insert_text("/article.cls", "class");
        bundle.insert_text("/fonts/cmr10.tfm", "font");
        Arc::new(BundleFs::new(bundle))
    }

    #[test]
    fn root_operations_pass_through() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mkdir("/home").unwrap();
        fs.write_file("/home/file", b"data").unwrap();
        assert_eq!(fs.read_file("/home/file").unwrap(), b"data");
        assert_eq!(fs.backend_name(), "mounted");
    }

    #[test]
    fn mounted_backend_receives_inner_paths() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mkdir("/usr").unwrap();
        fs.mount("/usr/texmf", texmf_bundle()).unwrap();
        assert_eq!(fs.read_file("/usr/texmf/article.cls").unwrap(), b"class");
        assert_eq!(fs.read_file("/usr/texmf/fonts/cmr10.tfm").unwrap(), b"font");
        assert!(fs.stat("/usr/texmf").unwrap().is_dir());
        assert!(fs.stat("/usr/texmf/fonts").unwrap().is_dir());
    }

    #[test]
    fn mount_points_show_in_parent_listings() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mkdir("/usr").unwrap();
        fs.mount("/usr/texmf", texmf_bundle()).unwrap();
        let names: Vec<String> = fs.read_dir("/usr").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["texmf"]);
        // Even when the parent directory does not exist in the root backend.
        let fs2 = MountedFs::new(Arc::new(MemFs::new()));
        fs2.mount("/opt/pkg", texmf_bundle()).unwrap();
        let names: Vec<String> = fs2.read_dir("/opt").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["pkg"]);
    }

    #[test]
    fn longest_mount_wins() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        let outer = Arc::new(MemFs::new());
        outer.write_file("/marker", b"outer").unwrap();
        let inner = Arc::new(MemFs::new());
        inner.write_file("/marker", b"inner").unwrap();
        fs.mount("/mnt", outer).unwrap();
        fs.mount("/mnt/inner", inner).unwrap();
        assert_eq!(fs.read_file("/mnt/marker").unwrap(), b"outer");
        assert_eq!(fs.read_file("/mnt/inner/marker").unwrap(), b"inner");
        assert_eq!(fs.mount_points(), vec!["/mnt/inner".to_string(), "/mnt".to_string()]);
    }

    #[test]
    fn duplicate_and_root_mounts_are_rejected() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mount("/a", Arc::new(MemFs::new())).unwrap();
        assert_eq!(fs.mount("/a", Arc::new(MemFs::new())), Err(Errno::EBUSY));
        assert_eq!(fs.mount("/", Arc::new(MemFs::new())), Err(Errno::EINVAL));
        assert_eq!(fs.rmdir("/a"), Err(Errno::EBUSY));
    }

    #[test]
    fn unmount_removes_routing() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mount("/data", texmf_bundle()).unwrap();
        assert!(fs.exists("/data/article.cls"));
        fs.unmount("/data").unwrap();
        assert!(!fs.exists("/data/article.cls"));
        assert_eq!(fs.unmount("/data"), Err(Errno::EINVAL));
    }

    #[test]
    fn cross_mount_rename_is_exdev() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        let scratch = Arc::new(MemFs::new());
        fs.mount("/tmp", scratch).unwrap();
        fs.write_file("/source.txt", b"payload").unwrap();
        // rename(2) semantics: crossing a mount boundary is the caller's
        // problem (mv falls back to copy + unlink on EXDEV).
        assert_eq!(fs.rename("/source.txt", "/tmp/dest.txt"), Err(Errno::EXDEV));
        assert_eq!(fs.rename("/tmp/nope", "/elsewhere"), Err(Errno::EXDEV));
        // The source is untouched by the failed rename.
        assert_eq!(fs.read_file("/source.txt").unwrap(), b"payload");
        // Same-backend renames still work, on both sides of the mount.
        fs.rename("/source.txt", "/renamed.txt").unwrap();
        assert_eq!(fs.read_file("/renamed.txt").unwrap(), b"payload");
        fs.write_file("/tmp/a", b"1").unwrap();
        fs.rename("/tmp/a", "/tmp/b").unwrap();
        assert_eq!(fs.read_file("/tmp/b").unwrap(), b"1");
    }

    #[test]
    fn writes_to_read_only_mounts_fail() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mount("/ro", texmf_bundle()).unwrap();
        assert_eq!(fs.write_file("/ro/new", b"x"), Err(Errno::EROFS));
    }

    // ---- dentry cache ---------------------------------------------------------

    #[test]
    fn repeated_stats_hit_the_dentry_cache() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mkdir("/home").unwrap();
        fs.write_file("/home/file", b"data").unwrap();
        let (_, misses_before) = fs.dentry_cache_counters();
        for _ in 0..5 {
            fs.stat("/home/file").unwrap();
        }
        let (hits, misses) = fs.dentry_cache_counters();
        assert!(hits >= 4, "expected cache hits, got {hits}");
        // write_file may already have warmed the entry; at most one new miss.
        assert!(misses <= misses_before + 1, "repeated stats must not keep missing");
        let io = fs.io_stats();
        assert_eq!(io.dentry_hits, hits);
        assert_eq!(io.dentry_misses, misses);
    }

    #[test]
    fn dentry_cache_is_invalidated_by_namespace_ops() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"1").unwrap();
        fs.stat("/d/f").unwrap();
        fs.rename("/d/f", "/d/g").unwrap();
        assert_eq!(fs.stat("/d/f"), Err(Errno::ENOENT));
        assert_eq!(fs.read_file("/d/g").unwrap(), b"1");
        fs.unlink("/d/g").unwrap();
        assert_eq!(fs.stat("/d/g"), Err(Errno::ENOENT));
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.stat("/d"), Err(Errno::ENOENT));
    }

    #[test]
    fn dentry_cache_is_flushed_on_mount_changes() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.write_file("/data", b"root-file").unwrap();
        fs.unlink("/data").unwrap();
        fs.mkdir("/data").unwrap();
        fs.stat("/data").unwrap();
        // Mounting over /data must re-route cached descendants.
        fs.mount("/data", texmf_bundle()).unwrap();
        assert_eq!(fs.read_file("/data/article.cls").unwrap(), b"class");
        fs.unmount("/data").unwrap();
        assert_eq!(fs.stat("/data/article.cls"), Err(Errno::ENOENT));
    }

    // ---- handles through the mount table ---------------------------------------

    #[test]
    fn open_handle_resolves_the_mount_once() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mount("/ro", texmf_bundle()).unwrap();
        let h = fs.open_handle("/ro/article.cls", OpenFlags::read_only()).unwrap();
        assert_eq!(
            h.backend_name(),
            "bundlefs",
            "handle must come from the mounted backend"
        );
        assert_eq!(h.read_at(0, 5).unwrap(), b"class");

        fs.write_file("/local", b"root").unwrap();
        let h = fs.open_handle("/local", OpenFlags::read_write()).unwrap();
        assert_eq!(h.backend_name(), "memfs");
        h.write_at(0, b"ROOT").unwrap();
        assert_eq!(fs.read_file("/local").unwrap(), b"ROOT");
    }

    #[test]
    fn handle_io_is_unaffected_by_unmount_of_other_trees() {
        let fs = MountedFs::new(Arc::new(MemFs::new()));
        fs.mount("/ro", texmf_bundle()).unwrap();
        fs.write_file("/f", b"stable").unwrap();
        let h = fs.open_handle("/f", OpenFlags::read_only()).unwrap();
        fs.unmount("/ro").unwrap();
        assert_eq!(h.read_at(0, 6).unwrap(), b"stable");
    }
}
