//! The overlay file system: a writable upper layer over a read-only underlay.
//!
//! This is the backend Browsix modified most heavily.  The original BrowserFS
//! overlay *eagerly* read every file from the read-only underlay when it was
//! initialised; Browsix changed it to load lazily, which "drastically improves
//! the startup time of the kernel, minimizes the amount of data transferred
//! over the network, and enables applications like the LaTeX editor where only
//! a small subset of files are required".  Browsix also added locking so
//! operations from different processes do not interleave.
//!
//! [`OverlayFs`] reproduces the first: [`OverlayMode::Lazy`] (Browsix
//! behaviour) versus [`OverlayMode::Eager`] (original BrowserFS behaviour,
//! kept for the ablation experiment), copy-up on first write and whiteouts
//! for deletions of underlay files.  It does not reproduce the locking:
//! there are no cross-process path locks, only each memfs node's own lock
//! around a single read or write.

use std::collections::BTreeMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{make_parent_dirs, FileSystem, FsResult, IoStats};
use crate::errno::Errno;
use crate::handle::FileHandle;
use crate::memfs::MemFs;
use crate::path::normalize;
use crate::types::{DirEntry, Metadata, OpenFlags};

/// How the overlay treats its read-only underlay at initialisation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlayMode {
    /// Files are pulled from the underlay only when first accessed
    /// (the Browsix optimisation).
    #[default]
    Lazy,
    /// Every underlay file is copied into the writable layer at mount time
    /// (the original BrowserFS behaviour).  Kept for the ablation benchmark.
    Eager,
}

/// Log of namespace changes (`unlink`, both sides of `rename`, `rmdir`):
/// a monotonically increasing sequence plus the affected path per event.
/// A lazy write-armed handle records the sequence at `open`; before binding
/// its copy-up to the path it checks whether any later event hit the path
/// *or an ancestor* (a renamed parent directory invalidates every name
/// beneath it).  If so, the handle promotes to a detached orphan inode
/// instead of resurrecting the old name or clobbering its new occupant.
#[derive(Debug, Default)]
struct NsLog {
    seq: u64,
    events: Vec<(u64, String)>,
    /// opened-sequence → number of live write-armed handles opened there.
    /// Events at or before the smallest watched sequence can never matter
    /// again and are pruned, so the log is bounded by the churn during the
    /// lifetime of outstanding handles, not the filesystem's lifetime.
    watchers: BTreeMap<u64, usize>,
}

impl NsLog {
    fn record(&mut self, path: String) {
        self.seq += 1;
        if self.watchers.is_empty() {
            // No handle can ever observe this event.
            self.events.clear();
            return;
        }
        let seq = self.seq;
        self.events.push((seq, path));
    }

    /// Registers a write-armed handle; returns the sequence it opened at.
    fn watch(&mut self) -> u64 {
        let seq = self.seq;
        *self.watchers.entry(seq).or_insert(0) += 1;
        seq
    }

    /// Drops a handle's registration and prunes unobservable events.
    fn unwatch(&mut self, opened_seq: u64) {
        if let Some(count) = self.watchers.get_mut(&opened_seq) {
            *count -= 1;
            if *count == 0 {
                self.watchers.remove(&opened_seq);
            }
        }
        match self.watchers.keys().next().copied() {
            None => self.events.clear(),
            Some(min) => self.events.retain(|(seq, _)| *seq > min),
        }
    }

    /// Whether `path` (or an ancestor of it) changed after `since`.
    fn invalidated_since(&self, path: &str, since: u64) -> bool {
        self.events
            .iter()
            .rev()
            .take_while(|(seq, _)| *seq > since)
            .any(|(_, changed)| crate::path::starts_with(path, changed))
    }
}

/// A writable overlay on top of a read-only underlay.
pub struct OverlayFs {
    upper: Arc<MemFs>,
    lower: Arc<dyn FileSystem>,
    whiteouts: Mutex<HashSet<String>>,
    mode: OverlayMode,
    copy_ups: Arc<AtomicU64>,
    ns_log: Arc<Mutex<NsLog>>,
}

impl std::fmt::Debug for OverlayFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayFs")
            .field("mode", &self.mode)
            .field("lower", &self.lower.backend_name())
            .field("whiteouts", &self.whiteouts.lock().len())
            .finish()
    }
}

impl OverlayFs {
    /// Creates an overlay over `lower`.
    ///
    /// With [`OverlayMode::Eager`] every file reachable from the underlay root
    /// is copied up immediately, reproducing the expensive behaviour the paper
    /// replaced.
    pub fn new(lower: Arc<dyn FileSystem>, mode: OverlayMode) -> OverlayFs {
        let overlay = OverlayFs {
            upper: Arc::new(MemFs::new()),
            lower,
            whiteouts: Mutex::new(HashSet::new()),
            mode,
            copy_ups: Arc::new(AtomicU64::new(0)),
            ns_log: Arc::new(Mutex::new(NsLog::default())),
        };
        if mode == OverlayMode::Eager {
            overlay.copy_up_tree("/");
        }
        overlay
    }

    /// The overlay's initialisation mode.
    pub fn mode(&self) -> OverlayMode {
        self.mode
    }

    /// Number of files materialised in the writable layer by copy-up (both
    /// eager initialisation and copy-up-on-first-write).
    pub fn copy_up_count(&self) -> u64 {
        self.copy_ups.load(Ordering::Relaxed)
    }

    /// Number of whiteout entries (underlay files deleted by the upper layer).
    pub fn whiteout_count(&self) -> usize {
        self.whiteouts.lock().len()
    }

    /// Number of nodes materialised in the writable upper layer.
    pub fn upper_node_count(&self) -> usize {
        self.upper.node_count()
    }

    /// Whether `path` — or any ancestor of it — has been whited out.  The
    /// ancestor walk matters after a lower *directory* is renamed or removed:
    /// only the directory itself gets a whiteout entry, but everything
    /// beneath it must disappear from the merged view too.
    fn is_whited_out(&self, path: &str) -> bool {
        let whiteouts = self.whiteouts.lock();
        if whiteouts.is_empty() {
            return false;
        }
        // O(depth) hash lookups: check the path and each of its ancestors,
        // trimming one component at a time off the normalised string.
        let normalized = normalize(path);
        let mut candidate = normalized.as_str();
        loop {
            if whiteouts.contains(candidate) {
                return true;
            }
            match candidate.rfind('/') {
                Some(0) | None => return false,
                Some(idx) => candidate = &candidate[..idx],
            }
        }
    }

    fn add_whiteout(&self, path: &str) {
        self.whiteouts.lock().insert(normalize(path));
    }

    fn clear_whiteout(&self, path: &str) {
        self.whiteouts.lock().remove(&normalize(path));
    }

    fn copy_up_tree(&self, path: &str) {
        let Ok(meta) = self.lower.stat(path) else { return };
        if meta.is_dir() {
            if let Ok(entries) = self.lower.read_dir(path) {
                for entry in entries {
                    let child = if path == "/" {
                        format!("/{}", entry.name)
                    } else {
                        format!("{}/{}", path, entry.name)
                    };
                    self.copy_up_tree(&child);
                }
            }
        } else if let Ok(data) = self.lower.read_file(path) {
            let _ = make_parent_dirs(self.upper.as_ref(), path);
            if self.upper.write_file(path, &data).is_ok() {
                self.copy_ups.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Ensures `path` exists in the upper layer, copying its contents up from
    /// the underlay if necessary.  Returns `ENOENT` if the file exists in
    /// neither layer.
    fn copy_up(&self, path: &str) -> FsResult<()> {
        if self.upper.exists(path) {
            return Ok(());
        }
        if self.is_whited_out(path) {
            return Err(Errno::ENOENT);
        }
        let meta = self.lower.stat(path)?;
        make_parent_dirs(self.upper.as_ref(), path)?;
        if meta.is_dir() {
            match self.upper.mkdir(path) {
                Ok(()) | Err(Errno::EEXIST) => Ok(()),
                Err(e) => Err(e),
            }
        } else {
            let data = self.lower.read_file(path)?;
            self.upper.write_file(path, &data)?;
            self.copy_ups.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    fn visible_in_lower(&self, path: &str) -> bool {
        !self.is_whited_out(path) && self.lower.exists(path)
    }

    /// Marks that `path` (and, implicitly, everything beneath it) no longer
    /// names what it used to name.
    fn log_namespace_change(&self, path: &str) {
        self.ns_log.lock().record(normalize(path));
    }
}

impl FileSystem for OverlayFs {
    fn backend_name(&self) -> &'static str {
        "overlayfs"
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        if self.upper.exists(path) {
            return self.upper.stat(path);
        }
        if self.is_whited_out(path) {
            return Err(Errno::ENOENT);
        }
        self.lower.stat(path)
    }

    fn read_dir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let upper = self.upper.read_dir(path);
        let lower = if self.is_whited_out(path) {
            Err(Errno::ENOENT)
        } else {
            self.lower.read_dir(path)
        };
        if let (Err(_), Err(e)) = (&upper, &lower) {
            // Keep directory-vs-file confusion errors from the upper layer.
            if upper == Err(Errno::ENOTDIR) {
                return Err(Errno::ENOTDIR);
            }
            return Err(*e);
        }
        let mut merged: BTreeMap<String, DirEntry> = BTreeMap::new();
        if let Ok(entries) = lower {
            let dir_prefix = normalize(path);
            for entry in entries {
                let full = if dir_prefix == "/" {
                    format!("/{}", entry.name)
                } else {
                    format!("{}/{}", dir_prefix, entry.name)
                };
                if !self.is_whited_out(&full) {
                    merged.insert(entry.name.clone(), entry);
                }
            }
        }
        if let Ok(entries) = upper {
            for entry in entries {
                merged.insert(entry.name.clone(), entry);
            }
        }
        Ok(merged.into_values().collect())
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        if self.visible_in_lower(path) || self.upper.exists(path) {
            return Err(Errno::EEXIST);
        }
        make_parent_dirs(self.upper.as_ref(), path)?;
        self.upper.mkdir(path)?;
        self.clear_whiteout(path);
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let entries = self.read_dir(path)?;
        if !entries.is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        if self.upper.exists(path) {
            self.upper.rmdir(path)?;
        }
        if self.lower.exists(path) {
            self.add_whiteout(path);
        }
        self.log_namespace_change(path);
        Ok(())
    }

    fn create(&self, path: &str, mode: u32) -> FsResult<()> {
        match self.stat(path) {
            Ok(meta) if meta.is_dir() => return Err(Errno::EISDIR),
            Ok(_) => {
                // Regular file exists somewhere: make sure it is materialised
                // in the upper layer so subsequent writes have a target.
                return self.copy_up(path);
            }
            Err(Errno::ENOENT) => {}
            Err(e) => return Err(e),
        }
        // New file: the parent must exist in the merged view.
        let parent = crate::path::dirname(path);
        if !self.exists(&parent) {
            return Err(Errno::ENOENT);
        }
        make_parent_dirs(self.upper.as_ref(), path)?;
        self.upper.create(path, mode)?;
        self.clear_whiteout(path);
        Ok(())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let meta = self.stat(path)?;
        if meta.is_dir() {
            return Err(Errno::EISDIR);
        }
        if self.upper.exists(path) {
            self.upper.unlink(path)?;
        }
        if self.lower.exists(path) {
            self.add_whiteout(path);
        }
        self.log_namespace_change(path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let meta = self.stat(from)?;
        if meta.is_dir() {
            // Directory renames are implemented by materialising the source
            // tree in the upper layer and renaming there.
            self.copy_up(from)?;
            if let Ok(entries) = self.lower.read_dir(from) {
                for entry in entries {
                    let child = format!("{}/{}", normalize(from), entry.name);
                    let _ = self.copy_up(&child);
                }
            }
            make_parent_dirs(self.upper.as_ref(), to)?;
            self.upper.rename(from, to)?;
        } else {
            let data = self.read_file(from)?;
            make_parent_dirs(self.upper.as_ref(), to)?;
            self.upper.write_file(to, &data)?;
            self.unlink(from)?;
        }
        if self.lower.exists(from) {
            self.add_whiteout(from);
        }
        self.clear_whiteout(to);
        // Both names changed meaning: `from` is gone, `to` was replaced.
        self.log_namespace_change(from);
        self.log_namespace_change(to);
        Ok(())
    }

    /// Opens a handle with **copy-up on first write**: files already in the
    /// upper layer open there directly; files only in the underlay open a
    /// lower handle, and the first mutation through the handle materialises
    /// the file in the upper layer and transparently switches over.  A purely
    /// read-only open of an underlay file therefore never copies anything —
    /// the lazy behaviour the paper calls out as a key optimisation, now at
    /// handle granularity.
    fn open_handle(&self, path: &str, flags: OpenFlags) -> FsResult<Arc<dyn FileHandle>> {
        let meta = self.stat(path)?;
        if meta.is_dir() {
            return Err(Errno::EISDIR);
        }
        if self.upper.exists(path) {
            return self.upper.open_handle(path, flags);
        }
        // Underlay file (stat above already rejected whiteouts as ENOENT).
        let lower_handle = self.lower.open_handle(path, OpenFlags::read_only())?;
        if !flags.write && !flags.append && !flags.truncate {
            return Ok(lower_handle);
        }
        Ok(Arc::new(OverlayHandle {
            path: normalize(path),
            upper: Arc::clone(&self.upper),
            lower: lower_handle,
            promoted: Mutex::new(None),
            copy_ups: Arc::clone(&self.copy_ups),
            ns_log: Arc::clone(&self.ns_log),
            opened_seq: self.ns_log.lock().watch(),
        }))
    }

    fn set_times(&self, path: &str, atime_ms: u64, mtime_ms: u64) -> FsResult<()> {
        self.copy_up(path)?;
        self.upper.set_times(path, atime_ms, mtime_ms)
    }

    fn chmod(&self, path: &str, mode: u32) -> FsResult<()> {
        self.copy_up(path)?;
        self.upper.chmod(path, mode)
    }

    fn io_stats(&self) -> IoStats {
        let mut stats = self.lower.io_stats();
        stats.copy_ups += self.copy_up_count();
        stats
    }
}

/// A write-armed handle to a file that (so far) lives only in the underlay.
///
/// Reads pass through to the lower handle until the first mutation; the
/// mutation copies the file up, swaps in an upper handle, and everything
/// after that — reads included — goes to the writable layer.
struct OverlayHandle {
    path: String,
    upper: Arc<MemFs>,
    lower: Arc<dyn FileHandle>,
    /// The upper-layer handle, once copy-up has happened.
    promoted: Mutex<Option<Arc<dyn FileHandle>>>,
    copy_ups: Arc<AtomicU64>,
    ns_log: Arc<Mutex<NsLog>>,
    /// The namespace-log sequence when this handle was opened.
    opened_seq: u64,
}

impl OverlayHandle {
    /// Copies the file into the upper layer (unless another actor already
    /// did) and returns a handle there.  With `preserve` false the upper copy
    /// starts empty — the `O_TRUNC` fast path, which skips reading the
    /// underlay (and, for `httpfs` underlays, skips the network entirely).
    ///
    /// If the name — or an ancestor directory — changed since this handle
    /// was opened (unlinked, renamed away, or renamed over), binding the
    /// copy-up to the path would resurrect the deleted name or clobber its
    /// new occupant; the handle instead promotes to a detached anonymous
    /// inode visible only through this handle, which is POSIX's behaviour
    /// for writes through an fd whose file is gone.
    fn promote(&self, preserve: bool) -> FsResult<Arc<dyn FileHandle>> {
        let mut promoted = self.promoted.lock();
        if let Some(handle) = promoted.as_ref() {
            return Ok(Arc::clone(handle));
        }
        let preserved = || -> FsResult<Vec<u8>> {
            if preserve {
                // read_full re-checks the size after reading, so an underlay
                // with an advisory size (httpfs manifest) never truncates
                // the copy-up.
                crate::handle::read_full(self.lower.as_ref())
            } else {
                Ok(Vec::new())
            }
        };
        let invalidated = self.ns_log.lock().invalidated_since(&self.path, self.opened_seq);
        let handle: Arc<dyn FileHandle> = if invalidated {
            crate::memfs::detached_handle(preserved()?)
        } else {
            if !self.upper.exists(&self.path) {
                make_parent_dirs(self.upper.as_ref(), &self.path)?;
                let data = preserved()?;
                self.upper.write_file(&self.path, &data)?;
                self.copy_ups.fetch_add(1, Ordering::Relaxed);
            }
            self.upper.open_handle(&self.path, OpenFlags::read_write())?
        };
        *promoted = Some(Arc::clone(&handle));
        Ok(handle)
    }

    fn current(&self) -> Arc<dyn FileHandle> {
        self.promoted
            .lock()
            .as_ref()
            .map(Arc::clone)
            .unwrap_or_else(|| Arc::clone(&self.lower))
    }
}

impl FileHandle for OverlayHandle {
    fn backend_name(&self) -> &'static str {
        "overlayfs"
    }

    fn metadata(&self) -> FsResult<Metadata> {
        self.current().metadata()
    }

    fn read_at(&self, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.current().read_at(offset, len)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.promote(true)?.write_at(offset, data)
    }

    fn append(&self, data: &[u8]) -> FsResult<u64> {
        self.promote(true)?.append(data)
    }

    fn truncate(&self, size: u64) -> FsResult<()> {
        self.promote(size > 0)?.truncate(size)
    }

    fn fsync(&self) -> FsResult<()> {
        self.current().fsync()
    }
}

impl Drop for OverlayHandle {
    fn drop(&mut self) {
        // Deregister from the namespace log so events this handle could have
        // observed become prunable (keeps the log bounded).
        self.ns_log.lock().unwatch(self.opened_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> Arc<dyn FileSystem> {
        Arc::new(crate::bundle::static_httpfs(&[
            ("/etc/passwd", "root:x:0:0"),
            ("/usr/share/doc/readme", "read me"),
            ("/usr/share/doc/license", "MIT"),
        ]))
    }

    #[test]
    fn lazy_overlay_reads_through_to_lower() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        assert_eq!(fs.read_file("/etc/passwd").unwrap(), b"root:x:0:0");
        // Reads do not copy up.
        assert_eq!(fs.upper_node_count(), 1);
    }

    #[test]
    fn eager_overlay_materialises_everything_up_front() {
        let fs = OverlayFs::new(lower(), OverlayMode::Eager);
        assert!(fs.upper_node_count() > 4, "eager mode should copy all files up");
        assert_eq!(fs.mode(), OverlayMode::Eager);
        assert_eq!(fs.read_file("/usr/share/doc/license").unwrap(), b"MIT");
    }

    #[test]
    fn writes_copy_up_and_do_not_touch_lower() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.write_at("/etc/passwd", 0, b"user").unwrap();
        assert_eq!(&fs.read_file("/etc/passwd").unwrap()[..4], b"user");
        assert!(fs.upper_node_count() > 1);
        // New files land in the upper layer.
        fs.write_file("/etc/hostname", b"browsix").unwrap();
        assert_eq!(fs.read_file("/etc/hostname").unwrap(), b"browsix");
    }

    #[test]
    fn unlink_of_lower_file_uses_whiteout() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.unlink("/etc/passwd").unwrap();
        assert_eq!(fs.stat("/etc/passwd"), Err(Errno::ENOENT));
        assert_eq!(fs.read_file("/etc/passwd"), Err(Errno::ENOENT));
        assert_eq!(fs.whiteout_count(), 1);
        // Re-creating the file clears the whiteout.
        fs.write_file("/etc/passwd", b"new").unwrap();
        assert_eq!(fs.read_file("/etc/passwd").unwrap(), b"new");
        assert_eq!(fs.whiteout_count(), 0);
    }

    #[test]
    fn read_dir_merges_layers_and_hides_whiteouts() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.write_file("/usr/share/doc/notes", b"hi").unwrap();
        fs.unlink("/usr/share/doc/license").unwrap();
        let names: Vec<String> = fs
            .read_dir("/usr/share/doc")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["notes", "readme"]);
    }

    #[test]
    fn mkdir_over_existing_lower_dir_is_eexist() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        assert_eq!(fs.mkdir("/etc"), Err(Errno::EEXIST));
        fs.mkdir("/var").unwrap();
        assert!(fs.stat("/var").unwrap().is_dir());
    }

    #[test]
    fn rmdir_hides_lower_directory() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        // /usr/share/doc is non-empty.
        assert_eq!(fs.rmdir("/usr/share/doc"), Err(Errno::ENOTEMPTY));
        fs.mkdir("/empty").unwrap();
        fs.rmdir("/empty").unwrap();
        assert!(!fs.exists("/empty"));
    }

    #[test]
    fn rename_copies_and_whiteouts_source() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.rename("/etc/passwd", "/etc/passwd.bak").unwrap();
        assert_eq!(fs.read_file("/etc/passwd.bak").unwrap(), b"root:x:0:0");
        assert_eq!(fs.stat("/etc/passwd"), Err(Errno::ENOENT));
    }

    #[test]
    fn create_on_existing_lower_file_copies_up() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.create("/etc/passwd", 0o644).unwrap();
        // Contents preserved by the copy-up.
        assert_eq!(fs.read_file("/etc/passwd").unwrap(), b"root:x:0:0");
    }

    #[test]
    fn create_in_missing_directory_is_enoent() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        assert_eq!(fs.create("/no/such/dir/file", 0o644), Err(Errno::ENOENT));
    }

    #[test]
    fn truncate_and_chmod_copy_up() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.truncate("/usr/share/doc/readme", 4).unwrap();
        assert_eq!(fs.read_file("/usr/share/doc/readme").unwrap(), b"read");
        fs.chmod("/usr/share/doc/readme", 0o600).unwrap();
        assert_eq!(fs.stat("/usr/share/doc/readme").unwrap().mode, 0o600);
    }

    // ---- handle-layer copy-up-on-first-write ---------------------------------

    #[test]
    fn read_only_handles_never_copy_up() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        let h = fs.open_handle("/etc/passwd", OpenFlags::read_only()).unwrap();
        assert_eq!(h.read_at(0, 4).unwrap(), b"root");
        assert_eq!(h.metadata().unwrap().size, 10);
        assert_eq!(fs.copy_up_count(), 0);
        assert_eq!(fs.upper_node_count(), 1, "reads must not materialise the upper layer");
    }

    #[test]
    fn write_handle_copies_up_on_first_write_only() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        let h = fs.open_handle("/etc/passwd", OpenFlags::read_write()).unwrap();
        // Reads before the first write come from the underlay, copy-free.
        assert_eq!(h.read_at(0, 4).unwrap(), b"root");
        assert_eq!(fs.copy_up_count(), 0);
        // The first write atomically materialises the file in the upper
        // layer, preserving the underlay contents.
        assert_eq!(h.write_at(0, b"user").unwrap(), 4);
        assert_eq!(fs.copy_up_count(), 1);
        assert_eq!(h.read_at(0, 10).unwrap(), b"user:x:0:0");
        assert_eq!(fs.read_file("/etc/passwd").unwrap(), b"user:x:0:0");
        // Further writes reuse the promoted handle: still one copy-up.
        h.append(b"!").unwrap();
        assert_eq!(fs.copy_up_count(), 1);
        // The underlay itself is untouched.
        assert_eq!(lower().read_file("/etc/passwd").unwrap(), b"root:x:0:0");
    }

    #[test]
    fn truncate_to_zero_promotes_without_reading_the_underlay() {
        use browsix_browser::{NetworkProfile, RemoteEndpoint, StaticFiles};
        let files = StaticFiles::new();
        files.insert("/blob.bin", vec![9u8; 4096]);
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        let http = Arc::new(crate::HttpFs::new(endpoint, vec![("/blob.bin".to_string(), 4096)]));
        let fs = OverlayFs::new(Arc::clone(&http) as Arc<dyn FileSystem>, OverlayMode::Lazy);

        let h = fs.open_handle("/blob.bin", OpenFlags::write_create_truncate()).unwrap();
        h.truncate(0).unwrap();
        h.write_at(0, b"fresh").unwrap();
        assert_eq!(fs.read_file("/blob.bin").unwrap(), b"fresh");
        assert_eq!(fs.copy_up_count(), 1);
        // The O_TRUNC fast path never touched the network.
        assert_eq!(http.stats().fetches, 0);
    }

    #[test]
    fn unlinked_file_is_not_resurrected_by_a_pending_write_handle() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        let h = fs.open_handle("/etc/passwd", OpenFlags::read_write()).unwrap();
        fs.unlink("/etc/passwd").unwrap();
        // The first write promotes to an orphaned inode: it succeeds, but the
        // deleted name must not reappear in the namespace.
        h.write_at(0, b"ghost").unwrap();
        assert_eq!(h.read_at(0, 5).unwrap(), b"ghost");
        assert_eq!(fs.stat("/etc/passwd"), Err(Errno::ENOENT));
    }

    #[test]
    fn stale_write_handle_does_not_clobber_a_recreated_file() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        let h = fs.open_handle("/etc/passwd", OpenFlags::read_write()).unwrap();
        fs.unlink("/etc/passwd").unwrap();
        fs.write_file("/etc/passwd", b"replacement").unwrap();
        // The stale handle writes to its own orphaned inode, never to the
        // file that now occupies the old name.
        h.write_at(0, b"stale data").unwrap();
        assert_eq!(fs.read_file("/etc/passwd").unwrap(), b"replacement");
        assert_eq!(h.read_at(0, 10).unwrap(), b"stale data");
        // Rename-over is the same hazard: a handle opened before the rename
        // must not clobber the renamed-in file.
        let h2 = fs
            .open_handle("/usr/share/doc/readme", OpenFlags::read_write())
            .unwrap();
        fs.rename("/usr/share/doc/license", "/usr/share/doc/readme").unwrap();
        h2.write_at(0, b"old!").unwrap();
        assert_eq!(fs.read_file("/usr/share/doc/readme").unwrap(), b"MIT");
    }

    #[test]
    fn renaming_a_lower_directory_hides_its_old_contents() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        fs.rename("/usr/share/doc", "/usr/share/docs2").unwrap();
        // The whiteout on the directory must hide everything beneath it.
        assert_eq!(fs.stat("/usr/share/doc/readme"), Err(Errno::ENOENT));
        assert_eq!(fs.read_file("/usr/share/doc/readme"), Err(Errno::ENOENT));
        assert_eq!(fs.read_file("/usr/share/docs2/readme").unwrap(), b"read me");
    }

    #[test]
    fn stale_handle_under_a_renamed_directory_promotes_detached() {
        let fs = OverlayFs::new(lower(), OverlayMode::Lazy);
        let h = fs
            .open_handle("/usr/share/doc/readme", OpenFlags::read_write())
            .unwrap();
        fs.rename("/usr/share/doc", "/usr/share/docs2").unwrap();
        // The parent directory was renamed away: the pending write must not
        // materialise the old path.
        h.write_at(0, b"ghost").unwrap();
        assert_eq!(fs.stat("/usr/share/doc/readme"), Err(Errno::ENOENT));
        assert_eq!(fs.read_file("/usr/share/docs2/readme").unwrap(), b"read me");
        assert_eq!(h.read_at(0, 5).unwrap(), b"ghost");
    }

    #[test]
    fn copy_up_through_handle_honours_corrected_underlay_size() {
        use browsix_browser::{NetworkProfile, RemoteEndpoint, StaticFiles};
        // The httpfs manifest understates the file: 100 advertised, 1000 real.
        let body: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let files = StaticFiles::new();
        files.insert("/grown.bin", body.clone());
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        let http = crate::HttpFs::new(endpoint, vec![("/grown.bin".to_string(), 100)]);
        let fs = OverlayFs::new(Arc::new(http), OverlayMode::Lazy);

        let h = fs.open_handle("/grown.bin", OpenFlags::read_write()).unwrap();
        h.write_at(0, b"X").unwrap();
        // Copy-up must have captured all 1000 authoritative bytes.
        let mut expected = body;
        expected[0] = b'X';
        assert_eq!(fs.read_file("/grown.bin").unwrap(), expected);
        assert_eq!(fs.stat("/grown.bin").unwrap().size, 1000);
    }

    #[test]
    fn eager_mode_counts_copy_ups_and_io_stats_aggregate() {
        let fs = OverlayFs::new(lower(), OverlayMode::Eager);
        assert_eq!(fs.copy_up_count(), 3);
        assert_eq!(fs.io_stats().copy_ups, 3);
    }
}
