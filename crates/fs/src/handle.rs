//! Open-file handles: the data plane of the VFS.
//!
//! Browsix's original BrowserFS port exposed a node-style, path-string API, so
//! every `read` or `write` on an open descriptor re-resolved its path — a
//! mount-table scan, a normalisation pass and a component walk per operation,
//! and in `httpfs` potentially a refetch of the whole file.  The handle layer
//! fixes that by resolving a name exactly once, at `open`:
//!
//! ```text
//! descriptor I/O (kernel fd.rs) ──► FileHandle        (this module)
//! path lookup    (sys_open)     ──► dentry cache      (mount.rs)
//!                                   mount table       (mount.rs)
//!                                   backend inode     (memfs / overlay /
//!                                                      httpfs)
//! ```
//!
//! A [`FileHandle`] is the VFS analogue of a Unix *open file description*
//! stripped of its offset (the kernel keeps offsets on its descriptor
//! objects, so `dup` can share them): an `Arc`-shared object bound to a
//! resolved node, answering positional reads and writes without ever touching
//! a path string again.  Because handles hold the node itself (for `memfs`,
//! an `Arc` to the file's contents), they keep working across `rename` and
//! even `unlink` — exactly the inode semantics POSIX programs expect.
//!
//! Backends implement [`FileSystem::open_handle`](crate::FileSystem::open_handle);
//! the legacy path-based `read_at`/`write_at`/`truncate` methods survive only
//! as default shims that open a throwaway handle per operation, which is also
//! what the `fs_handles` benchmark measures the handle layer against.

use std::sync::Arc;

use crate::backend::FsResult;
use crate::errno::Errno;
use crate::types::Metadata;

/// An open file, bound to a node resolved once at `open` time.
///
/// Methods take `&self`: a handle sits behind an `Arc` shared by `dup`ed
/// descriptors and inherited descriptor tables, and all mutation goes through
/// the backend node's own interior locking.
pub trait FileHandle: Send + Sync {
    /// The backend that produced this handle (diagnostics / feature table).
    fn backend_name(&self) -> &'static str;

    /// Metadata of the underlying node, always current (reads the node, not a
    /// cached copy).
    ///
    /// # Errors
    ///
    /// Backend-specific; [`Errno::EIO`] if the node became unreachable.
    fn metadata(&self) -> FsResult<Metadata>;

    /// Reads up to `len` bytes starting at byte `offset`.  Reads past the end
    /// of the file return a short (possibly empty) buffer.
    ///
    /// # Errors
    ///
    /// [`Errno::EIO`]-class errors from the backend (network failures for
    /// `httpfs` pages, for example).
    fn read_at(&self, offset: u64, len: usize) -> FsResult<Vec<u8>>;

    /// Writes `data` at byte `offset`, zero-filling any gap past the current
    /// end.  Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// [`Errno::EROFS`] on read-only backends.
    fn write_at(&self, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// Appends `data` at the current end of file **atomically**: the
    /// seek-to-end and the write happen under the node's lock, so two handles
    /// (or two `dup`ed descriptors) appending concurrently can never overwrite
    /// each other — the `O_APPEND` guarantee.  Returns the file size after the
    /// write (the offset a descriptor should advance to).
    ///
    /// The default implementation is a non-atomic `metadata` + `write_at`
    /// fallback, acceptable only for read-only backends (where `write_at`
    /// fails anyway); writable backends override it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FileHandle::write_at`].
    fn append(&self, data: &[u8]) -> FsResult<u64> {
        let end = self.metadata()?.size;
        let written = self.write_at(end, data)?;
        Ok(end + written as u64)
    }

    /// Truncates (or zero-extends) the file to `size` bytes.
    ///
    /// # Errors
    ///
    /// [`Errno::EROFS`] on read-only backends.
    fn truncate(&self, size: u64) -> FsResult<()>;

    /// Flushes the file's data to its backing store.  In-memory backends have
    /// nothing to flush, so the default succeeds.
    ///
    /// # Errors
    ///
    /// Backend-specific I/O errors.
    fn fsync(&self) -> FsResult<()> {
        Ok(())
    }

    /// Materialises one `page_size`-sized page of the file for a memory
    /// mapping: page `page_index` covers bytes
    /// `[page_index * page_size, (page_index + 1) * page_size)`, zero-filled
    /// past the end of the file (`mmap` fill semantics).
    ///
    /// The default faults the page in through [`FileHandle::read_at`] — which
    /// for `httpfs` already goes through its block/page cache — and copies it
    /// into a fresh `Arc`.  Backends that keep `Arc`'d cache pages of the
    /// right geometry override this to return the cache page itself, so a
    /// mapping shares memory with the page cache instead of copying it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FileHandle::read_at`].
    fn map_page(&self, page_index: u64, page_size: usize) -> FsResult<Arc<Vec<u8>>> {
        let mut data = self.read_at(page_index * page_size as u64, page_size)?;
        data.resize(page_size, 0);
        Ok(Arc::new(data))
    }
}

/// Reads an entire file through a handle, re-checking the size after each
/// read: backends with advisory sizes (an `httpfs` manifest) correct their
/// metadata on first fetch, and a single `metadata` + `read_at` pair would
/// silently truncate (or over-allocate).  Converges in two reads for a
/// stable backend; a bounded retry guards against one that keeps changing
/// its mind.
///
/// # Errors
///
/// Propagates the handle's errors; [`Errno::EIO`] if the reported size never
/// stabilises.
pub fn read_full(handle: &dyn FileHandle) -> FsResult<Vec<u8>> {
    let mut size = handle.metadata()?.size;
    for _ in 0..4 {
        let data = handle.read_at(0, size.max(1) as usize)?;
        let authoritative = handle.metadata()?.size;
        if authoritative == size {
            return Ok(data);
        }
        size = authoritative;
    }
    Err(Errno::EIO)
}

/// Rejects a write-mode open on a read-only backend (`httpfs`).
///
/// # Errors
///
/// [`Errno::EROFS`] if `flags` request write access.
pub(crate) fn deny_write_open(flags: crate::types::OpenFlags) -> FsResult<()> {
    if flags.write || flags.truncate || flags.append {
        return Err(Errno::EROFS);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FileSystem;
    use crate::types::OpenFlags;

    #[test]
    fn static_handle_reads_and_rejects_writes() {
        let fs = crate::bundle::static_httpfs(&[("/f", "hello world")]);
        let h = fs.open_handle("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(h.read_at(0, 5).unwrap(), b"hello");
        assert_eq!(h.read_at(6, 100).unwrap(), b"world");
        assert!(h.read_at(100, 4).unwrap().is_empty());
        assert_eq!(h.metadata().unwrap().size, 11);
        assert_eq!(h.write_at(0, b"x"), Err(Errno::EROFS));
        assert_eq!(h.truncate(0), Err(Errno::EROFS));
        assert_eq!(h.append(b"x"), Err(Errno::EROFS));
        assert_eq!(h.fsync(), Ok(()));
        assert_eq!(h.backend_name(), "httpfs");
    }

    #[test]
    fn deny_write_open_checks_all_write_flags() {
        assert!(deny_write_open(OpenFlags::read_only()).is_ok());
        assert_eq!(deny_write_open(OpenFlags::read_write()), Err(Errno::EROFS));
        assert_eq!(deny_write_open(OpenFlags::append_create()), Err(Errno::EROFS));
        assert_eq!(
            deny_write_open(OpenFlags {
                read: true,
                truncate: true,
                ..OpenFlags::default()
            }),
            Err(Errno::EROFS)
        );
    }
}
