//! A read-only file system backed by a (simulated) remote HTTP server, with a
//! block/page cache.
//!
//! The paper's LaTeX editor mounts a full TeX Live distribution this way: the
//! developer uploads the distribution to an HTTP server, and Browsix's file
//! system fetches individual files lazily the first time they are opened.
//! While a complete distribution holds over 60,000 files, a typical document
//! touches only a few megabytes of them, so lazy loading plus browser caching
//! makes the first build cheap and subsequent builds instantaneous.
//!
//! [`HttpFs`] reproduces that behaviour and pushes it one level further than
//! the original whole-file cache: file contents are cached in fixed-size
//! **pages** (default [`DEFAULT_PAGE_SIZE`] bytes, tunable with
//! [`HttpFs::with_page_size`]), fetched with ranged requests
//! ([`RemoteEndpoint::fetch_range`]) and **read ahead** a few pages at a time
//! ([`HttpFs::with_readahead`]).  A sequential reader therefore issues one
//! ranged request per read-ahead window instead of refetching the file, and a
//! random reader of a large `.fmt` file only ever pays for the pages it
//! touches.  [`HttpFsStats`] reports fetches, page hits/misses and bytes
//! actually transferred, which the evaluation uses.
//!
//! Open handles ([`FileSystem::open_handle`]) bind directly to a file's page
//! map — the `httpfs` "inode" — so descriptor reads skip the manifest lookup
//! entirely.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use browsix_browser::{PlatformError, RemoteEndpoint};

use crate::backend::{FileSystem, FsResult, IoStats};
use crate::errno::Errno;
use crate::handle::{deny_write_open, FileHandle};
use crate::path::{components, normalize};
use crate::types::{now_millis, DirEntry, FileType, Metadata, OpenFlags};

/// Default page size of the block cache: 64 KiB, large enough to amortise a
/// round trip, small enough that sparse readers of big files do not pay for
/// the whole file.
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

/// Default number of extra pages fetched beyond the requested range
/// (read-ahead window).
pub const DEFAULT_READAHEAD_PAGES: u64 = 2;

/// Fetch statistics for an [`HttpFs`] mount.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpFsStats {
    /// Number of ranged remote fetches performed.
    pub fetches: u64,
    /// Number of pages served from the local page cache.
    pub cache_hits: u64,
    /// Number of pages fetched from the remote server (page-cache misses).
    pub pages_fetched: u64,
    /// Total bytes fetched from the remote server.
    pub bytes_fetched: u64,
}

/// The cached pages of one remote file — the `httpfs` inode.
#[derive(Debug, Default)]
struct PageMap {
    /// Page index → page contents (all pages are `page_size` long except
    /// possibly the last).
    pages: BTreeMap<u64, Arc<Vec<u8>>>,
    /// The authoritative remote size, learned from the first ranged response
    /// (the manifest size is only advisory, like a stale directory listing).
    remote_size: Option<u64>,
}

#[derive(Debug)]
struct CachedFile {
    /// Normalised path, the key ranged requests are issued under.
    path: String,
    /// Size advertised by the manifest (used until the remote corrects it).
    manifest_size: u64,
    pages: Mutex<PageMap>,
}

impl CachedFile {
    fn size(&self) -> u64 {
        self.pages.lock().remote_size.unwrap_or(self.manifest_size)
    }
}

/// Shared internals: split out behind an `Arc` so open handles stay valid
/// independently of the `HttpFs` value itself.
struct HttpInner {
    endpoint: RemoteEndpoint,
    /// Known remote files: normalised path -> advertised size in bytes.
    manifest: BTreeMap<String, u64>,
    page_size: usize,
    readahead_pages: u64,
    files: Mutex<HashMap<String, Arc<CachedFile>>>,
    stats: Mutex<HttpFsStats>,
    mounted_ms: u64,
}

impl HttpInner {
    fn map_fetch_error(e: PlatformError) -> Errno {
        match e {
            PlatformError::HttpStatus(404) => Errno::ENOENT,
            PlatformError::NetworkUnavailable => Errno::ENETUNREACH,
            _ => Errno::EIO,
        }
    }

    /// The page-cache entry for `path` (which must be in the manifest),
    /// creating it on first access.
    fn cached_file(&self, normalized: &str) -> FsResult<Arc<CachedFile>> {
        let manifest_size = *self.manifest.get(normalized).ok_or(Errno::ENOENT)?;
        let mut files = self.files.lock();
        Ok(Arc::clone(files.entry(normalized.to_owned()).or_insert_with(|| {
            Arc::new(CachedFile {
                path: normalized.to_owned(),
                manifest_size,
                pages: Mutex::new(PageMap::default()),
            })
        })))
    }

    /// Ensures pages `first..=last` of `file` are cached, fetching missing
    /// runs with ranged requests extended by the read-ahead window.  Counts
    /// hits and misses for exactly the `first..=last` range.  `size_hint` is
    /// the best known file size (the authoritative remote size once learned,
    /// otherwise whatever the caller trusts), bounding the fetch.
    fn ensure_pages(&self, file: &CachedFile, first: u64, last: u64, size_hint: u64) -> FsResult<()> {
        let page_size = self.page_size as u64;
        let mut map = file.pages.lock();
        // Count hits/misses for the requested range before fetching.
        let mut missing: Vec<u64> = Vec::new();
        {
            let mut stats = self.stats.lock();
            for page in first..=last {
                if map.pages.contains_key(&page) {
                    stats.cache_hits += 1;
                } else {
                    missing.push(page);
                }
            }
        }
        if missing.is_empty() {
            return Ok(());
        }
        // Coalesce the missing pages into contiguous runs, then extend the
        // final run by the read-ahead window — but only across pages that
        // are actually missing, so read-ahead never refetches cached data.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for page in missing {
            match runs.last_mut() {
                Some((_, end)) if *end + 1 == page => *end = page,
                _ => runs.push((page, page)),
            }
        }
        if let Some((_, end)) = runs.last_mut() {
            let mut extra = 0;
            while extra < self.readahead_pages && !map.pages.contains_key(&(*end + 1)) {
                *end += 1;
                extra += 1;
            }
        }
        for (start, end) in runs {
            // Clamp to the (best-known) end of the file.
            let size = map.remote_size.unwrap_or(size_hint);
            let last_page = if size == 0 { 0 } else { (size - 1) / page_size };
            let end = end.min(last_page);
            let start = start.min(end);
            let fetch_from = start * page_size;
            let fetch_len = ((end - start + 1) * page_size) as usize;
            let (bytes, total) = self
                .endpoint
                .fetch_range(&file.path, fetch_from, fetch_len)
                .map_err(Self::map_fetch_error)?;
            map.remote_size = Some(total);
            {
                let mut stats = self.stats.lock();
                stats.fetches += 1;
                stats.bytes_fetched += bytes.len() as u64;
            }
            let mut fetched_pages = 0u64;
            for (i, chunk) in bytes.chunks(self.page_size).enumerate() {
                map.pages.insert(start + i as u64, Arc::new(chunk.to_vec()));
                fetched_pages += 1;
            }
            if bytes.is_empty() && total == 0 {
                // Zero-length remote file: remember the (single, empty) page
                // so is_cached and repeat reads do not refetch.
                map.pages.insert(0, Arc::new(Vec::new()));
                fetched_pages = 1;
            }
            self.stats.lock().pages_fetched += fetched_pages;
        }
        Ok(())
    }

    /// Reads `[offset, offset+len)` of `file` out of the page cache, faulting
    /// pages in as needed.
    fn read_cached(&self, file: &CachedFile, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let known = file.pages.lock().remote_size;
        // Until the remote reports its authoritative size, trust the larger
        // of the manifest and the request itself: a manifest that understates
        // the real size must not silently truncate reads.
        let size = known.unwrap_or_else(|| file.manifest_size.max(offset.saturating_add(len as u64)));
        let start = offset.min(size);
        let end = start.saturating_add(len as u64).min(size);
        if start >= end {
            // Still touch the remote once for never-fetched files so a ghost
            // manifest entry surfaces ENOENT rather than succeeding.
            if known.is_none() {
                self.ensure_pages(file, 0, 0, size.max(1))?;
                return self.read_cached(file, offset, len);
            }
            return Ok(Vec::new());
        }
        let page_size = self.page_size as u64;
        let first = start / page_size;
        let last = (end - 1) / page_size;
        self.ensure_pages(file, first, last, size)?;
        // The remote may have reported a different authoritative size
        // (smaller or larger than the manifest claimed); re-clamp.
        let size = file.size();
        let start = offset.min(size);
        let end = offset.saturating_add(len as u64).min(size);
        if start >= end {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity((end - start) as usize);
        let map = file.pages.lock();
        for page in first..=last {
            let page_start = page * page_size;
            let Some(data) = map.pages.get(&page) else { break };
            let from = start.saturating_sub(page_start).min(data.len() as u64) as usize;
            let to = (end.saturating_sub(page_start)).min(data.len() as u64) as usize;
            if from < to {
                out.extend_from_slice(&data[from..to]);
            }
        }
        Ok(out)
    }
}

/// A lazily-loading, read-only file system backed by a remote HTTP server,
/// caching file contents in pages.
pub struct HttpFs {
    inner: Arc<HttpInner>,
}

/// An open `httpfs` file: bound to the file's page map at open time, so reads
/// go straight to the cache without a manifest lookup.
struct HttpHandle {
    file: Arc<CachedFile>,
    inner: Arc<HttpInner>,
    mounted_ms: u64,
}

impl FileHandle for HttpHandle {
    fn backend_name(&self) -> &'static str {
        "httpfs"
    }

    fn metadata(&self) -> FsResult<Metadata> {
        Ok(Metadata {
            file_type: FileType::Regular,
            size: self.file.size(),
            mode: 0o444,
            mtime_ms: self.mounted_ms,
            atime_ms: self.mounted_ms,
        })
    }

    fn read_at(&self, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.inner.read_cached(&self.file, offset, len)
    }

    fn write_at(&self, _offset: u64, _data: &[u8]) -> FsResult<usize> {
        Err(Errno::EROFS)
    }

    fn truncate(&self, _size: u64) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    fn map_page(&self, page_index: u64, page_size: usize) -> FsResult<Arc<Vec<u8>>> {
        // When the mapping's page geometry matches the block cache's, hand
        // out the cache page itself: the mapping references page-cache memory
        // with no copy.  Mismatched geometries (or a short tail page, which
        // mmap must zero-fill to a full page) fall back to the copying
        // default.
        if page_size == self.inner.page_size {
            let offset = page_index * page_size as u64;
            let size = {
                let known = self.file.pages.lock().remote_size;
                known.unwrap_or_else(|| self.file.size())
            };
            if offset + page_size as u64 <= size {
                self.inner.ensure_pages(&self.file, page_index, page_index, size)?;
                if let Some(page) = self.file.pages.lock().pages.get(&page_index) {
                    if page.len() == page_size {
                        return Ok(Arc::clone(page));
                    }
                }
            }
        }
        let mut data = self.read_at(page_index * page_size as u64, page_size)?;
        data.resize(page_size, 0);
        Ok(Arc::new(data))
    }
}

impl std::fmt::Debug for HttpFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpFs")
            .field("files", &self.inner.manifest.len())
            .field("page_size", &self.inner.page_size)
            .field("stats", &self.stats())
            .finish()
    }
}

impl HttpFs {
    /// Creates an HTTP-backed file system from a manifest of
    /// `(path, size_in_bytes)` entries served by `endpoint`.
    pub fn new(endpoint: RemoteEndpoint, manifest: impl IntoIterator<Item = (String, u64)>) -> HttpFs {
        let manifest = manifest
            .into_iter()
            .map(|(path, size)| (normalize(&path), size))
            .collect();
        HttpFs {
            inner: Arc::new(HttpInner {
                endpoint,
                manifest,
                page_size: DEFAULT_PAGE_SIZE,
                readahead_pages: DEFAULT_READAHEAD_PAGES,
                files: Mutex::new(HashMap::new()),
                stats: Mutex::new(HttpFsStats::default()),
                mounted_ms: now_millis(),
            }),
        }
    }

    /// Sets the page-cache block size (bytes, must be non-zero).  Smaller
    /// pages reduce over-fetch for random reads; larger pages amortise round
    /// trips for sequential ones.  This is the knob the README documents.
    pub fn with_page_size(mut self, page_size: usize) -> HttpFs {
        assert!(page_size > 0, "page size must be non-zero");
        Arc::get_mut(&mut self.inner)
            .expect("with_page_size must be called before handles are opened")
            .page_size = page_size;
        self
    }

    /// Sets how many extra pages a miss fetches beyond the requested range.
    pub fn with_readahead(mut self, pages: u64) -> HttpFs {
        Arc::get_mut(&mut self.inner)
            .expect("with_readahead must be called before handles are opened")
            .readahead_pages = pages;
        self
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Number of files advertised by the manifest.
    pub fn manifest_len(&self) -> usize {
        self.inner.manifest.len()
    }

    /// Fetch statistics so far.
    pub fn stats(&self) -> HttpFsStats {
        *self.inner.stats.lock()
    }

    /// Whether every page of `path` has been fetched into the cache.
    pub fn is_cached(&self, path: &str) -> bool {
        let normalized = normalize(path);
        let files = self.inner.files.lock();
        let Some(file) = files.get(&normalized) else {
            return false;
        };
        let map = file.pages.lock();
        let Some(size) = map.remote_size else { return false };
        if size == 0 {
            return true;
        }
        let last_page = (size - 1) / self.inner.page_size as u64;
        (0..=last_page).all(|p| map.pages.contains_key(&p))
    }

    fn is_implied_dir(&self, path: &str) -> bool {
        let normalized = normalize(path);
        if normalized == "/" {
            return true;
        }
        let prefix = format!("{normalized}/");
        self.inner.manifest.keys().any(|p| p.starts_with(&prefix))
    }
}

impl FileSystem for HttpFs {
    fn backend_name(&self) -> &'static str {
        "httpfs"
    }

    fn read_only(&self) -> bool {
        true
    }

    fn io_stats(&self) -> IoStats {
        let stats = self.stats();
        IoStats {
            page_cache_hits: stats.cache_hits,
            page_cache_misses: stats.pages_fetched,
            ..IoStats::default()
        }
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let normalized = normalize(path);
        if self.inner.manifest.contains_key(&normalized) {
            // Prefer the authoritative (remote-reported) size once any page
            // of the file has been fetched.
            let size = self
                .inner
                .files
                .lock()
                .get(&normalized)
                .map(|f| f.size())
                .unwrap_or_else(|| self.inner.manifest[&normalized]);
            return Ok(Metadata {
                file_type: FileType::Regular,
                size,
                mode: 0o444,
                mtime_ms: self.inner.mounted_ms,
                atime_ms: self.inner.mounted_ms,
            });
        }
        if self.is_implied_dir(&normalized) {
            return Ok(Metadata {
                file_type: FileType::Directory,
                size: 0,
                mode: 0o555,
                mtime_ms: self.inner.mounted_ms,
                atime_ms: self.inner.mounted_ms,
            });
        }
        Err(Errno::ENOENT)
    }

    fn read_dir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let normalized = normalize(path);
        if self.inner.manifest.contains_key(&normalized) {
            return Err(Errno::ENOTDIR);
        }
        if !self.is_implied_dir(&normalized) {
            return Err(Errno::ENOENT);
        }
        let depth = components(&normalized).len();
        let prefix = if normalized == "/" {
            String::from("/")
        } else {
            format!("{normalized}/")
        };
        let mut entries: BTreeMap<String, FileType> = BTreeMap::new();
        for file_path in self.inner.manifest.keys() {
            if !file_path.starts_with(&prefix) {
                continue;
            }
            let comps = components(file_path);
            if comps.len() == depth + 1 {
                entries.insert(comps[depth].clone(), FileType::Regular);
            } else if comps.len() > depth + 1 {
                entries.entry(comps[depth].clone()).or_insert(FileType::Directory);
            }
        }
        Ok(entries
            .into_iter()
            .map(|(name, file_type)| DirEntry { name, file_type })
            .collect())
    }

    fn mkdir(&self, _path: &str) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    fn rmdir(&self, _path: &str) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    fn create(&self, _path: &str, _mode: u32) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    fn unlink(&self, _path: &str) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    fn rename(&self, _from: &str, _to: &str) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    /// Reads a whole file, re-checking the size after the first fetch so a
    /// manifest that under- (or over-)states the remote size still yields the
    /// complete authoritative contents.
    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let handle = self.open_handle(path, OpenFlags::read_only())?;
        crate::handle::read_full(handle.as_ref())
    }

    fn open_handle(&self, path: &str, flags: OpenFlags) -> FsResult<Arc<dyn FileHandle>> {
        deny_write_open(flags)?;
        let normalized = normalize(path);
        if !self.inner.manifest.contains_key(&normalized) {
            if self.is_implied_dir(&normalized) {
                return Err(Errno::EISDIR);
            }
            return Err(Errno::ENOENT);
        }
        let file = self.inner.cached_file(&normalized)?;
        Ok(Arc::new(HttpHandle {
            file,
            inner: Arc::clone(&self.inner),
            mounted_ms: self.inner.mounted_ms,
        }))
    }

    fn set_times(&self, _path: &str, _atime_ms: u64, _mtime_ms: u64) -> FsResult<()> {
        Err(Errno::EROFS)
    }

    fn chmod(&self, _path: &str, _mode: u32) -> FsResult<()> {
        Err(Errno::EROFS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browsix_browser::{NetworkProfile, StaticFiles};

    fn texlive_fs() -> HttpFs {
        let files = StaticFiles::new();
        files.insert("/texmf/article.cls", b"class file contents".to_vec());
        files.insert("/texmf/fonts/cmr10.tfm", b"metric".to_vec());
        files.insert("/texmf/plain.fmt", vec![7u8; 1024]);
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        HttpFs::new(
            endpoint,
            vec![
                ("/texmf/article.cls".to_string(), 19),
                ("/texmf/fonts/cmr10.tfm".to_string(), 6),
                ("/texmf/plain.fmt".to_string(), 1024),
            ],
        )
    }

    #[test]
    fn files_are_fetched_lazily_and_cached() {
        let fs = texlive_fs();
        assert_eq!(fs.stats(), HttpFsStats::default());
        assert!(!fs.is_cached("/texmf/article.cls"));

        let data = fs.read_file("/texmf/article.cls").unwrap();
        assert_eq!(data, b"class file contents");
        assert!(fs.is_cached("/texmf/article.cls"));
        let after_first = fs.stats();
        assert_eq!(after_first.fetches, 1);
        assert_eq!(after_first.bytes_fetched, 19);

        // Second read hits the page cache: no new fetch.
        let _ = fs.read_file("/texmf/article.cls").unwrap();
        let after_second = fs.stats();
        assert_eq!(after_second.fetches, 1);
        assert!(after_second.cache_hits >= 1);
    }

    #[test]
    fn stat_uses_manifest_without_fetching() {
        let fs = texlive_fs();
        let meta = fs.stat("/texmf/plain.fmt").unwrap();
        assert_eq!(meta.size, 1024);
        assert_eq!(fs.stats().fetches, 0);
        assert!(fs.stat("/texmf").unwrap().is_dir());
        assert_eq!(fs.stat("/missing.sty"), Err(Errno::ENOENT));
    }

    #[test]
    fn read_dir_reflects_manifest_structure() {
        let fs = texlive_fs();
        let names: Vec<String> = fs.read_dir("/texmf").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["article.cls", "fonts", "plain.fmt"]);
        assert_eq!(fs.manifest_len(), 3);
        assert_eq!(fs.read_dir("/texmf/article.cls"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn offline_endpoint_surfaces_enetunreach() {
        let files = StaticFiles::new();
        files.insert("/pkg.sty", b"x".to_vec());
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        endpoint.set_online(false);
        let fs = HttpFs::new(endpoint, vec![("/pkg.sty".to_string(), 1)]);
        assert_eq!(fs.read_file("/pkg.sty"), Err(Errno::ENETUNREACH));
    }

    #[test]
    fn manifest_entry_missing_remotely_is_enoent() {
        let endpoint = RemoteEndpoint::with_static_files(StaticFiles::new(), NetworkProfile::instant());
        let fs = HttpFs::new(endpoint, vec![("/ghost.sty".to_string(), 10)]);
        assert_eq!(fs.read_file("/ghost.sty"), Err(Errno::ENOENT));
    }

    #[test]
    fn writes_are_rejected() {
        let fs = texlive_fs();
        assert!(fs.read_only());
        assert_eq!(fs.write_at("/texmf/article.cls", 0, b"x"), Err(Errno::EROFS));
        assert_eq!(fs.create("/new.sty", 0o644), Err(Errno::EROFS));
        assert_eq!(fs.unlink("/texmf/article.cls"), Err(Errno::EROFS));
        assert_eq!(fs.mkdir("/newdir"), Err(Errno::EROFS));
    }

    // ---- page-cache behaviour -------------------------------------------------

    /// A 1000-byte file served in 100-byte pages with 2 pages of read-ahead.
    fn paged_fs() -> HttpFs {
        let files = StaticFiles::new();
        let body: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        files.insert("/big.bin", body);
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        HttpFs::new(endpoint, vec![("/big.bin".to_string(), 1000)])
            .with_page_size(100)
            .with_readahead(2)
    }

    #[test]
    fn random_reads_fetch_only_touched_pages() {
        let fs = paged_fs();
        // One 10-byte read in the middle of the file: one ranged fetch of
        // page 5 plus 2 read-ahead pages = 300 bytes, not the whole 1000.
        let data = fs.read_at("/big.bin", 500, 10).unwrap();
        assert_eq!(data.len(), 10);
        assert_eq!(data[0], (500u32 % 251) as u8);
        let stats = fs.stats();
        assert_eq!(stats.fetches, 1);
        assert_eq!(stats.pages_fetched, 3);
        assert_eq!(stats.bytes_fetched, 300);
        assert!(!fs.is_cached("/big.bin"));
    }

    #[test]
    fn sequential_reads_benefit_from_readahead() {
        let fs = paged_fs();
        let h = fs.open_handle("/big.bin", OpenFlags::read_only()).unwrap();
        let mut assembled = Vec::new();
        for chunk_start in (0..1000).step_by(100) {
            assembled.extend(h.read_at(chunk_start as u64, 100).unwrap());
        }
        assert_eq!(assembled.len(), 1000);
        assert_eq!(assembled[999], (999u32 % 251) as u8);
        let stats = fs.stats();
        // 10 pages, each miss run pulls readahead: far fewer fetches than
        // pages, and every byte fetched exactly once.
        assert!(stats.fetches < 10, "fetches = {}", stats.fetches);
        assert_eq!(stats.bytes_fetched, 1000);
        assert!(stats.cache_hits > 0);
        assert!(fs.is_cached("/big.bin"));
    }

    #[test]
    fn reads_spanning_page_boundaries_assemble_correctly() {
        let fs = paged_fs();
        let data = fs.read_at("/big.bin", 95, 10).unwrap();
        let expected: Vec<u8> = (95..105u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(data, expected);
        // Read past the end is short.
        assert_eq!(fs.read_at("/big.bin", 990, 100).unwrap().len(), 10);
        assert!(fs.read_at("/big.bin", 2000, 10).unwrap().is_empty());
    }

    #[test]
    fn readahead_never_refetches_cached_pages() {
        let fs = paged_fs();
        // Fault page 5: the read-ahead window pulls pages 5-7.
        let _ = fs.read_at("/big.bin", 500, 10).unwrap();
        assert_eq!(fs.stats().bytes_fetched, 300);
        // Fault page 4: pages 5-7 are cached, so the read-ahead extension
        // must stop at page 5 and fetch exactly one page.
        let _ = fs.read_at("/big.bin", 400, 10).unwrap();
        let stats = fs.stats();
        assert_eq!(stats.fetches, 2);
        assert_eq!(stats.pages_fetched, 4, "page 5-7 must not be re-fetched");
        assert_eq!(stats.bytes_fetched, 400);
    }

    #[test]
    fn understated_manifest_size_does_not_truncate_reads() {
        // Manifest claims 100 bytes; the remote file is really 1000.
        let files = StaticFiles::new();
        let body: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        files.insert("/grown.bin", body.clone());
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        let fs = HttpFs::new(endpoint, vec![("/grown.bin".to_string(), 100)]).with_page_size(100);

        // An explicit long read returns everything the remote has.
        assert_eq!(fs.read_at("/grown.bin", 0, 1000).unwrap(), body);
        // Whole-file reads learn the corrected size and return it all.
        let fs2 = {
            let files = StaticFiles::new();
            files.insert("/grown.bin", body.clone());
            let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
            HttpFs::new(endpoint, vec![("/grown.bin".to_string(), 100)]).with_page_size(100)
        };
        assert_eq!(fs2.read_file("/grown.bin").unwrap(), body);
        assert_eq!(fs2.stat("/grown.bin").unwrap().size, 1000);
    }

    #[test]
    fn handle_metadata_tracks_authoritative_size() {
        // Manifest lies about the size; the first fetch corrects it.
        let files = StaticFiles::new();
        files.insert("/short.txt", b"abc".to_vec());
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        let fs = HttpFs::new(endpoint, vec![("/short.txt".to_string(), 999)]);
        let h = fs.open_handle("/short.txt", OpenFlags::read_only()).unwrap();
        assert_eq!(h.metadata().unwrap().size, 999);
        assert_eq!(h.read_at(0, 100).unwrap(), b"abc");
        assert_eq!(h.metadata().unwrap().size, 3);
        assert_eq!(fs.stat("/short.txt").unwrap().size, 3);
    }

    #[test]
    fn open_handle_enforces_types_and_read_only() {
        let fs = texlive_fs();
        assert!(matches!(
            fs.open_handle("/texmf", OpenFlags::read_only()),
            Err(Errno::EISDIR)
        ));
        assert!(matches!(
            fs.open_handle("/nope", OpenFlags::read_only()),
            Err(Errno::ENOENT)
        ));
        assert!(matches!(
            fs.open_handle("/texmf/article.cls", OpenFlags::read_write()),
            Err(Errno::EROFS)
        ));
        let h = fs.open_handle("/texmf/article.cls", OpenFlags::read_only()).unwrap();
        assert_eq!(h.write_at(0, b"x"), Err(Errno::EROFS));
        assert_eq!(h.truncate(0), Err(Errno::EROFS));
        assert_eq!(h.backend_name(), "httpfs");
    }

    #[test]
    fn io_stats_report_page_counters() {
        let fs = paged_fs();
        let _ = fs.read_at("/big.bin", 0, 100).unwrap();
        let _ = fs.read_at("/big.bin", 0, 100).unwrap();
        let io = fs.io_stats();
        assert!(io.page_cache_misses > 0);
        assert!(io.page_cache_hits > 0);
        assert_eq!(io.dentry_hits, 0);
        assert_eq!(io.copy_ups, 0);
    }
}
