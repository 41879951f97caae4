//! Virtual memory: address spaces, regions, copy-on-write pages and shared
//! memory objects.
//!
//! Browsix processes have no hardware page tables — the "MMU" is this module,
//! which is exactly the situation the Virtual Block Interface work argues for:
//! a flexible VM layer built outside the conventional page-table framework.
//! Each task owns an [`AddressSpace`]: an ordered map of page-aligned
//! [`Region`]s, each holding a vector of [`PageSlot`]s.  A page is one of
//!
//! * **zero** — an untouched anonymous page; logically all zeroes, no storage
//!   allocated until first write;
//! * **RAM** — a materialised page behind an `Arc`.  The `Arc` is the
//!   refcount: `fork` clones the region map and shares every page
//!   (`pages_shared`), and the first write through a shared `Arc` is the
//!   **copy-on-write fault**, serviced in the kernel by `Arc::make_mut`
//!   (`cow_faults`/`pages_copied`).  File-backed `MAP_PRIVATE` mappings fault
//!   their pages in through [`FileHandle::map_page`], so a mapped `httpfs`
//!   file *references the VFS page cache* directly — until a write copies the
//!   touched page, leaving the cache untouched;
//! * **shared** — a `MAP_SHARED` region carries no page vector at all: its
//!   bytes live in a [`SharedArrayBuffer`] that the kernel also hands to the
//!   process, giving the guest a zero-syscall data path (the same mechanism
//!   the synchronous system-call convention uses for its shared heap).
//!   `msync` copies the buffer back through the backing [`FileHandle`], so
//!   `read(2)` on a mapped shm object observes mapped writes.
//!
//! Private mappings are accessed through the `VmRead`/`VmWrite` system calls
//! (the simulated analogue of a load/store that may fault); shared mappings
//! are accessed directly through the delivered buffer.  `munmap`/`mprotect`
//! operate on whole regions — a deliberate simplification over splitting.

use std::collections::BTreeMap;
use std::sync::Arc;

use browsix_browser::SharedArrayBuffer;
use browsix_fs::{detached_handle, Errno, FileHandle};
use parking_lot::Mutex;

/// Page size of the simulated MMU (bytes).
pub const PAGE_SIZE: usize = 4096;

/// Lowest address the bump allocator hands out for `addr = 0` mappings.
pub const MAP_BASE: u64 = 0x1000_0000;

/// `PROT_READ`: the mapping may be read.
pub const PROT_READ: u32 = 1;
/// `PROT_WRITE`: the mapping may be written.
pub const PROT_WRITE: u32 = 2;

/// `MAP_SHARED`: writes are visible to every mapper (and, via `msync`, the
/// backing object).
pub const MAP_SHARED: u32 = 1;
/// `MAP_PRIVATE`: writes are copy-on-write, never visible outside the task.
pub const MAP_PRIVATE: u32 = 2;
/// `MAP_ANONYMOUS`: not backed by a file.
pub const MAP_ANONYMOUS: u32 = 0x20;

/// The most bytes one mapping may span: 4 GiB, the whole address space of
/// a 32-bit guest (asm.js and wasm32 heaps can address no more).
pub const MAX_MAP_LEN: u64 = 1 << 32;

/// Rounds `len` up to a whole number of pages.
///
/// # Errors
///
/// [`Errno::EINVAL`] if that is past `u64::MAX`.
pub fn page_align(len: u64) -> Result<u64, Errno> {
    len.checked_next_multiple_of(PAGE_SIZE as u64).ok_or(Errno::EINVAL)
}

/// The length of a new mapping of `len` bytes, in whole pages, checked
/// before anything is allocated for it.
///
/// # Errors
///
/// [`Errno::EINVAL`] for a zero length; [`Errno::ENOMEM`] past
/// [`MAX_MAP_LEN`].
pub fn map_len(len: u64) -> Result<u64, Errno> {
    match len {
        0 => Err(Errno::EINVAL),
        len if len > MAX_MAP_LEN => Err(Errno::ENOMEM),
        len => page_align(len),
    }
}

/// One page of a private region.
#[derive(Clone)]
pub enum PageSlot {
    /// Untouched anonymous page: all zeroes, no storage allocated.
    Zero,
    /// A materialised page.  `Arc::strong_count > 1` means the page is shared
    /// — with a forked sibling (COW) or with a backend's page cache — and the
    /// next write must copy.
    Ram(Arc<Vec<u8>>),
}

/// What backs a region's bytes.
#[derive(Clone)]
pub enum RegionKind {
    /// `MAP_PRIVATE`: anonymous or file-backed, pages held per region.
    Private,
    /// `MAP_SHARED`: bytes live in the shared buffer (also held by every
    /// process that mapped it); `handle` is the `msync` write-back target.
    Shared {
        /// The shared memory carrying the object's bytes.
        sab: SharedArrayBuffer,
        /// Backing file/shm object, if any.
        handle: Option<Arc<dyn FileHandle>>,
    },
}

/// A contiguous page-aligned mapping.
#[derive(Clone)]
pub struct Region {
    /// Starting virtual address (page-aligned).
    pub base: u64,
    /// Length in bytes (a whole number of pages).
    pub len: u64,
    /// `PROT_READ` | `PROT_WRITE`.
    pub prot: u32,
    /// Byte offset into the backing object where the mapping starts
    /// (page-aligned; 0 for anonymous mappings).
    pub offset: u64,
    kind: RegionKind,
    pages: Vec<PageSlot>,
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("base", &format_args!("{:#x}", self.base))
            .field("len", &self.len)
            .field("prot", &self.prot)
            .field("shared", &self.is_shared())
            .field("resident", &self.resident_pages())
            .finish()
    }
}

impl Region {
    /// Whether this is a `MAP_SHARED` region.
    pub fn is_shared(&self) -> bool {
        matches!(self.kind, RegionKind::Shared { .. })
    }

    /// Number of materialised (RAM) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|s| matches!(s, PageSlot::Ram(_))).count()
    }
}

/// Page-sharing/copying activity reported back from an [`AddressSpace`]
/// operation, accumulated into the kernel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmDelta {
    /// Copy-on-write faults serviced (a write hit a shared page).
    pub cow_faults: u64,
    /// Pages shared by reference (fork, file-backed mapping).
    pub pages_shared: u64,
    /// Pages physically copied (each COW fault copies one page).
    pub pages_copied: u64,
}

/// A task's virtual address space: regions ordered by base address, plus a
/// bump allocator for `addr = 0` mappings.
#[derive(Clone)]
pub struct AddressSpace {
    regions: BTreeMap<u64, Region>,
    next_base: u64,
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("regions", &self.regions.len())
            .field("resident_pages", &self.resident_page_count())
            .finish()
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            regions: BTreeMap::new(),
            next_base: MAP_BASE,
        }
    }

    /// Number of mapped regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total materialised (RAM) pages across all private regions.
    pub fn resident_page_count(&self) -> usize {
        self.regions.values().map(Region::resident_pages).sum()
    }

    /// The region containing `[addr, addr + len)`, or `EFAULT`.  Accesses
    /// may not span regions (regions are allocated with guard gaps).
    fn region_containing(&self, addr: u64, len: u64) -> Result<&Region, Errno> {
        let (_, region) = self.regions.range(..=addr).next_back().ok_or(Errno::EFAULT)?;
        if addr.checked_add(len).is_some_and(|end| end <= region.base + region.len) {
            Ok(region)
        } else {
            Err(Errno::EFAULT)
        }
    }

    fn region_containing_mut(&mut self, addr: u64, len: u64) -> Result<&mut Region, Errno> {
        let (_, region) = self.regions.range_mut(..=addr).next_back().ok_or(Errno::EFAULT)?;
        if addr.checked_add(len).is_some_and(|end| end <= region.base + region.len) {
            Ok(region)
        } else {
            Err(Errno::EFAULT)
        }
    }

    /// Picks (or validates) a base address for a new `len`-byte mapping.
    /// Every mapping is followed by a one-page guard gap, so accesses can
    /// never run off the end of one region into the next; a mapping whose
    /// gap would end past `u64::MAX` is `EINVAL`.
    fn alloc_range(&mut self, addr_hint: u64, len: u64) -> Result<u64, Errno> {
        if !addr_hint.is_multiple_of(PAGE_SIZE as u64) {
            return Err(Errno::EINVAL);
        }
        let base = if addr_hint == 0 { self.next_base } else { addr_hint };
        let end = base.checked_add(len).ok_or(Errno::EINVAL)?;
        let next = end.checked_add(PAGE_SIZE as u64).ok_or(Errno::EINVAL)?;
        // A fixed address must not overlap an existing region.
        if addr_hint != 0 && self.regions.values().any(|r| base < r.base + r.len && r.base < end) {
            return Err(Errno::EEXIST);
        }
        self.next_base = self.next_base.max(next);
        Ok(base)
    }

    /// Maps `len` bytes of zero-filled anonymous private memory, returning
    /// the base address.  No storage is allocated until first write.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] for a zero length or unaligned fixed address;
    /// [`Errno::ENOMEM`] past [`MAX_MAP_LEN`]; [`Errno::EEXIST`] if a fixed
    /// address overlaps an existing mapping.
    pub fn map_anonymous(&mut self, addr_hint: u64, len: u64, prot: u32) -> Result<u64, Errno> {
        let len = map_len(len)?;
        let base = self.alloc_range(addr_hint, len)?;
        let pages = vec![PageSlot::Zero; (len / PAGE_SIZE as u64) as usize];
        self.regions.insert(
            base,
            Region {
                base,
                len,
                prot,
                offset: 0,
                kind: RegionKind::Private,
                pages,
            },
        );
        Ok(base)
    }

    /// Maps `[offset, offset + len)` of a file `MAP_PRIVATE`: every page is a
    /// reference into the backend's page cache ([`FileHandle::map_page`]),
    /// copied only when written.  Returns the base address and the
    /// pages-shared delta.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] for a zero length or unaligned offset/fixed address;
    /// [`Errno::ENOMEM`] past [`MAX_MAP_LEN`]; the handle's errors faulting
    /// pages in.
    pub fn map_file(
        &mut self,
        handle: &Arc<dyn FileHandle>,
        offset: u64,
        len: u64,
        addr_hint: u64,
        prot: u32,
    ) -> Result<(u64, VmDelta), Errno> {
        let len = map_len(len)?;
        if !offset.is_multiple_of(PAGE_SIZE as u64) {
            return Err(Errno::EINVAL);
        }
        let first_page = offset / PAGE_SIZE as u64;
        let mut pages = Vec::with_capacity((len / PAGE_SIZE as u64) as usize);
        let mut delta = VmDelta::default();
        for i in 0..len / PAGE_SIZE as u64 {
            let page = handle.map_page(first_page + i, PAGE_SIZE)?;
            delta.pages_shared += 1;
            pages.push(PageSlot::Ram(page));
        }
        let base = self.alloc_range(addr_hint, len)?;
        self.regions.insert(
            base,
            Region {
                base,
                len,
                prot,
                offset,
                kind: RegionKind::Private,
                pages,
            },
        );
        Ok((base, delta))
    }

    /// Maps `len` bytes of `sab` (starting at byte `offset`) `MAP_SHARED`.
    /// The caller delivers the same buffer to the process, whose loads and
    /// stores then touch the mapping without any system call.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] if the window is zero-length, unaligned or exceeds
    /// the buffer; [`Errno::ENOMEM`] past [`MAX_MAP_LEN`];
    /// [`Errno::EEXIST`] for an overlapping fixed address.
    pub fn map_shared(
        &mut self,
        sab: SharedArrayBuffer,
        handle: Option<Arc<dyn FileHandle>>,
        offset: u64,
        len: u64,
        addr_hint: u64,
        prot: u32,
    ) -> Result<u64, Errno> {
        let in_buffer = offset.checked_add(len).is_some_and(|end| end <= sab.len() as u64);
        if !offset.is_multiple_of(PAGE_SIZE as u64) || !in_buffer {
            return Err(Errno::EINVAL);
        }
        let len = map_len(len)?;
        let base = self.alloc_range(addr_hint, len)?;
        self.regions.insert(
            base,
            Region {
                base,
                len,
                prot,
                offset,
                kind: RegionKind::Shared { sab, handle },
                pages: Vec::new(),
            },
        );
        Ok(base)
    }

    /// Unmaps the whole region based at `addr` (partial unmaps are not
    /// supported), returning it.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] if `addr` is not a region base or `len` does not
    /// cover the whole region.
    pub fn unmap(&mut self, addr: u64, len: u64) -> Result<Region, Errno> {
        let len = page_align(len)?;
        match self.regions.get(&addr) {
            Some(region) if region.len == len => Ok(self.regions.remove(&addr).expect("present")),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Changes the whole region's protection (partial ranges are not
    /// supported).
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] if the range is not exactly one region.
    pub fn protect(&mut self, addr: u64, len: u64, prot: u32) -> Result<(), Errno> {
        let len = page_align(len)?;
        match self.regions.get_mut(&addr) {
            Some(region) if region.len == len => {
                region.prot = prot;
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// Reads `len` bytes at `addr` (the simulated load; `VmRead`).
    ///
    /// # Errors
    ///
    /// [`Errno::EFAULT`] outside any region, [`Errno::EACCES`] without
    /// `PROT_READ`.
    pub fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let region = self.region_containing(addr, len as u64)?;
        if region.prot & PROT_READ == 0 {
            return Err(Errno::EACCES);
        }
        let rel = addr - region.base;
        match &region.kind {
            RegionKind::Shared { sab, .. } => sab
                .read_bytes((region.offset + rel) as usize, len)
                .map_err(|_| Errno::EFAULT),
            RegionKind::Private => {
                let mut out = Vec::with_capacity(len);
                let mut pos = 0usize;
                while pos < len {
                    let at = rel as usize + pos;
                    let (page_idx, in_page) = (at / PAGE_SIZE, at % PAGE_SIZE);
                    let n = (PAGE_SIZE - in_page).min(len - pos);
                    match &region.pages[page_idx] {
                        PageSlot::Zero => out.extend(std::iter::repeat_n(0u8, n)),
                        PageSlot::Ram(page) => out.extend_from_slice(&page[in_page..in_page + n]),
                    }
                    pos += n;
                }
                Ok(out)
            }
        }
    }

    /// Writes `data` at `addr` (the simulated store; `VmWrite`).  A write
    /// that lands on a page whose `Arc` is shared — with a forked sibling or
    /// a page cache — is the copy-on-write fault: the page is copied once
    /// (`Arc::make_mut`) and the write proceeds on the private copy.
    ///
    /// # Errors
    ///
    /// [`Errno::EFAULT`] outside any region, [`Errno::EACCES`] without
    /// `PROT_WRITE`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<VmDelta, Errno> {
        let mut delta = VmDelta::default();
        if data.is_empty() {
            return Ok(delta);
        }
        let region = self.region_containing_mut(addr, data.len() as u64)?;
        if region.prot & PROT_WRITE == 0 {
            return Err(Errno::EACCES);
        }
        let rel = addr - region.base;
        match &mut region.kind {
            RegionKind::Shared { sab, .. } => {
                sab.write_bytes((region.offset + rel) as usize, data)
                    .map_err(|_| Errno::EFAULT)?;
            }
            RegionKind::Private => {
                let mut pos = 0usize;
                while pos < data.len() {
                    let at = rel as usize + pos;
                    let (page_idx, in_page) = (at / PAGE_SIZE, at % PAGE_SIZE);
                    let n = (PAGE_SIZE - in_page).min(data.len() - pos);
                    let slot = &mut region.pages[page_idx];
                    match slot {
                        PageSlot::Zero => {
                            // First touch of an anonymous page: materialise it.
                            let mut page = vec![0u8; PAGE_SIZE];
                            page[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
                            *slot = PageSlot::Ram(Arc::new(page));
                        }
                        PageSlot::Ram(page) => {
                            if Arc::strong_count(page) > 1 {
                                delta.cow_faults += 1;
                                delta.pages_copied += 1;
                            }
                            let bytes = Arc::make_mut(page);
                            bytes[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
                        }
                    }
                    pos += n;
                }
            }
        }
        Ok(delta)
    }

    /// Writes a `MAP_SHARED` region's bytes back through its backing handle,
    /// so descriptor reads of the object observe mapped writes.  Anonymous
    /// shared regions and private regions have nowhere to sync; `msync` on
    /// them succeeds as a no-op.
    ///
    /// # Errors
    ///
    /// [`Errno::EFAULT`] if the range is outside any region; the handle's
    /// write errors.
    pub fn msync(&self, addr: u64, len: u64) -> Result<(), Errno> {
        let region = self.region_containing(addr, len)?;
        let rel = addr - region.base;
        if let RegionKind::Shared {
            sab,
            handle: Some(handle),
        } = &region.kind
        {
            let span = if len == 0 { region.len - rel } else { len };
            let bytes = sab
                .read_bytes((region.offset + rel) as usize, span as usize)
                .map_err(|_| Errno::EFAULT)?;
            handle.write_at(region.offset + rel, &bytes)?;
        }
        Ok(())
    }

    /// Clones the space for `fork`: O(regions), not O(bytes).  Every RAM page
    /// is shared by reference (its `Arc` refcount rises), `MAP_SHARED`
    /// buffers alias the same memory, and the first post-fork write to a
    /// shared page COW-faults in [`AddressSpace::write`].
    pub fn fork_clone(&self) -> (AddressSpace, VmDelta) {
        let clone = self.clone();
        let delta = VmDelta {
            pages_shared: clone.resident_page_count() as u64,
            ..VmDelta::default()
        };
        (clone, delta)
    }

    /// Tears down every mapping (task exit).  With the `scavenger` feature
    /// this proves the refcount invariant: a page this space solely owned is
    /// actually freed (no leak), and a page shared with a sibling or a page
    /// cache survives for its other owners (no double free).
    pub fn release(&mut self) {
        #[cfg(feature = "scavenger")]
        let watchers: Vec<(std::sync::Weak<Vec<u8>>, usize)> = self
            .regions
            .values()
            .flat_map(|r| r.pages.iter())
            .filter_map(|slot| match slot {
                PageSlot::Ram(page) => Some((Arc::downgrade(page), Arc::strong_count(page))),
                PageSlot::Zero => None,
            })
            .collect();
        self.regions.clear();
        self.next_base = MAP_BASE;
        #[cfg(feature = "scavenger")]
        for (watcher, owners) in watchers {
            if owners == 1 {
                debug_assert!(watcher.upgrade().is_none(), "sole-owner page leaked at release");
            } else {
                debug_assert!(watcher.upgrade().is_some(), "shared page double-freed at release");
            }
        }
    }
}

/// A named POSIX shared-memory object (`shm_open`): an anonymous VFS inode
/// (so `ftruncate`/`read`/`write` on its descriptors just work) plus the
/// `SharedArrayBuffer` every `MAP_SHARED` mapping of it aliases.
pub struct ShmObject {
    /// Descriptor I/O target: a detached in-memory inode.
    pub handle: Arc<dyn FileHandle>,
    /// Created lazily at first `mmap`, sized to the object (SABs cannot
    /// grow); seeded with the inode's contents.
    sab: Mutex<Option<SharedArrayBuffer>>,
}

impl std::fmt::Debug for ShmObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmObject").field("mapped", &self.is_mapped()).finish()
    }
}

impl Default for ShmObject {
    fn default() -> Self {
        ShmObject::new()
    }
}

impl ShmObject {
    /// An empty, zero-length object (size it with `ftruncate`).
    pub fn new() -> ShmObject {
        ShmObject {
            handle: detached_handle(Vec::new()),
            sab: Mutex::new(None),
        }
    }

    /// Whether any mapping has been created yet.
    pub fn is_mapped(&self) -> bool {
        self.sab.lock().is_some()
    }

    /// The buffer backing this object's mappings, created at first call
    /// sized to the object and seeded with its contents.  Every subsequent
    /// mapping aliases the same memory, which is what makes it shared.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] if the object still has zero size, [`Errno::ENOMEM`]
    /// if it is larger than [`MAX_MAP_LEN`].
    pub fn sab_for_mapping(&self) -> Result<SharedArrayBuffer, Errno> {
        let mut slot = self.sab.lock();
        if let Some(sab) = slot.as_ref() {
            return Ok(sab.clone());
        }
        let size = map_len(self.handle.metadata()?.size)?;
        let sab = SharedArrayBuffer::new(size as usize);
        let seed = self.handle.read_at(0, size as usize)?;
        sab.write_bytes(0, &seed).map_err(|_| Errno::EIO)?;
        *slot = Some(sab.clone());
        Ok(sab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_pages_are_zero_until_written() {
        let mut space = AddressSpace::new();
        let base = space
            .map_anonymous(0, 3 * PAGE_SIZE as u64, PROT_READ | PROT_WRITE)
            .unwrap();
        assert_eq!(base, MAP_BASE);
        assert_eq!(space.read(base, 16).unwrap(), vec![0u8; 16]);
        assert_eq!(space.resident_page_count(), 0, "no storage before first write");
        space.write(base + 10, b"hello").unwrap();
        assert_eq!(space.read(base + 8, 9).unwrap(), b"\0\0hello\0\0");
        assert_eq!(space.resident_page_count(), 1, "only the touched page materialises");
    }

    #[test]
    fn lengths_round_up_to_pages_and_gaps_fault() {
        let mut space = AddressSpace::new();
        let base = space.map_anonymous(0, 100, PROT_READ | PROT_WRITE).unwrap();
        let region = space.region_containing(base, 1).unwrap();
        assert_eq!(region.len, PAGE_SIZE as u64);
        // In-page past-the-request reads succeed (mmap rounds to pages)...
        assert!(space.read(base + 200, 8).is_ok());
        // ...but the guard gap beyond the region faults.
        assert_eq!(space.read(base + PAGE_SIZE as u64, 1), Err(Errno::EFAULT));
        assert_eq!(space.read(0x10, 1), Err(Errno::EFAULT));
        assert_eq!(space.map_anonymous(0, 0, PROT_READ), Err(Errno::EINVAL));
    }

    #[test]
    fn writes_spanning_pages_land_correctly() {
        let mut space = AddressSpace::new();
        let base = space
            .map_anonymous(0, 2 * PAGE_SIZE as u64, PROT_READ | PROT_WRITE)
            .unwrap();
        let data: Vec<u8> = (0..100).collect();
        let at = base + PAGE_SIZE as u64 - 50;
        space.write(at, &data).unwrap();
        assert_eq!(space.read(at, 100).unwrap(), data);
        assert_eq!(space.resident_page_count(), 2);
    }

    #[test]
    fn protection_is_enforced() {
        let mut space = AddressSpace::new();
        let base = space.map_anonymous(0, PAGE_SIZE as u64, PROT_READ).unwrap();
        assert_eq!(space.write(base, b"x"), Err(Errno::EACCES));
        space.protect(base, PAGE_SIZE as u64, PROT_READ | PROT_WRITE).unwrap();
        assert!(space.write(base, b"x").is_ok());
        space.protect(base, PAGE_SIZE as u64, PROT_WRITE).unwrap();
        assert_eq!(space.read(base, 1), Err(Errno::EACCES));
        // Partial mprotect of a multi-page region is not supported.
        let wide = space.map_anonymous(0, 2 * PAGE_SIZE as u64, PROT_READ).unwrap();
        assert_eq!(space.protect(wide, PAGE_SIZE as u64, PROT_READ), Err(Errno::EINVAL));
    }

    #[test]
    fn fixed_addresses_validate_alignment_and_overlap() {
        let mut space = AddressSpace::new();
        assert_eq!(
            space.map_anonymous(0x123, PAGE_SIZE as u64, PROT_READ),
            Err(Errno::EINVAL)
        );
        let base = space
            .map_anonymous(0x2000_0000, 2 * PAGE_SIZE as u64, PROT_READ)
            .unwrap();
        assert_eq!(base, 0x2000_0000);
        assert_eq!(
            space.map_anonymous(0x2000_1000, PAGE_SIZE as u64, PROT_READ),
            Err(Errno::EEXIST)
        );
        // The bump allocator steers clear of fixed mappings.
        let auto = space.map_anonymous(0, PAGE_SIZE as u64, PROT_READ).unwrap();
        assert!(auto >= 0x2000_0000 + 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn fork_shares_pages_and_write_cow_faults() {
        let mut parent = AddressSpace::new();
        let base = parent
            .map_anonymous(0, 2 * PAGE_SIZE as u64, PROT_READ | PROT_WRITE)
            .unwrap();
        parent.write(base, b"parent data").unwrap();
        parent.write(base + PAGE_SIZE as u64, b"second page").unwrap();

        let (mut child, delta) = parent.fork_clone();
        assert_eq!(delta.pages_shared, 2);
        assert_eq!(child.read(base, 11).unwrap(), b"parent data");

        // Child write: COW fault copies one page; the other stays shared.
        let delta = child.write(base, b"child  data").unwrap();
        assert_eq!(delta.cow_faults, 1);
        assert_eq!(delta.pages_copied, 1);
        assert_eq!(child.read(base, 11).unwrap(), b"child  data");
        assert_eq!(parent.read(base, 11).unwrap(), b"parent data", "parent unaffected");

        // Parent's same-page write also faults (its Arc was still shared at
        // fork time? no — the child already copied, so the parent is sole
        // owner again and writes in place).
        let delta = parent.write(base, b"PARENT data").unwrap();
        assert_eq!(delta.cow_faults, 0);
        assert_eq!(child.read(base, 11).unwrap(), b"child  data");

        // The untouched second page is still physically shared.
        let delta = parent.write(base + PAGE_SIZE as u64, b"x").unwrap();
        assert_eq!(delta.cow_faults, 1);
        assert_eq!(child.read(base + PAGE_SIZE as u64, 11).unwrap(), b"second page");
    }

    #[test]
    fn file_mappings_reference_the_page_cache_until_written() {
        use browsix_fs::{FileSystem, MemFs};
        let fs = MemFs::new();
        let mut content = vec![7u8; PAGE_SIZE];
        content.extend(vec![9u8; 100]);
        fs.write_file("/data", &content).unwrap();
        let handle = fs.open_handle("/data", browsix_fs::OpenFlags::read_only()).unwrap();

        let mut space = AddressSpace::new();
        let (base, delta) = space
            .map_file(&handle, 0, content.len() as u64, 0, PROT_READ | PROT_WRITE)
            .unwrap();
        assert_eq!(delta.pages_shared, 2);
        assert_eq!(space.read(base, 4).unwrap(), vec![7u8; 4]);
        assert_eq!(space.read(base + PAGE_SIZE as u64, 4).unwrap(), vec![9u8; 4]);
        // The tail page is zero-filled past EOF.
        assert_eq!(space.read(base + PAGE_SIZE as u64 + 100, 4).unwrap(), vec![0u8; 4]);
        // Unaligned offsets are rejected.
        assert_eq!(space.map_file(&handle, 12, 64, 0, PROT_READ).err(), Some(Errno::EINVAL));
        // A private write copies the page; the file never changes.
        space.write(base, b"XX").unwrap();
        assert_eq!(fs.read_file("/data").unwrap(), content);
        assert_eq!(space.read(base, 2).unwrap(), b"XX");
    }

    #[test]
    fn shared_mappings_alias_the_buffer_and_msync_writes_back() {
        let shm = ShmObject::new();
        assert_eq!(shm.sab_for_mapping().err(), Some(Errno::EINVAL), "zero-size object");
        shm.handle.truncate(PAGE_SIZE as u64).unwrap();
        shm.handle.write_at(0, b"seeded").unwrap();

        let sab = shm.sab_for_mapping().unwrap();
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        let base_a = a
            .map_shared(
                sab.clone(),
                Some(Arc::clone(&shm.handle)),
                0,
                PAGE_SIZE as u64,
                0,
                PROT_READ | PROT_WRITE,
            )
            .unwrap();
        let base_b = b
            .map_shared(
                sab.clone(),
                Some(Arc::clone(&shm.handle)),
                0,
                PAGE_SIZE as u64,
                0,
                PROT_READ | PROT_WRITE,
            )
            .unwrap();

        assert_eq!(a.read(base_a, 6).unwrap(), b"seeded");
        // A write through one mapping is visible through the other — and
        // directly through the buffer, with no syscall at all.
        a.write(base_a + 8, b"ping").unwrap();
        assert_eq!(b.read(base_b + 8, 4).unwrap(), b"ping");
        assert_eq!(sab.read_bytes(8, 4).unwrap(), b"ping");

        // The inode still has the seed until msync writes the region back.
        assert_eq!(shm.handle.read_at(8, 4).unwrap(), vec![0u8; 4]);
        a.msync(base_a, 0).unwrap();
        assert_eq!(shm.handle.read_at(8, 4).unwrap(), b"ping");

        // Both mappings share one lazily-created buffer.
        assert!(shm.sab_for_mapping().unwrap().same_buffer(&sab));
    }

    #[test]
    fn unmap_removes_whole_regions_only() {
        let mut space = AddressSpace::new();
        let base = space
            .map_anonymous(0, 2 * PAGE_SIZE as u64, PROT_READ | PROT_WRITE)
            .unwrap();
        assert_eq!(space.unmap(base, PAGE_SIZE as u64).err(), Some(Errno::EINVAL));
        assert_eq!(space.unmap(base + 8, 2 * PAGE_SIZE as u64).err(), Some(Errno::EINVAL));
        let region = space.unmap(base, 2 * PAGE_SIZE as u64).unwrap();
        assert_eq!(region.base, base);
        assert_eq!(space.region_count(), 0);
        assert_eq!(space.read(base, 1), Err(Errno::EFAULT));
    }

    #[test]
    fn release_drops_private_pages_and_spares_shared_ones() {
        let mut parent = AddressSpace::new();
        let base = parent
            .map_anonymous(0, PAGE_SIZE as u64, PROT_READ | PROT_WRITE)
            .unwrap();
        parent.write(base, b"data").unwrap();
        let (child, _) = parent.fork_clone();
        // Parent exit: the page survives for the child...
        parent.release();
        assert_eq!(parent.region_count(), 0);
        assert_eq!(child.read(base, 4).unwrap(), b"data");
        // ...and a second release (idempotent) is fine.
        parent.release();
    }
}
