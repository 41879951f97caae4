//! Virtual-memory system-call handlers: `mmap` and friends, POSIX shared
//! memory, and the simulated load/store pair `vm_read`/`vm_write`.
//!
//! The kernel owns every task's [`AddressSpace`](crate::vm::AddressSpace)
//! (see [`crate::vm`] for the page model), so these handlers are thin:
//! validate descriptors, translate between syscall arguments and address-space
//! operations, and accumulate the COW/page-sharing counters into the kernel
//! statistics.  Two design points deserve a note:
//!
//! * **Private mappings** are reached through `vm_read`/`vm_write` — the
//!   simulated analogue of loads and stores that may fault.  A `vm_write`
//!   that lands on a page whose `Arc` is shared (with a forked sibling, or
//!   with an `httpfs`/`memfs` page cache) *is* the copy-on-write fault, and
//!   it is serviced here in the kernel.
//! * **Shared mappings** get a real [`SharedArrayBuffer`]: `sys_mmap`
//!   delivers it to the process in an out-of-band `mmap-shared` message
//!   *before* the call completes, so by the time the process sees the base
//!   address it already holds the buffer and can load and store — and
//!   `Atomics.wait`/`notify` — with **no system calls on the data path**.
//!   This is the same trick the synchronous system-call convention plays
//!   with its shared heap, generalised to arbitrary mappings.

use std::sync::Arc;

use browsix_browser::{Message, SharedArrayBuffer};
use browsix_fs::{Errno, FileHandle, OpenFlags};

use crate::fd::{Fd, FileKind, OpenFile};
use crate::kernel::KernelState;
use crate::syscall::{ByteSource, SysResult};
use crate::task::Pid;
use crate::vm::{map_len, ShmObject, MAP_ANONYMOUS, MAP_SHARED};

impl KernelState {
    /// `ftruncate(fd, size)`: sizes the descriptor's file — the only way to
    /// size a `shm_open` object, which has no path for `truncate`.
    pub(crate) fn sys_ftruncate(&mut self, pid: Pid, fd: Fd, size: u64) -> Result<SysResult, Errno> {
        match self.file(pid, fd)?.kind() {
            FileKind::File { handle, flags } if flags.write => handle.truncate(size)?,
            FileKind::Directory { .. } => return Err(Errno::EISDIR),
            _ => return Err(Errno::EINVAL),
        }
        Ok(SysResult::Ok)
    }

    /// `mmap(addr, len, prot, flags, fd, offset)`.  Returns the base address;
    /// for `MAP_SHARED` the backing buffer is delivered to the process first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_mmap(
        &mut self,
        pid: Pid,
        addr: u64,
        len: u64,
        prot: u32,
        flags: u32,
        fd: i32,
        offset: u64,
    ) -> Result<SysResult, Errno> {
        let base = if flags & MAP_SHARED != 0 {
            self.mmap_shared(pid, addr, len, prot, flags, fd, offset)?
        } else if flags & MAP_ANONYMOUS != 0 {
            self.task_mut(pid)?.address_space.map_anonymous(addr, len, prot)?
        } else {
            let handle = self.file_handle(pid, fd)?;
            let (base, delta) = self
                .task_mut(pid)?
                .address_space
                .map_file(&handle, offset, len, addr, prot)?;
            self.stats.record_vm(delta);
            base
        };
        Ok(SysResult::Int(base as i64))
    }

    #[allow(clippy::too_many_arguments)]
    fn mmap_shared(
        &mut self,
        pid: Pid,
        addr: u64,
        len: u64,
        prot: u32,
        flags: u32,
        fd: i32,
        offset: u64,
    ) -> Result<u64, Errno> {
        // Refused before any buffer is sized from it.
        let window = map_len(len)?;
        // Resolve the backing buffer: a fresh one for anonymous mappings, the
        // shm object's buffer when the descriptor is a mapped `shm_open`
        // object, or a buffer seeded from (and msync-able back to) a plain
        // file.
        let (sab, handle) = if flags & MAP_ANONYMOUS != 0 {
            (SharedArrayBuffer::new(window as usize), None)
        } else {
            let handle = self.file_handle(pid, fd)?;
            let sab = match self.shm_object_for(&handle) {
                Some(object) => object.sab_for_mapping()?,
                None => {
                    let end = offset.checked_add(len).ok_or(Errno::EINVAL)?;
                    let size = map_len(handle.metadata()?.size.max(end))?;
                    let sab = SharedArrayBuffer::new(size as usize);
                    let seed = handle.read_at(0, size as usize)?;
                    sab.write_bytes(0, &seed).map_err(|_| Errno::EIO)?;
                    sab
                }
            };
            (sab, Some(handle))
        };
        let base = self
            .task_mut(pid)?
            .address_space
            .map_shared(sab.clone(), handle, offset, len, addr, prot)?;
        // Hand the process the buffer itself before the call completes: from
        // here on its loads and stores (and Atomics) touch the mapping with
        // no kernel involvement at all.
        let msg = Message::map()
            .with("type", "mmap-shared")
            .with("addr", base as i64)
            .with("offset", offset as i64)
            .with("len", window as i64)
            .with("sab", Message::Shared(sab));
        self.post_to_worker(pid, msg, Vec::new());
        Ok(base)
    }

    pub(crate) fn sys_munmap(&mut self, pid: Pid, addr: u64, len: u64) -> Result<SysResult, Errno> {
        self.task_mut(pid)?.address_space.unmap(addr, len)?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_msync(&mut self, pid: Pid, addr: u64, len: u64) -> Result<SysResult, Errno> {
        self.task(pid)?.address_space.msync(addr, len)?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_mprotect(&mut self, pid: Pid, addr: u64, len: u64, prot: u32) -> Result<SysResult, Errno> {
        self.task_mut(pid)?.address_space.protect(addr, len, prot)?;
        Ok(SysResult::Ok)
    }

    /// `shm_open(name, flags, mode)`: opens (or creates) a named shared-memory
    /// object and returns a descriptor to it.  The descriptor behaves like a
    /// regular file descriptor (`ftruncate`, `read`, `write`, `dup`,
    /// inheritance) because it *is* one: the object is a detached in-memory
    /// inode registered under the name.  `mode` is unused: Browsix has no
    /// users, and the browser sandbox is the permission model.
    pub(crate) fn sys_shm_open(&mut self, pid: Pid, name: String, flags: u32, _mode: u32) -> Result<SysResult, Errno> {
        let flags = OpenFlags::from_bits(flags)?;
        // The shm namespace is kernel-global (processes on different shards
        // must rendezvous by name), so the registry lives on the router.
        let object = match self.router.shm_get(&name) {
            Some(_) if flags.create && flags.exclusive => return Err(Errno::EEXIST),
            Some(object) => object,
            None if !flags.create => return Err(Errno::ENOENT),
            None => {
                let object = Arc::new(ShmObject::new());
                self.router.shm_insert(&name, Arc::clone(&object));
                self.stats.shm_objects += 1;
                object
            }
        };
        if flags.truncate {
            object.handle.truncate(0)?;
        }
        let file = OpenFile::new(FileKind::File {
            handle: Arc::clone(&object.handle),
            flags,
        });
        Ok(SysResult::Int(self.task_mut(pid)?.files.insert(file, 0) as i64))
    }

    /// `shm_unlink(name)`: removes the name; the object itself survives until
    /// the last descriptor and mapping drop their references.
    pub(crate) fn sys_shm_unlink(&mut self, _pid: Pid, name: String) -> Result<SysResult, Errno> {
        if !self.router.shm_remove(&name) {
            return Err(Errno::ENOENT);
        }
        Ok(SysResult::Ok)
    }

    /// `vm_read(addr, len)`: the simulated load.
    pub(crate) fn sys_vm_read(&mut self, pid: Pid, addr: u64, len: usize) -> Result<SysResult, Errno> {
        Ok(SysResult::Data(self.task(pid)?.address_space.read(addr, len)?))
    }

    /// `vm_write(addr, data)`: the simulated store; services COW faults.
    pub(crate) fn sys_vm_write(&mut self, pid: Pid, addr: u64, data: ByteSource) -> Result<SysResult, Errno> {
        let bytes = self.resolve_bytes(pid, data)?;
        let delta = self.task_mut(pid)?.address_space.write(addr, &bytes)?;
        self.stats.record_vm(delta);
        Ok(SysResult::Ok)
    }

    /// The file handle behind descriptor `fd`, for mapping.
    fn file_handle(&self, pid: Pid, fd: i32) -> Result<Arc<dyn FileHandle>, Errno> {
        match self.file(pid, fd)?.kind() {
            FileKind::File { handle, .. } => Ok(handle),
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Finds the registered shm object a handle belongs to, if any —
    /// identity, not name: descriptors keep mapping to their object across
    /// `shm_unlink`.
    fn shm_object_for(&self, handle: &Arc<dyn FileHandle>) -> Option<Arc<ShmObject>> {
        self.router.shm_find(|object| Arc::ptr_eq(&object.handle, handle))
    }
}
