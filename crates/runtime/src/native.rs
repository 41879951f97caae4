//! The native and Node.js-on-Linux baselines.
//!
//! Figure 9 of the paper compares utilities running under Browsix against the
//! same utilities running directly on Linux (GNU coreutils) and under Node.js
//! on Linux.  [`NativeWorld`] provides those baselines: guest programs run in
//! the calling thread, against the same in-process file system, with no
//! kernel, no workers and no message passing — only the execution profile
//! differs (native C vs V8-executed JavaScript).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use browsix_browser::SharedArrayBuffer;
use browsix_core::vm::{map_len, AddressSpace, ShmObject};
use browsix_core::{Errno, SigAction, Signal, MAP_ANONYMOUS, MAP_SHARED, POLLHUP, POLLIN, POLLNVAL, POLLOUT, WNOHANG};
use browsix_fs::{DirEntry, FileHandle, FileSystem, Metadata, MountedFs, OpenFlags};

use crate::env::{Fd, MappedRegion, PollFd, RuntimeEnv, SpawnStdio, WaitedChild};
use crate::profile::ExecutionProfile;
use crate::program::ProgramTable;

/// A shared, unbounded in-memory pipe used by the native baseline.
#[derive(Debug, Default)]
struct NativePipe {
    data: std::collections::VecDeque<u8>,
    write_closed: bool,
}

/// What a native descriptor refers to.
#[derive(Clone)]
enum NativeFd {
    /// An open regular file: the path was resolved to a handle at `open`,
    /// mirroring the kernel's descriptor table.
    File {
        handle: Arc<dyn FileHandle>,
        flags: OpenFlags,
        offset: u64,
    },
    /// A directory opened read-only (stat-able, not readable).
    Dir {
        path: String,
    },
    PipeRead(Arc<Mutex<NativePipe>>),
    PipeWrite(Arc<Mutex<NativePipe>>),
    Sink(Arc<Mutex<Vec<u8>>>),
    Source {
        data: Arc<Vec<u8>>,
        pos: usize,
    },
    Null,
}

/// The result of running a program to completion in the native world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeRunResult {
    /// Exit code returned by the program.
    pub exit_code: i32,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
}

impl NativeRunResult {
    /// Standard output as (lossy) UTF-8.
    pub fn stdout_string(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }
}

/// An execution world with no kernel: programs run in the calling thread
/// against a shared file system.
#[derive(Clone)]
pub struct NativeWorld {
    fs: Arc<MountedFs>,
    table: ProgramTable,
    profile: ExecutionProfile,
    next_pid: Arc<AtomicU32>,
    /// Named POSIX shared-memory objects, shared by every process in the
    /// world (the native analogue of the kernel's `shm_open` registry).
    shm: Arc<Mutex<HashMap<String, Arc<ShmObject>>>>,
}

impl std::fmt::Debug for NativeWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeWorld")
            .field("profile", &self.profile.name)
            .field("programs", &self.table.len())
            .finish()
    }
}

impl NativeWorld {
    /// Creates a world over `fs` with the given execution profile
    /// (typically [`ExecutionProfile::native`] or
    /// [`ExecutionProfile::nodejs_linux`]).
    pub fn new(fs: Arc<MountedFs>, profile: ExecutionProfile) -> NativeWorld {
        NativeWorld {
            fs,
            table: ProgramTable::new(),
            profile,
            next_pid: Arc::new(AtomicU32::new(1)),
            shm: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The program table; register guest programs here.
    pub fn table(&self) -> &ProgramTable {
        &self.table
    }

    /// The shared file system.
    pub fn fs(&self) -> Arc<MountedFs> {
        Arc::clone(&self.fs)
    }

    /// The world's execution profile.
    pub fn profile(&self) -> &ExecutionProfile {
        &self.profile
    }

    /// Runs a program to completion with empty standard input.
    pub fn run(&self, path_or_name: &str, args: &[&str]) -> NativeRunResult {
        self.run_with_stdin(path_or_name, args, &[])
    }

    /// Runs a program to completion, feeding it `stdin`.
    pub fn run_with_stdin(&self, path_or_name: &str, args: &[&str], stdin: &[u8]) -> NativeRunResult {
        let stdout = Arc::new(Mutex::new(Vec::new()));
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let exit_code = match self.table.instantiate(path_or_name) {
            Some(mut program) => {
                let mut env = NativeEnv::new(self.clone(), args, "/");
                env.fds.insert(
                    0,
                    NativeFd::Source {
                        data: Arc::new(stdin.to_vec()),
                        pos: 0,
                    },
                );
                env.fds.insert(1, NativeFd::Sink(Arc::clone(&stdout)));
                env.fds.insert(2, NativeFd::Sink(Arc::clone(&stderr)));
                program.run(&mut env)
            }
            None => {
                stderr.lock().extend_from_slice(b"command not found\n");
                127
            }
        };
        let stdout_bytes = stdout.lock().clone();
        let stderr_bytes = stderr.lock().clone();
        NativeRunResult {
            exit_code,
            stdout: stdout_bytes,
            stderr: stderr_bytes,
        }
    }
}

/// A [`RuntimeEnv`] with no kernel underneath: every operation is a direct
/// call into the in-process file system.
pub struct NativeEnv {
    world: NativeWorld,
    pid: u32,
    ppid: u32,
    args: Vec<String>,
    env: Vec<(String, String)>,
    cwd: String,
    fds: HashMap<Fd, NativeFd>,
    next_fd: Fd,
    /// Descriptors with `O_NONBLOCK` set.
    nonblocking: HashSet<Fd>,
    reaped: Vec<WaitedChild>,
    exit_code: Option<i32>,
    /// The process's address space, same model the kernel keeps per task.
    address_space: AddressSpace,
}

impl NativeEnv {
    /// Creates a process-like environment in `world`.
    pub fn new(world: NativeWorld, args: &[&str], cwd: &str) -> NativeEnv {
        let pid = world.next_pid.fetch_add(1, Ordering::Relaxed);
        let mut fds = HashMap::new();
        fds.insert(0, NativeFd::Null);
        fds.insert(1, NativeFd::Null);
        fds.insert(2, NativeFd::Null);
        NativeEnv {
            world,
            pid,
            ppid: 0,
            args: args.iter().map(|s| s.to_string()).collect(),
            env: vec![
                ("PATH".to_owned(), "/usr/bin:/bin".to_owned()),
                ("HOME".to_owned(), "/home".to_owned()),
            ],
            cwd: browsix_fs::path::normalize(cwd),
            fds,
            next_fd: 3,
            nonblocking: HashSet::new(),
            reaped: Vec::new(),
            exit_code: None,
            address_space: AddressSpace::new(),
        }
    }

    fn resolve(&self, path: &str) -> String {
        browsix_fs::path::resolve(&self.cwd, path)
    }

    fn alloc_fd(&mut self, fd: NativeFd) -> Fd {
        let id = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(id, fd);
        id
    }

    fn fd_entry(&mut self, fd: Fd) -> Result<&mut NativeFd, Errno> {
        self.fds.get_mut(&fd).ok_or(Errno::EBADF)
    }

    /// The file handle behind descriptor `fd`, for mapping.
    fn file_handle(&self, fd: Fd) -> Result<Arc<dyn FileHandle>, Errno> {
        match self.fds.get(&fd).ok_or(Errno::EBADF)? {
            NativeFd::File { handle, .. } => Ok(Arc::clone(handle)),
            NativeFd::Dir { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Finds the registered shm object a handle belongs to (identity, not
    /// name, so descriptors survive `shm_unlink`).
    fn shm_object_for(&self, handle: &Arc<dyn FileHandle>) -> Option<Arc<ShmObject>> {
        self.world
            .shm
            .lock()
            .values()
            .find(|object| Arc::ptr_eq(&object.handle, handle))
            .map(Arc::clone)
    }
}

impl RuntimeEnv for NativeEnv {
    fn args(&self) -> Vec<String> {
        self.args.clone()
    }

    fn env_vars(&self) -> Vec<(String, String)> {
        self.env.clone()
    }

    fn getpid(&mut self) -> u32 {
        self.pid
    }

    fn getppid(&mut self) -> u32 {
        self.ppid
    }

    fn getcwd(&mut self) -> String {
        self.cwd.clone()
    }

    fn chdir(&mut self, path: &str) -> Result<(), Errno> {
        let target = self.resolve(path);
        let meta = self.world.fs.stat(&target)?;
        if !meta.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.cwd = target;
        Ok(())
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        let path = self.resolve(path);
        match self.world.fs.stat(&path) {
            Ok(meta) => {
                if flags.create && flags.exclusive {
                    return Err(Errno::EEXIST);
                }
                if meta.is_dir() {
                    if flags.write {
                        return Err(Errno::EISDIR);
                    }
                    return Ok(self.alloc_fd(NativeFd::Dir { path }));
                }
            }
            Err(Errno::ENOENT) if flags.create => {
                self.world.fs.create(&path, 0o644)?;
            }
            Err(e) => return Err(e),
        }
        // Resolve the path exactly once; all I/O goes through the handle.
        let handle = self.world.fs.open_handle(&path, flags)?;
        if flags.truncate && flags.write {
            handle.truncate(0)?;
        }
        Ok(self.alloc_fd(NativeFd::File {
            handle,
            flags,
            offset: 0,
        }))
    }

    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.nonblocking.remove(&fd);
        match self.fds.remove(&fd) {
            Some(NativeFd::PipeWrite(pipe)) => {
                // Closing the last writer marks EOF for readers.  The native
                // baseline shares pipes only between a parent and one child,
                // so a single close is sufficient.
                pipe.lock().write_closed = true;
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(Errno::EBADF),
        }
    }

    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno> {
        let nonblocking = self.nonblocking.contains(&fd);
        match self.fd_entry(fd)? {
            NativeFd::File { handle, flags, offset } => {
                if !flags.read {
                    return Err(Errno::EBADF);
                }
                let data = handle.read_at(*offset, len)?;
                *offset += data.len() as u64;
                Ok(data)
            }
            NativeFd::Dir { .. } => Err(Errno::EISDIR),
            NativeFd::PipeRead(pipe) => {
                let mut pipe = pipe.lock();
                if pipe.data.is_empty() && !pipe.write_closed && nonblocking {
                    // The native baseline runs children synchronously, so a
                    // blocking read on an open empty pipe would return EOF;
                    // a non-blocking one must report EAGAIN like the kernel.
                    return Err(Errno::EAGAIN);
                }
                let take = len.min(pipe.data.len());
                Ok(pipe.data.drain(..take).collect())
            }
            NativeFd::Source { data, pos } => {
                let start = (*pos).min(data.len());
                let end = (start + len).min(data.len());
                *pos = end;
                Ok(data[start..end].to_vec())
            }
            NativeFd::Null => Ok(Vec::new()),
            NativeFd::Sink(_) | NativeFd::PipeWrite(_) => Err(Errno::EBADF),
        }
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        match self.fd_entry(fd)? {
            NativeFd::File { handle, flags, offset } => {
                if !flags.write {
                    return Err(Errno::EBADF);
                }
                if flags.append {
                    // Atomic seek-to-end at the handle layer (O_APPEND).
                    *offset = handle.append(data)?;
                    Ok(data.len())
                } else {
                    let written = handle.write_at(*offset, data)?;
                    *offset += written as u64;
                    Ok(written)
                }
            }
            NativeFd::Dir { .. } => Err(Errno::EISDIR),
            NativeFd::PipeWrite(pipe) => {
                pipe.lock().data.extend(data.iter().copied());
                Ok(data.len())
            }
            NativeFd::Sink(sink) => {
                sink.lock().extend_from_slice(data);
                Ok(data.len())
            }
            NativeFd::Null => Ok(data.len()),
            NativeFd::Source { .. } | NativeFd::PipeRead(_) => Err(Errno::EBADF),
        }
    }

    fn pread(&mut self, fd: Fd, len: usize, offset: u64) -> Result<Vec<u8>, Errno> {
        match self.fd_entry(fd)? {
            NativeFd::File { handle, .. } => handle.read_at(offset, len),
            _ => Err(Errno::ESPIPE),
        }
    }

    fn pwrite(&mut self, fd: Fd, data: &[u8], offset: u64) -> Result<usize, Errno> {
        match self.fd_entry(fd)? {
            NativeFd::File { handle, .. } => handle.write_at(offset, data),
            _ => Err(Errno::ESPIPE),
        }
    }

    fn seek(&mut self, fd: Fd, offset: i64, whence: u32) -> Result<u64, Errno> {
        match self.fd_entry(fd)? {
            NativeFd::File {
                handle,
                offset: current,
                ..
            } => {
                let base = match whence {
                    0 => 0,
                    1 => *current as i64,
                    2 => handle.metadata()?.size as i64,
                    _ => return Err(Errno::EINVAL),
                };
                let target = base + offset;
                if target < 0 {
                    return Err(Errno::EINVAL);
                }
                *current = target as u64;
                Ok(*current)
            }
            _ => Err(Errno::ESPIPE),
        }
    }

    fn dup2(&mut self, from: Fd, to: Fd) -> Result<(), Errno> {
        let entry = self.fds.get(&from).ok_or(Errno::EBADF)?.clone();
        self.fds.insert(to, entry);
        Ok(())
    }

    fn fstat(&mut self, fd: Fd) -> Result<Metadata, Errno> {
        let fs = Arc::clone(&self.world.fs);
        match self.fd_entry(fd)? {
            NativeFd::File { handle, .. } => handle.metadata(),
            NativeFd::Dir { path } => fs.stat(path),
            _ => Ok(Metadata::regular(0)),
        }
    }

    fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        match self.fd_entry(fd)? {
            NativeFd::File { handle, .. } => handle.fsync(),
            _ => Ok(()),
        }
    }

    fn poll(&mut self, fds: &mut [PollFd], _timeout_ms: i32) -> Result<usize, Errno> {
        // The native world is synchronous: readiness never changes while we
        // "wait", so poll reports the current state immediately.
        let mut ready = 0;
        for slot in fds.iter_mut() {
            let revents = match self.fds.get(&slot.fd) {
                None => POLLNVAL,
                Some(NativeFd::PipeRead(pipe)) => {
                    let pipe = pipe.lock();
                    let mut revents = 0;
                    if !pipe.data.is_empty() {
                        revents |= POLLIN;
                    }
                    if pipe.write_closed {
                        revents |= POLLHUP;
                    }
                    revents
                }
                // Native pipes are unbounded, so the write side (like files,
                // sinks and sources) is always ready.
                Some(NativeFd::PipeWrite(_)) => POLLOUT,
                Some(_) => POLLIN | POLLOUT,
            };
            slot.revents = revents & (slot.events | POLLHUP | POLLNVAL);
            if slot.revents != 0 {
                ready += 1;
            }
        }
        Ok(ready)
    }

    fn set_nonblocking(&mut self, fd: Fd, nonblocking: bool) -> Result<(), Errno> {
        if !self.fds.contains_key(&fd) {
            return Err(Errno::EBADF);
        }
        if nonblocking {
            self.nonblocking.insert(fd);
        } else {
            self.nonblocking.remove(&fd);
        }
        Ok(())
    }

    fn stat(&mut self, path: &str) -> Result<Metadata, Errno> {
        let path = self.resolve(path);
        self.world.fs.stat(&path)
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, Errno> {
        let path = self.resolve(path);
        self.world.fs.read_dir(&path)
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        let path = self.resolve(path);
        self.world.fs.mkdir(&path)
    }

    fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        let path = self.resolve(path);
        self.world.fs.rmdir(&path)
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let path = self.resolve(path);
        self.world.fs.unlink(&path)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        let from = self.resolve(from);
        let to = self.resolve(to);
        self.world.fs.rename(&from, &to)
    }

    fn truncate(&mut self, path: &str, size: u64) -> Result<(), Errno> {
        let path = self.resolve(path);
        self.world.fs.truncate(&path, size)
    }

    fn access(&mut self, path: &str) -> Result<(), Errno> {
        // A registered program exists, as `spawn` sees it.
        let path = self.resolve(path);
        if self.world.table.lookup(&path).is_some() {
            return Ok(());
        }
        self.world.fs.stat(&path).map(|_| ())
    }

    fn utimes(&mut self, path: &str, atime_ms: u64, mtime_ms: u64) -> Result<(), Errno> {
        let path = self.resolve(path);
        self.world.fs.set_times(&path, atime_ms, mtime_ms)
    }

    fn spawn(&mut self, path: &str, args: &[String], stdio: SpawnStdio) -> Result<u32, Errno> {
        // An explicit descriptor must be open; an inherited one may be closed.
        let stdio = [stdio.stdin, stdio.stdout, stdio.stderr];
        if stdio.iter().flatten().any(|fd| !self.fds.contains_key(fd)) {
            return Err(Errno::EBADF);
        }
        let resolved = self.resolve(path);
        let mut program = self
            .world
            .table
            .instantiate(&resolved)
            .or_else(|| self.world.table.instantiate(path))
            .ok_or(Errno::ENOENT)?;
        let arg_refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
        let mut child = NativeEnv::new(self.world.clone(), &arg_refs, &self.cwd);
        child.ppid = self.pid;
        child.env = self.env.clone();
        // Wire the child's standard descriptors.
        for (child_fd, selector) in (0..).zip(stdio) {
            let source = selector.unwrap_or(child_fd);
            if let Some(entry) = self.fds.get(&source) {
                child.fds.insert(child_fd, entry.clone());
            }
        }
        // The native baseline runs children synchronously: by the time spawn
        // returns, the child has finished (sufficient for the paper's
        // single-program and simple-pipeline workloads).
        let code = program.run(&mut child);
        let child_pid = child.pid;
        self.reaped.push(WaitedChild {
            pid: child_pid,
            status: (code & 0xff) << 8,
            exit_code: Some(code),
        });
        Ok(child_pid)
    }

    fn wait_options(&mut self, pid: i32, options: u32) -> Result<Option<WaitedChild>, Errno> {
        // Children run to completion inside `spawn`, so none is ever stopped
        // or still running: a wait finds an exit record or nothing.
        match self.reaped.iter().position(|child| pid < 0 || child.pid == pid as u32) {
            Some(index) => Ok(Some(self.reaped.remove(index))),
            None if options & WNOHANG != 0 => Ok(None),
            None => Err(Errno::ECHILD),
        }
    }

    fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        let pipe = Arc::new(Mutex::new(NativePipe::default()));
        let read_fd = self.alloc_fd(NativeFd::PipeRead(Arc::clone(&pipe)));
        let write_fd = self.alloc_fd(NativeFd::PipeWrite(pipe));
        Ok((read_fd, write_fd))
    }

    fn kill(&mut self, _pid: u32, _signal: Signal) -> Result<(), Errno> {
        // The native baseline has no concurrently-running processes to signal.
        Err(Errno::ESRCH)
    }

    fn getpgid(&mut self, pid: u32) -> Result<u32, Errno> {
        // Every native process leads its own group (children run
        // synchronously, so groups never matter here).
        if pid == 0 || pid == self.pid {
            Ok(self.pid)
        } else {
            Err(Errno::ESRCH)
        }
    }

    fn sigaction(&mut self, _signal: Signal, _action: SigAction) -> Result<(), Errno> {
        // Nothing can signal a native process, so no disposition is ever used.
        Ok(())
    }

    fn pending_signals(&mut self) -> Vec<Signal> {
        Vec::new()
    }

    fn fork(&mut self, _image: Vec<u8>) -> Result<u32, Errno> {
        Err(Errno::ENOSYS)
    }

    fn fork_image(&self) -> Option<Vec<u8>> {
        None
    }

    fn exit(&mut self, code: i32) {
        self.exit_code = Some(code);
    }

    fn socket(&mut self) -> Result<Fd, Errno> {
        Err(Errno::ENOSYS)
    }

    fn bind(&mut self, _fd: Fd, _port: u16) -> Result<u16, Errno> {
        Err(Errno::ENOSYS)
    }

    fn listen(&mut self, _fd: Fd, _backlog: u32) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    fn accept(&mut self, _fd: Fd) -> Result<Fd, Errno> {
        Err(Errno::ENOSYS)
    }

    fn connect(&mut self, _fd: Fd, _port: u16) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    fn ftruncate(&mut self, fd: Fd, size: u64) -> Result<(), Errno> {
        match self.fd_entry(fd)? {
            NativeFd::File { handle, flags, .. } => {
                if !flags.write {
                    return Err(Errno::EINVAL);
                }
                handle.truncate(size)
            }
            NativeFd::Dir { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    fn mmap(&mut self, addr: u64, len: u64, prot: u32, flags: u32, fd: Fd, offset: u64) -> Result<MappedRegion, Errno> {
        // Same placement and backing rules as the kernel's handlers, run
        // directly against this process's embedded address space.
        if flags & MAP_SHARED != 0 {
            let window = map_len(len)?;
            let (sab, handle) = if flags & MAP_ANONYMOUS != 0 {
                (SharedArrayBuffer::new(window as usize), None)
            } else {
                let handle = self.file_handle(fd)?;
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
                .address_space
                .map_shared(sab.clone(), handle, offset, len, addr, prot)?;
            return Ok(MappedRegion {
                addr: base,
                len: window,
                shared: Some(sab),
                shared_offset: 0,
            });
        }
        let base = if flags & MAP_ANONYMOUS != 0 {
            self.address_space.map_anonymous(addr, len, prot)?
        } else {
            let handle = self.file_handle(fd)?;
            self.address_space.map_file(&handle, offset, len, addr, prot)?.0
        };
        Ok(MappedRegion {
            addr: base,
            len: map_len(len)?,
            shared: None,
            shared_offset: 0,
        })
    }

    fn munmap(&mut self, addr: u64, len: u64) -> Result<(), Errno> {
        self.address_space.unmap(addr, len).map(|_| ())
    }

    fn msync(&mut self, addr: u64, len: u64) -> Result<(), Errno> {
        self.address_space.msync(addr, len)
    }

    fn mprotect(&mut self, addr: u64, len: u64, prot: u32) -> Result<(), Errno> {
        self.address_space.protect(addr, len, prot)
    }

    fn shm_open(&mut self, name: &str, flags: OpenFlags, _mode: u32) -> Result<Fd, Errno> {
        let object = {
            let mut shm = self.world.shm.lock();
            match shm.get(name) {
                Some(object) => {
                    if flags.create && flags.exclusive {
                        return Err(Errno::EEXIST);
                    }
                    Arc::clone(object)
                }
                None => {
                    if !flags.create {
                        return Err(Errno::ENOENT);
                    }
                    let object = Arc::new(ShmObject::new());
                    shm.insert(name.to_owned(), Arc::clone(&object));
                    object
                }
            }
        };
        if flags.truncate {
            object.handle.truncate(0)?;
        }
        Ok(self.alloc_fd(NativeFd::File {
            handle: Arc::clone(&object.handle),
            flags,
            offset: 0,
        }))
    }

    fn shm_unlink(&mut self, name: &str) -> Result<(), Errno> {
        self.world.shm.lock().remove(name).map(|_| ()).ok_or(Errno::ENOENT)
    }

    fn vm_read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        self.address_space.read(addr, len)
    }

    fn vm_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        self.address_space.write(addr, data).map(|_| ())
    }

    fn charge_compute(&mut self, units: u64) {
        self.world.profile.charge(units);
    }

    fn profile(&self) -> &ExecutionProfile {
        &self.world.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{factory, FnProgram};
    use browsix_fs::MemFs;

    fn world() -> NativeWorld {
        let fs = Arc::new(MountedFs::new(Arc::new(MemFs::new())));
        NativeWorld::new(fs, ExecutionProfile::instant(crate::SyscallConvention::Direct))
    }

    #[test]
    fn run_program_captures_output_and_exit_code() {
        let world = world();
        world.table().register(
            "/usr/bin/hello",
            factory(|| {
                FnProgram::new("hello", |env: &mut dyn RuntimeEnv| {
                    env.print("hello world\n");
                    env.eprint("warning\n");
                    0
                })
            }),
        );
        let result = world.run("hello", &["hello"]);
        assert_eq!(result.exit_code, 0);
        assert_eq!(result.stdout_string(), "hello world\n");
        assert_eq!(result.stderr, b"warning\n");
    }

    #[test]
    fn missing_program_exits_127() {
        let result = world().run("nonexistent", &["nonexistent"]);
        assert_eq!(result.exit_code, 127);
        assert!(!result.stderr.is_empty());
    }

    #[test]
    fn file_io_round_trip_through_env() {
        let world = world();
        world.fs().mkdir("/data").unwrap();
        let mut env = NativeEnv::new(world.clone(), &["test"], "/data");
        env.write_file("notes.txt", b"line one\n").unwrap();
        assert_eq!(env.read_file("/data/notes.txt").unwrap(), b"line one\n");
        assert!(env.exists("notes.txt"));
        assert_eq!(env.stat("notes.txt").unwrap().size, 9);

        // Append and seek behaviour.
        let fd = env.open("notes.txt", OpenFlags::append_create()).unwrap();
        env.write(fd, b"line two\n").unwrap();
        env.close(fd).unwrap();
        let fd = env.open("notes.txt", OpenFlags::read_only()).unwrap();
        env.seek(fd, 5, 0).unwrap();
        assert_eq!(env.read(fd, 4).unwrap(), b"one\n");
        env.close(fd).unwrap();
        assert_eq!(env.close(fd), Err(Errno::EBADF));
    }

    #[test]
    fn directories_and_metadata() {
        let world = world();
        let mut env = NativeEnv::new(world, &["test"], "/");
        env.mkdir("/proj").unwrap();
        env.chdir("/proj").unwrap();
        assert_eq!(env.getcwd(), "/proj");
        env.write_file("a.txt", b"1").unwrap();
        env.write_file("b.txt", b"22").unwrap();
        let names: Vec<String> = env.readdir(".").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a.txt", "b.txt"]);
        env.rename("a.txt", "c.txt").unwrap();
        assert!(env.exists("c.txt"));
        env.unlink("b.txt").unwrap();
        env.truncate("c.txt", 0).unwrap();
        assert_eq!(env.stat("c.txt").unwrap().size, 0);
        assert_eq!(env.chdir("/missing"), Err(Errno::ENOENT));
        assert_eq!(env.chdir("/proj/c.txt"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn spawn_runs_children_and_wait_reaps_them() {
        let world = world();
        world.table().register(
            "/usr/bin/child",
            factory(|| {
                FnProgram::new("child", |env: &mut dyn RuntimeEnv| {
                    env.print("from child\n");
                    7
                })
            }),
        );
        let mut env = NativeEnv::new(world, &["parent"], "/");
        let (read_fd, write_fd) = env.pipe().unwrap();
        let pid = env
            .spawn(
                "/usr/bin/child",
                &["child".to_string()],
                SpawnStdio {
                    stdout: Some(write_fd),
                    ..SpawnStdio::default()
                },
            )
            .unwrap();
        let child = env.wait(pid as i32).unwrap();
        assert_eq!(child.exit_code, Some(7));
        env.close(write_fd).unwrap();
        assert_eq!(env.read(read_fd, 64).unwrap(), b"from child\n");
        assert_eq!(env.wait(-1), Err(Errno::ECHILD));
        assert_eq!(env.wait_options(-1, WNOHANG).unwrap(), None);
        let pid = env
            .spawn("/usr/bin/child", &["child".to_string()], SpawnStdio::default())
            .unwrap();
        let child = env.wait_options(-1, WNOHANG).unwrap().expect("an exited child");
        assert_eq!((child.pid, child.exit_code), (pid, Some(7)));
        // An explicit stdio descriptor must be open: nothing runs.
        let closed = SpawnStdio {
            stdin: Some(57),
            ..SpawnStdio::default()
        };
        assert_eq!(
            env.spawn("/usr/bin/child", &["child".to_string()], closed),
            Err(Errno::EBADF)
        );
        assert_eq!(env.wait_options(-1, WNOHANG).unwrap(), None);
    }

    #[test]
    fn unsupported_operations_report_enosys() {
        let mut env = NativeEnv::new(world(), &["x"], "/");
        assert_eq!(env.socket(), Err(Errno::ENOSYS));
        assert_eq!(env.fork(vec![]), Err(Errno::ENOSYS));
        assert_eq!(env.fork_image(), None);
        assert_eq!(env.kill(1, Signal::SIGTERM), Err(Errno::ESRCH));
        env.exit(3);
        assert_eq!(env.exit_code, Some(3));
    }

    #[test]
    fn mappings_and_shared_memory_work_natively() {
        use browsix_core::{MAP_PRIVATE, PROT_READ, PROT_WRITE};
        let world = world();
        let mut env = NativeEnv::new(world.clone(), &["a"], "/");

        // Private anonymous mapping reached through vm_read/vm_write.
        let region = env
            .mmap(0, 8192, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
            .unwrap();
        assert!(!region.is_shared());
        env.vm_write(region.addr + 100, b"native").unwrap();
        assert_eq!(env.vm_read(region.addr + 100, 6).unwrap(), b"native");
        env.munmap(region.addr, region.len).unwrap();

        // Named shared memory visible to a second process in the same world.
        let flags = OpenFlags {
            create: true,
            ..OpenFlags::read_write()
        };
        let fd = env.shm_open("/ring", flags, 0o600).unwrap();
        env.ftruncate(fd, 4096).unwrap();
        let map_a = env.mmap(0, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0).unwrap();
        map_a.shared_write(0, b"ping").unwrap();

        let mut other = NativeEnv::new(world, &["b"], "/");
        let fd_b = other.shm_open("/ring", OpenFlags::read_write(), 0).unwrap();
        let map_b = other
            .mmap(0, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd_b, 0)
            .unwrap();
        assert_eq!(map_b.shared_read(0, 4).unwrap(), b"ping");

        // Writes travel the other way too: the buffer is aliased, not copied.
        map_b.shared_write(8, b"pong").unwrap();
        assert_eq!(map_a.shared_read(8, 4).unwrap(), b"pong");

        other.shm_unlink("/ring").unwrap();
        assert_eq!(env.shm_unlink("/ring"), Err(Errno::ENOENT));
        // Descriptors keep working after the name is gone.
        assert_eq!(env.fstat(fd).unwrap().size, 4096);
    }

    #[test]
    fn stdin_source_is_consumed() {
        let world = world();
        world.table().register(
            "/usr/bin/upper",
            factory(|| {
                FnProgram::new("upper", |env: &mut dyn RuntimeEnv| {
                    let input = env.read_stdin_to_end();
                    let upper = String::from_utf8_lossy(&input).to_uppercase();
                    env.print(&upper);
                    0
                })
            }),
        );
        let result = world.run_with_stdin("upper", &["upper"], b"hello");
        assert_eq!(result.stdout, b"HELLO");
    }
}
