//! The runtime environment interface guest programs are written against.
//!
//! A [`RuntimeEnv`] is what libc plus the language runtime
//! look like to a program: files, directories, processes, pipes, signals,
//! sockets and standard I/O.  The same guest program can run under the
//! in-process [`NativeEnv`](crate::NativeEnv) (the paper's native and
//! Node.js-on-Linux baselines) or under [`BrowsixEnv`](crate::BrowsixEnv)
//! (a real Browsix process in a worker issuing system calls), which is
//! exactly the property the paper relies on when it runs "the same JavaScript
//! utility under BROWSIX and on Linux under Node.js".

use browsix_browser::SharedArrayBuffer;
use browsix_core::{Errno, SigAction, SigSet, Signal};
use browsix_fs::{DirEntry, Metadata, OpenFlags};

use crate::profile::ExecutionProfile;

pub use browsix_core::{
    MAP_ANONYMOUS, MAP_PRIVATE, MAP_SHARED, PAGE_SIZE, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT, PROT_READ,
    PROT_WRITE, WNOHANG, WUNTRACED,
};

/// File-descriptor type used by guest programs.
pub type Fd = i32;

/// One descriptor's entry in a [`RuntimeEnv::poll`] call, mirroring
/// `struct pollfd`: the caller fills `fd` and `events`, the environment
/// fills `revents`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollFd {
    /// Descriptor to query.
    pub fd: Fd,
    /// Requested events (`POLLIN` | `POLLOUT`).
    pub events: u16,
    /// Reported events; `POLLERR`/`POLLHUP`/`POLLNVAL` may appear whether
    /// requested or not.
    pub revents: u16,
}

impl PollFd {
    /// An entry asking about `events` on `fd`.
    pub fn new(fd: Fd, events: u16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// An entry waiting for `fd` to become readable.
    pub fn readable(fd: Fd) -> PollFd {
        PollFd::new(fd, POLLIN)
    }

    /// An entry waiting for `fd` to become writable.
    pub fn writable(fd: Fd) -> PollFd {
        PollFd::new(fd, POLLOUT)
    }

    /// Whether the descriptor reported readable (data, EOF or hang-up — all
    /// states in which a read returns immediately).
    pub fn is_readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// Whether the descriptor reported writable (or broken, in which case
    /// the write fails immediately rather than blocking).
    pub fn is_writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR) != 0
    }
}

/// A mapping created by [`RuntimeEnv::mmap`].
///
/// Private mappings carry only the base address — the guest accesses them
/// through [`RuntimeEnv::vm_read`]/[`RuntimeEnv::vm_write`] (the simulated
/// load/store pair).  `MAP_SHARED` mappings also carry the backing
/// [`SharedArrayBuffer`] the kernel delivered, so the guest reads and writes
/// — and `Atomics.wait`s — the mapping directly, with **no system calls on
/// the data path**.
#[derive(Debug, Clone)]
pub struct MappedRegion {
    /// Base virtual address of the mapping.
    pub addr: u64,
    /// Length in bytes (rounded up to whole pages).
    pub len: u64,
    /// For `MAP_SHARED`: the buffer backing the mapping.
    pub shared: Option<SharedArrayBuffer>,
    /// Byte offset within `shared` where this mapping's window starts.
    pub shared_offset: usize,
}

impl MappedRegion {
    /// Whether this is a `MAP_SHARED` mapping with a delivered buffer.
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// The shared buffer, for direct (zero-syscall) access and Atomics.
    pub fn buffer(&self) -> Option<&SharedArrayBuffer> {
        self.shared.as_ref()
    }

    /// Reads `len` bytes at `offset` within the mapping, straight from the
    /// shared buffer — no system call.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] on a private mapping or out-of-range access.
    pub fn shared_read(&self, offset: usize, len: usize) -> Result<Vec<u8>, Errno> {
        let sab = self.shared.as_ref().ok_or(Errno::EINVAL)?;
        sab.read_bytes(self.shared_offset + offset, len)
            .map_err(|_| Errno::EINVAL)
    }

    /// Writes `data` at `offset` within the mapping, straight into the shared
    /// buffer — no system call.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] on a private mapping or out-of-range access.
    pub fn shared_write(&self, offset: usize, data: &[u8]) -> Result<(), Errno> {
        let sab = self.shared.as_ref().ok_or(Errno::EINVAL)?;
        sab.write_bytes(self.shared_offset + offset, data)
            .map_err(|_| Errno::EINVAL)
    }
}

/// Which descriptors a spawned child should receive for stdin/stdout/stderr.
/// `None` inherits the parent's descriptor of the same number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpawnStdio {
    /// Child's standard input.
    pub stdin: Option<Fd>,
    /// Child's standard output.
    pub stdout: Option<Fd>,
    /// Child's standard error.
    pub stderr: Option<Fd>,
}

impl SpawnStdio {
    /// Inherit all three standard descriptors from the parent.
    pub fn inherit() -> SpawnStdio {
        SpawnStdio::default()
    }
}

/// The process group a spawned child is born in, as
/// `posix_spawnattr_setpgroup` names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SpawnGroup {
    /// The parent's group.
    #[default]
    Parent,
    /// A new group led by the child.
    New,
    /// An existing group (`EPERM` if it is gone, as `setpgid` refuses).
    Join(u32),
}

/// How a child is started, beyond its descriptors: its process group and
/// whether that group takes the terminal before the child runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpawnAttrs {
    /// The group the child is born in.
    pub group: SpawnGroup,
    /// Whether the child's group becomes the terminal's foreground group
    /// before the child runs.
    pub foreground: bool,
}

/// One call of a [`RuntimeEnv::job_control`] batch.
#[derive(Debug, Clone, Copy)]
pub enum JobCall<'a> {
    /// `pipe2`: answers [`JobValue::Pipe`].
    Pipe,
    /// `access`: whether a path exists (a registered executable counts).
    Access(&'a str),
    /// `spawn` with attributes: answers the child's pid as [`JobValue::Id`].
    Spawn {
        /// Executable path.
        path: &'a str,
        /// Argument vector, `argv[0]` included.
        args: &'a [String],
        /// The child's standard descriptors.
        stdio: SpawnStdio,
        /// Its group and terminal.
        attrs: SpawnAttrs,
    },
    /// `close`.
    Close(Fd),
    /// `getpgid` of a pid (0 = self): answers [`JobValue::Id`].
    Getpgid(u32),
    /// `wait4` with option bits: answers [`JobValue::Waited`].
    Wait {
        /// The child (-1 = any).
        pid: i32,
        /// [`WNOHANG`] | [`WUNTRACED`].
        options: u32,
    },
}

/// What a [`JobCall`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobValue {
    /// `access` or `close` succeeded.
    Done,
    /// A pid or a process group.
    Id(u32),
    /// A pipe's read and write descriptors.
    Pipe(Fd, Fd),
    /// What `wait4` reported (`None`: `WNOHANG` found nothing).
    Waited(Option<WaitedChild>),
}

/// Runs one [`JobCall`] through the environment's own methods: the default
/// of [`RuntimeEnv::job_control`], for environments without process groups,
/// which start a spawn's child as [`RuntimeEnv::spawn`] does.
fn run_job_call<E: RuntimeEnv + ?Sized>(env: &mut E, call: JobCall) -> Result<JobValue, Errno> {
    Ok(match call {
        JobCall::Pipe => {
            let (read_fd, write_fd) = env.pipe()?;
            JobValue::Pipe(read_fd, write_fd)
        }
        JobCall::Access(path) => env.access(path).map(|()| JobValue::Done)?,
        JobCall::Spawn { path, args, stdio, .. } => JobValue::Id(env.spawn(path, args, stdio)?),
        JobCall::Close(fd) => env.close(fd).map(|()| JobValue::Done)?,
        JobCall::Getpgid(pid) => JobValue::Id(env.getpgid(pid)?),
        JobCall::Wait { pid, options } => JobValue::Waited(env.wait_options(pid, options)?),
    })
}

/// A reaped child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitedChild {
    /// The child's pid.
    pub pid: u32,
    /// The raw wait status.
    pub status: i32,
    /// Exit code if the child exited normally.
    pub exit_code: Option<i32>,
}

impl WaitedChild {
    /// The signal that terminated the child, if it was killed.
    pub fn term_signal(&self) -> Option<Signal> {
        browsix_core::syscall::wait_status_signal(self.status)
    }

    /// The signal that stopped the child, if `wait` was called with
    /// [`WUNTRACED`] and the child is suspended rather than dead.
    pub fn stop_signal(&self) -> Option<Signal> {
        browsix_core::syscall::wait_status_stop_signal(self.status)
    }
}

/// The POSIX-flavoured interface guest programs use.
///
/// All paths are interpreted relative to the process's working directory.
/// Errors are [`Errno`] values, exactly as the corresponding system calls
/// would return them.
pub trait RuntimeEnv {
    // ---- identity and environment -------------------------------------------

    /// The argument vector, `argv[0]` included.
    fn args(&self) -> Vec<String>;

    /// All environment variables.
    fn env_vars(&self) -> Vec<(String, String)>;

    /// Looks up one environment variable.
    fn getenv(&self, name: &str) -> Option<String> {
        self.env_vars().iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    /// The process id.
    fn getpid(&mut self) -> u32;

    /// The parent process id.
    fn getppid(&mut self) -> u32;

    /// Resource-usage counters for the process as named `(key, value)`
    /// pairs (the `getrusage` system call; see `docs/ABI.md`).
    /// Environments without kernel-side accounting return `ENOSYS`.
    fn getrusage(&mut self) -> Result<Vec<(String, u64)>, Errno> {
        Err(Errno::ENOSYS)
    }

    /// The current working directory.
    fn getcwd(&mut self) -> String;

    /// Changes the working directory.
    fn chdir(&mut self, path: &str) -> Result<(), Errno>;

    // ---- file IO --------------------------------------------------------------

    /// Opens a file.
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno>;

    /// Closes a descriptor.
    fn close(&mut self, fd: Fd) -> Result<(), Errno>;

    /// Reads up to `len` bytes from a descriptor (blocking).
    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno>;

    /// Writes all of `data` to a descriptor (blocking), returning the count.
    fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno>;

    /// Writes every buffer, in order, to one descriptor, returning the total
    /// byte count.  Environments backed by the batched syscall ABI
    /// ([`BrowsixEnv`](crate::BrowsixEnv)) submit all buffers in a single
    /// kernel round trip; the default implementation degrades to sequential
    /// writes.
    fn write_vectored(&mut self, fd: Fd, bufs: &[&[u8]]) -> Result<usize, Errno> {
        let mut total = 0;
        for data in bufs {
            let mut written = 0;
            while written < data.len() {
                let count = self.write(fd, &data[written..])?;
                if count == 0 {
                    return Ok(total);
                }
                written += count;
                total += count;
            }
        }
        Ok(total)
    }

    /// Flushes any buffered standard output.  Environments that buffer stdout
    /// (to batch many small writes into one syscall) override this; the
    /// default is an unbuffered no-op.  Buffering environments send what is
    /// buffered ahead of every other system call and at exit, so guests only
    /// need an explicit flush when output must be visible mid-computation.
    fn flush_stdout(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    /// Positional read.
    fn pread(&mut self, fd: Fd, len: usize, offset: u64) -> Result<Vec<u8>, Errno>;

    /// Positional write.
    fn pwrite(&mut self, fd: Fd, data: &[u8], offset: u64) -> Result<usize, Errno>;

    /// Repositions a descriptor (whence: 0 = SET, 1 = CUR, 2 = END).
    fn seek(&mut self, fd: Fd, offset: i64, whence: u32) -> Result<u64, Errno>;

    /// Duplicates `from` onto `to`.
    fn dup2(&mut self, from: Fd, to: Fd) -> Result<(), Errno>;

    /// Stats an open descriptor.
    fn fstat(&mut self, fd: Fd) -> Result<Metadata, Errno>;

    /// Flushes a descriptor's data to its backing store (`fsync`).  The
    /// in-memory backends have nothing to flush, so the default succeeds;
    /// kernel-backed environments issue the real system call.
    fn fsync(&mut self, _fd: Fd) -> Result<(), Errno> {
        Ok(())
    }

    /// Moves up to `len` bytes from the regular file `in_fd` into the stream
    /// (pipe or socket) `out_fd` without the data entering guest memory.
    /// `offset` is the file position to read from; `-1` uses — and advances —
    /// the descriptor's cursor, like passing NULL to `sendfile(2)`.  Returns
    /// the number of bytes moved (0 at end of file).
    ///
    /// Kernel-backed environments issue the real zero-copy system call; the
    /// default degrades to a pread/read + write copy loop so guests written
    /// against `sendfile` still run everywhere.
    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, offset: i64, len: u64) -> Result<u64, Errno> {
        let mut pos = offset;
        let mut sent: u64 = 0;
        while sent < len {
            let chunk_len = (len - sent).min(64 * 1024) as usize;
            let data = match if pos >= 0 {
                self.pread(in_fd, chunk_len, pos as u64)
            } else {
                self.read(in_fd, chunk_len)
            } {
                Ok(data) => data,
                Err(_) if sent > 0 => break,
                Err(e) => return Err(e),
            };
            if data.is_empty() {
                break;
            }
            let mut written = 0;
            while written < data.len() {
                match self.write(out_fd, &data[written..]) {
                    Ok(0) => return Ok(sent + written as u64),
                    Ok(count) => written += count,
                    Err(_) if sent + written as u64 > 0 => return Ok(sent + written as u64),
                    Err(e) => return Err(e),
                }
            }
            if pos >= 0 {
                pos += data.len() as i64;
            }
            sent += data.len() as u64;
        }
        Ok(sent)
    }

    /// Moves up to `len` buffered bytes from stream `fd_in` to stream
    /// `fd_out` without copying through guest memory, returning the count
    /// (0 means `fd_in` reached end of stream).  The default degrades to one
    /// read + write round trip.
    fn splice(&mut self, fd_in: Fd, fd_out: Fd, len: u64) -> Result<u64, Errno> {
        let data = self.read(fd_in, len.min(64 * 1024) as usize)?;
        if data.is_empty() {
            return Ok(0);
        }
        let mut written = 0;
        while written < data.len() {
            match self.write(fd_out, &data[written..]) {
                Ok(0) => break,
                Ok(count) => written += count,
                Err(_) if written > 0 => break,
                Err(e) => return Err(e),
            }
        }
        Ok(written as u64)
    }

    // ---- readiness -------------------------------------------------------------

    /// Waits until any entry in `fds` is ready (filling its `revents`) or
    /// `timeout_ms` expires, returning the number of ready descriptors
    /// (0 on timeout).  Negative `timeout_ms` waits forever; 0 reports the
    /// current readiness without blocking.  This is how a server multiplexes
    /// a listener and many non-blocking connections from one loop.
    fn poll(&mut self, fds: &mut [PollFd], timeout_ms: i32) -> Result<usize, Errno>;

    /// Sets or clears `O_NONBLOCK` on a descriptor's open-file description:
    /// reads, writes and accepts that would block return `EAGAIN` instead.
    fn set_nonblocking(&mut self, fd: Fd, nonblocking: bool) -> Result<(), Errno>;

    // ---- paths ---------------------------------------------------------------

    /// Closes several descriptors, reporting the first error after attempting
    /// all of them.  Batched environments close them in one round trip.
    fn close_many(&mut self, fds: &[Fd]) -> Result<(), Errno> {
        let calls: Vec<JobCall> = fds.iter().map(|&fd| JobCall::Close(fd)).collect();
        self.job_control(&calls)
            .into_iter()
            .find_map(Result::err)
            .map_or(Ok(()), Err)
    }

    /// Stats a path.
    fn stat(&mut self, path: &str) -> Result<Metadata, Errno>;

    /// Stats several paths, one result per path.  Batched environments stat
    /// them all in one round trip (the `ls -l` hot path).
    fn stat_many(&mut self, paths: &[&str]) -> Vec<Result<Metadata, Errno>> {
        paths.iter().map(|path| self.stat(path)).collect()
    }

    /// Lists a directory.
    fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, Errno>;

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> Result<(), Errno>;

    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> Result<(), Errno>;

    /// Removes a file.
    fn unlink(&mut self, path: &str) -> Result<(), Errno>;

    /// Renames a file or directory.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno>;

    /// Truncates a file.
    fn truncate(&mut self, path: &str, size: u64) -> Result<(), Errno>;

    /// Checks a path for existence/accessibility.
    fn access(&mut self, path: &str) -> Result<(), Errno>;

    /// Sets file times.
    fn utimes(&mut self, path: &str, atime_ms: u64, mtime_ms: u64) -> Result<(), Errno>;

    // ---- processes -----------------------------------------------------------

    /// Spawns a child process from an executable path.
    fn spawn(&mut self, path: &str, args: &[String], stdio: SpawnStdio) -> Result<u32, Errno>;

    /// `wait4` with explicit option bits ([`WNOHANG`] | [`WUNTRACED`]):
    /// `Ok(None)` means `WNOHANG` found nothing.  With `WUNTRACED` the
    /// returned child may be stopped rather than dead — check
    /// [`WaitedChild::stop_signal`] (stop reporting needs a kernel).
    fn wait_options(&mut self, pid: i32, options: u32) -> Result<Option<WaitedChild>, Errno>;

    /// Blocks until a child exits (`pid` = -1 waits for any child).
    fn wait(&mut self, pid: i32) -> Result<WaitedChild, Errno> {
        self.wait_options(pid, 0)?.ok_or(Errno::ECHILD)
    }

    /// Creates a pipe, returning `(read_fd, write_fd)`.
    fn pipe(&mut self) -> Result<(Fd, Fd), Errno>;

    /// Sends a signal to a process.
    fn kill(&mut self, pid: u32, signal: Signal) -> Result<(), Errno>;

    /// Sends a signal to every member of a process group (`kill(-pgid)`).
    fn kill_group(&mut self, _pgid: u32, _signal: Signal) -> Result<(), Errno> {
        Err(Errno::ESRCH)
    }

    /// Full `sigaction`: install a handler (optionally with `SA_RESTART`) —
    /// delivered signals are then queued and visible through
    /// [`RuntimeEnv::pending_signals`] rather than applying their default
    /// disposition — ignore the signal, or restore the default disposition.
    fn sigaction(&mut self, signal: Signal, action: SigAction) -> Result<(), Errno>;

    /// `sigprocmask`: applies `how` ([`browsix_core::SIG_BLOCK`] and
    /// friends) with `mask`, returning the previous mask.  Kernel-less
    /// environments have no asynchronous signals, so the default is a no-op.
    fn sigprocmask(&mut self, _how: u32, _mask: SigSet) -> Result<SigSet, Errno> {
        Ok(SigSet::empty())
    }

    /// Moves `pid` (0 = self) into process group `pgid` (0 = its own new
    /// group).  A no-op outside the kernel.
    fn setpgid(&mut self, _pid: u32, _pgid: u32) -> Result<(), Errno> {
        Ok(())
    }

    /// The process group of `pid` (0 = self).
    fn getpgid(&mut self, pid: u32) -> Result<u32, Errno>;

    /// Makes `pgid` the foreground group of the controlling terminal.
    fn tcsetpgrp(&mut self, _pgid: u32) -> Result<(), Errno> {
        Ok(())
    }

    /// Runs `calls` in order, one result per call: how a shell starts a
    /// job (its pipes, its stages' spawns, its closes and its first wait).
    /// Environments backed by the batched syscall ABI
    /// ([`BrowsixEnv`](crate::BrowsixEnv)) submit them in one round trip,
    /// so only the last may block (a `wait4`), and none may depend on
    /// another's result.  The default, for environments without process
    /// groups, runs them one by one through the methods above.
    fn job_control(&mut self, calls: &[JobCall]) -> Vec<Result<JobValue, Errno>> {
        calls.iter().map(|&call| run_job_call(self, call)).collect()
    }

    /// Drains signals delivered since the last call.
    fn pending_signals(&mut self) -> Vec<Signal>;

    /// Forks the process, shipping `image` (a runtime-defined snapshot of
    /// guest state) to the child.  Returns the child pid in the parent; the
    /// child starts as a fresh process whose [`RuntimeEnv::fork_image`]
    /// returns the snapshot.  Only supported by the Emterpreter-mode C
    /// runtime, as in the paper.
    fn fork(&mut self, image: Vec<u8>) -> Result<u32, Errno>;

    /// The fork snapshot this process was started from, if any.
    fn fork_image(&self) -> Option<Vec<u8>>;

    /// Exits the process immediately with `code` (issues the `exit` system
    /// call and stops running guest code).  Where possible guest programs
    /// should simply return from `run` instead.
    fn exit(&mut self, code: i32);

    // ---- sockets ---------------------------------------------------------------

    /// Creates a TCP socket.
    fn socket(&mut self) -> Result<Fd, Errno>;

    /// Binds a socket to a port (0 picks an ephemeral port); returns the
    /// bound port.
    fn bind(&mut self, fd: Fd, port: u16) -> Result<u16, Errno>;

    /// Starts listening.
    fn listen(&mut self, fd: Fd, backlog: u32) -> Result<(), Errno>;

    /// Accepts a connection (blocking), returning the new descriptor.
    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno>;

    /// Connects to a port on the in-Browsix loopback network.
    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno>;

    // ---- virtual memory --------------------------------------------------------

    /// Truncates (or zero-extends) an open descriptor's file — the way
    /// `shm_open` objects, which have no path, are sized before mapping.
    /// Environments without a VM subsystem report `ENOSYS`.
    fn ftruncate(&mut self, _fd: Fd, _size: u64) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    /// Maps memory ([`MAP_PRIVATE`]/[`MAP_SHARED`] | [`MAP_ANONYMOUS`], with
    /// [`PROT_READ`] | [`PROT_WRITE`]).  `fd` is -1 for anonymous mappings;
    /// `addr` 0 lets the kernel place the region.
    fn mmap(
        &mut self,
        _addr: u64,
        _len: u64,
        _prot: u32,
        _flags: u32,
        _fd: Fd,
        _offset: u64,
    ) -> Result<MappedRegion, Errno> {
        Err(Errno::ENOSYS)
    }

    /// Unmaps a whole region previously returned by [`RuntimeEnv::mmap`].
    fn munmap(&mut self, _addr: u64, _len: u64) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    /// Writes a shared mapping's bytes back to its backing object
    /// (`len` 0 = through the end of the region).
    fn msync(&mut self, _addr: u64, _len: u64) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    /// Changes a whole region's protection.
    fn mprotect(&mut self, _addr: u64, _len: u64, _prot: u32) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    /// Opens (or, with `flags.create`, creates) a named POSIX shared-memory
    /// object, returning a descriptor suitable for [`RuntimeEnv::ftruncate`]
    /// and [`RuntimeEnv::mmap`].
    fn shm_open(&mut self, _name: &str, _flags: OpenFlags, _mode: u32) -> Result<Fd, Errno> {
        Err(Errno::ENOSYS)
    }

    /// Removes a shared-memory object's name.
    fn shm_unlink(&mut self, _name: &str) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    /// Reads from the process's mapped memory (the simulated load; how
    /// private mappings are accessed).
    fn vm_read(&mut self, _addr: u64, _len: usize) -> Result<Vec<u8>, Errno> {
        Err(Errno::ENOSYS)
    }

    /// Writes to the process's mapped memory (the simulated store; a write
    /// to a COW-shared page faults and is serviced in the kernel).
    fn vm_write(&mut self, _addr: u64, _data: &[u8]) -> Result<(), Errno> {
        Err(Errno::ENOSYS)
    }

    // ---- cost model ------------------------------------------------------------

    /// Charges `units` of compute time according to the execution profile
    /// (the stand-in for actually executing the original program's code in a
    /// JavaScript engine).
    fn charge_compute(&mut self, units: u64);

    /// The execution profile in effect.
    fn profile(&self) -> &ExecutionProfile;

    // ---- convenience (default implementations) ---------------------------------

    /// Reads an entire file.
    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, Errno> {
        let fd = self.open(path, OpenFlags::read_only())?;
        let mut out = Vec::new();
        loop {
            let chunk = self.read(fd, 64 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        self.close(fd)?;
        Ok(out)
    }

    /// Creates/replaces an entire file.
    fn write_file(&mut self, path: &str, data: &[u8]) -> Result<(), Errno> {
        let fd = self.open(path, OpenFlags::write_create_truncate())?;
        let mut written = 0;
        while written < data.len() {
            written += self.write(fd, &data[written..])?;
        }
        self.close(fd)?;
        Ok(())
    }

    /// Writes a string to standard output.
    fn print(&mut self, text: &str) {
        let _ = self.write(1, text.as_bytes());
    }

    /// Writes a string to standard error.
    fn eprint(&mut self, text: &str) {
        let _ = self.write(2, text.as_bytes());
    }

    /// Reads standard input until EOF.
    fn read_stdin_to_end(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            match self.read(0, 64 * 1024) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => out.extend_from_slice(&chunk),
                Err(_) => break,
            }
        }
        out
    }

    /// Whether a path exists.
    fn exists(&mut self, path: &str) -> bool {
        self.stat(path).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_stdio_default_inherits() {
        let stdio = SpawnStdio::inherit();
        assert_eq!(stdio.stdin, None);
        assert_eq!(stdio.stdout, None);
        assert_eq!(stdio.stderr, None);
    }

    #[test]
    fn waited_child_carries_exit_code() {
        let child = WaitedChild {
            pid: 3,
            status: 2 << 8,
            exit_code: Some(2),
        };
        assert_eq!(child.exit_code, Some(2));
        assert_eq!(child.pid, 3);
    }
}
