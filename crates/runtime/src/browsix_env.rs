//! [`RuntimeEnv`] implemented over the Browsix system-call client: what a
//! guest program sees when it actually runs as a Browsix process inside a
//! worker.

use browsix_core::{
    ByteSource, Errno, PollRequest, SigAction, SigSet, Signal, SysResult, Syscall, SyscallBatch, NONBLOCK,
};
use browsix_fs::{DirEntry, Metadata, OpenFlags};

use crate::client::SyscallClient;
use crate::env::{
    Fd, JobCall, JobValue, MappedRegion, PollFd, RuntimeEnv, SpawnAttrs, SpawnGroup, SpawnStdio, WaitedChild,
    MAP_SHARED,
};
use crate::profile::ExecutionProfile;

/// Stdout writes below this size are coalesced into one buffered syscall;
/// once the buffer reaches it, the buffer is flushed.  Chosen well under the
/// shared-heap staging area so a flush always stages in one piece.
const STDOUT_BUFFER_LIMIT: usize = 32 * 1024;

/// The exit code of a guest whose program panicked: a Rust program's, when
/// its `main` panics.
const PANIC_EXIT_CODE: i32 = 101;

/// Runs one guest program as a Browsix process: waits for the init message,
/// builds the environment, runs the program and issues the final `exit`
/// system call — with [`PANIC_EXIT_CODE`] if the program panicked, so the
/// kernel learns that the process is gone and its buffered stdout still goes
/// out.  Shared by all three launchers.
pub(crate) fn run_guest_process(
    ctx: browsix_core::exec::LaunchContext,
    factory: &crate::program::GuestFactory,
    profile: ExecutionProfile,
    prefer_sync: bool,
) {
    let (client, start) = SyscallClient::start(ctx, prefer_sync);
    if client.terminated() {
        return;
    }
    let mut env = BrowsixEnv::new(client, start, profile);
    let mut program = factory();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program.run(&mut env)));
    env.exit_process(run.unwrap_or(PANIC_EXIT_CODE));
}

/// The process-side view of Browsix.
pub struct BrowsixEnv {
    client: SyscallClient,
    profile: ExecutionProfile,
    args: Vec<String>,
    env: Vec<(String, String)>,
    cwd: String,
    fork_image: Option<Vec<u8>>,
    exited: Option<i32>,
    /// Small stdout writes accumulate here and go to the kernel as one write
    /// syscall: at the buffer limit, and ahead of every other system call
    /// (see [`BrowsixEnv::submit`]), `exit` included.
    stdout_buf: Vec<u8>,
}

impl std::fmt::Debug for BrowsixEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrowsixEnv")
            .field("pid", &self.client.pid())
            .field("ring", &self.client.ring_enabled())
            .field("profile", &self.profile.name)
            .finish()
    }
}

impl BrowsixEnv {
    /// Builds the environment from a started client, the kernel's init
    /// payload and the execution profile to charge compute against.
    pub fn new(
        client: SyscallClient,
        start: browsix_core::exec::ProcessStart,
        profile: ExecutionProfile,
    ) -> BrowsixEnv {
        BrowsixEnv {
            client,
            profile,
            args: start.args,
            env: start.env,
            cwd: start.cwd,
            fork_image: start.fork_image.map(|f| f.image),
            exited: None,
            stdout_buf: Vec::new(),
        }
    }

    /// Whether the process has issued its final `exit` system call (or been
    /// terminated by the kernel).
    pub fn finished(&self) -> bool {
        self.exited.is_some() || self.client.terminated()
    }

    /// Issues the final `exit` system call, as Browsix runtimes must do
    /// explicitly because the worker cannot otherwise signal completion.
    /// Buffered stdout goes first, as before any call, so no output is lost.
    pub fn exit_process(&mut self, code: i32) {
        if self.finished() {
            return;
        }
        let _ = self.flush_stdout();
        self.exited = Some(code);
        self.client.send_only(Syscall::Exit { code });
    }

    /// Submits the batch `make` builds — every system call this environment
    /// makes goes through here or [`BrowsixEnv::call`] — after sending what
    /// the stdout buffer holds, so buffered output reaches the kernel before
    /// anything that could observe it: a read of a pipe a child feeds, a
    /// write to a descriptor `dup2`ed onto stdout, a `kill` of the process
    /// itself.  The batch is built after the flush because write data staged
    /// in the shared heap belongs to the next batch submitted.  A flush
    /// failure (stdout's pipe gone, say) is stdout's problem, not this call's.
    fn submit(&mut self, make: impl FnOnce(&mut SyscallClient) -> SyscallBatch) -> Vec<SysResult> {
        let _ = self.flush_stdout();
        let batch = make(&mut self.client);
        self.client.submit(batch)
    }

    /// One system call through [`BrowsixEnv::submit`].
    fn call(&mut self, call: Syscall) -> SysResult {
        self.submit(|_| SyscallBatch::single(call))
            .pop()
            .unwrap_or(SysResult::Err(Errno::EIO))
    }

    /// Writes straight through to the kernel, bypassing the stdout buffer.
    fn write_through(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        self.write_staged(data, &|_, data| Syscall::Write { fd, data })
    }

    /// Writes `data` by one call per piece that fits the staging area, made
    /// by `call` from the piece's offset in `data` and its staged bytes; a
    /// call answering `Ok` took its whole piece.
    fn write_staged(&mut self, data: &[u8], call: &dyn Fn(u64, ByteSource) -> Syscall) -> Result<usize, Errno> {
        let mut written = 0;
        while written < data.len() {
            let chunk_len = (data.len() - written).min(self.client.max_staged_write());
            let piece = &data[written..written + chunk_len];
            let staged =
                |client: &mut SyscallClient| SyscallBatch::single(call(written as u64, client.stage_write(piece)));
            let count = match self.submit(staged).pop() {
                Some(SysResult::Int(count)) => count as usize,
                Some(SysResult::Ok) => chunk_len,
                Some(SysResult::Err(e)) => return Err(e),
                _ => return Err(Errno::EIO),
            };
            if count == 0 {
                break;
            }
            written += count;
        }
        Ok(written)
    }

    fn expect_int(&mut self, call: Syscall) -> Result<i64, Errno> {
        match self.call(call) {
            SysResult::Int(v) => Ok(v),
            SysResult::Ok => Ok(0),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn expect_ok(&mut self, call: Syscall) -> Result<(), Errno> {
        match self.call(call) {
            SysResult::Ok | SysResult::Int(_) => Ok(()),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn expect_data(&mut self, call: Syscall) -> Result<Vec<u8>, Errno> {
        match self.call(call) {
            SysResult::Data(data) => Ok(data),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    /// The `spawn` system call, with the caller's environment.
    fn spawn_call(&self, path: &str, args: &[String], stdio: SpawnStdio, attrs: SpawnAttrs) -> Syscall {
        Syscall::Spawn {
            path: path.to_owned(),
            args: args.to_vec(),
            env: self.env.clone(),
            cwd: None,
            stdio: [stdio.stdin, stdio.stdout, stdio.stderr],
            pgroup: match attrs.group {
                SpawnGroup::Parent => -1,
                SpawnGroup::New => 0,
                SpawnGroup::Join(pgid) => pgid as i32,
            },
            foreground: attrs.foreground,
        }
    }

    /// The system call a [`JobCall`] is.
    fn job_syscall(&self, call: JobCall) -> Syscall {
        match call {
            JobCall::Pipe => Syscall::Pipe2,
            JobCall::Access(path) => Syscall::Access {
                path: path.to_owned(),
                mode: 0,
            },
            JobCall::Spawn {
                path,
                args,
                stdio,
                attrs,
            } => self.spawn_call(path, args, stdio, attrs),
            JobCall::Close(fd) => Syscall::Close { fd },
            JobCall::Getpgid(pid) => Syscall::Getpgid { pid },
            JobCall::Wait { pid, options } => Syscall::Wait4 { pid, options },
        }
    }
}

/// What `wait4` answered, as [`RuntimeEnv::wait_options`] reports it.
fn waited(result: SysResult) -> Result<Option<WaitedChild>, Errno> {
    match result {
        SysResult::Wait { pid: 0, .. } => Ok(None),
        SysResult::Wait { pid, status } => Ok(Some(WaitedChild {
            pid,
            status,
            exit_code: browsix_core::syscall::wait_status_exit_code(status),
        })),
        SysResult::Err(e) => Err(e),
        _ => Err(Errno::EIO),
    }
}

/// What the system call `call` made answered, as a [`JobValue`].
fn job_value(call: JobCall, result: SysResult) -> Result<JobValue, Errno> {
    match (call, result) {
        (JobCall::Wait { .. }, result) => waited(result).map(JobValue::Waited),
        (_, SysResult::Err(e)) => Err(e),
        (JobCall::Pipe, SysResult::Pair(read_fd, write_fd)) => Ok(JobValue::Pipe(read_fd as Fd, write_fd as Fd)),
        (JobCall::Spawn { .. } | JobCall::Getpgid(_), SysResult::Int(id)) => Ok(JobValue::Id(id as u32)),
        (JobCall::Access(_) | JobCall::Close(_), SysResult::Ok | SysResult::Int(_)) => Ok(JobValue::Done),
        _ => Err(Errno::EIO),
    }
}

impl RuntimeEnv for BrowsixEnv {
    fn args(&self) -> Vec<String> {
        self.args.clone()
    }

    fn env_vars(&self) -> Vec<(String, String)> {
        self.env.clone()
    }

    fn getpid(&mut self) -> u32 {
        self.expect_int(Syscall::GetPid).unwrap_or(0) as u32
    }

    fn getppid(&mut self) -> u32 {
        self.expect_int(Syscall::GetPPid).unwrap_or(0) as u32
    }

    fn getrusage(&mut self) -> Result<Vec<(String, u64)>, Errno> {
        let data = self.expect_data(Syscall::Getrusage { who: 0 })?;
        // Pair encoding: u32 count, then (str key, u64 value) pairs.
        let mut r = browsix_core::wire::Reader::new(&data);
        let count = r.u32().ok_or(Errno::EIO)?;
        let mut pairs = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let key = r.str().ok_or(Errno::EIO)?.to_owned();
            let value = r.u64().ok_or(Errno::EIO)?;
            pairs.push((key, value));
        }
        Ok(pairs)
    }

    fn getcwd(&mut self) -> String {
        match self.call(Syscall::GetCwd) {
            SysResult::Path(path) => {
                self.cwd = path.clone();
                path
            }
            _ => self.cwd.clone(),
        }
    }

    fn chdir(&mut self, path: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::Chdir { path: path.to_owned() })?;
        self.cwd = browsix_fs::path::resolve(&self.cwd, path);
        Ok(())
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        self.expect_int(Syscall::Open {
            path: path.to_owned(),
            flags,
            mode: 0o644,
        })
        .map(|fd| fd as Fd)
    }

    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.expect_ok(Syscall::Close { fd })
    }

    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno> {
        self.expect_data(Syscall::Read { fd, len: len as u32 })
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        // Small stdout writes coalesce in the buffer; large ones (and every
        // other descriptor) go straight through, after what is buffered.
        if fd != 1 || data.len() >= STDOUT_BUFFER_LIMIT {
            return self.write_through(fd, data);
        }
        self.stdout_buf.extend_from_slice(data);
        if self.stdout_buf.len() >= STDOUT_BUFFER_LIMIT {
            self.flush_stdout()?;
        }
        Ok(data.len())
    }

    fn write_vectored(&mut self, fd: Fd, bufs: &[&[u8]]) -> Result<usize, Errno> {
        if bufs.is_empty() {
            return Ok(0);
        }
        // One submission per shared-heap-capacity's worth of buffers: every
        // write in a chunk is staged back to back and the whole chunk crosses
        // to the kernel in a single round trip.  A buffer larger than that
        // goes as several writes.
        let capacity = self.client.max_staged_write();
        let pieces: Vec<&[u8]>;
        let bufs = if bufs.iter().any(|buf| buf.len() > capacity) {
            pieces = bufs.iter().flat_map(|buf| buf.chunks(capacity)).collect();
            &pieces[..]
        } else {
            bufs
        };
        let mut total = 0usize;
        let mut start = 0usize;
        while start < bufs.len() {
            let mut end = start;
            let mut staged = 0usize;
            while end < bufs.len() && staged + bufs[end].len() <= capacity {
                staged += bufs[end].len();
                end += 1;
            }
            let staged = |client: &mut SyscallClient| {
                let mut batch = SyscallBatch::new();
                for source in client.stage_writes(&bufs[start..end]) {
                    batch.push(Syscall::Write { fd, data: source });
                }
                batch
            };
            for result in self.submit(staged) {
                match result {
                    SysResult::Int(count) => total += count as usize,
                    SysResult::Ok => {}
                    SysResult::Err(e) => {
                        if total == 0 {
                            return Err(e);
                        }
                        return Ok(total);
                    }
                    _ => return Err(Errno::EIO),
                }
            }
            start = end;
        }
        Ok(total)
    }

    fn flush_stdout(&mut self) -> Result<(), Errno> {
        if self.stdout_buf.is_empty() {
            return Ok(());
        }
        let data = std::mem::take(&mut self.stdout_buf);
        self.write_through(1, &data).map(|_| ())
    }

    fn pread(&mut self, fd: Fd, len: usize, offset: u64) -> Result<Vec<u8>, Errno> {
        self.expect_data(Syscall::Pread {
            fd,
            len: len as u32,
            offset,
        })
    }

    fn pwrite(&mut self, fd: Fd, data: &[u8], offset: u64) -> Result<usize, Errno> {
        self.write_staged(data, &|at, data| Syscall::Pwrite {
            fd,
            data,
            offset: offset + at,
        })
    }

    fn seek(&mut self, fd: Fd, offset: i64, whence: u32) -> Result<u64, Errno> {
        self.expect_int(Syscall::Seek { fd, offset, whence }).map(|n| n as u64)
    }

    fn dup2(&mut self, from: Fd, to: Fd) -> Result<(), Errno> {
        self.expect_ok(Syscall::Dup2 { from, to })
    }

    fn fstat(&mut self, fd: Fd) -> Result<Metadata, Errno> {
        match self.call(Syscall::Fstat { fd }) {
            SysResult::Stat(meta) => Ok(meta),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        self.expect_ok(Syscall::Fsync { fd })
    }

    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, offset: i64, len: u64) -> Result<u64, Errno> {
        self.expect_int(Syscall::Sendfile {
            out_fd,
            in_fd,
            offset,
            len,
        })
        .map(|n| n as u64)
    }

    fn splice(&mut self, fd_in: Fd, fd_out: Fd, len: u64) -> Result<u64, Errno> {
        self.expect_int(Syscall::Splice { fd_in, fd_out, len })
            .map(|n| n as u64)
    }

    fn poll(&mut self, fds: &mut [PollFd], timeout_ms: i32) -> Result<usize, Errno> {
        let requests: Vec<PollRequest> = fds
            .iter()
            .map(|p| PollRequest {
                fd: p.fd,
                events: p.events,
            })
            .collect();
        match self.call(Syscall::Poll {
            fds: requests,
            timeout_ms,
        }) {
            SysResult::Poll(revents) => {
                let mut ready = 0;
                for (slot, revent) in fds.iter_mut().zip(revents) {
                    slot.revents = revent;
                    if revent != 0 {
                        ready += 1;
                    }
                }
                Ok(ready)
            }
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn set_nonblocking(&mut self, fd: Fd, nonblocking: bool) -> Result<(), Errno> {
        self.expect_ok(Syscall::SetFlags {
            fd,
            flags: if nonblocking { NONBLOCK } else { 0 },
        })
    }

    fn stat(&mut self, path: &str) -> Result<Metadata, Errno> {
        match self.call(Syscall::Stat {
            path: path.to_owned(),
            lstat: false,
        }) {
            SysResult::Stat(meta) => Ok(meta),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, Errno> {
        match self.call(Syscall::Readdir { path: path.to_owned() }) {
            SysResult::Entries(entries) => Ok(entries),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::Mkdir {
            path: path.to_owned(),
            mode: 0o755,
        })
    }

    fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::Rmdir { path: path.to_owned() })
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::Unlink { path: path.to_owned() })
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::Rename {
            from: from.to_owned(),
            to: to.to_owned(),
        })
    }

    fn truncate(&mut self, path: &str, size: u64) -> Result<(), Errno> {
        self.expect_ok(Syscall::Truncate {
            path: path.to_owned(),
            size,
        })
    }

    fn access(&mut self, path: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::Access {
            path: path.to_owned(),
            mode: 0,
        })
    }

    fn utimes(&mut self, path: &str, atime_ms: u64, mtime_ms: u64) -> Result<(), Errno> {
        self.expect_ok(Syscall::Utimes {
            path: path.to_owned(),
            atime_ms,
            mtime_ms,
        })
    }

    fn spawn(&mut self, path: &str, args: &[String], stdio: SpawnStdio) -> Result<u32, Errno> {
        let call = self.spawn_call(path, args, stdio, SpawnAttrs::default());
        self.expect_int(call).map(|pid| pid as u32)
    }

    fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        match self.call(Syscall::Pipe2) {
            SysResult::Pair(read_fd, write_fd) => Ok((read_fd as Fd, write_fd as Fd)),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn stat_many(&mut self, paths: &[&str]) -> Vec<Result<Metadata, Errno>> {
        if paths.is_empty() {
            return Vec::new();
        }
        let mut batch = SyscallBatch::new();
        for path in paths {
            batch.push(Syscall::Stat {
                path: (*path).to_owned(),
                lstat: false,
            });
        }
        self.submit(|_| batch)
            .into_iter()
            .map(|result| match result {
                SysResult::Stat(meta) => Ok(meta),
                SysResult::Err(e) => Err(e),
                _ => Err(Errno::EIO),
            })
            .collect()
    }

    fn kill(&mut self, pid: u32, signal: Signal) -> Result<(), Errno> {
        self.expect_ok(Syscall::Kill {
            pid: pid as i32,
            signal,
        })
    }

    fn kill_group(&mut self, pgid: u32, signal: Signal) -> Result<(), Errno> {
        self.expect_ok(Syscall::Kill {
            pid: -(pgid as i64) as i32,
            signal,
        })
    }

    fn sigaction(&mut self, signal: Signal, action: SigAction) -> Result<(), Errno> {
        self.expect_ok(Syscall::SignalAction { signal, action })
    }

    fn sigprocmask(&mut self, how: u32, mask: SigSet) -> Result<SigSet, Errno> {
        self.expect_int(Syscall::Sigprocmask { how, mask: mask.bits() })
            .map(|old| SigSet::from_bits(old as u64))
    }

    fn setpgid(&mut self, pid: u32, pgid: u32) -> Result<(), Errno> {
        self.expect_ok(Syscall::Setpgid { pid, pgid })
    }

    fn getpgid(&mut self, pid: u32) -> Result<u32, Errno> {
        self.expect_int(Syscall::Getpgid { pid }).map(|pgid| pgid as u32)
    }

    fn tcsetpgrp(&mut self, pgid: u32) -> Result<(), Errno> {
        self.expect_ok(Syscall::Tcsetpgrp { pgid })
    }

    fn wait_options(&mut self, pid: i32, options: u32) -> Result<Option<WaitedChild>, Errno> {
        waited(self.call(Syscall::Wait4 { pid, options }))
    }

    fn job_control(&mut self, calls: &[JobCall]) -> Vec<Result<JobValue, Errno>> {
        if calls.is_empty() {
            return Vec::new();
        }
        let mut batch = SyscallBatch::new();
        for &call in calls {
            batch.push(self.job_syscall(call));
        }
        let results = self.submit(|_| batch);
        calls
            .iter()
            .zip(results)
            .map(|(&call, result)| job_value(call, result))
            .collect()
    }

    fn pending_signals(&mut self) -> Vec<Signal> {
        self.client.pending_signals()
    }

    fn fork(&mut self, image: Vec<u8>) -> Result<u32, Errno> {
        self.expect_int(Syscall::Fork { image, resume_point: 0 })
            .map(|pid| pid as u32)
    }

    fn fork_image(&self) -> Option<Vec<u8>> {
        self.fork_image.clone()
    }

    fn exit(&mut self, code: i32) {
        self.exit_process(code);
    }

    fn socket(&mut self) -> Result<Fd, Errno> {
        self.expect_int(Syscall::Socket).map(|fd| fd as Fd)
    }

    fn bind(&mut self, fd: Fd, port: u16) -> Result<u16, Errno> {
        self.expect_int(Syscall::Bind { fd, port }).map(|p| p as u16)
    }

    fn listen(&mut self, fd: Fd, backlog: u32) -> Result<(), Errno> {
        self.expect_ok(Syscall::Listen { fd, backlog })
    }

    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        self.expect_int(Syscall::Accept { fd }).map(|fd| fd as Fd)
    }

    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        self.expect_ok(Syscall::Connect { fd, port })
    }

    fn ftruncate(&mut self, fd: Fd, size: u64) -> Result<(), Errno> {
        self.expect_ok(Syscall::Ftruncate { fd, size })
    }

    fn mmap(&mut self, addr: u64, len: u64, prot: u32, flags: u32, fd: Fd, offset: u64) -> Result<MappedRegion, Errno> {
        let base = self.expect_int(Syscall::Mmap {
            addr,
            len,
            prot,
            flags,
            fd,
            offset,
        })? as u64;
        // For MAP_SHARED the kernel posted the backing buffer out of band
        // before completing the call, so it is already waiting for us.
        let shared = if flags & MAP_SHARED != 0 {
            let sab = self.client.take_shared_map(base).ok_or(Errno::EIO)?;
            Some(sab)
        } else {
            None
        };
        Ok(MappedRegion {
            addr: base,
            len: browsix_core::vm::page_align(len)?,
            shared,
            shared_offset: 0,
        })
    }

    fn munmap(&mut self, addr: u64, len: u64) -> Result<(), Errno> {
        self.expect_ok(Syscall::Munmap { addr, len })
    }

    fn msync(&mut self, addr: u64, len: u64) -> Result<(), Errno> {
        self.expect_ok(Syscall::Msync { addr, len })
    }

    fn mprotect(&mut self, addr: u64, len: u64, prot: u32) -> Result<(), Errno> {
        self.expect_ok(Syscall::Mprotect { addr, len, prot })
    }

    fn shm_open(&mut self, name: &str, flags: OpenFlags, mode: u32) -> Result<Fd, Errno> {
        self.expect_int(Syscall::ShmOpen {
            name: name.to_owned(),
            flags: flags.to_bits(),
            mode,
        })
        .map(|fd| fd as Fd)
    }

    fn shm_unlink(&mut self, name: &str) -> Result<(), Errno> {
        self.expect_ok(Syscall::ShmUnlink { name: name.to_owned() })
    }

    fn vm_read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        self.expect_data(Syscall::VmRead { addr, len: len as u32 })
    }

    fn vm_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        self.write_staged(data, &|at, data| Syscall::VmWrite { addr: addr + at, data })
            .map(drop)
    }

    fn charge_compute(&mut self, units: u64) {
        self.profile.charge(units);
    }

    fn profile(&self) -> &ExecutionProfile {
        &self.profile
    }
}
