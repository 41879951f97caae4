//! [`RuntimeEnv`] implemented over the Browsix system-call client: what a
//! guest program sees when it actually runs as a Browsix process inside a
//! worker.

use browsix_core::{Errno, PollRequest, SigAction, SigSet, Signal, SysResult, Syscall, SyscallBatch, NONBLOCK};
use browsix_fs::{DirEntry, Metadata, OpenFlags};

use crate::client::SyscallClient;
use crate::env::{Fd, MappedRegion, PollFd, RuntimeEnv, SpawnStdio, WaitedChild, MAP_SHARED};
use crate::profile::ExecutionProfile;

/// Stdout writes below this size are coalesced into one buffered syscall;
/// once the buffer reaches it, the buffer is flushed.  Chosen well under the
/// shared-heap data area so a flush always stages in one piece.
const STDOUT_BUFFER_LIMIT: usize = 32 * 1024;

/// Runs one guest program as a Browsix process: waits for the init message,
/// builds the environment, runs the program and issues the final `exit`
/// system call.  Shared by all three launchers.
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
    let code = program.run(&mut env);
    env.exit_process(code);
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
    /// syscall, flushed at the buffer limit, before operations whose ordering
    /// could observe stdout (reads, spawns, waits, fd-1 plumbing) and at exit.
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
    /// Buffered stdout is flushed first so no output is lost.
    pub fn exit_process(&mut self, code: i32) {
        if self.finished() {
            return;
        }
        let _ = self.flush_stdout();
        self.exited = Some(code);
        self.client.send_only(Syscall::Exit { code });
    }

    /// The underlying client (used by tests to inspect the convention).
    pub fn client(&self) -> &SyscallClient {
        &self.client
    }

    /// Writes straight through to the kernel, bypassing the stdout buffer.
    fn write_through(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        let mut written = 0;
        while written < data.len() {
            let chunk_len = (data.len() - written).min(self.client.max_staged_write());
            let chunk = &data[written..written + chunk_len];
            let source = self.client.stage_write(chunk);
            let count = self.expect_int(Syscall::Write { fd, data: source })? as usize;
            if count == 0 {
                break;
            }
            written += count;
        }
        Ok(written)
    }

    fn expect_int(&mut self, call: Syscall) -> Result<i64, Errno> {
        match self.client.call(call) {
            SysResult::Int(v) => Ok(v),
            SysResult::Ok => Ok(0),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn expect_ok(&mut self, call: Syscall) -> Result<(), Errno> {
        match self.client.call(call) {
            SysResult::Ok | SysResult::Int(_) => Ok(()),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn expect_data(&mut self, call: Syscall) -> Result<Vec<u8>, Errno> {
        match self.client.call(call) {
            SysResult::Data(data) => Ok(data),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
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
        match self.client.call(Syscall::GetCwd) {
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
        if fd == 1 {
            let _ = self.flush_stdout();
        }
        self.expect_ok(Syscall::Close { fd })
    }

    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno> {
        // Anything read may depend on output we have buffered (a pipe fed by
        // a child of ours, for example), so reads flush first.  A flush
        // failure (stdout's pipe gone, say) is stdout's problem, not this
        // read's.
        let _ = self.flush_stdout();
        self.expect_data(Syscall::Read { fd, len: len as u32 })
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        // Small stdout writes coalesce in the buffer; large ones (and every
        // other descriptor) go straight through.
        if fd == 1 {
            if data.len() >= STDOUT_BUFFER_LIMIT {
                self.flush_stdout()?;
                return self.write_through(fd, data);
            }
            self.stdout_buf.extend_from_slice(data);
            if self.stdout_buf.len() >= STDOUT_BUFFER_LIMIT {
                self.flush_stdout()?;
            }
            return Ok(data.len());
        }
        self.write_through(fd, data)
    }

    fn write_vectored(&mut self, fd: Fd, bufs: &[&[u8]]) -> Result<usize, Errno> {
        if bufs.is_empty() {
            return Ok(0);
        }
        if fd == 1 {
            self.flush_stdout()?;
        }
        // One submission per shared-heap-capacity's worth of buffers: every
        // write in a chunk is staged back to back and the whole chunk crosses
        // to the kernel in a single round trip.
        let capacity = self.client.max_staged_write();
        let mut total = 0usize;
        let mut start = 0usize;
        while start < bufs.len() {
            let mut end = start;
            let mut staged = 0usize;
            while end < bufs.len() && (end == start || staged + bufs[end].len() <= capacity) {
                staged += bufs[end].len();
                end += 1;
            }
            let sources = self.client.stage_writes(&bufs[start..end]);
            let mut batch = SyscallBatch::new();
            for source in sources {
                batch.push(Syscall::Write { fd, data: source });
            }
            for result in self.client.submit(batch) {
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
        let source = self.client.stage_write(data);
        self.expect_int(Syscall::Pwrite {
            fd,
            data: source,
            offset,
        })
        .map(|n| n as usize)
    }

    fn seek(&mut self, fd: Fd, offset: i64, whence: u32) -> Result<u64, Errno> {
        if fd == 1 {
            let _ = self.flush_stdout();
        }
        self.expect_int(Syscall::Seek { fd, offset, whence }).map(|n| n as u64)
    }

    fn dup2(&mut self, from: Fd, to: Fd) -> Result<(), Errno> {
        if from == 1 || to == 1 {
            let _ = self.flush_stdout();
        }
        self.expect_ok(Syscall::Dup2 { from, to })
    }

    fn fstat(&mut self, fd: Fd) -> Result<Metadata, Errno> {
        match self.client.call(Syscall::Fstat { fd }) {
            SysResult::Stat(meta) => Ok(meta),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        if fd == 1 {
            // Buffered stdout must reach the kernel before it can be synced.
            let _ = self.flush_stdout();
        }
        self.expect_ok(Syscall::Fsync { fd })
    }

    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, offset: i64, len: u64) -> Result<u64, Errno> {
        if out_fd == 1 {
            // Anything already buffered must reach the descriptor first.
            let _ = self.flush_stdout();
        }
        self.expect_int(Syscall::Sendfile {
            out_fd,
            in_fd,
            offset,
            len,
        })
        .map(|n| n as u64)
    }

    fn splice(&mut self, fd_in: Fd, fd_out: Fd, len: u64) -> Result<u64, Errno> {
        if fd_out == 1 {
            let _ = self.flush_stdout();
        }
        self.expect_int(Syscall::Splice { fd_in, fd_out, len })
            .map(|n| n as u64)
    }

    fn poll(&mut self, fds: &mut [PollFd], timeout_ms: i32) -> Result<usize, Errno> {
        // Readiness downstream of us (a child reading the pipe we feed) can
        // depend on output still sitting in the stdout buffer.
        let _ = self.flush_stdout();
        let requests: Vec<PollRequest> = fds
            .iter()
            .map(|p| PollRequest {
                fd: p.fd,
                events: p.events,
            })
            .collect();
        match self.client.call(Syscall::Poll {
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
        match self.client.call(Syscall::Stat {
            path: path.to_owned(),
            lstat: false,
        }) {
            SysResult::Stat(meta) => Ok(meta),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, Errno> {
        match self.client.call(Syscall::Readdir { path: path.to_owned() }) {
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
        // Children may share our stdout; anything we printed must precede
        // anything they print.
        let _ = self.flush_stdout();
        self.expect_int(Syscall::Spawn {
            path: path.to_owned(),
            args: args.to_vec(),
            env: self.env.clone(),
            cwd: None,
            stdio: [stdio.stdin, stdio.stdout, stdio.stderr],
        })
        .map(|pid| pid as u32)
    }

    fn wait(&mut self, pid: i32) -> Result<WaitedChild, Errno> {
        let _ = self.flush_stdout();
        match self.client.call(Syscall::Wait4 { pid, options: 0 }) {
            SysResult::Wait { pid, status } => Ok(WaitedChild {
                pid,
                status,
                exit_code: browsix_core::syscall::wait_status_exit_code(status),
            }),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn wait_nohang(&mut self, pid: i32) -> Result<Option<WaitedChild>, Errno> {
        let _ = self.flush_stdout();
        match self.client.call(Syscall::Wait4 { pid, options: 1 }) {
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

    fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        match self.client.call(Syscall::Pipe2) {
            SysResult::Pair(read_fd, write_fd) => Ok((read_fd as Fd, write_fd as Fd)),
            SysResult::Err(e) => Err(e),
            _ => Err(Errno::EIO),
        }
    }

    fn close_many(&mut self, fds: &[Fd]) -> Result<(), Errno> {
        if fds.is_empty() {
            return Ok(());
        }
        if fds.contains(&1) {
            let _ = self.flush_stdout();
        }
        let mut batch = SyscallBatch::new();
        for &fd in fds {
            batch.push(Syscall::Close { fd });
        }
        let mut first_error = Ok(());
        for result in self.client.submit(batch) {
            if let SysResult::Err(e) = result {
                if first_error.is_ok() {
                    first_error = Err(e);
                }
            }
        }
        first_error
    }

    fn pipe_many(&mut self, count: usize) -> Result<Vec<(Fd, Fd)>, Errno> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let mut batch = SyscallBatch::new();
        for _ in 0..count {
            batch.push(Syscall::Pipe2);
        }
        let mut pairs = Vec::with_capacity(count);
        for result in self.client.submit(batch) {
            match result {
                SysResult::Pair(read_fd, write_fd) => pairs.push((read_fd as Fd, write_fd as Fd)),
                SysResult::Err(e) => return Err(e),
                _ => return Err(Errno::EIO),
            }
        }
        Ok(pairs)
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
        self.client
            .submit(batch)
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

    fn register_signal_handler(&mut self, signal: Signal) -> Result<(), Errno> {
        self.sigaction(signal, SigAction::Handler { restart: false })
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
        let _ = self.flush_stdout();
        match self.client.call(Syscall::Wait4 { pid, options }) {
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

    fn pending_signals(&mut self) -> Vec<Signal> {
        self.client.pending_signals()
    }

    fn fork(&mut self, image: Vec<u8>) -> Result<u32, Errno> {
        let _ = self.flush_stdout();
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
            len: browsix_core::vm::page_align(len),
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
        let source = self.client.stage_write(data);
        self.expect_ok(Syscall::VmWrite { addr, data: source })
    }

    fn charge_compute(&mut self, units: u64) {
        self.profile.charge(units);
    }

    fn profile(&self) -> &ExecutionProfile {
        &self.profile
    }
}
