//! File and directory system-call handlers.
//!
//! Browsix "implements system calls that operate on paths, like `open` and
//! `stat`, as method calls to the kernel's BrowserFS instance".  Here the
//! path-based calls still route through the shared [`MountedFs`]
//! (`browsix_fs::MountedFs`) — behind its dentry cache — but `sys_open` is
//! the **only** place a descriptor's path is ever resolved: it obtains a
//! [`browsix_fs::FileHandle`] bound to the node, and every descriptor-based
//! call (`read`, `write`, `pread`, `pwrite`, `seek`, `fstat`, `fsync`) goes
//! through that handle without touching a path string again.

use std::sync::Arc;

use browsix_fs::{Errno, FileSystem, FileType, Metadata, OpenFlags};

use crate::fd::{Fd, FileKind, OpenFile};
use crate::kernel::waitq::WaitChannel;
use crate::kernel::{KernelState, Outcome, ReplyTo, StreamIo, WaitKind};
use crate::signals::Signal;
use crate::streams::{Stream, StreamId};
use crate::syscall::{ByteSource, SysResult};
use crate::task::Pid;

impl KernelState {
    pub(crate) fn sys_open(&mut self, pid: Pid, path: String, flags: OpenFlags, mode: u32) -> Result<SysResult, Errno> {
        let path = self.resolve_path(pid, &path);
        let is_dir = match self.fs.stat(&path) {
            Ok(_) if flags.create && flags.exclusive => return Err(Errno::EEXIST),
            Ok(meta) => meta.is_dir(),
            Err(Errno::ENOENT) if flags.create => {
                self.fs.create(&path, mode & 0o7777)?;
                false
            }
            Err(e) => return Err(e),
        };
        let kind = if is_dir {
            if flags.write {
                return Err(Errno::EISDIR);
            }
            FileKind::Directory { path }
        } else {
            // The single point where a descriptor's path is resolved: from
            // here on, all I/O goes through the handle.
            let handle = self.fs.open_handle(&path, flags)?;
            if flags.truncate && flags.write {
                handle.truncate(0)?;
            }
            // POSIX: the offset starts at 0 even with O_APPEND; append writes
            // seek-to-end atomically at the handle layer instead.
            FileKind::File { handle, flags }
        };
        let fd = self.task_mut(pid)?.files.insert(OpenFile::new(kind), 0);
        Ok(SysResult::Int(fd as i64))
    }

    pub(crate) fn sys_close(&mut self, pid: Pid, fd: Fd) -> Result<SysResult, Errno> {
        let file = self.task_mut(pid)?.files.remove(fd)?;
        self.release_file(file);
        Ok(SysResult::Ok)
    }

    /// Reads a descriptor that is not a stream end.  None of these block:
    /// files, the terminal and `/dev/null` answer at once, the rest refuse.
    fn read_unstreamed(&mut self, pid: Pid, file: &OpenFile, kind: FileKind, len: usize) -> Result<Vec<u8>, Errno> {
        match kind {
            FileKind::File { handle, flags } => {
                if !flags.read {
                    return Err(Errno::EBADF);
                }
                let data = handle.read_at(file.offset(), len)?;
                file.advance_offset(data.len() as u64);
                Ok(data)
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::Null => Ok(Vec::new()),
            FileKind::Tty => {
                // Job control: a background process group reading from the
                // controlling terminal gets SIGTTIN (default: stop).  A
                // reader that blocks or ignores SIGTTIN gets EIO instead, as
                // POSIX specifies — returning EINTR there would make a
                // retry-on-EINTR loop raise SIGTTIN forever.  The foreground
                // group (or a terminal with no foreground set) reads EOF,
                // since the terminal has no input source.
                if let Some(fg) = self.router.foreground_pgid() {
                    let task = self.task(pid)?;
                    if self.router.process_pgid(pid) != Some(fg) {
                        let shrugged = task.signals.blocked().contains(Signal::SIGTTIN)
                            || matches!(task.signals.action(Signal::SIGTTIN), crate::signals::SigAction::Ignore);
                        if shrugged {
                            return Err(Errno::EIO);
                        }
                        let _ = self.send_signal(pid, Signal::SIGTTIN);
                        return Err(Errno::EINTR);
                    }
                }
                Ok(Vec::new())
            }
            FileKind::HostSink { .. } | FileKind::PipeWriter { .. } => Err(Errno::EBADF),
            FileKind::Socket { .. } | FileKind::SocketListener { .. } => Err(Errno::ENOTCONN),
            FileKind::PipeReader { .. } | FileKind::SocketStream { .. } => unreachable!("a stream end"),
        }
    }

    /// Attempts a read of an owned stream; `None` means "would block".
    pub(crate) fn try_read_stream(&mut self, id: StreamId, len: usize) -> Option<Vec<u8>> {
        let popped = self.with_stream(id, |stream| {
            if stream.is_empty() {
                Err(stream.write_end_closed())
            } else {
                Ok(stream.pop(len))
            }
        });
        match popped {
            Some(Ok(data)) => {
                // Space was freed: writers blocked on this stream can continue.
                self.wake(WaitChannel::StreamWritable(id));
                Some(data)
            }
            Some(Err(eof)) => eof.then(Vec::new),
            // All endpoints (including the buffer) are gone: read EOF.
            None => Some(Vec::new()),
        }
    }

    pub(crate) fn sys_read(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, len: usize) -> Result<Outcome, Errno> {
        // The descriptor is resolved here, once: whatever happens to the
        // number while the call is parked, it reads the stream it found.
        let file = self.file(pid, fd)?;
        let kind = file.kind();
        let Some(stream) = kind.read_stream() else {
            let data = self.read_unstreamed(pid, &file, kind, len)?;
            return Ok(Outcome::Complete(SysResult::Data(data)));
        };
        self.stream_io(pid, reply, stream, StreamIo::Read(len), file.nonblocking())
    }

    pub(crate) fn sys_pread(&mut self, pid: Pid, fd: Fd, len: usize, offset: u64) -> Result<SysResult, Errno> {
        match self.file(pid, fd)?.kind() {
            FileKind::File { handle, flags } if flags.read => Ok(SysResult::Data(handle.read_at(offset, len)?)),
            FileKind::File { .. } => Err(Errno::EBADF),
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::ESPIPE),
        }
    }

    /// Materialises a [`ByteSource`]: an inline payload is moved out (the
    /// caller pushes, writes or parks that very buffer), shared-heap
    /// references are copied directly out of the heap the process's ring is
    /// mapped in (`EFAULT` without one).  A transfer reference that is still
    /// one here claimed no buffer: it named none, the wrong one or one
    /// already taken, or it came through a ring slot, which has no transfer
    /// list beside it.
    pub(crate) fn resolve_bytes(&self, pid: Pid, data: ByteSource) -> Result<Vec<u8>, Errno> {
        match data {
            ByteSource::Inline(bytes) => Ok(bytes),
            ByteSource::Transfer { .. } => Err(Errno::EINVAL),
            ByteSource::SharedHeap { offset, len } => {
                let task = self.task(pid)?;
                let ring = task.ring.as_ref().ok_or(Errno::EFAULT)?;
                ring.sab()
                    .read_bytes(offset as usize, len as usize)
                    .map_err(|_| Errno::EFAULT)
            }
        }
    }

    /// Writes a descriptor that is not a stream end; like the reads, none of
    /// these block.
    fn write_unstreamed(file: &OpenFile, kind: FileKind, data: &[u8]) -> Result<(), Errno> {
        match kind {
            FileKind::File { handle, flags } => {
                if !flags.write {
                    return Err(Errno::EBADF);
                }
                if flags.append {
                    // Atomic seek-to-end + write under the node lock: two
                    // descriptors (dup'd or independently opened) appending
                    // interleaved can never clobber each other, and the
                    // stored offset is never trusted for the write position.
                    file.set_offset(handle.append(data)?);
                } else {
                    let offset = file.offset();
                    let written = handle.write_at(offset, data)?;
                    file.set_offset(offset + written as u64);
                }
                Ok(())
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::Null | FileKind::Tty => Ok(()),
            FileKind::HostSink { sink } => {
                sink(data);
                Ok(())
            }
            FileKind::PipeReader { .. } => Err(Errno::EBADF),
            FileKind::Socket { .. } | FileKind::SocketListener { .. } => Err(Errno::ENOTCONN),
            FileKind::PipeWriter { .. } | FileKind::SocketStream { .. } => unreachable!("a stream end"),
        }
    }

    /// Attempts a write of `data[from..]` to an owned stream: the bytes
    /// accepted (fewer than asked means "would block"), or `EPIPE`.  A write
    /// that has not started (`from == 0`) offers the stream the buffer
    /// itself, and a large one that fits whole is taken by move, leaving
    /// `data` empty; everything else is copied in.
    ///
    /// Writing to a stream nobody will read raises SIGPIPE, as on Unix —
    /// through the same delivery machinery as every other signal, so
    /// handlers, sigprocmask and SA_RESTART all apply.  One rule covers the
    /// sharded case: the shard that owns the process raises the signal.  A
    /// writer whose call was shipped here is in no task table of this
    /// shard, so `send_signal` finds nobody; its own shard raises the
    /// signal when the `EPIPE` arrives there (`ShardMsg::RemoteOpDone`),
    /// before completing the call — signal, then error, in both cases.
    pub(crate) fn try_write_stream(
        &mut self,
        pid: Pid,
        id: StreamId,
        data: &mut Vec<u8>,
        from: usize,
    ) -> Result<usize, Errno> {
        let pushed = self.with_stream(id, |stream| {
            if stream.read_end_closed() {
                None
            } else if from == 0 {
                Some(stream.push_owned(data))
            } else {
                Some(stream.push(&data[from..]))
            }
        });
        match pushed.flatten() {
            Some(written) => {
                if written > 0 {
                    // Data arrived: readers blocked on this stream can continue.
                    self.wake(WaitChannel::StreamReadable(id));
                }
                Ok(written)
            }
            None => {
                let _ = self.send_signal(pid, Signal::SIGPIPE);
                Err(Errno::EPIPE)
            }
        }
    }

    pub(crate) fn sys_write(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, data: ByteSource) -> Result<Outcome, Errno> {
        let bytes = self.resolve_bytes(pid, data)?;
        let file = self.file(pid, fd)?;
        let kind = file.kind();
        let Some(stream) = kind.write_stream() else {
            Self::write_unstreamed(&file, kind, &bytes)?;
            return Ok(Outcome::Complete(SysResult::Int(bytes.len() as i64)));
        };
        let nonblocking = file.nonblocking();
        // The write can end in SIGPIPE killing the caller, and the exit must
        // see the table's reference as the last one.
        drop(file);
        self.stream_io(pid, reply, stream, StreamIo::Write(bytes), nonblocking)
    }

    /// Resolves `sendfile`'s two descriptors into what the transfer runs on:
    /// the output stream and the input file's description.  Done once, when
    /// the call is made — whatever happens to either number while the call is
    /// parked, it keeps moving the file it found into the stream it found.
    fn sendfile_ends(&self, pid: Pid, out_fd: Fd, in_fd: Fd) -> Result<(StreamId, Arc<OpenFile>), Errno> {
        let in_file = self.file(pid, in_fd)?;
        match in_file.kind() {
            FileKind::File { flags, .. } if flags.read => {}
            FileKind::File { .. } => return Err(Errno::EBADF),
            FileKind::Directory { .. } => return Err(Errno::EISDIR),
            _ => return Err(Errno::EINVAL),
        }
        let out = self.file(pid, out_fd)?.kind().write_stream().ok_or(Errno::EINVAL)?;
        if self.stream_is_remote(out) {
            // Zero-copy page pushes need the destination buffer in this
            // address space; callers fall back to a buffered read/write
            // loop, which the remote data path handles.
            return Err(Errno::EINVAL);
        }
        Ok((out, in_file))
    }

    /// Pumps up to `remaining` bytes of the regular file `in_file` into the
    /// stream `out` without the bytes ever entering guest memory: each
    /// iteration materialises one page-cache page by reference
    /// ([`FileHandle::map_page`](browsix_fs::FileHandle::map_page)) and copies
    /// the covered slice into the kernel stream — the one copy this path
    /// makes, and the stream coalesces the pages into a buffer the reader
    /// takes whole.  Advances `offset` and `remaining` in place; returns the
    /// bytes pushed this pass and whether the transfer is finished
    /// (`remaining` exhausted or end of file).  A partial pass with
    /// `done == false` means the stream filled.
    pub(crate) fn pump_sendfile(
        &mut self,
        pid: Pid,
        out: StreamId,
        in_file: &OpenFile,
        offset: &mut u64,
        remaining: &mut u64,
        advance_cursor: bool,
    ) -> Result<(u64, bool), Errno> {
        use crate::vm::PAGE_SIZE;
        let FileKind::File { handle, .. } = in_file.kind() else {
            return Err(Errno::EINVAL);
        };
        let mut pushed_total: u64 = 0;
        let mut size;
        loop {
            size = handle.metadata()?.size;
            if *remaining == 0 || *offset >= size {
                break;
            }
            let (space, read_closed) = match self.streams.get(out) {
                Some(s) => (s.space(), s.read_end_closed()),
                None if pushed_total > 0 => break,
                None => return Err(Errno::EPIPE),
            };
            if read_closed {
                if pushed_total > 0 {
                    break;
                }
                let _ = self.send_signal(pid, Signal::SIGPIPE);
                return Err(Errno::EPIPE);
            }
            if space == 0 {
                break;
            }
            let page_index = *offset / PAGE_SIZE as u64;
            let page_off = (*offset % PAGE_SIZE as u64) as usize;
            let page = handle.map_page(page_index, PAGE_SIZE)?;
            let chunk = (PAGE_SIZE - page_off)
                .min(space)
                .min((*remaining).min(size - *offset) as usize);
            let pushed = self
                .with_stream(out, |s| s.push(&page[page_off..page_off + chunk]))
                .unwrap_or(0);
            if pushed == 0 {
                break;
            }
            // One wake per pass: it runs when the call returns, and the
            // reader takes every page of the pass in one read.
            if pushed_total == 0 {
                self.wake(WaitChannel::StreamReadable(out));
            }
            self.stats.sendfile_bytes += pushed as u64;
            self.stats.zero_copy_pages += 1;
            *offset += pushed as u64;
            *remaining -= pushed as u64;
            pushed_total += pushed as u64;
            if advance_cursor {
                in_file.set_offset(*offset);
            }
        }
        Ok((pushed_total, *remaining == 0 || *offset >= size))
    }

    pub(crate) fn sys_sendfile(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        out_fd: Fd,
        in_fd: Fd,
        offset: i64,
        len: u64,
    ) -> Result<Outcome, Errno> {
        // offset -1 means "use (and advance) the descriptor's cursor", like
        // passing NULL to Linux sendfile(2); an explicit offset leaves it
        // untouched.
        if offset < -1 {
            return Err(Errno::EINVAL);
        }
        let advance_cursor = offset < 0;
        let (out, in_file) = self.sendfile_ends(pid, out_fd, in_fd)?;
        let offset = if advance_cursor {
            in_file.offset()
        } else {
            offset as u64
        };
        let kind = WaitKind::Sendfile {
            out,
            in_file,
            offset,
            remaining: len,
            sent: 0,
            advance_cursor,
        };
        let nonblocking = self.fd_nonblocking(pid, out_fd);
        self.block(pid, Some(reply), kind, nonblocking)
    }

    /// Attempts one stream-to-stream move of up to `len` bytes between two
    /// streams this shard owns.  `Ok(Some(n))` moved `n` bytes (`0` = end of
    /// input); `Ok(None)` means "would block" — input empty with live
    /// writers, or output full.  The chunk is sized to what both ends can
    /// take, so what `input` hands out (its front buffer, when that is the
    /// whole chunk) goes into `output` as it is.
    pub(crate) fn try_splice(
        &mut self,
        pid: Pid,
        input: StreamId,
        output: StreamId,
        len: u64,
    ) -> Result<Option<u64>, Errno> {
        match self.streams.get(output) {
            Some(s) if s.read_end_closed() => {
                let _ = self.send_signal(pid, Signal::SIGPIPE);
                return Err(Errno::EPIPE);
            }
            Some(_) => {}
            None => return Err(Errno::EPIPE),
        }
        let (buffered, eof) = match self.streams.get(input) {
            Some(s) => (s.len(), s.write_end_closed()),
            // Input stream gone entirely: end of input.
            None => return Ok(Some(0)),
        };
        if buffered == 0 {
            return if eof { Ok(Some(0)) } else { Ok(None) };
        }
        let space = self.streams.get(output).map(Stream::space).unwrap_or(0);
        if space == 0 {
            return Ok(None);
        }
        let take = (len.min(buffered as u64) as usize).min(space);
        let Some(mut data) = self.with_stream(input, |s| s.pop(take)) else {
            return Ok(Some(0));
        };
        let moved = data.len();
        let Some(pushed) = self.with_stream(output, |s| s.push_owned(&mut data)) else {
            return Err(Errno::EPIPE);
        };
        debug_assert_eq!(pushed, moved, "splice sized its chunk to the output's free space");
        self.stats.sendfile_bytes += moved as u64;
        self.wake(WaitChannel::StreamWritable(input));
        self.wake(WaitChannel::StreamReadable(output));
        Ok(Some(moved as u64))
    }

    pub(crate) fn sys_splice(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        fd_in: Fd,
        fd_out: Fd,
        len: u64,
    ) -> Result<Outcome, Errno> {
        // Both descriptors are resolved here, once; a parked splice keeps
        // moving bytes between the streams it found.
        let input = self.file(pid, fd_in)?.kind().read_stream().ok_or(Errno::EINVAL)?;
        let output = self.file(pid, fd_out)?.kind().write_stream().ok_or(Errno::EINVAL)?;
        // Splice moves bytes between two different local buffers; with a
        // foreign endpoint callers fall back to the buffered loop.
        if input == output || self.stream_is_remote(input) || self.stream_is_remote(output) {
            return Err(Errno::EINVAL);
        }
        let nonblocking = self.fd_nonblocking(pid, fd_in) || self.fd_nonblocking(pid, fd_out);
        self.block(pid, Some(reply), WaitKind::Splice { input, output, len }, nonblocking)
    }

    pub(crate) fn sys_pwrite(&mut self, pid: Pid, fd: Fd, data: ByteSource, offset: u64) -> Result<SysResult, Errno> {
        let bytes = self.resolve_bytes(pid, data)?;
        match self.file(pid, fd)?.kind() {
            FileKind::File { handle, flags } if flags.write => {
                Ok(SysResult::Int(handle.write_at(offset, &bytes)? as i64))
            }
            FileKind::File { .. } => Err(Errno::EBADF),
            _ => Err(Errno::ESPIPE),
        }
    }

    pub(crate) fn sys_seek(&mut self, pid: Pid, fd: Fd, offset: i64, whence: u32) -> Result<SysResult, Errno> {
        let file = self.file(pid, fd)?;
        let kind = file.kind();
        if !matches!(kind, FileKind::File { .. } | FileKind::Directory { .. }) {
            return Err(Errno::ESPIPE);
        }
        let base: i64 = match whence {
            0 => 0,
            1 => file.offset() as i64,
            // Only SEEK_END needs the current size: from the handle for
            // files, zero for open directories.
            2 => match &kind {
                FileKind::File { handle, .. } => handle.metadata()?.size as i64,
                _ => 0,
            },
            _ => return Err(Errno::EINVAL),
        };
        // The guest picks `offset`: a sum past `i64::MAX` is its error, as
        // on Linux, and leaves the descriptor's offset where it was.
        let target = base.checked_add(offset).ok_or(Errno::EOVERFLOW)?;
        if target < 0 {
            return Err(Errno::EINVAL);
        }
        file.set_offset(target as u64);
        Ok(SysResult::Int(target))
    }

    pub(crate) fn sys_dup(&mut self, pid: Pid, fd: Fd) -> Result<SysResult, Errno> {
        let files = &mut self.task_mut(pid)?.files;
        // Another reference to the same description: nothing to count.
        let file = files.get(fd)?;
        Ok(SysResult::Int(files.insert(file, 0) as i64))
    }

    pub(crate) fn sys_dup2(&mut self, pid: Pid, from: Fd, to: Fd) -> Result<SysResult, Errno> {
        if to < 0 {
            return Err(Errno::EBADF);
        }
        let files = &mut self.task_mut(pid)?.files;
        let file = files.get(from)?;
        // The description that was open at `to` is closed, as by `close`;
        // `from` itself only gains a reference.
        if from != to {
            if let Some(displaced) = files.insert_at(to, file) {
                self.release_file(displaced);
            }
        }
        Ok(SysResult::Int(to as i64))
    }

    pub(crate) fn sys_unlink(&mut self, pid: Pid, path: String) -> Result<SysResult, Errno> {
        self.fs.unlink(&self.resolve_path(pid, &path))?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_truncate(&mut self, pid: Pid, path: String, size: u64) -> Result<SysResult, Errno> {
        self.fs.truncate(&self.resolve_path(pid, &path), size)?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_rename(&mut self, pid: Pid, from: String, to: String) -> Result<SysResult, Errno> {
        self.fs
            .rename(&self.resolve_path(pid, &from), &self.resolve_path(pid, &to))?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_readdir(&mut self, pid: Pid, path: String) -> Result<SysResult, Errno> {
        Ok(SysResult::Entries(self.fs.read_dir(&self.resolve_path(pid, &path))?))
    }

    pub(crate) fn sys_mkdir(&mut self, pid: Pid, path: String, _mode: u32) -> Result<SysResult, Errno> {
        self.fs.mkdir(&self.resolve_path(pid, &path))?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_rmdir(&mut self, pid: Pid, path: String) -> Result<SysResult, Errno> {
        self.fs.rmdir(&self.resolve_path(pid, &path))?;
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_stat(&mut self, pid: Pid, path: String) -> Result<SysResult, Errno> {
        Ok(SysResult::Stat(self.fs.stat(&self.resolve_path(pid, &path))?))
    }

    pub(crate) fn sys_fstat(&mut self, pid: Pid, fd: Fd) -> Result<SysResult, Errno> {
        let meta = match self.file(pid, fd)?.kind() {
            FileKind::File { handle, .. } => handle.metadata()?,
            FileKind::Directory { path } => self.fs.stat(&path)?,
            // Pipes, sockets and sinks report a character-device-like stat.
            _ => Metadata {
                file_type: FileType::Regular,
                size: 0,
                mode: 0o600,
                mtime_ms: 0,
                atime_ms: 0,
            },
        };
        Ok(SysResult::Stat(meta))
    }

    pub(crate) fn sys_fsync(&mut self, pid: Pid, fd: Fd) -> Result<SysResult, Errno> {
        match self.file(pid, fd)?.kind() {
            FileKind::File { handle, .. } => handle.fsync()?,
            // Directories, host sinks and the terminal have nothing buffered
            // kernel-side.
            FileKind::Directory { .. } | FileKind::HostSink { .. } | FileKind::Null | FileKind::Tty => {}
            // fsync on pipes and sockets is EINVAL, as on Linux.
            _ => return Err(Errno::EINVAL),
        }
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_access(&mut self, pid: Pid, path: String, _mode: u32) -> Result<SysResult, Errno> {
        // Browsix has no users: access reduces to an existence check, with the
        // browser sandbox standing in for permissions (§3.1 of the paper).
        // A registered executable exists, as `spawn` sees it.
        let path = self.resolve_path(pid, &path);
        if self.registry.lookup(&path).is_none() {
            self.fs.stat(&path)?;
        }
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_utimes(
        &mut self,
        pid: Pid,
        path: String,
        atime_ms: u64,
        mtime_ms: u64,
    ) -> Result<SysResult, Errno> {
        self.fs.set_times(&self.resolve_path(pid, &path), atime_ms, mtime_ms)?;
        Ok(SysResult::Ok)
    }
}
