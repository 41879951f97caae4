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
use crate::kernel::{KernelState, Outcome, ReplyTo, WaitKind, Waiter};
use crate::signals::Signal;
use crate::streams::{Stream, StreamId};
use crate::syscall::{ByteSource, SysResult};
use crate::task::Pid;

impl KernelState {
    pub(crate) fn sys_open(&mut self, pid: Pid, path: String, flags: OpenFlags, mode: u32) -> Outcome {
        let path = self.resolve_path(pid, &path);
        let meta = match self.fs().stat(&path) {
            Ok(meta) => {
                if flags.create && flags.exclusive {
                    return Outcome::Complete(SysResult::Err(Errno::EEXIST));
                }
                Some(meta)
            }
            Err(Errno::ENOENT) if flags.create => {
                if let Err(e) = self.fs().create(&path, mode & 0o7777) {
                    return Outcome::Complete(SysResult::Err(e));
                }
                None
            }
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let is_dir = meta.map(|m| m.is_dir()).unwrap_or(false);
        if is_dir {
            if flags.write {
                return Outcome::Complete(SysResult::Err(Errno::EISDIR));
            }
            let file = OpenFile::new(FileKind::Directory { path });
            let fd = match self.task_mut(pid) {
                Ok(task) => task.files.insert(file, 0),
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            };
            return Outcome::Complete(SysResult::Int(fd as i64));
        }
        // The single point where a descriptor's path is resolved: from here
        // on, all I/O goes through the handle.
        let handle = match self.fs().open_handle(&path, flags) {
            Ok(handle) => handle,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        if flags.truncate && flags.write {
            if let Err(e) = handle.truncate(0) {
                return Outcome::Complete(SysResult::Err(e));
            }
        }
        // POSIX: the offset starts at 0 even with O_APPEND; append writes
        // seek-to-end atomically at the handle layer instead.
        let file = OpenFile::new(FileKind::File { handle, flags });
        let fd = match self.task_mut(pid) {
            Ok(task) => task.files.insert(file, 0),
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        Outcome::Complete(SysResult::Int(fd as i64))
    }

    pub(crate) fn sys_close(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let removed = match self.task_mut(pid) {
            Ok(task) => task.files.remove(fd),
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match removed {
            Ok(file) => {
                if let FileKind::SocketListener { port } = file.kind() {
                    self.close_listener(port);
                }
                self.release_file(file);
                Outcome::Complete(SysResult::Ok)
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
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
                if let Some(fg) = self.foreground_pgid() {
                    let task = self.task(pid)?;
                    if task.pgid != fg {
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

    /// The one read of a stream this shard owns — pipe or socket, on behalf
    /// of a local process (`sys_read`) or one whose shard shipped the call
    /// here (`ShardMsg::RemoteRead`); only the reply address differs.
    pub(crate) fn read_stream(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        stream: StreamId,
        len: usize,
        nonblocking: bool,
    ) -> Outcome {
        if let Some(data) = self.try_read_stream(stream, len) {
            return Outcome::Complete(SysResult::Data(data));
        }
        if nonblocking {
            self.stats.eagain_returns += 1;
            return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
        }
        self.stats.waiters_parked += 1;
        let kind = WaitKind::Read { stream, len };
        let reply = Some(reply);
        self.park_waiter_one(WaitChannel::StreamReadable(stream), Waiter { pid, reply, kind });
        Outcome::Blocked
    }

    pub(crate) fn sys_read(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, len: usize) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        // The descriptor is resolved here, once: whatever happens to the
        // number while the call is parked, it reads the stream it found.
        let kind = file.kind();
        let Some(stream) = kind.read_stream() else {
            return Outcome::Complete(match self.read_unstreamed(pid, &file, kind, len) {
                Ok(data) => SysResult::Data(data),
                Err(e) => SysResult::Err(e),
            });
        };
        if self.stream_is_remote(stream) {
            // Another shard's buffer: ship the read to its owner.
            return self.remote_read(pid, reply, stream, len, file.nonblocking());
        }
        self.read_stream(pid, reply, stream, len, file.nonblocking())
    }

    pub(crate) fn sys_pread(&mut self, pid: Pid, fd: Fd, len: usize, offset: u64) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::File { handle, flags } => {
                if !flags.read {
                    return Outcome::Complete(SysResult::Err(Errno::EBADF));
                }
                match handle.read_at(offset, len) {
                    Ok(data) => Outcome::Complete(SysResult::Data(data)),
                    Err(e) => Outcome::Complete(SysResult::Err(e)),
                }
            }
            FileKind::Directory { .. } => Outcome::Complete(SysResult::Err(Errno::EISDIR)),
            _ => Outcome::Complete(SysResult::Err(Errno::ESPIPE)),
        }
    }

    /// Materialises a [`ByteSource`]: an inline payload is moved out (the
    /// caller pushes, writes or parks that very buffer), shared-heap
    /// references are copied directly out of the process's registered heap.
    /// A transfer reference that is still one here claimed no buffer: it
    /// named none, the wrong one or one already taken, or it came through a
    /// ring slot, which has no transfer list beside it.
    pub(crate) fn resolve_bytes(&self, pid: Pid, data: ByteSource) -> Result<Vec<u8>, Errno> {
        match data {
            ByteSource::Inline(bytes) => Ok(bytes),
            ByteSource::Transfer { .. } => Err(Errno::EINVAL),
            ByteSource::SharedHeap { offset, len } => {
                let task = self.task(pid)?;
                let heap = task.sync_heap.as_ref().ok_or(Errno::EFAULT)?;
                heap.read_bytes(offset as usize, len as usize)
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

    /// The one write to a stream this shard owns (the mirror of
    /// [`KernelState::read_stream`]).
    pub(crate) fn write_stream(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        stream: StreamId,
        mut data: Vec<u8>,
        nonblocking: bool,
    ) -> Outcome {
        let len = data.len();
        let written = match self.try_write_stream(pid, stream, &mut data, 0) {
            Ok(written) => written,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        if written == len || (nonblocking && written > 0) {
            // A non-blocking write reports whatever it managed to push;
            // EAGAIN only when not a single byte fit.
            return Outcome::Complete(SysResult::Int(written as i64));
        }
        if nonblocking {
            self.stats.eagain_returns += 1;
            return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
        }
        self.stats.waiters_parked += 1;
        let kind = WaitKind::Write { stream, data, written };
        let reply = Some(reply);
        self.park_waiter_one(WaitChannel::StreamWritable(stream), Waiter { pid, reply, kind });
        Outcome::Blocked
    }

    pub(crate) fn sys_write(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, data: ByteSource) -> Outcome {
        let bytes = match self.resolve_bytes(pid, data) {
            Ok(bytes) => bytes,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let kind = file.kind();
        let Some(stream) = kind.write_stream() else {
            return Outcome::Complete(match Self::write_unstreamed(&file, kind, &bytes) {
                Ok(()) => SysResult::Int(bytes.len() as i64),
                Err(e) => SysResult::Err(e),
            });
        };
        let nonblocking = file.nonblocking();
        // The write can end in SIGPIPE killing the caller, and the exit must
        // see the table's reference as the last one.
        drop(file);
        if self.stream_is_remote(stream) {
            // Another shard's buffer: ship the write to its owner.
            return self.remote_write(pid, reply, stream, bytes, nonblocking);
        }
        self.write_stream(pid, reply, stream, bytes, nonblocking)
    }

    /// Resolves `sendfile`'s two descriptors into what the transfer runs on:
    /// the output stream and the input file's description.  Done once, when
    /// the call is made — whatever happens to either number while the call is
    /// parked, it keeps moving the file it found into the stream it found.
    fn sendfile_ends(&self, pid: Pid, out_fd: Fd, in_fd: Fd) -> Result<(StreamId, Arc<OpenFile>), Errno> {
        let in_file = self.task(pid)?.files.get(in_fd)?;
        match in_file.kind() {
            FileKind::File { flags, .. } if flags.read => {}
            FileKind::File { .. } => return Err(Errno::EBADF),
            FileKind::Directory { .. } => return Err(Errno::EISDIR),
            _ => return Err(Errno::EINVAL),
        }
        let Some(out) = self.task(pid)?.files.get(out_fd)?.kind().write_stream() else {
            return Err(Errno::EINVAL);
        };
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
            let (space, read_closed) = match self.streams().get(out) {
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
            self.stats.sendfile_bytes += pushed as u64;
            self.stats.zero_copy_pages += 1;
            *offset += pushed as u64;
            *remaining -= pushed as u64;
            pushed_total += pushed as u64;
            if advance_cursor {
                in_file.set_offset(*offset);
            }
            // Waking readers inside the loop lets a blocked consumer drain
            // the stream between pages, so one sendfile pass can move more
            // than a streamful.
            self.wake(WaitChannel::StreamReadable(out));
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
    ) -> Outcome {
        // offset -1 means "use (and advance) the descriptor's cursor", like
        // passing NULL to Linux sendfile(2); an explicit offset leaves it
        // untouched.
        if offset < -1 {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        let advance_cursor = offset < 0;
        let (out, in_file) = match self.sendfile_ends(pid, out_fd, in_fd) {
            Ok(ends) => ends,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let mut pos = if advance_cursor {
            in_file.offset()
        } else {
            offset as u64
        };
        let mut remaining = len;
        match self.pump_sendfile(pid, out, &in_file, &mut pos, &mut remaining, advance_cursor) {
            Ok((sent, true)) => Outcome::Complete(SysResult::Int(sent as i64)),
            Ok((sent, false)) => {
                if self.fd_nonblocking(pid, out_fd) {
                    if sent > 0 {
                        return Outcome::Complete(SysResult::Int(sent as i64));
                    }
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                self.stats.waiters_parked += 1;
                self.park_waiter_one(
                    WaitChannel::StreamWritable(out),
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Sendfile {
                            out,
                            in_file,
                            offset: pos,
                            remaining,
                            sent,
                            advance_cursor,
                        },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
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
        match self.streams().get(output) {
            Some(s) if s.read_end_closed() => {
                let _ = self.send_signal(pid, Signal::SIGPIPE);
                return Err(Errno::EPIPE);
            }
            Some(_) => {}
            None => return Err(Errno::EPIPE),
        }
        let (buffered, eof) = match self.streams().get(input) {
            Some(s) => (s.len(), s.write_end_closed()),
            // Input stream gone entirely: end of input.
            None => return Ok(Some(0)),
        };
        if buffered == 0 {
            return if eof { Ok(Some(0)) } else { Ok(None) };
        }
        let space = self.streams().get(output).map(Stream::space).unwrap_or(0);
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

    pub(crate) fn sys_splice(&mut self, pid: Pid, reply: ReplyTo, fd_in: Fd, fd_out: Fd, len: u64) -> Outcome {
        // Both descriptors are resolved here, once; a parked splice keeps
        // moving bytes between the streams it found.
        let ends = self.task(pid).and_then(|task| {
            let input = task.files.get(fd_in)?.kind().read_stream().ok_or(Errno::EINVAL)?;
            let output = task.files.get(fd_out)?.kind().write_stream().ok_or(Errno::EINVAL)?;
            Ok((input, output))
        });
        let (input, output) = match ends {
            // Splice moves bytes between two different local buffers; with a
            // foreign endpoint callers fall back to the buffered loop.
            Ok((i, o)) if i == o || self.stream_is_remote(i) || self.stream_is_remote(o) => {
                return Outcome::Complete(SysResult::Err(Errno::EINVAL));
            }
            Ok(ends) => ends,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match self.try_splice(pid, input, output, len) {
            Ok(Some(moved)) => Outcome::Complete(SysResult::Int(moved as i64)),
            Ok(None) => {
                if self.fd_nonblocking(pid, fd_in) || self.fd_nonblocking(pid, fd_out) {
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                self.stats.waiters_parked += 1;
                self.park_waiter(
                    vec![WaitChannel::StreamReadable(input), WaitChannel::StreamWritable(output)],
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Splice { input, output, len },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_pwrite(&mut self, pid: Pid, fd: Fd, data: ByteSource, offset: u64) -> Outcome {
        let bytes = match self.resolve_bytes(pid, data) {
            Ok(bytes) => bytes,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::File { handle, flags } => {
                if !flags.write {
                    return Outcome::Complete(SysResult::Err(Errno::EBADF));
                }
                match handle.write_at(offset, &bytes) {
                    Ok(written) => Outcome::Complete(SysResult::Int(written as i64)),
                    Err(e) => Outcome::Complete(SysResult::Err(e)),
                }
            }
            _ => Outcome::Complete(SysResult::Err(Errno::ESPIPE)),
        }
    }

    pub(crate) fn sys_seek(&mut self, pid: Pid, fd: Fd, offset: i64, whence: u32) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let kind = file.kind();
        if !matches!(kind, FileKind::File { .. } | FileKind::Directory { .. }) {
            return Outcome::Complete(SysResult::Err(Errno::ESPIPE));
        }
        let base: i64 = match whence {
            0 => 0,
            1 => file.offset() as i64,
            // Only SEEK_END needs the current size: from the handle for
            // files, zero for open directories.
            2 => match &kind {
                FileKind::File { handle, .. } => match handle.metadata() {
                    Ok(meta) => meta.size as i64,
                    Err(e) => return Outcome::Complete(SysResult::Err(e)),
                },
                _ => 0,
            },
            _ => return Outcome::Complete(SysResult::Err(Errno::EINVAL)),
        };
        let target = base + offset;
        if target < 0 {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        file.set_offset(target as u64);
        Outcome::Complete(SysResult::Int(target))
    }

    pub(crate) fn sys_dup(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let task = match self.task_mut(pid) {
            Ok(task) => task,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match task.files.get(fd) {
            // Another reference to the same description: nothing to count.
            Ok(file) => Outcome::Complete(SysResult::Int(task.files.insert(file, 0) as i64)),
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_dup2(&mut self, pid: Pid, from: Fd, to: Fd) -> Outcome {
        if to < 0 {
            return Outcome::Complete(SysResult::Err(Errno::EBADF));
        }
        let task = match self.task_mut(pid) {
            Ok(task) => task,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match task.files.get(from) {
            Ok(file) => {
                // The description that was open at `to` is closed, as by
                // `close`; `from` itself only gains a reference.
                let displaced = if from != to {
                    task.files.insert_at(to, file)
                } else {
                    None
                };
                if let Some(displaced) = displaced {
                    self.release_file(displaced);
                }
                Outcome::Complete(SysResult::Int(to as i64))
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_unlink(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().unlink(&path) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_truncate(&mut self, pid: Pid, path: String, size: u64) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().truncate(&path, size) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_rename(&mut self, pid: Pid, from: String, to: String) -> Outcome {
        let from = self.resolve_path(pid, &from);
        let to = self.resolve_path(pid, &to);
        Outcome::Complete(match self.fs().rename(&from, &to) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_readdir(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().read_dir(&path) {
            Ok(entries) => SysResult::Entries(entries),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_mkdir(&mut self, pid: Pid, path: String, _mode: u32) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().mkdir(&path) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_rmdir(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().rmdir(&path) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_stat(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().stat(&path) {
            Ok(meta) => SysResult::Stat(meta),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_fstat(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let meta = match file.kind() {
            FileKind::File { handle, .. } => match handle.metadata() {
                Ok(meta) => meta,
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            },
            FileKind::Directory { path } => match self.fs().stat(&path) {
                Ok(meta) => meta,
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            },
            // Pipes, sockets and sinks report a character-device-like stat.
            _ => Metadata {
                file_type: FileType::Regular,
                size: 0,
                mode: 0o600,
                mtime_ms: 0,
                atime_ms: 0,
            },
        };
        Outcome::Complete(SysResult::Stat(meta))
    }

    pub(crate) fn sys_fsync(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        Outcome::Complete(match file.kind() {
            FileKind::File { handle, .. } => match handle.fsync() {
                Ok(()) => SysResult::Ok,
                Err(e) => SysResult::Err(e),
            },
            // Directories, host sinks and the terminal have nothing buffered
            // kernel-side.
            FileKind::Directory { .. } | FileKind::HostSink { .. } | FileKind::Null | FileKind::Tty => SysResult::Ok,
            // fsync on pipes and sockets is EINVAL, as on Linux.
            _ => SysResult::Err(Errno::EINVAL),
        })
    }

    pub(crate) fn sys_access(&mut self, pid: Pid, path: String, _mode: u32) -> Outcome {
        // Browsix has no users: access reduces to an existence check, with the
        // browser sandbox standing in for permissions (§3.1 of the paper).
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().stat(&path) {
            Ok(_) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_utimes(&mut self, pid: Pid, path: String, atime_ms: u64, mtime_ms: u64) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().set_times(&path, atime_ms, mtime_ms) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }
}
