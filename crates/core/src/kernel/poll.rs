//! Readiness: `poll`, `O_NONBLOCK` status flags, and the single place where
//! "would this descriptor block?" is computed.
//!
//! Pipes and socket connections are both backed by kernel
//! [`Stream`](crate::streams::Stream)s, so every readiness question reduces
//! to [`read_stream_of`](KernelState::read_stream_of) /
//! [`write_stream_of`](KernelState::write_stream_of) plus the stream's own
//! `read_ready`/`write_ready` predicates.  Blocking reads and writes, their
//! `EAGAIN` short-circuits, and `poll` all share these helpers, so the three
//! can never disagree about what "ready" means.

use std::time::Instant;

use browsix_fs::Errno;

use crate::fd::{Fd, FileKind};
use crate::kernel::waitq::{WaitChannel, WaiterId};
use crate::kernel::{KernelState, Outcome, ReplyTo, WaitKind, Waiter};
use crate::streams::StreamId;
use crate::syscall::{PollRequest, SysResult, NONBLOCK, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::task::Pid;

impl KernelState {
    /// The stream a descriptor of this kind reads from, if it is
    /// stream-backed.  For a socket endpoint this resolves the connection and
    /// picks the direction flowing *towards* this side; `None` for
    /// non-stream descriptors and for socket endpoints whose connection is
    /// gone.
    pub(crate) fn read_stream_of(&self, kind: &FileKind) -> Option<StreamId> {
        match kind {
            FileKind::PipeReader { stream } => Some(*stream),
            FileKind::SocketStream { connection, side } => Some(self.connection_info(*connection)?.streams_of(*side).0),
            _ => None,
        }
    }

    /// The stream a descriptor of this kind writes to, if any (the mirror of
    /// [`KernelState::read_stream_of`]).
    pub(crate) fn write_stream_of(&self, kind: &FileKind) -> Option<StreamId> {
        match kind {
            FileKind::PipeWriter { stream } => Some(*stream),
            FileKind::SocketStream { connection, side } => Some(self.connection_info(*connection)?.streams_of(*side).1),
            _ => None,
        }
    }

    /// The channel a blocked read on `fd` should park on.
    pub(crate) fn read_wait_channel(&self, pid: Pid, fd: Fd) -> Option<WaitChannel> {
        let file = self.task(pid).ok()?.files.get(fd).ok()?;
        self.read_stream_of(&file.kind()).map(WaitChannel::StreamReadable)
    }

    /// The channel a blocked write on `fd` should park on.
    pub(crate) fn write_wait_channel(&self, pid: Pid, fd: Fd) -> Option<WaitChannel> {
        let file = self.task(pid).ok()?.files.get(fd).ok()?;
        self.write_stream_of(&file.kind()).map(WaitChannel::StreamWritable)
    }

    /// The channel a blocked accept on `fd` should park on.
    pub(crate) fn accept_wait_channel(&self, pid: Pid, fd: Fd) -> Option<WaitChannel> {
        let file = self.task(pid).ok()?.files.get(fd).ok()?;
        match file.kind() {
            FileKind::SocketListener { port } => Some(WaitChannel::Listener(port)),
            _ => None,
        }
    }

    /// Whether `fd`'s open-file description has `O_NONBLOCK` set.
    pub(crate) fn fd_nonblocking(&self, pid: Pid, fd: Fd) -> bool {
        self.task(pid)
            .ok()
            .and_then(|t| t.files.get(fd).ok())
            .is_some_and(|f| f.nonblocking())
    }

    /// Computes one descriptor's `revents` word for `poll`.  `POLLERR`,
    /// `POLLHUP` and `POLLNVAL` are reported whether requested or not, as on
    /// Linux.
    pub(crate) fn fd_revents(&self, pid: Pid, fd: Fd, events: u16) -> u16 {
        let Ok(file) = self.task(pid).and_then(|t| t.files.get(fd)) else {
            return POLLNVAL;
        };
        let kind = file.kind();
        let mut revents = 0u16;
        match &kind {
            // Regular files, directories, /dev/null, the terminal and host
            // sinks never block: always readable and writable (access checks
            // happen at read/write time, as with poll on Linux).
            FileKind::File { .. }
            | FileKind::Directory { .. }
            | FileKind::Null
            | FileKind::Tty
            | FileKind::HostSink { .. } => {
                revents = POLLIN | POLLOUT;
            }
            // An unconnected socket is never ready for anything.
            FileKind::Socket { .. } => {}
            FileKind::SocketListener { port } => {
                if self.sockets().has_pending(*port) {
                    revents |= POLLIN;
                }
            }
            FileKind::PipeReader { .. } | FileKind::PipeWriter { .. } | FileKind::SocketStream { .. } => {
                if matches!(kind, FileKind::SocketStream { connection, .. }
                    if self.connection_info(connection).is_none())
                {
                    // The connection is gone entirely.
                    revents |= POLLERR | POLLHUP;
                } else {
                    if let Some(id) = self.read_stream_of(&kind) {
                        if self.stream_is_remote(id) {
                            // Foreign stream: judge readiness from the owner's
                            // latest snapshot (no snapshot yet = not ready).
                            if let Some(r) = self.remote_revents(id) {
                                if r.gone || r.eof {
                                    revents |= POLLHUP;
                                }
                                if r.readable {
                                    revents |= POLLIN;
                                }
                            }
                        } else {
                            match self.streams.get(id) {
                                Some(stream) => {
                                    if !stream.is_empty() {
                                        revents |= POLLIN;
                                    }
                                    if stream.write_end_closed() {
                                        revents |= POLLHUP;
                                    }
                                }
                                None => revents |= POLLHUP,
                            }
                        }
                    }
                    if let Some(id) = self.write_stream_of(&kind) {
                        if self.stream_is_remote(id) {
                            if let Some(r) = self.remote_revents(id) {
                                if r.gone || r.epipe {
                                    revents |= POLLERR;
                                } else if r.writable {
                                    revents |= POLLOUT;
                                }
                            }
                        } else {
                            match self.streams.get(id) {
                                Some(stream) => {
                                    if stream.read_end_closed() {
                                        revents |= POLLERR;
                                    } else if stream.space() > 0 {
                                        revents |= POLLOUT;
                                    }
                                }
                                None => revents |= POLLERR,
                            }
                        }
                    }
                }
            }
        }
        revents & (events | POLLERR | POLLHUP | POLLNVAL)
    }

    /// One `revents` word per polled descriptor, in submission order.
    pub(crate) fn poll_revents(&self, pid: Pid, fds: &[PollRequest]) -> Vec<u16> {
        fds.iter().map(|req| self.fd_revents(pid, req.fd, req.events)).collect()
    }

    /// Every channel a blocked `poll` over `fds` must park on: one per
    /// stream direction or listener referenced, deduplicated.
    pub(crate) fn poll_wait_channels(&self, pid: Pid, fds: &[PollRequest]) -> Vec<WaitChannel> {
        let mut channels: Vec<WaitChannel> = Vec::with_capacity(fds.len());
        let push = |channels: &mut Vec<WaitChannel>, channel: WaitChannel| {
            if !channels.contains(&channel) {
                channels.push(channel);
            }
        };
        for req in fds {
            let Ok(file) = self.task(pid).and_then(|t| t.files.get(req.fd)) else {
                continue;
            };
            let kind = file.kind();
            if let FileKind::SocketListener { port } = kind {
                push(&mut channels, WaitChannel::Listener(port));
                continue;
            }
            if let Some(id) = self.read_stream_of(&kind) {
                push(&mut channels, WaitChannel::StreamReadable(id));
            }
            if let Some(id) = self.write_stream_of(&kind) {
                push(&mut channels, WaitChannel::StreamWritable(id));
            }
        }
        channels
    }

    /// The foreign streams a `poll` over `fds` watches, deduplicated — each
    /// needs a readiness snapshot from its owner shard when the poll parks.
    pub(crate) fn remote_poll_streams(&self, pid: Pid, fds: &[PollRequest]) -> Vec<StreamId> {
        let mut remote: Vec<StreamId> = Vec::new();
        for req in fds {
            let Ok(file) = self.task(pid).and_then(|t| t.files.get(req.fd)) else {
                continue;
            };
            let kind = file.kind();
            for id in [self.read_stream_of(&kind), self.write_stream_of(&kind)]
                .into_iter()
                .flatten()
            {
                if self.stream_is_remote(id) && !remote.contains(&id) {
                    remote.push(id);
                }
            }
        }
        remote
    }

    pub(crate) fn sys_poll(&mut self, pid: Pid, reply: ReplyTo, fds: Vec<PollRequest>, timeout_ms: i32) -> Outcome {
        let revents = self.poll_revents(pid, &fds);
        if revents.iter().any(|&r| r != 0) || timeout_ms == 0 {
            return Outcome::Complete(SysResult::Poll(revents));
        }
        let channels = self.poll_wait_channels(pid, &fds);
        let deadline = (timeout_ms > 0).then(|| Instant::now() + std::time::Duration::from_millis(timeout_ms as u64));
        if channels.is_empty() && deadline.is_none() {
            // No waitable resource and no timeout: this poll could never
            // complete.  Refuse rather than park forever.
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        self.stats.waiters_parked += 1;
        self.park_waiter(
            channels,
            Waiter {
                pid,
                reply: Some(reply),
                kind: WaitKind::Poll { fds, deadline },
            },
        );
        Outcome::Blocked
    }

    pub(crate) fn sys_setflags(&mut self, pid: Pid, fd: Fd, flags: u32) -> Outcome {
        if flags & !NONBLOCK != 0 {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => {
                file.set_nonblocking(flags & NONBLOCK != 0);
                Outcome::Complete(SysResult::Ok)
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    // ---- poll timeouts ---------------------------------------------------------

    /// The earliest pending `poll` deadline, if any (bounds the event-loop
    /// sleep).
    pub(crate) fn next_poll_deadline(&self) -> Option<Instant> {
        self.poll_deadlines.iter().map(|&(deadline, _)| deadline).min()
    }

    /// Completes every parked `poll` whose deadline has passed.  Stale
    /// entries (waiters that already completed or re-parked under a new id)
    /// are discarded as they are encountered.
    pub(crate) fn expire_poll_deadlines(&mut self) {
        if self.poll_deadlines.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut due: Vec<WaiterId> = Vec::new();
        self.poll_deadlines.retain(|&(deadline, id)| {
            if deadline <= now {
                due.push(id);
                false
            } else {
                true
            }
        });
        for id in due {
            // A stale id (completed or re-parked waiter) simply misses.
            if let Some(waiter) = self.waiters.remove(id) {
                self.retry_waiter(waiter);
            }
        }
    }
}
