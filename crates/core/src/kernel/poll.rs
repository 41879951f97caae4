//! Readiness: `poll`, `O_NONBLOCK` status flags, and the single place where
//! "would this descriptor block?" is computed.
//!
//! Pipes and socket connections are both backed by kernel
//! [`Stream`](crate::streams::Stream)s, and a description names its own
//! stream ends ([`FileKind::read_stream`] / [`FileKind::write_stream`]), so
//! every readiness question reduces to one
//! [`StreamState`] per end — read off
//! the stream when this shard owns it, or the owner's last report when it
//! does not (`KernelState::stream_state`) — and one mapping from that state
//! to `revents` bits, [`KernelState::fd_revents`].  Blocking reads and
//! writes, their `EAGAIN` short-circuits, and `poll` all rest on the
//! stream's own `read_ready`/`write_ready`, so the three can never disagree
//! about what "ready" means.

use std::time::Instant;

use browsix_fs::Errno;

use crate::fd::{Fd, FileKind};
use crate::kernel::waitq::{WaitChannel, WaiterId};
use crate::kernel::{KernelState, Outcome, ReplyTo, WaitKind, Waiter};
use crate::streams::{StreamId, StreamState};
use crate::syscall::{PollRequest, SysResult, NONBLOCK, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::task::Pid;

impl KernelState {
    /// The kind of the description behind `fd`, if it is open.
    fn fd_kind(&self, pid: Pid, fd: Fd) -> Option<FileKind> {
        Some(self.task(pid).ok()?.files.get(fd).ok()?.kind())
    }

    /// The channel a blocked accept on `fd` should park on.
    pub(crate) fn accept_wait_channel(&self, pid: Pid, fd: Fd) -> Option<WaitChannel> {
        match self.fd_kind(pid, fd)? {
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
        let Some(kind) = self.fd_kind(pid, fd) else {
            return POLLNVAL;
        };
        let revents = match &kind {
            // Regular files, directories, /dev/null, the terminal and host
            // sinks never block: always readable and writable (access checks
            // happen at read/write time, as with poll on Linux).
            FileKind::File { .. }
            | FileKind::Directory { .. }
            | FileKind::Null
            | FileKind::Tty
            | FileKind::HostSink { .. } => POLLIN | POLLOUT,
            // An unconnected socket is never ready for anything.
            FileKind::Socket { .. } => 0,
            FileKind::SocketListener { port } if self.sockets().has_pending(*port) => POLLIN,
            FileKind::SocketListener { .. } => 0,
            // A stream end, or a socket's two.  A foreign stream its owner
            // has not reported on yet is not ready for anything.
            FileKind::PipeReader { .. } | FileKind::PipeWriter { .. } | FileKind::SocketStream { .. } => {
                let state = |stream| self.stream_state(stream);
                kind.read_stream().and_then(state).map_or(0, read_revents)
                    | kind.write_stream().and_then(state).map_or(0, write_revents)
            }
        };
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
            let Some(kind) = self.fd_kind(pid, req.fd) else {
                continue;
            };
            if let FileKind::SocketListener { port } = kind {
                push(&mut channels, WaitChannel::Listener(port));
            }
            if let Some(id) = kind.read_stream() {
                push(&mut channels, WaitChannel::StreamReadable(id));
            }
            if let Some(id) = kind.write_stream() {
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
            let Some(kind) = self.fd_kind(pid, req.fd) else {
                continue;
            };
            for id in [kind.read_stream(), kind.write_stream()].into_iter().flatten() {
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

/// What `poll` reports for the read end of a stream in `state`.
fn read_revents(state: StreamState) -> u16 {
    let hup = if state.gone || state.eof { POLLHUP } else { 0 };
    let input = if state.readable { POLLIN } else { 0 };
    hup | input
}

/// What `poll` reports for the write end of a stream in `state`: an error
/// when nobody can read it any more, else whether there is room.
fn write_revents(state: StreamState) -> u16 {
    if state.gone || state.epipe {
        POLLERR
    } else if state.writable {
        POLLOUT
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::OpenFile;
    use crate::kernel::endpoint_model::Fleet;
    use crate::task::Task;

    /// Installs a process holding a pipe reader (fd 0), a pipe writer (fd 1)
    /// and a socket whose two ends are both `stream` (fd 2).
    fn watch(kernel: &mut KernelState, pid: Pid, stream: StreamId) {
        let mut task = Task::new(pid, 0, "watcher", "/bin/watcher", "/");
        let kinds = [
            FileKind::PipeReader { stream },
            FileKind::PipeWriter { stream },
            FileKind::SocketStream {
                reads: stream,
                writes: stream,
                port: 80,
            },
        ];
        for (fd, kind) in kinds.into_iter().enumerate() {
            assert!(task.files.insert_at(fd as Fd, OpenFile::new(kind)).is_none());
        }
        kernel.tasks.insert(pid, Box::new(task));
    }

    /// One definition of readiness: for every state a stream can be in,
    /// `poll` answers the same whether the state is read off a stream this
    /// shard owns or is what the owning shard last reported.
    #[test]
    fn revents_are_the_same_from_a_local_stream_and_from_the_foreign_cache() {
        let mut fleet = Fleet::boot(2);
        let (owner, peer) = fleet.shards.split_at_mut(1);
        let (owner, peer) = (&mut owner[0], &mut peer[0]);
        // data/empty x writers/none x space/full x readers/none (an empty
        // stream is never full), and the stream that is gone.
        let mut states = vec![StreamState::GONE];
        for bits in 0..16 {
            let [readable, eof, writable, epipe] = [1, 2, 4, 8].map(|bit| bits & bit != 0);
            if readable || writable {
                states.push(StreamState {
                    readable,
                    eof,
                    writable,
                    epipe,
                    gone: false,
                });
            }
        }
        assert_eq!(states.len(), 13);
        let mut words = Vec::new();
        for state in states {
            let id = owner.streams.create_with_capacity(4);
            if state.gone {
                owner.streams.remove(id);
            } else {
                let stream = owner.streams.get_mut(id).expect("just created");
                stream.readers = usize::from(!state.epipe);
                stream.writers = usize::from(!state.eof);
                let buffered: &[u8] = match (state.readable, state.writable) {
                    (false, _) => b"",
                    (true, true) => b"x",
                    (true, false) => b"full",
                };
                stream.push(buffered);
                assert_eq!(stream.state(), state);
            }
            assert!(peer.stream_is_remote(id) && peer.stream_state(id).is_none());
            peer.remote_stream_states.insert(id, state);
            watch(owner, 2, id);
            watch(peer, 1, id);
            for fd in 0..3 {
                let word = owner.fd_revents(2, fd, POLLIN | POLLOUT);
                assert_eq!(word, peer.fd_revents(1, fd, POLLIN | POLLOUT), "{state:?}, fd {fd}");
                words.push(word);
            }
        }
        // Reader, writer, socket — for the stream that is gone, for the last
        // state (data and space, but neither a writer nor a reader left) and
        // for an idle pipe open at both ends (`bits == 4`, the fourth state).
        assert_eq!(words[..3], [POLLHUP, POLLERR, POLLHUP | POLLERR]);
        assert_eq!(words[36..], [POLLIN | POLLHUP, POLLERR, POLLIN | POLLHUP | POLLERR]);
        assert_eq!(words[9..12], [0, POLLOUT, POLLOUT]);
    }
}
