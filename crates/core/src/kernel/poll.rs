//! Readiness: `poll`, `O_NONBLOCK` status flags, and the single place where
//! "would this descriptor block?" is computed.
//!
//! Pipes and socket connections are both backed by kernel
//! [`Stream`](crate::streams::Stream)s, and a description names its own
//! stream ends ([`FileKind::read_stream`] / [`FileKind::write_stream`]), so
//! every readiness question reduces to one
//! [`StreamState`] per end — read off
//! the stream when this shard owns it, or the owner's last push when it
//! does not (`KernelState::stream_state`) — and one mapping from that state
//! to `revents` bits, [`KernelState::fd_revents`], which has no answer for a
//! foreign stream before that first push.  Blocking reads and
//! writes, their `EAGAIN` short-circuits, and `poll` all rest on the
//! stream's own `read_ready`/`write_ready`, so the three can never disagree
//! about what "ready" means.  A foreign stream's state is known here
//! exactly while a parked `poll` subscribes to it (the protocol is in
//! `kernel::shard`'s module docs).

use std::time::Instant;

use browsix_fs::Errno;

use crate::fd::{Fd, FileKind};
use crate::kernel::shard::stream_shard;
use crate::kernel::waitq::{PollWait, WaitChannel, WaiterId};
use crate::kernel::{KernelState, Outcome, ReplyTo, ShardMsg, WaitKind};
use crate::streams::{Stream, StreamId, StreamState};
use crate::syscall::{PollRequest, SysResult, NONBLOCK, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::task::Pid;

/// A foreign stream parked `poll`s on this shard watch.
#[derive(Debug, Default)]
pub(crate) struct PollSubscription {
    /// The parked `poll`s watching it (each counts once, however many of
    /// its descriptors name the stream).
    pub polls: u32,
    /// What the owner last pushed; `None` until its first push arrives.
    pub state: Option<StreamState>,
}

/// The shards subscribed to a stream this shard owns.
#[derive(Debug)]
pub(crate) struct PollSubscribers {
    /// One bit per subscribed shard.
    pub shards: u64,
    /// The state last pushed to them.
    pub pushed: StreamState,
}

impl KernelState {
    /// The kind of the description behind `fd`, if it is open.
    fn fd_kind(&self, pid: Pid, fd: Fd) -> Option<FileKind> {
        Some(self.file(pid, fd).ok()?.kind())
    }

    /// Whether `fd`'s open-file description has `O_NONBLOCK` set.
    pub(crate) fn fd_nonblocking(&self, pid: Pid, fd: Fd) -> bool {
        self.file(pid, fd).is_ok_and(|file| file.nonblocking())
    }

    /// Computes one descriptor's `revents` word for `poll`.  `POLLERR`,
    /// `POLLHUP` and `POLLNVAL` are reported whether requested or not, as on
    /// Linux.  `None` while it names a foreign stream whose owner has not
    /// pushed its state here yet: until then `poll` reports nothing about
    /// it — not that it is ready, not that it is not — so it answers at
    /// every shard count as it does at one.
    pub(crate) fn fd_revents(&self, pid: Pid, fd: Fd, events: u16) -> Option<u16> {
        let Some(kind) = self.fd_kind(pid, fd) else {
            return Some(POLLNVAL);
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
            FileKind::SocketListener { port, id } if self.sockets.has_pending(*port, *id) => POLLIN,
            FileKind::SocketListener { .. } => 0,
            // A stream end, or a socket's two.
            FileKind::PipeReader { .. } | FileKind::PipeWriter { .. } | FileKind::SocketStream { .. } => {
                let read = match kind.read_stream() {
                    Some(stream) => read_revents(self.stream_state(stream)?),
                    None => 0,
                };
                let write = match kind.write_stream() {
                    Some(stream) => write_revents(self.stream_state(stream)?),
                    None => 0,
                };
                read | write
            }
        };
        Some(revents & (events | POLLERR | POLLHUP | POLLNVAL))
    }

    /// One `revents` word per polled descriptor, in submission order, or
    /// `None` until every one of them is known.
    pub(crate) fn poll_revents(&self, pid: Pid, fds: &[PollRequest]) -> Option<Vec<u16>> {
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
            if let FileKind::SocketListener { port, .. } = kind {
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

    /// Subscribes a parking `poll` over `fds` to every foreign stream they
    /// name that it does not watch yet, adding each to `watched`.  Only the
    /// first watcher of a stream on this shard asks its owner; the others
    /// share the state that arrives.
    pub(crate) fn watch_foreign_streams(&mut self, pid: Pid, fds: &[PollRequest], watched: &mut Vec<StreamId>) {
        for req in fds {
            let Some(kind) = self.fd_kind(pid, req.fd) else {
                continue;
            };
            for stream in [kind.read_stream(), kind.write_stream()].into_iter().flatten() {
                if !self.stream_is_remote(stream) || watched.contains(&stream) {
                    continue;
                }
                watched.push(stream);
                let subscription = self.poll_subscriptions.entry(stream).or_default();
                subscription.polls += 1;
                if subscription.polls == 1 {
                    let from_shard = self.shard_id;
                    self.send_shard(stream_shard(stream), ShardMsg::PollSubscribe { stream, from_shard });
                }
            }
        }
    }

    /// Ends a `poll`'s watch of `watched`: the last watcher of a stream on
    /// this shard drops its state and unsubscribes.
    pub(crate) fn unwatch_foreign_streams(&mut self, watched: Vec<StreamId>) {
        for stream in watched {
            let Some(subscription) = self.poll_subscriptions.get_mut(&stream) else {
                continue;
            };
            subscription.polls -= 1;
            if subscription.polls == 0 {
                self.poll_subscriptions.remove(&stream);
                let from_shard = self.shard_id;
                self.send_shard(stream_shard(stream), ShardMsg::PollUnsubscribe { stream, from_shard });
            }
        }
    }

    /// Owner side of a subscription, run for each channel a wake drains:
    /// every change to a stream wakes one of its two queues, so comparing
    /// its state with the last one pushed here sees every change.  A freed
    /// stream never changes again, and its entry goes with the last push.
    pub(crate) fn publish_stream_state(&mut self, channel: WaitChannel) {
        let (WaitChannel::StreamReadable(stream) | WaitChannel::StreamWritable(stream)) = channel else {
            return;
        };
        let Some(subscribers) = self.poll_subscribers.get_mut(&stream) else {
            return;
        };
        let state = self.streams.get(stream).map_or(StreamState::GONE, Stream::state);
        if subscribers.pushed == state {
            return;
        }
        subscribers.pushed = state;
        let mut shards = subscribers.shards;
        if state.gone {
            self.poll_subscribers.remove(&stream);
        }
        while shards != 0 {
            let shard = shards.trailing_zeros() as usize;
            shards &= shards - 1;
            self.send_shard(shard, ShardMsg::PollState { stream, state });
        }
    }

    /// Checks the subscriptions this shard keeps on both sides: each one
    /// counts exactly the parked `poll`s that watch its stream, and each
    /// state last pushed to subscribers is the stream's state now — a
    /// change that woke neither of the stream's queues shows up here.
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn audit_poll_subscriptions(&self) {
        use std::collections::HashMap;

        let mut watching: HashMap<StreamId, u32> = HashMap::new();
        for waiter in self.waiters.iter() {
            if let WaitKind::Poll(poll) = &waiter.kind {
                for &stream in &poll.watched {
                    *watching.entry(stream).or_default() += 1;
                }
            }
        }
        let counted: HashMap<StreamId, u32> = self.poll_subscriptions.iter().map(|(&s, sub)| (s, sub.polls)).collect();
        debug_assert_eq!(
            counted, watching,
            "shard {}: subscriptions != parked polls watching",
            self.shard_id
        );
        for (&stream, subscribers) in &self.poll_subscribers {
            debug_assert_eq!(
                subscribers.pushed,
                self.streams.get(stream).map_or(StreamState::GONE, Stream::state),
                "shard {}: stream {stream} changed without waking its queues",
                self.shard_id
            );
        }
    }

    pub(crate) fn sys_poll(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        fds: Vec<PollRequest>,
        timeout_ms: i32,
    ) -> Result<Outcome, Errno> {
        // A zero timeout is a deadline already due: one that still awaits an
        // owner's first push parks, and that push completes it.
        let deadline = (timeout_ms >= 0).then(|| Instant::now() + std::time::Duration::from_millis(timeout_ms as u64));
        let kind = WaitKind::Poll(Box::new(PollWait {
            fds,
            deadline,
            watched: Vec::new(),
        }));
        self.block(pid, Some(reply), kind, timeout_ms == 0)
    }

    pub(crate) fn sys_setflags(&mut self, pid: Pid, fd: Fd, flags: u32) -> Result<SysResult, Errno> {
        if flags & !NONBLOCK != 0 {
            return Err(Errno::EINVAL);
        }
        self.file(pid, fd)?.set_nonblocking(flags & NONBLOCK != 0);
        Ok(SysResult::Ok)
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
    use crate::task::{test_spec, Task};

    /// Installs a process holding a pipe reader (fd 0), a pipe writer (fd 1)
    /// and a socket whose two ends are both `stream` (fd 2).
    fn watch(kernel: &mut KernelState, pid: Pid, stream: StreamId) {
        let mut task = Task::new(pid, test_spec(0, "/bin/watcher", "/"));
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
    /// shard owns or is what the owning shard pushed to a subscription —
    /// and without a subscription there is no foreign state to read.
    #[test]
    fn revents_are_the_same_from_a_local_stream_and_from_the_foreign_cache() {
        let mut fleet = Fleet::boot(2);
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
            let owner = &mut fleet.shards[0];
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
            watch(owner, 2, id);
            let peer = &mut fleet.shards[1];
            watch(peer, 1, id);
            assert!(peer.stream_is_remote(id) && peer.stream_state(id).is_none());
            let mut watched = Vec::new();
            peer.watch_foreign_streams(1, &[PollRequest { fd: 0, events: POLLIN }], &mut watched);
            assert_eq!(watched, [id]);
            fleet.deliver(|_| {});
            let [owner, peer] = &fleet.shards[..] else {
                unreachable!()
            };
            assert_eq!(peer.stream_state(id), Some(state), "the owner's push");
            for fd in 0..3 {
                let word = owner.fd_revents(2, fd, POLLIN | POLLOUT);
                assert_eq!(word, peer.fd_revents(1, fd, POLLIN | POLLOUT), "{state:?}, fd {fd}");
                words.push(word.expect("known on both sides"));
            }
            fleet.shards[1].unwatch_foreign_streams(watched);
            fleet.deliver(|_| {});
            assert_eq!(fleet.shards[1].stream_state(id), None, "ended with the subscription");
            assert_eq!(
                fleet.shards[1].fd_revents(1, 0, POLLIN),
                None,
                "nothing to report without it"
            );
            assert!(fleet.shards[0].poll_subscribers.is_empty());
        }
        // Reader, writer, socket — for the stream that is gone, for the last
        // state (data and space, but neither a writer nor a reader left) and
        // for an idle pipe open at both ends (`bits == 4`, the fourth state).
        assert_eq!(words[..3], [POLLHUP, POLLERR, POLLHUP | POLLERR]);
        assert_eq!(words[36..], [POLLIN | POLLHUP, POLLERR, POLLIN | POLLHUP | POLLERR]);
        assert_eq!(words[9..12], [0, POLLOUT, POLLOUT]);
    }
}
