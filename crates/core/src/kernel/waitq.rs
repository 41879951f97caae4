//! Per-resource wait queues: how blocked system calls sleep and wake.
//!
//! The kernel never blocks its event loop.  A system call that cannot finish
//! immediately — a read on an empty stream, a write to a full one, `wait4`
//! with no exited children, `accept` with no pending connections, a `poll`
//! with nothing ready — is parked as a `Waiter` on the wait queue of
//! exactly the resource(s) it is waiting for (a [`WaitChannel`]).  When that
//! resource changes state (bytes pushed or popped, an endpoint closed, a
//! connection queued, a child exiting), the kernel wakes *that queue only*
//! and retries just its waiters.
//!
//! This is the "read-side wait queue" design the paper describes for pipes,
//! applied uniformly: waking up costs O(waiters on the affected queue), not
//! O(all blocked system calls in the kernel).  The previous implementation
//! kept one flat pending list and re-tried every entry on every kernel event;
//! that full rescan is gone from the hot path.  A debug "scavenger" pass that
//! proves no wakeup is ever lost survives behind the `scavenger` cargo
//! feature (see `KernelState::scavenge`).
//!
//! Each `WaitKind` states its would-block rule once, in
//! `KernelState::attempt`, which finishes the call or says it is blocked
//! and on which channels.  That one attempt serves the call's first try,
//! every retry after a wake, and the answer of a call that may not wait
//! (`O_NONBLOCK`, `WNOHANG`, a zero-timeout `poll`) or a `poll` whose
//! deadline passed.  Every blocking call enters through
//! `KernelState::block`; a parked waiter is never re-checked.
//!
//! A wake runs when the call that raised it returns.  `KernelState::wake`
//! only queues its channel; `KernelState::drain_wakes` runs the queue
//! after each dispatched system call, and once more when the kernel has
//! finished an event that is not one (a host request, a peer shard's
//! message, a `poll` deadline), before the rings are notified.  A call is
//! therefore one atomic step: whatever it changes, the waiters it wakes see
//! the state it left, never a half-done one — and a call that parks is on
//! its queue before any wake it raised runs.
//!
//! The kernel's internal HTTP clients (the `XMLHttpRequest`-like host API)
//! are ordinary waiters too: each parks, carrying its whole exchange, on the
//! wait queues of its connection's two streams and is pumped only when one
//! of them changes.
//!
//! A read, write, `sendfile` or `splice` parks on the *stream* it found
//! empty or full (and a `sendfile` holds the file description it reads), not
//! on the descriptor numbers it was called with: closing a number, or
//! `dup2`ing over it, while the call is parked does not redirect it — it
//! continues on the descriptions it started on, as POSIX says.  The same
//! waiter serves a call another shard shipped here; only its reply address
//! differs (`ReplyTo::Shard`), and its liveness is the submitter's to manage
//! (see `ShardMsg::CancelOp`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use browsix_fs::Errno;
use browsix_http::{parse_response, HttpResponse};

use crate::fd::{Fd, OpenFile};
use crate::kernel::{KernelState, Outcome, ReplyTo};
use crate::socket::StreamPair;
use crate::streams::StreamId;
use crate::syscall::{PollRequest, SysResult};
use crate::task::Pid;

/// A wakeup source: the single kernel resource (and direction) a blocked
/// operation is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitChannel {
    /// The stream gained data, hit EOF, or was destroyed: blocked reads (and
    /// `poll`s for readability) should retry.
    StreamReadable(StreamId),
    /// The stream gained space, lost its readers, or was destroyed: blocked
    /// writes (and `poll`s for writability) should retry.
    StreamWritable(StreamId),
    /// The listener on this port queued a connection (or went away):
    /// blocked accepts should retry.
    Listener(u16),
    /// A child of this process changed state: blocked `wait4`s should retry.
    ChildOf(Pid),
}

/// Identifier of a parked waiter within a [`WaitTable`].
pub type WaiterId = u64;

/// A minimal Fx-style hasher for the wait table's maps.
///
/// The park/wake round trip is the kernel's hottest non-I/O path, and
/// profiles of the `readiness/wake_one_1` benchmark showed the standard
/// library's DoS-resistant SipHash dominating its fixed cost.  Keys here are
/// kernel-generated integers (waiter ids, stream ids, pids, ports), never
/// attacker-chosen, so a fast multiply-rotate hash is safe.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// [`std::hash::BuildHasherDefault`] over [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// The waiters parked on one channel.  Almost every channel has exactly one
/// waiter (a pipe has one reader), so the single-waiter case is stored
/// inline and allocates nothing.
#[derive(Debug)]
enum WaiterList {
    One(WaiterId),
    Many(Vec<WaiterId>),
}

impl WaiterList {
    fn push(&mut self, id: WaiterId) {
        match self {
            WaiterList::One(first) => *self = WaiterList::Many(vec![*first, id]),
            WaiterList::Many(v) => v.push(id),
        }
    }

    /// Removes `id` if present; returns whether the list is now empty (and
    /// its channel entry should be dropped).
    fn remove_id(&mut self, id: WaiterId) -> bool {
        match self {
            WaiterList::One(only) => *only == id,
            WaiterList::Many(v) => {
                v.retain(|&w| w != id);
                v.is_empty()
            }
        }
    }
}

/// The channels one waiter is parked on.  The dominant case — a read or
/// write waiting on its single stream — stores the channel inline; only
/// `poll` (several descriptors) pays for a vector.
#[derive(Debug)]
pub(crate) enum Channels {
    None,
    One(WaitChannel),
    Many(Vec<WaitChannel>),
}

impl Channels {
    fn from_vec(mut v: Vec<WaitChannel>) -> Channels {
        match v.len() {
            0 => Channels::None,
            1 => Channels::One(v.pop().expect("len checked")),
            _ => Channels::Many(v),
        }
    }

    fn as_slice(&self) -> &[WaitChannel] {
        match self {
            Channels::None => &[],
            Channels::One(ch) => std::slice::from_ref(ch),
            Channels::Many(v) => v.as_slice(),
        }
    }
}

/// A table of parked waiters indexed by the channels they wait on.
///
/// The table is generic over the waiter payload so the kernel can park its
/// `Waiter` records and benchmarks can park plain markers; either way the
/// data structure is the same: `park` registers a payload on one or more
/// channels ([`WaitTable::park_one`] is the allocation-free single-channel
/// fast path), and `take_channel` removes and returns every payload parked
/// on one channel in O(waiters on that channel) — independent of how many
/// waiters exist in total, which is the whole point of the design.
#[derive(Debug)]
pub struct WaitTable<T> {
    next_id: WaiterId,
    waiters: HashMap<WaiterId, (T, Channels), FxBuildHasher>,
    channels: HashMap<WaitChannel, WaiterList, FxBuildHasher>,
}

impl<T> Default for WaitTable<T> {
    fn default() -> WaitTable<T> {
        WaitTable {
            next_id: 0,
            waiters: HashMap::default(),
            channels: HashMap::default(),
        }
    }
}

impl<T> WaitTable<T> {
    /// Creates an empty table.
    pub fn new() -> WaitTable<T> {
        WaitTable::default()
    }

    /// Number of parked waiters.
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// Whether no waiter is parked.
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Parks `payload` on every channel in `channels` (possibly none, for
    /// purely timer-driven waiters), returning its id.
    pub fn park(&mut self, channels: Vec<WaitChannel>, payload: T) -> WaiterId {
        self.park_channels(Channels::from_vec(channels), payload)
    }

    /// Parks `payload` on exactly one channel — the hot path for blocked
    /// reads, writes and accepts — without allocating a channel list.
    pub fn park_one(&mut self, channel: WaitChannel, payload: T) -> WaiterId {
        self.park_channels(Channels::One(channel), payload)
    }

    pub(crate) fn park_channels(&mut self, channels: Channels, payload: T) -> WaiterId {
        let id = self.next_id;
        self.next_id += 1;
        for channel in channels.as_slice() {
            self.channels
                .entry(*channel)
                .and_modify(|list| list.push(id))
                .or_insert(WaiterList::One(id));
        }
        self.waiters.insert(id, (payload, channels));
        id
    }

    /// Removes and returns every waiter parked on `channel`, deregistering
    /// each from any other channels it was parked on.
    pub fn take_channel(&mut self, channel: WaitChannel) -> Vec<T> {
        let Some(list) = self.channels.remove(&channel) else {
            return Vec::new();
        };
        match list {
            WaiterList::One(id) => self.remove_registered(id, Some(channel)).into_iter().collect(),
            WaiterList::Many(ids) => {
                let mut out = Vec::with_capacity(ids.len());
                for id in ids {
                    if let Some(payload) = self.remove_registered(id, Some(channel)) {
                        out.push(payload);
                    }
                }
                out
            }
        }
    }

    /// Removes one waiter by id (used when a `poll` deadline fires).
    pub fn remove(&mut self, id: WaiterId) -> Option<T> {
        self.remove_registered(id, None)
    }

    /// Removes every waiter, returning the payloads (the scavenger pass).
    pub fn drain_all(&mut self) -> Vec<T> {
        self.channels.clear();
        self.waiters.drain().map(|(_, (payload, _))| payload).collect()
    }

    /// Removes and returns every waiter whose payload satisfies `matches`
    /// (used to interrupt a signalled process's blocked system calls with
    /// `EINTR`, and to drop a dead process's).
    pub fn take_matching<F: FnMut(&T) -> bool>(&mut self, mut matches: F) -> Vec<T> {
        let ids: Vec<WaiterId> = self
            .waiters
            .iter()
            .filter(|(_, (payload, _))| matches(payload))
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.remove_registered(id, None))
            .collect()
    }

    /// Every parked payload, in no particular order (audits).
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.waiters.values().map(|(payload, _)| payload)
    }

    /// Removes `id` from the waiter map and from every channel list it is
    /// registered on (skipping `already_removed`, whose list is being
    /// drained by the caller).
    fn remove_registered(&mut self, id: WaiterId, already_removed: Option<WaitChannel>) -> Option<T> {
        let (payload, channels) = self.waiters.remove(&id)?;
        for &channel in channels.as_slice() {
            if Some(channel) == already_removed {
                continue;
            }
            if let Some(list) = self.channels.get_mut(&channel) {
                if list.remove_id(id) {
                    self.channels.remove(&channel);
                }
            }
        }
        Some(payload)
    }
}

/// What a parked waiter retries when its channel wakes.
#[derive(Debug)]
pub(crate) enum WaitKind {
    /// A read waiting for data (or EOF).
    Read {
        /// The locally-owned stream being read.
        stream: StreamId,
        /// Requested length.
        len: usize,
    },
    /// A write waiting for stream space.
    Write {
        /// The locally-owned stream being written.
        stream: StreamId,
        /// The full payload.
        data: Vec<u8>,
        /// How much has been accepted so far.
        written: usize,
    },
    /// `wait4` waiting for a child to exit (or stop, under `WUNTRACED`).
    Wait4 {
        /// Target pid (-1 = any child).
        target: i32,
        /// The `wait4` option bits (`WUNTRACED` matters while parked).
        options: u32,
    },
    /// `accept` waiting for an incoming connection.
    Accept {
        /// The listening descriptor.
        fd: Fd,
    },
    /// `sendfile` waiting for space in the output stream.
    Sendfile {
        /// The locally-owned destination stream.
        out: StreamId,
        /// The source's description, a regular file (so it names no stream
        /// end, and a waiter dropped with its process owes no release).
        in_file: Arc<OpenFile>,
        /// Current read position in the source file.
        offset: u64,
        /// Bytes still to transfer.
        remaining: u64,
        /// Bytes already pushed into the output stream.
        sent: u64,
        /// Whether the source descriptor's cursor tracks the transfer
        /// (the caller passed offset −1).
        advance_cursor: bool,
    },
    /// `splice` waiting for input bytes or output space.
    Splice {
        /// The locally-owned source stream.
        input: StreamId,
        /// The locally-owned destination stream.
        output: StreamId,
        /// Maximum bytes to move.
        len: u64,
    },
    /// `poll` waiting for the first ready descriptor or its timeout (boxed,
    /// so the largest kind does not grow every waiter).
    Poll(Box<PollWait>),
    /// A kernel-internal HTTP client waiting for its connection's streams.
    /// Not boxed, unlike `Poll`: a box per request moved `httpd_mix`'s peak
    /// RSS up 0.9 MiB (allocator placement around its 1 MiB responses),
    /// and the wider kind did not.
    HttpClient(HttpClientState),
}

/// A parked `poll`.
#[derive(Debug)]
pub(crate) struct PollWait {
    /// The descriptors and event masks being polled.
    pub fds: Vec<PollRequest>,
    /// When the poll times out (None = wait forever).
    pub deadline: Option<Instant>,
    /// The foreign streams it subscribed to, each once; the subscriptions
    /// end with the poll.
    pub watched: Vec<StreamId>,
}

/// A parked blocked operation.
#[derive(Debug)]
pub(crate) struct Waiter {
    /// The calling process (0 for kernel-internal HTTP clients).  It lives
    /// on another shard exactly when `reply` is a `ReplyTo::Shard`.
    pub pid: Pid,
    /// How to reply when the operation completes (None for HTTP clients,
    /// which reply over their own channel).
    pub reply: Option<ReplyTo>,
    /// What to retry on wakeup.
    pub kind: WaitKind,
}

/// State of one host-initiated HTTP request to an in-Browsix server.
#[derive(Debug)]
pub(crate) struct HttpClientState {
    /// The client's side of the loopback connection carrying the exchange,
    /// which this state holds like a descriptor would.
    pub side: StreamPair,
    /// The serialized request.
    pub to_send: Vec<u8>,
    /// How many request bytes have been pushed into the connection so far.
    pub sent: usize,
    /// Response bytes accumulated so far.
    pub received: Vec<u8>,
    /// Where the parsed response goes.
    pub reply: Sender<Result<HttpResponse, Errno>>,
}

/// What one attempt at a blocking call came to: the single would-block
/// decision for its [`WaitKind`], shared by the call's first try, every
/// retry after a wake, and the answer a call that may not wait returns.
pub(crate) enum Attempt {
    /// The call finished with this result.
    Done(SysResult),
    /// The call would block: `kind`, advanced past whatever this attempt
    /// moved, waits on `channels`.  `progressed` says it moved something
    /// all the same, so a retry that ends here was no spurious wakeup.
    Blocked {
        kind: WaitKind,
        channels: Channels,
        progressed: bool,
    },
}

impl Attempt {
    /// Blocked, on the one channel a read, write, accept, `wait4` or
    /// `sendfile` waits on.
    pub(crate) fn blocked_on(channel: WaitChannel, kind: WaitKind, progressed: bool) -> Attempt {
        let channels = Channels::One(channel);
        Attempt::Blocked {
            kind,
            channels,
            progressed,
        }
    }
}

impl WaitKind {
    /// When a parked `poll` stops waiting (no other kind times out).
    fn deadline(&self) -> Option<Instant> {
        match self {
            WaitKind::Poll(poll) => poll.deadline,
            _ => None,
        }
    }
}

impl KernelState {
    /// Tries the blocking operation `kind` once on behalf of `pid`: the one
    /// would-block decision of each wait kind.
    fn attempt(&mut self, pid: Pid, kind: WaitKind) -> Result<Attempt, Errno> {
        Ok(match kind {
            WaitKind::Read { stream, len } => match self.try_read_stream(stream, len) {
                Some(data) => Attempt::Done(SysResult::Data(data)),
                None => Attempt::blocked_on(WaitChannel::StreamReadable(stream), kind, false),
            },
            WaitKind::Write {
                stream,
                mut data,
                written,
            } => {
                let len = data.len();
                // Mid-wait EPIPE: the error (and the SIGPIPE) wins over the
                // partial count.
                let accepted = self.try_write_stream(pid, stream, &mut data, written)?;
                if written + accepted >= len {
                    Attempt::Done(SysResult::Int(len as i64))
                } else {
                    let kind = WaitKind::Write {
                        stream,
                        data,
                        written: written + accepted,
                    };
                    Attempt::blocked_on(WaitChannel::StreamWritable(stream), kind, accepted > 0)
                }
            }
            WaitKind::Wait4 { target, options } => match self.try_reap_child(pid, target, options)? {
                Some((child, status)) => Attempt::Done(SysResult::Wait { pid: child, status }),
                // Only a child of ours exiting (or stopping) wakes it.
                None => Attempt::blocked_on(WaitChannel::ChildOf(pid), kind, false),
            },
            WaitKind::Accept { fd } => self.try_accept(pid, fd)?,
            WaitKind::Sendfile {
                out,
                in_file,
                mut offset,
                mut remaining,
                sent,
                advance_cursor,
            } => match self.pump_sendfile(pid, out, &in_file, &mut offset, &mut remaining, advance_cursor) {
                Ok((pushed, true)) => Attempt::Done(SysResult::Int((sent + pushed) as i64)),
                Ok((pushed, false)) => {
                    let kind = WaitKind::Sendfile {
                        out,
                        in_file,
                        offset,
                        remaining,
                        sent: sent + pushed,
                        advance_cursor,
                    };
                    Attempt::blocked_on(WaitChannel::StreamWritable(out), kind, pushed > 0)
                }
                // A transfer that already moved bytes reports them; the error
                // will resurface on the next call.
                Err(_) if sent > 0 => Attempt::Done(SysResult::Int(sent as i64)),
                Err(e) => return Err(e),
            },
            WaitKind::Splice { input, output, len } => match self.try_splice(pid, input, output, len)? {
                Some(moved) => Attempt::Done(SysResult::Int(moved as i64)),
                None => Attempt::Blocked {
                    kind,
                    channels: Channels::Many(vec![
                        WaitChannel::StreamReadable(input),
                        WaitChannel::StreamWritable(output),
                    ]),
                    progressed: false,
                },
            },
            WaitKind::Poll(mut poll) => {
                let revents = self.poll_revents(pid, &poll.fds);
                if let Some(revents) = revents.filter(|words| words.iter().any(|&r| r != 0)) {
                    self.unwatch_foreign_streams(std::mem::take(&mut poll.watched));
                    return Ok(Attempt::Done(SysResult::Poll(revents)));
                }
                let channels = Channels::from_vec(self.poll_wait_channels(pid, &poll.fds));
                Attempt::Blocked {
                    kind: WaitKind::Poll(poll),
                    channels,
                    progressed: false,
                }
            }
            WaitKind::HttpClient(client) => self.pump_http_client(client),
        })
    }

    /// The one entry for a blocking call: attempt it, and if it would block,
    /// park it — or, when it may not wait (`O_NONBLOCK`, `WNOHANG`, a
    /// zero-timeout `poll`), return what it has instead, as soon as it knows
    /// what that is ([`KernelState::answerable`]).
    ///
    /// The wakes the attempt raises run after the call returns, so a waiter
    /// is parked before any of them can look for it: a partial write that
    /// wakes a reader, which frees space in the stream being written, finds
    /// the writer on its queue.
    pub(crate) fn block(
        &mut self,
        pid: Pid,
        reply: Option<ReplyTo>,
        kind: WaitKind,
        nonblocking: bool,
    ) -> Result<Outcome, Errno> {
        Ok(match self.attempt(pid, kind)? {
            Attempt::Done(result) => Outcome::Complete(result),
            Attempt::Blocked { kind, .. } if nonblocking && self.answerable(pid, &kind) => {
                Outcome::Complete(self.would_block(kind))
            }
            // No queue to wake it and no deadline: it could never complete.
            // Refuse rather than park forever.
            Attempt::Blocked {
                channels: Channels::None,
                kind,
                ..
            } if kind.deadline().is_none() => return Err(Errno::EINVAL),
            Attempt::Blocked { kind, channels, .. } => {
                self.stats.waiters_parked += 1;
                self.park_waiter(channels, Waiter { pid, reply, kind });
                Outcome::Blocked
            }
        })
    }

    /// Whether a blocked call can say now what it would report if it
    /// stopped waiting: always, except a `poll` whose foreign streams' owners
    /// have not all pushed their state here yet.  Such a `poll` waits for
    /// those first pushes even when it may not wait for anything else — a
    /// zero-timeout `poll` asks the owners, as an `O_NONBLOCK` remote read
    /// does.
    fn answerable(&self, pid: Pid, kind: &WaitKind) -> bool {
        match kind {
            WaitKind::Poll(poll) => poll
                .fds
                .iter()
                .all(|req| self.fd_revents(pid, req.fd, req.events).is_some()),
            _ => true,
        }
    }

    /// What a call that would block returns when it may not wait, or a
    /// `poll` whose deadline passed: the bytes a write or `sendfile` moved
    /// so far, no child for `WNOHANG`, no events for a `poll`, and
    /// otherwise `EAGAIN`.
    fn would_block(&mut self, kind: WaitKind) -> SysResult {
        match kind {
            WaitKind::Write { written, .. } if written > 0 => SysResult::Int(written as i64),
            WaitKind::Sendfile { sent, .. } if sent > 0 => SysResult::Int(sent as i64),
            WaitKind::Wait4 { .. } => SysResult::Wait { pid: 0, status: 0 },
            WaitKind::Poll(poll) => {
                let revents = vec![0; poll.fds.len()];
                self.unwatch_foreign_streams(poll.watched);
                SysResult::Poll(revents)
            }
            _ => {
                self.stats.eagain_returns += 1;
                SysResult::Err(Errno::EAGAIN)
            }
        }
    }

    /// Parks a blocked operation on `channels`.  A `poll` also subscribes to
    /// the foreign streams it names — a polled descriptor owned by another
    /// shard never produces a local wake by itself, but the owner's pushes
    /// land in the subscription and wake these channels — and has its
    /// deadline tracked once it is answerable: until then the owners' first
    /// pushes wake it, and a deadline that has passed would only spin.
    fn park_waiter(&mut self, channels: Channels, mut waiter: Waiter) {
        if let WaitKind::Poll(poll) = &mut waiter.kind {
            self.watch_foreign_streams(waiter.pid, &poll.fds, &mut poll.watched);
        }
        let deadline = waiter
            .kind
            .deadline()
            .filter(|_| self.answerable(waiter.pid, &waiter.kind));
        let id = self.waiters.park_channels(channels, waiter);
        if let Some(deadline) = deadline {
            self.poll_deadlines.push((deadline, id));
        }
    }

    /// Queues a wake of every waiter parked on `channel`, to run when the
    /// current system call (or, outside one, the current event) is done.
    pub(crate) fn wake(&mut self, channel: WaitChannel) {
        self.wake_queue.push_back(channel);
    }

    /// Runs the queued wakes in order: each waiter on a woken channel is
    /// removed from the table and retried, and one that still cannot make
    /// progress re-parks itself (counted as a spurious wakeup).  A retry can
    /// itself change state (a completed write fills a stream someone is
    /// reading); the wakes it raises join the queue and run in this drain.
    pub(crate) fn drain_wakes(&mut self) {
        while let Some(next) = self.wake_queue.pop_front() {
            if !self.poll_subscribers.is_empty() {
                self.publish_stream_state(next);
            }
            for waiter in self.waiters.take_channel(next) {
                self.retry_waiter(waiter);
            }
        }
    }

    /// Drops every waiter belonging to `pid` (the process exited; nobody is
    /// left to receive the completions).
    pub(crate) fn drop_waiters_of(&mut self, pid: Pid) {
        for waiter in self.waiters.take_matching(|w| w.pid == pid) {
            self.discard_waiter(waiter);
        }
        // Operations executing on foreign shards on this process's behalf:
        // tell the owner to drop its parked side too.
        self.cancel_remote_ops(pid, true);
    }

    /// Retries one woken waiter: complete it, or re-park it on the channels
    /// it still needs.  A `poll` whose deadline passed completes empty once
    /// it is answerable, counted as a timeout rather than a wakeup (the
    /// scavenger asserts on the wakeup counter).
    pub(crate) fn retry_waiter(&mut self, waiter: Waiter) {
        // A waiter whose process died is dropped — if the process is this
        // shard's to know about.  One parked for a process on another shard
        // lives until its submitter cancels it (`CancelOp`), and the kernel's
        // own HTTP clients belong to no process at all.
        let local = matches!(waiter.reply, Some(ReplyTo::Batch { .. } | ReplyTo::Ring { .. }));
        if local && !self.tasks.contains_key(&waiter.pid) {
            return self.discard_waiter(waiter);
        }
        let Waiter { pid, reply, kind } = waiter;
        match self.attempt(pid, kind) {
            Ok(Attempt::Done(result)) => self.finish_waiter(pid, reply, result),
            Err(errno) => self.finish_waiter(pid, reply, SysResult::Err(errno)),
            Ok(Attempt::Blocked { kind, .. })
                if kind.deadline().is_some_and(|d| Instant::now() >= d) && self.answerable(pid, &kind) =>
            {
                self.stats.poll_timeouts += 1;
                let result = self.would_block(kind);
                if let Some(reply) = reply {
                    self.complete(pid, reply, result);
                }
            }
            Ok(Attempt::Blocked {
                kind,
                channels,
                progressed,
            }) => {
                if !progressed {
                    self.stats.spurious_wakeups += 1;
                }
                self.park_waiter(channels, Waiter { pid, reply, kind });
            }
        }
    }

    /// Drops a waiter that will never be retried, ending the subscriptions
    /// a `poll` holds.
    pub(crate) fn discard_waiter(&mut self, waiter: Waiter) {
        if let WaitKind::Poll(poll) = waiter.kind {
            self.unwatch_foreign_streams(poll.watched);
        }
    }

    /// Completes a woken waiter's system call.
    fn finish_waiter(&mut self, pid: Pid, reply: Option<ReplyTo>, result: SysResult) {
        self.stats.wakeups += 1;
        if matches!(reply, Some(ReplyTo::Shard { .. })) {
            self.stats.cross_shard_wakeups += 1;
        }
        if let Some(reply) = reply {
            self.complete(pid, reply, result);
        }
    }

    /// Retries every parked waiter, asserting that none of them completes or
    /// moves anything (which queues a wake) — if one does, a state change
    /// somewhere forgot to wake its channel.
    ///
    /// Compiled only under the `scavenger` cargo feature; the assertion is a
    /// `debug_assert`, so a release build with the feature merely repairs the
    /// lost wakeup.  Enabling the feature makes every retried waiter count as
    /// a spurious wakeup, so the statistics are for debugging only.
    #[cfg(feature = "scavenger")]
    pub(crate) fn scavenge(&mut self) {
        let completed_before = self.stats.wakeups;
        for waiter in self.waiters.drain_all() {
            self.retry_waiter(waiter);
        }
        debug_assert!(
            self.stats.wakeups == completed_before && self.wake_queue.is_empty(),
            "wait-queue scavenger found a lost wakeup: a kernel state change did not wake the channel a waiter was parked on"
        );
    }

    // ---- the kernel's internal HTTP clients -----------------------------------

    /// Advances one host HTTP client: push pending request bytes, pull
    /// whatever the server has produced, and complete the request once a
    /// full response has been parsed (or the connection dies).  Its waiter
    /// completes with no reply of its own: the outcome goes down the
    /// client's channel.
    fn pump_http_client(&mut self, mut client: HttpClientState) -> Attempt {
        let side = client.side;
        // Push request bytes towards the server.  A vanished or reader-less
        // request stream means the server will never see the rest of the
        // request, which kills the exchange.
        let mut request_dead = false;
        let mut progressed = false;
        if client.sent < client.to_send.len() {
            let pending = &client.to_send[client.sent..];
            match self.with_stream(side.writes, |s| (!s.read_end_closed()).then(|| s.push(pending))) {
                Some(Some(pushed)) => {
                    client.sent += pushed;
                    if pushed > 0 {
                        progressed = true;
                        self.wake(WaitChannel::StreamReadable(side.writes));
                    }
                }
                _ => request_dead = true,
            }
        }
        // Pull response bytes from the server.  A vanished stream counts as
        // closed: no more bytes can ever arrive.
        let mut server_closed = true;
        let popped = self.with_stream(side.reads, |s| (s.pop(usize::MAX), s.write_end_closed()));
        if let Some((chunk, closed)) = popped {
            server_closed = closed;
            if !chunk.is_empty() {
                progressed = true;
                client.received.extend_from_slice(&chunk);
                self.wake(WaitChannel::StreamWritable(side.reads));
            }
        }
        let verdict = match parse_response(&client.received) {
            Ok(Some(response)) => Ok(response),
            // Connection closed before a full response arrived.
            Ok(None) if server_closed || request_dead => Err(Errno::ECONNRESET),
            Ok(None) => {
                let mut channels = vec![WaitChannel::StreamReadable(side.reads)];
                if client.sent < client.to_send.len() {
                    channels.push(WaitChannel::StreamWritable(side.writes));
                }
                return Attempt::Blocked {
                    kind: WaitKind::HttpClient(client),
                    channels: Channels::from_vec(channels),
                    progressed,
                };
            }
            Err(_) => Err(Errno::EIO),
        };
        // The exchange is over: deliver the outcome and close the kernel's
        // client side of the connection, which the server observes like any
        // peer closing — EOF on its reads, EPIPE on further writes.
        let _ = client.reply.send(verdict);
        self.drop_connection_side(side);
        Attempt::Done(SysResult::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_and_take_channel_returns_only_that_channels_waiters() {
        let mut table: WaitTable<&'static str> = WaitTable::new();
        table.park(vec![WaitChannel::StreamReadable(1)], "read-1");
        table.park(vec![WaitChannel::StreamReadable(2)], "read-2");
        table.park(vec![WaitChannel::StreamWritable(1)], "write-1");
        // A wake must not depend on how many others wait elsewhere.
        for stream in 100..356 {
            table.park(vec![WaitChannel::StreamReadable(stream)], "other");
        }
        assert_eq!(table.len(), 259);

        let woken = table.take_channel(WaitChannel::StreamReadable(1));
        assert_eq!(woken, vec!["read-1"]);
        assert_eq!(table.len(), 258);
        assert!(table.take_channel(WaitChannel::StreamReadable(1)).is_empty());
    }

    #[test]
    fn multi_channel_waiter_is_deregistered_everywhere_on_first_wake() {
        let mut table: WaitTable<u32> = WaitTable::new();
        table.park(vec![WaitChannel::StreamReadable(7), WaitChannel::Listener(80)], 42);
        assert_eq!(table.take_channel(WaitChannel::Listener(80)), vec![42]);
        // The other registration must be gone too.
        assert!(table.take_channel(WaitChannel::StreamReadable(7)).is_empty());
        assert!(table.is_empty());
    }

    #[test]
    fn take_matching_drops_waiters_and_their_registrations() {
        let mut table: WaitTable<u32> = WaitTable::new();
        table.park(vec![WaitChannel::ChildOf(1)], 1);
        table.park(vec![WaitChannel::ChildOf(1)], 2);
        assert_eq!(table.take_matching(|&v| v == 1), vec![1]);
        assert_eq!(table.iter().collect::<Vec<_>>(), vec![&2]);
        assert_eq!(table.take_channel(WaitChannel::ChildOf(1)), vec![2]);
    }

    #[test]
    fn remove_by_id_and_drain_all() {
        let mut table: WaitTable<u32> = WaitTable::new();
        let id = table.park(Vec::new(), 9);
        assert_eq!(table.remove(id), Some(9));
        assert_eq!(table.remove(id), None);

        table.park(vec![WaitChannel::StreamReadable(1)], 1);
        table.park(vec![WaitChannel::StreamWritable(1)], 2);
        let mut drained = table.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert!(table.is_empty());
        assert!(table.take_channel(WaitChannel::StreamReadable(1)).is_empty());
    }
}
