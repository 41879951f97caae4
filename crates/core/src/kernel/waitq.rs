//! Per-resource wait queues: how blocked system calls sleep and wake.
//!
//! The kernel never blocks its event loop.  A system call that cannot finish
//! immediately — a read on an empty stream, a write to a full one, `wait4`
//! with no zombie children, `accept` with no pending connections, a `poll`
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
//! The kernel's internal HTTP clients (the `XMLHttpRequest`-like host API)
//! are ordinary waiters too: each parks on the wait queues of its
//! connection's two streams and is pumped only when one of them changes.
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
use crate::kernel::{KernelState, ReplyTo, ShardMsg};
use crate::socket::StreamPair;
use crate::streams::{Stream, StreamId};
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

    fn len(&self) -> usize {
        match self {
            WaiterList::One(_) => 1,
            WaiterList::Many(v) => v.len(),
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

    /// Number of waiters parked on `channel`.
    pub fn waiting_on(&self, channel: WaitChannel) -> usize {
        self.channels.get(&channel).map(WaiterList::len).unwrap_or(0)
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

    /// Keeps only the waiters whose payload satisfies `keep` (used to drop a
    /// dead process's waiters).
    pub fn retain<F: FnMut(&T) -> bool>(&mut self, mut keep: F) {
        let dead: Vec<WaiterId> = self
            .waiters
            .iter()
            .filter(|(_, (payload, _))| !keep(payload))
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            self.remove_registered(id, None);
        }
    }

    /// Removes and returns every waiter whose payload satisfies `matches`
    /// (used to interrupt a signalled process's blocked system calls with
    /// `EINTR`).
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

    /// Counts the waiters whose payload satisfies `matches` (scavenger-mode
    /// assertions over signal interruption).
    pub fn count_matching<F: FnMut(&T) -> bool>(&self, mut matches: F) -> usize {
        self.waiters.values().filter(|(payload, _)| matches(payload)).count()
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
    /// `poll` waiting for the first ready descriptor or its timeout.
    Poll {
        /// The descriptors and event masks being polled.
        fds: Vec<PollRequest>,
        /// When the poll times out (None = wait forever).
        deadline: Option<Instant>,
    },
    /// A kernel-internal HTTP client waiting for its connection's streams.
    HttpClient {
        /// The client's side of the loopback connection.
        side: StreamPair,
    },
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

/// Outcome of pumping a kernel HTTP client.
pub(crate) enum HttpPump {
    /// The exchange finished (successfully or not); the client is gone.
    Done,
    /// Still in progress; park on these channels.
    Blocked(Vec<WaitChannel>),
}

impl KernelState {
    /// Parks a blocked operation on the given channels, tracking any `poll`
    /// deadline it carries.
    ///
    /// Parking re-checks the waiter's condition *after* it is registered:
    /// attempting the operation can itself cascade nested wakeups (a partial
    /// write wakes a reader, which drains the stream and frees space) that
    /// fire before this waiter is on any queue.  Without the re-check such a
    /// waiter would sleep on a state change that already happened — the
    /// classic lost-wakeup race, just single-threaded.
    pub(crate) fn park_waiter(&mut self, channels: Vec<WaitChannel>, waiter: Waiter) {
        self.park_waiter_channels(Channels::from_vec(channels), waiter);
    }

    /// Single-channel [`KernelState::park_waiter`]: the hot path for blocked
    /// reads, writes, accepts and sendfiles, free of channel-list allocation.
    pub(crate) fn park_waiter_one(&mut self, channel: WaitChannel, waiter: Waiter) {
        self.park_waiter_channels(Channels::One(channel), waiter);
    }

    fn park_waiter_channels(&mut self, channels: Channels, waiter: Waiter) {
        let mut deadline = match &waiter.kind {
            WaitKind::Poll { deadline, .. } => *deadline,
            _ => None,
        };
        // A polled descriptor owned by another shard never produces a local
        // wake by itself: ask the owner for a readiness snapshot now (the
        // answer lands in the stream-state cache and wakes us if it changed) and
        // arm a short tick as the fallback retry.  The tick fires the retry
        // early; the poll's own deadline still decides the actual timeout.
        if let WaitKind::Poll { fds, .. } = &waiter.kind {
            let remote = self.remote_poll_streams(waiter.pid, fds);
            if !remote.is_empty() {
                for &stream in &remote {
                    self.send_shard(
                        crate::kernel::shard::stream_shard(stream),
                        ShardMsg::PollQuery {
                            stream,
                            from_shard: self.shard_id(),
                        },
                    );
                }
                let tick = Instant::now() + std::time::Duration::from_millis(2);
                deadline = Some(deadline.map_or(tick, |d| d.min(tick)));
            }
        }
        let actionable = self.waiter_actionable(&waiter);
        let id = self.waiters.park_channels(channels, waiter);
        if let Some(deadline) = deadline {
            self.poll_deadlines.push((deadline, id));
        }
        if actionable {
            if let Some(waiter) = self.waiters.remove(id) {
                self.retry_waiter(waiter);
            }
        }
    }

    /// Whether retrying `waiter` right now would make progress (complete,
    /// error out, or move bytes).  Must agree exactly with the would-block
    /// decisions in the corresponding `try_*` paths: an "actionable" waiter
    /// that re-parks unchanged would spin forever.
    fn waiter_actionable(&self, waiter: &Waiter) -> bool {
        match &waiter.kind {
            // A missing stream completes immediately (EOF / EPIPE).
            WaitKind::Read { stream, .. } => self.streams().get(*stream).is_none_or(Stream::read_ready),
            WaitKind::Write { stream, .. } => self.streams().get(*stream).is_none_or(Stream::write_ready),
            // Nothing that runs between a failed reap and the park can
            // produce a zombie child; exits always arrive as later events.
            WaitKind::Wait4 { .. } => false,
            WaitKind::Accept { fd } => match self.accept_wait_channel(waiter.pid, *fd) {
                Some(WaitChannel::Listener(port)) => {
                    // A connection is waiting, or the listener itself is gone
                    // (the retry then fails with EINVAL instead of parking).
                    self.sockets().has_pending(port) || !self.sockets().port_in_use(port)
                }
                _ => true,
            },
            // Parked only because the output stream filled: the Write arm.
            WaitKind::Sendfile { out, .. } => self.streams().get(*out).is_none_or(Stream::write_ready),
            WaitKind::Splice { input, output, .. } => match (self.streams().get(*input), self.streams().get(*output)) {
                // A missing input reads EOF, a missing output raises EPIPE:
                // either completes the retry.
                (None, _) | (_, None) => true,
                (Some(input), Some(output)) => {
                    if output.read_end_closed() {
                        true
                    } else if input.is_empty() {
                        input.write_end_closed()
                    } else {
                        output.space() > 0
                    }
                }
            },
            WaitKind::Poll { fds, .. } => self.poll_revents(waiter.pid, fds).iter().any(|&r| r != 0),
            WaitKind::HttpClient { side } => self.http_client_actionable(*side),
        }
    }

    /// Whether pumping the given HTTP client would make progress, mirroring
    /// the would-block decision in [`KernelState::pump_http_client`].
    fn http_client_actionable(&self, side: StreamPair) -> bool {
        let Some(client) = self.http_clients.iter().find(|c| c.side == side) else {
            return false;
        };
        let response_ready = self.streams().get(side.reads).is_none_or(Stream::read_ready);
        let request_sendable =
            client.sent < client.to_send.len() && self.streams().get(side.writes).is_none_or(Stream::write_ready);
        response_ready || request_sendable
    }

    /// Wakes every waiter parked on `channel`: each is removed from the
    /// table and retried; waiters that still cannot make progress re-park
    /// themselves (counted as spurious wakeups).
    ///
    /// Retrying a waiter can itself change kernel state (a completed write
    /// fills a stream someone is reading), so nested wakes are queued and
    /// drained iteratively rather than recursing.
    pub(crate) fn wake(&mut self, channel: WaitChannel) {
        self.wake_queue.push_back(channel);
        if self.waking {
            return;
        }
        self.waking = true;
        while let Some(next) = self.wake_queue.pop_front() {
            for waiter in self.waiters.take_channel(next) {
                self.retry_waiter(waiter);
            }
        }
        self.waking = false;
    }

    /// Drops every waiter belonging to `pid` (the process exited; nobody is
    /// left to receive the completions).
    pub(crate) fn drop_waiters_of(&mut self, pid: Pid) {
        self.waiters.retain(|w| w.pid != pid);
        // Operations executing on foreign shards on this process's behalf:
        // tell the owner to drop its parked side too.
        self.cancel_remote_ops(pid, true);
    }

    /// Retries one woken waiter: complete it, or re-park it on the channels
    /// it still needs.
    pub(crate) fn retry_waiter(&mut self, waiter: Waiter) {
        let Waiter { pid, reply, kind } = waiter;
        // A waiter whose process died is dropped — if the process is this
        // shard's to know about.  One parked for a process on another shard
        // lives until its submitter cancels it (`CancelOp`), and the kernel's
        // own HTTP clients belong to no process at all.
        let local = matches!(reply, Some(ReplyTo::Batch { .. } | ReplyTo::Ring { .. }));
        if local && !self.tasks_contains(pid) {
            return;
        }
        match kind {
            WaitKind::Read { stream, len } => match self.try_read_stream(stream, len) {
                Some(data) => self.finish_waiter(pid, reply, SysResult::Data(data)),
                None => {
                    let kind = WaitKind::Read { stream, len };
                    self.repark_one(WaitChannel::StreamReadable(stream), Waiter { pid, reply, kind });
                }
            },
            WaitKind::Write {
                stream,
                mut data,
                written,
            } => {
                let len = data.len();
                match self.try_write_stream(pid, stream, &mut data, written) {
                    Ok(accepted) if written + accepted >= len => {
                        self.finish_waiter(pid, reply, SysResult::Int(len as i64));
                    }
                    Ok(accepted) => {
                        if accepted == 0 {
                            self.stats.spurious_wakeups += 1;
                        }
                        let written = written + accepted;
                        let kind = WaitKind::Write { stream, data, written };
                        self.park_waiter_one(WaitChannel::StreamWritable(stream), Waiter { pid, reply, kind });
                    }
                    // Mid-wait EPIPE: the error (and the SIGPIPE) wins over the
                    // partial count.
                    Err(errno) => self.finish_waiter(pid, reply, SysResult::Err(errno)),
                }
            }
            WaitKind::Wait4 { target, options } => match self.try_reap_child(pid, target, options) {
                Ok(Some((child, status))) => self.finish_waiter(pid, reply, SysResult::Wait { pid: child, status }),
                Ok(None) => self.repark_one(
                    WaitChannel::ChildOf(pid),
                    Waiter {
                        pid,
                        reply,
                        kind: WaitKind::Wait4 { target, options },
                    },
                ),
                Err(e) => self.finish_waiter(pid, reply, SysResult::Err(e)),
            },
            WaitKind::Accept { fd } => match self.try_accept(pid, fd) {
                Ok(Some(new_fd)) => self.finish_waiter(pid, reply, SysResult::Int(new_fd as i64)),
                Ok(None) => match self.accept_wait_channel(pid, fd) {
                    Some(channel) => self.repark_one(
                        channel,
                        Waiter {
                            pid,
                            reply,
                            kind: WaitKind::Accept { fd },
                        },
                    ),
                    None => self.finish_waiter(pid, reply, SysResult::Err(Errno::EBADF)),
                },
                Err(e) => self.finish_waiter(pid, reply, SysResult::Err(e)),
            },
            WaitKind::Sendfile {
                out,
                in_file,
                mut offset,
                mut remaining,
                sent,
                advance_cursor,
            } => match self.pump_sendfile(pid, out, &in_file, &mut offset, &mut remaining, advance_cursor) {
                Ok((pushed, true)) => self.finish_waiter(pid, reply, SysResult::Int((sent + pushed) as i64)),
                Ok((pushed, false)) => {
                    if pushed == 0 {
                        self.stats.spurious_wakeups += 1;
                    }
                    let kind = WaitKind::Sendfile {
                        out,
                        in_file,
                        offset,
                        remaining,
                        sent: sent + pushed,
                        advance_cursor,
                    };
                    self.park_waiter_one(WaitChannel::StreamWritable(out), Waiter { pid, reply, kind });
                }
                // A transfer that already moved bytes reports them; the error
                // will resurface on the next call.
                Err(_) if sent > 0 => self.finish_waiter(pid, reply, SysResult::Int(sent as i64)),
                Err(e) => self.finish_waiter(pid, reply, SysResult::Err(e)),
            },
            WaitKind::Splice { input, output, len } => match self.try_splice(pid, input, output, len) {
                Ok(Some(moved)) => self.finish_waiter(pid, reply, SysResult::Int(moved as i64)),
                Ok(None) => self.repark(
                    vec![WaitChannel::StreamReadable(input), WaitChannel::StreamWritable(output)],
                    Waiter {
                        pid,
                        reply,
                        kind: WaitKind::Splice { input, output, len },
                    },
                ),
                Err(e) => self.finish_waiter(pid, reply, SysResult::Err(e)),
            },
            WaitKind::Poll { fds, deadline } => {
                let revents = self.poll_revents(pid, &fds);
                if revents.iter().any(|&r| r != 0) {
                    self.finish_waiter(pid, reply, SysResult::Poll(revents));
                } else if deadline.is_some_and(|d| Instant::now() >= d) {
                    // Timer-driven, deliberately not counted as a wakeup (the
                    // scavenger asserts on the wakeup counter).
                    self.stats.poll_timeouts += 1;
                    if let Some(reply) = reply {
                        self.complete(pid, reply, SysResult::Poll(revents));
                    }
                } else {
                    let channels = self.poll_wait_channels(pid, &fds);
                    self.repark(
                        channels,
                        Waiter {
                            pid,
                            reply,
                            kind: WaitKind::Poll { fds, deadline },
                        },
                    );
                }
            }
            WaitKind::HttpClient { side } => match self.pump_http_client(side) {
                HttpPump::Done => self.stats.wakeups += 1,
                HttpPump::Blocked(channels) => self.repark(
                    channels,
                    Waiter {
                        pid,
                        reply,
                        kind: WaitKind::HttpClient { side },
                    },
                ),
            },
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

    /// Re-parks a waiter that was woken but could not make progress.
    fn repark(&mut self, channels: Vec<WaitChannel>, waiter: Waiter) {
        self.stats.spurious_wakeups += 1;
        self.park_waiter(channels, waiter);
    }

    /// Single-channel [`KernelState::repark`].
    fn repark_one(&mut self, channel: WaitChannel, waiter: Waiter) {
        self.stats.spurious_wakeups += 1;
        self.park_waiter_one(channel, waiter);
    }

    /// Retries every parked waiter, asserting that none of them completes —
    /// if one does, a state change somewhere forgot to wake its channel.
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
        debug_assert_eq!(
            self.stats.wakeups, completed_before,
            "wait-queue scavenger found a lost wakeup: a kernel state change did not wake the channel a waiter was parked on"
        );
    }

    // ---- the kernel's internal HTTP clients -----------------------------------

    /// Advances one host HTTP client: push pending request bytes, pull
    /// whatever the server has produced, and complete the request once a
    /// full response has been parsed (or the connection dies).
    pub(crate) fn pump_http_client(&mut self, side: StreamPair) -> HttpPump {
        let Some(index) = self.http_clients.iter().position(|c| c.side == side) else {
            return HttpPump::Done;
        };
        let mut client = self.http_clients.swap_remove(index);
        // Push request bytes towards the server.  A vanished or reader-less
        // request stream means the server will never see the rest of the
        // request, which kills the exchange.
        let mut request_dead = false;
        if client.sent < client.to_send.len() {
            let pending = &client.to_send[client.sent..];
            match self.with_stream(side.writes, |s| (!s.read_end_closed()).then(|| s.push(pending))) {
                Some(Some(pushed)) => {
                    client.sent += pushed;
                    if pushed > 0 {
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
                self.http_clients.push(client);
                return HttpPump::Blocked(channels);
            }
            Err(_) => Err(Errno::EIO),
        };
        // The exchange is over: deliver the outcome and close the kernel's
        // client side of the connection, which the server observes like any
        // peer closing — EOF on its reads, EPIPE on further writes.
        let _ = client.reply.send(verdict);
        self.drop_connection_side(side);
        HttpPump::Done
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
        assert_eq!(table.len(), 3);
        assert_eq!(table.waiting_on(WaitChannel::StreamReadable(1)), 1);

        let woken = table.take_channel(WaitChannel::StreamReadable(1));
        assert_eq!(woken, vec!["read-1"]);
        assert_eq!(table.len(), 2);
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
    fn retain_drops_waiters_and_their_registrations() {
        let mut table: WaitTable<u32> = WaitTable::new();
        table.park(vec![WaitChannel::ChildOf(1)], 1);
        table.park(vec![WaitChannel::ChildOf(1)], 2);
        table.retain(|&v| v != 1);
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
