//! The kernel proper: state, event loop, process lifecycle and system-call
//! dispatch.
//!
//! The kernel runs on its own thread (the analogue of the main browser
//! thread) and owns every piece of shared state: the task table, the mounted
//! file system, streams (pipes and socket connections), sockets and the
//! wait queues of blocked system calls.  Everything else in the crate
//! funnels into `KernelState::run`.

mod dispatch_fs;
mod dispatch_proc;
mod dispatch_sock;
mod dispatch_vm;
#[cfg(test)]
mod endpoint_model;
mod endpoints;
mod poll;
pub mod shard;
pub mod waitq;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use browsix_browser::{Message, PlatformConfig, WorkerPool, WorkerScope};
use browsix_fs::{Errno, MountedFs};

use crate::events::{HostRequest, KernelEvent};
use crate::exec::{resolve_executable, ExecutableRegistry, LaunchContext};
use crate::fd::{Fd, OpenFile};
use crate::ring::{Ring, MAX_READ_BYTES};
use crate::signals::{SigAction, Signal, SignalDisposition};
use crate::socket::{SocketTable, StreamPair};
use crate::stats::{KernelStats, SyscallTally};
use crate::streams::{Stream, StreamId, StreamTable};
use crate::syscall::{encode_wait_status, Completion, CompletionBatch, SysResult, Syscall, SyscallBatch};
use crate::task::{ChildReport, InflightBatch, Pid, Task, TaskSpec, TaskState};
use crate::wire::Reader;

use poll::{PollSubscribers, PollSubscription};
pub(crate) use shard::{PendingRemote, RouterState, ShardMsg, StreamIo};
pub(crate) use waitq::{HttpClientState, WaitKind, Waiter};
pub use waitq::{WaitChannel, WaitTable, WaiterId};

/// Where a system call's result belongs.
///
/// Entries of a message frame complete into the task's [`InflightBatch`]
/// (the reply sequence number lives there) and go back together in one
/// response message.  Ring entries complete individually: each one becomes a
/// completion-queue entry tagged with the submitter's `user_data`.  A call
/// another shard shipped here completes by message to that shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyTo {
    /// The slot of the entry within the submission batch it arrived in.
    Batch {
        /// Index of the entry within its submission batch.
        index: u32,
    },
    /// An entry submitted through the task's persistent ring.
    Ring {
        /// The submitter's cookie, echoed on the completion entry.
        user_data: u32,
    },
    /// A read or write of a stream this shard owns, made by a process on
    /// another shard: the result travels back as a
    /// [`ShardMsg::RemoteOpDone`].
    Shard {
        /// The shard the calling process lives on.
        shard: usize,
        /// The token that shard minted for the call (unique only there).
        token: u64,
    },
}

/// The outcome of dispatching a system call.
pub(crate) enum Outcome {
    /// The call finished; send this result.
    Complete(SysResult),
    /// The call blocked; a [`Waiter`] has been parked on its wait queue(s).
    Blocked,
    /// The call finished but no reply should be sent (`exit`).
    NoReply,
}

/// What a handler that never parks returns: its result, or the error that
/// left it by `?`.  Either way the call completes now.
impl From<Result<SysResult, Errno>> for Outcome {
    fn from(result: Result<SysResult, Errno>) -> Outcome {
        Outcome::Complete(result.unwrap_or_else(SysResult::Err))
    }
}

/// What a handler that may park returns: an error found before it parked
/// completes the call, like a result.
impl From<Result<Outcome, Errno>> for Outcome {
    fn from(result: Result<Outcome, Errno>) -> Outcome {
        result.unwrap_or_else(|errno| Outcome::Complete(SysResult::Err(errno)))
    }
}

/// Configuration captured at boot time and owned by the kernel thread.
pub(crate) struct KernelConfig {
    pub platform: PlatformConfig,
    pub fs: Arc<MountedFs>,
    pub registry: ExecutableRegistry,
    pub default_env: Vec<(String, String)>,
}

/// All kernel state of one shard.  Owned exclusively by that shard's
/// thread; the only state shared between shards is the [`RouterState`].
pub(crate) struct KernelState {
    config: PlatformConfig,
    fs: Arc<MountedFs>,
    registry: ExecutableRegistry,
    default_env: Vec<(String, String)>,

    /// This shard's index (`pid % nshards` names the owner of a task).
    shard_id: usize,
    nshards: usize,
    /// Every shard's event queue, `peers[shard_id]` being this shard's own
    /// (cross-shard messages and local re-submissions share one ordering).
    peers: Vec<Sender<KernelEvent>>,
    /// The global registries shared by all shards (never touched while
    /// bytes move on the data path).
    router: Arc<RouterState>,

    events_tx: Sender<KernelEvent>,
    /// Boxed: a task is half a kilobyte, and keeping it out of the table's
    /// buckets keeps the table a few kilobytes however it grows, so neither
    /// a rehash nor a lookup drags whole tasks through the cache.
    tasks: HashMap<Pid, Box<Task>>,
    streams: StreamTable,
    sockets: SocketTable,
    /// Blocked system calls (and kernel HTTP clients), parked on the wait
    /// queues of exactly the resources they wait for.
    waiters: WaitTable<Waiter>,
    /// Channels woken by the current system call (or event), run when it
    /// returns ([`KernelState::drain_wakes`]).
    wake_queue: VecDeque<WaitChannel>,
    /// `(deadline, waiter)` pairs for parked `poll`s with timeouts.
    poll_deadlines: Vec<(Instant, WaiterId)>,

    /// Monotonic token counter for cross-shard operations this shard
    /// submits.  Every shard counts from 1, so a token names an operation
    /// only together with the shard that minted it.
    next_remote_token: u64,
    /// Syscalls executing on a foreign shard, keyed by token.
    remote_ops: HashMap<u64, PendingRemote>,
    /// `(readers, writers)` references this shard holds on streams owned by
    /// other shards; each change is reported to the owner, per stream.
    foreign_endpoints: HashMap<StreamId, (u32, u32)>,
    /// The latest tally each peer shard reported for a stream this shard
    /// owns (already folded into that stream's counts).
    remote_contribs: HashMap<(usize, StreamId), (u32, u32)>,
    /// Foreign streams parked `poll`s here watch, and what each owner last
    /// pushed; an entry lives exactly as long as one of those polls.
    poll_subscriptions: HashMap<StreamId, PollSubscription>,
    /// Owned streams other shards' `poll`s watch: who, and what was pushed.
    poll_subscribers: HashMap<StreamId, PollSubscribers>,
    /// Client sides of connections created by a remote `connect`: this shard
    /// holds each until the connecting shard has counted its descriptor.
    remote_client_pins: HashSet<StreamPair>,
    /// Descriptions of in-flight cross-shard spawns: references kept (and
    /// released like any other) until the owning shard acks the task exists.
    pinned_files: HashMap<u64, Vec<Arc<OpenFile>>>,

    /// Tasks whose completion queue received entries while the current event
    /// was being handled and that have not been notified since: each is
    /// notified once, by the drain of its own ring as that parks, or else
    /// when the event is done ([`KernelState::notify_rings`]).
    cq_unnotified: Vec<Pid>,

    /// The threads this loop's processes run on: a spawn or fork takes an
    /// idle one rather than creating a thread.  Dropped with the loop, which
    /// ends every idle one.
    workers: WorkerPool,

    stats: KernelStats,
    /// The per-call counters, folded into `stats` when a snapshot is taken.
    syscall_tally: SyscallTally,
}

impl KernelState {
    pub(crate) fn new(
        config: KernelConfig,
        shard_id: usize,
        router: Arc<RouterState>,
        peers: Vec<Sender<KernelEvent>>,
    ) -> KernelState {
        let events_tx = peers[shard_id].clone();
        KernelState {
            config: config.platform,
            fs: config.fs,
            registry: config.registry,
            default_env: config.default_env,
            shard_id,
            nshards: router.nshards(),
            peers,
            router,
            events_tx,
            tasks: HashMap::new(),
            streams: StreamTable::new_for_shard(shard_id),
            sockets: SocketTable::new(),
            waiters: WaitTable::new(),
            wake_queue: VecDeque::new(),
            poll_deadlines: Vec::new(),
            next_remote_token: 1,
            remote_ops: HashMap::new(),
            foreign_endpoints: HashMap::new(),
            remote_contribs: HashMap::new(),
            poll_subscriptions: HashMap::new(),
            poll_subscribers: HashMap::new(),
            remote_client_pins: HashSet::new(),
            pinned_files: HashMap::new(),
            cq_unnotified: Vec::new(),
            workers: WorkerPool::new(),
            stats: KernelStats::default(),
            syscall_tally: SyscallTally::default(),
        }
    }

    /// The kernel's main loop: process events until shutdown.
    ///
    /// Every state change wakes exactly the wait queues it affects as part
    /// of handling the event, ring submissions arrive as doorbell events,
    /// and a foreign stream's owner pushes its state changes to the shards
    /// whose `poll`s subscribed, so the loop itself does no retry work and
    /// sleeps until an event arrives.  The one deadline it keeps is the
    /// earliest a parked `poll` asked for: only while there is one does the
    /// loop wait with a timeout, and expire it when that runs out.
    pub(crate) fn run(mut self, events: Receiver<KernelEvent>) {
        loop {
            let event = match self.next_poll_deadline() {
                Some(deadline) => events.recv_timeout(deadline.saturating_duration_since(Instant::now())),
                None => events.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match event {
                Ok(KernelEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(event) => self.handle_one(Some(event)),
                Err(RecvTimeoutError::Timeout) => self.handle_one(None),
            }
        }
        // Terminate every remaining worker.  The loop's pool goes with
        // `self`, so every thread exits once its script has unwound.
        for task in self.tasks.values_mut() {
            task.terminate_worker();
        }
    }

    /// One turn of the event loop, with or without a thread around it:
    /// handles `event` — `None` means a `poll` deadline came due — expires
    /// due `poll` deadlines, runs the wakes raised outside any system call,
    /// and then wakes every process whose completion queue any of that
    /// filled, once each.
    pub(crate) fn handle_one(&mut self, event: Option<KernelEvent>) {
        if let Some(event) = event {
            self.handle_event(event);
        }
        self.expire_poll_deadlines();
        self.drain_wakes();
        self.notify_rings();
        // With the `scavenger` feature, prove after every event that the
        // wait queues lost no wakeup (retrying every parked waiter must
        // complete none), that the endpoint counts equal a from-scratch
        // recount, that every listener lives exactly as long as its
        // description, that every `poll` subscription is counted and every
        // subscribed stream's last push is its state, that every task here
        // is registered here, and that no ring holds a completion published
        // since it was last notified.
        #[cfg(feature = "scavenger")]
        {
            self.scavenge();
            self.audit_endpoints();
            self.audit_listeners();
            self.audit_poll_subscriptions();
            self.audit_process_registry();
            assert!(
                self.cq_unnotified.is_empty(),
                "completions were published to {:?} after the event's notify",
                self.cq_unnotified
            );
        }
    }

    fn handle_event(&mut self, event: KernelEvent) {
        match event {
            KernelEvent::Syscall {
                pid,
                seq,
                payload,
                transfers,
            } => self.handle_syscall(pid, seq, payload, transfers),
            KernelEvent::MapRing { pid, heap } => {
                // One ring per task, for good: a second heap, or one too
                // short for the ring region, maps nothing.  The process set
                // `NEED_WAKEUP` before it sent the heap.
                if let Some(task) = self.tasks.get_mut(&pid).filter(|task| task.ring.is_none()) {
                    task.ring = Ring::map(heap);
                }
            }
            KernelEvent::Doorbell { pid } => {
                self.stats.doorbells += 1;
                self.drain_ring(pid);
            }
            KernelEvent::Host(request) => self.handle_host_request(request),
            KernelEvent::Shard(msg) => self.handle_shard_msg(msg),
            KernelEvent::Shutdown => {}
        }
    }

    // ---- syscall rings -------------------------------------------------------

    /// Drains one task's submission queue dry, dispatching each entry and
    /// posting its completion (or parking a waiter) as it goes, then
    /// notifies the task of those completions, once, and parks the queue
    /// ([`Ring::park`]).
    ///
    /// The park sets `NEED_WAKEUP` and then re-checks both queues: entries
    /// that raced in after the pass saw the queue empty, and completions
    /// that overflowed and now fit, because the process popped while the
    /// flag was still clear.  Either way the process rang no doorbell, so
    /// this loop goes round again — it is what guarantees that no
    /// submission goes undrained and no completion stays stranded in the
    /// overflow queue while the process sleeps.  The same park wakes a
    /// process that waits for the queue space this pass made.
    ///
    /// A stopped task's queue is left exactly as it is — entries unpopped,
    /// flag untouched — like the message frames `handle_syscall` stashes:
    /// the process freezes at its next system call, and SIGCONT
    /// ([`KernelState::continue_task`]) runs the drain it missed.
    fn drain_ring(&mut self, pid: Pid) {
        let Some(ring) = self
            .tasks
            .get(&pid)
            .filter(|t| t.is_running())
            .and_then(|t| t.ring.clone())
        else {
            return;
        };
        self.flush_pending_cqes(pid, None);
        loop {
            // Re-checked per entry: dispatching one can stop (or kill) the
            // submitter, and the entries behind it must stay queued.
            while self.task_running(pid) {
                let Some((user_data, payload)) = ring.pop_sqe() else {
                    break;
                };
                self.stats.sq_polled += 1;
                let Some(mut call) = Syscall::decode_from(&mut Reader::new(&payload)) else {
                    // An empty payload is how the ring reports a spill
                    // reference that points outside the heap.
                    let errno = if payload.is_empty() {
                        Errno::EFAULT
                    } else {
                        Errno::EINVAL
                    };
                    self.post_ring_completion(pid, user_data, SysResult::Err(errno));
                    continue;
                };
                crate::abi::cap_ring_read(&mut call, MAX_READ_BYTES);
                match self.run_entry(pid, ReplyTo::Ring { user_data }, call) {
                    Outcome::Complete(result) => self.post_ring_completion(pid, user_data, result),
                    Outcome::Blocked => {}
                    // `exit` tears the task down; nothing further to drain.
                    Outcome::NoReply => return,
                }
            }
            if !self.task_running(pid) {
                return;
            }
            // Wake the process for what this pass completed *before* parking
            // its queue.  Where it runs at once — on a single CPU the wake-up
            // preempts this thread — it submits its next call while the flag
            // is still clear, rings no doorbell, and the re-check below picks
            // the entry up: a depth-1 caller keeps the kernel in this loop
            // instead of paying a doorbell and a kernel wake-up per call.
            if let Some(at) = self.cq_unnotified.iter().position(|&owed| owed == pid) {
                self.cq_unnotified.swap_remove(at);
                ring.notify_cq();
            }
            if ring.park(|| self.flush_pending_cqes(pid, None)) {
                break;
            }
        }
    }

    /// Posts one ring completion.  It queues behind any that overflowed
    /// earlier — the completion queue was full, or no run of registered
    /// buffers was free — so completions reach the process in the order
    /// they were made, and stays in the task's overflow queue itself if it
    /// cannot go now.
    fn post_ring_completion(&mut self, pid: Pid, user_data: u32, result: SysResult) {
        self.flush_pending_cqes(pid, Some((user_data, result)));
    }

    /// Publishes the task's queued completions, `newest` last, in FIFO order
    /// until one does not fit ([`Ring::push_result`]: a full queue, or no
    /// free run of the buffers a spill needs), and remembers that its ring
    /// is owed a notify.  Returns whether it published any.
    fn flush_pending_cqes(&mut self, pid: Pid, newest: Option<(u32, SysResult)>) -> bool {
        let Some(task) = self.tasks.get_mut(&pid) else {
            return false;
        };
        task.pending_cqes.extend(newest);
        let Some(ring) = &task.ring else { return false };
        let mut posted = 0;
        while let Some((user_data, result)) = task.pending_cqes.front() {
            if !ring.push_result(*user_data, result) {
                break;
            }
            task.pending_cqes.pop_front();
            posted += 1;
        }
        if posted > 0 {
            self.stats.cq_posted += posted;
            if !self.cq_unnotified.contains(&pid) {
                self.cq_unnotified.push(pid);
            }
        }
        posted > 0
    }

    /// Wakes every process whose completion queue was published to and that
    /// has not been notified since: one `Atomics.notify` per ring per event,
    /// however many completions the event produced and whichever path
    /// produced them (a wake-up, a peer shard's reply, a `poll` deadline, a
    /// child's exit; a drain notifies its own ring itself, as it parks).  A
    /// process about to sleep re-reads the tail first, so one that is not
    /// asleep yet needs no wake.
    fn notify_rings(&mut self) {
        for pid in self.cq_unnotified.drain(..) {
            if let Some(ring) = self.tasks.get(&pid).and_then(|t| t.ring.as_ref()) {
                ring.notify_cq();
            }
        }
    }

    // ---- system-call entry ---------------------------------------------------

    /// Services one message frame: a [`SyscallBatch`] whose completions go
    /// back together in the response message carrying `seq`.  Payloads that
    /// travelled beside the frame are moved back into their entries before
    /// anything is dispatched, so handlers see the `ByteSource::Inline` they
    /// always did.
    fn handle_syscall(&mut self, pid: Pid, seq: u64, payload: Vec<u8>, transfers: Vec<Vec<u8>>) {
        match self.tasks.get_mut(&pid) {
            None => return,
            Some(task) if task.is_stopped() => {
                // A stopped process's system calls are not serviced: stash
                // the frame and replay it (in order) when SIGCONT arrives.
                // The worker blocks awaiting the reply, which is exactly the
                // "frozen at a syscall boundary" stop semantics.
                task.stashed_frames.push((seq, payload, transfers));
                return;
            }
            Some(_) => {}
        }
        let Some(mut batch) = SyscallBatch::decode(&payload) else {
            // An undecodable frame (corruption, codec-version skew) must
            // still produce a reply, or the process waits for it forever.
            let error = CompletionBatch {
                completions: vec![Completion {
                    index: 0,
                    result: SysResult::Err(Errno::EINVAL),
                }],
            };
            self.deliver_response(pid, seq, error);
            return;
        };
        batch.attach_payloads(transfers);
        if batch.is_empty() {
            return;
        }
        self.stats.record_batch(batch.len(), payload.len());
        if let Some(task) = self.tasks.get_mut(&pid) {
            task.inflight = Some(InflightBatch {
                seq,
                total: batch.len() as u32,
                completions: Vec::with_capacity(batch.len()),
            });
        }
        for (index, call) in batch.entries.into_iter().enumerate() {
            // A mid-batch self-stop keeps dispatching the remaining entries:
            // abandoning them would leave the batch incomplete and the
            // worker waiting for its reply even after SIGCONT.  Only exit
            // (which consumes the batch via `NoReply`) ends it early.
            if !self.tasks.contains_key(&pid) {
                return;
            }
            let reply = ReplyTo::Batch { index: index as u32 };
            match self.run_entry(pid, reply, call) {
                Outcome::Complete(result) => self.record_completion(pid, reply, result),
                // Blocked entries peel off into the pending list and complete
                // individually; `exit` consumes the rest of the batch.
                Outcome::Blocked => {}
                Outcome::NoReply => return,
            }
        }
        self.maybe_deliver_batch(pid);
    }

    /// Runs one submitted entry, from a message frame or the ring alike:
    /// counts it and runs it as one step ([`KernelState::run_call`]).
    fn run_entry(&mut self, pid: Pid, reply: ReplyTo, call: Syscall) -> Outcome {
        self.syscall_tally
            .record_syscall(&call, matches!(reply, ReplyTo::Ring { .. }));
        if let Some(task) = self.tasks.get_mut(&pid) {
            task.syscall_count += 1;
        }
        self.run_call(|kernel| kernel.dispatch(pid, reply, call))
    }

    /// Runs one system call — a submitted entry, or the owner's half of a
    /// read or write submitted on another shard — and then the wakes it
    /// raised.  Each call is one step: other processes are woken as soon as
    /// it is done, and its wakes run before its completion is sent.
    fn run_call<R: Into<Outcome>>(&mut self, call: impl FnOnce(&mut Self) -> R) -> Outcome {
        let outcome = call(self).into();
        self.drain_wakes();
        outcome
    }

    // ---- reply paths ---------------------------------------------------------

    /// Completes one entry (used by the pending list when a blocked entry
    /// finally finishes): a batch entry files into the in-flight batch and
    /// delivers it if it was the last one; a ring entry posts straight to
    /// the submitter's completion queue; a peer shard's call is answered by
    /// message.
    pub(crate) fn complete(&mut self, pid: Pid, reply: ReplyTo, result: SysResult) {
        match reply {
            ReplyTo::Batch { .. } => {
                self.record_completion(pid, reply, result);
                self.maybe_deliver_batch(pid);
            }
            ReplyTo::Ring { user_data } => self.post_ring_completion(pid, user_data, result),
            ReplyTo::Shard { shard, token } => self.send_shard(shard, ShardMsg::RemoteOpDone { token, result }),
        }
    }

    /// Files an entry's result into the task's in-flight batch.
    fn record_completion(&mut self, pid: Pid, reply: ReplyTo, result: SysResult) {
        let ReplyTo::Batch { index } = reply else { return };
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        let Some(inflight) = task.inflight.as_mut() else { return };
        inflight.completions.push(Completion { index, result });
    }

    /// Delivers the task's in-flight batch once every entry has completed,
    /// as one response message carrying the encoded [`CompletionBatch`].
    /// The receiving client places each completion by its index, so no
    /// ordering is imposed here.
    fn maybe_deliver_batch(&mut self, pid: Pid) {
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        if !task.inflight.as_ref().map(InflightBatch::is_complete).unwrap_or(false) {
            return;
        }
        let inflight = task.inflight.take().expect("checked above");
        let batch = CompletionBatch {
            completions: inflight.completions,
        };
        self.deliver_response(pid, inflight.seq, batch);
    }

    /// Posts a [`CompletionBatch`] as the response to `seq`: the encoded
    /// frame inside the message, bulk read data beside it.
    fn deliver_response(&mut self, pid: Pid, seq: u64, mut batch: CompletionBatch) {
        let transfers = batch.detach_payloads();
        let msg = Message::map()
            .with("type", "syscall-response")
            .with("seq", seq as i64)
            .with("completions", batch.encode());
        self.post_to_worker(pid, msg, transfers);
    }

    /// Posts a message to a process's worker, recording the copy cost: the
    /// message is cloned, the `transfer` list beside it moved.
    pub(crate) fn post_to_worker(&mut self, pid: Pid, msg: Message, transfer: Vec<Vec<u8>>) {
        let bytes = msg.byte_size();
        if let Some(task) = self.tasks.get(&pid) {
            if let Some(worker) = &task.worker {
                if worker.post_message_transfer(msg, transfer).is_ok() {
                    self.stats.record_message_to_worker(bytes);
                }
            }
        }
    }

    /// Runs `op` on a stream this shard owns, charging the bytes it copied
    /// inside the kernel (a copying push or pop; a moved buffer costs
    /// nothing) to `bytes_copied`.  `None` if the stream is gone.
    pub(crate) fn with_stream<R>(&mut self, id: StreamId, op: impl FnOnce(&mut Stream) -> R) -> Option<R> {
        let stream = self.streams.get_mut(id)?;
        let before = stream.copied();
        let result = op(stream);
        self.stats.bytes_copied += stream.copied() - before;
        Some(result)
    }

    // ---- host API ------------------------------------------------------------

    fn handle_host_request(&mut self, request: HostRequest) {
        match request {
            HostRequest::Spawn { mut spec, reply } => {
                let mut env = self.default_env.clone();
                for (key, value) in spec.env {
                    env.retain(|(existing, _)| *existing != key);
                    env.push((key, value));
                }
                spec.env = env;
                let _ = reply.send(self.spawn_process(*spec));
            }
            HostRequest::Kill { pid, signal, reply } => {
                let result = self.send_signal(pid, signal);
                let _ = reply.send(result);
            }
            HostRequest::SignalForeground { signal, reply } => {
                let result = self.signal_foreground(signal);
                let _ = reply.send(result);
            }
            HostRequest::WatchExit { pid, reply } => {
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.watchers.push(reply);
                } else {
                    // An exited child's record, if its parent is here; else
                    // (unknown, reaped, or its record elsewhere) a generic
                    // failure status, so callers do not hang.
                    let status = self
                        .exit_records()
                        .find_map(|(child, status)| (child == pid).then_some(status));
                    let _ = reply.send(status.unwrap_or(encode_wait_status(Some(127), None)));
                }
            }
            HostRequest::HttpRequest { port, request, reply } => {
                self.host_http_request(port, request, reply);
            }
            HostRequest::SubscribePortListen { listener } => {
                self.router.subscribe_port_listen(listener);
            }
            HostRequest::ListeningPorts { reply } => {
                let _ = reply.send(self.router.claimed_ports());
            }
            HostRequest::ReadStats { reply } => {
                // Raw per-shard snapshot: the host merges all shards and then
                // attaches the (shared) VFS cache counters exactly once.
                let mut snapshot = self.stats.clone();
                self.syscall_tally.fold_into(&mut snapshot);
                let _ = reply.send(snapshot);
            }
            HostRequest::ReadResources { reply } => {
                let _ = reply.send(crate::hostapi::ResourceCounts {
                    tasks: self.tasks.len() + self.exit_records().count(),
                    streams: self.streams.len(),
                    waiters: self.waiters.len(),
                });
            }
            HostRequest::ListTasks { reply } => {
                let mut tasks: Vec<(Pid, Pid, String, String)> = self
                    .tasks
                    .values()
                    .map(|t| {
                        let state = match t.state {
                            TaskState::Running => "running".to_owned(),
                            TaskState::Stopped { .. } => "stopped".to_owned(),
                        };
                        (t.pid, self.router.live_parent(t.ppid), t.name.clone(), state)
                    })
                    .collect();
                tasks.sort_by_key(|(pid, ..)| *pid);
                let _ = reply.send(tasks);
            }
        }
    }

    // ---- process lifecycle -----------------------------------------------------

    /// Starts the process `spec` describes, returning its pid: the one way
    /// a process is created, for the host API, `spawn` and `fork` alike.
    ///
    /// Resolves the launcher (a fork brings its parent's) and prepends a
    /// shebang's interpreter args.  Placement: forks stay on the parent's
    /// shard (the copied descriptor table and COW image stay local);
    /// everything else round-robins across shards via the router,
    /// deterministically in spawn order.  The process is registered in its
    /// group, and that group made the terminal's foreground group if the
    /// spec asks, before anything can see it run.  The spec then moves,
    /// whole, into the task: here, or on the shard it was placed on by
    /// [`ShardMsg::SpawnTask`], while this shard pins the child's
    /// descriptions until that shard acks.  Either way the pid returns at
    /// once, before the process's worker has run.
    pub(crate) fn spawn_process(&mut self, mut spec: TaskSpec) -> Result<Pid, Errno> {
        if spec.launcher.is_none() {
            let resolved = resolve_executable(self.fs.as_ref(), &self.registry, &spec.path)?;
            if !resolved.prepend_args.is_empty() {
                let args = std::mem::take(&mut spec.args);
                spec.args = resolved.prepend_args;
                spec.args.extend(args.into_iter().skip(1));
            }
            spec.launcher = Some(resolved.launcher);
        }

        let target = if spec.fork_image.is_some() {
            self.shard_id
        } else {
            self.router.place_spawn()
        };
        let ppid = spec.ppid;
        let pid = self.router.allocate_pid(target);
        let zombie_leader = spec.pgroup.is_some_and(|group| self.is_child(ppid, group));
        let pgid = self
            .router
            .register_process(pid, target, ppid, spec.pgroup, zombie_leader)?;
        if spec.foreground {
            self.router.set_foreground_pgid(Some(pgid));
        }

        if target == self.shard_id {
            self.install_task(pid, spec);
        } else {
            let token = self.next_remote_token();
            // The child gets handles of its own on its descriptions (an
            // `Arc<OpenFile>` never spans shards), made before the message
            // leaves: a copy still held here while the child ran and exited
            // there would keep its release from counting a stream end off.
            // This shard's references stay pinned until the owner has
            // counted those handles and acks, so the streams behind them
            // never look unreferenced in between.
            let exported = spec.files.export();
            self.pinned_files.insert(token, spec.files.clear());
            spec.files = exported;
            let origin = self.shard_id;
            self.send_shard(
                target,
                ShardMsg::SpawnTask {
                    token,
                    origin,
                    pid,
                    spec: Box::new(spec),
                },
            );
        }
        if let Some(parent) = self.tasks.get_mut(&ppid) {
            parent.children.push((pid, None));
        }
        Ok(pid)
    }

    /// Installs a task on this shard from its spec, whose launcher is
    /// resolved: task-table entry, worker (on a pooled thread) and init
    /// message.  The descriptor table's references are already counted
    /// (shared with the parent, or adopted from another shard); the caller
    /// pushes the child onto its parent's `children` (the parent may live on
    /// another shard).
    fn install_task(&mut self, pid: Pid, mut spec: TaskSpec) {
        let fork_image = spec.fork_image.take();
        let mut task = Task::new(pid, spec);

        // Init message: argument vector, environment, cwd and (for fork) the
        // guest memory snapshot.
        let env_msgs: Vec<Message> = task
            .env
            .iter()
            .map(|(k, v)| Message::Array(vec![Message::from(k.as_str()), Message::from(v.as_str())]))
            .collect();
        let mut init = Message::map()
            .with("type", "init")
            .with("args", Message::from(task.args.clone()))
            .with("env", Message::Array(env_msgs))
            .with("cwd", task.cwd.as_str());
        if let Some(image) = fork_image {
            init = init
                .with("fork_image", image.image)
                .with("fork_resume", image.resume_point as i64);
        }

        // The worker script: hand the scope and kernel channel to the
        // launcher, which will wait for the init message before running
        // main.  The channel is *this shard's* queue, so every syscall and
        // doorbell of the process lands on its owning shard directly.
        let kernel_tx = self.events_tx.clone();
        let config = self.config.clone();
        let launcher = Arc::clone(&task.launcher);
        task.worker = Some(self.workers.spawn(
            &self.config,
            &format!("pid{pid}-{}", task.name),
            Box::new(move |scope: WorkerScope| {
                let ctx = LaunchContext {
                    pid,
                    config,
                    kernel: kernel_tx,
                    scope,
                };
                launcher.launch(ctx);
            }),
        ));
        self.tasks.insert(pid, Box::new(task));
        self.stats.processes_spawned += 1;
        self.post_to_worker(pid, init, Vec::new());
    }

    /// Ends a process.  Its task leaves the table first, so nothing that
    /// runs during the teardown (a signal, a wake, a peer's message) can find
    /// it.  The teardown works on the removed value: worker, address space,
    /// parked calls and descriptors; its children's records go with it.  The
    /// wait status becomes the parent's record of this child
    /// ([`KernelState::tell_parent`]) and, last, goes to host watchers.
    pub(crate) fn finish_task(&mut self, pid: Pid, status: i32) {
        let Some(mut task) = self.tasks.remove(&pid) else {
            return;
        };
        task.terminate_worker();
        // COW pages shared with live siblings survive (their Arc count stays
        // positive); sole-owner pages are freed, and the scavenger feature
        // asserts both directions.
        task.address_space.release();
        self.stats.processes_exited += 1;
        // A finished pid disappears from the router registry: signals and
        // getpgid from any shard now report ESRCH, and its children's
        // getppid 0.
        self.router.remove_process(pid);

        // The dead process's own blocked system calls have nobody left to
        // receive their completions: drop them before any wakeups run.
        self.drop_waiters_of(pid);

        // Let go of the descriptor table: each description this process held
        // the last reference to closes its stream endpoints and wakes exactly
        // the EOF/EPIPE waiters that affects.  The parent's exit record comes
        // first, so a parent that read its child's output to EOF can reap it:
        // a parent on another shard is sent it ahead of the endpoint changes;
        // one here has it written after them, in this same step, so the
        // readers they wake run before its `wait4` (fewer parks for a shell
        // waiting on its pipeline's stages in turn).
        let ppid = task.ppid;
        let exited = Some(ChildReport::Exited(status));
        let local_parent = shard::shard_of(ppid, self.nshards) == self.shard_id;
        if !local_parent {
            self.tell_parent(pid, ppid, exited);
        }
        for file in task.files.clear() {
            self.release_file(file);
        }
        if local_parent {
            self.tell_parent(pid, ppid, exited);
        }

        // Wake host watchers last: a host that sees the exit finds every
        // listener the process held the last reference to already closed.
        for watcher in task.watchers {
            let _ = watcher.send(status);
        }
    }

    /// Tells task `pid`'s parent that it exited or stopped (`report`), or
    /// continued (`None`): a [`ShardMsg::ChildChanged`], handled here when
    /// the parent lives on this shard and sent to its shard otherwise — one
    /// path at every shard count.  Host-started processes (`ppid` 0) have
    /// nobody to tell.
    fn tell_parent(&mut self, pid: Pid, ppid: Pid, report: Option<ChildReport>) {
        if ppid == 0 {
            return;
        }
        let msg = ShardMsg::ChildChanged { pid, ppid, report };
        let shard = shard::shard_of(ppid, self.nshards);
        if shard == self.shard_id {
            self.handle_shard_msg(msg);
        } else if self.router.process_shard(ppid).is_some() {
            self.send_shard(shard, msg);
        }
    }

    /// Sends `signal` to `target`: the single entry point for every signal
    /// in the system — `kill(2)` from processes, the host API, kernel-raised
    /// SIGPIPE/SIGCHLD/SIGTTIN, and terminal job control all arrive here.
    ///
    /// A signal blocked by the target's `sigprocmask` parks in its pending
    /// set and is dispatched (exactly once) when unblocked; everything else
    /// dispatches immediately.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if the target does not exist or has already exited.
    pub(crate) fn send_signal(&mut self, target: Pid, signal: Signal) -> Result<(), Errno> {
        let Some(task) = self.tasks.get_mut(&target) else {
            return Err(Errno::ESRCH);
        };
        self.stats.signals_sent += 1;
        // Stop signals and SIGCONT discard each other from the pending set.
        let mut resumes = false;
        match signal.default_disposition() {
            SignalDisposition::Stop => task.signals.discard_pending_continue(),
            SignalDisposition::Continue => {
                task.signals.discard_pending_stops();
                resumes = true;
            }
            _ => {}
        }
        let admitted = task.signals.admit(signal);
        if resumes {
            // SIGCONT resumes a stopped process even when blocked, ignored
            // or caught (POSIX); only its *delivery* to a handler obeys the
            // mask and disposition.  Without this, a stopped job that had
            // blocked SIGCONT could never be resumed — not even to unblock.
            self.continue_task(target);
        }
        if !admitted {
            // Blocked: parked in the pending set, delivered on unblock.
            return Ok(());
        }
        self.dispatch_signal(target, signal);
        Ok(())
    }

    /// Sends `signal` to every live member of process group `pgid`, in pid
    /// order.  The router's registry says who they are; members on other
    /// shards get the signal by message.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if the group has no live members.
    pub(crate) fn signal_pgroup(&mut self, pgid: Pid, signal: Signal) -> Result<(), Errno> {
        let members = self.router.group_members(pgid);
        if members.is_empty() {
            return Err(Errno::ESRCH);
        }
        for (pid, shard) in members {
            if shard == self.shard_id {
                let _ = self.send_signal(pid, signal);
            } else {
                self.send_shard(
                    shard,
                    ShardMsg::SignalPid {
                        pid,
                        signal,
                        reply: None,
                    },
                );
            }
        }
        Ok(())
    }

    /// Sends `signal` to the foreground process group of the controlling
    /// terminal (what `Ctrl-C`/`Ctrl-Z` do).
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if no foreground group is set or it has no members.
    pub(crate) fn signal_foreground(&mut self, signal: Signal) -> Result<(), Errno> {
        match self.router.foreground_pgid() {
            Some(pgid) => self.signal_pgroup(pgid, signal),
            None => Err(Errno::ESRCH),
        }
    }

    /// Applies an unblocked (or never-blocked) signal to its target: runs the
    /// installed handler's delivery, or the default disposition.
    pub(crate) fn dispatch_signal(&mut self, target: Pid, signal: Signal) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        match task.signals.action(signal) {
            SigAction::Ignore => return,
            SigAction::Handler { restart } => {
                self.stats.signals_delivered += 1;
                // A caught SIGCONT still resumes a stopped process before the
                // handler observes it, as on Linux.
                if signal == Signal::SIGCONT {
                    self.continue_task(target);
                }
                let msg = Message::map()
                    .with("type", "signal")
                    .with("signal", signal.number() as i64)
                    .with("name", signal.name());
                self.post_to_worker(target, msg, Vec::new());
                if !restart {
                    // The handler interrupts the process's blocked system
                    // calls with EINTR; SA_RESTART leaves them parked, which
                    // is this kernel's restart.
                    self.interrupt_waiters_of(target);
                    // A signal that should interrupt a parked waiter must
                    // never leave one parked.
                    #[cfg(feature = "scavenger")]
                    debug_assert_eq!(
                        self.waiters.iter().filter(|w| w.pid == target).count(),
                        0,
                        "signal delivery left a waiter of pid {target} parked without SA_RESTART"
                    );
                }
                return;
            }
            SigAction::Default => {}
        }
        match signal.default_disposition() {
            SignalDisposition::Ignore => {}
            SignalDisposition::Terminate => {
                self.stats.signals_delivered += 1;
                self.finish_task(target, encode_wait_status(None, Some(signal)));
            }
            SignalDisposition::Stop => {
                self.stats.signals_delivered += 1;
                self.stop_task(target, signal);
            }
            SignalDisposition::Continue => {
                self.stats.signals_delivered += 1;
                self.continue_task(target);
            }
        }
    }

    /// Completes every blocked system call of `target` with `EINTR` (the
    /// wait-queue side of signal delivery).  Kernel-internal HTTP clients
    /// run as pid 0 and are never signalled, so they cannot match.
    pub(crate) fn interrupt_waiters_of(&mut self, target: Pid) {
        debug_assert_ne!(target, 0, "pid 0 is reserved for kernel-internal waiters");
        for waiter in self.waiters.take_matching(|w| w.pid == target) {
            self.stats.eintr_wakeups += 1;
            if let Some(reply) = waiter.reply {
                self.complete(target, reply, SysResult::Err(Errno::EINTR));
            }
            self.discard_waiter(waiter);
        }
        // Reads/writes executing on foreign shards take EINTR too: cancel
        // at the owner (a racing completion finds no token and is dropped)
        // and complete here.  Connects are exempt — their reply installs
        // the connection, and abandoning it would leak the server-side
        // streams the owner already created — and so are kills, whose
        // signal is sent whatever the caller does.
        for op in self.cancel_remote_ops(target, false) {
            self.stats.eintr_wakeups += 1;
            self.complete(op.pid, op.reply, SysResult::Err(Errno::EINTR));
        }
    }

    /// Suspends a running task (default disposition of the stop signals):
    /// the parent gets SIGCHLD and its `WUNTRACED` waiters wake.
    fn stop_task(&mut self, target: Pid, signal: Signal) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        if !task.is_running() {
            return;
        }
        task.state = TaskState::Stopped { signal };
        let ppid = task.ppid;
        self.tell_parent(target, ppid, Some(ChildReport::Stopped(signal)));
    }

    /// Resumes a stopped task (SIGCONT): replays the system-call frames
    /// stashed while it was suspended, in arrival order, and drains the ring
    /// submissions that were left queued.
    fn continue_task(&mut self, target: Pid) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        if !task.is_stopped() {
            return;
        }
        task.state = TaskState::Running;
        let ppid = task.ppid;
        let stashed = std::mem::take(&mut task.stashed_frames);
        // The parent's not-yet-reported stop record is withdrawn.
        self.tell_parent(target, ppid, None);
        for (seq, payload, transfers) in stashed {
            self.handle_syscall(target, seq, payload, transfers);
        }
        self.drain_ring(target);
    }

    // ---- shared helpers --------------------------------------------------------

    /// Whether `pid` names a live task that is not stopped.
    fn task_running(&self, pid: Pid) -> bool {
        self.tasks.get(&pid).is_some_and(|t| t.is_running())
    }

    pub(crate) fn task(&self, pid: Pid) -> Result<&Task, Errno> {
        self.tasks.get(&pid).map(|t| &**t).ok_or(Errno::ESRCH)
    }

    pub(crate) fn task_mut(&mut self, pid: Pid) -> Result<&mut Task, Errno> {
        self.tasks.get_mut(&pid).map(|t| &mut **t).ok_or(Errno::ESRCH)
    }

    /// The description behind `pid`'s descriptor `fd`: `ESRCH` for an
    /// unknown process, `EBADF` for a descriptor that is not open.
    pub(crate) fn file(&self, pid: Pid, fd: Fd) -> Result<Arc<OpenFile>, Errno> {
        self.task(pid)?.files.get(fd)
    }

    /// Resolves a path relative to a task's working directory.
    pub(crate) fn resolve_path(&self, pid: Pid, path: &str) -> String {
        let cwd = self.tasks.get(&pid).map(|t| t.cwd.as_str()).unwrap_or("/");
        browsix_fs::path::resolve(cwd, path)
    }
}

include!(concat!(env!("OUT_DIR"), "/dispatch_gen.rs"));
