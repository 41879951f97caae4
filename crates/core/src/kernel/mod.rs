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
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use browsix_browser::{BlobRegistry, Message, PlatformConfig, Worker, WorkerScope};
use browsix_fs::{Errno, MountedFs};

use crate::events::{HostRequest, KernelEvent, OutputSink};
use crate::exec::{resolve_executable, ExecutableRegistry, ForkImage, LaunchContext, ProgramLauncher};
use crate::fd::{Fd, FileKind, OpenFile};
use crate::ring::{Ring, RingGeometry};
use crate::signals::{SigAction, Signal, SignalDisposition};
use crate::socket::{SocketTable, StreamPair};
use crate::stats::{KernelStats, SyscallTally};
use crate::streams::{Stream, StreamId, StreamState, StreamTable};
use crate::syscall::{encode_wait_status, Completion, CompletionBatch, SysResult, Syscall, SyscallBatch};
use crate::task::{InflightBatch, Pid, Task, TaskState};
use crate::wire::Reader;

pub(crate) use shard::{PendingRemote, RouterState, ShardMsg};
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
    blobs: BlobRegistry,
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
    /// Channels whose wakeup is queued while another wake is draining.
    wake_queue: VecDeque<WaitChannel>,
    /// Re-entrancy guard for [`KernelState::wake`].
    waking: bool,
    /// `(deadline, waiter)` pairs for parked `poll`s with timeouts.
    poll_deadlines: Vec<(Instant, WaiterId)>,
    http_clients: Vec<HttpClientState>,

    /// Monotonic token counter for cross-shard operations this shard
    /// submits.  Every shard counts from 1, so a token names an operation
    /// only together with the shard that minted it.
    next_remote_token: u64,
    /// Syscalls executing on a foreign shard, keyed by token.
    remote_ops: HashMap<u64, PendingRemote>,
    /// Wait statuses of exited children that lived on foreign shards (the
    /// cross-shard form of a zombie, shipped here for this shard's wait4).
    remote_zombies: HashMap<Pid, i32>,
    /// Stop signals of remotely-stopped children not yet reported by a
    /// `WUNTRACED` wait.
    remote_stops: HashMap<Pid, Signal>,
    /// `(readers, writers)` references this shard holds on streams owned by
    /// other shards; each change is reported to the owner, per stream.
    foreign_endpoints: HashMap<StreamId, (u32, u32)>,
    /// The latest tally each peer shard reported for a stream this shard
    /// owns (already folded into that stream's counts).
    remote_contribs: HashMap<(usize, StreamId), (u32, u32)>,
    /// Latest states of foreign streams local `poll`s watch, as their
    /// owners last reported them.
    remote_stream_states: HashMap<StreamId, StreamState>,
    /// Client sides of connections created by a remote `connect`: this shard
    /// holds each until the connecting shard has counted its descriptor.
    remote_client_pins: HashSet<StreamPair>,
    /// stdio of in-flight cross-shard spawns: references kept (and released
    /// like any other) until the owning shard acks the task exists.
    pinned_files: HashMap<u64, Vec<Arc<OpenFile>>>,

    exit_watchers: HashMap<Pid, Vec<Sender<i32>>>,
    exit_records: HashMap<Pid, i32>,

    /// Tasks whose completion queue received entries while the current event
    /// was being handled and that have not been notified since: each is
    /// notified once, by the drain of its own ring as that parks, or else
    /// when the event is done ([`KernelState::notify_rings`]).
    cq_unnotified: Vec<Pid>,

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
            blobs: BlobRegistry::new(),
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
            waking: false,
            poll_deadlines: Vec::new(),
            http_clients: Vec::new(),
            next_remote_token: 1,
            remote_ops: HashMap::new(),
            remote_zombies: HashMap::new(),
            remote_stops: HashMap::new(),
            foreign_endpoints: HashMap::new(),
            remote_contribs: HashMap::new(),
            remote_stream_states: HashMap::new(),
            remote_client_pins: HashSet::new(),
            pinned_files: HashMap::new(),
            exit_watchers: HashMap::new(),
            exit_records: HashMap::new(),
            cq_unnotified: Vec::new(),
            stats: KernelStats::default(),
            syscall_tally: SyscallTally::default(),
        }
    }

    /// The kernel's main loop: process events until shutdown.
    ///
    /// Every state change wakes exactly the wait queues it affects as part
    /// of handling the event, and ring submissions arrive as doorbell
    /// events, so the loop itself does no retry work.  Two timer-driven
    /// duties remain: expiring `poll` deadlines, which bound the sleep, and
    /// — only when the queue stayed empty for a whole tick (at most 20 ms) —
    /// a backstop drain of every mapped ring, which bounds the cost of a
    /// doorbell that was lost rather than letting it hang a process.
    pub(crate) fn run(mut self, events: Receiver<KernelEvent>) {
        loop {
            let timeout = self
                .next_poll_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(20))
                .min(Duration::from_millis(20));
            match events.recv_timeout(timeout) {
                Ok(KernelEvent::Shutdown) => break,
                Ok(event) => self.handle_one(Some(event)),
                Err(RecvTimeoutError::Timeout) => self.handle_one(None),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Terminate every remaining worker so their threads exit.
        for task in self.tasks.values_mut() {
            if let Some(worker) = task.worker.take() {
                worker.terminate();
            }
        }
    }

    /// One turn of the event loop, with or without a thread around it:
    /// handles `event` — `None` is the idle tick, which sweeps the rings
    /// once — expires due `poll` deadlines, and then wakes every process
    /// whose completion queue any of that filled, once each.
    pub(crate) fn handle_one(&mut self, event: Option<KernelEvent>) {
        match event {
            Some(event) => self.handle_event(event),
            None => self.drain_rings(),
        }
        self.expire_poll_deadlines();
        self.notify_rings();
        // With the `scavenger` feature, prove after every event that the
        // wait queues lost no wakeup (retrying every parked waiter must
        // complete none), that no submission sits undrained, that the
        // endpoint counts equal a from-scratch recount, and that no ring
        // holds a completion published since it was last notified.
        #[cfg(feature = "scavenger")]
        {
            self.scavenge();
            self.scavenge_rings();
            self.audit_endpoints();
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
            KernelEvent::RegisterSyncHeap { pid, sab } => {
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.sync_heap = Some(sab);
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

    /// This shard's index.
    pub(crate) fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// The number of shards in the fleet.
    pub(crate) fn nshards(&self) -> usize {
        self.nshards
    }

    // ---- syscall rings -------------------------------------------------------

    /// Registers a persistent ring pair for `pid`, validating the geometry
    /// against the shared heap the task registered earlier.  A task maps one
    /// ring, once, whichever transport brings a second request.
    fn sys_ring_setup(&mut self, pid: Pid, geo: RingGeometry) -> Outcome {
        let Some(task) = self.tasks.get_mut(&pid) else {
            return Outcome::Complete(SysResult::Err(Errno::ESRCH));
        };
        if task.ring.is_some() {
            return Outcome::Complete(SysResult::Err(Errno::EEXIST));
        }
        let Some(heap) = task.sync_heap.as_ref() else {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        };
        if !geo.validate(heap.len()) {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        let ring = Ring::new(heap.clone(), geo);
        // The queue starts out parked: the very first submission must ring
        // the doorbell, because nothing else will look at this ring.
        ring.set_need_wakeup();
        task.ring = Some(ring);
        Outcome::Complete(SysResult::Ok)
    }

    /// The running tasks that have a ring mapped.
    fn ring_tasks(&self) -> impl Iterator<Item = &Task> + '_ {
        self.tasks
            .values()
            .map(|t| &**t)
            .filter(|t| t.is_running() && t.ring.is_some())
    }

    /// The idle-tick backstop that bounds a lost doorbell to one tick:
    /// drains every running task's ring that holds submissions, or owes
    /// completions that overflowed.  On an idle tick that is almost always
    /// none of them, and collecting none allocates nothing.
    fn drain_rings(&mut self) {
        let backlog = |t: &&Task| !t.pending_cqes.is_empty() || t.ring.as_ref().is_some_and(|ring| !ring.sq_is_empty());
        let pids: Vec<Pid> = self.ring_tasks().filter(backlog).map(|t| t.pid).collect();
        for pid in pids {
            self.drain_ring(pid);
        }
    }

    /// Drains one task's submission queue dry, dispatching each entry and
    /// posting its completion (or parking a waiter) as it goes, then
    /// notifies the task of those completions, once, and parks the queue by
    /// setting `NEED_WAKEUP`.
    ///
    /// The park re-checks for entries that raced in after the flag was set:
    /// their submitter saw the flag still clear and suppressed its doorbell,
    /// so they must be consumed by this pass — this loop is what guarantees
    /// a non-empty queue never goes undrained.
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
                crate::abi::cap_ring_read(&mut call, ring.geometry().max_read_bytes());
                self.syscall_tally.record_syscall(&call, true);
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.syscall_count += 1;
                }
                let reply = ReplyTo::Ring { user_data };
                match self.dispatch(pid, reply, call) {
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
            ring.set_need_wakeup();
            if ring.sq_is_empty() {
                break;
            }
            ring.clear_need_wakeup();
        }
    }

    /// Scavenger-mode enforcement that a non-empty submission queue never
    /// goes undrained: re-drain every ring until it is observed empty.
    ///
    /// An entry visible here either has its doorbell still in flight
    /// (consuming it early is harmless) or would have waited for the idle
    /// tick; the loop guarantees neither survives to the next sleep, so the
    /// scavenger suite never depends on the tick.  No flag/emptiness
    /// assertion is made against shared state: submitters publish entries
    /// and consult the doorbell flag in two separate steps, so a transient
    /// "non-empty with `NEED_WAKEUP` set" is legal mid-publish.  The strict
    /// single-threaded invariant (a drained queue is empty with the flag
    /// set) is asserted by the deterministic ring model property test.
    #[cfg(feature = "scavenger")]
    fn scavenge_rings(&mut self) {
        let pids: Vec<Pid> = self.ring_tasks().map(|t| t.pid).collect();
        for pid in pids {
            while self.task_running(pid) && self.tasks[&pid].ring.as_ref().is_some_and(|ring| !ring.sq_is_empty()) {
                self.drain_ring(pid);
            }
        }
        // What those drains completed belongs to no event: notify it here.
        self.notify_rings();
    }

    /// Posts one ring completion.  It queues behind any that overflowed
    /// earlier — the completion queue was full, or no registered buffer was
    /// free — so completions reach the process in the order they were made,
    /// and stays in the task's overflow queue itself if it cannot go now.
    fn post_ring_completion(&mut self, pid: Pid, user_data: u32, result: SysResult) {
        self.flush_pending_cqes(pid, Some((user_data, result)));
    }

    /// Publishes the task's queued completions, `newest` last, in FIFO order
    /// until one does not fit, and remembers that its ring is owed a notify.
    fn flush_pending_cqes(&mut self, pid: Pid, newest: Option<(u32, SysResult)>) {
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        task.pending_cqes.extend(newest);
        let Some(ring) = &task.ring else { return };
        let mut posted = 0;
        while let Some((user_data, result)) = task.pending_cqes.pop_front() {
            if let Err(result) = Self::try_post_cqe(ring, user_data, result) {
                task.pending_cqes.push_front((user_data, result));
                break;
            }
            posted += 1;
        }
        if posted > 0 {
            self.stats.cq_posted += posted;
            if !self.cq_unnotified.contains(&pid) {
                self.cq_unnotified.push(pid);
            }
        }
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

    /// Encodes one result into a completion-queue entry and publishes it.
    ///
    /// Bulk `Data` results that exceed a slot but fit one registered buffer
    /// travel raw: the bytes go into a free buffer and the entry carries a
    /// 12-byte [`SysResult::DataFixed`] reference.  Anything else too large
    /// for a slot is spilled by [`Ring::push_cqe`] — or, if not even the
    /// whole buffer table could hold it, completes with `EOVERFLOW`.
    ///
    /// # Errors
    ///
    /// Returns the result back when it cannot be posted right now (queue
    /// full, or the registered buffers it needs are not free); the caller
    /// keeps it in the task's overflow queue.
    fn try_post_cqe(ring: &Ring, user_data: u32, result: SysResult) -> Result<(), SysResult> {
        if ring.cq_space() == 0 {
            return Err(result);
        }
        let geo = ring.geometry();
        let mut frame = Vec::with_capacity(16);
        result.encode_into(&mut frame);
        let mut fixed_buf = None;
        if frame.len() > geo.slot_payload_bytes() {
            match &result {
                SysResult::Data(data) if data.len() <= geo.buf_bytes as usize => {
                    let Some(buf) = ring.alloc_buf() else {
                        return Err(result);
                    };
                    ring.write_buf(buf, data);
                    frame.clear();
                    SysResult::DataFixed {
                        buf,
                        len: data.len() as u32,
                    }
                    .encode_into(&mut frame);
                    fixed_buf = Some(buf);
                }
                _ if frame.len() > geo.max_spill_bytes() => {
                    frame.clear();
                    SysResult::Err(Errno::EOVERFLOW).encode_into(&mut frame);
                }
                _ => {}
            }
        }
        if ring.push_cqe(user_data, &frame) {
            Ok(())
        } else {
            if let Some(buf) = fixed_buf {
                ring.free_buf(buf);
            }
            Err(result)
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
            if !self.tasks.get(&pid).is_some_and(|t| t.is_alive()) {
                return;
            }
            self.syscall_tally.record_syscall(&call, false);
            if let Some(task) = self.tasks.get_mut(&pid) {
                task.syscall_count += 1;
            }
            let reply = ReplyTo::Batch { index: index as u32 };
            match self.dispatch(pid, reply, call) {
                Outcome::Complete(result) => self.record_completion(pid, reply, result),
                // Blocked entries peel off into the pending list and complete
                // individually; `exit` consumes the rest of the batch.
                Outcome::Blocked => {}
                Outcome::NoReply => return,
            }
        }
        self.maybe_deliver_batch(pid);
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
            HostRequest::Spawn {
                path,
                args,
                env,
                cwd,
                stdout,
                stderr,
                reply,
            } => {
                let result = self.host_spawn(&path, args, env, &cwd, stdout, stderr);
                let _ = reply.send(result);
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
                if let Some(&status) = self.exit_records.get(&pid) {
                    let _ = reply.send(status);
                } else if self.tasks.get(&pid).map(|t| t.wait_status()).unwrap_or(None).is_some() {
                    let status = self.tasks[&pid].wait_status().unwrap_or(0);
                    let _ = reply.send(status);
                } else if self.tasks.contains_key(&pid) {
                    self.exit_watchers.entry(pid).or_default().push(reply);
                } else {
                    // Unknown pid: report a generic failure status so callers
                    // do not hang.
                    let _ = reply.send(encode_wait_status(Some(127), None));
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
                    tasks: self.tasks.len(),
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
                            TaskState::Zombie { .. } => "zombie".to_owned(),
                        };
                        (t.pid, t.ppid, t.name.clone(), state)
                    })
                    .collect();
                tasks.sort_by_key(|(pid, ..)| *pid);
                let _ = reply.send(tasks);
            }
        }
    }

    fn host_spawn(
        &mut self,
        path: &str,
        args: Vec<String>,
        env: Vec<(String, String)>,
        cwd: &str,
        stdout: OutputSink,
        stderr: OutputSink,
    ) -> Result<Pid, Errno> {
        let stdout_fd = OpenFile::new(FileKind::HostSink { sink: stdout });
        let stderr_fd = OpenFile::new(FileKind::HostSink { sink: stderr });
        // Host-started processes read from the controlling terminal, which
        // is what routes SIGTTIN to background readers.
        let stdin = OpenFile::new(FileKind::Tty);
        let mut merged_env = self.default_env.clone();
        for (k, v) in env {
            merged_env.retain(|(existing, _)| existing != &k);
            merged_env.push((k, v));
        }
        self.spawn_process(
            0,
            path,
            args,
            merged_env,
            cwd,
            [stdin, stdout_fd, stderr_fd],
            None,
            None,
        )
    }

    // ---- process lifecycle -----------------------------------------------------

    /// Creates a task and its worker, returning the new pid.
    ///
    /// Placement: forks stay on the parent's shard (the copied descriptor
    /// table and COW image stay local); everything else round-robins across
    /// shards via the router, deterministically in spawn order.  A
    /// cross-shard spawn resolves the executable here (the mount table is
    /// shared), pre-allocates the pid, pins the stdio descriptors until the
    /// owner acks, and returns the pid immediately — exactly like a local
    /// spawn, whose worker also has not run yet when `spawn` returns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn_process(
        &mut self,
        ppid: Pid,
        path: &str,
        mut args: Vec<String>,
        env: Vec<(String, String)>,
        cwd: &str,
        stdio: [Arc<OpenFile>; 3],
        fork_image: Option<ForkImage>,
        forced_launcher: Option<Arc<dyn ProgramLauncher>>,
    ) -> Result<Pid, Errno> {
        let keep_local = fork_image.is_some() || forced_launcher.is_some();
        let (launcher, file_bytes) = match forced_launcher {
            Some(launcher) => (launcher, None),
            None => {
                let resolved = resolve_executable(self.fs.as_ref(), &self.registry, path)?;
                if !resolved.prepend_args.is_empty() {
                    let mut new_args = resolved.prepend_args.clone();
                    new_args.extend(args.into_iter().skip(1));
                    args = new_args;
                }
                (resolved.launcher, resolved.file_bytes)
            }
        };

        let target = if keep_local || self.nshards == 1 {
            self.shard_id
        } else {
            self.router.place_spawn()
        };
        let pid = self.router.allocate_pid(target);
        // Children join their parent's process group; host-started processes
        // lead a fresh group of their own.
        let pgid = self.tasks.get(&ppid).map(|p| p.pgid).unwrap_or(pid);
        self.router.register_process(pid, target, pgid);
        let name = browsix_fs::path::basename(path);

        if target == self.shard_id {
            let blob_url = file_bytes.map(|bytes| self.blobs.create_url(bytes));
            self.install_task(
                pid, ppid, pgid, &name, path, cwd, args, env, stdio, blob_url, fork_image, launcher,
            );
        } else {
            let token = self.next_remote_token();
            // The child gets handles of its own on the stdio descriptions
            // (an `Arc<OpenFile>` never spans shards), one per distinct
            // description.  This shard's references stay pinned until the
            // owner has counted those handles and acks, so the streams behind
            // them never look unreferenced in between.
            let mut exported: Vec<Arc<OpenFile>> = Vec::with_capacity(stdio.len());
            for (i, file) in stdio.iter().enumerate() {
                let handle = match stdio[..i].iter().position(|earlier| Arc::ptr_eq(earlier, file)) {
                    Some(earlier) => Arc::clone(&exported[earlier]),
                    None => file.export(),
                };
                exported.push(handle);
            }
            self.pinned_files.insert(token, stdio.into());
            self.send_shard(
                target,
                ShardMsg::SpawnTask {
                    token,
                    origin: self.shard_id,
                    pid,
                    ppid,
                    pgid,
                    name,
                    path: path.to_owned(),
                    cwd: cwd.to_owned(),
                    args,
                    env,
                    launcher,
                    file_bytes,
                    stdio: exported.try_into().expect("one handle per stdio slot"),
                },
            );
        }
        if let Some(parent) = self.tasks.get_mut(&ppid) {
            parent.children.push(pid);
        }
        Ok(pid)
    }

    /// Installs a fully-resolved task on this shard: task-table entry,
    /// worker thread and init message.  The stdio references are already
    /// counted (shared with the parent, or adopted from another shard); the
    /// caller pushes the child onto its parent's `children` (the parent may
    /// live on another shard).
    #[allow(clippy::too_many_arguments)]
    fn install_task(
        &mut self,
        pid: Pid,
        ppid: Pid,
        pgid: Pid,
        name: &str,
        path: &str,
        cwd: &str,
        args: Vec<String>,
        env: Vec<(String, String)>,
        stdio: [Arc<OpenFile>; 3],
        blob_url: Option<String>,
        fork_image: Option<ForkImage>,
        launcher: Arc<dyn ProgramLauncher>,
    ) {
        let mut task = Task::new(pid, ppid, name, path, cwd);
        task.pgid = pgid;
        task.args = args.clone();
        task.env = env.clone();
        task.launcher = Some(Arc::clone(&launcher));
        for (i, file) in stdio.into_iter().enumerate() {
            let displaced = task.files.insert_at(i as Fd, file);
            debug_assert!(displaced.is_none(), "a fresh task has no descriptors");
        }

        // The worker script: hand the scope and kernel channel to the
        // launcher, which will wait for the init message before running
        // main.  The channel is *this shard's* queue, so every syscall and
        // doorbell of the process lands on its owning shard directly.
        let kernel_tx = self.events_tx.clone();
        let config = self.config.clone();
        let launcher_for_worker = Arc::clone(&launcher);
        let worker = Worker::spawn(
            &self.config,
            &format!("pid{pid}-{name}"),
            Box::new(move |scope: WorkerScope| {
                let ctx = LaunchContext {
                    pid,
                    config,
                    kernel: kernel_tx,
                    scope,
                };
                launcher_for_worker.launch(ctx);
            }),
        );
        task.worker = Some(worker);
        self.tasks.insert(pid, Box::new(task));
        self.stats.processes_spawned += 1;

        // Init message: argument vector, environment, cwd, blob URL and (for
        // fork) the guest memory snapshot.
        let env_msgs: Vec<Message> = env
            .iter()
            .map(|(k, v)| Message::Array(vec![Message::from(k.as_str()), Message::from(v.as_str())]))
            .collect();
        let mut init = Message::map()
            .with("type", "init")
            .with("args", Message::from(args))
            .with("env", Message::Array(env_msgs))
            .with("cwd", cwd);
        if let Some(url) = blob_url {
            init = init.with("blob_url", url.as_str());
        }
        if let Some(image) = fork_image {
            init = init
                .with("fork_image", image.image)
                .with("fork_resume", image.resume_point as i64);
        }
        self.post_to_worker(pid, init, Vec::new());
    }

    /// Marks a task as exited: zombie state, worker termination, descriptor
    /// cleanup, SIGCHLD, exit notifications and wait-queue wakeups.
    pub(crate) fn finish_task(&mut self, pid: Pid, status: i32) {
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        if task.is_zombie() {
            return;
        }
        task.state = TaskState::Zombie { status };
        if let Some(worker) = task.worker.take() {
            worker.terminate();
        }
        // The ring dies with the process: nobody is left to consume its
        // completion queue.
        task.ring = None;
        task.pending_cqes.clear();
        let files = task.files.clear();
        // Tear down the address space: COW pages shared with live siblings
        // survive (their Arc count stays positive); sole-owner pages are
        // freed, and the scavenger feature asserts both directions.
        task.address_space.release();
        let ppid = task.ppid;
        let children: Vec<Pid> = task.children.clone();
        self.stats.processes_exited += 1;
        self.exit_records.insert(pid, status);
        // A finished pid disappears from the router registry: signals and
        // getpgid from any shard now report ESRCH, matching the local
        // zombie rules.
        self.router.remove_process(pid);

        // The dead process's own blocked system calls have nobody left to
        // receive their completions: drop them before any wakeups run.
        self.drop_waiters_of(pid);

        // Close any listeners the process owned, waking their accept queues
        // so foreign waiters (dup'd listeners) retry against the closed port.
        let owned_ports: Vec<u16> = self
            .sockets
            .listening_ports()
            .into_iter()
            .filter(|port| self.sockets.listener_owner(*port) == Some(pid))
            .collect();
        for port in owned_ports {
            self.close_listener(port);
        }

        // Reparent children to the kernel (pid 0) and reap any that are
        // already zombies — there is no init process to do it.  Children on
        // other shards get an explicit reparent message; their shipped
        // zombie/stop records die with this parent.
        for child in children {
            if shard::shard_of(child, self.nshards) == self.shard_id {
                if let Some(child_task) = self.tasks.get_mut(&child) {
                    child_task.ppid = 0;
                    if child_task.is_zombie() {
                        self.remove_task(child);
                    }
                }
            } else if self.router.process_shard(child).is_some() {
                self.send_shard(shard::shard_of(child, self.nshards), ShardMsg::Reparent { child });
            }
            self.remote_zombies.remove(&child);
            self.remote_stops.remove(&child);
        }

        // Wake host watchers.
        if let Some(watchers) = self.exit_watchers.remove(&pid) {
            for watcher in watchers {
                let _ = watcher.send(status);
            }
        }

        // Notify the parent.
        let parent_shard = if ppid == 0 {
            None
        } else {
            Some(shard::shard_of(ppid, self.nshards))
        };
        match parent_shard {
            Some(s) if s != self.shard_id => {
                // Remote parent: ship the zombie.  The wait status travels
                // in the message and the parent's shard reaps from its
                // `remote_zombies` table; this shard is done with the task
                // either way (a dead remote parent just drops the record —
                // the exit status survives in `exit_records`).
                self.tasks.remove(&pid);
                self.send_shard(s, ShardMsg::ChildExited { pid, ppid, status });
            }
            Some(_) if self.tasks.contains_key(&ppid) => {
                let _ = self.send_signal(ppid, Signal::SIGCHLD);
            }
            _ => {
                // Host-owned process (or local parent already gone): nobody
                // will call wait4, reap immediately.
                self.tasks.remove(&pid);
            }
        }

        // Let go of the descriptor table: each description this process held
        // the last reference to closes its stream endpoints and wakes exactly
        // the EOF/EPIPE waiters that affects.  A parent blocked in wait4
        // parks on its own ChildOf queue, so only that queue is woken for
        // the exit itself.
        for file in files {
            self.release_file(file);
        }
        if parent_shard == Some(self.shard_id) {
            self.wake(WaitChannel::ChildOf(ppid));
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
        if task.is_zombie() {
            return Err(Errno::ESRCH);
        }
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

    /// Sends `signal` to every live member of process group `pgid`.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if the group has no live members.
    pub(crate) fn signal_pgroup(&mut self, pgid: Pid, signal: Signal) -> Result<(), Errno> {
        if self.nshards == 1 {
            let targets: Vec<Pid> = self
                .tasks
                .values()
                .filter(|t| t.is_alive() && t.pgid == pgid)
                .map(|t| t.pid)
                .collect();
            if targets.is_empty() {
                return Err(Errno::ESRCH);
            }
            for pid in targets {
                let _ = self.send_signal(pid, signal);
            }
            return Ok(());
        }
        // The group may span shards: the router registry (live processes
        // only) is the membership authority; remote members get the signal
        // by message, in deterministic pid order.
        let members = self.router.group_members(pgid);
        if members.is_empty() {
            return Err(Errno::ESRCH);
        }
        for (pid, shard) in members {
            if shard == self.shard_id {
                let _ = self.send_signal(pid, signal);
            } else {
                self.send_shard(shard, ShardMsg::SignalPid { pid, signal });
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

    /// The foreground process group, if one has been set with `tcsetpgrp`.
    /// There is a single controlling terminal for the whole fleet, so the
    /// group lives in the router.
    pub(crate) fn foreground_pgid(&self) -> Option<Pid> {
        self.router.foreground_pgid()
    }

    pub(crate) fn set_foreground_pgid(&mut self, pgid: Option<Pid>) {
        self.router.set_foreground_pgid(pgid);
    }

    /// Applies an unblocked (or never-blocked) signal to its target: runs the
    /// installed handler's delivery, or the default disposition.
    pub(crate) fn dispatch_signal(&mut self, target: Pid, signal: Signal) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        if task.is_zombie() {
            return;
        }
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
                        self.waiters.count_matching(|w| w.pid == target),
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
        }
        // Reads/writes executing on foreign shards take EINTR too: cancel
        // at the owner (a racing completion finds no token and is dropped)
        // and complete here.  Connects are exempt — their reply installs
        // the connection, and abandoning it would leak the server-side
        // streams the owner already created.
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
        task.stop_reported = false;
        let ppid = task.ppid;
        if ppid != 0 && shard::shard_of(ppid, self.nshards) != self.shard_id {
            if self.router.process_shard(ppid).is_some() {
                self.send_shard(
                    shard::shard_of(ppid, self.nshards),
                    ShardMsg::ChildStopped {
                        pid: target,
                        ppid,
                        signal,
                    },
                );
            }
        } else if ppid != 0 && self.tasks.contains_key(&ppid) {
            let _ = self.send_signal(ppid, Signal::SIGCHLD);
            self.wake(WaitChannel::ChildOf(ppid));
        }
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
        task.stop_reported = false;
        let ppid = task.ppid;
        let stashed = std::mem::take(&mut task.stashed_frames);
        // A remote parent's not-yet-reported stop record is withdrawn (the
        // local equivalent is the running state clearing `stop_signal`).
        if ppid != 0
            && shard::shard_of(ppid, self.nshards) != self.shard_id
            && self.router.process_shard(ppid).is_some()
        {
            self.send_shard(
                shard::shard_of(ppid, self.nshards),
                ShardMsg::ChildContinued { pid: target, ppid },
            );
        }
        for (seq, payload, transfers) in stashed {
            self.handle_syscall(target, seq, payload, transfers);
        }
        self.drain_ring(target);
    }

    // ---- shared helpers --------------------------------------------------------

    /// Whether `pid` names a task that is neither stopped nor a zombie.
    fn task_running(&self, pid: Pid) -> bool {
        self.tasks.get(&pid).is_some_and(|t| t.is_running())
    }

    pub(crate) fn task(&self, pid: Pid) -> Result<&Task, Errno> {
        self.tasks.get(&pid).map(|t| &**t).ok_or(Errno::ESRCH)
    }

    pub(crate) fn task_mut(&mut self, pid: Pid) -> Result<&mut Task, Errno> {
        self.tasks.get_mut(&pid).map(|t| &mut **t).ok_or(Errno::ESRCH)
    }

    pub(crate) fn fs(&self) -> &MountedFs {
        self.fs.as_ref()
    }

    pub(crate) fn streams_mut(&mut self) -> &mut StreamTable {
        &mut self.streams
    }

    pub(crate) fn streams(&self) -> &StreamTable {
        &self.streams
    }

    pub(crate) fn sockets_mut(&mut self) -> &mut SocketTable {
        &mut self.sockets
    }

    pub(crate) fn sockets(&self) -> &SocketTable {
        &self.sockets
    }

    pub(crate) fn notify_port_listen(&mut self, port: u16) {
        self.router.notify_port_listen(port);
    }

    /// Resolves a path relative to a task's working directory.
    pub(crate) fn resolve_path(&self, pid: Pid, path: &str) -> String {
        let cwd = self.tasks.get(&pid).map(|t| t.cwd.as_str()).unwrap_or("/");
        browsix_fs::path::resolve(cwd, path)
    }

    /// Removes a reaped zombie from the table, and its exit record with it:
    /// once `wait4` (or the parent's own exit) has consumed the status, the
    /// pid is gone for the host too.  Only processes nobody reaps — the ones
    /// the host started — keep a record for a late `WatchExit`.
    pub(crate) fn remove_task(&mut self, pid: Pid) {
        self.tasks.remove(&pid);
        self.exit_records.remove(&pid);
    }
}

include!(concat!(env!("OUT_DIR"), "/dispatch_gen.rs"));
