//! The worker-side system-call client.
//!
//! This is the "common services" syscall layer of §4.2: a typed API over the
//! browser's message-passing primitives that language runtimes use to talk to
//! the shared kernel.  Calls are issued as [`SyscallBatch`] submissions —
//! [`SyscallClient::submit`] sends a whole batch in one round trip and
//! returns one result per entry; [`SyscallClient::call`] is the one-entry
//! convenience.  The two transports of §3.2 carry the same encoded calls:
//!
//! * **messages** (asynchronous) — the encoded batch is posted to the kernel
//!   inside a structured-clone message; the worker then waits for the single
//!   response message carrying the encoded completion batch.  The clone cost
//!   is paid once per batch instead of once per call, and not at all for
//!   bulk data: a payload of at least `DETACH_MIN_BYTES` travels *beside*
//!   the frame, in the message's transfer list, by move in both directions
//!   (see [`SyscallClient::stage_writes`] for the one copy a write makes).
//!   Every client starts here, and a browser without shared memory stays
//!   here.
//! * **the ring** (synchronous) — at startup the client allocates a
//!   `SharedArrayBuffer` heap and hands it to the kernel, one event with no
//!   reply, which maps the syscall ring ([`browsix_core::ring`]) at its
//!   fixed place in it.  From then on every call — `exit` included — is
//!   written into a submission-queue slot in place, and the worker blocks in
//!   `Atomics.wait` on the completion queue.  Not one message frame is sent.
//!
//! The heap, laid out by [`browsix_core::ring`]; the kernel reads the
//! staging area only at offsets the client hands it:
//!
//! ```text
//! 0         staging area    bulk data of write-like calls (`ByteSource::SharedHeap`),
//!                           then submissions too large for a ring slot
//! 512 KiB   ring region     submission queue, completion queue, registered buffers
//! 1 MiB
//! ```
//!
//! One bump cursor serves the staging area: a batch's staged data, then its
//! spilled submissions; the next batch starts again from 0.

use std::collections::{HashMap, VecDeque};

use browsix_browser::time::precise_delay;
use browsix_browser::{
    AtomicsWaitResult, Message, PlatformConfig, PlatformError, SharedArrayBuffer, WorkerScope, TRANSFER_HANDLE_BYTES,
};
use browsix_core::exec::{ForkImage, LaunchContext, ProcessStart};
use browsix_core::ring::{Ring, RING_REGION_OFFSET, SLOT_PAYLOAD_BYTES, SYNC_HEAP_BYTES};
use browsix_core::{CompletionBatch, Errno, KernelEvent, Signal, SysResult, Syscall, SyscallBatch};
use crossbeam::channel::Sender;

/// Fixed per-message overhead charged on top of the encoded batch (the
/// envelope fields of the structured-clone message).
const MESSAGE_ENVELOPE_BYTES: usize = 24;

/// The per-process system-call client.
pub struct SyscallClient {
    pid: u32,
    config: PlatformConfig,
    kernel: Sender<KernelEvent>,
    scope: WorkerScope,
    next_seq: u64,
    signals: VecDeque<Signal>,
    shared_maps: HashMap<u64, SharedArrayBuffer>,
    /// The syscall ring over this process's shared heap, once the kernel
    /// has mapped it; `None` is the asynchronous convention.
    ring: Option<Ring>,
    /// The staging area's bump cursor: the end of the next batch's data.
    staged: usize,
    terminated: bool,
}

impl std::fmt::Debug for SyscallClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyscallClient")
            .field("pid", &self.pid)
            .field("ring", &self.ring_enabled())
            .field("terminated", &self.terminated)
            .finish()
    }
}

impl SyscallClient {
    /// Waits for the kernel's init message and builds the client.
    ///
    /// `prefer_sync` asks for the synchronous convention; it is honoured only
    /// when the simulated browser supports shared memory, mirroring the
    /// Chrome-only status of SharedArrayBuffer at publication time.
    pub fn start(ctx: LaunchContext, prefer_sync: bool) -> (SyscallClient, ProcessStart) {
        let LaunchContext {
            pid,
            config,
            kernel,
            scope,
        } = ctx;
        let mut client = SyscallClient {
            pid,
            config,
            kernel,
            scope,
            next_seq: 0,
            signals: VecDeque::new(),
            shared_maps: HashMap::new(),
            ring: None,
            staged: 0,
            terminated: false,
        };
        let start = client.wait_for_init();
        if prefer_sync && client.config.shared_memory {
            client.ring = client.map_ring();
        }
        (client, start)
    }

    /// Allocates the shared heap and hands it to the kernel, which maps the
    /// ring in it; nothing comes back.  The queue starts out parked, so the
    /// first submission rings the doorbell — an event behind the heap on
    /// this worker's channel, so the kernel has mapped the ring by then.
    fn map_ring(&self) -> Option<Ring> {
        let heap = SharedArrayBuffer::new(SYNC_HEAP_BYTES);
        let ring = Ring::map(heap.clone())?;
        ring.set_need_wakeup();
        self.kernel.send(KernelEvent::MapRing { pid: self.pid, heap }).ok()?;
        Some(ring)
    }

    /// Whether system calls are travelling over a persistent ring (the
    /// synchronous convention) rather than as messages.
    pub fn ring_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The process id assigned by the kernel.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Whether the kernel has terminated this worker (SIGKILL).
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// The platform configuration in effect.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    fn wait_for_init(&mut self) -> ProcessStart {
        loop {
            match self.scope.recv() {
                Ok(msg) => {
                    if msg.get_str("type") == Some("init") {
                        return decode_init(&msg);
                    }
                    self.handle_out_of_band(&msg);
                }
                Err(_) => {
                    self.terminated = true;
                    return ProcessStart::default();
                }
            }
        }
    }

    fn handle_out_of_band(&mut self, msg: &Message) {
        match msg.get_str("type") {
            Some("signal") => {
                if let Some(signal) = msg.get_int("signal").and_then(|n| Signal::from_number(n as i32)) {
                    self.signals.push_back(signal);
                }
            }
            Some("mmap-shared") => {
                // The kernel delivers a MAP_SHARED mapping's backing buffer
                // before the mmap call completes; stash it under the base
                // address for the runtime to pick up with `take_shared_map`.
                if let (Some(addr), Some(sab)) = (msg.get_int("addr"), msg.get("sab").and_then(Message::as_shared)) {
                    self.shared_maps.insert(addr as u64, sab.clone());
                }
            }
            _ => {}
        }
    }

    /// Takes the backing buffer the kernel delivered for the shared mapping
    /// at `addr` (draining newly arrived messages first).  The kernel posts
    /// the `mmap-shared` message *before* completing the `mmap` call on
    /// either transport convention, so once `mmap` has returned the buffer
    /// is here.
    pub fn take_shared_map(&mut self, addr: u64) -> Option<SharedArrayBuffer> {
        while let Ok(Some(msg)) = self.scope.try_recv() {
            self.handle_out_of_band(&msg);
        }
        self.shared_maps.remove(&addr)
    }

    /// Drains signals delivered to this process (checking for newly arrived
    /// messages first).
    pub fn pending_signals(&mut self) -> Vec<Signal> {
        while let Ok(Some(msg)) = self.scope.try_recv() {
            self.handle_out_of_band(&msg);
        }
        self.signals.drain(..).collect()
    }

    /// Issues a single system call and waits for its result (a one-entry
    /// [`SyscallClient::submit`]).
    pub fn call(&mut self, call: Syscall) -> SysResult {
        self.submit(SyscallBatch::single(call))
            .pop()
            .unwrap_or(SysResult::Err(Errno::EIO))
    }

    /// Submits a whole batch in one kernel round trip and returns one result
    /// per entry, in submission order.  Entries are dispatched in order
    /// against the same task state; entries that block inside the kernel
    /// complete individually without holding up the rest, and the call
    /// returns once every entry has completed.
    pub fn submit(&mut self, batch: SyscallBatch) -> Vec<SysResult> {
        let n = batch.len();
        if n == 0 {
            return Vec::new();
        }
        if self.terminated {
            return vec![SysResult::Err(Errno::EINTR); n];
        }
        match self.pump_ring(&batch) {
            Some(results) => results,
            None => self.submit_async(batch),
        }
    }

    /// Issues a system call without waiting for a result (used for `exit`,
    /// which never gets a reply): one more ring entry and its doorbell, or
    /// one more message.
    pub fn send_only(&mut self, call: Syscall) {
        let Some(ring) = &self.ring else {
            let _ = self.post_frame(SyscallBatch::single(call));
            return;
        };
        let mut frame = Vec::with_capacity(8);
        call.encode_into(&mut frame);
        if ring.push_sqe(0, &frame) && ring.take_doorbell() {
            let _ = self.kernel.send(KernelEvent::Doorbell { pid: self.pid });
        }
    }

    /// Copies `data` into the shared heap's staging area (synchronous
    /// convention) and returns the byte-source descriptor for it.  Falls back
    /// to an inline copy when running asynchronously.
    pub fn stage_write(&mut self, data: &[u8]) -> browsix_core::ByteSource {
        self.stage_writes(&[data]).pop().expect("one source per buffer")
    }

    /// Stages several buffers back to back in the shared heap, one
    /// [`ByteSource`](browsix_core::ByteSource) per buffer, for the next
    /// batch submitted.  Buffers that do not fit what is left of the staging
    /// area fall back to inline copies (which then travel as spilled
    /// submissions).
    ///
    /// Either way this is the one copy a guest's write makes on its way to
    /// the kernel: out of the caller's slice, into the heap or into a buffer
    /// of the call's own.  A message client's inline buffer is never copied
    /// again — `post_frame` moves a large one into the transfer list, and
    /// the kernel queues that same allocation on the pipe.
    pub fn stage_writes(&mut self, bufs: &[&[u8]]) -> Vec<browsix_core::ByteSource> {
        let heap = self.ring.as_ref().map(Ring::sab);
        bufs.iter()
            .map(|data| {
                let fits = self.staged + data.len() <= RING_REGION_OFFSET;
                if !heap.is_some_and(|heap| fits && heap.write_bytes(self.staged, data).is_ok()) {
                    return browsix_core::ByteSource::Inline(data.to_vec());
                }
                let (offset, len) = (self.staged as u32, data.len() as u32);
                self.staged += data.len();
                browsix_core::ByteSource::SharedHeap { offset, len }
            })
            .collect()
    }

    /// The maximum number of bytes [`SyscallClient::stage_write`] can place in
    /// the shared heap at once: the whole staging area.
    pub fn max_staged_write(&self) -> usize {
        self.ring.as_ref().map_or(usize::MAX, |_| RING_REGION_OFFSET)
    }

    /// `postMessage(frame, transfers)` to the kernel: the whole batch crosses
    /// the worker boundary as one structured clone, so that cost is paid
    /// once per batch, not per call — and only for the frame.  The batch is
    /// consumed: every payload large enough to detach is moved out of it
    /// into the transfer list, which changes hands without being encoded,
    /// cloned or charged by length; what is left encodes as it always did.
    /// Returns the frame's sequence number (`None`: kernel gone).
    fn post_frame(&mut self, mut batch: SyscallBatch) -> Option<u64> {
        self.next_seq += 1;
        let (pid, seq) = (self.pid, self.next_seq);
        let transfers = batch.detach_payloads();
        let payload = batch.encode();
        let cloned_bytes = payload.len() + MESSAGE_ENVELOPE_BYTES + transfers.len() * TRANSFER_HANDLE_BYTES;
        precise_delay(self.config.post_cost(cloned_bytes));
        let sent = self.kernel.send(KernelEvent::Syscall {
            pid,
            seq,
            payload,
            transfers,
        });
        sent.is_ok().then_some(seq)
    }

    fn submit_async(&mut self, batch: SyscallBatch) -> Vec<SysResult> {
        let n = batch.len();
        match self.post_frame(batch) {
            Some(seq) => self.wait_for_completions(seq, n),
            None => {
                self.terminated = true;
                vec![SysResult::Err(Errno::EINTR); n]
            }
        }
    }

    fn wait_for_completions(&mut self, seq: u64, n: usize) -> Vec<SysResult> {
        loop {
            match self.scope.recv() {
                Ok(mut msg) => match msg.get_str("type") {
                    Some("syscall-response") => {
                        // The kernel keeps one in-flight frame per process,
                        // and this one waits for its reply before posting
                        // another: a response can only be for `seq`.
                        let response_seq = msg.get_int("seq").unwrap_or(-1) as u64;
                        debug_assert_eq!(response_seq, seq, "a response for a frame not outstanding");
                        if response_seq != seq {
                            continue;
                        }
                        let transfers = msg.take_transfer();
                        let mut batch = msg
                            .get_bytes("completions")
                            .and_then(CompletionBatch::decode)
                            .unwrap_or_default();
                        // Bulk read data arrived beside the frame: the
                        // caller gets the buffer the kernel's pipe held.
                        batch.attach_payloads(transfers);
                        return results_from(batch, n);
                    }
                    _ => self.handle_out_of_band(&msg),
                },
                Err(_) => {
                    self.terminated = true;
                    return vec![SysResult::Err(Errno::EINTR); n];
                }
            }
        }
    }

    /// Drives one batch through the ring, one entry per call: write
    /// submission entries in place (in waves when the batch outgrows the queue),
    /// ring the doorbell only on an observed kernel park, and drain the
    /// completion queue — blocking in `Atomics.wait` on its tail, with no
    /// timeout — until every entry has completed.  A wave stopped by a full
    /// submission queue sleeps the same way until the kernel pops from it,
    /// since the entries it holds may all park until a later one runs.  No
    /// per-batch message or structured clone is paid anywhere on this path.
    ///
    /// An entry larger than a slot goes into the staging area after the
    /// batch's staged data and is submitted by reference.  The kernel copies
    /// it out as it pops it, so that space is free again once everything
    /// submitted so far has completed; a wave that runs out of it waits for
    /// that.  An entry larger than the space left beside the data fails with
    /// `E2BIG`.
    ///
    /// Returns `None`, having done nothing, if this process has no ring.
    fn pump_ring(&mut self, batch: &SyscallBatch) -> Option<Vec<SysResult>> {
        let ring = self.ring.as_ref()?;
        // This batch owns what is staged; the next one starts from 0.
        let staged = std::mem::take(&mut self.staged);
        let n = batch.len();
        // fork is incompatible with the synchronous convention (§3.2).
        if batch.entries.iter().any(|c| matches!(c, Syscall::Fork { .. })) {
            return Some(vec![SysResult::Err(Errno::ENOSYS); n]);
        }
        let mut results = vec![SysResult::Err(Errno::EIO); n];
        let mut submitted = 0usize;
        let mut completed = 0usize;
        let mut cursor = staged;
        // The encoding of entry `submitted`, or empty if it is yet to be
        // made: one buffer serves the whole batch, and an entry the queue had
        // no room for keeps its encoding until the next wave.
        let mut frame = Vec::with_capacity(64);
        let mut progressed = false;
        while completed < n {
            if submitted == completed {
                cursor = staged;
            }
            // Whether this wave stopped at a full submission queue, rather
            // than at the end of the batch or of the staging area.
            let mut sq_full = false;
            let mut published = false;
            while submitted < n {
                if frame.is_empty() {
                    batch.entries[submitted].encode_into(&mut frame);
                }
                if frame.len() <= SLOT_PAYLOAD_BYTES {
                    if !ring.push_sqe(submitted as u32, &frame) {
                        sq_full = true;
                        break;
                    }
                    published = true;
                } else if frame.len() > RING_REGION_OFFSET - staged {
                    results[submitted] = SysResult::Err(Errno::E2BIG);
                    completed += 1;
                } else {
                    if cursor + frame.len() > RING_REGION_OFFSET {
                        break;
                    }
                    if !ring.push_sqe_spilled(submitted as u32, cursor as u32, &frame) {
                        sq_full = true;
                        break;
                    }
                    published = true;
                    cursor += frame.len();
                }
                submitted += 1;
                frame.clear();
            }
            // Doorbell protocol: entries are published first, then the
            // kernel's NEED_WAKEUP flag is consumed.  Flag set → the kernel
            // parked after draining the queue dry and needs the (free,
            // Atomics.notify-style) wake event; flag clear → it is already
            // draining and will observe the new tail itself.  A wave that
            // follows a pop takes it too: a kernel parked on an overflowed
            // completion waits for that.  Any other wave leaves it alone.
            if (published || progressed)
                && ring.take_doorbell()
                && self.kernel.send(KernelEvent::Doorbell { pid: self.pid }).is_err()
            {
                self.terminated = true;
                return Some(vec![SysResult::Err(Errno::EINTR); n]);
            }
            let seen_tail = ring.cq_tail();
            progressed = false;
            while let Some((user_data, result)) = ring.pop_result() {
                if let Some(slot) = results.get_mut(user_data as usize) {
                    *slot = result;
                }
                completed += 1;
                progressed = true;
            }
            if completed >= n {
                break;
            }
            if progressed {
                // Popping freed queue slots and registered buffers: submit
                // the next wave before sleeping.
                continue;
            }
            // Woken by a notify, or the tail had already moved on, or the
            // queue has room again: re-check everything whichever it was.
            let woke = sleep(ring, &self.scope, seen_tail, sq_full);
            if self.scope.terminated() {
                self.terminated = true;
                return Some(vec![SysResult::Err(Errno::EINTR); n]);
            }
            if woke.is_err() {
                return Some(vec![SysResult::Err(Errno::EFAULT); n]);
            }
        }
        Some(results)
    }
}

/// Sleeps on the ring's CQ tail until the kernel notifies it, unless the
/// tail is no longer `seen_tail`, the worker is terminated or — `for_space`,
/// with `NEED_SPACE` set meanwhile — the submission queue has room again.
/// The last two are read under the wait's lock, like the tail, and the
/// kernel notifies the tail after it terminates the worker and after it
/// pops from a full queue, so neither wake can slip in between a look and
/// the sleep (see [`browsix_core::ring`]).  Nothing else ends the wait.
fn sleep(
    ring: &Ring,
    scope: &WorkerScope,
    seen_tail: u32,
    for_space: bool,
) -> Result<AtomicsWaitResult, PlatformError> {
    if for_space {
        ring.need_sq_space(true);
    }
    let tail_off = ring.geometry().cq_tail_off();
    let woke = ring.sab().wait_unless(tail_off, seen_tail as i32, None, || {
        scope.terminated() || for_space && ring.sq_space() > 0
    });
    if for_space {
        ring.need_sq_space(false);
    }
    woke
}

/// Spreads a completion batch back into one result per submission entry.
/// Entries the kernel never completed (which should not happen) read as I/O
/// errors rather than hanging or panicking.
fn results_from(batch: CompletionBatch, n: usize) -> Vec<SysResult> {
    let mut out = vec![SysResult::Err(Errno::EIO); n];
    for completion in batch.completions {
        if let Some(slot) = out.get_mut(completion.index as usize) {
            *slot = completion.result;
        }
    }
    out
}

fn decode_init(msg: &Message) -> ProcessStart {
    let args = msg
        .get("args")
        .and_then(Message::as_array)
        .map(|items| items.iter().filter_map(|m| m.as_str().map(|s| s.to_owned())).collect())
        .unwrap_or_default();
    let env = msg
        .get("env")
        .and_then(Message::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_str()?.to_owned(), pair.get(1)?.as_str()?.to_owned()))
                })
                .collect()
        })
        .unwrap_or_default();
    let cwd = msg.get_str("cwd").unwrap_or("/").to_owned();
    let fork_image = msg.get_bytes("fork_image").map(|bytes| ForkImage {
        image: bytes.to_vec(),
        resume_point: msg.get_int("fork_resume").unwrap_or(0) as u64,
    });
    ProcessStart {
        args,
        env,
        cwd,
        fork_image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_decoding_extracts_fields() {
        let msg = Message::map()
            .with("type", "init")
            .with("args", Message::from(vec!["ls".to_string(), "-l".to_string()]))
            .with(
                "env",
                Message::Array(vec![Message::Array(vec![
                    Message::from("PATH"),
                    Message::from("/usr/bin"),
                ])]),
            )
            .with("cwd", "/home")
            .with("fork_image", vec![1u8, 2, 3])
            .with("fork_resume", 7i64);
        let start = decode_init(&msg);
        assert_eq!(start.args, vec!["ls", "-l"]);
        assert_eq!(start.env, vec![("PATH".to_string(), "/usr/bin".to_string())]);
        assert_eq!(start.cwd, "/home");
        let image = start.fork_image.unwrap();
        assert_eq!(image.image, vec![1, 2, 3]);
        assert_eq!(image.resume_point, 7);
    }

    #[test]
    fn init_decoding_tolerates_missing_fields() {
        let start = decode_init(&Message::map().with("type", "init"));
        assert!(start.args.is_empty());
        assert!(start.env.is_empty());
        assert_eq!(start.cwd, "/");
        assert!(start.fork_image.is_none());
    }

    fn test_ring() -> Ring {
        let sab = SharedArrayBuffer::new(browsix_core::ring::RING_REGION_BYTES as usize);
        Ring::new(sab, browsix_core::ring::RingGeometry::standard(0))
    }

    /// The kernel terminates the worker after the process last looked and
    /// before it sleeps, and sends its one notify of the CQ tail
    /// (`Task::terminate_worker`) while nobody sleeps yet.  The sleep must
    /// end all the same.
    #[test]
    fn a_termination_between_the_last_look_and_the_sleep_ends_the_sleep() {
        use browsix_browser::Worker;
        use std::sync::mpsc;
        use std::time::Duration;

        let ring = test_ring();
        let (looked_tx, looked_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (woke_tx, woke_rx) = mpsc::channel();
        let sleeper = ring.clone();
        let script = move |scope: WorkerScope| {
            // The client's last look: nothing to pop, not terminated.
            let seen_tail = sleeper.cq_tail();
            looked_tx.send(scope.terminated()).unwrap();
            go_rx.recv().unwrap();
            woke_tx.send(sleep(&sleeper, &scope, seen_tail, false)).unwrap();
        };
        let worker = Worker::spawn(&PlatformConfig::fast(), "sleeper", Box::new(script));
        assert!(!looked_rx.recv().unwrap());
        worker.terminate();
        assert_eq!(ring.notify_cq(), 0, "nobody sleeps yet");
        go_tx.send(()).unwrap();
        let woke = woke_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the sleep missed the termination");
        assert_eq!(woke.unwrap(), AtomicsWaitResult::NotEqual);
    }

    #[test]
    fn a_completion_spilled_outside_the_buffer_table_reads_as_efault() {
        use browsix_core::ring::{INDIRECT, REG_BUF_BYTES, RING_BYTES, RING_HEADER_BYTES};
        let ring = test_ring();
        // The kernel's side of the memory is the guest's to scribble on too:
        // turn a posted completion into a reference to buffers 6..=8 of 7.
        let mut frame = Vec::new();
        SysResult::Int(7).encode_into(&mut frame);
        assert!(ring.push_cqe(0, &frame));
        let (sab, slot) = (ring.sab(), (RING_BYTES + RING_HEADER_BYTES) as usize);
        sab.write_bytes(slot + 4, &(INDIRECT | 8).to_le_bytes()).unwrap();
        sab.write_bytes(slot + 8, &6u32.to_le_bytes()).unwrap();
        sab.write_bytes(slot + 12, &(2 * REG_BUF_BYTES + 1).to_le_bytes())
            .unwrap();
        assert_eq!(ring.pop_result(), Some((0, SysResult::Err(Errno::EFAULT))));
    }

    #[test]
    fn a_completion_with_the_retired_tag_9_reads_as_an_error() {
        let ring = test_ring();
        // What a `DataFixed { buf: 3, len: 4096 }` used to encode to, in a
        // slot, and the same tag at the head of a spilled completion.
        let retired = [9, 3, 0, 0, 0, 0, 0x10, 0, 0];
        let mut spilled = retired.to_vec();
        spilled.resize(4096, 0);
        assert!(ring.push_cqe(0, &retired));
        assert!(ring.push_cqe(1, &spilled));
        assert_eq!(ring.pop_result(), Some((0, SysResult::Err(Errno::EIO))));
        assert_eq!(ring.pop_result(), Some((1, SysResult::Err(Errno::EIO))));
    }

    #[test]
    fn completion_spreading_fills_gaps_with_eio() {
        use browsix_core::Completion;
        let batch = CompletionBatch {
            completions: vec![
                Completion {
                    index: 2,
                    result: SysResult::Int(7),
                },
                Completion {
                    index: 0,
                    result: SysResult::Ok,
                },
            ],
        };
        let results = results_from(batch, 3);
        assert_eq!(results[0], SysResult::Ok);
        assert_eq!(results[1], SysResult::Err(Errno::EIO));
        assert_eq!(results[2], SysResult::Int(7));
    }
}
