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
//!   `SharedArrayBuffer` heap, hands it to the kernel and asks, in one
//!   ordinary message, for a syscall ring ([`browsix_core::ring`]) to be
//!   mapped into it.  Once the kernel agrees, every call — `exit` included —
//!   is written into a submission-queue slot in place, and the worker blocks
//!   in `Atomics.wait` on the completion queue.  If the kernel refuses, the
//!   client simply remains a message client.
//!
//! The heap, which the client lays out and the kernel only ever addresses
//! by offsets the client hands it:
//!
//! ```text
//! 0         spill area      submissions too large for a ring slot
//! 256 KiB   write staging   bulk data of write-like calls (`ByteSource::SharedHeap`)
//! 512 KiB   ring region     submission queue, completion queue, registered buffers
//! 1 MiB
//! ```

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use browsix_browser::time::precise_delay;
use browsix_browser::{Message, PlatformConfig, SharedArrayBuffer, WorkerScope, TRANSFER_HANDLE_BYTES};
use browsix_core::exec::{ForkImage, LaunchContext, ProcessStart};
use browsix_core::ring::{Ring, RingGeometry};
use browsix_core::wire::Reader;
use browsix_core::{CompletionBatch, Errno, KernelEvent, Signal, SysResult, Syscall, SyscallBatch};
use crossbeam::channel::Sender;

/// Size of the shared heap allocated for synchronous system calls.
const SYNC_HEAP_BYTES: usize = 1024 * 1024;
/// Offset of the outgoing-data area within the shared heap.  Everything
/// below it is the spill area for submissions larger than a ring slot.
const DATA_OFFSET: usize = 256 * 1024;
/// Offset of the persistent syscall-ring region (submission and completion
/// queues plus the registered-buffer table) within the shared heap.
const RING_REGION_OFFSET: usize = 512 * 1024;
/// Capacity of the outgoing-data area.
pub const SYNC_DATA_CAPACITY: usize = RING_REGION_OFFSET - DATA_OFFSET;
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
    stashed: HashMap<u64, CompletionBatch>,
    signals: VecDeque<Signal>,
    shared_maps: HashMap<u64, SharedArrayBuffer>,
    /// The syscall ring over this process's shared heap, once the kernel
    /// has mapped it; `None` is the asynchronous convention.
    ring: Option<Ring>,
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
            stashed: HashMap::new(),
            signals: VecDeque::new(),
            shared_maps: HashMap::new(),
            ring: None,
            terminated: false,
        };
        let start = client.wait_for_init();
        if prefer_sync && client.config.shared_memory {
            client.setup_ring();
        }
        (client, start)
    }

    /// Allocates the shared heap, hands it to the kernel and asks, by an
    /// ordinary message, for a ring to be mapped over it.  Anything but `Ok`
    /// leaves this an asynchronous client.
    fn setup_ring(&mut self) {
        let sab = SharedArrayBuffer::new(SYNC_HEAP_BYTES);
        let geo = RingGeometry::standard(RING_REGION_OFFSET as u32);
        let _ = self.kernel.send(KernelEvent::RegisterSyncHeap {
            pid: self.pid,
            sab: sab.clone(),
        });
        let accepted = self.call(Syscall::RingSetup {
            sq_offset: geo.sq_offset,
            cq_offset: geo.cq_offset,
            slots: geo.slots,
            slot_bytes: geo.slot_bytes,
            buf_offset: geo.buf_offset,
            buf_count: geo.buf_count,
            buf_bytes: geo.buf_bytes,
        }) == SysResult::Ok;
        if accepted {
            self.ring = Some(Ring::new(sab, geo));
        }
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

    /// Copies `data` into the shared heap's outgoing-data area (synchronous
    /// convention) and returns the byte-source descriptor for it.  Falls back
    /// to an inline copy when running asynchronously.
    pub fn stage_write(&mut self, data: &[u8]) -> browsix_core::ByteSource {
        self.stage_writes(&[data]).pop().expect("one source per buffer")
    }

    /// Stages several buffers back to back in the shared heap, one
    /// [`ByteSource`](browsix_core::ByteSource) per buffer, for a batch of
    /// data-carrying entries submitted together.  Buffers that do not fit in
    /// the data area fall back to inline copies (which then travel through
    /// the spill area).
    ///
    /// Either way this is the one copy a guest's write makes on its way to
    /// the kernel: out of the caller's slice, into the heap or into a buffer
    /// of the call's own.  A message client's inline buffer is never copied
    /// again — `post_frame` moves a large one into the transfer list, and
    /// the kernel queues that same allocation on the pipe.
    pub fn stage_writes(&mut self, bufs: &[&[u8]]) -> Vec<browsix_core::ByteSource> {
        let heap = self.ring.as_ref().map(Ring::sab);
        let mut cursor = DATA_OFFSET;
        bufs.iter()
            .map(|data| {
                let fits = cursor + data.len() <= RING_REGION_OFFSET;
                if !heap.is_some_and(|heap| fits && heap.write_bytes(cursor, data).is_ok()) {
                    return browsix_core::ByteSource::Inline(data.to_vec());
                }
                let (offset, len) = (cursor as u32, data.len() as u32);
                cursor += data.len();
                browsix_core::ByteSource::SharedHeap { offset, len }
            })
            .collect()
    }

    /// The maximum number of bytes [`SyscallClient::stage_write`] can place in
    /// the shared heap at once.
    pub fn max_staged_write(&self) -> usize {
        self.ring.as_ref().map_or(usize::MAX, |_| SYNC_DATA_CAPACITY)
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
            if let Some(batch) = self.stashed.remove(&seq) {
                return results_from(batch, n);
            }
            match self.scope.recv() {
                Ok(mut msg) => match msg.get_str("type") {
                    Some("syscall-response") => {
                        let response_seq = msg.get_int("seq").unwrap_or(-1) as u64;
                        let transfers = msg.take_transfer();
                        let mut batch = msg
                            .get_bytes("completions")
                            .and_then(CompletionBatch::decode)
                            .unwrap_or_default();
                        // Bulk read data arrived beside the frame: the
                        // caller gets the buffer the kernel's pipe held.
                        batch.attach_payloads(transfers);
                        if response_seq == seq {
                            return results_from(batch, n);
                        }
                        self.stashed.insert(response_seq, batch);
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
    /// completion queue — blocking in `Atomics.wait` on its tail — until
    /// every entry has completed.  No per-batch message or structured clone
    /// is paid anywhere on this path.
    ///
    /// An entry larger than a slot goes into the spill area at a bump cursor
    /// and is submitted by reference.  The kernel copies it out as it pops
    /// it, so the area is free again once everything submitted so far has
    /// completed; a wave that runs out of it waits for that.  An entry
    /// larger than the whole area fails with `E2BIG`.
    ///
    /// Returns `None`, having done nothing, if this process has no ring.
    fn pump_ring(&mut self, batch: &SyscallBatch) -> Option<Vec<SysResult>> {
        let ring = self.ring.as_ref()?;
        let n = batch.len();
        // fork is incompatible with the synchronous convention (§3.2).
        if batch.entries.iter().any(|c| matches!(c, Syscall::Fork { .. })) {
            return Some(vec![SysResult::Err(Errno::ENOSYS); n]);
        }
        let slot_payload = ring.geometry().slot_payload_bytes();
        let mut results = vec![SysResult::Err(Errno::EIO); n];
        let mut submitted = 0usize;
        let mut completed = 0usize;
        let mut spill_cursor = 0usize;
        // The encoding of entry `submitted`, or empty if it is yet to be
        // made: one buffer serves the whole batch, and an entry the queue had
        // no room for keeps its encoding until the next wave.
        let mut frame = Vec::with_capacity(64);
        while completed < n {
            if submitted == completed {
                spill_cursor = 0;
            }
            while submitted < n {
                if frame.is_empty() {
                    batch.entries[submitted].encode_into(&mut frame);
                }
                if frame.len() > DATA_OFFSET {
                    results[submitted] = SysResult::Err(Errno::E2BIG);
                    completed += 1;
                } else if frame.len() <= slot_payload {
                    if !ring.push_sqe(submitted as u32, &frame) {
                        break;
                    }
                } else {
                    if spill_cursor + frame.len() > DATA_OFFSET
                        || !ring.push_sqe_spilled(submitted as u32, spill_cursor as u32, &frame)
                    {
                        break;
                    }
                    spill_cursor += frame.len();
                }
                submitted += 1;
                frame.clear();
            }
            // Doorbell protocol: entries are published first, then the
            // kernel's NEED_WAKEUP flag is consumed.  Flag set → the kernel
            // parked after draining the queue dry and needs the (free,
            // Atomics.notify-style) wake event; flag clear → it is already
            // draining and will observe the new tail itself.
            if ring.take_doorbell() && self.kernel.send(KernelEvent::Doorbell { pid: self.pid }).is_err() {
                self.terminated = true;
                return Some(vec![SysResult::Err(Errno::EINTR); n]);
            }
            let seen_tail = ring.cq_tail();
            let mut progressed = false;
            while let Some((user_data, frame)) = ring.pop_cqe() {
                let result = resolve_cqe(ring, &frame);
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
            if self.scope.terminated() {
                self.terminated = true;
                return Some(vec![SysResult::Err(Errno::EINTR); n]);
            }
            match ring.sab().wait(
                ring.geometry().cq_tail_off(),
                seen_tail as i32,
                Some(Duration::from_millis(100)),
            ) {
                // Timed out, woken by the kernel's once-per-event notify, or
                // the tail had already moved on: re-check the queue whichever
                // it was.  The loop re-offers the doorbell each time round,
                // and the kernel's idle-tick sweep of all rings (only when
                // its event queue stayed empty, so by at most 20 ms) picks
                // up an entry whose doorbell was lost outright.
                Ok(_) => {}
                Err(_) => return Some(vec![SysResult::Err(Errno::EFAULT); n]),
            }
        }
        Some(results)
    }
}

include!(concat!(env!("OUT_DIR"), "/client_gen.rs"));

/// Decodes one completion entry, dereferencing (and freeing) a
/// registered-buffer result.  An empty entry is how the ring reports a spill
/// reference that points outside the buffer table.
fn resolve_cqe(ring: &Ring, frame: &[u8]) -> SysResult {
    let mut r = Reader::new(frame);
    match SysResult::decode_from(&mut r) {
        Some(SysResult::DataFixed { buf, len }) => {
            let data = ring.read_buf(buf, len as usize);
            ring.free_buf(buf);
            match data {
                Some(bytes) => SysResult::Data(bytes),
                None => SysResult::Err(Errno::EFAULT),
            }
        }
        Some(result) => result,
        None if frame.is_empty() => SysResult::Err(Errno::EFAULT),
        None => SysResult::Err(Errno::EIO),
    }
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
    let blob_url = msg.get_str("blob_url").map(|s| s.to_owned());
    let fork_image = msg.get_bytes("fork_image").map(|bytes| ForkImage {
        image: bytes.to_vec(),
        resume_point: msg.get_int("fork_resume").unwrap_or(0) as u64,
    });
    ProcessStart {
        args,
        env,
        cwd,
        blob_url,
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
            .with("blob_url", "blob:browsix/1")
            .with("fork_image", vec![1u8, 2, 3])
            .with("fork_resume", 7i64);
        let start = decode_init(&msg);
        assert_eq!(start.args, vec!["ls", "-l"]);
        assert_eq!(start.env, vec![("PATH".to_string(), "/usr/bin".to_string())]);
        assert_eq!(start.cwd, "/home");
        assert_eq!(start.blob_url.as_deref(), Some("blob:browsix/1"));
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
        assert!(start.blob_url.is_none());
        assert!(start.fork_image.is_none());
    }

    #[test]
    fn sync_layout_constants_are_consistent() {
        // Spill area, write staging and ring region tile the heap in order.
        const { assert!(DATA_OFFSET > 64 * 1024) };
        const { assert!(SYNC_DATA_CAPACITY > 64 * 1024) };
        const { assert!(DATA_OFFSET + SYNC_DATA_CAPACITY <= RING_REGION_OFFSET) };
        const { assert!(RING_REGION_OFFSET + browsix_core::ring::RING_REGION_BYTES as usize <= SYNC_HEAP_BYTES) };
        assert!(RingGeometry::standard(RING_REGION_OFFSET as u32).validate(SYNC_HEAP_BYTES));
    }

    #[test]
    fn a_completion_spilled_outside_the_buffer_table_reads_as_efault() {
        use browsix_core::ring::{INDIRECT, RING_BYTES, RING_HEADER_BYTES, RING_REGION_BYTES};
        let sab = SharedArrayBuffer::new(RING_REGION_BYTES as usize);
        let ring = Ring::new(sab.clone(), RingGeometry::standard(0));
        // The kernel's side of the memory is the guest's to scribble on too:
        // turn a posted completion into a reference to buffers 6..=8 of 7.
        let mut frame = Vec::new();
        SysResult::Int(7).encode_into(&mut frame);
        assert!(ring.push_cqe(0, &frame));
        let slot = (RING_BYTES + RING_HEADER_BYTES) as usize;
        let buf_bytes = ring.geometry().buf_bytes;
        sab.write_bytes(slot + 4, &(INDIRECT | 8).to_le_bytes()).unwrap();
        sab.write_bytes(slot + 8, &6u32.to_le_bytes()).unwrap();
        sab.write_bytes(slot + 12, &(2 * buf_bytes + 1).to_le_bytes()).unwrap();
        let (_, popped) = ring.pop_cqe().unwrap();
        assert_eq!(resolve_cqe(&ring, &popped), SysResult::Err(Errno::EFAULT));
        // The same goes for a `DataFixed` naming a buffer that does not exist.
        frame.clear();
        SysResult::DataFixed { buf: 7, len: 1 }.encode_into(&mut frame);
        assert_eq!(resolve_cqe(&ring, &frame), SysResult::Err(Errno::EFAULT));
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
