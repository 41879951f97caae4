//! The worker-side system-call client.
//!
//! This is the "common services" syscall layer of §4.2: a typed API over the
//! browser's message-passing primitives that language runtimes use to talk to
//! the shared kernel.  Calls are issued as [`SyscallBatch`] submissions —
//! [`SyscallClient::submit`] sends a whole batch in one round trip and
//! returns one result per entry; [`SyscallClient::call`] is the one-entry
//! convenience.  Both transport conventions from §3.2 carry the same encoded
//! frames:
//!
//! * **asynchronous** — the encoded batch is posted to the kernel inside a
//!   structured-clone message; the worker then waits for the single response
//!   message carrying the encoded completion batch.  The clone cost is paid
//!   once per batch instead of once per call.
//! * **synchronous** — at startup the client allocates a `SharedArrayBuffer`
//!   heap and registers it (plus a response offset and a wake address) with
//!   the kernel.  Submissions carry only integers; bulk data is staged in the
//!   shared heap, and the worker blocks in `Atomics.wait` until the kernel
//!   writes the encoded completion batch into the heap and notifies it.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use browsix_browser::time::precise_delay;
use browsix_browser::{AtomicsWaitResult, Message, PlatformConfig, SharedArrayBuffer, WorkerScope};
use browsix_core::exec::{ForkImage, LaunchContext, ProcessStart};
use browsix_core::ring::{Ring, RingGeometry};
use browsix_core::wire::Reader;
use browsix_core::{CompletionBatch, Errno, KernelEvent, Signal, SysResult, Syscall, SyscallBatch, Transport};
use crossbeam::channel::Sender;

/// Size of the shared heap allocated for synchronous system calls.
const SYNC_HEAP_BYTES: usize = 1024 * 1024;
/// Offset of the wake address within the shared heap.
const WAKE_OFFSET: usize = 0;
/// Offset of the response area within the shared heap.
const RESP_OFFSET: usize = 64;
/// Offset of the outgoing-data area within the shared heap.
const DATA_OFFSET: usize = 256 * 1024;
/// Offset of the persistent syscall-ring region (submission and completion
/// queues plus the registered-buffer table) within the shared heap.
const RING_REGION_OFFSET: usize = 512 * 1024;
/// Capacity of the outgoing-data area.
pub const SYNC_DATA_CAPACITY: usize = RING_REGION_OFFSET - DATA_OFFSET;
/// Fixed per-message overhead charged on top of the encoded batch (the
/// envelope fields of the structured-clone message).
const MESSAGE_ENVELOPE_BYTES: usize = 24;
/// Process-environment variable that disables the ring transport (set to
/// `"0"`); the benchmarks use it to compare ring and framed submission.
pub const RINGS_ENV_VAR: &str = "BROWSIX_SYSCALL_RINGS";

/// Which convention the client ended up using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// Asynchronous message-passing system calls.
    Async,
    /// Synchronous shared-memory system calls.
    Sync,
}

struct SyncState {
    sab: SharedArrayBuffer,
    /// The persistent submission/completion ring, once the kernel has
    /// accepted its geometry.
    ring: Option<Ring>,
}

/// The per-process system-call client.
pub struct SyscallClient {
    pid: u32,
    config: PlatformConfig,
    kernel: Sender<KernelEvent>,
    scope: WorkerScope,
    mode: ClientMode,
    next_seq: u64,
    stashed: HashMap<u64, CompletionBatch>,
    signals: VecDeque<Signal>,
    shared_maps: HashMap<u64, SharedArrayBuffer>,
    sync: Option<SyncState>,
    terminated: bool,
}

impl std::fmt::Debug for SyscallClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyscallClient")
            .field("pid", &self.pid)
            .field("mode", &self.mode)
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
            mode: ClientMode::Async,
            next_seq: 0,
            stashed: HashMap::new(),
            signals: VecDeque::new(),
            shared_maps: HashMap::new(),
            sync: None,
            terminated: false,
        };
        let start = client.wait_for_init();
        if prefer_sync && client.config.shared_memory {
            let sab = SharedArrayBuffer::new(SYNC_HEAP_BYTES);
            let _ = client.kernel.send(KernelEvent::RegisterSyncHeap {
                pid: client.pid,
                sab: sab.clone(),
                resp_offset: RESP_OFFSET,
                wake_offset: WAKE_OFFSET,
            });
            client.sync = Some(SyncState {
                sab: sab.clone(),
                ring: None,
            });
            client.mode = ClientMode::Sync;
            // The persistent rings ride the same heap; `BROWSIX_SYSCALL_RINGS=0`
            // in the process environment keeps the framed transport (how the
            // benchmarks compare the two submission paths).
            let rings_disabled = start.env.iter().any(|(k, v)| k == RINGS_ENV_VAR && v == "0");
            if !rings_disabled {
                client.setup_ring(sab);
            }
        }
        (client, start)
    }

    /// Asks the kernel to map a submission/completion ring over the
    /// registered heap.  The request itself travels over the framed
    /// transport — the ring does not exist until the kernel accepts the
    /// geometry.
    fn setup_ring(&mut self, sab: SharedArrayBuffer) {
        let geo = RingGeometry::standard(RING_REGION_OFFSET as u32);
        if !geo.validate(sab.len()) {
            return;
        }
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
            if let Some(state) = self.sync.as_mut() {
                state.ring = Some(Ring::new(sab, geo));
            }
        }
    }

    /// Whether system calls are travelling over a persistent ring.
    pub fn ring_enabled(&self) -> bool {
        self.sync.as_ref().is_some_and(|s| s.ring.is_some())
    }

    /// The process id assigned by the kernel.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Which convention the client is using.
    pub fn mode(&self) -> ClientMode {
        self.mode
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
        match self.mode {
            ClientMode::Sync => {
                if let Some(results) = self.try_submit_ring(&batch) {
                    return results;
                }
                self.submit_sync(batch)
            }
            ClientMode::Async => self.submit_async(batch),
        }
    }

    /// Issues a system call without waiting for a result (used for `exit`,
    /// which never gets a reply).
    pub fn send_only(&mut self, call: Syscall) {
        let payload = SyscallBatch::single(call).encode();
        let transport = match self.mode {
            ClientMode::Sync => Transport::Sync { payload },
            ClientMode::Async => {
                self.next_seq += 1;
                precise_delay(self.config.post_cost(payload.len() + MESSAGE_ENVELOPE_BYTES));
                Transport::Async {
                    seq: self.next_seq,
                    payload,
                }
            }
        };
        let _ = self.kernel.send(KernelEvent::Syscall {
            pid: self.pid,
            transport,
        });
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
    /// the data area fall back to inline copies.
    pub fn stage_writes(&mut self, bufs: &[&[u8]]) -> Vec<browsix_core::ByteSource> {
        match (&self.mode, &self.sync) {
            (ClientMode::Sync, Some(state)) => {
                let mut cursor = DATA_OFFSET;
                bufs.iter()
                    .map(|data| {
                        if cursor + data.len() <= SYNC_HEAP_BYTES && state.sab.write_bytes(cursor, data).is_ok() {
                            let source = browsix_core::ByteSource::SharedHeap {
                                offset: cursor as u32,
                                len: data.len() as u32,
                            };
                            cursor += data.len();
                            source
                        } else {
                            browsix_core::ByteSource::Inline(data.to_vec())
                        }
                    })
                    .collect()
            }
            _ => bufs
                .iter()
                .map(|data| browsix_core::ByteSource::Inline(data.to_vec()))
                .collect(),
        }
    }

    /// The maximum number of bytes [`SyscallClient::stage_write`] can place in
    /// the shared heap at once.
    pub fn max_staged_write(&self) -> usize {
        match self.mode {
            ClientMode::Sync => SYNC_DATA_CAPACITY,
            ClientMode::Async => usize::MAX,
        }
    }

    fn submit_async(&mut self, batch: SyscallBatch) -> Vec<SysResult> {
        let n = batch.len();
        self.next_seq += 1;
        let seq = self.next_seq;
        let payload = batch.encode();
        // postMessage to the kernel: the whole batch crosses the worker
        // boundary as one structured clone, so the message + clone cost is
        // paid once per batch rather than once per call.
        precise_delay(self.config.post_cost(payload.len() + MESSAGE_ENVELOPE_BYTES));
        if self
            .kernel
            .send(KernelEvent::Syscall {
                pid: self.pid,
                transport: Transport::Async { seq, payload },
            })
            .is_err()
        {
            self.terminated = true;
            return vec![SysResult::Err(Errno::EINTR); n];
        }
        self.wait_for_completions(seq, n)
    }

    fn wait_for_completions(&mut self, seq: u64, n: usize) -> Vec<SysResult> {
        loop {
            if let Some(batch) = self.stashed.remove(&seq) {
                return results_from(batch, n);
            }
            match self.scope.recv() {
                Ok(msg) => match msg.get_str("type") {
                    Some("syscall-response") => {
                        let response_seq = msg.get_int("seq").unwrap_or(-1) as u64;
                        let batch = msg
                            .get_bytes("completions")
                            .and_then(CompletionBatch::decode)
                            .unwrap_or_default();
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

    /// Submits the batch over the persistent ring, if one is mapped and every
    /// entry is ring-safe.  Returns `None` to fall back to the framed
    /// transport.
    fn try_submit_ring(&mut self, batch: &SyscallBatch) -> Option<Vec<SysResult>> {
        let ring = self.sync.as_ref()?.ring.clone()?;
        let payload_cap = ring.geometry().slot_payload_bytes();
        let buf_cap = ring.geometry().buf_bytes;
        let mut encoded = Vec::with_capacity(batch.len());
        for call in &batch.entries {
            if !ring_safe(call, buf_cap) {
                return None;
            }
            let mut frame = Vec::with_capacity(32);
            call.encode_into(&mut frame);
            if frame.len() > payload_cap {
                return None;
            }
            encoded.push(frame);
        }
        Some(self.pump_ring(&ring, &encoded))
    }

    /// Drives one batch through the ring: write submission entries in place
    /// (chunked through the queue in waves when the batch is larger than it),
    /// ring the doorbell only on an observed kernel park, and drain the
    /// completion queue — blocking in `Atomics.wait` on its tail — until
    /// every entry has completed.  No per-batch message or structured clone
    /// is paid anywhere on this path.
    fn pump_ring(&mut self, ring: &Ring, encoded: &[Vec<u8>]) -> Vec<SysResult> {
        let n = encoded.len();
        let mut results = vec![SysResult::Err(Errno::EIO); n];
        let mut submitted = 0usize;
        let mut completed = 0usize;
        while completed < n {
            while submitted < n && ring.push_sqe(submitted as u32, &encoded[submitted]) {
                submitted += 1;
            }
            // Doorbell protocol: entries are published first, then the
            // kernel's NEED_WAKEUP flag is consumed.  Flag set → the kernel
            // parked after draining the queue dry and needs the (free,
            // Atomics.notify-style) wake event; flag clear → it is already
            // draining and will observe the new tail itself.
            if ring.take_doorbell() && self.kernel.send(KernelEvent::Doorbell { pid: self.pid }).is_err() {
                self.terminated = true;
                return vec![SysResult::Err(Errno::EINTR); n];
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
                return vec![SysResult::Err(Errno::EINTR); n];
            }
            match ring.sab().wait(
                ring.geometry().cq_tail_off(),
                seen_tail as i32,
                Some(Duration::from_millis(100)),
            ) {
                // Timed out or woken: re-check the queue either way.  The
                // loop re-offers the doorbell each time round, and the
                // kernel's idle-tick sweep of all rings (only when its
                // event queue stayed empty, so by at most 20 ms) picks up an
                // entry whose doorbell was lost outright.
                Ok(_) => {}
                Err(_) => return vec![SysResult::Err(Errno::EFAULT); n],
            }
        }
        results
    }

    fn submit_sync(&mut self, batch: SyscallBatch) -> Vec<SysResult> {
        let n = batch.len();
        // fork is incompatible with the synchronous convention (§3.2).
        if batch.entries.iter().any(|c| matches!(c, Syscall::Fork { .. })) {
            return vec![SysResult::Err(Errno::ENOSYS); n];
        }
        let Some(state) = &self.sync else {
            return vec![SysResult::Err(Errno::EFAULT); n];
        };
        // Arm the wake address, send the (integer-only) request, block.
        if state.sab.store_i32(WAKE_OFFSET, 0).is_err() {
            return vec![SysResult::Err(Errno::EFAULT); n];
        }
        let payload = batch.encode();
        precise_delay(self.config.post_cost(32));
        if self
            .kernel
            .send(KernelEvent::Syscall {
                pid: self.pid,
                transport: Transport::Sync { payload },
            })
            .is_err()
        {
            self.terminated = true;
            return vec![SysResult::Err(Errno::EINTR); n];
        }
        loop {
            if self.scope.terminated() {
                self.terminated = true;
                return vec![SysResult::Err(Errno::EINTR); n];
            }
            let state = self.sync.as_ref().expect("checked above");
            match state.sab.wait(WAKE_OFFSET, 0, Some(Duration::from_millis(100))) {
                Ok(AtomicsWaitResult::TimedOut) => continue,
                Ok(_) => break,
                Err(_) => return vec![SysResult::Err(Errno::EFAULT); n],
            }
        }
        // Decode [len][completion frame] from the response area.
        let state = self.sync.as_ref().expect("checked above");
        let len_bytes = match state.sab.read_bytes(RESP_OFFSET, 4) {
            Ok(bytes) => bytes,
            Err(_) => return vec![SysResult::Err(Errno::EFAULT); n],
        };
        let len = u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        let frame = match state.sab.read_bytes(RESP_OFFSET + 4, len) {
            Ok(bytes) => bytes,
            Err(_) => return vec![SysResult::Err(Errno::EFAULT); n],
        };
        results_from(CompletionBatch::decode(&frame).unwrap_or_default(), n)
    }
}

// Ring eligibility comes from the IDL's per-syscall `ring:` class, via the
// classifier generated into `browsix_core::abi`: a call may ride the ring
// when its submission entry fits a slot and its result is bounded — by a
// completion slot, or by one registered buffer for bulk reads.  Everything
// else (fork, unbounded-result directory/link calls, oversized reads) takes
// the framed transport.
use browsix_core::abi::ring_safe;

include!(concat!(env!("OUT_DIR"), "/client_gen.rs"));

/// Decodes one completion entry, dereferencing (and freeing) a
/// registered-buffer result.
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
        const { assert!(RESP_OFFSET > WAKE_OFFSET + 4) };
        const { assert!(DATA_OFFSET > RESP_OFFSET) };
        const { assert!(SYNC_DATA_CAPACITY > 64 * 1024) };
        const { assert!(DATA_OFFSET + SYNC_DATA_CAPACITY <= RING_REGION_OFFSET) };
        const { assert!(RING_REGION_OFFSET + browsix_core::ring::RING_REGION_BYTES as usize <= SYNC_HEAP_BYTES) };
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
