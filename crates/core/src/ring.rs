//! Persistent shared-memory syscall rings: the transport of every process
//! that has a `SharedArrayBuffer` heap.
//!
//! An io_uring style pair of fixed-slot queues lives *inside* the process's
//! shared heap:
//!
//! * the **submission queue** (SQ): the process encodes each call directly
//!   into the next free slot and publishes it by advancing the tail index;
//! * the **completion queue** (CQ): the kernel encodes each result into the
//!   next free slot and publishes it by advancing the tail index; once it has
//!   published all that a drain or other event produces, it notifies the
//!   waiting process;
//! * the **registered-buffer table**: a small pool of fixed-size buffers,
//!   laid out back to back, that carry what a completion slot cannot.
//!
//! Each queue is single-producer/single-consumer: the process owns the SQ
//! tail and CQ head, the kernel owns the SQ head and CQ tail.  Indices are
//! free-running `u32`s (slot = index % slots), mirroring io_uring, so empty
//! is `head == tail` and full is `tail - head == slots`.
//!
//! The doorbell protocol avoids a kernel wake-up per submission: the kernel
//! sets the `NEED_WAKEUP` flag in the SQ header only once it has drained the
//! queue dry (a new ring starts with it set: see the next section), and the
//! process rings the doorbell (a kernel event, modelling
//! `Atomics.notify` on the kernel's wait address) only when it observes the
//! flag set — i.e. only on empty→non-empty transitions.
//!
//! # Mapping: one layout, one event
//!
//! The layout is fixed here, not chosen by the process: a process's ring
//! region starts at [`RING_REGION_OFFSET`] of its [`SYNC_HEAP_BYTES`] heap,
//! below it sits the process's staging area, and the queues and the buffer
//! table follow back to back, sized by the constants below.  A process
//! maps its ring with one event and no reply, by handing the kernel its
//! heap ([`crate::KernelEvent::MapRing`], the `personality` call of §3.2).
//! It sets `NEED_WAKEUP` itself before it does, so its first submission
//! rings the doorbell, and uses the ring at once: the doorbell travels on
//! the same channel behind the heap, so the kernel has mapped the ring by
//! the time it sees it.  A task maps one ring, once; a second heap, or one
//! too short for the region ([`Ring::map`]), maps nothing.
//!
//! Every word of the protocol is read and written with one sequentially
//! consistent `Atomics` operation ([`SharedArrayBuffer::load_i32`] and
//! friends); slot bytes are plain copies, published by the tail store that
//! follows them and acquired by the tail load that precedes reading them:
//!
//! | word                  | written by | ordering          | who waits on it |
//! |-----------------------|------------|-------------------|-----------------|
//! | SQ head               | kernel     | `SeqCst` store    | nobody (a process out of space sets `NEED_SPACE` and waits on the CQ tail) |
//! | SQ tail               | process    | `SeqCst` store    | nobody (a doorbell event stands in for `Atomics.notify`) |
//! | SQ flags (`NEED_WAKEUP`, `NEED_SPACE`) | both | `SeqCst` `or`/`and` | nobody |
//! | CQ head               | process    | `SeqCst` store    | nobody (the kernel retries overflow as it parks, and on the next drain) |
//! | CQ tail               | kernel     | `SeqCst` store    | the process, in `Atomics.wait` with the tail it last saw |
//! | slot header, reference | producer  | `SeqCst` stores, before the tail | nobody |
//! | buffer bitmap         | both       | `SeqCst` compare-exchange / `and` | nobody |
//!
//! [`Ring::push_cqe`] only *publishes*; [`Ring::notify_cq`] *wakes*, and the
//! kernel calls it once for everything a drain of the submission queue, or
//! any other kernel event, published to the ring.  Nothing is lost in between: the process re-reads the CQ
//! tail and passes that value as `Atomics.wait`'s expected one, so a
//! completion published before it sleeps makes the wait return `NotEqual`.
//!
//! # Parking: which side wakes the other
//!
//! Nothing on either side polls or sleeps on a timer, so each hand-off is a
//! Dekker pair of `SeqCst` steps in which whichever side comes second sees
//! what the first one did:
//!
//! * **A submission** needs the kernel.  The process publishes, then takes
//!   `NEED_WAKEUP`; the kernel sets the flag, then re-checks the queue
//!   ([`Ring::park`]).  Flag already set: the process rings the doorbell.
//!   Not yet: the re-check finds the entry.
//! * **An overflowed completion** (a full queue, or no free run of buffers)
//!   needs the process to pop.  The process pops, then takes the flag; the
//!   kernel sets it, then retries the overflow ([`Ring::park`] again).
//! * **A full submission queue** needs the kernel to pop.  The process sets
//!   `NEED_SPACE`, then sleeps on the CQ tail unless [`Ring::sq_space`] is
//!   no longer 0 — checked under the wait's lock
//!   ([`SharedArrayBuffer::wait_unless`]); the kernel pops, then reads the
//!   flag as it parks and notifies the CQ tail while it is set.  Only the
//!   process clears it, once it is awake.
//! * **Termination** needs the process to stop waiting.  Its wait reads the
//!   worker's termination flag the same way; the kernel terminates the
//!   worker, then notifies the CQ tail.
//!
//! Slot payloads are the exact wire encoding of [`crate::Syscall`] and
//! [`crate::syscall::SysResult`], the same bytes the message transport puts
//! in its frames.
//!
//! # Spilling: the ring carries every call and every result
//!
//! A slot is `u32 user_data | u32 length word | payload`.  An entry that
//! does not fit is **spilled**: bit 31 of the length word ([`INDIRECT`])
//! says the payload is an 8-byte `(u32 a, u32 len)` reference to the `len`
//! encoded bytes.  For a submission ([`Ring::push_sqe_spilled`]) `a` is a
//! byte offset into the heap, chosen by the process; for a completion
//! ([`Ring::push_cqe`]) it is the first of ⌈`len` / [`REG_BUF_BYTES`]⌉ adjacent
//! registered buffers, which the consumer frees as it pops the entry.
//! [`Ring::pop_sqe`] and [`Ring::pop_cqe`] follow the reference — after
//! checking it, because the process can scribble on every byte of this
//! memory: a bad one pops as an empty payload, which nothing decodes from.
//! A result larger than the whole table ([`MAX_SPILL_BYTES`])
//! cannot travel at all; the kernel answers it `EOVERFLOW` and clamps ring
//! reads ([`MAX_READ_BYTES`]) so that a read never gets there.
//!
//! Spilling is the one way bulk read data comes back, and each byte is
//! written into the buffers once and read out once ([`Ring::pop_result`]).
//! A 64 KiB read and its header span two buffers.
//!
//! # Example
//!
//! A call crosses a ring slot in its ordinary wire encoding and comes back
//! out identical:
//!
//! ```
//! use browsix_core::ring::{Ring, RingGeometry, RING_REGION_BYTES};
//! use browsix_core::{wire::Reader, Syscall};
//!
//! let sab = browsix_browser::SharedArrayBuffer::new(RING_REGION_BYTES as usize);
//! let ring = Ring::new(sab, RingGeometry::standard(0));
//!
//! let call = Syscall::Read { fd: 3, len: 512 };
//! let mut payload = Vec::new();
//! call.encode_into(&mut payload);
//! assert!(ring.push_sqe(1, &payload));
//!
//! let (user_data, bytes) = ring.pop_sqe().unwrap();
//! assert_eq!(user_data, 1);
//! assert_eq!(Syscall::decode_from(&mut Reader::new(&bytes)), Some(call));
//! ```

use browsix_browser::SharedArrayBuffer;

use crate::wire::Reader;
use crate::{Errno, SysResult};

/// Number of slots in each queue (power of two).
pub const RING_SLOTS: u32 = 64;
/// Byte size of one slot: an 8-byte entry header (`user_data`, length word)
/// plus payload capacity.
pub const RING_SLOT_BYTES: u32 = 256;
/// Byte size of a queue header: head, tail, flags, one reserved word.
pub const RING_HEADER_BYTES: u32 = 16;
/// Byte size of one full queue (header + slots).
pub const RING_BYTES: u32 = RING_HEADER_BYTES + RING_SLOTS * RING_SLOT_BYTES;
/// Number of registered buffers.
pub const REG_BUF_COUNT: u32 = 7;
/// Byte size of one registered buffer.
pub const REG_BUF_BYTES: u32 = 64 * 1024;
/// Byte size of the registered-buffer table header (allocation bitmap word
/// plus reserved words).
pub const REG_BUF_TABLE_HEADER_BYTES: u32 = 16;
/// Byte size of the whole registered-buffer table.
pub const REG_BUF_TABLE_BYTES: u32 = REG_BUF_TABLE_HEADER_BYTES + REG_BUF_COUNT * REG_BUF_BYTES;
/// Byte size of the whole ring region (SQ + CQ + registered buffers).
pub const RING_REGION_BYTES: u32 = 2 * RING_BYTES + REG_BUF_TABLE_BYTES;

/// SQ header flag: the kernel has drained the queue dry and parked; the next
/// submission must ring the doorbell.
pub const NEED_WAKEUP: i32 = 1;

/// SQ header flag: the process waits for a free SQ slot; every drain pass
/// that parks while it is set notifies the CQ tail.
pub const NEED_SPACE: i32 = 2;

/// Maximum payload bytes one slot can carry.
pub const SLOT_PAYLOAD_BYTES: usize = RING_SLOT_BYTES as usize - 8;

/// Bit 31 of a slot's length word: the payload is an 8-byte `(u32 a, u32
/// len)` reference to a spilled entry, not the entry (see the module docs).
pub const INDIRECT: u32 = 1 << 31;
/// Byte size of a spill reference.
const REFERENCE_BYTES: usize = 8;
/// Byte offsets of the tail and flags words in a queue header (the head
/// word comes first).
const TAIL: usize = 4;
const FLAGS: usize = 8;
/// Bytes an encoded `SysResult::Data` spends before its data: the tag and
/// the `u32` length prefix.
const DATA_HEADER_BYTES: usize = 5;

/// The largest completion the registered buffers can carry: the whole
/// table, as one run.
pub const MAX_SPILL_BYTES: usize = (REG_BUF_COUNT * REG_BUF_BYTES) as usize;
/// The most bytes a `read` submitted through a ring can return: what is left
/// of the largest completion after the `Data` result's header.
pub const MAX_READ_BYTES: u32 = (MAX_SPILL_BYTES - DATA_HEADER_BYTES) as u32;

/// Byte offset of the ring region within a process's shared heap, and the
/// size of the staging area below it (bulk data of write-like calls, then
/// submissions too large for a slot).
pub const RING_REGION_OFFSET: usize = 512 * 1024;
/// Byte size of the shared heap a process hands the kernel: the staging
/// area, then the ring region.
pub const SYNC_HEAP_BYTES: usize = 1024 * 1024;

/// Where a ring sits inside its heap: the one layout — SQ, CQ and buffer
/// table back to back, sized by the constants above — starting at one
/// offset.  A process's ring starts at [`RING_REGION_OFFSET`]
/// ([`Ring::map`]); a ring built directly may start anywhere on the word
/// grid, since the protocol's words are reached through `Atomics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingGeometry {
    /// Byte offset of the SQ header, where the region starts.
    sq: u32,
}

impl RingGeometry {
    /// The layout starting at `region_offset` (a multiple of 4) within the
    /// shared heap.
    pub fn standard(region_offset: u32) -> RingGeometry {
        RingGeometry { sq: region_offset }
    }

    /// Byte offset of the CQ header.
    fn cq(&self) -> u32 {
        self.sq + RING_BYTES
    }

    /// Byte offset of the registered-buffer table.
    fn bufs(&self) -> usize {
        (self.sq + 2 * RING_BYTES) as usize
    }

    /// Byte offset of the CQ tail word — the address the process blocks on
    /// with `Atomics.wait` while expecting completions.
    pub fn cq_tail_off(&self) -> usize {
        self.cq() as usize + TAIL
    }
    /// Byte offset of slot `index % RING_SLOTS` of the queue headed at `queue`.
    fn slot_off(&self, queue: u32, index: u32) -> usize {
        (queue + RING_HEADER_BYTES + index % RING_SLOTS * RING_SLOT_BYTES) as usize
    }
    fn buf_slot_off(&self, index: u32) -> usize {
        self.bufs() + (REG_BUF_TABLE_HEADER_BYTES + index * REG_BUF_BYTES) as usize
    }
}

/// How many adjacent buffers a spilled completion of `len` bytes covers.
fn buf_run(len: usize) -> u32 {
    len.div_ceil(REG_BUF_BYTES as usize) as u32
}

/// The allocation-bitmap bits of `n` adjacent buffers starting at `first`
/// (`1 <= n`, `first + n <= 32`).
fn run_mask(first: u32, n: u32) -> u32 {
    (u32::MAX >> (32 - n)) << first
}

/// The spill reference `(a, len)` as slot payload bytes.
fn reference(a: u32, len: usize) -> [u8; REFERENCE_BYTES] {
    let mut bytes = [0; REFERENCE_BYTES];
    bytes[..4].copy_from_slice(&a.to_le_bytes());
    bytes[4..].copy_from_slice(&(len as u32).to_le_bytes());
    bytes
}

/// What the encoding of a `SysResult::Data` of `len` bytes puts before them.
fn data_header(len: usize) -> [u8; DATA_HEADER_BYTES] {
    let mut header = [SysResult::Data(Vec::new()).tag(); DATA_HEADER_BYTES];
    header[1..].copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// One side's handle to a ring pair mapped into a shared heap.
///
/// Both the kernel and the `SyscallClient` hold one of these over the *same*
/// `SharedArrayBuffer`; the SPSC ownership discipline (documented on the
/// module) is what keeps the two sides coherent.
#[derive(Debug, Clone)]
pub struct Ring {
    sab: SharedArrayBuffer,
    geo: RingGeometry,
}

impl Ring {
    /// Wraps a shared heap that holds the region `geo` places.
    pub fn new(sab: SharedArrayBuffer, geo: RingGeometry) -> Ring {
        Ring { sab, geo }
    }

    /// The ring at [`RING_REGION_OFFSET`] of a process's shared heap, or
    /// `None` if the heap is too short to hold the region.
    pub fn map(heap: SharedArrayBuffer) -> Option<Ring> {
        let holds_region = heap.len() >= RING_REGION_OFFSET + RING_REGION_BYTES as usize;
        holds_region.then(|| Ring::new(heap, RingGeometry::standard(RING_REGION_OFFSET as u32)))
    }

    /// The geometry this ring was mapped with.
    pub fn geometry(&self) -> &RingGeometry {
        &self.geo
    }

    /// The shared heap backing this ring.
    pub fn sab(&self) -> &SharedArrayBuffer {
        &self.sab
    }

    /// Byte offset of the SQ flags word.
    fn flags_off(&self) -> usize {
        self.geo.sq as usize + FLAGS
    }

    fn load(&self, off: usize) -> u32 {
        self.sab.load_u32(off).unwrap_or(0)
    }

    fn store(&self, off: usize, value: u32) {
        let _ = self.sab.store_i32(off, value as i32);
    }

    /// The head index of the queue headed at `queue` and how many entries
    /// wait behind it.  More entries than slots — indices only scribbling
    /// produces — read as an empty queue: the process stalls itself.
    fn queued(&self, queue: u32) -> (u32, u32) {
        let head = self.load(queue as usize);
        let queued = self.load(queue as usize + TAIL).wrapping_sub(head);
        (head, if queued > RING_SLOTS { 0 } else { queued })
    }

    /// Writes one entry, `head` followed by `body`, into the next free slot
    /// of the queue headed at `queue`.  Returns the tail index that
    /// publishes it, or `None` (without side effects) if the queue is full.
    fn write_slot(&self, queue: u32, user_data: u32, length_word: u32, head: &[u8], body: &[u8]) -> Option<u32> {
        if self.queued(queue).1 == RING_SLOTS {
            return None;
        }
        let tail = self.load(queue as usize + TAIL);
        let slot = self.geo.slot_off(queue, tail);
        self.sab.write_bytes(slot + 8, head).ok()?;
        self.sab.write_bytes(slot + 8 + head.len(), body).ok()?;
        self.store(slot, user_data);
        self.store(slot + 4, length_word);
        Some(tail.wrapping_add(1))
    }

    /// Pops the oldest entry of the queue headed at `queue`, following a
    /// spill reference with `resolve(a, len)`.  An inline length is clamped
    /// to the slot; a reference `resolve` rejects pops as an empty payload.
    fn pop(&self, queue: u32, resolve: impl FnOnce(u32, usize) -> Option<Vec<u8>>) -> Option<(u32, Vec<u8>)> {
        let (head, queued) = self.queued(queue);
        if queued == 0 {
            return None;
        }
        let slot = self.geo.slot_off(queue, head);
        let (user_data, length_word) = (self.load(slot), self.load(slot + 4));
        let payload = if length_word & INDIRECT == 0 {
            let len = (length_word as usize).min(SLOT_PAYLOAD_BYTES);
            self.sab.read_bytes(slot + 8, len).ok()?
        } else {
            resolve(self.load(slot + 8), self.load(slot + 12) as usize).unwrap_or_default()
        };
        self.store(queue as usize, head.wrapping_add(1));
        Some((user_data, payload))
    }

    // --- submission queue -------------------------------------------------

    /// Free SQ slots from the producer's point of view.
    pub fn sq_space(&self) -> u32 {
        RING_SLOTS - self.queued(self.geo.sq).1
    }

    /// Whether the SQ currently holds no published entries.
    pub fn sq_is_empty(&self) -> bool {
        self.queued(self.geo.sq).1 == 0
    }

    fn publish_sqe(&self, user_data: u32, length_word: u32, payload: &[u8]) -> bool {
        let tail = self.write_slot(self.geo.sq, user_data, length_word, payload, &[]);
        tail.is_some_and(|tail| {
            self.store(self.geo.sq as usize + TAIL, tail);
            true
        })
    }

    /// Producer: writes one entry into the next free slot and publishes it.
    ///
    /// Returns `false` (without side effects) if the queue is full or the
    /// payload exceeds the slot capacity — spill that one with
    /// [`Ring::push_sqe_spilled`].
    pub fn push_sqe(&self, user_data: u32, payload: &[u8]) -> bool {
        payload.len() <= SLOT_PAYLOAD_BYTES && self.publish_sqe(user_data, payload.len() as u32, payload)
    }

    /// Producer: writes an entry of any size at byte `offset` of the heap
    /// and publishes a slot that refers to it.  The bytes must stay put
    /// until the kernel has popped the entry (it copies them out then).
    ///
    /// Returns `false` if the queue is full or `offset..offset +
    /// payload.len()` is not inside the heap.
    pub fn push_sqe_spilled(&self, user_data: u32, offset: u32, payload: &[u8]) -> bool {
        self.sq_space() > 0
            && self.sab.write_bytes(offset as usize, payload).is_ok()
            && self.publish_sqe(user_data, INDIRECT | 8, &reference(offset, payload.len()))
    }

    /// Consumer: pops the oldest entry, if any, copying a spilled one out of
    /// the heap.  A spill reference that is empty or not inside the heap
    /// pops as an empty payload.
    pub fn pop_sqe(&self) -> Option<(u32, Vec<u8>)> {
        self.pop(self.geo.sq, |offset, len| {
            self.sab.read_bytes(offset as usize, len).ok()
        })
    }

    /// Current SQ flags word.
    pub fn sq_flags(&self) -> i32 {
        self.sab.load_i32(self.flags_off()).unwrap_or(0)
    }

    /// Parks the queue — sets `NEED_WAKEUP` so the next submission rings the
    /// doorbell.  The process does it once, before it hands the kernel its
    /// heap; the kernel on every drain, as it parks ([`Ring::park`]).
    pub fn set_need_wakeup(&self) {
        let _ = self.sab.fetch_or_i32(self.flags_off(), NEED_WAKEUP);
    }

    /// Kernel: clears `NEED_WAKEUP` before re-draining.
    pub fn clear_need_wakeup(&self) {
        let _ = self.sab.fetch_and_i32(self.flags_off(), !NEED_WAKEUP);
    }

    /// Kernel: ends a drain pass.  Sets `NEED_WAKEUP`, notifies the CQ tail
    /// if the process waits for the SQ space the pass's pops made
    /// (`NEED_SPACE`), then re-checks both queues: `flush` retries the
    /// completions that overflowed and says whether it posted any, and the
    /// SQ may hold entries that raced in.  A process that submitted or
    /// popped while the flag was still clear rang no doorbell, so only this
    /// re-check finds either.  Returns `true` once parked, or `false`, with
    /// the flag cleared again, when the kernel must notify and drain once
    /// more.
    pub fn park(&self, flush: impl FnOnce() -> bool) -> bool {
        let flags = self.sab.fetch_or_i32(self.flags_off(), NEED_WAKEUP);
        if matches!(flags, Ok(flags) if flags & NEED_SPACE != 0) {
            self.notify_cq();
        }
        if !flush() && self.sq_is_empty() {
            return true;
        }
        self.clear_need_wakeup();
        false
    }

    /// Process: sets (or, once awake, clears) `NEED_SPACE`, the request to be
    /// woken when the kernel pops from a full SQ.  Set it before the last
    /// look at [`Ring::sq_space`] before sleeping.
    pub fn need_sq_space(&self, on: bool) {
        let flags = self.flags_off();
        let _ = if on {
            self.sab.fetch_or_i32(flags, NEED_SPACE)
        } else {
            self.sab.fetch_and_i32(flags, !NEED_SPACE)
        };
    }

    /// Process: atomically consumes the `NEED_WAKEUP` flag.  Returns whether
    /// it was set, i.e. whether the doorbell must ring for this submission.
    pub fn take_doorbell(&self) -> bool {
        matches!(
            self.sab.fetch_and_i32(self.flags_off(), !NEED_WAKEUP),
            Ok(old) if old & NEED_WAKEUP != 0
        )
    }

    // --- completion queue -------------------------------------------------

    /// The CQ tail index, which the process also uses as the `Atomics.wait`
    /// expected value while blocking for completions.
    pub fn cq_tail(&self) -> u32 {
        self.load(self.geo.cq_tail_off())
    }

    /// Kernel: writes one completion into the next free slot — or, when it
    /// does not fit one, into adjacent registered buffers with the slot
    /// referring to them — and publishes it by storing the new tail.  Nobody
    /// is woken: that is [`Ring::notify_cq`], once the kernel has published
    /// everything the drain or event it is busy with produces.
    ///
    /// Returns `false` (without side effects) if the queue is full or the
    /// buffers a spill needs are not free; the caller is expected to hold
    /// the completion in an overflow queue and retry later.  A payload
    /// larger than [`MAX_SPILL_BYTES`] can never be pushed.
    pub fn push_cqe(&self, user_data: u32, payload: &[u8]) -> bool {
        self.push_cqe_gather(user_data, payload, &[])
    }

    /// Kernel: [`Ring::push_cqe`] of a result's encoding, except that a
    /// spilled `Data` result's bytes go into the buffers straight from the
    /// result, after their header.  A result too large for the whole table
    /// is posted as `EOVERFLOW` instead.
    pub(crate) fn push_result(&self, user_data: u32, result: &SysResult) -> bool {
        let mut head = Vec::with_capacity(16);
        let body: &[u8] = match result {
            SysResult::Data(data) if DATA_HEADER_BYTES + data.len() > SLOT_PAYLOAD_BYTES => {
                head.extend_from_slice(&data_header(data.len()));
                data
            }
            _ => {
                result.encode_into(&mut head);
                &[]
            }
        };
        if head.len() + body.len() > MAX_SPILL_BYTES {
            head.clear();
            SysResult::Err(Errno::EOVERFLOW).encode_into(&mut head);
            return self.push_cqe(user_data, &head);
        }
        self.push_cqe_gather(user_data, &head, body)
    }

    /// [`Ring::push_cqe`] of `head` followed by `body`.
    fn push_cqe_gather(&self, user_data: u32, head: &[u8], body: &[u8]) -> bool {
        let (cq, len) = (self.geo.cq(), head.len() + body.len());
        let tail = if len <= SLOT_PAYLOAD_BYTES {
            self.write_slot(cq, user_data, len as u32, head, body)
        } else {
            let run = buf_run(len);
            let Some(first) = self.alloc_bufs(run) else {
                return false;
            };
            let at = self.geo.buf_slot_off(first);
            let spilled = self.sab.write_bytes(at, head).is_ok() && self.sab.write_bytes(at + head.len(), body).is_ok();
            let reference = reference(first, len);
            let tail = spilled
                .then(|| self.write_slot(cq, user_data, INDIRECT | 8, &reference, &[]))
                .flatten();
            if tail.is_none() {
                self.free_bufs(first, run);
            }
            tail
        };
        tail.is_some_and(|tail| {
            self.store(self.geo.cq_tail_off(), tail);
            true
        })
    }

    /// Kernel: wakes the process if it is blocked on the CQ tail word (free
    /// when it is not).  Returns how many waiters were woken.
    pub fn notify_cq(&self) -> usize {
        self.sab.notify(self.geo.cq_tail_off(), 1)
    }

    /// Process: pops the oldest completion, if any, copying a spilled one
    /// out of its registered buffers and freeing them.  A spill reference
    /// that is empty or names buffers outside the table pops as an empty
    /// payload and frees nothing.
    pub fn pop_cqe(&self) -> Option<(u32, Vec<u8>)> {
        self.pop_cqe_reading(|at, len| self.sab.read_bytes(at, len).ok())
    }

    /// Process: pops the oldest completion as the result it encodes.  A
    /// spilled `Data` result's bytes are read out of the buffers straight
    /// into the `Vec` it carries.  An empty payload, which is what a bad
    /// spill reference pops as, reads as `EFAULT`, and one that decodes to
    /// nothing — an unknown or retired tag, say — as `EIO`.
    pub fn pop_result(&self) -> Option<(u32, SysResult)> {
        let mut data = false;
        let (user_data, bytes) = self.pop_cqe_reading(|at, len| {
            let header = data_header(len.saturating_sub(DATA_HEADER_BYTES));
            let head = self.sab.read_bytes(at, len.min(DATA_HEADER_BYTES));
            data = head.is_ok_and(|head| head == header);
            let skip = if data { DATA_HEADER_BYTES } else { 0 };
            self.sab.read_bytes(at + skip, len - skip).ok()
        })?;
        let result = match bytes {
            bytes if data => SysResult::Data(bytes),
            bytes if bytes.is_empty() => SysResult::Err(Errno::EFAULT),
            bytes => SysResult::decode_from(&mut Reader::new(&bytes)).unwrap_or(SysResult::Err(Errno::EIO)),
        };
        Some((user_data, result))
    }

    /// Pops the oldest completion, reading a spilled one with `read(at,
    /// len)` before freeing its buffers.
    fn pop_cqe_reading(&self, read: impl FnOnce(usize, usize) -> Option<Vec<u8>>) -> Option<(u32, Vec<u8>)> {
        self.pop(self.geo.cq(), |first, len| {
            let run = buf_run(len);
            if run == 0 || first >= REG_BUF_COUNT || run > REG_BUF_COUNT - first {
                return None;
            }
            let bytes = read(self.geo.buf_slot_off(first), len);
            self.free_bufs(first, run);
            bytes
        })
    }

    // --- registered buffers -----------------------------------------------

    /// Claims `n` adjacent free buffers, marking them in the shared
    /// allocation bitmap.  Returns the first index, or `None` if no such run
    /// is free.  The search and the claim are one compare-exchange, retried
    /// against the bitmap as it then stands if the process changed it in
    /// between, so a run is only ever claimed while it is free.
    fn alloc_bufs(&self, n: u32) -> Option<u32> {
        if n == 0 || n > REG_BUF_COUNT {
            return None;
        }
        let word = self.geo.bufs();
        let mut bitmap = self.load(word);
        loop {
            let first = (0..=REG_BUF_COUNT - n).find(|&first| bitmap & run_mask(first, n) == 0)?;
            let claimed = (bitmap | run_mask(first, n)) as i32;
            let now = self.sab.compare_exchange_i32(word, bitmap as i32, claimed).ok()? as u32;
            if now == bitmap {
                return Some(first);
            }
            bitmap = now;
        }
    }

    /// Releases `n` adjacent buffers starting at `first` (in range).
    fn free_bufs(&self, first: u32, n: u32) {
        let _ = self.sab.fetch_and_i32(self.geo.bufs(), !run_mask(first, n) as i32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        let geo = RingGeometry::standard(0);
        let sab = SharedArrayBuffer::new(RING_REGION_BYTES as usize);
        Ring::new(sab, geo)
    }

    #[test]
    fn a_heap_maps_its_ring_only_if_it_holds_the_region() {
        // The staging area and the ring region tile a process heap in order.
        const { assert!(RING_REGION_OFFSET > 64 * 1024) };
        const { assert!(RING_REGION_OFFSET + RING_REGION_BYTES as usize <= SYNC_HEAP_BYTES) };
        let ring = Ring::map(SharedArrayBuffer::new(SYNC_HEAP_BYTES)).expect("a process heap holds its ring");
        assert_eq!(ring.geometry(), &RingGeometry::standard(RING_REGION_OFFSET as u32));
        let region_end = RING_REGION_OFFSET + RING_REGION_BYTES as usize;
        assert!(Ring::map(SharedArrayBuffer::new(region_end)).is_some());
        assert!(Ring::map(SharedArrayBuffer::new(region_end - 4)).is_none());
        assert!(Ring::map(SharedArrayBuffer::new(0)).is_none());
    }

    #[test]
    fn sq_round_trips_in_fifo_order() {
        let ring = ring();
        assert!(ring.sq_is_empty());
        assert!(ring.push_sqe(7, b"first"));
        assert!(ring.push_sqe(8, b"second"));
        assert!(!ring.sq_is_empty());
        assert_eq!(ring.pop_sqe(), Some((7, b"first".to_vec())));
        assert_eq!(ring.pop_sqe(), Some((8, b"second".to_vec())));
        assert_eq!(ring.pop_sqe(), None);
    }

    #[test]
    fn sq_rejects_overfill_and_oversize() {
        let ring = ring();
        for i in 0..RING_SLOTS {
            assert!(ring.push_sqe(i, b"x"));
        }
        assert_eq!(ring.sq_space(), 0);
        assert!(!ring.push_sqe(99, b"full"));
        assert!(ring.pop_sqe().is_some());
        assert!(ring.push_sqe(99, b"now fits"));
        let oversized = vec![0u8; SLOT_PAYLOAD_BYTES + 1];
        assert!(!ring.push_sqe(100, &oversized));
        let exactly = vec![0u8; SLOT_PAYLOAD_BYTES];
        assert!(ring.pop_sqe().is_some());
        assert!(ring.push_sqe(100, &exactly));
    }

    #[test]
    fn indices_wrap_around() {
        let ring = ring();
        // Push/pop enough entries to wrap the u8-sized slot window many times.
        for i in 0..(RING_SLOTS * 3 + 5) {
            assert!(ring.push_sqe(i, &i.to_le_bytes()));
            let (user_data, payload) = ring.pop_sqe().unwrap();
            assert_eq!(user_data, i);
            assert_eq!(payload, i.to_le_bytes());
        }
    }

    #[test]
    fn cq_round_trips_and_notifies() {
        use browsix_browser::AtomicsWaitResult;
        use std::time::Duration;

        let ring = ring();
        let before = ring.cq_tail();
        assert!(ring.push_cqe(3, b"done"));
        assert_eq!(ring.cq_tail(), before.wrapping_add(1));
        assert_eq!(ring.pop_cqe(), Some((3, b"done".to_vec())));
        assert_eq!(ring.pop_cqe(), None);

        // `push_cqe` publishes, `notify_cq` wakes.
        let sleep_on_tail = |timeout| {
            let (ring, tail) = (ring.clone(), ring.cq_tail());
            std::thread::spawn(move || {
                let tail_off = ring.geometry().cq_tail_off();
                ring.sab().wait(tail_off, tail as i32, Some(timeout)).unwrap()
            })
        };
        // A process already asleep on the tail sleeps through a publish.  One
        // that only got to `wait` after it sees the tail moved (`NotEqual`);
        // that says nothing either way, so that round is played again.
        let slept_through = loop {
            let sleeper = sleep_on_tail(Duration::from_millis(50));
            std::thread::sleep(Duration::from_millis(10));
            assert!(ring.push_cqe(1, b"published"));
            assert!(ring.pop_cqe().is_some());
            match sleeper.join().unwrap() {
                AtomicsWaitResult::NotEqual => continue,
                result => break result,
            }
        };
        assert_eq!(slept_through, AtomicsWaitResult::TimedOut, "push_cqe must not notify");

        assert_eq!(ring.notify_cq(), 0, "nobody waits: free, and says so");
        let sleeper = sleep_on_tail(Duration::from_secs(5));
        while ring.notify_cq() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(sleeper.join().unwrap(), AtomicsWaitResult::Ok);
    }

    /// A heap with room below the ring region for spilled submissions.
    fn ring_above(spill_bytes: u32) -> Ring {
        let sab = SharedArrayBuffer::new((spill_bytes + RING_REGION_BYTES) as usize);
        Ring::new(sab, RingGeometry::standard(spill_bytes))
    }

    /// Overwrites the slot `index` of the queue at `queue_offset` with a
    /// raw header and payload, as a hostile peer could.
    fn scribble(ring: &Ring, queue_offset: u32, index: u32, length_word: u32, payload: &[u8]) {
        let slot = (queue_offset + RING_HEADER_BYTES + index * RING_SLOT_BYTES) as usize;
        ring.sab().write_bytes(slot + 4, &length_word.to_le_bytes()).unwrap();
        ring.sab().write_bytes(slot + 8, payload).unwrap();
    }

    #[test]
    fn oversized_entries_spill_and_pop_like_inline_ones() {
        let ring = ring_above(4096);
        let call = vec![7u8; 1000];
        assert!(!ring.push_sqe(1, &call), "too large for a slot");
        assert!(ring.push_sqe_spilled(1, 64, &call));
        assert!(ring.push_sqe(2, b"inline"));
        assert_eq!(ring.pop_sqe(), Some((1, call)));
        assert_eq!(ring.pop_sqe(), Some((2, b"inline".to_vec())));
        // A spill that would leave the heap is refused up front.
        let heap_len = ring.sab().len() as u32;
        assert!(!ring.push_sqe_spilled(3, heap_len - 8, &[0u8; 16]));
        assert!(ring.sq_is_empty());

        // A completion of two and a bit buffers takes three adjacent ones,
        // and popping it hands all three back.
        let buffers = |n: u32, byte: u8| vec![byte; (n * REG_BUF_BYTES) as usize];
        let result: Vec<u8> = (0..2 * REG_BUF_BYTES + 5).map(|i| i as u8).collect();
        assert!(ring.push_cqe(8, &buffers(1, 8)));
        assert!(ring.push_cqe(9, &result));
        assert_eq!(bitmap(&ring), 0b1111, "buffers 1..=3 carry the spill");
        assert!(ring.push_cqe(10, &buffers(1, 10)));
        assert_eq!(ring.pop_cqe(), Some((8, buffers(1, 8))));
        assert_eq!(ring.pop_cqe(), Some((9, result)));
        assert_eq!(bitmap(&ring), 0b1_0000);
        assert!(ring.push_cqe(11, &buffers(2, 11)));
        assert_eq!(bitmap(&ring), 0b1_0011, "the first run that is free");
        // No run of free buffers, no push; nothing is left half-claimed.
        assert!(!ring.push_cqe(12, &buffers(6, 12)));
        assert_eq!(bitmap(&ring), 0b1_0011);
        assert_eq!(ring.pop_cqe(), Some((10, buffers(1, 10))));
        assert_eq!(ring.pop_cqe(), Some((11, buffers(2, 11))));
        assert_eq!(bitmap(&ring), 0);
        let whole_table = vec![1u8; MAX_SPILL_BYTES];
        assert!(ring.push_cqe(10, &whole_table));
        assert_eq!(ring.pop_cqe(), Some((10, whole_table)));
        assert!(!ring.push_cqe(11, &vec![0u8; MAX_SPILL_BYTES + 1]));
    }

    #[test]
    fn bad_spill_references_pop_as_empty_payloads() {
        let ring = ring_above(4096);
        let heap_len = ring.sab().len() as u32;
        let sq_cases = [
            reference(heap_len, 1),
            reference(0, heap_len as usize + 1),
            reference(u32::MAX - 2, 8),
            reference(16, 0),
            [0xff; 8],
        ];
        for (i, case) in sq_cases.iter().enumerate() {
            assert!(ring.push_sqe(i as u32, b"placeholder"));
            scribble(&ring, 4096, i as u32, INDIRECT | 8, case);
            assert_eq!(ring.pop_sqe(), Some((i as u32, Vec::new())), "case {i}");
        }
        // An inline length word larger than the slot is clamped to it.
        assert!(ring.push_sqe(7, b"x"));
        scribble(&ring, 4096, sq_cases.len() as u32, !INDIRECT, b"x");
        assert_eq!(ring.pop_sqe().unwrap().1.len(), SLOT_PAYLOAD_BYTES);

        let cq_cases = [
            reference(REG_BUF_COUNT, 1),
            reference(REG_BUF_COUNT - 1, REG_BUF_BYTES as usize + 1),
            reference(0, (REG_BUF_COUNT * REG_BUF_BYTES) as usize + 1),
            reference(u32::MAX, u32::MAX as usize),
            reference(2, 0),
        ];
        // Buffers 0, 2 and 6 are busy, as far as the bitmap says.
        let bitmap_word = ring.geo.bufs();
        ring.sab().store_i32(bitmap_word, 0b100_0101).unwrap();
        for (i, case) in cq_cases.iter().enumerate() {
            assert!(ring.push_cqe(i as u32, b"placeholder"));
            scribble(&ring, 4096 + RING_BYTES, i as u32, INDIRECT | 8, case);
            assert_eq!(ring.pop_cqe(), Some((i as u32, Vec::new())), "case {i}");
        }
        assert_eq!(bitmap(&ring), 0b100_0101, "a bad reference frees nothing");
    }

    #[test]
    fn impossible_indices_read_as_an_empty_queue() {
        let ring = ring();
        assert!(ring.push_sqe(1, b"x"));
        // The tail runs away from the head by more than the queue holds.
        ring.sab().store_i32(4, 1_000).unwrap();
        assert!(ring.sq_is_empty());
        assert_eq!(ring.pop_sqe(), None);
        assert_eq!(ring.sq_space(), RING_SLOTS);
        // Same on the completion side, where the head is the guest's word.
        ring.sab().store_i32(RING_BYTES as usize, 1_000).unwrap();
        assert_eq!(ring.queued(ring.geo.cq()).1, 0);
        assert_eq!(ring.pop_cqe(), None);
    }

    #[test]
    fn read_cap_leaves_room_for_the_data_header() {
        let largest = crate::SysResult::Data(vec![0u8; MAX_READ_BYTES as usize]);
        let mut frame = Vec::new();
        largest.encode_into(&mut frame);
        assert_eq!(frame.len(), MAX_SPILL_BYTES);
        assert_eq!(frame[..DATA_HEADER_BYTES], data_header(MAX_READ_BYTES as usize));
    }

    #[test]
    fn results_spill_and_a_data_result_pops_as_its_own_bytes() {
        let ring = ring();
        // A 64 KiB read and its header span two buffers, and what the
        // buffers hold is the result's ordinary encoding.
        let data: Vec<u8> = (0..REG_BUF_BYTES).map(|i| (i % 251) as u8).collect();
        let read = SysResult::Data(data.clone());
        assert!(ring.push_result(1, &read));
        assert_eq!(bitmap(&ring), 0b11);
        let mut encoded = Vec::new();
        read.encode_into(&mut encoded);
        assert_eq!(ring.pop_cqe(), Some((1, encoded)));
        assert_eq!(bitmap(&ring), 0);
        // Popped as a result, it is that `Data` again; so are a short read
        // in a slot, a spilled result of another kind and an empty read.
        let entries = SysResult::Entries(
            (0..2000)
                .map(|i| browsix_fs::DirEntry::file(&format!("f{i}")))
                .collect(),
        );
        let cases = [
            read,
            SysResult::Data(b"short".to_vec()),
            entries,
            SysResult::Data(Vec::new()),
        ];
        for (i, result) in cases.iter().enumerate() {
            assert!(ring.push_result(i as u32, result));
        }
        for (i, result) in cases.into_iter().enumerate() {
            assert_eq!(ring.pop_result(), Some((i as u32, result)));
        }
        assert_eq!(bitmap(&ring), 0);
        // A result no spill can carry is posted as `EOVERFLOW` instead.
        let too_large = SysResult::Data(vec![0; MAX_READ_BYTES as usize + 1]);
        assert!(ring.push_result(9, &too_large));
        assert_eq!(ring.pop_result(), Some((9, SysResult::Err(Errno::EOVERFLOW))));
    }

    #[test]
    fn a_result_waits_for_a_free_slot_and_a_free_run() {
        let ring = ring();
        let read = SysResult::Data(vec![7; REG_BUF_BYTES as usize]);
        for i in 0..3 {
            assert!(ring.push_result(i, &read), "{i}: two buffers each");
        }
        assert!(!ring.push_result(3, &read), "one buffer left");
        assert!(
            ring.push_result(3, &SysResult::Data(vec![7; 100])),
            "a slot still takes it"
        );
        assert_eq!(ring.pop_result(), Some((0, read.clone())));
        assert!(ring.push_result(4, &read));
        for i in 5..=RING_SLOTS {
            assert!(ring.push_result(i, &SysResult::Int(i.into())));
        }
        assert!(!ring.push_result(99, &SysResult::Ok), "the queue is full");
        assert_eq!(ring.pop_result(), Some((1, read.clone())));
        assert!(ring.push_result(RING_SLOTS + 1, &SysResult::Ok), "the slot it freed");
        assert!(!ring.push_result(99, &read), "a free run, but no slot");
        assert_eq!(bitmap(&ring), 0b11_0011, "and nothing claimed for it");
    }

    #[test]
    fn doorbell_flag_protocol() {
        let ring = ring();
        // No flag: no doorbell needed.
        assert!(!ring.take_doorbell());
        ring.set_need_wakeup();
        assert_eq!(ring.sq_flags() & NEED_WAKEUP, NEED_WAKEUP);
        // First submitter consumes the flag; the second does not ring again.
        assert!(ring.take_doorbell());
        assert!(!ring.take_doorbell());
        ring.set_need_wakeup();
        ring.clear_need_wakeup();
        assert!(!ring.take_doorbell());
    }

    /// A drain pass ends with one completion in the kernel's overflow queue
    /// — the CQ was full — while the process pops.  Every interleaving of
    /// the kernel's flush → set `NEED_WAKEUP` → re-check ([`Ring::park`])
    /// with the process's pop → take the doorbell → sleep check is played:
    /// in none may the process go to sleep on a tail that never moves again
    /// while that completion stays in the overflow queue, unless it rang the
    /// doorbell, whose drain flushes it first.  Every word involved is one
    /// `SeqCst` operation, so sequential schedules of the six steps are
    /// exact at this granularity.
    #[test]
    fn no_interleaving_of_park_and_pop_strands_an_overflowed_completion() {
        use std::cell::Cell;

        #[derive(Debug, Clone, Copy)]
        enum Step {
            Pop,
            TakeDoorbell,
            SleepCheck,
        }
        const CLIENT: [Step; 3] = [Step::Pop, Step::TakeDoorbell, Step::SleepCheck];
        let mut schedules = 0;
        // Bit `i` of `kernel_at` set: the `i`-th of the six steps is the
        // kernel's.  A client step runs in gap `g`, after `g` kernel steps.
        for kernel_at in (0u32..1 << 6).filter(|bits| bits.count_ones() == 3) {
            schedules += 1;
            let mut gaps = [[None; 3]; 4];
            let (mut kernel_steps, mut client_steps) = (0, 0);
            for i in 0..6 {
                if kernel_at & 1 << i != 0 {
                    kernel_steps += 1;
                } else {
                    gaps[kernel_steps][client_steps] = Some(CLIENT[client_steps]);
                    client_steps += 1;
                }
            }
            let ring = ring();
            for user_data in 0..RING_SLOTS {
                assert!(ring.push_cqe(user_data, b"done"));
            }
            // The kernel's overflow queue, and what the process did and saw.
            let overflowed = Cell::new(true);
            let (popped, rang, asleep_on) = (Cell::new(0), Cell::new(false), Cell::new(None));
            let flush = || overflowed.get() && ring.push_cqe(RING_SLOTS, b"late") && overflowed.replace(false);
            let client = |gap: usize| {
                for step in gaps[gap].iter().flatten() {
                    match step {
                        Step::Pop => {
                            while ring.pop_cqe().is_some() {
                                popped.set(popped.get() + 1);
                            }
                        }
                        Step::TakeDoorbell => rang.set(rang.get() | ring.take_doorbell()),
                        Step::SleepCheck => {
                            let (tail, empty) = (ring.cq_tail(), ring.queued(ring.geo.cq()).1 == 0);
                            asleep_on.set(empty.then_some(tail));
                        }
                    }
                }
            };
            // The submitter took the flag to ring the doorbell that started
            // this drain, so it is clear.
            client(0);
            flush();
            client(1);
            let rechecked = Cell::new(false);
            let mut parked = ring.park(|| {
                client(2);
                rechecked.set(true);
                flush()
            });
            // A park that skips the re-check still ran its steps after the
            // flag went up.
            if !rechecked.get() {
                client(2);
            }
            client(3);
            // Parked, or it notifies and passes again (nothing more to pop).
            while !parked {
                parked = ring.park(flush);
            }
            let in_cq = ring.queued(ring.geo.cq()).1;
            assert_eq!(
                popped.get() + in_cq + overflowed.get() as u32,
                RING_SLOTS + 1,
                "a completion was lost or duplicated: {gaps:?}"
            );
            let sleeps_for_good = asleep_on.get() == Some(ring.cq_tail()) && !rang.get();
            assert!(
                !(sleeps_for_good && overflowed.get()),
                "the process sleeps while a completion stays stranded: {gaps:?}"
            );
        }
        assert_eq!(schedules, 20);
    }

    #[test]
    fn registered_buffers_allocate_fill_and_free() {
        let ring = ring();
        let fill = |i: u32| vec![i as u8; REG_BUF_BYTES as usize];
        let all = (1 << REG_BUF_COUNT) - 1;
        for i in 0..REG_BUF_COUNT {
            assert!(ring.push_cqe(i, &fill(i)));
        }
        assert_eq!(bitmap(&ring), all);
        assert!(!ring.push_cqe(99, &fill(99)), "pool exhausted");
        assert_eq!(ring.pop_cqe(), Some((0, fill(0))));
        assert_eq!(bitmap(&ring), all - 1, "popping frees the buffer");
        assert!(ring.push_cqe(REG_BUF_COUNT, &fill(REG_BUF_COUNT)));
        assert_eq!(bitmap(&ring), all, "freed buffer is reused");
        for i in 1..=REG_BUF_COUNT {
            assert_eq!(ring.pop_cqe(), Some((i, fill(i))));
        }
        assert_eq!(bitmap(&ring), 0);
    }

    /// The registered-buffer allocation bitmap.
    fn bitmap(ring: &Ring) -> u32 {
        ring.sab().load_u32(ring.geo.bufs()).unwrap()
    }
}
