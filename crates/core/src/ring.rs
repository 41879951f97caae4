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
//! queue dry, and the process rings the doorbell (a kernel event, modelling
//! `Atomics.notify` on the kernel's wait address) only when it observes the
//! flag set — i.e. only on empty→non-empty transitions.
//!
//! Every word of the protocol is read and written with one sequentially
//! consistent `Atomics` operation ([`SharedArrayBuffer::load_i32`] and
//! friends); slot bytes are plain copies, published by the tail store that
//! follows them and acquired by the tail load that precedes reading them:
//!
//! | word                  | written by | ordering          | who waits on it |
//! |-----------------------|------------|-------------------|-----------------|
//! | SQ head               | kernel     | `SeqCst` store    | nobody (the process polls it for space) |
//! | SQ tail               | process    | `SeqCst` store    | nobody (a doorbell event stands in for `Atomics.notify`) |
//! | SQ flags (`NEED_WAKEUP`) | both    | `SeqCst` `or`/`and` | nobody |
//! | CQ head               | process    | `SeqCst` store    | nobody (the kernel retries overflow on the next drain) |
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
//! ([`Ring::push_cqe`]) it is the first of ⌈`len` / `buf_bytes`⌉ adjacent
//! registered buffers, which the consumer frees as it pops the entry.
//! [`Ring::pop_sqe`] and [`Ring::pop_cqe`] follow the reference — after
//! checking it, because the process can scribble on every byte of this
//! memory: a bad one pops as an empty payload, which nothing decodes from.
//! A result larger than the whole table ([`RingGeometry::max_spill_bytes`])
//! cannot travel at all; the kernel answers it `EOVERFLOW` and clamps ring
//! reads ([`RingGeometry::max_read_bytes`]) so that a read never gets there.
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

/// Maximum payload bytes one slot can carry.
pub const SLOT_PAYLOAD_BYTES: u32 = RING_SLOT_BYTES - 8;

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

/// Where the two queues and the buffer table sit inside the shared heap.
///
/// Carried by [`crate::Syscall::RingSetup`]; the kernel validates a geometry
/// against the registered heap before accepting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingGeometry {
    /// Byte offset of the SQ header.
    pub sq_offset: u32,
    /// Byte offset of the CQ header.
    pub cq_offset: u32,
    /// Slots per queue (power of two).
    pub slots: u32,
    /// Byte size of one slot.
    pub slot_bytes: u32,
    /// Byte offset of the registered-buffer table.
    pub buf_offset: u32,
    /// Number of registered buffers.
    pub buf_count: u32,
    /// Byte size of one registered buffer.
    pub buf_bytes: u32,
}

impl RingGeometry {
    /// The standard layout: SQ, CQ and buffer table packed back to back
    /// starting at `region_offset` within the shared heap.
    pub fn standard(region_offset: u32) -> RingGeometry {
        RingGeometry {
            sq_offset: region_offset,
            cq_offset: region_offset + RING_BYTES,
            slots: RING_SLOTS,
            slot_bytes: RING_SLOT_BYTES,
            buf_offset: region_offset + 2 * RING_BYTES,
            buf_count: REG_BUF_COUNT,
            buf_bytes: REG_BUF_BYTES,
        }
    }

    /// Whether this geometry is sane and fits a heap of `heap_len` bytes: a
    /// slot holds at least a spill reference, the buffer table is no larger
    /// than its one-word allocation bitmap, every offset into a region fits
    /// the `u32` arithmetic that computes it, and every header, slot and
    /// buffer starts on a word boundary — the protocol's words are reached
    /// through `Atomics`, which cannot name an unaligned one.
    pub fn validate(&self, heap_len: usize) -> bool {
        let fits = |offset: u32, header: u32, count: u32, each: u32| {
            let end = offset as u64 + header as u64 + count as u64 * each as u64;
            end <= heap_len as u64 && end <= u32::MAX as u64
        };
        let aligned = [
            self.sq_offset,
            self.cq_offset,
            self.buf_offset,
            self.slot_bytes,
            self.buf_bytes,
        ];
        aligned.iter().all(|bytes| bytes.is_multiple_of(4))
            && self.slots.is_power_of_two()
            && self.slot_bytes as usize >= 8 + REFERENCE_BYTES
            && self.buf_count <= 32
            && fits(self.sq_offset, RING_HEADER_BYTES, self.slots, self.slot_bytes)
            && fits(self.cq_offset, RING_HEADER_BYTES, self.slots, self.slot_bytes)
            && fits(
                self.buf_offset,
                REG_BUF_TABLE_HEADER_BYTES,
                self.buf_count,
                self.buf_bytes,
            )
    }

    /// Byte offset of the CQ tail word — the address the process blocks on
    /// with `Atomics.wait` while expecting completions.
    pub fn cq_tail_off(&self) -> usize {
        self.cq_offset as usize + TAIL
    }
    /// Byte offset of slot `index % slots` of the queue headed at `queue`.
    fn slot_off(&self, queue: u32, index: u32) -> usize {
        (queue + RING_HEADER_BYTES + index % self.slots * self.slot_bytes) as usize
    }
    fn buf_slot_off(&self, index: u32) -> usize {
        self.buf_offset as usize + REG_BUF_TABLE_HEADER_BYTES as usize + (index * self.buf_bytes) as usize
    }

    /// Maximum payload bytes one slot of this geometry can carry.
    pub fn slot_payload_bytes(&self) -> usize {
        self.slot_bytes as usize - 8
    }

    /// The largest completion the registered buffers can carry: the whole
    /// table, as one run.
    pub fn max_spill_bytes(&self) -> usize {
        self.buf_count as usize * self.buf_bytes as usize
    }

    /// The most bytes a `read` submitted through this ring can return: what
    /// is left of the largest completion after the `Data` result's header.
    pub fn max_read_bytes(&self) -> u32 {
        (self.max_spill_bytes().max(self.slot_payload_bytes()) - DATA_HEADER_BYTES) as u32
    }

    /// How many adjacent buffers a spilled completion of `len` bytes covers.
    fn buf_run(&self, len: usize) -> u32 {
        len.div_ceil(self.buf_bytes.max(1) as usize) as u32
    }
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
    /// Wraps a shared heap and a validated geometry.
    pub fn new(sab: SharedArrayBuffer, geo: RingGeometry) -> Ring {
        Ring { sab, geo }
    }

    /// The geometry this ring was mapped with.
    pub fn geometry(&self) -> &RingGeometry {
        &self.geo
    }

    /// The shared heap backing this ring.
    pub fn sab(&self) -> &SharedArrayBuffer {
        &self.sab
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
        (head, if queued > self.geo.slots { 0 } else { queued })
    }

    /// Writes one entry into the next free slot of the queue headed at
    /// `queue`.  Returns the tail index that publishes it, or `None`
    /// (without side effects) if the queue is full.
    fn write_slot(&self, queue: u32, user_data: u32, length_word: u32, payload: &[u8]) -> Option<u32> {
        if self.queued(queue).1 == self.geo.slots {
            return None;
        }
        let tail = self.load(queue as usize + TAIL);
        let slot = self.geo.slot_off(queue, tail);
        self.sab.write_bytes(slot + 8, payload).ok()?;
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
            let len = (length_word as usize).min(self.geo.slot_payload_bytes());
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
        self.geo.slots - self.queued(self.geo.sq_offset).1
    }

    /// Whether the SQ currently holds no published entries.
    pub fn sq_is_empty(&self) -> bool {
        self.queued(self.geo.sq_offset).1 == 0
    }

    fn publish_sqe(&self, user_data: u32, length_word: u32, payload: &[u8]) -> bool {
        let tail = self.write_slot(self.geo.sq_offset, user_data, length_word, payload);
        tail.is_some_and(|tail| {
            self.store(self.geo.sq_offset as usize + TAIL, tail);
            true
        })
    }

    /// Producer: writes one entry into the next free slot and publishes it.
    ///
    /// Returns `false` (without side effects) if the queue is full or the
    /// payload exceeds the slot capacity — spill that one with
    /// [`Ring::push_sqe_spilled`].
    pub fn push_sqe(&self, user_data: u32, payload: &[u8]) -> bool {
        payload.len() <= self.geo.slot_payload_bytes() && self.publish_sqe(user_data, payload.len() as u32, payload)
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
        self.pop(self.geo.sq_offset, |offset, len| {
            self.sab.read_bytes(offset as usize, len).ok()
        })
    }

    /// Current SQ flags word.
    pub fn sq_flags(&self) -> i32 {
        self.sab.load_i32(self.geo.sq_offset as usize + FLAGS).unwrap_or(0)
    }

    /// Kernel: parks the queue — sets `NEED_WAKEUP` so the next submission
    /// rings the doorbell.
    pub fn set_need_wakeup(&self) {
        let _ = self.sab.fetch_or_i32(self.geo.sq_offset as usize + FLAGS, NEED_WAKEUP);
    }

    /// Kernel: clears `NEED_WAKEUP` before re-draining.
    pub fn clear_need_wakeup(&self) {
        let _ = self
            .sab
            .fetch_and_i32(self.geo.sq_offset as usize + FLAGS, !NEED_WAKEUP);
    }

    /// Process: atomically consumes the `NEED_WAKEUP` flag.  Returns whether
    /// it was set, i.e. whether the doorbell must ring for this submission.
    pub fn take_doorbell(&self) -> bool {
        matches!(
            self.sab.fetch_and_i32(self.geo.sq_offset as usize + FLAGS, !NEED_WAKEUP),
            Ok(old) if old & NEED_WAKEUP != 0
        )
    }

    // --- completion queue -------------------------------------------------

    /// Free CQ slots from the producer's (kernel's) point of view.
    pub fn cq_space(&self) -> u32 {
        self.geo.slots - self.queued(self.geo.cq_offset).1
    }

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
    /// larger than [`RingGeometry::max_spill_bytes`] can never be pushed.
    pub fn push_cqe(&self, user_data: u32, payload: &[u8]) -> bool {
        let cq = self.geo.cq_offset;
        let tail = if payload.len() <= self.geo.slot_payload_bytes() {
            self.write_slot(cq, user_data, payload.len() as u32, payload)
        } else {
            let run = self.geo.buf_run(payload.len());
            let Some(first) = self.alloc_bufs(run) else {
                return false;
            };
            let reference = reference(first, payload.len());
            let spilled = self.sab.write_bytes(self.geo.buf_slot_off(first), payload).ok();
            let tail = spilled.and_then(|()| self.write_slot(cq, user_data, INDIRECT | 8, &reference));
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
        self.pop(self.geo.cq_offset, |first, len| {
            let run = self.geo.buf_run(len);
            if run == 0 || first >= self.geo.buf_count || run > self.geo.buf_count - first {
                return None;
            }
            let bytes = self.sab.read_bytes(self.geo.buf_slot_off(first), len).ok();
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
        if n == 0 || n > self.geo.buf_count {
            return None;
        }
        let word = self.geo.buf_offset as usize;
        let mut bitmap = self.load(word);
        loop {
            let first = (0..=self.geo.buf_count - n).find(|&first| bitmap & run_mask(first, n) == 0)?;
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
        let _ = self
            .sab
            .fetch_and_i32(self.geo.buf_offset as usize, !run_mask(first, n) as i32);
    }

    /// Kernel: claims a free registered buffer, marking it in the shared
    /// allocation bitmap.  Returns its index, or `None` if all are in use.
    pub fn alloc_buf(&self) -> Option<u32> {
        self.alloc_bufs(1)
    }

    /// Process: releases a registered buffer after copying its bytes out.
    pub fn free_buf(&self, index: u32) {
        if index < self.geo.buf_count {
            self.free_bufs(index, 1);
        }
    }

    /// Kernel: fills a registered buffer with result bytes.
    ///
    /// Returns `false` if the index or length is out of range.
    pub fn write_buf(&self, index: u32, data: &[u8]) -> bool {
        if index >= self.geo.buf_count || data.len() > self.geo.buf_bytes as usize {
            return false;
        }
        self.sab.write_bytes(self.geo.buf_slot_off(index), data).is_ok()
    }

    /// Process: copies result bytes out of a registered buffer.
    pub fn read_buf(&self, index: u32, len: usize) -> Option<Vec<u8>> {
        if index >= self.geo.buf_count || len > self.geo.buf_bytes as usize {
            return None;
        }
        self.sab.read_bytes(self.geo.buf_slot_off(index), len).ok()
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
    fn standard_geometry_is_valid_and_packed() {
        let geo = RingGeometry::standard(512 * 1024);
        assert!(geo.validate(1024 * 1024));
        assert_eq!(geo.cq_offset - geo.sq_offset, RING_BYTES);
        assert_eq!(geo.buf_offset - geo.cq_offset, RING_BYTES);
        assert!(geo.buf_offset + REG_BUF_TABLE_BYTES <= 1024 * 1024);
        // Too small a heap is rejected.
        assert!(!geo.validate(512 * 1024));
        // Non-power-of-two slot counts are rejected.
        let mut bad = geo;
        bad.slots = 48;
        assert!(!bad.validate(1024 * 1024));
        // So are slots too small for a spill reference, and more buffers
        // than the one-word allocation bitmap can track.
        let mut bad = geo;
        bad.slot_bytes = 12;
        assert!(!bad.validate(1024 * 1024));
        let mut bad = geo;
        (bad.buf_count, bad.buf_bytes) = (33, 16);
        assert!(!bad.validate(1024 * 1024));
    }

    #[test]
    fn geometry_off_the_word_grid_is_rejected() {
        let geo = RingGeometry::standard(512 * 1024);
        let knock: [fn(&mut RingGeometry); 5] = [
            |geo| geo.sq_offset += 2,
            |geo| geo.cq_offset += 1,
            |geo| geo.buf_offset += 3,
            |geo| geo.slot_bytes = 18,
            |geo| geo.buf_bytes -= 2,
        ];
        for (i, knock) in knock.iter().enumerate() {
            let mut bad = geo;
            knock(&mut bad);
            assert!(!bad.validate(1024 * 1024), "case {i}");
        }
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
        let oversized = vec![0u8; SLOT_PAYLOAD_BYTES as usize + 1];
        assert!(!ring.push_sqe(100, &oversized));
        let exactly = vec![0u8; SLOT_PAYLOAD_BYTES as usize];
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
        let result: Vec<u8> = (0..2 * REG_BUF_BYTES + 5).map(|i| i as u8).collect();
        assert_eq!(ring.alloc_buf(), Some(0));
        assert!(ring.push_cqe(9, &result));
        assert_eq!(ring.alloc_buf(), Some(4), "buffers 1..=3 carry the spill");
        assert_eq!(ring.pop_cqe(), Some((9, result)));
        assert_eq!(ring.alloc_buf(), Some(1));
        // No run of free buffers, no push; nothing is left half-claimed.
        assert!(!ring.push_cqe(10, &vec![0u8; 6 * REG_BUF_BYTES as usize]));
        for index in [0, 1, 4] {
            ring.free_buf(index);
        }
        let whole_table = vec![1u8; ring.geometry().max_spill_bytes()];
        assert!(ring.push_cqe(10, &whole_table));
        assert_eq!(ring.pop_cqe(), Some((10, whole_table)));
        assert!(!ring.push_cqe(11, &vec![0u8; ring.geometry().max_spill_bytes() + 1]));
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
        assert_eq!(ring.pop_sqe().unwrap().1.len(), SLOT_PAYLOAD_BYTES as usize);

        let cq_cases = [
            reference(REG_BUF_COUNT, 1),
            reference(REG_BUF_COUNT - 1, REG_BUF_BYTES as usize + 1),
            reference(0, (REG_BUF_COUNT * REG_BUF_BYTES) as usize + 1),
            reference(u32::MAX, u32::MAX as usize),
            reference(2, 0),
        ];
        let claimed = ring.alloc_buf().unwrap();
        for (i, case) in cq_cases.iter().enumerate() {
            assert!(ring.push_cqe(i as u32, b"placeholder"));
            scribble(&ring, 4096 + RING_BYTES, i as u32, INDIRECT | 8, case);
            assert_eq!(ring.pop_cqe(), Some((i as u32, Vec::new())), "case {i}");
        }
        assert_eq!(ring.alloc_buf(), Some(claimed + 1), "a bad reference frees nothing");
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
        assert_eq!(ring.cq_space(), RING_SLOTS);
        assert_eq!(ring.pop_cqe(), None);
    }

    #[test]
    fn read_cap_leaves_room_for_the_data_header() {
        let geo = RingGeometry::standard(0);
        let largest = crate::SysResult::Data(vec![0u8; geo.max_read_bytes() as usize]);
        let mut frame = Vec::new();
        largest.encode_into(&mut frame);
        assert_eq!(frame.len(), geo.max_spill_bytes());
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

    #[test]
    fn registered_buffers_allocate_fill_and_free() {
        let ring = ring();
        let mut claimed = Vec::new();
        for _ in 0..REG_BUF_COUNT {
            claimed.push(ring.alloc_buf().unwrap());
        }
        assert_eq!(ring.alloc_buf(), None, "pool exhausted");
        let buf = claimed[2];
        assert!(ring.write_buf(buf, b"bulk read payload"));
        assert_eq!(ring.read_buf(buf, 17).unwrap(), b"bulk read payload");
        ring.free_buf(buf);
        assert_eq!(ring.alloc_buf(), Some(buf), "freed buffer is reused");
        // Out-of-range indices and lengths are rejected.
        assert!(!ring.write_buf(REG_BUF_COUNT, b"x"));
        assert!(ring.read_buf(0, REG_BUF_BYTES as usize + 1).is_none());
        assert!(!ring.write_buf(0, &vec![0u8; REG_BUF_BYTES as usize + 1]));
    }
}
