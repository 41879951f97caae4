//! `SharedArrayBuffer` and `Atomics`.
//!
//! Synchronous Browsix processes share their heap with the kernel: the
//! process writes system calls into a ring inside the buffer, the kernel
//! writes the results back, and each side blocks in `Atomics.wait` on a word
//! the other one advances and `Atomics.notify`s.  This module provides that
//! machinery, built as what it models: memory words that are atomics.
//!
//! # Storage: segments committed on first touch
//!
//! The buffer is a table of fixed-size segments (4 KiB each, the last one
//! shorter), every one allocated by the first *store* that lands in
//! it.  A load from a segment nothing was ever stored to reads zeroes and
//! allocates nothing, so a fresh buffer costs its table and a process pays
//! for the pages of its heap that it uses — never for a zero-fill of the
//! whole heap, whichever way the allocator would have come by that memory.
//!
//! # Orderings
//!
//! * Word operations — [`load_i32`](SharedArrayBuffer::load_i32),
//!   [`store_i32`](SharedArrayBuffer::store_i32),
//!   [`fetch_or_i32`](SharedArrayBuffer::fetch_or_i32),
//!   [`fetch_and_i32`](SharedArrayBuffer::fetch_and_i32),
//!   [`compare_exchange_i32`](SharedArrayBuffer::compare_exchange_i32) — are
//!   single `SeqCst` operations, as JavaScript's `Atomics.*` are sequentially
//!   consistent.  They take 4-byte-aligned offsets only: an `Int32Array`
//!   cannot name any other word ([`PlatformError::Unaligned`]).
//! * Bulk copies — [`write_bytes`](SharedArrayBuffer::write_bytes) and
//!   [`read_bytes`](SharedArrayBuffer::read_bytes) — are `Relaxed` word
//!   copies, like plain typed-array accesses; a first or last word covered
//!   only in part is merged with one atomic read-modify-write, so the bytes
//!   beside it never tear.  Bytes are *published* by a word operation that
//!   follows them (a ring's tail store) and *acquired* by the one that
//!   precedes reading them (the load of that tail).
//! * A word load that finds its segment uncommitted observes "never
//!   written"; [`wait`](SharedArrayBuffer::wait) commits the segment of the
//!   word it sleeps on, so the protocol below only ever runs on real words.
//!
//! # `wait`/`notify`: a sleeper count, and why no wake is lost
//!
//! Waiters sleep on one condition variable, told apart by a per-address
//! notification sequence in a table under a mutex.  A notifier must not pay
//! for that mutex when nobody sleeps, so the buffer also counts sleepers:
//!
//! * a **waiter** takes the table lock, increments the count, and *then*
//!   reads the word; only if it holds the expected value does it sleep
//!   (releasing the lock atomically with going to sleep);
//! * a **notifier** stores the word and *then* reads the count; at zero it
//!   returns without touching the table.
//!
//! Both steps are `SeqCst`, so one of the two always sees the other
//! (Dekker): a notifier that read zero ran before the increment, hence
//! before the waiter's read, which therefore sees the new value and returns
//! `NotEqual`; a notifier that read non-zero takes the lock — either before
//! the waiter did, and the waiter's read under the lock sees the new value,
//! or once the waiter is asleep, and bumping the sequence wakes it.
//!
//! The condition variable is signalled only *after* the table lock is
//! dropped.  Signalling under the lock makes every woken thread collide with
//! the mutex its waker still holds and go back to sleep once more, which
//! doubles the cost of the one-waiter hand-off every system call pays.

use std::collections::HashMap;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicU32, AtomicUsize};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::PlatformError;

/// Bytes per storage segment: one page, so that a process which touches a
/// queue header here and a slot there commits what a demand-zeroed mapping
/// would have (with 16 KiB segments 64 parked ring processes held 1.3 MiB
/// more), and far below any allocator's large-allocation threshold.
const SEGMENT_BYTES: usize = 4 * 1024;

/// Result of an [`SharedArrayBuffer::wait`] call, mirroring the strings
/// returned by `Atomics.wait` ("ok", "not-equal", "timed-out").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicsWaitResult {
    /// The waiter was woken by a notify.
    Ok,
    /// The value at the address did not match the expected value.
    NotEqual,
    /// The wait timed out before a notify arrived.
    TimedOut,
}

/// An address at least one thread sleeps on.
struct WaitAddress {
    /// Bumped by every notify; a waiter wakes once it differs from what it
    /// recorded before sleeping.
    seq: u64,
    waiters: usize,
}

struct SabInner {
    len: usize,
    segments: Box<[OnceLock<Box<[AtomicU32]>>]>,
    /// Threads inside the sleeping half of `wait`, on any address.
    sleepers: AtomicUsize,
    waits: Mutex<HashMap<usize, WaitAddress>>,
    cond: Condvar,
}

impl SabInner {
    /// The words of segment `index` if anything was ever stored there.
    fn committed(&self, index: usize) -> Option<&[AtomicU32]> {
        self.segments[index].get().map(|words| &**words)
    }

    /// The words of segment `index`, allocated (zeroed) on first use.
    fn commit(&self, index: usize) -> &[AtomicU32] {
        self.segments[index].get_or_init(|| {
            let words = (self.len - index * SEGMENT_BYTES).min(SEGMENT_BYTES).div_ceil(4);
            (0..words).map(|_| AtomicU32::new(0)).collect()
        })
    }
}

/// A block of memory shared between a worker and the kernel.
///
/// Cloning a `SharedArrayBuffer` produces another handle to the *same*
/// memory, exactly like transferring a `SharedArrayBuffer` over
/// `postMessage` in the browser.
#[derive(Clone)]
pub struct SharedArrayBuffer {
    inner: Arc<SabInner>,
}

impl std::fmt::Debug for SharedArrayBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedArrayBuffer").field("len", &self.len()).finish()
    }
}

/// Handle identity, not content: two handles are equal when they name the
/// same underlying memory, exactly as `===` compares `SharedArrayBuffer`
/// objects received over `postMessage`.
impl PartialEq for SharedArrayBuffer {
    fn eq(&self, other: &SharedArrayBuffer) -> bool {
        self.same_buffer(other)
    }
}

/// Copies `src` over the bytes starting `at` bytes into a segment.
fn copy_in(words: &[AtomicU32], at: usize, src: &[u8]) {
    let (mut word, shift) = (at / 4, at % 4);
    let (head, rest) = src.split_at(if shift == 0 { 0 } else { (4 - shift).min(src.len()) });
    let (body, tail) = rest.split_at(rest.len() & !3);
    if !head.is_empty() {
        merge(&words[word], shift, head);
        word += 1;
    }
    let whole = &words[word..word + body.len() / 4];
    for (word, bytes) in whole.iter().zip(body.chunks_exact(4)) {
        word.store(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]), Relaxed);
    }
    if !tail.is_empty() {
        merge(&words[word + whole.len()], 0, tail);
    }
}

/// Replaces bytes `shift..shift + bytes.len()` of one word, atomically with
/// respect to the bytes beside them.
fn merge(word: &AtomicU32, shift: usize, bytes: &[u8]) {
    let (mut value, mut mask) = ([0u8; 4], [0u8; 4]);
    value[shift..shift + bytes.len()].copy_from_slice(bytes);
    mask[shift..shift + bytes.len()].fill(0xff);
    let (value, mask) = (u32::from_le_bytes(value), u32::from_le_bytes(mask));
    let _ = word.fetch_update(Relaxed, Relaxed, |old| Some(old & !mask | value));
}

/// Fills `dst` from the bytes starting `at` bytes into a segment.
fn copy_out(words: &[AtomicU32], at: usize, dst: &mut [u8]) {
    let (mut word, shift) = (at / 4, at % 4);
    let head = if shift == 0 { 0 } else { (4 - shift).min(dst.len()) };
    let (head, rest) = dst.split_at_mut(head);
    let body = rest.len() & !3;
    let (body, tail) = rest.split_at_mut(body);
    if !head.is_empty() {
        head.copy_from_slice(&words[word].load(Relaxed).to_le_bytes()[shift..shift + head.len()]);
        word += 1;
    }
    let whole = &words[word..word + body.len() / 4];
    for (word, bytes) in whole.iter().zip(body.chunks_exact_mut(4)) {
        bytes.copy_from_slice(&word.load(Relaxed).to_le_bytes());
    }
    if !tail.is_empty() {
        tail.copy_from_slice(&words[word + whole.len()].load(Relaxed).to_le_bytes()[..tail.len()]);
    }
}

impl SharedArrayBuffer {
    /// Creates a zero-filled shared buffer of `len` bytes.  No segment is
    /// committed until something is stored in it.
    pub fn new(len: usize) -> Self {
        SharedArrayBuffer {
            inner: Arc::new(SabInner {
                len,
                segments: (0..len.div_ceil(SEGMENT_BYTES)).map(|_| OnceLock::new()).collect(),
                sleepers: AtomicUsize::new(0),
                waits: Mutex::new(HashMap::new()),
                cond: Condvar::new(),
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the buffer has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether two handles refer to the same underlying memory.
    pub fn same_buffer(&self, other: &SharedArrayBuffer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<(), PlatformError> {
        if offset.checked_add(len).is_some_and(|end| end <= self.len()) {
            Ok(())
        } else {
            Err(PlatformError::OutOfBounds {
                offset,
                len,
                capacity: self.len(),
            })
        }
    }

    /// Checks that `offset` names a whole word inside the buffer and returns
    /// its segment and its index there.
    fn locate_word(&self, offset: usize) -> Result<(usize, usize), PlatformError> {
        self.check_bounds(offset, 4)?;
        if !offset.is_multiple_of(4) {
            return Err(PlatformError::Unaligned { offset });
        }
        Ok((offset / SEGMENT_BYTES, offset % SEGMENT_BYTES / 4))
    }

    /// The word at `offset`, its segment committed.
    fn word(&self, offset: usize) -> Result<&AtomicU32, PlatformError> {
        let (segment, index) = self.locate_word(offset)?;
        Ok(&self.inner.commit(segment)[index])
    }

    /// Copies `src` into the buffer at `offset`, committing the segments it
    /// lands in.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::OutOfBounds`] if the write would exceed the
    /// buffer's capacity.
    pub fn write_bytes(&self, offset: usize, src: &[u8]) -> Result<(), PlatformError> {
        self.check_bounds(offset, src.len())?;
        let (mut at, mut src) = (offset, src);
        while !src.is_empty() {
            let within = at % SEGMENT_BYTES;
            let (chunk, rest) = src.split_at((SEGMENT_BYTES - within).min(src.len()));
            copy_in(self.inner.commit(at / SEGMENT_BYTES), within, chunk);
            at += chunk.len();
            src = rest;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `offset`.  Segments never stored to
    /// read as zeroes and stay uncommitted.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::OutOfBounds`] if the read would exceed the
    /// buffer's capacity.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Result<Vec<u8>, PlatformError> {
        self.check_bounds(offset, len)?;
        let mut out = vec![0u8; len];
        let (mut at, mut dst) = (offset, &mut out[..]);
        while !dst.is_empty() {
            let within = at % SEGMENT_BYTES;
            let (chunk, rest) = dst.split_at_mut((SEGMENT_BYTES - within).min(dst.len()));
            if let Some(words) = self.inner.committed(at / SEGMENT_BYTES) {
                copy_out(words, within, chunk);
            }
            at += chunk.len();
            dst = rest;
        }
        Ok(out)
    }

    /// `Atomics.store`: stores an `i32` at byte offset `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::OutOfBounds`] if the store is out of range,
    /// [`PlatformError::Unaligned`] if `offset` is not a multiple of 4.
    pub fn store_i32(&self, offset: usize, value: i32) -> Result<(), PlatformError> {
        self.word(offset)?.store(value as u32, SeqCst);
        Ok(())
    }

    /// `Atomics.load`: loads the `i32` at byte offset `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::OutOfBounds`] if the load is out of range,
    /// [`PlatformError::Unaligned`] if `offset` is not a multiple of 4.
    pub fn load_i32(&self, offset: usize) -> Result<i32, PlatformError> {
        let (segment, index) = self.locate_word(offset)?;
        let words = self.inner.committed(segment);
        Ok(words.map_or(0, |words| words[index].load(SeqCst)) as i32)
    }

    /// [`SharedArrayBuffer::load_i32`], reinterpreted as a `u32`.
    ///
    /// # Errors
    ///
    /// As [`SharedArrayBuffer::load_i32`].
    pub fn load_u32(&self, offset: usize) -> Result<u32, PlatformError> {
        self.load_i32(offset).map(|v| v as u32)
    }

    /// `Atomics.or`: ORs `value` into the `i32` at byte offset `offset` and
    /// returns the previous value.
    ///
    /// # Errors
    ///
    /// As [`SharedArrayBuffer::store_i32`].
    pub fn fetch_or_i32(&self, offset: usize, value: i32) -> Result<i32, PlatformError> {
        Ok(self.word(offset)?.fetch_or(value as u32, SeqCst) as i32)
    }

    /// `Atomics.and`: ANDs `value` into the `i32` at byte offset `offset`
    /// and returns the previous value.
    ///
    /// # Errors
    ///
    /// As [`SharedArrayBuffer::store_i32`].
    pub fn fetch_and_i32(&self, offset: usize, value: i32) -> Result<i32, PlatformError> {
        Ok(self.word(offset)?.fetch_and(value as u32, SeqCst) as i32)
    }

    /// `Atomics.compareExchange`: stores `new` at byte offset `offset` if
    /// the `i32` there equals `expected`.  Returns the previous value either
    /// way, so the exchange happened exactly when it equals `expected`.
    ///
    /// # Errors
    ///
    /// As [`SharedArrayBuffer::store_i32`].
    pub fn compare_exchange_i32(&self, offset: usize, expected: i32, new: i32) -> Result<i32, PlatformError> {
        let word = self.word(offset)?;
        let (Ok(old) | Err(old)) = word.compare_exchange(expected as u32, new as u32, SeqCst, SeqCst);
        Ok(old as i32)
    }

    /// `Atomics.wait`: blocks until a notify on byte offset `offset`
    /// arrives, unless the value there differs from `expected` on entry, or
    /// until the optional timeout expires.
    ///
    /// # Errors
    ///
    /// As [`SharedArrayBuffer::store_i32`].
    pub fn wait(
        &self,
        offset: usize,
        expected: i32,
        timeout: Option<Duration>,
    ) -> Result<AtomicsWaitResult, PlatformError> {
        let word = self.word(offset)?;
        let inner = &*self.inner;
        let mut waits = inner.waits.lock();
        // Count, then read: see the module docs for why this order (and the
        // notifier's opposite one) cannot lose a wake.
        inner.sleepers.fetch_add(1, SeqCst);
        let result = if word.load(SeqCst) as i32 != expected {
            AtomicsWaitResult::NotEqual
        } else {
            let address = waits.entry(offset).or_insert(WaitAddress { seq: 0, waiters: 0 });
            address.waiters += 1;
            let observed = address.seq;
            let deadline = timeout.map(|timeout| Instant::now() + timeout);
            let result = loop {
                match deadline.map(|deadline| deadline.saturating_duration_since(Instant::now())) {
                    None => inner.cond.wait(&mut waits),
                    Some(left) if left.is_zero() => break AtomicsWaitResult::TimedOut,
                    Some(left) => {
                        inner.cond.wait_for(&mut waits, left);
                    }
                }
                if waits[&offset].seq != observed {
                    break AtomicsWaitResult::Ok;
                }
            };
            let address = waits.get_mut(&offset).expect("this waiter is still counted");
            address.waiters -= 1;
            if address.waiters == 0 {
                waits.remove(&offset);
            }
            result
        };
        inner.sleepers.fetch_sub(1, SeqCst);
        Ok(result)
    }

    /// `Atomics.notify`: wakes the waiters blocked on byte offset `offset`
    /// and returns how many there were — 0, without taking any lock, when
    /// nobody sleeps on this buffer.
    ///
    /// All waiters on the address are woken whatever `count` says and left
    /// to re-check their condition, which the specification allows.
    pub fn notify(&self, offset: usize, _count: u32) -> usize {
        if self.inner.sleepers.load(SeqCst) == 0 {
            return 0;
        }
        let woken = {
            let mut waits = self.inner.waits.lock();
            waits.get_mut(&offset).map_or(0, |address| {
                address.seq += 1;
                address.waiters
            })
        };
        // The lock is gone: see the module docs.
        if woken > 0 {
            self.inner.cond.notify_all();
        }
        woken
    }

    /// Stores `value` at `offset` and notifies the waiters on that address —
    /// the "complete a blocking call" step.
    ///
    /// # Errors
    ///
    /// As [`SharedArrayBuffer::store_i32`].
    pub fn store_and_notify(&self, offset: usize, value: i32) -> Result<(), PlatformError> {
        self.store_i32(offset, value)?;
        self.notify(offset, u32::MAX);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn read_write_round_trip() {
        let sab = SharedArrayBuffer::new(64);
        sab.write_bytes(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(sab.read_bytes(8, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(sab.len(), 64);
        assert!(!sab.is_empty());
    }

    #[test]
    fn i32_round_trip() {
        let sab = SharedArrayBuffer::new(16);
        sab.store_i32(4, -1234).unwrap();
        assert_eq!(sab.load_i32(4).unwrap(), -1234);
        assert_eq!(
            sab.read_bytes(4, 4).unwrap(),
            (-1234i32).to_le_bytes(),
            "words are little-endian"
        );
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let sab = SharedArrayBuffer::new(8);
        assert!(sab.write_bytes(6, &[0; 4]).is_err());
        assert!(sab.read_bytes(9, 1).is_err());
        assert!(sab.load_i32(5).is_err());
        assert!(sab.wait(6, 0, None).is_err());
    }

    #[test]
    fn word_operations_refuse_unaligned_offsets() {
        let sab = SharedArrayBuffer::new(16);
        let unaligned = Err(PlatformError::Unaligned { offset: 6 });
        assert_eq!(sab.load_i32(6), unaligned);
        assert_eq!(sab.store_i32(6, 1), unaligned.clone().map(|_| ()));
        assert_eq!(sab.fetch_or_i32(6, 1), unaligned);
        assert_eq!(sab.fetch_and_i32(6, 1), unaligned);
        assert_eq!(sab.compare_exchange_i32(6, 0, 1), unaligned);
        assert_eq!(sab.store_and_notify(6, 1), unaligned.clone().map(|_| ()));
        assert_eq!(sab.wait(6, 0, None).err(), unaligned.err());
        assert_eq!(sab.read_bytes(0, 16).unwrap(), vec![0; 16], "nothing was stored");
        // Out of bounds wins over unaligned, as it did before there was one.
        assert!(matches!(sab.load_i32(14), Err(PlatformError::OutOfBounds { .. })));
    }

    #[test]
    fn wait_returns_not_equal_when_value_differs() {
        let sab = SharedArrayBuffer::new(16);
        sab.store_i32(0, 7).unwrap();
        assert_eq!(sab.wait(0, 0, None).unwrap(), AtomicsWaitResult::NotEqual);
    }

    #[test]
    fn wait_times_out() {
        let sab = SharedArrayBuffer::new(16);
        let result = sab.wait(0, 0, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(result, AtomicsWaitResult::TimedOut);
    }

    #[test]
    fn notify_wakes_waiter_across_threads() {
        let sab = SharedArrayBuffer::new(16);
        assert_eq!(sab.notify(0, 1), 0, "nobody is waiting yet");
        let waiter = sab.clone();
        let handle = thread::spawn(move || waiter.wait(0, 0, Some(Duration::from_secs(5))).unwrap());
        // A notify reports a waiter only once one sleeps, and wakes it.
        while sab.notify(0, 1) == 0 {
            thread::yield_now();
        }
        assert_eq!(handle.join().unwrap(), AtomicsWaitResult::Ok);
        assert_eq!(sab.notify(0, 1), 0, "the waiter left");
        assert_eq!(sab.notify(4, 1), 0);
    }

    #[test]
    fn fetch_or_and_round_trip() {
        let sab = SharedArrayBuffer::new(16);
        assert_eq!(sab.fetch_or_i32(0, 0b0101).unwrap(), 0);
        assert_eq!(sab.fetch_or_i32(0, 0b0010).unwrap(), 0b0101);
        assert_eq!(sab.load_i32(0).unwrap(), 0b0111);
        assert_eq!(sab.fetch_and_i32(0, !0b0001).unwrap(), 0b0111);
        assert_eq!(sab.load_i32(0).unwrap(), 0b0110);
        assert!(sab.fetch_or_i32(14, 1).is_err());
    }

    #[test]
    fn compare_exchange_stores_only_on_a_match() {
        let sab = SharedArrayBuffer::new(16);
        assert_eq!(sab.compare_exchange_i32(8, 0, 5).unwrap(), 0);
        assert_eq!(
            sab.compare_exchange_i32(8, 0, 9).unwrap(),
            5,
            "no match: the word is reported"
        );
        assert_eq!(sab.load_i32(8).unwrap(), 5, "and left alone");
    }

    #[test]
    fn clones_share_memory() {
        let sab = SharedArrayBuffer::new(8);
        let other = sab.clone();
        sab.store_i32(0, 99).unwrap();
        assert_eq!(other.load_i32(0).unwrap(), 99);
        assert!(sab.same_buffer(&other));
        assert!(!sab.same_buffer(&SharedArrayBuffer::new(8)));
    }

    // --- segments -----------------------------------------------------------

    fn committed_segments(sab: &SharedArrayBuffer) -> usize {
        (0..sab.inner.segments.len())
            .filter(|&index| sab.inner.committed(index).is_some())
            .count()
    }

    #[test]
    fn segments_are_committed_by_the_first_store_only() {
        let sab = SharedArrayBuffer::new(1 << 20);
        assert_eq!(committed_segments(&sab), 0);
        assert_eq!(sab.read_bytes(0, 1 << 20).unwrap(), vec![0u8; 1 << 20]);
        assert_eq!(sab.load_i32(5 * SEGMENT_BYTES).unwrap(), 0);
        assert_eq!(committed_segments(&sab), 0, "reading commits nothing");
        sab.write_bytes(3 * SEGMENT_BYTES + 17, &[9]).unwrap();
        assert_eq!(committed_segments(&sab), 1);
        assert_eq!(sab.read_bytes(3 * SEGMENT_BYTES + 16, 3).unwrap(), [0, 9, 0]);
        // A write across a boundary commits both sides of it, and no more.
        sab.write_bytes(8 * SEGMENT_BYTES - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(committed_segments(&sab), 3);
        assert_eq!(sab.read_bytes(8 * SEGMENT_BYTES - 3, 6).unwrap(), [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn the_last_segment_is_as_short_as_the_buffer() {
        let sab = SharedArrayBuffer::new(SEGMENT_BYTES + 6);
        sab.write_bytes(SEGMENT_BYTES + 3, &[7, 8, 9]).unwrap();
        assert_eq!(sab.inner.committed(1).unwrap().len(), 2, "six bytes are two words");
        assert_eq!(sab.read_bytes(SEGMENT_BYTES, 6).unwrap(), [0, 0, 0, 7, 8, 9]);
        assert!(sab.write_bytes(SEGMENT_BYTES + 4, &[0; 3]).is_err());
        assert!(sab.load_i32(SEGMENT_BYTES + 4).is_err(), "half a word is no word");
    }

    #[test]
    fn an_unaligned_write_leaves_its_neighbours_alone() {
        let sab = SharedArrayBuffer::new(16);
        sab.write_bytes(0, &[0xaa; 16]).unwrap();
        sab.write_bytes(5, &[1, 2, 3]).unwrap();
        sab.write_bytes(11, &[4, 5, 6]).unwrap();
        let expected = [
            0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 1, 2, 3, 0xaa, 0xaa, 0xaa, 4, 5, 6, 0xaa, 0xaa,
        ];
        assert_eq!(sab.read_bytes(0, 16).unwrap(), expected);
        assert_eq!(sab.read_bytes(6, 7).unwrap(), expected[6..13]);
    }

    // --- the new buffer against the old one ---------------------------------

    /// The buffer as it was before it had words and segments — one
    /// `Mutex<Vec<u8>>`, every access a lock and a byte copy — kept as the
    /// reference model.
    struct Model(Mutex<Vec<u8>>);

    impl Model {
        fn check_bounds(&self, offset: usize, len: usize, capacity: usize) -> Result<(), PlatformError> {
            if offset.checked_add(len).map(|end| end <= capacity).unwrap_or(false) {
                Ok(())
            } else {
                Err(PlatformError::OutOfBounds { offset, len, capacity })
            }
        }

        fn write_bytes(&self, offset: usize, src: &[u8]) -> Result<(), PlatformError> {
            let mut data = self.0.lock();
            let capacity = data.len();
            self.check_bounds(offset, src.len(), capacity)?;
            data[offset..offset + src.len()].copy_from_slice(src);
            Ok(())
        }

        fn read_bytes(&self, offset: usize, len: usize) -> Result<Vec<u8>, PlatformError> {
            let data = self.0.lock();
            self.check_bounds(offset, len, data.len())?;
            Ok(data[offset..offset + len].to_vec())
        }

        fn store_i32(&self, offset: usize, value: i32) -> Result<(), PlatformError> {
            self.write_bytes(offset, &value.to_le_bytes())
        }

        fn load_i32(&self, offset: usize) -> Result<i32, PlatformError> {
            let bytes = self.read_bytes(offset, 4)?;
            Ok(i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
        }

        fn fetch_update_i32(&self, offset: usize, f: impl FnOnce(i32) -> i32) -> Result<i32, PlatformError> {
            let mut data = self.0.lock();
            let capacity = data.len();
            self.check_bounds(offset, 4, capacity)?;
            let old = i32::from_le_bytes([data[offset], data[offset + 1], data[offset + 2], data[offset + 3]]);
            let new = f(old).to_le_bytes();
            data[offset..offset + 4].copy_from_slice(&new);
            Ok(old)
        }
    }

    /// An offset that is interesting for a buffer of `len` bytes: anywhere
    /// (past the end included), beside a segment boundary, beside the end.
    fn pick_offset(len: usize, raw: u64) -> usize {
        let spread = (raw >> 8) as usize;
        match raw % 4 {
            0 => spread % (len + 9),
            1 => (1 + spread % 3) * SEGMENT_BYTES - 8 + (spread >> 2) % 17,
            2 => (len + 4).saturating_sub((spread % 17) + 4),
            _ => spread % 17,
        }
    }

    fn pick_len(raw: u64) -> usize {
        let spread = (raw >> 8) as usize;
        match raw % 4 {
            0 => spread % 9,
            1 => SEGMENT_BYTES - 4 + spread % 9,
            2 => spread % (3 * SEGMENT_BYTES + 1),
            _ => spread % 70,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn behaves_like_the_mutex_vec_it_replaced(
            len in 0usize..3 * SEGMENT_BYTES + 64,
            ops in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>(), any::<i32>()), 1..60),
        ) {
            let (sab, model) = (SharedArrayBuffer::new(len), Model(Mutex::new(vec![0; len])));
            for (kind, at, size, value) in ops {
                let offset = pick_offset(len, at);
                if kind >= 2 && !offset.is_multiple_of(4) && offset.checked_add(4).is_some_and(|end| end <= len) {
                    // The one deliberate difference: an in-range word that no
                    // `Int32Array` index names is refused, and nothing moves.
                    prop_assert_eq!(sab.load_i32(offset), Err(PlatformError::Unaligned { offset }));
                    continue;
                }
                match kind {
                    0 => {
                        let bytes: Vec<u8> = (0..pick_len(size)).map(|i| (value as usize + i * 7) as u8).collect();
                        prop_assert_eq!(sab.write_bytes(offset, &bytes), model.write_bytes(offset, &bytes));
                    }
                    1 => prop_assert_eq!(sab.read_bytes(offset, pick_len(size)), model.read_bytes(offset, pick_len(size))),
                    2 => prop_assert_eq!(sab.store_i32(offset, value), model.store_i32(offset, value)),
                    3 => prop_assert_eq!(sab.load_i32(offset), model.load_i32(offset)),
                    4 => prop_assert_eq!(sab.fetch_or_i32(offset, value), model.fetch_update_i32(offset, |old| old | value)),
                    _ => prop_assert_eq!(sab.fetch_and_i32(offset, value), model.fetch_update_i32(offset, |old| old & value)),
                }
            }
            prop_assert_eq!(sab.read_bytes(0, len), model.read_bytes(0, len));
        }
    }

    // --- lost wakes -----------------------------------------------------------

    /// Two threads hand a turn counter back and forth through word 0 with
    /// `store_and_notify` and an untimed `wait`: a wake lost anywhere hangs
    /// a side for good, which the watchdog turns into a failure.  `jitter`
    /// makes each side dawdle 0–2 µs before it waits, so that notifiers
    /// keep catching waiters halfway through registering.
    fn ping_pong(turns: i32, jitter: bool) {
        let sab = SharedArrayBuffer::new(16);
        let (done_tx, done_rx) = mpsc::channel();
        let player = |parity: i32, sab: SharedArrayBuffer, done: mpsc::Sender<()>| {
            move || {
                let mut noise = 0x9e37_79b9_7f4a_7c15u64 ^ parity as u64;
                // This side moves on the turns of its parity, and sleeps
                // through the others.
                for turn in (parity..turns).step_by(2) {
                    loop {
                        let seen = sab.load_i32(0).unwrap();
                        if seen == turn {
                            break;
                        }
                        if jitter {
                            noise ^= noise << 13;
                            noise ^= noise >> 7;
                            noise ^= noise << 17;
                            let dawdle = Duration::from_nanos(noise % 2_000);
                            let start = Instant::now();
                            while start.elapsed() < dawdle {
                                std::hint::spin_loop();
                            }
                        }
                        sab.wait(0, seen, None).unwrap();
                    }
                    sab.store_and_notify(0, turn + 1).unwrap();
                }
                let _ = done.send(());
            }
        };
        let threads = [
            thread::spawn(player(0, sab.clone(), done_tx.clone())),
            thread::spawn(player(1, sab.clone(), done_tx)),
        ];
        for _ in &threads {
            done_rx
                .recv_timeout(Duration::from_secs(20))
                .expect("a wake was lost: a side sleeps on a word that has already moved on");
        }
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(sab.load_i32(0).unwrap(), turns);
        assert_eq!(sab.notify(0, 1), 0, "nobody is left asleep");
    }

    #[test]
    fn ping_pong_loses_no_wake() {
        ping_pong(200_000, false);
    }

    #[test]
    fn a_notifier_racing_a_registering_waiter_loses_no_wake() {
        ping_pong(200_000, true);
    }
}
