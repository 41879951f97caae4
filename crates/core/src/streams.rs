//! Kernel byte streams: the single buffered-data object behind pipes *and*
//! socket connections.
//!
//! Browsix pipes are "implemented as in-memory buffers with read-side wait
//! queues": a bounded byte queue living inside the kernel.  A [`Stream`] is
//! that queue plus the reader/writer endpoint counts that decide EOF and
//! EPIPE, and the readiness predicates (`read_ready`/`write_ready`) that the
//! wait-queue subsystem and `poll` are built on.  Socket connections are two
//! streams, one per direction, sharing exactly this code — there is no
//! separate socket data path.
//!
//! # Who copies
//!
//! The queue is a deque of owned buffers, counted in bytes against
//! `capacity` exactly as one flat buffer would be, so that a stream can keep
//! what it is given:
//!
//! * [`Stream::push_owned`] takes a writer's buffer **by move** when it is
//!   at least [`DETACH_MIN_BYTES`] and fits whole — the buffer a large
//!   `write` arrived in beside its message frame;
//! * [`Stream::push`] **copies**, filling the tail buffer's spare room
//!   before opening a new one, so small writes and `sendfile`'s 4 KiB pages
//!   pile up into one buffer a reader can take whole;
//! * [`Stream::pop`] hands the front buffer out **by move** when the reader
//!   takes exactly all of it (and it is at least half full — a reader is
//!   never handed an allocation twice what it asked for), and otherwise
//!   **copies** the bytes out, across buffers if need be.
//!
//! So a 64 KiB write read back by a 64 KiB read is the same allocation end
//! to end, and anything else costs at most one copy in and one copy out, as
//! the flat ring did.  [`Stream::copied`] counts the bytes the two copying
//! paths moved, which is what the kernel reports as `bytes_copied`.
//!
//! Blocking lives elsewhere: a read on an empty stream or a write to a full
//! one parks the calling system call on the stream's wait queue
//! (`kernel::waitq`), and the state changes here (`push`, `pop`, endpoint
//! transitions) are what wake those queues.
//!
//! The endpoint counts are reference counts, maintained incrementally:
//! [`StreamTable::add_endpoints`] when an open-file description (or a kernel
//! hold — a backlog entry, an in-kernel HTTP client) starts referring to a
//! stream end, [`StreamTable::release_endpoints`] when the last reference to
//! that description goes away.  A release reports the edges it caused — last
//! writer gone (EOF), last reader gone (EPIPE) — so the kernel wakes exactly
//! those queues, and frees the stream the moment nobody can read or write
//! it any more, whatever is still buffered.  Nothing ever recounts.  That is
//! also all the lifetime a socket connection has: it is gone when its two
//! streams are.

use std::collections::{HashMap, VecDeque};

use crate::syscall::DETACH_MIN_BYTES;

/// Identifier of a kernel stream buffer.
pub type StreamId = u64;

/// Default stream capacity, matching the Linux pipe default of 64 KiB.
pub const DEFAULT_STREAM_CAPACITY: usize = 64 * 1024;

/// A single in-kernel bounded byte stream (buffer queue + endpoint counts).
#[derive(Debug)]
pub struct Stream {
    /// The buffered bytes, oldest first.  Only the front buffer is ever
    /// partly consumed (`head`), only the back one is ever appended to, and
    /// an empty buffer is kept only as the sole one, for the next `push` to
    /// fill.
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of the front buffer already popped.
    head: usize,
    /// Bytes currently buffered, over all of `bufs`.
    buffered: usize,
    capacity: usize,
    /// Bytes `push` and a copying `pop` have copied so far.
    copied: u64,
    /// Number of live open-file descriptions referring to the read end.
    pub readers: usize,
    /// Number of live open-file descriptions referring to the write end.
    pub writers: usize,
}

/// Everything readiness depends on, as one comparable value: what `poll`
/// reports is a function of this and nothing else, whether it was read off a
/// [`Stream`] this shard owns ([`Stream::state`]) or arrived from the shard
/// that does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamState {
    /// Data is buffered: a read would return bytes.
    pub readable: bool,
    /// All write ends are closed (EOF once drained).
    pub eof: bool,
    /// There is space: a write would accept bytes.
    pub writable: bool,
    /// All read ends are closed (writes raise EPIPE).
    pub epipe: bool,
    /// The stream no longer exists: reads see EOF, writes EPIPE.
    pub gone: bool,
}

impl StreamState {
    /// The state of a stream that has been freed.
    pub const GONE: StreamState = StreamState {
        readable: false,
        eof: false,
        writable: false,
        epipe: false,
        gone: true,
    };
}

/// What dropping endpoint references did to a stream: the wait queues the
/// kernel must wake, and the stream itself if that was its last reference.
#[derive(Debug, Default)]
pub struct Released {
    /// The last writer went away: blocked readers (and polls) must see EOF.
    pub eof: bool,
    /// The last reader went away: blocked writers must fail with EPIPE.
    pub epipe: bool,
    /// No reader and no writer is left, so the stream was removed from the
    /// table — buffered bytes nobody could ever read go with it.
    pub freed: Option<Stream>,
}

impl Stream {
    /// Creates an empty stream with the given capacity.
    pub fn new(capacity: usize) -> Stream {
        Stream {
            bufs: VecDeque::new(),
            head: 0,
            buffered: 0,
            capacity: capacity.max(1),
            copied: 0,
            readers: 0,
            writers: 0,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buffered
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Remaining space before writers must block.
    pub fn space(&self) -> usize {
        self.capacity - self.buffered
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether all write ends are closed (EOF once drained).
    pub fn write_end_closed(&self) -> bool {
        self.writers == 0
    }

    /// Whether all read ends are closed (writes raise EPIPE).
    pub fn read_end_closed(&self) -> bool {
        self.readers == 0
    }

    /// Whether a read would make progress right now: data is buffered, or the
    /// stream is at EOF (no writers left).  This is the single definition of
    /// read readiness used by blocking reads, `O_NONBLOCK` and `poll`.
    pub fn read_ready(&self) -> bool {
        !self.is_empty() || self.write_end_closed()
    }

    /// Whether a write would make progress right now: there is space, or the
    /// write would fail immediately with EPIPE (no readers left).
    pub fn write_ready(&self) -> bool {
        self.space() > 0 || self.read_end_closed()
    }

    /// The readiness snapshot of this stream.
    pub fn state(&self) -> StreamState {
        StreamState {
            readable: !self.is_empty(),
            eof: self.write_end_closed(),
            writable: self.space() > 0,
            epipe: self.read_end_closed(),
            gone: false,
        }
    }

    /// Bytes copied by this stream so far: every byte [`Stream::push`]
    /// accepted and every byte a [`Stream::pop`] could not hand out by move.
    pub fn copied(&self) -> u64 {
        self.copied
    }

    /// Appends as much of `data` as fits, by copy, returning the number of
    /// bytes accepted.  The bytes go into the tail buffer's spare room first
    /// and open a new buffer (allocated to `capacity`, touched as it fills)
    /// only for what is left, so pushes of any size coalesce.
    pub fn push(&mut self, data: &[u8]) -> usize {
        let accept = data.len().min(self.space());
        let mut rest = &data[..accept];
        if let Some(tail) = self.bufs.back_mut() {
            let fits = rest.len().min(tail.capacity() - tail.len());
            tail.extend_from_slice(&rest[..fits]);
            rest = &rest[fits..];
        }
        if !rest.is_empty() {
            let mut buf = Vec::with_capacity(self.capacity);
            buf.extend_from_slice(rest);
            self.bufs.push_back(buf);
        }
        self.buffered += accept;
        self.copied += accept as u64;
        accept
    }

    /// [`Stream::push`] for a writer that owns its buffer, returning the
    /// number of bytes accepted.  A buffer of at least
    /// [`DETACH_MIN_BYTES`] that fits whole is taken by move — `data` is
    /// left empty and nothing is copied; anything else is copied as `push`
    /// copies it and `data` is left as it was.
    pub fn push_owned(&mut self, data: &mut Vec<u8>) -> usize {
        let len = data.len();
        if len < DETACH_MIN_BYTES || len > self.space() {
            return self.push(data);
        }
        if self.bufs.back().is_some_and(Vec::is_empty) {
            self.bufs.pop_back();
        }
        self.bufs.push_back(std::mem::take(data));
        self.buffered += len;
        len
    }

    /// Removes and returns up to `len` bytes: the front buffer itself when
    /// that is exactly what the reader takes, a copy otherwise.
    pub fn pop(&mut self, len: usize) -> Vec<u8> {
        let take = len.min(self.buffered);
        if take == 0 {
            return Vec::new();
        }
        self.buffered -= take;
        let whole = |front: &Vec<u8>| front.len() == take && take >= front.capacity() / 2;
        if self.head == 0 && self.bufs.front().is_some_and(whole) {
            return self.bufs.pop_front().expect("a front buffer was just seen");
        }
        let mut out = Vec::with_capacity(take);
        while out.len() < take {
            let sole = self.bufs.len() == 1;
            let front = self.bufs.front_mut().expect("buffered bytes live in a buffer");
            let n = (take - out.len()).min(front.len() - self.head);
            out.extend_from_slice(&front[self.head..self.head + n]);
            self.head += n;
            if self.head == front.len() {
                self.head = 0;
                if sole {
                    front.clear();
                } else {
                    self.bufs.pop_front();
                }
            }
        }
        self.copied += take as u64;
        out
    }
}

/// The kernel's table of streams.
///
/// Ids encode the owning shard in their low
/// [`SHARD_ID_BITS`](crate::kernel::shard::SHARD_ID_BITS) bits (see
/// [`kernel::shard`](crate::kernel::shard)): a table created with
/// [`StreamTable::new_for_shard`] hands out ids congruent to its shard, so
/// any shard can route an operation on a foreign stream from the id alone.
#[derive(Debug, Default)]
pub struct StreamTable {
    next_id: StreamId,
    streams: HashMap<StreamId, Stream>,
}

impl StreamTable {
    /// Creates an empty table owned by shard 0.
    pub fn new() -> StreamTable {
        StreamTable::default()
    }

    /// Creates an empty table whose ids encode `shard`.
    pub fn new_for_shard(shard: usize) -> StreamTable {
        StreamTable {
            next_id: shard as StreamId,
            streams: HashMap::new(),
        }
    }

    /// Allocates a new stream with the default capacity and returns its id.
    pub fn create(&mut self) -> StreamId {
        self.create_with_capacity(DEFAULT_STREAM_CAPACITY)
    }

    /// Allocates a new stream with an explicit capacity.
    pub fn create_with_capacity(&mut self, capacity: usize) -> StreamId {
        let id = self.next_id;
        self.next_id += crate::kernel::shard::SHARD_ID_STRIDE;
        self.streams.insert(id, Stream::new(capacity));
        id
    }

    /// Looks up a stream.
    pub fn get(&self, id: StreamId) -> Option<&Stream> {
        self.streams.get(&id)
    }

    /// Looks up a stream mutably.
    pub fn get_mut(&mut self, id: StreamId) -> Option<&mut Stream> {
        self.streams.get_mut(&id)
    }

    /// Removes a stream whose endpoints are all gone.
    pub fn remove(&mut self, id: StreamId) {
        self.streams.remove(&id);
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether there are no live streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Counts `readers` more read-end and `writers` more write-end
    /// references on a stream.  Returns `false` (and counts nothing) if the
    /// stream does not exist.
    pub fn add_endpoints(&mut self, id: StreamId, readers: usize, writers: usize) -> bool {
        let Some(stream) = self.streams.get_mut(&id) else {
            return false;
        };
        stream.readers += readers;
        stream.writers += writers;
        true
    }

    /// Drops `readers` read-end and `writers` write-end references, reporting
    /// the EOF/EPIPE edges this caused.  A stream left with neither readers
    /// nor writers is removed and handed back in [`Released::freed`].
    pub fn release_endpoints(&mut self, id: StreamId, readers: usize, writers: usize) -> Released {
        let Some(stream) = self.streams.get_mut(&id) else {
            return Released::default();
        };
        debug_assert!(
            stream.readers >= readers && stream.writers >= writers,
            "stream {id}: releasing {readers}r/{writers}w of {}r/{}w",
            stream.readers,
            stream.writers
        );
        stream.readers = stream.readers.saturating_sub(readers);
        stream.writers = stream.writers.saturating_sub(writers);
        let mut released = Released {
            eof: writers > 0 && stream.writers == 0,
            epipe: readers > 0 && stream.readers == 0,
            freed: None,
        };
        if stream.readers == 0 && stream.writers == 0 {
            released.freed = self.streams.remove(&id);
        }
        released
    }

    /// Every live stream with its id (the endpoint audit walks this).
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StreamId, &Stream)> {
        self.streams.iter().map(|(&id, stream)| (id, stream))
    }

    /// Ids of all live streams (used by tests and statistics).
    pub fn ids(&self) -> Vec<StreamId> {
        self.streams.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The flat byte ring `Stream` used to be, kept as the oracle for the
    /// buffer queue: same bytes, same counts, whatever the buffers do.
    struct ByteRing {
        ring: Vec<u8>,
        head: usize,
        buffered: usize,
    }

    impl ByteRing {
        fn new(capacity: usize) -> ByteRing {
            ByteRing {
                ring: vec![0; capacity],
                head: 0,
                buffered: 0,
            }
        }

        fn push(&mut self, data: &[u8]) -> usize {
            let capacity = self.ring.len();
            let accept = data.len().min(capacity - self.buffered);
            for &byte in &data[..accept] {
                self.ring[(self.head + self.buffered) % capacity] = byte;
                self.buffered += 1;
            }
            accept
        }

        fn pop(&mut self, len: usize) -> Vec<u8> {
            let capacity = self.ring.len();
            let take = len.min(self.buffered);
            let out = (0..take).map(|i| self.ring[(self.head + i) % capacity]).collect();
            self.head = (self.head + take) % capacity;
            self.buffered -= take;
            out
        }
    }

    proptest! {
        /// Random interleavings of copied pushes, owned pushes and pops of
        /// 0…2×capacity bytes: the queue and the ring accept, hold and
        /// return the same bytes at every step, an owned push never takes
        /// the stream past its capacity, and `copied` counts exactly the
        /// bytes that were not moved.
        #[test]
        fn the_buffer_queue_is_the_byte_ring(
            (tiny, large) in (1usize..64, DETACH_MIN_BYTES..6 * DETACH_MIN_BYTES),
            is_large in any::<bool>(),
            ops in proptest::collection::vec((0u8..3, 0usize..1001, any::<u8>()), 1..64),
        ) {
            // Tiny streams wrap and fill constantly; large ones see moves.
            let capacity = if is_large { large } else { tiny };
            let mut stream = Stream::new(capacity);
            stream.readers = 1;
            stream.writers = 1;
            let mut oracle = ByteRing::new(capacity);
            let mut copied = 0u64;
            for &(op, size, fill) in &ops {
                let len = size * 2 * capacity / 1000;
                match op {
                    0 | 1 => {
                        let mut data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        let expected = oracle.push(&data);
                        let accepted = if op == 0 { stream.push(&data) } else { stream.push_owned(&mut data) };
                        prop_assert_eq!(accepted, expected);
                        if data.is_empty() && len > 0 {
                            prop_assert!(len >= DETACH_MIN_BYTES && accepted == len, "only a large, whole push moves");
                        } else {
                            prop_assert_eq!(data.len(), len, "a copied push leaves its buffer alone");
                            copied += accepted as u64;
                        }
                    }
                    _ => {
                        let staged = stream.bufs.front().filter(|_| stream.head == 0).map(|front| front.as_ptr());
                        let data = stream.pop(len);
                        prop_assert_eq!(&data, &oracle.pop(len));
                        if data.is_empty() || Some(data.as_ptr()) != staged {
                            copied += data.len() as u64;
                        } else {
                            prop_assert!(data.capacity() <= 2 * data.len() + 1, "a moved buffer is at least half full");
                        }
                    }
                }
                prop_assert_eq!(stream.len(), oracle.buffered);
                prop_assert!(stream.len() <= capacity);
                prop_assert_eq!(stream.space(), capacity - oracle.buffered);
                prop_assert_eq!(stream.state(), StreamState {
                    readable: oracle.buffered > 0,
                    eof: false,
                    writable: oracle.buffered < capacity,
                    epipe: false,
                    gone: false,
                });
                prop_assert_eq!(stream.copied(), copied);
                prop_assert_eq!(stream.bufs.iter().map(Vec::len).sum::<usize>() - stream.head, stream.len());
            }
        }
    }

    #[test]
    fn a_large_write_read_back_whole_is_the_same_allocation() {
        let mut stream = Stream::new(DEFAULT_STREAM_CAPACITY);
        let mut data = vec![0xA5u8; DEFAULT_STREAM_CAPACITY];
        let staged = data.as_ptr();
        assert_eq!(stream.push_owned(&mut data), DEFAULT_STREAM_CAPACITY);
        assert!(data.is_empty() && stream.space() == 0);
        let read = stream.pop(DEFAULT_STREAM_CAPACITY);
        assert_eq!((read.as_ptr(), read.len()), (staged, DEFAULT_STREAM_CAPACITY));
        assert_eq!(stream.copied(), 0);
    }

    #[test]
    fn small_pushes_coalesce_into_one_buffer_a_reader_takes_whole() {
        // `sendfile` pushes page by page; the reader still gets one 64 KiB
        // read, by move, and each byte was copied exactly once on the way.
        let mut stream = Stream::new(DEFAULT_STREAM_CAPACITY);
        for page in 0..16u8 {
            assert_eq!(stream.push(&[page; 4096]), 4096);
        }
        assert_eq!(stream.bufs.len(), 1);
        let staged = stream.bufs[0].as_ptr();
        let read = stream.pop(usize::MAX);
        assert_eq!((read.as_ptr(), read.len()), (staged, DEFAULT_STREAM_CAPACITY));
        assert_eq!(stream.copied(), DEFAULT_STREAM_CAPACITY as u64);
    }

    #[test]
    fn small_traffic_reuses_one_buffer() {
        // A 64-byte write answered by a 64-byte read must not cost a buffer
        // per push: the copy-out leaves the (cleared) buffer in place.
        let mut stream = Stream::new(DEFAULT_STREAM_CAPACITY);
        stream.push(&[1; 64]);
        let buffer = stream.bufs[0].as_ptr();
        for _ in 0..100 {
            assert_eq!(stream.pop(64), [1; 64]);
            assert_eq!(stream.push(&[1; 64]), 64);
            assert_eq!((stream.bufs.len(), stream.bufs[0].as_ptr()), (1, buffer));
        }
    }

    #[test]
    fn push_and_pop_preserve_fifo_order() {
        let mut stream = Stream::new(16);
        assert_eq!(stream.push(b"hello "), 6);
        assert_eq!(stream.push(b"world"), 5);
        assert_eq!(stream.pop(6), b"hello ");
        assert_eq!(stream.pop(100), b"world");
        assert!(stream.is_empty());
    }

    #[test]
    fn push_respects_capacity() {
        let mut stream = Stream::new(4);
        assert_eq!(stream.push(b"abcdef"), 4);
        assert_eq!(stream.space(), 0);
        assert_eq!(stream.push(b"x"), 0);
        stream.pop(2);
        assert_eq!(stream.space(), 2);
        assert_eq!(stream.push(b"yz!"), 2);
        assert_eq!(stream.pop(10), b"cdyz");
    }

    #[test]
    fn ring_wraps_across_the_boundary_many_times() {
        // Push/pop amounts that are coprime with the capacity so the head
        // sweeps every position in the ring.
        let mut stream = Stream::new(7);
        let mut sent = Vec::new();
        let mut received = Vec::new();
        let mut next = 0u8;
        for round in 0..50 {
            let n = (round % 5) + 1;
            let chunk: Vec<u8> = (0..n)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            let accepted = stream.push(&chunk);
            sent.extend_from_slice(&chunk[..accepted]);
            received.extend(stream.pop((round % 3) + 1));
        }
        received.extend(stream.pop(usize::MAX));
        assert_eq!(received, sent);
    }

    #[test]
    fn endpoint_flags_and_readiness() {
        let mut stream = Stream::new(8);
        assert!(stream.write_end_closed());
        assert!(stream.read_end_closed());
        // EOF with no writers: readable (a read returns empty immediately).
        assert!(stream.read_ready());
        // No readers: writable (a write raises EPIPE immediately).
        assert!(stream.write_ready());
        stream.readers = 1;
        stream.writers = 2;
        assert!(!stream.write_end_closed());
        assert!(!stream.read_end_closed());
        assert_eq!(stream.capacity(), 8);
        // Empty + live writer: a read would block.
        assert!(!stream.read_ready());
        assert!(stream.write_ready());
        stream.push(b"12345678");
        assert!(stream.read_ready());
        // Full + live reader: a write would block.
        assert!(!stream.write_ready());
    }

    #[test]
    fn table_creates_unique_ids() {
        let mut table = StreamTable::new();
        let a = table.create();
        let b = table.create_with_capacity(128);
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(b).unwrap().capacity(), 128);
        assert!(table.get(999).is_none());
        assert_eq!(table.ids().len(), 2);
    }

    #[test]
    fn releasing_a_non_last_reference_causes_no_edge() {
        let mut table = StreamTable::new();
        let id = table.create();
        assert!(table.add_endpoints(id, 2, 2));
        let released = table.release_endpoints(id, 1, 0);
        assert!(!released.eof && !released.epipe && released.freed.is_none());
        let released = table.release_endpoints(id, 0, 1);
        assert!(!released.eof && !released.epipe && released.freed.is_none());
        assert_eq!(table.get(id).map(|s| (s.readers, s.writers)), Some((1, 1)));
    }

    #[test]
    fn each_edge_fires_exactly_once_on_the_last_reference() {
        let mut table = StreamTable::new();
        let id = table.create();
        table.add_endpoints(id, 1, 2);
        assert!(!table.release_endpoints(id, 0, 1).eof);
        // Last writer: EOF edge, no EPIPE edge, the reader keeps it alive.
        let released = table.release_endpoints(id, 0, 1);
        assert!(released.eof && !released.epipe && released.freed.is_none());
        assert!(table.get(id).unwrap().write_end_closed());
        // Last reader: EPIPE edge only (the EOF edge already fired), freed.
        let released = table.release_endpoints(id, 1, 0);
        assert!(!released.eof && released.epipe && released.freed.is_some());
        assert!(table.get(id).is_none());
        // Nothing left to release: no edge, no panic.
        let released = table.release_endpoints(id, 1, 1);
        assert!(!released.eof && !released.epipe && released.freed.is_none());
    }

    #[test]
    fn last_reference_frees_the_stream_even_with_unread_bytes() {
        let mut table = StreamTable::new();
        let id = table.create();
        table.add_endpoints(id, 1, 1);
        table.get_mut(id).unwrap().push(b"nobody will ever read this");
        assert!(table.release_endpoints(id, 1, 0).freed.is_none());
        let released = table.release_endpoints(id, 0, 1);
        assert_eq!(released.freed.map(|s| s.len()), Some(26));
        assert!(table.is_empty());
        // References to a stream that is gone are not counted.
        assert!(!table.add_endpoints(id, 1, 0));
    }

    #[test]
    fn remove_deletes_stream() {
        let mut table = StreamTable::new();
        let id = table.create();
        table.remove(id);
        assert!(table.get(id).is_none());
    }
}
