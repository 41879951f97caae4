//! Kernel byte streams: the single buffered-data object behind pipes *and*
//! socket connections.
//!
//! Browsix pipes are "implemented as in-memory buffers with read-side wait
//! queues": a bounded ring buffer living inside the kernel.  A [`Stream`] is
//! that buffer plus the reader/writer endpoint counts that decide EOF and
//! EPIPE, and the readiness predicates (`read_ready`/`write_ready`) that the
//! wait-queue subsystem and `poll` are built on.  Socket connections are two
//! streams, one per direction, sharing exactly this code — there is no
//! separate socket data path.
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

use std::collections::HashMap;

/// Identifier of a kernel stream buffer.
pub type StreamId = u64;

/// Default stream capacity, matching the Linux pipe default of 64 KiB.
pub const DEFAULT_STREAM_CAPACITY: usize = 64 * 1024;

/// A single in-kernel bounded byte stream (ring buffer + endpoint counts).
#[derive(Debug)]
pub struct Stream {
    /// Ring storage, allocated to `capacity` on first push.
    ring: Vec<u8>,
    /// Read position within `ring`.
    head: usize,
    /// Bytes currently buffered.
    buffered: usize,
    capacity: usize,
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
            ring: Vec::new(),
            head: 0,
            buffered: 0,
            capacity: capacity.max(1),
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

    /// Appends as much of `data` as fits, returning the number of bytes
    /// accepted.
    pub fn push(&mut self, data: &[u8]) -> usize {
        if self.ring.is_empty() {
            self.ring = vec![0; self.capacity];
        }
        let accept = data.len().min(self.space());
        let tail = (self.head + self.buffered) % self.capacity;
        let first = accept.min(self.capacity - tail);
        self.ring[tail..tail + first].copy_from_slice(&data[..first]);
        let rest = accept - first;
        self.ring[..rest].copy_from_slice(&data[first..accept]);
        self.buffered += accept;
        accept
    }

    /// Removes and returns up to `len` bytes.
    pub fn pop(&mut self, len: usize) -> Vec<u8> {
        let take = len.min(self.buffered);
        let mut out = Vec::with_capacity(take);
        let first = take.min(self.capacity - self.head);
        out.extend_from_slice(&self.ring[self.head..self.head + first]);
        let rest = take - first;
        out.extend_from_slice(&self.ring[..rest]);
        self.head = (self.head + take) % self.capacity;
        self.buffered -= take;
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
