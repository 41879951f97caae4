//! Endpoint accounting: the reference counts that decide EOF and EPIPE.
//!
//! A stream's `readers`/`writers` are counts of *references*, kept current by
//! the operations that create and destroy references — never by looking at
//! descriptor tables:
//!
//! * an open-file description names its own stream ends
//!   ([`FileKind::read_stream`], [`FileKind::write_stream`]: one for a pipe
//!   end, two for a connected socket).  They are counted once, when it is
//!   created ([`KernelState::new_stream_file`]), becomes a connected socket
//!   ([`KernelState::connect_file`]) or arrives with a cross-shard spawn
//!   ([`KernelState::adopt_file`] — whichever shard that is, since the
//!   description carries everything there is to know), and dropped once,
//!   when its last `Arc<OpenFile>` reaches [`KernelState::release_file`] —
//!   the one place every descriptor-table removal, `dup2` displacement,
//!   process exit and pin release feeds.  A listening description's listener
//!   closes there too, so a port is listened on exactly as long as some
//!   process on the listener's shard holds the description;
//! * the kernel's own references are explicit holds on one side of a
//!   connection, keyed by that side's [`StreamPair`] and taken and dropped
//!   where the reference itself appears and disappears: a listener's backlog
//!   *is* the list of server sides it holds until `accept` (or the listener
//!   closing); a parked in-kernel HTTP client (`HttpClientState::side`) and a
//!   not-yet-acknowledged remote `connect` (`remote_client_pins`) hold the
//!   client side ([`KernelState::hold_connection_side`] /
//!   [`KernelState::drop_connection_side`]).
//!
//! The release that takes a count to zero is the EOF or EPIPE edge, and wakes
//! exactly that stream's wait queue; the one that leaves a stream with
//! neither readers nor writers frees it, and a connection is gone when its
//! two streams are.  `dup`, `dup2` onto a free slot and `fork` clone an `Arc`
//! and touch nothing here, so closing a descriptor costs the same however
//! many tasks are resident.
//!
//! References to a stream owned by another shard are tallied per stream in
//! `foreign_endpoints`; every change sends the owner this shard's new tally
//! for that one stream ([`ShardMsg::RemoteEndpoints`]), which the owner folds
//! into its counts as a difference against the previous tally.
//!
//! The from-scratch recount this replaced survives as the test and
//! `scavenger`-feature oracle, [`KernelState::audit_endpoints`].

use std::sync::Arc;

use browsix_fs::Errno;

use crate::fd::{FileKind, OpenFile};
use crate::kernel::{KernelState, ShardMsg, WaitChannel};
use crate::socket::StreamPair;
use crate::streams::{Released, StreamId};

impl KernelState {
    // ---- open-file descriptions ----------------------------------------------

    /// Creates a description of a pipe end or connected socket, counting its
    /// stream endpoints.
    pub(crate) fn new_stream_file(&mut self, kind: FileKind) -> Arc<OpenFile> {
        self.add_file_endpoints(&kind);
        OpenFile::new(kind)
    }

    /// Turns an unconnected socket description into `side` of a connection
    /// to `port`, counting the endpoints it gains (`dup`ed copies share the
    /// description and therefore the count).
    pub(crate) fn connect_file(&mut self, file: &OpenFile, side: StreamPair, port: u16) {
        debug_assert!(matches!(file.kind(), FileKind::Socket { .. }));
        let kind = FileKind::SocketStream {
            reads: side.reads,
            writes: side.writes,
            port,
        };
        self.add_file_endpoints(&kind);
        file.set_kind(kind);
    }

    /// Counts a description handle that arrived from another shard (see
    /// [`OpenFile::export`]): from here on it is this shard's reference.
    pub(crate) fn adopt_file(&mut self, file: &OpenFile) {
        self.add_file_endpoints(&file.kind());
    }

    /// The single release point for descriptor references: if `file` was the
    /// last reference to its description, the description's stream endpoints
    /// go with it — waking EOF/EPIPE waiters and freeing streams as needed —
    /// and so does the listener of a listening socket.
    pub(crate) fn release_file(&mut self, file: Arc<OpenFile>) {
        if let Some(file) = Arc::into_inner(file) {
            let kind = file.kind();
            if let FileKind::SocketListener { port, id } = kind {
                self.close_listener(port, id);
            }
            self.drop_stream_ends(kind.read_stream(), kind.write_stream());
        }
    }

    fn add_file_endpoints(&mut self, kind: &FileKind) {
        self.add_stream_ends(kind.read_stream(), kind.write_stream());
    }

    // ---- connections -----------------------------------------------------------

    /// Creates a connection to the local listener on `port`: the two
    /// streams, and the backlog entry holding the server's side (dropped by
    /// `accept`, or by the listener closing).  Returns the client's side,
    /// which the caller counts before waking the listener's queue.
    pub(crate) fn open_connection(&mut self, port: u16) -> Result<StreamPair, Errno> {
        let server = StreamPair {
            reads: self.streams.create(),
            writes: self.streams.create(),
        };
        match self.sockets.connect(port, server) {
            Ok(()) => {
                self.hold_connection_side(server);
                Ok(server.flip())
            }
            Err(errno) => {
                self.streams.remove(server.reads);
                self.streams.remove(server.writes);
                Err(errno)
            }
        }
    }

    /// Stops listening on `port`, once the last reference to the listening
    /// description `id` has gone — if the listener here is that
    /// description's: a handle exported to another shard names a listener
    /// that lives elsewhere, and the port may since have been listened on
    /// anew.  Connections still in the backlog lose their future server
    /// side: their clients read EOF and write into EPIPE.
    pub(crate) fn close_listener(&mut self, port: u16, id: u64) {
        let Some(orphans) = self.sockets.close_listener(port, id) else {
            return;
        };
        self.router.release_port(port, self.shard_id);
        for server in orphans {
            self.drop_connection_side(server);
        }
        self.wake(WaitChannel::Listener(port));
    }

    /// Counts one reference to a side of a connection: a reader on the
    /// stream flowing towards that side, a writer on the one flowing away.
    pub(crate) fn hold_connection_side(&mut self, side: StreamPair) {
        self.add_stream_ends(Some(side.reads), Some(side.writes));
    }

    /// Drops one reference to a side of a connection.
    pub(crate) fn drop_connection_side(&mut self, side: StreamPair) {
        self.drop_stream_ends(Some(side.reads), Some(side.writes));
    }

    /// Counts one read-end and one write-end reference.
    fn add_stream_ends(&mut self, reads: Option<StreamId>, writes: Option<StreamId>) {
        if let Some(stream) = reads {
            self.add_endpoints(stream, 1, 0);
        }
        if let Some(stream) = writes {
            self.add_endpoints(stream, 0, 1);
        }
    }

    /// Drops one read-end and one write-end reference.  Both streams are
    /// updated before either wakeup runs, so a woken waiter never observes
    /// a socket half-closed.
    fn drop_stream_ends(&mut self, reads: Option<StreamId>, writes: Option<StreamId>) {
        let read_released = reads.map(|stream| (stream, self.release_endpoints(stream, 1, 0)));
        let write_released = writes.map(|stream| (stream, self.release_endpoints(stream, 0, 1)));
        for (stream, released) in [read_released, write_released].into_iter().flatten() {
            self.finish_release(stream, released);
        }
    }

    // ---- per-stream counts -----------------------------------------------------

    fn add_endpoints(&mut self, stream: StreamId, readers: u32, writers: u32) {
        if self.stream_is_remote(stream) {
            let tally = self.foreign_endpoints.entry(stream).or_default();
            tally.0 += readers;
            tally.1 += writers;
            self.publish_foreign_endpoints(stream);
        } else {
            self.streams.add_endpoints(stream, readers as usize, writers as usize);
        }
    }

    /// The bookkeeping half of a release (the wakeups are
    /// [`KernelState::finish_release`]): a local stream's counts drop in
    /// place; a foreign stream's drop in this shard's tally, and the owner —
    /// who does the waking — is sent the new tally.
    fn release_endpoints(&mut self, stream: StreamId, readers: u32, writers: u32) -> Released {
        if !self.stream_is_remote(stream) {
            return self
                .streams
                .release_endpoints(stream, readers as usize, writers as usize);
        }
        if let Some(tally) = self.foreign_endpoints.get_mut(&stream) {
            debug_assert!(tally.0 >= readers && tally.1 >= writers);
            tally.0 = tally.0.saturating_sub(readers);
            tally.1 = tally.1.saturating_sub(writers);
            if *tally == (0, 0) {
                self.foreign_endpoints.remove(&stream);
            }
            self.publish_foreign_endpoints(stream);
        }
        Released::default()
    }

    /// Wakes the queues a release's edges affect.
    fn finish_release(&mut self, stream: StreamId, released: Released) {
        let gone = released.freed.is_some();
        if released.eof || gone {
            self.wake(WaitChannel::StreamReadable(stream));
        }
        if released.epipe || gone {
            self.wake(WaitChannel::StreamWritable(stream));
        }
    }

    // ---- cross-shard contributions ---------------------------------------------

    /// Sends the owner of a foreign stream this shard's current tally for it.
    fn publish_foreign_endpoints(&mut self, stream: StreamId) {
        let (readers, writers) = self.foreign_endpoints.get(&stream).copied().unwrap_or((0, 0));
        self.send_shard(
            crate::kernel::shard::stream_shard(stream),
            ShardMsg::RemoteEndpoints {
                from_shard: self.shard_id,
                stream,
                readers,
                writers,
            },
        );
    }

    /// Owner side of [`ShardMsg::RemoteEndpoints`]: replaces `from_shard`'s
    /// contribution to one stream, applying the difference to its counts.
    pub(crate) fn apply_remote_endpoints(&mut self, from_shard: usize, stream: StreamId, readers: u32, writers: u32) {
        let key = (from_shard, stream);
        if self.streams.get(stream).is_none() {
            self.remote_contribs.remove(&key);
            return;
        }
        let previous = if (readers, writers) == (0, 0) {
            self.remote_contribs.remove(&key)
        } else {
            self.remote_contribs.insert(key, (readers, writers))
        };
        let (old_readers, old_writers) = previous.unwrap_or((0, 0));
        // Gains first, so a tally that gains one end while losing the other
        // never passes through a spurious zero.
        self.streams.add_endpoints(
            stream,
            readers.saturating_sub(old_readers) as usize,
            writers.saturating_sub(old_writers) as usize,
        );
        let released = self.streams.release_endpoints(
            stream,
            old_readers.saturating_sub(readers) as usize,
            old_writers.saturating_sub(writers) as usize,
        );
        self.finish_release(stream, released);
    }

    // ---- the oracle ------------------------------------------------------------

    /// Recounts every endpoint from scratch — all descriptor tables, pinned
    /// descriptions, kernel holds and peer contributions — and asserts the
    /// incrementally-maintained state agrees exactly: the counts of every
    /// owned stream, this shard's tallies for foreign ones, and that nothing
    /// unreferenced is still in a table.  O(everything); runs after every
    /// event under the `scavenger` feature and after every step of the
    /// model tests.
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn audit_endpoints(&self) {
        use std::collections::{HashMap, HashSet};

        use crate::kernel::WaitKind;

        let mut counts: HashMap<StreamId, (usize, usize)> = HashMap::new();
        let mut count = |reads: Option<StreamId>, writes: Option<StreamId>| {
            if let Some(stream) = reads {
                counts.entry(stream).or_default().0 += 1;
            }
            if let Some(stream) = writes {
                counts.entry(stream).or_default().1 += 1;
            }
        };
        // Distinct descriptions: a description shared by `dup` or `fork`, or
        // pinned for a spawn in flight as well as open in the parent, counts
        // once.
        let mut seen: HashSet<*const OpenFile> = HashSet::new();
        let tables = self.tasks.values().flat_map(|t| t.files.iter().map(|(_, file)| file));
        for file in tables.chain(self.pinned_files.values().flatten()) {
            if seen.insert(Arc::as_ptr(file)) {
                let kind = file.kind();
                count(kind.read_stream(), kind.write_stream());
            }
        }
        // Kernel holds: HTTP clients (each parked in its waiter) and
        // unacknowledged remote connects hold the client side, backlog
        // entries the server side.
        let clients = self.waiters.iter().filter_map(|w| match &w.kind {
            WaitKind::HttpClient(client) => Some(client.side),
            _ => None,
        });
        let pins = self.remote_client_pins.iter().copied();
        for side in clients.chain(pins).chain(self.sockets.pending_connections()) {
            count(Some(side.reads), Some(side.writes));
        }
        let (foreign, mut owned): (HashMap<_, _>, HashMap<_, _>) =
            counts.into_iter().partition(|(id, _)| self.stream_is_remote(*id));
        for (&(_, stream), &(readers, writers)) in &self.remote_contribs {
            let entry = owned.entry(stream).or_default();
            entry.0 += readers as usize;
            entry.1 += writers as usize;
        }

        let live: HashMap<StreamId, (usize, usize)> = self
            .streams
            .iter()
            .map(|(id, s)| (id, (s.readers, s.writers)))
            .collect();
        debug_assert_eq!(live, owned, "shard {}: live endpoint counts != recount", self.shard_id);
        debug_assert!(
            live.values().all(|&counts| counts != (0, 0)),
            "shard {}: an unreferenced stream was not freed: {live:?}",
            self.shard_id
        );
        let foreign: HashMap<StreamId, (u32, u32)> = foreign
            .into_iter()
            .map(|(id, (r, w))| (id, (r as u32, w as u32)))
            .collect();
        debug_assert_eq!(
            self.foreign_endpoints, foreign,
            "shard {}: foreign tallies != recount",
            self.shard_id
        );
    }

    /// Checks that a listener lives exactly as long as its description on
    /// this shard: the ports listened on here are exactly those named by a
    /// live listening description here (a task's table or a pin) that the
    /// router assigns to this shard.  A handle exported to another shard
    /// names a port that shard does not own.
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn audit_listeners(&self) {
        let tables = self.tasks.values().flat_map(|t| t.files.iter().map(|(_, file)| file));
        let described: std::collections::BTreeSet<u16> = tables
            .chain(self.pinned_files.values().flatten())
            .filter_map(|file| match file.kind() {
                FileKind::SocketListener { port, .. } => Some(port),
                _ => None,
            })
            .filter(|&port| self.router.port_owner(port) == Some(self.shard_id))
            .collect();
        debug_assert_eq!(
            Vec::from_iter(described),
            self.sockets.listening_ports(),
            "shard {}: listeners != listening descriptions",
            self.shard_id
        );
    }
}
