//! Endpoint accounting: the reference counts that decide EOF and EPIPE.
//!
//! A stream's `readers`/`writers` are counts of *references*, kept current by
//! the operations that create and destroy references — never by looking at
//! descriptor tables:
//!
//! * an open-file description counts once, when it is created
//!   ([`KernelState::new_stream_file`]), becomes a connected socket
//!   ([`KernelState::connect_file`]) or arrives with a cross-shard spawn
//!   ([`KernelState::adopt_file`]), and is dropped once, when its last
//!   `Arc<OpenFile>` reaches [`KernelState::release_file`] — the one place
//!   every descriptor-table removal, `dup2` displacement, process exit and
//!   pin release feeds;
//! * the kernel's own references are explicit holds taken and dropped where
//!   the reference itself appears and disappears: a listener's backlog holds
//!   the server side of a connection until `accept` (or the listener
//!   closing), an in-kernel HTTP client and a not-yet-acknowledged remote
//!   `connect` hold the client side ([`KernelState::hold_connection_side`] /
//!   [`KernelState::drop_connection_side`]).
//!
//! The release that takes a count to zero is the EOF or EPIPE edge, and wakes
//! exactly that stream's wait queue; the one that leaves a stream with
//! neither readers nor writers frees it (and, for the second stream of a
//! socket pair, forgets the connection).  `dup`, `dup2` onto a free slot and
//! `fork` clone an `Arc` and touch nothing here, so closing a descriptor costs
//! the same however many tasks are resident.
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

use crate::fd::{FileKind, OpenFile, SocketSide};
use crate::kernel::{KernelState, ShardMsg, WaitChannel};
use crate::socket::{Connection, ConnectionId};
use crate::streams::{Released, StreamId};

impl KernelState {
    // ---- open-file descriptions ----------------------------------------------

    /// Creates a description of a pipe end or connected socket, counting its
    /// stream endpoints.
    pub(crate) fn new_stream_file(&mut self, kind: FileKind) -> Arc<OpenFile> {
        self.add_file_endpoints(&kind);
        OpenFile::new(kind)
    }

    /// Turns an unconnected socket description into one side of a connection,
    /// counting the endpoints it gains (`dup`ed copies share the description
    /// and therefore the count).
    pub(crate) fn connect_file(&mut self, file: &OpenFile, connection: ConnectionId, side: SocketSide) {
        debug_assert!(matches!(file.kind(), FileKind::Socket { .. }));
        let kind = FileKind::SocketStream { connection, side };
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
    /// go with it — waking EOF/EPIPE waiters and freeing streams as needed.
    pub(crate) fn release_file(&mut self, file: Arc<OpenFile>) {
        let Some(file) = Arc::into_inner(file) else {
            return;
        };
        match file.kind() {
            FileKind::PipeReader { stream } => self.drop_endpoints(stream, 1, 0),
            FileKind::PipeWriter { stream } => self.drop_endpoints(stream, 0, 1),
            FileKind::SocketStream { connection, side } => {
                let Some(conn) = self.connection_info(connection) else {
                    return;
                };
                if let Some((_, handles)) = self.remote_connections.get_mut(&connection) {
                    *handles -= 1;
                    if *handles == 0 {
                        self.remote_connections.remove(&connection);
                    }
                }
                self.drop_connection_side(&conn, side);
            }
            _ => {}
        }
    }

    fn add_file_endpoints(&mut self, kind: &FileKind) {
        match *kind {
            FileKind::PipeReader { stream } => self.add_endpoints(stream, 1, 0),
            FileKind::PipeWriter { stream } => self.add_endpoints(stream, 0, 1),
            FileKind::SocketStream { connection, side } => {
                // A connection this shard knows nothing about (a handle that
                // travelled past the shard that connected) stays uncounted at
                // both ends of its life; reads and writes on it fail ENOTCONN.
                let Some(conn) = self.connection_info(connection) else {
                    return;
                };
                if let Some((_, handles)) = self.remote_connections.get_mut(&connection) {
                    *handles += 1;
                }
                self.hold_connection_side(&conn, side);
            }
            _ => {}
        }
    }

    // ---- connections -----------------------------------------------------------

    /// Creates a connection to the local listener on `port`: the stream
    /// pair, the table entry, and the backlog's hold on the server side
    /// (dropped by `accept`, or by the listener closing).  The caller counts
    /// the client side before waking the listener's queue.
    pub(crate) fn open_connection(&mut self, port: u16) -> Result<(ConnectionId, Connection), Errno> {
        let client_to_server = self.streams.create();
        let server_to_client = self.streams.create();
        match self.sockets.connect(port, client_to_server, server_to_client) {
            Ok(id) => {
                for stream in [client_to_server, server_to_client] {
                    if let Some(s) = self.streams.get_mut(stream) {
                        s.connection = Some(id);
                    }
                }
                let conn = Connection {
                    client_to_server,
                    server_to_client,
                    port,
                };
                self.hold_connection_side(&conn, SocketSide::Server);
                Ok((id, conn))
            }
            Err(errno) => {
                self.streams.remove(client_to_server);
                self.streams.remove(server_to_client);
                Err(errno)
            }
        }
    }

    /// Stops listening on `port`.  Connections still in the backlog lose
    /// their future server side: their clients read EOF and write into EPIPE.
    pub(crate) fn close_listener(&mut self, port: u16) {
        let orphans = self.sockets.close_listener(port);
        self.router.release_port(port, self.shard_id);
        for id in orphans {
            if let Some(conn) = self.sockets.connection(id) {
                self.drop_connection_side(&conn, SocketSide::Server);
            }
        }
        self.wake(WaitChannel::Listener(port));
    }

    /// Counts one reference to `side` of a connection: a reader on the
    /// stream flowing towards that side, a writer on the one flowing away.
    pub(crate) fn hold_connection_side(&mut self, conn: &Connection, side: SocketSide) {
        let (reads, writes) = conn.streams_of(side);
        self.add_endpoints(reads, 1, 0);
        self.add_endpoints(writes, 0, 1);
    }

    /// Drops one reference to `side` of a connection.  Both streams are
    /// updated before either wakeup runs, so a woken waiter never observes
    /// the side half-closed.
    pub(crate) fn drop_connection_side(&mut self, conn: &Connection, side: SocketSide) {
        let (reads, writes) = conn.streams_of(side);
        let read_released = self.release_endpoints(reads, 1, 0);
        let write_released = self.release_endpoints(writes, 0, 1);
        self.finish_release(reads, read_released);
        self.finish_release(writes, write_released);
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

    fn drop_endpoints(&mut self, stream: StreamId, readers: u32, writers: u32) {
        let released = self.release_endpoints(stream, readers, writers);
        self.finish_release(stream, released);
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

    /// Wakes the queues a release's edges affect and, when the stream was
    /// freed, forgets the connection whose second stream it was.
    fn finish_release(&mut self, stream: StreamId, released: Released) {
        let Released { eof, epipe, freed } = released;
        let gone = freed.is_some();
        if let Some(id) = freed.and_then(|s| s.connection) {
            // Both directions of a connection carry the same references, so
            // they are freed by the same close: the second one takes the
            // connection with it.
            let both_gone = self.sockets.connection(id).is_some_and(|conn| {
                self.streams.get(conn.client_to_server).is_none() && self.streams.get(conn.server_to_client).is_none()
            });
            if both_gone {
                self.sockets.remove_connection(id);
            }
        }
        if eof || gone {
            self.wake(WaitChannel::StreamReadable(stream));
        }
        if epipe || gone {
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
    /// owned stream, this shard's tallies for foreign ones, the handle counts
    /// of cached foreign connections, and that nothing unreferenced is still
    /// in a table.  O(everything); runs after every event under the
    /// `scavenger` feature and after every step of the model tests.
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn audit_endpoints(&self) {
        use std::collections::{HashMap, HashSet};

        let mut counts: HashMap<StreamId, (usize, usize)> = HashMap::new();
        let mut handles: HashMap<ConnectionId, u32> = HashMap::new();
        let side = |counts: &mut HashMap<StreamId, (usize, usize)>, conn: &Connection, side: SocketSide| {
            let (reads, writes) = conn.streams_of(side);
            counts.entry(reads).or_default().0 += 1;
            counts.entry(writes).or_default().1 += 1;
        };
        // Distinct descriptions: a description shared by `dup` or `fork`, or
        // pinned for a spawn in flight as well as open in the parent, counts
        // once.
        let mut seen: HashSet<*const OpenFile> = HashSet::new();
        let tables = self.tasks.values().flat_map(|t| t.files.iter().map(|(_, file)| file));
        for file in tables.chain(self.pinned_files.values().flatten()) {
            if !seen.insert(Arc::as_ptr(file)) {
                continue;
            }
            match file.kind() {
                FileKind::PipeReader { stream } => counts.entry(stream).or_default().0 += 1,
                FileKind::PipeWriter { stream } => counts.entry(stream).or_default().1 += 1,
                FileKind::SocketStream { connection, side: s } => {
                    if let Some(conn) = self.connection_info(connection) {
                        if self.remote_connections.contains_key(&connection) {
                            *handles.entry(connection).or_default() += 1;
                        }
                        side(&mut counts, &conn, s);
                    }
                }
                _ => {}
            }
        }
        // Kernel holds: HTTP clients and unacknowledged remote connects hold
        // the client side, backlog entries the server side.
        let clients = self.http_clients.iter().map(|c| c.connection);
        for id in clients.chain(self.remote_client_pins.iter().copied()) {
            let conn = self.sockets.connection(id).expect("held connection exists");
            side(&mut counts, &conn, SocketSide::Client);
        }
        for id in self.sockets.pending_connections() {
            let conn = self.sockets.connection(id).expect("backlog connection exists");
            side(&mut counts, &conn, SocketSide::Server);
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
        let cached: HashMap<ConnectionId, u32> = self.remote_connections.iter().map(|(&id, &(_, n))| (id, n)).collect();
        debug_assert_eq!(cached, handles, "shard {}: cached foreign connections", self.shard_id);
        for id in self.sockets.connection_ids() {
            let conn = self.sockets.connection(id).expect("listed connection exists");
            debug_assert!(
                self.streams.get(conn.client_to_server).is_some() || self.streams.get(conn.server_to_client).is_some(),
                "shard {}: connection {id} outlived both of its streams",
                self.shard_id
            );
        }
    }
}
