//! The in-browser loopback socket namespace.
//!
//! Browsix implements a subset of the BSD/POSIX socket API with
//! `SOCK_STREAM` (TCP) semantics for communication *between Browsix
//! processes*: servers `bind`, `listen` and `accept`; clients `connect`; both
//! sides then read and write a sequenced, reliable, bidirectional stream.
//!
//! A connected socket is two stream ends and nothing else: the read end of
//! the kernel [`Stream`](crate::streams::Stream) flowing towards it and the
//! write end of the one flowing away — exactly the buffered objects that
//! carry pipes, so reading, writing, blocking and readiness are the pipe's
//! code.  There is no connection object and no table of them: a [`StreamPair`]
//! names one side, [`StreamPair::flip`] names the other, and a connection
//! lives exactly as long as its two streams are referenced.  What this
//! module keeps is the part that is not a stream: which ports are listened
//! on, and each listener's backlog — the *server's* side of every connection
//! made but not yet accepted.

use std::collections::{HashMap, VecDeque};

use browsix_fs::Errno;

use crate::streams::StreamId;
use crate::task::Pid;

/// One side of a connection: the stream it reads from and the stream it
/// writes to.  Both are owned by the shard of the listener connected to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamPair {
    /// The stream flowing towards this side.
    pub reads: StreamId,
    /// The stream flowing away from it.
    pub writes: StreamId,
}

impl StreamPair {
    /// The peer's view of the same two streams.
    pub fn flip(self) -> StreamPair {
        StreamPair {
            reads: self.writes,
            writes: self.reads,
        }
    }
}

/// A socket listening on a port.
#[derive(Debug)]
pub struct Listener {
    /// The owning process.
    pub owner: Pid,
    /// Maximum number of not-yet-accepted connections.
    pub backlog: usize,
    /// The server's side of each connection waiting to be accepted.
    pub pending: VecDeque<StreamPair>,
}

/// The kernel's socket namespace: this shard's listeners and their backlogs.
#[derive(Debug, Default)]
pub struct SocketTable {
    listeners: HashMap<u16, Listener>,
}

impl SocketTable {
    /// Creates an empty namespace.
    pub fn new() -> SocketTable {
        SocketTable::default()
    }

    /// Whether `port` already has a listener.
    pub fn port_in_use(&self, port: u16) -> bool {
        self.listeners.contains_key(&port)
    }

    /// Starts listening on `port`.
    ///
    /// # Errors
    ///
    /// [`Errno::EADDRINUSE`] if another listener owns the port.
    pub fn listen(&mut self, port: u16, owner: Pid, backlog: usize) -> Result<(), Errno> {
        if self.port_in_use(port) {
            return Err(Errno::EADDRINUSE);
        }
        self.listeners.insert(
            port,
            Listener {
                owner,
                backlog: backlog.max(1),
                pending: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// Stops listening on `port` (listener fd closed or owner exited).
    /// Returns the server sides that were still waiting to be accepted.
    pub fn close_listener(&mut self, port: u16) -> Vec<StreamPair> {
        self.listeners
            .remove(&port)
            .map(|l| l.pending.into_iter().collect())
            .unwrap_or_default()
    }

    /// Ports with active listeners, sorted.
    pub fn listening_ports(&self) -> Vec<u16> {
        let mut ports: Vec<u16> = self.listeners.keys().copied().collect();
        ports.sort_unstable();
        ports
    }

    /// The pid that owns the listener on `port`.
    pub fn listener_owner(&self, port: u16) -> Option<Pid> {
        self.listeners.get(&port).map(|l| l.owner)
    }

    /// Queues the server's side of a new connection to `port` for `accept`.
    ///
    /// # Errors
    ///
    /// * [`Errno::ECONNREFUSED`] if nothing is listening on `port`.
    /// * [`Errno::ECONNREFUSED`] if the listener's backlog is full — the
    ///   kernel refuses the connection outright (a SYN met by RST), rather
    ///   than parking the client until the server drains its backlog.
    pub fn connect(&mut self, port: u16, server: StreamPair) -> Result<(), Errno> {
        let listener = self.listeners.get_mut(&port).ok_or(Errno::ECONNREFUSED)?;
        if listener.pending.len() >= listener.backlog {
            return Err(Errno::ECONNREFUSED);
        }
        listener.pending.push_back(server);
        Ok(())
    }

    /// Dequeues the server's side of a pending connection on `port`.
    pub fn accept(&mut self, port: u16) -> Option<StreamPair> {
        self.listeners.get_mut(&port).and_then(|l| l.pending.pop_front())
    }

    /// Whether `port` has at least one connection waiting to be accepted.
    pub fn has_pending(&self, port: u16) -> bool {
        self.listeners
            .get(&port)
            .map(|l| !l.pending.is_empty())
            .unwrap_or(false)
    }

    /// The server side of every connection made but not yet accepted, across
    /// all listeners.  The backlog holds each from `connect` until `accept`,
    /// so clients do not observe EOF in between; the endpoint audit recounts
    /// those holds from this list.
    pub fn pending_connections(&self) -> Vec<StreamPair> {
        self.listeners
            .values()
            .flat_map(|l| l.pending.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(reads: StreamId, writes: StreamId) -> StreamPair {
        StreamPair { reads, writes }
    }

    #[test]
    fn listen_connect_accept_flow() {
        let mut table = SocketTable::new();
        table.listen(8080, 1, 16).unwrap();
        assert!(table.port_in_use(8080));
        assert_eq!(table.listener_owner(8080), Some(1));
        assert!(!table.has_pending(8080));

        let server = pair(10, 11);
        table.connect(8080, server).unwrap();
        assert!(table.has_pending(8080));
        assert_eq!(table.pending_connections(), vec![server]);
        assert_eq!(table.accept(8080), Some(server));
        assert_eq!(table.accept(8080), None);
        // The client reads what the server writes, and the other way round.
        assert_eq!(server.flip(), pair(11, 10));
        assert_eq!(server.flip().flip(), server);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let mut table = SocketTable::new();
        assert_eq!(table.connect(9999, pair(0, 1)), Err(Errno::ECONNREFUSED));
    }

    #[test]
    fn double_listen_is_eaddrinuse() {
        let mut table = SocketTable::new();
        table.listen(80, 1, 4).unwrap();
        assert_eq!(table.listen(80, 2, 4), Err(Errno::EADDRINUSE));
    }

    #[test]
    fn full_backlog_refuses_connections_instead_of_parking() {
        let mut table = SocketTable::new();
        table.listen(80, 1, 2).unwrap();
        table.connect(80, pair(0, 1)).unwrap();
        table.connect(80, pair(2, 3)).unwrap();
        // A full backlog must refuse outright: a parked connect would wait
        // forever if the server never accepts.
        assert_eq!(table.connect(80, pair(4, 5)), Err(Errno::ECONNREFUSED));
        table.accept(80).unwrap();
        assert!(table.connect(80, pair(4, 5)).is_ok());
    }

    #[test]
    fn close_listener_returns_unaccepted_connections() {
        let mut table = SocketTable::new();
        table.listen(80, 1, 4).unwrap();
        table.connect(80, pair(0, 1)).unwrap();
        table.connect(80, pair(2, 3)).unwrap();
        let orphans = table.close_listener(80);
        assert_eq!(orphans, vec![pair(0, 1), pair(2, 3)]);
        assert!(!table.port_in_use(80));
        assert!(table.close_listener(80).is_empty());
    }

    #[test]
    fn listening_ports_are_sorted() {
        let mut table = SocketTable::new();
        table.listen(9000, 1, 1).unwrap();
        table.listen(80, 2, 1).unwrap();
        assert_eq!(table.listening_ports(), vec![80, 9000]);
    }
}
