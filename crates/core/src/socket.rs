//! The in-browser loopback socket namespace.
//!
//! Browsix implements a subset of the BSD/POSIX socket API with
//! `SOCK_STREAM` (TCP) semantics for communication *between Browsix
//! processes*: servers `bind`, `listen` and `accept`; clients `connect`; both
//! sides then read and write a sequenced, reliable, bidirectional stream.
//! Connections are carried by two kernel streams, one per direction —
//! exactly the same buffered [`Stream`](crate::streams::Stream) objects that
//! carry pipes, so readiness and blocking are computed in one place.

use std::collections::{HashMap, VecDeque};

use browsix_fs::Errno;

use crate::fd::SocketSide;
use crate::streams::StreamId;
use crate::task::Pid;

/// Identifier of an established connection.
pub type ConnectionId = u64;

/// A socket listening on a port.
#[derive(Debug)]
pub struct Listener {
    /// The owning process.
    pub owner: Pid,
    /// Maximum number of not-yet-accepted connections.
    pub backlog: usize,
    /// Connections waiting to be accepted.
    pub pending: VecDeque<ConnectionId>,
}

/// An established connection: a kernel stream per direction.
#[derive(Debug, Clone, Copy)]
pub struct Connection {
    /// Bytes flowing from the connecting client towards the accepting server.
    pub client_to_server: StreamId,
    /// Bytes flowing from the server back to the client.
    pub server_to_client: StreamId,
    /// The port the connection was made to.
    pub port: u16,
}

impl Connection {
    /// The `(reads, writes)` streams of one side: the direction flowing
    /// towards it and the direction flowing away from it.
    pub fn streams_of(&self, side: SocketSide) -> (StreamId, StreamId) {
        match side {
            SocketSide::Client => (self.server_to_client, self.client_to_server),
            SocketSide::Server => (self.client_to_server, self.server_to_client),
        }
    }
}

/// The kernel's socket namespace: bound ports, listeners and connections.
#[derive(Debug, Default)]
pub struct SocketTable {
    listeners: HashMap<u16, Listener>,
    connections: HashMap<ConnectionId, Connection>,
    next_connection: ConnectionId,
    next_ephemeral_port: u16,
}

impl SocketTable {
    /// Creates an empty namespace (owned by shard 0).
    pub fn new() -> SocketTable {
        SocketTable {
            next_ephemeral_port: 49152,
            ..SocketTable::default()
        }
    }

    /// Creates an empty namespace whose connection ids encode `shard` (same
    /// low-bit scheme as [`StreamTable`](crate::streams::StreamTable) ids).
    pub fn new_for_shard(shard: usize) -> SocketTable {
        SocketTable {
            next_connection: shard as ConnectionId,
            next_ephemeral_port: 49152,
            ..SocketTable::default()
        }
    }

    /// Picks an unused ephemeral port (for `bind` with port 0).
    pub fn allocate_port(&mut self) -> u16 {
        loop {
            let port = self.next_ephemeral_port;
            self.next_ephemeral_port = self.next_ephemeral_port.wrapping_add(1).max(49152);
            if !self.listeners.contains_key(&port) {
                return port;
            }
        }
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
    /// Returns the connections that were still waiting to be accepted.
    pub fn close_listener(&mut self, port: u16) -> Vec<ConnectionId> {
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

    /// Registers a new connection to `port`, queueing it for `accept`.
    ///
    /// # Errors
    ///
    /// * [`Errno::ECONNREFUSED`] if nothing is listening on `port`.
    /// * [`Errno::ECONNREFUSED`] if the listener's backlog is full — the
    ///   kernel refuses the connection outright (a SYN met by RST), rather
    ///   than parking the client until the server drains its backlog.
    pub fn connect(
        &mut self,
        port: u16,
        client_to_server: StreamId,
        server_to_client: StreamId,
    ) -> Result<ConnectionId, Errno> {
        let listener = self.listeners.get_mut(&port).ok_or(Errno::ECONNREFUSED)?;
        if listener.pending.len() >= listener.backlog {
            return Err(Errno::ECONNREFUSED);
        }
        let id = self.next_connection;
        self.next_connection += crate::kernel::shard::SHARD_ID_STRIDE;
        self.connections.insert(
            id,
            Connection {
                client_to_server,
                server_to_client,
                port,
            },
        );
        listener.pending.push_back(id);
        Ok(id)
    }

    /// Dequeues a pending connection for `accept` on `port`.
    pub fn accept(&mut self, port: u16) -> Option<ConnectionId> {
        self.listeners.get_mut(&port).and_then(|l| l.pending.pop_front())
    }

    /// Whether `port` has at least one connection waiting to be accepted.
    pub fn has_pending(&self, port: u16) -> bool {
        self.listeners
            .get(&port)
            .map(|l| !l.pending.is_empty())
            .unwrap_or(false)
    }

    /// Every connection that has been made but not yet accepted, across all
    /// listeners.  Each holds its (future) server endpoint from `connect`
    /// until `accept`, so clients do not observe EOF in between; the endpoint
    /// audit recounts those holds from this list.
    pub fn pending_connections(&self) -> Vec<ConnectionId> {
        self.listeners
            .values()
            .flat_map(|l| l.pending.iter().copied())
            .collect()
    }

    /// Looks up an established connection.
    pub fn connection(&self, id: ConnectionId) -> Option<Connection> {
        self.connections.get(&id).copied()
    }

    /// Ids of all established connections (the endpoint audit walks this).
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn connection_ids(&self) -> Vec<ConnectionId> {
        self.connections.keys().copied().collect()
    }

    /// Forgets a connection whose two streams have both been freed.
    pub fn remove_connection(&mut self, id: ConnectionId) {
        self.connections.remove(&id);
    }

    /// Number of established connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_connect_accept_flow() {
        let mut table = SocketTable::new();
        table.listen(8080, 1, 16).unwrap();
        assert!(table.port_in_use(8080));
        assert_eq!(table.listener_owner(8080), Some(1));
        assert!(!table.has_pending(8080));

        let conn = table.connect(8080, 10, 11).unwrap();
        assert!(table.has_pending(8080));
        assert_eq!(table.accept(8080), Some(conn));
        assert_eq!(table.accept(8080), None);
        let c = table.connection(conn).unwrap();
        assert_eq!(c.client_to_server, 10);
        assert_eq!(c.server_to_client, 11);
        assert_eq!(c.port, 8080);
        assert_eq!(c.streams_of(SocketSide::Client), (11, 10));
        assert_eq!(c.streams_of(SocketSide::Server), (10, 11));
        assert_eq!(table.connection_count(), 1);
        table.remove_connection(conn);
        assert_eq!(table.connection_count(), 0);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let mut table = SocketTable::new();
        assert_eq!(table.connect(9999, 0, 1), Err(Errno::ECONNREFUSED));
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
        table.connect(80, 0, 1).unwrap();
        table.connect(80, 2, 3).unwrap();
        // A full backlog must refuse outright: a parked connect would wait
        // forever if the server never accepts.
        assert_eq!(table.connect(80, 4, 5), Err(Errno::ECONNREFUSED));
        table.accept(80).unwrap();
        assert!(table.connect(80, 4, 5).is_ok());
    }

    #[test]
    fn close_listener_returns_unaccepted_connections() {
        let mut table = SocketTable::new();
        table.listen(80, 1, 4).unwrap();
        let a = table.connect(80, 0, 1).unwrap();
        let b = table.connect(80, 2, 3).unwrap();
        let orphans = table.close_listener(80);
        assert_eq!(orphans, vec![a, b]);
        assert!(!table.port_in_use(80));
        assert!(table.close_listener(80).is_empty());
    }

    #[test]
    fn ephemeral_ports_are_unique_while_listening() {
        let mut table = SocketTable::new();
        let p1 = table.allocate_port();
        table.listen(p1, 1, 1).unwrap();
        let p2 = table.allocate_port();
        assert_ne!(p1, p2);
        assert!(p1 >= 49152 && p2 >= 49152);
    }

    #[test]
    fn listening_ports_are_sorted() {
        let mut table = SocketTable::new();
        table.listen(9000, 1, 1).unwrap();
        table.listen(80, 2, 1).unwrap();
        assert_eq!(table.listening_ports(), vec![80, 9000]);
    }
}
