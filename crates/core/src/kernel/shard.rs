//! Kernel sharding: ownership hashing, the cross-shard message protocol and
//! the router's global state.
//!
//! With `BROWSIX_SHARDS=N` (or `BootConfig::with_shards`) the kernel boots
//! N full event loops — each a `KernelState` on its own
//! thread with its own task table, streams, sockets, wait queues and
//! statistics — instead of one.  Guests keep speaking the exact same wire
//! format: a process's syscall batches and ring doorbells go straight to the
//! shard that owns it, because the worker's kernel channel *is* that shard's
//! event queue.
//!
//! # Ownership hashing (seed-deterministic)
//!
//! * **Tasks** — pids are allocated from per-shard pools so that
//!   `shard_of(pid) = pid % N`.  Shard `k` hands out pids congruent to `k`
//!   (mod N); pid 0 stays reserved for the kernel itself.  Placement is a
//!   deterministic round-robin over spawn order (forks stay on the parent's
//!   shard so the copied descriptor table stays local), so a failing
//!   schedule replays exactly from the same spawn sequence.
//! * **Streams and connections** — ids encode their owning shard in the low
//!   [`SHARD_ID_BITS`] bits: `stream_shard(id) = id & 0x3f`.  A shard only
//!   ever mutates stream buffers it owns; operations against a foreign
//!   stream travel as [`ShardMsg`]s.
//!
//! # The router
//!
//! `RouterState` is the only state shared between shards, and it is never
//! touched on the byte-moving data path: pid allocation and process-group
//! membership, the port table (which shard owns a listener), the `shm_open`
//! registry, the foreground process group and port-listen subscribers.
//! Everything else is per-shard, and cross-shard effects are explicit
//! messages with completions routed back to the submitting shard —
//! no lock is held across shards while bytes move.
//!
//! # `ShardMsg` protocol
//!
//! Remote operations carry a `token` minted by the submitting shard; the
//! owner replies with [`ShardMsg::RemoteOpDone`] (or parks a waiter on its
//! own queues and replies when the stream becomes ready).  Tokens are only
//! interpreted by the shard that minted them, so completion delivery is
//! exactly-once by construction: a completed or cancelled token leaves the
//! submitter's pending-op table and any late reply for it is dropped.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::Sender;

use browsix_fs::Errno;

use crate::exec::ProgramLauncher;
use crate::fd::OpenFile;
use crate::signals::Signal;
use crate::socket::{Connection, ConnectionId};
use crate::streams::StreamId;
use crate::syscall::SysResult;
use crate::task::Pid;
use crate::vm::ShmObject;

/// Maximum shard count (the id encodings below reserve 6 bits).
pub const MAX_SHARDS: usize = 64;

/// Low bits of a stream/connection id that name the owning shard.
pub const SHARD_ID_BITS: u64 = 6;

/// Stride between consecutive ids handed out by one shard's tables.
pub const SHARD_ID_STRIDE: u64 = 1 << SHARD_ID_BITS;

/// The shard that owns a task: `pid % nshards` (stable and documented, so a
/// failing schedule reproduces from its spawn sequence alone).
pub fn shard_of(pid: Pid, nshards: usize) -> usize {
    (pid as usize) % nshards.max(1)
}

/// The shard that owns a stream (encoded in the id's low bits).
pub fn stream_shard(id: StreamId) -> usize {
    (id & (SHARD_ID_STRIDE - 1)) as usize
}

/// The shard that owns a socket connection (same encoding as streams).
pub fn connection_shard(id: ConnectionId) -> usize {
    (id & (SHARD_ID_STRIDE - 1)) as usize
}

/// Resolves the shard count: explicit boot value, else the `BROWSIX_SHARDS`
/// environment variable, else 1; clamped to `1..=MAX_SHARDS`.
pub fn resolve_shards(configured: usize) -> usize {
    let n = if configured > 0 {
        configured
    } else {
        std::env::var("BROWSIX_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1)
    };
    n.clamp(1, MAX_SHARDS)
}

/// A readiness snapshot of a remote stream, cached by the polling shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoteRevents {
    /// A read would make progress (data buffered).
    pub readable: bool,
    /// All write ends are closed (EOF once drained).
    pub eof: bool,
    /// A write would accept bytes right now.
    pub writable: bool,
    /// All read ends are closed (writes raise EPIPE).
    pub epipe: bool,
    /// The stream no longer exists on its owner.
    pub gone: bool,
}

/// A message between shards.  Every cross-shard effect in the kernel is one
/// of these; they are delivered through the owning shard's ordinary
/// [`KernelEvent`](crate::events::KernelEvent) queue, so they interleave
/// with that shard's syscalls in a single total order.
pub enum ShardMsg {
    /// Create a task on the receiving shard (the spawn side of round-robin
    /// placement).  The executable is already resolved; `file_bytes` (if
    /// any) become a blob URL in the owner's registry.
    SpawnTask {
        /// Completion token, minted by the origin shard.
        token: u64,
        /// The shard that initiated the spawn (receives [`ShardMsg::SpawnAck`]).
        origin: usize,
        /// The pre-allocated pid (already registered with the router).
        pid: Pid,
        /// Parent pid (lives on `origin`).
        ppid: Pid,
        /// Process group the child joins.
        pgid: Pid,
        /// Task name (basename of the path).
        name: String,
        /// Executable path.
        path: String,
        /// Working directory.
        cwd: String,
        /// Argument vector (prepend-args already applied).
        args: Vec<String>,
        /// Environment.
        env: Vec<(String, String)>,
        /// The resolved launcher.
        launcher: Arc<dyn ProgramLauncher>,
        /// Script bytes for interpreted executables.
        file_bytes: Option<Vec<u8>>,
        /// stdin/stdout/stderr: handles exported for the receiving shard
        /// ([`OpenFile::export`]) on the parent's descriptions.
        stdio: [Arc<OpenFile>; 3],
    },
    /// The spawned task exists; the origin drops its stdio pins.
    SpawnAck {
        /// Token from the corresponding [`ShardMsg::SpawnTask`].
        token: u64,
    },
    /// A child on this shard exited and its parent lives on the receiving
    /// shard: the zombie's wait status ships to the parent (the child's
    /// shard has already dropped the task).
    ChildExited {
        /// The exited child.
        pid: Pid,
        /// The remote parent.
        ppid: Pid,
        /// Encoded wait status.
        status: i32,
    },
    /// A child stopped (job control) and its parent is remote.
    ChildStopped {
        /// The stopped child.
        pid: Pid,
        /// The remote parent.
        ppid: Pid,
        /// The stop signal.
        signal: Signal,
    },
    /// A stopped child resumed; the parent's stop record is withdrawn.
    ChildContinued {
        /// The resumed child.
        pid: Pid,
        /// The remote parent.
        ppid: Pid,
    },
    /// The parent of `child` exited; the receiving shard reparents it to
    /// the kernel (ppid 0).
    Reparent {
        /// The orphaned child (owned by the receiving shard).
        child: Pid,
    },
    /// Deliver a signal to a task owned by the receiving shard.
    SignalPid {
        /// The target task.
        pid: Pid,
        /// The signal.
        signal: Signal,
    },
    /// Apply a `setpgid` to a task owned by the receiving shard (the router
    /// registry was already updated by the caller).
    SetPgid {
        /// The target task.
        pid: Pid,
        /// Its new process group.
        pgid: Pid,
    },
    /// Read from a stream owned by the receiving shard.
    RemoteRead {
        /// Completion token.
        token: u64,
        /// The submitting shard ([`ShardMsg::RemoteOpDone`] goes back there).
        from_shard: usize,
        /// The reading process (lives on `from_shard`).
        pid: Pid,
        /// The stream to read.
        stream: StreamId,
        /// Maximum bytes.
        len: usize,
        /// `O_NONBLOCK`: reply `EAGAIN` instead of parking.
        nonblocking: bool,
    },
    /// Write to a stream owned by the receiving shard.
    RemoteWrite {
        /// Completion token.
        token: u64,
        /// The submitting shard.
        from_shard: usize,
        /// The writing process.
        pid: Pid,
        /// The stream to write.
        stream: StreamId,
        /// The bytes.
        data: Vec<u8>,
        /// `O_NONBLOCK`: reply `EAGAIN`/partial instead of parking.
        nonblocking: bool,
    },
    /// A remote read/write/connect finished; the submitter completes the
    /// original syscall (and raises SIGPIPE locally if asked).
    RemoteOpDone {
        /// Token from the original request.
        token: u64,
        /// The syscall result.
        result: SysResult,
        /// The op hit EPIPE while blocked: the submitter sends itself
        /// SIGPIPE before completing, preserving local signal ordering.
        raise_sigpipe: bool,
    },
    /// The submitting process died or took EINTR: the owner drops any
    /// parked waiter for this token without replying.
    CancelOp {
        /// Token of the op to abandon.
        token: u64,
    },
    /// Connect to a port whose listener is owned by the receiving shard.
    Connect {
        /// Completion token.
        token: u64,
        /// The submitting shard.
        from_shard: usize,
        /// The target port.
        port: u16,
    },
    /// Reply to [`ShardMsg::Connect`]: the established connection (both
    /// streams live on the listener's shard) or the refusal.
    ConnectReply {
        /// Token from the original request.
        token: u64,
        /// The connection id and its stream pair, or the errno.
        result: Result<(ConnectionId, Connection), Errno>,
    },
    /// The connecting shard has counted its client descriptor (and sent the
    /// per-stream tallies ahead of this message): the owner drops the hold
    /// it kept on the client side so the connection would not look
    /// half-closed in the interim.
    ConnectAck {
        /// The connection whose pin to release.
        connection: ConnectionId,
    },
    /// Ask the owner of `stream` for a readiness snapshot (remote `poll`).
    PollQuery {
        /// The stream being polled.
        stream: StreamId,
        /// Where to send the [`ShardMsg::PollAnswer`].
        from_shard: usize,
    },
    /// Readiness snapshot of an owned stream, for a remote poller's cache.
    PollAnswer {
        /// The stream.
        stream: StreamId,
        /// Data is buffered.
        readable: bool,
        /// All write ends closed.
        eof: bool,
        /// Space is available.
        writable: bool,
        /// All read ends closed.
        epipe: bool,
        /// The stream no longer exists.
        gone: bool,
    },
    /// The sending shard's references to one stream owned by the receiving
    /// shard changed: its new tally, which replaces the previous one it
    /// reported for that stream (zero/zero withdraws it).  Sent once per
    /// change, per stream — never a snapshot of everything the sender holds.
    RemoteEndpoints {
        /// The contributing shard.
        from_shard: usize,
        /// The stream the tally is for.
        stream: StreamId,
        /// Read-end references the sender now holds.
        readers: u32,
        /// Write-end references the sender now holds.
        writers: u32,
    },
}

impl fmt::Debug for ShardMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMsg::SpawnTask {
                token, pid, ppid, name, ..
            } => {
                write!(f, "SpawnTask(token={token}, pid={pid}, ppid={ppid}, {name:?})")
            }
            ShardMsg::SpawnAck { token } => write!(f, "SpawnAck({token})"),
            ShardMsg::ChildExited { pid, ppid, status } => {
                write!(f, "ChildExited(pid={pid}, ppid={ppid}, status={status})")
            }
            ShardMsg::ChildStopped { pid, ppid, signal } => {
                write!(f, "ChildStopped(pid={pid}, ppid={ppid}, {signal:?})")
            }
            ShardMsg::ChildContinued { pid, ppid } => write!(f, "ChildContinued(pid={pid}, ppid={ppid})"),
            ShardMsg::Reparent { child } => write!(f, "Reparent({child})"),
            ShardMsg::SignalPid { pid, signal } => write!(f, "SignalPid(pid={pid}, {signal:?})"),
            ShardMsg::SetPgid { pid, pgid } => write!(f, "SetPgid(pid={pid}, pgid={pgid})"),
            ShardMsg::RemoteRead {
                token,
                pid,
                stream,
                len,
                ..
            } => {
                write!(f, "RemoteRead(token={token}, pid={pid}, stream={stream}, len={len})")
            }
            ShardMsg::RemoteWrite {
                token,
                pid,
                stream,
                data,
                ..
            } => {
                write!(
                    f,
                    "RemoteWrite(token={token}, pid={pid}, stream={stream}, {} bytes)",
                    data.len()
                )
            }
            ShardMsg::RemoteOpDone {
                token,
                result,
                raise_sigpipe,
            } => write!(f, "RemoteOpDone(token={token}, {result:?}, sigpipe={raise_sigpipe})"),
            ShardMsg::CancelOp { token } => write!(f, "CancelOp({token})"),
            ShardMsg::Connect { token, port, .. } => write!(f, "Connect(token={token}, port={port})"),
            ShardMsg::ConnectReply { token, result } => write!(f, "ConnectReply(token={token}, {result:?})"),
            ShardMsg::ConnectAck { connection } => write!(f, "ConnectAck({connection})"),
            ShardMsg::PollQuery { stream, from_shard } => {
                write!(f, "PollQuery(stream={stream}, from={from_shard})")
            }
            ShardMsg::PollAnswer { stream, .. } => write!(f, "PollAnswer(stream={stream})"),
            ShardMsg::RemoteEndpoints {
                from_shard,
                stream,
                readers,
                writers,
            } => write!(
                f,
                "RemoteEndpoints(from={from_shard}, stream={stream}, {readers}r/{writers}w)"
            ),
        }
    }
}

/// An entry in the router's process registry.
#[derive(Debug, Clone, Copy)]
struct ProcessEntry {
    shard: usize,
    pgid: Pid,
}

/// Port-table state: which shard owns each listening port, plus the global
/// ephemeral-port counter.
#[derive(Debug, Default)]
struct PortTable {
    claims: HashMap<u16, usize>,
    next_ephemeral: u16,
}

/// The only state shared between shards.  Every member is a small registry
/// behind its own lock (or an atomic counter) and none is touched while
/// bytes move between a stream and a process — the data path is per-shard.
pub(crate) struct RouterState {
    nshards: usize,
    /// Per-shard pid pools: pool `k` hands out `k, k+N, k+2N, ...` (pool 0
    /// starts at `N` because pid 0 is reserved).  With one shard this is the
    /// classic `1, 2, 3, ...` sequence.
    pid_pools: Vec<AtomicU32>,
    /// Round-robin spawn placement counter (deterministic in spawn order).
    next_spawn: AtomicUsize,
    /// pid → owning shard + process group, registered at spawn, updated by
    /// `setpgid`, removed when the task finishes (so a finished pid reports
    /// `ESRCH` everywhere, matching the single-shard zombie/missing rules).
    processes: Mutex<HashMap<Pid, ProcessEntry>>,
    /// Listening ports → owning shard, claimed by `listen`.
    ports: Mutex<PortTable>,
    /// Named POSIX shared-memory objects (`shm_open` registry).
    shm: Mutex<HashMap<String, Arc<ShmObject>>>,
    /// The foreground process group of the (single) controlling terminal.
    foreground_pgid: Mutex<Option<Pid>>,
    /// Host subscribers notified when any shard starts listening on a port.
    port_subscribers: Mutex<Vec<Sender<u16>>>,
}

impl RouterState {
    pub(crate) fn new(nshards: usize) -> RouterState {
        let nshards = nshards.clamp(1, MAX_SHARDS);
        let pid_pools = (0..nshards)
            .map(|k| AtomicU32::new(if k == 0 { nshards as u32 } else { k as u32 }))
            .collect();
        RouterState {
            nshards,
            pid_pools,
            next_spawn: AtomicUsize::new(0),
            processes: Mutex::new(HashMap::new()),
            ports: Mutex::new(PortTable {
                claims: HashMap::new(),
                next_ephemeral: 49152,
            }),
            shm: Mutex::new(HashMap::new()),
            foreground_pgid: Mutex::new(None),
            port_subscribers: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn nshards(&self) -> usize {
        self.nshards
    }

    /// Allocates the next pid owned by `shard` (pids are never reused).
    pub(crate) fn allocate_pid(&self, shard: usize) -> Pid {
        self.pid_pools[shard].fetch_add(self.nshards as u32, Ordering::Relaxed)
    }

    /// Picks the shard for the next non-fork spawn (deterministic
    /// round-robin over spawn order).
    pub(crate) fn place_spawn(&self) -> usize {
        self.next_spawn.fetch_add(1, Ordering::Relaxed) % self.nshards
    }

    // ---- process registry ------------------------------------------------

    pub(crate) fn register_process(&self, pid: Pid, shard: usize, pgid: Pid) {
        self.processes.lock().unwrap().insert(pid, ProcessEntry { shard, pgid });
    }

    pub(crate) fn remove_process(&self, pid: Pid) {
        self.processes.lock().unwrap().remove(&pid);
    }

    /// The shard owning a live process, if it is registered.
    pub(crate) fn process_shard(&self, pid: Pid) -> Option<usize> {
        self.processes.lock().unwrap().get(&pid).map(|e| e.shard)
    }

    /// The process group of a live process.
    pub(crate) fn process_pgid(&self, pid: Pid) -> Option<Pid> {
        self.processes.lock().unwrap().get(&pid).map(|e| e.pgid)
    }

    pub(crate) fn set_pgid(&self, pid: Pid, pgid: Pid) {
        if let Some(entry) = self.processes.lock().unwrap().get_mut(&pid) {
            entry.pgid = pgid;
        }
    }

    /// Live members of a process group, `(pid, shard)` sorted by pid so
    /// group signals hit members in a deterministic order.
    pub(crate) fn group_members(&self, pgid: Pid) -> Vec<(Pid, usize)> {
        let mut members: Vec<(Pid, usize)> = self
            .processes
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, e)| e.pgid == pgid)
            .map(|(&pid, e)| (pid, e.shard))
            .collect();
        members.sort_unstable();
        members
    }

    // ---- port table ------------------------------------------------------

    /// Claims `port` for `shard` (the cross-shard half of `listen`).
    ///
    /// # Errors
    ///
    /// [`Errno::EADDRINUSE`] if any shard already owns the port.
    pub(crate) fn claim_port(&self, port: u16, shard: usize) -> Result<(), Errno> {
        let mut ports = self.ports.lock().unwrap();
        if ports.claims.contains_key(&port) {
            return Err(Errno::EADDRINUSE);
        }
        ports.claims.insert(port, shard);
        Ok(())
    }

    /// Releases `port` if `shard` owns it (listener closed or owner exited).
    pub(crate) fn release_port(&self, port: u16, shard: usize) {
        let mut ports = self.ports.lock().unwrap();
        if ports.claims.get(&port) == Some(&shard) {
            ports.claims.remove(&port);
        }
    }

    /// The shard owning the listener on `port`.
    pub(crate) fn port_owner(&self, port: u16) -> Option<usize> {
        self.ports.lock().unwrap().claims.get(&port).copied()
    }

    /// Whether any shard is listening on `port`.
    pub(crate) fn port_claimed(&self, port: u16) -> bool {
        self.ports.lock().unwrap().claims.contains_key(&port)
    }

    /// Every claimed port, sorted (the host's `listening_ports` view).
    pub(crate) fn claimed_ports(&self) -> Vec<u16> {
        let mut ports: Vec<u16> = self.ports.lock().unwrap().claims.keys().copied().collect();
        ports.sort_unstable();
        ports
    }

    /// Picks an unused ephemeral port (for `bind` with port 0); the counter
    /// is fleet-global so concurrent shards get distinct ports.
    pub(crate) fn allocate_ephemeral_port(&self) -> u16 {
        let mut ports = self.ports.lock().unwrap();
        loop {
            let port = ports.next_ephemeral;
            ports.next_ephemeral = ports.next_ephemeral.wrapping_add(1).max(49152);
            if !ports.claims.contains_key(&port) {
                return port;
            }
        }
    }

    // ---- shm registry ----------------------------------------------------

    pub(crate) fn shm_get(&self, name: &str) -> Option<Arc<ShmObject>> {
        self.shm.lock().unwrap().get(name).cloned()
    }

    pub(crate) fn shm_insert(&self, name: &str, object: Arc<ShmObject>) {
        self.shm.lock().unwrap().insert(name.to_owned(), object);
    }

    pub(crate) fn shm_remove(&self, name: &str) -> bool {
        self.shm.lock().unwrap().remove(name).is_some()
    }

    /// Finds the registered object identical (by allocation) to `object` —
    /// the reverse lookup `mmap(MAP_SHARED)` uses on an shm descriptor.
    pub(crate) fn shm_find(&self, predicate: impl Fn(&Arc<ShmObject>) -> bool) -> Option<Arc<ShmObject>> {
        self.shm.lock().unwrap().values().find(|o| predicate(o)).cloned()
    }

    // ---- terminal foreground group ---------------------------------------

    pub(crate) fn foreground_pgid(&self) -> Option<Pid> {
        *self.foreground_pgid.lock().unwrap()
    }

    pub(crate) fn set_foreground_pgid(&self, pgid: Option<Pid>) {
        *self.foreground_pgid.lock().unwrap() = pgid;
    }

    // ---- port-listen subscribers -----------------------------------------

    pub(crate) fn subscribe_port_listen(&self, listener: Sender<u16>) {
        self.port_subscribers.lock().unwrap().push(listener);
    }

    pub(crate) fn notify_port_listen(&self, port: u16) {
        self.port_subscribers
            .lock()
            .unwrap()
            .retain(|sub| sub.send(port).is_ok());
    }
}

impl fmt::Debug for RouterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterState")
            .field("nshards", &self.nshards)
            .field("processes", &self.processes.lock().unwrap().len())
            .field("ports", &self.ports.lock().unwrap().claims.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_pools_are_disjoint_and_deterministic() {
        let router = RouterState::new(4);
        // Shard k hands out pids ≡ k (mod 4); pool 0 skips reserved pid 0.
        assert_eq!(router.allocate_pid(0), 4);
        assert_eq!(router.allocate_pid(0), 8);
        assert_eq!(router.allocate_pid(1), 1);
        assert_eq!(router.allocate_pid(1), 5);
        assert_eq!(router.allocate_pid(3), 3);
        assert_eq!(shard_of(4, 4), 0);
        assert_eq!(shard_of(5, 4), 1);
        assert_eq!(shard_of(3, 4), 3);
    }

    #[test]
    fn single_shard_pids_match_the_classic_sequence() {
        let router = RouterState::new(1);
        assert_eq!(router.allocate_pid(0), 1);
        assert_eq!(router.allocate_pid(0), 2);
        assert_eq!(router.allocate_pid(0), 3);
    }

    #[test]
    fn spawn_placement_is_round_robin() {
        let router = RouterState::new(3);
        assert_eq!(router.place_spawn(), 0);
        assert_eq!(router.place_spawn(), 1);
        assert_eq!(router.place_spawn(), 2);
        assert_eq!(router.place_spawn(), 0);
    }

    #[test]
    fn id_encoding_round_trips_the_shard() {
        assert_eq!(stream_shard(SHARD_ID_STRIDE * 7 + 3), 3);
        assert_eq!(stream_shard(0), 0);
        assert_eq!(connection_shard(SHARD_ID_STRIDE + 63), 63);
    }

    #[test]
    fn port_claims_are_exclusive_and_owner_released() {
        let router = RouterState::new(2);
        router.claim_port(80, 1).unwrap();
        assert_eq!(router.claim_port(80, 0), Err(Errno::EADDRINUSE));
        assert_eq!(router.port_owner(80), Some(1));
        router.release_port(80, 0); // not the owner: no-op
        assert!(router.port_claimed(80));
        router.release_port(80, 1);
        assert!(!router.port_claimed(80));
        let p = router.allocate_ephemeral_port();
        assert!(p >= 49152);
        assert_ne!(router.allocate_ephemeral_port(), p);
    }

    #[test]
    fn process_registry_tracks_groups() {
        let router = RouterState::new(2);
        router.register_process(1, 1, 1);
        router.register_process(2, 0, 1);
        router.register_process(3, 1, 3);
        assert_eq!(router.process_shard(2), Some(0));
        assert_eq!(router.group_members(1), vec![(1, 1), (2, 0)]);
        router.set_pgid(3, 1);
        assert_eq!(router.group_members(1), vec![(1, 1), (2, 0), (3, 1)]);
        router.remove_process(2);
        assert_eq!(router.group_members(1), vec![(1, 1), (3, 1)]);
        assert_eq!(router.process_shard(2), None);
    }

    #[test]
    fn resolve_shards_clamps() {
        assert_eq!(resolve_shards(4), 4);
        assert_eq!(resolve_shards(1000), MAX_SHARDS);
    }
}
