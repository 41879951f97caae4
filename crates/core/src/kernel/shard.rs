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
//! * **Streams** — ids encode their owning shard in the low
//!   [`SHARD_ID_BITS`] bits: `stream_shard(id) = id & 0x3f`.  A shard only
//!   ever mutates stream buffers it owns; operations against a foreign
//!   stream travel as [`ShardMsg`]s.  Both streams of a socket connection
//!   belong to the listener's shard.
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
//! Every cross-shard effect is one of the messages below, delivered through
//! the receiving shard's ordinary event queue, so what one shard sends
//! another arrives in the order it was sent.  The enum, both halves of every
//! exchange (the submit helpers and `handle_shard_msg`) and the state they
//! keep live in this module.
//!
//! | message | sent by | answered by | per-shard state | cancelled by |
//! |---|---|---|---|---|
//! | `SpawnTask` | `spawn_process`, when placement picks another shard | `SpawnAck` | sender: `pinned_files[token]`; receiver: task table, endpoint counts of the adopted stdio | — (the ack always comes) |
//! | `SpawnAck` | the shard that installed the task | — | sender's pins released like any descriptor | — |
//! | `ChildExited` / `ChildStopped` / `ChildContinued` | the child's shard, on the state change | — | parent's `remote_zombies` / `remote_stops`, its `ChildOf` queue | the parent exiting (records dropped) |
//! | `Reparent` | a dying parent's shard | — | the child's `ppid` | — |
//! | `SignalPid`, `SetPgid` | `kill` / `setpgid` / group signals naming a foreign pid | — | the target task | — |
//! | `RemoteRead` / `RemoteWrite` | `sys_read` / `sys_write` on a descriptor whose stream another shard owns | `RemoteOpDone`, exactly once | sender: `remote_ops[token]`; owner: the stream, and a waiter whose reply address is `ReplyTo::Shard` if it parks | `CancelOp` |
//! | `RemoteOpDone` | the owner, through `KernelState::complete` | — | sender's `remote_ops[token]` removed; a missing token drops the reply | — |
//! | `CancelOp` | the submitter, when the process dies or takes `EINTR` | — | owner's waiter with reply address `(from_shard, token)` | — |
//! | `Connect` | `sys_connect` to a port another shard listens on | `ConnectReply` | sender: `remote_ops[token]`; owner: two new streams, the backlog, `remote_client_pins` | never (the reply installs or disposes of the connection) |
//! | `ConnectReply` | the listener's shard | `ConnectAck` | sender: the socket description gains the client's stream ends | — |
//! | `ConnectAck` | the connecting shard, after its `RemoteEndpoints` | — | owner's `remote_client_pins` entry and the hold behind it | — |
//! | `PollQuery` | a `poll` parking on a foreign stream | `PollAnswer` | none on the owner | — |
//! | `PollAnswer` | the owner | — | sender's `remote_stream_states` cache; its stream queues wake if the state changed | — |
//! | `RemoteEndpoints` | any change to a shard's references on a foreign stream | — | sender's `foreign_endpoints`; owner's `remote_contribs` and the stream's counts | — |
//!
//! Remote operations carry a `token` minted by the submitting shard; the
//! owner runs the very code a local call runs (`read_stream` /
//! `write_stream`) with the reply address `ReplyTo::Shard { shard, token }`,
//! so it completes at once or parks an ordinary waiter, and completing that
//! address *is* sending [`ShardMsg::RemoteOpDone`].  Tokens are per-shard
//! counters, so the same number is live on several shards at once: an owner
//! always identifies an operation by `(shard, token)`, never by the token
//! alone.  Delivery is exactly-once by construction: a completed or
//! cancelled token leaves the submitter's `remote_ops` and any late reply
//! for it is dropped.
//!
//! Signals are raised by the shard that owns the process: a remote write
//! that ends in `EPIPE` comes back as a plain error, and the submitter sends
//! its process `SIGPIPE` before completing the call — the same
//! signal-then-error order as a local write.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::Sender;

use browsix_fs::Errno;

use crate::events::KernelEvent;
use crate::exec::ProgramLauncher;
use crate::fd::{Fd, FileKind, OpenFile};
use crate::kernel::waitq::WaitChannel;
use crate::kernel::{KernelState, Outcome, ReplyTo};
use crate::signals::Signal;
use crate::socket::StreamPair;
use crate::streams::{Stream, StreamId, StreamState};
use crate::syscall::SysResult;
use crate::task::Pid;
use crate::vm::ShmObject;

/// Maximum shard count (the id encodings below reserve 6 bits).
pub const MAX_SHARDS: usize = 64;

/// Low bits of a stream id that name the owning shard.
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

/// What a pending remote operation was, so its reply installs the right
/// state on the submitting shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RemoteKind {
    /// A read from a foreign stream.
    Read,
    /// A write to a foreign stream.
    Write,
    /// A connect to `port`, whose listener a foreign shard owns; the reply
    /// turns `fd` into the client side of the connection.
    Connect { fd: Fd, port: u16 },
}

/// A syscall parked on this shard while a foreign shard executes it; keyed
/// by the token the reply will carry.  Removing the entry on completion or
/// cancellation is what makes delivery exactly-once: a late or duplicate
/// reply finds no entry and is dropped.
pub(crate) struct PendingRemote {
    pub pid: Pid,
    pub reply: ReplyTo,
    pub kind: RemoteKind,
    /// The shard executing the op (receives `CancelOp` on EINTR/death).
    pub owner: usize,
}

/// A message between shards.  Every cross-shard effect in the kernel is one
/// of these; they are delivered through the owning shard's ordinary
/// [`KernelEvent`] queue, so they interleave
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
    /// A remote read or write finished; the submitter completes the
    /// original syscall (raising SIGPIPE first if a write ended in `EPIPE`).
    RemoteOpDone {
        /// Token from the original request.
        token: u64,
        /// The syscall result.
        result: SysResult,
    },
    /// The submitting process died or took EINTR: the owner drops the
    /// waiter it parked for `(from_shard, token)`, if any, without replying.
    CancelOp {
        /// The shard that minted `token` (tokens repeat across shards).
        from_shard: usize,
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
    /// Reply to [`ShardMsg::Connect`]: the client's side of the established
    /// connection (both streams live on the listener's shard) or the refusal.
    ConnectReply {
        /// Token from the original request.
        token: u64,
        /// The client's stream pair, or the errno.
        result: Result<StreamPair, Errno>,
    },
    /// The connecting shard has counted its client descriptor (and sent the
    /// per-stream tallies ahead of this message): the owner drops the hold
    /// it kept on the client side so the connection would not look
    /// half-closed in the interim.
    ConnectAck {
        /// The client side whose pin to release.
        client: StreamPair,
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
        /// Its state on the owner ([`StreamState::GONE`] once freed).
        state: StreamState,
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
            ShardMsg::RemoteOpDone { token, result } => write!(f, "RemoteOpDone(token={token}, {result:?})"),
            ShardMsg::CancelOp { from_shard, token } => write!(f, "CancelOp(from={from_shard}, token={token})"),
            ShardMsg::Connect { token, port, .. } => write!(f, "Connect(token={token}, port={port})"),
            ShardMsg::ConnectReply { token, result } => write!(f, "ConnectReply(token={token}, {result:?})"),
            ShardMsg::ConnectAck { client } => write!(f, "ConnectAck({client:?})"),
            ShardMsg::PollQuery { stream, from_shard } => {
                write!(f, "PollQuery(stream={stream}, from={from_shard})")
            }
            ShardMsg::PollAnswer { stream, state } => write!(f, "PollAnswer(stream={stream}, {state:?})"),
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

impl KernelState {
    /// Sends a message to a peer shard (its event queue preserves the order
    /// of everything this shard sent it).
    pub(crate) fn send_shard(&mut self, shard: usize, msg: ShardMsg) {
        self.stats.shard_msgs_sent += 1;
        let _ = self.peers[shard].send(KernelEvent::Shard(msg));
    }

    /// Mints a token for a cross-shard exchange this shard starts.
    pub(crate) fn next_remote_token(&mut self) -> u64 {
        let token = self.next_remote_token;
        self.next_remote_token += 1;
        token
    }

    /// Whether a stream id belongs to another shard.
    pub(crate) fn stream_is_remote(&self, stream: StreamId) -> bool {
        stream_shard(stream) != self.shard_id
    }

    /// The one answer to "what state is this stream in": read off the
    /// [`Stream`] when this shard owns it (a freed one is
    /// [`StreamState::GONE`]), else the owner's latest [`ShardMsg::PollAnswer`]
    /// — `None` until the first one arrives.
    pub(crate) fn stream_state(&self, stream: StreamId) -> Option<StreamState> {
        if self.stream_is_remote(stream) {
            self.remote_stream_states.get(&stream).copied()
        } else {
            Some(self.streams.get(stream).map_or(StreamState::GONE, Stream::state))
        }
    }

    /// Parks a system call in `remote_ops` while `owner` executes it, and
    /// returns the token its reply will carry.
    fn park_remote(&mut self, pid: Pid, reply: ReplyTo, kind: RemoteKind, owner: usize) -> u64 {
        let token = self.next_remote_token();
        let op = PendingRemote {
            pid,
            reply,
            kind,
            owner,
        };
        self.remote_ops.insert(token, op);
        token
    }

    /// Submits a read of a foreign stream to its owner; the syscall stays in
    /// `remote_ops` until [`ShardMsg::RemoteOpDone`] comes back.
    pub(crate) fn remote_read(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        stream: StreamId,
        len: usize,
        nonblocking: bool,
    ) -> Outcome {
        let owner = stream_shard(stream);
        let msg = ShardMsg::RemoteRead {
            token: self.park_remote(pid, reply, RemoteKind::Read, owner),
            from_shard: self.shard_id,
            pid,
            stream,
            len,
            nonblocking,
        };
        self.send_shard(owner, msg);
        Outcome::Blocked
    }

    /// Submits a write to a foreign stream to its owner.
    pub(crate) fn remote_write(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        stream: StreamId,
        data: Vec<u8>,
        nonblocking: bool,
    ) -> Outcome {
        let owner = stream_shard(stream);
        let msg = ShardMsg::RemoteWrite {
            token: self.park_remote(pid, reply, RemoteKind::Write, owner),
            from_shard: self.shard_id,
            pid,
            stream,
            data,
            nonblocking,
        };
        self.send_shard(owner, msg);
        Outcome::Blocked
    }

    /// Submits a `connect` to the shard owning the target port's listener;
    /// the caller's descriptor is upgraded when the reply arrives.  Connect
    /// ops are exempt from `EINTR` cancellation (the reply installs the
    /// connection; abandoning it would leak the server-side streams), so
    /// they only ever resolve via [`ShardMsg::ConnectReply`] or task death.
    pub(crate) fn remote_connect(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, owner: usize, port: u16) -> Outcome {
        let msg = ShardMsg::Connect {
            token: self.park_remote(pid, reply, RemoteKind::Connect { fd, port }, owner),
            from_shard: self.shard_id,
            port,
        };
        self.send_shard(owner, msg);
        Outcome::Blocked
    }

    /// Takes every operation other shards are executing for `pid` out of
    /// `remote_ops` — connects too only when `connects` says so — and tells
    /// each owner to drop its parked side.  A completion already in flight
    /// finds no token here and is discarded: exactly once either way.
    pub(crate) fn cancel_remote_ops(&mut self, pid: Pid, connects: bool) -> Vec<PendingRemote> {
        let tokens: Vec<u64> = self
            .remote_ops
            .iter()
            .filter(|(_, op)| op.pid == pid && (connects || !matches!(op.kind, RemoteKind::Connect { .. })))
            .map(|(&token, _)| token)
            .collect();
        let from_shard = self.shard_id;
        tokens
            .into_iter()
            .filter_map(|token| {
                let op = self.remote_ops.remove(&token)?;
                self.send_shard(op.owner, ShardMsg::CancelOp { from_shard, token });
                Some(op)
            })
            .collect()
    }

    pub(crate) fn handle_shard_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::SpawnTask {
                token,
                origin,
                pid,
                ppid,
                pgid,
                name,
                path,
                cwd,
                args,
                env,
                launcher,
                file_bytes,
                stdio,
            } => {
                let blob_url = file_bytes.map(|bytes| self.blobs.create_url(bytes));
                // The handles were exported for this shard: count each once
                // (stdout and stderr are often one description).  The origin
                // keeps its own references pinned until the ack, so the
                // streams cannot see a gap.
                for (i, file) in stdio.iter().enumerate() {
                    if !stdio[..i].iter().any(|earlier| Arc::ptr_eq(earlier, file)) {
                        self.adopt_file(file);
                    }
                }
                self.install_task(
                    pid, ppid, pgid, &name, &path, &cwd, args, env, stdio, blob_url, None, launcher,
                );
                self.send_shard(origin, ShardMsg::SpawnAck { token });
            }
            ShardMsg::SpawnAck { token } => {
                for file in self.pinned_files.remove(&token).unwrap_or_default() {
                    self.release_file(file);
                }
            }
            ShardMsg::ChildExited { pid, ppid, status } => {
                if self.tasks.get(&ppid).map(|t| !t.is_zombie()).unwrap_or(false) {
                    self.remote_zombies.insert(pid, status);
                    let _ = self.send_signal(ppid, Signal::SIGCHLD);
                    self.wake(WaitChannel::ChildOf(ppid));
                }
                // Parent died concurrently: the child's shard already
                // dropped the task and recorded the exit status for host
                // watchers; nothing to reap here.
            }
            ShardMsg::ChildStopped { pid, ppid, signal } => {
                if self.tasks.get(&ppid).map(|t| !t.is_zombie()).unwrap_or(false) {
                    self.remote_stops.insert(pid, signal);
                    let _ = self.send_signal(ppid, Signal::SIGCHLD);
                    self.wake(WaitChannel::ChildOf(ppid));
                }
            }
            ShardMsg::ChildContinued { pid, .. } => {
                self.remote_stops.remove(&pid);
            }
            ShardMsg::Reparent { child } => {
                if let Some(task) = self.tasks.get_mut(&child) {
                    task.ppid = 0;
                    if task.is_zombie() {
                        self.remove_task(child);
                    }
                }
            }
            ShardMsg::SignalPid { pid, signal } => {
                let _ = self.send_signal(pid, signal);
            }
            ShardMsg::SetPgid { pid, pgid } => {
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.pgid = pgid;
                }
            }
            ShardMsg::RemoteRead {
                token,
                from_shard: shard,
                pid,
                stream,
                len,
                nonblocking,
            } => {
                // The local read, with a reply address on the submitter's shard.
                self.stats.steals += 1;
                let reply = ReplyTo::Shard { shard, token };
                if let Outcome::Complete(result) = self.read_stream(pid, reply, stream, len, nonblocking) {
                    self.complete(pid, reply, result);
                }
            }
            ShardMsg::RemoteWrite {
                token,
                from_shard: shard,
                pid,
                stream,
                data,
                nonblocking,
            } => {
                self.stats.steals += 1;
                let reply = ReplyTo::Shard { shard, token };
                if let Outcome::Complete(result) = self.write_stream(pid, reply, stream, data, nonblocking) {
                    self.complete(pid, reply, result);
                }
            }
            ShardMsg::RemoteOpDone { token, result } => {
                // Exactly-once: a token cancelled by EINTR or death has
                // left the table, and this late reply is dropped.
                let Some(op) = self.remote_ops.remove(&token) else {
                    return;
                };
                // The process lives here, so its SIGPIPE is raised here —
                // before the error completes, as for a local write.
                if matches!((op.kind, &result), (RemoteKind::Write, SysResult::Err(Errno::EPIPE))) {
                    let _ = self.send_signal(op.pid, Signal::SIGPIPE);
                }
                self.complete(op.pid, op.reply, result);
            }
            ShardMsg::CancelOp {
                from_shard: shard,
                token,
            } => {
                let cancelled = Some(ReplyTo::Shard { shard, token });
                drop(self.waiters.take_matching(|w| w.reply == cancelled));
            }
            ShardMsg::Connect {
                token,
                from_shard,
                port,
            } => {
                self.stats.steals += 1;
                let result = self.open_connection(port);
                if let Ok(client) = result {
                    // Hold the client side until the connecting shard has
                    // counted its descriptor and acks; otherwise the server
                    // could observe a half-closed connection in the gap.
                    self.remote_client_pins.insert(client);
                    self.hold_connection_side(client);
                    self.wake(WaitChannel::Listener(port));
                }
                self.send_shard(from_shard, ShardMsg::ConnectReply { token, result });
            }
            ShardMsg::ConnectReply { token, result } => {
                let op = self.remote_ops.remove(&token);
                let result = match result {
                    Ok(client) => {
                        // The descriptor must still be the unconnected socket
                        // that asked (the caller may have died, or closed and
                        // reused the number, while the connect was in flight).
                        let socket = op.as_ref().and_then(|op| match op.kind {
                            RemoteKind::Connect { fd, port } => {
                                Some((self.tasks.get(&op.pid)?.files.get(fd).ok()?, port))
                            }
                            _ => None,
                        });
                        let socket = socket.filter(|(file, _)| matches!(file.kind(), FileKind::Socket { .. }));
                        if let Some((file, port)) = &socket {
                            // Counting the client side tells the owner, per
                            // stream; FIFO ordering makes those tallies land
                            // before the ack that drops the owner's hold.
                            self.connect_file(file, client, *port);
                        }
                        self.send_shard(stream_shard(client.reads), ShardMsg::ConnectAck { client });
                        match socket {
                            Some(_) => SysResult::Ok,
                            None => SysResult::Err(Errno::EBADF),
                        }
                    }
                    Err(errno) => SysResult::Err(errno),
                };
                if let Some(op) = op {
                    self.complete(op.pid, op.reply, result);
                }
            }
            ShardMsg::ConnectAck { client } => {
                if self.remote_client_pins.remove(&client) {
                    self.drop_connection_side(client);
                }
            }
            ShardMsg::PollQuery { stream, from_shard } => {
                if let Some(state) = self.stream_state(stream) {
                    self.send_shard(from_shard, ShardMsg::PollAnswer { stream, state });
                }
            }
            ShardMsg::PollAnswer { stream, state } => {
                // Wake local pollers of this stream only when the snapshot
                // *changed*: an unconditional wake would re-query on repark
                // and ping-pong with the owner forever, while a silent cache
                // update would be a lost wakeup (the scavenger would find a
                // completable poll nobody woke).  A retry triggered by a
                // change either completes or reparks; the repark's re-query
                // returns the same snapshot, so the exchange terminates.
                if self.remote_stream_states.insert(stream, state) != Some(state) {
                    self.stats.cross_shard_wakeups += 1;
                    self.wake(WaitChannel::StreamReadable(stream));
                    self.wake(WaitChannel::StreamWritable(stream));
                }
            }
            ShardMsg::RemoteEndpoints {
                from_shard,
                stream,
                readers,
                writers,
            } => self.apply_remote_endpoints(from_shard, stream, readers, writers),
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
        assert_eq!(stream_shard(SHARD_ID_STRIDE + 63), 63);
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
