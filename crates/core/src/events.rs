//! Events processed by the kernel's main loop.
//!
//! Everything that happens to the kernel arrives as a [`KernelEvent`] on a
//! single queue, mirroring the way every interaction with the real Browsix
//! kernel arrives as a `postMessage` on the main browser thread: system calls
//! from processes, the shared heaps their rings are mapped in, and calls made
//! by the embedding web application through the host API.

use std::sync::Arc;

use crossbeam::channel::Sender;

use browsix_browser::SharedArrayBuffer;
use browsix_fs::Errno;
use browsix_http::{HttpRequest, HttpResponse};

use crate::hostapi::ResourceCounts;
use crate::signals::Signal;
use crate::stats::KernelStats;
use crate::task::{Pid, TaskSpec};

/// A callback the embedding application supplies for a process's standard
/// output or standard error (the `logStdout`/`logStderr` parameters of
/// `kernel.system` in Figure 4 of the paper).
pub type OutputSink = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// A host-API request, carried to the kernel thread with a reply channel.
pub enum HostRequest {
    /// Start a process on behalf of the web application.
    Spawn {
        /// The process: its `env` is merged over the boot-time defaults
        /// where the kernel receives it.  Boxed, so that every event on the
        /// kernel's queue is not as large as a spawn.
        spec: Box<TaskSpec>,
        /// Receives the new pid, or the reason the spawn failed.
        reply: Sender<Result<Pid, Errno>>,
    },
    /// Deliver a signal to a process (the host-side `kill`).
    Kill {
        /// Target process.
        pid: Pid,
        /// Signal to deliver.
        signal: Signal,
        /// Receives whether the signal was delivered.
        reply: Sender<Result<(), Errno>>,
    },
    /// Deliver a signal to the foreground process group of the controlling
    /// terminal (what the terminal UI sends for `Ctrl-C`/`Ctrl-Z`).
    SignalForeground {
        /// Signal to deliver (typically SIGINT or SIGTSTP).
        signal: Signal,
        /// Receives whether a foreground group existed and was signalled.
        reply: Sender<Result<(), Errno>>,
    },
    /// Ask to be told when a process exits (used by the host-side `wait`).
    WatchExit {
        /// The process to watch.
        pid: Pid,
        /// Receives the wait status; fires immediately for an exited,
        /// unreaped child whose exit record is on this shard (its parent
        /// lives here).  Any other pid that is no longer live — never
        /// started, reaped, a child whose parent is on another shard, or a
        /// host-started process that already exited — gets the unknown-pid
        /// status at once (exit code 127): to learn a host process's status,
        /// watch it from its spawn.
        reply: Sender<i32>,
    },
    /// Issue an HTTP request to an in-Browsix server (the paper's
    /// `XMLHttpRequest`-like API).
    HttpRequest {
        /// The loopback port the server is listening on.
        port: u16,
        /// The request to send.
        request: HttpRequest,
        /// Receives the parsed response.
        reply: Sender<Result<HttpResponse, Errno>>,
    },
    /// Subscribe to socket notifications: the channel receives the port
    /// number every time a process starts listening.
    SubscribePortListen {
        /// Receives port numbers as listeners appear.
        listener: Sender<u16>,
    },
    /// Fetch the ports that currently have listening sockets.
    ListeningPorts {
        /// Receives the sorted port list.
        reply: Sender<Vec<u16>>,
    },
    /// Fetch a snapshot of kernel statistics.
    ReadStats {
        /// Receives the snapshot.
        reply: Sender<KernelStats>,
    },
    /// Count the live kernel objects of one shard (what is resident *now*,
    /// where [`HostRequest::ReadStats`] says what happened so far).
    ReadResources {
        /// Receives the counts.
        reply: Sender<ResourceCounts>,
    },
    /// List the live tasks as `(pid, ppid, name, state)` tuples, for the
    /// terminal's `ps`-like inspection of kernel state.
    ListTasks {
        /// Receives the task list.
        reply: Sender<Vec<(Pid, Pid, String, String)>>,
    },
}

impl std::fmt::Debug for HostRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            HostRequest::Spawn { spec, .. } => return write!(f, "Spawn({})", spec.path),
            HostRequest::Kill { pid, signal, .. } => return write!(f, "Kill({pid}, {signal})"),
            HostRequest::SignalForeground { signal, .. } => return write!(f, "SignalForeground({signal})"),
            HostRequest::WatchExit { pid, .. } => return write!(f, "WatchExit({pid})"),
            HostRequest::HttpRequest { port, .. } => return write!(f, "HttpRequest(:{port})"),
            HostRequest::SubscribePortListen { .. } => "SubscribePortListen",
            HostRequest::ListeningPorts { .. } => "ListeningPorts",
            HostRequest::ReadStats { .. } => "ReadStats",
            HostRequest::ReadResources { .. } => "ReadResources",
            HostRequest::ListTasks { .. } => "ListTasks",
        };
        f.write_str(name)
    }
}

/// An event on the kernel's queue.
pub enum KernelEvent {
    /// A submission batch of system calls a process posted as a message,
    /// `postMessage(frame, transfers)`: the frame was structured-clone
    /// copied, the transfer list moved, and the reply is a message carrying
    /// `seq`.
    Syscall {
        /// The calling process.
        pid: Pid,
        /// Per-process sequence number used to match the response.
        seq: u64,
        /// The encoded [`SyscallBatch`](crate::SyscallBatch).
        payload: Vec<u8>,
        /// The buffers the frame's
        /// [`ByteSource::Transfer`](crate::ByteSource::Transfer) entries
        /// refer to by index — guest-supplied, like the frame
        /// ([`SyscallBatch::attach_payloads`](crate::SyscallBatch::attach_payloads)).
        transfers: Vec<Vec<u8>>,
    },
    /// A process handing the kernel its shared heap, which maps its syscall
    /// ring (sent once at runtime startup, like the `personality` call of
    /// §3.2; no reply).  The ring sits at its fixed place in the heap
    /// ([`Ring::map`](crate::ring::Ring::map)), and shared-heap write
    /// sources are read from the heap.  A task that already has a ring, or
    /// a heap too short for one, maps nothing.
    MapRing {
        /// The process.
        pid: Pid,
        /// Its shared heap.
        heap: SharedArrayBuffer,
    },
    /// A process ringing its submission-ring doorbell: its SQ went from
    /// empty to non-empty while the kernel had the `NEED_WAKEUP` flag set.
    /// Carries no payload — the entries themselves sit in shared memory
    /// (this models `Atomics.notify` on the kernel's wait address).
    Doorbell {
        /// The submitting process.
        pid: Pid,
    },
    /// A host-API request from the embedding application.
    Host(HostRequest),
    /// A message from a peer kernel shard (cross-shard pipe traffic, remote
    /// spawns, group signals...); see [`ShardMsg`](crate::kernel::shard::ShardMsg).
    Shard(crate::kernel::shard::ShardMsg),
    /// Stop the kernel: terminate all workers and end the event loop.
    Shutdown,
}

impl std::fmt::Debug for KernelEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelEvent::Syscall { pid, seq, .. } => write!(f, "Syscall(pid={pid}, seq={seq})"),
            KernelEvent::MapRing { pid, .. } => write!(f, "MapRing(pid={pid})"),
            KernelEvent::Doorbell { pid } => write!(f, "Doorbell(pid={pid})"),
            KernelEvent::Host(req) => write!(f, "Host({req:?})"),
            KernelEvent::Shard(msg) => write!(f, "Shard({msg:?})"),
            KernelEvent::Shutdown => write!(f, "Shutdown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn debug_formatting_is_informative() {
        let (tx, _rx) = unbounded();
        let event = KernelEvent::Host(HostRequest::WatchExit { pid: 4, reply: tx });
        assert_eq!(format!("{event:?}"), "Host(WatchExit(4))");

        let event = KernelEvent::Syscall {
            pid: 3,
            seq: 1,
            payload: Vec::new(),
            transfers: Vec::new(),
        };
        assert_eq!(format!("{event:?}"), "Syscall(pid=3, seq=1)");
        assert_eq!(format!("{:?}", KernelEvent::Shutdown), "Shutdown");
    }

    #[test]
    fn host_request_debug_variants() {
        let (tx, _rx) = unbounded::<Vec<u16>>();
        assert_eq!(
            format!("{:?}", HostRequest::ListeningPorts { reply: tx }),
            "ListeningPorts"
        );
        let (tx, _rx) = unbounded();
        assert_eq!(
            format!(
                "{:?}",
                HostRequest::Kill {
                    pid: 9,
                    signal: Signal::SIGKILL,
                    reply: tx
                }
            ),
            "Kill(9, SIGKILL)"
        );
    }
}
