//! # browsix-core — the Browsix kernel
//!
//! This crate is the paper's primary contribution: a kernel that lives in the
//! main browser context and provides Unix services — processes, a shared file
//! system, pipes, sockets and signals — to processes running in Web Workers,
//! reached exclusively through a system-call interface.
//!
//! Architecture (mirroring §3 of the paper):
//!
//! * The kernel owns all shared state and runs an event loop on its own
//!   thread (the analogue of the main browser thread).  Everything arrives as
//!   an event: system calls from processes, host API calls from the embedding
//!   web application.
//! * Each process is a worker created through `browsix-browser`.  Processes
//!   issue system calls over two transports: asynchronous
//!   [messages](KernelEvent::Syscall) (structured-clone frames, works
//!   everywhere) and, for a process that handed the kernel a
//!   `SharedArrayBuffer` heap, the synchronous [`ring`] mapped into it
//!   (submission and completion queues plus `Atomics.wait`; Chrome-only at
//!   publication time but much faster).  Handing over the heap
//!   ([`KernelEvent::MapRing`], no reply) maps the ring, and from then on the
//!   ring carries every call the process makes.
//! * The file system is a [`browsix_fs::MountedFs`] shared by every process.
//! * Pipes, sockets and signals live in kernel tables and are reference
//!   counted across `spawn`/`fork`/`dup`/process exit.
//!
//! The public entry point for embedding applications is [`Kernel`] (see
//! [`hostapi`]), whose `boot`/`system` methods correspond to the JavaScript
//! API in Figure 4 of the paper.
//!
//! # Example
//!
//! ```
//! use browsix_core::{BootConfig, Kernel};
//! use browsix_fs::FileSystem;
//!
//! // Boot a kernel with an empty in-memory file system and no registered
//! // executables; the runtime crates register real programs.
//! let kernel = Kernel::boot(BootConfig::in_memory());
//! kernel.fs().mkdir("/etc").unwrap();
//! kernel.fs().write_file("/etc/motd", b"hello from browsix").unwrap();
//! assert_eq!(kernel.fs().read_file("/etc/motd").unwrap(), b"hello from browsix");
//! kernel.shutdown();
//! ```

#![warn(missing_docs)]

pub mod abi;
pub mod events;
pub mod exec;
pub mod fd;
pub mod hostapi;
pub mod kernel;
pub mod ring;
pub mod signals;
pub mod socket;
pub mod stats;
pub mod streams;
pub mod syscall;
pub mod task;
pub mod vm;
pub mod wire;

pub use events::{HostRequest, KernelEvent, OutputSink};
pub use exec::{ExecutableRegistry, ForkImage, LaunchContext, ProcessStart, ProgramLauncher};
pub use fd::{Fd, FdTable, OpenFile};
pub use hostapi::{BootConfig, ExitStatus, Kernel, ProcessHandle, ResourceCounts};
pub use ring::{Ring, RingGeometry};
pub use signals::{SigAction, SigSet, Signal, SignalDisposition, SignalState, SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK};
pub use stats::KernelStats;
pub use streams::{Stream, StreamId, StreamTable};
pub use syscall::{
    encode_stop_status, encode_wait_status, wait_status_exit_code, wait_status_signal, wait_status_stop_signal,
    ByteSource, Completion, CompletionBatch, PollRequest, SysResult, Syscall, SyscallBatch, DETACH_MIN_BYTES, NONBLOCK,
    POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT, WNOHANG, WUNTRACED,
};
pub use task::{Pid, TaskState};
pub use vm::{
    AddressSpace, ShmObject, VmDelta, MAP_ANONYMOUS, MAP_PRIVATE, MAP_SHARED, PAGE_SIZE, PROT_READ, PROT_WRITE,
};

/// Re-export of the error type shared with the file system layer.
pub use browsix_fs::Errno;
