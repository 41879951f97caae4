//! # browsix-runtime — process-side runtime support
//!
//! Applications never talk to the Browsix kernel directly; they go through
//! their language runtime.  The paper extends three runtimes — Emscripten
//! (C/C++), GopherJS (Go) and Node.js — so unmodified programs issue Browsix
//! system calls.  This crate is the equivalent layer for the Rust
//! reproduction:
//!
//! * [`program`] — the [`GuestProgram`] trait: a program written against the
//!   POSIX-style [`RuntimeEnv`] interface, standing in for a binary compiled
//!   to JavaScript.
//! * [`env`](mod@env) — [`RuntimeEnv`], the system interface guest programs see
//!   (files, directories, processes, pipes, signals, sockets, stdio and the
//!   compute cost model).
//! * [`profile`] — [`ExecutionProfile`]: the calibrated cost model for each
//!   execution environment (native, Node.js on Linux, Browsix with
//!   synchronous or asynchronous system calls, GopherJS numeric code).
//! * [`client`] — the worker-side system-call client implementing both
//!   conventions from §3.2 of the paper.
//! * [`browsix_env`] — [`RuntimeEnv`] implemented over the system-call
//!   client: what a process running under Browsix uses.
//! * [`native`] — [`RuntimeEnv`] implemented directly over an in-process
//!   file system: the "native Linux" and "Node.js on Linux" baselines from
//!   Figure 9.
//! * [`emscripten`], [`gopherjs`], [`nodejs`] — the three launcher types
//!   (C/C++ with asm.js or Emterpreter modes and `fork` support, Go, and
//!   Node.js), each a [`ProgramLauncher`](browsix_core::ProgramLauncher)
//!   the kernel can start inside a worker.

pub mod browsix_env;
pub mod client;
pub mod emscripten;
pub mod env;
pub mod gopherjs;
pub mod native;
pub mod nodejs;
pub mod profile;
pub mod program;

pub use browsix_browser::SharedArrayBuffer;
pub use browsix_env::BrowsixEnv;
pub use client::SyscallClient;
pub use emscripten::{EmscriptenLauncher, EmscriptenMode};
pub use env::{
    JobCall, JobValue, MappedRegion, PollFd, RuntimeEnv, SpawnAttrs, SpawnGroup, SpawnStdio, WaitedChild,
    MAP_ANONYMOUS, MAP_PRIVATE, MAP_SHARED, PAGE_SIZE, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT, PROT_READ,
    PROT_WRITE,
};
pub use gopherjs::GopherJsLauncher;
pub use native::{NativeEnv, NativeWorld};
pub use nodejs::NodeLauncher;
pub use profile::{ExecutionProfile, SyscallConvention};
pub use program::{factory, guest, FnProgram, GuestFactory, GuestProgram, ProgramTable};
