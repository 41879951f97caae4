//! # browsix-browser — a simulated browser platform
//!
//! The Browsix paper builds a Unix kernel *inside* a web browser, on top of the
//! handful of primitives the web platform offers: Web Workers, `postMessage`
//! with structured-clone copy semantics, `SharedArrayBuffer` + `Atomics`, blob
//! URLs, and `XMLHttpRequest`-style access to remote servers.
//!
//! This crate recreates that platform as a Rust substrate so the rest of the
//! repository can faithfully reproduce the paper's architecture and its
//! performance characteristics:
//!
//! * [`worker`] — Web Workers as OS threads that can *only* communicate with
//!   the context that spawned them via message passing.
//! * [`message`] — the structured-clone value model; every message crossing a
//!   worker boundary is deep-copied, and the copy cost is charged according to
//!   the configured [`PlatformConfig`] — except the buffers named in its
//!   transfer list, which change owner.
//! * [`sab`] — `SharedArrayBuffer` plus `Atomics::wait`/`Atomics::notify`,
//!   which the synchronous system-call convention depends on.
//! * [`blob`] — blob URLs, used by the kernel to start workers from files that
//!   only exist inside the Browsix file system.
//! * [`net`] — a simulated remote HTTP endpoint with a configurable
//!   round-trip-time and bandwidth model (the "TeX Live over HTTP" and
//!   "meme server on EC2" substitutes).
//! * [`time`] — precise delay injection used by the calibrated cost models.
//!
//! # Example
//!
//! ```
//! use browsix_browser::{PlatformConfig, Message};
//! use browsix_browser::worker::{Worker, WorkerScript, WorkerScope};
//!
//! struct Echo;
//! impl WorkerScript for Echo {
//!     fn run(self: Box<Self>, scope: WorkerScope) {
//!         while let Ok(msg) = scope.recv() {
//!             if scope.post_message(msg).is_err() {
//!                 break;
//!             }
//!         }
//!     }
//! }
//!
//! let cfg = PlatformConfig::fast();
//! let worker = Worker::spawn(&cfg, "echo", Box::new(Echo));
//! worker.post_message(Message::from("hello")).unwrap();
//! let reply = worker.recv().unwrap();
//! assert_eq!(reply.as_str(), Some("hello"));
//! worker.terminate();
//! ```

pub mod blob;
pub mod config;
pub mod error;
pub mod message;
pub mod net;
pub mod sab;
pub mod time;
pub mod worker;

pub use blob::BlobRegistry;
pub use config::{BrowserKind, PlatformConfig, TRANSFER_HANDLE_BYTES};
pub use error::PlatformError;
pub use message::Message;
pub use net::{NetworkProfile, RemoteEndpoint, RemoteService, StaticFiles};
pub use sab::{AtomicsWaitResult, SharedArrayBuffer};
pub use worker::{Worker, WorkerScope, WorkerScript};
