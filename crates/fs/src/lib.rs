//! # browsix-fs — the shared file system
//!
//! Browsix extends Doppio's BrowserFS with multi-process support and lazy
//! loading of HTTP-backed files.  This crate reproduces that file-system layer
//! for the Rust port of Browsix:
//!
//! * [`errno`] — POSIX error numbers shared by the whole stack.
//! * [`path`] — purely lexical path manipulation (normalisation, joining).
//! * [`types`] — metadata, directory entries, open flags.
//! * [`backend`] — the [`FileSystem`] trait every backend implements.
//! * [`handle`] — the [`FileHandle`] trait: open-file handles bound to a
//!   node resolved once at `open`, the data plane of the VFS.
//! * [`memfs`] — a writable in-memory file system.
//! * [`httpfs`] — a read-only file system backed by a simulated remote HTTP
//!   server; files are fetched lazily on first access and cached, exactly like
//!   the TeX Live mount in the paper's LaTeX editor.
//! * [`overlay`] — a writable overlay on top of a read-only underlay with
//!   copy-up, whiteouts and the lazy-vs-eager initialisation choice the paper
//!   calls out as a key optimisation.
//! * [`mount`] — a mount table composing backends into one hierarchy.
//!
//! # Example
//!
//! ```
//! use browsix_fs::{MemFs, MountedFs, FileSystem};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), browsix_fs::Errno> {
//! let root = MountedFs::new(Arc::new(MemFs::new()));
//! root.mkdir("/home")?;
//! root.write_file("/home/main.tex", b"\\documentclass{article}")?;
//! assert_eq!(root.read_file("/home/main.tex")?, b"\\documentclass{article}");
//! # Ok(())
//! # }
//! ```

pub mod backend;
#[cfg(test)]
mod bundle;
pub mod errno;
pub mod handle;
pub mod httpfs;
pub mod memfs;
pub mod mount;
pub mod overlay;
pub mod path;
pub mod types;

pub use backend::{FileSystem, FsResult, IoStats};
pub use errno::Errno;
pub use handle::{read_full, FileHandle};
pub use httpfs::{HttpFs, HttpFsStats};
pub use memfs::{detached_handle, MemFs};
pub use mount::MountedFs;
pub use overlay::{OverlayFs, OverlayMode};
pub use types::{DirEntry, FileType, Metadata, OpenFlags};
