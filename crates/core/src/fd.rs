//! File descriptors and per-task descriptor tables.
//!
//! Each Browsix task owns a map of open file descriptors.  Child processes
//! inherit their parent's descriptor table, and the kernel manages each
//! underlying object (file, directory, pipe or socket) with reference
//! counting — here expressed as shared [`OpenFile`] descriptions behind
//! `Arc`s, exactly like Unix "open file descriptions" shared by `dup` and
//! inheritance.
//!
//! A description says for itself which kernel stream ends it refers to
//! ([`FileKind::read_stream`], [`FileKind::write_stream`]): a pipe end is one,
//! a connected socket is two — the stream flowing towards it and the one
//! flowing away — and nothing else in the kernel has to be looked up to
//! read, write, poll, count or hand such a descriptor to another shard.
//!
//! The `Arc` *is* the reference count the kernel's pipe and socket
//! bookkeeping hangs off: a description's stream ends are counted once
//! when it is created (or becomes a connected socket) and dropped once when
//! its last `Arc` goes away.  Every table operation that can let go of a
//! description — [`FdTable::remove`], [`FdTable::insert_at`],
//! [`FdTable::clear`] — therefore hands it back to the caller, and the
//! kernel passes it to its one release point (`KernelState::release_file`),
//! where [`Arc::into_inner`] says whether it was the last reference.  `dup`,
//! `dup2` and `fork` only clone the `Arc` and cost no bookkeeping at all.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use browsix_fs::{Errno, FileHandle, OpenFlags};

use crate::events::OutputSink;
use crate::streams::StreamId;

/// A file-descriptor number.
pub type Fd = i32;

/// What an open descriptor refers to.
#[derive(Clone)]
pub enum FileKind {
    /// A regular file in the shared file system.  The path was resolved once
    /// at `open`; all I/O goes through the handle, never a path string.
    File {
        /// Handle bound to the resolved node.
        handle: Arc<dyn FileHandle>,
        /// Flags it was opened with.
        flags: OpenFlags,
    },
    /// An open directory (usable with `fstat`/`getdents`).
    Directory {
        /// Absolute path of the directory.
        path: String,
    },
    /// The read end of a pipe.
    PipeReader {
        /// Kernel stream carrying the pipe's bytes.
        stream: StreamId,
    },
    /// The write end of a pipe.
    PipeWriter {
        /// Kernel stream carrying the pipe's bytes.
        stream: StreamId,
    },
    /// An unbound/unconnected TCP socket.
    Socket {
        /// Port it has been bound to, if any.
        bound_port: Option<u16>,
    },
    /// A listening TCP socket.
    SocketListener {
        /// The port being listened on.
        port: u16,
    },
    /// One side of an established connection: two stream ends.
    SocketStream {
        /// Kernel stream flowing towards this side.
        reads: StreamId,
        /// Kernel stream flowing away from it.
        writes: StreamId,
        /// The port the connection was made to.
        port: u16,
    },
    /// A sink owned by the embedding web application (the stdout/stderr
    /// callbacks passed to `kernel.system(...)`).  The description owns the
    /// callback, so it is dropped with the last descriptor that can write
    /// to it — on whichever shard that descriptor lives.
    HostSink {
        /// Receives every write.
        sink: OutputSink,
    },
    /// The controlling terminal's input.  Reads return EOF (the terminal UI
    /// feeds input by other means) — unless the reader is in a background
    /// process group, in which case the kernel raises `SIGTTIN`, as Unix job
    /// control does.  Writes are discarded.
    Tty,
    /// `/dev/null`-style descriptor: reads return EOF, writes are discarded.
    Null,
}

impl FileKind {
    /// The stream a descriptor of this kind reads from, if it is a stream
    /// end: a pipe's read end, or the direction flowing towards a socket.
    pub fn read_stream(&self) -> Option<StreamId> {
        match *self {
            FileKind::PipeReader { stream } => Some(stream),
            FileKind::SocketStream { reads, .. } => Some(reads),
            _ => None,
        }
    }

    /// The stream a descriptor of this kind writes to, if any (the mirror
    /// of [`FileKind::read_stream`]).
    pub fn write_stream(&self) -> Option<StreamId> {
        match *self {
            FileKind::PipeWriter { stream } => Some(stream),
            FileKind::SocketStream { writes, .. } => Some(writes),
            _ => None,
        }
    }
}

impl fmt::Debug for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileKind::File { handle, flags } => f
                .debug_struct("File")
                .field("backend", &handle.backend_name())
                .field("flags", flags)
                .finish(),
            FileKind::Directory { path } => f.debug_struct("Directory").field("path", path).finish(),
            FileKind::PipeReader { stream } => f.debug_struct("PipeReader").field("stream", stream).finish(),
            FileKind::PipeWriter { stream } => f.debug_struct("PipeWriter").field("stream", stream).finish(),
            FileKind::Socket { bound_port } => f.debug_struct("Socket").field("bound_port", bound_port).finish(),
            FileKind::SocketListener { port } => f.debug_struct("SocketListener").field("port", port).finish(),
            FileKind::SocketStream { reads, writes, port } => f
                .debug_struct("SocketStream")
                .field("reads", reads)
                .field("writes", writes)
                .field("port", port)
                .finish(),
            FileKind::HostSink { .. } => f.write_str("HostSink"),
            FileKind::Tty => f.write_str("Tty"),
            FileKind::Null => f.write_str("Null"),
        }
    }
}

/// A shared "open file description": the object a descriptor number points
/// at.  `dup`, `dup2` and child inheritance all share the same description,
/// which is how they share a file offset — and the `O_NONBLOCK` status flag,
/// which on Unix likewise lives on the description, not the descriptor.
#[derive(Debug)]
pub struct OpenFile {
    kind: Mutex<FileKind>,
    /// The state that follows the description onto other kernel shards.
    shared: Arc<SharedState>,
}

/// The part of a description every handle on it sees, whichever shard the
/// handle lives on: the file offset and the `O_NONBLOCK` status flag.
#[derive(Debug, Default)]
struct SharedState {
    offset: Mutex<u64>,
    nonblocking: AtomicBool,
}

impl OpenFile {
    /// Creates a description with offset zero, in blocking mode.
    pub fn new(kind: FileKind) -> Arc<OpenFile> {
        Arc::new(OpenFile {
            kind: Mutex::new(kind),
            shared: Arc::default(),
        })
    }

    /// A second handle on this description for a task on another kernel
    /// shard (the stdio of a cross-shard spawn): same offset, same status
    /// flags, same kind — which names its stream ends, so the receiving
    /// shard can count them with nothing else shipped — but its own `Arc`,
    /// so each shard sees the last of *its* references go away and accounts
    /// for the handle in its own books.  An `Arc<OpenFile>` is never held by
    /// two shards.
    pub fn export(&self) -> Arc<OpenFile> {
        Arc::new(OpenFile {
            kind: Mutex::new(self.kind()),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Whether `O_NONBLOCK` is set: reads, writes and accepts that would
    /// otherwise park on a wait queue return `EAGAIN` instead.
    pub fn nonblocking(&self) -> bool {
        self.shared.nonblocking.load(Ordering::Relaxed)
    }

    /// Sets or clears `O_NONBLOCK` (the `SetFlags` system call).
    pub fn set_nonblocking(&self, nonblocking: bool) {
        self.shared.nonblocking.store(nonblocking, Ordering::Relaxed);
    }

    /// What this description refers to.
    pub fn kind(&self) -> FileKind {
        self.kind.lock().clone()
    }

    /// Replaces what this description refers to (sockets transition from
    /// unbound to bound to listening to connected in place, so `dup`ed copies
    /// observe the change).  Becoming a connected socket gains stream
    /// endpoints: the kernel does that through `KernelState::connect_file`,
    /// never by calling this directly.
    pub fn set_kind(&self, kind: FileKind) {
        *self.kind.lock() = kind;
    }

    /// Current file offset (meaningful for regular files only).
    pub fn offset(&self) -> u64 {
        *self.shared.offset.lock()
    }

    /// Sets the file offset.
    pub fn set_offset(&self, offset: u64) {
        *self.shared.offset.lock() = offset;
    }

    /// Advances the file offset by `delta` and returns the new value.
    pub fn advance_offset(&self, delta: u64) -> u64 {
        let mut offset = self.shared.offset.lock();
        *offset += delta;
        *offset
    }
}

/// A per-task table of descriptor numbers.
#[derive(Debug, Default)]
pub struct FdTable {
    entries: BTreeMap<Fd, Arc<OpenFile>>,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> FdTable {
        FdTable::default()
    }

    /// Installs `file` at the lowest free descriptor number at or above
    /// `min`, returning the number (the POSIX allocation rule).
    pub fn insert(&mut self, file: Arc<OpenFile>, min: Fd) -> Fd {
        let mut fd = min.max(0);
        while self.entries.contains_key(&fd) {
            fd += 1;
        }
        self.entries.insert(fd, file);
        fd
    }

    /// Installs `file` at exactly `fd` (`dup2` semantics), returning the
    /// description that was open there, which the caller must release.
    #[must_use = "the displaced description must be released"]
    pub fn insert_at(&mut self, fd: Fd, file: Arc<OpenFile>) -> Option<Arc<OpenFile>> {
        self.entries.insert(fd, file)
    }

    /// Looks up a descriptor.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] if the descriptor is not open.
    pub fn get(&self, fd: Fd) -> Result<Arc<OpenFile>, Errno> {
        self.entries.get(&fd).cloned().ok_or(Errno::EBADF)
    }

    /// Removes a descriptor, returning its description for the caller to
    /// release.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] if the descriptor is not open.
    pub fn remove(&mut self, fd: Fd) -> Result<Arc<OpenFile>, Errno> {
        self.entries.remove(&fd).ok_or(Errno::EBADF)
    }

    /// Whether `fd` is open.
    pub fn contains(&self, fd: Fd) -> bool {
        self.entries.contains_key(&fd)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(fd, description)` pairs in ascending fd order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, &Arc<OpenFile>)> {
        self.entries.iter().map(|(fd, file)| (*fd, file))
    }

    /// Clones the table, sharing every description — what `fork`/`spawn`
    /// inheritance does.
    pub fn inherit(&self) -> FdTable {
        FdTable {
            entries: self.entries.clone(),
        }
    }

    /// Removes every descriptor (process exit), returning the descriptions
    /// in ascending fd order for the caller to release.
    #[must_use = "the removed descriptions must be released"]
    pub fn clear(&mut self) -> Vec<Arc<OpenFile>> {
        std::mem::take(&mut self.entries).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn null_file() -> Arc<OpenFile> {
        OpenFile::new(FileKind::Null)
    }

    /// An open-file description over a real (memfs) handle.
    fn file_description(flags: OpenFlags) -> Arc<OpenFile> {
        use browsix_fs::{FileSystem, MemFs};
        let fs = MemFs::new();
        fs.write_file("/data", b"0123456789").unwrap();
        let handle = fs.open_handle("/data", flags).unwrap();
        OpenFile::new(FileKind::File { handle, flags })
    }

    #[test]
    fn insert_allocates_lowest_free_descriptor() {
        let mut table = FdTable::new();
        assert_eq!(table.insert(null_file(), 0), 0);
        assert_eq!(table.insert(null_file(), 0), 1);
        assert_eq!(table.insert(null_file(), 0), 2);
        table.remove(1).unwrap();
        assert_eq!(table.insert(null_file(), 0), 1);
        assert_eq!(table.insert(null_file(), 10), 10);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn get_and_remove_unknown_fd_is_ebadf() {
        let mut table = FdTable::new();
        assert_eq!(table.get(5).err(), Some(Errno::EBADF));
        assert_eq!(table.remove(5).err(), Some(Errno::EBADF));
    }

    #[test]
    fn dup_shares_the_offset() {
        let mut table = FdTable::new();
        let file = file_description(OpenFlags::read_only());
        let fd = table.insert(file.clone(), 0);
        let dup_fd = table.insert(table.get(fd).unwrap(), 0);
        table.get(fd).unwrap().set_offset(100);
        assert_eq!(table.get(dup_fd).unwrap().offset(), 100);
        table.get(dup_fd).unwrap().advance_offset(5);
        assert_eq!(table.get(fd).unwrap().offset(), 105);
    }

    #[test]
    fn insert_at_replaces_existing_entry() {
        let mut table = FdTable::new();
        let first = null_file();
        let second = OpenFile::new(FileKind::PipeReader { stream: 3 });
        assert!(table.insert_at(1, first.clone()).is_none());
        let displaced = table.insert_at(1, second).expect("fd 1 was open");
        assert!(Arc::ptr_eq(&displaced, &first));
        // The table held the only other reference: the caller now owns the
        // last one, which is what the kernel's release point keys on.
        drop(first);
        assert!(Arc::into_inner(displaced).is_some());
        assert!(matches!(
            table.get(1).unwrap().kind(),
            FileKind::PipeReader { stream: 3 }
        ));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn inherit_shares_descriptions() {
        let mut parent = FdTable::new();
        let file = file_description(OpenFlags::read_write());
        assert!(parent.insert_at(0, file.clone()).is_none());
        let child = parent.inherit();
        child.get(0).unwrap().set_offset(42);
        assert_eq!(parent.get(0).unwrap().offset(), 42);
        assert!(Arc::ptr_eq(&parent.get(0).unwrap(), &child.get(0).unwrap()));
    }

    #[test]
    fn iter_is_in_fd_order_and_clear_empties() {
        let mut table = FdTable::new();
        let pipe = OpenFile::new(FileKind::PipeWriter { stream: 9 });
        assert!(table.insert_at(2, pipe.clone()).is_none());
        assert!(table.insert_at(0, null_file()).is_none());
        assert!(table.insert_at(1, pipe).is_none());
        let fds: Vec<Fd> = table.iter().map(|(fd, _)| fd).collect();
        assert_eq!(fds, vec![0, 1, 2]);
        assert!(!table.is_empty());
        let removed = table.clear();
        assert!(table.is_empty());
        // Every entry comes back, in fd order; of a description dup'd across
        // two descriptors only the second hand-back is the last reference.
        assert_eq!(removed.len(), 3);
        let last: Vec<bool> = removed.into_iter().map(|f| Arc::into_inner(f).is_some()).collect();
        assert_eq!(last, vec![true, false, true]);
    }

    #[test]
    fn a_description_names_its_stream_ends_and_an_export_carries_them() {
        let ends = |kind: &FileKind| (kind.read_stream(), kind.write_stream());
        assert_eq!(ends(&FileKind::PipeReader { stream: 3 }), (Some(3), None));
        assert_eq!(ends(&FileKind::PipeWriter { stream: 3 }), (None, Some(3)));
        assert_eq!(ends(&FileKind::Socket { bound_port: Some(80) }), (None, None));
        assert_eq!(ends(&FileKind::Null), (None, None));
        let socket = OpenFile::new(FileKind::SocketStream {
            reads: 64,
            writes: 128,
            port: 80,
        });
        assert_eq!(ends(&socket.kind()), (Some(64), Some(128)));
        assert_eq!(ends(&socket.export().kind()), (Some(64), Some(128)));
    }

    #[test]
    fn exported_handle_shares_offset_and_flags_but_not_the_arc() {
        let file = file_description(OpenFlags::read_only());
        let peer = file.export();
        assert!(!Arc::ptr_eq(&file, &peer));
        file.set_offset(7);
        peer.set_nonblocking(true);
        assert_eq!(peer.offset(), 7);
        assert!(file.nonblocking());
        // Each side sees the last of its own references independently.
        assert!(Arc::into_inner(peer).is_some());
        assert!(Arc::into_inner(file).is_some());
    }
}
