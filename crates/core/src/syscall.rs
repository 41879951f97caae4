//! The system-call ABI: call and result types, submission/completion batches,
//! and the single wire codec shared by both transports.
//!
//! The compact, self-describing wire codec in this module (built on
//! [`crate::wire`]) is the **only** encoder/decoder in the system.  What
//! differs between the two transports of §3.2 is how its `entry` and
//! `result` encodings are packaged:
//!
//! * **messages** (asynchronous convention, every browser) — a process
//!   submits a [`SyscallBatch`] and receives a [`CompletionBatch`] holding
//!   one [`Completion`] per entry.  The encoded submission travels to the
//!   kernel as a byte buffer inside a structured-clone message (paying the
//!   clone cost once per batch instead of once per call), and the encoded
//!   completion batch comes back the same way, once every entry has
//!   completed (entries that cannot finish immediately peel off into the
//!   kernel's wait queues individually).  Bulk payloads do not ride inside
//!   the frame: one of at least [`DETACH_MIN_BYTES`] is *detached* into the
//!   message's transfer list before encoding
//!   ([`SyscallBatch::detach_payloads`]) and re-attached after decoding
//!   ([`SyscallBatch::attach_payloads`]), by move both times, so it is never
//!   encoded, cloned or decoded — the frame carries an
//!   `{index, len}` reference in its place.
//! * **the ring** (synchronous convention, processes with a
//!   `SharedArrayBuffer` heap) — each call is one bare `entry` in a
//!   submission-queue slot and each result one bare `result` in a
//!   completion-queue slot of [`crate::ring`], with bulk write data staged in
//!   the heap ([`ByteSource::SharedHeap`]); nothing is framed and nothing is
//!   cloned.
//!
//! Wire format, all integers little-endian, strings and buffers
//! `u32`-length-prefixed:
//!
//! ```text
//! submission  := 0x42 'B' | version u8 | count u32 | entry*
//! entry       := opcode u8 | fields (fixed order per opcode)
//! completion  := 0x43 'C' | version u8 | count u32 | (index u32 | result)*
//! result      := tag u8 | payload
//! ```
//!
//! The [`Syscall`] and [`SysResult`] enums and their codec are generated
//! from `abi/syscalls.abi` by `browsix-abigen` (see `docs/ABI.md`); the
//! golden corpus in `abi/golden_corpus.txt` pins every layout byte for byte.
//!
//! # Example
//!
//! The codec round-trips every call and result shape exactly:
//!
//! ```
//! use browsix_core::{Syscall, SysResult, SyscallBatch};
//!
//! let batch = SyscallBatch {
//!     entries: vec![
//!         Syscall::GetPid,
//!         Syscall::Read { fd: 3, len: 4096 },
//!     ],
//! };
//! let decoded = SyscallBatch::decode(&batch.encode()).unwrap();
//! assert_eq!(decoded, batch);
//!
//! // Truncated or corrupt frames decode to `None`, never panic.
//! assert_eq!(SyscallBatch::decode(&batch.encode()[..5]), None);
//! ```

use browsix_fs::{DirEntry, Errno, FileType, Metadata, OpenFlags};

use crate::signals::{SigAction, Signal};
use crate::task::Pid;
use crate::wire::{self, Reader};

/// Frame marker for an encoded [`SyscallBatch`].
const BATCH_MAGIC: u8 = 0x42;
/// Frame marker for an encoded [`CompletionBatch`].
const COMPLETION_MAGIC: u8 = 0x43;
/// Codec version, bumped on incompatible layout changes.
const WIRE_VERSION: u8 = 1;

// Poll event bits, matching the Linux `poll(2)` ABI.  `events` is what the
// caller asks about; `revents` is what the kernel reports.  `POLLERR`,
// `POLLHUP` and `POLLNVAL` are always reported, whether requested or not.

/// There is data to read (or the stream is at EOF, so a read returns now).
pub const POLLIN: u16 = 0x001;
/// Writing now will not block (or will fail immediately with EPIPE).
pub const POLLOUT: u16 = 0x004;
/// Error condition (for streams: the read side is gone, writes raise EPIPE).
pub const POLLERR: u16 = 0x008;
/// Hang-up: the peer closed its end of the stream.
pub const POLLHUP: u16 = 0x010;
/// The descriptor is not open.
pub const POLLNVAL: u16 = 0x020;

/// Status-flag bit for [`Syscall::SetFlags`]: `O_NONBLOCK`.  Reads, writes
/// and accepts on a non-blocking description return `EAGAIN` instead of
/// parking on a wait queue.
pub const NONBLOCK: u32 = 0x1;

/// `wait4` option bit: return immediately when no child has changed state.
pub const WNOHANG: u32 = 1;
/// `wait4` option bit: also report children stopped by a job-control signal
/// (each stop is reported once).
pub const WUNTRACED: u32 = 2;

/// One descriptor's entry in a [`Syscall::Poll`] submission: which fd, and
/// which readiness events the caller is interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRequest {
    /// Descriptor to query.
    pub fd: i32,
    /// Requested event mask (`POLLIN` | `POLLOUT`).
    pub events: u16,
}

/// The size from which a payload leaves its message frame and travels as a
/// transfer-list item beside it.  A property of the codec, like a field
/// width: below it a reference would save less than the list costs, and the
/// frame stays byte-identical to what it always was.
pub const DETACH_MIN_BYTES: usize = 1024;

/// A source of bytes for data-carrying system calls (`write`, `pwrite`).
///
/// The message transport inlines small payloads into the submission frame
/// (and pays the structured-clone cost) and moves large ones beside it; a
/// ring submission passes an offset into the process's shared heap and the
/// kernel reads the bytes directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteSource {
    /// Bytes carried inside the submission frame.
    Inline(Vec<u8>),
    /// Bytes already present in the process's shared heap.
    SharedHeap {
        /// Byte offset within the shared heap.
        offset: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Bytes travelling beside the frame, as one item of the message's
    /// transfer list.  Exists only between [`SyscallBatch::detach_payloads`]
    /// and [`SyscallBatch::attach_payloads`]: a reference that reaches a
    /// system-call handler named no (or the wrong) buffer and is `EINVAL`.
    Transfer {
        /// Index of the buffer in the transfer list.
        index: u32,
        /// Length of that buffer in bytes.
        len: u32,
    },
}

impl ByteSource {
    /// The number of bytes this source refers to.
    pub fn len(&self) -> usize {
        match self {
            ByteSource::Inline(data) => data.len(),
            ByteSource::SharedHeap { len, .. } | ByteSource::Transfer { len, .. } => *len as usize,
        }
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ByteSource::Inline(data) => {
                wire::put_u8(out, 0);
                wire::put_bytes(out, data);
            }
            ByteSource::SharedHeap { offset, len } => {
                wire::put_u8(out, 1);
                wire::put_u32(out, *offset);
                wire::put_u32(out, *len);
            }
            ByteSource::Transfer { index, len } => {
                wire::put_u8(out, 2);
                wire::put_u32(out, *index);
                wire::put_u32(out, *len);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<ByteSource> {
        match r.u8()? {
            0 => Some(ByteSource::Inline(r.bytes()?.to_vec())),
            1 => Some(ByteSource::SharedHeap {
                offset: r.u32()?,
                len: r.u32()?,
            }),
            2 => Some(ByteSource::Transfer {
                index: r.u32()?,
                len: r.u32()?,
            }),
            _ => None,
        }
    }
}

/// Moves `data` onto the end of `transfers` if it is large enough to leave
/// its frame, returning the `(index, len)` reference to encode in its place.
fn detach(data: &mut Vec<u8>, transfers: &mut Vec<Vec<u8>>) -> Option<(u32, u32)> {
    if data.len() < DETACH_MIN_BYTES {
        return None;
    }
    let reference = (transfers.len() as u32, data.len() as u32);
    transfers.push(std::mem::take(data));
    Some(reference)
}

/// A received transfer list, each item claimable once.  The list is as
/// hostile as the frame it came beside: a reference that names no item, an
/// item already claimed, or one of another length claims nothing.
struct TransferList(Vec<Option<Vec<u8>>>);

impl TransferList {
    fn new(transfers: Vec<Vec<u8>>) -> TransferList {
        TransferList(transfers.into_iter().map(Some).collect())
    }

    fn claim(&mut self, index: u32, len: u32) -> Option<Vec<u8>> {
        let item = self.0.get_mut(index as usize)?;
        if item.as_ref()?.len() != len as usize {
            return None;
        }
        item.take()
    }
}

include!(concat!(env!("OUT_DIR"), "/syscall_gen.rs"));

/// An ordered set of system calls submitted to the kernel in one round trip.
///
/// The kernel dispatches entries in order against the same task state, so a
/// batch behaves exactly like the same calls issued back to back — it just
/// pays the transport cost once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SyscallBatch {
    /// The calls, in submission order.
    pub entries: Vec<Syscall>,
}

impl SyscallBatch {
    /// An empty batch.
    pub fn new() -> SyscallBatch {
        SyscallBatch::default()
    }

    /// A batch holding a single call (the compatibility path for the old
    /// one-call-per-round-trip API).
    pub fn single(call: Syscall) -> SyscallBatch {
        SyscallBatch { entries: vec![call] }
    }

    /// Appends a call to the batch.
    pub fn push(&mut self, call: Syscall) {
        self.entries.push(call);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encodes the batch as one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.entries.len() * 16);
        wire::put_u8(&mut out, BATCH_MAGIC);
        wire::put_u8(&mut out, WIRE_VERSION);
        wire::put_u32(&mut out, self.entries.len() as u32);
        for entry in &self.entries {
            entry.encode_into(&mut out);
        }
        out
    }

    /// Moves every inline payload of at least [`DETACH_MIN_BYTES`] out of
    /// the batch, leaving a [`ByteSource::Transfer`] reference behind, and
    /// returns the buffers in index order: the transfer list to post beside
    /// the frame [`SyscallBatch::encode`] then produces.  Smaller payloads
    /// stay where they are, so a batch without bulk data encodes exactly as
    /// it always did.
    pub fn detach_payloads(&mut self) -> Vec<Vec<u8>> {
        let mut transfers = Vec::new();
        for source in self.entries.iter_mut().filter_map(Syscall::byte_source_mut) {
            if let ByteSource::Inline(data) = source {
                if let Some((index, len)) = detach(data, &mut transfers) {
                    *source = ByteSource::Transfer { index, len };
                }
            }
        }
        transfers
    }

    /// Moves the buffers of a received transfer list back into the entries
    /// that reference them, as the [`ByteSource::Inline`] payloads they left
    /// as.  A reference that claims nothing — index out of range, wrong
    /// length, item already claimed — stays a reference, and its call fails
    /// with `EINVAL` when dispatched; the other entries are unaffected.
    pub fn attach_payloads(&mut self, transfers: Vec<Vec<u8>>) {
        if transfers.is_empty() {
            return;
        }
        let mut list = TransferList::new(transfers);
        for source in self.entries.iter_mut().filter_map(Syscall::byte_source_mut) {
            if let ByteSource::Transfer { index, len } = *source {
                if let Some(data) = list.claim(index, len) {
                    *source = ByteSource::Inline(data);
                }
            }
        }
    }

    /// Decodes a wire frame back into a batch.
    ///
    /// Returns `None` on a bad magic/version byte, a truncated frame, or
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<SyscallBatch> {
        let mut r = Reader::new(bytes);
        if r.u8()? != BATCH_MAGIC || r.u8()? != WIRE_VERSION {
            return None;
        }
        let count = r.u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            entries.push(Syscall::decode_from(&mut r)?);
        }
        if !r.is_empty() {
            return None;
        }
        Some(SyscallBatch { entries })
    }
}

impl From<Syscall> for SyscallBatch {
    fn from(call: Syscall) -> SyscallBatch {
        SyscallBatch::single(call)
    }
}

/// The result of one batch entry, tagged with the entry's index so blocked
/// entries can complete out of order.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Index of the entry within its submission batch.
    pub index: u32,
    /// The entry's result.
    pub result: SysResult,
}

/// Every completion for one submission batch, delivered to the process in a
/// single reply message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompletionBatch {
    /// The completions, in arbitrary order; receivers place each one by its
    /// entry index.
    pub completions: Vec<Completion>,
}

impl CompletionBatch {
    /// Encodes the batch as one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.completions.len() * 16);
        wire::put_u8(&mut out, COMPLETION_MAGIC);
        wire::put_u8(&mut out, WIRE_VERSION);
        wire::put_u32(&mut out, self.completions.len() as u32);
        for completion in &self.completions {
            wire::put_u32(&mut out, completion.index);
            completion.result.encode_into(&mut out);
        }
        out
    }

    /// The completion-side [`SyscallBatch::detach_payloads`]: every
    /// [`SysResult::Data`] of at least [`DETACH_MIN_BYTES`] becomes a
    /// [`SysResult::DataTransfer`] reference and its buffer a transfer-list
    /// item.
    pub fn detach_payloads(&mut self) -> Vec<Vec<u8>> {
        let mut transfers = Vec::new();
        for completion in &mut self.completions {
            if let SysResult::Data(data) = &mut completion.result {
                if let Some((index, len)) = detach(data, &mut transfers) {
                    completion.result = SysResult::DataTransfer { index, len };
                }
            }
        }
        transfers
    }

    /// The completion-side [`SyscallBatch::attach_payloads`].  A reference
    /// that claims nothing stays a [`SysResult::DataTransfer`], which no
    /// caller accepts as the result of anything.
    pub fn attach_payloads(&mut self, transfers: Vec<Vec<u8>>) {
        if transfers.is_empty() {
            return;
        }
        let mut list = TransferList::new(transfers);
        for completion in &mut self.completions {
            if let SysResult::DataTransfer { index, len } = completion.result {
                if let Some(data) = list.claim(index, len) {
                    completion.result = SysResult::Data(data);
                }
            }
        }
    }

    /// Decodes a wire frame back into a completion batch.
    ///
    /// Returns `None` on a bad magic/version byte, a truncated frame, or
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Option<CompletionBatch> {
        let mut r = Reader::new(bytes);
        if r.u8()? != COMPLETION_MAGIC || r.u8()? != WIRE_VERSION {
            return None;
        }
        let count = r.u32()? as usize;
        let mut completions = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let index = r.u32()?;
            let result = SysResult::decode_from(&mut r)?;
            completions.push(Completion { index, result });
        }
        if !r.is_empty() {
            return None;
        }
        Some(CompletionBatch { completions })
    }
}

impl SysResult {
    /// Whether this is an error result.
    pub fn is_err(&self) -> bool {
        matches!(self, SysResult::Err(_))
    }

    /// Converts into a `Result`, mapping every success variant to itself.
    ///
    /// # Errors
    ///
    /// Returns the contained [`Errno`] for [`SysResult::Err`].
    pub fn into_result(self) -> Result<SysResult, Errno> {
        match self {
            SysResult::Err(errno) => Err(errno),
            other => Ok(other),
        }
    }

    /// The scalar payload of an `Int` (or the errno-style negative value of an
    /// error), mirroring the raw Linux ABI return convention.
    pub fn as_linux_return(&self) -> i64 {
        match self {
            SysResult::Ok => 0,
            SysResult::Int(v) => *v,
            SysResult::Pair(a, _) => *a,
            SysResult::Data(data) => data.len() as i64,
            SysResult::Path(path) => path.len() as i64,
            SysResult::Stat(_) => 0,
            SysResult::Entries(entries) => entries.len() as i64,
            SysResult::Wait { pid, .. } => *pid as i64,
            SysResult::Poll(revents) => revents.iter().filter(|&&r| r != 0).count() as i64,
            SysResult::DataTransfer { len, .. } => *len as i64,
            SysResult::Err(errno) => errno.as_syscall_return(),
        }
    }
}

impl From<Result<SysResult, Errno>> for SysResult {
    fn from(value: Result<SysResult, Errno>) -> Self {
        match value {
            Ok(result) => result,
            Err(errno) => SysResult::Err(errno),
        }
    }
}

/// Wire encoding of a [`SigAction`] (one byte).
fn encode_sigaction(action: SigAction) -> u8 {
    match action {
        SigAction::Default => 0,
        SigAction::Ignore => 1,
        SigAction::Handler { restart: false } => 2,
        SigAction::Handler { restart: true } => 3,
    }
}

fn decode_sigaction(byte: u8) -> Option<SigAction> {
    Some(match byte {
        0 => SigAction::Default,
        1 => SigAction::Ignore,
        2 => SigAction::Handler { restart: false },
        3 => SigAction::Handler { restart: true },
        _ => return None,
    })
}

/// Encodes an exit code / terminating signal into a Linux-style wait status.
pub fn encode_wait_status(exit_code: Option<i32>, signal: Option<Signal>) -> i32 {
    match (exit_code, signal) {
        (_, Some(sig)) => sig.termination_status(),
        (Some(code), None) => (code & 0xff) << 8,
        (None, None) => 0,
    }
}

/// Encodes a "stopped by signal" wait status (`WUNTRACED` reporting), using
/// the Linux layout: low byte `0x7f`, stop signal in the next byte.
pub fn encode_stop_status(signal: Signal) -> i32 {
    (signal.number() << 8) | 0x7f
}

/// Extracts the exit code from a wait status, if the child exited normally.
pub fn wait_status_exit_code(status: i32) -> Option<i32> {
    if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    }
}

/// Extracts the terminating signal from a wait status, if any.
pub fn wait_status_signal(status: i32) -> Option<Signal> {
    if status & 0xff == 0x7f {
        // Stopped, not terminated.
        return None;
    }
    let sig = status & 0x7f;
    if sig != 0 {
        Signal::from_number(sig)
    } else {
        None
    }
}

/// Extracts the stop signal from a wait status, if the child is stopped.
pub fn wait_status_stop_signal(status: i32) -> Option<Signal> {
    if status & 0xff == 0x7f {
        Signal::from_number((status >> 8) & 0xff)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every call variant (including both `stat` spellings).
    /// The exhaustive randomized round-trips live in the workspace-level
    /// property tests; this is the deterministic anchor.
    pub(crate) fn sample_calls() -> Vec<Syscall> {
        vec![
            Syscall::Spawn {
                path: "/usr/bin/pdflatex".into(),
                args: vec!["pdflatex".into(), "main.tex".into()],
                env: vec![("HOME".into(), "/home".into())],
                cwd: Some("/home".into()),
                stdio: [None, Some(4), Some(5)],
                pgroup: 0,
                foreground: true,
            },
            Syscall::Fork {
                image: vec![1, 2, 3],
                resume_point: 42,
            },
            Syscall::Pipe2,
            Syscall::Wait4 { pid: -1, options: 1 },
            Syscall::Exit { code: 3 },
            Syscall::Kill {
                pid: 7,
                signal: Signal::SIGTERM,
            },
            Syscall::Kill {
                pid: -5,
                signal: Signal::SIGINT,
            },
            Syscall::SignalAction {
                signal: Signal::SIGCHLD,
                action: SigAction::Handler { restart: false },
            },
            Syscall::SignalAction {
                signal: Signal::SIGINT,
                action: SigAction::Handler { restart: true },
            },
            Syscall::SignalAction {
                signal: Signal::SIGTTIN,
                action: SigAction::Ignore,
            },
            Syscall::Sigprocmask {
                how: crate::signals::SIG_BLOCK,
                mask: 0x4200,
            },
            Syscall::Setpgid { pid: 3, pgid: 3 },
            Syscall::Getpgid { pid: 0 },
            Syscall::Tcsetpgrp { pgid: 3 },
            Syscall::GetPid,
            Syscall::GetPPid,
            Syscall::GetCwd,
            Syscall::Chdir { path: "/tmp".into() },
            Syscall::Open {
                path: "/etc/passwd".into(),
                flags: OpenFlags::read_only(),
                mode: 0,
            },
            Syscall::Close { fd: 3 },
            Syscall::Read { fd: 3, len: 4096 },
            Syscall::Pread {
                fd: 3,
                len: 16,
                offset: 100,
            },
            Syscall::Write {
                fd: 1,
                data: ByteSource::Inline(b"hello".to_vec()),
            },
            Syscall::Pwrite {
                fd: 1,
                data: ByteSource::SharedHeap { offset: 64, len: 10 },
                offset: 0,
            },
            Syscall::Seek {
                fd: 3,
                offset: -10,
                whence: 2,
            },
            Syscall::Dup { fd: 1 },
            Syscall::Dup2 { from: 4, to: 1 },
            Syscall::Unlink { path: "/tmp/x".into() },
            Syscall::Truncate {
                path: "/tmp/x".into(),
                size: 10,
            },
            Syscall::Rename {
                from: "/a".into(),
                to: "/b".into(),
            },
            Syscall::Fsync { fd: 3 },
            Syscall::Poll {
                fds: vec![
                    PollRequest { fd: 3, events: POLLIN },
                    PollRequest {
                        fd: 5,
                        events: POLLIN | POLLOUT,
                    },
                ],
                timeout_ms: -1,
            },
            Syscall::Poll {
                fds: Vec::new(),
                timeout_ms: 250,
            },
            Syscall::SetFlags { fd: 4, flags: NONBLOCK },
            Syscall::Readdir {
                path: "/usr/bin".into(),
            },
            Syscall::Mkdir {
                path: "/tmp/d".into(),
                mode: 0o755,
            },
            Syscall::Rmdir { path: "/tmp/d".into() },
            Syscall::Stat {
                path: "/etc".into(),
                lstat: false,
            },
            Syscall::Stat {
                path: "/etc".into(),
                lstat: true,
            },
            Syscall::Fstat { fd: 0 },
            Syscall::Access {
                path: "/bin/sh".into(),
                mode: 1,
            },
            Syscall::Readlink {
                path: "/proc/self".into(),
            },
            Syscall::Utimes {
                path: "/tmp/x".into(),
                atime_ms: 1,
                mtime_ms: 2,
            },
            Syscall::Socket,
            Syscall::Bind { fd: 3, port: 8080 },
            Syscall::GetSockName { fd: 3 },
            Syscall::Listen { fd: 3, backlog: 16 },
            Syscall::Accept { fd: 3 },
            Syscall::Connect { fd: 4, port: 8080 },
            Syscall::Ftruncate { fd: 5, size: 8192 },
            Syscall::Mmap {
                addr: 0,
                len: 1 << 20,
                prot: 3,
                flags: 0x22,
                fd: -1,
                offset: 0,
            },
            Syscall::Mmap {
                addr: 0x2000_0000,
                len: 4096,
                prot: 1,
                flags: 1,
                fd: 5,
                offset: 4096,
            },
            Syscall::Munmap {
                addr: 0x1000_0000,
                len: 1 << 20,
            },
            Syscall::Msync {
                addr: 0x2000_0000,
                len: 0,
            },
            Syscall::Mprotect {
                addr: 0x1000_0000,
                len: 4096,
                prot: 1,
            },
            Syscall::ShmOpen {
                name: "/ring".into(),
                flags: OpenFlags {
                    create: true,
                    ..OpenFlags::read_write()
                }
                .to_bits(),
                mode: 0o600,
            },
            Syscall::ShmUnlink { name: "/ring".into() },
            Syscall::VmRead {
                addr: 0x1000_0040,
                len: 64,
            },
            Syscall::VmWrite {
                addr: 0x1000_0040,
                data: ByteSource::Inline(b"cow me".to_vec()),
            },
            Syscall::VmWrite {
                addr: 0x1000_0080,
                data: ByteSource::SharedHeap { offset: 128, len: 32 },
            },
            Syscall::Sendfile {
                out_fd: 4,
                in_fd: 3,
                offset: -1,
                len: 1 << 20,
            },
            Syscall::Sendfile {
                out_fd: 5,
                in_fd: 3,
                offset: 8192,
                len: 4096,
            },
            Syscall::Splice {
                fd_in: 3,
                fd_out: 4,
                len: 65536,
            },
            Syscall::Getrusage { who: 0 },
            Syscall::Write {
                fd: 1,
                data: ByteSource::Transfer { index: 2, len: 65536 },
            },
        ]
    }

    fn sample_results() -> Vec<SysResult> {
        vec![
            SysResult::Ok,
            SysResult::Int(42),
            SysResult::Int(-1),
            SysResult::Pair(3, 4),
            SysResult::Data(vec![0, 1, 2, 250]),
            SysResult::Path("/home/user".into()),
            SysResult::Stat(Metadata {
                file_type: FileType::Directory,
                size: 0,
                mode: 0o755,
                mtime_ms: 1234,
                atime_ms: 5678,
            }),
            SysResult::Entries(vec![DirEntry::file("a.txt"), DirEntry::dir("sub")]),
            SysResult::Wait { pid: 9, status: 256 },
            SysResult::Poll(vec![POLLIN, 0, POLLOUT | POLLHUP]),
            SysResult::Poll(Vec::new()),
            SysResult::DataTransfer { index: 1, len: 65536 },
            SysResult::Err(Errno::ENOENT),
        ]
    }

    #[test]
    fn every_syscall_round_trips_through_the_wire_codec() {
        for call in sample_calls() {
            let mut out = Vec::new();
            call.encode_into(&mut out);
            let mut r = Reader::new(&out);
            let decoded = Syscall::decode_from(&mut r).unwrap_or_else(|| panic!("{}", call.name()));
            assert_eq!(decoded, call, "{}", call.name());
            assert!(r.is_empty(), "{} left trailing bytes", call.name());
        }
    }

    #[test]
    fn whole_batches_round_trip() {
        let batch = SyscallBatch {
            entries: sample_calls(),
        };
        let encoded = batch.encode();
        assert_eq!(SyscallBatch::decode(&encoded).unwrap(), batch);

        let empty = SyscallBatch::new();
        assert!(empty.is_empty());
        assert_eq!(SyscallBatch::decode(&empty.encode()).unwrap().len(), 0);

        let single: SyscallBatch = Syscall::GetPid.into();
        assert_eq!(single.len(), 1);
        assert_eq!(SyscallBatch::decode(&single.encode()).unwrap(), single);
    }

    #[test]
    fn completion_batches_round_trip() {
        let batch = CompletionBatch {
            completions: sample_results()
                .into_iter()
                .enumerate()
                .map(|(index, result)| Completion {
                    index: index as u32,
                    result,
                })
                .collect(),
        };
        let encoded = batch.encode();
        assert_eq!(CompletionBatch::decode(&encoded).unwrap(), batch);
    }

    #[test]
    fn figure3_classes_are_covered() {
        let classes: std::collections::HashSet<&str> = sample_calls().iter().map(|c| c.class()).collect();
        for expected in [
            "Process Management",
            "Process Metadata",
            "Sockets",
            "Directory IO",
            "File IO",
            "File Metadata",
        ] {
            assert!(classes.contains(expected), "missing class {expected}");
        }
    }

    #[test]
    fn names_are_unique_per_variant_shape() {
        let names: Vec<&str> = sample_calls().iter().map(|c| c.name()).collect();
        // `stat`/`lstat` intentionally share a variant, and the sample set
        // carries two `poll` shapes (fd list and empty), two `kill` shapes
        // (process and group), three `sigaction` shapes, two `mmap` shapes
        // (anonymous and file-backed), two `vm_write` shapes (inline and
        // shared-heap), two `write` shapes (inline and transferred) and two
        // `sendfile` shapes (cursor and explicit offset); all others unique.
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert!(unique.len() >= names.len() - 8);
    }

    #[test]
    fn malformed_frames_return_none() {
        assert_eq!(SyscallBatch::decode(&[]), None);
        assert_eq!(SyscallBatch::decode(&[0x42]), None);
        assert_eq!(
            SyscallBatch::decode(&[0x99, WIRE_VERSION, 0, 0, 0, 0]),
            None,
            "bad magic"
        );
        assert_eq!(SyscallBatch::decode(&[0x42, 99, 0, 0, 0, 0]), None, "bad version");
        // Count says one entry but the frame ends.
        assert_eq!(SyscallBatch::decode(&[0x42, WIRE_VERSION, 1, 0, 0, 0]), None);
        // Unknown opcode.
        assert_eq!(SyscallBatch::decode(&[0x42, WIRE_VERSION, 1, 0, 0, 0, 250]), None);
        // Trailing garbage after a valid batch.
        let mut ok = SyscallBatch::single(Syscall::GetPid).encode();
        ok.push(0);
        assert_eq!(SyscallBatch::decode(&ok), None);

        assert_eq!(CompletionBatch::decode(&[]), None);
        assert_eq!(CompletionBatch::decode(&[0x43, WIRE_VERSION, 1, 0, 0, 0]), None);
        // Unknown result tag.
        let mut r = Reader::new(&[99]);
        assert_eq!(SysResult::decode_from(&mut r), None);
        // Truncated data payload.
        let mut r = Reader::new(&[3, 255, 255, 255, 255]);
        assert_eq!(SysResult::decode_from(&mut r), None);
    }

    #[test]
    fn transports_share_the_codec() {
        // A message frame is a header plus exactly the bytes each call would
        // occupy in a ring slot, in order.
        let batch = SyscallBatch {
            entries: vec![Syscall::GetPid, Syscall::Pipe2],
        };
        let mut slots = Vec::new();
        for call in &batch.entries {
            call.encode_into(&mut slots);
        }
        assert_eq!(batch.encode()[6..], slots[..]);
    }

    #[test]
    fn linux_return_convention() {
        assert_eq!(SysResult::Ok.as_linux_return(), 0);
        assert_eq!(SysResult::Int(7).as_linux_return(), 7);
        assert_eq!(SysResult::Err(Errno::ENOENT).as_linux_return(), -2);
        assert_eq!(SysResult::Data(vec![1, 2, 3]).as_linux_return(), 3);
        assert!(SysResult::Err(Errno::EBADF).is_err());
        assert!(SysResult::Int(0).into_result().is_ok());
        assert_eq!(SysResult::Err(Errno::EBADF).into_result(), Err(Errno::EBADF));
    }

    #[test]
    fn wait_status_encoding() {
        let exited = encode_wait_status(Some(3), None);
        assert_eq!(wait_status_exit_code(exited), Some(3));
        assert_eq!(wait_status_signal(exited), None);
        assert_eq!(wait_status_stop_signal(exited), None);

        let killed = encode_wait_status(None, Some(Signal::SIGKILL));
        assert_eq!(wait_status_exit_code(killed), None);
        assert_eq!(wait_status_signal(killed), Some(Signal::SIGKILL));
        assert_eq!(wait_status_stop_signal(killed), None);

        let stopped = encode_stop_status(Signal::SIGTSTP);
        assert_eq!(wait_status_exit_code(stopped), None);
        assert_eq!(wait_status_signal(stopped), None);
        assert_eq!(wait_status_stop_signal(stopped), Some(Signal::SIGTSTP));
    }

    #[test]
    fn sigaction_byte_round_trips() {
        for action in [
            SigAction::Default,
            SigAction::Ignore,
            SigAction::Handler { restart: false },
            SigAction::Handler { restart: true },
        ] {
            assert_eq!(decode_sigaction(encode_sigaction(action)), Some(action));
        }
        assert_eq!(decode_sigaction(9), None);
    }

    #[test]
    fn byte_source_length() {
        assert_eq!(ByteSource::Inline(vec![1, 2, 3]).len(), 3);
        assert!(ByteSource::Inline(vec![]).is_empty());
        assert_eq!(ByteSource::SharedHeap { offset: 0, len: 10 }.len(), 10);
        assert!(!ByteSource::SharedHeap { offset: 0, len: 10 }.is_empty());
        assert_eq!(ByteSource::Transfer { index: 0, len: 10 }.len(), 10);
    }

    #[test]
    fn shared_heap_writes_encode_small() {
        // The asynchronous convention pays a copy cost proportional to the
        // payload; a shared-heap reference stays tiny on the wire.
        let big = SyscallBatch::single(Syscall::Write {
            fd: 1,
            data: ByteSource::Inline(vec![0u8; 4096]),
        });
        let small = SyscallBatch::single(Syscall::Write {
            fd: 1,
            data: ByteSource::SharedHeap { offset: 0, len: 4096 },
        });
        assert!(big.encode().len() > 4096);
        assert!(small.encode().len() < 64);
    }

    fn write_of(data: Vec<u8>) -> Syscall {
        Syscall::Write {
            fd: 1,
            data: ByteSource::Inline(data),
        }
    }

    #[test]
    fn small_payloads_stay_in_the_frame_byte_for_byte() {
        let mut batch = SyscallBatch {
            entries: vec![write_of(vec![7; DETACH_MIN_BYTES - 1]), Syscall::GetPid],
        };
        let before = batch.encode();
        assert!(batch.detach_payloads().is_empty());
        assert_eq!(batch.encode(), before);

        let mut completions = CompletionBatch {
            completions: vec![Completion {
                index: 0,
                result: SysResult::Data(vec![7; DETACH_MIN_BYTES - 1]),
            }],
        };
        let before = completions.encode();
        assert!(completions.detach_payloads().is_empty());
        assert_eq!(completions.encode(), before);
    }

    #[test]
    fn large_payloads_cross_beside_the_frame_by_move() {
        let (first, second) = (vec![1u8; DETACH_MIN_BYTES], vec![2u8; 64 << 10]);
        let staged = [first.as_ptr(), second.as_ptr()];
        let original = SyscallBatch {
            entries: vec![write_of(first), Syscall::GetPid, write_of(second)],
        };
        let mut batch = original.clone();
        // `clone` copied; detach the originals so the pointers are the staged ones.
        let mut sent = original;
        let transfers = sent.detach_payloads();
        assert_eq!(transfers.iter().map(|t| t.as_ptr()).collect::<Vec<_>>(), staged);
        let frame = sent.encode();
        assert!(frame.len() < 64, "the frame carries references, not bytes");

        let mut received = SyscallBatch::decode(&frame).unwrap();
        received.attach_payloads(transfers);
        assert_eq!(received, batch);
        let Some(ByteSource::Inline(data)) = received.entries[2].byte_source_mut() else {
            panic!("re-attached inline");
        };
        assert_eq!(data.as_ptr(), staged[1], "the receiver holds the sender's buffer");
        assert!(batch.entries[1].byte_source_mut().is_none());

        let payload = vec![9u8; 4096];
        let staged = payload.as_ptr();
        let mut completions = CompletionBatch {
            completions: vec![Completion {
                index: 0,
                result: SysResult::Data(payload),
            }],
        };
        let transfers = completions.detach_payloads();
        let mut received = CompletionBatch::decode(&completions.encode()).unwrap();
        received.attach_payloads(transfers);
        let SysResult::Data(data) = &received.completions[0].result else {
            panic!("re-attached data");
        };
        assert_eq!((data.as_ptr(), data.len()), (staged, 4096));
    }

    #[test]
    fn hostile_transfer_references_claim_nothing() {
        let reference = |index, len| Syscall::Write {
            fd: 1,
            data: ByteSource::Transfer { index, len },
        };
        let mut batch = SyscallBatch {
            entries: vec![
                reference(2, 4096), // no such item
                reference(0, 4095), // wrong length
                reference(1, 2048), // fine
                reference(1, 2048), // the same item again
            ],
        };
        batch.attach_payloads(vec![vec![0; 4096], vec![1; 2048]]);
        assert_eq!(batch.entries[0], reference(2, 4096));
        assert_eq!(batch.entries[1], reference(0, 4095));
        assert_eq!(batch.entries[2], write_of(vec![1; 2048]));
        assert_eq!(batch.entries[3], reference(1, 2048));

        let mut completions = CompletionBatch {
            completions: vec![Completion {
                index: 0,
                result: SysResult::DataTransfer { index: 5, len: 1 },
            }],
        };
        completions.attach_payloads(vec![vec![0]]);
        assert_eq!(
            completions.completions[0].result,
            SysResult::DataTransfer { index: 5, len: 1 }
        );
    }

    #[test]
    fn batching_amortizes_the_frame_header() {
        // 64 writes in one batch encode smaller than 64 one-call batches.
        let call = Syscall::Write {
            fd: 1,
            data: ByteSource::SharedHeap { offset: 0, len: 64 },
        };
        let mut batch = SyscallBatch::new();
        for _ in 0..64 {
            batch.push(call.clone());
        }
        let batched = batch.encode().len();
        let per_call = SyscallBatch::single(call).encode().len() * 64;
        assert!(batched < per_call);
    }
}
