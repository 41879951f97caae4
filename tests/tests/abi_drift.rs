//! ABI drift gate: the wire encoding of every syscall and result shape is
//! pinned, byte for byte, against the golden corpus in `abi/golden_corpus.txt`.
//!
//! The corpus was blessed from the hand-written codec *before* the codec was
//! replaced by `browsix-abigen` output, so this test is the proof that the
//! generated codec is byte-identical to the legacy one — and afterwards it is
//! the permanent regression oracle for the wire format itself: any change to
//! the bytes an existing shape produces is an ABI break and fails here.
//!
//! Rules for this file (mirroring the append-only opcode rule in
//! `docs/ABI.md`):
//!
//! - Existing entries in [`corpus_calls`]/[`corpus_results`] must NEVER be
//!   edited or reordered: each line of the golden file is keyed by position.
//!   A shape whose tag is retired keeps its place and its bytes, pinned raw
//!   as a `Shape::Retired`, and is checked to decode to nothing.
//! - New syscalls/result shapes are APPENDED, then the corpus is re-blessed
//!   with `BROWSIX_ABI_BLESS=1 cargo test -p browsix-tests --test abi_drift`.
//!   The resulting `git diff` of `abi/golden_corpus.txt` must be append-only;
//!   changed existing lines mean the encoder broke compatibility.

use browsix_core::{
    ByteSource, CompletionBatch, PollRequest, SigAction, Signal, SysResult, Syscall, SyscallBatch, NONBLOCK, POLLHUP,
    POLLIN, POLLOUT, SIG_BLOCK,
};
use browsix_fs::{DirEntry, Errno, FileType, Metadata, OpenFlags};

/// One instance of every call variant (both `stat` spellings, every byte
/// source, …), in the order originally blessed.  Append-only.
fn corpus_calls() -> Vec<Syscall> {
    vec![
        Syscall::Spawn {
            path: "/usr/bin/pdflatex".into(),
            args: vec!["pdflatex".into(), "main.tex".into()],
            env: vec![("HOME".into(), "/home".into())],
            cwd: Some("/home".into()),
            stdio: [None, Some(4), Some(5)],
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
        Syscall::SignalAction {
            signal: Signal::SIGUSR1,
            action: SigAction::Default,
        },
        Syscall::Sigprocmask {
            how: SIG_BLOCK,
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
        Syscall::Open {
            path: "/tmp/out".into(),
            flags: OpenFlags::write_create_truncate(),
            mode: 0o644,
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
        Syscall::Write {
            fd: 1,
            data: ByteSource::SharedHeap { offset: 4096, len: 17 },
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
        Syscall::RingSetup {
            sq_offset: 512 * 1024,
            cq_offset: 512 * 1024 + 16 + 64 * 256,
            slots: 64,
            slot_bytes: 256,
            buf_offset: 512 * 1024 + 2 * (16 + 64 * 256),
            buf_count: 7,
            buf_bytes: 64 * 1024,
        },
        Syscall::Getrusage { who: 0 },
        Syscall::Write {
            fd: 1,
            data: ByteSource::Transfer { index: 2, len: 65536 },
        },
    ]
}

/// A result shape of the corpus: one the codec has, or the bytes a shape
/// whose tag is now retired was blessed as — still pinned, where it was, and
/// no longer decodable.
enum Shape {
    Live(SysResult),
    Retired(&'static [u8]),
}

impl Shape {
    fn bytes(&self) -> Vec<u8> {
        match self {
            Shape::Live(result) => {
                let mut buf = Vec::new();
                result.encode_into(&mut buf);
                buf
            }
            Shape::Retired(bytes) => bytes.to_vec(),
        }
    }
}

/// One instance of every result shape, in the order originally blessed.
/// Append-only, same rule as [`corpus_calls`]; a shape whose tag is retired
/// stays in place as [`Shape::Retired`].
fn corpus_results() -> Vec<Shape> {
    use Shape::{Live, Retired};
    vec![
        Live(SysResult::Ok),
        Live(SysResult::Int(42)),
        Live(SysResult::Int(-1)),
        Live(SysResult::Pair(3, 4)),
        Live(SysResult::Data(vec![0, 1, 2, 250])),
        Live(SysResult::Path("/home/user".into())),
        Live(SysResult::Stat(Metadata {
            file_type: FileType::Directory,
            size: 0,
            mode: 0o755,
            mtime_ms: 1234,
            atime_ms: 5678,
        })),
        Live(SysResult::Entries(vec![DirEntry::file("a.txt"), DirEntry::dir("sub")])),
        Live(SysResult::Wait { pid: 9, status: 256 }),
        Live(SysResult::Poll(vec![POLLIN, 0, POLLOUT | POLLHUP])),
        Live(SysResult::Poll(Vec::new())),
        // `DataFixed { buf: 3, len: 4096 }`, tag 9, retired.
        Retired(&[0x09, 0x03, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00]),
        Live(SysResult::Err(Errno::ENOENT)),
        Live(SysResult::DataTransfer { index: 1, len: 65536 }),
    ]
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// How many of [`corpus_calls`] and [`corpus_results`] the two whole-frame
/// lines cover.  Those lines are pinned like any other, so they stay the
/// frames of the shapes that existed when they were blessed; shapes appended
/// since are rendered after them, and the file only ever grows at its end.
const FRAMED_CALLS: usize = 68;
const FRAMED_RESULTS: usize = 13;

/// Renders the whole corpus as stable `kind index name: hex` lines.
fn render_corpus() -> String {
    let (calls, results) = (corpus_calls(), corpus_results());
    let call_line = |i: usize| {
        let mut buf = Vec::new();
        calls[i].encode_into(&mut buf);
        format!("call {i:03} {}: {}\n", calls[i].name(), hex(&buf))
    };
    let result_line = |i: usize| format!("result {i:03}: {}\n", hex(&results[i].bytes()));
    let mut out: String = (0..FRAMED_CALLS).map(call_line).collect();
    out.extend((0..FRAMED_RESULTS).map(result_line));
    // Whole-frame entries pin the batch headers (magic, version, counts) too.
    let batch = SyscallBatch {
        entries: calls[..FRAMED_CALLS].to_vec(),
    };
    out.push_str(&format!("batch syscalls: {}\n", hex(&batch.encode())));
    out.push_str(&format!("batch completions: {}\n", hex(&framed_completions(&results))));
    out.extend((FRAMED_CALLS..calls.len()).map(call_line));
    out.extend((FRAMED_RESULTS..results.len()).map(result_line));
    out
}

/// The completion frame of the first [`FRAMED_RESULTS`] result shapes,
/// written out by hand because a retired shape is among them and no
/// [`CompletionBatch`] can hold one: the header of an empty batch with its
/// count set, then `(u32 index | result)` per shape.
fn framed_completions(results: &[Shape]) -> Vec<u8> {
    let mut frame = CompletionBatch::default().encode();
    frame.truncate(2);
    frame.extend_from_slice(&(FRAMED_RESULTS as u32).to_le_bytes());
    for (i, shape) in results[..FRAMED_RESULTS].iter().enumerate() {
        frame.extend_from_slice(&(i as u32).to_le_bytes());
        frame.extend(shape.bytes());
    }
    frame
}

fn corpus_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../abi/golden_corpus.txt")
}

#[test]
fn wire_encoding_matches_pinned_golden_corpus() {
    let rendered = render_corpus();
    let path = corpus_path();
    if std::env::var("BROWSIX_ABI_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden corpus");
        eprintln!("blessed {} ({} lines)", path.display(), rendered.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("abi/golden_corpus.txt missing; bless with BROWSIX_ABI_BLESS=1");
    let mut mismatches = Vec::new();
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        if got != want {
            mismatches.push(format!("line {}: \n  pinned:  {}\n  current: {}", i + 1, want, got));
        }
    }
    let (got_n, want_n) = (rendered.lines().count(), golden.lines().count());
    assert!(
        got_n >= want_n,
        "corpus shrank: {got_n} lines rendered vs {want_n} pinned — existing shapes were removed or reordered"
    );
    assert!(
        mismatches.is_empty(),
        "wire encoding drifted from the pinned ABI corpus (this is an ABI break):\n{}",
        mismatches.join("\n")
    );
    // New appended shapes (got_n > want_n) are allowed here; re-bless and
    // commit the extended corpus alongside the IDL change.
    assert_eq!(
        got_n, want_n,
        "corpus has {} un-blessed new entries; run BROWSIX_ABI_BLESS=1 cargo test -p browsix-tests --test abi_drift and commit",
        got_n - want_n
    );
}

/// Every golden line must decode back to the exact corpus value: pins the
/// decoder as well as the encoder.
#[test]
fn golden_corpus_decodes_to_the_corpus_values() {
    for (i, call) in corpus_calls().iter().enumerate() {
        let mut buf = Vec::new();
        call.encode_into(&mut buf);
        let mut r = browsix_core::wire::Reader::new(&buf);
        let decoded = Syscall::decode_from(&mut r).unwrap_or_else(|| panic!("call {i} failed to decode"));
        assert_eq!(&decoded, call, "call {i} changed under decode round-trip");
        assert!(r.is_empty(), "call {i} left trailing bytes");
    }
    let results = corpus_results();
    for (i, shape) in results.iter().enumerate() {
        let buf = shape.bytes();
        let mut r = browsix_core::wire::Reader::new(&buf);
        let decoded = SysResult::decode_from(&mut r);
        let Shape::Live(res) = shape else {
            assert_eq!(decoded, None, "result {i} has a retired tag and must not decode");
            continue;
        };
        let decoded = decoded.unwrap_or_else(|| panic!("result {i} failed to decode"));
        assert_eq!(&decoded, res, "result {i} changed under decode round-trip");
        assert!(r.is_empty(), "result {i} left trailing bytes");
    }
    // The pinned completion frame holds a retired shape, so it no longer
    // decodes as a whole either.
    assert_eq!(CompletionBatch::decode(&framed_completions(&results)), None);
}
