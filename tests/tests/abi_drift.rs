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
//!   A call whose opcode or a shape whose tag is retired keeps its place and
//!   its bytes, pinned raw as a `Call::Retired` or `Shape::Retired`, and is
//!   checked to decode to nothing.
//! - New syscalls/result shapes are APPENDED, each with its line at the end
//!   of [`APPENDED`], then the corpus is re-blessed with
//!   `BROWSIX_ABI_BLESS=1 cargo test -p browsix-tests --test abi_drift`.
//!   The resulting `git diff` of `abi/golden_corpus.txt` must be append-only;
//!   changed existing lines mean the encoder broke compatibility.

use browsix_core::{
    ByteSource, CompletionBatch, PollRequest, SigAction, Signal, SysResult, Syscall, SyscallBatch, NONBLOCK, POLLHUP,
    POLLIN, POLLOUT, SIG_BLOCK,
};
use browsix_fs::{DirEntry, Errno, FileType, Metadata, OpenFlags};

/// One instance of every call variant (both `stat` spellings, every byte
/// source, …), in the order originally blessed.  Append-only; a call whose
/// opcode is retired stays in place as [`Call::Retired`].
fn corpus_calls() -> Vec<Call> {
    use Call::{Live, Retired};
    vec![
        // The first `spawn`, opcode 1, retired: the same call as the one
        // appended below, without `pgroup` and `foreground`.
        Retired(
            "spawn",
            &[
                0x01, 0x11, 0x00, 0x00, 0x00, 0x2f, 0x75, 0x73, 0x72, 0x2f, 0x62, 0x69, 0x6e, 0x2f, 0x70, 0x64, 0x66,
                0x6c, 0x61, 0x74, 0x65, 0x78, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x70, 0x64, 0x66, 0x6c,
                0x61, 0x74, 0x65, 0x78, 0x08, 0x00, 0x00, 0x00, 0x6d, 0x61, 0x69, 0x6e, 0x2e, 0x74, 0x65, 0x78, 0x01,
                0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x48, 0x4f, 0x4d, 0x45, 0x05, 0x00, 0x00, 0x00, 0x2f, 0x68,
                0x6f, 0x6d, 0x65, 0x01, 0x05, 0x00, 0x00, 0x00, 0x2f, 0x68, 0x6f, 0x6d, 0x65, 0x00, 0x01, 0x04, 0x00,
                0x00, 0x00, 0x01, 0x05, 0x00, 0x00, 0x00,
            ],
        ),
        Live(Syscall::Fork {
            image: vec![1, 2, 3],
            resume_point: 42,
        }),
        Live(Syscall::Pipe2),
        Live(Syscall::Wait4 { pid: -1, options: 1 }),
        Live(Syscall::Exit { code: 3 }),
        Live(Syscall::Kill {
            pid: 7,
            signal: Signal::SIGTERM,
        }),
        Live(Syscall::Kill {
            pid: -5,
            signal: Signal::SIGINT,
        }),
        Live(Syscall::SignalAction {
            signal: Signal::SIGCHLD,
            action: SigAction::Handler { restart: false },
        }),
        Live(Syscall::SignalAction {
            signal: Signal::SIGINT,
            action: SigAction::Handler { restart: true },
        }),
        Live(Syscall::SignalAction {
            signal: Signal::SIGTTIN,
            action: SigAction::Ignore,
        }),
        Live(Syscall::SignalAction {
            signal: Signal::SIGUSR1,
            action: SigAction::Default,
        }),
        Live(Syscall::Sigprocmask {
            how: SIG_BLOCK,
            mask: 0x4200,
        }),
        Live(Syscall::Setpgid { pid: 3, pgid: 3 }),
        Live(Syscall::Getpgid { pid: 0 }),
        Live(Syscall::Tcsetpgrp { pgid: 3 }),
        Live(Syscall::GetPid),
        Live(Syscall::GetPPid),
        Live(Syscall::GetCwd),
        Live(Syscall::Chdir { path: "/tmp".into() }),
        Live(Syscall::Open {
            path: "/etc/passwd".into(),
            flags: OpenFlags::read_only(),
            mode: 0,
        }),
        Live(Syscall::Open {
            path: "/tmp/out".into(),
            flags: OpenFlags::write_create_truncate(),
            mode: 0o644,
        }),
        Live(Syscall::Close { fd: 3 }),
        Live(Syscall::Read { fd: 3, len: 4096 }),
        Live(Syscall::Pread {
            fd: 3,
            len: 16,
            offset: 100,
        }),
        Live(Syscall::Write {
            fd: 1,
            data: ByteSource::Inline(b"hello".to_vec()),
        }),
        Live(Syscall::Write {
            fd: 1,
            data: ByteSource::SharedHeap { offset: 4096, len: 17 },
        }),
        Live(Syscall::Pwrite {
            fd: 1,
            data: ByteSource::SharedHeap { offset: 64, len: 10 },
            offset: 0,
        }),
        Live(Syscall::Seek {
            fd: 3,
            offset: -10,
            whence: 2,
        }),
        Live(Syscall::Dup { fd: 1 }),
        Live(Syscall::Dup2 { from: 4, to: 1 }),
        Live(Syscall::Unlink { path: "/tmp/x".into() }),
        Live(Syscall::Truncate {
            path: "/tmp/x".into(),
            size: 10,
        }),
        Live(Syscall::Rename {
            from: "/a".into(),
            to: "/b".into(),
        }),
        Live(Syscall::Fsync { fd: 3 }),
        Live(Syscall::Poll {
            fds: vec![
                PollRequest { fd: 3, events: POLLIN },
                PollRequest {
                    fd: 5,
                    events: POLLIN | POLLOUT,
                },
            ],
            timeout_ms: -1,
        }),
        Live(Syscall::Poll {
            fds: Vec::new(),
            timeout_ms: 250,
        }),
        Live(Syscall::SetFlags { fd: 4, flags: NONBLOCK }),
        Live(Syscall::Readdir {
            path: "/usr/bin".into(),
        }),
        Live(Syscall::Mkdir {
            path: "/tmp/d".into(),
            mode: 0o755,
        }),
        Live(Syscall::Rmdir { path: "/tmp/d".into() }),
        Live(Syscall::Stat {
            path: "/etc".into(),
            lstat: false,
        }),
        Live(Syscall::Stat {
            path: "/etc".into(),
            lstat: true,
        }),
        Live(Syscall::Fstat { fd: 0 }),
        Live(Syscall::Access {
            path: "/bin/sh".into(),
            mode: 1,
        }),
        Live(Syscall::Readlink {
            path: "/proc/self".into(),
        }),
        Live(Syscall::Utimes {
            path: "/tmp/x".into(),
            atime_ms: 1,
            mtime_ms: 2,
        }),
        Live(Syscall::Socket),
        Live(Syscall::Bind { fd: 3, port: 8080 }),
        Live(Syscall::GetSockName { fd: 3 }),
        Live(Syscall::Listen { fd: 3, backlog: 16 }),
        Live(Syscall::Accept { fd: 3 }),
        Live(Syscall::Connect { fd: 4, port: 8080 }),
        Live(Syscall::Ftruncate { fd: 5, size: 8192 }),
        Live(Syscall::Mmap {
            addr: 0,
            len: 1 << 20,
            prot: 3,
            flags: 0x22,
            fd: -1,
            offset: 0,
        }),
        Live(Syscall::Mmap {
            addr: 0x2000_0000,
            len: 4096,
            prot: 1,
            flags: 1,
            fd: 5,
            offset: 4096,
        }),
        Live(Syscall::Munmap {
            addr: 0x1000_0000,
            len: 1 << 20,
        }),
        Live(Syscall::Msync {
            addr: 0x2000_0000,
            len: 0,
        }),
        Live(Syscall::Mprotect {
            addr: 0x1000_0000,
            len: 4096,
            prot: 1,
        }),
        Live(Syscall::ShmOpen {
            name: "/ring".into(),
            flags: OpenFlags {
                create: true,
                ..OpenFlags::read_write()
            }
            .to_bits(),
            mode: 0o600,
        }),
        Live(Syscall::ShmUnlink { name: "/ring".into() }),
        Live(Syscall::VmRead {
            addr: 0x1000_0040,
            len: 64,
        }),
        Live(Syscall::VmWrite {
            addr: 0x1000_0040,
            data: ByteSource::Inline(b"cow me".to_vec()),
        }),
        Live(Syscall::VmWrite {
            addr: 0x1000_0080,
            data: ByteSource::SharedHeap { offset: 128, len: 32 },
        }),
        Live(Syscall::Sendfile {
            out_fd: 4,
            in_fd: 3,
            offset: -1,
            len: 1 << 20,
        }),
        Live(Syscall::Sendfile {
            out_fd: 5,
            in_fd: 3,
            offset: 8192,
            len: 4096,
        }),
        Live(Syscall::Splice {
            fd_in: 3,
            fd_out: 4,
            len: 65536,
        }),
        // `ring_setup`, opcode 56, retired: the standard ring layout at
        // 512 KiB, as seven `u32`s.
        Retired(
            "ring_setup",
            &[
                0x38, 0x00, 0x00, 0x08, 0x00, 0x10, 0x40, 0x08, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
                0x20, 0x80, 0x08, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
            ],
        ),
        Live(Syscall::Getrusage { who: 0 }),
        Live(Syscall::Write {
            fd: 1,
            data: ByteSource::Transfer { index: 2, len: 65536 },
        }),
        Live(Syscall::Spawn {
            path: "/usr/bin/pdflatex".into(),
            args: vec!["pdflatex".into(), "main.tex".into()],
            env: vec![("HOME".into(), "/home".into())],
            cwd: Some("/home".into()),
            stdio: [None, Some(4), Some(5)],
            pgroup: 0,
            foreground: true,
        }),
    ]
}

/// A call of the corpus: one the codec has, or the name and the bytes a call
/// whose opcode is now retired was blessed as — still pinned, where it was,
/// and no longer decodable.
enum Call {
    Live(Syscall),
    Retired(&'static str, &'static [u8]),
}

impl Call {
    fn name(&self) -> &'static str {
        match self {
            Call::Live(call) => call.name(),
            Call::Retired(name, _) => name,
        }
    }

    fn bytes(&self) -> Vec<u8> {
        match self {
            Call::Live(call) => {
                let mut buf = Vec::new();
                call.encode_into(&mut buf);
                buf
            }
            Call::Retired(_, bytes) => bytes.to_vec(),
        }
    }
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
/// since are rendered after them, in [`APPENDED`]'s order, and the file only
/// ever grows at its end.
const FRAMED_CALLS: usize = 68;
const FRAMED_RESULTS: usize = 13;

/// A line after the frames: a call or a result shape, by its index.
enum Appended {
    Call(usize),
    Result(usize),
}

/// Every call and result appended after the frames, in the order their lines
/// were blessed.  Append-only: a new entry's line goes at the end.
const APPENDED: &[Appended] = &[Appended::Call(68), Appended::Result(13), Appended::Call(69)];

/// Renders the whole corpus as stable `kind index name: hex` lines.
fn render_corpus() -> String {
    let (calls, results) = (corpus_calls(), corpus_results());
    let call_line = |i: usize| format!("call {i:03} {}: {}\n", calls[i].name(), hex(&calls[i].bytes()));
    let result_line = |i: usize| format!("result {i:03}: {}\n", hex(&results[i].bytes()));
    let mut out: String = (0..FRAMED_CALLS).map(call_line).collect();
    out.extend((0..FRAMED_RESULTS).map(result_line));
    // Whole-frame entries pin the batch headers (magic, version, counts) too.
    out.push_str(&format!("batch syscalls: {}\n", hex(&framed_calls(&calls))));
    out.push_str(&format!("batch completions: {}\n", hex(&framed_completions(&results))));
    let (mut appended_calls, mut appended_results) = (Vec::new(), Vec::new());
    for line in APPENDED {
        match *line {
            Appended::Call(i) => {
                appended_calls.push(i);
                out.push_str(&call_line(i));
            }
            Appended::Result(i) => {
                appended_results.push(i);
                out.push_str(&result_line(i));
            }
        }
    }
    assert_eq!(
        (appended_calls, appended_results),
        (
            (FRAMED_CALLS..calls.len()).collect(),
            (FRAMED_RESULTS..results.len()).collect()
        ),
        "APPENDED must name each call and result after the frames once, in index order"
    );
    out
}

/// A whole frame written out by hand, because a retired call or shape is
/// among its entries and no batch can hold one: the header of `empty` (an
/// empty batch's encoding) with its count set, then the entries.
fn framed(empty: Vec<u8>, entries: Vec<Vec<u8>>) -> Vec<u8> {
    let mut frame = empty;
    frame.truncate(2);
    frame.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    frame.extend(entries.concat());
    frame
}

/// The syscall frame of the first [`FRAMED_CALLS`] calls.
fn framed_calls(calls: &[Call]) -> Vec<u8> {
    framed(
        SyscallBatch::default().encode(),
        calls[..FRAMED_CALLS].iter().map(Call::bytes).collect(),
    )
}

/// The completion frame of the first [`FRAMED_RESULTS`] result shapes:
/// `(u32 index | result)` per shape.
fn framed_completions(results: &[Shape]) -> Vec<u8> {
    let entries = results[..FRAMED_RESULTS]
        .iter()
        .enumerate()
        .map(|(i, shape)| [(i as u32).to_le_bytes().to_vec(), shape.bytes()].concat())
        .collect();
    framed(CompletionBatch::default().encode(), entries)
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
    let calls = corpus_calls();
    for (i, shape) in calls.iter().enumerate() {
        let buf = shape.bytes();
        let mut r = browsix_core::wire::Reader::new(&buf);
        let decoded = Syscall::decode_from(&mut r);
        let Call::Live(call) = shape else {
            assert_eq!(decoded, None, "call {i} has a retired opcode and must not decode");
            continue;
        };
        let decoded = decoded.unwrap_or_else(|| panic!("call {i} failed to decode"));
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
    // The pinned frames hold a retired call and a retired shape, so they no
    // longer decode as a whole either.
    assert_eq!(SyscallBatch::decode(&framed_calls(&calls)), None);
    assert_eq!(CompletionBatch::decode(&framed_completions(&results)), None);
}
