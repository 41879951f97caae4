//! Chunk boundaries cannot change an answer.
//!
//! The streaming filters are checked against the bodies they replaced — kept
//! here unchanged as `reference_*`, reading all of their input first — over
//! random bytes delivered in random read sizes by a scripted [`RuntimeEnv`]:
//! standard output, standard error, files and exit code must be identical.
//! The same environment records the order of reads and writes, which gives
//! "bounded memory" a deterministic form: a filter has passed chunk *k* on
//! before it asks for chunk *k + 1*.

use std::collections::BTreeMap;

use browsix_core::{Errno, SigAction, Signal};
use browsix_fs::{DirEntry, Metadata, OpenFlags};
use browsix_runtime::env::Fd;
use browsix_runtime::{ExecutionProfile, PollFd, RuntimeEnv, SpawnStdio, SyscallConvention, WaitedChild};
use proptest::prelude::*;

use super::*;
use crate::common::{lines, read_inputs};

/// The one-shot digest the incremental [`Sha1`] replaced, so that
/// `reference_sha1sum` below is the old utility through and through.
fn sha1_hex(data: &[u8]) -> String {
    hex(&crate::sha1::reference_digest(data))
}

// ---- the bodies the streaming filters replaced, unchanged ---------------------

fn reference_grep(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let Some(pattern) = operands.first().cloned() else {
        env.eprint("grep: missing pattern\n");
        return 2;
    };
    let ignore_case = has_flag(&flags, 'i');
    let invert = has_flag(&flags, 'v');
    let count_only = has_flag(&flags, 'c');
    let needle = if ignore_case {
        pattern.to_lowercase()
    } else {
        pattern.clone()
    };
    let (data, read_code) = read_inputs(env, "grep", &operands[1..]);
    charge_for_bytes(env, data.len());
    let all_lines = lines(&data);
    let mut matched_lines: Vec<&str> = Vec::new();
    for line in &all_lines {
        let haystack = if ignore_case { line.to_lowercase() } else { line.clone() };
        if haystack.contains(&needle) != invert {
            matched_lines.push(line);
        }
    }
    let matched = matched_lines.len();
    if count_only {
        env.print(&format!("{matched}\n"));
    } else {
        // All matching lines leave the process as one batched submission.
        let mut bufs: Vec<&[u8]> = Vec::with_capacity(matched * 2);
        for line in &matched_lines {
            bufs.push(line.as_bytes());
            bufs.push(b"\n");
        }
        let _ = env.write_vectored(1, &bufs);
    }
    let _ = env.flush_stdout();
    if read_code != 0 {
        2
    } else if matched > 0 {
        0
    } else {
        1
    }
}

fn reference_head(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let count_arg = flag_value(&args, 'n');
    let count: usize = count_arg.as_deref().and_then(|v| v.parse().ok()).unwrap_or(10);
    let (_, operands) = split_args(&args);
    let files: Vec<String> = operands
        .into_iter()
        .filter(|o| count_arg.as_deref() != Some(o.as_str()))
        .collect();
    let (data, code) = if files.is_empty() {
        // Reading a pipe: stop as soon as enough lines have arrived instead
        // of draining the writer to EOF.  Exiting then closes the read end,
        // so an infinite upstream (`yes | head -n 1`) gets EPIPE/SIGPIPE —
        // exactly the coreutils behaviour.
        let mut data = Vec::new();
        let mut newlines = 0usize;
        while newlines < count {
            match env.read(0, 64 * 1024) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => {
                    newlines += chunk.iter().filter(|&&b| b == b'\n').count();
                    data.extend_from_slice(&chunk);
                }
                Err(_) => break,
            }
        }
        (data, 0)
    } else {
        read_inputs(env, "head", &files)
    };
    charge_for_bytes(env, data.len());
    let selected: Vec<String> = lines(&data).into_iter().take(count).collect();
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(selected.len() * 2);
    for line in &selected {
        bufs.push(line.as_bytes());
        bufs.push(b"\n");
    }
    let _ = env.write_vectored(1, &bufs);
    let _ = env.flush_stdout();
    code
}

fn reference_tail(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let count: usize = flag_value(&args, 'n').and_then(|v| v.parse().ok()).unwrap_or(10);
    let (_, operands) = split_args(&args);
    let files: Vec<String> = operands
        .into_iter()
        .filter(|o| flag_value(&args, 'n').as_deref() != Some(o.as_str()))
        .collect();
    let (data, code) = read_inputs(env, "tail", &files);
    charge_for_bytes(env, data.len());
    let all = lines(&data);
    let start = all.len().saturating_sub(count);
    let mut bufs: Vec<&[u8]> = Vec::with_capacity((all.len() - start) * 2);
    for line in &all[start..] {
        bufs.push(line.as_bytes());
        bufs.push(b"\n");
    }
    let _ = env.write_vectored(1, &bufs);
    let _ = env.flush_stdout();
    code
}

fn reference_sha1sum(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    let mut code = 0;
    if operands.is_empty() {
        let data = env.read_stdin_to_end();
        charge_for_bytes(env, data.len() * 4);
        let digest = sha1_hex(&data);
        env.print(&format!("{digest}  -\n"));
        return 0;
    }
    for path in &operands {
        match env.read_file(path) {
            Ok(data) => {
                // Hashing dominates: charge a higher per-byte cost than plain
                // text processing (this is the JavaScript SHA-1 of Figure 9).
                charge_for_bytes(env, data.len() * 4);
                let digest = sha1_hex(&data);
                env.print(&format!("{digest}  {path}\n"));
            }
            Err(e) => {
                env.eprint(&format!("sha1sum: {path}: {e}\n"));
                code = 1;
            }
        }
    }
    code
}

fn reference_tee(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let append = has_flag(&flags, 'a');
    let data = env.read_stdin_to_end();
    charge_for_bytes(env, data.len());
    let _ = env.write(1, &data);
    let _ = env.flush_stdout();
    let mut code = 0;
    for path in &operands {
        let flags = if append {
            OpenFlags::append_create()
        } else {
            OpenFlags::write_create_truncate()
        };
        match env.open(path, flags) {
            Ok(fd) => {
                let _ = env.write(fd, &data);
                let _ = env.close(fd);
            }
            Err(e) => {
                env.eprint(&format!("tee: {path}: {e}\n"));
                code = 1;
            }
        }
    }
    code
}

fn reference_wc(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let (data, code) = read_inputs(env, "wc", &operands);
    charge_for_bytes(env, data.len());
    let line_count = data.iter().filter(|&&b| b == b'\n').count();
    let word_count = String::from_utf8_lossy(&data).split_whitespace().count();
    let byte_count = data.len();
    let name = operands.first().cloned().unwrap_or_default();
    let output = if has_flag(&flags, 'l') {
        format!("{line_count} {name}\n")
    } else if has_flag(&flags, 'w') {
        format!("{word_count} {name}\n")
    } else if has_flag(&flags, 'c') {
        format!("{byte_count} {name}\n")
    } else {
        format!("{line_count:>8}{word_count:>8}{byte_count:>8} {name}\n")
    };
    env.print(output.trim_end_matches(' '));
    let _ = env.flush_stdout();
    code
}

// ---- the scripted environment ---------------------------------------------------

/// What a utility did to its descriptors, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A read that returned this many bytes.
    Read(usize),
    /// A write of this many bytes to this descriptor, and whether it worked.
    Write(Fd, usize, bool),
}

#[derive(Debug)]
struct OpenFile {
    path: String,
    pos: usize,
    append: bool,
}

/// An in-memory environment whose reads return as many bytes as the script
/// says (cycling through it), never more than asked for.
struct ScriptedEnv {
    args: Vec<String>,
    stdin: Vec<u8>,
    stdin_pos: usize,
    files: BTreeMap<String, Vec<u8>>,
    open: BTreeMap<Fd, OpenFile>,
    next_fd: Fd,
    read_sizes: Vec<usize>,
    reads: usize,
    /// Standard output accepts this many bytes, then fails with `EPIPE`.
    stdout_limit: usize,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    log: Vec<Event>,
    profile: ExecutionProfile,
}

impl ScriptedEnv {
    fn new(args: &[String], stdin: &[u8], files: &BTreeMap<String, Vec<u8>>, read_sizes: &[usize]) -> ScriptedEnv {
        ScriptedEnv {
            args: args.to_vec(),
            stdin: stdin.to_vec(),
            stdin_pos: 0,
            files: files.clone(),
            open: BTreeMap::new(),
            next_fd: 3,
            read_sizes: read_sizes.to_vec(),
            reads: 0,
            stdout_limit: usize::MAX,
            stdout: Vec::new(),
            stderr: Vec::new(),
            log: Vec::new(),
            profile: ExecutionProfile::instant(SyscallConvention::Direct),
        }
    }
}

impl RuntimeEnv for ScriptedEnv {
    fn args(&self) -> Vec<String> {
        self.args.clone()
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        // "/nodir/..." stands for a path whose directory does not exist.
        if path.starts_with("/nodir/") || !(flags.create || self.files.contains_key(path)) {
            return Err(Errno::ENOENT);
        }
        let data = self.files.entry(path.to_owned()).or_default();
        if flags.truncate {
            data.clear();
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open.insert(
            fd,
            OpenFile {
                path: path.to_owned(),
                pos: 0,
                append: flags.append,
            },
        );
        Ok(fd)
    }

    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.open.remove(&fd).map(|_| ()).ok_or(Errno::EBADF)
    }

    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno> {
        let (data, pos) = if fd == 0 {
            (&self.stdin, &mut self.stdin_pos)
        } else {
            let file = self.open.get_mut(&fd).ok_or(Errno::EBADF)?;
            (&self.files[&file.path], &mut file.pos)
        };
        let scripted = self.read_sizes[self.reads % self.read_sizes.len()];
        self.reads += 1;
        let count = len.min(scripted).min(data.len() - *pos);
        let chunk = data[*pos..*pos + count].to_vec();
        *pos += count;
        self.log.push(Event::Read(count));
        Ok(chunk)
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        let accepted = fd != 1 || self.stdout.len() + data.len() <= self.stdout_limit;
        self.log.push(Event::Write(fd, data.len(), accepted));
        match fd {
            1 if !accepted => return Err(Errno::EPIPE),
            1 => self.stdout.extend_from_slice(data),
            2 => self.stderr.extend_from_slice(data),
            _ => {
                let file = self.open.get_mut(&fd).ok_or(Errno::EBADF)?;
                let stored = self.files.get_mut(&file.path).ok_or(Errno::EBADF)?;
                if file.append {
                    file.pos = stored.len();
                }
                let end = file.pos + data.len();
                if stored.len() < end {
                    stored.resize(end, 0);
                }
                stored[file.pos..end].copy_from_slice(data);
                file.pos = end;
            }
        }
        Ok(data.len())
    }

    fn stat(&mut self, path: &str) -> Result<Metadata, Errno> {
        self.files
            .get(path)
            .map(|data| Metadata::regular(data.len() as u64))
            .ok_or(Errno::ENOENT)
    }

    fn getcwd(&mut self) -> String {
        "/".to_owned()
    }

    fn charge_compute(&mut self, _units: u64) {}

    fn profile(&self) -> &ExecutionProfile {
        &self.profile
    }

    // Nothing below is reached by a filter.

    fn env_vars(&self) -> Vec<(String, String)> {
        Vec::new()
    }
    fn getpid(&mut self) -> u32 {
        unimplemented!()
    }
    fn getppid(&mut self) -> u32 {
        unimplemented!()
    }
    fn chdir(&mut self, _: &str) -> Result<(), Errno> {
        unimplemented!()
    }
    fn pread(&mut self, _: Fd, _: usize, _: u64) -> Result<Vec<u8>, Errno> {
        unimplemented!()
    }
    fn pwrite(&mut self, _: Fd, _: &[u8], _: u64) -> Result<usize, Errno> {
        unimplemented!()
    }
    fn seek(&mut self, _: Fd, _: i64, _: u32) -> Result<u64, Errno> {
        unimplemented!()
    }
    fn dup2(&mut self, _: Fd, _: Fd) -> Result<(), Errno> {
        unimplemented!()
    }
    fn fstat(&mut self, _: Fd) -> Result<Metadata, Errno> {
        unimplemented!()
    }
    fn poll(&mut self, _: &mut [PollFd], _: i32) -> Result<usize, Errno> {
        unimplemented!()
    }
    fn set_nonblocking(&mut self, _: Fd, _: bool) -> Result<(), Errno> {
        unimplemented!()
    }
    fn readdir(&mut self, _: &str) -> Result<Vec<DirEntry>, Errno> {
        unimplemented!()
    }
    fn mkdir(&mut self, _: &str) -> Result<(), Errno> {
        unimplemented!()
    }
    fn rmdir(&mut self, _: &str) -> Result<(), Errno> {
        unimplemented!()
    }
    fn unlink(&mut self, _: &str) -> Result<(), Errno> {
        unimplemented!()
    }
    fn rename(&mut self, _: &str, _: &str) -> Result<(), Errno> {
        unimplemented!()
    }
    fn truncate(&mut self, _: &str, _: u64) -> Result<(), Errno> {
        unimplemented!()
    }
    fn access(&mut self, _: &str) -> Result<(), Errno> {
        unimplemented!()
    }
    fn utimes(&mut self, _: &str, _: u64, _: u64) -> Result<(), Errno> {
        unimplemented!()
    }
    fn spawn(&mut self, _: &str, _: &[String], _: SpawnStdio) -> Result<u32, Errno> {
        unimplemented!()
    }
    fn wait_options(&mut self, _: i32, _: u32) -> Result<Option<WaitedChild>, Errno> {
        unimplemented!()
    }
    fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        unimplemented!()
    }
    fn kill(&mut self, _: u32, _: Signal) -> Result<(), Errno> {
        unimplemented!()
    }
    fn sigaction(&mut self, _: Signal, _: SigAction) -> Result<(), Errno> {
        unimplemented!()
    }
    fn getpgid(&mut self, _: u32) -> Result<u32, Errno> {
        unimplemented!()
    }
    fn pending_signals(&mut self) -> Vec<Signal> {
        unimplemented!()
    }
    fn fork(&mut self, _: Vec<u8>) -> Result<u32, Errno> {
        unimplemented!()
    }
    fn fork_image(&self) -> Option<Vec<u8>> {
        unimplemented!()
    }
    fn exit(&mut self, _: i32) {
        unimplemented!()
    }
    fn socket(&mut self) -> Result<Fd, Errno> {
        unimplemented!()
    }
    fn bind(&mut self, _: Fd, _: u16) -> Result<u16, Errno> {
        unimplemented!()
    }
    fn listen(&mut self, _: Fd, _: u32) -> Result<(), Errno> {
        unimplemented!()
    }
    fn accept(&mut self, _: Fd) -> Result<Fd, Errno> {
        unimplemented!()
    }
    fn connect(&mut self, _: Fd, _: u16) -> Result<(), Errno> {
        unimplemented!()
    }
}

// ---- inputs ---------------------------------------------------------------------

/// Everything a run leaves behind that a user could see.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    code: i32,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    files: BTreeMap<String, Vec<u8>>,
}

type Program = fn(&mut dyn RuntimeEnv) -> i32;

fn run(program: Program, mut env: ScriptedEnv) -> (Outcome, Vec<Event>) {
    let code = program(&mut env);
    assert!(env.open.is_empty(), "descriptors left open: {:?}", env.open);
    let outcome = Outcome {
        code,
        stdout: env.stdout,
        stderr: env.stderr,
        files: env.files,
    };
    (outcome, env.log)
}

/// Shapes raw random bytes into one of the inputs that matter: 0 leaves them
/// raw (mostly invalid UTF-8); 1 maps them onto a small alphabet dense in
/// newlines, `\r`, blanks, multi-byte characters and their torn halves; 2 is
/// 1 with a line longer than a chunk in the middle.  An empty `raw` is the
/// empty input, and nothing makes the last byte a newline.
fn shape(raw: &[u8], kind: u8) -> Vec<u8> {
    const ALPHABET: [&[u8]; 16] = [
        b"a",
        b"b",
        b"y",
        b" ",
        b"\n",
        b"\n",
        b"\r\n",
        b"\t",
        b"\x0b",
        b"\xc3\xa9",
        b"\xe2\x82\xac",
        b"\xe2\x82",
        b"\xa9",
        b"\xff",
        b"A",
        b"n",
    ];
    if kind == 0 {
        return raw.to_vec();
    }
    let mut text: Vec<u8> = raw
        .iter()
        .flat_map(|&b| ALPHABET[usize::from(b & 15)])
        .copied()
        .collect();
    if kind == 2 {
        let at = text.len() / 2;
        text.splice(at..at, std::iter::repeat_n(b'z', CHUNK + 4321));
    }
    text
}

/// Read sizes from 1 B to 64 KiB, spread evenly over the powers of two.
fn read_sizes(script: &[(u32, u16)]) -> Vec<usize> {
    script
        .iter()
        .map(|&(exp, jitter)| ((1usize << exp) + usize::from(jitter) % (1usize << exp)).min(CHUNK))
        .collect()
}

/// Where the input comes from: 0 standard input, 1 one file, 2 two files
/// (the data cut between them at any byte), 3 a missing file first.
fn stage(data: &[u8], source: u8, cut: usize) -> (Vec<u8>, BTreeMap<String, Vec<u8>>, Vec<String>) {
    let mut files = BTreeMap::new();
    let mut operands: Vec<String> = Vec::new();
    match source {
        0 => return (data.to_vec(), files, operands),
        1 => {
            files.insert("/in/a".to_owned(), data.to_vec());
            operands.push("/in/a".to_owned());
        }
        _ => {
            let cut = cut % (data.len() + 1);
            files.insert("/in/a".to_owned(), data[..cut].to_vec());
            files.insert("/in/b".to_owned(), data[cut..].to_vec());
            if source == 3 {
                operands.push("/in/missing".to_owned());
            }
            operands.extend(["/in/a".to_owned(), "/in/b".to_owned()]);
        }
    }
    (Vec::new(), files, operands)
}

/// Runs the streaming filter and the body it replaced on the same input and
/// compares everything they leave behind.
fn assert_same(
    streaming: Program,
    reference: Program,
    args: &[String],
    data: &[u8],
    source: u8,
    cut: usize,
    sizes: &[usize],
) {
    let (stdin, files, operands) = stage(data, source, cut);
    let mut argv = args.to_vec();
    argv.extend(operands);
    let (expected, _) = run(reference, ScriptedEnv::new(&argv, &stdin, &files, sizes));
    let (actual, _) = run(streaming, ScriptedEnv::new(&argv, &stdin, &files, sizes));
    assert_eq!(actual, expected, "argv {argv:?}, read sizes {sizes:?}");
}

fn argv(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

const WC_FLAGS: [&[&str]; 9] = [
    &[],
    &["-l"],
    &["-w"],
    &["-c"],
    &["-lw"],
    &["-wc"],
    &["-c", "-l"],
    &["-cw"],
    &["-lwc"],
];
const GREP_FLAGS: [&[&str]; 8] = [
    &[],
    &["-i"],
    &["-v"],
    &["-c"],
    &["-iv"],
    &["-i", "-c"],
    &["-vc"],
    &["-ivc"],
];
const GREP_PATTERNS: [&str; 8] = ["a", "ab", "A", "y\r", "\u{e9}", "\u{fffd}", "zzzz", ""];
const LINE_COUNTS: [&[&str]; 8] = [
    &[],
    &["-n", "0"],
    &["-n", "1"],
    &["-n2"],
    &["-n", "3"],
    &["-n", "7"],
    &["-n40"],
    &["-n", "100000"],
];

/// The old `wc` split words at Unicode white space after a lossy decode; the
/// new one, like `wc` in the C locale, at the six ASCII white-space bytes.
/// They agree unless the input spells a non-ASCII white-space character.
fn has_unicode_only_space(data: &[u8]) -> bool {
    String::from_utf8_lossy(data)
        .chars()
        .any(|c| c.is_whitespace() && !c.is_ascii())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wc_counts_the_same_however_the_input_is_cut(
        raw in prop::collection::vec(any::<u8>(), 0..3000),
        (kind, source, flags) in (0u8..3, 0u8..4, 0usize..WC_FLAGS.len()),
        (cut, script) in (any::<usize>(), prop::collection::vec((0u32..17, any::<u16>()), 1..12)),
    ) {
        let data = shape(&raw, kind);
        let letters = WC_FLAGS[flags].concat();
        let counts_words = !letters.contains('l') && (letters.contains('w') || !letters.contains('c'));
        if counts_words && has_unicode_only_space(&data) {
            continue;
        }
        let mut args = argv(&["wc"]);
        args.extend(argv(WC_FLAGS[flags]));
        assert_same(run_wc, reference_wc, &args, &data, source, cut, &read_sizes(&script));
    }

    #[test]
    fn grep_selects_the_same_lines_however_the_input_is_cut(
        raw in prop::collection::vec(any::<u8>(), 0..3000),
        (kind, source, flags, pattern) in (0u8..3, 0u8..4, 0usize..GREP_FLAGS.len(), 0usize..GREP_PATTERNS.len()),
        (cut, script) in (any::<usize>(), prop::collection::vec((0u32..17, any::<u16>()), 1..12)),
    ) {
        let mut args = argv(&["grep"]);
        args.extend(argv(GREP_FLAGS[flags]));
        args.push(GREP_PATTERNS[pattern].to_owned());
        assert_same(run_grep, reference_grep, &args, &shape(&raw, kind), source, cut, &read_sizes(&script));
    }

    #[test]
    fn head_and_tail_keep_the_same_lines_however_the_input_is_cut(
        raw in prop::collection::vec(any::<u8>(), 0..3000),
        (kind, source, count) in (0u8..3, 0u8..4, 0usize..LINE_COUNTS.len()),
        (cut, script) in (any::<usize>(), prop::collection::vec((0u32..17, any::<u16>()), 1..12)),
    ) {
        let data = shape(&raw, kind);
        let sizes = read_sizes(&script);
        let mut args = argv(&["tail"]);
        args.extend(argv(LINE_COUNTS[count]));
        assert_same(run_tail, reference_tail, &args, &data, source, cut, &sizes);
        args[0] = "head".to_owned();
        assert_same(run_head, reference_head, &args, &data, source, cut, &sizes);
    }

    #[test]
    fn sha1sum_prints_the_same_digests_however_the_input_is_cut(
        raw in prop::collection::vec(any::<u8>(), 0..3000),
        (kind, source) in (0u8..3, 0u8..4),
        (cut, script) in (any::<usize>(), prop::collection::vec((0u32..17, any::<u16>()), 1..12)),
    ) {
        assert_same(run_sha1sum, reference_sha1sum, &argv(&["sha1sum"]), &shape(&raw, kind), source, cut, &read_sizes(&script));
    }

    #[test]
    fn tee_copies_the_same_bytes_however_the_input_is_cut(
        raw in prop::collection::vec(any::<u8>(), 0..3000),
        (kind, append, sinks) in (0u8..3, any::<bool>(), 0usize..5),
        script in prop::collection::vec((0u32..17, any::<u16>()), 1..12),
    ) {
        // Sinks: none, a new file, a file with old contents, both, and both
        // beside a path that cannot be created.
        let operands: &[&str] = [&[][..], &["/out/new"], &["/out/old"], &["/out/new", "/out/old"], &["/out/new", "/nodir/x", "/out/old"]][sinks];
        let mut args = argv(&["tee"]);
        if append {
            args.push("-a".to_owned());
        }
        args.extend(argv(operands));
        let files = BTreeMap::from([("/out/old".to_owned(), b"old contents\n".to_vec())]);
        let sizes = read_sizes(&script);
        let data = shape(&raw, kind);
        let (expected, _) = run(reference_tee, ScriptedEnv::new(&args, &data, &files, &sizes));
        let (actual, _) = run(run_tee, ScriptedEnv::new(&args, &data, &files, &sizes));
        prop_assert_eq!(actual, expected, "argv {:?}, read sizes {:?}", args, sizes);
    }
}

// ---- call order: one chunk in flight ------------------------------------------

/// At every read, `consumed(bytes read so far)` must already have been
/// written to each of `sinks`; and `total` once the utility has returned.
fn assert_one_chunk_in_flight(log: &[Event], sinks: &[Fd], consumed: impl Fn(usize) -> usize, total: usize) {
    let mut read = 0;
    let mut written: BTreeMap<Fd, usize> = sinks.iter().map(|&fd| (fd, 0)).collect();
    for &event in log {
        match event {
            Event::Read(count) => {
                for (fd, &count) in &written {
                    assert_eq!(count, consumed(read), "descriptor {fd} lags behind {read} bytes read");
                }
                read += count;
            }
            Event::Write(fd, count, _) => {
                if let Some(total) = written.get_mut(&fd) {
                    *total += count;
                }
            }
        }
    }
    assert!(written.values().all(|&count| count == total), "{written:?} != {total}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_filter_passes_each_chunk_on_before_it_reads_the_next(
        raw in prop::collection::vec(any::<u8>(), 1..3000),
        long_line in any::<bool>(),
        script in prop::collection::vec((0u32..17, any::<u16>()), 1..12),
    ) {
        // ASCII lines, so that a line's length survives the lossy decode.
        let mut data: Vec<u8> = raw.iter().map(|&b| if b & 7 == 0 { b'\n' } else { b'a' + (b & 15) }).collect();
        if long_line {
            data.splice(0..0, std::iter::repeat_n(b'z', CHUNK + 99));
        }
        let sizes = read_sizes(&script);
        let files = BTreeMap::from([("/in/a".to_owned(), data.clone()), ("/in/b".to_owned(), data.clone())]);
        let twice = [data.clone(), data.clone()].concat();
        // `whole_lines(input)[read]`: how many of `input[..read]`'s bytes are
        // complete lines; and what a line filter selecting everything writes
        // in all.
        let whole_lines = |input: &[u8]| -> Vec<usize> {
            let mut complete = 0;
            let ends = input.iter().enumerate().map(|(at, &b)| {
                if b == b'\n' {
                    complete = at + 1;
                }
                complete
            });
            std::iter::once(0).chain(ends).collect()
        };
        let with_last_newline = |input: &[u8]| input.len() + usize::from(!input.ends_with(b"\n"));

        // Byte pumps: everything read has left again.
        let (_, log) = run(run_tee, ScriptedEnv::new(&argv(&["tee", "/out/x", "/out/y"]), &data, &files, &sizes));
        assert_one_chunk_in_flight(&log, &[1, 3, 4], |read| read, data.len());
        let (_, log) = run(run_cat, ScriptedEnv::new(&argv(&["cat", "/in/a", "/in/b"]), &[], &files, &sizes));
        assert_one_chunk_in_flight(&log, &[1], |read| read, twice.len());
        let (outcome, log) = run(run_cp, ScriptedEnv::new(&argv(&["cp", "/in/a", "/out/copy"]), &[], &files, &sizes));
        assert_one_chunk_in_flight(&log, &[4], |read| read, data.len());
        prop_assert_eq!(&outcome.files["/out/copy"], &data);

        // Line filters: every complete line read has left again; what is
        // held back is the unfinished last line.
        let (_, log) = run(run_grep, ScriptedEnv::new(&argv(&["grep", "-v", "#"]), &data, &files, &sizes));
        let complete = whole_lines(&data);
        assert_one_chunk_in_flight(&log, &[1], |read| complete[read], with_last_newline(&data));
        let (_, log) = run(run_head, ScriptedEnv::new(&argv(&["head", "-n", "1000000", "/in/a", "/in/b"]), &[], &files, &sizes));
        let complete = whole_lines(&twice);
        assert_one_chunk_in_flight(&log, &[1], |read| complete[read], with_last_newline(&twice));

        // Folding filters never see more than a borrowed chunk and say
        // nothing until the input has ended.
        for (program, args) in [(run_wc as Program, argv(&["wc"])), (run_sha1sum, argv(&["sha1sum"])), (run_tail, argv(&["tail", "-n", "2"]))] {
            let (_, log) = run(program, ScriptedEnv::new(&args, &data, &files, &sizes));
            let last_read = log.iter().rposition(|e| matches!(e, Event::Read(_))).expect("the read that saw the end");
            prop_assert!(log[..last_read].iter().all(|e| matches!(e, Event::Read(_))));
        }
    }
}

#[test]
fn line_splitter_holds_one_unfinished_line_and_nothing_else() {
    let mut splitter = LineSplitter::default();
    let mut seen = Vec::new();
    for piece in [&b"one\ntw"[..], b"o\n", b"", b"\n\nthr", b"e", b"e"] {
        splitter.feed(piece, |line| seen.push(line.to_vec()));
    }
    assert_eq!(seen, [&b"one"[..], b"two", b"", b""]);
    assert_eq!(splitter.finish(), Some(b"three".to_vec()));
    assert_eq!(LineSplitter::default().finish(), None);
}

// ---- a reader that went away ----------------------------------------------------

#[test]
fn a_filter_stops_reading_once_standard_output_is_gone() {
    // EPIPE without the SIGPIPE death (the signal ignored, say): pumping on
    // would read an endless upstream for ever on behalf of nobody.
    let data = b"yes\n".repeat(CHUNK);
    let files = BTreeMap::from([("/in/a".to_owned(), data.clone())]);
    for (program, args, code) in [
        (run_tee as Program, argv(&["tee", "/out/x"]), 1),
        (run_grep, argv(&["grep", "y"]), 2),
        (run_cat, argv(&["cat", "/in/a", "/in/a"]), 1),
        (run_head, argv(&["head", "-n", "1000000"]), 0),
    ] {
        let mut env = ScriptedEnv::new(&args, &data, &files, &[4096]);
        env.stdout_limit = 10_000;
        let (outcome, log) = run(program, env);
        assert_eq!(outcome.code, code, "{args:?}");
        let refused = log
            .iter()
            .position(|e| matches!(e, Event::Write(1, _, false)))
            .expect("a refused write");
        assert!(
            log[refused..].iter().all(|e| !matches!(e, Event::Read(_))),
            "{args:?} kept reading after standard output failed"
        );
        assert_eq!(outcome.stdout.len(), 8192, "{args:?}");
    }
}
