//! The utilities themselves.
//!
//! Each utility is an ordinary function over [`RuntimeEnv`]; the same code
//! runs natively, under the Node.js baseline, and as a Browsix process.
//! Behaviour follows the POSIX utilities closely enough for the shell, the
//! case studies and the benchmarks, without aiming for flag-for-flag parity.
//!
//! Filters stream: `cat`, `cp`, `grep`, `head`, `sha1sum`, `tail`, `tee` and
//! `wc` take their input through [`for_each_chunk`] and have consumed one
//! chunk — written it on, or folded it into counters, a hash state or the
//! last N lines — before they read the next, so pipeline stages overlap,
//! memory does not grow with the input and every hop back-pressures.  Only
//! `sort` and `xargs` read all of their input first; they have to.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Duration;

use browsix_fs::{FileType, OpenFlags};
use browsix_runtime::{guest, GuestFactory, RuntimeEnv, SharedArrayBuffer, SpawnStdio};

use crate::common::{charge_for_bytes, flag_value, for_each_chunk, has_flag, lines, split_args, LineSplitter, CHUNK};
use crate::sha1::{hex, Sha1};

/// Returns every utility as a `(name, factory)` pair.
pub fn all_utilities() -> Vec<(&'static str, GuestFactory)> {
    vec![
        ("cat", guest("cat", run_cat)),
        ("cp", guest("cp", run_cp)),
        ("curl", guest("curl", run_curl)),
        ("echo", guest("echo", run_echo)),
        ("false", guest("false", |_| 1)),
        ("grep", guest("grep", run_grep)),
        ("head", guest("head", run_head)),
        ("kill", guest("kill", run_kill)),
        ("ls", guest("ls", run_ls)),
        ("mkdir", guest("mkdir", run_mkdir)),
        ("pwd", guest("pwd", run_pwd)),
        ("rm", guest("rm", run_rm)),
        ("rmdir", guest("rmdir", run_rmdir)),
        ("sha1sum", guest("sha1sum", run_sha1sum)),
        ("shm-ping", guest("shm-ping", run_shm_ping)),
        ("sleep", guest("sleep", run_sleep)),
        ("sort", guest("sort", run_sort)),
        ("stat", guest("stat", run_stat)),
        ("tail", guest("tail", run_tail)),
        ("tee", guest("tee", run_tee)),
        ("timeout", guest("timeout", run_timeout)),
        ("touch", guest("touch", run_touch)),
        ("true", guest("true", |_| 0)),
        ("wc", guest("wc", run_wc)),
        ("xargs", guest("xargs", run_xargs)),
        ("yes", guest("yes", run_yes)),
    ]
}

fn run_cat(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    if operands.is_empty() {
        // Streaming stdin → stdout chunk by chunk, like coreutils cat: an
        // infinite upstream (`yes | cat`) flows through instead of being
        // slurped to an EOF that never comes.  When both ends are streams
        // (the common pipeline shape) `splice` moves the bytes kernel-side;
        // the first zero-progress error drops to the classic copy loop.
        let _ = env.flush_stdout();
        let mut spliced = 0u64;
        loop {
            match env.splice(0, 1, 64 * 1024) {
                Ok(0) => return 0,
                Ok(moved) => {
                    charge_for_bytes(env, moved as usize);
                    spliced += moved;
                }
                Err(_) if spliced == 0 => break, // not stream-to-stream
                Err(_) => return 1,
            }
        }
    }
    // A single regular-file operand can flow to stdout over `sendfile`
    // without its bytes entering this process.  Anything else — stdin
    // mixed in, several operands, a non-stream stdout — and the attempt
    // fails before any output, falling back to the copy loop below.
    if operands.len() == 1 && operands[0] != "-" {
        if let Ok(fd) = env.open(&operands[0], OpenFlags::read_only()) {
            if let Some(meta) = env.fstat(fd).ok().filter(|m| !m.is_dir()) {
                let _ = env.flush_stdout();
                let mut sent = 0u64;
                let mut zero_copy = true;
                while sent < meta.size {
                    match env.sendfile(1, fd, sent as i64, meta.size - sent) {
                        Ok(0) => break,
                        Ok(moved) => {
                            charge_for_bytes(env, moved as usize);
                            sent += moved;
                        }
                        Err(_) if sent == 0 => {
                            zero_copy = false; // nothing written yet: safe to retry buffered
                            break;
                        }
                        Err(_) => {
                            let _ = env.close(fd);
                            return 1;
                        }
                    }
                }
                if zero_copy {
                    let _ = env.close(fd);
                    return 0;
                }
            }
            let _ = env.close(fd);
        }
    }
    let mut broken = false;
    let code = for_each_chunk(env, "cat", &operands, |env, chunk| {
        charge_for_bytes(env, chunk.len());
        let flow = emit(env, chunk);
        broken = flow.is_break();
        flow
    });
    if broken {
        1
    } else {
        code
    }
}

/// Writes `out` (if any) to standard output and flushes it, so the next
/// stage has this chunk before we read another.  Breaks when standard output
/// is gone (EPIPE with SIGPIPE ignored): nobody is left to read what we
/// would pump.
fn emit(env: &mut dyn RuntimeEnv, out: &[u8]) -> ControlFlow<()> {
    if !out.is_empty() && (env.write(1, out).is_err() || env.flush_stdout().is_err()) {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(())
    }
}

/// Appends `line`, decoded lossily, and a newline to `out`.
fn push_line(out: &mut Vec<u8>, line: &[u8]) {
    out.extend_from_slice(String::from_utf8_lossy(line).as_bytes());
    out.push(b'\n');
}

fn run_cp(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    if operands.len() != 2 {
        env.eprint("cp: usage: cp SOURCE DEST\n");
        return 1;
    }
    let source = match env.open(&operands[0], OpenFlags::read_only()) {
        Ok(fd) => fd,
        Err(e) => {
            env.eprint(&format!("cp: {}: {e}\n", operands[0]));
            return 1;
        }
    };
    // Copying onto a directory places the file inside it.
    let dest = match env.stat(&operands[1]) {
        Ok(meta) if meta.is_dir() => {
            format!("{}/{}", operands[1], browsix_fs::path::basename(&operands[0]))
        }
        _ => operands[1].clone(),
    };
    let cwd = env.getcwd();
    let code = if browsix_fs::path::resolve(&cwd, &operands[0]) == browsix_fs::path::resolve(&cwd, &dest) {
        // Opening the destination would truncate the source under us.
        env.eprint(&format!("cp: {} and {dest} are the same file\n", operands[0]));
        1
    } else {
        copy_to(env, source, &operands[0], &dest)
    };
    let _ = env.close(source);
    code
}

/// Copies the rest of `source` into a freshly truncated `dest`, one chunk in
/// flight at a time.
fn copy_to(env: &mut dyn RuntimeEnv, source: i32, source_path: &str, dest: &str) -> i32 {
    let sink = match env.open(dest, OpenFlags::write_create_truncate()) {
        Ok(fd) => fd,
        Err(e) => {
            env.eprint(&format!("cp: {dest}: {e}\n"));
            return 1;
        }
    };
    let code = loop {
        let chunk = match env.read(source, CHUNK) {
            Ok(chunk) if chunk.is_empty() => break 0,
            Ok(chunk) => chunk,
            Err(e) => {
                env.eprint(&format!("cp: {source_path}: {e}\n"));
                break 1;
            }
        };
        charge_for_bytes(env, chunk.len());
        if let Err(e) = env.write(sink, &chunk) {
            env.eprint(&format!("cp: {dest}: {e}\n"));
            break 1;
        }
    };
    let _ = env.close(sink);
    code
}

fn run_curl(env: &mut dyn RuntimeEnv) -> i32 {
    // curl URL [-o FILE]; URLs look like http://localhost:PORT/path and are
    // served by in-Browsix HTTP servers over Browsix sockets.
    let args = env.args();
    let (_, operands) = split_args(&args);
    let Some(url) = operands.first().cloned() else {
        env.eprint("curl: missing url\n");
        return 1;
    };
    let output = flag_value(&args, 'o');
    let Some((port, path)) = parse_localhost_url(&url) else {
        env.eprint(&format!("curl: unsupported url: {url}\n"));
        return 1;
    };
    let request = browsix_http::HttpRequest::new(browsix_http::Method::Get, &path);
    let fd = match env.socket() {
        Ok(fd) => fd,
        Err(e) => {
            env.eprint(&format!("curl: socket: {e}\n"));
            return 1;
        }
    };
    if let Err(e) = env.connect(fd, port) {
        env.eprint(&format!("curl: connect: {e}\n"));
        return 7;
    }
    let _ = env.write(fd, &request.serialize());
    let mut received = Vec::new();
    loop {
        match env.read(fd, 64 * 1024) {
            Ok(chunk) if chunk.is_empty() => break,
            Ok(chunk) => {
                received.extend_from_slice(&chunk);
                if let Ok(Some(_)) = browsix_http::parse_response(&received) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = env.close(fd);
    match browsix_http::parse_response(&received) {
        Ok(Some(response)) => {
            charge_for_bytes(env, response.body.len());
            match output {
                Some(path) => {
                    let _ = env.write_file(&path, &response.body);
                }
                None => {
                    let _ = env.write(1, &response.body);
                }
            }
            if response.is_success() {
                0
            } else {
                22
            }
        }
        _ => {
            env.eprint("curl: malformed response\n");
            1
        }
    }
}

fn parse_localhost_url(url: &str) -> Option<(u16, String)> {
    let rest = url.strip_prefix("http://")?;
    let (host, path) = match rest.find('/') {
        Some(idx) => (&rest[..idx], rest[idx..].to_owned()),
        None => (rest, "/".to_owned()),
    };
    let (_, port) = host.split_once(':')?;
    Some((port.parse().ok()?, path))
}

fn run_echo(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let mut words: Vec<&str> = args.iter().skip(1).map(|s| s.as_str()).collect();
    let no_newline = words.first() == Some(&"-n");
    if no_newline {
        words.remove(0);
    }
    let mut text = words.join(" ");
    if !no_newline {
        text.push('\n');
    }
    env.print(&text);
    0
}

fn run_grep(env: &mut dyn RuntimeEnv) -> i32 {
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
    let mut matched = 0usize;
    // Decoding per complete line gives the bytes decoding the whole input
    // would: a newline never sits inside a UTF-8 sequence.
    let mut select = |line: &[u8], out: &mut Vec<u8>| {
        let text = String::from_utf8_lossy(line);
        let hit = if ignore_case {
            text.to_lowercase().contains(&needle)
        } else {
            text.contains(&needle)
        };
        if hit != invert {
            matched += 1;
            if !count_only {
                out.extend_from_slice(text.as_bytes());
                out.push(b'\n');
            }
        }
    };
    let mut splitter = LineSplitter::default();
    let mut out = Vec::new();
    let mut broken = false;
    // Each chunk's matches leave before the next chunk is read.
    let read_code = for_each_chunk(env, "grep", &operands[1..], |env, chunk| {
        charge_for_bytes(env, chunk.len());
        out.clear();
        splitter.feed(chunk, |line| select(line, &mut out));
        let flow = emit(env, &out);
        broken = flow.is_break();
        flow
    });
    if broken {
        return 2;
    }
    out.clear();
    if let Some(line) = splitter.finish() {
        select(&line, &mut out);
    }
    if count_only {
        out.extend_from_slice(format!("{matched}\n").as_bytes());
    }
    let _ = emit(env, &out);
    if read_code != 0 {
        2
    } else if matched > 0 {
        0
    } else {
        1
    }
}

fn run_head(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let count_arg = flag_value(&args, 'n');
    let count: usize = count_arg.as_deref().and_then(|v| v.parse().ok()).unwrap_or(10);
    let (_, operands) = split_args(&args);
    let files: Vec<String> = operands
        .into_iter()
        .filter(|o| count_arg.as_deref() != Some(o.as_str()))
        .collect();
    // Stop as soon as enough lines have arrived instead of draining the
    // input.  Exiting then closes the read end of a pipe, so an infinite
    // upstream (`yes | head -n 1`) gets EPIPE/SIGPIPE — exactly the
    // coreutils behaviour.
    let mut splitter = LineSplitter::default();
    let mut taken = 0usize;
    let mut out = Vec::new();
    let code = for_each_chunk(env, "head", &files, |env, chunk| {
        charge_for_bytes(env, chunk.len());
        out.clear();
        splitter.feed(chunk, |line| {
            if taken < count {
                push_line(&mut out, line);
                taken += 1;
            }
        });
        emit(env, &out)?;
        if taken < count {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    if taken < count {
        if let Some(line) = splitter.finish() {
            out.clear();
            push_line(&mut out, &line);
            let _ = emit(env, &out);
        }
    }
    code
}

fn run_tail(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let count: usize = flag_value(&args, 'n').and_then(|v| v.parse().ok()).unwrap_or(10);
    let (_, operands) = split_args(&args);
    let files: Vec<String> = operands
        .into_iter()
        .filter(|o| flag_value(&args, 'n').as_deref() != Some(o.as_str()))
        .collect();
    // Only the last `count` lines seen so far are kept.
    let mut last: VecDeque<Vec<u8>> = VecDeque::new();
    let mut keep = |line: &[u8]| {
        if count == 0 {
            return;
        }
        // A full window recycles its oldest line's buffer.
        let mut slot = if last.len() == count {
            last.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        slot.clear();
        slot.extend_from_slice(line);
        last.push_back(slot);
    };
    let mut splitter = LineSplitter::default();
    let code = for_each_chunk(env, "tail", &files, |env, chunk| {
        charge_for_bytes(env, chunk.len());
        splitter.feed(chunk, &mut keep);
        ControlFlow::Continue(())
    });
    if let Some(line) = splitter.finish() {
        keep(&line);
    }
    let mut out = Vec::new();
    for line in &last {
        push_line(&mut out, line);
    }
    let _ = emit(env, &out);
    code
}

fn run_ls(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, mut operands) = split_args(&args);
    let long = has_flag(&flags, 'l');
    if operands.is_empty() {
        operands.push(".".to_owned());
    }
    let mut code = 0;
    let mut output = String::new();
    for (index, target) in operands.iter().enumerate() {
        match env.stat(target) {
            Ok(meta) if meta.is_dir() => match env.readdir(target) {
                Ok(entries) => {
                    if operands.len() > 1 {
                        if index > 0 {
                            output.push('\n');
                        }
                        output.push_str(&format!("{target}:\n"));
                    }
                    // `ls -l` stats every entry, which is what makes the
                    // Figure 9 workload syscall-heavy; all the stats go to
                    // the kernel as one batched submission.
                    if long {
                        let children: Vec<String> = entries
                            .iter()
                            .map(|entry| format!("{}/{}", target.trim_end_matches('/'), entry.name))
                            .collect();
                        let child_refs: Vec<&str> = children.iter().map(|c| c.as_str()).collect();
                        let metas = env.stat_many(&child_refs);
                        for (entry, meta) in entries.iter().zip(metas) {
                            charge_for_bytes(env, 64);
                            let (size, mode, kind) =
                                meta.map(|m| (m.size, m.mode, m.file_type))
                                    .unwrap_or((0, 0, FileType::Regular));
                            output.push_str(&format!("{}{:o} {:>8} {}\n", kind.type_char(), mode, size, entry.name));
                        }
                    } else {
                        for entry in &entries {
                            charge_for_bytes(env, 64);
                            output.push_str(&entry.name);
                            output.push('\n');
                        }
                    }
                }
                Err(e) => {
                    env.eprint(&format!("ls: {target}: {e}\n"));
                    code = 1;
                }
            },
            Ok(meta) => {
                if long {
                    output.push_str(&format!("-{:o} {:>8} {target}\n", meta.mode, meta.size));
                } else {
                    output.push_str(&format!("{target}\n"));
                }
            }
            Err(e) => {
                env.eprint(&format!("ls: {target}: {e}\n"));
                code = 1;
            }
        }
    }
    env.print(&output);
    code
}

fn run_mkdir(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let parents = has_flag(&flags, 'p');
    let mut code = 0;
    for dir in &operands {
        let result = if parents {
            let mut current = String::new();
            let absolute = dir.starts_with('/');
            let mut result = Ok(());
            for part in dir.split('/').filter(|p| !p.is_empty()) {
                if current.is_empty() && !absolute {
                    current = part.to_owned();
                } else {
                    current = format!("{current}/{part}");
                }
                let target = if absolute {
                    format!("/{current}")
                } else {
                    current.clone()
                };
                match env.mkdir(&target) {
                    Ok(()) => {}
                    Err(browsix_core::Errno::EEXIST) => {}
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            result
        } else {
            env.mkdir(dir)
        };
        if let Err(e) = result {
            env.eprint(&format!("mkdir: {dir}: {e}\n"));
            code = 1;
        }
    }
    if operands.is_empty() {
        env.eprint("mkdir: missing operand\n");
        code = 1;
    }
    code
}

fn run_pwd(env: &mut dyn RuntimeEnv) -> i32 {
    let cwd = env.getcwd();
    env.print(&format!("{cwd}\n"));
    0
}

fn run_rm(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let recursive = has_flag(&flags, 'r') || has_flag(&flags, 'R');
    let force = has_flag(&flags, 'f');
    let mut code = 0;
    for target in &operands {
        let result = if recursive {
            remove_recursive(env, target)
        } else {
            env.unlink(target)
        };
        if let Err(e) = result {
            if !force {
                env.eprint(&format!("rm: {target}: {e}\n"));
                code = 1;
            }
        }
    }
    if operands.is_empty() && !force {
        env.eprint("rm: missing operand\n");
        code = 1;
    }
    code
}

fn remove_recursive(env: &mut dyn RuntimeEnv, path: &str) -> Result<(), browsix_core::Errno> {
    let meta = env.stat(path)?;
    if meta.is_dir() {
        for entry in env.readdir(path)? {
            remove_recursive(env, &format!("{}/{}", path.trim_end_matches('/'), entry.name))?;
        }
        env.rmdir(path)
    } else {
        env.unlink(path)
    }
}

fn run_rmdir(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    let mut code = 0;
    for dir in &operands {
        if let Err(e) = env.rmdir(dir) {
            env.eprint(&format!("rmdir: {dir}: {e}\n"));
            code = 1;
        }
    }
    code
}

fn run_sha1sum(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    if operands.is_empty() {
        return hash_input(env, &[], "-");
    }
    let mut code = 0;
    for path in &operands {
        code |= hash_input(env, std::slice::from_ref(path), path);
    }
    code
}

/// Prints the digest of one input (a single file operand, or standard input
/// for none) unless it could not be read.
fn hash_input(env: &mut dyn RuntimeEnv, operands: &[String], label: &str) -> i32 {
    let mut state = Sha1::new();
    let code = for_each_chunk(env, "sha1sum", operands, |env, chunk| {
        // Hashing dominates: charge a higher per-byte cost than plain
        // text processing (this is the JavaScript SHA-1 of Figure 9).
        charge_for_bytes(env, chunk.len() * 4);
        state.update(chunk);
        ControlFlow::Continue(())
    });
    if code == 0 {
        env.print(&format!("{}  {label}\n", hex(&state.finish())));
    }
    code
}

/// Byte offset of the turn counter within the `shm-ping` ring.
const SHM_PING_STATE: usize = 0;
/// Byte offset of the ping side's message slot.
const SHM_PING_BUF: usize = 64;
/// Byte offset of the pong side's reply slot.
const SHM_PONG_BUF: usize = 2048;
/// Bounded wait (50 ms x 1200 ≈ one minute) so a dead peer cannot hang us.
const SHM_PING_SPINS: usize = 1200;

/// Blocks until the turn counter reaches `want` (purely in shared memory:
/// loads plus `Atomics.wait`, no system calls).
fn wait_for_turn(sab: &SharedArrayBuffer, want: i32) -> bool {
    for _ in 0..SHM_PING_SPINS {
        match sab.load_i32(SHM_PING_STATE) {
            Ok(v) if v == want => return true,
            Ok(v) => {
                let _ = sab.wait(SHM_PING_STATE, v, Some(Duration::from_millis(50)));
            }
            Err(_) => return false,
        }
    }
    false
}

/// Stores a length-prefixed message into a slot of the shared ring.
fn put_shm_msg(sab: &SharedArrayBuffer, slot: usize, msg: &[u8]) -> bool {
    sab.write_bytes(slot + 4, msg).is_ok() && sab.store_i32(slot, msg.len() as i32).is_ok()
}

/// Reads a length-prefixed message back out of a slot.
fn get_shm_msg(sab: &SharedArrayBuffer, slot: usize) -> Option<Vec<u8>> {
    let len = sab.load_i32(slot).ok()?;
    sab.read_bytes(slot + 4, len.max(0) as usize).ok()
}

/// `shm-ping [-n ROUNDS] ping|pong [NAME]`: two processes bounce messages
/// through a `shm_open` mapping.  After setup (open, size, map) the data path
/// is entirely loads, stores and Atomics on the shared mapping — **zero
/// read/write system calls** — which is the point of the demo: under Browsix
/// each role runs in its own worker and the messages cross through the
/// `SharedArrayBuffer` the kernel handed both sides.
///
/// Protocol: a turn counter at offset 0 alternates `2k` (ping may send round
/// `k`) and `2k+1` (pong may reply); each side writes its slot, bumps the
/// counter with `Atomics.store`+`notify`, and waits for the other.
fn run_shm_ping(env: &mut dyn RuntimeEnv) -> i32 {
    use browsix_runtime::{MAP_SHARED, PAGE_SIZE, PROT_READ, PROT_WRITE};
    let args = env.args();
    let mut rounds: i32 = 16;
    let mut operands = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "-n" {
            rounds = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(0);
            i += 2;
            continue;
        }
        if let Some(rest) = args[i].strip_prefix("-n") {
            rounds = rest.parse().unwrap_or(0);
        } else {
            operands.push(args[i].clone());
        }
        i += 1;
    }
    let role = operands.first().cloned().unwrap_or_default();
    let name = operands.get(1).cloned().unwrap_or_else(|| "/shm-ping".to_owned());
    if (role != "ping" && role != "pong") || rounds < 1 {
        env.eprint("shm-ping: usage: shm-ping [-n ROUNDS] ping|pong [NAME]\n");
        return 2;
    }

    // Either side may arrive first, so both create, size and map the object.
    let flags = OpenFlags {
        create: true,
        ..OpenFlags::read_write()
    };
    let fd = match env.shm_open(&name, flags, 0o600) {
        Ok(fd) => fd,
        Err(e) => {
            env.eprint(&format!("shm-ping: shm_open {name}: {e}\n"));
            return 1;
        }
    };
    if let Err(e) = env.ftruncate(fd, PAGE_SIZE as u64) {
        env.eprint(&format!("shm-ping: ftruncate: {e}\n"));
        return 1;
    }
    let region = match env.mmap(0, PAGE_SIZE as u64, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0) {
        Ok(region) => region,
        Err(e) => {
            env.eprint(&format!("shm-ping: mmap: {e}\n"));
            return 1;
        }
    };
    let Some(sab) = region.buffer().cloned() else {
        env.eprint("shm-ping: mapping has no shared buffer\n");
        return 1;
    };

    let mut code = 0;
    if role == "ping" {
        for k in 0..rounds {
            if !wait_for_turn(&sab, 2 * k) {
                env.eprint("shm-ping: timed out waiting for pong\n");
                code = 1;
                break;
            }
            put_shm_msg(&sab, SHM_PING_BUF, format!("ping {k}").as_bytes());
            let _ = sab.store_and_notify(SHM_PING_STATE, 2 * k + 1);
            if !wait_for_turn(&sab, 2 * k + 2) {
                env.eprint("shm-ping: timed out waiting for reply\n");
                code = 1;
                break;
            }
            let expected = format!("pong {k}").into_bytes();
            if get_shm_msg(&sab, SHM_PONG_BUF).as_ref() != Some(&expected) {
                env.eprint(&format!("shm-ping: bad reply in round {k}\n"));
                code = 1;
                break;
            }
        }
        if code == 0 {
            env.print(&format!("shm-ping: {rounds} round trips via {name}\n"));
        }
        let _ = env.shm_unlink(&name);
    } else {
        for k in 0..rounds {
            if !wait_for_turn(&sab, 2 * k + 1) {
                env.eprint("shm-ping: timed out waiting for ping\n");
                code = 1;
                break;
            }
            let expected = format!("ping {k}").into_bytes();
            if get_shm_msg(&sab, SHM_PING_BUF).as_ref() != Some(&expected) {
                env.eprint(&format!("shm-ping: bad message in round {k}\n"));
                code = 1;
                break;
            }
            put_shm_msg(&sab, SHM_PONG_BUF, format!("pong {k}").as_bytes());
            let _ = sab.store_and_notify(SHM_PING_STATE, 2 * k + 2);
        }
    }
    let _ = env.munmap(region.addr, region.len);
    let _ = env.close(fd);
    code
}

fn run_sort(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let reverse = has_flag(&flags, 'r');
    let numeric = has_flag(&flags, 'n');
    let unique = has_flag(&flags, 'u');
    let (data, code) = crate::common::read_inputs(env, "sort", &operands);
    charge_for_bytes(env, data.len() * 2);
    let mut all = lines(&data);
    if numeric {
        all.sort_by(|a, b| {
            let na: f64 = a.trim().parse().unwrap_or(0.0);
            let nb: f64 = b.trim().parse().unwrap_or(0.0);
            na.partial_cmp(&nb).unwrap_or(std::cmp::Ordering::Equal)
        });
    } else {
        all.sort();
    }
    if unique {
        all.dedup();
    }
    if reverse {
        all.reverse();
    }
    // The sorted lines leave the process as one batched submission instead of
    // being copied into a single giant string first.
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(all.len() * 2);
    for line in &all {
        bufs.push(line.as_bytes());
        bufs.push(b"\n");
    }
    let _ = env.write_vectored(1, &bufs);
    let _ = env.flush_stdout();
    code
}

fn run_stat(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    let mut code = 0;
    for path in &operands {
        match env.stat(path) {
            Ok(meta) => {
                let kind = if meta.is_dir() { "directory" } else { "regular file" };
                env.print(&format!(
                    "  File: {path}\n  Size: {}\tType: {kind}\n  Mode: {:o}\tModify: {}\n",
                    meta.size, meta.mode, meta.mtime_ms
                ));
            }
            Err(e) => {
                env.eprint(&format!("stat: {path}: {e}\n"));
                code = 1;
            }
        }
    }
    code
}

fn run_tee(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let open_flags = if has_flag(&flags, 'a') {
        OpenFlags::append_create()
    } else {
        OpenFlags::write_create_truncate()
    };
    let mut code = 0;
    let mut sinks = Vec::with_capacity(operands.len());
    for path in &operands {
        match env.open(path, open_flags) {
            Ok(fd) => sinks.push(fd),
            Err(e) => {
                env.eprint(&format!("tee: {path}: {e}\n"));
                code = 1;
            }
        }
    }
    // Standard output first: the downstream stage starts on this chunk
    // while we copy it into the files.
    for_each_chunk(env, "tee", &[], |env, chunk| {
        charge_for_bytes(env, chunk.len());
        if emit(env, chunk).is_break() {
            code = 1;
            return ControlFlow::Break(());
        }
        for &fd in &sinks {
            let _ = env.write(fd, chunk);
        }
        ControlFlow::Continue(())
    });
    for fd in sinks {
        let _ = env.close(fd);
    }
    code
}

fn run_touch(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    let mut code = 0;
    let now = browsix_fs::types::now_millis();
    for path in &operands {
        if env.exists(path) {
            if let Err(e) = env.utimes(path, now, now) {
                env.eprint(&format!("touch: {path}: {e}\n"));
                code = 1;
            }
        } else {
            match env.open(path, OpenFlags::write_create_truncate()) {
                Ok(fd) => {
                    let _ = env.close(fd);
                }
                Err(e) => {
                    env.eprint(&format!("touch: {path}: {e}\n"));
                    code = 1;
                }
            }
        }
    }
    code
}

fn run_wc(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (flags, operands) = split_args(&args);
    let only = ['l', 'w', 'c'].into_iter().find(|&letter| has_flag(&flags, letter));
    // Running counts; only the ones that will be printed are computed.  A
    // word is a maximal run of non-whitespace bytes, as for `wc` in the C
    // locale: nothing is decoded.
    let (mut line_count, mut word_count, mut byte_count) = (0usize, 0usize, 0usize);
    let mut in_word = false;
    let code = for_each_chunk(env, "wc", &operands, |env, chunk| {
        charge_for_bytes(env, chunk.len());
        byte_count += chunk.len();
        if matches!(only, None | Some('l')) {
            line_count += chunk.iter().filter(|&&b| b == b'\n').count();
        }
        if matches!(only, None | Some('w')) {
            for &b in chunk {
                let space = b.is_ascii_whitespace() || b == 0x0b;
                word_count += usize::from(in_word && space);
                in_word = !space;
            }
        }
        ControlFlow::Continue(())
    });
    word_count += usize::from(in_word);
    let name = operands.first().cloned().unwrap_or_default();
    let output = match only {
        Some('l') => format!("{line_count} {name}\n"),
        Some('w') => format!("{word_count} {name}\n"),
        Some(_) => format!("{byte_count} {name}\n"),
        None => format!("{line_count:>8}{word_count:>8}{byte_count:>8} {name}\n"),
    };
    env.print(output.trim_end_matches(' '));
    let _ = env.flush_stdout();
    code
}

fn run_xargs(env: &mut dyn RuntimeEnv) -> i32 {
    let args = env.args();
    let (_, operands) = split_args(&args);
    let Some(command) = operands.first().cloned() else {
        env.eprint("xargs: missing command\n");
        return 1;
    };
    let input = env.read_stdin_to_end();
    charge_for_bytes(env, input.len());
    let extra: Vec<String> = String::from_utf8_lossy(&input)
        .split_whitespace()
        .map(|s| s.to_owned())
        .collect();
    let mut argv: Vec<String> = operands.to_vec();
    argv.extend(extra);
    let path = if command.contains('/') {
        command.clone()
    } else {
        format!("/usr/bin/{command}")
    };
    match env.spawn(&path, &argv, SpawnStdio::inherit()) {
        Ok(pid) => match env.wait(pid as i32) {
            Ok(child) => child.exit_code.unwrap_or(1),
            Err(_) => 1,
        },
        Err(e) => {
            env.eprint(&format!("xargs: {command}: {e}\n"));
            127
        }
    }
}

/// Parses a `sleep`/`timeout` duration: plain seconds (fractions allowed)
/// with an optional `s`/`m`/`h` suffix.
fn parse_duration_ms(text: &str) -> Option<u64> {
    let (number, multiplier) = match text.strip_suffix(['s', 'm', 'h']) {
        Some(prefix) => {
            let unit = text.chars().last().unwrap();
            let factor = match unit {
                's' => 1_000.0,
                'm' => 60_000.0,
                _ => 3_600_000.0,
            };
            (prefix, factor)
        }
        None => (text, 1_000.0),
    };
    let value: f64 = number.parse().ok()?;
    if !(0.0..=u64::MAX as f64 / 3_600_000.0).contains(&value) {
        return None;
    }
    Some((value * multiplier) as u64)
}

fn run_kill(env: &mut dyn RuntimeEnv) -> i32 {
    // kill [-SIGNAL | -s SIGNAL] PID...  A negative PID addresses a whole
    // process group, as with kill(1).
    let args = env.args();
    let mut signal = browsix_core::Signal::SIGTERM;
    let mut targets: Vec<i64> = Vec::new();
    let mut seen_separator = false;
    let mut iter = args.iter().skip(1).peekable();
    let mut code = 0;
    while let Some(arg) = iter.next() {
        if !seen_separator {
            if arg == "--" {
                seen_separator = true;
                continue;
            }
            if arg == "-s" {
                match iter.next().and_then(|name| browsix_core::Signal::from_name(name)) {
                    Some(sig) => signal = sig,
                    None => {
                        env.eprint("kill: invalid signal for -s\n");
                        return 1;
                    }
                }
                continue;
            }
            // `-TERM` / `-15` are signal specs; `-5 10` means signal 5, so a
            // leading dash is only a target once a separator (or a non-flag
            // target) has been seen.
            if let Some(spec) = arg.strip_prefix('-') {
                if targets.is_empty() {
                    let parsed = spec
                        .parse::<i32>()
                        .ok()
                        .and_then(browsix_core::Signal::from_number)
                        .or_else(|| browsix_core::Signal::from_name(spec));
                    match parsed {
                        Some(sig) => {
                            signal = sig;
                            continue;
                        }
                        None => {
                            env.eprint(&format!("kill: {spec}: invalid signal\n"));
                            return 1;
                        }
                    }
                }
            }
        }
        match arg.parse::<i64>() {
            Ok(pid) => targets.push(pid),
            Err(_) => {
                env.eprint(&format!("kill: {arg}: arguments must be pids\n"));
                code = 1;
            }
        }
    }
    if targets.is_empty() {
        env.eprint("kill: usage: kill [-SIGNAL] pid...\n");
        return 1;
    }
    for target in targets {
        let result = if target < 0 {
            env.kill_group((-target) as u32, signal)
        } else {
            env.kill(target as u32, signal)
        };
        if let Err(e) = result {
            env.eprint(&format!("kill: {target}: {e}\n"));
            code = 1;
        }
    }
    code
}

fn run_sleep(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    let Some(ms) = operands.first().and_then(|text| parse_duration_ms(text)) else {
        env.eprint("sleep: usage: sleep SECONDS\n");
        return 1;
    };
    // Sleeping is a `poll` over no descriptors: the kernel parks this
    // process on a pure timer, and a signal handler interrupts it with
    // EINTR exactly like any other blocked system call.
    match env.poll(&mut [], ms.min(i32::MAX as u64) as i32) {
        Ok(_) => 0,
        Err(browsix_core::Errno::EINTR) => 1,
        Err(e) => {
            env.eprint(&format!("sleep: {e}\n"));
            1
        }
    }
}

fn run_timeout(env: &mut dyn RuntimeEnv) -> i32 {
    // timeout [-s SIGNAL] DURATION COMMAND [ARG...]
    let args = env.args();
    let mut signal = browsix_core::Signal::SIGTERM;
    let mut rest: Vec<String> = args.iter().skip(1).cloned().collect();
    if rest.first().map(String::as_str) == Some("-s") {
        rest.remove(0);
        if rest.is_empty() {
            env.eprint("timeout: -s needs a signal\n");
            return 125;
        }
        match browsix_core::Signal::from_name(&rest.remove(0)) {
            Some(sig) => signal = sig,
            None => {
                env.eprint("timeout: invalid signal\n");
                return 125;
            }
        }
    }
    if rest.len() < 2 {
        env.eprint("timeout: usage: timeout [-s SIGNAL] DURATION COMMAND [ARG...]\n");
        return 125;
    }
    let Some(limit_ms) = parse_duration_ms(&rest.remove(0)) else {
        env.eprint("timeout: invalid duration\n");
        return 125;
    };
    let command = rest[0].clone();
    let path = if command.contains('/') {
        command.clone()
    } else {
        format!("/usr/bin/{command}")
    };
    let pid = match env.spawn(&path, &rest, SpawnStdio::inherit()) {
        Ok(pid) => pid,
        Err(e) => {
            env.eprint(&format!("timeout: {command}: {e}\n"));
            return 126;
        }
    };
    // Poll the child in slices; there is no descriptor tied to a child's
    // lifetime to park on, so the kernel's poll timeout is the clock.
    let started = std::time::Instant::now();
    loop {
        match env.wait_nohang(pid as i32) {
            Ok(Some(child)) => return child.exit_code.unwrap_or(128 + (child.status & 0x7f)),
            Ok(None) => {}
            Err(_) => return 125,
        }
        let elapsed_ms = started.elapsed().as_millis() as u64;
        if elapsed_ms >= limit_ms {
            break;
        }
        let slice = (limit_ms - elapsed_ms).clamp(1, 20) as i32;
        let _ = env.poll(&mut [], slice);
    }
    // Out of time: signal the child and report 124, like coreutils timeout.
    let _ = env.kill(pid, signal);
    let _ = env.wait(pid as i32);
    124
}

fn run_yes(env: &mut dyn RuntimeEnv) -> i32 {
    let (_, operands) = split_args(&env.args());
    let word = operands.first().map(String::as_str).unwrap_or("y");
    let line = format!("{word}\n");
    // Emit in sizeable chunks so the pipe fills quickly; `yes` runs until
    // its stdout breaks (the reader exited → EPIPE, and with no handler
    // installed the resulting SIGPIPE terminates the process first).
    let repeat = (8 * 1024 / line.len()).max(1);
    let chunk = line.repeat(repeat);
    loop {
        if env.write(1, chunk.as_bytes()).is_err() {
            return 0;
        }
        if env.flush_stdout().is_err() {
            return 0;
        }
        charge_for_bytes(env, chunk.len());
    }
}

#[cfg(test)]
mod streaming_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1_hex;
    use browsix_fs::{FileSystem, MemFs, MountedFs};
    use browsix_runtime::{ExecutionProfile, NativeWorld, SyscallConvention};
    use std::sync::Arc;

    /// A native world with every utility registered and a few files staged.
    fn world() -> NativeWorld {
        let fs = Arc::new(MountedFs::new(Arc::new(MemFs::new())));
        fs.mkdir("/docs").unwrap();
        fs.write_file("/docs/fruit.txt", b"apple\nbanana\nApple pie\ncherry\n")
            .unwrap();
        fs.write_file("/docs/numbers.txt", b"10\n2\n33\n4\n").unwrap();
        fs.mkdir("/usr").unwrap();
        fs.mkdir("/usr/bin").unwrap();
        fs.write_file("/usr/bin/node", vec![7u8; 4096].as_slice()).unwrap();
        let world = NativeWorld::new(fs, ExecutionProfile::instant(SyscallConvention::Direct));
        crate::register_native(world.table());
        world
    }

    #[test]
    fn cat_concatenates_files_and_stdin() {
        let w = world();
        let out = w.run("cat", &["cat", "/docs/fruit.txt"]);
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout_string().starts_with("apple\n"));
        let out = w.run_with_stdin("cat", &["cat"], b"from stdin");
        assert_eq!(out.stdout, b"from stdin");
        let out = w.run("cat", &["cat", "/missing"]);
        assert_eq!(out.exit_code, 1);
    }

    #[test]
    fn echo_and_pwd_and_true_false() {
        let w = world();
        assert_eq!(w.run("echo", &["echo", "hello", "world"]).stdout, b"hello world\n");
        assert_eq!(w.run("echo", &["echo", "-n", "x"]).stdout, b"x");
        assert_eq!(w.run("pwd", &["pwd"]).stdout, b"/\n");
        assert_eq!(w.run("true", &["true"]).exit_code, 0);
        assert_eq!(w.run("false", &["false"]).exit_code, 1);
    }

    #[test]
    fn grep_matches_and_sets_exit_code() {
        let w = world();
        let out = w.run("grep", &["grep", "apple", "/docs/fruit.txt"]);
        assert_eq!(out.exit_code, 0);
        assert_eq!(out.stdout, b"apple\n");
        let out = w.run("grep", &["grep", "-i", "apple", "/docs/fruit.txt"]);
        assert_eq!(out.stdout, b"apple\nApple pie\n");
        let out = w.run("grep", &["grep", "-c", "-i", "apple", "/docs/fruit.txt"]);
        assert_eq!(out.stdout, b"2\n");
        let out = w.run("grep", &["grep", "-v", "apple", "/docs/fruit.txt"]);
        assert_eq!(out.stdout, b"banana\nApple pie\ncherry\n");
        assert_eq!(w.run("grep", &["grep", "zebra", "/docs/fruit.txt"]).exit_code, 1);
        assert_eq!(w.run("grep", &["grep"]).exit_code, 2);
    }

    #[test]
    fn head_tail_sort_wc() {
        let w = world();
        assert_eq!(
            w.run("head", &["head", "-n", "2", "/docs/fruit.txt"]).stdout,
            b"apple\nbanana\n"
        );
        assert_eq!(
            w.run("tail", &["tail", "-n", "1", "/docs/fruit.txt"]).stdout,
            b"cherry\n"
        );
        assert_eq!(
            w.run("sort", &["sort", "/docs/fruit.txt"]).stdout,
            b"Apple pie\napple\nbanana\ncherry\n"
        );
        assert_eq!(
            w.run("sort", &["sort", "-n", "-r", "/docs/numbers.txt"]).stdout,
            b"33\n10\n4\n2\n"
        );
        let wc = w.run("wc", &["wc", "-l", "/docs/fruit.txt"]);
        assert!(wc.stdout_string().starts_with('4'));
        let wc = w.run("wc", &["wc", "/docs/fruit.txt"]);
        assert!(wc.stdout_string().contains('4'));
    }

    #[test]
    fn ls_lists_directories_and_files() {
        let w = world();
        let out = w.run("ls", &["ls", "/docs"]);
        assert_eq!(out.stdout, b"fruit.txt\nnumbers.txt\n");
        let out = w.run("ls", &["ls", "-l", "/usr/bin"]);
        assert!(out.stdout_string().contains("node"));
        assert!(out.stdout_string().contains("4096"));
        assert_eq!(w.run("ls", &["ls", "/nope"]).exit_code, 1);
        let out = w.run("ls", &["ls", "/docs/fruit.txt"]);
        assert_eq!(out.stdout, b"/docs/fruit.txt\n");
    }

    #[test]
    fn file_management_utilities() {
        let w = world();
        assert_eq!(w.run("mkdir", &["mkdir", "/newdir"]).exit_code, 0);
        assert!(w.fs().stat("/newdir").unwrap().is_dir());
        assert_eq!(w.run("mkdir", &["mkdir", "-p", "/a/b/c"]).exit_code, 0);
        assert!(w.fs().stat("/a/b/c").unwrap().is_dir());
        assert_eq!(w.run("touch", &["touch", "/newdir/file.txt"]).exit_code, 0);
        assert!(w.fs().exists("/newdir/file.txt"));
        assert_eq!(w.run("cp", &["cp", "/docs/fruit.txt", "/newdir"]).exit_code, 0);
        assert!(w.fs().exists("/newdir/fruit.txt"));
        assert_eq!(w.run("rm", &["rm", "/newdir/fruit.txt"]).exit_code, 0);
        assert!(!w.fs().exists("/newdir/fruit.txt"));
        assert_eq!(w.run("rm", &["rm", "-r", "/a"]).exit_code, 0);
        assert!(!w.fs().exists("/a"));
        assert_eq!(w.run("rmdir", &["rmdir", "/newdir"]).exit_code, 1); // not empty
        assert_eq!(w.run("rm", &["rm", "-r", "/newdir"]).exit_code, 0);
        assert_eq!(w.run("rm", &["rm", "/still-missing"]).exit_code, 1);
        assert_eq!(w.run("rm", &["rm", "-f", "/still-missing"]).exit_code, 0);
        assert_eq!(w.run("cp", &["cp", "/docs/fruit.txt"]).exit_code, 1);
    }

    #[test]
    fn sha1sum_matches_reference_digest() {
        let w = world();
        let out = w.run("sha1sum", &["sha1sum", "/usr/bin/node"]);
        assert_eq!(out.exit_code, 0);
        let expected = sha1_hex(&vec![7u8; 4096]);
        assert!(out.stdout_string().starts_with(&expected));
        let out = w.run_with_stdin("sha1sum", &["sha1sum"], b"abc");
        assert!(out
            .stdout_string()
            .starts_with("a9993e364706816aba3e25717850c26c9cd0d89d"));
        assert_eq!(w.run("sha1sum", &["sha1sum", "/nope"]).exit_code, 1);
    }

    #[test]
    fn stat_tee_and_xargs() {
        let w = world();
        let out = w.run("stat", &["stat", "/docs/fruit.txt"]);
        assert!(out.stdout_string().contains("regular file"));
        assert_eq!(w.run("stat", &["stat", "/missing"]).exit_code, 1);

        let out = w.run_with_stdin("tee", &["tee", "/copy.txt"], b"payload");
        assert_eq!(out.stdout, b"payload");
        assert_eq!(w.fs().read_file("/copy.txt").unwrap(), b"payload");

        // xargs: echo the words found on stdin.
        let out = w.run_with_stdin("xargs", &["xargs", "echo", "prefix"], b"one two");
        assert_eq!(out.stdout, b"prefix one two\n");
        assert_eq!(w.run_with_stdin("xargs", &["xargs", "nosuch"], b"x").exit_code, 127);
    }

    #[test]
    fn url_parsing_for_curl() {
        assert_eq!(
            parse_localhost_url("http://localhost:8080/api/backgrounds"),
            Some((8080, "/api/backgrounds".to_string()))
        );
        assert_eq!(parse_localhost_url("http://localhost:80"), Some((80, "/".to_string())));
        assert_eq!(parse_localhost_url("https://example.com/x"), None);
        assert_eq!(parse_localhost_url("http://nohost/x"), None);
    }
}
