//! End-to-end tests for the persistent syscall rings and the zero-copy data
//! paths: `httpd` serving a large file over `sendfile` without the bytes ever
//! entering guest memory; a shell pipeline whose every system call rides the
//! shared-memory submission/completion rings instead of messages; calls and
//! results too large for a ring slot; a guest that writes garbage into its
//! ring instead of submissions, or posts garbage beside its message frames
//! instead of a transfer list; and a large write by message reaching its
//! reader as the allocation the writer staged.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use browsix_browser::SharedArrayBuffer;
use browsix_core::ring::{
    Ring, INDIRECT, MAX_SPILL_BYTES, REG_BUF_BYTES, REG_BUF_COUNT, RING_HEADER_BYTES, RING_REGION_BYTES,
    RING_REGION_OFFSET, RING_SLOTS, RING_SLOT_BYTES, SYNC_HEAP_BYTES,
};
use browsix_core::{
    ByteSource, CompletionBatch, Errno, Kernel, KernelEvent, KernelStats, LaunchContext, ProgramLauncher, SysResult,
    Syscall, SyscallBatch,
};
use browsix_fs::{FileSystem, OpenFlags};
use browsix_http::{HttpRequest, Method};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, NodeLauncher, PollFd, RuntimeEnv,
    SpawnStdio, SyscallClient, SyscallConvention,
};

/// How long any guest below may take before its test fails instead of
/// hanging.
const WATCHDOG: Duration = Duration::from_secs(5);

fn instant(convention: SyscallConvention) -> ExecutionProfile {
    ExecutionProfile::instant(convention)
}

// ---- sendfile: zero-copy file serving ----------------------------------------

/// One megabyte served end-to-end over `sendfile`: the body must arrive
/// intact, the kernel must account a full megabyte of zero-copy transfer
/// (256 pages), and — the point of the exercise — the guest's data-path
/// `read`/`write` traffic must NOT scale with the body.  The server touches
/// the request line and the response header; the 1 MiB of payload moves
/// page cache → socket entirely inside the kernel.
#[test]
fn httpd_serves_one_mebibyte_over_sendfile_with_zero_data_path_syscalls() {
    const BODY: usize = 1024 * 1024;
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(
            NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant(SyscallConvention::Async)),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant(SyscallConvention::Async));
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    let payload: Vec<u8> = (0..BODY).map(|i| (i % 241) as u8).collect();
    kernel
        .fs()
        .write_file(&format!("{}/big.bin", browsix_apps::HTTPD_ROOT), &payload)
        .expect("stage big.bin");

    let server = kernel.spawn("/usr/bin/httpd", &["httpd"], &[]).expect("start httpd");
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    // Settle, then snapshot: everything after `before` belongs to one request.
    let before = kernel.stats();
    let response = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/big.bin"),
            Duration::from_secs(30),
        )
        .expect("big.bin request");
    assert!(response.is_success());
    assert_eq!(response.body.len(), BODY);
    assert_eq!(response.body, payload, "sendfile corrupted the body");
    let after = kernel.stats();

    // The megabyte moved over sendfile, page by page, inside the kernel.
    assert!(after.count("sendfile") > before.count("sendfile"), "no sendfile issued");
    assert!(
        after.sendfile_bytes - before.sendfile_bytes >= BODY as u64,
        "sendfile moved {} bytes, expected at least {BODY}",
        after.sendfile_bytes - before.sendfile_bytes
    );
    assert!(
        after.zero_copy_pages - before.zero_copy_pages >= (BODY / 4096) as u64,
        "zero-copy page count did not cover the body: {}",
        after.zero_copy_pages - before.zero_copy_pages
    );

    // Zero data-path read/write syscalls: the guest read the request line and
    // wrote the header — a handful of calls — but nothing proportional to the
    // 1 MiB body (the copy path would need ≥ 16 round trips at 64 KiB each,
    // each a read AND a write).
    let reads = after.count("read") - before.count("read");
    let writes = after.count("write") - before.count("write");
    assert!(reads <= 4, "data-path reads leaked into the guest: {reads} reads");
    assert!(writes <= 4, "data-path writes leaked into the guest: {writes} writes");

    let _ = kernel.kill(server.pid, browsix_core::Signal::SIGKILL);
    kernel.shutdown();
}

/// `--copy` is the control: same request, classic read-then-write loop.  The
/// body still arrives intact but the zero-copy counters stay flat — proving
/// the sendfile test above is measuring the mechanism, not noise.
#[test]
fn httpd_copy_mode_serves_the_same_bytes_without_zero_copy() {
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(
            NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant(SyscallConvention::Async)),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant(SyscallConvention::Async));
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    let server = kernel
        .spawn("/usr/bin/httpd", &["httpd", "--copy"], &[])
        .expect("start httpd --copy");
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    let before = kernel.stats();
    let response = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/payload.bin"),
            Duration::from_secs(30),
        )
        .expect("payload request");
    assert!(response.is_success());
    assert_eq!(response.body.len(), 32 * 1024);
    let after = kernel.stats();

    assert_eq!(
        after.sendfile_bytes, before.sendfile_bytes,
        "--copy must not use sendfile"
    );
    assert!(
        after.count("write") - before.count("write") >= 1,
        "copy mode serves the body through write"
    );

    let _ = kernel.kill(server.pid, browsix_core::Signal::SIGKILL);
    kernel.shutdown();
}

// ---- rings: the shell pipeline as transport workout --------------------------

/// Boots a kernel whose shell and coreutils are asm.js builds running the
/// synchronous convention — the only configuration where processes get a
/// shared heap, and therefore the one where the persistent rings engage.
/// (The standard registrations use Emterpreter/Node launchers, which are
/// async-only, exactly as in the paper.)
fn boot_sync_world() -> browsix_core::Kernel {
    use browsix_runtime::{EmscriptenLauncher, EmscriptenMode};
    let config = browsix_apps::default_config();
    let sync = instant(SyscallConvention::Sync);
    let shell = Arc::new(
        EmscriptenLauncher::new("dash", browsix_shell::shell_program(), EmscriptenMode::AsmJs)
            .with_profile(sync.clone()),
    );
    config
        .registry
        .register("/bin/sh", shell.clone() as Arc<dyn browsix_core::ProgramLauncher>);
    config
        .registry
        .register("/bin/dash", shell as Arc<dyn browsix_core::ProgramLauncher>);
    for (name, factory) in browsix_utils::all_utilities() {
        config.registry.register(
            &format!("/usr/bin/{name}"),
            Arc::new(EmscriptenLauncher::new(name, factory, EmscriptenMode::AsmJs).with_profile(sync.clone())),
        );
    }
    let kernel = browsix_core::Kernel::boot(config);
    for dir in ["/home", "/tmp", "/usr", "/usr/bin", "/bin"] {
        let _ = kernel.fs().mkdir(dir);
    }
    kernel
}

/// A real shell pipeline under the Sync convention: every process maps a
/// ring at startup and submits its system calls through it.  The pipeline's
/// output must be correct AND the kernel's ring counters must show the
/// transport actually carried the traffic (SQEs drained, doorbells rung,
/// CQEs posted).
#[test]
fn shell_pipeline_runs_over_the_ring_transport() {
    let kernel = boot_sync_world();
    let handle = kernel
        .spawn("/bin/sh", &["sh", "-c", "echo over the ring | cat"], &[])
        .expect("spawn pipeline");
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("pipeline must finish");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    assert_eq!(handle.stdout_string(), "over the ring\n");

    let stats = kernel.stats();
    assert!(stats.sq_polled > 0, "no SQEs were drained — rings never engaged");
    assert!(stats.cq_posted > 0, "no CQEs were posted");
    assert!(stats.doorbells > 0, "no doorbells were rung");
    assert_rode_the_ring(&stats);
    kernel.shutdown();
}

/// Every call of a sync-convention process is a ring entry, `exit`
/// included: mapping the ring takes no message frame either.
fn assert_rode_the_ring(stats: &KernelStats) {
    assert_eq!(
        stats.sync_syscalls, stats.sq_polled,
        "a ring entry was not a system call"
    );
    assert_eq!(
        stats.async_syscalls, 0,
        "a call travelled as a message: {:?}",
        stats.syscalls_by_name
    );
}

// ---- spill: calls and results larger than a ring slot ------------------------

/// Boots a kernel with `probe` at `/usr/bin/probe` and `child` at
/// `/usr/bin/probe-child`, both under `convention`, lets `stage` prepare the
/// file system, runs the probe with `env` to completion under the watchdog
/// and returns its exit code, its stdout and the kernel's statistics.
fn run_probe(
    convention: SyscallConvention,
    env: &[(&str, &str)],
    stage: &dyn Fn(&Kernel),
    probe: GuestFactory,
    child: GuestFactory,
) -> (Option<i32>, String, KernelStats) {
    let mode = match convention {
        SyscallConvention::Sync => EmscriptenMode::AsmJs,
        _ => EmscriptenMode::Emterpreter,
    };
    let config = browsix_core::BootConfig::in_memory();
    for (path, factory) in [("/usr/bin/probe", probe), ("/usr/bin/probe-child", child)] {
        let launcher = EmscriptenLauncher::new("probe", factory, mode).with_profile(instant(convention));
        config.registry.register(path, Arc::new(launcher));
    }
    let kernel = Kernel::boot(config);
    kernel.fs().mkdir("/tmp").expect("mkdir /tmp");
    stage(&kernel);
    let handle = kernel.spawn("/usr/bin/probe", &["probe"], env).expect("spawn probe");
    let status = handle.wait_timeout(WATCHDOG).unwrap_or_else(|| {
        panic!(
            "the {convention:?} probe hung; stdout so far: {}",
            handle.stdout_string()
        )
    });
    let stats = kernel.stats();
    let stdout = handle.stdout_string();
    kernel.shutdown();
    (status.code, stdout, stats)
}

fn no_child() -> GuestFactory {
    guest("unused", |_env: &mut dyn RuntimeEnv| 0)
}

/// A working directory whose path is longer than a ring slot's payload.
fn long_directory() -> String {
    let path: String = (0..6).map(|i| format!("/{}", format!("{i}").repeat(50))).collect();
    format!("/tmp{path}")
}

/// `getcwd` in a 300-byte working directory, `getdents` of a 5 000-entry
/// directory and `spawn` with a 4 KiB environment: a result larger than a
/// completion slot, a result larger than a registered buffer and a
/// submission larger than a submission slot.  The guest sees exactly what it
/// sees over messages, and every one of those calls rode the ring.
#[test]
fn calls_and_results_larger_than_a_slot_ride_the_ring() {
    const ENTRIES: usize = 5_000;
    let big = "v".repeat(4096);
    let stage = |kernel: &Kernel| {
        let fs = kernel.fs();
        let mut dir = String::new();
        for component in long_directory().split('/').skip(1) {
            dir = format!("{dir}/{component}");
            let _ = fs.mkdir(&dir);
        }
        fs.mkdir("/tmp/many").expect("mkdir /tmp/many");
        for i in 0..ENTRIES {
            fs.write_file(&format!("/tmp/many/entry-{i:04}"), b"")
                .expect("stage entry");
        }
    };
    let probe = || {
        guest("probe", |env: &mut dyn RuntimeEnv| {
            if env.chdir(&long_directory()).is_err() {
                return 2;
            }
            let cwd = env.getcwd();
            let mut names: Vec<String> = match env.readdir("/tmp/many") {
                Ok(entries) => entries.into_iter().map(|e| e.name).collect(),
                Err(_) => return 3,
            };
            names.sort();
            env.print(&format!(
                "cwd {cwd}\nentries {} {} {}\n",
                names.len(),
                names[0],
                names[names.len() - 1]
            ));
            let Ok(child) = env.spawn(
                "/usr/bin/probe-child",
                &["probe-child".to_owned()],
                SpawnStdio::default(),
            ) else {
                return 4;
            };
            env.wait(child as i32).ok().and_then(|w| w.exit_code).unwrap_or(5)
        })
    };
    let child = || {
        guest("probe-child", |env: &mut dyn RuntimeEnv| {
            let big = env.getenv("BIG").unwrap_or_default();
            env.print(&format!(
                "child sees BIG: {} bytes of {:?}\n",
                big.len(),
                big.chars().next()
            ));
            0
        })
    };
    let env = [("BIG", big.as_str())];
    let (code, stdout, stats) = run_probe(SyscallConvention::Sync, &env, &stage, probe(), child());
    assert_eq!(code, Some(0), "stdout: {stdout}");
    assert_eq!(
        stdout,
        format!(
            "cwd {}\nentries {ENTRIES} entry-0000 entry-4999\nchild sees BIG: 4096 bytes of Some('v')\n",
            long_directory()
        )
    );
    assert!(long_directory().len() >= 300);
    assert_eq!(stats.count("getcwd"), 1);
    assert_eq!(stats.count("getdents"), 1);
    assert_eq!(stats.count("spawn"), 1);
    assert_rode_the_ring(&stats);

    let (async_code, async_stdout, async_stats) = run_probe(SyscallConvention::Async, &env, &stage, probe(), child());
    assert_eq!((async_code, async_stdout), (code, stdout), "the conventions disagree");
    assert_eq!(async_stats.sq_polled, 0);
}

/// A process that drives its [`SyscallClient`] itself, for the calls
/// `RuntimeEnv` has no method for; the closure's return value is its exit
/// code.
struct ClientProbe {
    prefer_sync: bool,
    body: fn(&mut SyscallClient) -> i32,
}

impl ProgramLauncher for ClientProbe {
    fn launch(&self, ctx: LaunchContext) {
        let (mut client, _start) = SyscallClient::start(ctx, self.prefer_sync);
        let code = (self.body)(&mut client);
        client.send_only(Syscall::Exit { code });
    }
}

/// `readlink` used to be refused a ring slot for its unbounded result.  The
/// file system has no symbolic links, so what comes back is the errno — the
/// same one over the ring as over messages.
#[test]
fn readlink_rides_the_ring() {
    let run = |prefer_sync: bool| {
        let config = browsix_core::BootConfig::in_memory();
        let body = |client: &mut SyscallClient| match client.call(Syscall::Readlink {
            path: "/tmp/not-a-link".to_owned(),
        }) {
            SysResult::Err(errno) => errno.code(),
            _ => 0,
        };
        config
            .registry
            .register("/usr/bin/probe", Arc::new(ClientProbe { prefer_sync, body }));
        let kernel = Kernel::boot(config);
        kernel.fs().mkdir("/tmp").expect("mkdir /tmp");
        kernel.fs().write_file("/tmp/not-a-link", b"plain").expect("stage file");
        let handle = kernel.spawn("/usr/bin/probe", &["probe"], &[]).expect("spawn probe");
        let status = handle.wait_timeout(WATCHDOG).expect("the readlink probe hung");
        let stats = kernel.stats();
        kernel.shutdown();
        (status.code, stats)
    };
    let (sync_code, sync_stats) = run(true);
    let (async_code, async_stats) = run(false);
    assert_eq!(sync_code, async_code);
    assert_ne!(sync_code, Some(0), "readlink of a regular file must fail");
    assert_eq!(sync_stats.count("readlink"), 1);
    assert_rode_the_ring(&sync_stats);
    assert_eq!(async_stats.sq_polled, 0);
}

/// One `read` for more than the registered buffers hold.  The guest must get
/// a short read, the ring must still answer the next call, and looping over
/// the rest must reproduce the file.  (Such a read used to leave the ring for
/// a second shared-memory path, whose 600 KiB reply was written straight
/// across the ring region.)
#[test]
fn an_oversized_read_is_short_and_leaves_the_ring_intact() {
    const FILE_LEN: usize = 700 * 1024;
    const FIRST_READ: usize = 600 * 1024;
    fn pattern() -> Vec<u8> {
        (0..FILE_LEN).map(|i| (i % 239) as u8).collect()
    }
    let stage = |kernel: &Kernel| {
        kernel
            .fs()
            .write_file("/tmp/big.bin", &pattern())
            .expect("stage big.bin")
    };
    let probe = guest("probe", |env: &mut dyn RuntimeEnv| {
        let Ok(fd) = env.open("/tmp/big.bin", OpenFlags::read_only()) else {
            return 2;
        };
        let Ok(mut contents) = env.read(fd, FIRST_READ) else {
            return 3;
        };
        let first = contents.len();
        let pid = env.getpid();
        loop {
            match env.read(fd, FIRST_READ) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => contents.extend_from_slice(&chunk),
                Err(_) => return 4,
            }
        }
        if contents != pattern() {
            return 5;
        }
        if env.read_file("/tmp/big.bin").ok() != Some(contents) {
            return 6;
        }
        env.print(&format!("first read {first} pid {pid}\n"));
        0
    });
    let (code, stdout, stats) = run_probe(SyscallConvention::Sync, &[], &stage, probe, no_child());
    assert_eq!(code, Some(0), "stdout: {stdout}");
    let words: Vec<&str> = stdout.split_whitespace().collect();
    let first: usize = words[2].parse().expect("first read length");
    let table = MAX_SPILL_BYTES;
    assert!(first > 0 && first <= table, "first read returned {first} bytes");
    assert!(
        first < FIRST_READ,
        "a {FIRST_READ}-byte read cannot fit the {table}-byte table"
    );
    assert_ne!(words[4], "0", "getpid after the oversized read");
    assert_rode_the_ring(&stats);
}

/// `pwrite`, `write_vectored` and `vm_write` of a buffer larger than the
/// whole staging area below the ring: each must write all of it, on the ring
/// exactly as over messages.  (On the ring each used to stage nothing,
/// inline the buffer in its submission and fail that with `E2BIG`.)
#[test]
fn large_pwrite_write_vectored_and_vm_write_agree_across_conventions() {
    const LEN: usize = 600 * 1024;
    fn pattern() -> Vec<u8> {
        (0..LEN).map(|i| (i % 233) as u8).collect()
    }
    let probe = || {
        guest("probe", |env: &mut dyn RuntimeEnv| {
            let data = pattern();
            let create = OpenFlags::write_create_truncate();
            let (Ok(pwritten), Ok(vectored)) = (env.open("/tmp/pwrite.bin", create), env.open("/tmp/vec.bin", create))
            else {
                return 2;
            };
            let pwrite = env.pwrite(pwritten, &data, 0);
            let vectored = env.write_vectored(vectored, &[&data]);
            let prot = browsix_runtime::PROT_READ | browsix_runtime::PROT_WRITE;
            let flags = browsix_runtime::MAP_PRIVATE | browsix_runtime::MAP_ANONYMOUS;
            let Ok(region) = env.mmap(0, LEN as u64, prot, flags, -1, 0) else {
                return 3;
            };
            let vm_write = env.vm_write(region.addr, &data);
            // Read back in pieces: a read by ring is capped at the table.
            let mut mapped = Vec::new();
            while mapped.len() < LEN {
                match env.vm_read(region.addr + mapped.len() as u64, LEN - mapped.len()) {
                    Ok(chunk) if !chunk.is_empty() => mapped.extend_from_slice(&chunk),
                    _ => break,
                }
            }
            let intact = |bytes: Result<Vec<u8>, Errno>| bytes.is_ok_and(|bytes| bytes == data);
            let (in_pwritten, in_vectored) = (
                intact(env.read_file("/tmp/pwrite.bin")),
                intact(env.read_file("/tmp/vec.bin")),
            );
            env.print(&format!(
                "pwrite {pwrite:?} {in_pwritten}\nwrite_vectored {vectored:?} {in_vectored}\nvm_write {vm_write:?} {}\n",
                intact(Ok(mapped)),
            ));
            0
        })
    };
    let (code, stdout, stats) = run_probe(SyscallConvention::Sync, &[], &|_| {}, probe(), no_child());
    assert_eq!(code, Some(0), "stdout: {stdout}");
    assert_eq!(
        stdout,
        format!("pwrite Ok({LEN}) true\nwrite_vectored Ok({LEN}) true\nvm_write Ok(()) true\n")
    );
    assert_rode_the_ring(&stats);
    let (async_code, async_stdout, _) = run_probe(SyscallConvention::Async, &[], &|_| {}, probe(), no_child());
    assert_eq!((async_code, async_stdout), (code, stdout), "the conventions disagree");
}

/// A batch's staged write data and its spilled submissions share the one
/// staging area: a submission too large for a slot goes after the data,
/// not over it.  The spilled call comes first in the batch, so its bytes
/// are in the heap before the write that needs the data is even submitted.
#[test]
fn a_spilled_call_does_not_overwrite_the_write_data_staged_beside_it() {
    let body = |client: &mut SyscallClient| {
        let open = Syscall::Open {
            path: "/out.bin".to_owned(),
            flags: OpenFlags::write_create_truncate(),
            mode: 0o644,
        };
        let SysResult::Int(fd) = client.call(open) else {
            return 2;
        };
        let data = client.stage_write(&[b'a'; 4096]);
        if !matches!(data, ByteSource::SharedHeap { offset: 0, .. }) {
            return 3;
        }
        let stat = Syscall::Stat {
            path: format!("/{}", "x".repeat(1000)),
            lstat: false,
        };
        let batch = SyscallBatch {
            entries: vec![stat, Syscall::Write { fd: fd as i32, data }],
        };
        match &client.submit(batch)[..] {
            [SysResult::Err(_), SysResult::Int(4096)] => 0,
            _ => 4,
        }
    };
    let config = browsix_core::BootConfig::in_memory();
    let probe = ClientProbe {
        prefer_sync: true,
        body,
    };
    config.registry.register("/usr/bin/probe", Arc::new(probe));
    let kernel = Kernel::boot(config);
    let handle = kernel.spawn("/usr/bin/probe", &["probe"], &[]).expect("spawn probe");
    let status = handle.wait_timeout(WATCHDOG).expect("the probe hung");
    let written = kernel.fs().read_file("/out.bin").expect("the write landed");
    let stats = kernel.stats();
    kernel.shutdown();
    assert_eq!(status.code, Some(0));
    assert!(written == [b'a'; 4096], "the staged bytes were overwritten");
    assert_rode_the_ring(&stats);
}

/// One batch of eight 64 KiB `pread`s on the ring.  Each result and its
/// header spans two registered buffers, so the batch outruns the table of
/// seven and the rest of it waits in the kernel's overflow queue while the
/// process pops.  Every byte must arrive, in order, and the next call must
/// go through.
#[test]
fn a_batch_of_reads_larger_than_the_buffer_table_arrives_whole() {
    const READS: usize = 8;
    const CHUNK: usize = 64 * 1024;
    fn pattern() -> Vec<u8> {
        (0..READS * CHUNK).map(|i| (i % 229) as u8).collect()
    }
    let body = |client: &mut SyscallClient| {
        let open = Syscall::Open {
            path: "/big.bin".to_owned(),
            flags: OpenFlags::read_only(),
            mode: 0,
        };
        let SysResult::Int(fd) = client.call(open) else {
            return 2;
        };
        let reads = (0..READS).map(|i| Syscall::Pread {
            fd: fd as i32,
            len: CHUNK as u32,
            offset: (i * CHUNK) as u64,
        });
        let results = client.submit(SyscallBatch {
            entries: reads.collect(),
        });
        let expected: Vec<SysResult> = pattern().chunks(CHUNK).map(|c| SysResult::Data(c.to_vec())).collect();
        if results != expected {
            return 3;
        }
        match client.call(Syscall::GetPid) {
            SysResult::Int(pid) if pid > 0 => 0,
            _ => 4,
        }
    };
    let config = browsix_core::BootConfig::in_memory();
    let probe = ClientProbe {
        prefer_sync: true,
        body,
    };
    config.registry.register("/usr/bin/probe", Arc::new(probe));
    let kernel = Kernel::boot(config);
    kernel.fs().write_file("/big.bin", &pattern()).expect("stage big.bin");
    let handle = kernel.spawn("/usr/bin/probe", &["probe"], &[]).expect("spawn probe");
    let status = handle.wait_timeout(WATCHDOG).expect("the probe hung");
    let stats = kernel.stats();
    kernel.shutdown();
    assert_eq!(status.code, Some(0), "3: wrong bytes, 4: the next call failed");
    assert_eq!(CHUNK, REG_BUF_BYTES as usize, "a read and its header take two buffers");
    assert!(READS * 2 > REG_BUF_COUNT as usize);
    assert_eq!(stats.count("pread"), READS as u64);
    assert_rode_the_ring(&stats);
}

/// One batch of 65: 64 one-byte `read`s of an empty pipe, then the `write`
/// that feeds them.  On the ring the reads fill the submission queue and all
/// park, so nothing completes until the write is submitted — into the space
/// their pops made, with no completion to wake the process for it.  Both
/// conventions must give the same results, and on the ring under the
/// watchdog.  Which read gets which byte is the order of the pipe's wait
/// queue, which the scavenger's retries reshuffle, so the reads' bytes are
/// compared sorted.
#[test]
fn a_full_submission_queue_of_parked_reads_gets_the_write_that_feeds_them() {
    let body = |client: &mut SyscallClient| {
        let SysResult::Pair(r, w) = client.call(Syscall::Pipe2) else {
            return 2;
        };
        let (r, w) = (r as i32, w as i32);
        let data = client.stage_write(&(0..RING_SLOTS as u8).collect::<Vec<u8>>());
        let reads = (0..RING_SLOTS).map(|_| Syscall::Read { fd: r, len: 1 });
        let write = Syscall::Write { fd: w, data };
        let mut results = client.submit(SyscallBatch {
            entries: reads.chain([write]).collect(),
        });
        let written = results.pop();
        let mut read: Vec<Vec<u8>> = results
            .into_iter()
            .map(|result| match result {
                SysResult::Data(bytes) => bytes,
                _ => Vec::new(),
            })
            .collect();
        read.sort();
        let transcript = ByteSource::Inline(format!("{read:?} {written:?}").into_bytes());
        match client.call(Syscall::Write {
            fd: 1,
            data: transcript,
        }) {
            SysResult::Int(_) => 0,
            _ => 3,
        }
    };
    let run = |prefer_sync: bool| {
        let config = browsix_core::BootConfig::in_memory();
        config
            .registry
            .register("/usr/bin/probe", Arc::new(ClientProbe { prefer_sync, body }));
        let kernel = Kernel::boot(config);
        let handle = kernel.spawn("/usr/bin/probe", &["probe"], &[]).expect("spawn probe");
        let status = handle.wait_timeout(WATCHDOG).unwrap_or_else(|| {
            panic!("the batch hung (sync convention: {prefer_sync})");
        });
        let stats = kernel.stats();
        kernel.shutdown();
        assert_eq!(status.code, Some(0));
        (handle.stdout_string(), stats)
    };
    let (on_the_ring, stats) = run(true);
    let (by_message, _) = run(false);
    assert_eq!(on_the_ring, by_message);
    let each_byte_once: Vec<Vec<u8>> = (0..RING_SLOTS as u8).map(|byte| vec![byte]).collect();
    let written = Some(SysResult::Int(RING_SLOTS as i64));
    assert_eq!(on_the_ring, format!("{each_byte_once:?} {written:?}"));
    assert_eq!(stats.count("read"), RING_SLOTS as u64);
    assert_rode_the_ring(&stats);
}

// ---- one notify per kernel event, on every completion path --------------------

/// A bound on each blocking loop below.  Its guests block a hundred times
/// or more on completions that no drain of their own ring produces, and the
/// client's `Atomics.wait` has no timeout: were that path to publish
/// without a notify, the first such wait would never end and the guest
/// would run into the watchdog instead.
const NOTIFIED_WITHIN: Duration = Duration::from_secs(2);

/// Runs `probe` (beside `child`) under the sync convention and returns the
/// time it printed for its blocking loop.
fn time_blocking_loop(probe: GuestFactory, child: GuestFactory) -> Duration {
    let (code, stdout, stats) = run_probe(SyscallConvention::Sync, &[], &|_| {}, probe, child);
    assert_eq!(code, Some(0), "stdout: {stdout}");
    assert_rode_the_ring(&stats);
    let micros = stdout.trim().parse().expect("the probe prints its loop time");
    Duration::from_micros(micros)
}

/// Two ring processes bounce one-byte messages over a pair of pipes.  Each
/// `read` finds its pipe empty and parks, so each completion is posted by
/// the wake-up that the *other* process's `write` causes — on that process's
/// doorbell event, or, when the two live on different shards, on a peer
/// shard's reply.
#[test]
fn completions_posted_by_a_wake_up_are_notified() {
    const TURNS: usize = 2_000;
    let probe = guest("probe", |env: &mut dyn RuntimeEnv| {
        let (Ok((ping_r, ping_w)), Ok((pong_r, pong_w))) = (env.pipe(), env.pipe()) else {
            return 2;
        };
        let stdio = SpawnStdio {
            stdin: Some(ping_r),
            stdout: Some(pong_w),
            stderr: None,
        };
        let Ok(child) = env.spawn("/usr/bin/probe-child", &["probe-child".to_owned()], stdio) else {
            return 3;
        };
        if env.close_many(&[ping_r, pong_w]).is_err() {
            return 4;
        }
        let start = Instant::now();
        for turn in 0..TURNS {
            let byte = [turn as u8];
            if env.write(ping_w, &byte) != Ok(1) || env.read(pong_r, 1).as_deref() != Ok(&byte) {
                return 5;
            }
        }
        let elapsed = start.elapsed();
        let _ = env.close(ping_w);
        env.print(&format!("{}\n", elapsed.as_micros()));
        env.wait(child as i32).ok().and_then(|w| w.exit_code).unwrap_or(6)
    });
    let child = guest("probe-child", |env: &mut dyn RuntimeEnv| loop {
        match env.read(0, 1) {
            Ok(byte) if byte.is_empty() => return 0,
            Ok(byte) if env.write(1, &byte) == Ok(1) => {}
            _ => return 1,
        }
    });
    let elapsed = time_blocking_loop(probe, child);
    assert!(elapsed < NOTIFIED_WITHIN, "{TURNS} turns took {elapsed:?}");
}

/// `wait4` on a child that is still starting parks; the completion is posted
/// by the child's exit.
#[test]
fn completions_posted_by_a_child_exit_are_notified() {
    const CHILDREN: usize = 100;
    let probe = guest("probe", |env: &mut dyn RuntimeEnv| {
        let start = Instant::now();
        for _ in 0..CHILDREN {
            let Ok(child) = env.spawn(
                "/usr/bin/probe-child",
                &["probe-child".to_owned()],
                SpawnStdio::default(),
            ) else {
                return 2;
            };
            if env.wait(child as i32).ok().and_then(|w| w.exit_code) != Some(0) {
                return 3;
            }
        }
        env.print(&format!("{}\n", start.elapsed().as_micros()));
        0
    });
    let elapsed = time_blocking_loop(probe, no_child());
    assert!(elapsed < NOTIFIED_WITHIN, "{CHILDREN} waits took {elapsed:?}");
}

/// A doorbell wakes a kernel parked on a drained submission queue, or on a
/// completion the full queue overflowed.  A `poll` that parks in the kernel
/// until its deadline leaves neither behind when it completes: its process
/// rings one doorbell for the entry and none as it wakes, so the kernel
/// never drains an empty ring.  The pause between calls lets the kernel go
/// idle, so each call finds it parked.
#[test]
fn calls_that_park_in_the_kernel_ring_no_more_doorbells_than_entries() {
    const POLLS: usize = 20;
    let probe = guest("probe", |env: &mut dyn RuntimeEnv| {
        let Ok((idle_r, _idle_w)) = env.pipe() else {
            return 2;
        };
        for _ in 0..POLLS {
            if env.poll(&mut [PollFd::readable(idle_r)], 1) != Ok(0) {
                return 3;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        0
    });
    let (code, stdout, stats) = run_probe(SyscallConvention::Sync, &[], &|_| {}, probe, no_child());
    assert_eq!(code, Some(0), "stdout: {stdout}");
    assert_rode_the_ring(&stats);
    assert!(
        stats.doorbells <= stats.sq_polled,
        "{} doorbells for {} entries",
        stats.doorbells,
        stats.sq_polled
    );
}

/// A `poll` on a pipe nobody writes to parks until its deadline; the
/// completion is posted by the kernel's deadline sweep, on no event at all.
#[test]
fn completions_posted_by_a_poll_deadline_are_notified() {
    const POLLS: usize = 100;
    let probe = guest("probe", |env: &mut dyn RuntimeEnv| {
        let Ok((idle_r, _idle_w)) = env.pipe() else {
            return 2;
        };
        let start = Instant::now();
        for _ in 0..POLLS {
            if env.poll(&mut [PollFd::readable(idle_r)], 1) != Ok(0) {
                return 3;
            }
        }
        env.print(&format!("{}\n", start.elapsed().as_micros()));
        0
    });
    let elapsed = time_blocking_loop(probe, no_child());
    assert!(
        elapsed >= Duration::from_millis(POLLS as u64),
        "the polls did not block"
    );
    assert!(elapsed < NOTIFIED_WITHIN, "{POLLS} expiring polls took {elapsed:?}");
}

// ---- the guest is hostile ------------------------------------------------------

/// A process that speaks the ring protocol by hand, so it can write what no
/// client would: it hands the kernel heaps no client would, maps its ring
/// like `SyscallClient`, then plants raw slots in its submission queue and
/// records the completion each one gets.
struct RawRingGuest {
    /// `(case, result)` in submission order.
    transcript: Arc<Mutex<Vec<(&'static str, SysResult)>>>,
}

const HEAP_BYTES: u32 = SYNC_HEAP_BYTES as u32;

struct RawRing {
    ctx: LaunchContext,
    sab: SharedArrayBuffer,
    ring: Ring,
    next_user_data: u32,
}

impl RawRing {
    /// Waits for the init message and allocates a heap with the ring at its
    /// fixed place; the kernel hears of neither until [`RawRing::map`].
    fn start(ctx: LaunchContext) -> RawRing {
        while ctx.scope.recv().expect("init arrives").get_str("type") != Some("init") {}
        let sab = SharedArrayBuffer::new(SYNC_HEAP_BYTES);
        RawRing {
            ctx,
            ring: Ring::map(sab.clone()).expect("a process heap holds its ring"),
            sab,
            next_user_data: 0,
        }
    }

    /// Maps the ring like `SyscallClient`: parks the queue, so that the first
    /// submission rings the doorbell, then hands the heap over.
    fn map(&self) {
        self.ring.set_need_wakeup();
        self.hand_over(self.sab.clone());
    }

    /// Hands the kernel `heap`, which maps a ring in it if it can; nothing
    /// comes back.
    fn hand_over(&self, heap: SharedArrayBuffer) {
        let pid = self.ctx.pid;
        self.ctx
            .kernel
            .send(KernelEvent::MapRing { pid, heap })
            .expect("kernel is up");
    }

    /// Sends one call as a message and waits for its response.
    fn call_by_message(&self, seq: u64, call: Syscall) -> SysResult {
        self.post(seq, &SyscallBatch::single(call), Vec::new()).remove(0)
    }

    /// Posts `batch` exactly as it is, with `transfers` — whatever they are —
    /// beside it, and waits for the response: one result per entry, in
    /// submission order, bulk read data re-attached.
    fn post(&self, seq: u64, batch: &SyscallBatch, transfers: Vec<Vec<u8>>) -> Vec<SysResult> {
        let (pid, payload) = (self.ctx.pid, batch.encode());
        self.ctx
            .kernel
            .send(KernelEvent::Syscall {
                pid,
                seq,
                payload,
                transfers,
            })
            .expect("kernel is up");
        loop {
            let mut msg = self.ctx.scope.recv().expect("worker is alive");
            if msg.get_str("type") == Some("syscall-response") && msg.get_int("seq") == Some(seq as i64) {
                let transfers = msg.take_transfer();
                let batch = msg.get_bytes("completions").and_then(CompletionBatch::decode);
                let mut batch = batch.expect("response decodes");
                batch.attach_payloads(transfers);
                batch.completions.sort_by_key(|completion| completion.index);
                return batch.completions.into_iter().map(|c| c.result).collect();
            }
        }
    }

    /// Plants one submission slot, header and payload exactly as given.
    fn plant(&mut self, length_word: u32, payload: &[u8]) -> SysResult {
        let sq = RING_REGION_OFFSET as u32;
        let tail_word = sq as usize + 4;
        let tail = self.sab.load_u32(tail_word).expect("tail in bounds");
        let slot = sq + RING_HEADER_BYTES + tail % RING_SLOTS * RING_SLOT_BYTES;
        let mut entry = self.next_user_data.to_le_bytes().to_vec();
        entry.extend_from_slice(&length_word.to_le_bytes());
        entry.extend_from_slice(payload);
        self.sab.write_bytes(slot as usize, &entry).expect("slot in bounds");
        self.sab
            .store_i32(tail_word, tail.wrapping_add(1) as i32)
            .expect("tail in bounds");
        self.completion()
    }

    /// Plants a spill reference `(a, len)`.
    fn plant_reference(&mut self, a: u32, len: u32) -> SysResult {
        let mut reference = a.to_le_bytes().to_vec();
        reference.extend_from_slice(&len.to_le_bytes());
        self.plant(INDIRECT | 8, &reference)
    }

    /// Rings the doorbell for the entry just published and waits for its
    /// completion.
    fn completion(&mut self) -> SysResult {
        let user_data = self.next_user_data;
        self.next_user_data += 1;
        let (echoed, result) = self.next_completion();
        assert_eq!(echoed, user_data, "completion for another entry");
        result
    }

    /// Rings the doorbell if the kernel asked for one and waits for the next
    /// completion, whichever entry it answers.
    fn next_completion(&mut self) -> (u32, SysResult) {
        let deadline = Instant::now() + WATCHDOG;
        loop {
            if self.ring.take_doorbell() {
                let pid = self.ctx.pid;
                self.ctx
                    .kernel
                    .send(KernelEvent::Doorbell { pid })
                    .expect("kernel is up");
            }
            let seen = self.ring.cq_tail();
            if let Some((echoed, frame)) = self.ring.pop_cqe() {
                let mut reader = browsix_core::wire::Reader::new(&frame);
                return (echoed, SysResult::decode_from(&mut reader).expect("completion decodes"));
            }
            assert!(Instant::now() < deadline, "a completion never arrived");
            let tail_word = self.ring.geometry().cq_tail_off();
            let _ = self.sab.wait(tail_word, seen as i32, Some(Duration::from_millis(20)));
        }
    }

    /// Submits `exit(0)`, which nothing answers.
    fn exit(&mut self, pid: u32) {
        self.push(self.next_user_data, &Syscall::Exit { code: 0 });
        if self.ring.take_doorbell() {
            let _ = self.ctx.kernel.send(KernelEvent::Doorbell { pid });
        }
    }

    /// Publishes one well-formed call without waiting for it.
    fn push(&mut self, user_data: u32, call: &Syscall) {
        assert!(self.ring.push_sqe(user_data, &encoded(call)));
    }

    /// Submits one well-formed call and waits for its completion.
    fn call(&mut self, call: &Syscall) -> SysResult {
        self.push(self.next_user_data, call);
        self.completion()
    }
}

fn encoded(call: &Syscall) -> Vec<u8> {
    let mut frame = Vec::new();
    call.encode_into(&mut frame);
    frame
}

impl ProgramLauncher for RawRingGuest {
    fn launch(&self, ctx: LaunchContext) {
        let pid = ctx.pid;
        let mut raw = RawRing::start(ctx);
        // A heap one word too short for the ring region maps nothing: a
        // write from it has no heap to be read from, and calls by message go
        // on as before.
        let region_end = RING_REGION_OFFSET + RING_REGION_BYTES as usize;
        raw.hand_over(SharedArrayBuffer::new(region_end - 4));
        let from_heap = Syscall::Write {
            fd: 1,
            data: ByteSource::SharedHeap { offset: 0, len: 4 },
        };
        let mut results = vec![
            (
                "a write from a heap too short for the ring",
                raw.call_by_message(1, from_heap),
            ),
            (
                "getpid by message beside that heap",
                raw.call_by_message(2, Syscall::GetPid),
            ),
        ];
        raw.map();
        results.extend([
            (
                "reference past the end of the heap",
                raw.plant_reference(HEAP_BYTES, 16),
            ),
            ("reference longer than the heap", raw.plant_reference(0, HEAP_BYTES + 1)),
            (
                "reference whose end overflows u32",
                raw.plant_reference(u32::MAX - 4, 16),
            ),
            ("reference to nothing", raw.plant_reference(64, 0)),
            // 300 KiB of zeroes: in bounds, larger than any client's spill
            // area, and not a system call.
            ("reference to 300 KiB of zeroes", raw.plant_reference(0, 300 * 1024)),
            ("reference of garbage", raw.plant(INDIRECT | 8, &[0xff; 8])),
            ("inline length larger than the slot", raw.plant(1 << 20, &[0xee; 8])),
            ("getpid, inline", raw.call(&Syscall::GetPid)),
            ("getpid, spilled", {
                assert!(raw
                    .ring
                    .push_sqe_spilled(raw.next_user_data, 4096, &encoded(&Syscall::GetPid)));
                raw.completion()
            }),
            // Ignored: the kernel keeps draining the first heap's ring.
            ("getpid after a second heap was handed over", {
                raw.hand_over(SharedArrayBuffer::new(SYNC_HEAP_BYTES));
                raw.call(&Syscall::GetPid)
            }),
        ]);
        *self.transcript.lock().unwrap() = results;
        raw.exit(pid);
    }
}

/// Ring memory belongs to the guest, so the kernel treats every word of it
/// as hostile: each malformed entry is answered with an errno, nothing
/// panics or reads outside the heap, and the ring keeps working afterwards.
#[test]
fn malformed_ring_entries_get_an_errno_and_the_ring_survives() {
    let transcript = Arc::new(Mutex::new(Vec::new()));
    let config = browsix_core::BootConfig::in_memory();
    let guest = RawRingGuest {
        transcript: Arc::clone(&transcript),
    };
    config.registry.register("/usr/bin/hostile", Arc::new(guest));
    let kernel = Kernel::boot(config);
    let handle = kernel
        .spawn("/usr/bin/hostile", &["hostile"], &[])
        .expect("spawn hostile");
    let status = handle.wait_timeout(WATCHDOG).expect("the hostile guest hung");
    assert_eq!(status.code, Some(0), "transcript: {:?}", transcript.lock().unwrap());

    let pid = SysResult::Int(handle.pid as i64);
    let err = SysResult::Err;
    assert_eq!(
        *transcript.lock().unwrap(),
        [
            ("a write from a heap too short for the ring", err(Errno::EFAULT)),
            ("getpid by message beside that heap", pid.clone()),
            ("reference past the end of the heap", err(Errno::EFAULT)),
            ("reference longer than the heap", err(Errno::EFAULT)),
            ("reference whose end overflows u32", err(Errno::EFAULT)),
            ("reference to nothing", err(Errno::EFAULT)),
            ("reference to 300 KiB of zeroes", err(Errno::EINVAL)),
            ("reference of garbage", err(Errno::EFAULT)),
            ("inline length larger than the slot", err(Errno::EINVAL)),
            ("getpid, inline", pid.clone()),
            ("getpid, spilled", pid.clone()),
            ("getpid after a second heap was handed over", pid),
        ]
    );
    let stats = kernel.stats();
    assert_eq!(stats.sq_polled, 11, "ten entries and the exit");
    assert_eq!(stats.cq_posted, 10, "one completion per entry, none for exit");
    kernel.shutdown();
}

// ---- a parked call stays on the description it started on ----------------------

/// Submits, in one batch, a `read` of an empty pipe — which parks — then a
/// `dup2` of a regular file over the descriptor being read, then the write
/// that wakes the read; records what each entry completed with.
struct ReadThenDup2 {
    /// `[read, dup2, write]`.
    results: Arc<Mutex<Vec<SysResult>>>,
}

impl ProgramLauncher for ReadThenDup2 {
    fn launch(&self, ctx: LaunchContext) {
        let pid = ctx.pid;
        let mut raw = RawRing::start(ctx);
        raw.map();
        let SysResult::Pair(r, w) = raw.call(&Syscall::Pipe2) else {
            panic!("pipe2 failed");
        };
        let (r, w) = (r as i32, w as i32);
        // A second descriptor on the read end, so that `dup2` closing `r`
        // does not leave the pipe without a reader.
        assert!(matches!(raw.call(&Syscall::Dup { fd: r }), SysResult::Int(_)));
        let open = Syscall::Open {
            path: "/other".to_owned(),
            flags: OpenFlags::read_only(),
            mode: 0,
        };
        let SysResult::Int(file) = raw.call(&open) else {
            panic!("open failed");
        };
        let first = raw.next_user_data;
        let data = ByteSource::Inline(b"from the pipe".to_vec());
        raw.push(first, &Syscall::Read { fd: r, len: 64 });
        raw.push(
            first + 1,
            &Syscall::Dup2 {
                from: file as i32,
                to: r,
            },
        );
        raw.push(first + 2, &Syscall::Write { fd: w, data });
        raw.next_user_data += 3;
        let mut results = vec![SysResult::Ok; 3];
        for _ in 0..3 {
            let (user_data, result) = raw.next_completion();
            results[(user_data - first) as usize] = result;
        }
        *self.results.lock().unwrap() = results;
        raw.exit(pid);
    }
}

/// POSIX: a `read` that has started belongs to the open file description it
/// found, not to the descriptor number — redirecting the number afterwards
/// does not redirect the read.
#[test]
fn a_parked_read_is_not_redirected_by_dup2_over_its_descriptor() {
    let results = Arc::new(Mutex::new(Vec::new()));
    let config = browsix_core::BootConfig::in_memory();
    let guest = ReadThenDup2 {
        results: Arc::clone(&results),
    };
    config.registry.register("/usr/bin/redirect", Arc::new(guest));
    let kernel = Kernel::boot(config);
    kernel
        .fs()
        .write_file("/other", b"from the file")
        .expect("stage /other");
    let handle = kernel.spawn("/usr/bin/redirect", &["redirect"], &[]).expect("spawn");
    let status = handle.wait_timeout(WATCHDOG).expect("the guest hung");
    assert_eq!(status.code, Some(0));
    let [read, dup2, write] = &results.lock().unwrap()[..] else {
        panic!("three entries were submitted");
    };
    assert!(matches!(dup2, SysResult::Int(_)), "dup2: {dup2:?}");
    assert_eq!(*write, SysResult::Int(13));
    assert_eq!(*read, SysResult::Data(b"from the pipe".to_vec()));
    kernel.shutdown();
}

/// Submits, in one batch, a `sendfile` of a file 100 bytes larger than a
/// pipe — which parks with those 100 bytes to go — then a `dup2` of another
/// pipe's write end over the descriptor it is sending to, then the read that
/// makes room; afterwards drains both pipes without blocking.
struct SendfileThenDup2 {
    /// `[sendfile, dup2, read]`, then what was left in the pipe the call was
    /// made on, then what a read of the other pipe said.
    results: Arc<Mutex<Vec<SysResult>>>,
}

const PIPE_BYTES: usize = 64 * 1024;

fn sendfile_source() -> Vec<u8> {
    (0..PIPE_BYTES + 100).map(|i| (i % 251) as u8).collect()
}

impl ProgramLauncher for SendfileThenDup2 {
    fn launch(&self, ctx: LaunchContext) {
        let pid = ctx.pid;
        let mut raw = RawRing::start(ctx);
        raw.map();
        let mut pipe = || match raw.call(&Syscall::Pipe2) {
            SysResult::Pair(r, w) => (r as i32, w as i32),
            other => panic!("pipe2 failed: {other:?}"),
        };
        let ((r, w), (other_r, other_w)) = (pipe(), pipe());
        // A second descriptor on the write end, so that `dup2` closing `w`
        // does not leave the pipe without a writer.
        assert!(matches!(raw.call(&Syscall::Dup { fd: w }), SysResult::Int(_)));
        let open = Syscall::Open {
            path: "/source".to_owned(),
            flags: OpenFlags::read_only(),
            mode: 0,
        };
        let SysResult::Int(file) = raw.call(&open) else {
            panic!("open failed");
        };
        let first = raw.next_user_data;
        let sendfile = Syscall::Sendfile {
            out_fd: w,
            in_fd: file as i32,
            offset: -1,
            len: 1 << 20,
        };
        raw.push(first, &sendfile);
        raw.push(first + 1, &Syscall::Dup2 { from: other_w, to: w });
        raw.push(first + 2, &Syscall::Read { fd: r, len: 200 });
        raw.next_user_data += 3;
        let mut results = vec![SysResult::Ok; 3];
        for _ in 0..3 {
            let (user_data, result) = raw.next_completion();
            results[(user_data - first) as usize] = result;
        }
        // Drain by message, where a read is not capped by the ring's buffers.
        let nonblocking = |fd| Syscall::SetFlags {
            fd,
            flags: browsix_core::NONBLOCK,
        };
        let drain = SyscallBatch {
            entries: vec![
                nonblocking(r),
                nonblocking(other_r),
                Syscall::Read { fd: r, len: 1 << 20 },
                Syscall::Read {
                    fd: other_r,
                    len: 1 << 20,
                },
            ],
        };
        results.extend(raw.post(2, &drain, Vec::new()).into_iter().skip(2));
        *self.results.lock().unwrap() = results;
        raw.exit(pid);
    }
}

/// The same rule for `sendfile`: the transfer belongs to the stream and the
/// file it found when it was called, and `dup2` over its output descriptor
/// while it is parked sends not one byte elsewhere.
#[test]
fn a_parked_sendfile_is_not_redirected_by_dup2_over_its_descriptor() {
    let results = Arc::new(Mutex::new(Vec::new()));
    let config = browsix_core::BootConfig::in_memory();
    let guest = SendfileThenDup2 {
        results: Arc::clone(&results),
    };
    config.registry.register("/usr/bin/redirect", Arc::new(guest));
    let kernel = Kernel::boot(config);
    let source = sendfile_source();
    kernel.fs().write_file("/source", &source).expect("stage /source");
    let handle = kernel.spawn("/usr/bin/redirect", &["redirect"], &[]).expect("spawn");
    let status = handle.wait_timeout(WATCHDOG).expect("the guest hung");
    assert_eq!(status.code, Some(0));
    let [sendfile, dup2, read, rest, other] = &results.lock().unwrap()[..] else {
        panic!("five results were recorded");
    };
    assert!(matches!(dup2, SysResult::Int(_)), "dup2: {dup2:?}");
    assert_eq!(*sendfile, SysResult::Int(source.len() as i64));
    assert_eq!(*read, SysResult::Data(source[..200].to_vec()));
    assert_eq!(*other, SysResult::Err(Errno::EAGAIN), "bytes reached the other pipe");
    assert_eq!(*rest, SysResult::Data(source[200..].to_vec()));
    kernel.shutdown();
}

// ---- the message transport's data path -----------------------------------------

/// A 64 KiB `write` to a pipe and the `read` that takes it back, by message:
/// the bytes are copied once, by the writer staging them, and never again —
/// the buffer crosses to the kernel beside the frame, is queued on the pipe
/// as it is, handed to the read as it is and crosses back beside the reply.
#[test]
fn a_large_write_by_message_reaches_its_reader_as_the_buffer_the_writer_staged() {
    let config = browsix_core::BootConfig::in_memory();
    let body = |client: &mut SyscallClient| {
        let SysResult::Pair(r, w) = client.call(Syscall::Pipe2) else {
            return 2;
        };
        let data = vec![0x5Au8; PIPE_BYTES];
        let staged = data.as_ptr();
        let data = ByteSource::Inline(data);
        if client.call(Syscall::Write { fd: w as i32, data }) != SysResult::Int(PIPE_BYTES as i64) {
            return 3;
        }
        let read = Syscall::Read {
            fd: r as i32,
            len: 2 * PIPE_BYTES as u32,
        };
        match client.call(read) {
            SysResult::Data(read) if read != vec![0x5Au8; PIPE_BYTES] => 4,
            SysResult::Data(read) if read.as_ptr() != staged => 5,
            SysResult::Data(_) => 0,
            _ => 6,
        }
    };
    let probe = ClientProbe {
        prefer_sync: false,
        body,
    };
    config.registry.register("/usr/bin/probe", Arc::new(probe));
    let kernel = Kernel::boot(config);
    let handle = kernel.spawn("/usr/bin/probe", &["probe"], &[]).expect("spawn probe");
    let status = handle.wait_timeout(WATCHDOG).expect("the probe hung");
    assert_eq!(status.code, Some(0), "4: wrong bytes, 5: right bytes in another buffer");
    let stats = kernel.stats();
    assert!(
        stats.bytes_copied < 4096,
        "frames and the init message only, not the payload: {}",
        stats.bytes_copied
    );
    kernel.shutdown();
}

/// Posts frames whose transfer references name no buffer, the wrong buffer,
/// or a buffer twice, and a reference through a ring slot, which has no list
/// beside it at all; records what every call completed with.
struct HostileTransfers {
    /// `(case, result)` in submission order.
    transcript: Arc<Mutex<Vec<(&'static str, SysResult)>>>,
}

impl ProgramLauncher for HostileTransfers {
    fn launch(&self, ctx: LaunchContext) {
        let pid = ctx.pid;
        let mut raw = RawRing::start(ctx);
        let SysResult::Pair(r, w) = raw.call_by_message(1, Syscall::Pipe2) else {
            panic!("pipe2 failed");
        };
        let (r, w) = (r as i32, w as i32);
        let reference = |index, len| Syscall::Write {
            fd: w,
            data: ByteSource::Transfer { index, len },
        };
        let hostile = SyscallBatch {
            entries: vec![
                reference(2, 4096),
                reference(0, 4095),
                reference(1, 2048),
                reference(1, 2048),
            ],
        };
        let mut results = raw.post(2, &hostile, vec![vec![0; 4096], vec![1; 2048]]);
        results.extend(raw.post(3, &SyscallBatch::single(reference(0, 2048)), Vec::new()));
        // The same process, the same pipe, a frame as a client makes it.
        let mut honest = SyscallBatch::single(Syscall::Write {
            fd: w,
            data: ByteSource::Inline(vec![2; 4096]),
        });
        let transfers = honest.detach_payloads();
        assert_eq!(transfers.len(), 1, "4 KiB is large enough to detach");
        results.extend(raw.post(4, &honest, transfers));
        results.push(raw.call_by_message(5, Syscall::Read { fd: r, len: 1 << 20 }));
        raw.map();
        results.push(raw.call(&reference(0, 2048)));
        results.push(raw.call(&Syscall::GetPid));
        let cases = [
            "index past the end of the list",
            "length that is not the buffer's",
            "a reference that is right",
            "the same item a second time",
            "a reference with no list beside the frame",
            "a well-formed detached write",
            "reading it all back",
            "a reference in a ring slot",
            "getpid through the ring",
        ];
        *self.transcript.lock().unwrap() = cases.into_iter().zip(results).collect();
        raw.exit(pid);
    }
}

/// The transfer list is the guest's to fill, like the frame and the ring:
/// a reference that does not name exactly one whole unclaimed buffer fails
/// its own call with `EINVAL` — nothing panics, nothing else in the frame is
/// affected, and the next well-formed frame goes through.
#[test]
fn hostile_transfer_references_get_einval_and_the_process_carries_on() {
    let transcript = Arc::new(Mutex::new(Vec::new()));
    let config = browsix_core::BootConfig::in_memory();
    let guest = HostileTransfers {
        transcript: Arc::clone(&transcript),
    };
    config.registry.register("/usr/bin/hostile", Arc::new(guest));
    let kernel = Kernel::boot(config);
    let handle = kernel
        .spawn("/usr/bin/hostile", &["hostile"], &[])
        .expect("spawn hostile");
    let status = handle.wait_timeout(WATCHDOG).expect("the hostile guest hung");
    assert_eq!(status.code, Some(0), "transcript: {:?}", transcript.lock().unwrap());
    let einval = SysResult::Err(Errno::EINVAL);
    let mut piped = vec![1u8; 2048];
    piped.extend_from_slice(&[2; 4096]);
    assert_eq!(
        *transcript.lock().unwrap(),
        [
            ("index past the end of the list", einval.clone()),
            ("length that is not the buffer's", einval.clone()),
            ("a reference that is right", SysResult::Int(2048)),
            ("the same item a second time", einval.clone()),
            ("a reference with no list beside the frame", einval.clone()),
            ("a well-formed detached write", SysResult::Int(4096)),
            ("reading it all back", SysResult::Data(piped)),
            ("a reference in a ring slot", einval),
            ("getpid through the ring", SysResult::Int(handle.pid as i64)),
        ]
    );
    kernel.shutdown();
}
