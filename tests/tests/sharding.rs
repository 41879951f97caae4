//! End-to-end tests for the sharded kernel: deterministic placement,
//! cross-shard pipes and sockets, exactly-once EPIPE/SIGPIPE delivery, and a
//! property-based oracle checking that a multi-shard kernel is
//! observationally identical to the classic single-event-loop kernel.
//!
//! Tasks are owned by shard `pid % shards` and host spawns place round-robin
//! (see `browsix_core::kernel::shard`), so a parent and its non-fork children
//! routinely straddle shards — every pipeline here crosses shard boundaries
//! once `shards > 1`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use browsix_core::kernel::shard::shard_of;
use browsix_core::{BootConfig, Kernel, ResourceCounts, Signal};
use browsix_fs::FileSystem;
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SpawnStdio, SyscallConvention};

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// Boots a kernel with the shell, coreutils and `httpd` registered, pinned
/// to `shards` event loops.
fn boot_full(shards: usize) -> Kernel {
    let config = browsix_apps::default_config().with_shards(shards);
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant_async())),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant_async());
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    kernel
}

// ---- deterministic placement -------------------------------------------------

#[test]
fn pid_to_shard_assignment_is_deterministic_across_boots() {
    // Spawning the same program sequence on a fresh kernel must yield the
    // same pids (per-shard pid pools + a deterministic round-robin placement
    // counter), so a workload's shard layout is reproducible run to run.
    let collect = || {
        let kernel = boot_full(4);
        let pids: Vec<u32> = (0..8)
            .map(|_| {
                let handle = kernel.spawn("/usr/bin/true", &["true"], &[]).unwrap();
                handle.wait();
                handle.pid
            })
            .collect();
        kernel.shutdown();
        pids
    };
    let first = collect();
    let second = collect();
    assert_eq!(first, second, "placement must not depend on timing");

    // The documented ownership hash: shard = pid % shards.  Round-robin
    // placement spreads 8 sequential host spawns evenly over 4 shards.
    let mut per_shard = [0usize; 4];
    for &pid in &first {
        per_shard[shard_of(pid, 4)] += 1;
    }
    assert_eq!(per_shard, [2, 2, 2, 2], "pids: {first:?}");
}

// ---- cross-shard EPIPE/SIGPIPE ----------------------------------------------

#[test]
fn yes_head_pipeline_terminates_via_sigpipe_on_multi_shard_kernels() {
    // The PR-4 regression (`yes | head -n 1` must die of SIGPIPE, not spin)
    // re-run on sharded kernels: the shell, `yes` and `head` are placed
    // round-robin, so the pipe write that takes the EPIPE crosses shards.
    for shards in [1, 2, 4] {
        let kernel = boot_full(shards);
        let handle = kernel.spawn("/bin/sh", &["sh", "-c", "yes | head -n 1"], &[]).unwrap();
        let status = handle
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("pipeline must terminate under {shards} shards"));
        assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
        assert_eq!(handle.stdout_string(), "y\n", "shards: {shards}");
        kernel.shutdown();
    }
}

/// Waits (a few seconds at most) for the kernel to hold exactly `expected`
/// again: across shards the last endpoint tallies travel as messages.
fn await_resources(kernel: &Kernel, expected: ResourceCounts, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while kernel.resources() != expected {
        assert!(
            Instant::now() < deadline,
            "{what}: kernel state did not return to idle: {:?}",
            kernel.resources()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_pipe_nobody_can_read_is_freed_with_its_unread_bytes() {
    // `yes` keeps writing until SIGPIPE, so when `head` is gone the pipe
    // still holds up to 64 KiB that nobody will ever read.  The stream must
    // go away with its last descriptor regardless — the old garbage collector
    // only dropped *empty* streams and leaked one buffer per run.  Repeating
    // the pipeline on one kernel makes any per-run leak add up.
    for shards in [1, 4] {
        let kernel = boot_full(shards);
        let baseline = kernel.resources();
        assert_eq!(baseline, ResourceCounts::default(), "an idle kernel holds nothing");
        for run in 0..32 {
            let handle = kernel.spawn("/bin/sh", &["sh", "-c", "yes | head -n 1"], &[]).unwrap();
            let status = handle
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|| panic!("run {run} must terminate under {shards} shards"));
            assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
            // The shell has reaped both children, so every descriptor is
            // closed; across shards the last endpoint tallies may still be
            // in flight for a moment.
            await_resources(&kernel, baseline, &format!("run {run}, {shards} shard(s)"));
        }
        kernel.shutdown();
    }
}

/// Runs `yes | <filters> | head -n <lines>` at 1 and 4 shards under a
/// watchdog and checks that it returns the lines, exits 0 and leaves no
/// stage behind.  A filter that reads its input to the end before writing
/// any of it never returns behind `yes` and grows until the host runs out of
/// memory; one that passes each chunk on before reading the next lets `head`
/// take its lines and exit, and SIGPIPE walks back up the pipeline one stage
/// at a time.
fn endless_upstream_terminates(command: &str, lines: usize) {
    for shards in [1, 4] {
        let kernel = boot_full(shards);
        let baseline = kernel.resources();
        let handle = kernel.spawn("/bin/sh", &["sh", "-c", command], &[]).unwrap();
        let status = handle
            .wait_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("`{command}` must terminate under {shards} shard(s)"));
        assert_eq!(status.code, Some(0), "`{command}` stderr: {}", handle.stderr_string());
        assert_eq!(
            handle.stdout_string(),
            "y\n".repeat(lines),
            "`{command}`, shards: {shards}"
        );
        // Every stage is dead and reaped, not merely out of sight.
        await_resources(&kernel, baseline, &format!("`{command}`, {shards} shard(s)"));
        kernel.shutdown();
    }
}

#[test]
fn yes_grep_head_terminates() {
    endless_upstream_terminates("yes | grep y | head -n 1", 1);
}

#[test]
fn yes_tee_head_terminates() {
    endless_upstream_terminates("yes | tee | head -n 1", 1);
}

#[test]
fn yes_grep_tee_file_head_terminates() {
    endless_upstream_terminates("yes | grep -v n | tee /tmp/t | head -n 3", 3);
}

#[test]
fn blocked_cross_shard_writers_get_exactly_one_sigpipe_each() {
    // A parent creates four pipes (streams owned by its shard) and four
    // writer children; round-robin placement puts children on every shard of
    // a 4-shard kernel, so at least three write remotely.  Closing each read
    // end must kill the matching writer with SIGPIPE — observed exactly once
    // per child by wait4, in the order the parent chose.
    let config = BootConfig::in_memory().with_shards(4);
    config.registry.register(
        "/usr/bin/gusher",
        Arc::new(
            NodeLauncher::new(
                "gusher",
                guest("gusher", |env: &mut dyn RuntimeEnv| {
                    // Far more than the pipe holds, so the write parks.
                    let payload = vec![b'x'; 256 * 1024];
                    let _ = env.write(1, &payload);
                    // Unreachable: SIGPIPE terminates the process.
                    7
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    config.registry.register(
        "/usr/bin/parent",
        Arc::new(
            NodeLauncher::new(
                "parent",
                guest("parent", |env: &mut dyn RuntimeEnv| {
                    let mut children = Vec::new();
                    for _ in 0..4 {
                        let (r, w) = env.pipe().unwrap();
                        let child = env
                            .spawn(
                                "/usr/bin/gusher",
                                &["gusher".to_string()],
                                SpawnStdio {
                                    stdout: Some(w),
                                    ..SpawnStdio::default()
                                },
                            )
                            .unwrap();
                        env.close(w).unwrap();
                        children.push((child, r));
                    }
                    for (child, r) in children {
                        // Drain a little so the writer is mid-stream, then
                        // close: the parked remote write must finish with
                        // EPIPE and the default SIGPIPE disposition kills
                        // the writer.
                        let first = env.read(r, 4096).unwrap();
                        assert!(!first.is_empty());
                        env.close(r).unwrap();
                        let waited = env.wait(child as i32).unwrap();
                        assert_eq!(waited.exit_code, None, "child {child} must not exit normally");
                        assert_eq!(waited.status & 0x7f, Signal::SIGPIPE.number());
                        // Exactly-once: the child is fully reaped, a second
                        // wait must not find it again.
                        assert!(env.wait(child as i32).is_err());
                    }
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let kernel = Kernel::boot(config);
    let handle = kernel.spawn("/usr/bin/parent", &["parent"], &[]).unwrap();
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("parent must reap all four writers");
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    kernel.shutdown();
}

// ---- cross-shard sockets ----------------------------------------------------

#[test]
fn curl_reaches_httpd_across_shards() {
    // `httpd` owns its listener on one shard; `curl` is placed round-robin,
    // so repeated fetches exercise the remote `connect` handshake and
    // cross-shard socket reads/writes.
    let kernel = boot_full(4);
    let _server = kernel
        .spawn("/usr/bin/httpd", &["httpd", "--max-requests", "4"], &[])
        .unwrap();
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));
    for _ in 0..4 {
        let handle = kernel
            .spawn(
                "/usr/bin/curl",
                &[
                    "curl",
                    &format!("http://localhost:{}/hello.txt", browsix_apps::HTTPD_PORT),
                ],
                &[],
            )
            .unwrap();
        let status = handle.wait_timeout(Duration::from_secs(30)).expect("curl must finish");
        assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
        assert!(
            handle.stdout_string().contains("hello from the vfs"),
            "body: {}",
            handle.stdout_string()
        );
    }
    kernel.shutdown();
}

#[test]
fn an_accepted_connection_serves_from_a_child_on_another_shard() {
    // inetd-style: the listener accepts and hands the connection to a handler
    // as its stdin and stdout.  Round-robin placement puts the listener on
    // shard 0, the client on shard 1 and the handler on shard 2 — a shard
    // that neither owns the connection's streams nor made the connection, so
    // all it knows about the socket is what the description says.
    const PORT: u16 = 7000;
    let config = BootConfig::in_memory().with_shards(4);
    let register = |name: &'static str, main: fn(&mut dyn RuntimeEnv) -> i32| {
        let launcher = NodeLauncher::new(name, guest(name, main)).with_profile(instant_async());
        config
            .registry
            .register(&format!("/usr/bin/{name}"), Arc::new(launcher));
    };
    register("inetd", |env| {
        let listener = env.socket().unwrap();
        env.bind(listener, PORT).unwrap();
        env.listen(listener, 4).unwrap();
        let connection = env.accept(listener).unwrap();
        let stdio = SpawnStdio {
            stdin: Some(connection),
            stdout: Some(connection),
            stderr: None,
        };
        let handler = env.spawn("/usr/bin/handler", &["handler".to_owned()], stdio).unwrap();
        env.close(connection).unwrap();
        env.wait(handler as i32).unwrap().exit_code.unwrap_or(9)
    });
    register("handler", |env| match env.read(0, 64) {
        Ok(line) if env.write(1, &line) == Ok(line.len()) => 0,
        Ok(_) => 2,
        Err(errno) => {
            env.eprint(&format!("handler: read: {errno:?}\n"));
            3
        }
    });
    register("client", |env| {
        let socket = env.socket().unwrap();
        env.connect(socket, PORT).unwrap();
        assert_eq!(env.write(socket, b"ping\n"), Ok(5));
        let mut echoed = Vec::new();
        loop {
            let chunk = env.read(socket, 64).unwrap();
            if chunk.is_empty() {
                break;
            }
            echoed.extend_from_slice(&chunk);
        }
        env.print(&String::from_utf8_lossy(&echoed));
        0
    });
    let kernel = Kernel::boot(config);
    let baseline = kernel.resources();
    let server = kernel.spawn("/usr/bin/inetd", &["inetd"], &[]).unwrap();
    assert!(kernel.wait_for_port(PORT, Duration::from_secs(10)));
    let client = kernel.spawn("/usr/bin/client", &["client"], &[]).unwrap();
    assert_eq!(
        [server.pid, client.pid].map(|pid| shard_of(pid, 4)),
        [0, 1],
        "the handler is the third spawn, so it lands on shard 2"
    );
    let status = client
        .wait_timeout(Duration::from_secs(30))
        .expect("the client must see the handler's end of the connection close");
    assert_eq!(status.code, Some(0), "stderr: {}", client.stderr_string());
    assert_eq!(client.stdout_string(), "ping\n");
    let status = server.wait_timeout(Duration::from_secs(30)).expect("inetd must exit");
    assert_eq!(status.code, Some(0), "handler: {}", server.stderr_string());
    // Both streams went with the last of the three descriptions on them.
    await_resources(&kernel, baseline, "after the exchange");
    kernel.shutdown();
}

// ---- multi-shard vs single-shard oracle -------------------------------------

/// Runs `command` through the shell on a fresh kernel with `shards` shards
/// (with `input` staged at `/input.txt`) and returns `(exit code, stdout)`.
fn run_sharded(shards: usize, input: &str, command: &str) -> (Option<i32>, String) {
    let kernel = boot_full(shards);
    kernel.fs().write_file("/input.txt", input.as_bytes()).unwrap();
    let handle = kernel.spawn("/bin/sh", &["sh", "-c", command], &[]).unwrap();
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .unwrap_or_else(|| panic!("command `{command}` hung under {shards} shards"));
    let out = handle.stdout_string();
    kernel.shutdown();
    (status.code, out)
}

/// One deterministic pipeline stage (no stage prints pids or timestamps, so
/// output depends only on input bytes — never on placement).
fn stage_command(stage: &(u8, u8)) -> String {
    match stage.0 % 5 {
        0 => "cat".to_owned(),
        1 => format!("head -n {}", stage.1 % 16 + 1),
        2 => format!("tail -n {}", stage.1 % 16 + 1),
        3 => "sort".to_owned(),
        _ => "wc -l".to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The behavioral oracle of the shard refactor: a random pipeline of
    /// spawns, pipes, an optional SIGPIPE-inducing truncation and process
    /// exits must produce byte-identical output (FIFO order preserved, every
    /// stage completing exactly once) on a 4-shard kernel and on the
    /// single-shard oracle.
    #[test]
    fn random_pipelines_match_the_single_shard_oracle(
        lines in proptest::collection::vec("[a-z]{1,12}", 1..24),
        stages in proptest::collection::vec((0u8..=255, 0u8..=255), 0..3),
        truncate in 0u8..16,
    ) {
        let input = lines.join("\n") + "\n";
        // Either a bounded source (`cat /input.txt`) or an infinite one that
        // a `head` stage truncates — the latter forces an EPIPE/SIGPIPE on
        // whichever shard the producer landed on.
        let mut command = if truncate < 8 {
            "cat /input.txt".to_owned()
        } else {
            format!("yes | head -n {}", truncate - 7)
        };
        for stage in &stages {
            command.push_str(" | ");
            command.push_str(&stage_command(stage));
        }
        let oracle = run_sharded(1, &input, &command);
        let sharded = run_sharded(4, &input, &command);
        prop_assert_eq!(&oracle, &sharded, "command: {}", command);
    }
}
