//! End-to-end tests for the readiness stack: per-resource wait queues,
//! `poll`, `O_NONBLOCK`, EPIPE/SIGPIPE delivery, and the `httpd` guest
//! multiplexing many concurrent connections through one poll loop.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use browsix_core::{BootConfig, Errno, Kernel, Signal};
use browsix_fs::{FileSystem, OpenFlags};
use browsix_http::{HttpRequest, Method};
use browsix_runtime::{
    guest, ExecutionProfile, NodeLauncher, PollFd, RuntimeEnv, SpawnStdio, SyscallConvention, POLLHUP, POLLIN, POLLOUT,
};

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// Boots a kernel with the shell, the coreutils and `httpd` registered, and
/// the httpd document root staged.
fn boot_full() -> Kernel {
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant_async())),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant_async());
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    kernel
}

fn boot_with(name: &'static str, program: browsix_runtime::GuestFactory) -> Kernel {
    let config = BootConfig::in_memory();
    config.registry.register(
        &format!("/usr/bin/{name}"),
        Arc::new(NodeLauncher::new(name, program).with_profile(instant_async())),
    );
    Kernel::boot(config)
}

// ---- O_NONBLOCK and poll semantics ------------------------------------------

#[test]
fn nonblocking_pipe_reads_and_writes_return_eagain() {
    let kernel = boot_with(
        "nonblock",
        guest("nonblock", |env: &mut dyn RuntimeEnv| {
            let (r, w) = env.pipe().unwrap();
            env.set_nonblocking(r, true).unwrap();
            env.set_nonblocking(w, true).unwrap();

            // Empty pipe, writer open: read would block -> EAGAIN.
            assert_eq!(env.read(r, 16).unwrap_err(), Errno::EAGAIN);

            // Data makes it readable again.
            assert_eq!(env.write(w, b"ping").unwrap(), 4);
            assert_eq!(env.read(r, 16).unwrap(), b"ping");

            // Fill the pipe with non-blocking writes until EAGAIN; the total
            // accepted must be exactly the pipe capacity (64 KiB).
            let chunk = vec![7u8; 8 * 1024];
            let mut accepted = 0usize;
            loop {
                match env.write(w, &chunk) {
                    Ok(n) => accepted += n,
                    Err(Errno::EAGAIN) => break,
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
            assert_eq!(accepted, 64 * 1024);

            // poll agrees: full pipe is readable but not writable.
            let mut pfds = [PollFd::readable(r), PollFd::writable(w)];
            assert_eq!(env.poll(&mut pfds, 0).unwrap(), 1);
            assert_eq!(pfds[0].revents, POLLIN);
            assert_eq!(pfds[1].revents, 0);

            // Draining restores writability.
            while !env.read(r, 64 * 1024).unwrap().is_empty() {
                if env.read(r, 1).unwrap_err() == Errno::EAGAIN {
                    break;
                }
            }
            let mut pfds = [PollFd::writable(w)];
            assert_eq!(env.poll(&mut pfds, 0).unwrap(), 1);
            assert_eq!(pfds[0].revents, POLLOUT);

            // splice out of the empty pipe would block: EAGAIN.
            let (_r2, w2) = env.pipe().unwrap();
            assert_eq!(env.splice(r, w2, 16).unwrap_err(), Errno::EAGAIN);

            // sendfile into it moves what fits and reports that count; the
            // next call, into the full pipe, gets EAGAIN.
            let blob = vec![3u8; 96 * 1024];
            env.write_file("/blob.bin", &blob).unwrap();
            let file = env.open("/blob.bin", OpenFlags::read_only()).unwrap();
            assert_eq!(env.sendfile(w, file, 0, 96 * 1024).unwrap(), 64 * 1024);
            assert_eq!(env.sendfile(w, file, 64 * 1024, 32 * 1024).unwrap_err(), Errno::EAGAIN);
            0
        }),
    );
    let before = kernel.stats().eagain_returns;
    let handle = kernel.spawn("/usr/bin/nonblock", &["nonblock"], &[]).unwrap();
    let status = handle.wait();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    // Five calls got EAGAIN — the first read, the write into the full pipe,
    // the read that found it drained, the splice and the second sendfile —
    // and each counts once; the partial sendfile and the zero-timeout polls
    // answer without one.
    assert_eq!(kernel.stats().eagain_returns - before, 5);
    kernel.shutdown();
}

#[test]
fn poll_blocks_until_timeout_and_reports_zero_ready() {
    let kernel = boot_with(
        "polltimeout",
        guest("polltimeout", |env: &mut dyn RuntimeEnv| {
            let (r, _w) = env.pipe().unwrap();
            let mut pfds = [PollFd::readable(r)];
            // Nothing will ever arrive: the 50 ms timeout must fire with no
            // descriptor ready.
            let ready = env.poll(&mut pfds, 50).unwrap();
            assert_eq!(ready, 0);
            assert_eq!(pfds[0].revents, 0);
            0
        }),
    );
    let handle = kernel.spawn("/usr/bin/polltimeout", &["polltimeout"], &[]).unwrap();
    assert!(handle.wait().success());
    kernel.shutdown();
}

#[test]
fn poll_reports_hangup_when_the_writer_closes() {
    let kernel = boot_with(
        "pollhup",
        guest("pollhup", |env: &mut dyn RuntimeEnv| {
            let (r, w) = env.pipe().unwrap();
            env.close(w).unwrap();
            let mut pfds = [PollFd::readable(r)];
            assert_eq!(env.poll(&mut pfds, -1).unwrap(), 1);
            assert_eq!(pfds[0].revents, POLLHUP);
            // And the read immediately reports EOF.
            assert!(env.read(r, 16).unwrap().is_empty());
            0
        }),
    );
    let handle = kernel.spawn("/usr/bin/pollhup", &["pollhup"], &[]).unwrap();
    assert!(handle.wait().success());
    kernel.shutdown();
}

#[test]
fn nonblocking_accept_returns_eagain_and_full_backlog_refuses() {
    let kernel = boot_with(
        "sockready",
        guest("sockready", |env: &mut dyn RuntimeEnv| {
            let listener = env.socket().unwrap();
            env.bind(listener, 7100).unwrap();
            env.listen(listener, 1).unwrap();
            env.set_nonblocking(listener, true).unwrap();
            assert_eq!(env.accept(listener).unwrap_err(), Errno::EAGAIN);

            // First connect fills the single-slot backlog...
            let c1 = env.socket().unwrap();
            env.connect(c1, 7100).unwrap();
            // ...so a second is refused outright instead of parking forever.
            let c2 = env.socket().unwrap();
            assert_eq!(env.connect(c2, 7100).unwrap_err(), Errno::ECONNREFUSED);

            // The queued connection is pollable and acceptable.
            let mut pfds = [PollFd::readable(listener)];
            assert_eq!(env.poll(&mut pfds, 0).unwrap(), 1);
            assert_eq!(pfds[0].revents, POLLIN);
            assert!(env.accept(listener).is_ok());
            0
        }),
    );
    let handle = kernel.spawn("/usr/bin/sockready", &["sockready"], &[]).unwrap();
    let status = handle.wait();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    kernel.shutdown();
}

/// Boots a kernel with `program` at `/usr/bin/{name}` under a runtime that
/// can fork.
fn boot_forking(name: &'static str, program: browsix_runtime::GuestFactory) -> Kernel {
    use browsix_runtime::{EmscriptenLauncher, EmscriptenMode};
    let config = BootConfig::in_memory();
    let launcher = EmscriptenLauncher::new(name, program, EmscriptenMode::Emterpreter).with_profile(instant_async());
    config
        .registry
        .register(&format!("/usr/bin/{name}"), Arc::new(launcher));
    Kernel::boot(config)
}

/// A socket listening on `port`.
fn listen_on(env: &mut dyn RuntimeEnv, port: u16) -> Result<i32, Errno> {
    let listener = env.socket()?;
    env.bind(listener, port)?;
    env.listen(listener, 4)?;
    Ok(listener)
}

/// Reads one HTTP request from `conn`, answers it with `body` and closes it.
fn answer(env: &mut dyn RuntimeEnv, conn: i32, body: &str) -> Result<(), Errno> {
    let mut request = Vec::new();
    while !request.windows(4).any(|w| w == b"\r\n\r\n") {
        let chunk = env.read(conn, 4096)?;
        if chunk.is_empty() {
            return Err(Errno::ECONNRESET);
        }
        request.extend(chunk);
    }
    let response = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    env.write(conn, response.as_bytes())?;
    env.close(conn)
}

/// Runs the program at `/usr/bin/{name}` to completion and asserts it
/// exited 0.
fn expect_success(kernel: &Kernel, name: &str) {
    let handle = kernel.spawn(&format!("/usr/bin/{name}"), &[name], &[]).unwrap();
    let status = handle.wait_timeout(Duration::from_secs(30)).expect("the program hung");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
}

/// A listener stays open while any descriptor of it does: the child parked
/// in `accept` on the copy it inherited takes the connection its parent
/// makes after closing its own copy.
#[test]
fn accept_parked_on_a_listener_the_parent_closed_takes_the_next_connection() {
    let kernel = boot_forking(
        "closer",
        guest("closer", |env: &mut dyn RuntimeEnv| {
            if let Some(image) = env.fork_image() {
                // Child: block in accept on the inherited listener.
                let listener = image[0] as i32;
                return match env.accept(listener).and_then(|conn| env.read(conn, 2)) {
                    Ok(data) if data == b"hi" => 0,
                    other => {
                        env.eprint(&format!("child accept: {other:?}\n"));
                        1
                    }
                };
            }
            let listener = listen_on(env, 7200).unwrap();
            let child = env.fork(vec![listener as u8]).unwrap();
            // Give the child time to park in accept, then close this copy
            // of the shared description: the child's keeps the port open.
            std::thread::sleep(Duration::from_millis(100));
            env.close(listener).unwrap();
            let client = env.socket().unwrap();
            if let Err(e) = env.connect(client, 7200).and_then(|()| env.write(client, b"hi")) {
                env.eprint(&format!("parent connect: {e:?}\n"));
                return 2;
            }
            let waited = env.wait(child as i32).unwrap();
            waited.exit_code.unwrap_or(1)
        }),
    );
    expect_success(&kernel, "closer");
    kernel.shutdown();
}

/// `dup` a listener and close the original: the copy still accepts.
#[test]
fn a_dup_of_a_listener_accepts_after_the_original_closes() {
    let kernel = boot_forking(
        "dupper",
        guest("dupper", |env: &mut dyn RuntimeEnv| {
            if env.fork_image().is_some() {
                let client = env.socket().unwrap();
                return match env.connect(client, 7201).and_then(|()| env.write(client, b"hi")) {
                    Ok(2) => 0,
                    other => {
                        env.eprint(&format!("child connect: {other:?}\n"));
                        1
                    }
                };
            }
            let listener = listen_on(env, 7201).unwrap();
            env.dup2(listener, 10).unwrap();
            env.close(listener).unwrap();
            let child = env.fork(vec![0]).unwrap();
            let accepted = env.accept(10).and_then(|conn| env.read(conn, 2));
            let code = env.wait(child as i32).ok().and_then(|w| w.exit_code).unwrap_or(1);
            match accepted {
                Ok(data) if data == b"hi" => code,
                other => {
                    env.eprint(&format!("accept on the copy: {other:?}\n"));
                    2
                }
            }
        }),
    );
    expect_success(&kernel, "dupper");
    kernel.shutdown();
}

/// The pre-fork server: the parent listens, forks a worker and exits; the
/// worker's inherited descriptor keeps the port, and it answers the host.
#[test]
fn a_pre_forked_worker_serves_after_the_listening_parent_exits() {
    const PORT: u16 = 7202;
    let kernel = boot_forking(
        "prefork",
        guest("prefork", |env: &mut dyn RuntimeEnv| {
            if let Some(image) = env.fork_image() {
                let served = env
                    .accept(image[0] as i32)
                    .and_then(|conn| answer(env, conn, "from the worker"));
                return i32::from(served.is_err());
            }
            let listener = listen_on(env, PORT).unwrap();
            let worker = env.fork(vec![listener as u8]).unwrap();
            env.print(&format!("{worker}\n"));
            0
        }),
    );
    let parent = kernel.spawn("/usr/bin/prefork", &["prefork"], &[]).unwrap();
    let status = parent.wait_timeout(Duration::from_secs(30)).expect("the parent hung");
    assert_eq!(status.code, Some(0), "stderr: {}", parent.stderr_string());
    let worker = parent
        .stdout_string()
        .trim()
        .parse()
        .expect("the parent prints its worker");
    assert!(
        kernel.listening_ports().contains(&PORT),
        "the worker's copy keeps the port"
    );
    let response = kernel
        .http_request(PORT, HttpRequest::new(Method::Get, "/"), Duration::from_secs(10))
        .expect("the worker answers");
    assert_eq!(response.body, b"from the worker");
    kernel.wait(worker, Duration::from_secs(10)).expect("the worker exits");
    assert!(!kernel.listening_ports().contains(&PORT), "the last holder exited");
    kernel.shutdown();
}

/// `dup2` over the only descriptor of a listener closes it, as `close`
/// would: the port is free at once and can be listened on again.
#[test]
fn dup2_over_the_only_listener_descriptor_frees_its_port() {
    const PORT: u16 = 7203;
    const CONTROL: u16 = 7204;
    let kernel = boot_forking(
        "displacer",
        guest("displacer", |env: &mut dyn RuntimeEnv| {
            if env.fork_image().is_none() {
                let child = env.fork(vec![0]).unwrap();
                return env.wait(child as i32).ok().and_then(|w| w.exit_code).unwrap_or(1);
            }
            let listener = listen_on(env, PORT).unwrap();
            env.dup2(0, listener).unwrap();
            // Listening on a second port tells the host the first is
            // displaced; a request there asks for the port to be taken again.
            let control = listen_on(env, CONTROL).unwrap();
            let served = env.accept(control).and_then(|conn| {
                let relistened = listen_on(env, PORT).map(|_| ());
                answer(env, conn, &format!("{relistened:?}"))
            });
            i32::from(served.is_err())
        }),
    );
    let handle = kernel.spawn("/usr/bin/displacer", &["displacer"], &[]).unwrap();
    assert!(kernel.wait_for_port(CONTROL, Duration::from_secs(10)));
    assert!(
        !kernel.listening_ports().contains(&PORT),
        "dup2 displaced the last reference"
    );
    let response = kernel
        .http_request(CONTROL, HttpRequest::new(Method::Get, "/"), Duration::from_secs(10))
        .expect("the child answers");
    assert_eq!(
        String::from_utf8_lossy(&response.body),
        "Ok(())",
        "listening on the freed port again"
    );
    let status = handle.wait_timeout(Duration::from_secs(30)).expect("the program hung");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    kernel.shutdown();
}

/// By the time the host sees a killed server's exit, its port is free and
/// a request to it is refused.
#[test]
fn a_killed_servers_port_is_free_when_its_exit_is_seen() {
    const PORT: u16 = 7205;
    let kernel = boot_with(
        "server",
        guest("server", |env: &mut dyn RuntimeEnv| {
            let listener = listen_on(env, PORT).unwrap();
            loop {
                let _ = env.accept(listener);
            }
        }),
    );
    let server = kernel.spawn("/usr/bin/server", &["server"], &[]).unwrap();
    assert!(kernel.wait_for_port(PORT, Duration::from_secs(10)));
    kernel.kill(server.pid, Signal::SIGKILL).unwrap();
    server.wait_timeout(Duration::from_secs(10)).expect("the server dies");
    assert!(!kernel.listening_ports().contains(&PORT));
    let refused = kernel.http_request(PORT, HttpRequest::new(Method::Get, "/"), Duration::from_secs(10));
    assert_eq!(refused.unwrap_err(), Errno::ECONNREFUSED);
    kernel.shutdown();
}

// ---- EPIPE + SIGPIPE ---------------------------------------------------------

#[test]
fn blocked_writer_gets_sigpipe_when_the_reader_closes() {
    let config = BootConfig::in_memory();
    config.registry.register(
        "/usr/bin/gusher",
        Arc::new(
            NodeLauncher::new(
                "gusher",
                guest("gusher", |env: &mut dyn RuntimeEnv| {
                    // Write far more down stdout than the pipe holds so the
                    // write parks; when the parent closes the read end, the
                    // parked write must fail with EPIPE and SIGPIPE must
                    // kill us (no handler installed).
                    let payload = vec![b'x'; 256 * 1024];
                    let _ = env.write(1, &payload);
                    // Unreachable when SIGPIPE terminates the process.
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
                    // Read a little, then slam the door.
                    let first = env.read(r, 4096).unwrap();
                    assert!(!first.is_empty());
                    env.close(r).unwrap();
                    let waited = env.wait(child as i32).unwrap();
                    // Terminated by SIGPIPE, not a normal exit.
                    assert_eq!(waited.exit_code, None);
                    assert_eq!(waited.status & 0x7f, Signal::SIGPIPE.number());
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let kernel = Kernel::boot(config);
    let handle = kernel.spawn("/usr/bin/parent", &["parent"], &[]).unwrap();
    let status = handle.wait();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    kernel.shutdown();
}

#[test]
fn yes_head_pipeline_terminates_via_sigpipe() {
    let kernel = boot_full();
    // `yes` writes forever; `head -n 1` takes one line and exits, closing
    // the pipe's read end.  The blocked `yes` must then die of SIGPIPE and
    // the pipeline must finish with head's exit status.
    let handle = kernel.spawn("/bin/sh", &["sh", "-c", "yes | head -n 1"], &[]).unwrap();
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("pipeline must terminate (yes must be killed by SIGPIPE)");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    assert_eq!(handle.stdout_string(), "y\n");
    kernel.shutdown();
}

// ---- httpd -------------------------------------------------------------------

#[test]
fn httpd_serves_64_concurrent_connections_through_one_poll_loop() {
    const CLIENTS: usize = 64;
    let kernel = Arc::new(boot_full());
    let server = kernel
        .spawn(
            "/usr/bin/httpd",
            &["httpd", "--max-requests", &CLIENTS.to_string()],
            &[],
        )
        .unwrap();
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    // 64 clients connect simultaneously; every one must get the right body
    // back through the server's single poll loop.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let kernel = Arc::clone(&kernel);
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            let path = if i % 2 == 0 { "/hello.txt" } else { "/index.html" };
            let response = kernel
                .http_request(
                    browsix_apps::HTTPD_PORT,
                    HttpRequest::new(Method::Get, path),
                    Duration::from_secs(30),
                )
                .unwrap_or_else(|e| panic!("client {i} ({path}): {e}"));
            assert!(response.is_success());
            if i % 2 == 0 {
                assert_eq!(response.body, b"hello from the vfs\n");
            } else {
                assert!(response.body.starts_with(b"<html>"));
            }
        }));
    }
    for thread in threads {
        thread.join().unwrap();
    }

    // With --max-requests served, the server exits on its own.
    let status = server
        .wait_timeout(Duration::from_secs(10))
        .expect("httpd must exit after serving max-requests");
    assert_eq!(status.code, Some(0), "stderr: {}", server.stderr_string());

    // The whole exchange ran on wait queues: wakeups happened, and none of
    // the old rescan machinery exists to hide a lost one.
    let stats = kernel.stats();
    assert!(stats.count("poll") > 0, "httpd must actually poll");
    assert!(stats.wakeups > 0, "wait-queue wakeups must drive completion");
    assert!(stats.eagain_returns > 0, "non-blocking accept/read must hit EAGAIN");
    Arc::try_unwrap(kernel).expect("all clients done").shutdown();
}

#[test]
fn httpd_serves_shell_driven_concurrent_curl_clients() {
    let kernel = boot_full();
    let server = kernel
        .spawn("/usr/bin/httpd", &["httpd", "--max-requests", "8"], &[])
        .unwrap();
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    // Eight curls in the background, all racing, then `wait`: the shell-level
    // view of a concurrent client fleet.
    let script = (0..8)
        .map(|i| format!("curl http://localhost:8000/hello.txt -o /tmp/c{i} &"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\nwait\n";
    let shell = kernel.spawn("/bin/sh", &["sh", "-c", &script], &[]).unwrap();
    let status = shell
        .wait_timeout(Duration::from_secs(30))
        .expect("shell script must finish");
    assert_eq!(status.code, Some(0), "stderr: {}", shell.stderr_string());
    for i in 0..8 {
        assert_eq!(
            kernel.fs().read_file(&format!("/tmp/c{i}")).unwrap(),
            b"hello from the vfs\n",
            "curl client {i}"
        );
    }
    assert!(server.wait_timeout(Duration::from_secs(10)).is_some());
    kernel.shutdown();
}

/// The kernel's HTTP client is woken for each chunk of a streamed response
/// and takes every one: a retry that moved bytes is progress, so a whole
/// 1 MiB exchange counts no spurious wakeup.
#[test]
fn a_large_host_request_counts_no_spurious_wakeup() {
    const LEN: usize = 1 << 20;
    let kernel = boot_full();
    let body: Vec<u8> = (0..LEN).map(|i| (i % 253) as u8).collect();
    let path = format!("{}/large.bin", browsix_apps::HTTPD_ROOT);
    kernel.fs().write_file(&path, &body).unwrap();
    let server = kernel
        .spawn("/usr/bin/httpd", &["httpd", "--max-requests", "1"], &[])
        .unwrap();
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    let before = kernel.stats().spurious_wakeups;
    let response = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/large.bin"),
            Duration::from_secs(10),
        )
        .unwrap();
    let spurious = kernel.stats().spurious_wakeups - before;
    assert!(response.body == body, "the body arrives whole");
    // The scavenger retries every parked waiter after each event, and counts
    // each retry as spurious: the count means something only without it.
    if !cfg!(feature = "scavenger") {
        assert_eq!(spurious, 0, "spurious wakeups during one 1 MiB request");
    }
    assert!(server.wait_timeout(Duration::from_secs(10)).is_some());
    kernel.shutdown();
}

#[test]
fn httpd_serves_files_and_404s() {
    let kernel = boot_full();
    let _server = kernel
        .spawn("/usr/bin/httpd", &["httpd", "--max-requests", "3"], &[])
        .unwrap();
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    let ok = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/payload.bin"),
            Duration::from_secs(10),
        )
        .unwrap();
    assert!(ok.is_success());
    assert_eq!(ok.body.len(), 32 * 1024);

    let index = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/"),
            Duration::from_secs(10),
        )
        .unwrap();
    assert!(index.body.starts_with(b"<html>"));

    let missing = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/nope.txt"),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(missing.status, 404);
    kernel.shutdown();
}
