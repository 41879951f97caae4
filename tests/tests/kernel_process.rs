//! End-to-end tests: kernel + runtime + guest programs running as real
//! Browsix processes in workers, over both system-call conventions.

use std::sync::Arc;
use std::time::Duration;

use browsix_core::kernel::shard::shard_of;
use browsix_core::{
    BootConfig, Errno, Fd, Kernel, SigAction, Signal, MAP_ANONYMOUS, MAP_PRIVATE, PAGE_SIZE, PROT_READ, PROT_WRITE,
};
use browsix_fs::{FileSystem, OpenFlags};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, NodeLauncher, PollFd, RuntimeEnv, SpawnStdio,
    SyscallConvention, POLLIN, POLLNVAL,
};

/// Boots a kernel with a single registered program and no injected delays.
fn boot_with(name: &'static str, launcher: Arc<dyn browsix_core::ProgramLauncher>) -> Kernel {
    let config = BootConfig::in_memory();
    config.registry.register(&format!("/usr/bin/{name}"), launcher);
    Kernel::boot(config)
}

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

fn boot_quick() -> Kernel {
    let quick = NodeLauncher::new("quick", guest("quick", |_: &mut dyn RuntimeEnv| 3)).with_profile(instant_async());
    boot_with("quick", Arc::new(quick))
}

/// Blocks until no task is left on any shard.
fn wait_until_no_task(kernel: &Kernel) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while kernel.resources().tasks > 0 {
        assert!(std::time::Instant::now() < deadline, "the processes never exited");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `Kernel::spawn` watches the exit from the spawn on, so a process that is
/// gone before anyone waits still reports its own status.
#[test]
fn a_spawned_process_reports_an_exit_that_precedes_the_wait() {
    let kernel = boot_quick();
    let handles: Vec<_> = (0..8)
        .map(|_| kernel.spawn("/usr/bin/quick", &["quick"], &[]).unwrap())
        .collect();
    wait_until_no_task(&kernel);
    for handle in handles {
        assert_eq!(handle.wait().code, Some(3), "pid {}", handle.pid);
    }
    kernel.shutdown();
}

/// The kernel keeps nothing of an exited process the host started: a watch
/// made after the exit gets the unknown-pid status, as for any pid that is
/// not live.
#[test]
fn an_exited_host_process_leaves_no_exit_record() {
    let kernel = boot_quick();
    let pids: Vec<_> = (0..8)
        .map(|_| {
            let sink: browsix_core::OutputSink = Arc::new(|_: &[u8]| {});
            kernel
                .spawn_with_sinks("/usr/bin/quick", &["quick"], &[], Arc::clone(&sink), sink)
                .unwrap()
        })
        .collect();
    wait_until_no_task(&kernel);
    for pid in pids {
        let late = kernel.wait(pid, Duration::from_secs(10)).expect("an answer at once");
        assert_eq!(late.code, Some(127), "pid {pid}");
    }
    kernel.shutdown();
}

#[test]
fn getrusage_reports_per_task_counters() {
    let launcher = NodeLauncher::new(
        "usage",
        guest("usage", |env: &mut dyn RuntimeEnv| {
            // A few syscalls so the counter has something to count.
            env.mkdir("/out").unwrap();
            env.getpid();
            let usage = env.getrusage().unwrap();
            assert!(usage.iter().any(|(k, _)| k == "maxrss"), "usage: {usage:?}");
            let syscalls = usage
                .iter()
                .find(|(k, _)| k == "syscalls")
                .map(|(_, v)| *v)
                .expect("a `syscalls` counter");
            // mkdir + getpid + the getrusage call itself were all dispatched
            // for this task before the counter was read.
            assert!(syscalls >= 3, "syscalls counter: {syscalls}");
            env.write_file("/out/usage.txt", syscalls.to_string().as_bytes())
                .unwrap();
            0
        }),
    )
    .with_profile(instant_async());
    let kernel = boot_with("usage", Arc::new(launcher));
    let handle = kernel.spawn("/usr/bin/usage", &["usage"], &[]).unwrap();
    let status = handle.wait();
    assert!(status.success(), "status: {status:?}");
    let reported: u64 = String::from_utf8(kernel.fs().read_file("/out/usage.txt").unwrap())
        .unwrap()
        .parse()
        .unwrap();
    assert!(reported >= 3);
    kernel.shutdown();
}

#[test]
fn node_process_writes_files_and_stdout() {
    let launcher = NodeLauncher::new(
        "writer",
        guest("writer", |env: &mut dyn RuntimeEnv| {
            env.mkdir("/out").unwrap();
            env.write_file("/out/result.txt", b"computed by a browsix process")
                .unwrap();
            env.print("done\n");
            0
        }),
    )
    .with_profile(instant_async());
    let kernel = boot_with("writer", Arc::new(launcher));
    let handle = kernel.spawn("/usr/bin/writer", &["writer"], &[]).unwrap();
    let status = handle.wait();
    assert!(status.success(), "status: {status:?}");
    assert_eq!(handle.stdout_string(), "done\n");
    assert_eq!(
        kernel.fs().read_file("/out/result.txt").unwrap(),
        b"computed by a browsix process"
    );
    kernel.shutdown();
}

#[test]
fn async_and_sync_conventions_produce_identical_results() {
    for mode in [EmscriptenMode::Emterpreter, EmscriptenMode::AsmJs] {
        let launcher = EmscriptenLauncher::new(
            "cprog",
            guest("cprog", |env: &mut dyn RuntimeEnv| {
                // Exercise a mix of calls: files, directories, metadata, seeks.
                env.mkdir("/work").unwrap();
                env.chdir("/work").unwrap();
                let fd = env.open("data.bin", OpenFlags::write_create_truncate()).unwrap();
                env.write(fd, &[7u8; 1000]).unwrap();
                env.close(fd).unwrap();
                let meta = env.stat("data.bin").unwrap();
                assert_eq!(meta.size, 1000);
                let fd = env.open("data.bin", OpenFlags::read_only()).unwrap();
                env.seek(fd, 990, 0).unwrap();
                let tail = env.read(fd, 100).unwrap();
                assert_eq!(tail.len(), 10);
                env.close(fd).unwrap();
                assert_eq!(env.getcwd(), "/work");
                let entries = env.readdir(".").unwrap();
                assert_eq!(entries.len(), 1);
                42
            }),
            mode,
        )
        .with_profile(ExecutionProfile::instant(match mode {
            EmscriptenMode::AsmJs => SyscallConvention::Sync,
            EmscriptenMode::Emterpreter => SyscallConvention::Async,
        }));
        let kernel = boot_with(
            "cprog",
            Arc::new(EmscriptenLauncher::new("cprog", guest("unused", |_| 0), mode)),
        );
        // Replace registration with the real launcher (constructed above).
        kernel.registry().register("/usr/bin/cprog", Arc::new(launcher));
        let handle = kernel.spawn("/usr/bin/cprog", &["cprog"], &[]).unwrap();
        let status = handle.wait();
        assert_eq!(status.code, Some(42), "mode {mode:?}");
        kernel.shutdown();
    }
}

#[test]
fn sync_convention_is_used_when_shared_memory_is_available() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/probe",
        Arc::new(
            EmscriptenLauncher::new(
                "probe",
                guest("probe", |env: &mut dyn RuntimeEnv| {
                    // Report which convention the runtime selected via the exit code.
                    match env.profile().convention {
                        SyscallConvention::Sync => 1,
                        SyscallConvention::Async => 2,
                        SyscallConvention::Direct => 3,
                    }
                }),
                EmscriptenMode::AsmJs,
            )
            .with_profile(ExecutionProfile {
                name: "probe",
                compute_ns_per_unit: 0,
                convention: SyscallConvention::Sync,
                inject_compute: false,
            }),
        ),
    );
    let handle = kernel.spawn("/usr/bin/probe", &["probe"], &[]).unwrap();
    assert_eq!(handle.wait().code, Some(1));
    let stats = kernel.stats();
    assert!(stats.sync_syscalls > 0, "expected synchronous syscalls, got {stats:?}");
    kernel.shutdown();
}

#[test]
fn pipes_connect_parent_and_child_processes() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/producer",
        Arc::new(
            NodeLauncher::new(
                "producer",
                guest("producer", |env: &mut dyn RuntimeEnv| {
                    env.print("line from producer\n");
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    kernel.registry().register(
        "/usr/bin/parent",
        Arc::new(
            NodeLauncher::new(
                "parent",
                guest("parent", |env: &mut dyn RuntimeEnv| {
                    let (read_fd, write_fd) = env.pipe().unwrap();
                    let child = env
                        .spawn(
                            "/usr/bin/producer",
                            &["producer".to_string()],
                            SpawnStdio {
                                stdout: Some(write_fd),
                                ..SpawnStdio::default()
                            },
                        )
                        .unwrap();
                    env.close(write_fd).unwrap();
                    let output = env.read(read_fd, 1024).unwrap();
                    let waited = env.wait(child as i32).unwrap();
                    assert_eq!(waited.exit_code, Some(0));
                    env.print(&format!("got: {}", String::from_utf8_lossy(&output)));
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/parent", &["parent"], &[]).unwrap();
    let status = handle.wait();
    assert!(status.success());
    assert_eq!(handle.stdout_string(), "got: line from producer\n");
    kernel.shutdown();
}

/// Buffered stdout reaches the kernel ahead of every other system call, so
/// output keeps program order whatever call comes next: a write to stderr
/// after `dup2(1, 2)`, or a `kill` that ends the process before its `exit`.
#[test]
fn buffered_stdout_goes_out_before_any_other_call() {
    let merged = |env: &mut dyn RuntimeEnv| {
        env.dup2(1, 2).unwrap();
        env.print("out\n");
        env.eprint("err\n");
        0
    };
    let doomed = |env: &mut dyn RuntimeEnv| {
        let me = env.getpid();
        env.print("last words\n");
        let _ = env.kill(me, Signal::SIGKILL);
        0
    };
    for mode in [EmscriptenMode::Emterpreter, EmscriptenMode::AsmJs] {
        let profile = ExecutionProfile::instant(match mode {
            EmscriptenMode::AsmJs => SyscallConvention::Sync,
            EmscriptenMode::Emterpreter => SyscallConvention::Async,
        });
        let config = BootConfig::in_memory();
        for (name, main) in [("merged", merged as fn(&mut dyn RuntimeEnv) -> i32), ("doomed", doomed)] {
            let launcher = EmscriptenLauncher::new(name, guest(name, main), mode).with_profile(profile.clone());
            config
                .registry
                .register(&format!("/usr/bin/{name}"), Arc::new(launcher));
        }
        let kernel = Kernel::boot(config);
        let handle = kernel.spawn("/usr/bin/merged", &["merged"], &[]).unwrap();
        assert_eq!(handle.wait().code, Some(0), "{mode:?}");
        assert_eq!(handle.stdout_string(), "out\nerr\n", "{mode:?}");
        let handle = kernel.spawn("/usr/bin/doomed", &["doomed"], &[]).unwrap();
        assert_eq!(handle.wait().signal, Some(Signal::SIGKILL), "{mode:?}");
        assert_eq!(handle.stdout_string(), "last words\n", "{mode:?}");
        kernel.shutdown();
    }
}

#[test]
fn sigkill_terminates_a_looping_process() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/spin",
        Arc::new(
            NodeLauncher::new(
                "spin",
                guest("spin", |env: &mut dyn RuntimeEnv| {
                    // Loop "forever", issuing syscalls so termination is observed.
                    for _ in 0..1_000_000 {
                        if env.stat("/").is_err() {
                            break;
                        }
                    }
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/spin", &["spin"], &[]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    kernel.kill(handle.pid, Signal::SIGKILL).unwrap();
    let status = handle.wait();
    assert_eq!(status.signal, Some(Signal::SIGKILL));
    assert_eq!(status.code, None);
    kernel.shutdown();
}

#[test]
fn sigterm_with_handler_is_caught_not_fatal() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/trap",
        Arc::new(
            NodeLauncher::new(
                "trap",
                guest("trap", |env: &mut dyn RuntimeEnv| {
                    env.sigaction(Signal::SIGTERM, SigAction::Handler { restart: false })
                        .unwrap();
                    env.print("ready\n");
                    // Poll for the signal at "syscall boundaries".
                    for _ in 0..500 {
                        if env.pending_signals().contains(&Signal::SIGTERM) {
                            env.print("caught sigterm\n");
                            return 5;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    1
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/trap", &["trap"], &[]).unwrap();
    // Wait for the handler to be installed before signalling.
    for _ in 0..200 {
        if handle.stdout_string().contains("ready") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    kernel.kill(handle.pid, Signal::SIGTERM).unwrap();
    let status = handle.wait();
    assert_eq!(status.code, Some(5));
    assert!(handle.stdout_string().contains("caught sigterm"));
    kernel.shutdown();
}

#[test]
fn fork_creates_a_child_with_the_parent_image() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/forker",
        Arc::new(
            EmscriptenLauncher::new(
                "forker",
                guest("forker", |env: &mut dyn RuntimeEnv| {
                    if let Some(image) = env.fork_image() {
                        // Child: resume from the snapshot.
                        env.write_file("/forked.txt", &image).unwrap();
                        return 0;
                    }
                    // Parent: snapshot state and fork.
                    let child = env.fork(b"state captured before fork".to_vec()).unwrap();
                    let waited = env.wait(child as i32).unwrap();
                    assert_eq!(waited.exit_code, Some(0));
                    7
                }),
                EmscriptenMode::Emterpreter,
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/forker", &["forker"], &[]).unwrap();
    let status = handle.wait();
    assert_eq!(status.code, Some(7));
    assert_eq!(
        kernel.fs().read_file("/forked.txt").unwrap(),
        b"state captured before fork"
    );
    kernel.shutdown();
}

/// A forked child gets its parent's descriptor table as it is: a descriptor
/// the parent closed is closed in the child too, not `/dev/null`.
#[test]
fn fork_leaves_a_descriptor_the_parent_closed_closed() {
    let forker = guest("forker", |env: &mut dyn RuntimeEnv| {
        if env.fork_image().is_some() {
            return match env.read(0, 1) {
                Err(browsix_core::Errno::EBADF) => 0,
                other => {
                    env.eprint(&format!("child read of fd 0: {other:?}\n"));
                    1
                }
            };
        }
        env.close(0).unwrap();
        let child = env.fork(b"closed".to_vec()).unwrap();
        env.wait(child as i32).ok().and_then(|w| w.exit_code).unwrap_or(2)
    });
    let launcher = EmscriptenLauncher::new("forker", forker, EmscriptenMode::Emterpreter).with_profile(instant_async());
    let kernel = boot_with("forker", Arc::new(launcher));
    let handle = kernel.spawn("/usr/bin/forker", &["forker"], &[]).unwrap();
    let status = handle.wait_timeout(Duration::from_secs(30)).expect("forker hung");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    kernel.shutdown();
}

#[test]
fn wait_reports_child_exit_codes_and_echild_when_no_children() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/failing",
        Arc::new(
            NodeLauncher::new("failing", guest("failing", |_env: &mut dyn RuntimeEnv| 3)).with_profile(instant_async()),
        ),
    );
    kernel.registry().register(
        "/usr/bin/waiter",
        Arc::new(
            NodeLauncher::new(
                "waiter",
                guest("waiter", |env: &mut dyn RuntimeEnv| {
                    assert_eq!(env.wait(-1).unwrap_err(), browsix_core::Errno::ECHILD);
                    let child = env
                        .spawn("/usr/bin/failing", &["failing".to_string()], SpawnStdio::inherit())
                        .unwrap();
                    let waited = env.wait(child as i32).unwrap();
                    assert_eq!(waited.exit_code, Some(3));
                    assert_eq!(waited.pid, child);
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/waiter", &["waiter"], &[]).unwrap();
    assert!(handle.wait().success());
    kernel.shutdown();
}

#[test]
fn kernel_stats_count_processes_and_syscalls() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/noop",
        Arc::new(
            NodeLauncher::new(
                "noop",
                guest("noop", |env: &mut dyn RuntimeEnv| {
                    let _ = env.getpid();
                    let _ = env.stat("/");
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/noop", &["noop"], &[]).unwrap();
    handle.wait();
    let stats = kernel.stats();
    assert!(stats.processes_spawned >= 1);
    assert!(stats.processes_exited >= 1);
    assert!(stats.count("getpid") >= 1);
    assert!(stats.count("stat") >= 1);
    assert!(stats.total_syscalls >= 3);
    kernel.shutdown();
}

/// The errors the calls that may park find before parking: each is the
/// call's answer at once, on both conventions, and the process goes on
/// making calls.
#[test]
fn parking_calls_answer_their_errors_without_parking() {
    type Call = fn(&mut dyn RuntimeEnv, Fd, Fd) -> Result<(), Errno>;
    let guest_main = |env: &mut dyn RuntimeEnv| {
        let me = env.getpid();
        let (r, w) = env.pipe().unwrap();
        let cases: [(&str, Call, Errno); 10] = [
            ("read", |env, _, _| env.read(99, 1).map(drop), Errno::EBADF),
            ("write", |env, _, _| env.write(99, b"x").map(drop), Errno::EBADF),
            ("accept", |env, _, _| env.accept(99).map(drop), Errno::EBADF),
            ("connect", |env, _, _| env.connect(99, 80), Errno::EBADF),
            (
                "sendfile",
                |env, _, _| env.sendfile(99, 98, -1, 1).map(drop),
                Errno::EBADF,
            ),
            ("splice", |env, _, _| env.splice(99, 98, 1).map(drop), Errno::EBADF),
            ("accept on a pipe", |env, r, _| env.accept(r).map(drop), Errno::ENOTSOCK),
            (
                "sendfile from a pipe",
                |env, r, w| env.sendfile(w, r, -1, 1).map(drop),
                Errno::EINVAL,
            ),
            (
                "splice into its own pipe",
                |env, r, w| env.splice(r, w, 1).map(drop),
                Errno::EINVAL,
            ),
            (
                "wait4 without children",
                |env, _, _| env.wait_options(-1, 0).map(drop),
                Errno::ECHILD,
            ),
        ];
        for (what, call, errno) in cases {
            assert_eq!(call(env, r, w), Err(errno), "{what}");
            assert_eq!(env.getpid(), me, "after {what}");
        }
        // A closed descriptor is POLLNVAL at once, even to a poll that
        // would wait forever.
        let closed = env.open("/closed", OpenFlags::write_create_truncate()).unwrap();
        env.close(closed).unwrap();
        let mut fds = [PollFd::new(closed, POLLIN)];
        assert_eq!(env.poll(&mut fds, -1), Ok(1));
        assert_eq!(fds[0].revents, POLLNVAL);
        assert_eq!(env.getpid(), me, "after poll");
        0
    };
    for mode in [EmscriptenMode::Emterpreter, EmscriptenMode::AsmJs] {
        let profile = ExecutionProfile::instant(match mode {
            EmscriptenMode::AsmJs => SyscallConvention::Sync,
            EmscriptenMode::Emterpreter => SyscallConvention::Async,
        });
        let launcher = EmscriptenLauncher::new("errors", guest("errors", guest_main), mode).with_profile(profile);
        let kernel = boot_with("errors", Arc::new(launcher));
        let handle = kernel.spawn("/usr/bin/errors", &["errors"], &[]).unwrap();
        assert_eq!(handle.wait().code, Some(0), "{mode:?}");
        assert_eq!(kernel.stats().waiters_parked, 0, "{mode:?}: a call parked");
        kernel.shutdown();
    }
}

/// Both conventions: an Emscripten guest in Emterpreter mode over messages,
/// and one in asm.js mode over the shared-memory ring.
fn each_convention() -> [(EmscriptenMode, ExecutionProfile); 2] {
    [
        (EmscriptenMode::Emterpreter, instant_async()),
        (
            EmscriptenMode::AsmJs,
            ExecutionProfile::instant(SyscallConvention::Sync),
        ),
    ]
}

/// A guest whose program panics exits like a Rust program whose `main`
/// panicked, with status 101, and what it printed before still arrives.
#[test]
fn a_guest_that_panics_exits_with_status_101() {
    let panics = guest("panics", |env: &mut dyn RuntimeEnv| {
        env.print("before\n");
        panic!("a guest fails (expected by this test)");
    });
    let node = NodeLauncher::new("panics", panics.clone()).with_profile(instant_async());
    let ring = EmscriptenLauncher::new("panics", panics, EmscriptenMode::AsmJs)
        .with_profile(ExecutionProfile::instant(SyscallConvention::Sync));
    let launchers: [(&str, Arc<dyn browsix_core::ProgramLauncher>); 2] =
        [("async", Arc::new(node)), ("sync", Arc::new(ring))];
    for (convention, launcher) in launchers {
        let kernel = boot_with("panics", launcher);
        let handle = kernel.spawn("/usr/bin/panics", &["panics"], &[]).unwrap();
        let status = handle
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("{convention}: the panicked guest never exited"));
        assert_eq!(status.code, Some(101), "{convention}");
        assert_eq!(handle.stdout_string(), "before\n", "{convention}");
        wait_until_no_task(&kernel);
        kernel.shutdown();
    }
}

/// `spawn` refuses an explicit stdio descriptor that is not open with
/// `EBADF`; an inherited slot whose descriptor is closed gets `/dev/null`.
#[test]
fn spawn_refuses_an_explicit_stdio_descriptor_that_is_not_open() {
    let reader = guest("reader", |env: &mut dyn RuntimeEnv| match env.read(0, 16) {
        Ok(data) if data.is_empty() => 0,
        other => {
            env.eprint(&format!("reader: read of fd 0 gave {other:?}\n"));
            1
        }
    });
    let parent = guest("parent", |env: &mut dyn RuntimeEnv| {
        let args = ["reader".to_string()];
        let closed = SpawnStdio {
            stdin: Some(57),
            ..SpawnStdio::default()
        };
        let explicit = env.spawn("/usr/bin/reader", &args, closed);
        env.close(0).unwrap();
        let inherited = env
            .spawn("/usr/bin/reader", &args, SpawnStdio::default())
            .and_then(|child| env.wait(child as i32))
            .map(|waited| waited.exit_code);
        env.print(&format!("{explicit:?} {inherited:?}\n"));
        0
    });
    for (mode, profile) in each_convention() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        for (name, program) in [("reader", reader.clone()), ("parent", parent.clone())] {
            let launcher = EmscriptenLauncher::new(name, program, mode).with_profile(profile.clone());
            kernel
                .registry()
                .register(&format!("/usr/bin/{name}"), Arc::new(launcher));
        }
        let handle = kernel.spawn("/usr/bin/parent", &["parent"], &[]).unwrap();
        let status = handle.wait_timeout(Duration::from_secs(30)).expect("parent hung");
        assert_eq!(status.code, Some(0), "{mode:?}: {}", handle.stderr_string());
        assert_eq!(
            handle.stdout_string(),
            "Err(EBADF) Ok(Some(0))\n",
            "{mode:?}: stderr: {}",
            handle.stderr_string()
        );
        kernel.shutdown();
    }
}

/// A new process is what it was asked to be, at one shard and at two: a
/// host-started one's environment is the boot defaults with the spawn's own
/// over them; a child `spawn` starts has its parent's environment and
/// working directory and its own argv, and at two shards lives on the other
/// one; a child `fork` starts has the same argv, environment and working
/// directory, and reads what its parent mapped before the fork.
#[test]
fn a_new_process_gets_its_environment_cwd_argv_and_mappings() {
    let specimen = guest("specimen", |env: &mut dyn RuntimeEnv| {
        let mut vars = env.env_vars();
        vars.sort();
        let describe =
            |env: &mut dyn RuntimeEnv, who: &str| format!("{who} {:?} {vars:?} {}", env.args(), env.getcwd());
        if let Some(image) = env.fork_image() {
            let addr = u64::from_le_bytes(image.try_into().unwrap());
            let mapped = env
                .vm_read(addr, 7)
                .map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
            let line = format!("{} {mapped:?}\n", describe(env, "fork"));
            env.print(&line);
            return 0;
        }
        if env.args().len() > 1 {
            let line = format!("{}\n", describe(env, "spawned"));
            env.print(&line);
            return 0;
        }
        env.mkdir("/work").unwrap();
        env.chdir("/work").unwrap();
        let line = format!("{}\n", describe(env, "parent"));
        env.print(&line);
        let args = ["specimen".to_string(), "spawned".to_string()];
        let spawned = env.spawn("/usr/bin/specimen", &args, SpawnStdio::default()).unwrap();
        let spawned_exit = env.wait(spawned as i32).unwrap().exit_code;
        let region = env
            .mmap(
                0,
                PAGE_SIZE as u64,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
            .unwrap();
        env.vm_write(region.addr, b"mapping").unwrap();
        let forked = env.fork(region.addr.to_le_bytes().to_vec()).unwrap();
        let forked_exit = env.wait(forked as i32).unwrap().exit_code;
        env.print(&format!("children {spawned} {spawned_exit:?} {forked_exit:?}\n"));
        0
    });
    for shards in [1, 2] {
        let config = BootConfig::in_memory()
            .with_shards(shards)
            .with_env("KEEP", "boot")
            .with_env("SWAP", "boot");
        let launcher = EmscriptenLauncher::new("specimen", specimen.clone(), EmscriptenMode::Emterpreter)
            .with_profile(instant_async());
        config.registry.register("/usr/bin/specimen", Arc::new(launcher));
        let kernel = Kernel::boot(config);
        let handle = kernel
            .spawn(
                "/usr/bin/specimen",
                &["specimen"],
                &[("SWAP", "spawn"), ("NEW", "spawn")],
            )
            .unwrap();
        let status = handle.wait_timeout(Duration::from_secs(30)).expect("specimen hung");
        assert_eq!(status.code, Some(0), "{shards} shard(s): {}", handle.stderr_string());
        // `HOME` and `PATH` are `BootConfig::in_memory`'s defaults.
        let vars =
            r#"[("HOME", "/home"), ("KEEP", "boot"), ("NEW", "spawn"), ("PATH", "/usr/bin:/bin"), ("SWAP", "spawn")]"#;
        let stdout = handle.stdout_string();
        let (expected, children) = stdout.rsplit_once("children ").expect("the parent's last line");
        assert_eq!(
            expected,
            format!(
                "parent [\"specimen\"] {vars} /work\n\
                 spawned [\"specimen\", \"spawned\"] {vars} /work\n\
                 fork [\"specimen\"] {vars} /work Ok(\"mapping\")\n"
            ),
            "{shards} shard(s)"
        );
        let (spawned, exits) = children.split_once(' ').unwrap();
        assert_eq!(exits, "Some(0) Some(0)\n", "{shards} shard(s)");
        let spawned: u32 = spawned.parse().unwrap();
        if shards > 1 {
            assert_ne!(
                shard_of(spawned, shards),
                shard_of(handle.pid, shards),
                "the spawned child shares its parent's shard"
            );
        }
        kernel.shutdown();
    }
}
