//! End-to-end tests for signals, process groups and job control: EINTR
//! interruption of parked system calls, SA_RESTART, sigprocmask pending
//! semantics, SIGTSTP/SIGCONT stop-and-continue with `WUNTRACED` wait
//! reporting, foreground-group routing of terminal signals (`Ctrl-C`),
//! SIGTTIN for background terminal reads, and the `kill`/`sleep`/`timeout`
//! utilities driving all of it through the shell.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::Terminal;
use browsix_core::{BootConfig, Errno, Kernel, SigAction, SigSet, Signal, SIG_BLOCK, SIG_UNBLOCK, WNOHANG, WUNTRACED};
use browsix_fs::FileSystem;
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SpawnStdio, SyscallConvention};

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// A kernel with the shell and all utilities (including `kill`, `sleep` and
/// `timeout`) registered.
fn boot_full() -> Kernel {
    browsix_apps::boot_standard_kernel(browsix_apps::default_config(), instant_async())
}

fn boot_with(name: &'static str, program: browsix_runtime::GuestFactory) -> Kernel {
    let config = BootConfig::in_memory();
    config.registry.register(
        &format!("/usr/bin/{name}"),
        Arc::new(NodeLauncher::new(name, program).with_profile(instant_async())),
    );
    Kernel::boot(config)
}

/// Polls `predicate` over the kernel's task table until it holds (or panics
/// after `timeout`).
fn wait_for_tasks<F: Fn(&[(u32, u32, String, String)]) -> bool>(kernel: &Kernel, timeout: Duration, predicate: F) {
    let deadline = Instant::now() + timeout;
    loop {
        let tasks = kernel.tasks();
        if predicate(&tasks) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out; tasks: {tasks:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---- EINTR: signals interrupt parked system calls ---------------------------

#[test]
fn signal_handler_interrupts_a_sleep_parked_task_with_eintr() {
    // The guest parks in a pure-timer poll (what `sleep` does); a SIGUSR1
    // with a handler installed must complete that poll with EINTR long
    // before the timer, and the signal must be visible to the process.
    let kernel = boot_with(
        "sleeper",
        guest("sleeper", |env: &mut dyn RuntimeEnv| {
            env.sigaction(Signal::SIGUSR1, SigAction::Handler { restart: false })
                .unwrap();
            env.print("ready\n");
            let started = Instant::now();
            match env.poll(&mut [], 30_000) {
                Err(Errno::EINTR) => {
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "EINTR should arrive promptly, not at the timer"
                    );
                    if env.pending_signals().contains(&Signal::SIGUSR1) {
                        5
                    } else {
                        6
                    }
                }
                other => {
                    env.eprint(&format!("unexpected poll result: {other:?}\n"));
                    1
                }
            }
        }),
    );
    let handle = kernel.spawn("/usr/bin/sleeper", &["sleeper"], &[]).unwrap();
    // Wait until the guest's poll is actually parked on a wait queue (the
    // parked-waiter counter is the only park in this kernel), so the signal
    // deterministically interrupts a blocked call rather than racing the
    // park.
    let deadline = Instant::now() + Duration::from_secs(5);
    while kernel.stats().waiters_parked == 0 {
        assert!(Instant::now() < deadline, "sleeper never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    kernel.kill(handle.pid, Signal::SIGUSR1).unwrap();
    let status = handle.wait();
    assert_eq!(status.code, Some(5), "stderr: {}", handle.stderr_string());
    kernel.shutdown();
}

#[test]
fn sa_restart_leaves_the_parked_call_running() {
    // With SA_RESTART the same signal must NOT interrupt the parked read:
    // the guest's blocked pipe read completes only when data arrives.
    let kernel = boot_with(
        "restart",
        guest("restart", |env: &mut dyn RuntimeEnv| {
            env.sigaction(Signal::SIGUSR1, SigAction::Handler { restart: true })
                .unwrap();
            let (r, w) = env.pipe().unwrap();
            let child = env
                .spawn(
                    "/usr/bin/restart-child",
                    &["restart-child".to_string()],
                    browsix_runtime::SpawnStdio {
                        stdout: Some(w),
                        ..Default::default()
                    },
                )
                .unwrap();
            env.close(w).unwrap();
            // The child signals us, then (much later on its clock) writes.
            // Under SA_RESTART our read survives the signal and returns the
            // data; without it we would see EINTR.
            let data = env.read(r, 64).unwrap();
            assert_eq!(data, b"payload");
            assert!(env.pending_signals().contains(&Signal::SIGUSR1));
            let _ = env.wait(child as i32);
            0
        }),
    );
    kernel.registry().register(
        "/usr/bin/restart-child",
        Arc::new(
            NodeLauncher::new(
                "restart-child",
                guest("restart-child", |env: &mut dyn RuntimeEnv| {
                    let parent = env.getppid();
                    env.kill(parent, Signal::SIGUSR1).unwrap();
                    // Give the signal time to reach the parked parent before
                    // the write completes the read.
                    let _ = env.poll(&mut [], 100);
                    env.print("payload");
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/restart", &["restart"], &[]).unwrap();
    let status = handle.wait();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    kernel.shutdown();
}

#[test]
fn sigprocmask_blocks_and_delivers_exactly_once() {
    // Block SIGUSR1, have a child send it three times, then unblock: the
    // handler must observe exactly one delivery (standard signals coalesce).
    let kernel = boot_with(
        "blocker",
        guest("blocker", |env: &mut dyn RuntimeEnv| {
            env.sigaction(Signal::SIGUSR1, SigAction::Handler { restart: false })
                .unwrap();
            let mut mask = SigSet::empty();
            mask.insert(Signal::SIGUSR1);
            env.sigprocmask(SIG_BLOCK, mask).unwrap();
            let my_pid = env.getpid();
            let child = env
                .spawn(
                    "/usr/bin/spammer",
                    &["spammer".to_string(), my_pid.to_string()],
                    Default::default(),
                )
                .unwrap();
            let waited = env.wait(child as i32).unwrap();
            assert_eq!(waited.exit_code, Some(0));
            // Nothing may have been delivered while blocked.
            assert!(env.pending_signals().is_empty());
            let old = env.sigprocmask(SIG_UNBLOCK, mask).unwrap();
            assert!(old.contains(Signal::SIGUSR1));
            // Exactly one delivery arrives with the unblock.
            let mut seen = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while seen.is_empty() && Instant::now() < deadline {
                seen.extend(env.pending_signals());
                let _ = env.poll(&mut [], 5);
            }
            seen.extend(env.pending_signals());
            assert_eq!(seen, vec![Signal::SIGUSR1], "exactly one delivery");
            0
        }),
    );
    kernel.registry().register(
        "/usr/bin/spammer",
        Arc::new(
            NodeLauncher::new(
                "spammer",
                guest("spammer", |env: &mut dyn RuntimeEnv| {
                    let target: u32 = env.args()[1].parse().unwrap();
                    for _ in 0..3 {
                        env.kill(target, Signal::SIGUSR1).unwrap();
                    }
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/blocker", &["blocker"], &[]).unwrap();
    let status = handle.wait();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    kernel.shutdown();
}

// ---- stop / continue and WUNTRACED ------------------------------------------

#[test]
fn wait4_reports_a_sigtstp_stopped_child_instead_of_hanging() {
    // Regression for the WUNTRACED satellite: a parent waiting with
    // WUNTRACED on a child stopped by SIGTSTP must get the stop status (and
    // must NOT hang forever); after SIGCONT + SIGKILL it reaps the real
    // termination status.  A stop that a SIGCONT withdrew before the parent
    // waited is not reported, and a SIGKILL of a stopped child is reported
    // instead of its stop.  The same at 1 and 4 shards, for forked children
    // (on their parent's shard) and spawned ones (placed on other shards
    // once there are 4).
    fn dawdle(env: &mut dyn RuntimeEnv) -> ! {
        loop {
            let _ = env.poll(&mut [], 1_000);
        }
    }
    for shards in [1, 4] {
        for how in ["fork", "spawn"] {
            let config = BootConfig::in_memory().with_shards(shards);
            let launcher =
                |name: &'static str, program| Arc::new(NodeLauncher::new(name, program).with_profile(instant_async()));
            config.registry.register(
                "/usr/bin/parent",
                launcher(
                    "parent",
                    guest("parent", |env: &mut dyn RuntimeEnv| {
                        if env.fork_image().is_some() {
                            dawdle(env);
                        }
                        let fork = env.args()[1] == "fork";
                        let start = |env: &mut dyn RuntimeEnv| {
                            if fork {
                                env.fork(b"child".to_vec()).unwrap()
                            } else {
                                env.spawn("/usr/bin/dawdler", &["dawdler".to_string()], Default::default())
                                    .unwrap()
                            }
                        };
                        let child = start(env);
                        env.kill(child, Signal::SIGTSTP).unwrap();
                        let stopped = env.wait_options(child as i32, WUNTRACED).unwrap().unwrap();
                        assert_eq!(stopped.pid, child);
                        assert_eq!(stopped.stop_signal(), Some(Signal::SIGTSTP));
                        assert_eq!(stopped.exit_code, None);
                        // The same stop is reported only once.
                        assert!(env.wait_options(child as i32, WUNTRACED | WNOHANG).unwrap().is_none());
                        env.kill(child, Signal::SIGCONT).unwrap();
                        env.kill(child, Signal::SIGKILL).unwrap();
                        let dead = env.wait(child as i32).unwrap();
                        assert_eq!(dead.term_signal(), Some(Signal::SIGKILL));

                        // Stopped and continued before the parent waits:
                        // nothing is left to report.
                        let child = start(env);
                        env.kill(child, Signal::SIGTSTP).unwrap();
                        env.kill(child, Signal::SIGCONT).unwrap();
                        assert!(env.wait_options(child as i32, WUNTRACED | WNOHANG).unwrap().is_none());
                        env.kill(child, Signal::SIGKILL).unwrap();
                        assert_eq!(env.wait(child as i32).unwrap().term_signal(), Some(Signal::SIGKILL));

                        // Stopped and then killed before the parent waits:
                        // the kill is reported, not the stop.
                        let child = start(env);
                        env.kill(child, Signal::SIGTSTP).unwrap();
                        env.kill(child, Signal::SIGKILL).unwrap();
                        let dead = env.wait_options(child as i32, WUNTRACED).unwrap().unwrap();
                        assert_eq!(dead.pid, child);
                        assert_eq!(dead.term_signal(), Some(Signal::SIGKILL));
                        assert_eq!(dead.stop_signal(), None);
                        0
                    }),
                ),
            );
            config.registry.register(
                "/usr/bin/dawdler",
                launcher("dawdler", guest("dawdler", |env: &mut dyn RuntimeEnv| dawdle(env))),
            );
            let kernel = Kernel::boot(config);
            let handle = kernel.spawn("/usr/bin/parent", &["parent", how], &[]).unwrap();
            let status = handle
                .wait_timeout(Duration::from_secs(20))
                .unwrap_or_else(|| panic!("{how}, {shards} shard(s): WUNTRACED wait4 never saw the stopped child"));
            assert_eq!(
                status.code,
                Some(0),
                "{how}, {shards} shard(s): stderr: {}",
                handle.stderr_string()
            );
            kernel.shutdown();
        }
    }
}

#[test]
fn sigcont_resumes_a_stopped_task_even_when_blocked() {
    // POSIX: SIGCONT resumes the process whether or not it is blocked,
    // ignored or caught — only the handler delivery obeys the mask.  A
    // stopped job that had blocked SIGCONT must still be resumable by `fg`.
    let kernel = boot_with(
        "cont-blocker",
        guest("cont-blocker", |env: &mut dyn RuntimeEnv| {
            let mut mask = SigSet::empty();
            mask.insert(Signal::SIGCONT);
            env.sigprocmask(SIG_BLOCK, mask).unwrap();
            env.print("ready\n");
            // Park until signalled around; exit 9 once we are back running.
            let _ = env.poll(&mut [], 2_000);
            9
        }),
    );
    let handle = kernel.spawn("/usr/bin/cont-blocker", &["cont-blocker"], &[]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.stdout_string().contains("ready") {
        assert!(Instant::now() < deadline, "guest never became ready");
        std::thread::sleep(Duration::from_millis(5));
    }
    kernel.kill(handle.pid, Signal::SIGSTOP).unwrap();
    wait_for_tasks(&kernel, Duration::from_secs(10), |tasks| {
        tasks
            .iter()
            .any(|(pid, _, _, state)| *pid == handle.pid && state == "stopped")
    });
    kernel.kill(handle.pid, Signal::SIGCONT).unwrap();
    let status = handle
        .wait_timeout(Duration::from_secs(20))
        .expect("a blocked SIGCONT must still resume the stopped task");
    assert_eq!(status.code, Some(9), "stderr: {}", handle.stderr_string());
    kernel.shutdown();
}

#[test]
fn a_stopped_ring_mapped_task_is_frozen_until_sigcont() {
    // A guest on the shared-memory rings writes an unbounded counter into a
    // pipe.  SIGSTOP must freeze it at its next system call exactly like a
    // guest on the message transport (whose frames the kernel stashes): the
    // submission queue is left untouched until SIGCONT, which drains it in
    // order.  Before the fix `drain_ring` only checked that the task was
    // alive, so a stopped ring guest ran on.
    use browsix_runtime::{EmscriptenLauncher, EmscriptenMode};
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/ring-counter",
        Arc::new(
            EmscriptenLauncher::new(
                "ring-counter",
                guest("ring-counter", |env: &mut dyn RuntimeEnv| {
                    let mut next: u64 = 0;
                    loop {
                        if env.write(1, format!("{next}\n").as_bytes()).is_err() {
                            return 1;
                        }
                        next += 1;
                        if next.is_multiple_of(64) && env.exists("/tmp/done") {
                            return 0;
                        }
                    }
                }),
                EmscriptenMode::AsmJs,
            )
            .with_profile(ExecutionProfile::instant(SyscallConvention::Sync)),
        ),
    );
    // `ring-counter | cat`, wired by hand: the shell would report the
    // stopped job and move on, and this pipeline has to outlive the stop.
    config.registry.register(
        "/usr/bin/pipeline",
        Arc::new(
            NodeLauncher::new(
                "pipeline",
                guest("pipeline", |env: &mut dyn RuntimeEnv| {
                    let (r, w) = env.pipe().unwrap();
                    let to_pipe = SpawnStdio {
                        stdout: Some(w),
                        ..SpawnStdio::default()
                    };
                    let from_pipe = SpawnStdio {
                        stdin: Some(r),
                        ..SpawnStdio::default()
                    };
                    let counter = env
                        .spawn("/usr/bin/ring-counter", &["ring-counter".to_owned()], to_pipe)
                        .unwrap();
                    let cat = env.spawn("/usr/bin/cat", &["cat".to_owned()], from_pipe).unwrap();
                    env.close(r).unwrap();
                    env.close(w).unwrap();
                    let counter = env.wait(counter as i32).unwrap();
                    let cat = env.wait(cat as i32).unwrap();
                    counter.exit_code.unwrap_or(99) + cat.exit_code.unwrap_or(99)
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant_async());
    let _ = kernel.fs().mkdir("/tmp");
    let handle = kernel.spawn("/usr/bin/pipeline", &["pipeline"], &[]).unwrap();

    let wait_until = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    wait_until("the counter is flowing", &|| handle.stdout().len() > 64);
    assert!(
        kernel.stats().sq_polled > 0,
        "the counter must be submitting over its ring"
    );
    let counter = kernel
        .tasks()
        .into_iter()
        .find(|(_, _, name, _)| name == "ring-counter")
        .expect("counter task")
        .0;

    kernel.kill(counter, Signal::SIGSTOP).unwrap();
    // `cat` may still be forwarding what was already in the pipe; once that
    // has drained, the output must stand still.
    let quiet_for = |span: Duration| {
        let start = Instant::now();
        let len = handle.stdout().len();
        while start.elapsed() < span {
            std::thread::sleep(Duration::from_millis(5));
            if handle.stdout().len() != len {
                return false;
            }
        }
        true
    };
    wait_until("the stopped counter's output stands still", &|| {
        quiet_for(Duration::from_millis(150))
    });
    let frozen_at = handle.stdout().len();
    assert!(
        kernel
            .tasks()
            .iter()
            .any(|(pid, _, _, state)| *pid == counter && state == "stopped"),
        "tasks: {:?}",
        kernel.tasks()
    );
    assert!(
        quiet_for(Duration::from_millis(300)),
        "a stopped ring guest made progress"
    );

    kernel.kill(counter, Signal::SIGCONT).unwrap();
    wait_until("the continued counter makes progress", &|| {
        handle.stdout().len() > frozen_at
    });
    kernel.fs().write_file("/tmp/done", b"").unwrap();
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("pipeline must finish once /tmp/done exists");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());

    // No entry lost or duplicated across the stop: 0, 1, 2, ... in order.
    let output = handle.stdout_string();
    let mut expected: u64 = 0;
    for line in output.lines() {
        assert_eq!(line.parse::<u64>().ok(), Some(expected), "after {expected} lines");
        expected += 1;
    }
    assert!(expected > 64 && expected.is_multiple_of(64), "lines: {expected}");
    kernel.shutdown();
}

#[test]
fn background_terminal_read_ignoring_sigttin_gets_eio() {
    // POSIX: a background reader that blocks or ignores SIGTTIN gets EIO
    // from the read instead of the signal (EINTR there would make a
    // retry-on-EINTR loop livelock).
    let kernel = boot_with(
        "eio-reader",
        guest("eio-reader", |env: &mut dyn RuntimeEnv| {
            env.sigaction(Signal::SIGTTIN, SigAction::Ignore).unwrap();
            let my_group = env.getpgid(0).unwrap();
            env.tcsetpgrp(my_group + 1000).unwrap();
            match env.read(0, 16) {
                Err(Errno::EIO) => 8,
                other => {
                    env.eprint(&format!("read: {other:?}\n"));
                    1
                }
            }
        }),
    );
    let handle = kernel.spawn("/usr/bin/eio-reader", &["eio-reader"], &[]).unwrap();
    let status = handle.wait();
    assert_eq!(status.code, Some(8), "stderr: {}", handle.stderr_string());
    kernel.shutdown();
}

#[test]
fn background_read_from_the_terminal_raises_sigttin_and_stops() {
    // A process whose group is not the foreground group reading from the
    // controlling terminal gets SIGTTIN; its default disposition stops the
    // process.  SIGCONT resumes it and lets it exit.
    let kernel = boot_with(
        "bg-reader",
        guest("bg-reader", |env: &mut dyn RuntimeEnv| {
            // Hand the foreground to some other (empty) group so we are a
            // background reader, then touch stdin.
            let my_group = env.getpgid(0).unwrap();
            env.tcsetpgrp(my_group + 1000).unwrap();
            match env.read(0, 16) {
                Err(Errno::EINTR) => 7,
                other => {
                    env.eprint(&format!("read: {other:?}\n"));
                    1
                }
            }
        }),
    );
    let handle = kernel.spawn("/usr/bin/bg-reader", &["bg-reader"], &[]).unwrap();
    wait_for_tasks(&kernel, Duration::from_secs(10), |tasks| {
        tasks
            .iter()
            .any(|(pid, _, _, state)| *pid == handle.pid && state == "stopped")
    });
    kernel.kill(handle.pid, Signal::SIGCONT).unwrap();
    let status = handle.wait();
    assert_eq!(status.code, Some(7), "stderr: {}", handle.stderr_string());
    kernel.shutdown();
}

// ---- the shell, the terminal and the utilities ------------------------------

#[test]
fn yes_piped_into_timeout_cat_terminates_via_sigterm() {
    // The acceptance scenario: an infinite producer feeding a `timeout`-
    // bounded consumer.  `timeout` SIGTERMs `cat` at the deadline, `yes`
    // dies of SIGPIPE once the last reader is gone, and the pipeline
    // reports 124 like coreutils.
    let mut term = Terminal::new(boot_full());
    let started = Instant::now();
    let result = term.run_line("yes | timeout 0.4 cat > /tmp/flood.txt").unwrap();
    assert_eq!(result.exit_code, 124, "stderr: {}", result.stderr);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "pipeline should terminate promptly"
    );
    // The flood actually flowed through the pipe before the deadline.
    let meta = term.kernel().fs().stat("/tmp/flood.txt").unwrap();
    assert!(meta.size > 0, "cat wrote nothing before being killed");
    term.drain(Duration::from_secs(5));
    term.into_kernel().shutdown();
}

#[test]
fn timeout_passes_through_a_fast_child_exit_code() {
    let mut term = Terminal::new(boot_full());
    let result = term.run_line("timeout 5 true").unwrap();
    assert_eq!(result.exit_code, 0, "stderr: {}", result.stderr);
    let result = term.run_line("timeout 5 false").unwrap();
    assert_eq!(result.exit_code, 1);
    // `sleep` itself: sub-second sleeps complete on the kernel timer.
    let started = Instant::now();
    let result = term.run_line("sleep 0.1").unwrap();
    assert_eq!(result.exit_code, 0);
    assert!(
        started.elapsed() >= Duration::from_millis(80),
        "sleep returned too early"
    );
    term.into_kernel().shutdown();
}

#[test]
fn ctrl_c_kills_only_the_foreground_pipeline() {
    // One shell runs a background `sleep` and a foreground `sleep`.  The
    // terminal's Ctrl-C (SIGINT to the foreground group) must kill the
    // foreground pipeline only: the shell carries on with the script and
    // the background job survives until killed explicitly.
    let term = Terminal::new(boot_full());
    let kernel = term.kernel();
    let handle = kernel
        .spawn(
            "/bin/sh",
            &[
                "sh",
                "-c",
                "sleep 30 &\nsleep 30\nFG=$?\nkill $!\nwait\necho after-interrupt $FG",
            ],
            &[],
        )
        .unwrap();
    // Wait for both sleeps to be running, then for the foreground group to
    // be established (interrupt() fails with ESRCH until tcsetpgrp ran).
    wait_for_tasks(kernel, Duration::from_secs(10), |tasks| {
        tasks
            .iter()
            .filter(|(_, _, name, state)| name == "sleep" && state == "running")
            .count()
            >= 2
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match term.interrupt() {
            Ok(()) => break,
            Err(Errno::ESRCH) => {
                assert!(Instant::now() < deadline, "foreground group never appeared");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("interrupt failed: {e}"),
        }
    }
    let status = handle
        .wait_timeout(Duration::from_secs(20))
        .expect("the shell should survive Ctrl-C and finish its script");
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    // The foreground sleep died of SIGINT (128 + 2); the background job was
    // still alive to be killed by the script's `kill $!`.
    assert_eq!(handle.stdout_string(), "after-interrupt 130\n");
    term.into_kernel().shutdown();
}

#[test]
fn ctrl_z_stops_the_foreground_job_and_fg_resumes_it() {
    // Ctrl-Z stops the foreground pipeline; the shell reports it as a
    // stopped job (via the WUNTRACED wait path) and `fg` resumes it to
    // completion.  This is the shell-level regression test for "wait4 on a
    // SIGTSTP-stopped child reports stop status instead of hanging".
    let term = Terminal::new(boot_full());
    let kernel = term.kernel();
    let handle = kernel
        .spawn(
            "/bin/sh",
            &["sh", "-c", "sleep 2\necho fg-status=$?\njobs\nfg %1\necho resumed=$?"],
            &[],
        )
        .unwrap();
    wait_for_tasks(kernel, Duration::from_secs(10), |tasks| {
        tasks
            .iter()
            .any(|(_, _, name, state)| name == "sleep" && state == "running")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match term.suspend() {
            Ok(()) => break,
            Err(Errno::ESRCH) => {
                assert!(Instant::now() < deadline, "foreground group never appeared");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("suspend failed: {e}"),
        }
    }
    let status = handle
        .wait_timeout(Duration::from_secs(20))
        .expect("the shell must get control back from a stopped foreground job");
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    let stdout = handle.stdout_string();
    // The stopped job yielded 128 + SIGTSTP(20); `jobs` lists it; `fg`
    // resumed it and the sleep finished normally.
    assert!(
        stdout.contains("fg-status=148"),
        "expected the stop status, got: {stdout}"
    );
    assert!(stdout.contains("[1]  Stopped  sleep 2"), "jobs output: {stdout}");
    assert!(stdout.contains("resumed=0"), "fg should resume to completion: {stdout}");
    let stderr = handle.stderr_string();
    assert!(stderr.contains("Stopped"), "the shell announces the stop: {stderr}");
    term.into_kernel().shutdown();
}

#[test]
fn background_jobs_bg_and_group_kill_through_the_shell() {
    // `&` creates a job, `kill -STOP $!` stops it, `jobs` reports it,
    // `bg` continues it, and a group-addressed `kill -- -PGID` (the first
    // member's pid is the pgid) terminates the whole pipeline.
    let mut term = Terminal::new(boot_full());
    let result = term
        .run_line(concat!(
            "sleep 30 | cat &\n",
            "kill -STOP $!\n",
            "jobs\n",
            "bg %1\n",
            "jobs\n",
            "kill -TERM $!\n",
            "echo done=$?"
        ))
        .unwrap();
    assert_eq!(result.exit_code, 0, "stderr: {}", result.stderr);
    assert!(
        result.stdout.contains("[1]  Stopped  sleep 30 | cat"),
        "jobs after stop: {}",
        result.stdout
    );
    assert!(
        result.stdout.contains("[1]  Running  sleep 30 | cat"),
        "jobs after bg: {}",
        result.stdout
    );
    assert!(result.stdout.contains("done=0"), "stdout: {}", result.stdout);
    // The `sleep 30` member (job leader) is still running in the background
    // when the shell exits; kill its whole group from the host side.
    let leader = term
        .ps()
        .into_iter()
        .find(|(_, _, name, _)| name == "sleep")
        .map(|(pid, ..)| pid);
    if let Some(pid) = leader {
        let _ = term.kernel().kill(pid, Signal::SIGKILL);
    }
    term.drain(Duration::from_secs(5));
    term.into_kernel().shutdown();
}

#[test]
fn kill_utility_terminates_a_background_sleep() {
    let mut term = Terminal::new(boot_full());
    let result = term.run_line("sleep 30 &\nkill $!\nwait\necho waited=$?").unwrap();
    assert_eq!(result.exit_code, 0, "stderr: {}", result.stderr);
    // `wait` observed the SIGTERM death: 128 + 15.
    assert!(result.stdout.contains("waited=143"), "stdout: {}", result.stdout);
    term.into_kernel().shutdown();
}

#[test]
fn negative_pid_kill_signals_the_whole_process_group() {
    // `kill(-pgid)` must reach every member of the group and nothing else.
    let kernel = boot_with(
        "leader",
        guest("leader", |env: &mut dyn RuntimeEnv| {
            let a = env
                .spawn("/usr/bin/member", &["member".to_string()], Default::default())
                .unwrap();
            let b = env
                .spawn("/usr/bin/member", &["member".to_string()], Default::default())
                .unwrap();
            // Move both children into a group led by the first.
            env.setpgid(a, a).unwrap();
            env.setpgid(b, a).unwrap();
            assert_eq!(env.getpgid(a).unwrap(), a);
            assert_eq!(env.getpgid(b).unwrap(), a);
            // We are NOT in that group; the group kill must spare us.
            assert_ne!(env.getpgid(0).unwrap(), a);
            env.kill_group(a, Signal::SIGKILL).unwrap();
            let first = env.wait(-1).unwrap();
            let second = env.wait(-1).unwrap();
            assert_eq!(first.term_signal(), Some(Signal::SIGKILL));
            assert_eq!(second.term_signal(), Some(Signal::SIGKILL));
            // A group with no members left reports ESRCH.
            assert_eq!(env.kill_group(a, Signal::SIGTERM), Err(Errno::ESRCH));
            0
        }),
    );
    kernel.registry().register(
        "/usr/bin/member",
        Arc::new(
            NodeLauncher::new(
                "member",
                guest("member", |env: &mut dyn RuntimeEnv| loop {
                    let _ = env.poll(&mut [], 1_000);
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/leader", &["leader"], &[]).unwrap();
    let status = handle.wait();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    kernel.shutdown();
}

#[test]
fn signal_stats_are_counted() {
    let kernel = boot_with(
        "shooter",
        guest("shooter", |env: &mut dyn RuntimeEnv| {
            let child = env
                .spawn("/usr/bin/victim", &["victim".to_string()], Default::default())
                .unwrap();
            env.kill(child, Signal::SIGKILL).unwrap();
            let waited = env.wait(child as i32).unwrap();
            assert_eq!(waited.term_signal(), Some(Signal::SIGKILL));
            0
        }),
    );
    kernel.registry().register(
        "/usr/bin/victim",
        Arc::new(
            NodeLauncher::new(
                "victim",
                guest("victim", |env: &mut dyn RuntimeEnv| loop {
                    let _ = env.poll(&mut [], 500);
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/shooter", &["shooter"], &[]).unwrap();
    assert!(handle.wait().success(), "stderr: {}", handle.stderr_string());
    let stats = kernel.stats();
    assert!(stats.signals_sent >= 1, "stats: {stats:?}");
    assert!(stats.signals_delivered >= 1, "stats: {stats:?}");
    assert!(stats.count("kill") >= 1);
    kernel.shutdown();
}
