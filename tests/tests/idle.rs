//! An idle kernel sleeps.  Three processes park for good — a ring reader on
//! an empty pipe, a message-transport reader on another, and a `poll` with no
//! timeout — and for one second neither a kernel thread nor a worker thread
//! may wake: the kernel loop waits for events, the ring client in
//! `Atomics.wait` and the message worker in its receive, none with a timeout.
//!
//! The test counts context switches in `/proc`, so it is Linux only, and it
//! is a binary of its own so that no other test's threads share its process.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_core::{BootConfig, Kernel};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, PollFd, RuntimeEnv, SyscallConvention,
};

/// A guest that parks forever on a pipe only it holds both ends of.
fn parked(poll: bool) -> GuestFactory {
    guest("parked", move |env: &mut dyn RuntimeEnv| {
        let Ok((r, _w)) = env.pipe() else {
            return 2;
        };
        if poll {
            let _ = env.poll(&mut [PollFd::readable(r)], -1);
        } else {
            let _ = env.read(r, 1);
        }
        3
    })
}

/// `voluntary_ctxt_switches` of every kernel and worker thread of this
/// process, by thread id.
fn voluntary_switches() -> HashMap<String, u64> {
    let mut switches = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let Ok(status) = std::fs::read_to_string(task.expect("a task entry").path().join("status")) else {
            continue;
        };
        let field = |name: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(name))
                .map(str::trim)
                .unwrap_or_default()
                .to_owned()
        };
        let thread = field("Name:");
        if thread.starts_with("browsix-kernel") || thread.starts_with("worker-") {
            let count = field("voluntary_ctxt_switches:").parse().expect("a count");
            switches.insert(format!("{}/{thread}", field("Pid:")), count);
        }
    }
    switches
}

#[test]
fn parked_processes_and_the_kernel_sleep_through_an_idle_second() {
    let config = BootConfig::in_memory();
    let guests = [
        ("ring-reader", SyscallConvention::Sync, false),
        ("msg-reader", SyscallConvention::Async, false),
        ("ring-poller", SyscallConvention::Sync, true),
    ];
    for (name, convention, poll) in guests {
        let mode = match convention {
            SyscallConvention::Sync => EmscriptenMode::AsmJs,
            _ => EmscriptenMode::Emterpreter,
        };
        let launcher =
            EmscriptenLauncher::new(name, parked(poll), mode).with_profile(ExecutionProfile::instant(convention));
        config
            .registry
            .register(&format!("/usr/bin/{name}"), Arc::new(launcher));
    }
    let kernel = Kernel::boot(config);
    let handles: Vec<_> = guests
        .iter()
        .map(|(name, ..)| kernel.spawn(&format!("/usr/bin/{name}"), &[name], &[]).expect("spawn"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while kernel.resources().waiters < guests.len() {
        assert!(Instant::now() < deadline, "the guests never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The workers get from the kernel's park to their own sleep.
    std::thread::sleep(Duration::from_millis(200));

    let before = voluntary_switches();
    std::thread::sleep(Duration::from_secs(1));
    let after = voluntary_switches();

    assert!(
        after.len() > guests.len(),
        "no kernel or worker thread found: {after:?}"
    );
    let woke: Vec<(&String, u64)> = after
        .iter()
        .map(|(thread, &count)| (thread, count - before.get(thread).copied().unwrap_or(0)))
        .filter(|&(_, wakes)| wakes > 0)
        .collect();
    assert!(woke.is_empty(), "threads woke while idle: {woke:?}");
    for handle in &handles {
        assert!(handle.wait_timeout(Duration::ZERO).is_none(), "a parked guest exited");
    }
    kernel.shutdown();
}
