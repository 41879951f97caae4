//! An idle kernel sleeps.  Three processes park for good — a ring reader on
//! an empty pipe, a message-transport reader on another, and a `poll` with no
//! timeout — and for one second neither a kernel thread nor a worker thread
//! may wake: the kernel loop waits for events, the ring client in
//! `Atomics.wait`, the message worker in its receive and the pooled thread a
//! finished process left behind on its channel, none with a timeout.
//!
//! The test counts context switches in `/proc`, so it is Linux only, and it
//! is a binary of its own so that no other test's threads share its process.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use browsix_browser::worker::WORKER_THREAD_NAME;
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

/// A guest that records the id of the thread it ran on and exits.
fn short(ran_on: Arc<Mutex<Option<String>>>) -> GuestFactory {
    guest("short", move |_env: &mut dyn RuntimeEnv| {
        let task = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
        let tid = task
            .file_name()
            .expect("<pid>/task/<tid>")
            .to_string_lossy()
            .into_owned();
        *ran_on.lock().unwrap() = Some(tid);
        0
    })
}

/// `voluntary_ctxt_switches` of every kernel and worker thread of this
/// process, by thread id and name.
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
        if thread.starts_with("browsix-kernel") || thread == WORKER_THREAD_NAME {
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
    let ran_on = Arc::new(Mutex::new(None));
    let launcher = EmscriptenLauncher::new("short", short(Arc::clone(&ran_on)), EmscriptenMode::AsmJs)
        .with_profile(ExecutionProfile::instant(SyscallConvention::Sync));
    config.registry.register("/usr/bin/short", Arc::new(launcher));
    let kernel = Kernel::boot(config);
    let handles: Vec<_> = guests
        .iter()
        .map(|(name, ..)| kernel.spawn(&format!("/usr/bin/{name}"), &[name], &[]).expect("spawn"))
        .collect();
    // Started while the others run, the short process gets a thread of its
    // own, which goes back to the kernel's pool when the process is reaped.
    let status = kernel
        .spawn("/usr/bin/short", &["short"], &[])
        .expect("spawn")
        .wait_timeout(Duration::from_secs(10));
    assert!(
        status.is_some_and(|status| status.success()),
        "the short process did not exit: {status:?}"
    );
    let pooled = format!(
        "{}/{WORKER_THREAD_NAME}",
        ran_on.lock().unwrap().clone().expect("a thread id")
    );
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
        after.len() > guests.len() + 1,
        "no kernel or worker thread found: {after:?}"
    );
    assert!(
        after.contains_key(&pooled),
        "the reaped process's thread {pooled} is not idle in the pool: {after:?}"
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
