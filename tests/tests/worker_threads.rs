//! No worker thread outlives its kernel.  Each kernel loop keeps a pool of
//! threads its processes run on; `shutdown` ends the loop and with it the
//! pool, so the idle threads exit, and so does the thread of a process still
//! running then, once its script has unwound.
//!
//! The test reads thread names in `/proc`, so it is Linux only, and it is a
//! binary of its own so that no other test's threads share its process.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_browser::worker::{IDLE_WORKERS_KEPT, WORKER_THREAD_NAME};
use browsix_core::{BootConfig, Kernel};
use browsix_runtime::{guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, RuntimeEnv, SyscallConvention};

/// How many threads of this process carry the worker thread name.
fn worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == WORKER_THREAD_NAME)
        .count()
}

#[test]
fn no_worker_thread_outlives_a_shut_down_kernel() {
    let config = BootConfig::in_memory();
    let profile = ExecutionProfile::instant(SyscallConvention::Sync);
    let quick = guest("quick", |_: &mut dyn RuntimeEnv| 3);
    let parked = guest("parked", |env: &mut dyn RuntimeEnv| {
        let Ok((r, _w)) = env.pipe() else {
            return 2;
        };
        let _ = env.read(r, 1);
        3
    });
    for (name, program) in [("quick", quick), ("parked", parked)] {
        let launcher = EmscriptenLauncher::new(name, program, EmscriptenMode::AsmJs).with_profile(profile.clone());
        config
            .registry
            .register(&format!("/usr/bin/{name}"), Arc::new(launcher));
    }
    let kernel = Kernel::boot(config);

    // One process still running at shutdown, parked first so that its
    // thread is busy, and then more processes than the pool keeps idle: they
    // need a thread of their own, which stays idle once they are done.  (The
    // quick ones alone may all run one after another on one thread.)
    let _parked = kernel.spawn("/usr/bin/parked", &["parked"], &[]).expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(10);
    while kernel.resources().waiters < 1 {
        assert!(Instant::now() < deadline, "the parked process never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    let quick: Vec<_> = (0..IDLE_WORKERS_KEPT + 2)
        .map(|_| kernel.spawn("/usr/bin/quick", &["quick"], &[]).expect("spawn"))
        .collect();
    for handle in quick {
        assert_eq!(handle.wait().code, Some(3), "pid {}", handle.pid);
    }
    assert!(worker_threads() >= 2, "the kernel runs no worker threads");

    kernel.shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while worker_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} worker threads outlived the kernel",
            worker_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
