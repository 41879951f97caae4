//! Criterion bench for the wait-queue subsystem: what one wakeup costs.
//!
//! The old kernel kept every blocked system call in one flat pending list
//! and re-tried the whole list on every kernel event — O(all blocked calls)
//! per wakeup.  The wait-queue design parks each blocked call on the queue
//! of exactly the resource it waits for, so delivering a wakeup costs
//! O(waiters on that one queue), independent of how many other calls are
//! blocked.
//!
//! * `wake_one_{1,256}` — deliver one wakeup through a [`WaitTable`] holding
//!   1 or 256 parked waiters (each on its own stream queue).  The two must
//!   cost the same: wakeup cost is independent of the blocked-waiter count.
//! * `rescan_{1,256}` — the same wakeup delivered the old way: scan every
//!   pending entry, probing its stream for readiness, to find the single
//!   ready one.  At 256 waiters this pays 256 stream probes per wakeup.
//! * `httpd_request` — end-to-end readiness: one HTTP request against the
//!   poll-driven `httpd` guest (accept, read, respond and drain, all via
//!   wait-queue wakeups and `O_NONBLOCK`).
//!
//! * `close_with_{8,128,1024}_tasks` — closing descriptors beside N resident
//!   tasks, each parked in `read` holding a pipe plus four dup'd descriptors
//!   (the `perfbench` `sh_crowded` shape).  One iteration is one short-lived
//!   process that creates and closes 1024 pipes in 32 batched submissions:
//!   3072 descriptor-lifecycle calls, enough that the spawn and exit around
//!   them (which do get a few hundred microseconds slower beside a thousand
//!   parked threads) stay a few percent of the iteration.  Endpoint counts
//!   are reference counts kept by the operations themselves, so none of
//!   that looks at the residents; when every close recounted every
//!   descriptor of every task, the 1024-task id was two orders of magnitude
//!   slower than the 8-task one.
//!
//! `scripts/bench_smoke.sh` asserts `wake_one_256` beats `rescan_256` by at
//! least 5x, and that `close_with_1024_tasks` costs at most 2x
//! `close_with_8_tasks`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use browsix_core::kernel::{WaitChannel, WaitTable};
use browsix_core::{StreamId, StreamTable};
use browsix_http::{HttpRequest, Method};
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SyscallConvention};

const WAITER_COUNTS: [usize; 2] = [1, 256];

fn bench_wakeup(c: &mut Criterion) {
    let mut group = c.benchmark_group("readiness");
    group.sample_size(10);

    for &n in &WAITER_COUNTS {
        // New design: the woken queue is found by key; everyone else stays
        // asleep untouched.
        group.bench_function(format!("wake_one_{n}"), |b| {
            let mut table: WaitTable<usize> = WaitTable::new();
            for i in 0..n {
                table.park(vec![WaitChannel::StreamReadable(i as u64)], i);
            }
            let target = WaitChannel::StreamReadable((n - 1) as u64);
            b.iter(|| {
                // Deliver many wakeups per sample so per-iteration cost
                // dominates the measurement noise.
                for _ in 0..1024 {
                    let woken = table.take_channel(target);
                    // The retried waiter re-parks (the still-blocked path),
                    // restoring the table for the next round.
                    for payload in woken {
                        table.park(vec![target], payload);
                    }
                }
            });
        });

        // Old design: one flat pending list, fully re-tried per event.  Each
        // entry's retry is a stream-table probe (exactly what the old
        // `poll_pending` did via `try_read_fd`).
        group.bench_function(format!("rescan_{n}"), |b| {
            let mut streams = StreamTable::new();
            let pending: Vec<StreamId> = (0..n).map(|_| streams.create()).collect();
            for &id in &pending {
                let stream = streams.get_mut(id).unwrap();
                stream.readers = 1;
                stream.writers = 1;
            }
            // Exactly one entry is ready, like one wakeup arriving.
            let ready = *pending.last().unwrap();
            streams.get_mut(ready).unwrap().push(b"x");
            b.iter(|| {
                for _ in 0..1024 {
                    let mut completed = 0usize;
                    for &id in &pending {
                        if streams.get(id).is_some_and(|s| s.read_ready()) {
                            // "Complete" the entry: consume and restore.
                            let data = streams.get_mut(id).unwrap().pop(1);
                            streams.get_mut(id).unwrap().push(&data);
                            completed += 1;
                        }
                    }
                    black_box(completed);
                }
            });
        });
    }
    group.finish();
}

/// Descriptor close beside N resident tasks: flat in N.
fn bench_close(c: &mut Criterion) {
    const PIPES_PER_BATCH: usize = 64;
    const BATCHES: usize = 16;
    let mut group = c.benchmark_group("readiness");
    group.sample_size(10);
    for residents in [8usize, 128, 1024] {
        let instant = ExecutionProfile::instant(SyscallConvention::Async);
        let config = browsix_core::BootConfig::in_memory().with_shards(1);
        let started = Arc::new(AtomicUsize::new(0));
        let resident = {
            let started = Arc::clone(&started);
            guest("resident", move |env: &mut dyn RuntimeEnv| {
                let (r, w) = env.pipe().expect("pipe");
                for (i, fd) in [r, w, r, w].into_iter().enumerate() {
                    env.dup2(fd, 20 + i as i32).expect("dup2");
                }
                started.fetch_add(1, Ordering::SeqCst);
                // The write end stays open right here: parked for good.
                let _ = env.read(r, 64);
                0
            })
        };
        let closer = guest("closer", |env: &mut dyn RuntimeEnv| {
            for _ in 0..BATCHES {
                let pipes = env.pipe_many(PIPES_PER_BATCH).expect("pipe_many");
                let fds: Vec<i32> = pipes.iter().flat_map(|&(r, w)| [r, w]).collect();
                env.close_many(&fds).expect("close_many");
            }
            0
        });
        config.registry.register(
            "/usr/bin/resident",
            Arc::new(NodeLauncher::new("resident", resident).with_profile(instant.clone())),
        );
        config.registry.register(
            "/usr/bin/closer",
            Arc::new(NodeLauncher::new("closer", closer).with_profile(instant)),
        );
        let kernel = browsix_core::Kernel::boot(config);
        let sink: browsix_core::OutputSink = Arc::new(|_: &[u8]| {});
        for _ in 0..residents {
            kernel
                .spawn_with_sinks(
                    "/usr/bin/resident",
                    &["resident"],
                    &[],
                    Arc::clone(&sink),
                    Arc::clone(&sink),
                )
                .expect("spawn resident");
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while started.load(Ordering::SeqCst) < residents || kernel.resources().waiters < residents {
            assert!(Instant::now() < deadline, "the residents never parked");
            std::thread::sleep(Duration::from_millis(2));
        }
        group.bench_function(format!("close_with_{residents}_tasks"), |b| {
            b.iter(|| {
                let status = kernel
                    .spawn("/usr/bin/closer", &["closer"], &[])
                    .expect("spawn closer")
                    .wait();
                assert_eq!(status.code, Some(0));
            });
        });
        assert!(
            kernel.resources().tasks >= residents,
            "the residents must still be there"
        );
        kernel.shutdown();
    }
    group.finish();
}

fn bench_httpd(c: &mut Criterion) {
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(
            NodeLauncher::new("httpd", browsix_apps::httpd_program())
                .with_profile(ExecutionProfile::instant(SyscallConvention::Async)),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, ExecutionProfile::instant(SyscallConvention::Async));
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    let server = kernel.spawn("/usr/bin/httpd", &["httpd"], &[]).expect("start httpd");
    assert!(
        kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)),
        "httpd did not start listening"
    );

    let mut group = c.benchmark_group("readiness");
    group.sample_size(10);
    group.bench_function("httpd_request", |b| {
        b.iter(|| {
            let response = kernel
                .http_request(
                    browsix_apps::HTTPD_PORT,
                    HttpRequest::new(Method::Get, "/hello.txt"),
                    Duration::from_secs(30),
                )
                .expect("httpd request");
            assert!(response.is_success());
            black_box(response.body.len());
        });
    });
    group.finish();

    let _ = kernel.kill(server.pid, browsix_core::Signal::SIGKILL);
    kernel.shutdown();
}

/// The zero-copy data path end-to-end: one request for the 32 KiB payload
/// file against `httpd` serving it over `sendfile` (page cache → socket,
/// bytes never entering the guest) versus the classic read-it-then-write-it
/// copy path (`--copy`).  Runs on the Chrome cost model so the copy path's
/// extra read/write round trips and its two structured clones of the body
/// are charged what they actually cost — on the delay-free test platform
/// the difference drowns in boot-to-boot noise.  `scripts/bench_smoke.sh`
/// asserts sendfile wins.
fn bench_httpd_payload(c: &mut Criterion) {
    use browsix_browser::PlatformConfig;
    let mut group = c.benchmark_group("readiness");
    group.sample_size(10);
    for (name, args) in [
        ("httpd_payload_sendfile", &["httpd"][..]),
        ("httpd_payload_copy", &["httpd", "--copy"][..]),
    ] {
        let config = browsix_apps::default_config().with_platform(PlatformConfig::chrome());
        config.registry.register(
            "/usr/bin/httpd",
            Arc::new(
                NodeLauncher::new("httpd", browsix_apps::httpd_program())
                    .with_profile(ExecutionProfile::instant(SyscallConvention::Async)),
            ),
        );
        let kernel = browsix_apps::boot_standard_kernel(config, ExecutionProfile::instant(SyscallConvention::Async));
        browsix_apps::stage_httpd_root(kernel.fs().as_ref());
        let server = kernel.spawn("/usr/bin/httpd", args, &[]).expect("start httpd");
        assert!(
            kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)),
            "httpd did not start listening"
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let response = kernel
                    .http_request(
                        browsix_apps::HTTPD_PORT,
                        HttpRequest::new(Method::Get, "/payload.bin"),
                        Duration::from_secs(30),
                    )
                    .expect("payload request");
                assert!(response.is_success());
                assert_eq!(response.body.len(), 32 * 1024);
                black_box(response.body.len());
            });
        });
        let _ = kernel.kill(server.pid, browsix_core::Signal::SIGKILL);
        kernel.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_wakeup, bench_close, bench_httpd, bench_httpd_payload);
criterion_main!(benches);
