//! Criterion bench for the sharded kernel: does work spread across shards?
//!
//! * `httpd_rps_{1,2,4}shard` — the same fixed workload (eight `httpd`
//!   servers on ports 8000–8007, 16 requests per iteration issued by eight
//!   concurrent host clients) against kernels booted with 1, 2 and 4 event
//!   loops.  Round-robin spawn placement spreads the servers evenly over
//!   shards, so each listener's syscall traffic is handled by its own
//!   kernel thread.  The
//!   platform charges a 2 ms `postMessage` latency per kernel→worker
//!   message (slept on the posting shard thread, exactly like the real
//!   structured-clone hop this models), so a single event loop serializes
//!   the whole fleet's reply traffic while N shards overlap it — wall time
//!   per iteration is the inverse of requests-per-second.
//!   `scripts/bench_smoke.sh` asserts the 4-shard kernel is >= 2.5x the
//!   1-shard kernel on this workload.
//! * `cross_shard_pipe_pingpong` — protocol overhead, not scaling: a parent
//!   and its child land on different shards of a 2-shard kernel
//!   (round-robin placement makes consecutive spawns alternate), and every
//!   write/read round trip over their two pipes is a pair of `RemoteOp`
//!   `ShardMsg` exchanges plus a cross-shard wakeup.  Runs on the delay-free
//!   platform so the message passing itself is what's measured.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use browsix_browser::PlatformConfig;
use browsix_core::Kernel;
use browsix_http::{HttpRequest, Method};
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SpawnStdio, SyscallConvention};

/// Ports 8000..8007: one `httpd` listener per port — two per shard on the
/// 4-shard kernel.  Each guest serves requests sequentially, so two
/// listeners per shard keep every kernel thread saturated without letting a
/// single worker's serial request handling become the bottleneck.
const HTTPD_PORTS: [u16; 8] = [8000, 8001, 8002, 8003, 8004, 8005, 8006, 8007];
/// Host-side client threads issuing requests concurrently.
const CLIENTS: usize = 8;
/// Requests per client per iteration (16 total, 2 per listener).
const REQUESTS_PER_CLIENT: usize = 2;
/// Pipe round trips per `cross_shard_pipe_pingpong` iteration.
const PINGPONGS: usize = 16;

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// The Firefox cost model with the `postMessage` latency raised to 2 ms —
/// large enough that the posting thread sleeps (rather than spins) for the
/// bulk of each charge, so independent shard threads genuinely overlap
/// their message costs even on a single host core.
fn high_latency_platform() -> PlatformConfig {
    let mut platform = PlatformConfig::firefox();
    platform.post_message_latency = Duration::from_millis(2);
    platform
}

/// Boots a `shards`-shard kernel and starts one `httpd` per port in
/// [`HTTPD_PORTS`]; round-robin placement spreads the servers over shards.
fn boot_httpd_fleet(shards: usize) -> Kernel {
    let config = browsix_apps::default_config()
        .with_shards(shards)
        .with_platform(high_latency_platform());
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant_async())),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant_async());
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    for port in HTTPD_PORTS {
        kernel
            .spawn("/usr/bin/httpd", &["httpd", "--port", &port.to_string()], &[])
            .expect("start httpd");
        assert!(
            kernel.wait_for_port(port, Duration::from_secs(10)),
            "httpd did not start listening on {port}"
        );
    }
    kernel
}

/// Issues the fixed 16-request workload: [`CLIENTS`] host threads, each
/// walking the port list round-robin from a different offset so every
/// listener sees concurrent traffic.
fn drive_requests(kernel: &Kernel) {
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let port = HTTPD_PORTS[(client + i) % HTTPD_PORTS.len()];
                    let response = kernel
                        .http_request(
                            port,
                            HttpRequest::new(Method::Get, "/hello.txt"),
                            Duration::from_secs(30),
                        )
                        .expect("httpd request");
                    assert!(response.is_success());
                    black_box(response.body.len());
                }
            });
        }
    });
}

fn bench_httpd_rps(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharding");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let kernel = boot_httpd_fleet(shards);
        group.bench_function(format!("httpd_rps_{shards}shard"), |b| {
            b.iter(|| drive_requests(&kernel));
        });
        kernel.shutdown();
    }
    group.finish();
}

fn bench_pipe_pingpong(c: &mut Criterion) {
    // Delay-free platform: measure the cross-shard protocol, not modelled
    // browser latencies.
    let config = browsix_apps::default_config().with_shards(2);
    config.registry.register(
        "/usr/bin/echoer",
        Arc::new(
            NodeLauncher::new(
                "echoer",
                guest("echoer", |env: &mut dyn RuntimeEnv| {
                    // Echo stdin to stdout one message at a time until EOF.
                    loop {
                        let data = env.read(0, 4096).unwrap();
                        if data.is_empty() {
                            return 0;
                        }
                        env.write(1, &data).unwrap();
                    }
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    config.registry.register(
        "/usr/bin/pingpong",
        Arc::new(
            NodeLauncher::new(
                "pingpong",
                guest("pingpong", move |env: &mut dyn RuntimeEnv| {
                    // Spawned round-robin right after this parent, the child
                    // lands on the other shard of the 2-shard kernel: both
                    // pipes span shards, so each round trip below is a
                    // remote write + remote read in each direction.
                    let (their_stdin_r, their_stdin_w) = env.pipe().unwrap();
                    let (their_stdout_r, their_stdout_w) = env.pipe().unwrap();
                    let child = env
                        .spawn(
                            "/usr/bin/echoer",
                            &["echoer".to_string()],
                            SpawnStdio {
                                stdin: Some(their_stdin_r),
                                stdout: Some(their_stdout_w),
                                ..SpawnStdio::default()
                            },
                        )
                        .unwrap();
                    env.close(their_stdin_r).unwrap();
                    env.close(their_stdout_w).unwrap();
                    for i in 0..PINGPONGS {
                        let ping = format!("ping {i}\n");
                        env.write(their_stdin_w, ping.as_bytes()).unwrap();
                        let pong = env.read(their_stdout_r, 4096).unwrap();
                        assert_eq!(pong, ping.as_bytes());
                    }
                    env.close(their_stdin_w).unwrap();
                    env.close(their_stdout_r).unwrap();
                    env.wait(child as i32).unwrap();
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant_async());

    let mut group = c.benchmark_group("sharding");
    group.sample_size(10);
    group.bench_function("cross_shard_pipe_pingpong", |b| {
        b.iter(|| {
            let handle = kernel
                .spawn("/usr/bin/pingpong", &["pingpong"], &[])
                .expect("spawn pingpong");
            let status = handle
                .wait_timeout(Duration::from_secs(30))
                .expect("pingpong must finish");
            assert!(status.success(), "stderr: {}", handle.stderr_string());
        });
    });
    group.finish();
    kernel.shutdown();
}

criterion_group!(benches, bench_httpd_rps, bench_pipe_pingpong);
criterion_main!(benches);
