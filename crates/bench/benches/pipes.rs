//! Criterion bench for pipe throughput between Browsix processes (part of
//! experiment E10): a bare producer → consumer pair, and 4 MiB through the
//! bundled `cat | tee | wc`, the shell pipeline `perfbench`'s `pipe_stream`
//! workload runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use browsix_apps::Terminal;
use browsix_core::{BootConfig, Kernel};
use browsix_fs::FileSystem;
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SpawnStdio, SyscallConvention};

const TRANSFER_BYTES: usize = 256 * 1024;
const BLOB_BYTES: usize = 4 << 20;

fn boot_pipe_kernel() -> Kernel {
    let config = BootConfig::in_memory();
    let profile = ExecutionProfile::instant(SyscallConvention::Async);
    config.registry.register(
        "/usr/bin/producer",
        Arc::new(
            NodeLauncher::new(
                "producer",
                guest("producer", |env: &mut dyn RuntimeEnv| {
                    let chunk = vec![42u8; 16 * 1024];
                    let mut sent = 0;
                    while sent < TRANSFER_BYTES {
                        sent += env.write(1, &chunk).unwrap_or(0);
                    }
                    0
                }),
            )
            .with_profile(profile.clone()),
        ),
    );
    config.registry.register(
        "/usr/bin/consumer",
        Arc::new(
            NodeLauncher::new(
                "consumer",
                guest("consumer", |env: &mut dyn RuntimeEnv| {
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
                    let mut received = 0;
                    loop {
                        let chunk = env.read(read_fd, 64 * 1024).unwrap_or_default();
                        if chunk.is_empty() {
                            break;
                        }
                        received += chunk.len();
                    }
                    let _ = env.wait(child as i32);
                    if received >= TRANSFER_BYTES {
                        0
                    } else {
                        1
                    }
                }),
            )
            .with_profile(profile),
        ),
    );
    Kernel::boot(config)
}

fn bench_pipes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipes");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .throughput(Throughput::Bytes(TRANSFER_BYTES as u64));
    group.bench_function("producer_to_consumer", |b| {
        b.iter(|| {
            let kernel = boot_pipe_kernel();
            let handle = kernel.spawn("/usr/bin/consumer", &["consumer"], &[]).unwrap();
            assert!(handle.wait().success());
            kernel.shutdown();
        })
    });

    // The data plane end to end: splice out of the page cache, two pipes,
    // a file written beside them, three processes that must overlap.  One
    // shard, delay-free platform, instant profiles: real time only.
    group.throughput(Throughput::Bytes(BLOB_BYTES as u64));
    let kernel = browsix_apps::boot_standard_kernel(
        browsix_apps::default_config().with_shards(1),
        ExecutionProfile::instant(SyscallConvention::Async),
    );
    // Incompressible and not valid UTF-8, like the bytes pipelines carry.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let blob: Vec<u8> = std::iter::repeat_with(|| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as u8
    })
    .take(BLOB_BYTES)
    .collect();
    kernel.fs().mkdir("/data").unwrap();
    kernel.fs().write_file("/data/blob.bin", &blob).unwrap();
    let mut terminal = Terminal::new(kernel);
    group.bench_function("cat_tee_wc_4m", |b| {
        // Only the command line is timed; checking its output is not.
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let _ = terminal.kernel().fs().unlink("/tmp/copy.bin");
                let start = Instant::now();
                let result = terminal
                    .run_line("cat /data/blob.bin | tee /tmp/copy.bin | wc -c")
                    .unwrap();
                total += start.elapsed();
                assert_eq!((result.exit_code, result.stdout.trim()), (0, "4194304"));
                assert!(terminal.kernel().fs().read_file("/tmp/copy.bin").unwrap() == blob);
            }
            total
        })
    });
    group.finish();
    terminal.into_kernel().shutdown();
}

criterion_group!(benches, bench_pipes);
criterion_main!(benches);
