//! Layer probes: timed loops over one layer's public functions with
//! workload-shaped inputs (`P`), and short system-level runs whose spans are
//! read back (`T`).  Same code on every workload, so a per-layer number that
//! moves names the layer and nothing else.
//!
//! Each `P` probe reports the median of 5 batches of at least 10 ms.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::Terminal;
use browsix_browser::{
    Message, NetworkProfile, PlatformConfig, RemoteEndpoint, SharedArrayBuffer, StaticFiles, Worker, WorkerScope,
};
use browsix_core::kernel::waitq::{WaitChannel, WaitTable};
use browsix_core::ring::RING_REGION_BYTES;
use browsix_core::{
    AddressSpace, ByteSource, Completion, CompletionBatch, Kernel, Ring, RingGeometry, Stream, SysResult, Syscall,
    SyscallBatch, PAGE_SIZE, PROT_READ, PROT_WRITE,
};
use browsix_fs::{FileSystem, HttpFs, MemFs, Metadata, MountedFs, OpenFlags, OverlayFs, OverlayMode};
use browsix_http::{parse_request, parse_response, HttpRequest, HttpResponse, Method};
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SpawnStdio, SyscallConvention};

use crate::rng::Rng;
use crate::summary::median;
use crate::trace::{Span, Tracer};
use crate::workloads::httpd::HttpdWorkload;
use crate::workloads::{self, shell, sys, Workload};

const BATCHES: usize = 5;
const BATCH_FLOOR: Duration = Duration::from_millis(10);
const KIB: f64 = 1024.0;

/// Nanoseconds per call of `f`: doubles the iteration count until a batch
/// lasts [`BATCH_FLOOR`], then takes the median of [`BATCHES`] such batches.
fn ns_per_iter(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let batch = |iters: u64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    while batch(iters, &mut f) < BATCH_FLOOR {
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch(iters, &mut f).as_nanos() as f64 / iters as f64)
        .collect();
    median(&samples)
}

/// Every `P` and `T` per-layer metric, by name.
pub fn run_all(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    browser(&mut out);
    wire_and_ring(&mut out);
    kernel_structures(&mut out);
    file_systems(&mut out);
    http_shell_utils(&mut out, seed);
    host_api(&mut out, seed);
    runtimes(&mut out, seed);
    apps(&mut out, seed);
    out.insert("core.shard.pipe_pingpong_us", shard_pingpong_us());
    out
}

fn browser(out: &mut BTreeMap<&'static str, f64>) {
    let mut echo = Worker::spawn(
        &PlatformConfig::fast(),
        "echo",
        Box::new(|scope: WorkerScope| {
            while let Ok(msg) = scope.recv() {
                if scope.post_message(msg).is_err() {
                    break;
                }
            }
        }),
    );
    // The shape of an async syscall message: a small map around a frame.
    let msg = Message::map()
        .with("type", "syscall")
        .with("seq", 7i64)
        .with("payload", vec![0x42u8; 64]);
    out.insert(
        "browser.post_roundtrip_us",
        ns_per_iter(|| {
            echo.post_message(msg.clone()).expect("echo worker is alive");
            std::hint::black_box(echo.recv().expect("echo worker replies"));
        }) / 1e3,
    );
    echo.terminate_and_join();

    // Two threads hand a counter back and forth through Atomics.wait/notify:
    // word 0 carries pings, word 4 pongs; a negative ping stops the peer.
    let sab = SharedArrayBuffer::new(64);
    let peer = {
        let sab = sab.clone();
        std::thread::spawn(move || {
            let mut last = 0;
            loop {
                let _ = sab.wait(0, last, None);
                let now = sab.load_i32(0).expect("in bounds");
                if now == last {
                    continue;
                }
                if now < 0 {
                    return;
                }
                last = now;
                sab.store_and_notify(4, now).expect("in bounds");
            }
        })
    };
    let mut turn = 0;
    let hop_ns = ns_per_iter(|| {
        turn += 1;
        sab.store_and_notify(0, turn).expect("in bounds");
        while sab.load_i32(4).expect("in bounds") != turn {
            let _ = sab.wait(4, turn - 1, None);
        }
    }) / 2.0;
    sab.store_and_notify(0, -1).expect("in bounds");
    peer.join().expect("sab peer does not panic");
    out.insert("browser.sab_wait_notify_us", hop_ns / 1e3);

    let big = Message::map().with("completions", vec![7u8; 64 << 10]);
    out.insert(
        "browser.clone_ns_per_kib",
        ns_per_iter(|| {
            std::hint::black_box(big.structured_clone());
        }) / 64.0,
    );
}

/// A 64-entry submission shaped like the shell workloads' traffic, and the
/// completions a kernel would answer it with.
fn mixed_batches() -> (SyscallBatch, CompletionBatch) {
    let mut calls = SyscallBatch::new();
    let mut completions = Vec::new();
    let meta = Metadata {
        file_type: browsix_fs::FileType::Regular,
        size: 1234,
        mode: 0o640,
        mtime_ms: 1_700_000_000_000,
        atime_ms: 1_700_000_000_000,
    };
    for i in 0..sys::BATCH as u32 {
        let (call, result) = match i % 4 {
            0 => (
                Syscall::Stat {
                    path: format!("/usr/bin/tool-{i:03}"),
                    lstat: false,
                },
                SysResult::Stat(meta),
            ),
            1 => (
                Syscall::Write {
                    fd: 1,
                    data: ByteSource::Inline(vec![b'x'; 64]),
                },
                SysResult::Int(64),
            ),
            2 => (Syscall::Read { fd: 0, len: 4096 }, SysResult::Data(vec![b'y'; 64])),
            _ => (Syscall::GetPid, SysResult::Int(7)),
        };
        calls.push(call);
        completions.push(Completion { index: i, result });
    }
    (calls, CompletionBatch { completions })
}

fn wire_and_ring(out: &mut BTreeMap<&'static str, f64>) {
    let (calls, completions) = mixed_batches();
    let per_call = sys::BATCH as f64;
    out.insert(
        "core.wire.encode_ns_per_call",
        ns_per_iter(|| {
            std::hint::black_box((calls.encode(), completions.encode()));
        }) / per_call,
    );
    let (call_frame, completion_frame) = (calls.encode(), completions.encode());
    out.insert(
        "core.wire.decode_ns_per_call",
        ns_per_iter(|| {
            std::hint::black_box((
                SyscallBatch::decode(&call_frame),
                CompletionBatch::decode(&completion_frame),
            ));
        }) / per_call,
    );

    let ring = Ring::new(
        SharedArrayBuffer::new(RING_REGION_BYTES as usize),
        RingGeometry::standard(0),
    );
    let mut sqe = Vec::new();
    Syscall::Read { fd: 3, len: 64 }.encode_into(&mut sqe);
    let mut cqe = Vec::new();
    SysResult::Int(64).encode_into(&mut cqe);
    out.insert(
        "core.ring.sqe_cqe_roundtrip_ns",
        ns_per_iter(|| {
            assert!(ring.push_sqe(1, &sqe));
            let (user_data, _) = ring.pop_sqe().expect("entry just pushed");
            assert!(ring.push_cqe(user_data, &cqe));
            std::hint::black_box(ring.pop_cqe().expect("completion just pushed"));
        }),
    );
}

fn kernel_structures(out: &mut BTreeMap<&'static str, f64>) {
    // One wakeup among 256 parked waiters, then the woken one parks again.
    let mut table: WaitTable<u32> = WaitTable::new();
    for id in 0..256u64 {
        table.park_one(WaitChannel::StreamReadable(id), id as u32);
    }
    let mut next = 0u64;
    out.insert(
        "core.waitq.park_take_ns_256",
        ns_per_iter(|| {
            let channel = WaitChannel::StreamReadable(next % 256);
            next += 1;
            let woken = table.take_channel(channel);
            assert_eq!(woken.len(), 1);
            table.park_one(channel, woken[0]);
        }),
    );

    let chunk = vec![0xA5u8; 64 << 10];
    let mut stream = Stream::new(64 << 10);
    out.insert(
        "core.streams.push_pop_ns_per_kib",
        ns_per_iter(|| {
            assert_eq!(stream.push(&chunk), chunk.len());
            std::hint::black_box(stream.pop(chunk.len()));
        }) / 64.0,
    );

    // fork of a 1 MiB resident image plus the child's first page write.
    let mut parent = AddressSpace::new();
    let base = parent
        .map_anonymous(0, 1 << 20, PROT_READ | PROT_WRITE)
        .expect("map 1 MiB");
    parent.write(base, &vec![1u8; 1 << 20]).expect("fault the image in");
    let page = vec![2u8; PAGE_SIZE];
    out.insert(
        "core.vm.fork_clone_us_1m",
        ns_per_iter(|| {
            let (mut child, _) = parent.fork_clone();
            child.write(base, &page).expect("cow write");
            child.release();
        }) / 1e3,
    );
}

fn file_systems(out: &mut BTreeMap<&'static str, f64>) {
    let chunk = vec![0x5Au8; 64 << 10];
    let memfs = MemFs::new();
    memfs.write_file("/blob", &vec![0u8; 4 << 20]).expect("stage blob");
    let handle = memfs.open_handle("/blob", OpenFlags::read_write()).expect("open blob");
    let mut offset = 0u64;
    out.insert(
        "fs.memfs.read_ns_per_kib",
        ns_per_iter(|| {
            std::hint::black_box(handle.read_at(offset, chunk.len()).expect("read"));
            offset = (offset + chunk.len() as u64) % (4 << 20);
        }) / 64.0,
    );
    out.insert(
        "fs.memfs.write_ns_per_kib",
        ns_per_iter(|| {
            handle.write_at(offset, &chunk).expect("write");
            offset = (offset + chunk.len() as u64) % (4 << 20);
        }) / 64.0,
    );

    let mounted = MountedFs::new(Arc::new(MemFs::new()));
    for dir in ["/usr", "/usr/share", "/usr/share/doc"] {
        mounted.mkdir(dir).expect("mkdir");
    }
    mounted.write_file("/usr/share/doc/readme", b"x").expect("stage");
    out.insert(
        "fs.mount.resolve_hit_ns",
        ns_per_iter(|| {
            std::hint::black_box(mounted.stat("/usr/share/doc/readme").expect("exists"));
        }),
    );
    let mut n = 0u64;
    out.insert(
        "fs.mount.resolve_miss_ns",
        ns_per_iter(|| {
            n += 1;
            std::hint::black_box(mounted.stat(&format!("/usr/share/doc/absent-{n}")).is_err());
        }),
    );

    // First write to each of 64 lower-layer files of 64 KiB: 64 copy-ups per
    // fresh overlay, timed as a whole.
    let lower = Arc::new(MemFs::new());
    for i in 0..64 {
        lower.write_file(&format!("/f{i}"), &chunk).expect("stage lower");
    }
    out.insert(
        "fs.overlay.copy_up_us_64k",
        ns_per_iter(|| {
            let overlay = OverlayFs::new(Arc::clone(&lower) as Arc<dyn FileSystem>, OverlayMode::Lazy);
            for i in 0..64 {
                overlay.write_at(&format!("/f{i}"), 0, b"!").expect("copy-up write");
            }
            assert_eq!(overlay.copy_up_count(), 64);
        }) / 64.0
            / 1e3,
    );

    // httpfs at its default 64 KiB page, instant network: a cached page,
    // then 64 cold pages per fresh mount.
    let files = StaticFiles::new();
    files.insert("/tex.bin", vec![9u8; 4 << 20]);
    let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
    let manifest = vec![("/tex.bin".to_owned(), 4u64 << 20)];
    let page = 64 << 10;
    let warm = HttpFs::new(endpoint.clone(), manifest.clone()).with_readahead(0);
    warm.read_at("/tex.bin", 0, page).expect("warm the page");
    out.insert(
        "fs.httpfs.page_hit_ns",
        ns_per_iter(|| {
            std::hint::black_box(warm.read_at("/tex.bin", 0, page).expect("cached read"));
        }),
    );
    out.insert(
        "fs.httpfs.page_miss_us",
        ns_per_iter(|| {
            let cold = HttpFs::new(endpoint.clone(), manifest.clone()).with_readahead(0);
            for i in 0..64 {
                std::hint::black_box(cold.read_at("/tex.bin", (i * page) as u64, page).expect("cold read"));
            }
        }) / 64.0
            / 1e3,
    );
}

fn http_shell_utils(out: &mut BTreeMap<&'static str, f64>, seed: u64) {
    let request = HttpRequest::new(Method::Get, "/p32k.bin")
        .with_header("Host", "localhost:8000")
        .with_header("Accept", "*/*")
        .serialize();
    out.insert(
        "http.parse_request_ns",
        ns_per_iter(|| {
            std::hint::black_box(parse_request(&request).expect("well-formed"));
        }),
    );
    let response = HttpResponse::ok()
        .with_body(vec![3u8; 32 << 10], "application/octet-stream")
        .serialize();
    out.insert(
        "http.parse_response_ns_per_kib",
        ns_per_iter(|| {
            std::hint::black_box(parse_response(&response).expect("well-formed"));
        }) / (response.len() as f64 / KIB),
    );

    let corpus = shell::Corpus::generate(&mut Rng::new(seed, 0));
    let mut ops = Rng::new(seed, 1);
    let lines: Vec<String> = (0..64).map(|i| shell::draw(&corpus, &mut ops, i).command).collect();
    out.insert(
        "shell.parse_us",
        ns_per_iter(|| {
            for line in &lines {
                std::hint::black_box(browsix_shell::parse_script(line).expect("templates parse"));
            }
        }) / lines.len() as f64
            / 1e3,
    );

    let mib = vec![0xC3u8; 1 << 20];
    out.insert(
        "utils.sha1_mib_per_s",
        1e9 / ns_per_iter(|| {
            std::hint::black_box(browsix_utils::sha1_digest(&mib));
        }),
    );
}

/// Mean duration, µs, of the spans `pick` selects.
fn mean_us(spans: &[Span], pick: impl Fn(&str) -> bool) -> f64 {
    let picked: Vec<f64> = spans
        .iter()
        .filter(|s| pick(s.name))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    assert!(!picked.is_empty(), "a probe recorded none of its spans");
    picked.iter().sum::<f64>() / picked.len() as f64
}

/// Calls per host-API probe: enough for a stable mean in ~0.1 s each.
const HOST_CALLS: u64 = 200;

fn host_api(out: &mut BTreeMap<&'static str, f64>, seed: u64) {
    let tracer = Tracer::new(true);
    let kernels: Vec<Kernel> = (0..20)
        .map(|op| {
            tracer.span("boot", 0, op, |_| {
                let kernel = Kernel::boot(workloads::boot_config());
                // The first answered request proves the event loop is up.
                kernel.stats();
                kernel
            })
        })
        .collect();
    kernels.into_iter().for_each(Kernel::shutdown);

    let kernel = workloads::standard_kernel();
    for op in 0..HOST_CALLS {
        tracer.span("spawn_to_exit", 0, op, |parent| {
            let child = tracer
                .span("spawn", parent, op, |_| kernel.spawn("/usr/bin/true", &["true"], &[]))
                .expect("spawn true");
            assert!(child.wait().success());
        });
        tracer.span("stats", 0, op, |_| std::hint::black_box(kernel.stats()));
        tracer.span("sh_c_true", 0, op, |_| {
            let sh = kernel.spawn("/bin/sh", &["sh", "-c", "true"], &[]).expect("spawn sh");
            assert!(sh.wait().success());
        });
    }
    kernel.shutdown();

    // One client, one size class at a time, against the httpd workload's
    // own server set-up.
    let httpd = HttpdWorkload::setup(seed);
    for (class, calls) in [(0, HOST_CALLS), (1, HOST_CALLS), (2, 20)] {
        for op in 0..calls {
            let response = tracer.span(["http.small", "http.32k", "http.1m"][class], 0, op, |_| {
                httpd.get(class)
            });
            assert!(httpd.verify(class, &response), "probe GET failed");
        }
    }
    Box::new(httpd).finish();

    let spans = tracer.take();
    for (metric, span, scale) in [
        ("core.hostapi.boot_ms", "boot", 1e-3),
        ("core.hostapi.spawn_us", "spawn", 1.0),
        ("core.hostapi.spawn_to_exit_us", "spawn_to_exit", 1.0),
        ("core.hostapi.stats_us", "stats", 1.0),
        ("shell.sh_c_true_us", "sh_c_true", 1.0),
        ("core.hostapi.http_request_us.small", "http.small", 1.0),
        ("core.hostapi.http_request_us.32k", "http.32k", 1.0),
        ("core.hostapi.http_request_us.1m", "http.1m", 1.0),
    ] {
        out.insert(metric, mean_us(&spans, |name| name == span) * scale);
    }
}

fn runtimes(out: &mut BTreeMap<&'static str, f64>, seed: u64) {
    for (convention, call, batched) in [
        (
            SyscallConvention::Sync,
            "runtime.call_us.ring",
            "runtime.batched_call_ns.ring",
        ),
        (
            SyscallConvention::Async,
            "runtime.call_us.async",
            "runtime.batched_call_ns.async",
        ),
    ] {
        let tracer = Arc::new(Tracer::new(true));
        let mut guest = Box::new(sys::SysWorkload::setup(seed, convention));
        let phase = guest.run(Duration::from_millis(300), &tracer);
        assert_eq!(phase.failed, 0, "sys probe guest failed");
        guest.finish();
        let spans = tracer.take();
        let batch_calls = ["runtime.env.stat_many", "runtime.env.write_vectored"];
        out.insert(
            call,
            mean_us(&spans, |n| n.starts_with("runtime.env.") && !batch_calls.contains(&n)),
        );
        out.insert(
            batched,
            mean_us(&spans, |n| batch_calls.contains(&n)) * 1e3 / sys::BATCH as f64,
        );
    }
}

fn apps(out: &mut BTreeMap<&'static str, f64>, seed: u64) {
    let tracer = Arc::new(Tracer::new(true));
    let mut terminal = Terminal::new(workloads::standard_kernel());
    for op in 0..HOST_CALLS {
        tracer.span("apps.terminal.run_line", 0, op, |_| {
            let result = terminal.run_line("echo perfbench | cat").expect("run_line");
            assert_eq!(result.stdout, "perfbench\n");
        });
    }
    terminal.into_kernel().shutdown();

    let mut latex = workloads::build("latex_build", seed).expect("latex_build exists");
    let before = latex.stats().total_syscalls;
    let phase = latex.run(Duration::from_millis(600), &tracer);
    assert_eq!(phase.failed, 0, "latex probe build failed");
    let syscalls = latex.stats().total_syscalls - before;
    latex.finish();

    let spans = tracer.take();
    for (metric, span) in [
        ("apps.terminal.run_line_us", "apps.terminal.run_line"),
        ("apps.latex.build_us.sync", "apps.latex.build_pdf.sync"),
        ("apps.latex.build_us.async", "apps.latex.build_pdf.async"),
    ] {
        out.insert(metric, mean_us(&spans, |name| name == span));
    }
    out.insert("apps.latex.syscalls_per_build", syscalls as f64 / phase.ops as f64);
}

/// Pipe round trips between two guests on different shards of a separate
/// 2-shard kernel: the one place the cross-shard protocol shows.
const PINGPONGS: u32 = 200;

fn shard_pingpong_us() -> f64 {
    let config = workloads::boot_config().with_shards(2);
    let profile = ExecutionProfile::instant(SyscallConvention::Async);
    let elapsed_us = Arc::new(std::sync::Mutex::new(0f64));
    config.registry.register(
        "/usr/bin/echoer",
        Arc::new(
            NodeLauncher::new(
                "echoer",
                guest("echoer", |env: &mut dyn RuntimeEnv| loop {
                    match env.read(0, 4096) {
                        Ok(data) if !data.is_empty() => {
                            if env.write(1, &data).is_err() || env.flush_stdout().is_err() {
                                return 1;
                            }
                        }
                        _ => return 0,
                    }
                }),
            )
            .with_profile(profile.clone()),
        ),
    );
    let slot = Arc::clone(&elapsed_us);
    config.registry.register(
        "/usr/bin/pingpong",
        Arc::new(
            NodeLauncher::new(
                "pingpong",
                guest("pingpong", move |env: &mut dyn RuntimeEnv| {
                    // Spawned round-robin right after this parent, the child
                    // lands on the other shard, so both pipes span shards.
                    let (Ok((down_r, down_w)), Ok((up_r, up_w))) = (env.pipe(), env.pipe()) else {
                        return 1;
                    };
                    let stdio = SpawnStdio {
                        stdin: Some(down_r),
                        stdout: Some(up_w),
                        ..SpawnStdio::default()
                    };
                    let Ok(child) = env.spawn("/usr/bin/echoer", &["echoer".to_owned()], stdio) else {
                        return 1;
                    };
                    let _ = env.close_many(&[down_r, up_w]);
                    let start = Instant::now();
                    for i in 0..PINGPONGS {
                        let ping = format!("ping {i}\n");
                        if env.write(down_w, ping.as_bytes()).is_err()
                            || env.read(up_r, 4096).ok() != Some(ping.into_bytes())
                        {
                            return 1;
                        }
                    }
                    *slot.lock().expect("slot is never poisoned") =
                        start.elapsed().as_secs_f64() * 1e6 / PINGPONGS as f64;
                    let _ = env.close_many(&[down_w, up_r]);
                    let _ = env.wait(child as i32);
                    0
                }),
            )
            .with_profile(profile),
        ),
    );
    let kernel = Kernel::boot(config);
    let status = kernel
        .spawn("/usr/bin/pingpong", &["pingpong"], &[])
        .expect("spawn pingpong")
        .wait();
    assert!(status.success(), "cross-shard ping-pong failed");
    let crossed = kernel.stats().shard_msgs_sent > 0;
    kernel.shutdown();
    assert!(crossed, "ping-pong never crossed shards");
    let us = *elapsed_us.lock().expect("slot is never poisoned");
    us
}
