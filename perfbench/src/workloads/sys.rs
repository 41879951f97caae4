//! `sys_ring` and `sys_async`: one bench-owned guest issuing system calls
//! with nothing else in the way, under the shared-memory ring transport
//! (`EmscriptenLauncher` asm.js / `SyscallConvention::Sync`) or the async
//! message transport (`NodeLauncher`).
//!
//! A burst is 8 individually timed depth-1 calls drawn from `getpid`,
//! `fstat`, `seek`, a 64 B pipe `write`, a 64 B pipe `read` and `stat`, then
//! `stat_many(64)`, `write_vectored(64 x 64 B)` and the `read`s that drain
//! the pipe.  The latency samples are the depth-1 calls; the op count is
//! every call the kernel dispatched (its `total_syscalls` delta).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use browsix_core::{Kernel, KernelStats};
use browsix_fs::{FileSystem, OpenFlags};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, NodeLauncher, RuntimeEnv,
    SyscallConvention,
};

use super::{boot_config, Phase, Workload};
use crate::rng::Rng;
use crate::trace::Tracer;

const DEPTH1_CALLS: usize = 8;
pub const BATCH: usize = 64;
const CHUNK: usize = 64;
const FILE_LEN: usize = 4096;
const GUEST: &str = "/usr/bin/sysbench";

/// What the host hands the guest and gets back; guests are threads of this
/// process, so an `Arc` crosses the "process" boundary.
struct Shared {
    seed: u64,
    /// Size of each `/data/s-NN`, the `stat` oracle.
    sizes: Vec<u64>,
    tracer: Mutex<Arc<Tracer>>,
    outcome: Mutex<Option<Phase>>,
}

/// Byte `position` of the endless pattern written to the pipe, so a reader
/// can verify any slice knowing only where it starts.
fn pattern(position: u64) -> u8 {
    (position % 251) as u8
}

fn pattern_chunk(position: u64, len: usize) -> Vec<u8> {
    (0..len as u64).map(|i| pattern(position + i)).collect()
}

/// The guest's state: descriptors plus how far the pipe's writer and reader
/// have got in the pattern.
struct Burster<'a> {
    env: &'a mut dyn RuntimeEnv,
    tracer: Arc<Tracer>,
    sizes: &'a [u64],
    paths: Vec<String>,
    pid: u32,
    file: i32,
    pipe_read: i32,
    pipe_write: i32,
    written: u64,
    read: u64,
    out: Phase,
}

impl Burster<'_> {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.out.failed += 1;
            eprintln!("perfbench: sys guest: wrong result from {what}");
        }
    }

    fn write_chunk(&mut self, parent: u64, op: u64) {
        let chunk = pattern_chunk(self.written, CHUNK);
        let (env, fd) = (&mut *self.env, self.pipe_write);
        let n = self
            .tracer
            .span("runtime.env.write", parent, op, |_| env.write(fd, &chunk));
        self.written += CHUNK as u64;
        self.check(n == Ok(CHUNK), "write");
    }

    fn read_some(&mut self, len: usize, parent: u64, op: u64) {
        let (env, fd) = (&mut *self.env, self.pipe_read);
        let data = self.tracer.span("runtime.env.read", parent, op, |_| env.read(fd, len));
        let data = data.unwrap_or_default();
        let ok = !data.is_empty() && data == pattern_chunk(self.read, data.len());
        self.read += data.len() as u64;
        self.out.bytes += data.len() as u64;
        self.check(ok, "read");
    }

    fn depth1(&mut self, kind: u64, which: usize, parent: u64, op: u64) {
        let buffered = self.written - self.read;
        let tracer = Arc::clone(&self.tracer);
        let start = Instant::now();
        match kind {
            0 => {
                let pid = tracer.span("runtime.env.getpid", parent, op, |_| self.env.getpid());
                self.check(pid == self.pid, "getpid");
            }
            1 => {
                let meta = tracer.span("runtime.env.fstat", parent, op, |_| self.env.fstat(self.file));
                self.check(meta.map(|m| m.size) == Ok(FILE_LEN as u64), "fstat");
            }
            2 => {
                let at = tracer.span("runtime.env.seek", parent, op, |_| {
                    self.env.seek(self.file, which as i64, 0)
                });
                self.check(at == Ok(which as u64), "seek");
            }
            // A read needs data and a write needs room; fall over to the
            // other when the pipe cannot serve the drawn one.
            3 if buffered < 32 << 10 => self.write_chunk(parent, op),
            4 if buffered >= CHUNK as u64 => self.read_some(CHUNK, parent, op),
            3 => self.read_some(CHUNK, parent, op),
            4 => self.write_chunk(parent, op),
            _ => {
                let path = self.paths[which].clone();
                let meta = tracer.span("runtime.env.stat", parent, op, |_| self.env.stat(&path));
                self.check(meta.map(|m| m.size) == Ok(self.sizes[which]), "stat");
            }
        }
        self.out.lat_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    fn burst(&mut self, rng: &mut Rng, op: u64) {
        let tracer = Arc::clone(&self.tracer);
        tracer.span("bench.op", 0, op, |parent| {
            for _ in 0..DEPTH1_CALLS {
                self.depth1(rng.below(6), rng.below(BATCH as u64) as usize, parent, op);
            }
            let paths: Vec<&str> = self.paths.iter().map(String::as_str).collect();
            let metas = tracer.span("runtime.env.stat_many", parent, op, |_| self.env.stat_many(&paths));
            let sizes: Vec<u64> = metas
                .into_iter()
                .map(|m| m.map(|m| m.size).unwrap_or(u64::MAX))
                .collect();
            self.check(sizes == self.sizes, "stat_many");

            let chunks: Vec<Vec<u8>> = (0..BATCH)
                .map(|i| pattern_chunk(self.written + (i * CHUNK) as u64, CHUNK))
                .collect();
            let bufs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
            let fd = self.pipe_write;
            let n = tracer.span("runtime.env.write_vectored", parent, op, |_| {
                self.env.write_vectored(fd, &bufs)
            });
            self.written += (BATCH * CHUNK) as u64;
            self.check(n == Ok(BATCH * CHUNK), "write_vectored");

            while self.read < self.written && self.out.failed == 0 {
                self.read_some(64 << 10, parent, op);
            }
        });
    }
}

fn sys_guest(shared: Arc<Shared>) -> GuestFactory {
    guest("sysbench", move |env: &mut dyn RuntimeEnv| {
        let args = env.args();
        let number = |i: usize| args.get(i).and_then(|a| a.parse::<u64>().ok()).unwrap_or(0);
        let (millis, stream) = (number(1), number(2));
        let mut rng = Rng::new(shared.seed, 1 + stream);
        let tracer = Arc::clone(&shared.tracer.lock().expect("tracer slot is never poisoned"));
        let (Ok((pipe_read, pipe_write)), Ok(file)) = (env.pipe(), env.open("/data/file.bin", OpenFlags::read_only()))
        else {
            return 1;
        };
        let pid = env.getpid();
        let mut burster = Burster {
            env,
            tracer,
            sizes: &shared.sizes,
            paths: (0..BATCH).map(|i| format!("/data/s-{i:02}")).collect(),
            pid,
            file,
            pipe_read,
            pipe_write,
            written: 0,
            read: 0,
            out: Phase::default(),
        };
        let begin = Instant::now();
        let mut bursts = 0u64;
        while begin.elapsed() < Duration::from_millis(millis) && burster.out.failed == 0 {
            burster.burst(&mut rng, (stream << 32) | bursts);
            bursts += 1;
        }
        burster.out.busy_s = begin.elapsed().as_secs_f64();
        *shared.outcome.lock().expect("outcome slot is never poisoned") = Some(burster.out);
        0
    })
}

pub struct SysWorkload {
    kernel: Kernel,
    shared: Arc<Shared>,
    phases: u64,
}

impl SysWorkload {
    pub fn setup(seed: u64, convention: SyscallConvention) -> SysWorkload {
        let mut inputs = Rng::new(seed, 0);
        let kernel = Kernel::boot(boot_config());
        let fs = kernel.fs();
        fs.mkdir("/data").expect("mkdir /data");
        fs.write_file("/data/file.bin", &inputs.bytes(FILE_LEN))
            .expect("stage file");
        let sizes: Vec<u64> = (0..BATCH).map(|_| 1 + inputs.below(2048)).collect();
        for (i, size) in sizes.iter().enumerate() {
            fs.write_file(&format!("/data/s-{i:02}"), &inputs.bytes(*size as usize))
                .expect("stage stat target");
        }
        let shared = Arc::new(Shared {
            seed,
            sizes,
            tracer: Mutex::new(Arc::new(Tracer::new(false))),
            outcome: Mutex::new(None),
        });
        let program = sys_guest(Arc::clone(&shared));
        let profile = ExecutionProfile::instant(convention);
        kernel.registry().register(
            GUEST,
            match convention {
                SyscallConvention::Sync => {
                    Arc::new(EmscriptenLauncher::new("sysbench", program, EmscriptenMode::AsmJs).with_profile(profile))
                }
                _ => Arc::new(NodeLauncher::new("sysbench", program).with_profile(profile)),
            },
        );
        SysWorkload {
            kernel,
            shared,
            phases: 0,
        }
    }
}

impl Workload for SysWorkload {
    fn run(&mut self, duration: Duration, tracer: &Arc<Tracer>) -> Phase {
        *self.shared.tracer.lock().expect("tracer slot is never poisoned") = Arc::clone(tracer);
        let stream = self.phases;
        self.phases += 1;
        let before = self.kernel.stats().total_syscalls;
        let exit = self
            .kernel
            .spawn(
                GUEST,
                &["sysbench", &duration.as_millis().to_string(), &stream.to_string()],
                &[],
            )
            .map(|guest| guest.wait());
        let dispatched = self.kernel.stats().total_syscalls - before;
        let outcome = self
            .shared
            .outcome
            .lock()
            .expect("outcome slot is never poisoned")
            .take();
        match (exit, outcome) {
            (Ok(status), Some(mut phase)) if status.success() => {
                phase.ops = dispatched;
                phase
            }
            (exit, _) => {
                eprintln!("perfbench: sys guest did not finish: {exit:?}");
                Phase {
                    ops: 1,
                    failed: 1,
                    ..Phase::default()
                }
            }
        }
    }

    fn stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    fn finish(self: Box<Self>) -> bool {
        let idle = self.kernel.tasks().is_empty();
        self.kernel.shutdown();
        idle
    }
}
