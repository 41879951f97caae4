//! `pipe_stream`: `cat /data/blob.bin | tee /tmp/copy.bin | wc -c` over a
//! 4 MiB seeded blob — the data plane (splice, stream push/pop,
//! back-pressure, memfs writes beside reads) with per-op spawn cost small
//! beside the bytes moved.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::Terminal;
use browsix_core::KernelStats;
use browsix_fs::FileSystem;

use super::{standard_kernel, Phase, Workload};
use crate::rng::{checksum, Rng};
use crate::trace::Tracer;

const BLOB_LEN: usize = 4 << 20;
const COMMAND: &str = "cat /data/blob.bin | tee /tmp/copy.bin | wc -c";

pub struct PipeWorkload {
    terminal: Terminal,
    blob_checksum: u64,
    next_index: u64,
}

impl PipeWorkload {
    pub fn setup(seed: u64) -> PipeWorkload {
        let blob = Rng::new(seed, 0).bytes(BLOB_LEN);
        let kernel = standard_kernel();
        let fs = kernel.fs();
        fs.mkdir("/data").expect("mkdir /data");
        fs.write_file("/data/blob.bin", &blob).expect("stage blob");
        PipeWorkload {
            terminal: Terminal::new(kernel),
            blob_checksum: checksum(&blob),
            next_index: 0,
        }
    }
}

impl Workload for PipeWorkload {
    fn run(&mut self, duration: Duration, tracer: &Arc<Tracer>) -> Phase {
        let mut phase = Phase::default();
        while phase.busy_s < duration.as_secs_f64() {
            let index = self.next_index;
            self.next_index += 1;
            tracer.span("bench.op", 0, index, |op| {
                let fs = self.terminal.kernel().fs();
                // The copy must be this op's: remove the previous one first.
                let _ = fs.unlink("/tmp/copy.bin");
                let start = Instant::now();
                let result = tracer.span("apps.terminal.run_line", op, index, |_| self.terminal.run_line(COMMAND));
                let took = start.elapsed().as_secs_f64();
                phase.ops += 1;
                phase.busy_s += took;
                phase.lat_us.push(took * 1e6);
                let counted = result
                    .as_ref()
                    .ok()
                    .filter(|r| r.exit_code == 0)
                    .and_then(|r| r.stdout.split_whitespace().next()?.parse::<usize>().ok());
                let copied = fs.read_file("/tmp/copy.bin").map(|copy| checksum(&copy));
                if counted == Some(BLOB_LEN) && copied == Ok(self.blob_checksum) {
                    phase.bytes += BLOB_LEN as u64;
                } else {
                    phase.failed += 1;
                    eprintln!("perfbench: pipe op {index} failed: wc={counted:?} copy={copied:?} {result:?}");
                }
            });
        }
        phase
    }

    fn stats(&self) -> KernelStats {
        self.terminal.kernel().stats()
    }

    fn finish(self: Box<Self>) -> bool {
        self.terminal.into_kernel().shutdown();
        true
    }
}
