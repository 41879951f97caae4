//! The seven workloads.  Off-the-shelf ones drive the repo's own bundled
//! programs; custom-made ones (`sys_*`, the parked crowd) are bench-owned
//! guests written against `RuntimeEnv`.
//!
//! Ground rules shared by all of them: real time only
//! (`PlatformConfig::fast()` / `.without_delays()`,
//! `ExecutionProfile::instant`, `NetworkProfile::instant`), one shard pinned
//! explicitly, closed loop (each client sends its next op when the previous
//! one completed), inputs and op order drawn from `--seed`, and every output
//! checked against an expectation the generator computed in plain Rust.

pub mod httpd;
mod latex;
mod pipe;
pub mod shell;
pub mod sys;

use std::sync::Arc;
use std::time::Duration;

use browsix_browser::PlatformConfig;
use browsix_core::{BootConfig, Kernel, KernelStats};
use browsix_runtime::{ExecutionProfile, SyscallConvention};

use crate::trace::Tracer;

/// Name and the one-line reason each workload exists (`BENCHMARK.json`
/// carries the same lines; a unit test keeps the two in step).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "sh_pipelines",
        "terminal case study: seeded shell pipelines, process-lifecycle-bound (spawn/exit/pipe setup/wait4, async transport, codec, fs metadata)",
    ),
    (
        "sh_crowded",
        "same pipelines beside 128 parked guests: same layers, larger kernel state, shows the O(tasks) scans",
    ),
    (
        "httpd_mix",
        "poll-driven in-kernel server under 2 closed-loop clients: sockets, wait queues, sendfile, http parsing; almost no process creation",
    ),
    (
        "sys_ring",
        "bench guest over shared-memory syscall rings: depth-1 call latency plus 64-entry batches with nothing else in the way",
    ),
    (
        "sys_async",
        "the identical guest over the async message transport: a ring-only or codec-only change moves one of the pair, not both",
    ),
    (
        "pipe_stream",
        "4 MiB through cat | tee | wc: bytes, not ops - splice, stream push/pop, back-pressure, memfs writes beside reads",
    ),
    (
        "latex_build",
        "paper's headline case study: make -> pdflatex/bibtex via fork (async) or spawn (sync rings) over httpfs page cache, overlay-free memfs, COW vm",
    ),
];

/// What one phase (warm-up or measured) of a round did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Unit ops attempted (the workload's own unit; see the README).
    pub ops: u64,
    /// Ops whose oracle failed (non-zero exit, wrong bytes, non-200, error).
    pub failed: u64,
    /// Payload bytes delivered to the op's consumer.
    pub bytes: u64,
    /// Seconds the ops themselves took: the rate's denominator.  Excludes
    /// the oracle's own work for single-client loops.
    pub busy_s: f64,
    /// Per-op latency samples, µs.
    pub lat_us: Vec<f64>,
}

pub trait Workload {
    /// Runs the closed loop for about `duration` and verifies every op.
    fn run(&mut self, duration: Duration, tracer: &Arc<Tracer>) -> Phase;

    /// Kernel counters so far (summed when the workload has two kernels).
    fn stats(&self) -> KernelStats;

    /// End-of-round state checks, then shuts every kernel down.  Returns
    /// whether the checks passed.
    fn finish(self: Box<Self>) -> bool;
}

/// Boots and stages the workload `name` from `seed` (the timed set-up).
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sh_pipelines" => Box::new(shell::ShellWorkload::setup(seed, 0)),
        "sh_crowded" => Box::new(shell::ShellWorkload::setup(seed, shell::CROWD)),
        "httpd_mix" => Box::new(httpd::HttpdWorkload::setup(seed)),
        "sys_ring" => Box::new(sys::SysWorkload::setup(seed, SyscallConvention::Sync)),
        "sys_async" => Box::new(sys::SysWorkload::setup(seed, SyscallConvention::Async)),
        "pipe_stream" => Box::new(pipe::PipeWorkload::setup(seed)),
        "latex_build" => Box::new(latex::LatexWorkload::setup()),
        _ => return None,
    })
}

/// The boot configuration every bench-booted kernel uses: no injected
/// delays and exactly one shard, whatever the environment says.
pub fn boot_config() -> BootConfig {
    browsix_apps::default_config()
        .with_platform(PlatformConfig::fast())
        .with_shards(1)
}

/// A kernel with the bundled utilities and shell registered, instant
/// profiles, one shard.
pub fn standard_kernel() -> Kernel {
    browsix_apps::boot_standard_kernel(boot_config(), ExecutionProfile::instant(SyscallConvention::Async))
}
