//! Execution profiles: the calibrated cost model for each environment.
//!
//! The paper's evaluation compares the same programs running natively, under
//! Node.js on Linux, and under Browsix in different browsers and system-call
//! conventions.  Two effects dominate:
//!
//! 1. *JavaScript execution cost* — "most of the overhead can be attributed to
//!    JavaScript"; asm.js code is several tens of times slower than native C,
//!    the Emterpreter is roughly another 4× slower, and GopherJS numeric code
//!    suffers badly from the lack of 64-bit integers.
//! 2. *System-call convention* — asynchronous calls pay a `postMessage` plus
//!    structured-clone cost per call; synchronous calls pay only a small
//!    message plus shared-memory copies.
//!
//! An [`ExecutionProfile`] captures the first effect as a cost per abstract
//! "compute unit" charged by guest programs through
//! [`RuntimeEnv::charge_compute`](crate::RuntimeEnv::charge_compute); the
//! second is real, produced by the simulated kernel.  The calibration
//! constants are set in the profile constructors below.

use std::time::Duration;

use browsix_browser::time::precise_delay;

/// How a process reaches the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallConvention {
    /// No kernel at all: direct calls into an in-process file system
    /// (the native and Node.js-on-Linux baselines).
    Direct,
    /// Asynchronous Browsix system calls (structured-clone messages).
    Async,
    /// Synchronous Browsix system calls (shared memory + `Atomics.wait`).
    Sync,
}

/// The per-environment cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionProfile {
    /// Environment name as it appears in result tables.
    pub name: &'static str,
    /// Cost of one abstract compute unit, in nanoseconds.  One unit stands
    /// for roughly a thousand machine operations of the original program.
    pub compute_ns_per_unit: u64,
    /// Which system-call convention processes in this environment use.
    pub convention: SyscallConvention,
    /// Whether compute delays are actually injected (benchmarks) or skipped
    /// (functional tests).
    pub inject_compute: bool,
}

impl ExecutionProfile {
    /// Native C on Linux (the GNU coreutils / pdflatex baseline).
    pub fn native() -> ExecutionProfile {
        ExecutionProfile {
            name: "native",
            compute_ns_per_unit: 400,
            convention: SyscallConvention::Direct,
            inject_compute: true,
        }
    }

    /// Node.js on Linux: V8-executed JavaScript, direct system calls.
    pub fn nodejs_linux() -> ExecutionProfile {
        ExecutionProfile {
            name: "node.js",
            compute_ns_per_unit: 12_000,
            convention: SyscallConvention::Direct,
            inject_compute: true,
        }
    }

    /// JavaScript (Node.js utilities or asm.js) running as a Browsix process
    /// with asynchronous system calls.
    pub fn browsix_async() -> ExecutionProfile {
        ExecutionProfile {
            name: "browsix (async)",
            compute_ns_per_unit: 12_000,
            convention: SyscallConvention::Async,
            inject_compute: true,
        }
    }

    /// asm.js-compiled C running as a Browsix process with synchronous system
    /// calls (Chrome with SharedArrayBuffer).
    pub fn browsix_sync_asmjs() -> ExecutionProfile {
        ExecutionProfile {
            name: "browsix (sync, asm.js)",
            compute_ns_per_unit: 18_000,
            convention: SyscallConvention::Sync,
            inject_compute: true,
        }
    }

    /// Emterpreter-compiled C running as a Browsix process with asynchronous
    /// system calls (required when a program uses `fork`, and the only option
    /// in browsers without shared memory).
    pub fn browsix_emterpreter() -> ExecutionProfile {
        ExecutionProfile {
            name: "browsix (async, emterpreter)",
            compute_ns_per_unit: 72_000,
            convention: SyscallConvention::Async,
            inject_compute: true,
        }
    }

    /// GopherJS-compiled Go running as a Browsix process; numeric code pays
    /// the missing-64-bit-integer penalty the paper highlights for the meme
    /// generator.
    pub fn gopherjs() -> ExecutionProfile {
        ExecutionProfile {
            name: "browsix (gopherjs)",
            compute_ns_per_unit: 120_000,
            convention: SyscallConvention::Async,
            inject_compute: true,
        }
    }

    /// A profile with no injected compute cost, for functional tests.
    pub fn instant(convention: SyscallConvention) -> ExecutionProfile {
        ExecutionProfile {
            name: "instant",
            compute_ns_per_unit: 0,
            convention,
            inject_compute: false,
        }
    }

    /// Returns a copy with compute injection disabled.
    pub fn without_compute(mut self) -> ExecutionProfile {
        self.inject_compute = false;
        self
    }

    /// Returns a copy with the compute cost scaled by `factor` (used by the
    /// benchmark harness to shrink long experiments while preserving ratios).
    pub fn scaled(mut self, factor: f64) -> ExecutionProfile {
        self.compute_ns_per_unit = ((self.compute_ns_per_unit as f64) * factor).round() as u64;
        self
    }

    /// The wall-clock cost of `units` compute units under this profile.
    pub fn compute_cost(&self, units: u64) -> Duration {
        if !self.inject_compute {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.compute_ns_per_unit.saturating_mul(units))
    }

    /// Blocks for the cost of `units` compute units.
    pub fn charge(&self, units: u64) {
        precise_delay(self.compute_cost(units));
    }
}

impl Default for ExecutionProfile {
    fn default() -> Self {
        ExecutionProfile::instant(SyscallConvention::Direct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_ordering_matches_the_paper() {
        // Native < Node/asm.js < Emterpreter < GopherJS numeric.
        let native = ExecutionProfile::native().compute_ns_per_unit;
        let node = ExecutionProfile::nodejs_linux().compute_ns_per_unit;
        let asmjs = ExecutionProfile::browsix_sync_asmjs().compute_ns_per_unit;
        let emterp = ExecutionProfile::browsix_emterpreter().compute_ns_per_unit;
        let gopher = ExecutionProfile::gopherjs().compute_ns_per_unit;
        assert!(native < node);
        assert!(node <= asmjs);
        assert!(asmjs < emterp);
        assert!(emterp < gopher);
        // The Emterpreter is roughly 4x asm.js, as the paper reports.
        let ratio = emterp as f64 / asmjs as f64;
        assert!((3.0..6.0).contains(&ratio), "emterpreter/asm.js ratio {ratio}");
    }

    #[test]
    fn conventions_match_environments() {
        assert_eq!(ExecutionProfile::native().convention, SyscallConvention::Direct);
        assert_eq!(ExecutionProfile::nodejs_linux().convention, SyscallConvention::Direct);
        assert_eq!(ExecutionProfile::browsix_async().convention, SyscallConvention::Async);
        assert_eq!(
            ExecutionProfile::browsix_sync_asmjs().convention,
            SyscallConvention::Sync
        );
        assert_eq!(
            ExecutionProfile::browsix_emterpreter().convention,
            SyscallConvention::Async
        );
    }

    #[test]
    fn compute_cost_scales_linearly_and_respects_injection() {
        let profile = ExecutionProfile::nodejs_linux();
        assert_eq!(profile.compute_cost(0), Duration::ZERO);
        assert_eq!(profile.compute_cost(10) * 10, profile.compute_cost(100));
        let off = profile.clone().without_compute();
        assert_eq!(off.compute_cost(1_000_000), Duration::ZERO);
        let instant = ExecutionProfile::instant(SyscallConvention::Async);
        assert_eq!(instant.compute_cost(1_000_000), Duration::ZERO);
        assert_eq!(instant.convention, SyscallConvention::Async);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let a = ExecutionProfile::browsix_sync_asmjs().scaled(0.1);
        let b = ExecutionProfile::browsix_emterpreter().scaled(0.1);
        let ratio = b.compute_ns_per_unit as f64 / a.compute_ns_per_unit as f64;
        assert!((3.0..6.0).contains(&ratio));
    }

    #[test]
    fn charge_injects_real_time() {
        let profile = ExecutionProfile {
            name: "test",
            compute_ns_per_unit: 1_000,
            convention: SyscallConvention::Direct,
            inject_compute: true,
        };
        let start = std::time::Instant::now();
        profile.charge(500); // 0.5 ms
        assert!(start.elapsed() >= Duration::from_micros(500));
    }
}
