//! The Emscripten (C/C++) runtime integration.
//!
//! Browsix-enhanced Emscripten supports two modes, selected at compile time:
//!
//! * **asm.js with synchronous system calls** — fast, but requires
//!   SharedArrayBuffer/Atomics (Chrome behind flags at publication time) and
//!   cannot support `fork`;
//! * **Emterpreter with asynchronous system calls** — works in every browser
//!   and supports `fork` (the runtime snapshots the C heap/stack and resume
//!   point and ships it to the kernel), but interprets the program and is
//!   roughly 4× slower.
//!
//! [`EmscriptenLauncher`] reproduces both modes.  If the simulated browser has
//! no shared memory, an asm.js-mode program transparently falls back to the
//! asynchronous convention, exactly as a developer would have to do to target
//! Firefox or Edge.

use browsix_core::exec::{LaunchContext, ProgramLauncher};

use crate::browsix_env::run_guest_process;
use crate::profile::ExecutionProfile;
use crate::program::GuestFactory;

/// The compilation mode chosen for a C/C++ program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmscriptenMode {
    /// asm.js output, synchronous system calls, no `fork`.
    AsmJs,
    /// Emterpreter output, asynchronous system calls, `fork` supported.
    Emterpreter,
}

/// Launches a C/C++ guest program compiled "with Emscripten".
pub struct EmscriptenLauncher {
    name: &'static str,
    factory: GuestFactory,
    mode: EmscriptenMode,
    profile: ExecutionProfile,
}

impl std::fmt::Debug for EmscriptenLauncher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmscriptenLauncher")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .finish()
    }
}

impl EmscriptenLauncher {
    /// Creates a launcher for `factory` in the given mode, with the standard
    /// calibrated profile for that mode.
    pub fn new(name: &'static str, factory: GuestFactory, mode: EmscriptenMode) -> EmscriptenLauncher {
        let profile = match mode {
            EmscriptenMode::AsmJs => ExecutionProfile::browsix_sync_asmjs(),
            EmscriptenMode::Emterpreter => ExecutionProfile::browsix_emterpreter(),
        };
        EmscriptenLauncher {
            name,
            factory,
            mode,
            profile,
        }
    }

    /// Overrides the execution profile (used by functional tests to disable
    /// compute injection, and by the benchmark harness to scale experiments).
    pub fn with_profile(mut self, profile: ExecutionProfile) -> EmscriptenLauncher {
        self.profile = profile;
        self
    }
}

impl ProgramLauncher for EmscriptenLauncher {
    fn launch(&self, ctx: LaunchContext) {
        let prefer_sync = self.mode == EmscriptenMode::AsmJs;
        run_guest_process(ctx, &self.factory, self.profile.clone(), prefer_sync);
    }

    fn runtime_name(&self) -> &'static str {
        match self.mode {
            EmscriptenMode::AsmJs => "emscripten (asm.js)",
            EmscriptenMode::Emterpreter => "emscripten (emterpreter)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{factory, FnProgram};

    #[test]
    fn launcher_reports_mode_and_runtime_name() {
        let asmjs = EmscriptenLauncher::new(
            "pdflatex",
            factory(|| FnProgram::new("pdflatex", |_| 0)),
            EmscriptenMode::AsmJs,
        );
        assert_eq!(asmjs.mode, EmscriptenMode::AsmJs);
        assert_eq!(asmjs.runtime_name(), "emscripten (asm.js)");
        assert_eq!(asmjs.profile.convention, crate::SyscallConvention::Sync);

        let emterp = EmscriptenLauncher::new(
            "make",
            factory(|| FnProgram::new("make", |_| 0)),
            EmscriptenMode::Emterpreter,
        )
        .with_profile(ExecutionProfile::instant(crate::SyscallConvention::Async));
        assert_eq!(emterp.runtime_name(), "emscripten (emterpreter)");
        assert_eq!(emterp.profile.compute_ns_per_unit, 0);
        let formatted = format!("{emterp:?}");
        assert!(formatted.contains("make"));
    }
}
