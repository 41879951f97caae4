//! # browsix-apps — the paper's case studies
//!
//! Three applications demonstrate Browsix in the paper, and all three are
//! reproduced here on top of the Rust kernel and runtimes:
//!
//! * [`latex`] — a serverless LaTeX editor: `make` runs `pdflatex` and
//!   `bibtex` as Browsix processes against a shared file system whose TeX
//!   distribution is fetched lazily over (simulated) HTTP (§2, §5.2).
//! * [`meme`] — a meme generator whose Go server runs either on a remote
//!   machine or unmodified inside Browsix, with the client routing requests
//!   based on network and device characteristics (§5.1.1).
//! * [`terminal`] — a Unix terminal exposing the dash-like shell, used to run
//!   pipelines of the bundled coreutils and inspect kernel state (§5.1.2).
//!
//! Beyond the paper's three case studies, [`httpd`] is a `poll`-driven
//! concurrent static-file server that exercises the readiness API
//! (`poll`/`O_NONBLOCK`) end to end: one loop multiplexing a listener and
//! many non-blocking connections.
//!
//! The module-level documentation of each case study describes the
//! experiment it backs.

pub mod httpd;
pub mod latex;
pub mod meme;
pub mod terminal;

pub use httpd::{httpd_program, stage_httpd_root, HTTPD_PORT, HTTPD_ROOT};
pub use latex::{LatexEditor, LatexEnvironment, LatexMode};
pub use meme::{MemeClient, MemeEnvironment, RouteDecision};
pub use terminal::Terminal;

use std::sync::Arc;

use browsix_core::{BootConfig, Kernel};
use browsix_fs::{FileSystem, MemFs, MountedFs};
use browsix_runtime::ExecutionProfile;

/// Boots a kernel pre-loaded with the coreutils and the shell — the baseline
/// environment every case study starts from.
///
/// `profile` controls the execution-cost model for the utilities and shell;
/// pass [`ExecutionProfile::instant`] in tests and the calibrated profiles in
/// benchmarks.
pub fn boot_standard_kernel(config: BootConfig, profile: ExecutionProfile) -> Kernel {
    browsix_utils::register_browsix(&config.registry, profile.clone());
    browsix_shell::register_browsix(&config.registry, profile);
    let kernel = Kernel::boot(config);
    for dir in ["/home", "/tmp", "/usr", "/usr/bin", "/usr/share", "/bin"] {
        let _ = kernel.fs().mkdir(dir);
    }
    kernel
}

/// A convenient default [`BootConfig`]: in-memory root file system and the
/// fast (delay-free) platform, suitable for tests and examples.
pub fn default_config() -> BootConfig {
    BootConfig {
        fs: Arc::new(MountedFs::new(Arc::new(MemFs::new()))),
        ..BootConfig::in_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browsix_runtime::SyscallConvention;

    #[test]
    fn standard_kernel_has_utilities_and_shell() {
        let kernel = boot_standard_kernel(default_config(), ExecutionProfile::instant(SyscallConvention::Async));
        assert!(kernel.registry().lookup("/usr/bin/ls").is_some());
        assert!(kernel.registry().lookup("/bin/sh").is_some());
        assert!(kernel.fs().stat("/home").unwrap().is_dir());
        let handle = kernel.system("echo hello from browsix").unwrap();
        let status = handle.wait();
        assert!(status.success());
        assert_eq!(handle.stdout_string(), "hello from browsix\n");
        kernel.shutdown();
    }
}
