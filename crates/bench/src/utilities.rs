//! Experiment E5 (Figure 9): utility execution time under Native, Node.js on
//! Linux, and Browsix.

use std::time::{Duration, Instant};

use browsix_core::{BootConfig, Kernel};
use browsix_runtime::{ExecutionProfile, NativeWorld};

use crate::workloads::figure9_fs;

/// The execution environment a utility is measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilityEnvironment {
    /// Native C on Linux (GNU coreutils baseline).
    Native,
    /// The same JavaScript utility under Node.js on Linux.
    NodeJs,
    /// The same JavaScript utility as a Browsix process.
    Browsix,
}

impl UtilityEnvironment {
    /// Column label used in the Figure 9 table.
    pub fn label(&self) -> &'static str {
        match self {
            UtilityEnvironment::Native => "Native",
            UtilityEnvironment::NodeJs => "Node.js",
            UtilityEnvironment::Browsix => "BROWSIX",
        }
    }
}

/// One measured cell of the Figure 9 table.
#[derive(Debug, Clone)]
pub struct UtilityMeasurement {
    /// The command, e.g. `"sha1sum /usr/bin/node"`.
    pub command: String,
    /// The environment it ran under.
    pub environment: UtilityEnvironment,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The command's exit code (sanity check: must be 0).
    pub exit_code: i32,
}

/// Runs `command` (a whitespace-separated command line naming one of the
/// bundled utilities) once under `environment` and measures it.
///
/// `with_compute` selects whether the calibrated JavaScript-execution cost is
/// injected; the Figure 9 binary enables it, functional tests disable it.
fn run_utility_benchmark(environment: UtilityEnvironment, command: &str, with_compute: bool) -> UtilityMeasurement {
    let words: Vec<&str> = command.split_whitespace().collect();
    let fs = figure9_fs();
    match environment {
        UtilityEnvironment::Native | UtilityEnvironment::NodeJs => {
            let mut profile = match environment {
                UtilityEnvironment::Native => ExecutionProfile::native(),
                _ => ExecutionProfile::nodejs_linux(),
            };
            if !with_compute {
                profile = profile.without_compute();
            }
            let world = NativeWorld::new(fs, profile);
            browsix_utils::register_native(world.table());
            let start = Instant::now();
            let result = world.run(words[0], &words);
            UtilityMeasurement {
                command: command.to_owned(),
                environment,
                elapsed: start.elapsed(),
                exit_code: result.exit_code,
            }
        }
        UtilityEnvironment::Browsix => {
            let platform = if with_compute {
                browsix_browser::PlatformConfig::chrome()
            } else {
                browsix_browser::PlatformConfig::fast()
            };
            let config = BootConfig::in_memory().with_fs(fs).with_platform(platform);
            let mut profile = ExecutionProfile::browsix_async();
            if !with_compute {
                profile = ExecutionProfile::instant(browsix_runtime::SyscallConvention::Async);
            }
            browsix_utils::register_browsix(&config.registry, profile);
            let kernel = Kernel::boot(config);
            let start = Instant::now();
            let handle = kernel
                .spawn(&format!("/usr/bin/{}", words[0]), &words, &[])
                .expect("spawn utility");
            let status = handle.wait();
            let elapsed = start.elapsed();
            let measurement = UtilityMeasurement {
                command: command.to_owned(),
                environment,
                elapsed,
                exit_code: status.code.unwrap_or(-1),
            };
            kernel.shutdown();
            measurement
        }
    }
}

/// Runs the full Figure 9 matrix (two commands × three environments).
pub fn figure9_matrix(with_compute: bool) -> Vec<UtilityMeasurement> {
    let commands = ["sha1sum /usr/bin/node", "ls -l /usr/bin"];
    let environments = [
        UtilityEnvironment::Native,
        UtilityEnvironment::NodeJs,
        UtilityEnvironment::Browsix,
    ];
    let mut results = Vec::new();
    for command in commands {
        for environment in environments {
            results.push(run_utility_benchmark(environment, command, with_compute));
        }
    }
    results
}

/// Also exposed for the syscall-overhead ablation: a Browsix run returns the
/// kernel statistics alongside the measurement.
pub fn browsix_run_with_stats(command: &str) -> (UtilityMeasurement, browsix_core::KernelStats) {
    let words: Vec<&str> = command.split_whitespace().collect();
    let config = BootConfig::in_memory()
        .with_fs(figure9_fs())
        .with_platform(browsix_browser::PlatformConfig::fast());
    browsix_utils::register_browsix(
        &config.registry,
        ExecutionProfile::instant(browsix_runtime::SyscallConvention::Async),
    );
    let kernel = Kernel::boot(config);
    let start = Instant::now();
    let handle = kernel
        .spawn(&format!("/usr/bin/{}", words[0]), &words, &[])
        .expect("spawn utility");
    let status = handle.wait();
    let measurement = UtilityMeasurement {
        command: command.to_owned(),
        environment: UtilityEnvironment::Browsix,
        elapsed: start.elapsed(),
        exit_code: status.code.unwrap_or(-1),
    };
    let stats = kernel.stats();
    kernel.shutdown();
    (measurement, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_environments_run_the_same_workload_correctly() {
        for environment in [
            UtilityEnvironment::Native,
            UtilityEnvironment::NodeJs,
            UtilityEnvironment::Browsix,
        ] {
            let m = run_utility_benchmark(environment, "ls -l /usr/bin", false);
            assert_eq!(m.exit_code, 0, "{environment:?}");
            assert!(!m.environment.label().is_empty());
        }
    }

    #[test]
    fn browsix_run_reports_syscall_statistics() {
        let (measurement, stats) = browsix_run_with_stats("ls -l /usr/bin");
        assert_eq!(measurement.exit_code, 0);
        // `ls -l` stats every directory entry through the kernel.
        assert!(stats.count("stat") as usize >= crate::workloads::LS_DIR_ENTRIES);
        assert!(stats.count("getdents") >= 1);
    }
}
