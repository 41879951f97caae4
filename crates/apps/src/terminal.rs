//! The Browsix terminal case study (paper §5.1.2).
//!
//! The terminal gives developers a POSIX shell (dash) running inside Browsix:
//! they can pipe programs together, run scripts, launch background jobs and
//! inspect kernel state.  [`Terminal`] is the host-side half: it feeds command
//! lines to the shell as Browsix processes and captures their output, plus a
//! `ps`-like view over the kernel's task table.

use std::time::Duration;

use browsix_core::{Errno, Kernel};

/// The outcome of one command line typed at the terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalResult {
    /// Exit status of the command line.
    pub exit_code: i32,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
}

/// How many command lines [`Terminal::history`] remembers (bash's default
/// `HISTSIZE`): a terminal left running must not grow without bound.
pub const HISTORY_LIMIT: usize = 500;

/// An in-browser Unix terminal backed by a Browsix kernel.
pub struct Terminal {
    kernel: Kernel,
    history: Vec<String>,
    env: Vec<(String, String)>,
}

impl Terminal {
    /// Wraps a kernel that already has the shell and utilities registered
    /// (see [`boot_standard_kernel`](crate::boot_standard_kernel)).
    pub fn new(kernel: Kernel) -> Terminal {
        Terminal {
            kernel,
            history: Vec::new(),
            env: Vec::new(),
        }
    }

    /// The kernel behind the terminal.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Consumes the terminal, returning the kernel (e.g. to shut it down).
    pub fn into_kernel(self) -> Kernel {
        self.kernel
    }

    /// The most recent command lines, oldest first (at most
    /// [`HISTORY_LIMIT`]).
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Runs one command line through `/bin/sh -c`, waiting for completion.
    ///
    /// # Errors
    ///
    /// Returns an [`Errno`] if the shell itself cannot be started.
    pub fn run_line(&mut self, line: &str) -> Result<TerminalResult, Errno> {
        if self.history.len() == HISTORY_LIMIT {
            self.history.remove(0);
        }
        self.history.push(line.to_owned());
        // Each line runs in a fresh `/bin/sh -c` process, so the terminal —
        // not the shell — is what carries environment variables from one
        // line to the next, as an interactive shell session would.
        if let Some(assignments) = parse_assignment_only_line(line) {
            for (name, value) in assignments {
                match self.env.iter_mut().find(|(n, _)| *n == name) {
                    Some(entry) => entry.1 = value,
                    None => self.env.push((name, value)),
                }
            }
            return Ok(TerminalResult {
                exit_code: 0,
                stdout: String::new(),
                stderr: String::new(),
            });
        }
        let env: Vec<(&str, &str)> = self.env.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
        let handle = self.kernel.spawn("/bin/sh", &["sh", "-c", line], &env)?;
        let status = handle.wait();
        Ok(TerminalResult {
            exit_code: status
                .code
                .unwrap_or(128 + status.signal.map(|s| s.number()).unwrap_or(1)),
            stdout: handle.stdout_string(),
            stderr: handle.stderr_string(),
        })
    }

    /// Runs a multi-line script, stopping at the first line that fails when
    /// `stop_on_error` is set.  Returns the per-line results.
    ///
    /// # Errors
    ///
    /// Returns an [`Errno`] if the shell cannot be started for some line.
    pub fn run_script(&mut self, script: &str, stop_on_error: bool) -> Result<Vec<TerminalResult>, Errno> {
        let mut results = Vec::new();
        for line in script
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let result = self.run_line(line)?;
            let failed = result.exit_code != 0;
            results.push(result);
            if failed && stop_on_error {
                break;
            }
        }
        Ok(results)
    }

    /// `Ctrl-C`: interrupts the foreground pipeline (and only it — the
    /// shell hands the terminal's foreground group to each pipeline it runs,
    /// so background jobs and the shell itself are untouched).
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if nothing is in the foreground.
    pub fn interrupt(&self) -> Result<(), Errno> {
        self.kernel.interrupt()
    }

    /// `Ctrl-Z`: stops the foreground pipeline (SIGTSTP); the shell reports
    /// it as a stopped job that `fg`/`bg` can resume.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if nothing is in the foreground.
    pub fn suspend(&self) -> Result<(), Errno> {
        self.kernel.signal_foreground(browsix_core::Signal::SIGTSTP)
    }

    /// A `ps`-like listing of kernel tasks: `(pid, ppid, name, state)`.
    pub fn ps(&self) -> Vec<(u32, u32, String, String)> {
        self.kernel.tasks()
    }

    /// Waits for all processes the kernel knows about to finish, up to
    /// `timeout` (used after starting background jobs with `&`).
    pub fn drain(&self, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.kernel.tasks().iter().all(|(_, _, _, state)| state != "running") {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Parses a line that consists only of `NAME=value` words (no command), the
/// form a shell treats as variable assignments.  Values are taken literally;
/// quoted or space-containing values need a real command line.  Assignment
/// words are recognised by the shell parser's own rule so the two never
/// disagree.
fn parse_assignment_only_line(line: &str) -> Option<Vec<(String, String)>> {
    let words: Vec<&str> = line.split_whitespace().collect();
    if words.is_empty() {
        return None;
    }
    words.into_iter().map(browsix_shell::parser::split_assignment).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot_standard_kernel, default_config};
    use browsix_fs::FileSystem;
    use browsix_runtime::{ExecutionProfile, SyscallConvention};

    fn terminal() -> Terminal {
        let kernel = boot_standard_kernel(default_config(), ExecutionProfile::instant(SyscallConvention::Async));
        kernel.fs().mkdir("/data").unwrap();
        kernel
            .fs()
            .write_file("/data/file.txt", b"apple\nbanana\napple pie\n")
            .unwrap();
        Terminal::new(kernel)
    }

    #[test]
    fn runs_simple_commands_and_keeps_history() {
        let mut term = terminal();
        let result = term.run_line("echo hello terminal").unwrap();
        assert_eq!(result.exit_code, 0);
        assert_eq!(result.stdout, "hello terminal\n");
        let result = term.run_line("no-such-program").unwrap();
        assert_eq!(result.exit_code, 127);
        assert_eq!(term.history().len(), 2);
    }

    #[test]
    fn history_keeps_only_the_most_recent_lines() {
        let mut term = terminal();
        // Assignment-only lines start no process, so this stays fast.
        for i in 0..HISTORY_LIMIT + 3 {
            term.run_line(&format!("N={i}")).unwrap();
        }
        assert_eq!(term.history().len(), HISTORY_LIMIT);
        assert_eq!(term.history()[0], "N=3");
        assert_eq!(term.history().last().unwrap(), &format!("N={}", HISTORY_LIMIT + 2));
    }

    #[test]
    fn pipelines_and_redirection_work_through_the_terminal() {
        let mut term = terminal();
        let result = term
            .run_line("cat /data/file.txt | grep apple > /data/apples.txt")
            .unwrap();
        assert_eq!(result.exit_code, 0, "stderr: {}", result.stderr);
        assert_eq!(
            term.kernel().fs().read_file("/data/apples.txt").unwrap(),
            b"apple\napple pie\n"
        );
        let result = term.run_line("wc -l /data/apples.txt").unwrap();
        assert!(result.stdout.trim().starts_with('2'));
    }

    #[test]
    fn scripts_stop_on_error_when_asked() {
        let mut term = terminal();
        let results = term
            .run_script("mkdir /proj\n# a comment\nfalse\necho never reached\n", true)
            .unwrap();
        assert_eq!(results.len(), 2);
        assert!(term.kernel().fs().stat("/proj").unwrap().is_dir());

        let results = term.run_script("false\necho still runs\n", false).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].stdout, "still runs\n");
    }

    #[test]
    fn assignments_persist_across_lines() {
        let mut term = terminal();
        let result = term.run_line("GREETING=hello").unwrap();
        assert_eq!(result.exit_code, 0);
        let result = term.run_line("echo $GREETING from the terminal").unwrap();
        assert_eq!(result.stdout, "hello from the terminal\n");

        // Re-assignment overwrites, and multiple assignments on one line work.
        let _ = term.run_line("GREETING=goodbye  COUNT=3").unwrap();
        let result = term.run_line("echo $GREETING $COUNT").unwrap();
        assert_eq!(result.stdout, "goodbye 3\n");

        // A word that is not a pure assignment still runs as a command.
        let result = term.run_line("echo GREETING=nope").unwrap();
        assert_eq!(result.stdout, "GREETING=nope\n");
    }

    #[test]
    fn ps_lists_tasks_and_drain_waits() {
        let mut term = terminal();
        let _ = term.run_line("echo started").unwrap();
        // After the command finished there are no running tasks left.
        term.drain(Duration::from_secs(2));
        assert!(term.ps().iter().all(|(_, _, _, state)| state != "running"));
        let kernel = term.into_kernel();
        kernel.shutdown();
    }
}
