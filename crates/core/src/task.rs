//! Task structures.
//!
//! "Each BROWSIX process has an associated task structure that lives in the
//! kernel that contains its process ID, parent's process ID, Web Worker
//! object, current working directory, and map of open file descriptors."
//! [`Task`] is that structure, extended with the bookkeeping the kernel needs
//! for signals, `wait4` (the zombie state), synchronous system calls (the
//! registered shared heap and the ring mapped into it) and `fork` (the
//! launcher used to start it).

use std::sync::Arc;

use browsix_browser::{SharedArrayBuffer, Worker};

use crate::exec::ProgramLauncher;
use crate::fd::FdTable;
use crate::ring::Ring;
use crate::signals::{Signal, SignalState};
use crate::syscall::{Completion, SysResult};
use crate::vm::AddressSpace;

/// A process identifier.
pub type Pid = u32;

/// The lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// The process is running (its worker is alive).
    Running,
    /// The process is suspended by a job-control stop signal.  Its worker is
    /// still alive, but the kernel stashes incoming system-call batches until
    /// SIGCONT, so the process freezes at its next syscall boundary.
    Stopped {
        /// The stop signal that suspended it.
        signal: Signal,
    },
    /// The process has exited but has not yet been reaped by `wait4`.
    Zombie {
        /// The encoded wait status (exit code or terminating signal).
        status: i32,
    },
}

/// Bookkeeping for the submission batch the task currently has in flight.
///
/// A process issues at most one batch at a time (its runtime blocks until the
/// batch completes), so the kernel tracks completions here and delivers them
/// all at once, in a single reply message, when the last entry finishes.
#[derive(Debug)]
pub struct InflightBatch {
    /// Sequence number the reply must carry.
    pub seq: u64,
    /// Number of entries the batch was submitted with.
    pub total: u32,
    /// Completions collected so far, in completion (not submission) order.
    pub completions: Vec<Completion>,
}

impl InflightBatch {
    /// Whether every entry has completed and the batch can be delivered.
    pub fn is_complete(&self) -> bool {
        self.completions.len() as u32 >= self.total
    }
}

/// A kernel task.
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Parent process id (0 for processes started by the embedding web
    /// application through the host API).
    pub ppid: Pid,
    /// Process-group id (initially the parent's group; host-started
    /// processes lead their own group).
    pub pgid: Pid,
    /// Executable name, for diagnostics (`ps`-style listings).
    pub name: String,
    /// Path of the executable the task was started from.
    pub exe_path: String,
    /// Current working directory.
    pub cwd: String,
    /// Lifecycle state.
    pub state: TaskState,
    /// Open file descriptors.
    pub files: FdTable,
    /// The Web Worker running the process, if still alive.
    pub worker: Option<Worker>,
    /// Signal state: installed actions, blocked mask, pending set.
    pub signals: SignalState,
    /// Whether the current stop has been reported to a `WUNTRACED` waiter
    /// (each stop is reported at most once, like Linux).
    pub stop_reported: bool,
    /// System-call frames `(seq, payload, transfers)` that arrived while the
    /// task was stopped; replayed in arrival order on SIGCONT.
    pub stashed_frames: Vec<(u64, Vec<u8>, Vec<Vec<u8>>)>,
    /// The shared heap the process registered, if it has one.
    pub sync_heap: Option<SharedArrayBuffer>,
    /// Persistent submission/completion ring mapped into the shared heap
    /// (set up once by `RingSetup` after heap registration).
    pub ring: Option<Ring>,
    /// Ring completions that could not be posted yet (completion queue full
    /// or no registered buffer free); flushed on every ring drain pass.
    pub pending_cqes: std::collections::VecDeque<(u32, SysResult)>,
    /// The submission batch currently awaiting delivery of its completions.
    pub inflight: Option<InflightBatch>,
    /// Child process ids (live or zombie).
    pub children: Vec<Pid>,
    /// Argument vector the task was started with.
    pub args: Vec<String>,
    /// Environment the task was started with.
    pub env: Vec<(String, String)>,
    /// The launcher that started this task; reused by `fork`.
    pub launcher: Option<Arc<dyn ProgramLauncher>>,
    /// The task's virtual address space: `mmap` regions, COW pages, shared
    /// mappings.
    pub address_space: AddressSpace,
    /// System calls dispatched for this task, over every transport
    /// (reported by `getrusage` as the `syscalls` counter).
    pub syscall_count: u64,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("pid", &self.pid)
            .field("ppid", &self.ppid)
            .field("name", &self.name)
            .field("cwd", &self.cwd)
            .field("state", &self.state)
            .field("fds", &self.files.len())
            .field("children", &self.children)
            .finish()
    }
}

impl Task {
    /// Creates a fresh running task with an empty descriptor table.
    pub fn new(pid: Pid, ppid: Pid, name: &str, exe_path: &str, cwd: &str) -> Task {
        Task {
            pid,
            ppid,
            pgid: pid,
            name: name.to_owned(),
            exe_path: exe_path.to_owned(),
            cwd: cwd.to_owned(),
            state: TaskState::Running,
            files: FdTable::new(),
            worker: None,
            signals: SignalState::new(),
            stop_reported: false,
            stashed_frames: Vec::new(),
            sync_heap: None,
            ring: None,
            pending_cqes: std::collections::VecDeque::new(),
            inflight: None,
            children: Vec::new(),
            args: Vec::new(),
            env: Vec::new(),
            launcher: None,
            address_space: AddressSpace::new(),
            syscall_count: 0,
        }
    }

    /// Whether the task is still running.
    pub fn is_running(&self) -> bool {
        matches!(self.state, TaskState::Running)
    }

    /// Whether the task is alive (running or stopped) — i.e. a valid signal
    /// target.
    pub fn is_alive(&self) -> bool {
        !self.is_zombie()
    }

    /// Whether the task is suspended by a stop signal.
    pub fn is_stopped(&self) -> bool {
        matches!(self.state, TaskState::Stopped { .. })
    }

    /// Whether the task is a zombie awaiting `wait4`.
    pub fn is_zombie(&self) -> bool {
        matches!(self.state, TaskState::Zombie { .. })
    }

    /// The zombie's wait status, if it has one.
    pub fn wait_status(&self) -> Option<i32> {
        match self.state {
            TaskState::Zombie { status } => Some(status),
            TaskState::Running | TaskState::Stopped { .. } => None,
        }
    }

    /// The stop signal currently suspending the task, if any.
    pub fn stop_signal(&self) -> Option<Signal> {
        match self.state {
            TaskState::Stopped { signal } => Some(signal),
            _ => None,
        }
    }

    /// Whether the task has installed a handler for `signal`.
    pub fn handles_signal(&self, signal: Signal) -> bool {
        self.signals.handles(signal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_is_running_with_no_fds() {
        let task = Task::new(3, 1, "cat", "/usr/bin/cat", "/home");
        assert!(task.is_running());
        assert!(!task.is_zombie());
        assert_eq!(task.wait_status(), None);
        assert_eq!(task.files.len(), 0);
        assert_eq!(task.cwd, "/home");
        assert_eq!(task.pid, 3);
        assert_eq!(task.ppid, 1);
    }

    #[test]
    fn zombie_state_carries_status() {
        let mut task = Task::new(5, 1, "ls", "/usr/bin/ls", "/");
        task.state = TaskState::Zombie { status: 0x100 };
        assert!(task.is_zombie());
        assert_eq!(task.wait_status(), Some(0x100));
    }

    #[test]
    fn signal_handler_registration() {
        use crate::signals::SigAction;
        let mut task = Task::new(2, 1, "sh", "/bin/sh", "/");
        assert!(!task.handles_signal(Signal::SIGCHLD));
        task.signals
            .set_action(Signal::SIGCHLD, SigAction::Handler { restart: false });
        assert!(task.handles_signal(Signal::SIGCHLD));
        task.signals.set_action(Signal::SIGCHLD, SigAction::Default);
        assert!(!task.handles_signal(Signal::SIGCHLD));
    }

    #[test]
    fn stopped_state_is_alive_but_not_running() {
        let mut task = Task::new(6, 1, "cat", "/usr/bin/cat", "/");
        assert_eq!(task.pgid, 6);
        task.state = TaskState::Stopped {
            signal: Signal::SIGTSTP,
        };
        assert!(!task.is_running());
        assert!(task.is_stopped());
        assert!(task.is_alive());
        assert_eq!(task.stop_signal(), Some(Signal::SIGTSTP));
        assert_eq!(task.wait_status(), None);
    }

    #[test]
    fn debug_output_is_compact() {
        let task = Task::new(1, 0, "make", "/usr/bin/make", "/proj");
        let text = format!("{task:?}");
        assert!(text.contains("make"));
        assert!(text.contains("pid: 1"));
    }
}
