//! Task structures.
//!
//! "Each BROWSIX process has an associated task structure that lives in the
//! kernel that contains its process ID, parent's process ID, Web Worker
//! object, current working directory, and map of open file descriptors."
//! [`Task`] is that structure, extended with the bookkeeping the kernel needs
//! for signals, job control (the stopped state), synchronous system calls
//! (the registered shared heap and the ring mapped into it) and `fork` (the
//! launcher used to start it).  A task lives exactly as long as its process:
//! at exit it leaves the task table, and what `wait4` still needs — the
//! wait status, or a stop not yet reported — is its entry in its parent's
//! [`Task::children`], so it leaves with the parent's task, as the host's
//! exit watchers ([`Task::watchers`]) leave with its own.  Its process group,
//! and whether the parent it names still lives, are not kept here: the
//! router's process registry is their one record, read alike from every
//! shard.

use std::sync::Arc;

use crossbeam::channel::Sender;

use browsix_browser::Worker;

use crate::exec::{ForkImage, ProgramLauncher};
use crate::fd::FdTable;
use crate::ring::Ring;
use crate::signals::{Signal, SignalState};
use crate::syscall::{Completion, SysResult};
use crate::vm::AddressSpace;

/// A process identifier.
pub type Pid = u32;

/// The lifecycle state of a live task.
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
}

/// What a child did that its parent's `wait4` has not reported yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildReport {
    /// Stopped by this job-control signal (reported once, under `WUNTRACED`).
    Stopped(Signal),
    /// Exited with this encoded wait status (reported once, by reaping).
    Exited(i32),
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

/// Everything a new process is made of.  The host API, `spawn` and `fork`
/// each build one, and it moves whole — to another shard too, when
/// placement puts the process there — into the task it describes.
#[derive(Default)]
pub struct TaskSpec {
    /// Parent pid (0 for a process the host starts).
    pub ppid: Pid,
    /// Path of the executable.
    pub path: String,
    /// Argument vector (`argv[0]` included).
    pub args: Vec<String>,
    /// Environment.
    pub env: Vec<(String, String)>,
    /// Working directory.
    pub cwd: String,
    /// The descriptor table, its references already counted.
    pub files: FdTable,
    /// The program that runs the process: a fork's is its parent's; for
    /// anything else the kernel resolves `path` before it places the task.
    pub launcher: Option<Arc<dyn ProgramLauncher>>,
    /// A forked child's guest snapshot, handed over in its init message.
    pub fork_image: Option<ForkImage>,
    /// The address space: empty, or a forked parent's, cloned copy-on-write.
    pub address_space: AddressSpace,
    /// Told the wait status when the process exits (the host's `onExit`);
    /// subscribed before the process runs.
    pub exit: Option<Sender<i32>>,
    /// The process group it is born in: `None` keeps its parent's (a
    /// process the host starts leads a new one), `Some(0)` leads a new
    /// group, `Some(g)` joins group `g`.
    pub pgroup: Option<Pid>,
    /// Whether its group becomes the terminal's foreground group before it
    /// runs.
    pub foreground: bool,
}

/// A kernel task.
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Parent process id at spawn (0 for processes started by the embedding
    /// web application through the host API).  It names the parent only
    /// while the router's registry lists it — `getppid` reports 0 after the
    /// parent's exit.  The process group is not kept here: the registry is
    /// its one record.
    pub ppid: Pid,
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
    /// System-call frames `(seq, payload, transfers)` that arrived while the
    /// task was stopped; replayed in arrival order on SIGCONT.
    pub stashed_frames: Vec<(u64, Vec<u8>, Vec<Vec<u8>>)>,
    /// Persistent submission/completion ring mapped into the shared heap the
    /// process handed over (once, by `KernelEvent::MapRing`); shared-heap
    /// write sources are read from that heap.
    pub ring: Option<Ring>,
    /// Ring completions that could not be posted yet (completion queue full
    /// or no run of registered buffers free); flushed when a drain starts and as
    /// each of its passes parks.
    pub pending_cqes: std::collections::VecDeque<(u32, SysResult)>,
    /// The submission batch currently awaiting delivery of its completions.
    pub inflight: Option<InflightBatch>,
    /// Children in spawn order, live or exited and not yet reaped, each with
    /// what `wait4` has still to report of it.  A child may live on another
    /// shard: its exit and stops reach this entry by message.
    pub children: Vec<(Pid, Option<ChildReport>)>,
    /// Argument vector the task was started with.
    pub args: Vec<String>,
    /// Environment the task was started with.
    pub env: Vec<(String, String)>,
    /// The launcher that started this task; reused by `fork`.
    pub launcher: Arc<dyn ProgramLauncher>,
    /// The task's virtual address space: `mmap` regions, COW pages, shared
    /// mappings.
    pub address_space: AddressSpace,
    /// System calls dispatched for this task, over every transport
    /// (reported by `getrusage` as the `syscalls` counter).
    pub syscall_count: u64,
    /// Host channels told the wait status when the process exits.
    pub watchers: Vec<Sender<i32>>,
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
    /// Creates a running task from its spec, whose launcher is resolved.
    /// The spec's fork image is not part of the task: the kernel takes it
    /// out first.
    pub fn new(pid: Pid, spec: TaskSpec) -> Task {
        Task {
            pid,
            ppid: spec.ppid,
            name: browsix_fs::path::basename(&spec.path),
            exe_path: spec.path,
            cwd: spec.cwd,
            state: TaskState::Running,
            files: spec.files,
            worker: None,
            signals: SignalState::new(),
            stashed_frames: Vec::new(),
            ring: None,
            pending_cqes: std::collections::VecDeque::new(),
            inflight: None,
            children: Vec::new(),
            args: spec.args,
            env: spec.env,
            launcher: spec.launcher.expect("a task is installed with its launcher resolved"),
            address_space: spec.address_space,
            syscall_count: 0,
            watchers: spec.exit.into_iter().collect(),
        }
    }

    /// Terminates the task's worker, if it still has one, and ends the wait
    /// of a process asleep on its ring.  That wait reads the termination
    /// flag under its lock, beside the completion-queue tail, so a notify
    /// sent after the flag went up cannot miss it.
    pub fn terminate_worker(&mut self) {
        if let Some(worker) = self.worker.take() {
            worker.terminate();
            if let Some(ring) = &self.ring {
                ring.notify_cq();
            }
        }
    }

    /// Whether the task is still running.
    pub fn is_running(&self) -> bool {
        matches!(self.state, TaskState::Running)
    }

    /// Whether the task is suspended by a stop signal.
    pub fn is_stopped(&self) -> bool {
        matches!(self.state, TaskState::Stopped { .. })
    }

    /// The stop signal currently suspending the task, if any.
    pub fn stop_signal(&self) -> Option<Signal> {
        match self.state {
            TaskState::Stopped { signal } => Some(signal),
            TaskState::Running => None,
        }
    }

    /// Whether the task has installed a handler for `signal`.
    pub fn handles_signal(&self, signal: Signal) -> bool {
        self.signals.handles(signal)
    }
}

/// A spec for a task of the kernel's own unit tests, whose program never
/// runs.
#[cfg(test)]
pub(crate) fn test_spec(ppid: Pid, path: &str, cwd: &str) -> TaskSpec {
    struct Idle;
    impl ProgramLauncher for Idle {
        fn launch(&self, _ctx: crate::exec::LaunchContext) {}
    }
    TaskSpec {
        ppid,
        path: path.to_owned(),
        cwd: cwd.to_owned(),
        launcher: Some(Arc::new(Idle)),
        ..TaskSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_is_running_with_no_fds() {
        let task = Task::new(3, test_spec(1, "/usr/bin/cat", "/home"));
        assert!(task.is_running());
        assert_eq!(task.files.len(), 0);
        assert_eq!(task.cwd, "/home");
        assert_eq!(task.pid, 3);
        assert_eq!(task.ppid, 1);
    }

    #[test]
    fn signal_handler_registration() {
        use crate::signals::SigAction;
        let mut task = Task::new(2, test_spec(1, "/bin/sh", "/"));
        assert!(!task.handles_signal(Signal::SIGCHLD));
        task.signals
            .set_action(Signal::SIGCHLD, SigAction::Handler { restart: false });
        assert!(task.handles_signal(Signal::SIGCHLD));
        task.signals.set_action(Signal::SIGCHLD, SigAction::Default);
        assert!(!task.handles_signal(Signal::SIGCHLD));
    }

    #[test]
    fn stopped_state_is_alive_but_not_running() {
        let mut task = Task::new(6, test_spec(1, "/usr/bin/cat", "/"));
        task.state = TaskState::Stopped {
            signal: Signal::SIGTSTP,
        };
        assert!(!task.is_running());
        assert!(task.is_stopped());
        assert_eq!(task.stop_signal(), Some(Signal::SIGTSTP));
    }

    #[test]
    fn debug_output_is_compact() {
        let task = Task::new(1, test_spec(0, "/usr/bin/make", "/proj"));
        let text = format!("{task:?}");
        assert!(text.contains("make"));
        assert!(text.contains("pid: 1"));
    }
}
