//! Process-management system-call handlers: spawn, fork, pipe2, wait4, exit,
//! kill, signal registration and the process-metadata calls.

use std::sync::Arc;

use browsix_fs::{Errno, FileSystem};

use crate::exec::ForkImage;
use crate::fd::{FileKind, OpenFile};
use crate::kernel::{shard, KernelState, Outcome, ReplyTo, WaitKind};
use crate::signals::{SigAction, SigSet, Signal};
use crate::syscall::{encode_stop_status, encode_wait_status, SysResult, WNOHANG, WUNTRACED};
use crate::task::{ChildReport, Pid, TaskSpec};

impl KernelState {
    /// `spawn`: the child's descriptors, environment and working directory
    /// come from the caller unless given; `pgroup` (`-1` the caller's group,
    /// `0` a new one, `g` group `g`) and `foreground` hold from before the
    /// child runs (see [`KernelState::spawn_process`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_spawn(
        &mut self,
        pid: Pid,
        path: String,
        args: Vec<String>,
        env: Vec<(String, String)>,
        cwd: Option<String>,
        stdio: [Option<i32>; 3],
        pgroup: i32,
        foreground: bool,
    ) -> Result<SysResult, Errno> {
        let parent = self.task(pid)?;
        // The child's stdin/stdout/stderr: an explicit parent fd, which
        // must be open, or else the parent's descriptor of the same number,
        // or /dev/null.
        let files = (0..3)
            .zip(stdio)
            .map(|(fd, slot)| match slot {
                Some(parent_fd) => parent.files.get(parent_fd).map(|file| (fd, file)),
                None => Ok((
                    fd,
                    parent.files.get(fd).unwrap_or_else(|_| OpenFile::new(FileKind::Null)),
                )),
            })
            .collect::<Result<_, Errno>>()?;
        let spec = TaskSpec {
            ppid: pid,
            path: browsix_fs::path::resolve(&parent.cwd, &path),
            args,
            // An empty environment inherits the parent's.
            env: if env.is_empty() { parent.env.clone() } else { env },
            cwd: cwd.map_or_else(
                || parent.cwd.clone(),
                |cwd| browsix_fs::path::resolve(&parent.cwd, &cwd),
            ),
            files,
            pgroup: u32::try_from(pgroup).ok(),
            foreground,
            ..TaskSpec::default()
        };
        let child = self.spawn_process(spec)?;
        Ok(SysResult::Int(child as i64))
    }

    pub(crate) fn sys_fork(&mut self, pid: Pid, image: Vec<u8>, resume_point: u64) -> Result<SysResult, Errno> {
        let parent = self.task(pid)?;
        // Clone the parent's address space copy-on-write: O(regions) work,
        // every materialised page shared by reference.  The first post-fork
        // write to a shared page (parent or child) COW-faults in
        // `sys_vm_write`.
        let (address_space, vm_delta) = parent.address_space.fork_clone();
        let spec = TaskSpec {
            ppid: pid,
            path: parent.exe_path.clone(),
            args: parent.args.clone(),
            env: parent.env.clone(),
            cwd: parent.cwd.clone(),
            // The child inherits the parent's descriptor table (shared
            // descriptions, exactly like fork on Unix).
            files: parent.files.inherit(),
            launcher: Some(Arc::clone(&parent.launcher)),
            fork_image: Some(ForkImage { image, resume_point }),
            address_space,
            ..TaskSpec::default()
        };
        let child = self.spawn_process(spec)?;
        self.stats.record_vm(vm_delta);
        Ok(SysResult::Int(child as i64))
    }

    pub(crate) fn sys_pipe2(&mut self, pid: Pid) -> Result<SysResult, Errno> {
        self.task(pid)?;
        let stream_id = self.streams.create();
        let reader = self.new_stream_file(FileKind::PipeReader { stream: stream_id });
        let writer = self.new_stream_file(FileKind::PipeWriter { stream: stream_id });
        let files = &mut self.task_mut(pid)?.files;
        let read_fd = files.insert(reader, 0);
        let write_fd = files.insert(writer, 0);
        Ok(SysResult::Pair(read_fd as i64, write_fd as i64))
    }

    /// Looks for a reportable child of `pid` matching `target` (-1 = any
    /// child): an exited one, or — under `WUNTRACED` — a stopped one whose
    /// stop has not been reported yet.  Returns `Err(ECHILD)` if `pid` has
    /// no children at all matching the request.
    ///
    /// The parent's `children` list, in spawn order, names its children and
    /// holds what each has still to report, wherever the child lived (see
    /// `ShardMsg::ChildChanged`); taking the report is the report, so each
    /// exit and each stop is reported exactly once.
    pub(crate) fn try_reap_child(&mut self, pid: Pid, target: i32, options: u32) -> Result<Option<(Pid, i32)>, Errno> {
        let children = &mut self.task_mut(pid)?.children;
        let matching = |child: Pid| target < 0 || child == target as Pid;
        if !children.iter().any(|&(child, _)| matching(child)) {
            return Err(Errno::ECHILD);
        }
        let exited = children
            .iter()
            .enumerate()
            .find_map(|(i, &(child, report))| match report {
                Some(ChildReport::Exited(status)) if matching(child) => Some((i, child, status)),
                _ => None,
            });
        if let Some((i, child, status)) = exited {
            children.remove(i);
            return Ok(Some((child, status)));
        }
        if options & WUNTRACED != 0 {
            for (child, report) in children.iter_mut().filter(|(child, _)| matching(*child)) {
                if let Some(ChildReport::Stopped(signal)) = *report {
                    *report = None;
                    return Ok(Some((*child, encode_stop_status(signal))));
                }
            }
        }
        Ok(None)
    }

    /// The unreaped exits this shard's tasks hold, as `(child, status)`.
    pub(crate) fn exit_records(&self) -> impl Iterator<Item = (Pid, i32)> + '_ {
        self.tasks
            .values()
            .flat_map(|task| &task.children)
            .filter_map(|&(child, report)| match report {
                Some(ChildReport::Exited(status)) => Some((child, status)),
                _ => None,
            })
    }

    /// Checks that every task in this shard's table is in the router's
    /// registry, on this shard: the registry is what every shard reads a
    /// live process's group and a parent's liveness from.
    #[cfg(any(test, feature = "scavenger"))]
    pub(crate) fn audit_process_registry(&self) {
        for &pid in self.tasks.keys() {
            debug_assert_eq!(
                self.router.process_shard(pid),
                Some(self.shard_id),
                "shard {}: task {pid} is not registered here",
                self.shard_id
            );
        }
    }

    pub(crate) fn sys_wait4(&mut self, pid: Pid, reply: ReplyTo, target: i32, options: u32) -> Result<Outcome, Errno> {
        let kind = WaitKind::Wait4 { target, options };
        self.block(pid, Some(reply), kind, options & WNOHANG != 0)
    }

    pub(crate) fn sys_exit(&mut self, pid: Pid, code: i32) -> Result<Outcome, Errno> {
        self.finish_task(pid, encode_wait_status(Some(code), None));
        Ok(Outcome::NoReply)
    }

    /// `kill(2)` addressing: `target > 0` signals that process, `target < 0`
    /// signals group `-target`, and `target == 0` signals the caller's own
    /// group.  A process on another shard is signalled there, and the call
    /// parks until that shard answers with the delivery's result.  A group
    /// signal answers at once, whatever its members on other shards do with
    /// it.
    pub(crate) fn sys_kill(
        &mut self,
        caller: Pid,
        reply: ReplyTo,
        target: i32,
        signal: Signal,
    ) -> Result<Outcome, Errno> {
        if target > 0 {
            let target = target as Pid;
            if shard::shard_of(target, self.nshards) != self.shard_id {
                // Owned by another shard: the router registry (live
                // processes only) answers existence, and the owner answers
                // the call once the signal has landed.
                let owner = self.router.process_shard(target).ok_or(Errno::ESRCH)?;
                return Ok(self.remote_kill(caller, reply, owner, target, signal));
            }
            self.send_signal(target, signal)?;
        } else {
            let pgid = if target == 0 {
                self.router.process_pgid(caller).ok_or(Errno::ESRCH)?
            } else {
                u32::try_from(-(target as i64)).map_err(|_| Errno::EINVAL)?
            };
            self.signal_pgroup(pgid, signal)?;
        }
        Ok(Outcome::Complete(SysResult::Ok))
    }

    pub(crate) fn sys_sigaction(&mut self, pid: Pid, signal: Signal, action: SigAction) -> Result<SysResult, Errno> {
        if !signal.catchable() {
            return Err(Errno::EINVAL);
        }
        self.task_mut(pid)?.signals.set_action(signal, action);
        Ok(SysResult::Ok)
    }

    /// `sigprocmask`: updates the caller's blocked mask and dispatches any
    /// pending signals that became deliverable — each exactly once.
    pub(crate) fn sys_sigprocmask(&mut self, pid: Pid, how: u32, mask: u64) -> Result<SysResult, Errno> {
        let changed = self.task_mut(pid)?.signals.change_mask(how, SigSet::from_bits(mask));
        let (old, deliverable) = changed.ok_or(Errno::EINVAL)?;
        for signal in deliverable {
            // Delivery may terminate or stop the caller; dispatch re-checks
            // the task each time.
            self.dispatch_signal(pid, signal);
        }
        Ok(SysResult::Int(old.bits() as i64))
    }

    /// `setpgid`: moves `target` (0 = the caller) into group `pgid` (0 = a
    /// new group led by the target).  Only the caller itself or its children
    /// may be moved, and only into a new group or one that still exists, as
    /// on Unix (see `RouterState::set_pgid`).  The move is made in the router's registry, so every
    /// shard sees it when the call returns.
    pub(crate) fn sys_setpgid(&mut self, caller: Pid, target: Pid, pgid: Pid) -> Result<SysResult, Errno> {
        let target = if target == 0 { caller } else { target };
        let group = if pgid == 0 { target } else { pgid };
        if target != caller && !self.is_child(caller, target) {
            return Err(Errno::EPERM);
        }
        self.router.set_pgid(target, group, self.is_child(caller, group))?;
        Ok(SysResult::Ok)
    }

    /// Whether `child` is a child of `pid`'s it has not reaped: running,
    /// stopped, or exited with its status still to report.
    pub(crate) fn is_child(&self, pid: Pid, child: Pid) -> bool {
        self.task(pid)
            .is_ok_and(|task| task.children.iter().any(|&(c, _)| c == child))
    }

    /// `getrusage`: resource-usage counters for the caller, pair-encoded as
    /// a `u32` count followed by (`str` key, `u64` value) pairs so the
    /// counter set can grow without a wire-format change.  Only
    /// `who == 0` (`RUSAGE_SELF`) is supported.
    pub(crate) fn sys_getrusage(&mut self, pid: Pid, who: i32) -> Result<SysResult, Errno> {
        if who != 0 {
            return Err(Errno::EINVAL);
        }
        let task = self.task(pid)?;
        let counters: &[(&str, u64)] = &[
            ("syscalls", task.syscall_count),
            (
                "maxrss",
                (task.address_space.resident_page_count() * crate::vm::PAGE_SIZE) as u64,
            ),
        ];
        let mut out = Vec::new();
        crate::wire::put_u32(&mut out, counters.len() as u32);
        for (key, value) in counters {
            crate::wire::put_str(&mut out, key);
            crate::wire::put_u64(&mut out, *value);
        }
        Ok(SysResult::Data(out))
    }

    pub(crate) fn sys_getpgid(&mut self, caller: Pid, target: Pid) -> Result<SysResult, Errno> {
        let target = if target == 0 { caller } else { target };
        let pgid = self.router.process_pgid(target).ok_or(Errno::ESRCH)?;
        Ok(SysResult::Int(pgid as i64))
    }

    /// `tcsetpgrp`: makes `pgid` the foreground group of the controlling
    /// terminal.  The kernel models one terminal, so there is no descriptor
    /// argument; any process may hand the foreground over (the shell takes
    /// it back after every foreground pipeline, whose `spawn` handed it
    /// over).
    pub(crate) fn sys_tcsetpgrp(&mut self, _caller: Pid, pgid: Pid) -> Result<SysResult, Errno> {
        self.router.set_foreground_pgid(Some(pgid));
        Ok(SysResult::Ok)
    }

    pub(crate) fn sys_getppid(&mut self, pid: Pid) -> Result<SysResult, Errno> {
        let ppid = self.task(pid)?.ppid;
        Ok(SysResult::Int(self.router.live_parent(ppid) as i64))
    }

    pub(crate) fn sys_getcwd(&mut self, pid: Pid) -> Result<SysResult, Errno> {
        Ok(SysResult::Path(self.task(pid)?.cwd.clone()))
    }

    pub(crate) fn sys_chdir(&mut self, pid: Pid, path: String) -> Result<SysResult, Errno> {
        let resolved = self.resolve_path(pid, &path);
        if !self.fs.stat(&resolved)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if let Ok(task) = self.task_mut(pid) {
            task.cwd = resolved;
        }
        Ok(SysResult::Ok)
    }
}
