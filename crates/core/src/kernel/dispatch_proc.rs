//! Process-management system-call handlers: spawn, fork, pipe2, wait4, exit,
//! kill, signal registration and the process-metadata calls.

use std::sync::Arc;

use browsix_fs::{Errno, FileSystem};

use crate::exec::ForkImage;
use crate::fd::{FileKind, OpenFile};
use crate::kernel::waitq::WaitChannel;
use crate::kernel::{KernelState, Outcome, ReplyTo, ShardMsg, WaitKind, Waiter};
use crate::signals::{SigAction, SigSet, Signal};
use crate::syscall::{encode_stop_status, encode_wait_status, SysResult, WNOHANG, WUNTRACED};
use crate::task::Pid;

impl KernelState {
    pub(crate) fn sys_spawn(
        &mut self,
        pid: Pid,
        path: String,
        args: Vec<String>,
        env: Vec<(String, String)>,
        cwd: Option<String>,
        stdio: [Option<i32>; 3],
    ) -> Outcome {
        let parent = match self.task(pid) {
            Ok(task) => task,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let parent_cwd = parent.cwd.clone();
        let parent_env = parent.env.clone();
        let child_cwd = cwd
            .map(|c| browsix_fs::path::resolve(&parent_cwd, &c))
            .unwrap_or(parent_cwd.clone());
        let exe_path = browsix_fs::path::resolve(&parent_cwd, &path);

        // Assemble the child's stdin/stdout/stderr: an explicit parent fd, or
        // inherit the parent's descriptor of the same number, or /dev/null.
        let mut child_stdio: Vec<Arc<OpenFile>> = Vec::with_capacity(3);
        for (i, slot) in stdio.iter().enumerate() {
            let source_fd = slot.unwrap_or(i as i32);
            let file = self
                .task(pid)
                .ok()
                .and_then(|t| t.files.get(source_fd).ok())
                .unwrap_or_else(|| OpenFile::new(FileKind::Null));
            child_stdio.push(file);
        }
        let stdio_arr: [Arc<OpenFile>; 3] = [child_stdio[0].clone(), child_stdio[1].clone(), child_stdio[2].clone()];

        // The child environment: parent's environment unless the caller
        // supplied one explicitly.
        let child_env = if env.is_empty() { parent_env } else { env };

        match self.spawn_process(pid, &exe_path, args, child_env, &child_cwd, stdio_arr, None, None) {
            Ok(child) => Outcome::Complete(SysResult::Int(child as i64)),
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_fork(&mut self, pid: Pid, image: Vec<u8>, resume_point: u64) -> Outcome {
        let parent = match self.task(pid) {
            Ok(task) => task,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let Some(launcher) = parent.launcher.clone() else {
            return Outcome::Complete(SysResult::Err(Errno::ENOSYS));
        };
        let exe_path = parent.exe_path.clone();
        let args = parent.args.clone();
        let env = parent.env.clone();
        let cwd = parent.cwd.clone();
        // The child inherits the parent's descriptor table (shared
        // descriptions, exactly like fork on Unix).
        let files = parent.files.inherit();
        let stdio: [Arc<OpenFile>; 3] = [
            files.get(0).unwrap_or_else(|_| OpenFile::new(FileKind::Null)),
            files.get(1).unwrap_or_else(|_| OpenFile::new(FileKind::Null)),
            files.get(2).unwrap_or_else(|_| OpenFile::new(FileKind::Null)),
        ];
        // Clone the parent's address space copy-on-write: O(regions) work,
        // every materialised page shared by reference.  The first post-fork
        // write to a shared page (parent or child) COW-faults in
        // `sys_vm_write`.
        let (address_space, vm_delta) = parent.address_space.fork_clone();
        let fork_image = ForkImage { image, resume_point };
        match self.spawn_process(pid, &exe_path, args, env, &cwd, stdio, Some(fork_image), Some(launcher)) {
            Ok(child) => {
                // Copy the rest of the parent's descriptors (beyond stdio)
                // into the child, preserving numbers.
                let extra: Vec<(i32, Arc<OpenFile>)> = files
                    .iter()
                    .filter(|(fd, _)| *fd > 2)
                    .map(|(fd, file)| (fd, Arc::clone(file)))
                    .collect();
                if let Ok(child_task) = self.task_mut(child) {
                    for (fd, file) in extra {
                        let displaced = child_task.files.insert_at(fd, file);
                        debug_assert!(displaced.is_none(), "a fresh child holds only stdio");
                    }
                    child_task.address_space = address_space;
                }
                self.stats.record_vm(vm_delta);
                Outcome::Complete(SysResult::Int(child as i64))
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_pipe2(&mut self, pid: Pid) -> Outcome {
        if let Err(e) = self.task(pid) {
            return Outcome::Complete(SysResult::Err(e));
        }
        let stream_id = self.streams_mut().create();
        let reader = self.new_stream_file(FileKind::PipeReader { stream: stream_id });
        let writer = self.new_stream_file(FileKind::PipeWriter { stream: stream_id });
        let files = &mut self.task_mut(pid).expect("checked above").files;
        let read_fd = files.insert(reader, 0);
        let write_fd = files.insert(writer, 0);
        Outcome::Complete(SysResult::Pair(read_fd as i64, write_fd as i64))
    }

    /// Looks for a reportable child of `pid` matching `target` (-1 = any
    /// child): a reapable zombie, or — under `WUNTRACED` — a child stopped by
    /// a job-control signal whose stop has not been reported yet.  Returns
    /// `Err(ECHILD)` if `pid` has no children at all matching the request.
    ///
    /// Membership is the parent's `children` list, which may name tasks that
    /// live on other shards.  A remote child's exit or stop arrives here as a
    /// shipped record (`remote_zombies` / `remote_stops`, see
    /// `ShardMsg::ChildExited`); reaping consumes the record, so every exit
    /// and stop is reported exactly once regardless of placement.
    pub(crate) fn try_reap_child(&mut self, pid: Pid, target: i32, options: u32) -> Result<Option<(Pid, i32)>, Errno> {
        let children: Vec<Pid> = match self.task(pid) {
            Ok(task) => task.children.clone(),
            Err(e) => return Err(e),
        };
        let candidates: Vec<Pid> = children
            .into_iter()
            .filter(|&child| target < 0 || child == target as Pid)
            .collect();
        if candidates.is_empty() {
            return Err(Errno::ECHILD);
        }
        for &child in &candidates {
            // Local zombie?
            let status = self.task(child).ok().and_then(|t| t.wait_status());
            if let Some(status) = status {
                self.remove_task(child);
                if let Ok(parent) = self.task_mut(pid) {
                    parent.children.retain(|&c| c != child);
                }
                return Ok(Some((child, status)));
            }
            // Zombie shipped from the child's shard?
            if let Some(status) = self.remote_zombies.remove(&child) {
                self.remote_stops.remove(&child);
                if let Ok(parent) = self.task_mut(pid) {
                    parent.children.retain(|&c| c != child);
                }
                return Ok(Some((child, status)));
            }
        }
        if options & WUNTRACED != 0 {
            for &child in &candidates {
                if let Ok(task) = self.task_mut(child) {
                    if let Some(signal) = task.stop_signal() {
                        if !task.stop_reported {
                            // Each stop is reported to wait4 at most once;
                            // the child stays in the task table (it is not a
                            // zombie and can be continued).
                            task.stop_reported = true;
                            return Ok(Some((child, encode_stop_status(signal))));
                        }
                    }
                }
            }
            for &child in &candidates {
                // Stops shipped from remote shards are one-shot by
                // construction: consuming the record is the report.
                if let Some(signal) = self.remote_stops.remove(&child) {
                    return Ok(Some((child, encode_stop_status(signal))));
                }
            }
        }
        Ok(None)
    }

    pub(crate) fn sys_wait4(&mut self, pid: Pid, reply: ReplyTo, target: i32, options: u32) -> Outcome {
        match self.try_reap_child(pid, target, options) {
            Err(e) => Outcome::Complete(SysResult::Err(e)),
            Ok(Some((child, status))) => Outcome::Complete(SysResult::Wait { pid: child, status }),
            Ok(None) => {
                if options & WNOHANG != 0 {
                    Outcome::Complete(SysResult::Wait { pid: 0, status: 0 })
                } else {
                    // Park on this process's own child-exit queue; only a
                    // child of ours exiting (or stopping) wakes it.
                    self.stats.waiters_parked += 1;
                    self.park_waiter_one(
                        WaitChannel::ChildOf(pid),
                        Waiter {
                            pid,
                            reply: Some(reply),
                            kind: WaitKind::Wait4 { target, options },
                        },
                    );
                    Outcome::Blocked
                }
            }
        }
    }

    pub(crate) fn sys_exit(&mut self, pid: Pid, code: i32) -> Outcome {
        self.finish_task(pid, encode_wait_status(Some(code), None));
        Outcome::NoReply
    }

    /// `kill(2)` addressing: `target > 0` signals that process, `target < 0`
    /// signals group `-target`, and `target == 0` signals the caller's own
    /// group.
    pub(crate) fn sys_kill(&mut self, caller: Pid, target: i32, signal: Signal) -> Outcome {
        let result = if target > 0 {
            let target = target as Pid;
            if crate::kernel::shard::shard_of(target, self.nshards()) == self.shard_id() {
                self.send_signal(target, signal)
            } else {
                // Owned by another shard: the router registry (live processes
                // only) answers existence; delivery goes by message.  A target
                // that dies in flight just drops the signal, exactly as a
                // local target that exits between lookup and delivery would.
                match self.router.process_shard(target) {
                    Some(shard) => {
                        self.send_shard(shard, ShardMsg::SignalPid { pid: target, signal });
                        Ok(())
                    }
                    None => Err(Errno::ESRCH),
                }
            }
        } else {
            let pgid = if target == 0 {
                match self.task(caller) {
                    Ok(task) => task.pgid,
                    Err(e) => return Outcome::Complete(SysResult::Err(e)),
                }
            } else {
                match u32::try_from(-(target as i64)) {
                    Ok(pgid) => pgid,
                    Err(_) => return Outcome::Complete(SysResult::Err(Errno::EINVAL)),
                }
            };
            self.signal_pgroup(pgid, signal)
        };
        Outcome::Complete(match result {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_sigaction(&mut self, pid: Pid, signal: Signal, action: SigAction) -> Outcome {
        if !signal.catchable() {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        match self.task_mut(pid) {
            Ok(task) => {
                task.signals.set_action(signal, action);
                Outcome::Complete(SysResult::Ok)
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    /// `sigprocmask`: updates the caller's blocked mask and dispatches any
    /// pending signals that became deliverable — each exactly once.
    pub(crate) fn sys_sigprocmask(&mut self, pid: Pid, how: u32, mask: u64) -> Outcome {
        let changed = match self.task_mut(pid) {
            Ok(task) => task.signals.change_mask(how, SigSet::from_bits(mask)),
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let Some((old, deliverable)) = changed else {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        };
        for signal in deliverable {
            // Delivery may terminate or stop the caller; dispatch re-checks
            // the task each time.
            self.dispatch_signal(pid, signal);
        }
        Outcome::Complete(SysResult::Int(old.bits() as i64))
    }

    /// `setpgid`: moves `target` (0 = the caller) into group `pgid` (0 = a
    /// new group led by the target).  Only the caller itself or its children
    /// may be moved, as on Unix.
    pub(crate) fn sys_setpgid(&mut self, caller: Pid, target: Pid, pgid: Pid) -> Outcome {
        let target = if target == 0 { caller } else { target };
        let group = if pgid == 0 { target } else { pgid };
        let allowed = target == caller
            || self
                .task(caller)
                .map(|task| task.children.contains(&target))
                .unwrap_or(false);
        if !allowed {
            return Outcome::Complete(SysResult::Err(Errno::EPERM));
        }
        let sharded = self.nshards() > 1;
        match self.task_mut(target) {
            Ok(task) if task.is_alive() => {
                task.pgid = group;
                // Keep the fleet-wide membership registry in step: group
                // signals resolve members through the router.
                self.router.set_pgid(target, group);
                Outcome::Complete(SysResult::Ok)
            }
            Ok(_) => Outcome::Complete(SysResult::Err(Errno::ESRCH)),
            Err(_) if sharded => {
                // A remote child (membership came from our `children` list).
                // Update the authoritative registry first, then tell the
                // owning shard so the task's own view follows.
                match self.router.process_shard(target) {
                    Some(shard) => {
                        self.router.set_pgid(target, group);
                        self.send_shard(
                            shard,
                            ShardMsg::SetPgid {
                                pid: target,
                                pgid: group,
                            },
                        );
                        Outcome::Complete(SysResult::Ok)
                    }
                    None => Outcome::Complete(SysResult::Err(Errno::ESRCH)),
                }
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    /// `getrusage`: resource-usage counters for the caller, pair-encoded as
    /// a `u32` count followed by (`str` key, `u64` value) pairs so the
    /// counter set can grow without a wire-format change.  Only
    /// `who == 0` (`RUSAGE_SELF`) is supported.
    pub(crate) fn sys_getrusage(&mut self, pid: Pid, who: i32) -> Outcome {
        if who != 0 {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        Outcome::Complete(match self.task(pid) {
            Ok(task) => {
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
                SysResult::Data(out)
            }
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_getpgid(&mut self, caller: Pid, target: Pid) -> Outcome {
        let target = if target == 0 { caller } else { target };
        Outcome::Complete(match self.task(target) {
            Ok(task) => SysResult::Int(task.pgid as i64),
            // Not local: the router registry knows every live process.
            Err(e) => match self.router.process_pgid(target) {
                Some(pgid) => SysResult::Int(pgid as i64),
                None => SysResult::Err(e),
            },
        })
    }

    /// `tcsetpgrp`: makes `pgid` the foreground group of the controlling
    /// terminal.  The kernel models one terminal, so there is no descriptor
    /// argument; any process may hand the foreground over (the shell uses
    /// this around every foreground pipeline).
    pub(crate) fn sys_tcsetpgrp(&mut self, _caller: Pid, pgid: Pid) -> Outcome {
        self.set_foreground_pgid(Some(pgid));
        Outcome::Complete(SysResult::Ok)
    }

    pub(crate) fn sys_getppid(&mut self, pid: Pid) -> Outcome {
        Outcome::Complete(match self.task(pid) {
            Ok(task) => SysResult::Int(task.ppid as i64),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_getcwd(&mut self, pid: Pid) -> Outcome {
        Outcome::Complete(match self.task(pid) {
            Ok(task) => SysResult::Path(task.cwd.clone()),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_chdir(&mut self, pid: Pid, path: String) -> Outcome {
        let resolved = self.resolve_path(pid, &path);
        match self.fs().stat(&resolved) {
            Ok(meta) if meta.is_dir() => {
                if let Ok(task) = self.task_mut(pid) {
                    task.cwd = resolved;
                }
                Outcome::Complete(SysResult::Ok)
            }
            Ok(_) => Outcome::Complete(SysResult::Err(Errno::ENOTDIR)),
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    // Small helpers kept here so the parent module stays readable.

    pub(crate) fn tasks_contains(&self, pid: Pid) -> bool {
        self.task(pid).is_ok()
    }
}
