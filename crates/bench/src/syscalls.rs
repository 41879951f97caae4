//! Experiment E2 (Figure 3): the system-call inventory by class.

use std::collections::BTreeMap;

use browsix_core::{ByteSource, Syscall};

/// One representative instance of every system call the kernel implements,
/// used both to regenerate Figure 3 and to verify full dispatchability.
pub fn representative_syscalls() -> Vec<Syscall> {
    use browsix_core::Signal;
    use browsix_fs::OpenFlags;
    vec![
        Syscall::Fork {
            image: vec![],
            resume_point: 0,
        },
        Syscall::Spawn {
            path: "/usr/bin/ls".into(),
            args: vec![],
            env: vec![],
            cwd: None,
            stdio: [None; 3],
            pgroup: -1,
            foreground: false,
        },
        Syscall::Pipe2,
        Syscall::Wait4 { pid: -1, options: 0 },
        Syscall::Exit { code: 0 },
        Syscall::Kill {
            pid: 1,
            signal: Signal::SIGTERM,
        },
        Syscall::SignalAction {
            signal: Signal::SIGCHLD,
            action: browsix_core::SigAction::Handler { restart: false },
        },
        Syscall::Sigprocmask {
            how: browsix_core::SIG_BLOCK,
            mask: 0,
        },
        Syscall::Setpgid { pid: 0, pgid: 0 },
        Syscall::Getpgid { pid: 0 },
        Syscall::Tcsetpgrp { pgid: 1 },
        Syscall::Chdir { path: "/".into() },
        Syscall::GetCwd,
        Syscall::GetPid,
        Syscall::GetPPid,
        Syscall::Socket,
        Syscall::Bind { fd: 3, port: 80 },
        Syscall::GetSockName { fd: 3 },
        Syscall::Listen { fd: 3, backlog: 8 },
        Syscall::Accept { fd: 3 },
        Syscall::Connect { fd: 3, port: 80 },
        Syscall::Readdir { path: "/".into() },
        Syscall::Rmdir { path: "/tmp/x".into() },
        Syscall::Mkdir {
            path: "/tmp/x".into(),
            mode: 0o755,
        },
        Syscall::Open {
            path: "/etc/passwd".into(),
            flags: OpenFlags::read_only(),
            mode: 0,
        },
        Syscall::Close { fd: 3 },
        Syscall::Unlink { path: "/tmp/x".into() },
        Syscall::Seek {
            fd: 3,
            offset: 0,
            whence: 0,
        },
        Syscall::Pread {
            fd: 3,
            len: 16,
            offset: 0,
        },
        Syscall::Pwrite {
            fd: 3,
            data: ByteSource::Inline(vec![]),
            offset: 0,
        },
        Syscall::Read { fd: 3, len: 16 },
        Syscall::Write {
            fd: 3,
            data: ByteSource::Inline(vec![]),
        },
        Syscall::Dup { fd: 3 },
        Syscall::Dup2 { from: 3, to: 4 },
        Syscall::Truncate {
            path: "/tmp/x".into(),
            size: 0,
        },
        Syscall::Rename {
            from: "/a".into(),
            to: "/b".into(),
        },
        Syscall::Access {
            path: "/bin/sh".into(),
            mode: 0,
        },
        Syscall::Fstat { fd: 3 },
        Syscall::Stat {
            path: "/".into(),
            lstat: true,
        },
        Syscall::Stat {
            path: "/".into(),
            lstat: false,
        },
        Syscall::Readlink {
            path: "/proc/self".into(),
        },
        Syscall::Utimes {
            path: "/tmp/x".into(),
            atime_ms: 0,
            mtime_ms: 0,
        },
        Syscall::Ftruncate { fd: 3, size: 4096 },
        Syscall::Mmap {
            addr: 0,
            len: 4096,
            prot: 3,
            flags: 0x22,
            fd: -1,
            offset: 0,
        },
        Syscall::Munmap {
            addr: 0x1000_0000,
            len: 4096,
        },
        Syscall::Msync {
            addr: 0x1000_0000,
            len: 0,
        },
        Syscall::Mprotect {
            addr: 0x1000_0000,
            len: 4096,
            prot: 1,
        },
        Syscall::ShmOpen {
            name: "/ring".into(),
            flags: OpenFlags::read_write().to_bits(),
            mode: 0o600,
        },
        Syscall::ShmUnlink { name: "/ring".into() },
        Syscall::VmRead {
            addr: 0x1000_0000,
            len: 16,
        },
        Syscall::VmWrite {
            addr: 0x1000_0000,
            data: ByteSource::Inline(vec![]),
        },
        Syscall::Sendfile {
            out_fd: 4,
            in_fd: 3,
            offset: -1,
            len: 65536,
        },
        Syscall::Splice {
            fd_in: 3,
            fd_out: 4,
            len: 65536,
        },
    ]
}

/// Groups the implemented system calls by Figure 3 class.
pub fn syscall_inventory() -> BTreeMap<String, Vec<String>> {
    let mut inventory: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for call in representative_syscalls() {
        let entry = inventory.entry(call.class().to_owned()).or_default();
        let name = call.name().to_owned();
        if !entry.contains(&name) {
            entry.push(name);
        }
    }
    inventory
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_calls_are_all_present() {
        let inventory = syscall_inventory();
        let classes: Vec<&String> = inventory.keys().collect();
        assert_eq!(classes.len(), 7);
        let all: Vec<String> = inventory.values().flatten().cloned().collect();
        for expected in [
            "fork",
            "spawn",
            "pipe2",
            "wait4",
            "exit",
            "chdir",
            "getcwd",
            "getpid",
            "socket",
            "bind",
            "getsockname",
            "listen",
            "accept",
            "connect",
            "getdents",
            "rmdir",
            "mkdir",
            "open",
            "close",
            "unlink",
            "llseek",
            "pread",
            "pwrite",
            "access",
            "fstat",
            "lstat",
            "stat",
            "readlink",
            "utimes",
            "ftruncate",
            "mmap",
            "munmap",
            "msync",
            "mprotect",
            "shm_open",
            "shm_unlink",
            "vm_read",
            "vm_write",
            "sendfile",
            "splice",
        ] {
            assert!(all.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn every_representative_call_round_trips_through_the_wire_codec() {
        use browsix_core::SyscallBatch;
        // One batch holding the entire inventory: every call must survive the
        // single codec both conventions share.
        let batch = SyscallBatch {
            entries: representative_syscalls(),
        };
        let decoded = SyscallBatch::decode(&batch.encode()).unwrap();
        for (decoded_call, call) in decoded.entries.iter().zip(representative_syscalls()) {
            assert_eq!(decoded_call.name(), call.name());
        }
        assert_eq!(decoded, batch);
    }
}
