//! The host API: what the embedding web application sees.
//!
//! Figure 4 of the paper shows the JavaScript interface — `kernel.system()`
//! starts a program, callbacks receive its standard output and standard error,
//! and a final callback receives the exit code.  This module provides the
//! same surface for Rust embedders: [`Kernel::boot`], [`Kernel::system`],
//! [`Kernel::spawn`], the `XMLHttpRequest`-like [`Kernel::http_request`], and
//! socket notifications via [`Kernel::wait_for_port`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use browsix_browser::PlatformConfig;
use browsix_fs::{Errno, MemFs, MountedFs};
use browsix_http::{HttpRequest, HttpResponse};

use crate::events::{HostRequest, KernelEvent, OutputSink};
use crate::exec::ExecutableRegistry;
use crate::kernel::shard::{resolve_shards, shard_of, RouterState};
use crate::kernel::{KernelConfig, KernelState};
use crate::signals::Signal;
use crate::stats::KernelStats;
use crate::syscall::{wait_status_exit_code, wait_status_signal};
use crate::task::Pid;

/// Configuration for [`Kernel::boot`].
#[derive(Clone)]
pub struct BootConfig {
    /// The simulated browser platform (cost model, shared-memory support).
    pub platform: PlatformConfig,
    /// The shared file system the kernel will serve.
    pub fs: Arc<MountedFs>,
    /// Registered executables and interpreters.
    pub registry: ExecutableRegistry,
    /// Environment variables handed to processes started through the host API.
    pub env: Vec<(String, String)>,
    /// Number of kernel shards (event-loop threads).  `0` reads the
    /// `BROWSIX_SHARDS` environment variable, defaulting to one shard — the
    /// classic single-event-loop Browsix kernel.
    pub shards: usize,
}

impl std::fmt::Debug for BootConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootConfig")
            .field("browser", &self.platform.browser)
            .field("registry", &self.registry)
            .field("shards", &self.shards)
            .finish()
    }
}

impl BootConfig {
    /// A minimal configuration: an empty in-memory root file system, no
    /// registered executables and no injected platform delays.  Useful for
    /// tests and as a starting point for builders.
    pub fn in_memory() -> BootConfig {
        BootConfig {
            platform: PlatformConfig::fast(),
            fs: Arc::new(MountedFs::new(Arc::new(MemFs::new()))),
            registry: ExecutableRegistry::new(),
            env: vec![
                ("PATH".to_owned(), "/usr/bin:/bin".to_owned()),
                ("HOME".to_owned(), "/home".to_owned()),
            ],
            shards: 0,
        }
    }

    /// Replaces the platform configuration.
    pub fn with_platform(mut self, platform: PlatformConfig) -> BootConfig {
        self.platform = platform;
        self
    }

    /// Replaces the file system.
    pub fn with_fs(mut self, fs: Arc<MountedFs>) -> BootConfig {
        self.fs = fs;
        self
    }

    /// Replaces the executable registry.
    pub fn with_registry(mut self, registry: ExecutableRegistry) -> BootConfig {
        self.registry = registry;
        self
    }

    /// Adds (or overrides) a default environment variable.
    pub fn with_env(mut self, key: &str, value: &str) -> BootConfig {
        self.env.retain(|(k, _)| k != key);
        self.env.push((key.to_owned(), value.to_owned()));
        self
    }

    /// Sets the number of kernel shards (0 = `BROWSIX_SHARDS` env, default 1).
    pub fn with_shards(mut self, shards: usize) -> BootConfig {
        self.shards = shards;
        self
    }
}

impl Default for BootConfig {
    fn default() -> Self {
        BootConfig::in_memory()
    }
}

/// The decoded exit status of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitStatus {
    /// The raw wait-status word.
    pub raw: i32,
    /// Exit code, if the process exited normally.
    pub code: Option<i32>,
    /// Terminating signal, if the process was killed.
    pub signal: Option<Signal>,
}

impl ExitStatus {
    /// Builds a decoded status from the raw wait-status word.
    pub fn from_raw(raw: i32) -> ExitStatus {
        ExitStatus {
            raw,
            code: wait_status_exit_code(raw),
            signal: wait_status_signal(raw),
        }
    }

    /// Whether the process exited normally with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// What is resident in the kernel right now (summed over shards): the
/// leak-checker's view, next to the event counters of [`KernelStats`].  An
/// idle kernel with no processes reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceCounts {
    /// Task-table entries: running, stopped and zombie processes.
    pub tasks: usize,
    /// Stream buffers: one per pipe, two per socket connection (which is
    /// nothing but its two streams, so there is no separate count of those).
    pub streams: usize,
    /// System calls (and in-kernel HTTP clients) parked on a wait queue.
    pub waiters: usize,
}

/// A handle to a process started through [`Kernel::system`] or
/// [`Kernel::spawn`], with captured output.
#[derive(Debug)]
pub struct ProcessHandle {
    /// The process id.
    pub pid: Pid,
    stdout: Arc<Mutex<Vec<u8>>>,
    stderr: Arc<Mutex<Vec<u8>>>,
    exit: Receiver<i32>,
}

impl ProcessHandle {
    /// Bytes written to standard output so far.
    pub fn stdout(&self) -> Vec<u8> {
        self.stdout.lock().clone()
    }

    /// Bytes written to standard error so far.
    pub fn stderr(&self) -> Vec<u8> {
        self.stderr.lock().clone()
    }

    /// Standard output interpreted as UTF-8 (lossily).
    pub fn stdout_string(&self) -> String {
        String::from_utf8_lossy(&self.stdout()).into_owned()
    }

    /// Standard error interpreted as UTF-8 (lossily).
    pub fn stderr_string(&self) -> String {
        String::from_utf8_lossy(&self.stderr()).into_owned()
    }

    /// Blocks until the process exits.
    pub fn wait(&self) -> ExitStatus {
        match self.exit.recv() {
            Ok(status) => ExitStatus::from_raw(status),
            Err(_) => ExitStatus::from_raw(127 << 8),
        }
    }

    /// Blocks for at most `timeout`; returns `None` if the process is still
    /// running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ExitStatus> {
        self.exit.recv_timeout(timeout).ok().map(ExitStatus::from_raw)
    }
}

/// The Browsix kernel, as seen by the embedding application.
///
/// Booting starts one event-loop thread per shard; dropping the handle (or
/// calling [`Kernel::shutdown`]) terminates every process and stops the
/// loops.  Tasks are owned by the shard `pid % shards` (see
/// [`crate::kernel::shard`]); host requests are routed to the shard that
/// owns the resource they name, so the host never takes a cross-shard lock.
pub struct Kernel {
    shards: Vec<Sender<KernelEvent>>,
    router: Arc<RouterState>,
    fs: Arc<MountedFs>,
    registry: ExecutableRegistry,
    platform: PlatformConfig,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("browser", &self.platform.browser)
            .field("registry", &self.registry)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Kernel {
    /// Boots a kernel: starts one event-loop thread per shard, ready to run
    /// processes.  This is the analogue of calling `Boot(...)` from the
    /// page's script tag.
    pub fn boot(config: BootConfig) -> Kernel {
        let nshards = resolve_shards(config.shards);
        let router = Arc::new(RouterState::new(nshards));
        let mut senders: Vec<Sender<KernelEvent>> = Vec::with_capacity(nshards);
        let mut receivers = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut threads = Vec::with_capacity(nshards);
        for (shard_id, events_rx) in receivers.into_iter().enumerate() {
            let state = KernelState::new(
                KernelConfig {
                    platform: config.platform.clone(),
                    fs: Arc::clone(&config.fs),
                    registry: config.registry.clone(),
                    default_env: config.env.clone(),
                },
                shard_id,
                Arc::clone(&router),
                senders.clone(),
            );
            let thread = std::thread::Builder::new()
                .name(format!("browsix-kernel-{shard_id}"))
                .spawn(move || state.run(events_rx))
                .expect("failed to start kernel shard thread");
            threads.push(thread);
        }
        Kernel {
            shards: senders,
            router,
            fs: config.fs,
            registry: config.registry,
            platform: config.platform,
            threads,
        }
    }

    /// The number of shards this kernel runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The event queue of the shard that owns `pid`.
    fn shard_for_pid(&self, pid: Pid) -> &Sender<KernelEvent> {
        &self.shards[shard_of(pid, self.shards.len())]
    }

    /// The shared file system, directly accessible to the embedding
    /// application (the paper's host file-access API).
    pub fn fs(&self) -> Arc<MountedFs> {
        Arc::clone(&self.fs)
    }

    /// The executable registry (runtimes use this to register programs before
    /// spawning them).
    pub fn registry(&self) -> &ExecutableRegistry {
        &self.registry
    }

    /// The platform configuration the kernel was booted with.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// The raw event channel of shard 0.  Worker syscall clients are wired to
    /// their owning shard's queue by the kernel at launch (via
    /// `LaunchContext`); this accessor exists for embedders that inject
    /// events by hand and is correct only for shard-0-owned state.
    pub fn event_sender(&self) -> Sender<KernelEvent> {
        self.shards[0].clone()
    }

    /// Starts a program with explicit output callbacks, returning its pid.
    ///
    /// # Errors
    ///
    /// Returns the executable-resolution error ([`Errno::ENOENT`],
    /// [`Errno::EACCES`], ...) if the program cannot be started.
    pub fn spawn_with_sinks(
        &self,
        path: &str,
        args: &[&str],
        env: &[(&str, &str)],
        stdout: OutputSink,
        stderr: OutputSink,
    ) -> Result<Pid, Errno> {
        let (reply_tx, reply_rx) = bounded(1);
        let request = HostRequest::Spawn {
            path: path.to_owned(),
            args: args.iter().map(|s| s.to_string()).collect(),
            env: env.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            cwd: "/".to_owned(),
            stdout,
            stderr,
            reply: reply_tx,
        };
        // Spawns enter at shard 0; the kernel's round-robin placement may
        // install the task on any shard (the reply carries the pid either way).
        self.shards[0]
            .send(KernelEvent::Host(request))
            .map_err(|_| Errno::EIO)?;
        reply_rx.recv().map_err(|_| Errno::EIO)?
    }

    /// Starts a program, capturing its output into the returned handle.
    ///
    /// # Errors
    ///
    /// Returns the executable-resolution error if the program cannot start.
    pub fn spawn(&self, path: &str, args: &[&str], env: &[(&str, &str)]) -> Result<ProcessHandle, Errno> {
        let stdout = Arc::new(Mutex::new(Vec::new()));
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let stdout_sink: OutputSink = {
            let stdout = Arc::clone(&stdout);
            Arc::new(move |data: &[u8]| stdout.lock().extend_from_slice(data))
        };
        let stderr_sink: OutputSink = {
            let stderr = Arc::clone(&stderr);
            Arc::new(move |data: &[u8]| stderr.lock().extend_from_slice(data))
        };
        let pid = self.spawn_with_sinks(path, args, env, stdout_sink, stderr_sink)?;
        let exit = self.watch_exit(pid);
        Ok(ProcessHandle {
            pid,
            stdout,
            stderr,
            exit,
        })
    }

    /// The paper's `kernel.system(cmd, onExit, onStdout, onStderr)`: splits a
    /// command line on whitespace, resolves the program on `PATH`, runs it and
    /// captures its output.  Use the shell for anything needing quoting or
    /// pipelines.
    ///
    /// # Errors
    ///
    /// [`Errno::EINVAL`] for an empty command, [`Errno::ENOENT`] if the
    /// program is not found on `PATH`.
    pub fn system(&self, command: &str) -> Result<ProcessHandle, Errno> {
        let words: Vec<&str> = command.split_whitespace().collect();
        let Some((program, _rest)) = words.split_first() else {
            return Err(Errno::EINVAL);
        };
        let path = crate::exec::search_path(self.fs.as_ref(), &self.registry, program, "/usr/bin:/bin")
            .ok_or(Errno::ENOENT)?;
        self.spawn(&path, &words, &[])
    }

    /// Registers interest in a process's exit; the returned channel receives
    /// the raw wait status exactly once.
    pub fn watch_exit(&self, pid: Pid) -> Receiver<i32> {
        let (tx, rx) = bounded(1);
        // Exit records live on the shard that owned the task.
        let _ = self
            .shard_for_pid(pid)
            .send(KernelEvent::Host(HostRequest::WatchExit { pid, reply: tx }));
        rx
    }

    /// Blocks until `pid` exits (or `timeout` elapses).
    pub fn wait(&self, pid: Pid, timeout: Duration) -> Option<ExitStatus> {
        self.watch_exit(pid)
            .recv_timeout(timeout)
            .ok()
            .map(ExitStatus::from_raw)
    }

    /// Sends a signal to a process, like the `kill` shell builtin.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if the process does not exist.
    pub fn kill(&self, pid: Pid, signal: Signal) -> Result<(), Errno> {
        let (tx, rx) = bounded(1);
        self.shard_for_pid(pid)
            .send(KernelEvent::Host(HostRequest::Kill { pid, signal, reply: tx }))
            .map_err(|_| Errno::EIO)?;
        rx.recv().map_err(|_| Errno::EIO)?
    }

    /// Sends a signal to the foreground process group of the controlling
    /// terminal — the kernel half of a terminal key binding.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if no foreground group is set (no shell has called
    /// `tcsetpgrp`) or it has no live members.
    pub fn signal_foreground(&self, signal: Signal) -> Result<(), Errno> {
        let (tx, rx) = bounded(1);
        // Any shard can resolve the foreground group (membership lives on
        // the router); shard 0 keeps host-initiated signals ordered.
        self.shards[0]
            .send(KernelEvent::Host(HostRequest::SignalForeground { signal, reply: tx }))
            .map_err(|_| Errno::EIO)?;
        rx.recv().map_err(|_| Errno::EIO)?
    }

    /// `Ctrl-C`: SIGINT to the foreground process group.
    ///
    /// # Errors
    ///
    /// See [`Kernel::signal_foreground`].
    pub fn interrupt(&self) -> Result<(), Errno> {
        self.signal_foreground(Signal::SIGINT)
    }

    /// Issues an HTTP request to an in-Browsix server listening on `port`
    /// (the `XMLHttpRequest`-like API of §4.1).
    ///
    /// # Errors
    ///
    /// [`Errno::ECONNREFUSED`] if nothing is listening on the port, or the
    /// transport error encountered mid-exchange.
    pub fn http_request(&self, port: u16, request: HttpRequest, timeout: Duration) -> Result<HttpResponse, Errno> {
        let (tx, rx) = bounded(1);
        // Route to the shard that owns the listening socket, so the whole
        // exchange is shard-local; an unclaimed port goes to shard 0, which
        // refuses it.
        let shard = self.router.port_owner(port).unwrap_or(0);
        self.shards[shard]
            .send(KernelEvent::Host(HostRequest::HttpRequest {
                port,
                request,
                reply: tx,
            }))
            .map_err(|_| Errno::EIO)?;
        rx.recv_timeout(timeout).map_err(|_| Errno::ETIMEDOUT)?
    }

    /// Subscribes to socket notifications: the returned channel receives a
    /// port number every time a process starts listening.
    pub fn port_notifications(&self) -> Receiver<u16> {
        let (tx, rx) = unbounded();
        // Subscriptions register on the router, so any shard's `listen`
        // notifies them; shard 0 performs the registration.
        let _ = self.shards[0].send(KernelEvent::Host(HostRequest::SubscribePortListen { listener: tx }));
        rx
    }

    /// Blocks until some process is listening on `port` (or `timeout`
    /// elapses).  This is how the meme-generator client knows its in-Browsix
    /// server is ready without polling.
    pub fn wait_for_port(&self, port: u16, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let notifications = self.port_notifications();
        loop {
            if self.listening_ports().contains(&port) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match notifications.recv_timeout((deadline - now).min(Duration::from_millis(20))) {
                Ok(p) if p == port => return true,
                _ => {}
            }
        }
    }

    /// Ports that currently have listening sockets.
    pub fn listening_ports(&self) -> Vec<u16> {
        let (tx, rx) = bounded(1);
        if self.shards[0]
            .send(KernelEvent::Host(HostRequest::ListeningPorts { reply: tx }))
            .is_err()
        {
            return Vec::new();
        }
        rx.recv_timeout(Duration::from_secs(5)).unwrap_or_default()
    }

    /// A fleet-wide snapshot of kernel statistics: every shard's counters
    /// summed, plus the (shared) file-system cache counters absorbed once.
    pub fn stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for shard in self.stats_per_shard() {
            total.merge(&shard);
        }
        total.absorb_fs(browsix_fs::FileSystem::io_stats(self.fs.as_ref()));
        total
    }

    /// One raw statistics snapshot per shard, in shard order.  Per-shard
    /// counters show how work spread across the fleet; the file-system
    /// counters are global and deliberately left out (see [`Kernel::stats`]).
    pub fn stats_per_shard(&self) -> Vec<KernelStats> {
        let mut snapshots = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = bounded(1);
            if shard
                .send(KernelEvent::Host(HostRequest::ReadStats { reply: tx }))
                .is_err()
            {
                snapshots.push(KernelStats::default());
                continue;
            }
            snapshots.push(rx.recv_timeout(Duration::from_secs(5)).unwrap_or_default());
        }
        snapshots
    }

    /// Counts the kernel objects that are live right now, across all shards.
    pub fn resources(&self) -> ResourceCounts {
        let mut total = ResourceCounts::default();
        for shard in &self.shards {
            let (tx, rx) = bounded(1);
            if shard
                .send(KernelEvent::Host(HostRequest::ReadResources { reply: tx }))
                .is_err()
            {
                continue;
            }
            let counts = rx.recv_timeout(Duration::from_secs(5)).unwrap_or_default();
            total.tasks += counts.tasks;
            total.streams += counts.streams;
            total.waiters += counts.waiters;
        }
        total
    }

    /// Lists live tasks as `(pid, ppid, name, state)`, for terminal-style
    /// inspection of kernel state.  Tasks from every shard, sorted by pid.
    pub fn tasks(&self) -> Vec<(Pid, Pid, String, String)> {
        let mut all: Vec<(Pid, Pid, String, String)> = Vec::new();
        for shard in &self.shards {
            let (tx, rx) = bounded(1);
            if shard
                .send(KernelEvent::Host(HostRequest::ListTasks { reply: tx }))
                .is_err()
            {
                continue;
            }
            all.extend(rx.recv_timeout(Duration::from_secs(5)).unwrap_or_default());
        }
        all.sort_by_key(|(pid, ..)| *pid);
        all
    }

    /// Stops the kernel: terminates every process and joins every shard's
    /// event-loop thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for shard in &self.shards {
            let _ = shard.send(KernelEvent::Shutdown);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browsix_fs::FileSystem;

    #[test]
    fn boot_and_shutdown_cleanly() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        assert!(kernel.listening_ports().is_empty());
        assert_eq!(kernel.stats().total_syscalls, 0);
        assert_eq!(kernel.resources(), ResourceCounts::default());
        kernel.shutdown();
    }

    #[test]
    fn boot_multi_shard_and_shutdown() {
        let kernel = Kernel::boot(BootConfig::in_memory().with_shards(3));
        assert_eq!(kernel.shard_count(), 3);
        assert_eq!(kernel.stats().total_syscalls, 0);
        assert_eq!(kernel.stats_per_shard().len(), 3);
        assert_eq!(kernel.kill(42, Signal::SIGTERM), Err(Errno::ESRCH));
        kernel.shutdown();
    }

    #[test]
    fn fs_is_shared_with_host() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        kernel.fs().write_file("/hello.txt", b"hi").unwrap();
        assert_eq!(kernel.fs().read_file("/hello.txt").unwrap(), b"hi");
        kernel.shutdown();
    }

    #[test]
    fn spawning_missing_program_fails_with_enoent() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        let err = kernel
            .spawn("/usr/bin/doesnotexist", &["doesnotexist"], &[])
            .unwrap_err();
        assert_eq!(err, Errno::ENOENT);
        assert!(kernel.system("").is_err());
        assert_eq!(kernel.system("nosuchcommand").unwrap_err(), Errno::ENOENT);
        kernel.shutdown();
    }

    #[test]
    fn http_request_to_unused_port_is_refused() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        let err = kernel
            .http_request(
                8080,
                HttpRequest::new(browsix_http::Method::Get, "/"),
                Duration::from_millis(200),
            )
            .unwrap_err();
        assert_eq!(err, Errno::ECONNREFUSED);
        kernel.shutdown();
    }

    #[test]
    fn kill_unknown_process_is_esrch() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        assert_eq!(kernel.kill(42, Signal::SIGTERM), Err(Errno::ESRCH));
        kernel.shutdown();
    }

    #[test]
    fn exit_status_decoding() {
        let ok = ExitStatus::from_raw(0);
        assert!(ok.success());
        let failed = ExitStatus::from_raw(3 << 8);
        assert_eq!(failed.code, Some(3));
        assert!(!failed.success());
        let killed = ExitStatus::from_raw(Signal::SIGKILL.number());
        assert_eq!(killed.signal, Some(Signal::SIGKILL));
        assert_eq!(killed.code, None);
    }

    #[test]
    fn boot_config_builder() {
        let config = BootConfig::in_memory()
            .with_platform(PlatformConfig::firefox().without_delays())
            .with_env("PATH", "/custom/bin")
            .with_env("LANG", "C");
        assert_eq!(config.platform.browser, browsix_browser::BrowserKind::Firefox);
        assert!(config.env.iter().any(|(k, v)| k == "PATH" && v == "/custom/bin"));
        assert!(config.env.iter().any(|(k, v)| k == "LANG" && v == "C"));
        let formatted = format!("{config:?}");
        assert!(formatted.contains("Firefox"));
    }

    #[test]
    fn wait_for_port_times_out_when_nothing_listens() {
        let kernel = Kernel::boot(BootConfig::in_memory());
        assert!(!kernel.wait_for_port(9999, Duration::from_millis(50)));
        kernel.shutdown();
    }
}
