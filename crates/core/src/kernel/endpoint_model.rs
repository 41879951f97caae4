//! Model-based test of endpoint accounting.
//!
//! A fleet of kernel shards is stepped by hand — no event-loop threads, no
//! guests: each step issues one system call (or host request) straight into
//! the owning shard, then runs every queued cross-shard message to
//! quiescence.  After *every* event `KernelState::audit_endpoints` recounts
//! all endpoints from scratch and must agree with the incrementally kept
//! counts.  Beside the oracle runs a deliberately dumb model — it only counts
//! open descriptor slots per stream end — that predicts which parked reads
//! must have seen EOF, which parked writers must have died of SIGPIPE, and
//! that nothing else completed.  At the end every process exits and every
//! table of every shard must be empty.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver};
use proptest::prelude::*;

use browsix_browser::PlatformConfig;
use browsix_fs::{Errno, MemFs, MountedFs};
use browsix_http::{HttpRequest, HttpResponse, Method};

use super::shard::shard_of;
use super::*;
use crate::syscall::ByteSource;

const GUEST: &str = "/bin/guest";
const PIPE_CAPACITY: usize = crate::streams::DEFAULT_STREAM_CAPACITY;
const BACKLOG: usize = 3;
const MAX_PROCS: usize = 6;
const MAX_FDS: usize = 12;

/// A program that never runs: the model plays every guest itself.
struct Idle;

impl ProgramLauncher for Idle {
    fn launch(&self, _ctx: LaunchContext) {}
}

/// What a model descriptor slot refers to (indices into the model's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    PipeR(usize),
    PipeW(usize),
    Client(usize),
    Server(usize),
    Listener(usize),
    /// The terminal, a host sink or `/dev/null`.
    Other,
}

#[derive(Debug)]
enum Parked {
    /// Blocked in `read`; completes with EOF when `eof(end)` turns true.
    Read { index: u32, end: End },
    /// Blocked in `write` on a full pipe; dies of SIGPIPE when its readers go.
    Write { pipe: usize },
}

#[derive(Debug)]
struct Proc {
    pid: Pid,
    fds: BTreeMap<Fd, End>,
    parked: Option<Parked>,
}

#[derive(Debug, Default)]
struct Pipe {
    /// Bytes were written: reads would return data instead of parking.
    written: bool,
}

#[derive(Debug)]
struct Conn {
    /// Still in its listener's backlog (which holds the server side).
    backlog: bool,
    /// The kernel's HTTP client holds the client side; its verdict.
    http: Option<Receiver<Result<HttpResponse, Errno>>>,
    /// Request bytes sit in the client-to-server stream.
    has_request: bool,
}

#[derive(Debug)]
struct Listener {
    port: u16,
    owner: Pid,
    shard: usize,
    open: bool,
    backlog: VecDeque<usize>,
}

pub(super) struct Fleet {
    pub(super) shards: Vec<KernelState>,
    queues: Vec<Receiver<KernelEvent>>,
    next_index: u32,
    procs: Vec<Proc>,
    pipes: Vec<Pipe>,
    conns: Vec<Conn>,
    listeners: Vec<Listener>,
    /// Completions of parked calls, by the index they were issued under.
    completions: HashMap<u32, Vec<SysResult>>,
}

enum Issued {
    Done(SysResult),
    Parked(u32),
    Gone,
}

impl Fleet {
    pub(super) fn boot(nshards: usize) -> Fleet {
        let router = Arc::new(RouterState::new(nshards));
        let registry = ExecutableRegistry::new();
        registry.register(GUEST, Arc::new(Idle));
        let fs = Arc::new(MountedFs::new(Arc::new(MemFs::new())));
        let (senders, queues): (Vec<_>, Vec<_>) = (0..nshards).map(|_| unbounded()).unzip();
        let shards = (0..nshards)
            .map(|id| {
                let config = KernelConfig {
                    platform: PlatformConfig::fast(),
                    fs: Arc::clone(&fs),
                    registry: registry.clone(),
                    default_env: Vec::new(),
                };
                KernelState::new(config, id, Arc::clone(&router), senders.clone())
            })
            .collect();
        Fleet {
            shards,
            queues,
            next_index: 0,
            procs: Vec::new(),
            pipes: Vec::new(),
            conns: Vec::new(),
            listeners: Vec::new(),
            completions: HashMap::new(),
        }
    }

    fn shard_index(&self, pid: Pid) -> usize {
        shard_of(pid, self.shards.len())
    }

    /// Runs every queued event on every shard until all queues are empty,
    /// auditing the handling shard after each one.
    fn settle(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..self.shards.len() {
                while let Ok(event) = self.queues[i].try_recv() {
                    self.shards[i].handle_one(Some(event));
                    self.shards[i].audit_endpoints();
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Collect what parked calls completed with, leaving the collecting
        // batch open for the next ones.
        for shard in &mut self.shards {
            for task in shard.tasks.values_mut() {
                if let Some(inflight) = task.inflight.as_mut() {
                    for completion in inflight.completions.drain(..) {
                        self.completions
                            .entry(completion.index)
                            .or_default()
                            .push(completion.result);
                    }
                }
            }
        }
    }

    /// Issues one system call of `pid` on its owning shard, then settles.
    fn syscall(&mut self, pid: Pid, call: impl FnOnce(&mut KernelState, ReplyTo) -> Outcome) -> Issued {
        let index = self.next_index;
        self.next_index += 1;
        let shard = self.shard_index(pid);
        let kernel = &mut self.shards[shard];
        if let Some(task) = kernel.tasks.get_mut(&pid) {
            // A batch that never fills: completions of parked entries pile up
            // in it, where `settle` finds them.
            task.inflight.get_or_insert_with(|| InflightBatch {
                seq: 0,
                total: u32::MAX,
                completions: Vec::new(),
            });
        }
        let outcome = call(kernel, ReplyTo::Batch { index });
        kernel.audit_endpoints();
        self.settle();
        match outcome {
            Outcome::Complete(result) => Issued::Done(result),
            Outcome::Blocked => Issued::Parked(index),
            Outcome::NoReply => Issued::Gone,
        }
    }

    fn host(&mut self, shard: usize, request: HostRequest) {
        self.shards[shard].handle_event(KernelEvent::Host(request));
        self.shards[shard].audit_endpoints();
        self.settle();
    }

    fn alive(&self, pid: Pid) -> bool {
        self.shards[self.shard_index(pid)]
            .tasks
            .get(&pid)
            .is_some_and(|t| t.is_alive())
    }

    fn terminations(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.signals_delivered).sum()
    }

    // ---- the model's view ------------------------------------------------------

    fn slots(&self, end: End) -> usize {
        self.procs
            .iter()
            .map(|p| p.fds.values().filter(|&&e| e == end).count())
            .sum()
    }

    fn client_refs(&self, conn: usize) -> usize {
        self.slots(End::Client(conn)) + usize::from(self.conns[conn].http.is_some())
    }

    fn server_refs(&self, conn: usize) -> usize {
        self.slots(End::Server(conn)) + usize::from(self.conns[conn].backlog)
    }

    /// Whether a read on `end` is at end-of-file (nothing is ever left
    /// unread on the streams the model reads).
    fn eof(&self, end: End) -> bool {
        match end {
            End::PipeR(pipe) => self.slots(End::PipeW(pipe)) == 0,
            End::Client(conn) => self.server_refs(conn) == 0,
            End::Server(conn) => self.client_refs(conn) == 0,
            _ => unreachable!("not a readable stream end"),
        }
    }

    /// Removes a dead process from the model: its descriptor slots vanish
    /// and the listeners it owned close.
    fn bury(&mut self, pid: Pid) {
        self.procs.retain(|p| p.pid != pid);
        for listener in 0..self.listeners.len() {
            if self.listeners[listener].owner == pid {
                self.close_listener(listener);
            }
        }
    }

    fn close_listener(&mut self, listener: usize) {
        self.listeners[listener].open = false;
        for conn in std::mem::take(&mut self.listeners[listener].backlog) {
            self.conns[conn].backlog = false;
        }
    }

    /// Brings the model up to date after a step and checks the kernel
    /// against it: exactly the predicted parked calls completed, with the
    /// predicted result, exactly once; exactly the predicted writers died.
    fn reconcile(&mut self, terminations_before: u64, killed: u64) {
        // Writers whose readers are gone die of SIGPIPE; their descriptors
        // closing can orphan further writers.
        let mut sigpipes = 0;
        loop {
            self.reconcile_http();
            let doomed: Vec<Pid> = self
                .procs
                .iter()
                .filter(|p| matches!(p.parked, Some(Parked::Write { pipe }) if self.slots(End::PipeR(pipe)) == 0))
                .map(|p| p.pid)
                .collect();
            if doomed.is_empty() {
                break;
            }
            for pid in doomed {
                sigpipes += 1;
                self.bury(pid);
                assert!(
                    !self.alive(pid),
                    "pid {pid}: parked writer survived losing its last reader"
                );
                let status = self.shards[self.shard_index(pid)].exit_records.get(&pid).copied();
                if let Some(status) = status {
                    assert_eq!(status, encode_wait_status(None, Some(Signal::SIGPIPE)), "pid {pid}");
                }
            }
        }
        assert_eq!(
            self.terminations() - terminations_before,
            sigpipes + killed,
            "each orphaned writer gets SIGPIPE exactly once, and nobody else dies"
        );
        // Readers at EOF completed — once, with an empty read; the rest
        // stay parked and have seen nothing.
        for i in 0..self.procs.len() {
            let Some(Parked::Read { index, end }) = self.procs[i].parked else {
                continue;
            };
            let seen = self.completions.remove(&index).unwrap_or_default();
            if self.eof(end) {
                assert_eq!(
                    seen,
                    vec![SysResult::Data(Vec::new())],
                    "pid {} at EOF",
                    self.procs[i].pid
                );
                self.procs[i].parked = None;
            } else {
                assert_eq!(seen, Vec::new(), "pid {} completed a read early", self.procs[i].pid);
            }
        }
        for proc in &self.procs {
            assert!(self.alive(proc.pid), "pid {} died unexpectedly", proc.pid);
        }
    }

    /// An HTTP exchange whose server side is gone (listener closed on it,
    /// server closed or died mid-response) was aborted: the host got
    /// `ECONNRESET` and the kernel's client side is closed.
    fn reconcile_http(&mut self) {
        for conn in 0..self.conns.len() {
            if self.conns[conn].http.is_some() && self.server_refs(conn) == 0 {
                let verdict = self.conns[conn].http.take().expect("checked").try_recv();
                assert!(
                    matches!(verdict, Ok(Err(Errno::ECONNRESET))),
                    "aborted exchange: {verdict:?}"
                );
            }
        }
    }

    // ---- operations ------------------------------------------------------------

    fn spawn_root(&mut self) {
        let sink: OutputSink = Arc::new(|_: &[u8]| {});
        let (reply, pid) = bounded(1);
        self.host(
            0,
            HostRequest::Spawn {
                path: GUEST.to_owned(),
                args: vec!["guest".to_owned()],
                env: Vec::new(),
                cwd: "/".to_owned(),
                stdout: Arc::clone(&sink),
                stderr: sink,
                reply,
            },
        );
        let pid = pid.try_recv().expect("spawn replied").expect("spawn succeeded");
        let fds = (0..3).map(|fd| (fd, End::Other)).collect();
        self.procs.push(Proc { pid, fds, parked: None });
    }

    fn expect_int(issued: Issued) -> i64 {
        match issued {
            Issued::Done(SysResult::Int(value)) => value,
            Issued::Done(other) => panic!("expected an integer result, got {other:?}"),
            _ => panic!("call unexpectedly parked"),
        }
    }

    /// One model step: `op` picks the operation, `a`/`b`/`c` its operands.
    fn step(&mut self, op: u8, a: u8, b: u8, c: u8) {
        let runnable: Vec<usize> = (0..self.procs.len())
            .filter(|&i| self.procs[i].parked.is_none())
            .collect();
        if runnable.is_empty() || (op % 16 == 8 && b % 2 == 1) {
            // Nobody can act (or the dice say so): start someone new, or
            // kill someone — parked or not.
            if self.procs.len() < MAX_PROCS.min(2 + c as usize % MAX_PROCS) {
                self.spawn_root();
            } else {
                self.kill(a as usize % self.procs.len());
            }
            return;
        }
        let p = runnable[a as usize % runnable.len()];
        let pid = self.procs[p].pid;
        let before = self.terminations();
        let nth_fd = |fleet: &Fleet, n: u8| -> Option<(Fd, End)> {
            let fds = &fleet.procs[p].fds;
            fds.iter()
                .nth(n as usize % fds.len().max(1))
                .map(|(&fd, &end)| (fd, end))
        };
        let room = self.procs[p].fds.len() < MAX_FDS;
        match op % 16 {
            0 | 1 if room => {
                let Issued::Done(SysResult::Pair(r, w)) = self.syscall(pid, |k, _| k.sys_pipe2(pid)) else {
                    panic!("pipe2 failed");
                };
                let pipe = self.pipes.len();
                self.pipes.push(Pipe::default());
                self.procs[p].fds.insert(r as Fd, End::PipeR(pipe));
                self.procs[p].fds.insert(w as Fd, End::PipeW(pipe));
            }
            2 if room => {
                if let Some((fd, end)) = nth_fd(self, b) {
                    let new_fd = Self::expect_int(self.syscall(pid, |k, _| k.sys_dup(pid, fd)));
                    self.procs[p].fds.insert(new_fd as Fd, end);
                }
            }
            3 => {
                // dup2, half the time onto a descriptor that is open.
                let (Some((from, end)), Some((open, _))) = (nth_fd(self, b), nth_fd(self, c)) else {
                    return;
                };
                let to = if c.is_multiple_of(2) { open } else { 20 + (c % 4) as Fd };
                Self::expect_int(self.syscall(pid, |k, _| k.sys_dup2(pid, from, to)));
                self.procs[p].fds.insert(to, end);
            }
            4 | 5 => {
                if let Some((fd, end)) = nth_fd(self, b) {
                    let result = self.syscall(pid, |k, _| k.sys_close(pid, fd));
                    assert!(matches!(result, Issued::Done(SysResult::Ok)));
                    self.procs[p].fds.remove(&fd);
                    if let End::Listener(listener) = end {
                        // Any close of a listening descriptor on the
                        // listener's own shard stops the listening.
                        if self.listeners[listener].shard == self.shard_index(pid) {
                            self.close_listener(listener);
                        }
                    }
                }
            }
            6 if self.procs.len() < MAX_PROCS => {
                let child = Self::expect_int(self.syscall(pid, |k, _| k.sys_fork(pid, Vec::new(), 0))) as Pid;
                let mut fds = self.procs[p].fds.clone();
                for fd in 0..3 {
                    fds.entry(fd).or_insert(End::Other);
                }
                self.procs.push(Proc {
                    pid: child,
                    fds,
                    parked: None,
                });
            }
            7 if self.procs.len() < MAX_PROCS => {
                // spawn with chosen stdio — pipe ends, listeners and connected
                // sockets alike travel to whichever shard the child lands on
                let pick = |fleet: &Fleet, n: u8| match nth_fd(fleet, n) {
                    Some((fd, end)) => (Some(fd), end),
                    None => (Some(999), End::Other),
                };
                let picks = [pick(self, b), pick(self, c), pick(self, b.wrapping_add(c))];
                let stdio = [picks[0].0, picks[1].0, picks[2].0];
                let child = Self::expect_int(self.syscall(pid, |k, _| {
                    k.sys_spawn(pid, GUEST.to_owned(), vec!["guest".to_owned()], Vec::new(), None, stdio)
                })) as Pid;
                let fds = picks.iter().enumerate().map(|(fd, pick)| (fd as Fd, pick.1)).collect();
                self.procs.push(Proc {
                    pid: child,
                    fds,
                    parked: None,
                });
            }
            8 => {
                // exit with whatever is open
                let result = self.syscall(pid, |k, _| k.sys_exit(pid, 0));
                assert!(matches!(result, Issued::Gone));
                self.bury(pid);
            }
            9 => {
                // read from an empty stream end: EOF, or park until it is
                let readable = self.procs[p]
                    .fds
                    .iter()
                    .map(|(&fd, &end)| (fd, end))
                    .find(|&(_, end)| match end {
                        End::PipeR(pipe) => !self.pipes[pipe].written,
                        End::Client(_) => true,
                        End::Server(conn) => !self.conns[conn].has_request,
                        _ => false,
                    });
                let Some((fd, end)) = readable else { return };
                match self.syscall(pid, |k, reply| k.sys_read(pid, reply, fd, 16)) {
                    Issued::Done(result) => {
                        assert!(
                            self.eof(end),
                            "pid {pid}: read of {end:?} returned {result:?} instead of parking"
                        );
                        assert_eq!(result, SysResult::Data(Vec::new()));
                    }
                    // Reads of a foreign stream always park first; the
                    // reconciliation below sorts out which are done.
                    Issued::Parked(index) => self.procs[p].parked = Some(Parked::Read { index, end }),
                    Issued::Gone => panic!("read consumed the task"),
                }
            }
            10 => {
                // overfill a pipe nobody is parked reading
                let reading = |fleet: &Fleet, pipe: usize| {
                    fleet
                        .procs
                        .iter()
                        .any(|q| matches!(q.parked, Some(Parked::Read { end: End::PipeR(r), .. }) if r == pipe))
                };
                let writable = self.procs[p].fds.iter().find_map(|(&fd, &end)| match end {
                    End::PipeW(pipe) if !reading(self, pipe) => Some((fd, pipe)),
                    _ => None,
                });
                let Some((fd, pipe)) = writable else { return };
                let data = ByteSource::Inline(vec![7u8; PIPE_CAPACITY + 1]);
                let issued = self.syscall(pid, |k, reply| k.sys_write(pid, reply, fd, data));
                self.pipes[pipe].written = true;
                // With no reader left this is SIGPIPE on the spot — which
                // `reconcile` predicts from the same parked state.
                assert!(
                    !matches!(issued, Issued::Done(SysResult::Int(_))),
                    "an overfull write completed"
                );
                self.procs[p].parked = Some(Parked::Write { pipe });
            }
            11 if room && self.listeners.iter().filter(|l| l.open).count() < 2 => {
                let port = 8000 + self.listeners.len() as u16;
                let fd = Self::expect_int(self.syscall(pid, |k, _| k.sys_socket(pid))) as Fd;
                Self::expect_int(self.syscall(pid, |k, _| k.sys_bind(pid, fd, port)));
                let result = self.syscall(pid, |k, _| k.sys_listen(pid, fd, BACKLOG as u32));
                assert!(matches!(result, Issued::Done(SysResult::Ok)));
                self.procs[p].fds.insert(fd, End::Listener(self.listeners.len()));
                self.listeners.push(Listener {
                    port,
                    owner: pid,
                    shard: self.shard_index(pid),
                    open: true,
                    backlog: VecDeque::new(),
                });
            }
            12 if room => {
                // connect (from any shard) to a listener with backlog room
                let Some(listener) = (0..self.listeners.len())
                    .find(|&l| self.listeners[l].open && self.listeners[l].backlog.len() < BACKLOG)
                else {
                    return;
                };
                let port = self.listeners[listener].port;
                let fd = Self::expect_int(self.syscall(pid, |k, _| k.sys_socket(pid))) as Fd;
                match self.syscall(pid, |k, reply| k.sys_connect(pid, reply, fd, port)) {
                    Issued::Done(result) => assert_eq!(result, SysResult::Ok),
                    Issued::Parked(index) => {
                        assert_eq!(
                            self.completions.remove(&index),
                            Some(vec![SysResult::Ok]),
                            "remote connect"
                        );
                    }
                    Issued::Gone => panic!("connect consumed the task"),
                }
                let conn = self.conns.len();
                self.conns.push(Conn {
                    backlog: true,
                    http: None,
                    has_request: false,
                });
                self.listeners[listener].backlog.push_back(conn);
                self.procs[p].fds.insert(fd, End::Client(conn));
            }
            13 if room => {
                // accept on the listener's own shard
                let accepting = self.procs[p].fds.iter().find_map(|(&fd, &end)| match end {
                    End::Listener(l)
                        if self.listeners[l].open
                            && !self.listeners[l].backlog.is_empty()
                            && self.listeners[l].shard == self.shard_index(pid) =>
                    {
                        Some((fd, l))
                    }
                    _ => None,
                });
                let Some((fd, listener)) = accepting else { return };
                let new_fd = Self::expect_int(self.syscall(pid, |k, reply| k.sys_accept(pid, reply, fd))) as Fd;
                let conn = self.listeners[listener].backlog.pop_front().expect("backlog checked");
                self.conns[conn].backlog = false;
                self.procs[p].fds.insert(new_fd, End::Server(conn));
            }
            14 => {
                // a host HTTP request lands in a backlog (any process may
                // be "current"; the host is the client)
                let Some(listener) = (0..self.listeners.len())
                    .find(|&l| self.listeners[l].open && self.listeners[l].backlog.len() < BACKLOG)
                else {
                    return;
                };
                let (reply, verdict) = bounded(1);
                let (port, shard) = (self.listeners[listener].port, self.listeners[listener].shard);
                self.host(
                    shard,
                    HostRequest::HttpRequest {
                        port,
                        request: HttpRequest::new(Method::Get, "/"),
                        reply,
                    },
                );
                let conn = self.conns.len();
                self.conns.push(Conn {
                    backlog: true,
                    http: Some(verdict),
                    has_request: true,
                });
                self.listeners[listener].backlog.push_back(conn);
            }
            15 => {
                // the server answers an HTTP exchange: in full, or only the
                // start of a response it will never finish
                let serving = self.procs[p].fds.iter().find_map(|(&fd, &end)| match end {
                    End::Server(conn) if self.conns[conn].http.is_some() => Some((fd, conn)),
                    _ => None,
                });
                let Some((fd, conn)) = serving else { return };
                let full = b.is_multiple_of(2);
                let body: &[u8] = if full {
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
                } else {
                    b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nab"
                };
                let data = ByteSource::Inline(body.to_vec());
                let written = Self::expect_int(self.syscall(pid, |k, reply| k.sys_write(pid, reply, fd, data)));
                assert_eq!(written as usize, body.len());
                if full {
                    let verdict = self.conns[conn].http.take().expect("checked").try_recv();
                    assert!(
                        matches!(&verdict, Ok(Ok(response)) if response.status == 200),
                        "{verdict:?}"
                    );
                }
            }
            // The dice asked for something this process has no room for.
            _ => {}
        }
        self.reconcile(before, 0);
    }

    /// SIGKILL from the host: how a process that is parked gets to exit.
    fn kill(&mut self, p: usize) {
        let pid = self.procs[p].pid;
        let before = self.terminations();
        let (reply, outcome) = bounded(1);
        self.host(
            self.shard_index(pid),
            HostRequest::Kill {
                pid,
                signal: Signal::SIGKILL,
                reply,
            },
        );
        assert!(matches!(outcome.try_recv(), Ok(Ok(()))));
        self.bury(pid);
        self.reconcile(before, 1);
    }

    /// Everyone exits; nothing may be left anywhere.
    fn drain(&mut self) {
        while let Some(p) = self.procs.len().checked_sub(1) {
            self.kill(p);
        }
        for (id, shard) in self.shards.iter().enumerate() {
            assert_eq!(
                shard.streams.len(),
                0,
                "shard {id}: streams left: {:?}",
                shard.streams.ids()
            );
            assert!(shard.sockets.listening_ports().is_empty(), "shard {id}: listeners left");
            assert!(shard.http_clients.is_empty(), "shard {id}: HTTP clients left");
            assert!(shard.waiters.is_empty(), "shard {id}: waiters left");
            assert!(shard.foreign_endpoints.is_empty(), "shard {id}: foreign tallies left");
            assert!(shard.remote_contribs.is_empty(), "shard {id}: peer contributions left");
            assert!(shard.remote_client_pins.is_empty() && shard.pinned_files.is_empty());
            assert!(shard.remote_ops.is_empty(), "shard {id}: remote ops left");
        }
        for conn in &self.conns {
            assert!(conn.http.is_none(), "an HTTP exchange never finished");
        }
    }
}

fn run(nshards: usize, ops: &[(u8, u8, u8, u8)]) {
    let mut fleet = Fleet::boot(nshards);
    fleet.spawn_root();
    for &(op, a, b, c) in ops {
        fleet.step(op, a, b, c);
    }
    fleet.drain();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn live_counts_match_the_recount_on_one_shard(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..120),
    ) {
        run(1, &ops);
    }

    #[test]
    fn live_counts_match_the_recount_on_four_shards(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..120),
    ) {
        run(4, &ops);
    }
}

/// The shapes the random walk must not be left to find by luck.
#[test]
fn scripted_corner_cases() {
    for nshards in [1, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.spawn_root();
        let script: &[(u8, u8, u8, u8)] = &[
            (0, 0, 0, 0),  // pipe
            (7, 0, 3, 4),  // spawn a child holding both ends as stdio
            (7, 0, 4, 3),  // and another
            (4, 0, 3, 0),  // parent closes the read end
            (4, 0, 3, 0),  // ... and the write end
            (9, 1, 0, 0),  // a child parks reading (the other child still writes)
            (10, 2, 0, 0), // the other overfills: parks (a reader exists)
            (11, 0, 0, 0), // listen
            (12, 0, 0, 0), // connect into the backlog
            (14, 0, 0, 0), // HTTP request into the backlog
            (13, 0, 0, 0), // accept the connect
            (13, 0, 0, 0), // accept the HTTP exchange
            (15, 0, 1, 0), // half a response
            (7, 0, 5, 2),  // a child on a third shard gets the accepted socket as stdin
            (9, 2, 0, 0),  // ... and parks reading it: the client side is still open
            (3, 0, 3, 4),  // dup2 over the client's descriptor: the child reads EOF
            (8, 0, 0, 0),  // the server exits with everything open
        ];
        for &(op, a, b, c) in script {
            fleet.step(op, a, b, c);
        }
        fleet.drain();
    }
}

/// Two readers (or writers) of one pipe, each on a shard of its own, parked
/// on the owner under the *same* token — every shard counts from 1.
struct Collision {
    fleet: Fleet,
    root: Pid,
    /// The root's end of the pipe (the children share the other as stdio).
    fd: Fd,
    children: [Pid; 2],
}

impl Collision {
    /// Root on shard 0 makes a pipe and spawns two children, on shards 1 and
    /// 2, holding its read end as stdin (`reading`) or write end as stdout.
    fn stage(reading: bool) -> Collision {
        let mut fleet = Fleet::boot(4);
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let Issued::Done(SysResult::Pair(r, w)) = fleet.syscall(root, |k, _| k.sys_pipe2(root)) else {
            panic!("pipe2 failed");
        };
        let (r, w) = (r as Fd, w as Fd);
        let stdio = if reading {
            [Some(r), None, None]
        } else {
            [None, Some(w), None]
        };
        let children = [(); 2].map(|()| {
            Fleet::expect_int(fleet.syscall(root, |k, _| {
                k.sys_spawn(
                    root,
                    GUEST.to_owned(),
                    vec!["guest".to_owned()],
                    Vec::new(),
                    None,
                    stdio,
                )
            })) as Pid
        });
        assert_eq!(children.map(|pid| fleet.shard_index(pid)), [1, 2]);
        let fd = if reading { w } else { r };
        Collision {
            fleet,
            root,
            fd,
            children,
        }
    }

    /// Issues a call of `children[child]` that must park on the owner.
    fn park(&mut self, child: usize, call: impl FnOnce(&mut KernelState, Pid, ReplyTo) -> Outcome) -> u32 {
        let pid = self.children[child];
        match self.fleet.syscall(pid, |k, reply| call(k, pid, reply)) {
            Issued::Parked(index) => index,
            _ => panic!("pid {pid}: the call did not park"),
        }
    }

    fn assert_tokens_collide(&self) {
        let tokens = self.children.map(|pid| {
            let ops = &self.fleet.shards[self.fleet.shard_index(pid)].remote_ops;
            ops.keys().copied().collect::<Vec<u64>>()
        });
        assert_eq!(tokens[0].len(), 1);
        assert_eq!(tokens[0], tokens[1], "both submitters minted the same token");
        assert_eq!(self.fleet.shards[0].waiters.len(), 2, "both calls parked on the owner");
    }

    fn signal(&mut self, child: usize, signal: Signal) {
        let pid = self.children[child];
        let (reply, outcome) = bounded(1);
        self.fleet
            .host(self.fleet.shard_index(pid), HostRequest::Kill { pid, signal, reply });
        assert!(matches!(outcome.try_recv(), Ok(Ok(()))));
        assert_eq!(
            self.fleet.shards[0].waiters.len(),
            1,
            "exactly one waiter was cancelled"
        );
    }
}

#[test]
fn a_dying_reader_cancels_only_its_own_remote_read() {
    let mut c = Collision::stage(true);
    let parked = [0, 1].map(|child| c.park(child, |k, pid, reply| k.sys_read(pid, reply, 0, 16)));
    c.assert_tokens_collide();
    c.signal(0, Signal::SIGKILL);
    let (root, fd) = (c.root, c.fd);
    let data = ByteSource::Inline(vec![b'x']);
    let written = Fleet::expect_int(c.fleet.syscall(root, |k, reply| k.sys_write(root, reply, fd, data)));
    assert_eq!(written, 1);
    assert_eq!(
        c.fleet.completions.remove(&parked[1]),
        Some(vec![SysResult::Data(vec![b'x'])]),
        "the survivor's read"
    );
    assert_eq!(c.fleet.completions.remove(&parked[0]), None, "the dead reader's");
    assert!(c.fleet.shards[0].waiters.is_empty());
}

#[test]
fn an_interrupted_writer_cancels_only_its_own_remote_write() {
    let mut c = Collision::stage(false);
    // A handler without SA_RESTART: the signal completes the call with EINTR.
    let interrupted = c.children[0];
    let action = SigAction::Handler { restart: false };
    let installed = c.fleet.syscall(interrupted, |k, _| {
        k.sys_sigaction(interrupted, Signal::SIGUSR1, action)
    });
    assert!(matches!(installed, Issued::Done(SysResult::Ok)));
    // The first write fills the pipe and parks on its last byte, the second
    // parks whole.
    let sizes = [PIPE_CAPACITY + 1, 1];
    let parked = [0, 1].map(|child| {
        let data = ByteSource::Inline(vec![7u8; sizes[child]]);
        c.park(child, |k, pid, reply| k.sys_write(pid, reply, 1, data))
    });
    c.assert_tokens_collide();
    c.signal(0, Signal::SIGUSR1);
    assert_eq!(
        c.fleet.completions.remove(&parked[0]),
        Some(vec![SysResult::Err(Errno::EINTR)])
    );
    // Room for the other writer's byte: its write is still parked to take it.
    let (root, fd) = (c.root, c.fd);
    let read = c.fleet.syscall(root, |k, reply| k.sys_read(root, reply, fd, 16));
    assert!(matches!(read, Issued::Done(SysResult::Data(data)) if data == [7u8; 16]));
    assert_eq!(
        c.fleet.completions.remove(&parked[1]),
        Some(vec![SysResult::Int(1)]),
        "the other writer's write"
    );
    assert!(c.fleet.shards[0].waiters.is_empty());
}
