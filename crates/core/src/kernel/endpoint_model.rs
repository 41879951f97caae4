//! Model-based test of endpoint accounting.
//!
//! A fleet of kernel shards is stepped by hand — no event-loop threads, no
//! guests: each step issues one system call (or host request) straight into
//! the owning shard, then runs every queued cross-shard message to
//! quiescence.  After *every* event `KernelState::audit_endpoints` recounts
//! all endpoints from scratch and must agree with the incrementally kept
//! counts.  Beside the oracle runs a deliberately dumb model — it only counts
//! open descriptor slots per stream end — that predicts which parked reads
//! must have seen EOF, which parked writers must have died of SIGPIPE, which
//! parked polls must have seen input or a hang-up, and that nothing else
//! completed.  At quiescence every shard's cached state of a foreign stream
//! must equal the owner's.  At the end every process exits and every table
//! of every shard must be empty.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver};
use proptest::prelude::*;

use browsix_browser::PlatformConfig;
use browsix_fs::{Errno, MemFs, MountedFs};
use browsix_http::{HttpRequest, HttpResponse, Method};

use super::shard::{shard_of, stream_shard};
use super::*;
use crate::events::OutputSink;
use crate::exec::ProgramLauncher;
use crate::fd::{Fd, FileKind};
use crate::streams::StreamState;
use crate::syscall::{ByteSource, PollRequest, POLLERR, POLLHUP, POLLIN, POLLOUT};

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
    /// Blocked in `poll` for `POLLIN` on `end`; completes once
    /// [`Fleet::poll_bits`] is non-zero.
    Poll { index: u32, end: End },
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
    /// The exit watchers of the processes the host started.
    exits: HashMap<Pid, Receiver<i32>>,
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
            exits: HashMap::new(),
        }
    }

    fn shard_index(&self, pid: Pid) -> usize {
        shard_of(pid, self.shards.len())
    }

    /// Runs every queued event on every shard until all queues are empty,
    /// passing the handling shard to `check` after each one.
    pub(super) fn deliver(&mut self, check: fn(&KernelState)) {
        loop {
            let mut progressed = false;
            for i in 0..self.shards.len() {
                while let Ok(event) = self.queues[i].try_recv() {
                    self.shards[i].handle_one(Some(event));
                    check(&self.shards[i]);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Runs every queued event to quiescence, auditing the handling shard
    /// after each one and the fleet's `poll` subscriptions at the end.
    fn settle(&mut self) {
        self.deliver(audit);
        self.audit_poll_fleet();
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
    fn syscall<R: Into<Outcome>>(&mut self, pid: Pid, call: impl FnOnce(&mut KernelState, ReplyTo) -> R) -> Issued {
        let (index, outcome) = self.issue(pid, call);
        self.settle();
        match outcome {
            Outcome::Complete(result) => Issued::Done(result),
            Outcome::Blocked => Issued::Parked(index),
            Outcome::NoReply => Issued::Gone,
        }
    }

    /// Runs one system call of `pid` on its owning shard as the kernel's
    /// loops do — the call, then its wakes — leaving the messages it sent
    /// queued; returns the index its completion is collected under.
    fn issue<R: Into<Outcome>>(
        &mut self,
        pid: Pid,
        call: impl FnOnce(&mut KernelState, ReplyTo) -> R,
    ) -> (u32, Outcome) {
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
        let outcome = call(kernel, ReplyTo::Batch { index }).into();
        kernel.drain_wakes();
        audit(kernel);
        (index, outcome)
    }

    fn host(&mut self, shard: usize, request: HostRequest) {
        self.shards[shard].handle_event(KernelEvent::Host(request));
        self.shards[shard].drain_wakes();
        audit(&self.shards[shard]);
        self.settle();
    }

    /// At quiescence every `poll` subscription holds its stream's state on
    /// the owner — nothing cached is stale — and owner and subscriber agree
    /// on who subscribes (a freed stream's owner keeps no entry).
    fn audit_poll_fleet(&self) {
        for (id, shard) in self.shards.iter().enumerate() {
            for (&stream, subscription) in &shard.poll_subscriptions {
                let owner = &self.shards[stream_shard(stream)];
                let state = owner.streams.get(stream).map_or(StreamState::GONE, Stream::state);
                assert_eq!(subscription.state, Some(state), "shard {id}: stream {stream}");
                let subscribed = owner
                    .poll_subscribers
                    .get(&stream)
                    .is_some_and(|s| s.shards & 1 << id != 0);
                assert_eq!(subscribed, !state.gone, "shard {id}: stream {stream}");
            }
            for (&stream, subscribers) in &shard.poll_subscribers {
                for (sub, peer) in self.shards.iter().enumerate() {
                    let subscribed = subscribers.shards & 1 << sub != 0;
                    assert_eq!(
                        subscribed,
                        peer.poll_subscriptions.contains_key(&stream),
                        "stream {stream}"
                    );
                }
            }
        }
    }

    /// Has the host watch a live process's exit on its owning shard.
    fn watch(&mut self, pid: Pid) {
        let (reply, exited) = bounded(1);
        self.host(self.shard_index(pid), HostRequest::WatchExit { pid, reply });
        self.exits.insert(pid, exited);
    }

    /// The wait status `pid` exited with, from the host's watch on it.
    fn exit_status(&mut self, pid: Pid) -> i32 {
        let exit = self.exits.remove(&pid);
        let status = exit.and_then(|exit| exit.try_recv().ok());
        status.unwrap_or_else(|| panic!("pid {pid}: the host was not told of the exit"))
    }

    fn alive(&self, pid: Pid) -> bool {
        self.shards[self.shard_index(pid)].tasks.contains_key(&pid)
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

    /// What a `poll` for `POLLIN` on a readable `end` reports now.  A
    /// socket end's two streams lose their peer together, so its hang-up
    /// is also the error of the stream it writes.  Every bit, once set,
    /// stays set: nothing the model reads drains a stream it polls.
    fn poll_bits(&self, end: End) -> u16 {
        let (data, hangup) = match end {
            End::PipeR(pipe) => (self.pipes[pipe].written, POLLHUP),
            End::Client(_) => (false, POLLHUP | POLLERR),
            End::Server(conn) => (self.conns[conn].has_request, POLLHUP | POLLERR),
            _ => unreachable!("not a readable stream end"),
        };
        (if data { POLLIN } else { 0 }) | (if self.eof(end) { hangup } else { 0 })
    }

    /// Removes a dead process from the model: its descriptor slots vanish.
    fn bury(&mut self, pid: Pid) {
        self.procs.retain(|p| p.pid != pid);
    }

    /// Closes every open listener that no descriptor slot on its own shard
    /// names any more — whether the last one was closed, displaced by `dup2`
    /// or died with its process.  Slots on other shards (the stdio of a
    /// spawn placed there) do not keep it open.
    fn close_unreferenced_listeners(&mut self) {
        for listener in 0..self.listeners.len() {
            let Listener { shard, open, .. } = self.listeners[listener];
            let held = self
                .procs
                .iter()
                .any(|p| self.shard_index(p.pid) == shard && p.fds.values().any(|&end| end == End::Listener(listener)));
            if open && !held {
                self.listeners[listener].open = false;
                for conn in std::mem::take(&mut self.listeners[listener].backlog) {
                    self.conns[conn].backlog = false;
                }
            }
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
            self.close_unreferenced_listeners();
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
                let status = self.exit_status(pid);
                assert_eq!(status, encode_wait_status(None, Some(Signal::SIGPIPE)), "pid {pid}");
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
            if let Some(Parked::Poll { index, end }) = self.procs[i].parked {
                // Ready polls completed once, with what was ready when
                // they woke; the rest stay parked and have seen nothing.
                let seen = self.completions.remove(&index).unwrap_or_default();
                let now = self.poll_bits(end);
                let pid = self.procs[i].pid;
                if now == 0 {
                    assert_eq!(seen, Vec::new(), "pid {pid} completed a poll early");
                } else {
                    assert!(
                        matches!(&seen[..], [SysResult::Poll(r)] if r.len() == 1 && r[0] != 0 && r[0] & !now == 0),
                        "pid {pid}: poll of {end:?} now {now:#x} saw {seen:?}"
                    );
                    self.procs[i].parked = None;
                }
                continue;
            }
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
        let (exit, exited) = bounded(1);
        let stdio = [
            FileKind::Tty,
            FileKind::HostSink {
                sink: Arc::clone(&sink),
            },
            FileKind::HostSink { sink },
        ];
        let spec = TaskSpec {
            path: GUEST.to_owned(),
            args: vec!["guest".to_owned()],
            cwd: "/".to_owned(),
            files: (0..).zip(stdio.map(OpenFile::new)).collect(),
            exit: Some(exit),
            ..TaskSpec::default()
        };
        let spec = Box::new(spec);
        self.host(0, HostRequest::Spawn { spec, reply });
        let pid = pid.try_recv().expect("spawn replied").expect("spawn succeeded");
        self.exits.insert(pid, exited);
        let fds = (0..3).map(|fd| (fd, End::Other)).collect();
        self.procs.push(Proc { pid, fds, parked: None });
    }

    /// What a settled call answered: at once, or — parked until a message
    /// came back — through its completion.
    fn answer(&mut self, issued: Issued) -> SysResult {
        match issued {
            Issued::Done(result) => result,
            Issued::Parked(index) => match self.completions.remove(&index).as_deref() {
                Some([result]) => result.clone(),
                other => panic!("call {index} completed with {other:?}"),
            },
            Issued::Gone => panic!("the call consumed the task"),
        }
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
                if let Some((fd, _)) = nth_fd(self, b) {
                    let result = self.syscall(pid, |k, _| k.sys_close(pid, fd));
                    assert!(matches!(result, Issued::Done(SysResult::Ok)));
                    self.procs[p].fds.remove(&fd);
                }
            }
            6 if self.procs.len() < MAX_PROCS => {
                let child = Self::expect_int(self.syscall(pid, |k, _| k.sys_fork(pid, Vec::new(), 0))) as Pid;
                self.watch(child);
                let fds = self.procs[p].fds.clone();
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
                    // An empty table: each inherited slot gets /dev/null.
                    None => (None, End::Other),
                };
                let picks = [pick(self, b), pick(self, c), pick(self, b.wrapping_add(c))];
                let stdio = [picks[0].0, picks[1].0, picks[2].0];
                let child = Self::expect_int(self.syscall(pid, |k, _| {
                    k.sys_spawn(
                        pid,
                        GUEST.to_owned(),
                        vec!["guest".to_owned()],
                        Vec::new(),
                        None,
                        stdio,
                        -1,
                        false,
                    )
                })) as Pid;
                self.watch(child);
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
            9 if c % 2 == 1 => {
                // poll a readable stream end for input, forever: done if
                // anything is reported already, else park until it is
                let readable = self.procs[p]
                    .fds
                    .iter()
                    .filter(|(_, end)| matches!(end, End::PipeR(_) | End::Client(_) | End::Server(_)));
                let Some((&fd, &end)) = readable.clone().nth(b as usize % readable.count().max(1)) else {
                    return;
                };
                let fds = vec![PollRequest { fd, events: POLLIN }];
                match self.syscall(pid, |k, reply| k.sys_poll(pid, reply, fds, -1)) {
                    Issued::Done(result) => {
                        let now = self.poll_bits(end);
                        assert!(
                            now != 0,
                            "pid {pid}: poll of {end:?} returned {result:?} instead of parking"
                        );
                        assert_eq!(result, SysResult::Poll(vec![now]));
                    }
                    // A foreign stream's state is unknown until its owner's
                    // first push: such polls park, and reconciliation below
                    // checks what they completed with.
                    Issued::Parked(index) => self.procs[p].parked = Some(Parked::Poll { index, end }),
                    Issued::Gone => panic!("poll consumed the task"),
                }
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
            assert!(shard.waiters.is_empty(), "shard {id}: waiters left");
            assert!(shard.foreign_endpoints.is_empty(), "shard {id}: foreign tallies left");
            assert!(shard.remote_contribs.is_empty(), "shard {id}: peer contributions left");
            assert!(shard.remote_client_pins.is_empty() && shard.pinned_files.is_empty());
            assert!(shard.remote_ops.is_empty(), "shard {id}: remote ops left");
            assert!(
                shard.poll_subscriptions.is_empty(),
                "shard {id}: poll subscriptions left"
            );
            assert!(shard.poll_subscribers.is_empty(), "shard {id}: poll subscribers left");
        }
        for conn in &self.conns {
            assert!(conn.http.is_none(), "an HTTP exchange never finished");
        }
    }
}

/// Every check a shard's state must pass after each event.
fn audit(kernel: &KernelState) {
    kernel.audit_endpoints();
    kernel.audit_listeners();
    kernel.audit_poll_subscriptions();
    kernel.audit_process_registry();
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

/// An exit record lives in the parent's task from the child's exit until
/// the parent reaps it or dies.  A child beside its parent (always at 1
/// shard, for one of the children at 2) has its `ChildChanged` handled in
/// place, one on another shard sends it to the parent's; the two read the
/// same.  A `ChildChanged` that arrives after its parent died is dropped,
/// leaving nothing behind.
#[test]
fn exit_records_live_with_the_parent_at_every_shard_count() {
    for nshards in [1, 2, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let spawn = |fleet: &mut Fleet| {
            let args = vec!["guest".to_owned()];
            let call = |k: &mut KernelState, _| {
                k.sys_spawn(root, GUEST.to_owned(), args, Vec::new(), None, [None; 3], -1, false)
            };
            Fleet::expect_int(fleet.syscall(root, call)) as Pid
        };
        let [reaped, orphaned, late] = [(); 3].map(|()| spawn(&mut fleet));
        for child in [reaped, orphaned] {
            assert!(matches!(
                fleet.syscall(child, |k, _| k.sys_exit(child, 3)),
                Issued::Gone
            ));
        }
        let tasks = |fleet: &mut Fleet| {
            (0..nshards)
                .map(|shard| {
                    let (reply, counts) = bounded(1);
                    fleet.host(shard, HostRequest::ReadResources { reply });
                    counts.try_recv().expect("resources replied").tasks
                })
                .sum::<usize>()
        };
        let parent = fleet.shard_index(root);
        for child in [reaped, orphaned] {
            assert!(
                fleet.shards.iter().all(|s| !s.tasks.contains_key(&child)),
                "{nshards}: {child}"
            );
            assert!(fleet.shards[parent].tasks[&root]
                .children
                .contains(&(child, Some(ChildReport::Exited(encode_wait_status(Some(3), None))))));
        }
        assert_eq!(tasks(&mut fleet), 4, "{nshards} shard(s): root, `late` and two records");

        let wait =
            |fleet: &mut Fleet, child: Pid| fleet.syscall(root, |k, reply| k.sys_wait4(root, reply, child as i32, 0));
        let status = encode_wait_status(Some(3), None);
        assert!(
            matches!(wait(&mut fleet, reaped), Issued::Done(SysResult::Wait { pid, status: s }) if pid == reaped && s == status)
        );
        assert!(matches!(
            wait(&mut fleet, reaped),
            Issued::Done(SysResult::Err(Errno::ECHILD))
        ));
        assert_eq!(tasks(&mut fleet), 3, "{nshards} shard(s): reaping took one record");

        // `late` exits, and its root is killed before the exit is delivered
        // when `late` lives on another shard (the `ChildChanged` is still
        // queued).
        fleet.issue(late, |k, _| k.sys_exit(late, 0));
        fleet.kill(0);
        assert_eq!(
            tasks(&mut fleet),
            0,
            "{nshards} shard(s): the records died with the root"
        );
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
                    -1,
                    false,
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
    fn park<R: Into<Outcome>>(&mut self, child: usize, call: impl FnOnce(&mut KernelState, Pid, ReplyTo) -> R) -> u32 {
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

/// A `poll` on a stream another shard owns subscribes once per shard, the
/// owner pushes the changes, and every way a `poll` can end — ready, timed
/// out, interrupted, killed — ends the subscription; no timer is armed for
/// any of it, and nothing cached outlives the polls that needed it.
#[test]
fn a_foreign_poll_subscribes_once_and_the_owner_pushes_each_change() {
    let mut c = Collision::stage(true);
    let (root, fd) = (c.root, c.fd);
    let stream = c.fleet.shards[0].tasks[&root]
        .files
        .get(fd)
        .unwrap()
        .kind()
        .write_stream()
        .unwrap();
    let poll = |fleet: &mut Fleet, pid: Pid, timeout_ms: i32| {
        let fds = vec![PollRequest { fd: 0, events: POLLIN }];
        fleet.syscall(pid, |k, reply| k.sys_poll(pid, reply, fds, timeout_ms))
    };
    let sent = |fleet: &Fleet| fleet.shards.iter().map(|s| s.stats.shard_msgs_sent).collect::<Vec<_>>();
    let idle = |fleet: &Fleet| {
        fleet
            .shards
            .iter()
            .all(|s| s.poll_subscriptions.is_empty() && s.poll_subscribers.is_empty())
    };
    let [a, b] = c.children;
    let mut parked = Vec::new();

    // Three polls from two shards — two of them one process's, as one ring
    // batch would park them — and one subscription per shard.
    for (pid, subscribe) in [(a, true), (a, false), (b, true)] {
        let before = sent(&c.fleet);
        let Issued::Parked(index) = poll(&mut c.fleet, pid, -1) else {
            panic!("pid {pid}: a poll of an empty foreign pipe must park");
        };
        parked.push(index);
        let shard = c.fleet.shard_index(pid);
        let after = sent(&c.fleet);
        assert_eq!(
            after[shard] - before[shard],
            u64::from(subscribe),
            "pid {pid}: PollSubscribe"
        );
        assert_eq!(after[0] - before[0], u64::from(subscribe), "the owner's first push");
        assert_eq!(
            c.fleet.shards[shard].next_poll_deadline(),
            None,
            "no timer stands in for the owner"
        );
    }
    assert_eq!(c.fleet.shards[1].poll_subscriptions[&stream].polls, 2);
    assert_eq!(c.fleet.shards[0].poll_subscribers[&stream].shards, 0b110);

    // One write: one push to each subscribed shard wakes all three polls,
    // and each shard unsubscribes once.
    let before = sent(&c.fleet);
    let data = ByteSource::Inline(vec![b'x']);
    assert_eq!(
        Fleet::expect_int(c.fleet.syscall(root, |k, reply| k.sys_write(root, reply, fd, data))),
        1
    );
    for index in &parked {
        assert_eq!(
            c.fleet.completions.remove(index),
            Some(vec![SysResult::Poll(vec![POLLIN])])
        );
    }
    assert_eq!(
        sent(&c.fleet)[..3]
            .iter()
            .zip(&before)
            .map(|(x, y)| x - y)
            .collect::<Vec<_>>(),
        [2, 1, 1]
    );
    assert!(idle(&c.fleet));

    // Once the byte is read, a zero-timeout poll finds nothing ready: no
    // state from the finished polls lingers to claim otherwise, and the one
    // it asks the owner for ends with it.
    let read = c.fleet.syscall(a, |k, reply| k.sys_read(a, reply, 0, 16));
    let Issued::Parked(index) = read else {
        panic!("a foreign read parks")
    };
    assert_eq!(
        c.fleet.completions.remove(&index),
        Some(vec![SysResult::Data(vec![b'x'])])
    );
    let polled = poll(&mut c.fleet, a, 0);
    assert_eq!(c.fleet.answer(polled), SysResult::Poll(vec![0]));
    assert!(idle(&c.fleet));

    // A poll that times out.
    let Issued::Parked(index) = poll(&mut c.fleet, a, 1) else {
        panic!("parks")
    };
    std::thread::sleep(std::time::Duration::from_millis(2));
    c.fleet.shards[1].handle_one(None);
    c.fleet.settle();
    assert_eq!(c.fleet.completions.remove(&index), Some(vec![SysResult::Poll(vec![0])]));
    assert!(idle(&c.fleet));

    // A poll interrupted by a handler without SA_RESTART.
    let action = SigAction::Handler { restart: false };
    let installed = c.fleet.syscall(a, |k, _| k.sys_sigaction(a, Signal::SIGUSR1, action));
    assert!(matches!(installed, Issued::Done(SysResult::Ok)));
    let Issued::Parked(index) = poll(&mut c.fleet, a, -1) else {
        panic!("parks")
    };
    let (reply, outcome) = bounded(1);
    c.fleet.host(
        1,
        HostRequest::Kill {
            pid: a,
            signal: Signal::SIGUSR1,
            reply,
        },
    );
    assert!(matches!(outcome.try_recv(), Ok(Ok(()))));
    assert_eq!(
        c.fleet.completions.remove(&index),
        Some(vec![SysResult::Err(Errno::EINTR)])
    );
    assert!(idle(&c.fleet));

    // A poll whose process is killed.
    assert!(matches!(poll(&mut c.fleet, b, -1), Issued::Parked(_)));
    assert!(!idle(&c.fleet));
    let (reply, outcome) = bounded(1);
    c.fleet.host(
        2,
        HostRequest::Kill {
            pid: b,
            signal: Signal::SIGKILL,
            reply,
        },
    );
    assert!(matches!(outcome.try_recv(), Ok(Ok(()))));
    assert!(idle(&c.fleet));
}

/// The owner's half of a remote write is one call: the push of the state
/// it left reaches the submitting shard before the write's reply, so a
/// process there that sees its write return and then polls reads the new
/// state from a live subscription, not the one before the write.
#[test]
fn a_remote_write_pushes_its_state_before_it_replies() {
    let mut c = Collision::stage(false);
    let writer = c.children[0];
    // A poll for input on the write end never completes: it keeps the
    // writer's shard subscribed across the write.
    let fds = vec![PollRequest { fd: 1, events: POLLIN }];
    c.park(0, |k, pid, reply| k.sys_poll(pid, reply, fds, -1));
    let data = ByteSource::Inline(vec![b'x']);
    let (index, outcome) = c.fleet.issue(writer, |k, reply| k.sys_write(writer, reply, 1, data));
    assert!(
        matches!(outcome, Outcome::Blocked),
        "a foreign write waits for its owner"
    );
    let remote_write = c.fleet.queues[0].try_recv().expect("the write went to the owner");
    c.fleet.shards[0].handle_one(Some(remote_write));
    let replies: Vec<KernelEvent> = c.fleet.queues[1].try_iter().collect();
    let names: Vec<String> = replies.iter().map(|event| format!("{event:?}")).collect();
    assert!(
        matches!(&names[..], [push, done] if push.starts_with("Shard(PollState") && done.starts_with("Shard(RemoteOpDone")),
        "{names:?}"
    );
    for event in replies {
        c.fleet.shards[1].handle_one(Some(event));
    }
    c.fleet.settle();
    assert_eq!(c.fleet.completions.remove(&index), Some(vec![SysResult::Int(1)]));
}

/// A write of twice a pipe's capacity to a process parked reading all of
/// it: the first half fills the pipe and the writer parks; the reader's wake
/// runs when the write returns, and its read empties the pipe.  The wake
/// that read raises must reach the writer, which then finishes in the same
/// drain; were it lost, the writer and the reader's next read would both
/// sleep on an empty pipe.
#[test]
fn a_write_of_twice_the_pipe_to_a_parked_reader_completes() {
    for nshards in [1, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let Issued::Done(SysResult::Pair(r, w)) = fleet.syscall(root, |k, _| k.sys_pipe2(root)) else {
            panic!("pipe2 failed");
        };
        let (r, w) = (r as Fd, w as Fd);
        fleet.pipes.push(Pipe::default());
        fleet.procs[0].fds.extend([(r, End::PipeR(0)), (w, End::PipeW(0))]);
        let reader = Fleet::expect_int(fleet.syscall(root, |k, _| k.sys_fork(root, Vec::new(), 0))) as Pid;
        let fds = fleet.procs[0].fds.clone();
        fleet.procs.push(Proc {
            pid: reader,
            fds,
            parked: None,
        });

        let len = 2 * PIPE_CAPACITY;
        let Issued::Parked(read) = fleet.syscall(reader, |k, reply| k.sys_read(reader, reply, r, len)) else {
            panic!("a read of an empty pipe must park");
        };
        let data = ByteSource::Inline(vec![7; len]);
        let written = match fleet.syscall(root, |k, reply| k.sys_write(root, reply, w, data)) {
            Issued::Parked(write) => fleet.completions.remove(&write),
            Issued::Done(result) => Some(vec![result]),
            Issued::Gone => None,
        };
        assert_eq!(written, Some(vec![SysResult::Int(len as i64)]), "{nshards} shards");
        assert_eq!(
            fleet.completions.remove(&read),
            Some(vec![SysResult::Data(vec![7; PIPE_CAPACITY])])
        );
        let rest = fleet.syscall(reader, |k, reply| k.sys_read(reader, reply, r, len));
        assert!(matches!(rest, Issued::Done(SysResult::Data(d)) if d == vec![7; PIPE_CAPACITY]));
        fleet.drain();
    }
}

/// A blocking `sendfile` of four streamfuls into a pipe a process is parked
/// reading.  Its wake runs when the call has pushed all it can, so the
/// reader's first read takes a whole streamful, not the first page; the
/// reads that follow take the rest, and the transfer completes.
#[test]
fn a_sendfile_to_a_parked_reader_hands_it_a_streamful() {
    use browsix_fs::{FileSystem, OpenFlags};
    let len = 4 * PIPE_CAPACITY;
    let file: Vec<u8> = (0..len).map(|i| (i / crate::vm::PAGE_SIZE) as u8).collect();
    for nshards in [1, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.shards[0].fs.write_file("/file", &file).expect("stage the file");
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let Issued::Done(SysResult::Pair(r, w)) = fleet.syscall(root, |k, _| k.sys_pipe2(root)) else {
            panic!("pipe2 failed");
        };
        let (r, w) = (r as Fd, w as Fd);
        fleet.pipes.push(Pipe::default());
        fleet.procs[0].fds.extend([(r, End::PipeR(0)), (w, End::PipeW(0))]);
        let opened = fleet.syscall(root, |k, _| {
            k.sys_open(root, "/file".to_owned(), OpenFlags::read_only(), 0)
        });
        let input = Fleet::expect_int(opened) as Fd;
        fleet.procs[0].fds.insert(input, End::Other);
        let reader = Fleet::expect_int(fleet.syscall(root, |k, _| k.sys_fork(root, Vec::new(), 0))) as Pid;
        let fds = fleet.procs[0].fds.clone();
        fleet.procs.push(Proc {
            pid: reader,
            fds,
            parked: None,
        });

        let Issued::Parked(first) = fleet.syscall(reader, |k, reply| k.sys_read(reader, reply, r, PIPE_CAPACITY))
        else {
            panic!("a read of an empty pipe must park");
        };
        let Issued::Parked(sent) =
            fleet.syscall(root, |k, reply| k.sys_sendfile(root, reply, w, input, -1, len as u64))
        else {
            panic!("a sendfile of four streamfuls must park");
        };
        let mut received = match fleet.completions.remove(&first).as_deref() {
            Some([SysResult::Data(data)]) => data.clone(),
            other => panic!("{nshards} shards: the parked read saw {other:?}"),
        };
        assert_eq!(received.len(), PIPE_CAPACITY, "{nshards} shards: the first read");
        while received.len() < len {
            let read = fleet.syscall(reader, |k, reply| k.sys_read(reader, reply, r, PIPE_CAPACITY));
            let Issued::Done(SysResult::Data(data)) = read else {
                panic!("{nshards} shards: a read after {} bytes parked", received.len());
            };
            assert!(!data.is_empty(), "{nshards} shards: EOF after {} bytes", received.len());
            received.extend(data);
        }
        assert!(received == file, "{nshards} shards: the bytes arrive in order");
        assert_eq!(
            fleet.completions.remove(&sent),
            Some(vec![SysResult::Int(len as i64)]),
            "{nshards} shards"
        );
        fleet.drain();
    }
}

/// A zero-timeout `poll` reports a foreign stream's state as a local one
/// does: it asks the owner, parks until the first push, and completes with
/// what that push says — a pipe holding data reads `POLLIN` and a write end
/// whose readers are gone `POLLERR`, at every shard count.
#[test]
fn a_zero_timeout_poll_of_a_foreign_stream_reports_its_state() {
    for nshards in [1, 2, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let mut pipe = || {
            let Issued::Done(SysResult::Pair(r, w)) = fleet.syscall(root, |k, _| k.sys_pipe2(root)) else {
                panic!("pipe2 failed");
            };
            (r as Fd, w as Fd)
        };
        let ((full, fill), (unread, unheard)) = (pipe(), pipe());
        let data = ByteSource::Inline(vec![b'x']);
        assert_eq!(
            Fleet::expect_int(fleet.syscall(root, |k, reply| k.sys_write(root, reply, fill, data))),
            1
        );
        let stdio = [Some(full), Some(unheard), None];
        let child = Fleet::expect_int(fleet.syscall(root, |k, _| {
            k.sys_spawn(
                root,
                GUEST.to_owned(),
                vec!["guest".to_owned()],
                Vec::new(),
                None,
                stdio,
                -1,
                false,
            )
        })) as Pid;
        if nshards > 1 {
            assert_ne!(fleet.shard_index(child), fleet.shard_index(root), "{nshards} shards");
        }
        assert!(matches!(
            fleet.syscall(root, |k, _| k.sys_close(root, unread)),
            Issued::Done(SysResult::Ok)
        ));
        let fds = vec![
            PollRequest { fd: 0, events: POLLIN },
            PollRequest { fd: 1, events: POLLOUT },
        ];
        let polled = fleet.syscall(child, |k, reply| k.sys_poll(child, reply, fds, 0));
        assert_eq!(
            fleet.answer(polled),
            SysResult::Poll(vec![POLLIN, POLLERR]),
            "{nshards} shard(s)"
        );
        assert!(fleet
            .shards
            .iter()
            .all(|s| s.poll_subscriptions.is_empty() && s.poll_subscribers.is_empty()));
        fleet.procs.push(Proc {
            pid: child,
            fds: BTreeMap::new(),
            parked: None,
        });
        fleet.drain();
    }
}

/// A process's group and parent are read from the router's registry, so
/// what `setpgid` and an exit change is what every shard sees the moment
/// the call returns — before any message is delivered, as at one shard.
#[test]
fn group_and_parent_changes_are_seen_before_any_message_is_delivered() {
    for nshards in [1, 2, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let child = Fleet::expect_int(fleet.syscall(root, |k, _| {
            k.sys_spawn(
                root,
                GUEST.to_owned(),
                vec!["guest".to_owned()],
                Vec::new(),
                None,
                [None; 3],
                -1,
                false,
            )
        })) as Pid;
        if nshards > 1 {
            assert_ne!(fleet.shard_index(child), fleet.shard_index(root), "{nshards} shards");
        }
        fleet.procs.push(Proc {
            pid: child,
            fds: BTreeMap::new(),
            parked: None,
        });
        // The child ignores SIGUSR1; the parent takes its default action and
        // dies if the signal reaches it.
        let ignored = fleet.syscall(child, |k, _| k.sys_sigaction(child, Signal::SIGUSR1, SigAction::Ignore));
        assert!(matches!(ignored, Issued::Done(SysResult::Ok)));

        let done = |(_, outcome): (u32, Outcome)| match outcome {
            Outcome::Complete(result) => Some(result),
            _ => None,
        };
        let moved = fleet.issue(root, |k, _| k.sys_setpgid(root, child, child));
        assert_eq!(done(moved), Some(SysResult::Ok));
        let group = fleet.issue(child, |k, _| k.sys_getpgid(child, 0));
        assert_eq!(done(group), Some(SysResult::Int(child.into())), "{nshards} shard(s)");
        let killed = fleet.issue(child, |k, reply| k.sys_kill(child, reply, 0, Signal::SIGUSR1));
        assert_eq!(done(killed), Some(SysResult::Ok));
        fleet.settle();
        assert!(
            fleet.alive(root),
            "{nshards} shard(s): kill(0) reached the parent's group"
        );

        assert!(matches!(
            fleet.issue(root, |k, _| k.sys_exit(root, 0)).1,
            Outcome::NoReply
        ));
        fleet.bury(root);
        let parent = fleet.issue(child, |k, _| k.sys_getppid(child));
        assert_eq!(
            done(parent),
            Some(SysResult::Int(0)),
            "{nshards} shard(s): the orphan's parent"
        );
        fleet.settle();
        fleet.drain();
    }
}

/// A `kill` of a process on another shard answers only once the owner has
/// delivered the signal.  The owner sends the stop to the parent's shard
/// before its answer, and each shard's queue is FIFO, so a parent that
/// `wait4(WNOHANG | WUNTRACED)`s as soon as its `kill` returns, with nothing
/// else delivered in between, sees the stop — as at one shard.
#[test]
fn a_cross_shard_kill_answers_after_the_stop_has_landed() {
    use crate::syscall::{encode_stop_status, WNOHANG, WUNTRACED};

    for nshards in [2, 4] {
        let mut fleet = Fleet::boot(nshards);
        fleet.spawn_root();
        let root = fleet.procs[0].pid;
        let child = Fleet::expect_int(fleet.syscall(root, |k, _| {
            k.sys_spawn(
                root,
                GUEST.to_owned(),
                vec!["guest".to_owned()],
                Vec::new(),
                None,
                [None; 3],
                -1,
                false,
            )
        })) as Pid;
        let parent = fleet.shard_index(root);
        assert_ne!(fleet.shard_index(child), parent, "{nshards} shards");
        fleet.procs.push(Proc {
            pid: child,
            fds: BTreeMap::new(),
            parked: None,
        });

        let (index, outcome) = fleet.issue(root, |k, reply| k.sys_kill(root, reply, child as i32, Signal::SIGSTOP));
        // One event at a time, until the kill's answer is in.
        let answered = |fleet: &Fleet| {
            let batch = fleet.shards[parent].tasks[&root].inflight.as_ref();
            batch.is_some_and(|batch| batch.completions.iter().any(|c| c.index == index))
        };
        let mut done = matches!(outcome, Outcome::Complete(SysResult::Ok));
        while !done {
            let next = (0..nshards).find_map(|shard| Some((shard, fleet.queues[shard].try_recv().ok()?)));
            let (shard, event) = next.expect("the kill is answered");
            fleet.shards[shard].handle_one(Some(event));
            done = answered(&fleet);
        }
        let options = WNOHANG | WUNTRACED;
        let (_, waited) = fleet.issue(root, |k, reply| k.sys_wait4(root, reply, child as i32, options));
        let stopped = SysResult::Wait {
            pid: child,
            status: encode_stop_status(Signal::SIGSTOP),
        };
        assert!(
            matches!(waited, Outcome::Complete(result) if result == stopped),
            "{nshards} shard(s): the stop had not landed when the kill returned"
        );
        fleet.settle();
        fleet.drain();
    }
}
