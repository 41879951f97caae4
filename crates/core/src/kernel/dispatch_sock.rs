//! Socket system-call handlers and the kernel-side HTTP client used by the
//! `XMLHttpRequest`-like host API.

use crossbeam::channel::Sender;

use browsix_fs::Errno;
use browsix_http::{HttpRequest, HttpResponse};

use crate::fd::{Fd, FileKind, OpenFile};
use crate::kernel::waitq::{HttpPump, WaitChannel};
use crate::kernel::{HttpClientState, KernelState, Outcome, ReplyTo, WaitKind, Waiter};
use crate::syscall::SysResult;
use crate::task::Pid;

impl KernelState {
    pub(crate) fn sys_socket(&mut self, pid: Pid) -> Outcome {
        let file = OpenFile::new(FileKind::Socket { bound_port: None });
        match self.task_mut(pid) {
            Ok(task) => {
                let fd = task.files.insert(file, 0);
                Outcome::Complete(SysResult::Int(fd as i64))
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_bind(&mut self, pid: Pid, fd: Fd, port: u16) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::Socket { bound_port: None } => {
                // The port namespace is kernel-global: ephemeral allocation
                // and the in-use check go through the router, not the
                // shard-local listener table.
                let port = if port == 0 {
                    self.router.allocate_ephemeral_port()
                } else {
                    port
                };
                if self.router.port_claimed(port) {
                    return Outcome::Complete(SysResult::Err(Errno::EADDRINUSE));
                }
                file.set_kind(FileKind::Socket { bound_port: Some(port) });
                Outcome::Complete(SysResult::Int(port as i64))
            }
            FileKind::Socket { bound_port: Some(_) } => Outcome::Complete(SysResult::Err(Errno::EINVAL)),
            _ => Outcome::Complete(SysResult::Err(Errno::ENOTSOCK)),
        }
    }

    pub(crate) fn sys_getsockname(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::Socket { bound_port: Some(port) }
            | FileKind::SocketListener { port }
            | FileKind::SocketStream { port, .. } => Outcome::Complete(SysResult::Int(port as i64)),
            FileKind::Socket { bound_port: None } => Outcome::Complete(SysResult::Int(0)),
            _ => Outcome::Complete(SysResult::Err(Errno::ENOTSOCK)),
        }
    }

    pub(crate) fn sys_listen(&mut self, pid: Pid, fd: Fd, backlog: u32) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::Socket { bound_port: Some(port) } => {
                // Claim the port fleet-wide first: the router is the one
                // arbiter of the namespace, so two shards racing to listen on
                // the same port see exactly one winner.
                if let Err(e) = self.router.claim_port(port, self.shard_id) {
                    return Outcome::Complete(SysResult::Err(e));
                }
                if let Err(e) = self.sockets_mut().listen(port, pid, backlog as usize) {
                    self.router.release_port(port, self.shard_id);
                    return Outcome::Complete(SysResult::Err(e));
                }
                file.set_kind(FileKind::SocketListener { port });
                // Socket notification: tell the embedding application a server
                // is ready, so it never needs to poll (§4.1 of the paper).
                self.notify_port_listen(port);
                Outcome::Complete(SysResult::Ok)
            }
            FileKind::Socket { bound_port: None } => Outcome::Complete(SysResult::Err(Errno::EINVAL)),
            FileKind::SocketListener { .. } => Outcome::Complete(SysResult::Ok),
            _ => Outcome::Complete(SysResult::Err(Errno::ENOTSOCK)),
        }
    }

    /// Attempts to accept a pending connection on the listener behind `fd`.
    /// Returns the new descriptor, or `None` if nothing is pending.
    pub(crate) fn try_accept(&mut self, pid: Pid, fd: Fd) -> Result<Option<Fd>, Errno> {
        let file = self.task(pid)?.files.get(fd)?;
        let port = match file.kind() {
            FileKind::SocketListener { port } => port,
            FileKind::Socket { .. } => return Err(Errno::EINVAL),
            _ => return Err(Errno::ENOTSOCK),
        };
        if !self.sockets().port_in_use(port) {
            // The listener was closed (another holder of this description,
            // or the owner exiting).  Error out rather than waiting on a
            // port that can never queue a connection again.
            return Err(Errno::EINVAL);
        }
        let Some(server) = self.sockets_mut().accept(port) else {
            return Ok(None);
        };
        // The server side now belongs to the new description; the backlog's
        // hold on it (taken at connect) is dropped after, so the count never
        // dips in between.
        let stream = self.new_stream_file(FileKind::SocketStream {
            reads: server.reads,
            writes: server.writes,
            port,
        });
        self.drop_connection_side(server);
        let new_fd = self.task_mut(pid)?.files.insert(stream, 0);
        Ok(Some(new_fd))
    }

    pub(crate) fn sys_accept(&mut self, pid: Pid, reply: ReplyTo, fd: Fd) -> Outcome {
        match self.try_accept(pid, fd) {
            Ok(Some(new_fd)) => Outcome::Complete(SysResult::Int(new_fd as i64)),
            Ok(None) => {
                if self.fd_nonblocking(pid, fd) {
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                let Some(channel) = self.accept_wait_channel(pid, fd) else {
                    return Outcome::Complete(SysResult::Err(Errno::EBADF));
                };
                self.stats.waiters_parked += 1;
                self.park_waiter_one(
                    channel,
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Accept { fd },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_connect(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, port: u16) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::Socket { .. } => {}
            FileKind::SocketStream { .. } => return Outcome::Complete(SysResult::Err(Errno::EINVAL)),
            _ => return Outcome::Complete(SysResult::Err(Errno::ENOTSOCK)),
        }
        if !self.sockets().port_in_use(port) {
            // Not listening here; maybe on another shard.  The owner creates
            // both streams (so the server side is always shard-local to the
            // listener) and this shard's descriptor gains the client's ends
            // when the ConnectReply arrives.
            match self.router.port_owner(port) {
                Some(owner) if owner != self.shard_id => {
                    return self.remote_connect(pid, reply, fd, owner, port);
                }
                _ => return Outcome::Complete(SysResult::Err(Errno::ECONNREFUSED)),
            }
        }
        match self.open_connection(port) {
            Ok(client) => {
                self.connect_file(&file, client, port);
                // Wake exactly the listener's queue: a blocked accept (or a
                // poll on the listener) can now complete.
                self.wake(WaitChannel::Listener(port));
                Outcome::Complete(SysResult::Ok)
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    // ---- the XMLHttpRequest-like host API ------------------------------------

    /// Starts an HTTP exchange with an in-Browsix server on behalf of the
    /// embedding web application.
    pub(crate) fn host_http_request(
        &mut self,
        port: u16,
        request: HttpRequest,
        reply: Sender<Result<HttpResponse, Errno>>,
    ) {
        if !self.sockets().port_in_use(port) {
            let _ = reply.send(Err(Errno::ECONNREFUSED));
            return;
        }
        match self.open_connection(port) {
            Ok(side) => {
                let client = HttpClientState {
                    side,
                    to_send: request.serialize(),
                    sent: 0,
                    received: Vec::new(),
                    reply,
                };
                // The client holds the client side of the connection, like a
                // descriptor would, until the exchange finishes.
                self.http_clients.push(client);
                self.hold_connection_side(side);
                // The server's blocked accept (or poll) can take the
                // connection now.
                self.wake(WaitChannel::Listener(port));
                // Pump once; if the exchange is still in flight the client
                // parks on its connection's stream queues like any other
                // blocked operation.
                match self.pump_http_client(side) {
                    HttpPump::Done => {}
                    HttpPump::Blocked(channels) => {
                        self.stats.waiters_parked += 1;
                        self.park_waiter(
                            channels,
                            Waiter {
                                pid: 0,
                                reply: None,
                                kind: WaitKind::HttpClient { side },
                            },
                        );
                    }
                }
            }
            Err(e) => {
                let _ = reply.send(Err(e));
            }
        }
    }
}
