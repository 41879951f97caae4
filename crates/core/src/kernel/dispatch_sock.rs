//! Socket system-call handlers and the kernel-side HTTP client used by the
//! `XMLHttpRequest`-like host API.

use crossbeam::channel::Sender;

use browsix_fs::Errno;
use browsix_http::{HttpRequest, HttpResponse};

use crate::fd::{Fd, FileKind, OpenFile};
use crate::kernel::waitq::{Attempt, WaitChannel};
use crate::kernel::{HttpClientState, KernelState, Outcome, ReplyTo, WaitKind};
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
            | FileKind::SocketListener { port, .. }
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
                let id = match self.router.claim_port(port, self.shard_id) {
                    Ok(id) => id,
                    Err(e) => return Outcome::Complete(SysResult::Err(e)),
                };
                if let Err(e) = self.sockets_mut().listen(port, backlog as usize, id) {
                    self.router.release_port(port, self.shard_id);
                    return Outcome::Complete(SysResult::Err(e));
                }
                file.set_kind(FileKind::SocketListener { port, id });
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

    /// Attempts to accept a pending connection on the listener behind `fd`:
    /// the new descriptor, or blocked on the listener's queue.
    pub(crate) fn try_accept(&mut self, pid: Pid, fd: Fd) -> Attempt {
        let (port, id) = match self.task(pid).and_then(|t| t.files.get(fd)).map(|file| file.kind()) {
            Ok(FileKind::SocketListener { port, id }) => (port, id),
            Ok(FileKind::Socket { .. }) => return Attempt::Done(SysResult::Err(Errno::EINVAL)),
            Ok(_) => return Attempt::Done(SysResult::Err(Errno::ENOTSOCK)),
            Err(e) => return Attempt::Done(SysResult::Err(e)),
        };
        if !self.sockets().is_listening(port, id) {
            // Only a handle on a shard that does not own the listener (the
            // stdio of a cross-shard spawn) gets here: error out rather than
            // wait for a connection this shard can never queue, or take one
            // queued for a later listener on the same port.
            return Attempt::Done(SysResult::Err(Errno::EINVAL));
        }
        let Some(server) = self.sockets_mut().accept(port) else {
            return Attempt::blocked_on(WaitChannel::Listener(port), WaitKind::Accept { fd }, false);
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
        Attempt::Done(match self.task_mut(pid) {
            Ok(task) => SysResult::Int(task.files.insert(stream, 0) as i64),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_accept(&mut self, pid: Pid, reply: ReplyTo, fd: Fd) -> Outcome {
        let nonblocking = self.fd_nonblocking(pid, fd);
        self.block(pid, Some(reply), WaitKind::Accept { fd }, nonblocking)
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
                self.hold_connection_side(side);
                // The server's blocked accept (or poll) can take the
                // connection now.
                self.wake(WaitChannel::Listener(port));
                // Pump once; if the exchange is still in flight the client
                // parks on its connection's stream queues like any other
                // blocked operation.
                self.block(0, None, WaitKind::HttpClient(client), false);
            }
            Err(e) => {
                let _ = reply.send(Err(e));
            }
        }
    }
}
