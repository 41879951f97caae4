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
    pub(crate) fn sys_socket(&mut self, pid: Pid) -> Result<SysResult, Errno> {
        let file = OpenFile::new(FileKind::Socket { bound_port: None });
        Ok(SysResult::Int(self.task_mut(pid)?.files.insert(file, 0) as i64))
    }

    pub(crate) fn sys_bind(&mut self, pid: Pid, fd: Fd, port: u16) -> Result<SysResult, Errno> {
        let file = self.file(pid, fd)?;
        match file.kind() {
            FileKind::Socket { bound_port: None } => {}
            FileKind::Socket { bound_port: Some(_) } => return Err(Errno::EINVAL),
            _ => return Err(Errno::ENOTSOCK),
        }
        // The port namespace is kernel-global: ephemeral allocation and the
        // in-use check go through the router, not the shard-local listener
        // table.
        let port = if port == 0 {
            self.router.allocate_ephemeral_port()
        } else {
            port
        };
        if self.router.port_claimed(port) {
            return Err(Errno::EADDRINUSE);
        }
        file.set_kind(FileKind::Socket { bound_port: Some(port) });
        Ok(SysResult::Int(port as i64))
    }

    pub(crate) fn sys_getsockname(&mut self, pid: Pid, fd: Fd) -> Result<SysResult, Errno> {
        match self.file(pid, fd)?.kind() {
            FileKind::Socket { bound_port: Some(port) }
            | FileKind::SocketListener { port, .. }
            | FileKind::SocketStream { port, .. } => Ok(SysResult::Int(port as i64)),
            FileKind::Socket { bound_port: None } => Ok(SysResult::Int(0)),
            _ => Err(Errno::ENOTSOCK),
        }
    }

    pub(crate) fn sys_listen(&mut self, pid: Pid, fd: Fd, backlog: u32) -> Result<SysResult, Errno> {
        let file = self.file(pid, fd)?;
        let port = match file.kind() {
            FileKind::Socket { bound_port: Some(port) } => port,
            FileKind::Socket { bound_port: None } => return Err(Errno::EINVAL),
            FileKind::SocketListener { .. } => return Ok(SysResult::Ok),
            _ => return Err(Errno::ENOTSOCK),
        };
        // Claim the port fleet-wide first: the router is the one arbiter of
        // the namespace, so two shards racing to listen on the same port see
        // exactly one winner.
        let id = self.router.claim_port(port, self.shard_id)?;
        if let Err(e) = self.sockets.listen(port, backlog as usize, id) {
            self.router.release_port(port, self.shard_id);
            return Err(e);
        }
        file.set_kind(FileKind::SocketListener { port, id });
        // Socket notification: tell the embedding application a server is
        // ready, so it never needs to poll (§4.1 of the paper).
        self.router.notify_port_listen(port);
        Ok(SysResult::Ok)
    }

    /// Attempts to accept a pending connection on the listener behind `fd`:
    /// the new descriptor, or blocked on the listener's queue.
    pub(crate) fn try_accept(&mut self, pid: Pid, fd: Fd) -> Result<Attempt, Errno> {
        let (port, id) = match self.file(pid, fd)?.kind() {
            FileKind::SocketListener { port, id } => (port, id),
            FileKind::Socket { .. } => return Err(Errno::EINVAL),
            _ => return Err(Errno::ENOTSOCK),
        };
        if !self.sockets.is_listening(port, id) {
            // Only a handle on a shard that does not own the listener (the
            // stdio of a cross-shard spawn) gets here: error out rather than
            // wait for a connection this shard can never queue, or take one
            // queued for a later listener on the same port.
            return Err(Errno::EINVAL);
        }
        let Some(server) = self.sockets.accept(port) else {
            return Ok(Attempt::blocked_on(
                WaitChannel::Listener(port),
                WaitKind::Accept { fd },
                false,
            ));
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
        let fd = self.task_mut(pid)?.files.insert(stream, 0);
        Ok(Attempt::Done(SysResult::Int(fd as i64)))
    }

    pub(crate) fn sys_accept(&mut self, pid: Pid, reply: ReplyTo, fd: Fd) -> Result<Outcome, Errno> {
        let nonblocking = self.fd_nonblocking(pid, fd);
        self.block(pid, Some(reply), WaitKind::Accept { fd }, nonblocking)
    }

    pub(crate) fn sys_connect(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, port: u16) -> Result<Outcome, Errno> {
        let file = self.file(pid, fd)?;
        match file.kind() {
            FileKind::Socket { .. } => {}
            FileKind::SocketStream { .. } => return Err(Errno::EINVAL),
            _ => return Err(Errno::ENOTSOCK),
        }
        if !self.sockets.port_in_use(port) {
            // Not listening here; maybe on another shard.  The owner creates
            // both streams (so the server side is always shard-local to the
            // listener) and this shard's descriptor gains the client's ends
            // when the ConnectReply arrives.
            return match self.router.port_owner(port) {
                Some(owner) if owner != self.shard_id => Ok(self.remote_connect(pid, reply, fd, owner, port)),
                _ => Err(Errno::ECONNREFUSED),
            };
        }
        let client = self.open_connection(port)?;
        self.connect_file(&file, client, port);
        // Wake exactly the listener's queue: a blocked accept (or a poll on
        // the listener) can now complete.
        self.wake(WaitChannel::Listener(port));
        Ok(Outcome::Complete(SysResult::Ok))
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
                let _ = self.block(0, None, WaitKind::HttpClient(client), false);
            }
            Err(e) => {
                let _ = reply.send(Err(e));
            }
        }
    }
}
