//! Web Workers.
//!
//! A Web Worker runs a script in a separate execution context, has no access
//! to its parent's memory, and can only exchange structured-clone messages
//! with the context that created it.  Workers cannot see each other and (in
//! the browsers the paper targets) cannot spawn nested workers, which is why
//! the Browsix kernel — living in the main context — must broker everything.
//!
//! This module maps that model onto OS threads: [`Worker::spawn`] starts a
//! thread running a [`WorkerScript`]; the parent keeps a [`Worker`] handle and
//! the script receives a [`WorkerScope`].  All communication flows through the
//! pair of message queues, and every message is deep-copied and charged with
//! the platform's `postMessage` cost model.
//!
//! Who copies: `post_message(msg)` clones all of `msg`, every byte buffer in
//! it included, once, on the sender's side, and drops the original — the
//! structured clone.  [`Worker::post_message_transfer`] is
//! `postMessage(msg, [buf…])`: `msg` is cloned the same way, but the buffers
//! of the transfer list are *moved* — the receiver gets the very allocations
//! the sender staged, and the cost model charges each a handle's worth,
//! whatever its length.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::config::{PlatformConfig, TRANSFER_HANDLE_BYTES};
use crate::error::PlatformError;
use crate::message::Message;
use crate::time::precise_delay;

/// The entry point of a worker: the analogue of the JavaScript file passed to
/// the `Worker` constructor.
pub trait WorkerScript: Send + 'static {
    /// Runs the worker body.  Returning ends the worker's thread, although —
    /// exactly as in the browser — the parent cannot observe that directly and
    /// Browsix runtimes must issue an explicit `exit` system call.
    fn run(self: Box<Self>, scope: WorkerScope);
}

impl<F> WorkerScript for F
where
    F: FnOnce(WorkerScope) + Send + 'static,
{
    fn run(self: Box<Self>, scope: WorkerScope) {
        (*self)(scope)
    }
}

/// The worker-side view: receive messages from the parent, post messages back.
pub struct WorkerScope {
    config: PlatformConfig,
    name: String,
    to_parent: Sender<Message>,
    from_parent: Receiver<Message>,
    terminated: Arc<AtomicBool>,
}

impl std::fmt::Debug for WorkerScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerScope")
            .field("name", &self.name)
            .field("terminated", &self.terminated())
            .finish()
    }
}

impl WorkerScope {
    /// The worker's name (the `name` option of the `Worker` constructor).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform configuration the worker was spawned under.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Whether the parent has called [`Worker::terminate`].
    ///
    /// Real workers are killed preemptively; in the simulation, scripts are
    /// expected to poll this flag at message and system-call boundaries.
    pub fn terminated(&self) -> bool {
        self.terminated.load(Ordering::SeqCst)
    }

    /// Posts a structured-clone message to the parent context.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the parent side is gone
    /// or the worker has been terminated.
    pub fn post_message(&self, msg: Message) -> Result<(), PlatformError> {
        if self.terminated() {
            return Err(PlatformError::WorkerTerminated);
        }
        let cloned = msg.structured_clone();
        precise_delay(self.config.post_cost(cloned.byte_size()));
        self.to_parent.send(cloned).map_err(|_| PlatformError::WorkerTerminated)
    }

    /// Blocks until the next message from the parent arrives.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the parent side is gone
    /// or the worker has been terminated.
    pub fn recv(&self) -> Result<Message, PlatformError> {
        loop {
            if self.terminated() {
                return Err(PlatformError::WorkerTerminated);
            }
            match self.from_parent.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(PlatformError::WorkerTerminated),
            }
        }
    }

    /// Receives a message if one is already queued.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the parent side is gone.
    pub fn try_recv(&self) -> Result<Option<Message>, PlatformError> {
        if self.terminated() {
            return Err(PlatformError::WorkerTerminated);
        }
        match self.from_parent.try_recv() {
            Ok(msg) => Ok(Some(msg)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(PlatformError::WorkerTerminated),
        }
    }
}

/// The parent-side handle to a spawned worker.
#[derive(Debug)]
pub struct Worker {
    config: PlatformConfig,
    name: String,
    to_worker: Sender<Message>,
    from_worker: Receiver<Message>,
    terminated: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns a new worker running `script`, mirroring `new Worker(url)`.
    pub fn spawn(config: &PlatformConfig, name: &str, script: Box<dyn WorkerScript>) -> Worker {
        let (to_worker, from_parent) = unbounded();
        let (to_parent, from_worker) = unbounded();
        let terminated = Arc::new(AtomicBool::new(false));
        let scope = WorkerScope {
            config: config.clone(),
            name: name.to_owned(),
            to_parent,
            from_parent,
            terminated: Arc::clone(&terminated),
        };
        let thread_name = format!("worker-{name}");
        let join = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || script.run(scope))
            .expect("failed to spawn worker thread");
        Worker {
            config: config.clone(),
            name: name.to_owned(),
            to_worker,
            from_worker,
            terminated,
            join: Some(join),
        }
    }

    /// The worker's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Posts a structured-clone message to the worker, charging the
    /// `postMessage` cost model.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the worker has exited or
    /// been terminated.
    pub fn post_message(&self, msg: Message) -> Result<(), PlatformError> {
        self.post_message_transfer(msg, Vec::new())
    }

    /// `postMessage(msg, transfer)`: `msg` is structured-cloned, the buffers
    /// of `transfer` are moved to the worker beside it and charged
    /// [`TRANSFER_HANDLE_BYTES`] each.  The worker takes them out of the
    /// received message with [`Message::take_transfer`].
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the worker has exited or
    /// been terminated.
    pub fn post_message_transfer(&self, msg: Message, transfer: Vec<Vec<u8>>) -> Result<(), PlatformError> {
        if self.is_terminated() {
            return Err(PlatformError::WorkerTerminated);
        }
        let cloned = msg.structured_clone();
        let payload_bytes = cloned.byte_size() + transfer.len() * TRANSFER_HANDLE_BYTES;
        precise_delay(self.config.post_cost(payload_bytes));
        self.to_worker
            .send(cloned.with_transfer(transfer))
            .map_err(|_| PlatformError::WorkerTerminated)
    }

    /// Blocks until the worker posts a message to the parent.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the worker has exited
    /// without posting further messages.
    pub fn recv(&self) -> Result<Message, PlatformError> {
        self.from_worker.recv().map_err(|_| PlatformError::WorkerTerminated)
    }

    /// Receives a message from the worker if one is queued.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the worker has exited
    /// and the queue is drained.
    pub fn try_recv(&self) -> Result<Option<Message>, PlatformError> {
        match self.from_worker.try_recv() {
            Ok(msg) => Ok(Some(msg)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(PlatformError::WorkerTerminated),
        }
    }

    /// Blocks for at most `timeout` waiting for a message from the worker.
    ///
    /// Returns `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the worker has exited
    /// and the queue is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, PlatformError> {
        match self.from_worker.recv_timeout(timeout) {
            Ok(msg) => Ok(Some(msg)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(PlatformError::WorkerTerminated),
        }
    }

    /// Whether [`Worker::terminate`] has been called.
    pub fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::SeqCst)
    }

    /// Terminates the worker, mirroring `worker.terminate()`.
    ///
    /// The worker's script observes the termination flag at its next message
    /// or system-call boundary and unwinds.  Termination is idempotent.
    pub fn terminate(&self) {
        self.terminated.store(true, Ordering::SeqCst);
    }

    /// Terminates the worker and waits for its thread to finish.  Used by
    /// tests and kernel shutdown; a real browser offers no equivalent join.
    pub fn terminate_and_join(&mut self) {
        self.terminate();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Signal termination; do not join (a blocked worker would otherwise
        // hang the parent on drop, and real browsers never block on workers).
        self.terminate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl WorkerScript for Doubler {
        fn run(self: Box<Self>, scope: WorkerScope) {
            while let Ok(msg) = scope.recv() {
                let n = msg.as_int().unwrap_or(0);
                if scope.post_message(Message::Int(n * 2)).is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn round_trip_through_worker() {
        let cfg = PlatformConfig::fast();
        let mut worker = Worker::spawn(&cfg, "doubler", Box::new(Doubler));
        worker.post_message(Message::Int(21)).unwrap();
        assert_eq!(worker.recv().unwrap().as_int(), Some(42));
        worker.terminate_and_join();
    }

    #[test]
    fn closure_scripts_are_supported() {
        let cfg = PlatformConfig::fast();
        let mut worker = Worker::spawn(
            &cfg,
            "closure",
            Box::new(|scope: WorkerScope| {
                scope.post_message(Message::from("ready")).unwrap();
            }),
        );
        assert_eq!(worker.recv().unwrap().as_str(), Some("ready"));
        worker.terminate_and_join();
    }

    #[test]
    fn terminate_prevents_further_posts() {
        let cfg = PlatformConfig::fast();
        let worker = Worker::spawn(
            &cfg,
            "idle",
            Box::new(|scope: WorkerScope| {
                // Wait until terminated.
                while !scope.terminated() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }),
        );
        worker.terminate();
        assert!(worker.is_terminated());
        assert!(matches!(
            worker.post_message(Message::Null),
            Err(PlatformError::WorkerTerminated)
        ));
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let cfg = PlatformConfig::fast();
        let mut worker = Worker::spawn(
            &cfg,
            "quiet",
            Box::new(|scope: WorkerScope| {
                while !scope.terminated() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }),
        );
        assert!(worker.try_recv().unwrap().is_none());
        assert!(worker.recv_timeout(Duration::from_millis(10)).unwrap().is_none());
        worker.terminate_and_join();
    }

    #[test]
    fn worker_messages_are_deep_copied() {
        let cfg = PlatformConfig::fast();
        let payload = Message::map().with("buf", vec![1u8, 2, 3]);
        let mut worker = Worker::spawn(
            &cfg,
            "copy",
            Box::new(|scope: WorkerScope| {
                let msg = scope.recv().unwrap();
                scope.post_message(msg).unwrap();
            }),
        );
        worker.post_message(payload.clone()).unwrap();
        let echoed = worker.recv().unwrap();
        assert_eq!(echoed, payload);
        worker.terminate_and_join();
    }

    #[test]
    fn transferred_buffers_are_moved_not_cloned() {
        let cfg = PlatformConfig::fast();
        let (tx, rx) = unbounded();
        let mut worker = Worker::spawn(
            &cfg,
            "receiver",
            Box::new(move |scope: WorkerScope| {
                let mut msg = scope.recv().unwrap();
                let transfer = msg.take_transfer();
                let at = transfer[0].as_ptr() as usize;
                tx.send((at, transfer, msg)).unwrap();
            }),
        );
        let buffer = vec![2u8; 64 << 10];
        let staged = buffer.as_ptr() as usize;
        let msg = Message::map().with("frame", vec![1u8; 64]);
        worker.post_message_transfer(msg.clone(), vec![buffer]).unwrap();
        let (at, transfer, received) = rx.recv().unwrap();
        assert_eq!(at, staged, "the worker holds the allocation the parent staged");
        assert_eq!(transfer, [vec![2u8; 64 << 10]]);
        assert_eq!(received, msg, "the message itself arrives as ever");
        worker.terminate_and_join();
    }

    #[test]
    fn scope_reports_name_and_config() {
        let cfg = PlatformConfig::fast();
        let mut worker = Worker::spawn(
            &cfg,
            "named",
            Box::new(|scope: WorkerScope| {
                assert_eq!(scope.name(), "named");
                assert!(!scope.config().inject_delays);
                scope.post_message(Message::from("ok")).unwrap();
            }),
        );
        assert_eq!(worker.name(), "named");
        assert_eq!(worker.recv().unwrap().as_str(), Some("ok"));
        worker.terminate_and_join();
    }
}
