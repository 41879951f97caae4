//! Web Workers.
//!
//! A Web Worker runs a script in a separate execution context, has no access
//! to its parent's memory, and can only exchange structured-clone messages
//! with the context that created it.  Workers cannot see each other and (in
//! the browsers the paper targets) cannot spawn nested workers, which is why
//! the Browsix kernel — living in the main context — must broker everything.
//!
//! This module maps that model onto OS threads: a [`WorkerScript`] runs on a
//! thread of its own; the parent keeps a [`Worker`] handle and the script
//! receives a [`WorkerScope`].  All communication flows through the pair of
//! message queues, and every message is deep-copied and charged with the
//! platform's `postMessage` cost model.
//!
//! Where the thread comes from: [`WorkerPool::spawn`] hands the script to an
//! idle thread of the pool, the one parked last, and creates a thread only
//! when none is idle; when the script returns, its thread parks again unless
//! [`IDLE_WORKERS_KEPT`] already wait or the pool is gone.  [`Worker::spawn`]
//! starts on a pool of its own that it drops at once, so its thread exits
//! when the script returns.  Creating a thread is real work on the
//! spawning thread (tens of microseconds) that no browser cost model asks
//! for, so the kernel starts its processes through a pool.  A parked thread
//! holds nothing of its last script: the script, its scope and every value
//! either captured are dropped before it parks.
//!
//! Who copies: `post_message(msg)` clones all of `msg`, every byte buffer in
//! it included, once, on the sender's side, and drops the original — the
//! structured clone.  [`Worker::post_message_transfer`] is
//! `postMessage(msg, [buf…])`: `msg` is cloned the same way, but the buffers
//! of the transfer list are *moved* — the receiver gets the very allocations
//! the sender staged, and the cost model charges each a handle's worth,
//! whatever its length.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::config::{PlatformConfig, TRANSFER_HANDLE_BYTES};
use crate::error::PlatformError;
use crate::message::Message;
use crate::time::precise_delay;

/// The entry point of a worker: the analogue of the JavaScript file passed to
/// the `Worker` constructor.
pub trait WorkerScript: Send + 'static {
    /// Runs the worker body.  Returning ends the worker, although — exactly
    /// as in the browser — the parent cannot observe that directly and
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
    /// expected to check this flag at message and system-call boundaries,
    /// and a worker asleep in `Atomics.wait` reads it with the word it
    /// waits on ([`crate::SharedArrayBuffer::wait_unless`]).
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
    /// [`Worker::terminate`] sends one message of its own after raising the
    /// flag, so the flag is read after each message too, and a termination
    /// ends this wait whenever it lands.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::WorkerTerminated`] if the parent side is gone
    /// or the worker has been terminated.
    pub fn recv(&self) -> Result<Message, PlatformError> {
        if self.terminated() {
            return Err(PlatformError::WorkerTerminated);
        }
        match self.from_parent.recv() {
            Ok(msg) if !self.terminated() => Ok(msg),
            _ => Err(PlatformError::WorkerTerminated),
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
    /// Never sent on: its sender is dropped once the script has returned (or
    /// unwound) and its captures are gone, which ends a `recv` here.
    done: Receiver<()>,
}

impl Worker {
    /// Spawns a new worker running `script` on a thread of its own, which
    /// exits when the script returns; mirrors `new Worker(url)`.
    pub fn spawn(config: &PlatformConfig, name: &str, script: Box<dyn WorkerScript>) -> Worker {
        WorkerPool::new().spawn(config, name, script)
    }

    /// Starts `script` on an idle thread of `pool` if there is one, and on a
    /// new thread otherwise (which joins `pool` when the script returns).
    fn start(pool: &WorkerPool, config: &PlatformConfig, name: &str, script: Box<dyn WorkerScript>) -> Worker {
        let (to_worker, from_parent) = unbounded();
        let (to_parent, from_worker) = unbounded();
        let (done, finished) = bounded(1);
        let terminated = Arc::new(AtomicBool::new(false));
        let job = Job {
            script,
            scope: WorkerScope {
                config: config.clone(),
                name: name.to_owned(),
                to_parent,
                from_parent,
                terminated: Arc::clone(&terminated),
            },
            done,
        };
        // Popped in its own statement: the lock is released before a thread
        // is created.
        let idle = pool.idle.lock().pop();
        match idle {
            Some(idle) => {
                assert!(idle.send(job).is_ok(), "an idle pooled thread waits on its channel");
            }
            None => {
                let pool = Arc::downgrade(&pool.idle);
                std::thread::Builder::new()
                    .name(WORKER_THREAD_NAME.to_owned())
                    .spawn(move || serve(job, &pool))
                    .expect("failed to spawn worker thread");
            }
        }
        Worker {
            config: config.clone(),
            name: name.to_owned(),
            to_worker,
            from_worker,
            terminated,
            done: finished,
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

    /// Whether [`Worker::terminate`] has been called.
    pub fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::SeqCst)
    }

    /// Terminates the worker, mirroring `worker.terminate()`.
    ///
    /// The worker's script observes the termination flag at its next message
    /// or system-call boundary and unwinds; one message after the flag wakes
    /// a [`WorkerScope::recv`] that is already blocked.  Termination is
    /// idempotent.
    pub fn terminate(&self) {
        if !self.terminated.swap(true, Ordering::SeqCst) {
            let _ = self.to_worker.send(Message::Null);
        }
    }

    /// Terminates the worker and waits for its script to return (or unwind)
    /// and drop what it captured.  Its thread may live on in a pool.  Used by
    /// tests; a real browser offers no equivalent join.
    pub fn terminate_and_join(&mut self) {
        self.terminate();
        let _ = self.done.recv();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Signal termination; do not join (a blocked worker would otherwise
        // hang the parent on drop, and real browsers never block on workers).
        self.terminate();
    }
}

/// The most idle threads a [`WorkerPool`] keeps; a thread whose script
/// returns while this many wait exits instead of parking.  Each parked thread
/// keeps glibc's per-thread malloc cache (~160 KiB resident), which it gives
/// back only when it exits, so this trades resident memory for thread
/// creations; see `CHANGES.md` for the measured curve.
pub const IDLE_WORKERS_KEPT: usize = 3;

/// The name of every worker thread, pooled or not: a thread serves one
/// process after another, so it carries no process's name
/// ([`WorkerScope::name`] does).
pub const WORKER_THREAD_NAME: &str = "browsix-worker";

/// One script to run, with its scope, and the sender whose drop tells the
/// [`Worker`] handle that the script is done.
struct Job {
    script: Box<dyn WorkerScript>,
    scope: WorkerScope,
    done: Sender<()>,
}

/// The channels of a pool's idle threads, the most recently parked last.
type IdleThreads = Mutex<Vec<Sender<Job>>>;

/// Threads to run workers on, owned by whoever starts the workers (each
/// kernel loop has one).  Idle threads park on a channel of their own, and
/// only this pool holds the sending ends, so dropping the pool ends every
/// idle thread; a busy thread, which holds the pool only weakly, exits when
/// its script returns.
#[derive(Debug, Default)]
pub struct WorkerPool {
    idle: Arc<IdleThreads>,
}

impl WorkerPool {
    /// An empty pool: its first worker starts a thread.
    pub fn new() -> WorkerPool {
        WorkerPool::default()
    }

    /// Spawns a worker running `script`, like [`Worker::spawn`], on the
    /// most recently parked idle thread, or on a new thread that joins this
    /// pool if none is idle.  A job never waits for a busy thread.
    pub fn spawn(&self, config: &PlatformConfig, name: &str, script: Box<dyn WorkerScript>) -> Worker {
        Worker::start(self, config, name, script)
    }
}

/// A worker thread's body: runs `job`, then — while `pool` lives and has
/// room — parks on a fresh channel and runs whatever arrives there.  A
/// panicking script unwinds out of here, dropping its `done` sender.
fn serve(mut job: Job, pool: &Weak<IdleThreads>) {
    loop {
        let Job { script, scope, done } = job;
        script.run(scope);
        drop(done);
        let (home, jobs) = bounded(1);
        {
            let Some(idle) = pool.upgrade() else { return };
            let mut idle = idle.lock();
            if idle.len() >= IDLE_WORKERS_KEPT {
                return;
            }
            idle.push(home);
        }
        let Ok(next) = jobs.recv() else { return };
        job = next;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

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
    fn terminate_ends_a_blocked_recv() {
        let cfg = PlatformConfig::fast();
        let (tx, rx) = unbounded();
        let mut worker = Worker::spawn(
            &cfg,
            "blocked",
            Box::new(move |scope: WorkerScope| {
                tx.send(scope.recv().err()).unwrap();
            }),
        );
        worker.terminate();
        let ended = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("recv slept through terminate");
        assert_eq!(ended, Some(PlatformError::WorkerTerminated));
        worker.terminate_and_join();
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let cfg = PlatformConfig::fast();
        let (report, reports) = unbounded();
        let (go, gate) = unbounded();
        let mut worker = Worker::spawn(
            &cfg,
            "quiet",
            Box::new(move |scope: WorkerScope| {
                report.send(scope.try_recv()).unwrap();
                gate.recv().unwrap();
                report.send(scope.try_recv()).unwrap();
                report.send(scope.try_recv()).unwrap();
                gate.recv().unwrap();
                report.send(scope.try_recv()).unwrap();
            }),
        );
        assert_eq!(reports.recv().unwrap(), Ok(None), "nothing posted yet");
        worker.post_message(Message::Int(1)).unwrap();
        go.send(()).unwrap();
        assert_eq!(reports.recv().unwrap(), Ok(Some(Message::Int(1))));
        assert_eq!(reports.recv().unwrap(), Ok(None), "the queue is empty again");
        worker.terminate();
        go.send(()).unwrap();
        assert_eq!(reports.recv().unwrap(), Err(PlatformError::WorkerTerminated));
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

    /// Waits until `pool` has `idle` parked threads and `live` threads in
    /// all (each holds the pool weakly), or fails after ten seconds.
    fn settle(pool: &WorkerPool, idle: usize, live: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.idle.lock().len() != idle || Arc::weak_count(&pool.idle) != live {
            assert!(
                Instant::now() < deadline,
                "the pool never settled at {idle} idle of {live}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The thread a script runs on, and what it sees of itself: its name,
    /// its config's `inject_delays` and whether it is terminated.
    fn whoami(scope: &WorkerScope) -> (std::thread::ThreadId, String, bool, bool) {
        let config = scope.config();
        (
            std::thread::current().id(),
            scope.name().to_owned(),
            config.inject_delays,
            scope.terminated(),
        )
    }

    #[test]
    fn a_pool_runs_the_next_worker_on_the_parked_thread() {
        let pool = WorkerPool::new();
        let (tx, rx) = unbounded();
        let report = tx.clone();
        let mut first = pool.spawn(
            &PlatformConfig::fast(),
            "first",
            Box::new(move |scope: WorkerScope| report.send(whoami(&scope)).unwrap()),
        );
        let (first_thread, name, delays, terminated) = rx.recv().unwrap();
        assert_eq!((name.as_str(), delays, terminated), ("first", false, false));
        first.terminate_and_join();
        settle(&pool, 1, 1);

        let mut second = pool.spawn(
            &PlatformConfig::chrome(),
            "second",
            Box::new(move |scope: WorkerScope| tx.send(whoami(&scope)).unwrap()),
        );
        let (second_thread, name, delays, terminated) = rx.recv().unwrap();
        assert_eq!(second_thread, first_thread, "the parked thread ran the second worker");
        assert_eq!(
            (name.as_str(), delays, terminated),
            ("second", true, false),
            "nothing of the first worker shows"
        );
        second.terminate_and_join();
    }

    #[test]
    fn a_parked_thread_holds_nothing_of_its_last_script() {
        let pool = WorkerPool::new();
        let held = Arc::new(());
        let captured = Arc::clone(&held);
        let mut worker = pool.spawn(
            &PlatformConfig::fast(),
            "holder",
            Box::new(move |scope: WorkerScope| {
                assert_eq!(Arc::strong_count(&captured), 2);
                let _ = scope.recv();
            }),
        );
        worker.terminate_and_join();
        assert_eq!(Arc::strong_count(&held), 1, "the script's captures outlived the join");
        settle(&pool, 1, 1);
        assert_eq!(Arc::strong_count(&held), 1, "the parked thread keeps a capture");
    }

    #[test]
    fn a_panicking_script_ends_its_thread_and_the_pool_carries_on() {
        let pool = WorkerPool::new();
        let mut doomed = pool.spawn(
            &PlatformConfig::fast(),
            "doomed",
            Box::new(|_scope: WorkerScope| panic!("a script fails (expected by this test)")),
        );
        doomed.terminate_and_join();
        settle(&pool, 0, 0);

        let mut next = pool.spawn(
            &PlatformConfig::fast(),
            "next",
            Box::new(|scope: WorkerScope| {
                scope.post_message(Message::from("ran")).unwrap();
            }),
        );
        assert_eq!(next.recv().unwrap().as_str(), Some("ran"));
        next.terminate_and_join();
        settle(&pool, 1, 1);
    }

    #[test]
    fn a_pool_keeps_at_most_its_limit_of_idle_threads() {
        let pool = WorkerPool::new();
        let workers = IDLE_WORKERS_KEPT + 2;
        // Every script waits for all the others, so each has a thread of its own.
        let all_started = Arc::new(Barrier::new(workers + 1));
        let mut running: Vec<Worker> = (0..workers)
            .map(|i| {
                let all_started = Arc::clone(&all_started);
                pool.spawn(
                    &PlatformConfig::fast(),
                    &format!("w{i}"),
                    Box::new(move |_scope: WorkerScope| {
                        all_started.wait();
                    }),
                )
            })
            .collect();
        all_started.wait();
        for worker in &mut running {
            worker.terminate_and_join();
        }
        settle(&pool, IDLE_WORKERS_KEPT, IDLE_WORKERS_KEPT);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_the_pool_ends_its_idle_threads() {
        let pool = WorkerPool::new();
        let mut worker = pool.spawn(
            &PlatformConfig::fast(),
            "where",
            Box::new(|scope: WorkerScope| {
                let task = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
                scope
                    .post_message(Message::from(task.to_string_lossy().as_ref()))
                    .unwrap();
            }),
        );
        let task = std::path::Path::new("/proc").join(worker.recv().unwrap().as_str().unwrap());
        worker.terminate_and_join();
        settle(&pool, 1, 1);
        assert!(task.exists(), "the parked thread is alive");
        drop(pool);
        let deadline = Instant::now() + Duration::from_secs(10);
        while task.exists() {
            assert!(Instant::now() < deadline, "{} outlived its pool", task.display());
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
