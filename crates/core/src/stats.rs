//! Kernel statistics.
//!
//! The evaluation needs to know what the kernel actually did: how many system
//! calls were issued over each convention and in each Figure 3 class, how
//! large the submission batches were, how many bytes were copied between
//! heaps, how many processes ran.  [`KernelStats`] is the snapshot handed to
//! the host through the statistics host request.  The per-call counters are
//! kept apart, in a `SyscallTally` of fixed arrays the dispatch path can
//! bump without allocating; their names and classes are resolved through
//! [`abi::SYSCALLS`] only when a snapshot is taken.

use std::collections::BTreeMap;

use crate::abi;
use crate::syscall::Syscall;

/// A snapshot of kernel activity since boot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// System calls by name.
    pub syscalls_by_name: BTreeMap<String, u64>,
    /// System calls by Figure 3 class ("File IO", "Process Management", ...).
    pub syscalls_by_class: BTreeMap<String, u64>,
    /// Total system calls.
    pub total_syscalls: u64,
    /// Calls that arrived in a message frame (the asynchronous convention).
    pub async_syscalls: u64,
    /// Calls that arrived through a syscall ring (the synchronous,
    /// shared-memory convention).
    pub sync_syscalls: u64,
    /// Submission batches received as messages (each carries one or more
    /// calls).
    pub batches: u64,
    /// Histogram of submission-batch sizes: entries-per-batch → batch count.
    pub batch_size_histogram: BTreeMap<u32, u64>,
    /// Bytes the kernel's side of the data plane copied: every submission
    /// frame that arrived as a message and every message posted to a worker
    /// (both structured clones), plus the bytes copied into or out of a pipe
    /// or socket buffer inside the kernel
    /// ([`Stream::copied`](crate::Stream::copied): a copying push, a
    /// `sendfile` page, a pop that could not hand its buffer over).  What
    /// *moves* is not counted — a payload travelling in a transfer list
    /// beside its frame, a buffer a pipe takes or gives whole — and neither
    /// are the ring's reads and writes of shared memory or a file system's
    /// own copies.
    pub bytes_copied: u64,
    /// Processes created (spawn + fork + host spawns).
    pub processes_spawned: u64,
    /// Processes that have exited.
    pub processes_exited: u64,
    /// Signals sent (accepted by the kernel for a live target, whether
    /// dispatched immediately or parked in a pending set).
    pub signals_sent: u64,
    /// Signals delivered (handler ran or a default disposition acted);
    /// ignored and coalesced-pending signals are not counted.
    pub signals_delivered: u64,
    /// Blocked system calls completed early with `EINTR` because a signal
    /// handler interrupted their process.
    pub eintr_wakeups: u64,
    /// Messages posted from the kernel to workers (responses, signals, init).
    pub messages_to_workers: u64,
    /// Dentry-cache hits in the mount table (paths resolved without a scan).
    pub dentry_cache_hits: u64,
    /// Dentry-cache misses in the mount table.
    pub dentry_cache_misses: u64,
    /// Pages served from `httpfs` page caches without touching the network.
    pub page_cache_hits: u64,
    /// Pages fetched from remote servers (page-cache misses).
    pub page_cache_misses: u64,
    /// Files materialised in overlay writable layers by copy-up.
    pub overlay_copy_ups: u64,
    /// Blocked system calls parked on a wait queue.  Counted where the call
    /// first parks — for a read or write, in `read_stream`/`write_stream` on
    /// the shard that owns the stream, so a call another shard shipped here
    /// counts on the owner, like a local one.
    pub waiters_parked: u64,
    /// Parked waiters woken by a targeted wait-queue wakeup that then
    /// completed.
    pub wakeups: u64,
    /// Parked waiters woken whose retry still could not make progress (they
    /// re-parked).  A healthy wait-queue design keeps this near zero.
    pub spurious_wakeups: u64,
    /// Non-blocking operations (`O_NONBLOCK` reads/writes/accepts) that
    /// returned `EAGAIN` instead of parking.
    pub eagain_returns: u64,
    /// `poll` calls completed by their timeout rather than a readiness
    /// wakeup.
    pub poll_timeouts: u64,
    /// Copy-on-write faults serviced (a `VmWrite` hit a page shared with a
    /// forked sibling or a page cache).
    pub cow_faults: u64,
    /// Pages shared by reference instead of copied (fork, file-backed
    /// `mmap`).
    pub pages_shared: u64,
    /// Pages physically copied by COW faults.
    pub pages_copied: u64,
    /// Named shared-memory objects created by `shm_open`.
    pub shm_objects: u64,
    /// Submission-queue entries the kernel consumed from syscall rings.
    pub sq_polled: u64,
    /// Doorbell events received (empty→non-empty SQ transitions; every other
    /// submission was picked up by an already-awake kernel).
    pub doorbells: u64,
    /// Completion-queue entries the kernel posted to syscall rings.
    pub cq_posted: u64,
    /// Bytes moved by `sendfile`/`splice` without entering guest memory.
    pub sendfile_bytes: u64,
    /// Page-cache pages streamed to a socket or pipe by reference (`sendfile`
    /// from a mapped page) rather than copied through the guest.
    pub zero_copy_pages: u64,
    /// Cross-shard [`ShardMsg`](crate::kernel::shard::ShardMsg)s this shard
    /// sent to peers (remote reads/writes, spawns, signals, endpoint
    /// snapshots...).  Zero with one shard.
    pub shard_msgs_sent: u64,
    /// Operations this shard executed on behalf of a peer: one per
    /// `RemoteRead`, `RemoteWrite` and `Connect` message it handled
    /// (`handle_shard_msg`).
    pub steals: u64,
    /// Wakeups that crossed a shard boundary: a parked waiter completing to a
    /// `ReplyTo::Shard` address (`finish_waiter` — the cross-shard subset of
    /// `wakeups`), and a `PollAnswer` that changed a cached stream state and
    /// so woke local pollers.
    pub cross_shard_wakeups: u64,
}

/// One counter per opcode, with slot 0 (never a valid opcode) unused.
const OPCODE_SLOTS: usize = abi::MANIFEST.max_opcode as usize + 1;

/// The per-call counters of one kernel shard: what the dispatch path bumps
/// for every system call, folded into a [`KernelStats`] snapshot on demand.
#[derive(Debug, Clone)]
pub(crate) struct SyscallTally {
    /// Calls per opcode, split by whether the call reported its primary or
    /// its alternate name (`stat` and `lstat` share an opcode).
    by_opcode: [[u64; 2]; OPCODE_SLOTS],
    /// Calls that arrived in a message frame, and through a ring.
    by_transport: [u64; 2],
}

impl Default for SyscallTally {
    fn default() -> SyscallTally {
        SyscallTally {
            by_opcode: [[0; 2]; OPCODE_SLOTS],
            by_transport: [0; 2],
        }
    }
}

impl SyscallTally {
    /// Records one dispatched system call and the transport it arrived by.
    pub(crate) fn record_syscall(&mut self, call: &Syscall, via_ring: bool) {
        let opcode = call.opcode() as usize;
        let alternate = call.name() != abi::SYSCALLS[opcode - 1].name;
        self.by_opcode[opcode][alternate as usize] += 1;
        self.by_transport[via_ring as usize] += 1;
    }

    /// Adds the tally to a snapshot, resolving opcodes to names and classes.
    pub(crate) fn fold_into(&self, stats: &mut KernelStats) {
        for desc in abi::SYSCALLS {
            let [primary, alternate] = self.by_opcode[desc.opcode as usize];
            for (name, count) in [(desc.name, primary), (desc.alt_name.unwrap_or(desc.name), alternate)] {
                if count > 0 {
                    *stats.syscalls_by_name.entry(name.to_owned()).or_insert(0) += count;
                    *stats.syscalls_by_class.entry(desc.class.to_owned()).or_insert(0) += count;
                }
            }
        }
        let [via_frame, via_ring] = self.by_transport;
        stats.total_syscalls += via_frame + via_ring;
        stats.async_syscalls += via_frame;
        stats.sync_syscalls += via_ring;
    }
}

impl KernelStats {
    /// Records a submission batch arriving at the kernel as a message.
    /// `wire_bytes` is the size of the encoded frame, charged as
    /// structured-clone copy cost.
    pub fn record_batch(&mut self, entries: usize, wire_bytes: usize) {
        self.batches += 1;
        *self.batch_size_histogram.entry(entries as u32).or_insert(0) += 1;
        self.bytes_copied += wire_bytes as u64;
    }

    /// Records a message posted from the kernel to a worker, with the number
    /// of payload bytes it copied.
    pub fn record_message_to_worker(&mut self, copied_bytes: usize) {
        self.messages_to_workers += 1;
        self.bytes_copied += copied_bytes as u64;
    }

    /// Copies a VFS counter snapshot ([`browsix_fs::IoStats`]) into the
    /// kernel statistics; called when a snapshot is handed to the host.
    pub fn absorb_fs(&mut self, io: browsix_fs::IoStats) {
        self.dentry_cache_hits = io.dentry_hits;
        self.dentry_cache_misses = io.dentry_misses;
        self.page_cache_hits = io.page_cache_hits;
        self.page_cache_misses = io.page_cache_misses;
        self.overlay_copy_ups = io.copy_ups;
    }

    /// Accumulates page-sharing/copying activity reported by an
    /// [`AddressSpace`](crate::vm::AddressSpace) operation.
    pub fn record_vm(&mut self, delta: crate::vm::VmDelta) {
        self.cow_faults += delta.cow_faults;
        self.pages_shared += delta.pages_shared;
        self.pages_copied += delta.pages_copied;
    }

    /// Folds another shard's snapshot into this one: every counter and
    /// histogram is summed, so merging all per-shard snapshots yields the
    /// fleet-wide totals the paper figures report.  The VFS cache fields are
    /// summed too — per-shard snapshots carry them as zero (the shared
    /// mount table's counters are absorbed exactly once, after the merge).
    pub fn merge(&mut self, other: &KernelStats) {
        // Destructured without `..`: a field added to the struct and not
        // merged here does not compile.
        let KernelStats {
            syscalls_by_name,
            syscalls_by_class,
            total_syscalls,
            async_syscalls,
            sync_syscalls,
            batches,
            batch_size_histogram,
            bytes_copied,
            processes_spawned,
            processes_exited,
            signals_sent,
            signals_delivered,
            eintr_wakeups,
            messages_to_workers,
            dentry_cache_hits,
            dentry_cache_misses,
            page_cache_hits,
            page_cache_misses,
            overlay_copy_ups,
            waiters_parked,
            wakeups,
            spurious_wakeups,
            eagain_returns,
            poll_timeouts,
            cow_faults,
            pages_shared,
            pages_copied,
            shm_objects,
            sq_polled,
            doorbells,
            cq_posted,
            sendfile_bytes,
            zero_copy_pages,
            shard_msgs_sent,
            steals,
            cross_shard_wakeups,
        } = other;
        for (name, count) in syscalls_by_name {
            *self.syscalls_by_name.entry(name.clone()).or_insert(0) += count;
        }
        for (class, count) in syscalls_by_class {
            *self.syscalls_by_class.entry(class.clone()).or_insert(0) += count;
        }
        for (size, count) in batch_size_histogram {
            *self.batch_size_histogram.entry(*size).or_insert(0) += count;
        }
        self.total_syscalls += total_syscalls;
        self.async_syscalls += async_syscalls;
        self.sync_syscalls += sync_syscalls;
        self.batches += batches;
        self.bytes_copied += bytes_copied;
        self.processes_spawned += processes_spawned;
        self.processes_exited += processes_exited;
        self.signals_sent += signals_sent;
        self.signals_delivered += signals_delivered;
        self.eintr_wakeups += eintr_wakeups;
        self.messages_to_workers += messages_to_workers;
        self.dentry_cache_hits += dentry_cache_hits;
        self.dentry_cache_misses += dentry_cache_misses;
        self.page_cache_hits += page_cache_hits;
        self.page_cache_misses += page_cache_misses;
        self.overlay_copy_ups += overlay_copy_ups;
        self.waiters_parked += waiters_parked;
        self.wakeups += wakeups;
        self.spurious_wakeups += spurious_wakeups;
        self.eagain_returns += eagain_returns;
        self.poll_timeouts += poll_timeouts;
        self.cow_faults += cow_faults;
        self.pages_shared += pages_shared;
        self.pages_copied += pages_copied;
        self.shm_objects += shm_objects;
        self.sq_polled += sq_polled;
        self.doorbells += doorbells;
        self.cq_posted += cq_posted;
        self.sendfile_bytes += sendfile_bytes;
        self.zero_copy_pages += zero_copy_pages;
        self.shard_msgs_sent += shard_msgs_sent;
        self.steals += steals;
        self.cross_shard_wakeups += cross_shard_wakeups;
    }

    /// The count for a particular system call.
    pub fn count(&self, name: &str) -> u64 {
        self.syscalls_by_name.get(name).copied().unwrap_or(0)
    }

    /// The count for a Figure 3 class.
    pub fn class_count(&self, class: &str) -> u64 {
        self.syscalls_by_class.get(class).copied().unwrap_or(0)
    }

    /// The distinct system calls observed, sorted by name (used to regenerate
    /// Figure 3).
    pub fn observed_syscalls(&self) -> Vec<String> {
        self.syscalls_by_name.keys().cloned().collect()
    }

    /// Mean entries per submission batch (0.0 before any batch arrives).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.total_syscalls as f64 / self.batches as f64
        }
    }

    /// The largest submission batch seen so far.
    pub fn max_batch_size(&self) -> u32 {
        self.batch_size_histogram.keys().max().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open() -> Syscall {
        Syscall::Open {
            path: "/etc/passwd".into(),
            flags: browsix_fs::OpenFlags::read_only(),
            mode: 0,
        }
    }

    fn read() -> Syscall {
        Syscall::Read { fd: 3, len: 16 }
    }

    /// A snapshot of `stats` with `tally` folded in, as `ReadStats` takes it.
    fn snapshot(stats: &KernelStats, tally: &SyscallTally) -> KernelStats {
        let mut snapshot = stats.clone();
        tally.fold_into(&mut snapshot);
        snapshot
    }

    #[test]
    fn records_split_by_convention_and_class() {
        let mut stats = KernelStats::default();
        let mut tally = SyscallTally::default();
        stats.record_batch(2, 120);
        tally.record_syscall(&open(), false);
        tally.record_syscall(&read(), false);
        tally.record_syscall(&read(), true);
        for lstat in [false, true, true] {
            let path = "/etc".into();
            tally.record_syscall(&Syscall::Stat { path, lstat }, true);
        }
        let stats = snapshot(&stats, &tally);
        assert_eq!(stats.total_syscalls, 6);
        assert_eq!(stats.async_syscalls, 2);
        assert_eq!(stats.sync_syscalls, 4);
        assert_eq!(
            stats.bytes_copied, 120,
            "only message frames are structured-clone copied"
        );
        assert_eq!(stats.count("read"), 2);
        assert_eq!(stats.count("open"), 1);
        assert_eq!(stats.count("write"), 0);
        assert_eq!((stats.count("stat"), stats.count("lstat")), (1, 2));
        assert_eq!(stats.class_count("File IO"), 3);
        assert_eq!(stats.class_count("File Metadata"), 3);
        assert_eq!(stats.class_count("Sockets"), 0);
        assert_eq!(stats.observed_syscalls(), ["lstat", "open", "read", "stat"]);
    }

    #[test]
    fn batch_histogram_tracks_sizes() {
        let mut stats = KernelStats::default();
        let mut tally = SyscallTally::default();
        stats.record_batch(1, 10);
        stats.record_batch(1, 10);
        stats.record_batch(8, 200);
        for _ in 0..10 {
            tally.record_syscall(&read(), false);
        }
        let stats = snapshot(&stats, &tally);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.batch_size_histogram.get(&1), Some(&2));
        assert_eq!(stats.batch_size_histogram.get(&8), Some(&1));
        assert_eq!(stats.max_batch_size(), 8);
        let mean = stats.mean_batch_size();
        assert!((mean - 10.0 / 3.0).abs() < 1e-9, "mean was {mean}");
    }

    #[test]
    fn worker_messages_accumulate_bytes() {
        let mut stats = KernelStats::default();
        stats.record_message_to_worker(64);
        stats.record_message_to_worker(16);
        assert_eq!(stats.messages_to_workers, 2);
        assert_eq!(stats.bytes_copied, 80);
    }

    #[test]
    fn absorb_fs_copies_vfs_counters() {
        let mut stats = KernelStats::default();
        stats.absorb_fs(browsix_fs::IoStats {
            dentry_hits: 10,
            dentry_misses: 2,
            page_cache_hits: 7,
            page_cache_misses: 3,
            copy_ups: 1,
        });
        assert_eq!(stats.dentry_cache_hits, 10);
        assert_eq!(stats.dentry_cache_misses, 2);
        assert_eq!(stats.page_cache_hits, 7);
        assert_eq!(stats.page_cache_misses, 3);
        assert_eq!(stats.overlay_copy_ups, 1);
    }

    #[test]
    fn merge_sums_counters_and_maps() {
        let mut a = KernelStats::default();
        let mut tally = SyscallTally::default();
        a.record_batch(2, 100);
        tally.record_syscall(&read(), false);
        tally.record_syscall(&open(), false);
        let mut a = snapshot(&a, &tally);
        a.shard_msgs_sent = 3;
        let mut b = KernelStats::default();
        let mut tally = SyscallTally::default();
        b.record_batch(1, 50);
        tally.record_syscall(&read(), true);
        let mut b = snapshot(&b, &tally);
        b.steals = 2;
        b.cross_shard_wakeups = 1;
        a.merge(&b);
        assert_eq!(a.total_syscalls, 3);
        assert_eq!(a.count("read"), 2);
        assert_eq!(a.class_count("File IO"), 3);
        assert_eq!(a.batches, 2);
        assert_eq!(a.batch_size_histogram.get(&1), Some(&1));
        assert_eq!(a.batch_size_histogram.get(&2), Some(&1));
        assert_eq!(a.sync_syscalls, 1);
        assert_eq!(a.shard_msgs_sent, 3);
        assert_eq!(a.steals, 2);
        assert_eq!(a.cross_shard_wakeups, 1);
    }

    #[test]
    fn default_snapshot_is_zeroed() {
        let stats = KernelStats::default();
        assert_eq!(stats.total_syscalls, 0);
        assert_eq!(stats.processes_spawned, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.mean_batch_size(), 0.0);
        assert_eq!(stats.max_batch_size(), 0);
        assert!(stats.observed_syscalls().is_empty());
    }
}
