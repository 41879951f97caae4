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

/// Declares [`KernelStats`] with its scalar counters listed once each: every
/// `u64` field sits under the report group it is printed in, with its doc
/// comment, and from this one list come the field, its term in
/// [`KernelStats::merge`] and its entry in [`KernelStats::counters`].
macro_rules! kernel_stats {
    ($($group:literal { $($(#[doc = $doc:literal])+ $field:ident,)+ })+) => {
        /// A snapshot of kernel activity since boot.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct KernelStats {
            /// System calls by name.
            pub syscalls_by_name: BTreeMap<String, u64>,
            /// System calls by Figure 3 class ("File IO", "Process Management", ...).
            pub syscalls_by_class: BTreeMap<String, u64>,
            /// Histogram of submission-batch sizes: entries-per-batch → batch count.
            pub batch_size_histogram: BTreeMap<u32, u64>,
            $($($(#[doc = $doc])+ pub $field: u64,)+)+
        }

        impl KernelStats {
            /// Adds every scalar counter of `other` to this snapshot's.
            fn add_counters(&mut self, other: &KernelStats) {
                $($(self.$field += other.$field;)+)+
            }

            /// Every scalar counter as `(group, field name, value)`, in
            /// declaration order: a group's counters come one after another.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$($(($group, stringify!($field), self.$field),)+)+].into_iter()
            }
        }
    };
}

kernel_stats! {
    "system calls" {
        /// Total system calls.
        total_syscalls,
        /// Calls that arrived in a message frame (the asynchronous convention).
        async_syscalls,
        /// Calls that arrived through a syscall ring (the synchronous,
        /// shared-memory convention).
        sync_syscalls,
        /// Submission batches received as messages (each carries one or more
        /// calls).
        batches,
    }
    "processes & messages" {
        /// Processes created (spawn + fork + host spawns).
        processes_spawned,
        /// Processes that have exited.
        processes_exited,
        /// Messages posted from the kernel to workers (responses, signals, init).
        messages_to_workers,
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
        bytes_copied,
    }
    "signals" {
        /// Signals sent (accepted by the kernel for a live target, whether
        /// dispatched immediately or parked in a pending set).
        signals_sent,
        /// Signals delivered (handler ran or a default disposition acted);
        /// ignored and coalesced-pending signals are not counted.
        signals_delivered,
        /// Blocked system calls completed early with `EINTR` because a signal
        /// handler interrupted their process.
        eintr_wakeups,
    }
    "VFS caches" {
        /// Dentry-cache hits in the mount table (paths resolved without a scan).
        dentry_cache_hits,
        /// Dentry-cache misses in the mount table.
        dentry_cache_misses,
        /// Pages served from `httpfs` page caches without touching the network.
        page_cache_hits,
        /// Pages fetched from remote servers (page-cache misses).
        page_cache_misses,
        /// Files materialised in overlay writable layers by copy-up.
        overlay_copy_ups,
    }
    "wait queues & readiness" {
        /// Blocked system calls parked on a wait queue.  Counted where the call
        /// first parks (`KernelState::block`) — for a read or write, on the
        /// shard that owns the stream, so a call another shard shipped here
        /// counts on the owner, like a local one.
        waiters_parked,
        /// Parked waiters woken by a targeted wait-queue wakeup that then
        /// completed.
        wakeups,
        /// Parked waiters woken whose retry still could not make progress (they
        /// re-parked).  A healthy wait-queue design keeps this near zero.
        spurious_wakeups,
        /// Non-blocking operations (`O_NONBLOCK` reads/writes/accepts) that
        /// returned `EAGAIN` instead of parking.
        eagain_returns,
        /// `poll` calls completed by their timeout rather than a readiness
        /// wakeup.
        poll_timeouts,
    }
    "virtual memory" {
        /// Copy-on-write faults serviced (a `VmWrite` hit a page shared with a
        /// forked sibling or a page cache).
        cow_faults,
        /// Pages shared by reference instead of copied (fork, file-backed
        /// `mmap`).
        pages_shared,
        /// Pages physically copied by COW faults.
        pages_copied,
        /// Named shared-memory objects created by `shm_open`.
        shm_objects,
    }
    "syscall rings & zero-copy" {
        /// Submission-queue entries the kernel consumed from syscall rings.
        sq_polled,
        /// Doorbell events received: a submission that found the kernel parked
        /// on a drained queue (every other one was picked up by an already-awake
        /// kernel), or a pop of completions that found it parked on an
        /// overflowed one.
        doorbells,
        /// Completion-queue entries the kernel posted to syscall rings.
        cq_posted,
        /// Bytes moved by `sendfile`/`splice` without entering guest memory.
        sendfile_bytes,
        /// Page-cache pages streamed to a socket or pipe by reference (`sendfile`
        /// from a mapped page) rather than copied through the guest.
        zero_copy_pages,
    }
    "sharding" {
        /// Cross-shard [`ShardMsg`](crate::kernel::shard::ShardMsg)s this shard
        /// sent to peers (remote reads/writes, spawns, signals, endpoint
        /// snapshots...).  Zero with one shard.
        shard_msgs_sent,
        /// Operations this shard executed on behalf of a peer: one per
        /// `RemoteOp` and `Connect` message it handled (`handle_shard_msg`).
        steals,
        /// Wakeups that crossed a shard boundary: a parked waiter completing to a
        /// `ReplyTo::Shard` address (`finish_waiter` — the cross-shard subset of
        /// `wakeups`), and a `PollState` push that changed a subscribed stream's
        /// state and so woke local pollers.
        cross_shard_wakeups,
    }
}

/// One counter per opcode, with slot 0 (never a valid opcode) and the
/// retired opcodes unused.
const OPCODE_SLOTS: usize = abi::MANIFEST.max_opcode as usize + 1;

/// Each opcode's primary name, indexed by opcode (an unused slot is empty).
const PRIMARY_NAMES: [&str; OPCODE_SLOTS] = {
    let mut names = [""; OPCODE_SLOTS];
    let mut i = 0;
    while i < abi::SYSCALLS.len() {
        names[abi::SYSCALLS[i].opcode as usize] = abi::SYSCALLS[i].name;
        i += 1;
    }
    names
};

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
        let alternate = call.name() != PRIMARY_NAMES[opcode];
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
        for (name, count) in &other.syscalls_by_name {
            *self.syscalls_by_name.entry(name.clone()).or_insert(0) += count;
        }
        for (class, count) in &other.syscalls_by_class {
            *self.syscalls_by_class.entry(class.clone()).or_insert(0) += count;
        }
        for (size, count) in &other.batch_size_histogram {
            *self.batch_size_histogram.entry(*size).or_insert(0) += count;
        }
        self.add_counters(other);
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

    /// Mean entries per submission batch (0.0 before any batch arrives),
    /// from the batch-size histogram: ring entries, which never travel in a
    /// batch, do not count.
    pub fn mean_batch_size(&self) -> f64 {
        let (entries, batches) = self
            .batch_size_histogram
            .iter()
            .fold((0, 0), |(entries, batches), (size, count)| {
                (entries + u64::from(*size) * count, batches + count)
            });
        if batches == 0 {
            0.0
        } else {
            entries as f64 / batches as f64
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
        // Opcode 57 follows the retired 56, so it is not its index in
        // `abi::SYSCALLS` plus one.
        tally.record_syscall(&Syscall::Getrusage { who: 0 }, true);
        let stats = snapshot(&stats, &tally);
        assert_eq!(stats.total_syscalls, 7);
        assert_eq!(stats.async_syscalls, 2);
        assert_eq!(stats.sync_syscalls, 5);
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
        assert_eq!(stats.count("getrusage"), 1);
        assert_eq!(stats.class_count("Process Metadata"), 1);
        assert_eq!(
            stats.observed_syscalls(),
            ["getrusage", "lstat", "open", "read", "stat"]
        );
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
        // A ring entry travels in no batch, so it moves neither the
        // histogram nor the mean.
        tally.record_syscall(&read(), true);
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
        // Every scalar counter is listed: each name once, each group's
        // names in one run, every value zero.
        let mut names = std::collections::BTreeSet::new();
        let mut groups: Vec<&str> = Vec::new();
        for (group, name, value) in stats.counters() {
            assert!(names.insert(name), "{name} listed twice");
            if groups.last() != Some(&group) {
                assert!(!groups.contains(&group), "group {group} split around {name}");
                groups.push(group);
            }
            assert_eq!(value, 0, "{name}");
        }
        assert!(names.contains("total_syscalls") && names.contains("cross_shard_wakeups"));
        assert!(groups.contains(&"sharding"));
    }
}
