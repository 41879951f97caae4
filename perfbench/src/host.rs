//! The host the benchmark runs on: CPU confinement, the two host probes the
//! regime guard rests on, and the process's own cost counters.
//!
//! Why confinement.  On the 2-vCPU Firecracker guest this was built on, a
//! `std` two-thread channel ping-pong takes ~1.7 µs per wake while the guest
//! scheduler keeps both threads on one CPU (a context switch) and ~25 µs once
//! it spreads them over both (a cross-vCPU IPI through the hypervisor).  The
//! placement flips within seconds, with no change in the code under test, and
//! moves every thread-handoff-bound number in this benchmark by up to 10x.
//! Pinning the whole process to one CPU removes the second regime: the probe
//! then reads 1.5–2.3 µs before, during and after load.  What is lost is
//! parallel speed-up, which a 2-CPU box cannot measure anyway (one shard).

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use crate::summary::median;

extern "C" {
    // glibc / musl; `std` already links the C library on Linux.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the affinity mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Confines the calling thread — and every thread or process it later
/// starts, which inherit the mask — to the highest-numbered CPU it is allowed
/// on (CPU 0 takes most interrupts).  Returns that CPU, or `None` if the
/// kernel refused; the benchmark then runs unconfined and the regime guard is
/// the only protection left.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed and names a
    // CPU taken from the allowed set just read.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

/// One reading of the two host probes.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// One thread-to-thread wake through a `std` channel, µs.
    pub wake_us: f64,
    /// 1000 iterations of a dependent integer chain, ns: falls when the host
    /// steals the CPU or changes its clock.
    pub cpu_ns_per_kiter: f64,
}

/// Round trips per wake batch and iterations per CPU batch: ~1–2 ms each
/// in the confined regime, so a probe costs ~15 ms.
const WAKE_ROUND_TRIPS: usize = 400;
const CPU_KITERS: usize = 400;
const PROBE_BATCHES: usize = 5;

/// Takes both probes: the median of [`PROBE_BATCHES`] short batches each.
pub fn probe() -> HostProbe {
    let (to_peer, peer_in) = channel::<u32>();
    let (to_us, us_in) = channel::<u32>();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = peer_in.recv() {
            if to_us.send(v).is_err() {
                break;
            }
        }
    });
    let mut wakes = Vec::with_capacity(PROBE_BATCHES);
    let mut cpus = Vec::with_capacity(PROBE_BATCHES);
    for _ in 0..PROBE_BATCHES {
        let t = Instant::now();
        for i in 0..WAKE_ROUND_TRIPS {
            to_peer.send(i as u32).expect("probe peer is alive");
            us_in.recv().expect("probe peer is alive");
        }
        wakes.push(t.elapsed().as_secs_f64() * 1e6 / (2 * WAKE_ROUND_TRIPS) as f64);

        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..CPU_KITERS * 1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        cpus.push(t.elapsed().as_secs_f64() * 1e9 / CPU_KITERS as f64);
    }
    drop(to_peer);
    peer.join().expect("probe peer does not panic");
    HostProbe {
        wake_us: median(&wakes),
        cpu_ns_per_kiter: median(&cpus),
    }
}

/// Whether two readings of one probe belong to the same host regime.
pub fn same_regime(a: f64, b: f64) -> bool {
    a.max(b) <= REGIME_RATIO * a.min(b)
}

/// Two wake readings further apart than this are different regimes: the two
/// observed ones differ by >10x, readings within the confined one by up to
/// 1.7x (1.5–2.6 µs over a few hundred probes).
pub const REGIME_RATIO: f64 = 3.0;

/// How a soak ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Soak {
    /// Three consecutive probes agreed and matched the best wake on record.
    Settled,
    /// Three consecutive probes agreed with each other, but every such run
    /// within the time limit was slower than the best on record: a slow host
    /// episode that did not pass.  The run goes ahead and says so.
    Slow,
    /// The probes never agreed with each other.
    Unsettled,
}

/// A settled wake above this multiple of the best on record is a slow host
/// episode: on the build box such episodes read 1.9–2.2 µs against 1.5–1.7 µs,
/// last 10–20 s, follow memory churn such as a compile, and slow every
/// syscall-bound number by 15–30 %.
const SLOW_RATIO: f64 = 1.3;

/// Probes until three consecutive `wake_us` readings agree within 20 % and
/// the last is not a slow episode by `best_known` (the lowest settled wake
/// earlier invocations recorded, if any), or `limit` has passed.
pub fn soak(limit: Duration, best_known: Option<f64>) -> (HostProbe, Soak) {
    let begin = Instant::now();
    let mut recent: Vec<f64> = Vec::new();
    let mut outcome = Soak::Unsettled;
    loop {
        let last = probe();
        recent.push(last.wake_us);
        if let [.., a, b, c] = recent[..] {
            let (lo, hi) = (a.min(b).min(c), a.max(b).max(c));
            if hi <= 1.2 * lo {
                if best_known.is_none_or(|best| c <= SLOW_RATIO * best) {
                    return (last, Soak::Settled);
                }
                outcome = Soak::Slow;
            }
        }
        if begin.elapsed() >= limit {
            return (last, outcome);
        }
    }
}

/// User + system CPU time of this process so far, seconds, from
/// `/proc/self/stat` (fields 14 and 15, in 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `after` starts at field 3, so fields 14 and 15 are at 11 and 12.
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set of this process so far, KiB (`VmHWM`).
pub fn peak_rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_comparison_is_symmetric() {
        assert!(same_regime(1.6, 2.6));
        assert!(same_regime(2.6, 1.6));
        assert!(!same_regime(2.0, 25.0));
        assert!(!same_regime(25.0, 2.0));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn three scheduler ticks so the 10 ms counters cannot read zero.
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_kib() > 100.0);
    }
}
