//! Precise delay injection and simple stopwatch helpers.
//!
//! The calibrated cost models in this repository (postMessage latency,
//! structured-clone cost, JavaScript-engine compute scaling) need to inject
//! delays that are often far below the ~1 ms granularity of `thread::sleep`.
//! [`precise_delay`] sleeps for the bulk of the interval and spins for the
//! remainder, which keeps injected costs accurate down to a few microseconds
//! without burning excessive CPU for long waits.

use std::time::{Duration, Instant};

/// Threshold below which we spin instead of sleeping.
const SPIN_THRESHOLD: Duration = Duration::from_micros(200);

/// Blocks the current thread for `duration` with microsecond-level accuracy.
///
/// Delays of zero return immediately; long delays use `thread::sleep` for all
/// but the final stretch, which is spun to avoid oversleeping.
pub fn precise_delay(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let start = Instant::now();
    if duration > SPIN_THRESHOLD {
        let sleep_for = duration - SPIN_THRESHOLD;
        std::thread::sleep(sleep_for);
    }
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

/// A small stopwatch used by benchmark harnesses and the kernel's statistics.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Time elapsed since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional milliseconds, handy for report tables.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_returns_immediately() {
        let sw = Stopwatch::start();
        precise_delay(Duration::ZERO);
        assert!(sw.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn short_delay_is_reasonably_accurate() {
        let target = Duration::from_micros(100);
        let sw = Stopwatch::start();
        precise_delay(target);
        let elapsed = sw.elapsed();
        assert!(elapsed >= target);
        assert!(elapsed < target + Duration::from_millis(5));
    }

    #[test]
    fn longer_delay_uses_sleep_path() {
        let target = Duration::from_millis(2);
        let sw = Stopwatch::start();
        precise_delay(target);
        assert!(sw.elapsed() >= target);
    }

    #[test]
    fn elapsed_ms_is_positive() {
        let sw = Stopwatch::start();
        precise_delay(Duration::from_micros(50));
        assert!(sw.elapsed_ms() > 0.0);
    }
}
