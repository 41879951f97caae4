//! Platform configuration: which browser is being simulated and how expensive
//! its message-passing primitives are.

use std::time::Duration;

/// The browser being simulated.
///
/// The paper evaluates Browsix in Google Chrome and Mozilla Firefox; at
/// publication time only Chrome (behind flags) supported the
/// `SharedArrayBuffer`/`Atomics` features required by synchronous system
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BrowserKind {
    /// Google Chrome (supports shared memory behind flags).
    #[default]
    Chrome,
    /// Mozilla Firefox (asynchronous system calls only).
    Firefox,
    /// Microsoft Edge (asynchronous system calls only).
    Edge,
    /// A "headless" configuration with no artificial overheads, used by unit
    /// tests that only care about functional behaviour.
    Headless,
}

impl BrowserKind {
    /// Human-readable name, as used in the tables of EXPERIMENTS.md.
    pub fn name(&self) -> &'static str {
        match self {
            BrowserKind::Chrome => "Google Chrome",
            BrowserKind::Firefox => "Mozilla Firefox",
            BrowserKind::Edge => "Microsoft Edge",
            BrowserKind::Headless => "Headless",
        }
    }
}

/// What one transferred buffer adds to a message's structured-clone payload:
/// the handle that changes owner, not the bytes behind it.
pub const TRANSFER_HANDLE_BYTES: usize = 8;

/// Cost model and feature flags for the simulated browser platform.
///
/// The two numbers that matter most for reproducing the paper's evaluation are
/// the `postMessage` round-trip overhead (the paper observes that message
/// passing is roughly three orders of magnitude slower than a native system
/// call) and the structured-clone cost per byte (asynchronous system calls copy
/// every buffer between the process and kernel heaps).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Which browser is being simulated.
    pub browser: BrowserKind,
    /// Whether `SharedArrayBuffer`/`Atomics` are available (required by the
    /// synchronous system-call convention).
    pub shared_memory: bool,
    /// Fixed cost charged for every `postMessage` crossing a worker boundary.
    pub post_message_latency: Duration,
    /// Structured-clone cost, in nanoseconds per byte of payload.
    pub structured_clone_ns_per_byte: u32,
    /// Whether delays from the cost model are actually injected (spin/sleep).
    /// Unit tests disable this so the suite stays fast; benchmarks enable it.
    pub inject_delays: bool,
}

impl PlatformConfig {
    /// Google Chrome with shared memory enabled (the paper's "synchronous
    /// system calls" configuration, launched with extra flags).
    pub fn chrome() -> Self {
        PlatformConfig {
            browser: BrowserKind::Chrome,
            shared_memory: true,
            post_message_latency: Duration::from_micros(45),
            structured_clone_ns_per_byte: 2,
            inject_delays: true,
        }
    }

    /// Mozilla Firefox: no shared memory, slightly cheaper message passing
    /// (the paper measures faster in-Browsix HTTP requests in Firefox than in
    /// Chrome: 6 ms vs 9 ms for the list-backgrounds request).
    pub fn firefox() -> Self {
        PlatformConfig {
            browser: BrowserKind::Firefox,
            shared_memory: false,
            post_message_latency: Duration::from_micros(30),
            structured_clone_ns_per_byte: 2,
            inject_delays: true,
        }
    }

    /// Microsoft Edge: asynchronous system calls only.
    pub fn edge() -> Self {
        PlatformConfig {
            browser: BrowserKind::Edge,
            shared_memory: false,
            post_message_latency: Duration::from_micros(60),
            structured_clone_ns_per_byte: 3,
            inject_delays: true,
        }
    }

    /// A configuration with no injected overheads, for functional tests.
    pub fn fast() -> Self {
        PlatformConfig {
            browser: BrowserKind::Headless,
            shared_memory: true,
            post_message_latency: Duration::ZERO,
            structured_clone_ns_per_byte: 0,
            inject_delays: false,
        }
    }

    /// The cost of posting a message with `payload_bytes` of structured-clone
    /// payload across a worker boundary.  A buffer in the message's transfer
    /// list is not cloned: it counts [`TRANSFER_HANDLE_BYTES`] towards
    /// `payload_bytes` whatever its length, as a `SharedArrayBuffer` handle
    /// does.
    pub fn post_cost(&self, payload_bytes: usize) -> Duration {
        if !self.inject_delays {
            return Duration::ZERO;
        }
        let clone_ns = self.structured_clone_ns_per_byte as u64 * payload_bytes as u64;
        self.post_message_latency + Duration::from_nanos(clone_ns)
    }

    /// Returns a copy of this configuration with delay injection disabled.
    pub fn without_delays(mut self) -> Self {
        self.inject_delays = false;
        self
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::chrome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_supports_shared_memory_firefox_does_not() {
        assert!(PlatformConfig::chrome().shared_memory);
        assert!(!PlatformConfig::firefox().shared_memory);
        assert!(!PlatformConfig::edge().shared_memory);
    }

    #[test]
    fn fast_config_charges_nothing() {
        let cfg = PlatformConfig::fast();
        assert_eq!(cfg.post_cost(1_000_000), Duration::ZERO);
    }

    #[test]
    fn post_cost_scales_with_payload() {
        let cfg = PlatformConfig::chrome();
        let small = cfg.post_cost(16);
        let big = cfg.post_cost(1 << 20);
        assert!(big > small);
        assert!(small >= cfg.post_message_latency);
    }

    #[test]
    fn a_transferred_buffer_costs_a_handle_not_its_length() {
        let cfg = PlatformConfig::chrome();
        let (cloned, moved) = (cfg.post_cost(64 << 10), cfg.post_cost(TRANSFER_HANDLE_BYTES));
        assert!(cloned > moved + Duration::from_micros(100));
        assert!(moved < cfg.post_message_latency + Duration::from_micros(1));
    }

    #[test]
    fn without_delays_turns_off_injection() {
        let cfg = PlatformConfig::chrome().without_delays();
        assert_eq!(cfg.post_cost(4096), Duration::ZERO);
        assert_eq!(cfg.browser, BrowserKind::Chrome);
    }

    #[test]
    fn browser_names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            BrowserKind::Chrome,
            BrowserKind::Firefox,
            BrowserKind::Edge,
            BrowserKind::Headless,
        ]
        .iter()
        .map(|b| b.name())
        .collect();
        assert_eq!(names.len(), 4);
    }
}
