//! Error type for the simulated browser platform.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulated browser platform.
///
/// These map onto the failure modes a real web application would observe:
/// a worker that has been terminated, a network request that failed, or an
/// out-of-bounds shared-memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The worker on the other end of a message port is gone.
    WorkerTerminated,
    /// The network is unreachable (offline mode) for a simulated remote fetch.
    NetworkUnavailable,
    /// The simulated remote server answered with a non-success status code.
    HttpStatus(u16),
    /// A `SharedArrayBuffer` access was out of bounds.
    OutOfBounds { offset: usize, len: usize, capacity: usize },
    /// An `Atomics`-style word operation named a byte offset that is not a
    /// multiple of 4.  JavaScript reaches shared words through an
    /// `Int32Array`, which cannot express such an address at all.
    Unaligned { offset: usize },
    /// Shared memory (`SharedArrayBuffer`/`Atomics`) is not available in the
    /// configured browser (e.g. Firefox at the paper's publication time).
    SharedMemoryUnsupported,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::WorkerTerminated => write!(f, "worker has been terminated"),
            PlatformError::NetworkUnavailable => write!(f, "network is unavailable"),
            PlatformError::HttpStatus(code) => write!(f, "remote server returned status {code}"),
            PlatformError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "shared buffer access out of bounds: offset {offset} len {len} capacity {capacity}"
            ),
            PlatformError::Unaligned { offset } => {
                write!(f, "shared buffer word access at unaligned offset {offset}")
            }
            PlatformError::SharedMemoryUnsupported => {
                write!(f, "shared memory is not supported by this browser configuration")
            }
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            PlatformError::WorkerTerminated,
            PlatformError::NetworkUnavailable,
            PlatformError::HttpStatus(503),
            PlatformError::OutOfBounds {
                offset: 10,
                len: 4,
                capacity: 8,
            },
            PlatformError::Unaligned { offset: 6 },
            PlatformError::SharedMemoryUnsupported,
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlatformError>();
    }
}
