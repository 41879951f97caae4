//! POSIX error numbers.
//!
//! Browsix speaks the Linux system-call ABI to the language runtimes it
//! integrates with (musl expects negative errno values from `wait4`,
//! Emscripten's syscall layer passes them straight through), so the whole
//! stack shares this single error type.

use std::error::Error;
use std::fmt;

/// A POSIX error number.
///
/// The numeric values match Linux so they can be passed through the
/// system-call interface unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(clippy::upper_case_acronyms)]
pub enum Errno {
    /// Operation not permitted.
    EPERM,
    /// No such file or directory.
    ENOENT,
    /// No such process.
    ESRCH,
    /// Interrupted system call.
    EINTR,
    /// I/O error.
    EIO,
    /// No such device or address.
    ENXIO,
    /// Argument list too long.
    E2BIG,
    /// Bad file descriptor.
    EBADF,
    /// No child processes.
    ECHILD,
    /// Resource temporarily unavailable.
    EAGAIN,
    /// Out of memory.
    ENOMEM,
    /// Permission denied.
    EACCES,
    /// Bad address.
    EFAULT,
    /// Device or resource busy.
    EBUSY,
    /// File exists.
    EEXIST,
    /// Cross-device link.
    EXDEV,
    /// Not a directory.
    ENOTDIR,
    /// Is a directory.
    EISDIR,
    /// Invalid argument.
    EINVAL,
    /// Too many open files in system.
    ENFILE,
    /// Too many open files.
    EMFILE,
    /// No space left on device.
    ENOSPC,
    /// Illegal seek.
    ESPIPE,
    /// Read-only file system.
    EROFS,
    /// Broken pipe.
    EPIPE,
    /// Numerical result out of range.
    ERANGE,
    /// File name too long.
    ENAMETOOLONG,
    /// Function not implemented.
    ENOSYS,
    /// Directory not empty.
    ENOTEMPTY,
    /// Value too large for defined data type.
    EOVERFLOW,
    /// Operation not supported.
    ENOTSUP,
    /// Address already in use.
    EADDRINUSE,
    /// Cannot assign requested address.
    EADDRNOTAVAIL,
    /// Network is unreachable.
    ENETUNREACH,
    /// Connection reset by peer.
    ECONNRESET,
    /// Socket is not connected.
    ENOTCONN,
    /// Connection timed out.
    ETIMEDOUT,
    /// Connection refused.
    ECONNREFUSED,
    /// Operation not supported on socket (not a socket).
    ENOTSOCK,
}

impl Errno {
    /// The Linux error number for this error.
    pub fn code(self) -> i32 {
        match self {
            Errno::EPERM => 1,
            Errno::ENOENT => 2,
            Errno::ESRCH => 3,
            Errno::EINTR => 4,
            Errno::EIO => 5,
            Errno::ENXIO => 6,
            Errno::E2BIG => 7,
            Errno::EBADF => 9,
            Errno::ECHILD => 10,
            Errno::EAGAIN => 11,
            Errno::ENOMEM => 12,
            Errno::EACCES => 13,
            Errno::EFAULT => 14,
            Errno::EBUSY => 16,
            Errno::EEXIST => 17,
            Errno::EXDEV => 18,
            Errno::ENOTDIR => 20,
            Errno::EISDIR => 21,
            Errno::EINVAL => 22,
            Errno::ENFILE => 23,
            Errno::EMFILE => 24,
            Errno::ENOSPC => 28,
            Errno::ESPIPE => 29,
            Errno::EROFS => 30,
            Errno::EPIPE => 32,
            Errno::ERANGE => 34,
            Errno::ENAMETOOLONG => 36,
            Errno::ENOSYS => 38,
            Errno::ENOTEMPTY => 39,
            Errno::EOVERFLOW => 75,
            Errno::ENOTSUP => 95,
            Errno::EADDRINUSE => 98,
            Errno::EADDRNOTAVAIL => 99,
            Errno::ENETUNREACH => 101,
            Errno::ECONNRESET => 104,
            Errno::ENOTCONN => 107,
            Errno::ETIMEDOUT => 110,
            Errno::ECONNREFUSED => 111,
            Errno::ENOTSOCK => 88,
        }
    }

    /// The negated error number, as returned through the system-call ABI.
    pub fn as_syscall_return(self) -> i64 {
        -(self.code() as i64)
    }

    /// Reconstructs an `Errno` from a Linux error number, if known.
    pub fn from_code(code: i32) -> Option<Errno> {
        ALL_ERRNOS.iter().copied().find(|e| e.code() == code)
    }

    /// The symbolic name, e.g. `"ENOENT"`.
    pub fn name(self) -> &'static str {
        match self {
            Errno::EPERM => "EPERM",
            Errno::ENOENT => "ENOENT",
            Errno::ESRCH => "ESRCH",
            Errno::EINTR => "EINTR",
            Errno::EIO => "EIO",
            Errno::ENXIO => "ENXIO",
            Errno::E2BIG => "E2BIG",
            Errno::EBADF => "EBADF",
            Errno::ECHILD => "ECHILD",
            Errno::EAGAIN => "EAGAIN",
            Errno::ENOMEM => "ENOMEM",
            Errno::EACCES => "EACCES",
            Errno::EFAULT => "EFAULT",
            Errno::EBUSY => "EBUSY",
            Errno::EEXIST => "EEXIST",
            Errno::EXDEV => "EXDEV",
            Errno::ENOTDIR => "ENOTDIR",
            Errno::EISDIR => "EISDIR",
            Errno::EINVAL => "EINVAL",
            Errno::ENFILE => "ENFILE",
            Errno::EMFILE => "EMFILE",
            Errno::ENOSPC => "ENOSPC",
            Errno::ESPIPE => "ESPIPE",
            Errno::EROFS => "EROFS",
            Errno::EPIPE => "EPIPE",
            Errno::ERANGE => "ERANGE",
            Errno::ENAMETOOLONG => "ENAMETOOLONG",
            Errno::ENOSYS => "ENOSYS",
            Errno::ENOTEMPTY => "ENOTEMPTY",
            Errno::EOVERFLOW => "EOVERFLOW",
            Errno::ENOTSUP => "ENOTSUP",
            Errno::EADDRINUSE => "EADDRINUSE",
            Errno::EADDRNOTAVAIL => "EADDRNOTAVAIL",
            Errno::ENETUNREACH => "ENETUNREACH",
            Errno::ECONNRESET => "ECONNRESET",
            Errno::ENOTCONN => "ENOTCONN",
            Errno::ETIMEDOUT => "ETIMEDOUT",
            Errno::ECONNREFUSED => "ECONNREFUSED",
            Errno::ENOTSOCK => "ENOTSOCK",
        }
    }

    /// A short human-readable description (what `strerror` would print).
    pub fn strerror(self) -> &'static str {
        match self {
            Errno::EPERM => "operation not permitted",
            Errno::ENOENT => "no such file or directory",
            Errno::ESRCH => "no such process",
            Errno::EINTR => "interrupted system call",
            Errno::EIO => "input/output error",
            Errno::ENXIO => "no such device or address",
            Errno::E2BIG => "argument list too long",
            Errno::EBADF => "bad file descriptor",
            Errno::ECHILD => "no child processes",
            Errno::EAGAIN => "resource temporarily unavailable",
            Errno::ENOMEM => "cannot allocate memory",
            Errno::EACCES => "permission denied",
            Errno::EFAULT => "bad address",
            Errno::EBUSY => "device or resource busy",
            Errno::EEXIST => "file exists",
            Errno::EXDEV => "invalid cross-device link",
            Errno::ENOTDIR => "not a directory",
            Errno::EISDIR => "is a directory",
            Errno::EINVAL => "invalid argument",
            Errno::ENFILE => "too many open files in system",
            Errno::EMFILE => "too many open files",
            Errno::ENOSPC => "no space left on device",
            Errno::ESPIPE => "illegal seek",
            Errno::EROFS => "read-only file system",
            Errno::EPIPE => "broken pipe",
            Errno::ERANGE => "numerical result out of range",
            Errno::ENAMETOOLONG => "file name too long",
            Errno::ENOSYS => "function not implemented",
            Errno::ENOTEMPTY => "directory not empty",
            Errno::EOVERFLOW => "value too large for defined data type",
            Errno::ENOTSUP => "operation not supported",
            Errno::EADDRINUSE => "address already in use",
            Errno::EADDRNOTAVAIL => "cannot assign requested address",
            Errno::ENETUNREACH => "network is unreachable",
            Errno::ECONNRESET => "connection reset by peer",
            Errno::ENOTCONN => "transport endpoint is not connected",
            Errno::ETIMEDOUT => "connection timed out",
            Errno::ECONNREFUSED => "connection refused",
            Errno::ENOTSOCK => "socket operation on non-socket",
        }
    }
}

/// All errno values known to the crate (used for code/name round-trip tests
/// and by the `strerror` utility).
pub const ALL_ERRNOS: &[Errno] = &[
    Errno::EPERM,
    Errno::ENOENT,
    Errno::ESRCH,
    Errno::EINTR,
    Errno::EIO,
    Errno::ENXIO,
    Errno::E2BIG,
    Errno::EBADF,
    Errno::ECHILD,
    Errno::EAGAIN,
    Errno::ENOMEM,
    Errno::EACCES,
    Errno::EFAULT,
    Errno::EBUSY,
    Errno::EEXIST,
    Errno::EXDEV,
    Errno::ENOTDIR,
    Errno::EISDIR,
    Errno::EINVAL,
    Errno::ENFILE,
    Errno::EMFILE,
    Errno::ENOSPC,
    Errno::ESPIPE,
    Errno::EROFS,
    Errno::EPIPE,
    Errno::ERANGE,
    Errno::ENAMETOOLONG,
    Errno::ENOSYS,
    Errno::ENOTEMPTY,
    Errno::EOVERFLOW,
    Errno::ENOTSUP,
    Errno::EADDRINUSE,
    Errno::EADDRNOTAVAIL,
    Errno::ENETUNREACH,
    Errno::ECONNRESET,
    Errno::ENOTCONN,
    Errno::ETIMEDOUT,
    Errno::ECONNREFUSED,
    Errno::ENOTSOCK,
];

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.strerror(), self.name())
    }
}

impl Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for &errno in ALL_ERRNOS {
            assert!(seen.insert(errno.code()), "duplicate code for {errno:?}");
            assert_eq!(Errno::from_code(errno.code()), Some(errno));
        }
    }

    #[test]
    fn unknown_code_maps_to_none() {
        assert_eq!(Errno::from_code(0), None);
        assert_eq!(Errno::from_code(-1), None);
        assert_eq!(Errno::from_code(4096), None);
    }

    #[test]
    fn syscall_return_is_negative() {
        assert_eq!(Errno::ENOENT.as_syscall_return(), -2);
        assert_eq!(Errno::EPERM.as_syscall_return(), -1);
        assert!(ALL_ERRNOS.iter().all(|e| e.as_syscall_return() < 0));
    }

    #[test]
    fn linux_abi_values_match() {
        assert_eq!(Errno::ENOENT.code(), 2);
        assert_eq!(Errno::EBADF.code(), 9);
        assert_eq!(Errno::ECHILD.code(), 10);
        assert_eq!(Errno::EEXIST.code(), 17);
        assert_eq!(Errno::EINVAL.code(), 22);
        assert_eq!(Errno::EPIPE.code(), 32);
        assert_eq!(Errno::ENOTEMPTY.code(), 39);
        assert_eq!(Errno::ECONNREFUSED.code(), 111);
    }

    #[test]
    fn display_contains_name_and_description() {
        let text = Errno::ENOENT.to_string();
        assert!(text.contains("ENOENT"));
        assert!(text.contains("no such file or directory"));
    }

    #[test]
    fn names_match_debug() {
        for &errno in ALL_ERRNOS {
            assert_eq!(format!("{errno:?}"), errno.name());
        }
    }
}
