//! The generated ABI manifest: per-opcode descriptors, generation counts and
//! the ring read clamp, all derived from `abi/syscalls.abi` at build time by
//! `browsix-abigen`.
//!
//! This module is how the rest of the system asks questions *about* the ABI
//! (as opposed to using it): the kernel statistics resolve opcodes to names
//! and classes through [`SYSCALLS`], the ring drain applies
//! [`cap_ring_read`], and `table1_features` prints [`MANIFEST`] so ABI growth
//! is visible release over release.
//!
//! # Example
//!
//! ```
//! use browsix_core::abi;
//!
//! // Every live opcode is described, in order, and the manifest counts agree.
//! assert_eq!(abi::SYSCALLS.len() as u32, abi::MANIFEST.syscall_count);
//! assert_eq!(abi::SYSCALLS[0].name, "spawn");
//!
//! // A read that arrives by ring is clamped to what the ring can carry back;
//! // nothing else is touched.
//! use browsix_core::Syscall;
//! let mut read = Syscall::Read { fd: 3, len: 1 << 20 };
//! abi::cap_ring_read(&mut read, 4096);
//! assert_eq!(read, Syscall::Read { fd: 3, len: 4096 });
//! ```

use crate::syscall::Syscall;

/// Compile-time description of one system call, straight from the IDL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallDesc {
    /// Wire/statistics name, e.g. `"llseek"`.
    pub name: &'static str,
    /// The name the call reports when its switching flag is set (`lstat` for
    /// `stat`), if it has one.
    pub alt_name: Option<&'static str>,
    /// Wire opcode; append-only, never reused.
    pub opcode: u8,
    /// Figure 3 class, e.g. `"File IO"`.
    pub class: &'static str,
}

/// Counts describing the generated ABI, printed by `table1_features` and CI
/// so the surface's growth shows up in the paper figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbiManifest {
    /// Wire codec version (the byte after the frame magic).
    pub wire_version: u8,
    /// Number of system calls.
    pub syscall_count: u32,
    /// Highest assigned opcode: `syscall_count` plus the retired opcodes,
    /// each a permanent gap.
    pub max_opcode: u32,
    /// Number of result tags.
    pub result_count: u32,
}

include!(concat!(env!("OUT_DIR"), "/abi_gen.rs"));
