//! Generates the syscall surface from `abi/syscalls.abi` (the single
//! definition point for the ABI) via `browsix-abigen`:
//!
//! * `syscall_gen.rs` — the `Syscall`/`SysResult` enums and wire codec,
//!   included by `src/syscall.rs`;
//! * `dispatch_gen.rs` — the kernel dispatch match, included by
//!   `src/kernel/mod.rs`;
//! * `abi_gen.rs` — the opcode descriptors, generation manifest and ring
//!   read clamp, included by `src/abi.rs`.

use std::path::Path;

fn main() {
    let idl = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../abi/syscalls.abi");
    println!("cargo:rerun-if-changed={}", idl.display());
    let abi = browsix_abigen::load(&idl).unwrap_or_else(|e| panic!("abi/syscalls.abi: {e}"));
    let out_dir = std::env::var("OUT_DIR").expect("OUT_DIR");
    let out = Path::new(&out_dir);
    std::fs::write(out.join("syscall_gen.rs"), browsix_abigen::codegen::gen_core(&abi)).expect("write syscall_gen.rs");
    std::fs::write(out.join("dispatch_gen.rs"), browsix_abigen::codegen::gen_dispatch(&abi))
        .expect("write dispatch_gen.rs");
    std::fs::write(out.join("abi_gen.rs"), browsix_abigen::codegen::gen_abi_mod(&abi)).expect("write abi_gen.rs");
}
