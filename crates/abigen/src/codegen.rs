//! Rust code generation from the parsed [`Abi`] model.
//!
//! Four artefacts, each written into `OUT_DIR` by a `build.rs` and spliced
//! into its crate with `include!`:
//!
//! | generator           | consumer                                  |
//! |---------------------|-------------------------------------------|
//! | [`gen_core`]        | `crates/core/src/syscall.rs` (enums+codec)|
//! | [`gen_dispatch`]    | `crates/core/src/kernel/mod.rs`           |
//! | [`gen_abi_mod`]     | `crates/core/src/abi.rs` (manifest, clamp)|
//! | [`gen_shapes`]      | integration tests (fuzz shape builders)   |
//!
//! The generated codec must stay byte-identical to the blessed corpus in
//! `abi/golden_corpus.txt`; `tests/tests/abi_drift.rs` enforces that, so
//! any change to the encode emitters here is an ABI event, not a refactor.

use crate::{Abi, FieldDef, ResultDef, ResultKind, Ty};

const BANNER: &str = "// @generated by browsix-abigen from abi/syscalls.abi — do not edit.\n\
                      // Regenerate by rebuilding (build.rs) or via scripts/abigen_check.sh.\n";

fn push_docs(out: &mut String, indent: &str, docs: &[String]) {
    for line in docs {
        if line.is_empty() {
            out.push_str(&format!("{indent}///\n"));
        } else {
            out.push_str(&format!("{indent}/// {line}\n"));
        }
    }
}

/// `Syscall::Spawn { path, args }`-style pattern; `None` bindings renders
/// a wildcard (`{ .. }`) for field-carrying variants.
fn variant_pattern(enum_name: &str, def_ident: &str, fields: &[FieldDef], bind: bool) -> String {
    if fields.is_empty() {
        return format!("{enum_name}::{def_ident}");
    }
    if !bind {
        return format!("{enum_name}::{def_ident} {{ .. }}");
    }
    let binds: Vec<String> = fields
        .iter()
        .map(|f| match &f.bind {
            Some(b) => format!("{}: {}", f.name, b),
            None => f.name.clone(),
        })
        .collect();
    format!("{enum_name}::{def_ident} {{ {} }}", binds.join(", "))
}

/// Rust type of a field as it appears in the generated enums (core crate
/// scope: the names resolve against `syscall.rs`'s imports).
fn rust_type(ty: &Ty) -> &'static str {
    match ty {
        Ty::I32 => "i32",
        Ty::U32 => "u32",
        Ty::U16 => "u16",
        Ty::U64 => "u64",
        Ty::I64 => "i64",
        Ty::Bool => "bool",
        Ty::Str => "String",
        Ty::Bytes => "Vec<u8>",
        Ty::ByteSrc => "ByteSource",
        Ty::Signal => "Signal",
        Ty::SigAction => "SigAction",
        Ty::OpenFlags => "OpenFlags",
        Ty::Pid => "Pid",
        Ty::OptionStr => "Option<String>",
        Ty::ListStr => "Vec<String>",
        Ty::ListPair => "Vec<(String, String)>",
        Ty::Stdio3 => "[Option<i32>; 3]",
        Ty::ListPollFd => "Vec<PollRequest>",
        Ty::Metadata => "Metadata",
        Ty::ListDirEnt => "Vec<DirEntry>",
        Ty::ListU16 => "Vec<u16>",
        Ty::Errno => "Errno",
    }
}

/// Encode statements for one field bound (by reference) as `n`.
fn encode_lines(ty: &Ty, n: &str, indent: &str) -> String {
    let i = indent;
    match ty {
        Ty::I32 => format!("{i}wire::put_i32(out, *{n});\n"),
        Ty::U32 => format!("{i}wire::put_u32(out, *{n});\n"),
        Ty::U16 => format!("{i}wire::put_u16(out, *{n});\n"),
        Ty::U64 => format!("{i}wire::put_u64(out, *{n});\n"),
        Ty::I64 => format!("{i}wire::put_i64(out, *{n});\n"),
        Ty::Bool => format!("{i}wire::put_bool(out, *{n});\n"),
        Ty::Str => format!("{i}wire::put_str(out, {n});\n"),
        Ty::Bytes => format!("{i}wire::put_bytes(out, {n});\n"),
        Ty::ByteSrc => format!("{i}{n}.encode_into(out);\n"),
        Ty::Signal => format!("{i}wire::put_i32(out, {n}.number());\n"),
        Ty::SigAction => format!("{i}wire::put_u8(out, encode_sigaction(*{n}));\n"),
        Ty::OpenFlags => format!("{i}wire::put_u32(out, {n}.to_bits());\n"),
        Ty::Pid => format!("{i}wire::put_u32(out, *{n});\n"),
        Ty::OptionStr => format!(
            "{i}match {n} {{\n\
             {i}    Some(value) => {{\n\
             {i}        wire::put_bool(out, true);\n\
             {i}        wire::put_str(out, value);\n\
             {i}    }}\n\
             {i}    None => wire::put_bool(out, false),\n\
             {i}}}\n"
        ),
        Ty::ListStr => format!(
            "{i}wire::put_u32(out, {n}.len() as u32);\n\
             {i}for item in {n} {{\n\
             {i}    wire::put_str(out, item);\n\
             {i}}}\n"
        ),
        Ty::ListPair => format!(
            "{i}wire::put_u32(out, {n}.len() as u32);\n\
             {i}for (key, value) in {n} {{\n\
             {i}    wire::put_str(out, key);\n\
             {i}    wire::put_str(out, value);\n\
             {i}}}\n"
        ),
        Ty::Stdio3 => format!(
            "{i}for slot in {n} {{\n\
             {i}    match slot {{\n\
             {i}        Some(fd) => {{\n\
             {i}            wire::put_bool(out, true);\n\
             {i}            wire::put_i32(out, *fd);\n\
             {i}        }}\n\
             {i}        None => wire::put_bool(out, false),\n\
             {i}    }}\n\
             {i}}}\n"
        ),
        Ty::ListPollFd => format!(
            "{i}wire::put_u32(out, {n}.len() as u32);\n\
             {i}for req in {n} {{\n\
             {i}    wire::put_i32(out, req.fd);\n\
             {i}    wire::put_u16(out, req.events);\n\
             {i}}}\n"
        ),
        Ty::Metadata => format!(
            "{i}wire::put_u64(out, {n}.size);\n\
             {i}wire::put_u32(out, {n}.mode);\n\
             {i}wire::put_u64(out, {n}.mtime_ms);\n\
             {i}wire::put_u64(out, {n}.atime_ms);\n\
             {i}wire::put_bool(out, {n}.is_dir());\n"
        ),
        Ty::ListDirEnt => format!(
            "{i}wire::put_u32(out, {n}.len() as u32);\n\
             {i}for entry in {n} {{\n\
             {i}    wire::put_bool(out, entry.file_type == FileType::Directory);\n\
             {i}    wire::put_str(out, &entry.name);\n\
             {i}}}\n"
        ),
        Ty::ListU16 => format!(
            "{i}wire::put_u32(out, {n}.len() as u32);\n\
             {i}for word in {n} {{\n\
             {i}    wire::put_u16(out, *word);\n\
             {i}}}\n"
        ),
        Ty::Errno => format!("{i}wire::put_i32(out, {n}.code());\n"),
    }
}

/// Decode expression consuming exactly one field's encoding from reader `r`.
fn decode_expr(ty: &Ty, indent: &str) -> String {
    let i = indent;
    match ty {
        Ty::I32 => "r.i32()?".to_string(),
        Ty::U32 => "r.u32()?".to_string(),
        Ty::U16 => "r.u16()?".to_string(),
        Ty::U64 => "r.u64()?".to_string(),
        Ty::I64 => "r.i64()?".to_string(),
        Ty::Bool => "r.bool()?".to_string(),
        Ty::Str => "r.str()?.to_owned()".to_string(),
        Ty::Bytes => "r.bytes()?.to_vec()".to_string(),
        Ty::ByteSrc => "ByteSource::decode_from(r)?".to_string(),
        Ty::Signal => "Signal::from_number(r.i32()?)?".to_string(),
        Ty::SigAction => "decode_sigaction(r.u8()?)?".to_string(),
        Ty::OpenFlags => "OpenFlags::from_bits(r.u32()?).ok()?".to_string(),
        Ty::Pid => "r.u32()?".to_string(),
        Ty::OptionStr => "if r.bool()? { Some(r.str()?.to_owned()) } else { None }".to_string(),
        Ty::ListStr => format!(
            "{{\n\
             {i}    let count = r.u32()? as usize;\n\
             {i}    let mut items = Vec::with_capacity(count.min(1024));\n\
             {i}    for _ in 0..count {{\n\
             {i}        items.push(r.str()?.to_owned());\n\
             {i}    }}\n\
             {i}    items\n\
             {i}}}"
        ),
        Ty::ListPair => format!(
            "{{\n\
             {i}    let count = r.u32()? as usize;\n\
             {i}    let mut items = Vec::with_capacity(count.min(1024));\n\
             {i}    for _ in 0..count {{\n\
             {i}        let key = r.str()?.to_owned();\n\
             {i}        let value = r.str()?.to_owned();\n\
             {i}        items.push((key, value));\n\
             {i}    }}\n\
             {i}    items\n\
             {i}}}"
        ),
        Ty::Stdio3 => format!(
            "{{\n\
             {i}    let mut slots = [None; 3];\n\
             {i}    for slot in slots.iter_mut() {{\n\
             {i}        if r.bool()? {{\n\
             {i}            *slot = Some(r.i32()?);\n\
             {i}        }}\n\
             {i}    }}\n\
             {i}    slots\n\
             {i}}}"
        ),
        Ty::ListPollFd => format!(
            "{{\n\
             {i}    let count = r.u32()? as usize;\n\
             {i}    let mut items = Vec::with_capacity(count.min(4096));\n\
             {i}    for _ in 0..count {{\n\
             {i}        items.push(PollRequest {{\n\
             {i}            fd: r.i32()?,\n\
             {i}            events: r.u16()?,\n\
             {i}        }});\n\
             {i}    }}\n\
             {i}    items\n\
             {i}}}"
        ),
        Ty::Metadata => format!(
            "{{\n\
             {i}    let size = r.u64()?;\n\
             {i}    let mode = r.u32()?;\n\
             {i}    let mtime_ms = r.u64()?;\n\
             {i}    let atime_ms = r.u64()?;\n\
             {i}    let is_dir = r.bool()?;\n\
             {i}    Metadata {{\n\
             {i}        file_type: if is_dir {{ FileType::Directory }} else {{ FileType::Regular }},\n\
             {i}        size,\n\
             {i}        mode,\n\
             {i}        mtime_ms,\n\
             {i}        atime_ms,\n\
             {i}    }}\n\
             {i}}}"
        ),
        Ty::ListDirEnt => format!(
            "{{\n\
             {i}    let count = r.u32()? as usize;\n\
             {i}    let mut entries = Vec::with_capacity(count.min(4096));\n\
             {i}    for _ in 0..count {{\n\
             {i}        let is_dir = r.bool()?;\n\
             {i}        let name = r.str()?.to_owned();\n\
             {i}        entries.push(DirEntry {{\n\
             {i}            name,\n\
             {i}            file_type: if is_dir {{ FileType::Directory }} else {{ FileType::Regular }},\n\
             {i}        }});\n\
             {i}    }}\n\
             {i}    entries\n\
             {i}}}"
        ),
        Ty::ListU16 => format!(
            "{{\n\
             {i}    let count = r.u32()? as usize;\n\
             {i}    let mut words = Vec::with_capacity(count.min(4096));\n\
             {i}    for _ in 0..count {{\n\
             {i}        words.push(r.u16()?);\n\
             {i}    }}\n\
             {i}    words\n\
             {i}}}"
        ),
        Ty::Errno => "Errno::from_code(r.i32()?)?".to_string(),
    }
}

/// The `Syscall`/`SysResult` enums and their wire codec, included into
/// `crates/core/src/syscall.rs` (all names resolve against that module's
/// imports).
pub fn gen_core(abi: &Abi) -> String {
    let mut out = String::from(BANNER);
    out.push_str("// Spliced into crates/core/src/syscall.rs.\n\n");

    // ---- Syscall enum -----------------------------------------------------
    out.push_str(
        "/// A system call, with arguments already in structured form.\n\
         ///\n\
         /// Generated from `abi/syscalls.abi` — the single definition point for\n\
         /// the syscall surface.  Figure 3 of the paper lists the call classes:\n\
         /// process management, process metadata, sockets, directory I/O, file\n\
         /// I/O and file metadata; every one of those calls appears here.\n\
         #[derive(Debug, Clone, PartialEq)]\n\
         pub enum Syscall {\n",
    );
    for sc in &abi.syscalls {
        push_docs(&mut out, "    ", &sc.docs);
        if sc.args.is_empty() {
            out.push_str(&format!("    {},\n", sc.ident));
        } else {
            out.push_str(&format!("    {} {{\n", sc.ident));
            for arg in &sc.args {
                push_docs(&mut out, "        ", &arg.docs);
                out.push_str(&format!("        {}: {},\n", arg.name, rust_type(&arg.ty)));
            }
            out.push_str("    },\n");
        }
    }
    out.push_str("}\n\n");

    // ---- Syscall impl -----------------------------------------------------
    out.push_str("impl Syscall {\n");

    out.push_str(
        "    /// The call's wire opcode.  Opcodes are append-only: numbers are\n\
         \x20   /// never reused or renumbered (see `docs/ABI.md`).\n\
         \x20   pub fn opcode(&self) -> u8 {\n\
         \x20       match self {\n",
    );
    for sc in &abi.syscalls {
        out.push_str(&format!(
            "            {} => {},\n",
            variant_pattern("Syscall", &sc.ident, &sc.args, false),
            sc.opcode
        ));
    }
    out.push_str("        }\n    }\n\n");

    out.push_str(
        "    /// The syscall's name, used for statistics and tracing (and by the\n\
         \x20   /// Figure 3 reproduction).\n\
         \x20   pub fn name(&self) -> &'static str {\n\
         \x20       match self {\n",
    );
    for sc in &abi.syscalls {
        match &sc.alt_name {
            Some((field, alt)) => {
                // Bind only the switching field.
                out.push_str(&format!(
                    "            Syscall::{} {{ {field}, .. }} => {{\n\
                     \x20               if *{field} {{\n\
                     \x20                   \"{alt}\"\n\
                     \x20               }} else {{\n\
                     \x20                   \"{}\"\n\
                     \x20               }}\n\
                     \x20           }}\n",
                    sc.ident, sc.wire_name
                ));
            }
            None => {
                out.push_str(&format!(
                    "            {} => \"{}\",\n",
                    variant_pattern("Syscall", &sc.ident, &sc.args, false),
                    sc.wire_name
                ));
            }
        }
    }
    out.push_str("        }\n    }\n\n");

    out.push_str(
        "    /// The Figure 3 class this call belongs to.\n\
         \x20   pub fn class(&self) -> &'static str {\n\
         \x20       match self {\n",
    );
    for sc in &abi.syscalls {
        out.push_str(&format!(
            "            {} => \"{}\",\n",
            variant_pattern("Syscall", &sc.ident, &sc.args, false),
            sc.class
        ));
    }
    out.push_str("        }\n    }\n\n");

    out.push_str(
        "    /// The call's byte-source argument, if it carries one: what the\n\
         \x20   /// message transport detaches into, and re-attaches from, the\n\
         \x20   /// transfer list beside a frame.\n\
         \x20   pub fn byte_source_mut(&mut self) -> Option<&mut ByteSource> {\n\
         \x20       match self {\n",
    );
    for sc in &abi.syscalls {
        if let Some(arg) = sc.args.iter().find(|arg| arg.ty == Ty::ByteSrc) {
            out.push_str(&format!(
                "            Syscall::{} {{ {}, .. }} => Some({}),\n",
                sc.ident, arg.name, arg.name
            ));
        }
    }
    out.push_str("            _ => None,\n        }\n    }\n\n");

    out.push_str(
        "    /// Appends the call's wire encoding (opcode + fields) to `out`.\n\
         \x20   pub fn encode_into(&self, out: &mut Vec<u8>) {\n\
         \x20       wire::put_u8(out, self.opcode());\n\
         \x20       match self {\n",
    );
    for sc in &abi.syscalls {
        let pat = variant_pattern("Syscall", &sc.ident, &sc.args, true);
        if sc.args.is_empty() {
            out.push_str(&format!("            {pat} => {{}}\n"));
        } else {
            out.push_str(&format!("            {pat} => {{\n"));
            for arg in &sc.args {
                out.push_str(&encode_lines(&arg.ty, arg.bound_name(), "                "));
            }
            out.push_str("            }\n");
        }
    }
    out.push_str("        }\n    }\n\n");

    out.push_str(
        "    /// Decodes one call from the reader, consuming exactly its encoding.\n\
         \x20   ///\n\
         \x20   /// Returns `None` if the frame is truncated or the opcode is unknown.\n\
         \x20   pub fn decode_from(r: &mut Reader<'_>) -> Option<Syscall> {\n\
         \x20       Some(match r.u8()? {\n",
    );
    for sc in &abi.syscalls {
        if sc.args.is_empty() {
            out.push_str(&format!("            {} => Syscall::{},\n", sc.opcode, sc.ident));
        } else {
            out.push_str(&format!("            {} => Syscall::{} {{\n", sc.opcode, sc.ident));
            for arg in &sc.args {
                out.push_str(&format!(
                    "                {}: {},\n",
                    arg.name,
                    decode_expr(&arg.ty, "                ")
                ));
            }
            out.push_str("            },\n");
        }
    }
    out.push_str("            _ => return None,\n        })\n    }\n}\n\n");

    // ---- SysResult enum ---------------------------------------------------
    out.push_str(
        "/// The result of a system call.\n\
         ///\n\
         /// Generated from `abi/syscalls.abi`; tag numbering is append-only.\n\
         #[derive(Debug, Clone, PartialEq)]\n\
         #[must_use = \"a SysResult may carry an errno that should not be silently dropped\"]\n\
         pub enum SysResult {\n",
    );
    for res in &abi.results {
        push_docs(&mut out, "    ", &res.docs);
        match res.kind {
            ResultKind::Unit => out.push_str(&format!("    {},\n", res.ident)),
            ResultKind::Tuple => {
                let tys: Vec<&str> = res.fields.iter().map(|f| rust_type(&f.ty)).collect();
                out.push_str(&format!("    {}({}),\n", res.ident, tys.join(", ")));
            }
            ResultKind::Struct => {
                out.push_str(&format!("    {} {{\n", res.ident));
                for field in &res.fields {
                    push_docs(&mut out, "        ", &field.docs);
                    out.push_str(&format!("        {}: {},\n", field.name, rust_type(&field.ty)));
                }
                out.push_str("    },\n");
            }
        }
    }
    out.push_str("}\n\n");

    // ---- SysResult impl ---------------------------------------------------
    out.push_str("impl SysResult {\n");
    out.push_str(
        "    /// The result's wire tag.  Tags are append-only, like opcodes.\n\
         \x20   pub fn tag(&self) -> u8 {\n\
         \x20       match self {\n",
    );
    for res in &abi.results {
        out.push_str(&format!("            {} => {},\n", result_pattern(res, false), res.tag));
    }
    out.push_str("        }\n    }\n\n");

    out.push_str(
        "    /// Appends the result's wire encoding (tag + payload) to `out`.\n\
         \x20   pub fn encode_into(&self, out: &mut Vec<u8>) {\n\
         \x20       wire::put_u8(out, self.tag());\n\
         \x20       match self {\n",
    );
    for res in &abi.results {
        let pat = result_pattern(res, true);
        if res.fields.is_empty() {
            out.push_str(&format!("            {pat} => {{}}\n"));
        } else {
            out.push_str(&format!("            {pat} => {{\n"));
            for field in &res.fields {
                out.push_str(&encode_lines(&field.ty, field.bound_name(), "                "));
            }
            out.push_str("            }\n");
        }
    }
    out.push_str("        }\n    }\n\n");

    out.push_str(
        "    /// Decodes one result from the reader, consuming exactly its encoding.\n\
         \x20   ///\n\
         \x20   /// Returns `None` if the frame is truncated or the tag is unknown.\n\
         \x20   pub fn decode_from(r: &mut Reader<'_>) -> Option<SysResult> {\n\
         \x20       Some(match r.u8()? {\n",
    );
    for res in &abi.results {
        match res.kind {
            ResultKind::Unit => out.push_str(&format!("            {} => SysResult::{},\n", res.tag, res.ident)),
            ResultKind::Tuple => {
                let exprs: Vec<String> = res.fields.iter().map(|f| decode_expr(&f.ty, "            ")).collect();
                out.push_str(&format!(
                    "            {} => SysResult::{}({}),\n",
                    res.tag,
                    res.ident,
                    exprs.join(", ")
                ));
            }
            ResultKind::Struct => {
                out.push_str(&format!("            {} => SysResult::{} {{\n", res.tag, res.ident));
                for field in &res.fields {
                    out.push_str(&format!(
                        "                {}: {},\n",
                        field.name,
                        decode_expr(&field.ty, "                ")
                    ));
                }
                out.push_str("            },\n");
            }
        }
    }
    out.push_str("            _ => return None,\n        })\n    }\n}\n");
    out
}

fn result_pattern(res: &ResultDef, bind: bool) -> String {
    match res.kind {
        ResultKind::Unit => format!("SysResult::{}", res.ident),
        ResultKind::Tuple => {
            if bind {
                let binds: Vec<&str> = res.fields.iter().map(|f| f.name.as_str()).collect();
                format!("SysResult::{}({})", res.ident, binds.join(", "))
            } else {
                format!("SysResult::{}(..)", res.ident)
            }
        }
        ResultKind::Struct => {
            if bind {
                let binds: Vec<&str> = res.fields.iter().map(|f| f.name.as_str()).collect();
                format!("SysResult::{} {{ {} }}", res.ident, binds.join(", "))
            } else {
                format!("SysResult::{} {{ .. }}", res.ident)
            }
        }
    }
}

/// The kernel dispatch match, included into `crates/core/src/kernel/mod.rs`.
pub fn gen_dispatch(abi: &Abi) -> String {
    let mut out = String::from(BANNER);
    out.push_str("// Spliced into crates/core/src/kernel/mod.rs.\n\n");
    out.push_str(
        "impl KernelState {\n\
         \x20   /// Routes one decoded call to its handler.  Generated from the\n\
         \x20   /// `dispatch:` line of each syscall's IDL entry; handler bodies\n\
         \x20   /// live in the per-class `dispatch_*.rs` modules.  Every handler\n\
         \x20   /// returns a `Result` whose error completes the call, so each\n\
         \x20   /// arm converts through `Outcome::from`.\n\
         \x20   fn dispatch(&mut self, pid: Pid, reply: ReplyTo, call: Syscall) -> Outcome {\n\
         \x20       match call {\n",
    );
    for sc in &abi.syscalls {
        let pat = match &sc.bindpat {
            Some(p) => format!("Syscall::{} {}", sc.ident, p),
            None => variant_pattern("Syscall", &sc.ident, &sc.args, true),
        };
        out.push_str(&format!("            {pat} => Outcome::from({}),\n", sc.dispatch));
    }
    out.push_str("        }\n    }\n}\n");
    out
}

/// The ABI manifest constants and the ring read clamp, included into
/// `crates/core/src/abi.rs`.
pub fn gen_abi_mod(abi: &Abi) -> String {
    let mut out = String::from(BANNER);
    out.push_str("// Spliced into crates/core/src/abi.rs.\n\n");

    out.push_str("/// Per-opcode descriptors, in opcode order.\npub const SYSCALLS: &[SyscallDesc] = &[\n");
    for sc in &abi.syscalls {
        let alt_name = sc.alt_name.as_ref().map(|(_, alt)| alt);
        out.push_str(&format!(
            "    SyscallDesc {{ name: \"{}\", alt_name: {alt_name:?}, opcode: {}, class: \"{}\" }},\n",
            sc.wire_name, sc.opcode, sc.class,
        ));
    }
    out.push_str("];\n\n");

    out.push_str(&format!(
        "/// The generation manifest: counts printed by `table1_features` and CI\n\
         /// so ABI growth is visible release over release.\n\
         pub const MANIFEST: AbiManifest = AbiManifest {{\n\
         \x20   wire_version: {},\n\
         \x20   syscall_count: {},\n\
         \x20   max_opcode: {},\n\
         \x20   result_count: {},\n\
         }};\n\n",
        abi.version,
        abi.syscalls.len(),
        abi.syscalls.iter().map(|s| s.opcode).max().unwrap_or(0),
        abi.results.len(),
    ));

    out.push_str(
        "/// Clamps the length of a read-like call (`ring: data-capped(FIELD)` in\n\
         /// the IDL) to `cap`, the most bytes the submitter's ring can carry back:\n\
         /// the caller sees a POSIX short read and asks again for the rest.\n\
         pub fn cap_ring_read(call: &mut Syscall, cap: u32) {\n\
         \x20   match call {\n",
    );
    for sc in &abi.syscalls {
        if let Some(field) = &sc.ring_cap {
            out.push_str(&format!(
                "        Syscall::{} {{ {field}, .. }} => *{field} = (*{field}).min(cap),\n",
                sc.ident
            ));
        }
    }
    out.push_str("        _ => {}\n    }\n}\n");
    out
}

/// Fuzz expression for one field, in the scope of `make_call`/`make_result`
/// (locals `fd`, `path`, fuzz record `f`, helper const `SIGNALS`).
fn fuzz_expr(ty: &Ty, name: &str) -> String {
    match ty {
        Ty::I32 => {
            if name.contains("fd") || name == "from" || name == "to" {
                "fd".to_string()
            } else {
                "f.num as i32".to_string()
            }
        }
        Ty::U32 => "f.small".to_string(),
        Ty::U16 => "f.small as u16".to_string(),
        Ty::U64 => "f.num as u64".to_string(),
        Ty::I64 => "f.num".to_string(),
        Ty::Bool => "f.flag".to_string(),
        Ty::Pid => "f.small % 4096".to_string(),
        Ty::Str => "path.clone()".to_string(),
        Ty::Bytes => "f.data.clone()".to_string(),
        Ty::ByteSrc => "match f.small % 3 {\n                0 => ByteSource::Inline(f.data.clone()),\n                1 => ByteSource::SharedHeap {\n                    offset: f.small,\n                    len: f.data.len() as u32,\n                },\n                _ => ByteSource::Transfer {\n                    index: f.small,\n                    len: f.data.len() as u32,\n                },\n            }"
            .to_string(),
        Ty::Signal => "SIGNALS[f.small as usize % SIGNALS.len()]".to_string(),
        Ty::SigAction => "match f.small % 4 {\n                0 => SigAction::Default,\n                1 => SigAction::Ignore,\n                2 => SigAction::Handler { restart: false },\n                _ => SigAction::Handler { restart: true },\n            }"
            .to_string(),
        Ty::OpenFlags => "if f.flag {\n                OpenFlags::read_only()\n            } else {\n                OpenFlags::write_create_truncate()\n            }"
            .to_string(),
        Ty::OptionStr => "if f.flag { Some(path.clone()) } else { None }".to_string(),
        Ty::ListStr => "(0..(f.small as usize % 4)).map(|i| format!(\"{}-{i}\", f.text)).collect()".to_string(),
        Ty::ListPair => "(0..(f.small as usize % 3))\n                .map(|i| (format!(\"K{i}\"), f.text.clone()))\n                .collect()"
            .to_string(),
        Ty::Stdio3 => "[None, Some(fd), if f.flag { None } else { Some(2) }]".to_string(),
        Ty::ListPollFd => "(0..(f.small as usize % 6))\n                .map(|i| PollRequest {\n                    fd: fd + i as i32,\n                    events: if f.flag { POLLIN } else { POLLIN | POLLOUT },\n                })\n                .collect()"
            .to_string(),
        Ty::Metadata => "Metadata {\n                file_type: if f.flag { FileType::Directory } else { FileType::Regular },\n                size: f.num as u64,\n                mode: f.small & 0o7777,\n                mtime_ms: f.num as u64,\n                atime_ms: f.small as u64,\n            }"
            .to_string(),
        Ty::ListDirEnt => "(0..(f.small as usize % 5))\n                .map(|i| {\n                    if f.flag {\n                        DirEntry::dir(&format!(\"d{i}\"))\n                    } else {\n                        DirEntry::file(&format!(\"f{i}\"))\n                    }\n                })\n                .collect()"
            .to_string(),
        Ty::ListU16 => "(0..(f.small as usize % 5))\n                .map(|i| if i % 2 == 0 { POLLIN } else { POLLOUT | POLLHUP })\n                .collect()"
            .to_string(),
        Ty::Errno => "if f.flag { Errno::ENOENT } else { Errno::EPIPE }".to_string(),
    }
}

/// One `name: expr,` struct-literal field line for a fuzzed shape, using
/// shorthand when the expression is just the matching local binding.
fn fuzz_field(ty: &Ty, name: &str) -> String {
    let expr = fuzz_expr(ty, name);
    if expr == name {
        format!("            {name},\n")
    } else {
        format!("            {name}: {expr},\n")
    }
}

/// Deterministic fuzz shape builders (`make_call`/`make_result`), included
/// as a module by the integration tests.
pub fn gen_shapes(abi: &Abi) -> String {
    let mut out = String::from(BANNER);
    out.push_str("// Spliced into the integration tests as a module.\n\n");
    out.push_str(
        "use browsix_core::{ByteSource, PollRequest, SigAction, Signal, SysResult, Syscall, POLLHUP, POLLIN, POLLOUT};\n\
         use browsix_fs::{DirEntry, Errno, FileType, Metadata, OpenFlags};\n\n\
         /// Fuzz inputs shared by every generated call/result shape.\n\
         #[derive(Debug, Clone)]\n\
         pub struct Fuzz {\n\
         \x20   /// Free-form text for paths, names and arguments.\n\
         \x20   pub text: String,\n\
         \x20   /// Raw payload bytes.\n\
         \x20   pub data: Vec<u8>,\n\
         \x20   /// A signed scalar.\n\
         \x20   pub num: i64,\n\
         \x20   /// A small unsigned scalar (lengths, counts, descriptors).\n\
         \x20   pub small: u32,\n\
         \x20   /// Alternate-encoding switch (byte source, lstat, empty lists...).\n\
         \x20   pub flag: bool,\n\
         }\n\n",
    );
    out.push_str(&format!(
        "/// Number of distinct [`Syscall`] shapes [`make_call`] produces: one per\n\
         /// opcode.  Alternate encodings (the three byte sources,\n\
         /// `stat` vs `lstat`, present vs absent options, empty vs populated\n\
         /// lists) are driven by the [`Fuzz`] inputs rather than extra shapes.\n\
         pub const SYSCALL_SHAPES: usize = {};\n\n\
         /// Number of distinct [`SysResult`] shapes [`make_result`] produces.\n\
         pub const RESULT_SHAPES: usize = {};\n\n",
        abi.syscalls.len(),
        abi.results.len()
    ));
    out.push_str(
        "/// Signals a fuzzed call can carry (any would do; these exercise both\n\
         /// catchable and job-control numbers).\n\
         const SIGNALS: &[Signal] = &[Signal::SIGTERM, Signal::SIGINT, Signal::SIGCHLD, Signal::SIGTTIN];\n\n",
    );

    out.push_str(
        "/// Builds the `shape`-th syscall variant from the fuzz inputs, covering\n\
         /// every variant of the enum as `shape` sweeps `0..SYSCALL_SHAPES`.\n\
         pub fn make_call(shape: usize, f: &Fuzz) -> Syscall {\n\
         \x20   let fd = f.small as i32 % 128;\n\
         \x20   let path = format!(\"/{}\", f.text);\n\
         \x20   let _ = (&fd, &path);\n\
         \x20   match shape % SYSCALL_SHAPES {\n",
    );
    for (i, sc) in abi.syscalls.iter().enumerate() {
        let arm = if i + 1 == abi.syscalls.len() {
            "_".to_string()
        } else {
            i.to_string()
        };
        if sc.args.is_empty() {
            out.push_str(&format!("        {arm} => Syscall::{},\n", sc.ident));
        } else {
            out.push_str(&format!("        {arm} => Syscall::{} {{\n", sc.ident));
            for argdef in &sc.args {
                out.push_str(&fuzz_field(&argdef.ty, &argdef.name));
            }
            out.push_str("        },\n");
        }
    }
    out.push_str("    }\n}\n\n");

    out.push_str(
        "/// Builds the `shape`-th result variant from the fuzz inputs.\n\
         pub fn make_result(shape: usize, f: &Fuzz) -> SysResult {\n\
         \x20   let fd = f.small as i32 % 128;\n\
         \x20   let path = format!(\"/{}\", f.text);\n\
         \x20   let _ = (&fd, &path);\n\
         \x20   match shape % RESULT_SHAPES {\n",
    );
    for (i, res) in abi.results.iter().enumerate() {
        let arm = if i + 1 == abi.results.len() {
            "_".to_string()
        } else {
            i.to_string()
        };
        match res.kind {
            ResultKind::Unit => out.push_str(&format!("        {arm} => SysResult::{},\n", res.ident)),
            ResultKind::Tuple => {
                let exprs: Vec<String> = res.fields.iter().map(|f| fuzz_expr(&f.ty, &f.name)).collect();
                out.push_str(&format!(
                    "        {arm} => SysResult::{}({}),\n",
                    res.ident,
                    exprs.join(", ")
                ));
            }
            ResultKind::Struct => {
                out.push_str(&format!("        {arm} => SysResult::{} {{\n", res.ident));
                for field in &res.fields {
                    out.push_str(&fuzz_field(&field.ty, &field.name));
                }
                out.push_str("        },\n");
            }
        }
    }
    out.push_str("    }\n}\n");
    out
}
