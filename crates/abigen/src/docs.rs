//! Renders `docs/ABI.md` — the complete, human-readable ABI reference —
//! from the parsed IDL.
//!
//! The manual is generated and committed; CI regenerates it and fails on
//! any diff (`scripts/abigen_check.sh`), so it can never go stale the way
//! a hand-written spec would.

use crate::{Abi, ResultKind, SyscallDef, RETIRED_OPCODES, RETIRED_TAGS};

/// Renders the full reference manual as Markdown.
pub fn render(abi: &Abi) -> String {
    let mut out = String::new();
    out.push_str(
        "<!-- @generated by browsix-abigen from abi/syscalls.abi — do not edit.\n\
         \x20    Regenerate with: cargo run -p browsix-abigen -- docs abi/syscalls.abi docs/ABI.md -->\n\n",
    );
    out.push_str("# Browsix-on-Rust syscall ABI reference\n\n");
    out.push_str(&format!(
        "Wire codec version **{}** · {} syscalls · {} result tags.\n\n\
         This file is rendered from [`abi/syscalls.abi`](../abi/syscalls.abi), the\n\
         single definition point for the syscall surface. Everything below —\n\
         opcode numbers, wire layouts, ring read caps, errno sets — is the\n\
         same data the build generates the Rust codec, kernel dispatch and fuzz\n\
         shapes from, so this document cannot drift from the implementation\n\
         (CI re-renders it and fails on any diff).\n\n",
        abi.version,
        abi.syscalls.len(),
        abi.results.len()
    ));

    out.push_str(
        "## Compatibility rules\n\n\
         * **Opcodes and result tags are append-only.** A number, once assigned,\n\
         \x20 is never reused or renumbered — a retired call keeps its opcode\n\
         \x20 reserved forever (listed below the opcode table). New calls take\n\
         \x20 `max opcode + 1`.\n\
         * **Existing wire layouts are frozen.** Changing the fields of a shipped\n\
         \x20 call requires a new opcode (e.g. an `openat` next to `open`), not an\n\
         \x20 edit; the pinned golden corpus (`abi/golden_corpus.txt`) enforces\n\
         \x20 byte-stability in `tests/tests/abi_drift.rs`.\n\
         * **Decode is total or `None`.** Truncated frames, unknown opcodes,\n\
         \x20 unknown tags, invalid signal numbers, invalid flag words all fail\n\
         \x20 decode cleanly; nothing panics on wire input.\n\n",
    );

    out.push_str(
        "## Transports and framing\n\n\
         Two transports share one codec. Over **messages** (every browser) calls\n\
         travel in a **syscall batch** and results in a **completion batch**,\n\
         each one `postMessage`. Over the **ring** (a process with a\n\
         `SharedArrayBuffer` heap) each slot carries one bare `syscall` or\n\
         `result`.\n\n\
         ```text\n\
         syscall batch:     u8 magic 0x42 | u8 version | u32 count | count × syscall\n\
         completion batch:  u8 magic 0x43 | u8 version | u32 count | count × (u32 index | result)\n\
         syscall:           u8 opcode | args (layouts below)\n\
         result:            u8 tag    | payload (layouts below)\n\
         ring slot:         u32 user_data | u32 length word | payload\n\
         ```\n\n\
         All integers are little-endian. Strings and byte buffers are\n\
         `u32` length-prefixed; strings are UTF-8. A `byte_source` argument is a\n\
         tagged union: tag `0` = inline length-prefixed bytes, tag `1` = a\n\
         `(u32 offset, u32 len)` window into the shared heap (the ring's\n\
         zero-copy path), tag `2` = `(u32 index, u32 len)`, an item of the\n\
         message's transfer list (the message transport's).\n\n\
         ### The transfer list rides beside a message frame\n\n\
         A message is `postMessage(frame, [buf…])`: the frame is cloned, the\n\
         buffers in the transfer list are *moved*. A payload of at least\n\
         `DETACH_MIN_BYTES` (1 KiB; a property of the codec, not an option)\n\
         leaves the frame and becomes a transfer-list item — a `byte_source`\n\
         tag `2` on the way in, a `DataTransfer` result (tag 10) on the way\n\
         out — and the receiver re-attaches it, by move, as the inline bytes\n\
         or `Data` result it stands for. Smaller payloads encode inline, byte\n\
         for byte as they always have. Each item may be referenced once, by\n\
         its index and exact length: an index out of range, a length that\n\
         disagrees with the buffer, a second reference to the same item, or\n\
         either tag arriving where there is no transfer list (a ring slot)\n\
         is `EINVAL` for that call alone.\n\n\
         ### The ring carries every call\n\n\
         A process hands the kernel its heap, one event with no reply, and the\n\
         kernel maps the ring at its fixed place in it (`browsix_core::ring`;\n\
         the process chooses no part of the layout). From then on every call it\n\
         makes, `exit` included, is a ring entry; it sends no message frame. An\n\
         entry that does not fit its slot is **spilled**: bit 31 of the length\n\
         word (`INDIRECT`) makes the payload a `(u32 a, u32 len)` reference — for\n\
         a submission a byte offset into the process's heap, for a completion the\n\
         first of ⌈len / 64 KiB⌉ adjacent registered buffers. A reference that fails\n\
         its bounds check reads as `EFAULT`; a result larger than the whole\n\
         buffer table completes with `EOVERFLOW`, so calls with a **read cap**\n\
         below have that length clamped when they arrive by ring (a short read;\n\
         `browsix_core::abi::cap_ring_read`).\n\n",
    );

    // ---- opcode table ------------------------------------------------------
    out.push_str("## Opcode table\n\n");
    out.push_str("| op | name | class | read cap | result | errnos |\n");
    out.push_str("|---:|------|-------|----------|--------|--------|\n");
    for sc in &abi.syscalls {
        let name = match &sc.alt_name {
            Some((_, alt)) => format!("[{}](#{}) / {}", sc.wire_name, anchor(sc), alt),
            None => format!("[{}](#{})", sc.wire_name, anchor(sc)),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            sc.opcode,
            name,
            sc.class,
            sc.ring_cap.as_deref().unwrap_or("—"),
            if sc.result_doc.is_empty() {
                "—"
            } else {
                &sc.result_doc
            },
            if sc.errnos.is_empty() {
                "—".to_string()
            } else {
                sc.errnos.join(" ")
            }
        ));
    }
    let retired: Vec<String> = RETIRED_OPCODES.iter().map(u8::to_string).collect();
    out.push_str(&format!(
        "\nRetired opcodes, never to be reused: {}.\n\n",
        retired.join(", ")
    ));

    // ---- per-class sections ------------------------------------------------
    out.push_str("## Syscalls by class\n\n");
    let mut classes: Vec<&str> = Vec::new();
    for sc in &abi.syscalls {
        if !classes.contains(&sc.class.as_str()) {
            classes.push(&sc.class);
        }
    }
    for class in classes {
        out.push_str(&format!("### {class}\n\n"));
        for sc in abi.syscalls.iter().filter(|s| s.class == class) {
            render_syscall(&mut out, sc);
        }
    }

    // ---- result tags -------------------------------------------------------
    out.push_str("## Result tags\n\n");
    let retired: Vec<String> = RETIRED_TAGS.iter().map(u8::to_string).collect();
    out.push_str(&format!(
        "A completion carries exactly one of these, identified by its leading\n\
         tag byte. Tag numbering is append-only, like opcodes; `255` is the\n\
         error tag. Retired, never to be reused: {}.\n\n",
        retired.join(", ")
    ));
    for res in &abi.results {
        let layout: Vec<String> = res.fields.iter().map(|f| f.ty.layout(&f.name)).collect();
        let shape = match res.kind {
            ResultKind::Unit => "(no payload)".to_string(),
            _ => layout.join(" | "),
        };
        out.push_str(&format!("### `{}` — tag {}\n\n", res.ident, res.tag));
        for line in &res.docs {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!("\n```text\nu8 tag {} | {}\n```\n\n", res.tag, shape));
        for field in &res.fields {
            if !field.docs.is_empty() {
                out.push_str(&format!("* `{}` — {}\n", field.name, field.docs.join(" ")));
            }
        }
        if res.fields.iter().any(|f| !f.docs.is_empty()) {
            out.push('\n');
        }
    }

    out.push_str(
        "## Errno semantics\n\n\
         Errnos travel as their Linux `i32` codes inside the `Err` result\n\
         (tag 255) and are listed per call above as documentation of the\n\
         *expected* failure set — the kernel may surface others (e.g. `EINTR`\n\
         on signal delivery, `ENOSYS` from an environment without a kernel\n\
         connection). `SysResult::as_linux_return` folds a result into the\n\
         conventional negative-errno scalar for flat ABIs.\n",
    );
    out
}

fn anchor(sc: &SyscallDef) -> String {
    // GitHub-style anchor for `### `name` — opcode N` headings.
    format!("{}--opcode-{}", sc.wire_name.replace('.', ""), sc.opcode)
}

fn render_syscall(out: &mut String, sc: &SyscallDef) {
    out.push_str(&format!("### `{}` — opcode {}\n\n", sc.wire_name, sc.opcode));
    if let Some((field, alt)) = &sc.alt_name {
        out.push_str(&format!("Reported as `{alt}` when `{field}` is set.\n\n"));
    }
    for line in &sc.docs {
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    let layout: Vec<String> = sc.args.iter().map(|a| a.ty.layout(&a.name)).collect();
    let args = if layout.is_empty() {
        "(no arguments)".to_string()
    } else {
        layout.join(" | ")
    };
    out.push_str(&format!("```text\nu8 op {} | {}\n```\n\n", sc.opcode, args));
    for arg in &sc.args {
        if !arg.docs.is_empty() {
            out.push_str(&format!(
                "* `{}`: `{}` — {}\n",
                arg.name,
                arg.ty.idl_name(),
                arg.docs.join(" ")
            ));
        }
    }
    if sc.args.iter().any(|a| !a.docs.is_empty()) {
        out.push('\n');
    }
    let ring_cap = match &sc.ring_cap {
        Some(field) => format!(" · **Ring:** `{field}` clamped to the buffer table"),
        None => String::new(),
    };
    out.push_str(&format!(
        "**Result:** {}{}{}\n\n",
        if sc.result_doc.is_empty() {
            "`Ok`"
        } else {
            &sc.result_doc
        },
        ring_cap,
        if sc.errnos.is_empty() {
            String::new()
        } else {
            format!(" · **Errnos:** {}", sc.errnos.join(", "))
        }
    ));
}
