//! `browsix-abigen`: the one-source-of-truth compiler for the Browsix
//! syscall ABI.
//!
//! The checked-in IDL file `abi/syscalls.abi` describes every system call
//! (name, opcode, argument/result types, errno set, ring read cap, doc
//! comments) and every result shape.  This crate parses that file into an
//! [`Abi`] model and generates, deterministically:
//!
//! * the `Syscall`/`SysResult` enums and their wire codec
//!   ([`codegen::gen_core`], included by `browsix-core`'s `build.rs`),
//! * the kernel dispatch match ([`codegen::gen_dispatch`]),
//! * the ABI manifest plus the ring read clamp
//!   ([`codegen::gen_abi_mod`]),
//! * typed `SyscallClient` submission stubs ([`codegen::gen_client`]),
//! * the proptest shape builders ([`codegen::gen_shapes`]), and
//! * the human-readable reference `docs/ABI.md` ([`docs::render`]).
//!
//! The crate is dependency-free on purpose (it must build in an offline
//! container as a build-dependency) and the parser is a small line-oriented
//! reader rather than a general grammar: the IDL is append-mostly and edited
//! by hand, so clear error messages beat syntactic generality.

pub mod codegen;
pub mod docs;

use std::fmt;

/// Wire types an argument or result field can carry.
///
/// Each type knows its Rust representation, its wire layout, and the code
/// fragments the generators splice together; adding a new type here is the
/// only step needed to use it from the IDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// Little-endian `i32`.
    I32,
    /// Little-endian `u32`.
    U32,
    /// Little-endian `u16`.
    U16,
    /// Little-endian `u64`.
    U64,
    /// Little-endian `i64`.
    I64,
    /// One byte, `0` or `1`.
    Bool,
    /// `u32` length prefix + UTF-8 bytes.
    Str,
    /// `u32` length prefix + raw bytes.
    Bytes,
    /// Tagged byte source: inline bytes, a shared-heap window, or an item of
    /// the transfer list travelling beside a message frame.
    ByteSrc,
    /// Signal number as `i32`; unknown numbers fail decode.
    Signal,
    /// Signal action as one byte (0 default, 1 ignore, 2 handler,
    /// 3 handler+restart); other bytes fail decode.
    SigAction,
    /// Open flags as a `u32` bit word; invalid combinations fail decode.
    OpenFlags,
    /// Process id as `u32`.
    Pid,
    /// `bool` presence byte, then a string when present.
    OptionStr,
    /// `u32` count, then that many strings.
    ListStr,
    /// `u32` count, then that many key/value string pairs.
    ListPair,
    /// Exactly three optional descriptors (stdin/stdout/stderr), each a
    /// `bool` presence byte then an `i32` when present.
    Stdio3,
    /// `u32` count, then `i32` fd + `u16` events per entry.
    ListPollFd,
    /// Fixed metadata record: `u64` size, `u32` mode, `u64` mtime,
    /// `u64` atime, `bool` is-dir.
    Metadata,
    /// `u32` count, then `bool` is-dir + string name per entry.
    ListDirEnt,
    /// `u32` count, then that many `u16` words.
    ListU16,
    /// Errno code as `i32`; unknown codes fail decode.
    Errno,
}

impl Ty {
    /// Parses the IDL spelling of a type.
    pub fn parse(s: &str) -> Result<Ty, String> {
        Ok(match s {
            "i32" => Ty::I32,
            "u32" => Ty::U32,
            "u16" => Ty::U16,
            "u64" => Ty::U64,
            "i64" => Ty::I64,
            "bool" => Ty::Bool,
            "string" => Ty::Str,
            "bytes" => Ty::Bytes,
            "byte_source" => Ty::ByteSrc,
            "signal" => Ty::Signal,
            "sigaction" => Ty::SigAction,
            "open_flags" => Ty::OpenFlags,
            "pid" => Ty::Pid,
            "option<string>" => Ty::OptionStr,
            "list<string>" => Ty::ListStr,
            "list<pair<string,string>>" => Ty::ListPair,
            "stdio3" => Ty::Stdio3,
            "list<pollfd>" => Ty::ListPollFd,
            "metadata" => Ty::Metadata,
            "list<dirent>" => Ty::ListDirEnt,
            "list<u16>" => Ty::ListU16,
            "errno" => Ty::Errno,
            other => return Err(format!("unknown wire type `{other}`")),
        })
    }

    /// The IDL spelling (inverse of [`Ty::parse`]).
    pub fn idl_name(&self) -> &'static str {
        match self {
            Ty::I32 => "i32",
            Ty::U32 => "u32",
            Ty::U16 => "u16",
            Ty::U64 => "u64",
            Ty::I64 => "i64",
            Ty::Bool => "bool",
            Ty::Str => "string",
            Ty::Bytes => "bytes",
            Ty::ByteSrc => "byte_source",
            Ty::Signal => "signal",
            Ty::SigAction => "sigaction",
            Ty::OpenFlags => "open_flags",
            Ty::Pid => "pid",
            Ty::OptionStr => "option<string>",
            Ty::ListStr => "list<string>",
            Ty::ListPair => "list<pair<string,string>>",
            Ty::Stdio3 => "stdio3",
            Ty::ListPollFd => "list<pollfd>",
            Ty::Metadata => "metadata",
            Ty::ListDirEnt => "list<dirent>",
            Ty::ListU16 => "list<u16>",
            Ty::Errno => "errno",
        }
    }

    /// The wire layout of one field of this type, for documentation.
    pub fn layout(&self, name: &str) -> String {
        match self {
            Ty::I32 => format!("i32 {name}"),
            Ty::U32 => format!("u32 {name}"),
            Ty::U16 => format!("u16 {name}"),
            Ty::U64 => format!("u64 {name}"),
            Ty::I64 => format!("i64 {name}"),
            Ty::Bool => format!("bool {name}"),
            Ty::Str => format!("str {name}"),
            Ty::Bytes => format!("bytes {name}"),
            Ty::ByteSrc => format!("u8 tag | (bytes {name} ⊕ u32 offset + u32 len ⊕ u32 index + u32 len)"),
            Ty::Signal => format!("i32 {name}"),
            Ty::SigAction => format!("u8 {name}"),
            Ty::OpenFlags => format!("u32 {name}"),
            Ty::Pid => format!("u32 {name}"),
            Ty::OptionStr => format!("bool has_{name} | str {name}?"),
            Ty::ListStr => format!("u32 n_{name} | str × n"),
            Ty::ListPair => format!("u32 n_{name} | (str key + str value) × n"),
            Ty::Stdio3 => "(bool present | i32 fd?) × 3".to_string(),
            Ty::ListPollFd => format!("u32 n_{name} | (i32 fd + u16 events) × n"),
            Ty::Metadata => "u64 size | u32 mode | u64 mtime_ms | u64 atime_ms | bool is_dir".to_string(),
            Ty::ListDirEnt => format!("u32 n_{name} | (bool is_dir + str name) × n"),
            Ty::ListU16 => format!("u32 n_{name} | u16 × n"),
            Ty::Errno => format!("i32 {name}"),
        }
    }
}

/// One named field: a syscall argument or a result payload component.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name in the Rust enum (and on the wire layout docs).
    pub name: String,
    /// Optional rebind used by the kernel dispatch pattern (e.g. a `pid`
    /// field rebound to `target` so it cannot shadow the caller's pid).
    pub bind: Option<String>,
    /// Wire type.
    pub ty: Ty,
    /// Doc lines (no leading `///`).
    pub docs: Vec<String>,
}

impl FieldDef {
    /// The name the dispatch arm sees this field under.
    pub fn bound_name(&self) -> &str {
        self.bind.as_deref().unwrap_or(&self.name)
    }
}

/// Whether the generator emits a typed `SyscallClient` stub for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StubKind {
    /// Emit the standard `sys_<name>` submission stub.
    Default,
    /// No stub: the call needs bespoke client handling (e.g. `exit` is
    /// fire-and-forget, `ring_setup` is part of the transport bring-up).
    None,
}

/// One system call: everything the generators and the reference manual know
/// about it.
#[derive(Debug, Clone)]
pub struct SyscallDef {
    /// Rust enum variant identifier, e.g. `Spawn`.
    pub ident: String,
    /// Wire opcode; append-only, never reused.
    pub opcode: u8,
    /// Wire/statistics name, e.g. `"llseek"`.
    pub wire_name: String,
    /// Optional `(bool_field, name)` pair: when the field is true the call
    /// reports the alternate name (`stat` vs `lstat`).
    pub alt_name: Option<(String, String)>,
    /// Figure 3 class, e.g. `"File IO"`.
    pub class: String,
    /// The `u32` length argument the kernel clamps when the call arrives by
    /// ring (`ring: data-capped(FIELD)`): a read returns at most what the
    /// ring's registered buffers can carry back.
    pub ring_cap: Option<String>,
    /// Result shape description for the manual, e.g. `Int (new pid)`.
    pub result_doc: String,
    /// Errnos this call can fail with (documentation, not enforcement).
    pub errnos: Vec<String>,
    /// Doc lines.
    pub docs: Vec<String>,
    /// Arguments, in wire order.
    pub args: Vec<FieldDef>,
    /// Verbatim dispatch expression, e.g. `self.sys_open(pid, path, flags,
    /// mode)`.
    pub dispatch: String,
    /// Verbatim match-pattern override (defaults to binding every arg).
    pub bindpat: Option<String>,
    /// Client stub policy.
    pub stub: StubKind,
}

/// Shape of a result variant's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultKind {
    /// No payload (`SysResult::Ok`).
    Unit,
    /// Positional payload (`SysResult::Int(i64)`).
    Tuple,
    /// Named payload (`SysResult::Wait { pid, status }`).
    Struct,
}

/// One result variant of the ABI.
#[derive(Debug, Clone)]
pub struct ResultDef {
    /// Rust enum variant identifier.
    pub ident: String,
    /// Wire tag; append-only, never reused.
    pub tag: u8,
    /// Payload shape.
    pub kind: ResultKind,
    /// Payload fields, in wire order.
    pub fields: Vec<FieldDef>,
    /// Doc lines.
    pub docs: Vec<String>,
}

/// The parsed ABI: the single source of truth everything else is generated
/// from.
#[derive(Debug, Clone)]
pub struct Abi {
    /// Wire codec version (the byte after the frame magic).
    pub version: u8,
    /// Every system call, in opcode order.
    pub syscalls: Vec<SyscallDef>,
    /// Every result variant, in tag order.
    pub results: Vec<ResultDef>,
}

/// A parse failure, with the 1-based line it happened on.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number in the IDL file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "abi parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Strips surrounding double quotes, erroring if they are missing.
fn unquote(line: usize, s: &str) -> Result<String, ParseError> {
    let s = s.trim();
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        Ok(s[1..s.len() - 1].to_string())
    } else {
        Err(err(line, format!("expected a quoted string, got `{s}`")))
    }
}

/// Parses the one ring annotation, `data-capped(FIELD)`, to its field name.
fn parse_ring_cap(line: usize, value: &str) -> Result<String, ParseError> {
    value
        .trim()
        .strip_prefix("data-capped(")
        .and_then(|rest| rest.strip_suffix(')'))
        .map(|field| field.trim().to_string())
        .ok_or_else(|| {
            err(
                line,
                format!("`ring:` takes `data-capped(field)`, got `{}`", value.trim()),
            )
        })
}

/// Parses an arg/field declaration: `NAME: TYPE` or `NAME: TYPE as BIND`.
fn parse_field(line: usize, decl: &str, docs: Vec<String>) -> Result<FieldDef, ParseError> {
    let (name, rest) = decl
        .split_once(':')
        .ok_or_else(|| err(line, format!("expected `name: type`, got `{decl}`")))?;
    let rest = rest.trim();
    let (ty_str, bind) = match rest.split_once(" as ") {
        Some((t, b)) => (t.trim(), Some(b.trim().to_string())),
        None => (rest, None),
    };
    let ty = Ty::parse(ty_str).map_err(|e| err(line, e))?;
    Ok(FieldDef {
        name: name.trim().to_string(),
        bind,
        ty,
        docs,
    })
}

/// Parses the IDL text into an [`Abi`], validating opcode/tag uniqueness and
/// internal references.
pub fn parse(text: &str) -> Result<Abi, ParseError> {
    let mut version: Option<u8> = None;
    let mut syscalls: Vec<SyscallDef> = Vec::new();
    let mut results: Vec<ResultDef> = Vec::new();

    let mut pending_docs: Vec<String> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") && !line.starts_with("///") {
            continue;
        }
        if let Some(doc) = line.strip_prefix("///") {
            pending_docs.push(doc.strip_prefix(' ').unwrap_or(doc).to_string());
            continue;
        }
        if let Some(v) = line.strip_prefix("version ") {
            version = Some(v.trim().parse().map_err(|_| err(ln, "bad version number"))?);
            continue;
        }
        let (keyword, is_syscall) = if line.starts_with("syscall ") {
            ("syscall ", true)
        } else if line.starts_with("result ") {
            ("result ", false)
        } else {
            return Err(err(ln, format!("unexpected top-level line `{line}`")));
        };
        let decl = line[keyword.len()..].trim_end_matches('{').trim();
        let (ident, num) = decl
            .split_once('=')
            .ok_or_else(|| err(ln, format!("expected `{} Name = N {{`", keyword.trim())))?;
        let ident = ident.trim().to_string();
        let num: u8 = num
            .trim()
            .parse()
            .map_err(|_| err(ln, format!("bad opcode/tag `{}`", num.trim())))?;
        let docs = std::mem::take(&mut pending_docs);

        // Block body.
        let mut body_docs: Vec<String> = Vec::new();
        let mut name = None;
        let mut alt_name = None;
        let mut class = None;
        let mut ring_cap = None;
        let mut result_doc = String::new();
        let mut errnos = Vec::new();
        let mut dispatch = None;
        let mut bindpat = None;
        let mut stub = StubKind::Default;
        let mut kind = None;
        let mut fields: Vec<FieldDef> = Vec::new();
        let mut closed = false;

        for (bidx, braw) in lines.by_ref() {
            let bln = bidx + 1;
            let bline = braw.trim();
            if bline.is_empty() || bline.starts_with("//") && !bline.starts_with("///") {
                continue;
            }
            if bline == "}" {
                closed = true;
                break;
            }
            if let Some(doc) = bline.strip_prefix("///") {
                body_docs.push(doc.strip_prefix(' ').unwrap_or(doc).to_string());
                continue;
            }
            if let Some(decl) = bline.strip_prefix("arg ") {
                fields.push(parse_field(bln, decl, std::mem::take(&mut body_docs))?);
                continue;
            }
            if let Some(decl) = bline.strip_prefix("field ") {
                fields.push(parse_field(bln, decl, std::mem::take(&mut body_docs))?);
                continue;
            }
            let (key, value) = bline
                .split_once(':')
                .ok_or_else(|| err(bln, format!("unexpected line `{bline}` in block")))?;
            let value = value.trim();
            match key.trim() {
                "name" => name = Some(unquote(bln, value)?),
                "altname" => {
                    let (field, alt) = value
                        .split_once(' ')
                        .ok_or_else(|| err(bln, "altname needs `field \"name\"`"))?;
                    alt_name = Some((field.trim().to_string(), unquote(bln, alt)?));
                }
                "class" => class = Some(unquote(bln, value)?),
                "ring" => ring_cap = Some(parse_ring_cap(bln, value)?),
                "result" => result_doc = value.to_string(),
                "errno" => errnos = value.split_whitespace().map(str::to_string).collect(),
                "dispatch" => dispatch = Some(value.to_string()),
                "bindpat" => bindpat = Some(value.to_string()),
                "stub" => {
                    stub = match value {
                        "none" => StubKind::None,
                        other => return Err(err(bln, format!("unknown stub policy `{other}`"))),
                    }
                }
                "kind" => {
                    kind = Some(match value {
                        "unit" => ResultKind::Unit,
                        "tuple" => ResultKind::Tuple,
                        "struct" => ResultKind::Struct,
                        other => return Err(err(bln, format!("unknown result kind `{other}`"))),
                    })
                }
                other => return Err(err(bln, format!("unknown key `{other}`"))),
            }
        }
        if !closed {
            return Err(err(ln, format!("block `{ident}` never closed")));
        }

        if is_syscall {
            syscalls.push(SyscallDef {
                ident: ident.clone(),
                opcode: num,
                wire_name: name.ok_or_else(|| err(ln, format!("syscall `{ident}` missing `name:`")))?,
                alt_name,
                class: class.ok_or_else(|| err(ln, format!("syscall `{ident}` missing `class:`")))?,
                ring_cap,
                result_doc,
                errnos,
                docs,
                args: fields,
                dispatch: dispatch.ok_or_else(|| err(ln, format!("syscall `{ident}` missing `dispatch:`")))?,
                bindpat,
                stub,
            });
        } else {
            results.push(ResultDef {
                ident: ident.clone(),
                tag: num,
                kind: kind.ok_or_else(|| err(ln, format!("result `{ident}` missing `kind:`")))?,
                fields,
                docs,
            });
        }
    }

    let abi = Abi {
        version: version.ok_or_else(|| err(1, "missing `version N` header"))?,
        syscalls,
        results,
    };
    validate(&abi)?;
    Ok(abi)
}

/// Structural checks beyond syntax: unique/dense opcodes, unique tags,
/// resolvable ring-cap and altname field references.
fn validate(abi: &Abi) -> Result<(), ParseError> {
    let mut seen = std::collections::BTreeSet::new();
    for sc in &abi.syscalls {
        if !seen.insert(sc.opcode) {
            return Err(err(0, format!("duplicate opcode {} ({})", sc.opcode, sc.ident)));
        }
        if sc.opcode == 0 {
            return Err(err(0, "opcode 0 is reserved (never valid on the wire)"));
        }
        let field_names: Vec<&str> = sc.args.iter().map(|a| a.name.as_str()).collect();
        if let Some(f) = &sc.ring_cap {
            if !sc.args.iter().any(|a| a.name == *f && a.ty == Ty::U32) {
                return Err(err(
                    0,
                    format!("{}: ring cap needs a `u32` argument named `{f}`", sc.ident),
                ));
            }
        }
        if let Some((f, _)) = &sc.alt_name {
            if !field_names.contains(&f.as_str()) {
                return Err(err(0, format!("{}: altname references unknown field `{f}`", sc.ident)));
            }
        }
    }
    // Opcodes must be dense from 1: a gap means a number was skipped or
    // retired, which the append-only compat rule forbids.
    let max = seen.iter().next_back().copied().unwrap_or(0);
    if seen.len() != max as usize {
        return Err(err(0, format!("opcodes must be dense 1..={max} with no gaps")));
    }
    let mut tags = std::collections::BTreeSet::new();
    for res in &abi.results {
        if !tags.insert(res.tag) {
            return Err(err(0, format!("duplicate result tag {} ({})", res.tag, res.ident)));
        }
        match res.kind {
            ResultKind::Unit if !res.fields.is_empty() => {
                return Err(err(0, format!("{}: unit result cannot have fields", res.ident)));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Loads and parses an IDL file from disk.
pub fn load(path: &std::path::Path) -> Result<Abi, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(parse(&text)?)
}

/// One-line generation manifest: the counts CI and `table1_features` print
/// so ABI growth is visible in the paper figures.
pub fn manifest_line(abi: &Abi) -> String {
    format!(
        "abi v{}: {} opcodes (max {}), {} result tags",
        abi.version,
        abi.syscalls.len(),
        abi.syscalls.iter().map(|s| s.opcode).max().unwrap_or(0),
        abi.results.len(),
    )
}
