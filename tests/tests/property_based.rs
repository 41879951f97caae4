//! Property-based tests (proptest) over core data structures and invariants.

use proptest::prelude::*;

use browsix_browser::Message;
use browsix_core::{
    Completion, CompletionBatch, SigSet, Signal, SignalState, SyscallBatch, SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK,
};
use browsix_fs::{path, FileSystem, MemFs, OpenFlags};
use browsix_http::Json;

// The call/result shape builders (`make_call`/`make_result`) are generated
// from `abi/syscalls.abi` by `browsix-abigen` (see `build.rs`): one shape per
// opcode and one per result tag, with alternate encodings (inline vs
// shared-heap byte sources, `stat` vs `lstat`, empty vs populated lists)
// driven by the fuzz inputs.  The round-trip properties below therefore grow
// automatically whenever a syscall is added to the IDL.
mod abi_shapes {
    include!(concat!(env!("OUT_DIR"), "/shapes_gen.rs"));
}
use abi_shapes::{make_call, make_result, Fuzz, RESULT_SHAPES, SYSCALL_SHAPES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Path normalisation is idempotent and always yields an absolute path.
    #[test]
    fn normalize_is_idempotent_and_absolute(input in "[a-z./]{0,40}") {
        let once = path::normalize(&input);
        prop_assert!(once.starts_with('/'));
        prop_assert_eq!(path::normalize(&once), once.clone());
        prop_assert!(!once.contains("//"));
        prop_assert!(!path::components(&once).iter().any(|c| c == "." || c == ".."));
    }

    /// resolve() against a cwd always lands under "/" and is normalised.
    #[test]
    fn resolve_always_absolute(cwd in "(/[a-z]{1,8}){0,4}", rel in "[a-z./]{0,20}") {
        let resolved = path::resolve(&format!("/{cwd}"), &rel);
        prop_assert!(resolved.starts_with('/'));
        prop_assert_eq!(path::normalize(&resolved), resolved);
    }

    /// Writing then reading a file through MemFs returns exactly the bytes
    /// written, regardless of how the writes are split.
    #[test]
    fn memfs_write_read_round_trip(chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..8)) {
        let fs = MemFs::new();
        fs.create("/file", 0o644).unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            fs.write_at("/file", expected.len() as u64, chunk).unwrap();
            expected.extend_from_slice(chunk);
        }
        prop_assert_eq!(fs.read_file("/file").unwrap(), expected.clone());
        prop_assert_eq!(fs.stat("/file").unwrap().size as usize, expected.len());
    }

    /// The kernel stream buffer is a faithful FIFO: bytes come out in
    /// order and none are lost or invented, under arbitrary interleavings of
    /// push/pop (it fills and drains many times at this capacity).
    #[test]
    fn stream_preserves_fifo_byte_stream(ops in proptest::collection::vec((any::<bool>(), proptest::collection::vec(any::<u8>(), 0..64)), 1..40)) {
        let mut stream = browsix_core::Stream::new(1024);
        let mut sent: Vec<u8> = Vec::new();
        let mut received: Vec<u8> = Vec::new();
        for (is_write, data) in &ops {
            if *is_write {
                let accepted = stream.push(data);
                sent.extend_from_slice(&data[..accepted]);
            } else {
                received.extend(stream.pop(data.len().max(1)));
            }
        }
        received.extend(stream.pop(usize::MAX));
        prop_assert_eq!(received, sent);
    }

    /// Every `Syscall` variant round-trips through the wire codec
    /// (`encode → decode == id`), with fuzzed strings, buffers and scalars.
    /// Both transport conventions carry exactly this encoding, so this is the
    /// round-trip property for the whole submission path.
    #[test]
    fn every_syscall_variant_round_trips(
        text in "[a-z0-9._ -]{0,24}",
        data in proptest::collection::vec(any::<u8>(), 0..256),
        num in any::<i64>(),
        small in any::<u32>(),
        flag in any::<bool>(),
    ) {
        let fuzz = Fuzz { text, data, num, small, flag };
        for shape in 0..SYSCALL_SHAPES {
            let call = make_call(shape, &fuzz);
            let batch = SyscallBatch::single(call.clone());
            let decoded = SyscallBatch::decode(&batch.encode());
            prop_assert_eq!(decoded, Some(batch), "variant {} ({})", shape, call.name());
        }
    }

    /// Every `SysResult` variant round-trips through the wire codec, both
    /// alone and inside a completion batch with out-of-order indices.
    #[test]
    fn every_sysresult_variant_round_trips(
        text in "[a-z0-9._ -]{0,24}",
        data in proptest::collection::vec(any::<u8>(), 0..256),
        num in any::<i64>(),
        small in any::<u32>(),
        flag in any::<bool>(),
    ) {
        let fuzz = Fuzz { text, data, num, small, flag };
        let completions: Vec<Completion> = (0..RESULT_SHAPES)
            .map(|shape| Completion {
                // Reversed indices: completion order need not match
                // submission order.
                index: (RESULT_SHAPES - 1 - shape) as u32,
                result: make_result(shape, &fuzz),
            })
            .collect();
        let batch = CompletionBatch { completions };
        let decoded = CompletionBatch::decode(&batch.encode());
        prop_assert_eq!(decoded, Some(batch));
    }

    /// Mixed batches of arbitrary size and variant composition round-trip
    /// entry for entry, in order.
    #[test]
    fn mixed_batches_round_trip(
        shapes in proptest::collection::vec(0usize..SYSCALL_SHAPES, 1..12),
        text in "[a-z0-9._-]{0,16}",
        data in proptest::collection::vec(any::<u8>(), 0..64),
        num in any::<i64>(),
        small in any::<u32>(),
        flag in any::<bool>(),
    ) {
        let fuzz = Fuzz { text, data, num, small, flag };
        let batch = SyscallBatch {
            entries: shapes.iter().map(|&shape| make_call(shape, &fuzz)).collect(),
        };
        let decoded = SyscallBatch::decode(&batch.encode()).unwrap();
        prop_assert_eq!(decoded.len(), shapes.len());
        prop_assert_eq!(decoded, batch);
    }

    /// Flipping the frame's magic or version byte always makes it invalid;
    /// the decoder never panics on arbitrary prefixes of a valid frame.
    #[test]
    fn corrupted_frames_never_decode_to_garbage(
        shapes in proptest::collection::vec(0usize..SYSCALL_SHAPES, 1..6),
        cut in any::<prop::sample::Index>(),
        num in any::<i64>(),
    ) {
        let fuzz = Fuzz { text: "x".into(), data: vec![1, 2, 3], num, small: 7, flag: true };
        let batch = SyscallBatch {
            entries: shapes.iter().map(|&shape| make_call(shape, &fuzz)).collect(),
        };
        let encoded = batch.encode();

        let mut bad_magic = encoded.clone();
        bad_magic[0] ^= 0xff;
        prop_assert_eq!(SyscallBatch::decode(&bad_magic), None);

        let mut bad_version = encoded.clone();
        bad_version[1] ^= 0xff;
        prop_assert_eq!(SyscallBatch::decode(&bad_version), None);

        // A strict prefix is truncated and must decode to None (never panic).
        let len = cut.index(encoded.len().max(1));
        prop_assert_eq!(SyscallBatch::decode(&encoded[..len]), None);
    }

    /// Structured-clone messages report a byte size at least as large as the
    /// payload they carry (the clone-cost model never undercounts).
    #[test]
    fn message_byte_size_bounds_payload(data in proptest::collection::vec(any::<u8>(), 0..2048), key in "[a-z]{1,8}") {
        let msg = Message::map().with(&key, data.clone());
        prop_assert!(msg.byte_size() >= data.len());
    }

    /// JSON encode/decode round-trips for strings, numbers and nested arrays.
    #[test]
    fn json_round_trips(s in "[ -~]{0,32}", n in -1_000_000i64..1_000_000, items in proptest::collection::vec(-1000i64..1000, 0..8)) {
        let value = Json::object()
            .with("s", s.as_str())
            .with("n", n)
            .with("items", Json::Array(items.iter().map(|&i| Json::from(i)).collect()));
        let decoded = Json::decode(&value.encode()).unwrap();
        prop_assert_eq!(decoded, value);
    }

    /// The shell lexer never loses non-whitespace characters of unquoted
    /// words, and parsing a pipeline of simple words always succeeds.
    #[test]
    fn shell_parses_simple_pipelines(words in proptest::collection::vec("[a-z0-9._-]{1,10}", 1..6)) {
        let line = words.join(" | ");
        let script = browsix_shell::parse_script(&line).unwrap();
        prop_assert_eq!(script.entries.len(), 1);
        prop_assert_eq!(script.entries[0].1.commands.len(), words.len());
        for (command, word) in script.entries[0].1.commands.iter().zip(&words) {
            prop_assert_eq!(&command.words[0], word);
        }
    }

    /// Glob matching: a pattern equal to the name always matches, and `*`
    /// matches every name without separators.
    #[test]
    fn glob_matching_laws(name in "[a-z0-9._]{1,12}") {
        let prefix_pattern = format!("{name}*");
        prop_assert!(path::glob_match(&name, &name));
        prop_assert!(path::glob_match("*", &name));
        prop_assert!(path::glob_match(&prefix_pattern, &name));
    }

    /// SHA-1 digests are 20 bytes and differ when a byte is flipped.
    #[test]
    fn sha1_flip_changes_digest(mut data in proptest::collection::vec(any::<u8>(), 1..512), index in any::<prop::sample::Index>()) {
        let original = browsix_utils::sha1_digest(&data);
        prop_assert_eq!(original.len(), 20);
        let i = index.index(data.len());
        data[i] ^= 0xff;
        prop_assert_ne!(browsix_utils::sha1_digest(&data), original);
    }
}

// ---- non-blocking stream semantics vs a model ring buffer --------------------

/// What a non-blocking operation on a stream may observe.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StreamIo {
    /// Bytes read / byte count written.
    Progress(usize),
    /// Read at EOF (no writers, nothing buffered).
    Eof,
    /// The operation would block.
    WouldBlock,
    /// Write with no readers left.
    BrokenPipe,
}

/// The kernel's non-blocking read decision, expressed over any
/// "stream-like" view (used for both the real stream and the model).
fn nonblocking_read(len: usize, buffered: usize, writers_open: bool) -> StreamIo {
    if buffered > 0 {
        StreamIo::Progress(len.min(buffered))
    } else if !writers_open {
        StreamIo::Eof
    } else {
        StreamIo::WouldBlock
    }
}

/// The kernel's non-blocking write decision.
fn nonblocking_write(len: usize, space: usize, readers_open: bool) -> StreamIo {
    if !readers_open {
        StreamIo::BrokenPipe
    } else if space == 0 && len > 0 {
        StreamIo::WouldBlock
    } else {
        StreamIo::Progress(len.min(space))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of non-blocking reads, writes and end-closes
    /// against a plain `VecDeque` model: EAGAIN / EOF / EPIPE decisions, the
    /// bytes moved, and the readiness predicates must all agree with the
    /// model at every step.  These predicates are exactly what `poll`'s
    /// POLLIN/POLLOUT bits and the wait-queue wakeup conditions are built
    /// on, so this pins the whole readiness contract.
    #[test]
    fn nonblocking_stream_ops_match_model_ring_buffer(
        capacity in 1usize..48,
        ops in proptest::collection::vec((0u8..4, any::<u8>()), 1..48),
    ) {
        let mut stream = browsix_core::Stream::new(capacity);
        stream.readers = 1;
        stream.writers = 1;
        let mut model: std::collections::VecDeque<u8> = std::collections::VecDeque::new();
        let mut next_byte = 0u8;

        for &(code, amount) in &ops {
            let len = amount as usize % (capacity + 4);
            match code {
                0 => {
                    // Non-blocking write of `len` fresh bytes.
                    let expected = nonblocking_write(len, capacity - model.len(), stream.readers > 0);
                    let data: Vec<u8> = (0..len).map(|_| { next_byte = next_byte.wrapping_add(1); next_byte }).collect();
                    let actual = if stream.read_end_closed() {
                        StreamIo::BrokenPipe
                    } else {
                        match stream.push(&data) {
                            0 if len > 0 => StreamIo::WouldBlock,
                            accepted => StreamIo::Progress(accepted),
                        }
                    };
                    prop_assert_eq!(&actual, &expected);
                    if let StreamIo::Progress(accepted) = expected {
                        model.extend(data[..accepted].iter());
                    }
                }
                1 => {
                    // Non-blocking read of up to `len` bytes.
                    let expected = nonblocking_read(len, model.len(), stream.writers > 0);
                    let actual = if !stream.is_empty() {
                        StreamIo::Progress(stream.pop(len).len())
                    } else if stream.write_end_closed() {
                        StreamIo::Eof
                    } else {
                        StreamIo::WouldBlock
                    };
                    prop_assert_eq!(&actual, &expected);
                    if let StreamIo::Progress(taken) = expected {
                        model.drain(..taken);
                    }
                }
                2 => stream.readers = 0,
                _ => stream.writers = 0,
            }
            // Readiness bits agree with the model after every step.
            prop_assert_eq!(stream.len(), model.len());
            prop_assert_eq!(stream.read_ready(), !model.is_empty() || stream.writers == 0);
            prop_assert_eq!(stream.write_ready(), model.len() < capacity || stream.readers == 0);
        }
        // Whatever is left drains in FIFO order.
        let drained = stream.pop(usize::MAX);
        let expected: Vec<u8> = model.into_iter().collect();
        prop_assert_eq!(drained, expected);
    }
}

// ---- path helpers vs a model implementation ---------------------------------

/// Model semantics of path normalisation: the canonical component stack,
/// written against `Vec` operations only (no string surgery), so the real
/// implementation's string handling is checked against independent logic.
fn model_components(path: &str) -> Vec<String> {
    let mut stack: Vec<String> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                stack.pop();
            }
            other => stack.push(other.to_owned()),
        }
    }
    stack
}

fn model_normalize(path: &str) -> String {
    let stack = model_components(path);
    if stack.is_empty() {
        "/".to_owned()
    } else {
        let mut out = String::new();
        for comp in &stack {
            out.push('/');
            out.push_str(comp);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `normalize` agrees with the component-stack model on arbitrary messy
    /// inputs (dots, double slashes, leading-relative paths).
    #[test]
    fn normalize_agrees_with_model(input in "[a-z./]{0,48}") {
        prop_assert_eq!(path::normalize(&input), model_normalize(&input));
        prop_assert_eq!(path::components(&input), model_components(&input));
    }

    /// `starts_with`/`strip_prefix` agree with each other and with the
    /// component-prefix model: `q` is a prefix of `p` exactly when `q`'s
    /// component list is a prefix of `p`'s, and stripping then rejoining
    /// reconstructs the original path.
    #[test]
    fn prefix_helpers_agree_with_component_model(
        p in "(/[a-z]{1,6}){0,5}/?",
        q in "(/[a-z]{1,6}){0,5}/?",
    ) {
        let p_comps = model_components(&p);
        let q_comps = model_components(&q);
        let model_is_prefix = p_comps.len() >= q_comps.len() && p_comps[..q_comps.len()] == q_comps[..];

        prop_assert_eq!(path::starts_with(&p, &q), model_is_prefix);
        // starts_with and strip_prefix are two views of the same relation.
        let stripped = path::strip_prefix(&p, &q);
        prop_assert_eq!(stripped.is_some(), model_is_prefix);
        if let Some(rest) = stripped {
            prop_assert!(rest.starts_with('/'));
            // Rejoining the prefix and the remainder reconstructs the path.
            let rejoined = path::normalize(&format!("{}/{}", path::normalize(&q), rest));
            prop_assert_eq!(rejoined, path::normalize(&p));
        }
        // Reflexivity and the universal "/" prefix.
        prop_assert!(path::starts_with(&p, &p));
        prop_assert!(path::starts_with(&p, "/"));
    }

    /// `dirname`/`basename` recompose to the normalised path.
    #[test]
    fn dirname_basename_recompose(p in "(/[a-z]{1,6}){1,5}") {
        let normalized = path::normalize(&p);
        let dir = path::dirname(&normalized);
        let base = path::basename(&normalized);
        prop_assert_eq!(path::normalize(&format!("{dir}/{base}")), normalized);
    }
}

// ---- handle-layer I/O vs an in-memory model file -----------------------------

/// One fuzzed file operation: (opcode, offset, length, fill byte).
type HandleOp = (u8, u16, u8, u8);

/// Applies `op` to the model file and the real handle, asserting identical
/// observable behaviour (read contents, reported sizes, append offsets).
fn check_handle_op(model: &mut Vec<u8>, handle: &std::sync::Arc<dyn browsix_fs::FileHandle>, op: &HandleOp) {
    let (code, offset, len, byte) = *op;
    let offset = offset as usize % 4096;
    let len = len as usize;
    match code % 4 {
        // write_at: zero-fills any gap, extends past the end.
        0 => {
            let data = vec![byte; len];
            let written = handle.write_at(offset as u64, &data).unwrap();
            assert_eq!(written, len);
            if model.len() < offset {
                model.resize(offset, 0);
            }
            if model.len() < offset + len {
                model.resize(offset + len, 0);
            }
            model[offset..offset + len].copy_from_slice(&data);
        }
        // read_at: clamped to EOF, never errors.
        1 => {
            let got = handle.read_at(offset as u64, len).unwrap();
            let start = offset.min(model.len());
            let end = (offset + len).min(model.len()).max(start);
            assert_eq!(got, &model[start..end]);
        }
        // truncate: shrinks or zero-extends.
        2 => {
            let size = (offset / 2) as u64;
            handle.truncate(size).unwrap();
            model.resize(size as usize, 0);
        }
        // append: always lands at the current end of file.
        _ => {
            let data = vec![byte.wrapping_add(1); len];
            let end = handle.append(&data).unwrap();
            model.extend_from_slice(&data);
            assert_eq!(end, model.len() as u64, "append must return the new end offset");
        }
    }
    assert_eq!(handle.metadata().unwrap().size, model.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary read/write/truncate/append sequences through a MemFs handle
    /// behave exactly like the same operations on a plain byte vector.
    #[test]
    fn memfs_handle_matches_model_file(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>()), 0..32),
    ) {
        let fs = MemFs::new();
        fs.create("/f", 0o644).unwrap();
        let handle = fs.open_handle("/f", OpenFlags::read_write()).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for op in &ops {
            check_handle_op(&mut model, &handle, op);
        }
        assert_eq!(fs.read_file("/f").unwrap(), model);
    }

    /// The same property through the full VFS stack: a mount table (dentry
    /// cache) routing into an overlay whose underlay seeded the file, so
    /// copy-up-on-first-write sits in the I/O path.
    #[test]
    fn mounted_overlay_handle_matches_model_file(
        seed in proptest::collection::vec(any::<u8>(), 0..512),
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>()), 0..24),
    ) {
        use browsix_browser::{NetworkProfile, RemoteEndpoint, StaticFiles};
        use browsix_fs::{HttpFs, MountedFs, OverlayFs, OverlayMode};
        use std::sync::Arc;

        let files = StaticFiles::new();
        files.insert("/data/file.bin", seed.clone());
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        let lower = HttpFs::new(endpoint, vec![("/data/file.bin".to_string(), seed.len() as u64)]);
        let overlay = OverlayFs::new(Arc::new(lower), OverlayMode::Lazy);
        let root = MountedFs::new(Arc::new(MemFs::new()));
        root.mount("/ov", Arc::new(overlay)).unwrap();

        let handle = root.open_handle("/ov/data/file.bin", OpenFlags::read_write()).unwrap();
        let mut model: Vec<u8> = seed;
        for op in &ops {
            check_handle_op(&mut model, &handle, op);
        }
        assert_eq!(root.read_file("/ov/data/file.bin").unwrap(), model);
    }
}

// ---- COW address spaces vs a deep-copy model ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Copy-on-write address spaces behave exactly like naive deep copies:
    /// random interleavings of fork / write / read across a family of up to
    /// eight spaces must be byte-for-byte indistinguishable from a model that
    /// copies the whole image at every fork.  This is the isolation property
    /// COW is meant to preserve — a write in any space is never visible in
    /// any other, no matter how the pages are shared underneath.
    #[test]
    fn cow_fork_matches_deep_copy_model(
        ops in proptest::collection::vec(
            (0u8..4, any::<u16>(), proptest::collection::vec(any::<u8>(), 1..48), any::<prop::sample::Index>()),
            0..48,
        ),
    ) {
        use browsix_core::{AddressSpace, PAGE_SIZE, PROT_READ, PROT_WRITE};
        const REGION: u64 = 4 * PAGE_SIZE as u64;

        let mut first = AddressSpace::new();
        let base = first.map_anonymous(0, REGION, PROT_READ | PROT_WRITE).unwrap();
        let mut spaces = vec![first];
        let mut models: Vec<Vec<u8>> = vec![vec![0u8; REGION as usize]];

        for (op, offset, data, pick) in &ops {
            let i = pick.index(spaces.len());
            let off = (*offset as u64) % REGION;
            let len = data.len().min((REGION - off) as usize);
            match op {
                // Fork: O(regions) in the real thing, O(bytes) in the model.
                0 if spaces.len() < 8 => {
                    let (child, _delta) = spaces[i].fork_clone();
                    spaces.push(child);
                    let image = models[i].clone();
                    models.push(image);
                }
                // Write: may trigger a COW fault in the real thing.
                1 | 0 => {
                    spaces[i].write(base + off, &data[..len]).unwrap();
                    models[i][off as usize..off as usize + len].copy_from_slice(&data[..len]);
                }
                // Read: must agree with the model at every step.
                _ => {
                    let got = spaces[i].read(base + off, len).unwrap();
                    prop_assert_eq!(&got[..], &models[i][off as usize..off as usize + len]);
                }
            }
        }

        // Every space equals its deep-copy model, byte for byte.
        for (space, model) in spaces.iter().zip(&models) {
            let image = space.read(base, REGION as usize).unwrap();
            prop_assert_eq!(&image[..], &model[..]);
        }

        // Tear all spaces down; under `--features scavenger` release()
        // debug-asserts the refcount invariant (no page leaked, none freed
        // twice) as each space drops its references.
        for mut space in spaces {
            space.release();
        }
    }
}

// ---- syscall rings vs a FIFO model -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shared-memory submission/completion ring against a plain
    /// `VecDeque` model, under arbitrary single-threaded interleavings of
    /// client submits, kernel drains and client completion reaps, with
    /// entries that fit a slot and entries that must be spilled (through
    /// the heap on the way in, through registered buffers on the way out)
    /// mixed at random:
    ///
    /// * acceptance agrees with the model (a submission is accepted exactly
    ///   when the model queue is below capacity; a completion exactly when
    ///   there is a slot and, for a spilled one, a free buffer),
    /// * entries come out in submission order with their payloads intact
    ///   (no lost, duplicated, reordered or corrupted entries), spilled or
    ///   not,
    /// * the doorbell fires exactly on empty→nonempty transitions, and
    /// * after every kernel drain the strict protocol invariant holds: the
    ///   submission queue is empty and NEED_WAKEUP is set.  (This is the
    ///   deterministic statement of the invariant; kernel-side it can only
    ///   be enforced structurally, because a concurrent client may be
    ///   mid-publish at any instant.)
    #[test]
    fn ring_matches_fifo_model(
        ops in proptest::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 1..160),
    ) {
        use browsix_core::ring::{
            Ring, RingGeometry, NEED_WAKEUP, REG_BUF_COUNT, RING_REGION_BYTES, RING_SLOTS, SLOT_PAYLOAD_BYTES,
        };
        use std::collections::VecDeque;

        // One spill cell per slot below the ring region: at most RING_SLOTS
        // submissions are in flight, so cell `user % RING_SLOTS` is free by
        // the time it comes round again.
        const SPILL_CELL: u32 = 1024;
        let spill_area = RING_SLOTS * SPILL_CELL;
        let sab = browsix_browser::SharedArrayBuffer::new((spill_area + RING_REGION_BYTES) as usize);
        let geo = RingGeometry::standard(spill_area);
        // Two views of the same shared memory, exactly as in the real system:
        // the client's and the kernel's.
        let client = Ring::new(sab.clone(), geo);
        let kernel = Ring::new(sab, geo);
        kernel.set_need_wakeup();
        let spilled = |payload: &[u8]| payload.len() > SLOT_PAYLOAD_BYTES;

        let mut next_user: u32 = 0;
        // Submitted but not yet drained by the kernel.
        let mut model_sq: VecDeque<(u32, Vec<u8>)> = VecDeque::new();
        // Completed by the kernel but not yet reaped by the client (completion
        // order follows submission order in this model, as it does for ring
        // dispatch; each completion echoes its submission's payload).
        let mut model_cq: VecDeque<(u32, Vec<u8>)> = VecDeque::new();
        let mut doorbells = 0u32;

        // Kernel: post the echo of one drained entry, if the model says the
        // ring can take it.  Each spilled completion here fits one buffer.
        let post = |model_cq: &mut VecDeque<(u32, Vec<u8>)>, user: u32, data: Vec<u8>| {
            let buffers_busy = model_cq.iter().filter(|(_, d)| spilled(d)).count();
            let fits =
                model_cq.len() < RING_SLOTS as usize && !(spilled(&data) && buffers_busy == REG_BUF_COUNT as usize);
            prop_assert_eq!(kernel.push_cqe(user, &data), fits, "CQ acceptance diverged");
            if fits {
                model_cq.push_back((user, data));
            }
            fits
        };
        // Client reap: completions arrive in order, none lost, none
        // duplicated, payloads intact.
        let reap = |model_cq: &mut VecDeque<(u32, Vec<u8>)>| {
            while let Some((user, data)) = client.pop_cqe() {
                let (expected_user, expected_data) = model_cq
                    .pop_front()
                    .expect("client reaped a completion the model never posted");
                prop_assert_eq!(user, expected_user, "completion order diverged");
                prop_assert!(data == expected_data, "payload corrupted in the CQ");
            }
            prop_assert!(model_cq.is_empty(), "client lost completions");
        };

        for &(op, size, shape) in &ops {
            match op {
                0 => {
                    // Client submit: a payload of fuzzed length, one time in
                    // four too long for a slot.
                    let len = if shape % 4 == 0 {
                        SLOT_PAYLOAD_BYTES + 1 + size as usize * 3
                    } else {
                        size as usize % (SLOT_PAYLOAD_BYTES + 1)
                    };
                    let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(size)).collect();
                    let was_empty = client.sq_is_empty();
                    let accepted = if spilled(&payload) {
                        prop_assert!(!client.push_sqe(next_user, &payload), "a slot took more than it holds");
                        client.push_sqe_spilled(next_user, next_user % RING_SLOTS * SPILL_CELL, &payload)
                    } else {
                        client.push_sqe(next_user, &payload)
                    };
                    prop_assert_eq!(accepted, model_sq.len() < RING_SLOTS as usize, "SQ acceptance diverged");
                    if accepted {
                        model_sq.push_back((next_user, payload));
                        next_user = next_user.wrapping_add(1);
                        // Doorbell: exactly the empty→nonempty edge (the flag
                        // is armed because the kernel drained to empty).
                        if client.take_doorbell() {
                            prop_assert!(was_empty, "doorbell fired on a non-edge");
                            doorbells += 1;
                        }
                    }
                }
                1 => {
                    // Kernel drain, exactly the event-loop shape: pop until
                    // empty, post a completion per entry (if the ring can
                    // take it — otherwise the real kernel queues it; the
                    // model drops the echo the same way), then arm
                    // NEED_WAKEUP.
                    while let Some((user, data)) = kernel.pop_sqe() {
                        let (expected_user, expected_data) = model_sq
                            .pop_front()
                            .expect("kernel drained an entry the model never saw");
                        prop_assert_eq!(user, expected_user, "drain order diverged");
                        prop_assert!(data == expected_data, "payload corrupted in the SQ");
                        post(&mut model_cq, user, data);
                    }
                    kernel.set_need_wakeup();
                    // Strict invariant, assertable only here (single thread):
                    // after a drain the SQ is empty and the flag is set.
                    prop_assert!(kernel.sq_is_empty(), "drain left the SQ non-empty");
                    prop_assert_eq!(kernel.sq_flags() & NEED_WAKEUP, NEED_WAKEUP, "drain left NEED_WAKEUP clear");
                }
                _ => reap(&mut model_cq),
            }
        }

        // Final settle: drain and reap everything; nothing may be left
        // behind in either direction.
        while let Some((user, data)) = kernel.pop_sqe() {
            let (expected_user, expected_data) = model_sq.pop_front().expect("lost SQE");
            prop_assert_eq!(user, expected_user);
            prop_assert!(data == expected_data);
            if !post(&mut model_cq, user, data.clone()) {
                reap(&mut model_cq);
                prop_assert!(post(&mut model_cq, user, data), "an empty CQ refused a completion");
            }
        }
        prop_assert!(model_sq.is_empty(), "entries stuck in the model SQ");
        reap(&mut model_cq);
        prop_assert!(doorbells <= ops.len() as u32);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The registered-buffer table as the completion queue uses it:
    /// completions of any size up to the whole table, pushed and popped in
    /// random interleavings, come out in order and intact; a push is refused
    /// exactly when the queue is full or no run of adjacent free buffers is
    /// long enough, and a refused push claims nothing; the bitmap always
    /// counts the buffers of the spills in flight, so it is back to 0 once
    /// everything is popped.
    #[test]
    fn ring_registered_buffers_round_trip(
        ops in proptest::collection::vec((0u8..4, any::<u32>()), 1..48),
    ) {
        use browsix_core::ring::{
            Ring, RingGeometry, MAX_SPILL_BYTES, REG_BUF_BYTES, REG_BUF_COUNT, RING_BYTES, RING_REGION_BYTES, RING_SLOTS,
            SLOT_PAYLOAD_BYTES,
        };
        use std::collections::VecDeque;

        let ring = Ring::new(
            browsix_browser::SharedArrayBuffer::new(RING_REGION_BYTES as usize),
            RingGeometry::standard(0),
        );
        // The buffer table follows the two queues; its first word is the bitmap.
        let bitmap = || ring.sab().load_u32(2 * RING_BYTES as usize).unwrap();
        let (slot, buf) = (SLOT_PAYLOAD_BYTES, REG_BUF_BYTES as usize);
        // The buffers a completion of `len` bytes spills into (none in a slot).
        let run = |len: usize| if len <= slot { 0 } else { len.div_ceil(buf) as u32 };
        let mut model: VecDeque<(u32, Vec<u8>)> = VecDeque::new();
        for (seq, &(op, draw)) in ops.iter().enumerate() {
            let seq = seq as u32;
            if op == 0 {
                prop_assert_eq!(ring.pop_cqe(), model.pop_front(), "FIFO order or bytes diverged");
            } else {
                let most = match op {
                    1 => slot,
                    2 => 2 * buf,
                    _ => MAX_SPILL_BYTES,
                };
                let len = draw as usize % (most + 1);
                let payload: Vec<u8> = (0..len as u32).map(|i| i.wrapping_mul(31).wrapping_add(seq) as u8).collect();
                let (before, n) = (bitmap(), run(len));
                let free_run = n == 0 || (0..=REG_BUF_COUNT - n).any(|first| before & ((1 << n) - 1) << first == 0);
                let fits = model.len() < RING_SLOTS as usize && free_run;
                prop_assert_eq!(ring.push_cqe(seq, &payload), fits, "push acceptance diverged ({} bytes)", len);
                if fits {
                    model.push_back((seq, payload));
                } else {
                    prop_assert_eq!(bitmap(), before, "a refused push claimed buffers");
                }
            }
            let in_flight: u32 = model.iter().map(|(_, payload)| run(payload.len())).sum();
            prop_assert_eq!(bitmap().count_ones(), in_flight, "the bitmap disagrees with the spills in flight");
        }
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(ring.pop_cqe(), Some(expected));
        }
        prop_assert_eq!(ring.pop_cqe(), None);
        prop_assert_eq!(bitmap(), 0, "buffers leaked at quiescence");
    }
}

// ---- sigprocmask / pending-set semantics vs a model --------------------------

/// The model of POSIX standard-signal semantics: `blocked` and `pending` are
/// plain `HashSet`s, delivery is a growing log.  Standard signals coalesce
/// while pending and are delivered exactly once when unblocked.
#[derive(Debug, Default)]
struct SignalModel {
    blocked: std::collections::HashSet<Signal>,
    pending: std::collections::HashSet<Signal>,
    delivered: Vec<Signal>,
}

impl SignalModel {
    fn change_mask(&mut self, how: u32, mask: &[Signal]) {
        match how {
            SIG_BLOCK => self.blocked.extend(mask.iter().copied()),
            SIG_UNBLOCK => {
                for signal in mask {
                    self.blocked.remove(signal);
                }
            }
            _ => self.blocked = mask.iter().copied().collect(),
        }
        // SIGKILL/SIGSTOP can never be blocked.
        self.blocked.remove(&Signal::SIGKILL);
        self.blocked.remove(&Signal::SIGSTOP);
        // Anything pending and now unblocked is delivered exactly once.
        let deliverable: Vec<Signal> = browsix_core::signals::ALL_SIGNALS
            .iter()
            .copied()
            .filter(|s| self.pending.contains(s) && !self.blocked.contains(s))
            .collect();
        for signal in deliverable {
            self.pending.remove(&signal);
            self.delivered.push(signal);
        }
    }

    fn kill(&mut self, signal: Signal) {
        if signal.catchable() && self.blocked.contains(&signal) {
            // Coalesces: a `HashSet` insert of an already-pending signal.
            self.pending.insert(signal);
        } else {
            self.delivered.push(signal);
        }
    }
}

/// The signals a fuzzed index picks from (catchable handler-friendly ones
/// plus the unblockable pair, to exercise that corner).
const MODEL_SIGNALS: &[Signal] = &[
    Signal::SIGHUP,
    Signal::SIGINT,
    Signal::SIGUSR1,
    Signal::SIGUSR2,
    Signal::SIGTERM,
    Signal::SIGKILL,
    Signal::SIGCHLD,
];

fn mask_from(indices: &[u8]) -> (SigSet, Vec<Signal>) {
    let mut set = SigSet::empty();
    let mut list = Vec::new();
    for &index in indices {
        let signal = MODEL_SIGNALS[index as usize % MODEL_SIGNALS.len()];
        if !list.contains(&signal) {
            list.push(signal);
        }
        set.insert(signal);
    }
    (set, list)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `SignalState` (the kernel's per-task sigprocmask/pending machinery)
    /// agrees with the `HashSet` model on arbitrary interleavings of
    /// mask changes and kills: the same blocked set, the same pending set,
    /// and — crucially — the same delivery log.  "Block → kill (repeatedly)
    /// → unblock" delivers exactly once, in every interleaving.
    #[test]
    fn signal_state_matches_model(
        ops in proptest::collection::vec(
            (0u8..2, 0u32..4, proptest::collection::vec(any::<u8>(), 0..5), 0u8..8),
            0..48,
        ),
    ) {
        let mut state = SignalState::new();
        let mut model = SignalModel::default();
        let mut delivered: Vec<Signal> = Vec::new();

        for (op, how, mask_indices, signal_index) in &ops {
            match op {
                0 => {
                    let (mask, mask_list) = mask_from(mask_indices);
                    let how = how % 3;
                    let (_, deliverable) = state.change_mask(how, mask).unwrap();
                    delivered.extend(deliverable);
                    model.change_mask(how, &mask_list);
                }
                _ => {
                    let signal = MODEL_SIGNALS[*signal_index as usize % MODEL_SIGNALS.len()];
                    if state.admit(signal) {
                        delivered.push(signal);
                    }
                    model.kill(signal);
                }
            }
            // Invariant: blocked and pending sets agree with the model.
            for &signal in browsix_core::signals::ALL_SIGNALS {
                prop_assert_eq!(state.blocked().contains(signal), model.blocked.contains(&signal));
                prop_assert_eq!(state.pending().contains(signal), model.pending.contains(&signal));
            }
        }
        // The delivery logs agree exactly (same signals, same order).
        prop_assert_eq!(delivered, model.delivered);
    }

    /// A blocked signal killed N ≥ 1 times is delivered exactly once on
    /// unblock — the headline exactly-once property, stated directly.
    #[test]
    fn block_kill_unblock_delivers_exactly_once(
        kills in 1usize..6,
        signal_index in 0u8..5,
    ) {
        let signal = MODEL_SIGNALS[signal_index as usize % 5];
        let mut mask = SigSet::empty();
        mask.insert(signal);

        let mut state = SignalState::new();
        let (_, deliverable) = state.change_mask(SIG_BLOCK, mask).unwrap();
        prop_assert!(deliverable.is_empty());
        for _ in 0..kills {
            prop_assert!(!state.admit(signal), "blocked signal must park, not deliver");
        }
        let (_, deliverable) = state.change_mask(SIG_UNBLOCK, mask).unwrap();
        prop_assert_eq!(deliverable, vec![signal]);
        // And never again.
        let (_, again) = state.change_mask(SIG_SETMASK, SigSet::empty()).unwrap();
        prop_assert!(again.is_empty());
        prop_assert!(state.pending().is_empty());
    }

    /// Wait-status helpers partition correctly: an encoded exit, kill and
    /// stop are each recognised by exactly one decoder.
    #[test]
    fn wait_status_partition(code in 0i32..256, signal_index in 0u8..8) {
        use browsix_core::{encode_stop_status, encode_wait_status, wait_status_exit_code, wait_status_signal, wait_status_stop_signal};
        let signal = MODEL_SIGNALS[signal_index as usize % MODEL_SIGNALS.len()];

        let exited = encode_wait_status(Some(code), None);
        prop_assert_eq!(wait_status_exit_code(exited), Some(code));
        prop_assert_eq!(wait_status_signal(exited), None);
        prop_assert_eq!(wait_status_stop_signal(exited), None);

        let killed = encode_wait_status(None, Some(signal));
        prop_assert_eq!(wait_status_exit_code(killed), None);
        prop_assert_eq!(wait_status_signal(killed), Some(signal));
        prop_assert_eq!(wait_status_stop_signal(killed), None);

        let stopped = encode_stop_status(signal);
        prop_assert_eq!(wait_status_exit_code(stopped), None);
        prop_assert_eq!(wait_status_signal(stopped), None);
        prop_assert_eq!(wait_status_stop_signal(stopped), Some(signal));
    }
}
