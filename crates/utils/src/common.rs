//! Helpers shared by the utilities: argument handling, input plumbing and the
//! compute-cost accounting that models JavaScript execution.
//!
//! Input reaches a filter one of two ways.  [`for_each_chunk`] is the data
//! plane: it hands the operands (or standard input) to a closure at most
//! [`CHUNK`] bytes at a time, so a filter holds one chunk plus whatever state
//! it folds the chunk into, overlaps with its neighbours in a pipeline and can
//! stop an endless upstream by returning [`ControlFlow::Break`].
//! [`LineSplitter`] turns those chunks back into lines.  [`read_inputs`]
//! slurps everything first and is only for consumers that cannot produce a
//! byte before the last one arrived (`sort`).

use std::ops::ControlFlow;

use browsix_core::Errno;
use browsix_fs::OpenFlags;
use browsix_runtime::RuntimeEnv;

/// The largest read [`for_each_chunk`] issues: big enough to amortise the
/// system call, small enough to stay in cache while it crosses a pipeline.
pub const CHUNK: usize = 64 * 1024;

/// Splits an argument vector into flags (arguments starting with `-`, before
/// any `--`) and positional operands.
pub fn split_args(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut flags = Vec::new();
    let mut operands = Vec::new();
    let mut no_more_flags = false;
    for arg in args.iter().skip(1) {
        if no_more_flags {
            operands.push(arg.clone());
        } else if arg == "--" {
            no_more_flags = true;
        } else if arg.starts_with('-') && arg.len() > 1 {
            flags.push(arg.clone());
        } else {
            operands.push(arg.clone());
        }
    }
    (flags, operands)
}

/// Whether a single-letter flag (e.g. `-n`) appears in the flag list,
/// including inside grouped flags (`-ln`).
pub fn has_flag(flags: &[String], letter: char) -> bool {
    flags
        .iter()
        .any(|f| !f.starts_with("--") && f.chars().skip(1).any(|c| c == letter))
}

/// Extracts the value of a `-<letter> value` or `-<letter>value` flag.
pub fn flag_value(args: &[String], letter: char) -> Option<String> {
    let prefix = format!("-{letter}");
    let mut iter = args.iter().skip(1).peekable();
    while let Some(arg) = iter.next() {
        if arg == &prefix {
            return iter.peek().map(|s| s.to_string());
        }
        if let Some(rest) = arg.strip_prefix(&prefix) {
            if !rest.is_empty() {
                return Some(rest.to_owned());
            }
        }
    }
    None
}

/// Reads each operand file in order (or standard input when there are no
/// operands), returning the concatenated contents.  Missing files are
/// reported on standard error and reflected in the returned exit code.
pub fn read_inputs(env: &mut dyn RuntimeEnv, name: &str, operands: &[String]) -> (Vec<u8>, i32) {
    if operands.is_empty() {
        return (env.read_stdin_to_end(), 0);
    }
    let mut data = Vec::new();
    let mut code = 0;
    for path in operands {
        match env.read_file(path) {
            Ok(bytes) => data.extend_from_slice(&bytes),
            Err(e) => {
                env.eprint(&format!("{name}: {path}: {e}\n"));
                code = 1;
            }
        }
    }
    (data, code)
}

/// Feeds `f` every operand file in order (or standard input when there are no
/// operands), at most [`CHUNK`] bytes at a time, until the input ends or `f`
/// breaks.  Files that cannot be opened or read are reported on standard
/// error exactly as [`read_inputs`] reports them and reflected in the returned
/// exit code; a failing read on standard input just ends the input.
pub fn for_each_chunk(
    env: &mut dyn RuntimeEnv,
    name: &str,
    operands: &[String],
    mut f: impl FnMut(&mut dyn RuntimeEnv, &[u8]) -> ControlFlow<()>,
) -> i32 {
    if operands.is_empty() {
        let _ = pump_fd(env, 0, &mut f);
        return 0;
    }
    let mut code = 0;
    for path in operands {
        let pumped = env.open(path, OpenFlags::read_only()).and_then(|fd| {
            let pumped = pump_fd(env, fd, &mut f);
            let _ = env.close(fd);
            pumped
        });
        match pumped {
            Ok(ControlFlow::Continue(())) => {}
            Ok(ControlFlow::Break(())) => break,
            Err(e) => {
                env.eprint(&format!("{name}: {path}: {e}\n"));
                code = 1;
            }
        }
    }
    code
}

/// Reads `fd` to its end through `f`, one chunk at a time.
fn pump_fd(
    env: &mut dyn RuntimeEnv,
    fd: i32,
    f: &mut impl FnMut(&mut dyn RuntimeEnv, &[u8]) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, Errno> {
    loop {
        let chunk = env.read(fd, CHUNK)?;
        if chunk.is_empty() {
            return Ok(ControlFlow::Continue(()));
        }
        if f(env, &chunk).is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
}

/// Cuts a byte stream that arrives in arbitrary pieces into lines (without
/// their newline), carrying an unfinished last line over to the next piece.
/// Memory held is the longest line, not the input.
#[derive(Debug, Default)]
pub struct LineSplitter {
    carry: Vec<u8>,
}

impl LineSplitter {
    /// Calls `f` with every line that `chunk` completes.
    pub fn feed(&mut self, chunk: &[u8], mut f: impl FnMut(&[u8])) {
        let mut rest = chunk;
        while let Some(newline) = rest.iter().position(|&b| b == b'\n') {
            let line = &rest[..newline];
            if self.carry.is_empty() {
                f(line);
            } else {
                self.carry.extend_from_slice(line);
                f(&self.carry);
                self.carry.clear();
            }
            rest = &rest[newline + 1..];
        }
        self.carry.extend_from_slice(rest);
    }

    /// The last line, if the input did not end in a newline (as [`lines`]
    /// tolerates).
    pub fn finish(self) -> Option<Vec<u8>> {
        (!self.carry.is_empty()).then_some(self.carry)
    }
}

/// Charges compute proportional to the number of bytes a text-processing
/// utility touched; one unit per 256 bytes approximates the per-byte work of
/// the JavaScript implementations the paper measured.
pub fn charge_for_bytes(env: &mut dyn RuntimeEnv, bytes: usize) {
    env.charge_compute((bytes as u64) / 256 + 1);
}

/// Splits bytes into lines (without trailing newlines), tolerating a missing
/// final newline.
pub fn lines(data: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(data);
    let mut lines: Vec<String> = text.split('\n').map(|s| s.to_owned()).collect();
    if lines.last().map(|l| l.is_empty()).unwrap_or(false) {
        lines.pop();
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_args_separates_flags_and_operands() {
        let (flags, operands) = split_args(&args(&["grep", "-i", "-n", "pattern", "file.txt"]));
        assert_eq!(flags, vec!["-i", "-n"]);
        assert_eq!(operands, vec!["pattern", "file.txt"]);
        // `--` ends flag processing.
        let (flags, operands) = split_args(&args(&["rm", "--", "-weird-name"]));
        assert!(flags.is_empty());
        assert_eq!(operands, vec!["-weird-name"]);
        // A bare "-" is an operand (stdin).
        let (flags, operands) = split_args(&args(&["cat", "-"]));
        assert!(flags.is_empty());
        assert_eq!(operands, vec!["-"]);
    }

    #[test]
    fn flag_helpers() {
        let argv = args(&["ls", "-ln", "/usr"]);
        let (flags, _) = split_args(&argv);
        assert!(has_flag(&flags, 'l'));
        assert!(has_flag(&flags, 'n'));
        assert!(!has_flag(&flags, 'a'));
        assert_eq!(flag_value(&args(&["head", "-n", "3"]), 'n'), Some("3".into()));
        assert_eq!(flag_value(&args(&["head", "-n5"]), 'n'), Some("5".into()));
        assert_eq!(flag_value(&args(&["head"]), 'n'), None);
    }

    #[test]
    fn line_splitting() {
        assert_eq!(lines(b"a\nb\nc\n"), vec!["a", "b", "c"]);
        assert_eq!(lines(b"a\nb"), vec!["a", "b"]);
        assert!(lines(b"").is_empty());
    }
}
