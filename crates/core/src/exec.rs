//! Executable resolution and the program-launcher interface.
//!
//! In Browsix, "executables include JavaScript files, files beginning with a
//! shebang line, and WebAssembly files."  The kernel starts a worker from a
//! dynamically created blob URL holding the executable's bytes, and the
//! process's runtime delays `main()` until an "init" message delivers the
//! argument vector and environment.
//!
//! The Rust reproduction keeps the same flow.  Compiled-to-JavaScript programs
//! are stood in for by [`ProgramLauncher`] implementations registered in an
//! [`ExecutableRegistry`] (the runtime crates register the coreutils, the
//! shell, the TeX tools and so on), and shebang scripts on the shared file
//! system are resolved to the interpreter registered for them.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::RwLock;

use browsix_browser::{PlatformConfig, WorkerScope};
use browsix_fs::{Errno, FileSystem};

use crate::events::KernelEvent;
use crate::task::Pid;

/// A snapshot of a forked process's guest state, shipped to the kernel by the
/// parent's runtime and handed to the child in its init message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForkImage {
    /// Serialized guest memory (the Emscripten heap and stack).
    pub image: Vec<u8>,
    /// Resume point for the interpreter (the Emterpreter program counter).
    pub resume_point: u64,
}

/// Everything a launcher needs to run a process inside its worker.
pub struct LaunchContext {
    /// The process id assigned by the kernel.
    pub pid: Pid,
    /// The platform cost model in effect.
    pub config: PlatformConfig,
    /// Channel for sending system calls to the kernel (the analogue of
    /// `postMessage` to the main browser context).
    pub kernel: Sender<KernelEvent>,
    /// The worker's receive side: the init message, system-call responses and
    /// signals arrive here.
    pub scope: WorkerScope,
}

impl std::fmt::Debug for LaunchContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchContext").field("pid", &self.pid).finish()
    }
}

/// The init-message payload the kernel sends right after starting a worker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcessStart {
    /// Argument vector (`argv[0]` is the program name).
    pub args: Vec<String>,
    /// Environment variables.
    pub env: Vec<(String, String)>,
    /// Working directory.
    pub cwd: String,
    /// Fork snapshot, present only for children created by `fork`.
    pub fork_image: Option<ForkImage>,
}

/// Launches a program inside a freshly created worker.
///
/// Implementations live in the runtime crates (Emscripten, GopherJS and
/// Node.js integrations); the kernel only needs to know how to hand over the
/// worker scope and process id.
pub trait ProgramLauncher: Send + Sync {
    /// Runs the program.  Called on the worker's thread; returns when the
    /// process is finished (the launcher is responsible for issuing the final
    /// `exit` system call, as the paper requires of Browsix runtimes).
    fn launch(&self, ctx: LaunchContext);

    /// A short name describing the runtime, for diagnostics.
    fn runtime_name(&self) -> &'static str {
        "unknown"
    }
}

#[derive(Default)]
struct RegistryInner {
    programs: HashMap<String, Arc<dyn ProgramLauncher>>,
    interpreters: HashMap<String, Arc<dyn ProgramLauncher>>,
}

/// The table of runnable programs and interpreters known to the kernel.
#[derive(Clone, Default)]
pub struct ExecutableRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

impl std::fmt::Debug for ExecutableRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("ExecutableRegistry")
            .field("programs", &inner.programs.len())
            .field("interpreters", &inner.interpreters.len())
            .finish()
    }
}

impl ExecutableRegistry {
    /// Creates an empty registry.
    pub fn new() -> ExecutableRegistry {
        ExecutableRegistry::default()
    }

    /// Registers a program at an absolute path (e.g. `/usr/bin/ls`).
    pub fn register(&self, path: &str, launcher: Arc<dyn ProgramLauncher>) {
        self.inner
            .write()
            .programs
            .insert(browsix_fs::path::normalize(path), launcher);
    }

    /// Registers an interpreter by name (e.g. `node`, `sh`), used to resolve
    /// shebang lines such as `#!/usr/bin/env node`.
    pub fn register_interpreter(&self, name: &str, launcher: Arc<dyn ProgramLauncher>) {
        self.inner.write().interpreters.insert(name.to_owned(), launcher);
    }

    /// Looks up a program by exact (normalised) path.
    pub fn lookup(&self, path: &str) -> Option<Arc<dyn ProgramLauncher>> {
        self.inner
            .read()
            .programs
            .get(&browsix_fs::path::normalize(path))
            .cloned()
    }

    /// Looks up an interpreter by name or by the basename of a path.
    pub fn lookup_interpreter(&self, name_or_path: &str) -> Option<Arc<dyn ProgramLauncher>> {
        let inner = self.inner.read();
        if let Some(launcher) = inner.interpreters.get(name_or_path) {
            return Some(Arc::clone(launcher));
        }
        let base = browsix_fs::path::basename(name_or_path);
        inner.interpreters.get(&base).cloned()
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.inner.read().programs.len()
    }

    /// Whether no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The outcome of resolving a path into something the kernel can start.
pub struct ResolvedExecutable {
    /// The launcher that will run the process.
    pub launcher: Arc<dyn ProgramLauncher>,
    /// Arguments to insert before the caller's argv (for shebang scripts the
    /// interpreter name and the script path).
    pub prepend_args: Vec<String>,
}

impl std::fmt::Debug for ResolvedExecutable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedExecutable")
            .field("runtime", &self.launcher.runtime_name())
            .field("prepend_args", &self.prepend_args)
            .finish()
    }
}

/// Parses a shebang line, returning the interpreter and an optional single
/// argument, e.g. `#!/usr/bin/env node` -> `("node", None)` and
/// `#!/bin/sh -e` -> `("/bin/sh", Some("-e"))`.
pub fn parse_shebang(contents: &[u8]) -> Option<(String, Option<String>)> {
    if !contents.starts_with(b"#!") {
        return None;
    }
    let line_end = contents.iter().position(|&b| b == b'\n').unwrap_or(contents.len());
    let line = std::str::from_utf8(&contents[2..line_end]).ok()?.trim();
    let mut parts = line.split_whitespace();
    let interpreter = parts.next()?.to_owned();
    let first_arg = parts.next().map(|s| s.to_owned());
    // `#!/usr/bin/env node` means "find node"; collapse it.
    if browsix_fs::path::basename(&interpreter) == "env" {
        let real = first_arg?;
        return Some((real, parts.next().map(|s| s.to_owned())));
    }
    Some((interpreter, first_arg))
}

/// Resolves `path` into a launcher, consulting the registry first and falling
/// back to shebang scripts stored on the shared file system.
///
/// # Errors
///
/// * [`Errno::ENOENT`] if the path does not exist anywhere.
/// * [`Errno::EACCES`] if the file exists but is not something the kernel can
///   execute (no registered launcher, no shebang).
/// * [`Errno::EISDIR`] if the path is a directory.
pub fn resolve_executable(
    fs: &dyn FileSystem,
    registry: &ExecutableRegistry,
    path: &str,
) -> Result<ResolvedExecutable, Errno> {
    if let Some(launcher) = registry.lookup(path) {
        return Ok(ResolvedExecutable {
            launcher,
            prepend_args: Vec::new(),
        });
    }
    let meta = fs.stat(path)?;
    if meta.is_dir() {
        return Err(Errno::EISDIR);
    }
    let contents = fs.read_file(path)?;
    if let Some((interpreter, arg)) = parse_shebang(&contents) {
        // Prefer a program registered at the interpreter path, then a named
        // interpreter registration.
        let launcher = registry
            .lookup(&interpreter)
            .or_else(|| registry.lookup_interpreter(&interpreter))
            .ok_or(Errno::ENOENT)?;
        let mut prepend = vec![interpreter];
        if let Some(arg) = arg {
            prepend.push(arg);
        }
        prepend.push(browsix_fs::path::normalize(path));
        return Ok(ResolvedExecutable {
            launcher,
            prepend_args: prepend,
        });
    }
    Err(Errno::EACCES)
}

/// Searches `PATH`-style directories for a command name, returning the first
/// absolute path that exists in the registry or on the file system.  Used by
/// the shell and by `kernel.system`.
pub fn search_path(
    fs: &dyn FileSystem,
    registry: &ExecutableRegistry,
    command: &str,
    path_var: &str,
) -> Option<String> {
    if command.contains('/') {
        let normalized = browsix_fs::path::normalize(command);
        if registry.lookup(&normalized).is_some() || fs.exists(&normalized) {
            return Some(normalized);
        }
        return None;
    }
    for dir in path_var.split(':').filter(|d| !d.is_empty()) {
        let candidate = browsix_fs::path::resolve(dir, command);
        if registry.lookup(&candidate).is_some() || fs.exists(&candidate) {
            return Some(candidate);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use browsix_fs::MemFs;

    struct DummyLauncher(&'static str);
    impl ProgramLauncher for DummyLauncher {
        fn launch(&self, _ctx: LaunchContext) {}
        fn runtime_name(&self) -> &'static str {
            self.0
        }
    }

    fn launcher(name: &'static str) -> Arc<dyn ProgramLauncher> {
        Arc::new(DummyLauncher(name))
    }

    #[test]
    fn registry_lookup_by_normalized_path() {
        let registry = ExecutableRegistry::new();
        assert!(registry.is_empty());
        registry.register("/usr/bin/ls", launcher("node"));
        assert!(registry.lookup("/usr/bin/ls").is_some());
        assert!(registry.lookup("/usr/bin/../bin/ls").is_some());
        assert!(registry.lookup("/usr/bin/cat").is_none());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn interpreter_lookup_by_name_or_path() {
        let registry = ExecutableRegistry::new();
        registry.register_interpreter("node", launcher("node"));
        assert!(registry.lookup_interpreter("node").is_some());
        assert!(registry.lookup_interpreter("/usr/bin/node").is_some());
        assert!(registry.lookup_interpreter("python").is_none());
    }

    #[test]
    fn shebang_parsing() {
        assert_eq!(
            parse_shebang(b"#!/usr/bin/env node\nconsole.log(1)"),
            Some(("node".into(), None))
        );
        assert_eq!(
            parse_shebang(b"#!/bin/sh -e\necho hi"),
            Some(("/bin/sh".into(), Some("-e".into())))
        );
        assert_eq!(parse_shebang(b"#!/bin/dash\n"), Some(("/bin/dash".into(), None)));
        assert_eq!(parse_shebang(b"echo no shebang"), None);
        assert_eq!(parse_shebang(b""), None);
    }

    #[test]
    fn resolve_prefers_registry_then_shebang() {
        let fs = MemFs::new();
        let registry = ExecutableRegistry::new();
        registry.register("/usr/bin/ls", launcher("node"));
        registry.register_interpreter("sh", launcher("shell"));

        // Registered program.
        let resolved = resolve_executable(&fs, &registry, "/usr/bin/ls").unwrap();
        assert_eq!(resolved.launcher.runtime_name(), "node");
        assert!(resolved.prepend_args.is_empty());

        // Shebang script on the file system.
        fs.mkdir("/scripts").unwrap();
        fs.write_file("/scripts/build.sh", b"#!/bin/sh\nmake all\n").unwrap();
        let resolved = resolve_executable(&fs, &registry, "/scripts/build.sh").unwrap();
        assert_eq!(resolved.launcher.runtime_name(), "shell");
        assert_eq!(
            resolved.prepend_args,
            vec!["/bin/sh".to_string(), "/scripts/build.sh".to_string()]
        );
    }

    #[test]
    fn resolve_error_cases() {
        let fs = MemFs::new();
        let registry = ExecutableRegistry::new();
        assert_eq!(
            resolve_executable(&fs, &registry, "/missing").err(),
            Some(Errno::ENOENT)
        );
        fs.mkdir("/dir").unwrap();
        assert_eq!(resolve_executable(&fs, &registry, "/dir").err(), Some(Errno::EISDIR));
        fs.write_file("/data.bin", &[0u8, 1, 2]).unwrap();
        assert_eq!(
            resolve_executable(&fs, &registry, "/data.bin").err(),
            Some(Errno::EACCES)
        );
        // Shebang pointing at an unknown interpreter.
        fs.write_file("/script.py", b"#!/usr/bin/python\nprint(1)\n").unwrap();
        assert_eq!(
            resolve_executable(&fs, &registry, "/script.py").err(),
            Some(Errno::ENOENT)
        );
    }

    #[test]
    fn path_search() {
        let fs = MemFs::new();
        let registry = ExecutableRegistry::new();
        registry.register("/usr/bin/grep", launcher("node"));
        fs.mkdir("/home").unwrap();
        fs.write_file("/home/tool.sh", b"#!/bin/sh\n").unwrap();

        assert_eq!(
            search_path(&fs, &registry, "grep", "/bin:/usr/bin"),
            Some("/usr/bin/grep".to_string())
        );
        assert_eq!(search_path(&fs, &registry, "missing", "/bin:/usr/bin"), None);
        // Commands containing a slash bypass the search.
        assert_eq!(
            search_path(&fs, &registry, "/home/tool.sh", "/bin"),
            Some("/home/tool.sh".to_string())
        );
        assert_eq!(search_path(&fs, &registry, "/home/nothing", "/bin"), None);
    }
}
