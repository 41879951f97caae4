//! Executing parsed scripts: expansion, builtins, pipelines, redirection and
//! job control (background jobs, `jobs`/`fg`/`bg`, foreground process
//! groups).

use std::collections::HashMap;

use browsix_core::{Errno, Signal, WNOHANG, WUNTRACED};
use browsix_fs::OpenFlags;
use browsix_runtime::{JobCall, JobValue, RuntimeEnv, SpawnAttrs, SpawnGroup, SpawnStdio, WaitedChild};

use crate::ast::{Command, ListOp, Pipeline, Redirect};
use crate::parser::parse_script;

/// How far along a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// At least one member is running.
    Running,
    /// Suspended by a job-control stop signal.
    Stopped,
    /// Every member has exited; the status is the last member's.
    Done(i32),
}

/// One pipeline under job control: every member shares a process group, so
/// `Ctrl-C`, `fg`, `bg` and `kill -PGID` address the whole pipeline at once.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job number, as printed by `jobs` (`[1]`, `[2]`, ...).
    pub id: usize,
    /// The process group every member was born in (the first member's
    /// pid, following the usual shell convention).
    pub pgid: u32,
    /// Members that have not been reaped yet.
    pub pids: Vec<u32>,
    /// The command line, for `jobs` output.
    pub cmdline: String,
    /// Current state.
    pub state: JobState,
}

/// The shell interpreter state: variables, the last exit status, positional
/// parameters and the job table.
#[derive(Debug, Default)]
pub struct Shell {
    vars: HashMap<String, String>,
    positional: Vec<String>,
    last_status: i32,
    jobs: Vec<Job>,
    next_job_id: usize,
    last_background_pid: Option<u32>,
    exited: Option<i32>,
    /// The shell's own process group, read by its first foreground job.
    shell_pgid: Option<u32>,
}

impl Shell {
    /// Creates a fresh shell.
    pub fn new() -> Shell {
        Shell::default()
    }

    /// Sets the positional parameters (`$1`, `$2`, ... in scripts).
    pub fn set_positional(&mut self, args: &[String]) {
        self.positional = args.to_vec();
    }

    /// Looks up a shell variable (not the environment).
    pub fn var(&self, name: &str) -> Option<&str> {
        self.vars.get(name).map(|s| s.as_str())
    }

    /// The job table (background and stopped pipelines).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Parses and runs `source`, returning the exit status of the last
    /// command (or 2 for a syntax error, like dash).
    pub fn run_source(&mut self, env: &mut dyn RuntimeEnv, source: &str) -> i32 {
        let script = match parse_script(source) {
            Ok(script) => script,
            Err(e) => {
                env.eprint(&format!("sh: {e}\n"));
                return 2;
            }
        };
        for (op, pipeline) in &script.entries {
            if self.exited.is_some() {
                break;
            }
            let should_run = match op {
                ListOp::Always => true,
                ListOp::AndIf => self.last_status == 0,
                ListOp::OrIf => self.last_status != 0,
            };
            if !should_run {
                continue;
            }
            self.last_status = self.run_pipeline(env, pipeline);
        }
        self.exited.unwrap_or(self.last_status)
    }

    // ---- expansion -----------------------------------------------------------

    fn expand_word(&self, env: &dyn RuntimeEnv, word: &str) -> String {
        let mut out = String::new();
        let mut chars = word.chars().peekable();
        while let Some(c) = chars.next() {
            if c == crate::lexer::LITERAL_DOLLAR {
                out.push('$');
                continue;
            }
            if c != '$' {
                out.push(c);
                continue;
            }
            match chars.peek() {
                Some('?') => {
                    chars.next();
                    out.push_str(&self.last_status.to_string());
                }
                Some('#') => {
                    chars.next();
                    out.push_str(&self.positional.len().to_string());
                }
                Some('!') => {
                    chars.next();
                    if let Some(pid) = self.last_background_pid {
                        out.push_str(&pid.to_string());
                    }
                }
                Some('{') => {
                    chars.next();
                    let mut name = String::new();
                    for inner in chars.by_ref() {
                        if inner == '}' {
                            break;
                        }
                        name.push(inner);
                    }
                    out.push_str(&self.lookup(env, &name));
                }
                Some(c) if c.is_ascii_digit() => {
                    let index = chars.next().unwrap().to_digit(10).unwrap() as usize;
                    if index >= 1 {
                        out.push_str(self.positional.get(index - 1).map(|s| s.as_str()).unwrap_or(""));
                    }
                }
                Some(c) if c.is_ascii_alphabetic() || *c == '_' => {
                    let mut name = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            name.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push_str(&self.lookup(env, &name));
                }
                _ => out.push('$'),
            }
        }
        out
    }

    fn lookup(&self, env: &dyn RuntimeEnv, name: &str) -> String {
        self.vars
            .get(name)
            .cloned()
            .or_else(|| env.getenv(name))
            .unwrap_or_default()
    }

    /// Expands variables then performs pathname expansion (globbing) on words
    /// containing `*` or `?`.
    fn expand_words(&self, env: &mut dyn RuntimeEnv, words: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for word in words {
            let expanded = self.expand_word(env, word);
            if expanded.contains('*') || expanded.contains('?') {
                let matches = glob(env, &expanded);
                if matches.is_empty() {
                    out.push(expanded);
                } else {
                    out.extend(matches);
                }
            } else {
                out.push(expanded);
            }
        }
        out
    }

    // ---- execution -------------------------------------------------------------

    fn run_pipeline(&mut self, env: &mut dyn RuntimeEnv, pipeline: &Pipeline) -> i32 {
        let commands: Vec<&Command> = pipeline.commands.iter().filter(|c| !c.is_empty()).collect();
        if commands.is_empty() {
            return 0;
        }
        // A single builtin runs inside the shell process itself.
        if commands.len() == 1 {
            let words = self.expand_words(env, &commands[0].words);
            if words.is_empty() {
                // Pure assignments: set shell variables.
                for (name, value) in &commands[0].assignments {
                    let value = self.expand_word(env, value);
                    self.vars.insert(name.clone(), value);
                }
                return 0;
            }
            if let Some(status) = self.try_builtin(env, &words) {
                return status;
            }
        }

        // Every stage is expanded and its redirections opened before
        // anything starts.  The expanded command lines are what the job table
        // records (re-expanding later could glob differently once the
        // pipeline has touched the filesystem).
        let mut status = 0;
        let mut opened: Vec<i32> = Vec::new();
        let mut described: Vec<String> = Vec::new();
        let mut stages: Vec<Option<Stage>> = Vec::with_capacity(commands.len());
        for command in &commands {
            let words = self.expand_words(env, &command.words);
            if words.is_empty() {
                stages.push(None);
                continue;
            }
            described.push(words.join(" "));
            stages.push(match self.prepare_stage(env, words, &command.redirects, &mut opened) {
                Ok(stage) => Some(stage),
                Err(code) => {
                    status = code;
                    None
                }
            });
        }
        let to_close = match plumb(env, &mut stages, opened, &mut status) {
            Ok(to_close) => to_close,
            Err(code) => return code,
        };

        // Batch 2: the first stage that starts leads a new process group,
        // which holds the terminal from its birth when in the foreground.
        // It may still try each `PATH` candidate, as nothing is closed yet.
        let foreground = !pipeline.background;
        let lead = SpawnAttrs {
            group: SpawnGroup::New,
            foreground,
        };
        let mut stages = stages.into_iter().flatten();
        let mut pids = Vec::new();
        for stage in stages.by_ref() {
            match spawn_stage(env, &stage, lead) {
                Ok(pid) => {
                    pids.push(pid);
                    break;
                }
                Err(code) => status = code,
            }
        }
        let rest: Vec<Stage> = stages.collect();

        // Batch 3: the other stages join the leader's group, the shell closes
        // its copies of the pipe and redirect descriptors so readers see EOF
        // once the writers exit, and — in the foreground — waits for the
        // leader, reading its own group first (once per shell) to take the
        // terminal back after.
        let Some(&leader) = pids.first() else {
            let _ = env.close_many(&to_close);
            return status;
        };
        let asks_group = foreground && self.shell_pgid.is_none();
        let mut calls: Vec<JobCall> = Vec::new();
        if asks_group {
            calls.push(JobCall::Getpgid(0));
        }
        let join = SpawnAttrs {
            group: SpawnGroup::Join(leader),
            foreground: false,
        };
        calls.extend(rest.iter().map(|stage| JobCall::Spawn {
            path: &stage.candidates[0],
            args: &stage.words,
            stdio: stage.stdio,
            attrs: join,
        }));
        calls.extend(to_close.iter().map(|&fd| JobCall::Close(fd)));
        if foreground {
            calls.push(JobCall::Wait {
                pid: leader as i32,
                options: WUNTRACED,
            });
        }
        let mut results = env.job_control(&calls).into_iter();
        if asks_group {
            self.shell_pgid = Some(match results.next() {
                Some(Ok(JobValue::Id(pgid))) => pgid,
                _ => 0,
            });
        }
        // A stage that fails to start here is reported; the pipeline's
        // status is still its last started member's.
        for (stage, result) in rest.iter().zip(results.by_ref()) {
            match pid_of(result) {
                Ok(pid) => pids.push(pid),
                Err(e) => {
                    spawn_failed(env, &stage.words[0], e);
                }
            }
        }

        let cmdline = described.join(" | ");
        if pipeline.background {
            self.last_background_pid = pids.last().copied();
            self.add_job(leader, pids, cmdline);
            return 0;
        }
        let first_wait = results.nth(to_close.len()).map(|result| match result? {
            JobValue::Waited(waited) => Ok(waited),
            _ => Err(Errno::EIO),
        });
        self.foreground_wait(env, leader, pids, &cmdline, first_wait)
    }

    /// Makes a stage of `words`: opens its redirections and lists the paths
    /// its command may run from.  A failure is reported, as the shell's
    /// status for the stage.
    fn prepare_stage(
        &self,
        env: &mut dyn RuntimeEnv,
        words: Vec<String>,
        redirects: &[Redirect],
        opened: &mut Vec<i32>,
    ) -> Result<Stage, i32> {
        let stdio = self.open_redirects(env, redirects, opened).map_err(|e| {
            env.eprint(&format!("sh: redirect: {e}\n"));
            1
        })?;
        let candidates = self.candidates(env, &words[0]);
        if candidates.is_empty() {
            return Err(spawn_failed(env, &words[0], Errno::ENOENT));
        }
        Ok(Stage {
            words,
            stdio,
            candidates,
        })
    }

    /// Opens a command's redirections, returning the descriptors they give
    /// its stdin, stdout and stderr; every descriptor opened is recorded in
    /// `opened`, for the shell to close once the pipeline has started.
    fn open_redirects(
        &self,
        env: &mut dyn RuntimeEnv,
        redirects: &[Redirect],
        opened: &mut Vec<i32>,
    ) -> Result<SpawnStdio, Errno> {
        let mut stdio = SpawnStdio::inherit();
        for redirect in redirects {
            let (path, flags, slot) = match redirect {
                Redirect::Input(path) => (path, OpenFlags::read_only(), &mut stdio.stdin),
                Redirect::Output(path) => (path, OpenFlags::write_create_truncate(), &mut stdio.stdout),
                Redirect::Append(path) => (path, OpenFlags::append_create(), &mut stdio.stdout),
                Redirect::Stderr(path) => (path, OpenFlags::write_create_truncate(), &mut stdio.stderr),
            };
            let fd = env.open(&self.expand_word(env, path), flags)?;
            opened.push(fd);
            *slot = Some(fd);
        }
        Ok(stdio)
    }

    /// The paths a command name may run from: itself if it names a path,
    /// else each `PATH` directory's entry, in order.
    fn candidates(&self, env: &dyn RuntimeEnv, command: &str) -> Vec<String> {
        if command.contains('/') {
            return vec![command.to_owned()];
        }
        let path_var = self.lookup(env, "PATH");
        let path_var = if path_var.is_empty() {
            "/usr/bin:/bin".to_owned()
        } else {
            path_var
        };
        path_var
            .split(':')
            .filter(|dir| !dir.is_empty())
            .map(|dir| format!("{dir}/{command}"))
            .collect()
    }

    /// Records a running background job, returning its job number.
    fn add_job(&mut self, pgid: u32, pids: Vec<u32>, cmdline: String) -> usize {
        self.next_job_id += 1;
        let id = self.next_job_id;
        self.jobs.push(Job {
            id,
            pgid,
            pids,
            cmdline,
            state: JobState::Running,
        });
        id
    }

    /// Waits for a foreground process group, which already holds the
    /// terminal, reporting stops as well as exits, then takes the terminal
    /// back.  `first` is the first member's wait when the caller already
    /// made it.  A stopped pipeline becomes a `Stopped` entry in the job
    /// table, exactly like `Ctrl-Z` under a real shell.
    fn foreground_wait(
        &mut self,
        env: &mut dyn RuntimeEnv,
        pgid: u32,
        pids: Vec<u32>,
        cmdline: &str,
        mut first: Option<Result<Option<WaitedChild>, Errno>>,
    ) -> i32 {
        let mut status = 0;
        let mut remaining = pids;
        let mut stopped = false;
        while let Some(&pid) = remaining.first() {
            let waited = first.take().unwrap_or_else(|| env.wait_options(pid as i32, WUNTRACED));
            match waited {
                Ok(Some(child)) if child.stop_signal().is_some() => {
                    stopped = true;
                    status = 128 + child.stop_signal().map(|s| s.number()).unwrap_or(0);
                    break;
                }
                Ok(Some(child)) => {
                    remaining.remove(0);
                    status = Shell::child_status(&child);
                }
                Ok(None) => {
                    remaining.remove(0);
                }
                Err(_) => {
                    remaining.remove(0);
                    status = 1;
                }
            }
        }
        let shell_pgid = self.shell_pgid(env);
        let _ = env.tcsetpgrp(shell_pgid);
        if stopped {
            let id = self.add_job(pgid, remaining, cmdline.to_owned());
            if let Some(job) = self.jobs.last_mut() {
                job.state = JobState::Stopped;
            }
            env.eprint(&format!("[{id}]+  Stopped  {cmdline}\n"));
        }
        status
    }

    /// The shell's own process group, read once.
    fn shell_pgid(&mut self, env: &mut dyn RuntimeEnv) -> u32 {
        *self.shell_pgid.get_or_insert_with(|| env.getpgid(0).unwrap_or(0))
    }

    /// The shell's exit status for one reaped child: its exit code, or
    /// `128 + signal` when it was killed.
    fn child_status(child: &WaitedChild) -> i32 {
        child.exit_code.unwrap_or(128 + (child.status & 0x7f))
    }

    fn try_builtin(&mut self, env: &mut dyn RuntimeEnv, words: &[String]) -> Option<i32> {
        match words[0].as_str() {
            "cd" => {
                let target = words.get(1).cloned().unwrap_or_else(|| self.lookup(env, "HOME"));
                let target = if target.is_empty() { "/".to_owned() } else { target };
                Some(match env.chdir(&target) {
                    Ok(()) => 0,
                    Err(e) => {
                        env.eprint(&format!("cd: {target}: {e}\n"));
                        1
                    }
                })
            }
            "pwd" => {
                let cwd = env.getcwd();
                env.print(&format!("{cwd}\n"));
                Some(0)
            }
            "exit" => {
                let code = words.get(1).and_then(|w| w.parse().ok()).unwrap_or(self.last_status);
                self.exited = Some(code);
                Some(code)
            }
            "export" => {
                for word in &words[1..] {
                    if let Some((name, value)) = word.split_once('=') {
                        self.vars.insert(name.to_owned(), value.to_owned());
                    }
                }
                Some(0)
            }
            "unset" => {
                for word in &words[1..] {
                    self.vars.remove(word);
                }
                Some(0)
            }
            "true" | ":" => Some(0),
            "false" => Some(1),
            "wait" => {
                let mut status = 0;
                for job in std::mem::take(&mut self.jobs) {
                    for pid in job.pids {
                        if let Ok(child) = env.wait(pid as i32) {
                            status = Shell::child_status(&child);
                        }
                    }
                }
                Some(status)
            }
            "jobs" => {
                self.refresh_jobs(env);
                let mut out = String::new();
                for job in &self.jobs {
                    let state = match job.state {
                        JobState::Running => "Running",
                        JobState::Stopped => "Stopped",
                        JobState::Done(_) => "Done",
                    };
                    out.push_str(&format!("[{}]  {}  {}\n", job.id, state, job.cmdline));
                }
                env.print(&out);
                // `jobs` reports Done entries once, then retires them.
                self.jobs.retain(|job| !matches!(job.state, JobState::Done(_)));
                Some(0)
            }
            "fg" => {
                self.refresh_jobs(env);
                let Some(index) = self.pick_job(words.get(1)) else {
                    env.eprint("fg: no such job\n");
                    return Some(1);
                };
                let job = self.jobs.remove(index);
                let _ = env.tcsetpgrp(job.pgid);
                let _ = env.kill_group(job.pgid, Signal::SIGCONT);
                Some(self.foreground_wait(env, job.pgid, job.pids, &job.cmdline, None))
            }
            "bg" => {
                self.refresh_jobs(env);
                let Some(index) = self.pick_job(words.get(1)) else {
                    env.eprint("bg: no such job\n");
                    return Some(1);
                };
                let job = &mut self.jobs[index];
                job.state = JobState::Running;
                let pgid = job.pgid;
                let line = format!("[{}]  {} &\n", job.id, job.cmdline);
                let _ = env.kill_group(pgid, Signal::SIGCONT);
                env.print(&line);
                Some(0)
            }
            _ => None,
        }
    }

    /// Polls every job's members without blocking and updates job states:
    /// stopped members mark the job `Stopped`, reaped members leave it, and
    /// a job whose last member exits becomes `Done`.
    fn refresh_jobs(&mut self, env: &mut dyn RuntimeEnv) {
        for job in &mut self.jobs {
            if matches!(job.state, JobState::Done(_)) {
                continue;
            }
            let mut stopped = false;
            let mut last_status = 0;
            job.pids
                .retain(|&pid| match env.wait_options(pid as i32, WNOHANG | WUNTRACED) {
                    Ok(Some(child)) if child.stop_signal().is_some() => {
                        stopped = true;
                        true
                    }
                    Ok(Some(child)) => {
                        last_status = Shell::child_status(&child);
                        false
                    }
                    Ok(None) => true,
                    // ECHILD and the like: the member is gone.
                    Err(_) => false,
                });
            if job.pids.is_empty() {
                job.state = JobState::Done(last_status);
            } else if stopped {
                job.state = JobState::Stopped;
            }
        }
    }

    /// Resolves a `%n` / `n` job spec (or, with no spec, the most recent
    /// live job) to an index into the job table.
    fn pick_job(&self, spec: Option<&String>) -> Option<usize> {
        match spec {
            Some(spec) => {
                let id: usize = spec.trim_start_matches('%').parse().ok()?;
                self.jobs.iter().position(|job| job.id == id)
            }
            None => self
                .jobs
                .iter()
                .rposition(|job| !matches!(job.state, JobState::Done(_))),
        }
    }
}

/// One command of a pipeline, expanded and ready to start.
struct Stage {
    /// The expanded words, the command first.
    words: Vec<String>,
    /// Its standard descriptors: its redirections', then the pipeline's.
    stdio: SpawnStdio,
    /// The paths the command may run from, in `PATH` order; just the one
    /// found, once [`Stage::resolve`] has looked.
    candidates: Vec<String>,
}

impl Stage {
    /// Finds, by `access`, the first candidate after the first that exists,
    /// and keeps only it; `false` if none does.
    fn resolve(&mut self, env: &mut dyn RuntimeEnv) -> bool {
        let Some(found) = self.candidates.iter().skip(1).position(|path| env.access(path).is_ok()) else {
            return false;
        };
        self.candidates.drain(..=found);
        self.candidates.truncate(1);
        true
    }
}

/// Batch 1 of a pipeline's start: creates the pipes between `stages` and
/// wires them in where no redirection overrides them, and finds each later
/// stage's program by an `access` of its first candidate (the rest, one by
/// one, only if that one is missing).  Later stages start in a batch that
/// also closes the shell's pipe ends, where a failed spawn cannot be tried
/// again, so a stage whose program is not found is reported and dropped
/// here.  Returns the descriptors the shell must close once the pipeline
/// has started: the pipe ends and `opened`.
fn plumb(
    env: &mut dyn RuntimeEnv,
    stages: &mut [Option<Stage>],
    opened: Vec<i32>,
    status: &mut i32,
) -> Result<Vec<i32>, i32> {
    let later: Vec<usize> = (1..stages.len()).filter(|&i| stages[i].is_some()).collect();
    let mut calls: Vec<JobCall> = (1..stages.len()).map(|_| JobCall::Pipe).collect();
    calls.extend(
        later
            .iter()
            .filter_map(|&i| stages[i].as_ref())
            .map(|stage| JobCall::Access(&stage.candidates[0])),
    );
    let mut results = env.job_control(&calls).into_iter();
    let mut pipes = Vec::new();
    let mut pipe_error = None;
    for result in results.by_ref().take(stages.len() - 1) {
        match result {
            Ok(JobValue::Pipe(read_fd, write_fd)) => pipes.push((read_fd, write_fd)),
            Ok(_) => pipe_error = Some(Errno::EIO),
            Err(e) => pipe_error = Some(e),
        }
    }
    let found: Vec<bool> = results.map(|result| result.is_ok()).collect();
    let mut to_close: Vec<i32> = pipes
        .iter()
        .flat_map(|&(read_fd, write_fd)| [read_fd, write_fd])
        .collect();
    to_close.extend(opened);
    if let Some(e) = pipe_error {
        env.eprint(&format!("sh: pipe: {e}\n"));
        let _ = env.close_many(&to_close);
        return Err(1);
    }
    for (i, found) in later.into_iter().zip(found) {
        let Some(stage) = stages[i].as_mut() else {
            continue;
        };
        if !found && !stage.resolve(env) {
            *status = spawn_failed(env, &stage.words[0], Errno::ENOENT);
            stages[i] = None;
        }
    }
    for (i, stage) in stages.iter_mut().enumerate() {
        let Some(stage) = stage else {
            continue;
        };
        if i > 0 {
            stage.stdio.stdin = stage.stdio.stdin.or(Some(pipes[i - 1].0));
        }
        if i < pipes.len() {
            stage.stdio.stdout = stage.stdio.stdout.or(Some(pipes[i].1));
        }
    }
    Ok(to_close)
}

/// Starts `stage` with `attrs`, trying each of its candidates in turn
/// while the last says `ENOENT`.  A failure is reported, as the shell's
/// status for the stage.
fn spawn_stage(env: &mut dyn RuntimeEnv, stage: &Stage, attrs: SpawnAttrs) -> Result<u32, i32> {
    for path in &stage.candidates {
        let spawn = JobCall::Spawn {
            path,
            args: &stage.words,
            stdio: stage.stdio,
            attrs,
        };
        match pid_of(env.job_control(&[spawn]).pop().unwrap_or(Err(Errno::EIO))) {
            Err(Errno::ENOENT) => continue,
            started => return started.map_err(|e| spawn_failed(env, &stage.words[0], e)),
        }
    }
    Err(spawn_failed(env, &stage.words[0], Errno::ENOENT))
}

/// The pid a spawn's [`JobCall`] answered.
fn pid_of(result: Result<JobValue, Errno>) -> Result<u32, Errno> {
    match result? {
        JobValue::Id(pid) => Ok(pid),
        _ => Err(Errno::EIO),
    }
}

/// Reports a command that could not start and returns the shell's status
/// for it: 127 when it was not found, 126 otherwise.
fn spawn_failed(env: &mut dyn RuntimeEnv, command: &str, e: Errno) -> i32 {
    if e == Errno::ENOENT {
        env.eprint(&format!("sh: {command}: command not found\n"));
        127
    } else {
        env.eprint(&format!("sh: {command}: {e}\n"));
        126
    }
}

/// Pathname expansion: matches the final component of `pattern` against the
/// entries of its parent directory.
fn glob(env: &mut dyn RuntimeEnv, pattern: &str) -> Vec<String> {
    let (dir, file_pattern) = match pattern.rfind('/') {
        Some(idx) => (&pattern[..idx + 1], &pattern[idx + 1..]),
        None => ("", pattern),
    };
    let list_dir = if dir.is_empty() { "." } else { dir.trim_end_matches('/') };
    let list_dir = if list_dir.is_empty() { "/" } else { list_dir };
    let Ok(entries) = env.readdir(list_dir) else {
        return Vec::new();
    };
    let mut matches: Vec<String> = entries
        .into_iter()
        .filter(|entry| browsix_fs::path::glob_match(file_pattern, &entry.name))
        .map(|entry| format!("{dir}{}", entry.name))
        .collect();
    matches.sort();
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use browsix_fs::{FileSystem, MemFs, MountedFs};
    use browsix_runtime::{ExecutionProfile, NativeEnv, NativeWorld, SyscallConvention};
    use std::sync::Arc;

    /// A native world with the coreutils and the shell registered.
    fn world() -> NativeWorld {
        let fs = Arc::new(MountedFs::new(Arc::new(MemFs::new())));
        fs.mkdir("/docs").unwrap();
        fs.write_file("/docs/file.txt", b"apple\nbanana\napple pie\n").unwrap();
        fs.write_file("/docs/other.txt", b"cherry\n").unwrap();
        fs.mkdir("/home").unwrap();
        let world = NativeWorld::new(fs, ExecutionProfile::instant(SyscallConvention::Direct));
        browsix_utils::register_native(world.table());
        crate::register_native(world.table());
        world
    }

    fn run(world: &NativeWorld, script: &str) -> (i32, String, String) {
        let mut env = NativeEnv::new(world.clone(), &["sh"], "/");
        let mut shell = Shell::new();
        // Capture output through a tee into in-memory sinks by running via the
        // world's runner instead.
        let result = world.run_with_stdin("sh", &["sh"], script.as_bytes());
        let _ = (&mut env, &mut shell);
        (
            result.exit_code,
            result.stdout_string(),
            String::from_utf8_lossy(&result.stderr).into_owned(),
        )
    }

    #[test]
    fn simple_commands_and_exit_status() {
        let w = world();
        let (code, stdout, _) = run(&w, "echo hello world\n");
        assert_eq!(code, 0);
        assert_eq!(stdout, "hello world\n");
        let (code, _, stderr) = run(&w, "definitely-not-a-command\n");
        assert_eq!(code, 127);
        assert!(stderr.contains("command not found"));
    }

    #[test]
    fn pipelines_compose_utilities() {
        let w = world();
        let (code, stdout, _) = run(&w, "cat /docs/file.txt | grep apple | wc -l\n");
        assert_eq!(code, 0);
        assert_eq!(stdout.trim(), "2");
    }

    #[test]
    fn redirection_reads_and_writes_files() {
        let w = world();
        let (code, _, _) = run(&w, "grep apple < /docs/file.txt > /docs/apples.txt\n");
        assert_eq!(code, 0);
        assert_eq!(w.fs().read_file("/docs/apples.txt").unwrap(), b"apple\napple pie\n");
        let (_, _, _) = run(&w, "echo more >> /docs/apples.txt\n");
        assert_eq!(
            w.fs().read_file("/docs/apples.txt").unwrap(),
            b"apple\napple pie\nmore\n"
        );
        // Stderr redirection captures error messages.
        let (_, _, _) = run(&w, "cat /missing 2> /docs/errors.txt\n");
        let errors = w.fs().read_file("/docs/errors.txt").unwrap();
        assert!(String::from_utf8_lossy(&errors).contains("no such file"));
    }

    #[test]
    fn and_or_lists_and_exit_codes() {
        let w = world();
        let (code, stdout, _) = run(&w, "true && echo yes || echo no\n");
        assert_eq!(code, 0);
        assert_eq!(stdout, "yes\n");
        let (_, stdout, _) = run(&w, "false && echo yes || echo no\n");
        assert_eq!(stdout, "no\n");
        let (code, stdout, _) = run(&w, "false; echo status=$?\n");
        assert_eq!(stdout, "status=1\n");
        assert_eq!(code, 0);
    }

    #[test]
    fn variables_and_expansion() {
        let w = world();
        let (_, stdout, _) = run(&w, "NAME=browsix\necho hello $NAME ${NAME}!\n");
        assert_eq!(stdout, "hello browsix browsix!\n");
        let (_, stdout, _) = run(&w, "export GREETING=hi\necho $GREETING there\n");
        assert_eq!(stdout, "hi there\n");
        let (_, stdout, _) = run(&w, "X=1\nunset X\necho [$X]\n");
        assert_eq!(stdout, "[]\n");
        // Single quotes suppress expansion.
        let (_, stdout, _) = run(&w, "Y=2\necho '$Y' \"$Y\"\n");
        assert_eq!(stdout, "$Y 2\n");
    }

    #[test]
    fn builtins_cd_pwd_exit() {
        let w = world();
        let (_, stdout, _) = run(&w, "cd /docs\npwd\n");
        assert_eq!(stdout, "/docs\n");
        let (code, stdout, _) = run(&w, "echo before\nexit 3\necho after\n");
        assert_eq!(code, 3);
        assert_eq!(stdout, "before\n");
        let (code, _, stderr) = run(&w, "cd /nonexistent\n");
        assert_eq!(code, 1);
        assert!(stderr.contains("cd:"));
    }

    #[test]
    fn globbing_expands_wildcards() {
        let w = world();
        let (_, stdout, _) = run(&w, "echo /docs/*.txt\n");
        assert_eq!(stdout, "/docs/file.txt /docs/other.txt\n");
        // No matches: the pattern is passed through literally, like dash.
        let (_, stdout, _) = run(&w, "echo /docs/*.pdf\n");
        assert_eq!(stdout, "/docs/*.pdf\n");
    }

    #[test]
    fn scripts_with_positional_parameters() {
        let w = world();
        w.fs()
            .write_file("/docs/greet.sh", b"echo argc=$#\necho hello $1\n")
            .unwrap();
        let result = w.run("sh", &["sh", "/docs/greet.sh", "world"]);
        assert_eq!(result.exit_code, 0);
        assert_eq!(result.stdout_string(), "argc=1\nhello world\n");
        // sh -c form.
        let result = w.run("sh", &["sh", "-c", "echo from -c"]);
        assert_eq!(result.stdout_string(), "from -c\n");
        // Missing script.
        let result = w.run("sh", &["sh", "/docs/missing.sh"]);
        assert_eq!(result.exit_code, 127);
    }

    #[test]
    fn syntax_errors_report_status_2() {
        let w = world();
        let (code, _, stderr) = run(&w, "cat <\n");
        assert_eq!(code, 2);
        assert!(stderr.contains("syntax error"));
    }
}
