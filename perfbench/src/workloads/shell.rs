//! `sh_pipelines` and `sh_crowded`: one `Terminal::run_line` per op, drawn
//! from eight pipeline templates over a generated `/usr/bin` and word list.
//! The crowded variant runs the same lines beside 128 resident parked guests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::Terminal;
use browsix_core::KernelStats;
use browsix_fs::FileSystem;
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, NodeLauncher, RuntimeEnv, SyscallConvention,
};

use super::{standard_kernel, Phase, Workload};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Resident parked guests in `sh_crowded`: half ring-mapped, half async.
pub const CROWD: usize = 128;

const TOOLS: usize = 200;
const WORD_LINES: usize = 400;
const TOOL_MODE: u32 = 0o640;
const VOCABULARY: [&str; 16] = [
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heron", "inlet", "jetty", "knoll", "larch",
    "marsh", "north", "oxbow", "pines",
];

/// The generated inputs: what is staged into the kernel's file system, kept
/// so the generator can compute every expected output itself.
pub struct Corpus {
    /// `(name, size)` of each `/usr/bin/tool-NNN`.
    pub tools: Vec<(String, usize)>,
    /// The lines of `/home/words.txt`.
    pub words: Vec<String>,
}

impl Corpus {
    pub fn generate(rng: &mut Rng) -> Corpus {
        let tools = (0..TOOLS)
            .map(|i| (format!("tool-{i:03}"), 256 + rng.below(64) as usize * 16))
            .collect();
        let words = (0..WORD_LINES)
            .map(|_| {
                format!(
                    "{} {} {}",
                    rng.pick(&VOCABULARY),
                    rng.pick(&VOCABULARY),
                    rng.below(1000)
                )
            })
            .collect();
        Corpus { tools, words }
    }

    fn words_file(&self) -> String {
        let mut text = self.words.join("\n");
        text.push('\n');
        text
    }

    fn stage(&self, fs: &dyn FileSystem, rng: &mut Rng) {
        for (name, size) in &self.tools {
            let path = format!("/usr/bin/{name}");
            fs.write_file(&path, &rng.bytes(*size)).expect("stage tool");
            fs.chmod(&path, TOOL_MODE).expect("chmod tool");
        }
        fs.write_file("/home/words.txt", self.words_file().as_bytes())
            .expect("stage words");
    }
}

/// What must hold in the file system after a line ran.
#[derive(Debug, Clone, PartialEq)]
pub enum After {
    Nothing,
    FileIs(String, String),
    Gone(String),
}

/// One op: the command line and everything the oracle checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub command: String,
    pub stdout: String,
    pub after: After,
}

fn joined(lines: &[String]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Draws op number `index` from the templates.  Every expected output is
/// computed here from the corpus; nothing is read back from the system.
pub fn draw(corpus: &Corpus, rng: &mut Rng, index: u64) -> Line {
    let word = *rng.pick(&VOCABULARY);
    let count = 1 + rng.below(12) as usize;
    let plain = |command: String, stdout: String| Line {
        command,
        stdout,
        after: After::Nothing,
    };
    match rng.below(8) {
        0 => {
            // tool-NN matches tool-NN0..tool-NN9.
            let prefix = format!("tool-{:02}", rng.below(TOOLS as u64 / 10));
            let mut listing: Vec<String> = corpus
                .tools
                .iter()
                .filter(|(name, _)| name.contains(&prefix))
                .map(|(name, size)| format!("-{TOOL_MODE:o} {size:>8} {name}"))
                .collect();
            listing.sort();
            listing.truncate(count);
            plain(
                format!("ls -l /usr/bin | grep {prefix} | sort | head -n {count}"),
                joined(&listing),
            )
        }
        1 => {
            let hits = corpus.words.iter().filter(|l| l.contains(word)).count();
            plain(
                format!("cat /home/words.txt | grep {word} | wc -l"),
                format!("{hits} \n"),
            )
        }
        2 => {
            let mut sorted = corpus.words.clone();
            sorted.sort();
            let tail = &sorted[sorted.len() - count..];
            plain(format!("sort /home/words.txt | tail -n {count}"), joined(tail))
        }
        3 => {
            let text = format!("{word} {index} {count}");
            let path = format!("/tmp/tee-{}", index % 8);
            Line {
                command: format!("echo {text} | tee {path} | cat"),
                stdout: format!("{text}\n"),
                after: After::FileIs(path, format!("{text}\n")),
            }
        }
        4 => {
            let dir = format!("/tmp/dir-{index}");
            Line {
                command: format!("mkdir {dir} && touch {dir}/f && rm {dir}/f && rmdir {dir}"),
                stdout: String::new(),
                after: After::Gone(dir),
            }
        }
        5 => {
            let hits = corpus.words.iter().filter(|l| l.contains(word)).count();
            plain(format!("grep -c {word} /home/words.txt"), format!("{hits}\n"))
        }
        6 => {
            let mut head: Vec<String> = corpus.words[..count].to_vec();
            head.sort();
            head.reverse();
            plain(format!("head -n {count} /home/words.txt | sort -r"), joined(&head))
        }
        _ => plain(
            format!("wc -l /home/words.txt && echo done-{index}"),
            format!("{WORD_LINES} /home/words.txt\ndone-{index}\n"),
        ),
    }
}

pub struct ShellWorkload {
    terminal: Terminal,
    corpus: Corpus,
    ops: Rng,
    next_index: u64,
    crowd: usize,
}

impl ShellWorkload {
    pub fn setup(seed: u64, crowd: usize) -> ShellWorkload {
        let mut inputs = Rng::new(seed, 0);
        let corpus = Corpus::generate(&mut inputs);
        let kernel = standard_kernel();
        corpus.stage(kernel.fs().as_ref(), &mut inputs);
        if crowd > 0 {
            park_crowd(&kernel, crowd);
        }
        ShellWorkload {
            terminal: Terminal::new(kernel),
            corpus,
            ops: Rng::new(seed, 1),
            next_index: 0,
            crowd,
        }
    }

    fn check(&self, line: &Line, result: &browsix_apps::terminal::TerminalResult) -> bool {
        let fs = self.terminal.kernel().fs();
        let after_ok = match &line.after {
            After::Nothing => true,
            After::FileIs(path, text) => fs.read_file(path).map(|d| d == text.as_bytes()).unwrap_or(false),
            After::Gone(path) => !fs.exists(path),
        };
        result.exit_code == 0 && result.stdout == line.stdout && after_ok
    }
}

impl Workload for ShellWorkload {
    fn run(&mut self, duration: Duration, tracer: &Arc<Tracer>) -> Phase {
        let mut phase = Phase::default();
        while phase.busy_s < duration.as_secs_f64() {
            let index = self.next_index;
            self.next_index += 1;
            tracer.span("bench.op", 0, index, |op| {
                let line = draw(&self.corpus, &mut self.ops, index);
                let start = Instant::now();
                let result = tracer.span("apps.terminal.run_line", op, index, |_| {
                    self.terminal.run_line(&line.command)
                });
                let took = start.elapsed().as_secs_f64();
                phase.ops += 1;
                phase.busy_s += took;
                phase.lat_us.push(took * 1e6);
                match result {
                    Ok(result) if self.check(&line, &result) => phase.bytes += result.stdout.len() as u64,
                    outcome => {
                        phase.failed += 1;
                        eprintln!("perfbench: op {index} `{}` failed: {outcome:?}", line.command);
                    }
                }
            });
        }
        phase
    }

    fn stats(&self) -> KernelStats {
        self.terminal.kernel().stats()
    }

    fn finish(self: Box<Self>) -> bool {
        let kernel = self.terminal.into_kernel();
        // The crowd must still be resident: a crowd that exited or was never
        // parked would silently turn `sh_crowded` into `sh_pipelines`.
        let resident = kernel.tasks().len() >= self.crowd;
        kernel.shutdown();
        resident
    }
}

/// Starts `count` guests that each hold a pipe plus four dup'd descriptors
/// and block in `read` forever, and returns once all of them are parked.
fn park_crowd(kernel: &browsix_core::Kernel, count: usize) {
    let started = Arc::new(AtomicUsize::new(0));
    let parked = {
        let started = Arc::clone(&started);
        guest("parked", move |env: &mut dyn RuntimeEnv| {
            let Ok((read_fd, write_fd)) = env.pipe() else {
                return 1;
            };
            for (i, fd) in [read_fd, write_fd, read_fd, write_fd].into_iter().enumerate() {
                if env.dup2(fd, 20 + i as i32).is_err() {
                    return 1;
                }
            }
            started.fetch_add(1, Ordering::SeqCst);
            // The write end stays open in this very process, so this read
            // never returns until the kernel tears the process down.
            let _ = env.read(read_fd, 64);
            0
        })
    };
    let registry = kernel.registry();
    registry.register(
        "/usr/bin/parked-ring",
        Arc::new(
            EmscriptenLauncher::new("parked", Arc::clone(&parked), EmscriptenMode::AsmJs)
                .with_profile(ExecutionProfile::instant(SyscallConvention::Sync)),
        ),
    );
    registry.register(
        "/usr/bin/parked-async",
        Arc::new(NodeLauncher::new("parked", parked).with_profile(ExecutionProfile::instant(SyscallConvention::Async))),
    );
    let sink: browsix_core::OutputSink = Arc::new(|_: &[u8]| {});
    let parked_before = kernel.stats().waiters_parked;
    for i in 0..count {
        let path = if i % 2 == 0 {
            "/usr/bin/parked-ring"
        } else {
            "/usr/bin/parked-async"
        };
        kernel
            .spawn_with_sinks(path, &["parked"], &[], Arc::clone(&sink), Arc::clone(&sink))
            .expect("spawn parked guest");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while started.load(Ordering::SeqCst) < count || kernel.stats().waiters_parked < parked_before + count as u64 {
        assert!(Instant::now() < deadline, "the parked crowd never settled");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> Vec<Line> {
        let corpus = Corpus::generate(&mut Rng::new(seed, 0));
        let mut ops = Rng::new(seed, 1);
        (0..64).map(|i| draw(&corpus, &mut ops, i)).collect()
    }

    #[test]
    fn same_seed_same_inputs_and_ops_different_seed_different() {
        let a = Corpus::generate(&mut Rng::new(11, 0));
        let b = Corpus::generate(&mut Rng::new(11, 0));
        let c = Corpus::generate(&mut Rng::new(12, 0));
        assert_eq!((&a.tools, &a.words), (&b.tools, &b.words));
        assert_ne!(a.words, c.words);
        assert_eq!(sequence(11), sequence(11));
        assert_ne!(sequence(11), sequence(12));
    }

    #[test]
    fn every_template_is_drawn_and_expects_something_checkable() {
        let lines = sequence(3);
        for needle in [
            "ls -l", "| wc -l", "tail -n", "tee ", "mkdir ", "grep -c", "sort -r", "&& echo",
        ] {
            assert!(
                lines.iter().any(|l| l.command.contains(needle)),
                "no `{needle}` line drawn"
            );
        }
        for line in &lines {
            assert!(!line.stdout.is_empty() || line.after != After::Nothing, "{line:?}");
        }
    }
}
