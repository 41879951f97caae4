//! Per-line system-call budgets: the eight `sh_pipelines` template lines,
//! each run ten times on a `Terminal` over a fixed corpus, at 1 and 2 shards.
//!
//! A line's own counts do not depend on timing or on how many lines ran
//! before it, so they are gated exactly: every run must print the expected
//! output and stay within the line's `total_syscalls` and `batches` bounds.
//! A change that adds a round trip to a shell line fails here; one that
//! removes some lowers the table.  Each kernel is booted with an explicit
//! shard count, so `BROWSIX_SHARDS` does not change what this measures.

use browsix_apps::Terminal;
use browsix_core::Kernel;
use browsix_fs::FileSystem;
use browsix_runtime::{ExecutionProfile, SyscallConvention};

const TOOLS: usize = 200;
const TOOL_MODE: u32 = 0o640;
const WORD_LINES: usize = 400;
const VOCABULARY: [&str; 16] = [
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heron", "inlet", "jetty", "knoll", "larch",
    "marsh", "north", "oxbow", "pines",
];
const RUNS: usize = 10;

/// One template line and its bounds: `(total_syscalls, batches)` at 1 shard
/// and at 2 shards.
struct Budget {
    line: &'static str,
    one_shard: (u64, u64),
    two_shards: (u64, u64),
}

/// The bounds, each the count every run gives.  At 2 shards `cat`'s
/// `sendfile` into a pipe owned by the other shard is refused by design, and
/// `cat` falls back to its copy loop: 5 calls more.  The shell's own share
/// is n+3 batches per n-stage pipeline: the pipes, the first stage's spawn,
/// the other stages' spawns with the closes and the first wait, one wait
/// per other stage, and taking the terminal back.
///
/// A LaTeX `make` is not here: its count does not repeat (the first build
/// of a kernel makes 4 calls fewer than the next, and a rebuild within the
/// millisecond of the last finds the PDF up to date and makes 10).
const BUDGETS: [Budget; 8] = [
    Budget {
        line: "ls -l /usr/bin | grep tool-05 | sort | head -n 5",
        one_shard: (238, 24),
        two_shards: (238, 24),
    },
    Budget {
        line: "cat /home/words.txt | grep amber | wc -l",
        one_shard: (30, 20),
        two_shards: (35, 25),
    },
    Budget {
        line: "sort /home/words.txt | tail -n 5",
        one_shard: (21, 16),
        two_shards: (21, 16),
    },
    Budget {
        line: "echo amber 3 7 | tee /tmp/tee-3 | cat",
        one_shard: (31, 21),
        two_shards: (31, 21),
    },
    Budget {
        line: "mkdir /tmp/dir-4 && touch /tmp/dir-4/f && rm /tmp/dir-4/f && rmdir /tmp/dir-4",
        one_shard: (24, 23),
        two_shards: (24, 23),
    },
    Budget {
        line: "grep -c amber /home/words.txt",
        one_shard: (11, 10),
        two_shards: (11, 10),
    },
    Budget {
        line: "head -n 7 /home/words.txt | sort -r",
        one_shard: (20, 15),
        two_shards: (20, 15),
    },
    Budget {
        line: "wc -l /home/words.txt && echo done-7",
        one_shard: (16, 15),
        two_shards: (16, 15),
    },
];

/// The staged inputs: `/usr/bin/tool-NNN` of known sizes and a word list.
struct Corpus {
    tools: Vec<(String, usize)>,
    words: Vec<String>,
}

impl Corpus {
    fn new() -> Corpus {
        let tools = (0..TOOLS)
            .map(|i| (format!("tool-{i:03}"), 256 + (i * 37 % 64) * 16))
            .collect();
        let words = (0..WORD_LINES)
            .map(|i| {
                format!(
                    "{} {} {}",
                    VOCABULARY[i % 16],
                    VOCABULARY[(i * 7 + 3) % 16],
                    i * 389 % 1000
                )
            })
            .collect();
        Corpus { tools, words }
    }

    fn stage(&self, fs: &dyn FileSystem) {
        for (name, size) in &self.tools {
            let path = format!("/usr/bin/{name}");
            fs.write_file(&path, &vec![b'x'; *size]).unwrap();
            fs.chmod(&path, TOOL_MODE).unwrap();
        }
        let mut words = self.words.join("\n");
        words.push('\n');
        fs.write_file("/home/words.txt", words.as_bytes()).unwrap();
    }

    /// What `line` (one of [`BUDGETS`]) must print.
    fn expected(&self, line: &str) -> String {
        let joined = |lines: &[String]| -> String { lines.iter().map(|l| format!("{l}\n")).collect() };
        let hits = self.words.iter().filter(|l| l.contains("amber")).count();
        match line.split_whitespace().next().unwrap() {
            "ls" => {
                let mut listing: Vec<String> = self
                    .tools
                    .iter()
                    .filter(|(name, _)| name.contains("tool-05"))
                    .map(|(name, size)| format!("-{TOOL_MODE:o} {size:>8} {name}"))
                    .collect();
                listing.sort();
                listing.truncate(5);
                joined(&listing)
            }
            "cat" => format!("{hits} \n"),
            "sort" => {
                let mut sorted = self.words.clone();
                sorted.sort();
                joined(&sorted[sorted.len() - 5..])
            }
            "echo" => "amber 3 7\n".to_owned(),
            "mkdir" => String::new(),
            "grep" => format!("{hits}\n"),
            "head" => {
                let mut head = self.words[..7].to_vec();
                head.sort();
                head.reverse();
                joined(&head)
            }
            _ => format!("{WORD_LINES} /home/words.txt\ndone-7\n"),
        }
    }
}

fn boot(shards: usize, corpus: &Corpus) -> Terminal {
    let config = browsix_apps::default_config().with_shards(shards);
    let kernel: Kernel =
        browsix_apps::boot_standard_kernel(config, ExecutionProfile::instant(SyscallConvention::Async));
    corpus.stage(kernel.fs().as_ref());
    Terminal::new(kernel)
}

#[test]
fn each_template_line_stays_within_its_syscall_and_batch_budget() {
    let corpus = Corpus::new();
    for shards in [1, 2] {
        let mut terminal = boot(shards, &corpus);
        let mut total = (0, 0);
        for budget in &BUDGETS {
            let bound = if shards == 1 {
                budget.one_shard
            } else {
                budget.two_shards
            };
            let expected = corpus.expected(budget.line);
            let mut counts = Vec::new();
            for _ in 0..RUNS {
                let before = terminal.kernel().stats();
                let result = terminal.run_line(budget.line).unwrap();
                let after = terminal.kernel().stats();
                assert_eq!(
                    (result.exit_code, result.stdout.as_str(), result.stderr.as_str()),
                    (0, expected.as_str(), ""),
                    "{shards} shard(s): `{}`",
                    budget.line
                );
                counts.push((
                    after.total_syscalls - before.total_syscalls,
                    after.batches - before.batches,
                ));
            }
            let worst = counts.iter().fold((0, 0), |(s, b), &(cs, cb)| (s.max(cs), b.max(cb)));
            let repeats = counts.iter().all(|&count| count == worst);
            eprintln!("{shards} shard(s): {worst:?} (repeats: {repeats}) `{}`", budget.line);
            assert!(
                worst.0 <= bound.0 && worst.1 <= bound.1,
                "{shards} shard(s): `{}` made (syscalls, batches) {counts:?}, over its budget {bound:?}",
                budget.line
            );
            total = (total.0 + worst.0, total.1 + worst.1);
        }
        eprintln!("{shards} shard(s): total {total:?}");
        terminal.into_kernel().shutdown();
    }
}
