//! How a shell starts a job: children born in their process group and
//! holding the terminal (`spawn`'s `pgroup` and `foreground`), a terminal
//! line that reads the terminal, and a pipeline's `PATH` lookup of its later
//! stages.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::Terminal;
use browsix_core::kernel::shard::shard_of;
use browsix_core::{BootConfig, Kernel, WUNTRACED};
use browsix_runtime::{
    guest, ExecutionProfile, JobCall, JobValue, NodeLauncher, RuntimeEnv, SpawnAttrs, SpawnGroup, SpawnStdio,
    SyscallConvention,
};

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// A kernel with the shell and the utilities, at `shards` shards.
fn boot_full(shards: usize) -> Kernel {
    browsix_apps::boot_standard_kernel(browsix_apps::default_config().with_shards(shards), instant_async())
}

/// Blocks until no process is left, then returns what the kernel holds.
fn settled(kernel: &Kernel) -> browsix_core::ResourceCounts {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resources = kernel.resources();
        if resources.tasks == 0 {
            return resources;
        }
        assert!(Instant::now() < deadline, "the processes never exited: {resources:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A line that reads the terminal runs in the foreground on every line of a
/// `Terminal`, not only its first: each line's shell is a new process in a
/// new group, and the terminal's foreground group is still the one the last
/// line's shell left, so a child born in its shell's group and moved to its
/// own only afterwards read the terminal from a background group, and was
/// stopped by `SIGTTIN` (`cat | wc -c` exited 149, its stopped `cat` and
/// blocked `wc` left behind for good).
#[test]
fn a_terminal_reader_runs_in_the_foreground_on_every_line() {
    for shards in [1, 4] {
        let mut terminal = Terminal::new(boot_full(shards));
        for (line, stdout) in [("true", ""), ("cat", ""), ("cat | wc -c", "0"), ("cat | wc -c", "0")] {
            let result = terminal.run_line(line).unwrap();
            assert_eq!(
                (result.exit_code, result.stdout.trim(), result.stderr.as_str()),
                (0, stdout, ""),
                "{shards} shard(s): `{line}`"
            );
        }
        terminal.drain(Duration::from_secs(5));
        assert_eq!(terminal.ps(), Vec::new(), "{shards} shard(s): left behind");
        terminal.into_kernel().shutdown();
    }
}

/// `spawn`'s attributes hold from the child's first system call, wherever
/// the child is placed: a child in a new foreground group reads its own pid
/// as its group and the terminal as EOF (not `SIGTTIN`), a child that joins
/// a group reads that group, and a join `setpgid` would refuse is refused
/// with `setpgid`'s errno.
#[test]
fn spawn_attributes_hold_before_the_child_runs() {
    for shards in [1, 4] {
        let config = BootConfig::in_memory().with_shards(shards);
        let launcher =
            |name: &'static str, program| Arc::new(NodeLauncher::new(name, program).with_profile(instant_async()));
        config.registry.register(
            "/usr/bin/starter",
            launcher(
                "starter",
                guest("starter", |env: &mut dyn RuntimeEnv| {
                    // The terminal belongs to the starter's group, so a
                    // child left in any other group reads it from the
                    // background.
                    let own = env.getpgid(0).unwrap();
                    env.tcsetpgrp(own).unwrap();
                    let spawn = |env: &mut dyn RuntimeEnv, role: &str, attrs: SpawnAttrs| {
                        let args = ["member".to_owned(), role.to_owned()];
                        let call = JobCall::Spawn {
                            path: "/usr/bin/member",
                            args: &args,
                            stdio: SpawnStdio::default(),
                            attrs,
                        };
                        match env.job_control(&[call]).pop().unwrap() {
                            Ok(JobValue::Id(pid)) => Ok(pid),
                            Ok(other) => panic!("spawn answered {other:?}"),
                            Err(e) => Err(e),
                        }
                    };
                    let leader = spawn(
                        env,
                        "leader",
                        SpawnAttrs {
                            group: SpawnGroup::New,
                            foreground: true,
                        },
                    )
                    .unwrap();
                    let joiner = spawn(
                        env,
                        &format!("joiner {leader}"),
                        SpawnAttrs {
                            group: SpawnGroup::Join(leader),
                            foreground: false,
                        },
                    )
                    .unwrap();
                    let refused = spawn(
                        env,
                        "never",
                        SpawnAttrs {
                            group: SpawnGroup::Join(999_999),
                            foreground: false,
                        },
                    );
                    let setpgid = env.setpgid(0, 999_999);
                    env.print(&format!("{leader} {joiner} {refused:?} {setpgid:?}\n"));
                    for child in [leader, joiner] {
                        let waited = env.wait_options(child as i32, WUNTRACED).unwrap().unwrap();
                        if waited.exit_code != Some(0) {
                            env.eprint(&format!("{child}: {waited:?}\n"));
                            return 1;
                        }
                    }
                    0
                }),
            ),
        );
        config.registry.register(
            "/usr/bin/member",
            launcher(
                "member",
                guest("member", |env: &mut dyn RuntimeEnv| {
                    // The group comes first: nothing the child does may
                    // precede the attributes taking hold.
                    let pgid = env.getpgid(0).unwrap();
                    let pid = env.getpid();
                    let args = env.args();
                    let ok = match args[1].as_str() {
                        "leader" => pgid == pid && env.read(0, 16) == Ok(Vec::new()),
                        joiner => joiner.strip_prefix("joiner ").and_then(|g| g.parse().ok()) == Some(pgid),
                    };
                    if !ok {
                        env.eprint(&format!("{args:?}: pid {pid}, group {pgid}\n"));
                    }
                    i32::from(!ok)
                }),
            ),
        );
        let kernel = Kernel::boot(config);
        let handle = kernel.spawn("/usr/bin/starter", &["starter"], &[]).unwrap();
        let status = handle
            .wait_timeout(Duration::from_secs(20))
            .unwrap_or_else(|| panic!("{shards} shard(s): a child was stopped, or hung"));
        assert_eq!(status.code, Some(0), "{shards} shard(s): {}", handle.stderr_string());
        let stdout = handle.stdout_string();
        let fields: Vec<&str> = stdout.split_whitespace().collect();
        assert_eq!(
            fields[2..],
            ["Err(EPERM)", "Err(EPERM)"],
            "{shards} shard(s): a join of a group that never was"
        );
        if shards > 1 {
            for child in &fields[..2] {
                let child: u32 = child.parse().unwrap();
                assert_ne!(
                    shard_of(child, shards),
                    shard_of(handle.pid, shards),
                    "{shards} shard(s): child {child} shares its parent's shard"
                );
            }
        }
        kernel.shutdown();
    }
}

/// A later stage found only in the second `PATH` directory runs: its first
/// candidate is missing, so the shell looks further before the batch that
/// starts it.
#[test]
fn a_later_stage_found_further_down_path_runs() {
    let kernel = boot_full(1);
    kernel.registry().register(
        "/bin/shout",
        Arc::new(
            NodeLauncher::new(
                "shout",
                guest("shout", |env: &mut dyn RuntimeEnv| {
                    let input = env.read_stdin_to_end();
                    env.print(&String::from_utf8_lossy(&input).to_uppercase());
                    0
                }),
            )
            .with_profile(instant_async()),
        ),
    );
    let mut terminal = Terminal::new(kernel);
    let result = terminal.run_line("echo quiet words | shout | cat").unwrap();
    assert_eq!(
        (result.exit_code, result.stdout.as_str(), result.stderr.as_str()),
        (0, "QUIET WORDS\n", "")
    );
    terminal.into_kernel().shutdown();
}

/// An unknown middle stage is reported and left out; the other stages run
/// to the end (its neighbours see a closed pipe and EOF), the line's status
/// is its last member's, and the kernel holds nothing more than before.
#[test]
fn an_unknown_middle_stage_is_reported_and_the_rest_finish() {
    let mut terminal = Terminal::new(boot_full(1));
    let baseline = settled(terminal.kernel());
    let result = terminal.run_line("echo hello | no-such-tool | cat").unwrap();
    assert_eq!(
        (result.exit_code, result.stdout.as_str(), result.stderr.as_str()),
        (0, "", "sh: no-such-tool: command not found\n")
    );
    assert_eq!(settled(terminal.kernel()), baseline);
    terminal.into_kernel().shutdown();
}
