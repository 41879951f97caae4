//! The repository's benchmark: seven end-to-end workloads and the per-layer
//! metrics that explain them.  See `perfbench/README.md` for the method.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the contract's form)
//! perfbench [--seed <n>] [--seconds <s>] [--rounds <r>] [--trace-only]  all seven, interleaved, then traced
//! perfbench --check-repeat [--seed <n>]                                 the untraced set twice, compared
//! ```
//!
//! A parent process orchestrates; every round runs in a child process (this
//! same executable) that boots a fresh kernel, warms up, measures, verifies
//! and reports one JSON line.

mod host;
mod layers;
mod metrics;
mod rng;
mod summary;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_http::json::Json;

use metrics::{END_TO_END, PER_LAYER};
use summary::{median, percentile, thin, worsening};
use trace::Tracer;
use workloads::WORKLOADS;

/// Untraced rounds per workload; rates are the median over them.
const ROUNDS: usize = 5;
/// Rounds of a traced run: untraced and traced alternate, so the overhead
/// ratio compares neighbours in time.
const TRACE_ROUNDS: usize = 4;
const WARMUP: Duration = Duration::from_millis(300);
/// Set-up-only children run after each round: with the round's own set-up
/// that makes 15 `setup_s` samples a run (some set-ups take 0.3 ms and scatter
/// 30 % one by one).
const EXTRA_SETUPS: usize = 2;
/// Latency samples a round hands to the parent, at most.
const SAMPLE_CAP: usize = 20_000;
/// Times a round is run again when the host regime moved under it.
const ROUND_TRIES: usize = 3;
/// How long the soak may wait for a settled host that is not in a slow
/// episode before measuring anyway.
const SOAK_LIMIT: Duration = Duration::from_secs(6);
/// Where the lowest settled wake latency seen in this build directory is
/// kept, so that a later invocation can tell a slow host episode.
const BEST_WAKE_FILE: &str = "perfbench-best-wake-us";
/// Environment the product reads its shard count and transport from; the
/// benchmark measures the defaults users get, so both are removed.
const PRODUCT_ENV: [&str; 2] = ["BROWSIX_SHARDS", "BROWSIX_SYSCALL_RINGS"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
    check_repeat: bool,
    trace_only: bool,
    /// `round`, `setup` or `probes` when this process is a child.
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        rounds: ROUNDS,
        check_repeat: false,
        trace_only: false,
        child: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: bad {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| bad("seconds"))?,
            "--trace" => args.trace = value()? == "1",
            "--rounds" => args.rounds = value()?.parse().map_err(|_| bad("round count"))?,
            "--child" => args.child = Some(value()?),
            "--check-repeat" => args.check_repeat = true,
            "--trace-only" => args.trace_only = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            return Err(format!("unknown workload {name}"));
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.rounds == 0 {
        return Err("--seconds must be in (0, 60] and --rounds at least 1".to_owned());
    }
    Ok(args)
}

// ---- one round, in a child process ------------------------------------------------

/// What one round measured.  Crosses from child to parent as one JSON line.
#[derive(Debug, Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    /// Set-up times of the set-up-only children run after this round (filled
    /// in by the parent; a child never reports any).
    extra_setups_s: Vec<f64>,
    ops: f64,
    failed: f64,
    bytes: f64,
    busy_s: f64,
    cpu_s: f64,
    peak_rss_kib: f64,
    lat_us: Vec<f64>,
    /// Host probes before and after the round.
    wake_us: [f64; 2],
    cpu_ns_per_kiter: [f64; 2],
    /// Kernel counter deltas over the measured phase.
    counters: BTreeMap<String, f64>,
    /// Self time per span name, ns (traced rounds).
    self_ns: BTreeMap<String, f64>,
    state_ok: bool,
}

fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|v| Json::Number(*v)).collect())
}

fn number_map<K: AsRef<str>>(map: &BTreeMap<K, f64>) -> Json {
    Json::Object(
        map.iter()
            .map(|(k, v)| (k.as_ref().to_owned(), Json::Number(*v)))
            .collect(),
    )
}

impl Round {
    fn to_json(&self) -> Json {
        Json::object()
            .with("traced", self.traced)
            .with("setup_s", self.setup_s)
            .with("ops", self.ops)
            .with("failed", self.failed)
            .with("bytes", self.bytes)
            .with("busy_s", self.busy_s)
            .with("cpu_s", self.cpu_s)
            .with("peak_rss_kib", self.peak_rss_kib)
            .with("lat_us", numbers(&self.lat_us))
            .with("wake_us", numbers(&self.wake_us))
            .with("cpu_ns_per_kiter", numbers(&self.cpu_ns_per_kiter))
            .with("counters", number_map(&self.counters))
            .with("self_ns", number_map(&self.self_ns))
            .with("state_ok", self.state_ok)
    }

    fn from_json(json: &Json) -> Option<Round> {
        let num = |key: &str| json.get(key)?.as_f64();
        let list = |key: &str| -> Option<Vec<f64>> { json.get(key)?.as_array()?.iter().map(Json::as_f64).collect() };
        let map = |key: &str| -> Option<BTreeMap<String, f64>> {
            match json.get(key)? {
                Json::Object(entries) => entries.iter().map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect(),
                _ => None,
            }
        };
        Some(Round {
            traced: json.get("traced")?.as_bool()?,
            setup_s: num("setup_s")?,
            extra_setups_s: Vec::new(),
            ops: num("ops")?,
            failed: num("failed")?,
            bytes: num("bytes")?,
            busy_s: num("busy_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_kib: num("peak_rss_kib")?,
            lat_us: list("lat_us")?,
            wake_us: list("wake_us")?.try_into().ok()?,
            cpu_ns_per_kiter: list("cpu_ns_per_kiter")?.try_into().ok()?,
            counters: map("counters")?,
            self_ns: map("self_ns")?,
            state_ok: json.get("state_ok")?.as_bool()?,
        })
    }

    fn ops_per_s(&self) -> f64 {
        self.ops / self.busy_s
    }
}

/// The directory of this executable: inside the build directory, so span
/// dumps and the best-wake record land where build products already do.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Ends this (child) process with `op_timeout` once `limit` has passed: a hung
/// op must not hang the benchmark.
fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: op_timeout: child exceeded {limit:?}");
        std::process::exit(4);
    });
}

/// Boots and stages `workload`, returning it with the seconds that took.
fn timed_setup(workload: &str, seed: u64) -> (Box<dyn workloads::Workload>, f64) {
    let setup = Instant::now();
    let running = workloads::build(workload, seed).expect("workload name was validated");
    (running, setup.elapsed().as_secs_f64())
}

/// Runs one round of `workload` in this process and returns what it measured.
fn run_round(workload: &str, seed: u64, seconds: f64, traced: bool) -> Round {
    let tracer = Arc::new(Tracer::new(traced));
    let idle = Arc::new(Tracer::new(false));
    let before = host::probe();

    let (mut running, setup_s) = timed_setup(workload, seed);

    running.run(WARMUP, &idle);
    let counters_before = metrics::counters(&running.stats());
    let cpu_before = host::cpu_seconds();
    let phase = running.run(Duration::from_secs_f64(seconds), &tracer);
    let cpu_s = host::cpu_seconds() - cpu_before;
    let counters: BTreeMap<String, f64> = metrics::counters(&running.stats())
        .into_iter()
        .map(|(name, after)| (name.to_owned(), after - counters_before[name]))
        .collect();
    let state_ok = running.finish();
    let peak_rss_kib = host::peak_rss_kib();
    let after = host::probe();

    let spans = tracer.take();
    let self_ns = trace::self_times(&spans)
        .into_iter()
        .map(|(name, ns)| (name.to_owned(), ns as f64))
        .collect();
    if traced {
        let path = build_dir().join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, trace::spans_to_json(&spans).encode()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    Round {
        traced,
        setup_s,
        extra_setups_s: Vec::new(),
        ops: phase.ops as f64,
        failed: phase.failed as f64,
        bytes: phase.bytes as f64,
        busy_s: phase.busy_s,
        cpu_s,
        peak_rss_kib,
        lat_us: thin(phase.lat_us, SAMPLE_CAP),
        wake_us: [before.wake_us, after.wake_us],
        cpu_ns_per_kiter: [before.cpu_ns_per_kiter, after.cpu_ns_per_kiter],
        counters,
        self_ns,
        state_ok,
    }
}

// ---- the parent: orchestration ---------------------------------------------------

/// Runs this executable again as a child and parses the JSON on the last
/// line of its standard output.
fn run_child(child_args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(child_args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {:?} ended with {}", child_args, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::decode(last).map_err(|e| format!("child {child_args:?} printed no result: {e:?}"))
}

struct Orchestrator {
    seed: u64,
    /// The regime the host settled in before the first round.
    soak_wake_us: f64,
}

impl Orchestrator {
    /// One round of `workload`, run again (at most [`ROUND_TRIES`] times)
    /// while the host regime moves under it.
    fn round(&self, workload: &str, seconds: f64, traced: bool) -> Result<Round, String> {
        let child_args: Vec<String> = [
            "--child",
            "round",
            "--workload",
            workload,
            "--seed",
            &self.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]
        .map(str::to_owned)
        .to_vec();
        for attempt in 1..=ROUND_TRIES {
            let json = run_child(&child_args)?;
            let round = Round::from_json(&json).ok_or(format!("{workload}: malformed round result"))?;
            let [before, after] = round.wake_us;
            eprintln!(
                "perfbench: {workload}{} {:.1} op/s, setup {:.4} s, wake {before:.2} -> {after:.2} us, {:.0} ns/kiter",
                if traced { " (traced)" } else { "" },
                round.ops_per_s(),
                round.setup_s,
                round.cpu_ns_per_kiter[1]
            );
            let readings = [before, after, self.soak_wake_us];
            let (lo, hi) = readings
                .iter()
                .fold((f64::MAX, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            if host::same_regime(lo, hi) {
                return self.with_extra_setups(workload, round);
            }
            eprintln!(
                "perfbench: host regime moved under {workload}: wake {before:.2} -> {after:.2} us, soak {:.2} us; try {attempt}/{ROUND_TRIES}",
                self.soak_wake_us
            );
        }
        Err(format!(
            "host_unstable: {workload} never saw a settled host in {ROUND_TRIES} tries"
        ))
    }

    /// Adds [`EXTRA_SETUPS`] set-up-only children's times to `round`.
    fn with_extra_setups(&self, workload: &str, mut round: Round) -> Result<Round, String> {
        let child_args = [
            "--child",
            "setup",
            "--workload",
            workload,
            "--seed",
            &self.seed.to_string(),
        ];
        for _ in 0..EXTRA_SETUPS {
            let json = run_child(&child_args.map(str::to_owned))?;
            let (setup_s, ok) = json
                .get("setup_s")
                .and_then(Json::as_f64)
                .zip(json.get("state_ok").and_then(Json::as_bool))
                .ok_or(format!("{workload}: malformed set-up result"))?;
            round.extra_setups_s.push(setup_s);
            round.state_ok &= ok;
        }
        Ok(round)
    }

    /// `rounds` rounds of every workload, interleaved round-robin so that
    /// minute-scale host drift hits all workloads alike.
    fn set(
        &self,
        names: &[&'static str],
        rounds: usize,
        seconds: f64,
        traced: impl Fn(usize) -> bool,
    ) -> Result<BTreeMap<&'static str, Vec<Round>>, String> {
        let mut results: BTreeMap<&'static str, Vec<Round>> = BTreeMap::new();
        for round in 0..rounds {
            for name in names {
                results
                    .entry(name)
                    .or_default()
                    .push(self.round(name, seconds, traced(round))?);
            }
        }
        Ok(results)
    }
}

// ---- from rounds to metrics -------------------------------------------------------

/// Every round's latency samples in one pool.
fn pooled(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().flat_map(|r| r.lat_us.iter().copied()).collect()
}

fn end_to_end(rounds: &[Round]) -> BTreeMap<&'static str, f64> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    BTreeMap::from([
        (
            "setup_s",
            median(
                &rounds
                    .iter()
                    .flat_map(|r| r.extra_setups_s.iter().copied().chain([r.setup_s]))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("ops_per_s", per_round(&Round::ops_per_s)),
        ("op_p50_us", percentile(&pooled(rounds), 50.0)),
        ("cpu_us_per_op", per_round(&|r| r.cpu_s * 1e6 / r.ops)),
        ("peak_rss_mib", per_round(&|r| r.peak_rss_kib / 1024.0)),
    ])
}

/// The per-layer metrics one workload's rounds support: counters, host
/// probes, tracing overhead and layer self times.  The layer probes are
/// merged in by the caller.
fn per_layer(rounds: &[Round]) -> BTreeMap<&'static str, f64> {
    let total = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let mut delta: BTreeMap<String, f64> = BTreeMap::new();
    for round in rounds {
        for (name, value) in &round.counters {
            *delta.entry(name.clone()).or_default() += value;
        }
    }
    let mut out = metrics::from_counters(&delta, total(&|r| r.ops));
    let probes = |f: &dyn Fn(&Round) -> [f64; 2]| median(&rounds.iter().flat_map(f).collect::<Vec<_>>());
    out.insert("host.wake_us", probes(&|r| r.wake_us));
    out.insert("host.cpu_ns_per_kiter", probes(&|r| r.cpu_ns_per_kiter));

    let pooled = pooled(rounds);
    out.insert("bench.op_p90_us", percentile(&pooled, 90.0));
    out.insert("bench.op_p99_us", percentile(&pooled, 99.0));
    out.insert(
        "bench.mib_per_s",
        total(&|r| r.bytes) / total(&|r| r.busy_s) / (1 << 20) as f64,
    );

    let rate = |traced: bool| {
        median(
            &rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(Round::ops_per_s)
                .collect::<Vec<_>>(),
        )
    };
    out.insert("trace_overhead_ratio", rate(true) / rate(false));
    let traced_ops: f64 = rounds.iter().filter(|r| r.traced).map(|r| r.ops).sum();
    for (metric, prefix) in [
        ("bench.self_us_per_op", "bench."),
        ("apps.self_us_per_op", "apps."),
        ("core.hostapi.self_us_per_op", "core.hostapi."),
        ("runtime.env.self_us_per_op", "runtime.env."),
    ] {
        let ns: f64 = rounds
            .iter()
            .flat_map(|r| r.self_ns.iter())
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(0.0, |sum, (_, ns)| sum + ns);
        out.insert(metric, ns / 1e3 / traced_ops);
    }
    out
}

/// The contract's result line.
fn result_line(rounds: &[Round], values: &BTreeMap<String, (f64, &str)>) -> Json {
    let attempted: f64 = rounds.iter().map(|r| r.ops).sum();
    let failed: f64 = rounds.iter().map(|r| r.failed).sum();
    let metrics: BTreeMap<String, Json> = values
        .iter()
        .map(|(name, (value, unit))| (name.clone(), Json::object().with("value", *value).with("unit", *unit)))
        .collect();
    Json::object()
        .with("correct", failed == 0.0 && rounds.iter().all(|r| r.state_ok))
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", Json::Object(metrics))
}

fn print_metrics(title: &str, samples: usize, values: &BTreeMap<String, (f64, &str)>) {
    println!("== {title} ({samples} latency samples pooled) ==");
    for (name, (value, unit)) in values {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
}

// ---- modes ------------------------------------------------------------------------

fn with_units<'a>(
    values: &BTreeMap<&'static str, f64>,
    units: impl Iterator<Item = (&'static str, &'a str)>,
    prefix: &str,
) -> BTreeMap<String, (f64, &'a str)> {
    units
        .map(|(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (format!("{prefix}{name}"), (value, unit))
        })
        .collect()
}

fn e2e_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

fn layer_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.0, m.1))
}

fn samples(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.lat_us.len()).sum()
}

/// The layer probes, run once in a child of their own.
fn layer_probes(seed: u64) -> Result<BTreeMap<&'static str, f64>, String> {
    let json = run_child(&["--child", "probes", "--seed", &seed.to_string()].map(str::to_owned))?;
    Ok(PER_LAYER
        .iter()
        .filter_map(|(name, ..)| Some((*name, json.get(name)?.as_f64()?)))
        .collect())
}

/// A workload's rounds of a traced run and the per-layer metrics they and
/// the probes give.
type Traced = (Vec<Round>, BTreeMap<&'static str, f64>);

/// The untraced and traced rounds of a traced run, plus the probes, as each
/// workload's full per-layer metric set.
fn traced_metrics(
    orchestrator: &Orchestrator,
    names: &[&'static str],
    seconds: f64,
) -> Result<BTreeMap<&'static str, Traced>, String> {
    let rounds = orchestrator.set(names, TRACE_ROUNDS, seconds / TRACE_ROUNDS as f64, |round| {
        round % 2 == 1
    })?;
    let probes = layer_probes(orchestrator.seed)?;
    Ok(rounds
        .into_iter()
        .map(|(name, rounds)| {
            let mut layer = per_layer(&rounds);
            layer.extend(probes.iter().map(|(k, v)| (*k, *v)));
            (name, (rounds, layer))
        })
        .collect())
}

fn run(args: &Args) -> Result<bool, String> {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = host::pin_to_one_cpu();
    let best_file = build_dir().join(BEST_WAKE_FILE);
    let best_known = std::fs::read_to_string(&best_file)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok());
    let (soaked, soak) = host::soak(SOAK_LIMIT, best_known);
    eprintln!(
        "perfbench: confined to cpu {pinned:?} of {cpus}; host wake {:.2} us (best on record {best_known:?}), {:.0} ns/kiter: {soak:?}",
        soaked.wake_us, soaked.cpu_ns_per_kiter
    );
    if soak == host::Soak::Unsettled {
        return Err("host_unstable: wake latency never settled during the soak".to_owned());
    }
    if best_known.is_none_or(|best| soaked.wake_us < best) {
        if let Err(e) = std::fs::write(&best_file, soaked.wake_us.to_string()) {
            eprintln!("perfbench: cannot record {}: {e}", best_file.display());
        }
    }
    let orchestrator = Orchestrator {
        seed: args.seed,
        soak_wake_us: soaked.wake_us,
    };
    let chosen: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let round_seconds = args.seconds / args.rounds as f64;

    if args.check_repeat {
        return check_repeat(&orchestrator, &chosen, args.rounds, round_seconds);
    }

    // With `--workload` (the contract's form) one kind of metric is printed
    // under bare names; without it, both kinds for every workload, each name
    // prefixed with its workload, and the traced set gets half the time.
    let single = args.workload.is_some();
    let label = |name: &str| if single { String::new() } else { format!("{name}.") };
    let mut every: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    let mut kept: Vec<Round> = Vec::new();
    if !(args.trace_only || single && args.trace) {
        for (name, rounds) in orchestrator.set(&chosen, args.rounds, round_seconds, |_| false)? {
            let values = with_units(&end_to_end(&rounds), e2e_units(), &label(name));
            print_metrics(name, samples(&rounds), &values);
            every.extend(values);
            kept.extend(rounds);
        }
        if let (Some((crowded, _)), Some((plain, _))) =
            (every.get("sh_crowded.ops_per_s"), every.get("sh_pipelines.ops_per_s"))
        {
            println!(
                "sh_crowded.ops_per_s / sh_pipelines.ops_per_s = {:.3} (1.0 = no O(tasks) cost)",
                crowded / plain
            );
        }
    }
    if !single || args.trace || args.trace_only {
        let seconds = if single { args.seconds } else { args.seconds / 2.0 };
        for (name, (rounds, layer)) in traced_metrics(&orchestrator, &chosen, seconds)? {
            let values = with_units(&layer, layer_units(), &label(name));
            print_metrics(&format!("{name} per-layer"), samples(&rounds), &values);
            every.extend(values);
            kept.extend(rounds);
        }
        eprintln!(
            "perfbench: spans written to {}/trace-<workload>.json",
            build_dir().display()
        );
    }
    let line = result_line(&kept, &every);
    println!("{}", line.encode());
    Ok(line.get("correct").and_then(Json::as_bool).unwrap_or(false))
}

/// Runs the untraced set twice back to back and holds the second to the
/// first within every metric's own bound.
fn check_repeat(
    orchestrator: &Orchestrator,
    names: &[&'static str],
    rounds: usize,
    round_seconds: f64,
) -> Result<bool, String> {
    let first = orchestrator.set(names, rounds, round_seconds, |_| false)?;
    let second = orchestrator.set(names, rounds, round_seconds, |_| false)?;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut within = true;
    for name in names {
        let (a, b) = (end_to_end(&first[name]), end_to_end(&second[name]));
        for metric in &END_TO_END {
            let worse = worsening(a[metric.name], b[metric.name], metric.higher_is_better);
            let breach = worse > metric.bound;
            within &= !breach;
            println!(
                "{name:<14} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
                metric.name,
                a[metric.name],
                b[metric.name],
                worse * 100.0,
                metric.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    let failed = first
        .values()
        .chain(second.values())
        .flatten()
        .any(|r| r.failed > 0.0 || !r.state_ok);
    Ok(within && !failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    for name in PRODUCT_ENV {
        std::env::remove_var(name);
    }
    if args.child.is_some() {
        // Nothing a child does legitimately outlives its measured phase by
        // a minute and a half.
        arm_watchdog(Duration::from_secs_f64(args.seconds + 90.0));
    }
    match args.child.as_deref() {
        Some("round") => {
            let workload = args.workload.as_deref().expect("the parent names the workload");
            let round = run_round(workload, args.seed, args.seconds, args.trace);
            println!("{}", round.to_json().encode());
            ExitCode::SUCCESS
        }
        Some("setup") => {
            let workload = args.workload.as_deref().expect("the parent names the workload");
            let (running, setup_s) = timed_setup(workload, args.seed);
            let result = Json::object()
                .with("setup_s", setup_s)
                .with("state_ok", running.finish());
            println!("{}", result.encode());
            ExitCode::SUCCESS
        }
        Some("probes") => {
            println!("{}", number_map(&layers::run_all(args.seed)).encode());
            ExitCode::SUCCESS
        }
        _ => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("perfbench: an oracle failed or a bound was breached");
                ExitCode::from(1)
            }
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::from(3)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: f64, busy_s: f64, setup_s: f64, lat_us: Vec<f64>) -> Round {
        Round {
            ops,
            busy_s,
            setup_s,
            lat_us,
            bytes: ops * 1024.0 * 1024.0,
            cpu_s: busy_s,
            peak_rss_kib: 2048.0,
            state_ok: true,
            ..Round::default()
        }
    }

    #[test]
    fn rates_are_medians_of_rounds_and_percentiles_are_pooled() {
        let rounds = [
            round(100.0, 1.0, 0.3, vec![1.0, 2.0]),
            Round {
                extra_setups_s: vec![0.2, 0.2],
                ..round(300.0, 1.0, 0.1, vec![3.0])
            },
            round(200.0, 1.0, 0.2, vec![4.0, 5.0]),
        ];
        let m = end_to_end(&rounds);
        assert_eq!(m["ops_per_s"], 200.0);
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["op_p50_us"], 3.0);
        assert_eq!(m["cpu_us_per_op"], 5000.0);
        assert_eq!(m["peak_rss_mib"], 2.0);
        assert_eq!(m.len(), END_TO_END.len());
    }

    #[test]
    fn per_layer_sums_counters_and_compares_traced_to_untraced() {
        let mut plain = round(100.0, 1.0, 0.1, vec![1.0]);
        plain.counters.insert("total_syscalls".to_owned(), 1000.0);
        let mut traced = round(90.0, 1.0, 0.1, vec![2.0]);
        traced.traced = true;
        traced.counters.insert("total_syscalls".to_owned(), 900.0);
        traced.self_ns.insert("bench.op".to_owned(), 9000.0);
        traced.self_ns.insert("apps.terminal.run_line".to_owned(), 90_000.0);
        let m = per_layer(&[plain, traced]);
        assert_eq!(m["core.kernel.syscalls_per_op"], 10.0);
        assert_eq!(m["trace_overhead_ratio"], 0.9);
        assert_eq!(m["bench.self_us_per_op"], 0.1);
        assert_eq!(m["apps.self_us_per_op"], 1.0);
        assert_eq!(m["runtime.env.self_us_per_op"], 0.0);
        assert_eq!(m["bench.mib_per_s"], 95.0);
        assert_eq!(m["bench.op_p90_us"], 2.0);
        assert_eq!(m["bench.op_p99_us"], 2.0);
    }

    #[test]
    fn rounds_survive_the_trip_through_json() {
        let mut original = round(10.0, 2.0, 0.5, vec![1.5, 2.5]);
        original.traced = true;
        original.wake_us = [1.7, 1.9];
        original.counters.insert("total_syscalls".to_owned(), 42.0);
        original.self_ns.insert("bench.op".to_owned(), 7.0);
        let text = original.to_json().encode();
        let back = Round::from_json(&Json::decode(&text).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{original:?}"));
    }

    /// `BENCHMARK.json` must list exactly the workloads and metrics the
    /// binary prints, with the units, directions and bounds it uses.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::decode(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_owned();
        let list = |key: &str| json.get(key).and_then(Json::as_array).unwrap().to_vec();
        let better = |higher: bool| if higher { "higher" } else { "lower" };

        let listed: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(listed, ours);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let listed: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    better(m.higher_is_better).to_owned(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned(), better(m.2).to_owned()))
            .collect();
        assert_eq!(listed, ours);
    }
}
