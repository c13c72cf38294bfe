//! Benchmark of the Compass simulator: end-to-end tick throughput on the
//! CoCoMac workloads of `workload::WORKLOADS`, and a separate traced run
//! that times each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --all [--seed N] [--seconds S]
//! ```
//!
//! One run measures one workload in its own process, so `peak_rss_mb` is
//! that workload's alone. With `--trace 0` it reports the end-to-end
//! metrics of `BENCHMARK.json`, with `--trace 1` the per-layer ones; the
//! last line of standard output is the result as one JSON object. `--all`
//! runs every workload both ways, prints a table, and writes
//! `perfbench/out/summary.json`. The traced run's spans go to
//! `perfbench/out/spans-<workload>-<seed>.json` (Chrome trace format).

mod layers;
mod spans;
mod workload;

use compass_bench::json::Json;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Fingerprint, Workload, DEFAULT_SEED, WORKLOADS};

/// Set-ups per timed run: at least this many, and more while the set-up
/// budget lasts, so the reported median is steady.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Timed simulation calls per run, at least.
const MIN_CALLS: usize = 3;

const USAGE: &str = "usage: run --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
                     run --all [--seed N] [--seconds S]";

/// One measured value.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run prints as its last line.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// A run whose one attempt failed before anything could be measured.
    pub fn failed() -> RunResult {
        RunResult {
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a value that is not finite
            // was not measured.
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Median of `xs` (sorted in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--all" {
            args.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if args.all {
        return run_all(&args, &out_dir);
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let Some(w) = workload::find(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let host = host_json(w, args.seed);
    println!("workload {}: {}", w.name, w.why);
    println!("host {host}");
    let result = if args.trace {
        let mut spans = spans::Spans::new();
        let result = layers::traced_run(w, args.seed, &out_dir, &mut spans);
        let path = out_dir.join(format!("spans-{}-{}.json", w.name, args.seed));
        match std::fs::write(&path, spans.to_trace_json(&host)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("{}: {e}", path.display()),
        }
        result
    } else {
        timed_run(w, args.seed, Duration::from_secs(args.seconds))
    };
    for m in &result.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<40} {:>16.6} fraction ({} of {} failed)",
        "error_rate",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// The timed run: set up several times, then repeat the simulation call
/// for `seconds`, tracing off, and check every call's output afterwards.
fn timed_run(w: &Workload, seed: u64, seconds: Duration) -> RunResult {
    let t0 = Instant::now();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    while setup_s.len() < MIN_SETUPS || t0.elapsed() < SETUP_BUDGET {
        // At most one model alive at a time, as for a user who sets up once.
        drop(prepared.take());
        let p = w.prepare(seed);
        setup_s.push(p.setup().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let cfg = w.engine(w.ticks);

    let call = || {
        catch_unwind(AssertUnwindSafe(|| w.run_engine(&p, &cfg)))
            .ok()
            .map(|o| {
                (
                    f64::from(w.ticks) / o.wall.as_secs_f64(),
                    Fingerprint::of(&o.ranks),
                )
            })
    };
    // One untimed call first, so page faults of the first run's
    // allocations are not measured; its output is checked like the rest.
    let mut outputs = vec![call().map(|c| c.1)];
    let window = Instant::now();
    let mut ticks_per_s = Vec::new();
    loop {
        let c = call();
        if let Some((rate, _)) = c {
            ticks_per_s.push(rate);
        }
        outputs.push(c.map(|c| c.1));
        let calls = ticks_per_s.len().max(1) as u32;
        let elapsed = window.elapsed();
        if outputs.len() > MIN_CALLS && elapsed + elapsed / calls > seconds {
            break;
        }
    }
    // Read before the reference run, which records a whole trace.
    let peak_rss_mb = peak_rss_mb();

    let reference = w.reference(&p, seed);
    if let Err(e) = &reference {
        eprintln!("no reference output: {e}");
    }
    let mut failed = 0;
    for out in &outputs {
        if out.is_none() || out.as_ref() != reference.as_ref().ok() {
            failed += 1;
            eprintln!("output {out:?} != reference {reference:?}");
        }
    }
    let attempted = outputs.len() as u64;
    RunResult {
        attempted,
        failed,
        metrics: vec![
            Metric::new("ticks_per_s", median(&mut ticks_per_s), "ticks/s"),
            Metric::new("setup_s", median(&mut setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            Metric::new(
                "success_rate",
                (attempted - failed) as f64 / attempted as f64,
                "fraction",
            ),
        ],
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// First line of a command's output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Host metadata recorded with every result.
fn host_json(w: &Workload, seed: u64) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let repo = repo.to_string_lossy();
    format!(
        "{{\"available_parallelism\": {cpus}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \
         \"seed\": {seed}, \"workload\": \"{}\", \"ranks\": {}, \"threads_per_rank\": {}, \
         \"oversubscribed\": {}}}",
        command_line("git", &["-C", &repo, "rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        w.name,
        w.world.ranks,
        w.world.threads_per_rank,
        w.oversubscribed(cpus),
    )
}

/// Runs every workload, timed and traced, each in its own process; prints
/// a table and writes `summary.json` to `out_dir`.
fn run_all(args: &Args, out_dir: &Path) -> ExitCode {
    let exe: PathBuf = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut summary = String::from("{\"workloads\": [");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output();
            let out = match out {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("{} --trace {trace} exited with {}", w.name, o.status);
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{} --trace {trace}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            match Json::parse(last) {
                Ok(j) => results.push((last.to_string(), j)),
                Err(e) => {
                    eprintln!("{} --trace {trace}: bad result line: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        let value = |run: usize, name: &str| {
            results[run]
                .1
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN)
        };
        let count = |run: usize, key: &str| {
            results[run]
                .1
                .get(key)
                .and_then(Json::as_num)
                .unwrap_or(0.0)
        };
        let error_rate = (count(0, "failed") + count(1, "failed"))
            / (count(0, "attempted") + count(1, "attempted"));
        rows.push((
            w.name,
            value(0, "ticks_per_s"),
            value(0, "setup_s"),
            value(0, "peak_rss_mb"),
            error_rate,
            value(1, "trace.ticks_per_s"),
        ));
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            summary,
            "{sep}\n{{\"name\": \"{}\", \"host\": {}, \"timed\": {}, \"traced\": {}}}",
            w.name,
            host_json(w, args.seed),
            results[0].0,
            results[1].0
        );
    }
    summary.push_str("\n]}\n");

    println!();
    println!(
        "{:<20} {:>14} {:>10} {:>13} {:>12} {:>16} {:>10}",
        "workload",
        "ticks_per_s",
        "setup_s",
        "peak_rss_mb",
        "error_rate",
        "traced ticks/s",
        "overhead"
    );
    println!(
        "{:<20} {:>14} {:>10} {:>13} {:>12} {:>16} {:>10}",
        "", "ticks/s", "s", "MB", "fraction", "ticks/s", "%"
    );
    for (name, tps, setup, rss, err, traced) in rows {
        println!(
            "{name:<20} {tps:>14.1} {setup:>10.4} {rss:>13.1} {err:>12.3} {traced:>16.1} {:>10.1}",
            (tps / traced - 1.0) * 100.0
        );
    }
    let path = out_dir.join("summary.json");
    if let Err(e) = std::fs::write(&path, summary) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("summary written to {}", path.display());
    ExitCode::SUCCESS
}
