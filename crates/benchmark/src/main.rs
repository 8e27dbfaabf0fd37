//! `benchmark` — the repository's benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` every end-to-end metric of `BENCHMARK.json`, measured with
//! the program's own drivers and no tracing; with `--trace 1` every
//! per-layer metric, from a pass in which the harness drives and times the
//! calls into each layer. Without `--workload` it runs all six workloads
//! both ways and prints every metric; `--agree` does that twice and checks
//! the two sets against the regression bounds. See the README.

mod gen;
mod layers;
mod load;
mod pace;
mod spans;
mod spec;
mod stats;
mod workloads;

use load::{Drivers, Window, WindowResult};
use spec::{Better, MetricSpec};
use stats::Slices;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Warm-up before a measured window.
const WARM: Duration = Duration::from_millis(1_500);
/// Warm-up before an episode (see `Workload::episode_s`).
const EPISODE_WARM: Duration = Duration::from_millis(250);
/// Set-ups per end-to-end run (more when they are short, see
/// [`workloads::set_up_repeatedly`]).
const SETUP_REPS: usize = 3;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(2_500);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    agree: bool,
    dir: PathBuf,
    trace_out: Option<PathBuf>,
    rustc: String,
    commit: String,
    print_json: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <1-60>] [--trace <0|1>]\n\
         \x20                [--agree] [--dir <scratch dir>] [--trace-out <file>]\n\
         \x20                [--rustc <version>] [--commit <id>] [--print-benchmark-json]\n\
         workloads: {}",
        spec::all_workloads()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: None,
        agree: false,
        dir: std::env::temp_dir().join("tman-benchmark"),
        trace_out: None,
        rustc: "unknown".into(),
        commit: "unknown".into(),
        print_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--agree" => args.agree = true,
            "--dir" => args.dir = PathBuf::from(value()?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--rustc" => args.rustc = value()?,
            "--commit" => args.commit = value()?,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    if let Some(w) = &args.workload {
        if !spec::all_workloads().any(|s| s.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// Host and build facts, printed with every output. A debug build, or one
/// linked against the offline stand-ins for parking_lot and crossbeam, is
/// not comparable with a release build on the real crates and says so.
struct Facts {
    nproc: usize,
    deps: &'static str,
    build: &'static str,
}

impl Facts {
    fn new() -> Facts {
        Facts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Cargo sets CARGO_PKG_NAME; the bare-rustc offline chain does not.
            deps: if option_env!("CARGO_PKG_NAME").is_some() {
                "real"
            } else {
                "stub"
            },
            build: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn comparable(&self) -> bool {
        self.deps == "real" && self.build == "release"
    }

    fn print(&self, args: &Args) {
        println!(
            "{{\"facts\": {{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}, \
             \"window_s\": {}, \"warm_s\": {}, \"deps\": \"{}\", \"build\": \"{}\", \
             \"comparable\": {}, \"flush_policy\": \"{}\"}}}}",
            self.nproc,
            tman_telemetry::json_escape(&args.rustc),
            tman_telemetry::json_escape(&args.commit),
            args.seed,
            args.seconds,
            WARM.as_secs_f64(),
            self.deps,
            self.build,
            self.comparable(),
            FLUSH_POLICY,
        );
        if !self.comparable() {
            println!(
                "*** NOT COMPARABLE: deps={} build={} — numbers from this binary must not be set \
                 beside a release build on the real parking_lot/crossbeam ***",
                self.deps, self.build
            );
        }
    }
}

/// The durability policy of every file-backed workload is the program's
/// default and is not varied.
const FLUSH_POLICY: &str = "default: WAL group commit, one fsync per push_tokens batch and per \
                            drained ack batch, checkpoint at 1 MiB of log";

/// One named value of a run.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metrics_for(specs: &[MetricSpec], value: impl Fn(&str) -> f64) -> Vec<Metric> {
    specs
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
        })
        .collect()
}

/// What one run of one workload produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a result line back (see [`Outcome::result_json`]).
    fn from_result_json(line: &str, specs: &[MetricSpec]) -> Option<Outcome> {
        let number_after = |key: &str| -> Option<f64> {
            let rest = &line[line.find(key)? + key.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        let metrics = specs
            .iter()
            .map(|m| {
                number_after(&format!("\"{}\": {{\"value\": ", m.name)).map(|value| Metric {
                    name: m.name,
                    unit: m.unit,
                    value,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            metrics,
            attempted: number_after("\"attempted\": ")? as u64,
            failed: number_after("\"failed\": ")? as u64,
            failures: Vec::new(),
        })
    }

    fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload} {} = {} {}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload} failed_share = {share} ratio ({} of {} operations)",
            self.failed, self.attempted
        );
        for f in &self.failures {
            println!("{workload} FAILED: {f}");
        }
    }
}

/// A number as measured, with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 0`: set up (several times, for `setup_s`), warm, measure one
/// window with the program's own drivers and tracing off — or, for a
/// workload measured in episodes, as many short windows as `--seconds`
/// holds, each on a store set up afresh.
fn run_end_to_end(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let (mut engine, setup_s, setups) =
        workloads::set_up_repeatedly(w, &args.dir, SETUP_REPS, SETUP_MIN_TOTAL)
            .map_err(|e| format!("set-up: {e}"))?;
    println!(
        "{} set-up: fastest {setup_s:.4} s of {} set-ups (median {:.4}, slowest {:.4})",
        w.name,
        setups.len(),
        stats::median(&setups),
        setups.iter().copied().fold(0.0, f64::max),
    );
    let window = Window {
        warm: w.episode_s.map_or(WARM, |_| EPISODE_WARM),
        seconds: w.episode_s.unwrap_or(args.seconds),
        rate: None,
    };
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let texts = w.create_texts();
    let mut windows = Vec::new();
    loop {
        let r = load::run_window(&mut engine, w, window, Drivers::Program);
        engine.tear_down();
        print_window(w, &r);
        windows.push(r);
        if w.episode_s.is_none() || Instant::now() >= until {
            break;
        }
        engine = w
            .set_up(&args.dir, &texts)
            .map_err(|e| format!("set-up: {e}"))?
            .0;
    }
    // One window reports its better slices. Episodes are each reported
    // whole (the slope they run down is what they measure), and the run
    // reports the better episodes.
    let episodes = w.episode_s.is_some();
    let rates: Vec<f64> = windows
        .iter()
        .map(|r| match episodes {
            true => r.tokens_per_s(Slices::mean_rate),
            false => r.tokens_per_s(Slices::rate),
        })
        .collect();
    let p50s: Vec<f64> = windows
        .iter()
        .map(|r| match episodes {
            true => r.latency.overall_quantile_us(0.5),
            false => r.latency.quantile_us(0.5),
        })
        .collect();
    let (tokens_per_s, p50_us) = (stats::upper_band(&rates), stats::lower_band(&p50s));
    let rss = rss_peak_mib();
    let metrics = metrics_for(&spec::END_TO_END, |name| match name {
        "setup_s" => setup_s,
        "tokens_per_s" => tokens_per_s,
        "fire_latency_p50_us" => p50_us,
        "rss_peak_mb" => rss,
        other => unreachable!("end-to-end metric {other} has no source"),
    });
    Ok(Outcome {
        metrics,
        attempted: windows.iter().map(|r| r.attempted).sum(),
        failed: windows.iter().map(|r| r.failed).sum(),
        failures: windows.into_iter().flat_map(|r| r.failures).collect(),
    })
}

fn print_window(w: &Workload, r: &WindowResult) {
    let tail = r.latency.tail();
    println!(
        "{} window: {} tokens sent, {} fires expected, {} received; whole window: {:.0} tokens/s, \
         {:.0} fires/s, p50/p90/p99/p99.9 {:.0?} us; by second: p{} latency {:.0?} us",
        w.name,
        r.tokens_sent,
        r.fires_expected,
        r.fires_received,
        r.tokens_per_s(Slices::mean_rate),
        r.latency.mean_rate(),
        [0.5, 0.9, 0.99, 0.999].map(|q| r.latency.overall_quantile_us(q)),
        tail * 100.0,
        r.latency.per_second_us(tail),
    );
    println!(
        "{} by {}-ms slice: tokens {:?}, fires {:?}, p50 latency {:.0?} us",
        w.name,
        stats::SLICE.as_millis(),
        r.sent.counts(),
        r.latency.counts(),
        r.latency.per_slice_us(0.5),
    );
}

/// `--trace 1`: the traced pass and the per-layer numbers.
fn run_layers(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let report = layers::run(w, &args.dir, args.seconds, WARM)?;
    if let Some(path) = &args.trace_out {
        let events = report.write_trace(path)?;
        println!("{} trace: {events} spans in {}", w.name, path.display());
    }
    report.print_shares(w.name);
    let metrics = metrics_for(&spec::PER_LAYER, |name| report.value(name));
    Ok(Outcome {
        metrics,
        attempted: report.attempted,
        failed: report.failed,
        failures: report.failures.clone(),
    })
}

fn scratch_dir(base: &Path) -> Result<PathBuf, String> {
    let dir = base.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One run of one workload one way in a process of its own — this binary
/// again, with the contract's arguments — so that peak RSS, allocator
/// state and a stuck program are one run's and not the next one's. The
/// child's output is passed through; its result line is parsed back.
fn run_in_child(args: &Args, name: &str, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--rustc", &args.rustc, "--commit", &args.commit])
        .arg("--dir")
        .arg(&args.dir);
    if let (true, Some(path)) = (trace, &args.trace_out) {
        cmd.arg("--trace-out")
            .arg(format!("{}.{name}.json", path.display()));
    }
    let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
    let Some((log, result)) = stdout.trim_end().rsplit_once('\n') else {
        return Err(format!("{name} --trace {}: no result", trace as u8));
    };
    // The facts are this process's own first lines; skip the child's.
    for line in log
        .lines()
        .filter(|l| !l.starts_with("{\"facts\"") && !l.starts_with("***"))
    {
        println!("{line}");
    }
    let specs: &[MetricSpec] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    Outcome::from_result_json(result, specs).ok_or_else(|| {
        format!(
            "{name} --trace {}: no result line, got: {result}",
            trace as u8
        )
    })
}

/// Every workload, both ways; returns the outcomes by workload.
fn run_all(
    args: &Args,
    names: &[&'static str],
) -> Result<Vec<(&'static str, Outcome, Outcome)>, String> {
    let mut out = Vec::new();
    for name in names {
        let started = Instant::now();
        let e2e = run_in_child(args, name, false)?;
        let layers = run_in_child(args, name, true)?;
        println!("{name} wall time {:.1} s", started.elapsed().as_secs_f64());
        out.push((*name, e2e, layers));
    }
    Ok(out)
}

/// Relative change of `b` against `a` in the direction that is worse.
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match spec.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// `--agree`: two full sets back to back; every end-to-end metric (and the
/// `e2e.*` per-layer rows, on the workloads they exist on) must agree
/// within its bound, in both directions.
fn agree(args: &Args, names: &[&'static str]) -> Result<bool, String> {
    let first = run_all(args, names)?;
    let second = run_all(args, names)?;
    let mut ok = first
        .iter()
        .chain(&second)
        .all(|(_, e, l)| e.correct() && l.correct());
    println!("\n| workload | metric | first | second | differ by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    let ladder_step = workloads::WIRE_LADDER[1] / workloads::WIRE_LADDER[0];
    for ((name, e1, l1), (_, e2, l2)) in first.iter().zip(&second) {
        let bounded = spec::END_TO_END.iter().chain(
            spec::PER_LAYER
                .iter()
                .filter(|m| m.name.starts_with("e2e.")),
        );
        let value = |o: &[&Outcome; 2], metric: &str| {
            o.iter()
                .flat_map(|o| &o.metrics)
                .find(|m| m.name == metric)
                .map_or(0.0, |m| m.value)
        };
        for m in bounded {
            let (a, b) = (value(&[e1, l1], m.name), value(&[e2, l2], m.name));
            if a == 0.0 && b == 0.0 {
                continue; // the metric does not exist on this workload
            }
            let diff = worse_by(m, a, b).abs();
            // The sustained rate is a rung of the ladder: two runs agree
            // when they are at most one rung apart.
            let (within, bound) = match m.bound {
                Some(bound) => (diff <= bound, format!("{:.0}%", bound * 100.0)),
                None => (
                    a.max(b) / a.min(b).max(1.0) <= ladder_step,
                    "one ladder step".into(),
                ),
            };
            ok &= within;
            println!(
                "| {name} | {} | {} | {} | {:.1}% | {bound} | {} |",
                m.name,
                short(a),
                short(b),
                diff * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

fn short(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn run(args: &mut Args) -> Result<bool, String> {
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    args.dir = scratch_dir(&args.dir)?;
    let facts = Facts::new();
    facts.print(args);
    let all: Vec<&'static str> = spec::all_workloads().map(|w| w.name).collect();
    let names: Vec<&'static str> = match &args.workload {
        Some(w) => all.iter().copied().filter(|n| n == w).collect(),
        None => all,
    };
    let result = if args.agree {
        agree(args, &names)
    } else if let (Some(trace), [name]) = (args.trace, names.as_slice()) {
        // The contract's single run: the result line goes last.
        let w = Workload::new(name, args.seed).expect("workload in the spec");
        start_watchdog(WATCHDOG);
        let outcome = if trace {
            run_layers(&w, args)
        } else {
            run_end_to_end(&w, args)
        };
        outcome.map(|o| {
            o.print(name);
            println!("{}", o.result_json());
            o.correct()
        })
    } else {
        run_all(args, &names).map(|runs| runs.iter().all(|(_, e, l)| e.correct() && l.correct()))
    };
    let _ = std::fs::remove_dir_all(&args.dir);
    result
}

/// Longest a run of one workload one way may take before the process
/// gives up: a program that deadlocks must not hang the benchmark.
const WATCHDOG: Duration = Duration::from_secs(150);

/// Exit with a failure, from a detached thread, once `limit` has passed.
/// Stuck threads cannot be joined, so this does not return through `main`.
fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "benchmark: no result after {} s; the program under test is stuck",
            limit.as_secs()
        );
        std::process::exit(3);
    });
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&mut args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: operations failed or runs disagree (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back_as_it_was_written() {
        let metrics = metrics_for(&spec::END_TO_END, |name| name.len() as f64 + 0.125);
        let written = Outcome {
            metrics,
            attempted: 1_234,
            failed: 5,
            failures: Vec::new(),
        };
        let line = written.result_json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1234, \"failed\": 5,"));
        let read = Outcome::from_result_json(&line, &spec::END_TO_END).unwrap();
        assert_eq!((read.attempted, read.failed), (1_234, 5));
        for (a, b) in written.metrics.iter().zip(&read.metrics) {
            assert_eq!((a.name, a.unit, a.value), (b.name, b.unit, b.value));
        }
        // A line for other metrics does not pass for these.
        assert!(Outcome::from_result_json(&line, &spec::PER_LAYER).is_none());
    }
}
