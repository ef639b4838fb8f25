//! `perfbench`: the end-to-end and per-layer benchmark of the rtx
//! workspace.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! Workloads: `flood-dense`, `flood-sparse`, `tc-distributed`,
//! `dedalus-churn` (see `README.md` beside this crate). With `--trace 0`
//! the run repeats set-up, run call and reference check for `--seconds`
//! and reports medians of `wall_s` and `setup_s`, rescaled to a quiet
//! host (see `host.rs`), plus the process's `peak_rss_mb`. With
//! `--trace 1` it makes untraced runs, traced runs and their replays and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Everything runs on one thread with the library's defaults; any `RTX_*`
//! variable in the environment makes the benchmark refuse to start.

mod host;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Expected, Inputs, SetupParts, Sizes, Work, Workload};

/// The end-to-end metrics, with their units.
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The run reference runs once before each run call and after it until
/// this share of the call's time is spent, so a run holds tens of its
/// samples whatever its length.
const REFERENCE_SHARE: f64 = 0.1;

/// Before each set-up, the set-up reference runs until this share of the
/// previous set-up's time is spent, and at least once.
const SETUP_REFERENCE_SHARE: f64 = 0.25;

/// Timed runs always made after the warm-up, however short `--seconds`
/// is.
const MIN_RUNS: u64 = 3;

/// Timed set-ups per run: enough that each run adds a few percent of
/// set-up samples, so the `setup_s` median rests on many builds.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::FloodDense => 8,
        Workload::FloodSparse => 2,
        Workload::TcDistributed => 400,
        Workload::DedalusChurn => 200,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The library reads `RTX_*` knobs (storage engine, fixpoint mode,
/// thread count, trace level, ...). The benchmark measures the defaults
/// users get, so it refuses to run under any of them.
fn knobs_set() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RTX_"))
        .collect()
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; sorts `v`.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// High-water mark of this process's resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One workload's result in either mode.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub work: Work,
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Comment lines, then the JSON line.
    fn print(&self, header: &str) {
        println!("# {header}");
        let work: Vec<String> = self.work.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("# work {}", work.join(" "));
        for n in &self.notes {
            println!("# {n}");
        }
        for e in self.errors.iter().take(5) {
            eprintln!("perfbench: {e}");
        }
        println!("{}", self.json());
    }
}

fn summary(name: &str, v: &mut [f64]) -> String {
    let (q1, q3) = (quantile(v, 0.25), quantile(v, 0.75));
    format!(
        "{name}: n={} median={:.6} q1={q1:.6} q3={q3:.6} min={:.6} max={:.6}",
        v.len(),
        median(v),
        v.first().copied().unwrap_or(0.0),
        v.last().copied().unwrap_or(0.0)
    )
}

/// The timed mode: set-up, run call and check, repeated until
/// `seconds` have passed and at least `min_runs` runs were made.
/// `wall_s` is the median run call ÷ the host factor: the median run
/// reference time around the run calls ÷ its quiet-host time. `setup_s`
/// is the median, over every set-up, of its time ÷ the set-up reference
/// time right before it, times that reference's quiet-host time.
fn timed(w: Workload, inputs: &Inputs, seconds: f64, min_runs: u64, reps: usize) -> Report {
    let expected = Expected::of(inputs);
    let mut report = Report::default();
    let (mut walls, mut setups, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_refs, mut setup_ratios, mut last_setup) = (Vec::new(), Vec::new(), 0.0);
    // An untimed, checked warm-up run interns the workload's symbols and
    // fills the allocator, as in a long-lived process. The process's peak
    // resident set after it is the workload's own: the reference
    // computations have not run yet.
    report.attempted += 1;
    let warm = workloads::setup(inputs, &mut SetupParts::default()).and_then(|mut s| {
        let outcome = workloads::run(w, &mut s)?;
        workloads::check(&expected, &outcome, &s)
    });
    let peak = peak_rss_mb();
    host::reference_s();
    let start = Instant::now();
    while warm.is_ok() && (report.attempted <= min_runs || start.elapsed().as_secs_f64() < seconds)
    {
        let mut setup = None;
        for _ in 0..reps {
            let mut before = Vec::new();
            host::sample(
                host::setup_reference_s,
                &mut before,
                last_setup * SETUP_REFERENCE_SHARE,
            );
            let reference = median(&mut before);
            let t0 = Instant::now();
            let s = workloads::setup(inputs, &mut SetupParts::default());
            last_setup = t0.elapsed().as_secs_f64();
            setups.push(last_setup);
            setup_refs.push(reference);
            setup_ratios.push(last_setup / reference);
            setup = Some(s);
        }
        report.attempted += 1;
        let mut setup = match setup.expect("at least one set-up") {
            Ok(s) => s,
            Err(e) => {
                report.failed += 1;
                report.errors.push(e);
                continue;
            }
        };
        refs.push(host::reference_s());
        let t0 = Instant::now();
        let outcome = workloads::run(w, &mut setup);
        let wall = t0.elapsed().as_secs_f64();
        walls.push(wall);
        host::sample(host::reference_s, &mut refs, wall * REFERENCE_SHARE);
        match outcome.and_then(|o| workloads::check(&expected, &o, &setup)) {
            Ok(work) => report.work = work,
            Err(e) => {
                report.failed += 1;
                report.errors.push(e);
            }
        }
    }
    if let Err(e) = warm {
        report.failed += 1;
        report.errors.push(format!("warm-up run: {e}"));
    }
    let factor = median(&mut refs) / host::QUIET_S;
    report.notes = vec![
        summary("unscaled wall_s", &mut walls),
        summary("unscaled setup_s", &mut setups),
        summary("reference_s", &mut refs),
        summary("set-up reference_s", &mut setup_refs),
        summary("setup_s / set-up reference_s", &mut setup_ratios),
        format!("host factor {factor:.4}"),
    ];
    let values = [
        median(&mut walls) / factor,
        median(&mut setup_ratios) * host::QUIET_SETUP_S,
        peak,
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    report
}

fn header(w: Workload, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads=1",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// `--workload all`: each workload in a process of its own (so each
/// `peak_rss_mb` covers one workload), then one summary line whose
/// metrics are named `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0i64, 0i64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            _ => {
                eprintln!("perfbench: {} did not finish", w.name());
                return ExitCode::FAILURE;
            }
        };
        for line in stdout.lines() {
            println!("# [{}] {line}", w.name());
        }
        let last = stdout.lines().last().unwrap_or("");
        let Ok(j) = rtx_obs::json::parse(last) else {
            eprintln!("perfbench: {} printed no result", w.name());
            return ExitCode::FAILURE;
        };
        correct &= matches!(j.get("correct"), Some(rtx_obs::json::Json::Bool(true)));
        attempted += j.get("attempted").and_then(|v| v.int()).unwrap_or(0);
        failed += j.get("failed").and_then(|v| v.int()).unwrap_or(1);
        if let Some(rtx_obs::json::Json::Obj(m)) = j.get("metrics") {
            for (name, v) in m {
                let value = match v.get("value") {
                    Some(rtx_obs::json::Json::Num(x)) => *x,
                    _ => 0.0,
                };
                let unit = v.get("unit").and_then(|u| u.str()).unwrap_or("");
                metrics.push(format!(
                    "\"{}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    w.name()
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// `--smoke`: every workload at reduced sizes, in both modes, in this
/// process. Fails unless every run verifies and prints exactly the
/// declared metrics, each with its unit.
fn smoke(seed: u64) -> ExitCode {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for w in Workload::ALL {
        let inputs = Inputs::generate(w, seed, &Sizes::SMOKE);
        for (trace, declared) in [(false, END_TO_END), (true, traced::METRICS)] {
            let report = if trace {
                traced::traced(w, &inputs)
            } else {
                timed(w, &inputs, 0.0, 1, 1)
            };
            let printed: Vec<(&str, &str)> =
                report.metrics.iter().map(|(n, u, _)| (*n, *u)).collect();
            let finite = report.metrics.iter().all(|(_, _, v)| v.is_finite());
            report.print(&format!("smoke {} trace={}", w.name(), u8::from(trace)));
            attempted += 1;
            if !report.correct() || printed != declared || !finite {
                eprintln!(
                    "perfbench: smoke {} trace={} failed",
                    w.name(),
                    u8::from(trace)
                );
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the defaults",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.smoke {
        return smoke(args.seed);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let inputs = Inputs::generate(w, args.seed, &Sizes::FULL);
    let report = if args.trace {
        traced::traced(w, &inputs)
    } else {
        timed(w, &inputs, args.seconds, MIN_RUNS, setup_reps(w))
    };
    report.print(&header(w, &args));
    ExitCode::SUCCESS
}
