//! End-to-end and per-layer benchmark of the PS-PDG reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nas-run|module-compile|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md` for
//! what each workload and metric means.

mod layers;
mod module_compile;
mod nas_run;
mod service_mix;
mod stats;

use std::time::Instant;

use layers::Layers;
use stats::Samples;

/// Extra set-ups timed during an untraced run, spread evenly over the
/// measured loop: as many as fit in this share of the run, judged by the
/// first set-up's time, but at least `RESETUPS_MIN` and at most
/// `RESETUPS_MAX`. `setup_s` is the median of these and the first.
const RESETUP_SHARE: f64 = 0.15;
const RESETUPS_MIN: usize = 6;
const RESETUPS_MAX: usize = 40;

/// What one run of a workload is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed number of rounds instead of `seconds` (the self-check).
    pub rounds: Option<usize>,
    /// Runtime workers, daemon handlers and daemon execute workers.
    pub nproc: usize,
    pub start: Instant,
}

impl Ctx {
    /// Whether the measured loop goes on after `done` rounds.
    pub fn more(&self, loop_start: Instant, done: usize) -> bool {
        match self.rounds {
            Some(n) => done < n,
            None => loop_start.elapsed().as_secs_f64() < self.seconds,
        }
    }

    /// The first set-up, timed from process start to the first timed op.
    pub fn setup<T>(&self, samples: &mut Samples, setup: impl FnOnce() -> T) -> T {
        let state = setup();
        samples.push(self.start.elapsed().as_secs_f64());
        state
    }

    /// Between rounds of an untraced timed run: when the loop has reached
    /// the next of the evenly spaced re-set-up points, time one more
    /// complete set-up and drop what it built. Sampling set-up across the
    /// run keeps one slow stretch of the host from deciding `setup_s`.
    pub fn resetup<T>(
        &self,
        samples: &mut Samples,
        loop_start: Instant,
        setup: impl FnOnce() -> T,
    ) {
        if self.trace || self.rounds.is_some() {
            return;
        }
        let fit = (RESETUP_SHARE * self.seconds / samples.values()[0]) as usize;
        let total = fit.clamp(RESETUPS_MIN, RESETUPS_MAX);
        let done = samples.len() - 1;
        let due = self.seconds * (done + 1) as f64 / (total + 1) as f64;
        if done < total && loop_start.elapsed().as_secs_f64() >= due {
            let t = Instant::now();
            drop(setup());
            samples.push(t.elapsed().as_secs_f64());
        }
    }
}

/// Everything one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// What `op_ms`, `op2_ms` and `op3_ms` time on this workload.
    pub labels: [&'static str; 3],
    pub setup: Samples,
    pub op: Samples,
    pub op2: Samples,
    pub op3: Samples,
    pub loop_s: f64,
    /// Ops of every type run in the measured loop, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    /// Digest of the generated inputs (the self-check compares seeds).
    pub digest: u64,
}

const WORKLOADS: [&str; 3] = ["nas-run", "module-compile", "service-mix"];

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "nas-run" => nas_run::run(ctx),
        "module-compile" => module_compile::run(ctx),
        "service-mix" => service_mix::run(ctx),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) in MiB, 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unavailable"`.
/// Git does not look above the working directory for a repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

fn host_line(nproc: usize) -> String {
    format!(
        "host: nproc={nproc} commit={} rustc=\"{}\"",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn result_line(out: &Outcome, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

fn report(workload: &str, ctx: &Ctx, out: &Outcome) {
    println!("{}", host_line(ctx.nproc));
    println!(
        "workload={workload} seed={} seconds={} trace={} workers=handlers=exec_workers={}",
        ctx.seed, ctx.seconds, ctx.trace as u8, ctx.nproc
    );
    println!(
        "fail_frac {} ({} of {} ops failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if ctx.trace {
        let mut metrics = Vec::new();
        for (name, unit) in layers::names() {
            let v = out.layers.get(&name);
            println!("{name:<40} {v:>16.6} {unit}");
            metrics.push(metric(&name, v, unit));
        }
        println!("{}", result_line(out, &metrics));
        return;
    }
    println!(
        "{}",
        out.setup.line(
            "setup_s",
            "s ",
            "first from process start, rest spread over the run"
        )
    );
    for (name, s, what) in [
        ("op_ms", &out.op, out.labels[0]),
        ("op2_ms", &out.op2, out.labels[1]),
        ("op3_ms", &out.op3, out.labels[2]),
    ] {
        println!("{}", s.line(name, "ms", what));
    }
    // The loop's time net of the set-ups timed inside it.
    let resetups: f64 = out.setup.values().iter().skip(1).sum();
    let rps = out.attempted as f64 / (out.loop_s - resetups);
    let rss = peak_rss_mb();
    println!(
        "requests_per_s {rps:.3} ({} ops in {:.3} s)",
        out.attempted,
        out.loop_s - resetups
    );
    println!("peak_rss_mb    {rss:.3}");
    let metrics = [
        metric("setup_s", out.setup.median(), "s"),
        metric("op_ms", out.op.mean(), "ms"),
        metric("op_tail_ms", out.op.tail().1, "ms"),
        metric("op2_ms", out.op2.mean(), "ms"),
        metric("op3_ms", out.op3.mean(), "ms"),
        metric("requests_per_s", rps, "1/s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    println!("{}", result_line(out, &metrics));
}

/// Two short traced runs per workload with one seed must agree on every
/// count; a second seed must change the generated inputs.
fn self_check(nproc: usize) -> bool {
    let counts: Vec<String> = layers::names()
        .into_iter()
        .filter(|(_, u)| matches!(*u, "count" | "bytes"))
        .map(|(n, _)| n)
        .chain(["service.hit_ratio".to_string()])
        .collect();
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut ok = true;
        let ctx = |seed| Ctx {
            seed,
            seconds: 0.0,
            trace: true,
            rounds: Some(4),
            nproc,
            start: Instant::now(),
        };
        let a = run_workload(w, &ctx(7));
        let b = run_workload(w, &ctx(7));
        let c = run_workload(w, &ctx(8));
        for name in &counts {
            let (x, y) = (a.layers.get(name), b.layers.get(name));
            if x != y {
                println!("FAIL {w}: {name} differs between same-seed runs: {x} vs {y}");
                ok = false;
            }
        }
        for o in [&a, &b, &c] {
            if o.failed > 0 {
                println!("FAIL {w}: {} of {} ops failed", o.failed, o.attempted);
                ok = false;
            }
        }
        if a.digest != b.digest {
            println!("FAIL {w}: same seed generated different inputs");
            ok = false;
        }
        if w != "nas-run" && a.digest == c.digest {
            println!("FAIL {w}: seeds 7 and 8 generated the same inputs");
            ok = false;
        }
        println!("self-check {w}: {}", if ok { "ok" } else { "FAILED" });
        all_ok &= ok;
    }
    all_ok
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let start = Instant::now();
    // Every worker, handler and pool count comes from nproc; the pool's
    // width overrides are cleared before any pool exists.
    std::env::remove_var("PSPDG_POOL_THREADS");
    std::env::remove_var("RAYON_NUM_THREADS");
    let nproc = nproc();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-check") {
        let ok = self_check(nproc);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val.clone()),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        rounds: None,
        nproc,
        start,
    };
    let out = run_workload(&workload, &ctx);
    report(&workload, &ctx, &out);
}
