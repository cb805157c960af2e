//! End-to-end and per-layer benchmark of the FLASH fault-containment
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path flashbench/Cargo.toml -- \
//!     --workload <table53_sweep|fig55_recovery|chaos_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the same inputs once untraced and once with spans around every
//! call the benchmark makes into a crate, checks that both give the same
//! trace digest, reports the per-layer metrics and writes the spans to
//! `flashbench/out/`. The last line of standard output is the JSON result.
//! See `NOTES.md` for what each workload and metric is for.

mod chaos;
mod drive;
mod fig55;
mod metrics;
mod recovery;
mod stats;
mod table53;
mod trace;

use drive::{drive, Done, Pass, Sample};
use metrics::Values;
use stats::{median, ratio, Tally};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, Tracer};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One benchmark workload: a fixed input list made from the seed, and a
/// run function over one input, plain and traced.
pub trait Workload: Sync + Sized {
    type Plain: Send;
    type Traced: Send;
    /// The metrics an untraced and a traced run print.
    const END_TO_END: &'static [(&'static str, &'static str)];
    const PER_LAYER: &'static [(&'static str, &'static str)];

    /// Makes the inputs and runs any discarded warm-up.
    fn setup(seed: u64, workers: usize) -> Self;
    fn n_inputs(&self) -> usize;
    /// Threads `drive` runs calls on (a call may start its own).
    fn call_threads(&self) -> usize;
    fn run(&self, input: usize) -> Done<Self::Plain>;
    fn run_traced(&self, input: usize, claim: u64, tr: &Tracer) -> Done<Self::Traced>;
    /// Host seconds per run of one call, for the latency percentiles.
    fn run_seconds(&self, s: &Sample<Self::Plain>) -> f64;
    /// Fills the end-to-end metrics beyond the common ones.
    fn end_to_end(&self, pass: &Pass<Self::Plain>, run_s: &[f64], v: &mut Values);
    /// Fills the per-layer metrics from a traced pass.
    fn per_layer(&self, pass: &Pass<Self::Traced>, spans: &[Span], v: &mut Values);
    /// Measures the recorder-mask arms (`obs.*_cost_frac`) in an untraced
    /// pass of their own, where the workload has them.
    fn obs_arms(&self, _v: &mut Values) -> Tally {
        Tally::default()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flashbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "table53_sweep" => bench::<table53::Table53>(&args, started),
        "fig55_recovery" => bench::<fig55::Fig55>(&args, started),
        "chaos_mix" => bench::<chaos::ChaosMix>(&args, started),
        other => {
            eprintln!("flashbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{result}");
    ExitCode::SUCCESS
}

/// Sets the workload up [`SETUPS`] times (the first measured from process
/// start) and returns the last set-up with the median set-up time.
fn set_up<W: Workload>(args: &Args, workers: usize, started: Instant) -> (W, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut t = started;
    let mut w = None;
    for _ in 0..SETUPS {
        w = Some(W::setup(args.seed, workers));
        times.push(t.elapsed().as_secs_f64());
        t = Instant::now();
    }
    println!("set-up seconds {times:.3?}");
    (w.expect("at least one set-up"), median(&times))
}

/// Runs one workload and returns the JSON result line.
fn bench<W: Workload>(args: &Args, started: Instant) -> String {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (w, setup_s) = set_up::<W>(args, workers, started);
    let n = w.n_inputs();
    println!(
        "workload {} seed {} inputs {n} available_parallelism {workers}",
        args.workload, args.seed
    );

    let plain_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = drive(n, w.call_threads(), plain_seconds, |i, _| w.run(i));
    let tally = plain.tally();
    let mut correct = tally.failed == 0 && plain.nondeterministic == 0;
    println!(
        "untraced: {} calls ({} cycles), {} runs, {} failed, {} nondeterministic inputs, {:.3} s",
        plain.samples.len(),
        plain.cycles(n),
        tally.attempted,
        tally.failed,
        plain.nondeterministic,
        plain.wall_s
    );
    println!("digest {} untraced {:016x}", args.workload, plain.digest);

    let mut v = Values::default();
    if !args.trace {
        let run_s: Vec<f64> = plain.samples.iter().map(|s| w.run_seconds(s)).collect();
        let runs_per_cycle = tally.attempted as f64 / plain.cycles(n) as f64;
        let cycle_rates: Vec<f64> = plain
            .cycle_seconds(n)
            .iter()
            .map(|s| runs_per_cycle / s)
            .collect();
        v.set("runs_per_s", median(&cycle_rates));
        v.set("run_s_p50", median(&run_s));
        v.set("setup_s", setup_s);
        v.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        println!(
            "latency samples {}, cycle seconds {:.3?}",
            run_s.len(),
            plain.cycle_seconds(n)
        );
        w.end_to_end(&plain, &run_s, &mut v);
        print_values(&v, W::END_TO_END);
        return v.result_json(W::END_TO_END, correct, tally.attempted, tally.failed);
    }

    let tr = Tracer::default();
    let traced = drive(n, w.call_threads(), args.seconds / 2.0, |i, k| {
        w.run_traced(i, k, &tr)
    });
    let ttally = traced.tally();
    let spans = tr.spans();
    println!(
        "traced: {} calls ({} cycles), {} runs, {} failed, {} nondeterministic inputs, {:.3} s, {} spans",
        traced.samples.len(),
        traced.cycles(n),
        ttally.attempted,
        ttally.failed,
        traced.nondeterministic,
        traced.wall_s,
        spans.len()
    );
    println!("digest {} traced {:016x}", args.workload, traced.digest);
    let digests_match = traced.digest == plain.digest;
    if !digests_match {
        println!("FAIL: the traced run did not reproduce the untraced digest");
    }
    correct &= digests_match && ttally.failed == 0 && traced.nondeterministic == 0;

    let mut all = tally;
    all.merge(ttally);
    let per_call = |wall_s: f64, calls: usize| wall_s / calls as f64;
    v.set(
        "bench.trace_overhead_frac",
        per_call(traced.wall_s, traced.samples.len()) / per_call(plain.wall_s, plain.samples.len())
            - 1.0,
    );
    w.per_layer(&traced, &spans, &mut v);
    let arms = w.obs_arms(&mut v);
    correct &= arms.failed == 0;
    all.merge(arms);
    v.set("bench.failed_frac", all.failed_frac());
    print_values(&v, W::PER_LAYER);
    write_spans(args, &spans);
    v.result_json(W::PER_LAYER, correct, all.attempted, all.failed)
}

fn print_values(v: &Values, registry: &[(&str, &str)]) {
    for (name, unit) in registry {
        println!("  {name:<36} {:>16.6} {unit}", v.get(name).unwrap_or(0.0));
    }
}

fn write_spans(args: &Args, spans: &[Span]) {
    let dir = std::path::Path::new("flashbench/out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_chrome_json(spans)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("flashbench: could not write {}: {e}", path.display()),
    }
}

/// Adds `<layer>.self_s` (self seconds per run) for every layer that has
/// a metric of that name.
pub fn set_self_times(spans: &[Span], runs: usize, v: &mut Values) {
    for (layer, ns) in trace::self_ns_by_layer(spans) {
        let name = match layer {
            "bench" => "bench.self_s",
            "core" => "core.self_s",
            "machine" => "machine.self_s",
            "campaign" => "campaign.self_s",
            _ => continue,
        };
        v.set(name, ratio(ns as f64 / 1e9, runs as f64));
    }
}

/// The tally of a call that holds a single run.
pub fn one_run(finished: bool, passed: bool) -> Tally {
    let mut t = Tally::default();
    t.record(finished, passed);
    t
}
