//! `chaos_mix`: randomized `flash_campaign` schedules from one master seed.
//!
//! Roughly equal thirds target the Machine, Hive and HiveKv harnesses,
//! with gray faults, multi-faults and faults armed mid-recovery. This is
//! where `campaign` (generation and the invariant stack), `hive` (the OS
//! recovery pass) and `hivekv` (Zipf-skewed, 90%-GET traffic with
//! cross-cell replica writes) do their work, and it loads `coherence` with
//! a different access pattern from the uniform 50%-store fill of the other
//! two workloads.
//!
//! It is not listed in `BENCHMARK.json`: about 1% of its schedules fail
//! their oracle, which `NOTES.md` records with reproducers.

use crate::drive::{Done, Pass, Sample};
use crate::metrics::{Values, CHAOS_END_TO_END, CHAOS_PER_LAYER};
use crate::stats::{median, quantile, ratio, samples_beyond, tail_supported, Tally};
use crate::trace::{Span, Tracer};
use crate::{one_run, set_self_times, Workload};
use flash_campaign::{
    generate, per_run_seed, run_schedule, GeneratorConfig, Mode, RunRecord, Schedule, Verdict,
};
use flash_obs::Quantiles;

/// Schedules per input cycle.
const SCHEDULES: u64 = 256;

fn generator() -> GeneratorConfig {
    GeneratorConfig {
        hive_chance: 0.33,
        kv_chance: 0.5,
        gray_chance: 0.45,
        ..GeneratorConfig::default()
    }
}

pub struct ChaosMix {
    master_seed: u64,
    schedules: Vec<Schedule>,
    workers: usize,
}

/// What a traced run keeps of its record.
pub struct ChaosRun {
    mode: Mode,
    generate_ns: u64,
    run_ns: u64,
    verdict: Verdict,
    mid_recovery_hits: u64,
    detect_latency_ns: Option<u64>,
    trace_dropped: u64,
    /// `(goodput_rps, err_frac, unaffected p99 ms)` of a HiveKv run.
    kv: Option<(f64, f64, f64)>,
}

fn mode_span(mode: Mode) -> &'static str {
    match mode {
        Mode::Machine => "run_schedule.machine",
        Mode::Hive => "run_schedule.hive",
        Mode::HiveKv => "run_schedule.hivekv",
    }
}

fn passed(r: &RunRecord) -> Tally {
    one_run(r.finished, r.passed())
}

impl Workload for ChaosMix {
    type Plain = ();
    type Traced = ChaosRun;
    const END_TO_END: &'static [(&'static str, &'static str)] = CHAOS_END_TO_END;
    const PER_LAYER: &'static [(&'static str, &'static str)] = CHAOS_PER_LAYER;

    fn setup(seed: u64, workers: usize) -> Self {
        let schedules: Vec<Schedule> = (0..SCHEDULES)
            .map(|i| generate(per_run_seed(seed, i), &generator()))
            .collect();
        // Warm-up: one discarded run of each harness.
        for mode in [Mode::Machine, Mode::Hive, Mode::HiveKv] {
            if let Some(s) = schedules.iter().find(|s| s.mode == mode) {
                std::hint::black_box(run_schedule(s));
            }
        }
        ChaosMix {
            master_seed: seed,
            schedules,
            workers,
        }
    }

    fn n_inputs(&self) -> usize {
        self.schedules.len()
    }

    fn call_threads(&self) -> usize {
        self.workers
    }

    fn run(&self, input: usize) -> Done<()> {
        let r = run_schedule(&self.schedules[input]);
        Done {
            hash: r.trace_hash,
            tally: passed(&r),
            extra: (),
        }
    }

    /// Generates the schedule again inside a span (it must equal the one
    /// made at set-up) and runs it.
    fn run_traced(&self, input: usize, claim: u64, tr: &Tracer) -> Done<ChaosRun> {
        tr.span(None, "bench", "run", claim, |root| {
            let t = tr.now_ns();
            let s = tr.span(Some(root), "campaign", "generate", claim, |_| {
                generate(per_run_seed(self.master_seed, input as u64), &generator())
            });
            let generate_ns = tr.now_ns() - t;
            let t = tr.now_ns();
            let r = tr.span(Some(root), "campaign", mode_span(s.mode), claim, |_| {
                run_schedule(&s)
            });
            let run_ns = tr.now_ns() - t;
            let mut tally = passed(&r);
            if s != self.schedules[input] {
                tally.failed = 1;
            }
            let kv = r.kv.as_ref().map(|k| {
                let p99 = Quantiles::of(&k.lat_unaffected_ok).p99_ns;
                (k.goodput_rps(), k.error_fraction(), p99 as f64 / 1e6)
            });
            Done {
                hash: r.trace_hash,
                tally,
                extra: ChaosRun {
                    mode: s.mode,
                    generate_ns,
                    run_ns,
                    verdict: r.verdict,
                    mid_recovery_hits: r.phase_hits.iter().sum::<u64>() + r.os_recovery_hits,
                    detect_latency_ns: r.detect_latency_ns,
                    trace_dropped: r.trace_dropped,
                    kv,
                },
            }
        })
    }

    fn run_seconds(&self, s: &Sample<()>) -> f64 {
        s.host_s
    }

    fn end_to_end(&self, _pass: &Pass<()>, run_s: &[f64], v: &mut Values) {
        println!(
            "{} samples beyond p90; ten-beyond rule met: {}",
            samples_beyond(run_s.len(), 0.9),
            tail_supported(run_s.len(), 0.9)
        );
        v.set("run_s_p90", quantile(run_s, 0.9));
    }

    fn per_layer(&self, pass: &Pass<ChaosRun>, spans: &[Span], v: &mut Values) {
        let runs: Vec<&ChaosRun> = pass.samples.iter().map(|s| &s.done.extra).collect();
        let n = runs.len();
        let sum = |f: &dyn Fn(&ChaosRun) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
        set_self_times(spans, n, v);
        v.set(
            "campaign.generate_us",
            ratio(sum(&|r| r.generate_ns) / 1e3, n as f64),
        );
        for (mode, name) in [
            (Mode::Machine, "campaign.machine.run_s_p50"),
            (Mode::Hive, "hive.run_s_p50"),
            (Mode::HiveKv, "hivekv.run_s_p50"),
        ] {
            let secs: Vec<f64> = runs
                .iter()
                .filter(|r| r.mode == mode)
                .map(|r| r.run_ns as f64 / 1e9)
                .collect();
            v.set(name, median(&secs));
        }
        v.set(
            "campaign.mid_recovery_hits",
            ratio(sum(&|r| r.mid_recovery_hits), n as f64),
        );
        for (verdict, name) in [
            (Verdict::Contained, "campaign.verdict.contained"),
            (
                Verdict::DetectedRecovered,
                "campaign.verdict.detected_recovered",
            ),
            (
                Verdict::SurvivedDegraded,
                "campaign.verdict.survived_degraded",
            ),
        ] {
            v.set(
                name,
                ratio(sum(&|r| u64::from(r.verdict == verdict)), n as f64),
            );
        }
        let latency_us: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.detect_latency_ns)
            .map(|ns| ns as f64 / 1e3)
            .collect();
        v.set("campaign.detect_latency_us_p50", median(&latency_us));
        let kv: Vec<(f64, f64, f64)> = runs.iter().filter_map(|r| r.kv).collect();
        let kv_mean =
            |f: fn(&(f64, f64, f64)) -> f64| ratio(kv.iter().map(f).sum(), kv.len() as f64);
        v.set("hivekv.goodput_rps", kv_mean(|k| k.0));
        v.set("hivekv.err_frac", kv_mean(|k| k.1));
        v.set(
            "hivekv.unaffected_p99_ms",
            median(&kv.iter().map(|k| k.2).collect::<Vec<_>>()),
        );
        v.set(
            "obs.trace_dropped",
            ratio(sum(&|r| r.trace_dropped), n as f64),
        );
    }
}
