//! `table53_sweep`: the Table 5.3 validation sweep through
//! `flash_bench::sweep_fault_experiments`.
//!
//! Every fault kind of Table 5.2 on the 8-node Table 5.1 machine, 3000
//! fill operations per processor with 50% stores, and K = 8 forks per
//! kind from each checkpoint. The fill prelude, checkpoint/fork and the
//! 8-node recoveries do most of the work. One call is one sweep of two
//! checkpoint groups (`5 × 8` runs per group) on up to two threads; the
//! inputs are the fill seeds of those groups.

use crate::drive::{digest, Done, Pass, Sample};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::recovery::{self, experiment_layers, recovery_ms, Finish, Prelude};
use crate::stats::{median, ratio, Tally};
use crate::trace::{Span, SpanId, Tracer};
use crate::{set_self_times, Workload};
use flash_bench::{
    fault_rng_seed, run_checkpoint_groups, sweep_fault_experiments, table_5_3_experiment,
    SweepConfig,
};
use flash_core::{
    finish_fault_experiment, prepare_fault_experiment, random_fault, FaultKind, RecoveryExt,
};
use flash_machine::{Checkpoint, FaultSpec};
use flash_obs::Recorder;
use flash_sim::DetRng;
use std::time::Instant;

/// Forks per fault kind per checkpoint (the sweep engine's K).
const FORKS: usize = 8;
/// Checkpoint groups per sweep call. Fixed, so that the inputs do not
/// depend on the host's thread count.
const GROUPS: usize = 2;
/// Sweep calls per input cycle.
const BATCHES: usize = 2;
/// Recorder arms, timed on the same forks: the default mask,
/// `Recorder::disabled()` and `enable_all()`.
const ARMS: [&str; 3] = ["default", "disabled", "all_domains"];
/// Times each arm runs on each fault kind of each group of the first
/// sweep call.
const ARM_REPEATS: usize = 2;

pub struct Table53 {
    /// Fill seed of group 0 of each sweep call; group `g` uses `base + g`.
    bases: Vec<u64>,
    workers: usize,
}

/// One forked run of a traced sweep.
pub struct ForkRun {
    /// `(kind position, run index)`: the sweep engine's result order.
    key: (usize, usize),
    fork_ns: u64,
    finish: Finish,
}

/// One checkpoint group of a traced sweep.
pub struct Group {
    prelude: Prelude,
    checkpoint_ns: u64,
    forks: Vec<ForkRun>,
}

impl Table53 {
    fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            runs_per_kind: FORKS * GROUPS,
            forks_per_checkpoint: FORKS,
            workers: self.workers,
        }
    }

    fn traced_group(
        &self,
        tr: &Tracer,
        root: SpanId,
        claim: u64,
        g: usize,
        ck: &Checkpoint<RecoveryExt>,
    ) -> Vec<ForkRun> {
        let n_nodes = ck.st().num_nodes();
        let mut forks = Vec::new();
        for (pos, &kind) in FaultKind::ALL.iter().enumerate() {
            for j in 0..FORKS {
                let mut rng = DetRng::new(fault_rng_seed(g as u64, kind, j as u64));
                let fault = random_fault(kind, n_nodes, &mut rng);
                let t = tr.now_ns();
                let m = tr.span(Some(root), "machine", "fork", claim, |_| ck.fork());
                let fork_ns = tr.now_ns() - t;
                let finish = tr.span(Some(root), "core", "finish_fault_experiment", claim, |id| {
                    recovery::finish(tr, Some(id), claim, m, fault)
                });
                forks.push(ForkRun {
                    key: (pos, g * FORKS + j),
                    fork_ns,
                    finish,
                });
            }
        }
        forks
    }
}

/// Host nanoseconds of one finish of a fork of `ck` under each of
/// [`ARMS`], run back to back.
fn obs_arms_once(ck: &Checkpoint<RecoveryExt>, fault: &FaultSpec, tally: &mut Tally) -> [u64; 3] {
    let mut ns = [0; 3];
    for (arm, slot) in ns.iter_mut().enumerate() {
        let mut m = ck.fork();
        match arm {
            1 => m.st_mut().obs = Recorder::disabled(),
            2 => m.st_mut().obs.enable_all(),
            _ => {}
        }
        let t = Instant::now();
        let out = finish_fault_experiment(m, fault.clone());
        *slot = t.elapsed().as_nanos() as u64;
        tally.record(out.finished, out.passed());
    }
    ns
}

impl Workload for Table53 {
    /// Simulated P1–P4 milliseconds of each run of the sweep.
    type Plain = Vec<f64>;
    type Traced = Vec<Group>;
    const END_TO_END: &'static [(&'static str, &'static str)] = END_TO_END;
    const PER_LAYER: &'static [(&'static str, &'static str)] = PER_LAYER;

    fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = DetRng::new(seed ^ 0x7AB1_E530_0000_0000);
        let bases: Vec<u64> = (0..BATCHES).map(|_| rng.next_u64() >> 8).collect();
        // Warm-up: one discarded prelude, checkpoint, fork and finish.
        let ck = prepare_fault_experiment(&table_5_3_experiment(bases[0])).checkpoint();
        let fault = random_fault(FaultKind::Node, ck.st().num_nodes(), &mut rng);
        std::hint::black_box(finish_fault_experiment(ck.fork(), fault));
        Table53 {
            bases,
            workers: workers.min(GROUPS),
        }
    }

    fn n_inputs(&self) -> usize {
        self.bases.len()
    }

    /// The sweep engine runs its own worker threads.
    fn call_threads(&self) -> usize {
        1
    }

    fn run(&self, input: usize) -> Done<Vec<f64>> {
        let base = self.bases[input];
        let runs = sweep_fault_experiments(&self.sweep_config(), &FaultKind::ALL, |g| {
            table_5_3_experiment(base + g)
        });
        let mut tally = Tally::default();
        for r in &runs {
            tally.record(r.outcome.finished, r.outcome.passed());
        }
        Done {
            hash: digest(runs.iter().map(|r| r.outcome.trace_hash)),
            tally,
            extra: runs.iter().map(|r| recovery_ms(&r.outcome)).collect(),
        }
    }

    /// The same sweep, built from the engine's public parts so that every
    /// prelude, checkpoint, fork and finish gets its own span.
    fn run_traced(&self, input: usize, claim: u64, tr: &Tracer) -> Done<Vec<Group>> {
        let base = self.bases[input];
        let cfg = self.sweep_config();
        let groups = tr.span(None, "bench", "sweep_fault_experiments", claim, |root| {
            run_checkpoint_groups(
                cfg.workers,
                cfg.n_groups(),
                |g| {
                    let ecfg = table_5_3_experiment(base + g as u64);
                    let t = tr.now_ns();
                    let m = tr.span(
                        Some(root),
                        "core",
                        "prepare_fault_experiment",
                        claim,
                        |_| prepare_fault_experiment(&ecfg),
                    );
                    let prelude = Prelude {
                        prepare_ns: tr.now_ns() - t,
                        events: m.events_processed(),
                    };
                    let t = tr.now_ns();
                    let ck = tr.span(Some(root), "machine", "checkpoint", claim, |_| {
                        m.checkpoint()
                    });
                    (prelude, tr.now_ns() - t, ck)
                },
                |g, (prelude, checkpoint_ns, ck)| {
                    vec![Group {
                        prelude,
                        checkpoint_ns,
                        forks: self.traced_group(tr, root, claim, g, &ck),
                    }]
                },
            )
        });
        let groups: Vec<Group> = groups.into_iter().flatten().collect();
        let mut runs: Vec<&ForkRun> = groups.iter().flat_map(|g| &g.forks).collect();
        runs.sort_by_key(|r| r.key);
        let mut tally = Tally::default();
        for r in &runs {
            tally.record(r.finish.outcome.finished, r.finish.outcome.passed());
        }
        Done {
            hash: digest(runs.iter().map(|r| r.finish.outcome.trace_hash)),
            tally,
            extra: groups,
        }
    }

    /// Host seconds one worker thread spends per run, prelude share
    /// included.
    fn run_seconds(&self, s: &Sample<Vec<f64>>) -> f64 {
        s.host_s * self.workers as f64 / s.done.tally.attempted as f64
    }

    fn end_to_end(&self, pass: &Pass<Vec<f64>>, _run_s: &[f64], v: &mut Values) {
        let ms: Vec<f64> = pass
            .samples
            .iter()
            .flat_map(|s| s.done.extra.iter().copied())
            .collect();
        v.set("sim_recovery_ms_p50", median(&ms));
    }

    fn per_layer(&self, pass: &Pass<Vec<Group>>, spans: &[Span], v: &mut Values) {
        let groups: Vec<&Group> = pass.samples.iter().flat_map(|s| &s.done.extra).collect();
        let preludes: Vec<Prelude> = groups.iter().map(|g| g.prelude).collect();
        let forks: Vec<&ForkRun> = groups.iter().flat_map(|g| &g.forks).collect();
        let runs: Vec<&Finish> = forks.iter().map(|f| &f.finish).collect();
        experiment_layers(&preludes, &runs, v);
        set_self_times(spans, runs.len(), v);
        let ckpt_ns: u64 = groups.iter().map(|g| g.checkpoint_ns).sum();
        v.set(
            "machine.checkpoint_ms",
            ratio(ckpt_ns as f64 / 1e6, groups.len() as f64),
        );
        let fork_ns: u64 = forks.iter().map(|f| f.fork_ns).sum();
        v.set(
            "machine.fork_ms",
            ratio(fork_ns as f64 / 1e6, forks.len() as f64),
        );
    }

    /// Finishes identical forks of the first sweep call's checkpoints
    /// under each recorder arm. The arms change the trace hash by design,
    /// so they stay out of the digest.
    fn obs_arms(&self, v: &mut Values) -> Tally {
        let base = self.bases[0];
        let per_group = run_checkpoint_groups(
            self.workers,
            GROUPS,
            |g| prepare_fault_experiment(&table_5_3_experiment(base + g as u64)).checkpoint(),
            |g, ck| {
                let mut tally = Tally::default();
                let mut ns = [0u64; 3];
                for &kind in &FaultKind::ALL {
                    let mut rng = DetRng::new(fault_rng_seed(g as u64, kind, 0));
                    let fault = random_fault(kind, ck.st().num_nodes(), &mut rng);
                    for _ in 0..ARM_REPEATS {
                        let once = obs_arms_once(&ck, &fault, &mut tally);
                        for (total, x) in ns.iter_mut().zip(once) {
                            *total += x;
                        }
                    }
                }
                vec![(ns, tally)]
            },
        );
        let mut ns = [0f64; 3];
        let mut tally = Tally::default();
        for (group_ns, t) in per_group.into_iter().flatten() {
            for (total, x) in ns.iter_mut().zip(group_ns) {
                *total += x as f64;
            }
            tally.merge(t);
        }
        println!(
            "recorder arms ({}): {:.3} / {:.3} / {:.3} s",
            ARMS.join(" / "),
            ns[0] / 1e9,
            ns[1] / 1e9,
            ns[2] / 1e9
        );
        v.set("obs.default_cost_frac", ratio(ns[0], ns[1]) - 1.0);
        v.set("obs.all_domains_cost_frac", ratio(ns[2], ns[0]) - 1.0);
        tally
    }
}
