//! `fig55_recovery`: single-node failures on the 128-node mesh of
//! Figure 5.5 (1 MB memory per node, 1 MB L2), the paper's largest point.
//!
//! Each run fills the caches with 100 operations per processor, kills one
//! node and runs recovery to completion; only a few operations remain
//! after the fill, so P1–P4 (P2 dissemination above all) do most of the
//! work. Victims are stratified over the mesh, one per column, so every
//! seed covers it alike and medians agree across seeds.

use crate::drive::{Done, Pass, Sample};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::recovery::{self, experiment_layers, recovery_ms, Finish, Prelude};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{one_run, set_self_times, Workload};
use flash_core::{prepare_fault_experiment, run_fault_experiment, ExperimentConfig};
use flash_machine::{FaultSpec, MachineParams};
use flash_net::NodeId;
use flash_sim::DetRng;

const NODES: usize = 128;
/// The mesh is `WIDTH` x `HEIGHT` (`flash_core::mesh_width`).
const WIDTH: usize = 16;
const HEIGHT: usize = NODES / WIDTH;
/// Victims per input cycle.
const VICTIMS: usize = WIDTH;

pub struct Fig55 {
    inputs: Vec<(ExperimentConfig, NodeId)>,
    workers: usize,
}

fn config(seed: u64) -> ExperimentConfig {
    let mut params = MachineParams::table_5_1();
    params.n_nodes = NODES;
    params.mem_mb_per_node = 1;
    params.l2_mb = 1.0;
    let mut cfg = ExperimentConfig::new(params, seed);
    cfg.fill_ops = 100;
    cfg.total_ops = 120;
    cfg
}

impl Workload for Fig55 {
    /// Simulated P1–P4 milliseconds of the run.
    type Plain = f64;
    type Traced = (Prelude, Finish);
    const END_TO_END: &'static [(&'static str, &'static str)] = END_TO_END;
    const PER_LAYER: &'static [(&'static str, &'static str)] = PER_LAYER;

    fn setup(seed: u64, workers: usize) -> Self {
        let mut rng = DetRng::new(seed ^ 0xF155_0000_0000_0128);
        // A stratified draw over the 16 x 8 mesh: one victim per column,
        // each row twice, so every seed samples the mesh alike.
        let mut rows: Vec<u64> = Vec::with_capacity(VICTIMS);
        for _ in 0..VICTIMS / HEIGHT {
            let mut perm: Vec<u64> = (0..HEIGHT as u64).collect();
            rng.shuffle(&mut perm);
            rows.extend(perm);
        }
        // Node 0 (column 0, row 0) is never the victim.
        if rows[0] == 0 {
            rows.swap(0, 1);
        }
        let inputs: Vec<(ExperimentConfig, NodeId)> = rows
            .iter()
            .enumerate()
            .map(|(x, &y)| {
                let victim = NodeId((y * WIDTH as u64 + x as u64) as u16);
                (config(rng.next_u64()), victim)
            })
            .collect();
        // Warm-up: one discarded prelude.
        std::hint::black_box(prepare_fault_experiment(&inputs[0].0));
        Fig55 { inputs, workers }
    }

    fn n_inputs(&self) -> usize {
        self.inputs.len()
    }

    fn call_threads(&self) -> usize {
        self.workers
    }

    fn run(&self, input: usize) -> Done<f64> {
        let (cfg, victim) = &self.inputs[input];
        let out = run_fault_experiment(cfg, FaultSpec::Node(*victim));
        Done {
            hash: out.trace_hash,
            tally: one_run(out.finished, out.passed()),
            extra: recovery_ms(&out),
        }
    }

    fn run_traced(&self, input: usize, claim: u64, tr: &Tracer) -> Done<(Prelude, Finish)> {
        let (cfg, victim) = &self.inputs[input];
        tr.span(None, "bench", "run", claim, |root| {
            let t = tr.now_ns();
            let m = tr.span(
                Some(root),
                "core",
                "prepare_fault_experiment",
                claim,
                |_| prepare_fault_experiment(cfg),
            );
            let prelude = Prelude {
                prepare_ns: tr.now_ns() - t,
                events: m.events_processed(),
            };
            let f = tr.span(Some(root), "core", "finish_fault_experiment", claim, |id| {
                recovery::finish(tr, Some(id), claim, m, FaultSpec::Node(*victim))
            });
            Done {
                hash: f.outcome.trace_hash,
                tally: one_run(f.outcome.finished, f.outcome.passed()),
                extra: (prelude, f),
            }
        })
    }

    fn run_seconds(&self, s: &Sample<f64>) -> f64 {
        s.host_s
    }

    fn end_to_end(&self, pass: &Pass<f64>, _run_s: &[f64], v: &mut Values) {
        let ms: Vec<f64> = pass.samples.iter().map(|s| s.done.extra).collect();
        v.set("sim_recovery_ms_p50", median(&ms));
    }

    fn per_layer(&self, pass: &Pass<(Prelude, Finish)>, spans: &[Span], v: &mut Values) {
        let preludes: Vec<Prelude> = pass.samples.iter().map(|s| s.done.extra.0).collect();
        let runs: Vec<&Finish> = pass.samples.iter().map(|s| &s.done.extra.1).collect();
        experiment_layers(&preludes, &runs, v);
        set_self_times(spans, runs.len(), v);
    }
}
