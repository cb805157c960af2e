//! **Checkpoint/fork sweep vs. from-scratch — the speedup evidence.**
//!
//! Runs the Table 5.3 (validation) and Table 5.4 (end-to-end) sweeps twice
//! at equal N — once through the checkpoint/fork engine, once from scratch
//! with identical seeds — asserts every forked run's trace hash is
//! bit-identical to its from-scratch twin, and reports the wall-clock
//! speedup as the `sweep_fork` result sheet. The committed numbers and
//! their `speedup` floors live in the repo's `BENCH_ledger.json`.
//!
//! Environment knobs:
//!
//! * `FLASH_RUNS=N` — runs per fault type on each side (default 64; the
//!   speedup is prelude amortization, so tiny N underreports it — the CI
//!   smoke run at `FLASH_RUNS=5` exercises the path and the determinism
//!   assertion, not the speedup);
//! * `FLASH_BENCH_CHECK=path` — gate the sheet on the `speedup` floors of
//!   the bench ledger at `path` and exit non-zero if either sweep falls
//!   below its floor.

use flash_bench::{
    banner, check_floors_from_env, runs_from_env, table_5_3_experiment, table_5_4_hive,
    time_fault_sweep, time_parallel_make_sweep, ResultSheet, Stopwatch, SweepConfig, SweepTiming,
    DEFAULT_MAKE_STAGES,
};
use flash_core::{FaultKind, RecoveryConfig};
use flash_machine::MachineParams;

fn check_hashes<O>(
    forked: &[flash_bench::SweepRun<O>],
    scratch: &[flash_bench::SweepRun<O>],
    hash: impl Fn(&O) -> u64,
) -> usize {
    assert_eq!(forked.len(), scratch.len(), "unequal N between arms");
    forked
        .iter()
        .zip(scratch)
        .filter(|(f, s)| {
            let differ = hash(&f.outcome) != hash(&s.outcome);
            if differ {
                eprintln!(
                    "DETERMINISM MISMATCH {:?} run {} stage {}%",
                    f.kind, f.run, f.stage_pct
                );
            }
            differ
        })
        .count()
}

fn main() {
    banner(
        "sweep_fork: checkpoint/fork sweep vs. from-scratch at equal N",
        "engine behind Tables 5.3/5.4 at paper-scale run counts",
    );
    let runs = runs_from_env(64);
    let mut cfg = SweepConfig::new(runs as usize);
    cfg.forks_per_checkpoint = 8;
    let sw = Stopwatch::start();
    let mut sheet = ResultSheet::new(
        "sweep_fork",
        "engine behind Tables 5.3/5.4 at paper-scale run counts",
        &[
            "runs",
            "forked_s",
            "scratch_s",
            "speedup",
            "hash_mismatches",
        ],
    );
    let mut mismatches = 0;
    let mut push = |name: &str, t: SweepTiming, m: usize| {
        mismatches += m;
        let row = [
            t.runs as f64,
            t.forked_secs,
            t.scratch_secs,
            t.speedup(),
            m as f64,
        ];
        sheet.push(name, &row);
    };

    // Arm 1: the Table 5.3 validation sweep, all five fault types.
    let (forked, scratch, timing) = time_fault_sweep(&cfg, &FaultKind::ALL, table_5_3_experiment);
    push(
        "validation_table_5_3",
        timing,
        check_hashes(&forked, &scratch, |o| o.trace_hash),
    );

    // Arm 2: the Table 5.4 end-to-end sweep over the injection ladder.
    let kinds = [
        FaultKind::Node,
        FaultKind::Router,
        FaultKind::Link,
        FaultKind::InfiniteLoop,
    ];
    let (forked, scratch, timing) = time_parallel_make_sweep(
        &cfg,
        &kinds,
        DEFAULT_MAKE_STAGES,
        MachineParams::table_5_1(),
        &table_5_4_hive(),
        RecoveryConfig::default(),
    );
    push(
        "end_to_end_table_5_4",
        timing,
        check_hashes(&forked, &scratch, |o| o.trace_hash),
    );

    println!(
        "\n{:<28} {:>6} {:>10} {:>10} {:>9}",
        "sweep", "runs", "forked", "scratch", "speedup"
    );
    for r in &sheet.rows {
        let v = &r.values;
        println!(
            "{:<28} {:>6} {:>9.2}s {:>9.2}s {:>8.2}x",
            r.label, v[0], v[1], v[2], v[3]
        );
    }
    println!("[{:.1}s host total]", sw.secs());

    sheet.write();
    assert_eq!(
        mismatches, 0,
        "every forked run must hash identically to its from-scratch twin"
    );
    check_floors_from_env(&sheet);
}
