//! A chaos campaign in miniature: generate randomized multi-fault
//! schedules, run them across worker threads, check the invariant stack,
//! and triage any failure down to a minimal reproducer.
//!
//! ```sh
//! cargo run --release --example campaign [runs] [workers] [master-seed]
//! ```
//!
//! Pass `--sabotage` as a fourth argument to run with the MAGIC firewall
//! disabled — the deliberately seeded bug: the campaign catches the wild
//! write, replays it from its seed, shrinks the schedule and writes a JSON
//! post-mortem under `target/campaign/`.

use flash::campaign::{campaign_dir, run_campaign, triage, CampaignConfig, GeneratorConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);
    let workers: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let master_seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let sabotage = std::env::args().any(|a| a == "--sabotage");

    let cfg = CampaignConfig {
        master_seed,
        runs,
        workers,
        generator: GeneratorConfig {
            hive_chance: 0.15,
            firewall_enabled: !sabotage,
            ..GeneratorConfig::default()
        },
    };
    println!(
        "chaos campaign: {runs} runs, {workers} workers, master seed {master_seed}, firewall {}",
        if sabotage {
            "DISABLED (sabotage)"
        } else {
            "enabled"
        }
    );
    let report = run_campaign(&cfg);
    let failures: Vec<_> = report.failures().collect();
    println!(
        "completed in {:.1}s host time: {} violations across {} failing runs",
        report.host_secs,
        report.total_violations(),
        failures.len()
    );
    println!(
        "mid-recovery faults fired: P1={} P2={} P3={} P4={}; during OS recovery: {}",
        report.phase_hits[0],
        report.phase_hits[1],
        report.phase_hits[2],
        report.phase_hits[3],
        report.os_recovery_hits
    );

    for failure in failures.iter().take(3) {
        let t = triage(failure, Some(&campaign_dir()));
        println!(
            "seed {}: reproduced={} shrunk {} -> {} events ({} probe runs), post-mortem: {:?}",
            failure.schedule.seed,
            t.reproduced,
            failure.schedule.events.len(),
            t.shrunk.events.len(),
            t.probe_runs,
            t.dump_path
        );
        for v in &t.shrunk_record.violations {
            println!("  {}: {}", v.invariant, v.details);
        }
    }
    if failures.is_empty() {
        println!("all invariants held.");
    }
}
