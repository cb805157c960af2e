//! **Chaos campaign sweep.**
//!
//! Goes beyond the paper's Table 5.3 single-fault validation: a randomized
//! multi-fault campaign over 8–16 node machines, mixing steady-state faults
//! with faults armed mid-recovery (on entry to each phase P1–P4) and during
//! the Hive OS recovery pass, with the full invariant stack checked after
//! every run. The sweep then demonstrates failure triage by re-running a
//! slice of the campaign with the MAGIC firewall disabled — the deliberately
//! seeded bug — and shrinking each caught violation to a minimal schedule.
//!
//! Run counts scale with `FLASH_RUNS` (default 200; set lower for a quick
//! pass). Post-mortem JSON for sabotage failures lands under
//! `target/campaign/`.

use flash_bench::{banner, runs_from_env, ResultSheet, Stopwatch};
use flash_campaign::{
    campaign_dir, run_campaign, triage, CampaignConfig, CampaignReport, GeneratorConfig,
};

fn campaign(runs: u64, workers: usize, firewall: bool) -> CampaignReport {
    run_campaign(&CampaignConfig {
        master_seed: 1,
        runs,
        workers,
        generator: GeneratorConfig {
            hive_chance: 0.15,
            firewall_enabled: firewall,
            ..GeneratorConfig::default()
        },
    })
}

fn gray_campaign(runs: u64, workers: usize) -> CampaignReport {
    run_campaign(&CampaignConfig {
        master_seed: 1,
        runs,
        workers,
        generator: GeneratorConfig {
            hive_chance: 0.15,
            gray_chance: 0.45,
            ..GeneratorConfig::default()
        },
    })
}

fn kv_campaign(runs: u64, workers: usize) -> CampaignReport {
    run_campaign(&CampaignConfig {
        master_seed: 1,
        runs,
        workers,
        generator: GeneratorConfig {
            kv_chance: 1.0,
            gray_chance: 0.45,
            max_nodes: 8,
            ..GeneratorConfig::default()
        },
    })
}

fn main() {
    banner(
        "Chaos campaign: randomized multi-fault injection + invariant stack",
        "Teodosiu et al., ISCA'97, Sections 4.1/5.3 generalized to fault schedules",
    );
    let runs = runs_from_env(200);
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let sw = Stopwatch::start();
    let mut sheet = ResultSheet::new(
        "campaign_sweep",
        "Sections 4.1/5.3 (randomized generalization)",
        &["runs", "violations", "host_s"],
    );

    // Phase 1: the clean campaign, once single-threaded and once across all
    // available workers (identical outcomes by construction).
    let seq = campaign(runs, 1, true);
    let par = campaign(runs, workers, true);
    assert_eq!(
        seq.total_violations(),
        par.total_violations(),
        "campaign outcome must not depend on worker count"
    );
    println!(
        "{:<34} {:>8} {:>12} {:>10}",
        "campaign", "runs", "violations", "host [s]"
    );
    println!(
        "{:<34} {:>8} {:>12} {:>10.2}",
        "firewall on, 1 worker",
        runs,
        seq.total_violations(),
        seq.host_secs
    );
    println!(
        "{:<34} {:>8} {:>12} {:>10.2}",
        format!("firewall on, {workers} workers"),
        runs,
        par.total_violations(),
        par.host_secs
    );
    println!(
        "  speedup {:.2}x on {} hardware thread(s); mid-recovery fault coverage: \
         P1={} P2={} P3={} P4={}, during OS recovery: {}",
        seq.host_secs / par.host_secs.max(1e-9),
        workers,
        par.phase_hits[0],
        par.phase_hits[1],
        par.phase_hits[2],
        par.phase_hits[3],
        par.os_recovery_hits
    );
    assert_eq!(
        par.total_violations(),
        0,
        "clean campaign must hold every invariant; failing seeds: {:?}",
        par.failures().map(|f| f.schedule.seed).collect::<Vec<_>>()
    );
    if runs >= 100 {
        assert!(
            par.phase_hits.iter().all(|&h| h > 0),
            "campaign must land at least one fault during each phase P1-P4: {:?}",
            par.phase_hits
        );
    }
    sheet.push(
        "firewall_on_seq",
        &[runs as f64, seq.total_violations() as f64, seq.host_secs],
    );
    sheet.push(
        "firewall_on_par",
        &[runs as f64, par.total_violations() as f64, par.host_secs],
    );

    // Phase 1b: the gray-failure mix (fail-slow nodes, degraded memory,
    // lossy links, pool failures blended into the fail-stop schedule) —
    // the containment story must hold, and stay worker-count-independent,
    // when faults degrade instead of stopping.
    let gray = gray_campaign(runs, workers);
    println!(
        "{:<34} {:>8} {:>12} {:>10.2}",
        format!("gray mix, {workers} workers"),
        runs,
        gray.total_violations(),
        gray.host_secs
    );
    assert_eq!(
        gray.total_violations(),
        0,
        "gray-failure campaign must hold every invariant; failing seeds: {:?}",
        gray.failures().map(|f| f.schedule.seed).collect::<Vec<_>>()
    );
    sheet.push(
        "gray_mix",
        &[runs as f64, gray.total_violations() as f64, gray.host_secs],
    );

    // Phase 1c: the KV serving mix — every run hosts the replicated
    // hive-kv workload, so the serving invariants (no replicated data lost
    // while a replica's cell is live, unaffected chunks keep their SLO)
    // join the stack while faults strike mid-traffic.
    let kv = kv_campaign(runs, workers);
    println!(
        "{:<34} {:>8} {:>12} {:>10.2}",
        format!("kv serving mix, {workers} workers"),
        runs,
        kv.total_violations(),
        kv.host_secs
    );
    assert_eq!(
        kv.total_violations(),
        0,
        "kv serving campaign must hold every invariant; failing seeds: {:?}",
        kv.failures().map(|f| f.schedule.seed).collect::<Vec<_>>()
    );
    let served: u64 = kv
        .records
        .iter()
        .filter_map(|r| r.kv.as_ref())
        .map(|s| s.ok)
        .sum();
    println!("  {served} requests served successfully through the fault mix");
    assert!(served > 0, "the kv mix must actually serve traffic");
    sheet.push(
        "kv_serving_mix",
        &[runs as f64, kv.total_violations() as f64, kv.host_secs],
    );

    // Phase 2: the seeded bug. Disable the firewall and let the campaign
    // catch the dying master's wild write, then triage: replay from seed,
    // shrink to a minimal schedule, dump a JSON post-mortem.
    let sab_runs = (runs / 10).clamp(5, 20);
    let sab = campaign(sab_runs, workers, false);
    let failures: Vec<_> = sab.failures().collect();
    println!(
        "\nsabotage (firewall disabled): {} of {sab_runs} runs violated an invariant",
        failures.len()
    );
    assert!(
        !failures.is_empty(),
        "the disabled firewall must be caught by the invariant stack"
    );
    sheet.push(
        "firewall_off",
        &[
            sab_runs as f64,
            sab.total_violations() as f64,
            sab.host_secs,
        ],
    );
    for failure in failures.iter().take(3) {
        let t = triage(failure, Some(&campaign_dir()));
        assert!(t.reproduced, "seed replay must reproduce the violation");
        println!(
            "  seed {}: {} -> {} events after {} probe runs; {}; post-mortem {}",
            failure.schedule.seed,
            failure.schedule.events.len(),
            t.shrunk.events.len(),
            t.probe_runs,
            t.shrunk_record
                .violations
                .first()
                .map_or("?".to_string(), |v| v.invariant.to_string()),
            t.dump_path
                .as_deref()
                .map_or("(not written)".to_string(), |p| p.display().to_string())
        );
    }
    println!("\ncampaign sweep done.   [{:.1}s host]", sw.secs());
    sheet.write();
}
