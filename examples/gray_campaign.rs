//! The gray-failure result sheet: a chaos campaign whose schedule mix is
//! heavy in gray faults (fail-slow nodes, degraded memory ranges, lossy
//! links, memory-pool failures), reported per fault class with the
//! three-way containment verdict and detection-latency quantiles.
//!
//! ```sh
//! cargo run --release --example gray_campaign [runs] [workers] [master-seed]
//! ```
//!
//! Exits nonzero if any invariant is violated or any run does not finish,
//! so CI can run it as the `gray-chaos-smoke` gate.

use flash::bench::VerdictSheet;
use flash::campaign::{run_campaign, CampaignConfig, GeneratorConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let workers: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let master_seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let cfg = CampaignConfig {
        master_seed,
        runs,
        workers,
        generator: GeneratorConfig {
            gray_chance: 0.45,
            ..GeneratorConfig::default()
        },
    };
    println!(
        "gray-failure campaign: {runs} runs, {workers} workers, master seed {master_seed}, \
         gray_chance 0.45"
    );
    let report = run_campaign(&cfg);

    let mut sheet = VerdictSheet::new();
    for r in &report.records {
        sheet.tally(r);
    }

    println!(
        "\ncompleted in {:.1}s host time: {} violations across {} runs\n",
        report.host_secs,
        report.total_violations(),
        report.records.len()
    );
    print!("{}", sheet.verdict_table());
    println!();
    print!("{}", sheet.detection_summary());

    for failure in report.failures().take(3) {
        println!("\nFAIL seed {}:", failure.schedule.seed);
        for v in &failure.violations {
            println!("  {}: {}", v.invariant, v.details);
        }
    }
    let unfinished = sheet.overall.unfinished;
    if unfinished > 0 {
        println!("\n{unfinished} run(s) did not finish");
    }
    if report.total_violations() > 0 || unfinished > 0 {
        std::process::exit(1);
    }
    println!("\nall invariants held across the gray-failure mix.");
}
