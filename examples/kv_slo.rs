//! The KV serving SLO result sheet: a chaos campaign in which every run
//! hosts the replicated `hive-kv` workload, faults (fail-stop and the gray
//! classes) strike mid-traffic, and the user-visible service levels —
//! goodput, latency quantiles, error fraction — are reported per fault
//! class alongside the containment verdicts.
//!
//! ```sh
//! cargo run --release --example kv_slo [runs] [workers] [master-seed]
//! ```
//!
//! The campaign is run twice, with one worker and with the requested
//! worker count, and the per-run merged trace hashes must match
//! bit-for-bit — the serving workload obeys the same determinism
//! discipline as everything else. Exits nonzero on any invariant
//! violation, unfinished run, missing fault-class coverage, or hash
//! mismatch, so CI can run it as the `kv-slo-smoke` gate.

use flash::bench::{run_fault_classes, ResultSheet, VerdictSheet, FAULT_CLASSES};
use flash::campaign::{run_campaign, CampaignConfig, GeneratorConfig, RunRecord};
use flash::obs::Quantiles;
use flash::sim::LatencyHistogram;

/// Per-fault-class service-level aggregate.
#[derive(Default)]
struct SloRow {
    runs: u64,
    arrivals: u64,
    ok: u64,
    errors: u64,
    unserved: u64,
    chunks_lost: u64,
    duration_ns: u64,
    lat_ok: LatencyHistogram,
}

impl SloRow {
    fn tally(&mut self, r: &RunRecord) {
        let Some(kv) = &r.kv else { return };
        self.runs += 1;
        self.arrivals += kv.arrivals;
        self.ok += kv.ok;
        self.errors += kv.errors;
        self.unserved += kv.unserved;
        self.chunks_lost += kv.chunks_lost;
        self.duration_ns += kv.duration_ns;
        self.lat_ok.merge(&kv.lat_ok);
    }

    /// Successful requests per simulated second: total successes over the
    /// class's total simulated time (runs weighted by their duration).
    fn goodput_rps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.ok as f64 * 1e9 / self.duration_ns as f64
    }

    /// Fraction of budgeted requests that surfaced as user-visible errors.
    fn error_fraction(&self) -> f64 {
        let total = self.arrivals + self.unserved;
        if total == 0 {
            return 0.0;
        }
        (self.errors + self.unserved) as f64 / total as f64
    }

    fn values(&self) -> Vec<f64> {
        let q = Quantiles::of(&self.lat_ok);
        vec![
            self.runs as f64,
            self.goodput_rps(),
            q.p50_ns as f64 / 1e6,
            q.p95_ns as f64 / 1e6,
            q.p99_ns as f64 / 1e6,
            q.p999_ns as f64 / 1e6,
            self.error_fraction(),
            self.chunks_lost as f64,
        ]
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let workers: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let master_seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);

    let cfg = CampaignConfig {
        master_seed,
        runs,
        workers,
        generator: GeneratorConfig {
            min_nodes: 8,
            max_nodes: 8,
            kv_chance: 1.0,
            gray_chance: 0.5,
            ..GeneratorConfig::default()
        },
    };
    println!(
        "kv serving SLO campaign: {runs} runs, {workers} workers, master seed {master_seed}, \
         kv_chance 1.0, gray_chance 0.5"
    );
    let report = run_campaign(&cfg);
    println!(
        "completed in {:.1}s host time: {} violations across {} runs",
        report.host_secs,
        report.total_violations(),
        report.records.len()
    );

    // Determinism gate: the identical campaign with one worker must
    // produce bit-identical per-run merged trace hashes.
    let seq = run_campaign(&CampaignConfig { workers: 1, ..cfg });
    let hashes = |r: &flash::campaign::CampaignReport| -> Vec<(u64, u64)> {
        r.records
            .iter()
            .map(|rec| (rec.schedule.seed, rec.trace_hash))
            .collect()
    };
    let hash_ok = hashes(&report) == hashes(&seq);
    println!(
        "determinism: 1-vs-{workers}-worker trace hashes {}",
        if hash_ok { "identical" } else { "DIVERGED" }
    );

    let mut verdicts = VerdictSheet::new();
    let mut slo_rows: Vec<SloRow> = (0..FAULT_CLASSES.len())
        .map(|_| SloRow::default())
        .collect();
    let mut overall = SloRow::default();
    for r in &report.records {
        verdicts.tally(r);
        overall.tally(r);
        for (i, p) in run_fault_classes(r).iter().enumerate() {
            if *p {
                slo_rows[i].tally(r);
            }
        }
    }

    println!();
    print!("{}", verdicts.verdict_table());
    println!();
    println!(
        "{:<16} {:>5} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "fault class",
        "runs",
        "goodput_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "p999_ms",
        "err_frac",
        "lost"
    );
    let print_slo = |name: &str, row: &SloRow| {
        let v = row.values();
        println!(
            "{name:<16} {:>5} {:>12.0} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.4} {:>6}",
            v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
        );
    };
    for (name, row) in FAULT_CLASSES.iter().zip(&slo_rows) {
        print_slo(name, row);
    }
    print_slo("all_runs", &overall);
    println!();
    print!("{}", verdicts.detection_summary());

    let mut sheet = ResultSheet::new(
        "kv_slo",
        "hive-kv serving SLOs through faults (beyond the paper)",
        &[
            "runs",
            "goodput_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "p999_ms",
            "err_frac",
            "chunks_lost",
        ],
    );
    for (name, row) in FAULT_CLASSES.iter().zip(&slo_rows) {
        sheet.push(*name, &row.values());
    }
    sheet.push("all_runs", &overall.values());
    sheet.write();

    for failure in report.failures().take(3) {
        println!("\nFAIL seed {}:", failure.schedule.seed);
        for v in &failure.violations {
            println!("  {}: {}", v.invariant, v.details);
        }
    }

    // Coverage gate: the sheet must actually exercise fail-stop plus at
    // least two gray classes (sized-down smoke runs included).
    let gray_covered = slo_rows[1..].iter().filter(|r| r.runs > 0).count();
    let covered = slo_rows[0].runs > 0 && gray_covered >= 2;
    if !covered {
        println!(
            "\ninsufficient fault-class coverage: fail_stop runs {}, gray classes hit {gray_covered}",
            slo_rows[0].runs
        );
    }
    let unfinished = verdicts.overall.unfinished;
    if unfinished > 0 {
        println!("\n{unfinished} run(s) did not finish");
    }
    if report.total_violations() > 0 || unfinished > 0 || !hash_ok || !covered {
        std::process::exit(1);
    }
    println!("\nall serving invariants held; trace hashes identical across worker counts.");
}
