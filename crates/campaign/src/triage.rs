//! Failure triage: seed replay, greedy schedule shrinking and post-mortem
//! dumps.
//!
//! When a campaign run violates an invariant, triage (1) replays the run
//! from its schedule to confirm the violation is deterministic, (2) shrinks
//! the schedule — dropping events, advancing injection points to
//! steady-state time zero, and splitting multi-faults — while the violation
//! persists, and (3) writes a JSON post-mortem (violations, original and
//! shrunk schedules, the machine's trace buffer) under
//! `target/campaign/`.

use crate::runner::{run_schedule, RunRecord};
use crate::schedule::{FaultEvent, InjectAt, Schedule};
use flash_machine::FaultSpec;
use flash_obs::json_escape_str;
use std::path::{Path, PathBuf};

/// The outcome of triaging one failing run.
#[derive(Clone, Debug)]
pub struct TriageReport {
    /// The original failing record.
    pub original: RunRecord,
    /// Whether replaying the schedule reproduced at least one violation.
    pub reproduced: bool,
    /// The shrunk schedule (equals the original when not reproduced).
    pub shrunk: Schedule,
    /// The record of the shrunk schedule's run.
    pub shrunk_record: RunRecord,
    /// Schedule executions spent shrinking (including the replay).
    pub probe_runs: u64,
    /// Where the JSON post-mortem was written, if a dump directory was
    /// given.
    pub dump_path: Option<PathBuf>,
}

fn violates(s: &Schedule, probes: &mut u64) -> Option<RunRecord> {
    *probes += 1;
    let record = run_schedule(s);
    if record.passed() {
        None
    } else {
        Some(record)
    }
}

/// Candidate simplifications of one event, most aggressive first.
fn advance_candidates(ev: &FaultEvent) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    // Advance the injection point to steady-state time zero.
    if ev.at != (InjectAt::Steady { offset_ns: 0 }) {
        out.push(FaultEvent {
            at: InjectAt::Steady { offset_ns: 0 },
            fault: ev.fault.clone(),
        });
    }
    // Keep the phase but drop the delay.
    if let InjectAt::PhaseEntry { phase, delay_ns } = ev.at {
        if delay_ns != 0 {
            out.push(FaultEvent {
                at: InjectAt::PhaseEntry { phase, delay_ns: 0 },
                fault: ev.fault.clone(),
            });
        }
    }
    // Split a multi-fault into a single member.
    if let FaultSpec::Multi(members) = &ev.fault {
        for member in members {
            out.push(FaultEvent {
                at: ev.at,
                fault: member.clone(),
            });
        }
    }
    // Split a pool failure into a single failed node of the pool.
    if let FaultSpec::PoolFailure { pool } = &ev.fault {
        for member in pool {
            out.push(FaultEvent {
                at: ev.at,
                fault: FaultSpec::Node(*member),
            });
        }
    }
    out
}

/// Greedy fixpoint shrinking: repeatedly try dropping an event or replacing
/// it with a simpler candidate, keeping any change under which the
/// violation persists. Returns the minimal schedule found and its failing
/// record.
pub fn shrink(schedule: &Schedule, failing: RunRecord, probes: &mut u64) -> (Schedule, RunRecord) {
    let mut best = schedule.clone();
    let mut best_record = failing;
    loop {
        let mut improved = false;
        // Pass 1: drop each event.
        for i in 0..best.events.len() {
            if best.events.len() == 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if let Some(record) = violates(&candidate, probes) {
                best = candidate;
                best_record = record;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        // Pass 2: simplify each event in place.
        'simplify: for i in 0..best.events.len() {
            for replacement in advance_candidates(&best.events[i]) {
                if replacement == best.events[i] {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.events[i] = replacement;
                if let Some(record) = violates(&candidate, probes) {
                    best = candidate;
                    best_record = record;
                    improved = true;
                    break 'simplify;
                }
            }
        }
        if !improved {
            return (best, best_record);
        }
    }
}

fn violations_json(record: &RunRecord) -> String {
    let items: Vec<String> = record
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"invariant\":\"{}\",\"details\":\"{}\"}}",
                json_escape_str(v.invariant),
                json_escape_str(&v.details)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the full post-mortem JSON document, including the flight
/// recorder's event tail and the metrics snapshot of the shrunk run.
pub fn post_mortem_json(report: &TriageReport) -> String {
    let rec = &report.shrunk_record;
    let tail = if rec.trace_tail_json.is_empty() {
        "[]"
    } else {
        &rec.trace_tail_json
    };
    let metrics = if rec.metrics_json.is_empty() {
        "{}"
    } else {
        &rec.metrics_json
    };
    format!(
        "{{\n  \"seed\": {},\n  \"reproduced\": {},\n  \"violations\": {},\n  \
         \"schedule\": {},\n  \"shrunk_schedule\": {},\n  \"shrunk_violations\": {},\n  \
         \"probe_runs\": {},\n  \"trace_hash\": {},\n  \"trace_dropped\": {},\n  \
         \"trace_tail\": {},\n  \"metrics\": {},\n  \"trace\": \"{}\"\n}}\n",
        report.original.schedule.seed,
        report.reproduced,
        violations_json(&report.original),
        report.original.schedule.to_json(),
        report.shrunk.to_json(),
        violations_json(rec),
        report.probe_runs,
        rec.trace_hash,
        rec.trace_dropped,
        tail,
        metrics,
        json_escape_str(&rec.trace)
    )
}

/// The default post-mortem directory: `target/campaign/` (override with
/// `FLASH_CAMPAIGN_DIR`).
pub fn campaign_dir() -> PathBuf {
    match std::env::var("FLASH_CAMPAIGN_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => Path::new("target").join("campaign"),
    }
}

/// Triage a failing run: replay from its schedule, shrink while the
/// violation persists, and (if `dump_dir` is `Some`) write the post-mortem
/// as `run-<seed>.json`.
pub fn triage(failing: &RunRecord, dump_dir: Option<&Path>) -> TriageReport {
    let mut probes = 0u64;
    let replay = violates(&failing.schedule, &mut probes);
    let reproduced = replay.is_some();
    let (shrunk, shrunk_record) = match replay {
        Some(record) => shrink(&failing.schedule, record, &mut probes),
        None => (failing.schedule.clone(), failing.clone()),
    };
    let mut report = TriageReport {
        original: failing.clone(),
        reproduced,
        shrunk,
        shrunk_record,
        probe_runs: probes,
        dump_path: None,
    };
    if let Some(dir) = dump_dir {
        let path = dir.join(format!("run-{}.json", failing.schedule.seed));
        if std::fs::create_dir_all(dir).is_ok()
            && std::fs::write(&path, post_mortem_json(&report)).is_ok()
        {
            report.dump_path = Some(path);
        }
    }
    report
}
