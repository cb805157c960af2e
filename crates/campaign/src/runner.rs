//! Schedule execution and the parallel campaign driver.
//!
//! [`run_schedule`] executes one [`Schedule`] deterministically. Each mode
//! boots its harness — the bare machine, [`PreparedMake`] or
//! [`flash_hivekv::PreparedKv`] — warms it to the injection point and arms
//! the schedule into a [`FaultPlan`]; the shared [`drive`] loop of
//! `flash-core` then runs it, arming phase-entry faults as the recovery
//! extension reports the phases entered. Every armed fault that dooms a
//! node also models the dying master's stray write (the wild write the
//! MAGIC firewall exists to block, Section 3.1). The invariant stack then
//! judges the final state.
//!
//! [`run_campaign`] fans runs across worker threads with deterministic
//! per-run seeds, so a campaign's outcome is independent of worker count
//! and every failure is replayable from its seed alone.

use crate::invariants::{self, GrayFacts, RunContext, Violation};
use crate::schedule::{generate, FaultEvent, GeneratorConfig, InjectAt, Mode, Schedule};
use flash_coherence::{LineAddr, NodeSet, PageAddr};
use flash_core::{
    boot_fault_experiment, drive, fill_caches, warm_until, ExperimentConfig, FaultPlan, FcMachine,
    Harness, RecoveryConfig,
};
use flash_hive::{os, prepare_parallel_make, CellLayout, HiveConfig, PreparedMake, TaskState};
use flash_hivekv::{prepare_kv_serving, KvConfig, KvStats};
use flash_machine::{FaultSpec, MachineParams};
use flash_net::NodeId;
use flash_sim::{DetRng, RunOutcome, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The three-way containment verdict of one run (the revised oracle: a
/// fail-slow fault may legitimately go undetected, so "no recovery ran" is
/// only a failure when a fail-stop fault fired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A node-dooming (fail-stop) fault fired; recovery contained it.
    Contained,
    /// Nothing was doomed, but detection hardware noticed the fault (NAK
    /// overflow, timeout, false alarm) and recovery ran to completion.
    DetectedRecovered,
    /// No detection fired and the machine survived, possibly degraded —
    /// the legitimate quiet outcome of a gray fault.
    SurvivedDegraded,
}

impl Verdict {
    /// Stable string tag (result sheets, JSON).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Verdict::Contained => "contained",
            Verdict::DetectedRecovered => "detected_recovered",
            Verdict::SurvivedDegraded => "survived_degraded",
        }
    }
}

/// The outcome of one schedule execution.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The schedule that was run (self-contained replay input).
    pub schedule: Schedule,
    /// Invariant violations found on the final state (empty = pass).
    pub violations: Vec<Violation>,
    /// Whether the run reached a terminal state within its budget.
    pub finished: bool,
    /// Final simulated time, ns.
    pub end_time_ns: u64,
    /// Recovery restarts observed.
    pub restarts: u32,
    /// Faults that fired during each recovery phase (P1–P4).
    pub phase_hits: [u64; 4],
    /// Faults injected during the Hive OS recovery pass.
    pub os_recovery_hits: u64,
    /// The containment verdict.
    pub verdict: Verdict,
    /// Nanoseconds from the first fired fault to the recovery trigger, when
    /// both happened (in that order).
    pub detect_latency_ns: Option<u64>,
    /// Rendered machine trace; captured only when violations were found.
    pub trace: String,
    /// FNV-1a hash of the merged trace (always captured; worker-count
    /// independent, so campaigns can assert trace determinism cheaply).
    pub trace_hash: u64,
    /// Trace records evicted from the bounded recorder rings.
    pub trace_dropped: u64,
    /// Flight-recorder tail (last trace events) as a JSON array; captured
    /// only when violations were found.
    pub trace_tail_json: String,
    /// Metrics snapshot as a JSON object; captured only when violations
    /// were found.
    pub metrics_json: String,
    /// User-visible serving statistics (KV mode only).
    pub kv: Option<KvStats>,
}

impl RunRecord {
    /// Whether the run passed the whole invariant stack.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Schedules `fault` and models the dying master's stray write: one store
/// aimed at a MAGIC-protected tail page, submitted to the target's
/// firewall. With the firewall enabled the write is denied (containment);
/// with it disabled — the deliberately seeded bug — the write lands and the
/// oracle-based invariants must catch it.
///
/// In celled runs the write must land in a cell the victim does not belong
/// to; aiming at a fixed foreign boot node keeps the model deterministic.
/// The bare machine aims at node 0.
fn inject(m: &mut FcMachine, at: SimTime, fault: &FaultSpec, cells: Option<&CellLayout>) {
    m.schedule_fault(at, fault.clone());
    if let Some(&victim) = fault.doomed_nodes().first() {
        let target = cells.map_or(NodeId(0), |l| {
            l.boot_node(if l.cell_of(victim) == 0 { 1 } else { 0 })
        });
        let st = m.st_mut();
        let line = LineAddr((target.index() as u64 + 1) * st.layout.lines_per_node() - 1);
        let node = &mut st.nodes[target.index()];
        if node.firewall.may_write(line.page(), victim) {
            let v = node.dir.mem_version(line).next();
            node.dir.recovery_put(line, v);
            st.counters.incr("wild_writes_landed");
        } else {
            st.counters.incr("wild_writes_blocked");
        }
    }
}

/// Arms the schedule's faults into a warm machine: steady faults at their
/// offset from now, the rest held in the plan for their phase entry or the
/// OS-recovery window.
fn arm_schedule(m: &mut FcMachine, s: &Schedule, cells: Option<CellLayout>) -> FaultPlan<'static> {
    let mut plan = FaultPlan::new(move |m, at, fault| inject(m, at, fault, cells.as_ref()));
    let base = m.now();
    for FaultEvent { at, fault } in &s.events {
        match *at {
            InjectAt::Steady { offset_ns } => {
                plan.arm(
                    m,
                    base + SimDuration::from_nanos(1 + offset_ns),
                    fault.clone(),
                );
            }
            InjectAt::PhaseEntry { phase, delay_ns } => {
                plan.on_phase_entry(phase, delay_ns, fault.clone());
            }
            // No OS pass in machine mode: fires as a late steady fault.
            InjectAt::DuringOsRecovery if s.mode == Mode::Machine => {
                plan.arm(m, base + SimDuration::from_micros(600), fault.clone());
            }
            InjectAt::DuringOsRecovery => plan.in_os_window(fault.clone()),
        }
    }
    plan
}

/// Executes one schedule and checks the invariant stack. Each mode boots
/// its harness and warms it (the cache fill; any compile or shard 30%
/// done), then arms the schedule and runs the shared [`drive`] loop. KV
/// runs are also judged by the KV serving invariants.
pub fn run_schedule(s: &Schedule) -> RunRecord {
    let mut params = if s.mode == Mode::Machine {
        MachineParams::tiny()
    } else {
        MachineParams::table_5_1()
    };
    params.n_nodes = s.n_nodes;
    params.magic.firewall_enabled = s.firewall_enabled;
    match s.mode {
        Mode::Machine => {
            let cfg = ExperimentConfig {
                fill_ops: s.fill_ops,
                total_ops: s.total_ops,
                ..ExperimentConfig::new(params, s.seed)
            };
            let mut m = boot_fault_experiment(&cfg);
            protect_magic_tails(&mut m);
            fill_caches(&mut m, s.fill_ops);
            let mut plan = arm_schedule(&mut m, s, None);
            let finished = drive(&mut m, &mut plan);
            finalize(&m, s, finished, &plan, Vec::new())
        }
        Mode::Hive => {
            // Four cells, two small files per compile.
            let hive = HiveConfig {
                n_cells: 4,
                files_per_task: 2,
                blocks_per_file: 16,
                out_blocks: 8,
                compute_ns: 10_000,
                ..HiveConfig::default()
            };
            let mut prep = prepare_parallel_make(params, &hive, RecoveryConfig::default(), s.seed);
            let threshold = hive.ops_per_task() * 3 / 10;
            warm_until(&mut prep, |p| {
                p.client_progress().any(|ops| ops >= threshold)
            });
            let cells = prep.layout().clone();
            let mut plan = arm_schedule(prep.machine_mut(), s, Some(cells));
            let finished = drive(&mut prep, &mut plan);
            hive_os_pass(&mut prep, &mut plan);
            let extra = hive_incomplete_compiles(&prep, finished);
            finalize(prep.machine(), s, finished, &plan, extra)
        }
        Mode::HiveKv => {
            let kv = KvConfig::campaign();
            let mut prep = prepare_kv_serving(params, &kv, RecoveryConfig::default(), s.seed);
            let threshold = kv.requests_per_shard * 3 / 10;
            warm_until(&mut prep, |p| {
                p.shard_progress().any(|done| done >= threshold)
            });
            let cells = prep.layout().clone();
            let mut plan = arm_schedule(prep.machine_mut(), s, Some(cells));
            let finished = drive(&mut prep, &mut plan);
            let outcome = prep.collect(finished, plan.detectable);
            let extra = outcome
                .checks
                .iter()
                .map(|c| Violation {
                    invariant: c.name,
                    details: c.details.clone(),
                })
                .collect();
            let mut record = finalize(prep.machine(), s, finished, &plan, extra);
            record.kv = Some(outcome.stats);
            record
        }
    }
}

/// Judges a driven run: the verdict, the invariant stack plus the mode's
/// `extra` violations, and the trace evidence of a failing run.
fn finalize(
    m: &FcMachine,
    s: &Schedule,
    finished: bool,
    plan: &FaultPlan<'_>,
    extra: Vec<Violation>,
) -> RunRecord {
    let gray = GrayFacts::from_faults(&plan.fired());
    let triggered_at = m.ext().report.phases.triggered_at;
    // The revised three-way oracle. Ordering matters: a doomed node means
    // the run exercised fail-stop containment whatever else fired.
    let verdict = if gray.doomed_any {
        Verdict::Contained
    } else if triggered_at.is_some() {
        Verdict::DetectedRecovered
    } else {
        Verdict::SurvivedDegraded
    };
    let detect_latency_ns = match (plan.first_inject(), triggered_at) {
        (Some(i), Some(t)) if t >= i => Some(t.since(i).as_nanos()),
        _ => None,
    };
    let ctx = RunContext {
        finished,
        detectable_fault_fired: plan.detectable,
        hive: s.mode == Mode::Hive,
        required_progress: if s.mode == Mode::Machine {
            s.total_ops
        } else {
            0
        },
        gray,
    };
    let mut violations = invariants::check_all(m, &ctx);
    violations.extend(extra);
    let obs = &m.st().obs;
    // Flight-recorder mode: the event tail and metrics snapshot are only
    // materialized for failing runs (the post-mortem input).
    let (trace, trace_tail_json, metrics_json) = if violations.is_empty() {
        (String::new(), String::new(), String::new())
    } else {
        (
            obs.render(),
            flash_obs::tail_json(obs, 64),
            obs.metrics.snapshot_json(),
        )
    };
    RunRecord {
        schedule: s.clone(),
        violations,
        finished,
        end_time_ns: m.now().as_nanos(),
        restarts: m.ext().report.restarts,
        phase_hits: plan.phase_hits,
        os_recovery_hits: plan.os_recovery_hits,
        verdict,
        detect_latency_ns,
        trace,
        trace_hash: obs.merged_hash(),
        trace_dropped: obs.dropped_total(),
        trace_tail_json,
        metrics_json,
        kv: None,
    }
}

// ----------------------------------------------------------------------
// Per-mode pieces
// ----------------------------------------------------------------------

/// Firewall policy for the stand-alone machine: each node's MAGIC-protected
/// tail pages are writable only by the node itself (Hive installs the
/// equivalent per-cell policy via `os::configure`).
fn protect_magic_tails(m: &mut FcMachine) {
    let st = m.st_mut();
    let lpn = st.layout.lines_per_node();
    let protected = st.params.protected_lines;
    for (i, node) in st.nodes.iter_mut().enumerate() {
        let first = LineAddr((i as u64 + 1) * lpn - protected).page();
        let last = LineAddr((i as u64 + 1) * lpn - 1).page();
        for p in first.0..=last.0 {
            node.firewall
                .restrict(PageAddr(p), NodeSet::singleton(NodeId(i as u16)));
        }
    }
}

/// Hive mode's OS recovery pass, after the driven run: each fault armed
/// "during OS recovery" fires in turn and is given time to be detected and
/// recovered, then the page service runs and the tasks it unblocked or
/// terminated settle.
fn hive_os_pass(prep: &mut PreparedMake, plan: &mut FaultPlan<'_>) {
    if !prep.machine().ext().report.completed() && !plan.os_window_pending() {
        return;
    }
    let slice = prep.slice();
    let m = prep.machine_mut();
    loop {
        let prior_p4 = m.ext().report.phases.p4_done;
        let Some(fault) = plan.open_os_window(m) else {
            break;
        };
        // Up to ~2 s of simulated time.
        for _ in 0..40_000 {
            m.run_for(slice);
            let done = !m.ext().recovery_active()
                && (m.ext().report.phases.p4_done != prior_p4
                    || m.ext().report.machine_halted
                    || fault.doomed_nodes().is_empty());
            if done {
                break;
            }
        }
    }
    os::os_recover(m);
    for _ in 0..2_000 {
        let out = prep.machine_mut().run_for(slice);
        if prep.compiles_done() || out == RunOutcome::Drained {
            break;
        }
    }
}

/// Hive-level completeness: on a finished run whose recovery completed,
/// every compile with no dependency on a failed cell must have completed.
fn hive_incomplete_compiles(prep: &PreparedMake, finished: bool) -> Vec<Violation> {
    let m = prep.machine();
    if !finished || !m.ext().report.completed() || m.ext().report.machine_halted {
        return Vec::new();
    }
    let cells = prep.layout();
    let failed_cells = cells.failed_cells(&m.st().failed_nodes);
    if failed_cells.contains(&0) {
        return Vec::new();
    }
    // Cell 0 is the file server; every other cell's boot node compiles.
    (1..cells.num_cells())
        .filter(|cell| !failed_cells.contains(cell))
        .filter_map(|cell| match os::task_result(m, cells.boot_node(cell)) {
            Some((TaskState::Completed, _)) => None,
            other => Some(Violation {
                invariant: "hive-unaffected-completion",
                details: format!(
                    "cell {cell} had no failed dependency but its compile ended as {other:?}"
                ),
            }),
        })
        .collect()
}

// ----------------------------------------------------------------------
// Parallel campaign driver
// ----------------------------------------------------------------------

/// Configuration of a randomized campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed; every per-run seed derives deterministically from it.
    pub master_seed: u64,
    /// Number of runs.
    pub runs: u64,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Schedule-generator tunables.
    pub generator: GeneratorConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            master_seed: 1,
            runs: 200,
            workers: 4,
            generator: GeneratorConfig::default(),
        }
    }
}

/// The outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-run records, in run order (independent of worker count).
    pub records: Vec<RunRecord>,
    /// Campaign-wide count of faults fired during each recovery phase.
    pub phase_hits: [u64; 4],
    /// Campaign-wide count of faults injected during OS recovery.
    pub os_recovery_hits: u64,
    /// Host wall-clock seconds the campaign took.
    pub host_secs: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignReport {
    /// Records that violated at least one invariant.
    pub fn failures(&self) -> impl Iterator<Item = &RunRecord> + '_ {
        self.records.iter().filter(|r| !r.passed())
    }

    /// Total violations across the campaign.
    pub fn total_violations(&self) -> usize {
        self.records.iter().map(|r| r.violations.len()).sum()
    }
}

/// The deterministic seed of run `i` of a campaign (independent of worker
/// count and scheduling).
pub fn per_run_seed(master_seed: u64, i: u64) -> u64 {
    DetRng::new(master_seed ^ 0x0CA_2CA1_67E5)
        .fork(i)
        .next_u64()
}

/// Runs a randomized campaign, fanning runs across `workers` threads via a
/// shared work counter. Results are keyed by run index, so the report is
/// identical whatever the worker count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let start = std::time::Instant::now();
    let workers = cfg.workers.max(1);
    let next = AtomicU64::new(0);
    let slots: Mutex<Vec<Option<RunRecord>>> = Mutex::new((0..cfg.runs).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.runs {
                    break;
                }
                let seed = per_run_seed(cfg.master_seed, i);
                let schedule = generate(seed, &cfg.generator);
                let record = run_schedule(&schedule);
                slots.lock().expect("campaign result lock")[i as usize] = Some(record);
            });
        }
    });

    let records: Vec<RunRecord> = slots
        .into_inner()
        .expect("campaign result lock")
        .into_iter()
        .map(|r| r.expect("every run index filled"))
        .collect();
    let mut phase_hits = [0u64; 4];
    let mut os_recovery_hits = 0;
    for r in &records {
        for (total, hit) in phase_hits.iter_mut().zip(r.phase_hits) {
            *total += hit;
        }
        os_recovery_hits += r.os_recovery_hits;
    }
    CampaignReport {
        records,
        phase_hits,
        os_recovery_hits,
        host_secs: start.elapsed().as_secs_f64(),
        workers,
    }
}
