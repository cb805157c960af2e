//! A phase-attributed replica of `flash_core::finish_fault_experiment`.
//!
//! The traced runs drive the post-injection part of an experiment in
//! `Machine::run_until` slices and charge each slice's host time to the
//! recovery phase the machine is in when the slice starts. Slicing does
//! not change the simulation: the traced run's trace digest must equal the
//! untraced run's, which calls the library's own `finish`.

use crate::metrics::Values;
use crate::stats::ratio;
use crate::trace::{SpanId, Tracer};
use flash_core::{ExperimentOutcome, FcMachine};
use flash_machine::FaultSpec;
use flash_sim::{RunOutcome, SimDuration};

/// Host-time buckets of a finish: before the trigger, P1–P4, and after
/// recovery completed.
const PHASES: [&str; 6] = ["detect", "p1", "p2", "p3", "p4", "drain"];

/// The per-layer metric of each entry of [`PHASES`].
const PHASE_METRICS: [&str; 6] = [
    "core.host_s.detect",
    "core.host_s.p1",
    "core.host_s.p2",
    "core.host_s.p3",
    "core.host_s.p4",
    "core.host_s.drain",
];

/// Simulated time per slice.
const SLICE: SimDuration = SimDuration::from_micros(50);

/// Fabric, directory and machine counters read at the end of a run
/// (cumulative since boot, so a forked run includes its prelude).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub packets_sent: u64,
    pub packets_dropped: u64,
    pub packets_truncated: u64,
    pub naks_sent: u64,
    pub upgrade_requests: u64,
    pub incoherent_accesses: u64,
    pub bus_errors: u64,
    pub magic_busy_ns: u64,
    pub magic_services: u64,
    pub events: u64,
}

/// What the sliced finish measured besides the outcome.
#[derive(Clone, Debug)]
pub struct Finish {
    pub outcome: ExperimentOutcome,
    /// Host nanoseconds per entry of [`PHASES`].
    pub phase_ns: [u64; 6],
    pub validate_ns: u64,
    /// Events processed by the finish alone.
    pub events: u64,
    pub counts: Counts,
}

fn phase_of(m: &FcMachine) -> usize {
    let x = m.ext();
    if x.recovery_active() {
        let e = x.phase_entries();
        match (e.p2, e.p3, e.p4) {
            (_, _, Some(_)) => 4,
            (_, Some(_), _) => 3,
            (Some(_), _, _) => 2,
            _ => 1,
        }
    } else if x.report.phases.triggered_at.is_some() {
        5
    } else {
        0
    }
}

/// Injects `fault` one nanosecond from now and runs to quiescence in
/// slices, recording one span per stretch of slices spent in one phase.
pub fn finish(
    tr: &Tracer,
    parent: Option<SpanId>,
    run: u64,
    mut m: FcMachine,
    fault: FaultSpec,
) -> Finish {
    let events0 = m.events_processed();
    let inject_at = m.now() + SimDuration::from_nanos(1);
    m.schedule_fault(inject_at, fault);
    let budget = m.now() + SimDuration::from_secs(20);

    let mut phase_ns = [0u64; 6];
    let mut phase = phase_of(&m);
    let mut stretch_start = tr.now_ns();
    let finished = loop {
        let t = tr.now_ns();
        let horizon = (m.now() + SLICE).min(budget);
        let out = m.run_until(horizon);
        phase_ns[phase] += tr.now_ns() - t;
        if out != RunOutcome::HorizonReached || m.now() >= budget {
            break out == RunOutcome::Drained;
        }
        let next = phase_of(&m);
        if next != phase {
            tr.record(parent, layer_of(phase), PHASES[phase], run, stretch_start);
            stretch_start = tr.now_ns();
            phase = next;
        }
    };
    tr.record(parent, layer_of(phase), PHASES[phase], run, stretch_start);

    let st = m.st();
    let (busy_ns, services) = st.occupancy_totals();
    let net = st.fabric.counters();
    let dirs = |name: &str| st.nodes.iter().map(|n| n.dir.counters().get(name)).sum();
    let counts = Counts {
        packets_sent: net.get("packets_sent"),
        packets_dropped: net.get("packets_dropped"),
        packets_truncated: net.get("packets_truncated"),
        naks_sent: dirs("naks_sent"),
        upgrade_requests: st.counters.get("upgrade_requests"),
        incoherent_accesses: dirs("incoherent_accesses"),
        bus_errors: st.counters.get("bus_errors"),
        magic_busy_ns: busy_ns,
        magic_services: services,
        events: m.events_processed(),
    };
    let obs = &mut m.st_mut().obs;
    obs.metrics.add("magic_busy_ns_total", busy_ns);
    obs.metrics.add("magic_services_total", services);

    let t = tr.now_ns();
    let validation = tr.span(parent, "machine", "validate", run, |_| m.st().validate());
    let validate_ns = tr.now_ns() - t;
    let outcome = ExperimentOutcome {
        validation,
        recovery: m.ext().report.clone(),
        bus_errors: counts.bus_errors,
        end_time: m.now(),
        finished,
        trace_dropped: m.st().obs.dropped_total(),
        trace_hash: m.st().obs.merged_hash(),
    };
    Finish {
        outcome,
        phase_ns,
        validate_ns,
        events: counts.events - events0,
        counts,
    }
}

/// Recovery phases run the `core` extension; the stretches before the
/// trigger and after recovery are plain `machine` simulation.
fn layer_of(phase: usize) -> &'static str {
    if (1..=4).contains(&phase) {
        "core"
    } else {
        "machine"
    }
}

/// A fill prelude: `prepare_fault_experiment` of one machine.
#[derive(Clone, Copy, Debug)]
pub struct Prelude {
    pub prepare_ns: u64,
    /// Events the prelude simulated.
    pub events: u64,
}

/// Fills the `sim`, `net`, `coherence`, `magic`, `machine` and `core`
/// metrics shared by the fault-experiment workloads. Each prelude is
/// shared by the runs forked from it, so per-run event counts spread it
/// over them.
pub fn experiment_layers(preludes: &[Prelude], runs: &[&Finish], v: &mut Values) {
    let n = runs.len();
    let sum = |f: &dyn Fn(&Finish) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&Finish) -> u64| ratio(sum(f), n as f64);
    let fill_events: u64 = preludes.iter().map(|p| p.events).sum();
    let fill_ns: u64 = preludes.iter().map(|p| p.prepare_ns).sum();
    let finish_events = sum(&|r| r.events);
    let finish_ns = sum(&|r| r.phase_ns.iter().sum());
    let cumulative_events = sum(&|r| r.counts.events);

    v.set(
        "bench.prelude_share",
        ratio(fill_ns as f64, fill_ns as f64 + finish_ns),
    );
    v.set(
        "sim.events_per_run",
        ratio(fill_events as f64 + finish_events, n as f64),
    );
    v.set(
        "sim.ns_per_event.fill",
        ratio(fill_ns as f64, fill_events as f64),
    );
    v.set("sim.ns_per_event.recovery", ratio(finish_ns, finish_events));
    v.set("net.packets_sent", mean(&|r| r.counts.packets_sent));
    v.set("net.packets_dropped", mean(&|r| r.counts.packets_dropped));
    v.set(
        "net.packets_truncated",
        mean(&|r| r.counts.packets_truncated),
    );
    v.set(
        "net.packets_per_event",
        ratio(sum(&|r| r.counts.packets_sent), cumulative_events),
    );
    v.set("coherence.naks_sent", mean(&|r| r.counts.naks_sent));
    v.set(
        "coherence.upgrade_requests",
        mean(&|r| r.counts.upgrade_requests),
    );
    v.set(
        "coherence.incoherent_accesses",
        mean(&|r| r.counts.incoherent_accesses),
    );
    v.set("coherence.bus_errors", mean(&|r| r.counts.bus_errors));
    v.set("magic.services_per_run", mean(&|r| r.counts.magic_services));
    v.set(
        "magic.busy_ns_per_service",
        ratio(
            sum(&|r| r.counts.magic_busy_ns),
            sum(&|r| r.counts.magic_services),
        ),
    );
    v.set("machine.validate_ms", mean(&|r| r.validate_ns) / 1e6);
    v.set(
        "core.prepare_s",
        ratio(fill_ns as f64 / 1e9, preludes.len() as f64),
    );
    for (i, name) in PHASE_METRICS.into_iter().enumerate() {
        v.set(name, mean(&|r| r.phase_ns[i]) / 1e9);
    }
    v.set(
        "core.host_share.p2",
        ratio(sum(&|r| r.phase_ns[2]), finish_ns),
    );

    let ms = |d: Option<SimDuration>| d.map_or(0.0, |d| d.as_millis_f64());
    let phase_ms = |r: &Finish| {
        let p = &r.outcome.recovery.phases;
        let (a, b, c, d) = (ms(p.p1()), ms(p.p1_2()), ms(p.p1_3()), ms(p.total()));
        [a, b - a, c - b, d - c]
    };
    for (i, name) in [
        "core.sim_ms.p1",
        "core.sim_ms.p2",
        "core.sim_ms.p3",
        "core.sim_ms.p4",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(
            name,
            ratio(runs.iter().map(|r| phase_ms(r)[i]).sum(), n as f64),
        );
    }
    v.set(
        "core.restarts",
        mean(&|r| u64::from(r.outcome.recovery.restarts)),
    );
    v.set(
        "core.lines_marked_incoherent",
        mean(&|r| r.outcome.recovery.lines_marked_incoherent),
    );
    v.set(
        "core.flush_writebacks",
        mean(&|r| r.outcome.recovery.flush_writebacks),
    );
    v.set("obs.trace_dropped", mean(&|r| r.outcome.trace_dropped));
}

/// Simulated P1–P4 milliseconds of a run (0 when recovery never
/// completed, which fails the run's oracle anyway).
pub fn recovery_ms(out: &ExperimentOutcome) -> f64 {
    out.recovery
        .phases
        .total()
        .map_or(0.0, |d| d.as_millis_f64())
}
