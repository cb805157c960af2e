//! The one run driver: warm the workload ([`warm_until`]), arm the faults
//! ([`FaultPlan`]), and drive the machine through recovery and any OS pass
//! ([`drive`]). A [`Harness`] supplies what differs between the Section 5.2
//! machine, the Hive parallel make and the KV service.

use crate::experiment::FcMachine;
use flash_machine::FaultSpec;
use flash_sim::{RunOutcome, SimDuration, SimTime};

/// Simulated time a driven run may take before it is cut off unfinished.
const RUN_BUDGET: SimDuration = SimDuration::from_secs(20);

/// Slices a finished workload waits for a detectable fault's recovery (an
/// unreferenced dead link can legitimately stay latent).
const DETECT_WAIT_SLICES: u32 = 10_000;

/// Slices a warm-up may run before it gives up.
const WARM_SLICES: u64 = 2_000_000;

/// What one experiment harness adds to the shared driver loop.
pub trait Harness {
    /// The machine under test.
    fn machine(&self) -> &FcMachine;

    /// Mutable access to the machine under test.
    fn machine_mut(&mut self) -> &mut FcMachine;

    /// Simulated time per driver slice.
    fn slice(&self) -> SimDuration;

    /// Simulated time per warm-up slice.
    fn warm_slice(&self) -> SimDuration {
        self.slice()
    }

    /// Whether every user workload is terminal; `None` when the run ends by
    /// draining instead, so the driver runs to the horizon in one go once
    /// no phase-entry fault is pending.
    fn workloads_done(&self, plan: &FaultPlan<'_>) -> Option<bool>;

    /// Runs after every slice (the KV service's OS pass, which opens the
    /// OS-recovery fault window).
    fn after_slice(&mut self, _plan: &mut FaultPlan<'_>) {}

    /// Whether a run whose machine drained counts as finished.
    fn finished_on_drain(&self) -> bool {
        true
    }
}

/// The Section 5.2 harness: its fill workload halts, so the machine drains.
impl Harness for FcMachine {
    fn machine(&self) -> &FcMachine {
        self
    }

    fn machine_mut(&mut self) -> &mut FcMachine {
        self
    }

    /// Short, so a phase-entry fault fires close to the entry it waits for.
    fn slice(&self) -> SimDuration {
        SimDuration::from_micros(10)
    }

    /// The cache fill.
    fn warm_slice(&self) -> SimDuration {
        SimDuration::from_micros(20)
    }

    fn workloads_done(&self, _plan: &FaultPlan<'_>) -> Option<bool> {
        None
    }
}

/// Runs `h` in warm-up slices until `ready` holds (checked first), the
/// machine drains, or two million slices have run.
pub fn warm_until<H: Harness>(h: &mut H, ready: impl Fn(&H) -> bool) {
    let slice = h.warm_slice();
    let mut slices = 0;
    while !ready(h) {
        let out = h.machine_mut().run_for(slice);
        slices += 1;
        if out == RunOutcome::Drained || slices > WARM_SLICES {
            break;
        }
    }
}

/// Schedules one fault, plus whatever side effects the caller models (the
/// campaign's wild write).
type ArmFn<'a> = Box<dyn FnMut(&mut FcMachine, SimTime, &FaultSpec) + 'a>;

/// The faults of one run — armed, waiting for a recovery phase, or waiting
/// for the OS-recovery window — and what the verdict needs to know of them.
pub struct FaultPlan<'a> {
    arm: ArmFn<'a>,
    on_phase: Vec<(u8, u64, FaultSpec)>,
    os_window: Vec<FaultSpec>,
    armed: Vec<(SimTime, FaultSpec)>,
    /// Faults armed on entry to each recovery phase (P1–P4).
    pub phase_hits: [u64; 4],
    /// Faults armed in the OS-recovery window.
    pub os_recovery_hits: u64,
    /// Whether a fault that must be detected was armed.
    pub detectable: bool,
}

impl std::fmt::Debug for FaultPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("armed", &self.armed)
            .field("on_phase", &self.on_phase)
            .field("os_window", &self.os_window)
            .finish_non_exhaustive()
    }
}

impl<'a> FaultPlan<'a> {
    /// An empty plan that arms each fault through `arm`.
    pub fn new(arm: impl FnMut(&mut FcMachine, SimTime, &FaultSpec) + 'a) -> Self {
        FaultPlan {
            arm: Box::new(arm),
            on_phase: Vec::new(),
            os_window: Vec::new(),
            armed: Vec::new(),
            phase_hits: [0; 4],
            os_recovery_hits: 0,
            detectable: false,
        }
    }

    /// A sweep run's plan: `fault`, if any, scheduled 1 ns from now and
    /// counted detectable whatever its kind.
    pub fn single(m: &mut FcMachine, fault: Option<FaultSpec>) -> FaultPlan<'static> {
        let mut plan = FaultPlan::new(|m, at, f| m.schedule_fault(at, f.clone()));
        if let Some(fault) = fault {
            plan.arm(m, m.now() + SimDuration::from_nanos(1), fault);
            plan.detectable = true;
        }
        plan
    }

    /// Arms `fault` to fire at `at`. A fault that dooms a node is
    /// detectable: traffic to the dead home times out, assertions
    /// self-trigger, and the heartbeat audit backstops both.
    pub fn arm(&mut self, m: &mut FcMachine, at: SimTime, fault: FaultSpec) {
        (self.arm)(m, at, &fault);
        self.detectable |= !fault.doomed_nodes().is_empty();
        self.armed.push((at, fault));
    }

    /// Arms `fault` `delay_ns` + 1 ns after the slice that sees recovery
    /// phase `phase` (1–4) entered.
    pub fn on_phase_entry(&mut self, phase: u8, delay_ns: u64, fault: FaultSpec) {
        self.on_phase.push((phase, delay_ns, fault));
    }

    /// Holds `fault` for [`FaultPlan::open_os_window`].
    pub fn in_os_window(&mut self, fault: FaultSpec) {
        self.os_window.push(fault);
    }

    /// Whether faults are still waiting for the OS-recovery window.
    pub fn os_window_pending(&self) -> bool {
        !self.os_window.is_empty()
    }

    /// Arms the next OS-window fault 1 ns from now and returns it.
    pub fn open_os_window(&mut self, m: &mut FcMachine) -> Option<FaultSpec> {
        if self.os_window.is_empty() {
            return None;
        }
        let fault = self.os_window.remove(0);
        self.os_recovery_hits += 1;
        self.arm(m, m.now() + SimDuration::from_nanos(1), fault.clone());
        Some(fault)
    }

    /// The faults that fired: every armed one (a never-armed fault did not
    /// happen).
    pub fn fired(&self) -> Vec<FaultSpec> {
        self.armed.iter().map(|(_, f)| f.clone()).collect()
    }

    /// When the first armed fault fires.
    pub fn first_inject(&self) -> Option<SimTime> {
        self.armed.iter().map(|&(at, _)| at).min()
    }

    /// Arms every phase-entry fault whose phase has been entered.
    fn arm_phase_entries(&mut self, m: &mut FcMachine) {
        let entries = m.ext().phase_entries();
        let mut i = 0;
        while i < self.on_phase.len() {
            if entries.entered(self.on_phase[i].0).is_none() {
                i += 1;
                continue;
            }
            let (phase, delay_ns, fault) = self.on_phase.remove(i);
            self.phase_hits[phase as usize - 1] += 1;
            self.arm(m, m.now() + SimDuration::from_nanos(1 + delay_ns), fault);
        }
    }

    /// No phase-entry fault is waiting and every armed one has fired.
    fn settled(&self, now: SimTime) -> bool {
        self.on_phase.is_empty() && self.armed.iter().all(|&(at, _)| now >= at)
    }
}

/// Drives an armed harness to its terminal state — workloads done, recovery
/// idle and every fault fired, or the machine drained — and returns whether
/// it got there within the run budget.
pub fn drive<H: Harness>(h: &mut H, plan: &mut FaultPlan<'_>) -> bool {
    let horizon = h.machine().now() + RUN_BUDGET;
    let ends_by_draining = h.workloads_done(plan).is_none();
    let slice = h.slice();
    let mut detect_wait = 0;
    for _ in 0..RUN_BUDGET.as_nanos() / slice.as_nanos() {
        plan.arm_phase_entries(h.machine_mut());
        if ends_by_draining && plan.on_phase.is_empty() {
            return h.machine_mut().run_until(horizon) == RunOutcome::Drained;
        }
        let out = h.machine_mut().run_for(slice);
        h.after_slice(plan);
        let m = h.machine();
        if h.workloads_done(plan) == Some(true)
            && !m.ext().recovery_active()
            && plan.settled(m.now())
        {
            let fault_pending = plan.detectable && !m.ext().report.completed();
            if fault_pending && detect_wait < DETECT_WAIT_SLICES {
                detect_wait += 1;
                continue;
            }
            return true;
        }
        if out == RunOutcome::Drained {
            return h.finished_on_drain();
        }
    }
    false
}
