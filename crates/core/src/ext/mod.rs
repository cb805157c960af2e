//! The distributed hardware recovery algorithm (paper, Section 4),
//! implemented as a [`flash_machine::Extension`].
//!
//! Each live node runs an instance of a per-node state machine; nodes
//! communicate only through source-routed messages on the dedicated
//! recovery lanes and local probes of adjacent routers. The phases:
//!
//! 1. **Recovery initiation** — the processor is dropped into the recovery
//!    code, pending operations are NAK'd (uncached reads saved), the node
//!    probes its vicinity and determines its set of closest working
//!    neighbors (`cwn`), pinging them into recovery; the ping wave spreads
//!    the trigger to every good node.
//! 2. **Information dissemination** — synchronized rounds of `LState`/
//!    `NState` exchange with the cwn; termination after `2h` rounds, with
//!    `h` the BFT height at the agreed root, propagated as a hint.
//! 3. **Interconnect recovery** — isolate failed regions, drain stalled
//!    traffic with a two-phase agreement (bound τ), recompute deadlock-free
//!    routing tables (up*/down*) and reprogram the routers, then barrier.
//! 4. **Coherence-protocol recovery** — flush caches (dirty lines home),
//!    barrier, scan directories marking lost lines incoherent, reset
//!    state, barrier, resume (raising the OS-recovery interrupt).
//!
//! Additional faults detected mid-recovery (truncated packets, firmware
//! assertions, phase watchdogs) restart the algorithm under a higher
//! *incarnation* number that spreads with the ping wave; stale-incarnation
//! messages are discarded.
//!
//! The implementation is split across this module tree:
//!
//! * [`mod@self`] — shared types ([`RecEv`], [`Step`], the per-node record)
//!   and the [`RecoveryExt`] state plus its cross-phase plumbing.
//! * `init` — phase 1 (recovery initiation) and phase 2 (dissemination).
//! * `phases` — phase 3 (interconnect) and phase 4 (coherence) recovery.
//! * `barrier` — the BFT barrier tree shared by phases 3 and 4.
//! * `report` — phase-completion bookkeeping for [`RecoveryReport`].
//! * `driver` — the [`flash_machine::Extension`] impl wiring triggers,
//!   timed events, and recovery messages into the state machine.

mod barrier;
mod driver;
mod init;
mod phases;
mod report;

use crate::config::{PhaseEntries, RecoveryConfig, RecoveryReport};
use crate::msg::{BarrierId, RecMsg};
use crate::view::{Tree, View};
use flash_coherence::NodeSet;
use flash_machine::{Ev, MachineState};
use flash_net::{Lane, NodeId, RouterId};
use flash_sim::{Scheduler, SimTime};
use phases::RouteMemo;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Timed events private to the recovery algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecEv {
    /// A ping's reply deadline expired.
    PingDeadline {
        /// The waiting node.
        node: u16,
        /// The pinged node.
        target: u16,
        /// Incarnation the ping belongs to.
        inc: u32,
    },
    /// A charged computation step finished.
    StepDone {
        /// The computing node.
        node: u16,
        /// Incarnation.
        inc: u32,
        /// Which step.
        step: Step,
    },
    /// Drain-quiet polling.
    DrainPoll {
        /// Polling node.
        node: u16,
        /// Incarnation.
        inc: u32,
        /// Drain attempt number (re-votes after a failed agreement).
        attempt: u32,
    },
    /// Poll until the node's outbound writebacks have entered the fabric,
    /// then join the flush barrier.
    FlushJoinPoll {
        /// Polling node.
        node: u16,
        /// Incarnation.
        inc: u32,
    },
    /// The barrier root polls the interconnect for complete writeback
    /// delivery before releasing the flush barrier.
    RootFlushPoll {
        /// The root node.
        node: u16,
        /// Incarnation.
        inc: u32,
    },
    /// Phase-progress watchdog.
    Watchdog {
        /// Watched node.
        node: u16,
        /// Incarnation.
        inc: u32,
        /// Progress stamp at scheduling time.
        stamp: u64,
    },
}

/// A charged computation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Processor dropped into the recovery code.
    DropIn,
    /// One dissemination round's merges (and possibly the BFT computation).
    Round {
        /// The round being finalized.
        round: u32,
    },
    /// Local router isolation reprogramming.
    Isolate,
    /// Routing-table recomputation.
    RouteCompute,
    /// The uncached cache-flush walk.
    FlushWalk,
    /// The directory scan.
    Scan,
}

/// Per-node recovery phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    DropIn,
    Explore,
    Dissem,
    Isolate,
    Drain1Wait,
    InBarrier(BarrierId),
    RouteCompute,
    FlushWalk,
    FlushJoin,
    Scan,
    Shut,
}

#[derive(Clone, Debug, Default)]
struct BarState {
    ups: HashSet<u16>,
    self_joined: bool,
    ok: bool,
    released: bool,
}

#[derive(Clone, Debug)]
struct PingState {
    route: Vec<RouterId>,
    retries: u32,
}

#[derive(Clone, Debug)]
struct NodeRec {
    inc: u32,
    phase: Phase,
    view: View,
    // --- exploration ---
    visited: HashSet<u16>,
    pending_pings: HashMap<u16, PingState>,
    routes: HashMap<u16, Vec<RouterId>>,
    cwn: Vec<u16>,
    // --- dissemination ---
    round: u32,
    inbox: HashMap<(u16, u32), (View, Option<u32>)>,
    bound: Option<u32>,
    computing_round: bool,
    // --- barriers / P3 / P4 ---
    /// Immutable once built; shared, so barrier handlers borrow it
    /// past `&mut self` with a reference-count bump.
    tree: Option<Arc<Tree>>,
    bars: HashMap<BarrierId, BarState>,
    stashed_ups: Vec<(u16, BarrierId, bool)>,
    vote1_at: Option<SimTime>,
    drain_attempt: u32,
    progress: u64,
}

impl NodeRec {
    fn new() -> Self {
        NodeRec {
            inc: 0,
            phase: Phase::Idle,
            view: View::new(),
            visited: HashSet::new(),
            pending_pings: HashMap::new(),
            routes: HashMap::new(),
            cwn: Vec::new(),
            round: 0,
            inbox: HashMap::new(),
            bound: None,
            computing_round: false,
            tree: None,
            bars: HashMap::new(),
            stashed_ups: Vec::new(),
            vote1_at: None,
            drain_attempt: 0,
            progress: 0,
        }
    }

    fn reset_for(&mut self, inc: u32) {
        let progress = self.progress + 1;
        *self = NodeRec::new();
        self.inc = inc;
        self.progress = progress;
    }
}

type Sched<'a, 'b> = &'a mut Scheduler<'b, Ev<RecEv>>;
type St = MachineState<RecMsg>;

/// The recovery algorithm extension: plugs into
/// [`flash_machine::Machine`] and reacts to the hardware triggers of
/// Table 4.1.
///
/// `Clone` makes the whole `Machine<RecoveryExt>` checkpointable: a
/// snapshot taken mid-recovery (between phases) carries the per-node
/// recovery records, phase-entry log and barrier/ping state with it.
#[derive(Clone, Debug)]
pub struct RecoveryExt {
    /// Algorithm parameters.
    pub cfg: RecoveryConfig,
    nodes: Vec<NodeRec>,
    /// The last up*/down* tables phase 3 computed, with their inputs.
    route_memo: Option<RouteMemo>,
    /// Hive failure units: when set, a node whose unit lost any member
    /// shuts itself down after recovery (Section 3.3).
    units: Option<Vec<NodeSet>>,
    /// Execution summary.
    pub report: RecoveryReport,
    entries: PhaseEntries,
    max_inc: u32,
    active: bool,
    started: HashSet<u16>,
    done_p1: HashSet<u16>,
    done_p2: HashSet<u16>,
    done_p3: HashSet<u16>,
    done_p4: HashSet<u16>,
}

impl RecoveryExt {
    /// Creates the extension for a machine with `n_nodes` nodes.
    pub fn new(n_nodes: usize, cfg: RecoveryConfig) -> Self {
        RecoveryExt {
            cfg,
            nodes: (0..n_nodes).map(|_| NodeRec::new()).collect(),
            route_memo: None,
            units: None,
            report: RecoveryReport::default(),
            entries: PhaseEntries::default(),
            max_inc: 0,
            active: false,
            started: HashSet::new(),
            done_p1: HashSet::new(),
            done_p2: HashSet::new(),
            done_p3: HashSet::new(),
            done_p4: HashSet::new(),
        }
    }

    /// Configures Hive failure units (each node must appear in exactly one
    /// set).
    pub fn set_failure_units(&mut self, units: Vec<NodeSet>) {
        self.units = Some(units);
    }

    /// Whether any node is currently executing the recovery algorithm.
    pub fn recovery_active(&self) -> bool {
        self.active
    }

    /// The current incarnation number (0 before the first recovery).
    pub fn incarnation(&self) -> u32 {
        self.max_inc
    }

    /// Machine-wide first-entry times of the recovery phases for the
    /// current incarnation (reset when a restart begins a new one).
    /// External drivers — fault campaigns in particular — poll this
    /// between run slices to arm faults *inside* a chosen phase.
    pub fn phase_entries(&self) -> PhaseEntries {
        self.entries
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    fn send(
        &mut self,
        st: &mut St,
        from: u16,
        to: u16,
        msg: RecMsg,
        lane: Lane,
        sched: Sched<'_, '_>,
    ) {
        let rec = &self.nodes[from as usize];
        let route = match rec.routes.get(&to) {
            Some(r) => Some(r.clone()),
            None => rec
                .view
                .route_between(st.fabric.design_graph(), NodeId(from), NodeId(to)),
        };
        let Some(route) = route else {
            st.counters.incr("recovery_msg_unroutable");
            return;
        };
        st.send_recovery(NodeId(from), NodeId(to), route, lane, msg, sched);
    }

    /// Records a P`from`→P`to` transition for `node` in the Recovery trace
    /// domain; `to == 0` records only the exit (recovery complete).
    fn record_phase_edge(&self, st: &mut St, node: u16, from: u8, to: u8, now: SimTime) {
        let incarnation = self.nodes[node as usize].inc;
        st.obs.record(
            flash_obs::Domain::Recovery,
            now,
            flash_obs::TraceEvent::PhaseExit {
                node,
                phase: from,
                incarnation,
            },
        );
        if to != 0 {
            st.obs.record(
                flash_obs::Domain::Recovery,
                now,
                flash_obs::TraceEvent::PhaseEnter {
                    node,
                    phase: to,
                    incarnation,
                },
            );
        }
    }

    fn bump_progress(&mut self, st: &St, node: u16, sched: Sched<'_, '_>) {
        let rec = &mut self.nodes[node as usize];
        rec.progress += 1;
        let stamp = rec.progress;
        let inc = rec.inc;
        let _ = st;
        sched.after(
            self.cfg.watchdog,
            Ev::Ext(RecEv::Watchdog { node, inc, stamp }),
        );
    }
}
