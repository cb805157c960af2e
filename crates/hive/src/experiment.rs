//! The end-to-end recovery experiments of Table 5.4 and Figure 5.7: a
//! parallel make running across Hive cells, a hardware fault injected
//! mid-run, hardware + OS recovery, and per-compile outcome accounting.

use crate::cells::CellLayout;
use crate::os::{self, HiveConfig};
use crate::task::{CompileTask, ServerLoop, TaskState};
use flash_core::{
    build_machine, drive, warm_until, FaultPlan, FcMachine, Harness, RecoveryConfig, RecoveryReport,
};
use flash_machine::{FaultSpec, Idle, MachineParams, ProcState};
use flash_net::NodeId;
use flash_sim::SimDuration;

/// The outcome of one compile in an end-to-end run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOutcome {
    /// The cell that ran the compile.
    pub cell: usize,
    /// Final task state.
    pub state: TaskState,
    /// Files completed.
    pub files_done: u32,
    /// Whether the compile had an essential dependency on a failed cell
    /// (its own cell or the file-server cell lost hardware).
    pub affected: bool,
}

/// The outcome of one end-to-end experiment run.
#[derive(Clone, Debug)]
pub struct EndToEndOutcome {
    /// Per-compile results (one per non-server cell).
    pub compiles: Vec<CompileOutcome>,
    /// Hardware recovery summary (empty `phases` when no fault fired).
    pub recovery: RecoveryReport,
    /// Modeled OS recovery time (scales with live cells, Section 4.6).
    pub os_time: SimDuration,
    /// Incoherent lines reinitialized by the OS page service.
    pub lines_reinitialized: u64,
    /// Whether the run reached a terminal state within its budget.
    pub finished: bool,
    /// FNV-1a hash of the merged structured trace at the end of the run
    /// ([`flash_obs::Recorder::merged_hash`]): the fork-determinism witness
    /// for end-to-end runs forked from a warm [`PreparedMake`].
    pub trace_hash: u64,
}

impl EndToEndOutcome {
    /// Compiles unaffected by the fault.
    pub fn unaffected(&self) -> impl Iterator<Item = &CompileOutcome> + '_ {
        self.compiles.iter().filter(|c| !c.affected)
    }

    /// The Table 5.4 success criterion: every compile not affected by the
    /// fault finished correctly.
    pub fn unaffected_all_completed(&self) -> bool {
        self.unaffected().all(|c| c.state == TaskState::Completed)
    }

    /// Duration user processes stayed suspended: hardware recovery plus OS
    /// recovery (the quantity of Figure 5.7).
    pub fn suspension_time(&self) -> Option<SimDuration> {
        Some(self.recovery.phases.total()? + self.os_time)
    }
}

/// Runs one end-to-end experiment: boot `cfg.n_cells` cells (cell 0 is the
/// file server), start one compile per client cell, optionally inject
/// `fault` mid-run, recover, run OS recovery, and account per-compile
/// outcomes.
pub fn run_parallel_make(
    params: MachineParams,
    hive: &HiveConfig,
    recovery: RecoveryConfig,
    fault: Option<FaultSpec>,
    seed: u64,
) -> EndToEndOutcome {
    let mut prep = prepare_parallel_make(params, hive, recovery, seed);
    if fault.is_some() {
        prep.warm();
    }
    finish_parallel_make(prep, fault)
}

/// A booted (and optionally warmed) parallel-make experiment: the machine
/// with server and compile workloads installed and started, plus the cell
/// layout needed to account outcomes.
///
/// Cloning a `PreparedMake` is the end-to-end checkpoint: warm one with
/// [`PreparedMake::warm`], then [`PreparedMake::fork`] one copy per fault —
/// each fork, driven through [`finish_parallel_make`], produces a trace
/// hash bit-identical to a from-scratch run with the same seed.
#[derive(Clone, Debug)]
pub struct PreparedMake {
    m: FcMachine,
    layout: CellLayout,
    client_nodes: Vec<NodeId>,
    hive: HiveConfig,
}

impl PreparedMake {
    /// Runs the machine until any compile reaches ~30% of its operations —
    /// [`run_parallel_make`]'s injection point. Idempotent once the
    /// threshold is reached.
    pub fn warm(&mut self) {
        self.warm_to_percent(30);
    }

    /// Runs the machine until the make is `pct`% done — mean compile
    /// progress across client cells (summed operations against the summed
    /// budget, so one fast or slow client does not skew the injection
    /// point). The paper injects faults at random times while the benchmark
    /// runs; sweeps stratify that over several progress points,
    /// checkpointing at each rung of the ladder (a deeper rung shares a
    /// longer prelude across its forks). Idempotent once the threshold is
    /// reached, so warming a machine rung by rung leaves it in exactly the
    /// state a single `warm_to_percent` call would have.
    pub fn warm_to_percent(&mut self, pct: u32) {
        let total_budget = self.hive.ops_per_task() * self.client_nodes.len() as u64;
        let inject_threshold = total_budget * u64::from(pct) / 100;
        warm_until(self, |p| {
            p.client_progress().sum::<u64>() >= inject_threshold
        });
    }

    /// Deep-copies the warm experiment — one fork per fault to amortize the
    /// boot + warm-up prelude across a sweep.
    pub fn fork(&self) -> PreparedMake {
        self.clone()
    }

    /// The cell layout.
    pub fn layout(&self) -> &CellLayout {
        &self.layout
    }

    /// Operations completed by each compile, in client-cell order.
    pub fn client_progress(&self) -> impl Iterator<Item = u64> + '_ {
        self.client_nodes
            .iter()
            .map(|c| self.m.st().nodes[c.index()].workload.progress())
    }

    /// Whether every compile has reached a terminal state (its processor
    /// halted or died). The server loop never halts.
    pub fn compiles_done(&self) -> bool {
        self.client_nodes.iter().all(|c| {
            let n = &self.m.st().nodes[c.index()];
            !n.is_alive() || matches!(n.proc, ProcState::Halted | ProcState::Dead)
        })
    }
}

impl Harness for PreparedMake {
    fn machine(&self) -> &FcMachine {
        &self.m
    }

    fn machine_mut(&mut self) -> &mut FcMachine {
        &mut self.m
    }

    fn slice(&self) -> SimDuration {
        SimDuration::from_micros(50)
    }

    /// The compiles, not the machine, end the run: the server loop never
    /// halts. OS-window faults wait for the caller's OS pass after the run.
    fn workloads_done(&self, _plan: &FaultPlan<'_>) -> Option<bool> {
        Some(self.compiles_done())
    }
}

/// Boots the parallel-make experiment: builds the machine, computes
/// placement, installs the server and compile workloads and starts every
/// processor. No warm-up is run — call [`PreparedMake::warm`] before
/// injecting a fault (matching [`run_parallel_make`]'s behavior).
pub fn prepare_parallel_make(
    params: MachineParams,
    hive: &HiveConfig,
    recovery: RecoveryConfig,
    seed: u64,
) -> PreparedMake {
    let layout = CellLayout::contiguous(params.n_nodes, hive.n_cells);
    let server = layout.boot_node(0);

    // Build with idle workloads; real workloads are installed after
    // placement is computed (they need the shared-region addresses).
    let mut m: FcMachine = build_machine(params, recovery, |_| Box::new(Idle), seed);
    let placement = os::configure(&mut m, &layout, hive);

    let lines_per_node = m.st().layout.lines_per_node();
    let client_nodes: Vec<NodeId> = (1..hive.n_cells).map(|c| layout.boot_node(c)).collect();
    // Every node hosts a slice of its cell's kernel; peers poll the first
    // kernel line of every other node (Hive cells read each other's kernel
    // structures, and a cell's own kernel spans all its nodes — Section
    // 3.3). This is also what detects failures of non-boot cell members.
    let kernel_line = |node: NodeId| os::own_region(node, lines_per_node, params.protected_lines).0;
    {
        let st = m.st_mut();
        let n_all = params.n_nodes;
        let peers_of = move |me: NodeId| -> Vec<u64> {
            (0..n_all)
                .map(|i| NodeId(i as u16))
                .filter(|&b| b != me)
                .map(kernel_line)
                .collect()
        };
        // The server's background activity also dirties the shared file
        // data, creating cross-cell recall traffic.
        st.nodes[server.index()].workload =
            Box::new(ServerLoop::new(placement.server_data, 20_000).with_monitor(peers_of(server)));
        for &client in &client_nodes {
            let own = os::own_region(client, lines_per_node, params.protected_lines);
            let task = CompileTask::new(
                server,
                hive.files_per_task,
                hive.blocks_per_file,
                hive.out_blocks,
                hive.compute_ns,
                placement.server_data,
                own,
                hive.cross_writes.then_some(placement.scratch),
            )
            .with_monitor(peers_of(client));
            st.nodes[client.index()].workload = Box::new(task);
        }
    }
    m.set_event_budget(4_000_000_000);
    m.start();

    PreparedMake {
        m,
        layout,
        client_nodes,
        hive: *hive,
    }
}

/// Drives a booted (and, for fault runs, warmed) experiment to its terminal
/// state: optional fault injection, hardware recovery, OS recovery and
/// per-compile outcome accounting.
///
/// The run ends when every compile is terminal (its processor halts or
/// dies) and, after a fault, once the background kernel monitoring traffic
/// has detected it and recovery has completed — up to a detection budget,
/// since an unreferenced dead link can legitimately stay latent.
pub fn finish_parallel_make(mut prep: PreparedMake, fault: Option<FaultSpec>) -> EndToEndOutcome {
    let faulted = fault.is_some();
    let mut plan = FaultPlan::single(&mut prep.m, fault);
    let finished = drive(&mut prep, &mut plan);
    let PreparedMake {
        mut m,
        layout,
        client_nodes,
        hive,
    } = prep;

    // OS recovery (Section 4.6): page reinitialization + modeled cost.
    let failed_cells = os::record_failed_cells(&mut m, &layout);
    let lines_reinitialized = if faulted { os::os_recover(&mut m) } else { 0 };
    let live_cells = hive.n_cells - failed_cells.len();
    let os_time = if faulted {
        hive.os_recovery_time(live_cells)
    } else {
        SimDuration::ZERO
    };

    let server_failed = failed_cells.contains(&0);
    let compiles = client_nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let cell = i + 1;
            let (state, files_done) = os::task_result(&m, node).unwrap_or((TaskState::Running, 0));
            CompileOutcome {
                cell,
                state,
                files_done,
                affected: server_failed || failed_cells.contains(&cell),
            }
        })
        .collect();

    EndToEndOutcome {
        compiles,
        recovery: m.ext().report.clone(),
        os_time,
        lines_reinitialized,
        finished,
        trace_hash: m.st().obs.merged_hash(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hive() -> (MachineParams, HiveConfig) {
        let mut params = MachineParams::table_5_1();
        params.n_nodes = 4;
        let hive = HiveConfig {
            n_cells: 4,
            files_per_task: 2,
            blocks_per_file: 16,
            out_blocks: 8,
            compute_ns: 10_000,
            ..HiveConfig::default()
        };
        (params, hive)
    }

    #[test]
    fn fault_free_make_completes_everything() {
        let (params, hive) = small_hive();
        let out = run_parallel_make(params, &hive, RecoveryConfig::default(), None, 1);
        assert!(out.finished);
        assert_eq!(out.compiles.len(), 3);
        for c in &out.compiles {
            assert_eq!(c.state, TaskState::Completed, "{c:?}");
            assert!(!c.affected);
        }
        assert!(out.unaffected_all_completed());
        assert!(!out.recovery.completed(), "no recovery without a fault");
        assert_eq!(out.os_time, SimDuration::ZERO);
    }

    #[test]
    fn client_cell_failure_spares_other_compiles() {
        let (params, hive) = small_hive();
        // Kill cell 2's node (a client).
        let out = run_parallel_make(
            params,
            &hive,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(2))),
            2,
        );
        assert!(out.finished);
        assert!(out.recovery.completed(), "{:?}", out.recovery);
        let affected: Vec<usize> = out
            .compiles
            .iter()
            .filter(|c| c.affected)
            .map(|c| c.cell)
            .collect();
        assert_eq!(affected, vec![2]);
        assert!(out.unaffected_all_completed(), "{:?}", out.compiles);
        assert!(out.suspension_time().is_some());
    }

    #[test]
    fn server_cell_failure_affects_all_compiles() {
        let (params, hive) = small_hive();
        let out = run_parallel_make(
            params,
            &hive,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(0))),
            3,
        );
        assert!(out.finished);
        assert!(out.compiles.iter().all(|c| c.affected));
        // Vacuously true: there are no unaffected compiles.
        assert!(out.unaffected_all_completed());
    }
}
