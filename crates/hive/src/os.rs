//! The Hive operating-system model: cell configuration, resource placement
//! policies and OS-level recovery (paper, Sections 3.3 and 4.6).
//!
//! Hive itself is a full IRIX-derived kernel; what the hardware
//! fault-containment experiments need from it are its *policies*, which this
//! module applies to a machine:
//!
//! * each cell keeps kernel data in its own failure unit and restricts the
//!   firewall so only cell members can write its pages;
//! * uncached I/O from outside the failure unit is refused ([`flash_magic::IoGuard`]),
//!   except for the file server's exported RPC mailbox;
//! * the recovery algorithm is told the failure-unit boundaries, so a cell
//!   that loses any member is cleanly shut down as a whole;
//! * after hardware recovery, the OS adjusts its structures (modeled as a
//!   per-cell time cost), reinitializes pages containing incoherent lines
//!   through the MAGIC service, and terminates tasks with essential
//!   dependencies on failed cells.

use crate::cells::CellLayout;
use crate::task::{CompileTask, TaskState};
use flash_coherence::{NodeSet, LINES_PER_PAGE};
use flash_core::FcMachine;
use flash_net::NodeId;
use flash_sim::SimDuration;

/// Parameters of the Hive model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HiveConfig {
    /// Number of cells (must divide the node count).
    pub n_cells: usize,
    /// Files each compile task processes.
    pub files_per_task: u32,
    /// File blocks read from the server per file.
    pub blocks_per_file: u32,
    /// Output blocks written locally per file.
    pub out_blocks: u32,
    /// Compute burst per file, ns.
    pub compute_ns: u64,
    /// Whether tasks also write a firewall-opened scratch line on the
    /// server (cross-cell write traffic for the firewall experiments).
    pub cross_writes: bool,
    /// OS recovery fixed cost, uncached instructions.
    pub os_base_instr: u64,
    /// OS recovery cost per live cell, uncached instructions (the paper
    /// notes OS recovery scales with the number of cells).
    pub os_per_cell_instr: u64,
    /// Nanoseconds per uncached instruction.
    pub uncached_instr_ns: u64,
}

impl Default for HiveConfig {
    fn default() -> Self {
        HiveConfig {
            n_cells: 8,
            files_per_task: 4,
            blocks_per_file: 64,
            out_blocks: 32,
            compute_ns: 50_000,
            cross_writes: false,
            os_base_instr: 50_000,
            os_per_cell_instr: 20_000,
            uncached_instr_ns: 400,
        }
    }
}

impl HiveConfig {
    /// Expected workload operations per compile task.
    pub fn ops_per_task(&self) -> u64 {
        let per_file = 2 // open + close RPCs
            + self.blocks_per_file as u64
            + 1 // compute
            + self.out_blocks as u64
            + u64::from(self.cross_writes);
        self.files_per_task as u64 * per_file
    }

    /// The modeled OS-recovery duration for `live_cells` surviving cells.
    pub fn os_recovery_time(&self, live_cells: usize) -> SimDuration {
        SimDuration::from_nanos(
            (self.os_base_instr + self.os_per_cell_instr * live_cells as u64)
                * self.uncached_instr_ns,
        )
    }
}

/// Ranges of the per-node address space used by the workload model.
#[derive(Clone, Copy, Debug)]
pub struct HivePlacement {
    /// Server-homed lines holding shared file data.
    pub server_data: (u64, u64),
    /// The firewall-opened scratch line on the server.
    pub scratch: u64,
}

/// Applies Hive's placement and protection policies to a machine:
/// failure units, firewalls, I/O guards. Returns the shared-region
/// placement used by the tasks.
pub fn configure(m: &mut FcMachine, layout: &CellLayout, _cfg: &HiveConfig) -> HivePlacement {
    let n_nodes = m.st().num_nodes();
    assert_eq!(
        layout.num_nodes(),
        n_nodes,
        "cell layout must match machine"
    );
    // Failure units drive clean cell shutdown in the recovery algorithm.
    m.ext_mut().set_failure_units(layout.units());
    {
        let now = m.now();
        let st = m.st_mut();
        for cell in 0..layout.num_cells() {
            st.obs.record(
                flash_obs::Domain::Hive,
                now,
                flash_obs::TraceEvent::HiveCell {
                    cell: cell as u16,
                    what: "cell_configured",
                    value: layout.boot_node(cell).0 as u64,
                },
            );
        }
    }

    let lines_per_node = m.st().layout.lines_per_node();
    let pages_per_node = lines_per_node / LINES_PER_PAGE;
    let server = layout.boot_node(0);

    for i in 0..n_nodes {
        let node = NodeId(i as u16);
        let cell = layout.cell_of(node);
        let members = *layout.members(cell);
        // Firewall: all pages of this node writable only by cell members.
        let base_page = i as u64 * pages_per_node;
        {
            let st = m.st_mut();
            for p in 0..pages_per_node {
                st.nodes[i]
                    .firewall
                    .restrict(flash_coherence::PageAddr(base_page + p), members);
            }
            // I/O guard: only cell members may touch local devices; the file
            // server's RPC mailbox is deliberately exported to every cell
            // (its exactly-once semantics are provided end-to-end by the
            // Hive RPC subsystem, Section 3.3).
            if node == server {
                st.nodes[i]
                    .io_guard
                    .set_allowed(NodeSet::all_below(n_nodes));
            } else {
                st.nodes[i].io_guard.set_allowed(members);
            }
        }
    }

    // Shared file-data region: the first quarter of the server's memory
    // (below the vector-range replica concerns: start after the first page).
    let server_base = server.index() as u64 * lines_per_node;
    let data_lo = server_base + LINES_PER_PAGE;
    let data_hi = server_base + (lines_per_node / 4).max(LINES_PER_PAGE * 2);
    // Scratch line on its own page, opened to all cells.
    let scratch_line = data_hi;
    {
        let st = m.st_mut();
        st.nodes[server.index()].firewall.restrict(
            flash_coherence::LineAddr(scratch_line).page(),
            NodeSet::all_below(n_nodes),
        );
    }
    HivePlacement {
        server_data: (data_lo, data_hi),
        scratch: scratch_line,
    }
}

/// The private output region of a cell's boot node (its own memory, away
/// from the vector replica and the MAGIC-protected tail).
pub fn own_region(node: NodeId, lines_per_node: u64, protected_lines: u64) -> (u64, u64) {
    let base = node.index() as u64 * lines_per_node;
    let lo = base + LINES_PER_PAGE;
    let hi = base + lines_per_node - protected_lines;
    (lo, hi)
}

/// The OS-level recovery pass of Section 4.6, run after the hardware
/// recovery interrupt: reinitializes pages with incoherent lines through
/// the MAGIC service and acknowledges the interrupt. Returns the number of
/// lines reinitialized.
pub fn os_recover(m: &mut FcMachine) -> u64 {
    let mut cleared = 0;
    let now = m.now();
    let n = m.st().num_nodes();
    for i in 0..n {
        if !m.st().nodes[i].is_alive() {
            continue;
        }
        // The directory maintains a sorted incoherent-line index, so this
        // costs O(marked) per node rather than a full O(lines) scan — at
        // sweep scale the scan dominated the whole OS-recovery pass.
        let incoherent: Vec<flash_coherence::LineAddr> =
            m.st().nodes[i].dir.incoherent_lines().to_vec();
        let st = m.st_mut();
        for line in incoherent {
            // The page is reinitialized with fresh data; the oracle tracks
            // the reinitialization as a store so later validation stays
            // consistent.
            let fresh = st.oracle.expected_version(line).next();
            st.oracle.record_store(line, fresh);
            let ok = st.nodes[i].dir.clear_incoherent(line, fresh);
            debug_assert!(ok);
            cleared += 1;
        }
        st.nodes[i].os_interrupt_pending = false;
    }
    m.st_mut().obs.record(
        flash_obs::Domain::Hive,
        now,
        flash_obs::TraceEvent::OsEvent {
            what: "os_recover_lines",
            value: cleared,
        },
    );
    cleared
}

/// Records a `cell_failed` trace event for every cell that lost hardware,
/// valued at the cell's size, and returns those cells.
pub fn record_failed_cells(m: &mut FcMachine, layout: &CellLayout) -> Vec<usize> {
    let failed = layout.failed_cells(&m.st().failed_nodes);
    let now = m.now();
    for &cell in &failed {
        m.st_mut().obs.record(
            flash_obs::Domain::Hive,
            now,
            flash_obs::TraceEvent::HiveCell {
                cell: cell as u16,
                what: "cell_failed",
                value: layout.members(cell).len() as u64,
            },
        );
    }
    failed
}

/// Reads a compile task's final state from a machine node's workload.
/// Returns `None` for nodes not running a [`CompileTask`].
pub fn task_result(m: &FcMachine, node: NodeId) -> Option<(TaskState, u32)> {
    let any = m.st().nodes[node.index()].workload.as_any()?;
    let task = any.downcast_ref::<CompileTask>()?;
    Some((task.state(), task.files_done()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_per_task_counts_stages() {
        let cfg = HiveConfig {
            files_per_task: 2,
            blocks_per_file: 3,
            out_blocks: 2,
            cross_writes: false,
            ..HiveConfig::default()
        };
        // Per file: open + 3 reads + compute + 2 writes + close = 8.
        assert_eq!(cfg.ops_per_task(), 16);
        let with_cross = HiveConfig {
            cross_writes: true,
            ..cfg
        };
        assert_eq!(with_cross.ops_per_task(), 18);
    }

    #[test]
    fn os_recovery_time_scales_with_cells() {
        let cfg = HiveConfig::default();
        let t2 = cfg.os_recovery_time(2);
        let t16 = cfg.os_recovery_time(16);
        assert!(t16 > t2);
        let delta = t16.as_nanos() - t2.as_nanos();
        assert_eq!(delta, 14 * cfg.os_per_cell_instr * cfg.uncached_instr_ns);
    }

    #[test]
    fn own_region_avoids_vectors_and_magic_tail() {
        let (lo, hi) = own_region(NodeId(2), 8192, 64);
        assert_eq!(lo, 2 * 8192 + 32);
        assert_eq!(hi, 3 * 8192 - 64);
    }
}
