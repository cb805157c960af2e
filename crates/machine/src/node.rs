//! Per-node state: processor, cache, directory slice, node controller
//! features, I/O device and outbound packet queues.

use crate::params::MachineParams;
use crate::payload::Payload;
use crate::workload::{ProcOp, Workload};
use flash_coherence::{Directory, L2Cache, LineAddr, LineMap, MemLayout};
use flash_magic::{
    Firewall, IoGuard, MagicMode, NakCounter, NodeMap, Occupancy, RangeCheck, UncachedUnit,
    VectorRemap,
};
use flash_net::{Lane, NodeId, SourceRoute};
use flash_sim::DetRng;
use std::collections::VecDeque;

/// A simple nonidempotent I/O device: each read returns and then increments
/// an internal register, so lost-and-retried operations are detectable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoDevice {
    reg: u64,
    /// Total reads serviced.
    pub reads: u64,
    /// Total writes serviced.
    pub writes: u64,
}

impl IoDevice {
    /// Services an uncached read (nonidempotent: bumps the register).
    pub fn read(&mut self) -> u64 {
        let v = self.reg;
        self.reg += 1;
        self.reads += 1;
        v
    }

    /// Services an uncached write.
    pub fn write(&mut self, value: u64) {
        self.reg = value;
        self.writes += 1;
    }

    /// The current register value (test/oracle access).
    pub fn register(&self) -> u64 {
        self.reg
    }
}

/// The blocking processor's execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Between operations; a `ProcNext` event is (or will be) scheduled.
    Ready,
    /// Blocked on a cacheable miss.
    WaitMiss {
        /// The missing line.
        line: LineAddr,
        /// Whether the access is a store.
        write: bool,
        /// Epoch tag matching timeout/retry events to this very issue.
        epoch: u64,
    },
    /// Blocked on an uncached operation.
    WaitUncached {
        /// Request tag.
        tag: u64,
        /// Device node.
        dev: NodeId,
        /// Whether it is a write.
        write: bool,
        /// Epoch tag for timeout matching.
        epoch: u64,
    },
    /// The workload returned [`ProcOp::Halt`].
    Halted,
    /// Dropped into the recovery algorithm; normal execution suspended.
    InRecovery,
    /// The node is dead.
    Dead,
}

/// An outbound packet waiting in a node's per-lane output queue.
#[derive(Clone, Debug)]
pub struct OutPkt<R> {
    /// Destination node.
    pub dst: NodeId,
    /// Payload.
    pub payload: Payload<R>,
    /// Size in flits.
    pub flits: u32,
    /// Virtual lane.
    pub lane: Lane,
    /// Source route (recovery traffic, hops stored inline), or `None`
    /// for table routing.
    pub route: Option<SourceRoute>,
}

/// Everything living on one node of the machine.
///
/// Cloning a node (for checkpoint/fork) deep-copies the cache, directory,
/// controller units, workload cursor, RNG and outbound queues, so a forked
/// machine resumes from exactly this node's state.
#[derive(Clone, Debug)]
pub struct NodeCtx<R> {
    /// This node's id.
    pub id: NodeId,
    /// The processor's L2 cache.
    pub cache: L2Cache,
    /// The directory (and memory image) for lines homed here.
    pub dir: Directory,
    /// Node-availability table.
    pub node_map: NodeMap,
    /// Per-page write ACLs for memory homed here.
    pub firewall: Firewall,
    /// Protection of the node-controller memory region.
    pub range_check: RangeCheck,
    /// Exception-vector remap unit.
    pub remap: VectorRemap,
    /// Guard on uncached I/O from outside the failure unit.
    pub io_guard: IoGuard,
    /// The node's I/O device.
    pub io_dev: IoDevice,
    /// Hardware NAK counter for the outstanding operation.
    pub naks: NakCounter,
    /// Exactly-once uncached-operation unit.
    pub uncached: UncachedUnit,
    /// Protocol-processor occupancy.
    pub occupancy: Occupancy,
    /// Degraded home-memory range, when a `DegradedMemory` gray fault is
    /// armed on this node.
    pub degraded: Option<DegradedRange>,
    /// Controller operating mode.
    pub mode: MagicMode,
    /// Processor state.
    pub proc: ProcState,
    /// The operation currently being executed (retained for post-recovery
    /// reissue).
    pub current_op: Option<ProcOp>,
    /// Whether the outstanding miss is an incorrectly speculated write
    /// (its grant installs without a store commit; its faults are
    /// discarded by the processor).
    pub current_is_speculative: bool,
    /// Monotone counter tagging blocking issues (timeout/retry matching).
    pub op_epoch: u64,
    /// The workload driving this processor.
    pub workload: Box<dyn Workload>,
    /// Per-node deterministic RNG.
    pub rng: DetRng,
    /// Outbound queues, one per virtual lane.
    pub outbox: [VecDeque<OutPkt<R>>; Lane::COUNT],
    /// Whether a pump event is pending per lane.
    pub pump_scheduled: [bool; Lane::COUNT],
    /// Bus errors raised to this processor.
    pub bus_errors: u64,
    /// Saved uncached-read tag pending emulation at recovery resume.
    pub saved_unc_read: Option<u64>,
    /// Set when hardware recovery completed and the OS has not yet run its
    /// own recovery (the interrupt of paper Section 4.6).
    pub os_interrupt_pending: bool,
    /// Remote interventions (invalidations/recalls) that arrived while the
    /// grant for the same line was still in flight; honored when the data
    /// installs — the MSHR-style race buffer.
    pub pending_remote: LineMap<LineAddr, PendingRemote>,
    /// When the outstanding blocking operation was issued (latency stats).
    pub op_issued_at: flash_sim::SimTime,
    /// Miss-latency statistics: read misses, write misses, uncached ops.
    pub lat_read: flash_sim::LatencyHistogram,
    /// Write (exclusive-fetch) miss latencies.
    pub lat_write: flash_sim::LatencyHistogram,
    /// Uncached (I/O) round-trip latencies.
    pub lat_uncached: flash_sim::LatencyHistogram,
}

/// Gray-failure state of a `DegradedMemory` fault: the first `lines` lines
/// of the node's homed region are served from degraded DRAM — every access
/// costs `extra_ns` more MAGIC occupancy and every fourth request is
/// answered with a transient NAK (reads and ownership requests only, so no
/// writeback data is ever refused).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradedRange {
    /// Number of degraded lines at the start of the home region.
    pub lines: u64,
    /// Extra service latency charged per degraded access, ns.
    pub extra_ns: u64,
    /// Deterministic access counter driving the periodic NAKs.
    pub accesses: u64,
}

/// A buffered remote intervention (see [`NodeCtx::pending_remote`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingRemote {
    /// The home asked us to invalidate (ack already sent).
    Inval,
    /// The home asked us to write the line back.
    Fetch {
        /// Whether the waiting requester wants exclusivity.
        for_write: bool,
    },
}

impl<R> NodeCtx<R> {
    /// Builds a fresh node.
    pub fn new(
        id: NodeId,
        params: &MachineParams,
        layout: MemLayout,
        workload: Box<dyn Workload>,
        rng: DetRng,
    ) -> Self {
        NodeCtx {
            id,
            cache: L2Cache::new(params.l2_lines()),
            dir: Directory::new(id, layout),
            node_map: NodeMap::new(params.n_nodes),
            firewall: Firewall::new(id, layout, params.magic.firewall_enabled),
            range_check: RangeCheck::new(params.protected_lines, layout),
            remap: VectorRemap::new(id, layout),
            io_guard: IoGuard::permissive(params.n_nodes),
            io_dev: IoDevice::default(),
            naks: NakCounter::default(),
            uncached: UncachedUnit::new(),
            occupancy: Occupancy::new(),
            degraded: None,
            mode: MagicMode::Normal,
            proc: ProcState::Ready,
            current_op: None,
            current_is_speculative: false,
            op_epoch: 0,
            workload,
            rng,
            outbox: std::array::from_fn(|_| VecDeque::new()),
            pump_scheduled: [false; Lane::COUNT],
            bus_errors: 0,
            saved_unc_read: None,
            os_interrupt_pending: false,
            pending_remote: LineMap::default(),
            op_issued_at: flash_sim::SimTime::ZERO,
            lat_read: flash_sim::LatencyHistogram::new(),
            lat_write: flash_sim::LatencyHistogram::new(),
            lat_uncached: flash_sim::LatencyHistogram::new(),
        }
    }

    /// Whether the node is operational (not dead and not spinning).
    pub fn is_alive(&self) -> bool {
        !matches!(self.mode, MagicMode::Dead | MagicMode::InfiniteLoop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Idle;

    #[test]
    fn io_device_is_nonidempotent() {
        let mut d = IoDevice::default();
        assert_eq!(d.read(), 0);
        assert_eq!(d.read(), 1);
        assert_eq!(d.reads, 2);
        d.write(100);
        assert_eq!(d.register(), 100);
        assert_eq!(d.read(), 100);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn node_starts_operational() {
        let params = MachineParams::tiny();
        let layout = params.layout();
        let n: NodeCtx<()> =
            NodeCtx::new(NodeId(1), &params, layout, Box::new(Idle), DetRng::new(1));
        assert!(n.is_alive());
        assert_eq!(n.proc, ProcState::Ready);
        assert_eq!(n.mode, MagicMode::Normal);
        assert_eq!(n.cache.capacity(), params.l2_lines());
        assert_eq!(n.dir.home(), NodeId(1));
    }
}
