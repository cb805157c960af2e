//! Accounting: the post-recovery validation pass against the oracle
//! (Table 5.3). Event tracing lives in [`flash_obs`]; the recorder is the
//! `obs` field of [`MachineState`].

use super::MachineState;
use crate::oracle::ValidationReport;
use crate::payload::Payload;
use flash_coherence::{DirState, LineAddr, LineMap, LineSet, Version};

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    /// Post-recovery validation against the oracle (the check of Table 5.3):
    /// no over-marking, no silent corruption. The machine should be
    /// quiescent (no in-flight coherence traffic); a line's effective data
    /// is the exclusive cached copy if one exists, else the home memory
    /// image.
    pub fn validate(&self) -> ValidationReport {
        // Lines whose only valid copy was lost inside the interconnect
        // (dropped writebacks / exclusive grants) may legitimately be
        // marked incoherent even when they postdate the per-home oracle
        // snapshot.
        let mut lost_in_transit: LineSet<LineAddr> = LineSet::default();
        for pkt in self.fabric.dropped_packets() {
            if let Payload::Coh(msg) = &pkt.payload {
                if msg.carries_sole_copy() {
                    lost_in_transit.insert(msg.line());
                }
            }
        }
        // Collect cached copies from all live caches: exclusive (dirty)
        // copies define a line's effective data; any live copy of the
        // latest version proves the data still survives somewhere.
        let mut dirty: LineMap<LineAddr, Version> = LineMap::default();
        let mut cached: LineSet<(LineAddr, Version)> = LineSet::default();
        for node in &self.nodes {
            if !node.is_alive() {
                continue;
            }
            for l in node.cache.iter() {
                cached.insert((l.addr, l.version));
                if l.exclusive {
                    dirty.insert(l.addr, l.version);
                }
            }
        }
        let mut report = ValidationReport::default();
        for node in &self.nodes {
            if self.failed_nodes.contains(node.id) {
                report.inaccessible += self.layout.lines_per_node();
                continue;
            }
            for (line, state) in node.dir.iter_states() {
                report.lines_checked += 1;
                match state {
                    DirState::Incoherent => {
                        report.marked_incoherent += 1;
                        // The may-set is a fault-time snapshot, so it can
                        // miss lines endangered *after* every snapshot — an
                        // owner whose flush writeback was lost and that was
                        // then shut down cleanly as part of its doomed cell.
                        // Marking is over-marking only if the latest
                        // committed version actually survives somewhere
                        // (home memory or a live cache); data that exists
                        // nowhere is legitimately incoherent.
                        let expected = self.oracle.expected_version(line);
                        let latest_available = node.dir.mem_version(line) == expected
                            || cached.contains(&(line, expected));
                        if !self.oracle.may_be_incoherent(line)
                            && !lost_in_transit.contains(&line)
                            && latest_available
                        {
                            report.overmarked.push(line);
                        }
                    }
                    _ => {
                        let effective = dirty
                            .get(&line)
                            .copied()
                            .unwrap_or(node.dir.mem_version(line));
                        if effective != self.oracle.expected_version(line) {
                            // A stale line whose sole copy is in the drop
                            // log is detectably lost, not silent: the home
                            // never serves memory while the directory still
                            // names an owner, so the next access NAKs into
                            // recovery and the line gets marked incoherent.
                            // Only directory states that refuse to serve
                            // memory directly qualify — a stale line the
                            // home believes clean is silent corruption
                            // regardless of what the drop log says.
                            // An owner that died holding the sole dirty
                            // copy is the same detectable case: the data is
                            // gone, but the home still names the dead owner
                            // and NAKs the next access into recovery. Only
                            // a machine that halts before that recovery
                            // leaves such entries behind.
                            let owner_dead = match state {
                                DirState::Exclusive(o)
                                | DirState::PendingRecall { owner: o, .. } => {
                                    self.failed_nodes.contains(o)
                                        || !self.nodes[o.index()].is_alive()
                                }
                                _ => false,
                            };
                            let guarded = matches!(
                                state,
                                DirState::Exclusive(_) | DirState::PendingRecall { .. }
                            );
                            if guarded && (owner_dead || lost_in_transit.contains(&line)) {
                                report.lost_in_transit.push(line);
                            } else {
                                report.corrupted.push(line);
                            }
                        }
                    }
                }
            }
        }
        report
    }
}
