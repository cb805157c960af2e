//! Phases 3 and 4: interconnect recovery (isolation, τ-drain two-phase
//! agreement, up*/down* route recomputation) and coherence-protocol
//! recovery (cache flush, directory scan, resume) — paper, Sections 4.5
//! and 4.6.

use super::{BarState, Phase, RecEv, RecoveryExt, Sched, St, Step};
use crate::msg::{BarrierId, RecMsg};
use crate::view::{LinkSet, View};
use flash_coherence::NodeSet;
use flash_machine::{Ev, FaultSpec};
use flash_magic::MagicMode;
use flash_net::{Lane, NodeId, RouterId, RoutingTables, UGraph};
use std::sync::Arc;

/// The last up*/down* tables phase 3 computed, with the inputs they were
/// computed from.
///
/// [`flash_net::up_down_tables`] is a pure function of the probed-alive
/// links, the agreed root and the machine's fixed router count, so every
/// survivor of one recovery derives the same tables from the same
/// stabilized view. The memo computes them once and hands every later
/// caller with the same inputs the shared result.
#[derive(Clone, Debug)]
pub(super) struct RouteMemo {
    links_up: LinkSet,
    root: NodeId,
    tables: Arc<RoutingTables>,
}

impl RouteMemo {
    /// The up*/down* tables of `view` rooted at `root` over `n` routers:
    /// from `memo` when its inputs match, else computed and memoized.
    fn tables(
        memo: &mut Option<RouteMemo>,
        view: &View,
        root: NodeId,
        n: usize,
    ) -> Arc<RoutingTables> {
        if let Some(m) = memo {
            if m.root == root && m.links_up == view.links_up {
                return Arc::clone(&m.tables);
            }
        }
        let mut g = UGraph::new(n);
        for &(a, b) in &view.links_up {
            g.add_edge(a, b);
        }
        let alive = routers_alive(view, root, n);
        let tables = Arc::new(flash_net::up_down_tables(&g, &alive, RouterId(root.0)));
        *memo = Some(RouteMemo {
            links_up: view.links_up.clone(),
            root,
            tables: Arc::clone(&tables),
        });
        tables
    }
}

/// The routers the up*/down* tables of `view` cover: the ends of probed-
/// alive links (a dead node's router still routes traffic) and the root.
fn routers_alive(view: &View, root: NodeId, n: usize) -> Vec<bool> {
    let mut alive = vec![false; n];
    for &(a, b) in &view.links_up {
        alive[a as usize] = true;
        alive[b as usize] = true;
    }
    alive[root.index()] = true;
    alive
}

impl RecoveryExt {
    // ------------------------------------------------------------------
    // Phase 3: interconnect recovery
    // ------------------------------------------------------------------

    pub(super) fn enter_p3(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        // Echo stashed future-round exchanges before leaving dissemination:
        // a partner with a sparser CWN stabilizes a round later than we do,
        // and its round-(bound+1) exchange may already sit in our inbox.
        // Dropping it would leave that partner waiting forever for a round
        // we never run; its watchdog would then restart the whole episode
        // into the same deterministic deadlock. (Late arrivals after this
        // point are echoed on receipt — see `on_recovery_msg`.)
        {
            let rec = &self.nodes[node as usize];
            let inc = rec.inc;
            let last_round = rec.bound.unwrap_or(0);
            let mut stale: Vec<(u16, u32)> = rec
                .inbox
                .keys()
                .filter(|(_, r)| *r > last_round)
                .copied()
                .collect();
            stale.sort_unstable();
            for (m, r) in stale {
                let rec = &self.nodes[node as usize];
                let fwd = rec.routes.get(&m).cloned().unwrap_or_default();
                let mut reply_route: Vec<RouterId> = fwd.iter().rev().skip(1).copied().collect();
                reply_route.push(RouterId(node));
                let msg = RecMsg::Exchange {
                    inc,
                    round: r,
                    view: Box::new(rec.view.clone()),
                    hint: rec.bound,
                    reply_route,
                };
                self.send(st, node, m, msg, Lane::Recovery1, sched);
            }
        }
        self.record_phase_edge(st, node, 2, 3, sched.now());
        self.done_p2.insert(node);
        self.mark_phase_progress(st, sched.now());
        if self.entries.p3.is_none() {
            self.entries.p3 = Some(sched.now());
        }
        let rec = &self.nodes[node as usize];
        let inc = rec.inc;
        let view = rec.view.clone();

        // Shutdown heuristic against split-brain operation (§4.2): a node
        // that cannot account for a quorum of the machine (unreachable
        // nodes count as lost) halts rather than risk divergent operation.
        let total = st.num_nodes();
        let failed = total - view.live_nodes().len().min(total);
        if (failed as f64) > self.cfg.shutdown_fraction * total as f64 {
            self.report.machine_halted = true;
            self.nodes[node as usize].phase = Phase::Shut;
            st.apply_fault(&FaultSpec::Node(NodeId(node)), sched.now());
            return;
        }

        // Node map update: live nodes minus doomed failure units.
        let effective = self.effective_live(&view);
        st.nodes[node as usize].node_map.reprogram(&effective);

        // Barrier tree for the rest of the algorithm.
        let tree = view.bft_tree(st.fabric.design_graph());
        self.nodes[node as usize].tree = Some(Arc::new(tree));
        self.nodes[node as usize].bars = BarrierId::ALL
            .iter()
            .map(|&id| {
                (
                    id,
                    BarState {
                        ok: true,
                        ..BarState::default()
                    },
                )
            })
            .collect();
        // Process any barrier joins that raced ahead of us.
        let stashed = std::mem::take(&mut self.nodes[node as usize].stashed_ups);
        for (from, id, ok) in stashed {
            self.on_bar_up(st, node, from, id, ok, sched);
        }

        // Isolation: reprogram the local router (and adjacent dead
        // controllers' ejection ports).
        st.apply_isolation_for(NodeId(node), &view.failed_nodes());
        self.nodes[node as usize].phase = Phase::Isolate;
        sched.after(
            self.cfg.instr(self.cfg.isolate_instr),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::Isolate,
            }),
        );
    }

    /// Live nodes minus failure units that lost a member (those shut down
    /// at the end of recovery and must not be re-used by survivors).
    pub(super) fn effective_live(&self, view: &View) -> NodeSet {
        let mut live = view.live_nodes();
        if let Some(units) = &self.units {
            let failed = view.failed_nodes();
            for unit in units {
                if unit.intersects(&failed) {
                    live.subtract(unit);
                }
            }
        }
        live
    }

    pub(super) fn start_drain_wait(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        let rec = &mut self.nodes[node as usize];
        rec.phase = Phase::Drain1Wait;
        rec.drain_attempt += 1;
        rec.vote1_at = None;
        let (inc, attempt) = (rec.inc, rec.drain_attempt);
        self.bump_progress(st, node, sched);
        sched.immediately(Ev::Ext(RecEv::DrainPoll { node, inc, attempt }));
    }

    pub(super) fn drain_poll(
        &mut self,
        st: &mut St,
        node: u16,
        attempt: u32,
        sched: Sched<'_, '_>,
    ) {
        let rec = &self.nodes[node as usize];
        if rec.phase != Phase::Drain1Wait || rec.drain_attempt != attempt {
            return;
        }
        let last = st.fabric.last_coherence_delivery(NodeId(node));
        let quiet = sched.now().since(last) >= self.cfg.drain_tau;
        if quiet {
            self.nodes[node as usize].vote1_at = Some(sched.now());
            self.join_barrier(st, node, BarrierId::Drain1, true, sched);
        } else {
            let inc = self.nodes[node as usize].inc;
            sched.after(
                self.cfg.drain_poll,
                Ev::Ext(RecEv::DrainPoll { node, inc, attempt }),
            );
        }
    }

    pub(super) fn compute_and_install_routes(
        &mut self,
        st: &mut St,
        node: u16,
        sched: Sched<'_, '_>,
    ) {
        let n = st.fabric.design_graph().len();
        let view = &self.nodes[node as usize].view;
        let Some(root) = view.root() else { return };
        let tables = RouteMemo::tables(&mut self.route_memo, view, root, n);
        // Install our own router's row.
        st.install_router_row(RouterId(node), &tables);
        // The root additionally programs routers not owned by any live node
        // (routers of failed nodes that survived the fault).
        if root == NodeId(node) {
            let alive = routers_alive(view, root, n);
            for r in 0..n as u16 {
                if alive[r as usize] && !view.live_nodes().contains(NodeId(r)) {
                    st.install_router_row(RouterId(r), &tables);
                }
            }
        }
        self.join_barrier(st, node, BarrierId::Routes, true, sched);
    }

    // ------------------------------------------------------------------
    // Phase 4: coherence-protocol recovery
    // ------------------------------------------------------------------

    pub(super) fn start_flush(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        self.record_phase_edge(st, node, 3, 4, sched.now());
        self.done_p3.insert(node);
        self.mark_phase_progress(st, sched.now());
        if self.report.p4_started_at.is_none() {
            self.report.p4_started_at = Some(sched.now());
        }
        if self.entries.p4.is_none() {
            self.entries.p4 = Some(sched.now());
        }
        st.nodes[node as usize].mode = MagicMode::Recovery;
        // With HAL-style end-to-end interconnect reliability the flush step
        // is eliminated (paper, Section 6.3); caches stay warm and the
        // directory is pruned during the scan instead.
        let walk_ns = if self.cfg.reliable_interconnect {
            0
        } else {
            let sent = st.flush_cache_for_recovery(NodeId(node), sched);
            self.report.flush_writebacks += sent as u64;
            st.params.l2_lines() as u64 * self.cfg.flush_per_line_ns
        };
        let inc = self.nodes[node as usize].inc;
        self.nodes[node as usize].phase = Phase::FlushWalk;
        self.bump_progress(st, node, sched);
        sched.after(
            flash_sim::SimDuration::from_nanos(walk_ns),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::FlushWalk,
            }),
        );
    }

    pub(super) fn flush_join_poll(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        if self.nodes[node as usize].phase != Phase::FlushJoin {
            return;
        }
        let outbox_empty = st.nodes[node as usize].outbox[Lane::Request.index()].is_empty();
        if outbox_empty {
            self.join_barrier(st, node, BarrierId::Flush, true, sched);
        } else {
            let inc = self.nodes[node as usize].inc;
            sched.after(
                self.cfg.drain_poll,
                Ev::Ext(RecEv::FlushJoinPoll { node, inc }),
            );
        }
    }

    pub(super) fn start_scan(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        if self.report.flush_done_at.is_none() {
            self.report.flush_done_at = Some(sched.now());
        }
        let marked = if self.cfg.reliable_interconnect {
            let failed = self.nodes[node as usize].view.failed_nodes();
            st.nodes[node as usize].dir.scan_and_prune(&failed)
        } else {
            st.nodes[node as usize].dir.scan_and_reset()
        };
        self.report.lines_marked_incoherent += marked.len() as u64;
        st.counters
            .add("lines_marked_incoherent", marked.len() as u64);
        let scan_ns = st.layout.lines_per_node() * st.params.magic.costs.dir_scan_per_line_ns;
        let inc = self.nodes[node as usize].inc;
        self.nodes[node as usize].phase = Phase::Scan;
        self.bump_progress(st, node, sched);
        sched.after(
            flash_sim::SimDuration::from_nanos(scan_ns),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::Scan,
            }),
        );
    }

    pub(super) fn complete_recovery(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        self.record_phase_edge(st, node, 4, 0, sched.now());
        let view = self.nodes[node as usize].view.clone();
        let doomed = {
            let effective = self.effective_live(&view);
            !effective.contains(NodeId(node))
        };
        if doomed {
            // Clean shutdown of the whole failure unit (Section 3.3).
            self.report.nodes_shut_down += 1;
            self.nodes[node as usize].phase = Phase::Shut;
            st.apply_fault(&FaultSpec::Node(NodeId(node)), sched.now());
        } else {
            self.report.nodes_resumed += 1;
            self.nodes[node as usize].phase = Phase::Idle;
            st.resume_after_recovery(NodeId(node), sched);
        }
        self.done_p4.insert(node);
        self.mark_phase_progress(st, sched.now());
        if self.done_for_all(st, &self.done_p4) {
            self.active = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare_fault_experiment, ExperimentConfig};
    use flash_machine::MachineParams;
    use flash_net::{Mesh2D, Topology};
    use flash_sim::SimDuration;

    /// The 8x8 mesh with node 27 dead and the link 27-28 down, as a
    /// stabilized phase-2 view would hold it.
    fn degraded_view() -> View {
        let m = Mesh2D::new(8, 8);
        let mut v = View::new();
        for i in 0..64u16 {
            v.set_node_up(NodeId(i));
        }
        for l in m.links() {
            v.set_link_up(l.a, l.b);
        }
        v.set_node_down(NodeId(27));
        v.set_link_down(RouterId(27), RouterId(28));
        v
    }

    /// What phase 3 computed before the memo: fresh tables for the view.
    fn fresh(view: &View, root: NodeId) -> RoutingTables {
        let mut g = UGraph::new(64);
        for &(a, b) in &view.links_up {
            g.add_edge(a, b);
        }
        flash_net::up_down_tables(&g, &routers_alive(view, root, 64), RouterId(root.0))
    }

    #[test]
    fn memo_serves_the_tables_a_fresh_computation_gives() {
        let view = degraded_view();
        let root = view.root().unwrap();
        let mut memo = None;
        let first = RouteMemo::tables(&mut memo, &view, root, 64);
        let served = RouteMemo::tables(&mut memo, &view.clone(), root, 64);
        assert!(Arc::ptr_eq(&first, &served), "second call is a memo hit");
        assert_eq!(*served, fresh(&view, root));
    }

    #[test]
    fn memo_recomputes_on_a_changed_link_or_root() {
        let view = degraded_view();
        let root = view.root().unwrap();
        let mut memo = None;
        let base = RouteMemo::tables(&mut memo, &view, root, 64);

        let other_root = NodeId(5);
        let t = RouteMemo::tables(&mut memo, &view, other_root, 64);
        assert_eq!(*t, fresh(&view, other_root));
        assert_ne!(*t, *base);

        let base = RouteMemo::tables(&mut memo, &view, root, 64);
        let mut one_link = view.clone();
        one_link.set_link_down(RouterId(0), RouterId(1));
        let t = RouteMemo::tables(&mut memo, &one_link, root, 64);
        assert_eq!(*t, fresh(&one_link, root));
        assert_ne!(*t, *base);
    }

    /// A checkpoint taken after the first survivor computed its routes
    /// carries the memo; the fork shares its tables and replays the rest
    /// of recovery bit-identically.
    #[test]
    fn checkpoint_carries_the_memo_and_replays_identically() {
        let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), 23);
        cfg.fill_ops = 400;
        cfg.total_ops = 1_000;
        let mut m = prepare_fault_experiment(&cfg);
        m.schedule_fault(
            m.now() + SimDuration::from_nanos(1),
            FaultSpec::Node(NodeId(3)),
        );
        while m.ext().route_memo.is_none() {
            m.run_for(SimDuration::from_micros(1));
        }
        assert!(!m.ext().report.completed());
        let mut fork = m.checkpoint().fork();
        let (a, b) = (m.ext().route_memo.as_ref(), fork.ext().route_memo.as_ref());
        assert!(Arc::ptr_eq(&a.unwrap().tables, &b.unwrap().tables));

        let budget = m.now() + SimDuration::from_secs(20);
        m.run_until(budget);
        fork.run_until(budget);
        assert_eq!(m.st().obs.merged_hash(), fork.st().obs.merged_hash());
        assert!(m.ext().report.completed() && fork.ext().report.completed());
        assert!(fork.st().validate().passed());
    }
}
