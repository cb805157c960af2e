//! The home-node directory and its protocol state machine.
//!
//! Each node's directory tracks the coherence state of the lines homed on
//! it. The protocol is a home-based MSI directory protocol with the
//! properties the paper's recovery algorithm relies on (Section 3.2):
//!
//! * a line's home services all misses for it — a dead home makes the line
//!   *inaccessible*;
//! * a dirty writeback ([`CohMsg::Put`]) carries the *only valid copy* —
//!   losing it makes the line *incoherent*;
//! * transient states (invalidations or a recall outstanding) *lock* the
//!   line: requests are NAK'd and retried, so a lost unlock message turns
//!   into an indefinite NAK spin (detected via NAK-counter overflow).
//!
//! The recovery entry points ([`Directory::recovery_put`],
//! [`Directory::scan_and_reset`]) implement the directory side of
//! coherence-protocol recovery (Section 4.5).

use crate::line::{LineAddr, MemLayout, Version};
use crate::msg::CohMsg;
use crate::nodeset::NodeSet;
use flash_net::NodeId;
use flash_sim::Counters;

/// Directory state of one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies; memory holds the valid data.
    Uncached,
    /// Clean copies at the given nodes; memory is valid.
    Shared(NodeSet),
    /// A single dirty copy at the given node; memory is stale.
    Exclusive(NodeId),
    /// Locked: invalidations outstanding for a write request.
    PendingInvals {
        /// The node waiting for exclusive access.
        requester: NodeId,
        /// Sharers whose invalidation acknowledgment is still outstanding.
        pending: NodeSet,
        /// Whether the requester needs the data (full write miss) or only
        /// an ownership grant (upgrade of a held shared copy).
        needs_data: bool,
    },
    /// Locked: the dirty owner has been asked to write the line back.
    PendingRecall {
        /// The node waiting for the data.
        requester: NodeId,
        /// The current dirty owner.
        owner: NodeId,
        /// Whether the requester wants an exclusive copy.
        for_write: bool,
    },
    /// The line's only valid copy was lost in a fault; accesses bus-error
    /// until the operating system reinitializes the page.
    Incoherent,
}

impl DirState {
    /// Whether the line is locked in a transient state (requests are NAK'd).
    pub fn is_locked(&self) -> bool {
        matches!(
            self,
            DirState::PendingInvals { .. } | DirState::PendingRecall { .. }
        )
    }
}

/// Messages to send as the result of a directory transition, as
/// (destination, message) pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Protocol messages to emit.
    pub sends: Vec<(NodeId, CohMsg)>,
}

impl Outcome {
    fn send(dest: NodeId, msg: CohMsg) -> Outcome {
        Outcome {
            sends: vec![(dest, msg)],
        }
    }
}

/// Inputs to the home-node protocol engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HomeIn {
    /// A read miss arrived.
    Get {
        /// Requesting node.
        from: NodeId,
    },
    /// A write (exclusive) miss arrived.
    GetX {
        /// Requesting node.
        from: NodeId,
    },
    /// An ownership-upgrade request arrived (requester claims to hold a
    /// shared copy).
    Upgrade {
        /// Requesting node.
        from: NodeId,
    },
    /// A writeback arrived.
    Put {
        /// Writing node.
        from: NodeId,
        /// The written-back data.
        version: Version,
        /// Whether the writer keeps a clean shared copy (a downgrade in
        /// response to a read recall) rather than dropping the line.
        keep_shared: bool,
    },
    /// An invalidation acknowledgment arrived.
    InvalAck {
        /// Acknowledging node.
        from: NodeId,
    },
}

/// Index of a sharer set in a directory's [`SharerPool`].
type SetIdx = u32;

/// The stored form of one line's [`DirState`]. The sharer set of `Shared`
/// and `PendingInvals` lives in the directory's [`SharerPool`] and the slot
/// holds its index, so a slot takes 8 bytes where a `DirState` takes 136:
/// with its version, a line costs 16 bytes instead of 144. Few lines are
/// shared at any one time, so the pool stays small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Uncached,
    Shared(SetIdx),
    Exclusive(NodeId),
    PendingInvals {
        requester: NodeId,
        pending: SetIdx,
        needs_data: bool,
    },
    PendingRecall {
        requester: NodeId,
        owner: NodeId,
        for_write: bool,
    },
    Incoherent,
}

impl Slot {
    /// The pool index this slot holds, if any.
    fn set_idx(self) -> Option<SetIdx> {
        match self {
            Slot::Shared(p) | Slot::PendingInvals { pending: p, .. } => Some(p),
            _ => None,
        }
    }
}

/// The sharer sets of one directory, with a free list so a set released
/// by one line is reused by the next.
#[derive(Clone, Debug, Default)]
struct SharerPool {
    sets: Vec<NodeSet>,
    free: Vec<SetIdx>,
}

impl SharerPool {
    fn alloc(&mut self, set: NodeSet) -> SetIdx {
        match self.free.pop() {
            Some(p) => {
                self.sets[p as usize] = set;
                p
            }
            None => {
                self.sets.push(set);
                (self.sets.len() - 1) as SetIdx
            }
        }
    }

    fn release(&mut self, p: SetIdx) {
        self.free.push(p);
    }

    fn clear(&mut self) {
        self.sets.clear();
        self.free.clear();
    }
}

impl std::ops::Index<SetIdx> for SharerPool {
    type Output = NodeSet;
    fn index(&self, p: SetIdx) -> &NodeSet {
        &self.sets[p as usize]
    }
}

impl std::ops::IndexMut<SetIdx> for SharerPool {
    fn index_mut(&mut self, p: SetIdx) -> &mut NodeSet {
        &mut self.sets[p as usize]
    }
}

/// The directory (and memory image) for the lines homed on one node.
#[derive(Clone, Debug)]
pub struct Directory {
    home: NodeId,
    layout: MemLayout,
    slots: Vec<Slot>,
    sharers: SharerPool,
    versions: Vec<Version>,
    counters: Counters,
    // Sorted index of lines currently in `DirState::Incoherent`, so the
    // OS page service can find them without scanning every homed line.
    incoherent: Vec<LineAddr>,
}

impl Directory {
    /// Creates the directory for `home` under the given layout; all lines
    /// start uncached at [`Version::INITIAL`].
    pub fn new(home: NodeId, layout: MemLayout) -> Self {
        let n = layout.lines_per_node() as usize;
        Directory {
            home,
            layout,
            slots: vec![Slot::Uncached; n],
            sharers: SharerPool::default(),
            versions: vec![Version::INITIAL; n],
            counters: Counters::new(),
            incoherent: Vec::new(),
        }
    }

    /// The node this directory lives on.
    pub fn home(&self) -> NodeId {
        self.home
    }

    fn idx(&self, line: LineAddr) -> usize {
        debug_assert_eq!(self.layout.home_of(line), self.home, "line not homed here");
        self.layout.local_index(line)
    }

    /// The address of the `i`-th line homed here.
    fn line_at(&self, i: usize) -> LineAddr {
        LineAddr(self.home.index() as u64 * self.layout.lines_per_node() + i as u64)
    }

    /// The public form of a stored slot.
    fn expand(&self, slot: Slot) -> DirState {
        match slot {
            Slot::Uncached => DirState::Uncached,
            Slot::Shared(p) => DirState::Shared(self.sharers[p]),
            Slot::Exclusive(o) => DirState::Exclusive(o),
            Slot::PendingInvals {
                requester,
                pending,
                needs_data,
            } => DirState::PendingInvals {
                requester,
                pending: self.sharers[pending],
                needs_data,
            },
            Slot::PendingRecall {
                requester,
                owner,
                for_write,
            } => DirState::PendingRecall {
                requester,
                owner,
                for_write,
            },
            Slot::Incoherent => DirState::Incoherent,
        }
    }

    /// Replaces line `i`'s slot, returning the sharer set the old slot held
    /// (if any) to the pool. A transition that hands the old set on to the
    /// new slot assigns `slots[i]` directly instead.
    fn replace_slot(&mut self, i: usize, slot: Slot) {
        if let Some(p) = self.slots[i].set_idx() {
            self.sharers.release(p);
        }
        self.slots[i] = slot;
    }

    /// The directory state of a line.
    pub fn state(&self, line: LineAddr) -> DirState {
        self.expand(self.slots[self.idx(line)])
    }

    /// The memory image's data version for a line.
    pub fn mem_version(&self, line: LineAddr) -> Version {
        self.versions[self.idx(line)]
    }

    /// Whether a line is marked incoherent.
    pub fn is_incoherent(&self, line: LineAddr) -> bool {
        matches!(self.slots[self.idx(line)], Slot::Incoherent)
    }

    /// Protocol statistics (NAKs sent, unexpected messages, ...).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Handles one protocol message addressed to this home.
    pub fn handle(&mut self, line: LineAddr, input: HomeIn) -> Outcome {
        let i = self.idx(line);
        match input {
            HomeIn::Get { from } => self.on_get(i, line, from),
            HomeIn::GetX { from } => self.on_getx(i, line, from, true),
            HomeIn::Upgrade { from } => self.on_upgrade(i, line, from),
            HomeIn::Put {
                from,
                version,
                keep_shared,
            } => self.on_put(i, line, from, version, keep_shared),
            HomeIn::InvalAck { from } => self.on_inval_ack(i, line, from),
        }
    }

    fn on_get(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
        match self.slots[i] {
            Slot::Uncached => {
                let p = self.sharers.alloc(NodeSet::singleton(from));
                self.slots[i] = Slot::Shared(p);
                Outcome::send(
                    from,
                    CohMsg::Data {
                        line,
                        version: self.versions[i],
                        exclusive: false,
                    },
                )
            }
            Slot::Shared(p) => {
                self.sharers[p].insert(from);
                Outcome::send(
                    from,
                    CohMsg::Data {
                        line,
                        version: self.versions[i],
                        exclusive: false,
                    },
                )
            }
            Slot::Exclusive(owner) => {
                self.slots[i] = Slot::PendingRecall {
                    requester: from,
                    owner,
                    for_write: false,
                };
                Outcome::send(
                    owner,
                    CohMsg::Fetch {
                        line,
                        for_write: false,
                    },
                )
            }
            Slot::PendingInvals { .. } | Slot::PendingRecall { .. } => {
                self.counters.incr("naks_sent");
                Outcome::send(from, CohMsg::Nak { line })
            }
            Slot::Incoherent => {
                self.counters.incr("incoherent_accesses");
                Outcome::send(from, CohMsg::IncoherentErr { line })
            }
        }
    }

    /// Grants exclusivity to `from`: a data reply for a full miss, or an
    /// upgrade acknowledgment when the requester already holds the data.
    fn grant_exclusive(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        needs_data: bool,
    ) -> Outcome {
        self.replace_slot(i, Slot::Exclusive(from));
        if needs_data {
            Outcome::send(
                from,
                CohMsg::Data {
                    line,
                    version: self.versions[i],
                    exclusive: true,
                },
            )
        } else {
            Outcome::send(from, CohMsg::UpgradeAck { line })
        }
    }

    /// Write access for `from` to a line shared through set `p`: the other
    /// sharers are invalidated and the line locks until they acknowledge,
    /// or, with no other sharers, exclusivity is granted at once.
    fn invalidate_others(
        &mut self,
        i: usize,
        p: SetIdx,
        line: LineAddr,
        from: NodeId,
        needs_data: bool,
    ) -> Outcome {
        let others = &mut self.sharers[p];
        others.remove(from);
        if others.is_empty() {
            return self.grant_exclusive(i, line, from, needs_data);
        }
        let sends = others
            .iter()
            .map(|sharer| (sharer, CohMsg::Inval { line }))
            .collect();
        // The sharer set carries over as the pending-acknowledgment set.
        self.slots[i] = Slot::PendingInvals {
            requester: from,
            pending: p,
            needs_data,
        };
        Outcome { sends }
    }

    /// An upgrade request: valid only while the requester is still listed
    /// as a sharer — otherwise its copy was invalidated or silently evicted
    /// and the request falls back to the full GetX path.
    fn on_upgrade(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
        match self.slots[i] {
            Slot::Shared(p) if self.sharers[p].contains(from) => {
                self.invalidate_others(i, p, line, from, false)
            }
            _ => {
                self.counters.incr("upgrade_fallbacks");
                self.on_getx(i, line, from, true)
            }
        }
    }

    fn on_getx(&mut self, i: usize, line: LineAddr, from: NodeId, needs_data: bool) -> Outcome {
        match self.slots[i] {
            Slot::Uncached => self.grant_exclusive(i, line, from, needs_data),
            Slot::Shared(p) => self.invalidate_others(i, p, line, from, needs_data),
            Slot::Exclusive(owner) => {
                self.slots[i] = Slot::PendingRecall {
                    requester: from,
                    owner,
                    for_write: true,
                };
                Outcome::send(
                    owner,
                    CohMsg::Fetch {
                        line,
                        for_write: true,
                    },
                )
            }
            Slot::PendingInvals { .. } | Slot::PendingRecall { .. } => {
                self.counters.incr("naks_sent");
                Outcome::send(from, CohMsg::Nak { line })
            }
            Slot::Incoherent => {
                self.counters.incr("incoherent_accesses");
                Outcome::send(from, CohMsg::IncoherentErr { line })
            }
        }
    }

    fn on_put(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        version: Version,
        keep_shared: bool,
    ) -> Outcome {
        match self.slots[i] {
            Slot::Exclusive(owner) if owner == from => {
                self.versions[i] = version;
                self.slots[i] = if keep_shared {
                    Slot::Shared(self.sharers.alloc(NodeSet::singleton(from)))
                } else {
                    Slot::Uncached
                };
                Outcome::send(from, CohMsg::PutAck { line })
            }
            Slot::PendingRecall {
                requester,
                owner,
                for_write,
            } if owner == from => {
                self.versions[i] = version;
                if for_write {
                    self.slots[i] = Slot::Exclusive(requester);
                    Outcome::send(
                        requester,
                        CohMsg::Data {
                            line,
                            version,
                            exclusive: true,
                        },
                    )
                } else {
                    let mut sharers = NodeSet::singleton(requester);
                    if keep_shared {
                        sharers.insert(owner);
                    }
                    self.slots[i] = Slot::Shared(self.sharers.alloc(sharers));
                    Outcome::send(
                        requester,
                        CohMsg::Data {
                            line,
                            version,
                            exclusive: false,
                        },
                    )
                }
            }
            _ => {
                // Stale or duplicate writeback (e.g. after a recovery reset):
                // acknowledge so the writer can forget the line, change
                // nothing.
                self.counters.incr("unexpected_puts");
                Outcome::send(from, CohMsg::PutAck { line })
            }
        }
    }

    fn on_inval_ack(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
        match self.slots[i] {
            Slot::PendingInvals {
                requester,
                pending,
                needs_data,
            } => {
                let pending = &mut self.sharers[pending];
                pending.remove(from);
                if pending.is_empty() {
                    self.grant_exclusive(i, line, requester, needs_data)
                } else {
                    Outcome::default()
                }
            }
            _ => {
                self.counters.incr("unexpected_inval_acks");
                Outcome::default()
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery entry points (paper, Section 4.5)
    // ------------------------------------------------------------------

    /// Accepts a flush writeback during coherence-protocol recovery: the
    /// data is stored and the line unlocked, with no reply generated (node
    /// controllers suppress replies during recovery).
    pub fn recovery_put(&mut self, line: LineAddr, version: Version) {
        let i = self.idx(line);
        if matches!(self.slots[i], Slot::Incoherent) {
            self.counters.incr("recovery_put_to_incoherent");
            return;
        }
        self.versions[i] = version;
        self.replace_slot(i, Slot::Uncached);
    }

    /// Scans the directory after the flush barrier: any line still dirty
    /// remote (`Exclusive` or `PendingRecall` — its writeback never made it
    /// home) is marked incoherent; every other line is reset to `Uncached`
    /// since all caches are now empty. Returns the newly marked lines.
    pub fn scan_and_reset(&mut self) -> Vec<LineAddr> {
        let mut marked = Vec::new();
        let base = self.line_at(0).0;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot {
                Slot::Exclusive(_) | Slot::PendingRecall { .. } => {
                    *slot = Slot::Incoherent;
                    marked.push(LineAddr(base + i as u64));
                }
                Slot::Incoherent => {}
                Slot::Uncached | Slot::Shared(_) | Slot::PendingInvals { .. } => {
                    *slot = Slot::Uncached;
                }
            }
        }
        // No line holds a sharer set any more.
        self.sharers.clear();
        self.index_marked(&marked);
        marked
    }

    /// The reliable-interconnect variant of post-fault directory recovery
    /// (paper, Section 6.3 discussing the HAL machine): with a hardware
    /// end-to-end reliable interconnect the cache flush can be eliminated;
    /// the directory is *pruned* instead of reset — failed nodes are
    /// removed from sharer sets, lines they owned become incoherent, and
    /// surviving cached state is preserved. Returns the newly marked lines.
    pub fn scan_and_prune(&mut self, failed: &NodeSet) -> Vec<LineAddr> {
        let mut marked = Vec::new();
        let base = self.line_at(0).0;
        let Directory { slots, sharers, .. } = self;
        for (i, slot) in slots.iter_mut().enumerate() {
            match *slot {
                Slot::Exclusive(o) if failed.contains(o) => {
                    *slot = Slot::Incoherent;
                    marked.push(LineAddr(base + i as u64));
                }
                Slot::Exclusive(_) | Slot::Uncached | Slot::Incoherent => {}
                // For `PendingInvals`, the upgrade request was cancelled at
                // recovery initiation; un-acked sharers may still hold
                // copies (over-approximating is safe — absent sharers
                // simply ack the next invalidation).
                Slot::Shared(p) | Slot::PendingInvals { pending: p, .. } => {
                    sharers[p].subtract(failed);
                    *slot = if sharers[p].is_empty() {
                        sharers.release(p);
                        Slot::Uncached
                    } else {
                        Slot::Shared(p)
                    };
                }
                Slot::PendingRecall { owner, .. } => {
                    if failed.contains(owner) {
                        *slot = Slot::Incoherent;
                        marked.push(LineAddr(base + i as u64));
                    } else {
                        // The recall was consumed during the drain; the
                        // owner still holds its dirty copy and the
                        // requester will retry after recovery.
                        *slot = Slot::Exclusive(owner);
                    }
                }
            }
        }
        self.index_marked(&marked);
        marked
    }

    /// Clears the incoherent mark on a line and reinitializes its data —
    /// the MAGIC service Hive uses before reusing a page (paper, Section
    /// 4.6). Returns whether the line was incoherent.
    pub fn clear_incoherent(&mut self, line: LineAddr, fresh: Version) -> bool {
        let i = self.idx(line);
        if matches!(self.slots[i], Slot::Incoherent) {
            self.slots[i] = Slot::Uncached;
            self.versions[i] = fresh;
            if let Ok(p) = self.incoherent.binary_search(&line) {
                self.incoherent.remove(p);
            }
            true
        } else {
            false
        }
    }

    /// Marks a line incoherent directly (used when a truncated data packet
    /// identified a specific lost line).
    pub fn mark_incoherent(&mut self, line: LineAddr) {
        let i = self.idx(line);
        if !matches!(self.slots[i], Slot::Incoherent) {
            if let Err(p) = self.incoherent.binary_search(&line) {
                self.incoherent.insert(p, line);
            }
        }
        self.replace_slot(i, Slot::Incoherent);
    }

    /// The lines currently marked incoherent, in ascending address order —
    /// the same order a full [`Directory::iter_states`] scan would find
    /// them, but in O(marked) rather than O(lines homed).
    pub fn incoherent_lines(&self) -> &[LineAddr] {
        &self.incoherent
    }

    /// Merges freshly marked lines (ascending, previously not incoherent)
    /// into the sorted index.
    fn index_marked(&mut self, marked: &[LineAddr]) {
        if marked.is_empty() {
            return;
        }
        self.incoherent.extend_from_slice(marked);
        self.incoherent.sort_unstable();
        self.incoherent.dedup();
    }

    /// Iterates over `(line, state)` for all lines homed here.
    pub fn iter_states(&self) -> impl Iterator<Item = (LineAddr, DirState)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(move |(i, s)| (self.line_at(i), self.expand(*s)))
    }

    /// Iterates over `(line, state)` for the lines homed here that are
    /// `Exclusive`, `PendingInvals` or `PendingRecall`, in ascending
    /// address order: the lines a remote node owns or the protocol has
    /// locked. Cheaper than filtering [`Directory::iter_states`], because
    /// it skips the other lines without building their states.
    pub fn iter_exclusive_or_locked(&self) -> impl Iterator<Item = (LineAddr, DirState)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(
                    s,
                    Slot::Exclusive(_) | Slot::PendingInvals { .. } | Slot::PendingRecall { .. }
                )
            })
            .map(move |(i, s)| (self.line_at(i), self.expand(*s)))
    }

    /// Iterates over `(line, memory version)` for all lines homed here.
    pub fn iter_mem_versions(&self) -> impl Iterator<Item = (LineAddr, Version)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .map(move |(i, v)| (self.line_at(i), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> (Directory, LineAddr) {
        let layout = MemLayout::new(4, 64);
        // Home node 1; its lines are 64..128.
        (Directory::new(NodeId(1), layout), LineAddr(70))
    }

    fn data(msg: &CohMsg) -> (Version, bool) {
        match msg {
            CohMsg::Data {
                version, exclusive, ..
            } => (*version, *exclusive),
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    fn read_miss_grants_shared() {
        let (mut d, l) = dir();
        let out = d.handle(l, HomeIn::Get { from: NodeId(2) });
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, NodeId(2));
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, false));
        assert_eq!(d.state(l), DirState::Shared(NodeSet::singleton(NodeId(2))));
        // Second reader joins the sharer set.
        d.handle(l, HomeIn::Get { from: NodeId(3) });
        match d.state(l) {
            DirState::Shared(s) => assert_eq!(s.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_miss_on_uncached_grants_exclusive() {
        let (mut d, l) = dir();
        let out = d.handle(l, HomeIn::GetX { from: NodeId(0) });
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(0)));
    }

    #[test]
    fn write_miss_on_shared_invalidates_and_locks() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        d.handle(l, HomeIn::Get { from: NodeId(3) });
        let out = d.handle(l, HomeIn::GetX { from: NodeId(0) });
        // Two invalidations, no data yet.
        assert_eq!(out.sends.len(), 2);
        assert!(out
            .sends
            .iter()
            .all(|(_, m)| matches!(m, CohMsg::Inval { .. })));
        assert!(d.state(l).is_locked());
        // Requests while locked are NAK'd.
        let nak = d.handle(l, HomeIn::Get { from: NodeId(3) });
        assert!(matches!(nak.sends[0].1, CohMsg::Nak { .. }));
        assert_eq!(d.counters().get("naks_sent"), 1);
        // First ack: still locked; second ack: grant. Duplicate acks from
        // the same node do not complete the invalidation round.
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(2) });
        assert!(out.sends.is_empty());
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(2) });
        assert!(out.sends.is_empty(), "duplicate ack ignored");
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(3) });
        assert_eq!(out.sends[0].0, NodeId(0));
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(0)));
    }

    #[test]
    fn upgrade_from_sole_sharer_is_immediate() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        let out = d.handle(l, HomeIn::GetX { from: NodeId(2) });
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn read_of_dirty_line_recalls_owner() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(l, HomeIn::Get { from: NodeId(2) });
        assert_eq!(out.sends[0].0, NodeId(0));
        assert!(matches!(
            out.sends[0].1,
            CohMsg::Fetch {
                for_write: false,
                ..
            }
        ));
        assert!(d.state(l).is_locked());
        // Owner writes back version 5 keeping a shared copy.
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(0),
                version: Version(5),
                keep_shared: true,
            },
        );
        assert_eq!(out.sends[0].0, NodeId(2));
        assert_eq!(data(&out.sends[0].1), (Version(5), false));
        match d.state(l) {
            DirState::Shared(s) => {
                assert!(s.contains(NodeId(0)) && s.contains(NodeId(2)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.mem_version(l), Version(5));
    }

    #[test]
    fn write_of_dirty_line_transfers_ownership() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(l, HomeIn::GetX { from: NodeId(3) });
        assert!(matches!(
            out.sends[0].1,
            CohMsg::Fetch {
                for_write: true,
                ..
            }
        ));
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(0),
                version: Version(9),
                keep_shared: false,
            },
        );
        assert_eq!(out.sends[0].0, NodeId(3));
        assert_eq!(data(&out.sends[0].1), (Version(9), true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(3)));
    }

    #[test]
    fn voluntary_writeback_returns_line_home() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(0),
                version: Version(3),
                keep_shared: false,
            },
        );
        assert!(matches!(out.sends[0].1, CohMsg::PutAck { .. }));
        assert_eq!(d.state(l), DirState::Uncached);
        assert_eq!(d.mem_version(l), Version(3));
    }

    #[test]
    fn stale_put_is_acked_and_ignored() {
        let (mut d, l) = dir();
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(2),
                version: Version(7),
                keep_shared: false,
            },
        );
        assert!(matches!(out.sends[0].1, CohMsg::PutAck { .. }));
        assert_eq!(d.mem_version(l), Version::INITIAL);
        assert_eq!(d.counters().get("unexpected_puts"), 1);
    }

    #[test]
    fn incoherent_lines_bus_error() {
        let (mut d, l) = dir();
        d.mark_incoherent(l);
        let out = d.handle(l, HomeIn::Get { from: NodeId(2) });
        assert!(matches!(out.sends[0].1, CohMsg::IncoherentErr { .. }));
        let out = d.handle(l, HomeIn::GetX { from: NodeId(2) });
        assert!(matches!(out.sends[0].1, CohMsg::IncoherentErr { .. }));
        assert!(d.is_incoherent(l));
    }

    #[test]
    fn scan_marks_lost_exclusive_lines() {
        let layout = MemLayout::new(2, 8);
        let mut d = Directory::new(NodeId(0), layout);
        d.handle(LineAddr(0), HomeIn::GetX { from: NodeId(1) }); // dirty remote
        d.handle(LineAddr(1), HomeIn::Get { from: NodeId(1) }); // shared
        d.handle(LineAddr(2), HomeIn::GetX { from: NodeId(1) });
        d.handle(LineAddr(2), HomeIn::Get { from: NodeId(0) }); // pending recall
                                                                // Line 3: dirty remote, but the flush writeback made it home.
        d.handle(LineAddr(3), HomeIn::GetX { from: NodeId(1) });
        d.recovery_put(LineAddr(3), Version(4));
        let marked = d.scan_and_reset();
        assert_eq!(marked, vec![LineAddr(0), LineAddr(2)]);
        assert!(d.is_incoherent(LineAddr(0)));
        assert!(d.is_incoherent(LineAddr(2)));
        assert_eq!(d.state(LineAddr(1)), DirState::Uncached);
        assert_eq!(d.state(LineAddr(3)), DirState::Uncached);
        assert_eq!(d.mem_version(LineAddr(3)), Version(4));
    }

    #[test]
    fn clear_incoherent_reinitializes() {
        let (mut d, l) = dir();
        d.mark_incoherent(l);
        assert!(d.clear_incoherent(l, Version(100)));
        assert!(!d.is_incoherent(l));
        assert_eq!(d.mem_version(l), Version(100));
        assert!(!d.clear_incoherent(l, Version(101)), "already clear");
    }

    #[test]
    fn late_inval_ack_after_reset_is_ignored() {
        let (mut d, l) = dir();
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(2) });
        assert!(out.sends.is_empty());
        assert_eq!(d.counters().get("unexpected_inval_acks"), 1);
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;

    fn dir() -> (Directory, LineAddr) {
        let layout = MemLayout::new(4, 64);
        (Directory::new(NodeId(1), layout), LineAddr(70))
    }

    #[test]
    fn sole_sharer_upgrade_acks_without_data() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        assert_eq!(out.sends, vec![(NodeId(2), CohMsg::UpgradeAck { line: l })]);
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn upgrade_with_other_sharers_invalidates_then_acks() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        d.handle(l, HomeIn::Get { from: NodeId(3) });
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        assert_eq!(out.sends, vec![(NodeId(3), CohMsg::Inval { line: l })]);
        assert!(d.state(l).is_locked());
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(3) });
        assert_eq!(out.sends, vec![(NodeId(2), CohMsg::UpgradeAck { line: l })]);
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn upgrade_from_nonsharer_falls_back_to_full_data() {
        let (mut d, l) = dir();
        // Requester is not in the sharer set (silently evicted copy).
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        match &out.sends[..] {
            [(
                dst,
                CohMsg::Data {
                    exclusive: true, ..
                },
            )] => assert_eq!(*dst, NodeId(2)),
            other => panic!("expected full data grant, got {other:?}"),
        }
        assert_eq!(d.counters().get("upgrade_fallbacks"), 1);
    }

    #[test]
    fn upgrade_of_dirty_remote_line_recalls_owner() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        assert!(matches!(
            out.sends[0].1,
            CohMsg::Fetch {
                for_write: true,
                ..
            }
        ));
        assert_eq!(d.counters().get("upgrade_fallbacks"), 1);
    }

    #[test]
    fn scan_and_prune_preserves_survivor_state() {
        let layout = MemLayout::new(4, 8);
        let mut d = Directory::new(NodeId(0), layout);
        let failed = NodeSet::singleton(NodeId(3));
        // Line 0: exclusive at the dead node -> incoherent.
        d.handle(LineAddr(0), HomeIn::GetX { from: NodeId(3) });
        // Line 1: exclusive at a live node -> preserved.
        d.handle(LineAddr(1), HomeIn::GetX { from: NodeId(1) });
        // Line 2: shared by live and dead -> dead pruned.
        d.handle(LineAddr(2), HomeIn::Get { from: NodeId(1) });
        d.handle(LineAddr(2), HomeIn::Get { from: NodeId(3) });
        // Line 3: shared only by the dead node -> uncached.
        d.handle(LineAddr(3), HomeIn::Get { from: NodeId(3) });
        // Line 4: recall pending toward a live owner -> ownership restored.
        d.handle(LineAddr(4), HomeIn::GetX { from: NodeId(2) });
        d.handle(LineAddr(4), HomeIn::Get { from: NodeId(1) });
        let marked = d.scan_and_prune(&failed);
        assert_eq!(marked, vec![LineAddr(0)]);
        assert_eq!(d.state(LineAddr(1)), DirState::Exclusive(NodeId(1)));
        match d.state(LineAddr(2)) {
            DirState::Shared(s) => {
                assert!(s.contains(NodeId(1)) && !s.contains(NodeId(3)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.state(LineAddr(3)), DirState::Uncached);
        assert_eq!(d.state(LineAddr(4)), DirState::Exclusive(NodeId(2)));
    }

    /// `incoherent_lines()` must always equal the full-scan answer: it is
    /// what the OS page service trusts instead of walking every line.
    #[test]
    fn incoherent_index_tracks_marks_and_clears() {
        let layout = MemLayout::new(4, 64);
        let mut d = Directory::new(NodeId(0), layout);
        let scan = |d: &Directory| -> Vec<LineAddr> {
            d.iter_states()
                .filter(|(_, s)| matches!(s, DirState::Incoherent))
                .map(|(l, _)| l)
                .collect()
        };
        // Dirty-remote lines (live and dead owners alike) become incoherent
        // at the post-flush scan.
        d.handle(LineAddr(5), HomeIn::GetX { from: NodeId(2) });
        d.handle(LineAddr(9), HomeIn::GetX { from: NodeId(3) });
        let marked = d.scan_and_reset();
        assert_eq!(marked, vec![LineAddr(5), LineAddr(9)]);
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
        // Direct marks (truncated-packet path), idempotently.
        d.mark_incoherent(LineAddr(7));
        d.mark_incoherent(LineAddr(7));
        assert_eq!(
            d.incoherent_lines(),
            &[LineAddr(5), LineAddr(7), LineAddr(9)]
        );
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
        // Clearing removes from the index; clearing a coherent line is a
        // no-op on it.
        assert!(d.clear_incoherent(LineAddr(7), Version::INITIAL.next()));
        assert!(!d.clear_incoherent(LineAddr(6), Version::INITIAL.next()));
        assert_eq!(d.incoherent_lines(), &[LineAddr(5), LineAddr(9)]);
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
        // A second scan re-marks nothing and keeps the index sorted/deduped.
        let marked = d.scan_and_reset();
        assert!(marked.is_empty());
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
    }
}

/// The directory as it was before compact slots: one full [`DirState`]
/// per line. Kept as a differential-testing oracle for the slot and
/// sharer-pool storage above.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct RefDirectory {
        base: u64,
        pub(super) states: Vec<DirState>,
        pub(super) versions: Vec<Version>,
    }

    impl RefDirectory {
        pub(super) fn new(home: NodeId, layout: MemLayout) -> Self {
            let n = layout.lines_per_node() as usize;
            RefDirectory {
                base: home.index() as u64 * layout.lines_per_node(),
                states: vec![DirState::Uncached; n],
                versions: vec![Version::INITIAL; n],
            }
        }

        fn i(&self, line: LineAddr) -> usize {
            (line.0 - self.base) as usize
        }

        fn data(&self, i: usize, line: LineAddr, to: NodeId, exclusive: bool) -> Outcome {
            let version = self.versions[i];
            Outcome::send(
                to,
                CohMsg::Data {
                    line,
                    version,
                    exclusive,
                },
            )
        }

        fn grant(&mut self, i: usize, line: LineAddr, from: NodeId, needs_data: bool) -> Outcome {
            self.states[i] = DirState::Exclusive(from);
            if needs_data {
                self.data(i, line, from, true)
            } else {
                Outcome::send(from, CohMsg::UpgradeAck { line })
            }
        }

        fn write(&mut self, i: usize, line: LineAddr, from: NodeId, needs_data: bool) -> Outcome {
            match self.states[i] {
                DirState::Uncached => self.grant(i, line, from, needs_data),
                DirState::Shared(mut others) => {
                    others.remove(from);
                    if others.is_empty() {
                        return self.grant(i, line, from, needs_data);
                    }
                    self.states[i] = DirState::PendingInvals {
                        requester: from,
                        pending: others,
                        needs_data,
                    };
                    Outcome {
                        sends: others.iter().map(|s| (s, CohMsg::Inval { line })).collect(),
                    }
                }
                DirState::Exclusive(owner) => {
                    self.states[i] = DirState::PendingRecall {
                        requester: from,
                        owner,
                        for_write: true,
                    };
                    Outcome::send(
                        owner,
                        CohMsg::Fetch {
                            line,
                            for_write: true,
                        },
                    )
                }
                DirState::PendingInvals { .. } | DirState::PendingRecall { .. } => {
                    Outcome::send(from, CohMsg::Nak { line })
                }
                DirState::Incoherent => Outcome::send(from, CohMsg::IncoherentErr { line }),
            }
        }

        pub(super) fn handle(&mut self, line: LineAddr, input: HomeIn) -> Outcome {
            let i = self.i(line);
            match (input, self.states[i]) {
                (HomeIn::Get { from }, DirState::Uncached) => {
                    self.states[i] = DirState::Shared(NodeSet::singleton(from));
                    self.data(i, line, from, false)
                }
                (HomeIn::Get { from }, DirState::Shared(mut s)) => {
                    s.insert(from);
                    self.states[i] = DirState::Shared(s);
                    self.data(i, line, from, false)
                }
                (HomeIn::Get { from }, DirState::Exclusive(owner)) => {
                    self.states[i] = DirState::PendingRecall {
                        requester: from,
                        owner,
                        for_write: false,
                    };
                    Outcome::send(
                        owner,
                        CohMsg::Fetch {
                            line,
                            for_write: false,
                        },
                    )
                }
                (HomeIn::Get { from }, _) => self.read_refusal(i, line, from),
                (HomeIn::GetX { from }, _) => self.write(i, line, from, true),
                (HomeIn::Upgrade { from }, DirState::Shared(s)) if s.contains(from) => {
                    self.write(i, line, from, false)
                }
                (HomeIn::Upgrade { from }, _) => self.write(i, line, from, true),
                (
                    HomeIn::Put {
                        from,
                        version,
                        keep_shared,
                    },
                    DirState::Exclusive(owner),
                ) if owner == from => {
                    self.versions[i] = version;
                    self.states[i] = if keep_shared {
                        DirState::Shared(NodeSet::singleton(from))
                    } else {
                        DirState::Uncached
                    };
                    Outcome::send(from, CohMsg::PutAck { line })
                }
                (
                    HomeIn::Put {
                        from,
                        version,
                        keep_shared,
                    },
                    DirState::PendingRecall {
                        requester,
                        owner,
                        for_write,
                    },
                ) if owner == from => {
                    self.versions[i] = version;
                    if for_write {
                        self.states[i] = DirState::Exclusive(requester);
                    } else {
                        let mut sharers = NodeSet::singleton(requester);
                        if keep_shared {
                            sharers.insert(owner);
                        }
                        self.states[i] = DirState::Shared(sharers);
                    }
                    self.data(i, line, requester, for_write)
                }
                (HomeIn::Put { from, .. }, _) => Outcome::send(from, CohMsg::PutAck { line }),
                (
                    HomeIn::InvalAck { from },
                    DirState::PendingInvals {
                        requester,
                        mut pending,
                        needs_data,
                    },
                ) => {
                    pending.remove(from);
                    if pending.is_empty() {
                        return self.grant(i, line, requester, needs_data);
                    }
                    self.states[i] = DirState::PendingInvals {
                        requester,
                        pending,
                        needs_data,
                    };
                    Outcome::default()
                }
                (HomeIn::InvalAck { .. }, _) => Outcome::default(),
            }
        }

        /// A read of a locked or incoherent line.
        fn read_refusal(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
            if self.states[i] == DirState::Incoherent {
                Outcome::send(from, CohMsg::IncoherentErr { line })
            } else {
                Outcome::send(from, CohMsg::Nak { line })
            }
        }

        pub(super) fn recovery_put(&mut self, line: LineAddr, version: Version) {
            let i = self.i(line);
            if self.states[i] != DirState::Incoherent {
                self.versions[i] = version;
                self.states[i] = DirState::Uncached;
            }
        }

        pub(super) fn scan_and_reset(&mut self) -> Vec<LineAddr> {
            let mut marked = Vec::new();
            for (i, state) in self.states.iter_mut().enumerate() {
                *state = match state {
                    DirState::Exclusive(_) | DirState::PendingRecall { .. } => {
                        marked.push(LineAddr(self.base + i as u64));
                        DirState::Incoherent
                    }
                    DirState::Incoherent => DirState::Incoherent,
                    _ => DirState::Uncached,
                };
            }
            marked
        }

        pub(super) fn scan_and_prune(&mut self, failed: &NodeSet) -> Vec<LineAddr> {
            let mut marked = Vec::new();
            for (i, state) in self.states.iter_mut().enumerate() {
                let remaining = |mut s: NodeSet| {
                    s.subtract(failed);
                    if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    }
                };
                *state = match *state {
                    DirState::Exclusive(o) | DirState::PendingRecall { owner: o, .. }
                        if failed.contains(o) =>
                    {
                        marked.push(LineAddr(self.base + i as u64));
                        DirState::Incoherent
                    }
                    DirState::PendingRecall { owner, .. } => DirState::Exclusive(owner),
                    DirState::Shared(s) | DirState::PendingInvals { pending: s, .. } => {
                        remaining(s)
                    }
                    other => other,
                };
            }
            marked
        }

        pub(super) fn clear_incoherent(&mut self, line: LineAddr, fresh: Version) -> bool {
            let i = self.i(line);
            let was = self.states[i] == DirState::Incoherent;
            if was {
                self.states[i] = DirState::Uncached;
                self.versions[i] = fresh;
            }
            was
        }

        pub(super) fn mark_incoherent(&mut self, line: LineAddr) {
            let i = self.i(line);
            self.states[i] = DirState::Incoherent;
        }
    }
}

#[cfg(test)]
mod slot_tests {
    use super::reference::RefDirectory;
    use super::*;
    use flash_sim::DetRng;

    #[test]
    fn slot_stays_compact() {
        assert!(std::mem::size_of::<Slot>() <= 12);
    }

    /// Lines holding a sharer set; the pool's live-set count must equal it.
    fn lines_with_sets(d: &Directory) -> usize {
        d.slots.iter().filter(|s| s.set_idx().is_some()).count()
    }

    fn assert_same(d: &Directory, r: &RefDirectory, step: usize) {
        for (i, (line, state)) in d.iter_states().enumerate() {
            assert_eq!(state, r.states[i], "state of {line:?} at step {step}");
            assert_eq!(d.mem_version(line), r.versions[i], "version at step {step}");
        }
        let live = d.sharers.sets.len() - d.sharers.free.len();
        assert_eq!(
            live,
            lines_with_sets(d),
            "sharer pool leaked at step {step}"
        );
        let marked: Vec<LineAddr> = d
            .iter_states()
            .filter(|(_, s)| *s == DirState::Incoherent)
            .map(|(l, _)| l)
            .collect();
        assert_eq!(d.incoherent_lines(), marked.as_slice());
        let held: Vec<(LineAddr, DirState)> = d
            .iter_states()
            .filter(|(_, s)| matches!(s, DirState::Exclusive(_)) || s.is_locked())
            .collect();
        assert_eq!(d.iter_exclusive_or_locked().collect::<Vec<_>>(), held);
    }

    /// Drives random protocol inputs and recovery entry points through the
    /// slot directory and the full-state reference, comparing states,
    /// versions, outcomes and marked lines after every step.
    fn differential_run(seed: u64, steps: usize) {
        const NODES: u64 = 6;
        const LINES: u64 = 8;
        let layout = MemLayout::new(NODES as usize, LINES);
        let home = NodeId(2);
        let mut d = Directory::new(home, layout);
        let mut r = RefDirectory::new(home, layout);
        let mut rng = DetRng::new(seed);
        let mut next_version = 1u64;
        for step in 0..steps {
            let line = LineAddr(2 * LINES + rng.below(LINES));
            let from = NodeId(rng.below(NODES) as u16);
            match rng.below(100) {
                0..=79 => {
                    let input = match rng.below(5) {
                        0 => HomeIn::Get { from },
                        1 => HomeIn::GetX { from },
                        2 => HomeIn::Upgrade { from },
                        3 => {
                            next_version += 1;
                            HomeIn::Put {
                                from,
                                version: Version(next_version),
                                keep_shared: rng.below(2) == 0,
                            }
                        }
                        _ => HomeIn::InvalAck { from },
                    };
                    let got = d.handle(line, input);
                    assert_eq!(got, r.handle(line, input), "{input:?} at step {step}");
                }
                80..=85 => {
                    next_version += 1;
                    d.recovery_put(line, Version(next_version));
                    r.recovery_put(line, Version(next_version));
                }
                86..=89 => {
                    let mut failed = NodeSet::new();
                    for n in 0..NODES {
                        if rng.below(3) == 0 {
                            failed.insert(NodeId(n as u16));
                        }
                    }
                    assert_eq!(d.scan_and_prune(&failed), r.scan_and_prune(&failed));
                }
                90..=91 => assert_eq!(d.scan_and_reset(), r.scan_and_reset()),
                92..=95 => {
                    d.mark_incoherent(line);
                    r.mark_incoherent(line);
                }
                _ => {
                    next_version += 1;
                    let fresh = Version(next_version);
                    assert_eq!(
                        d.clear_incoherent(line, fresh),
                        r.clear_incoherent(line, fresh)
                    );
                }
            }
            assert_same(&d, &r, step);
        }
    }

    #[test]
    fn differential_vs_full_state_reference() {
        for seed in 0..24 {
            differential_run(0xD1C7 ^ seed, 3_000);
        }
    }

    #[test]
    fn scan_and_reset_empties_the_pool() {
        let layout = MemLayout::new(4, 16);
        let mut d = Directory::new(NodeId(0), layout);
        for l in 0..8 {
            d.handle(LineAddr(l), HomeIn::Get { from: NodeId(1) });
        }
        d.handle(LineAddr(3), HomeIn::GetX { from: NodeId(2) });
        assert_eq!(lines_with_sets(&d), 8);
        d.scan_and_reset();
        assert!(d.sharers.sets.is_empty() && d.sharers.free.is_empty());
        assert_eq!(lines_with_sets(&d), 0);
    }
}
