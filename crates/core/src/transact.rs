//! The transactional move engine's undo journal.
//!
//! Candidate evaluation used to clone the whole [`DesignPoint`] per
//! candidate (O(design size) per move). The engine instead
//! mutates the one live design in place and records the *inverse* of every
//! edit here; a rejected candidate is restored by replaying the journal
//! backwards (O(edit size)). See DESIGN.md, "Transaction invariants", for
//! what each move variant must journal and why replay order matters.
//!
//! Two layers of records coexist in one log:
//!
//! * **spec inverses** — the exact edit a move made to the spec tree
//!   (`fu_groups`, `reg_policy`, child lists, child kinds, hierarchy
//!   callees), constructed per variant by
//!   [`apply_in_place`](crate::moves::apply_in_place);
//! * **build restores** ([`UndoOp::RestoreBuilt`]) — the previous
//!   `built` RTL of every module the post-edit rebuild relinked, journaled
//!   by [`DesignPoint::rebuild_at_journaled`]. These are *moved* out of the
//!   tree (`mem::replace`), never cloned.
//!
//! Replay is strictly LIFO, so a log can host nested speculation: take a
//! [`mark`](UndoLog::mark), apply, and either keep the suffix (commit) or
//! [`rollback_to`](UndoLog::rollback_to) the mark (abort). The engine
//! leans on this to speculate every candidate of a pass inside one log and
//! still unwind the pass's rejected tail afterwards.

use crate::design::{Child, ChildKind, DesignPoint, ModuleState};
use crate::moves::ModulePath;
use hsyn_dfg::{DfgId, MemId, NodeId};
use hsyn_lib::FuTypeId;
use hsyn_rtl::{RegPolicy, RtlModule};

/// One inverse edit. Replaying it on the design that resulted from the
/// forward edit restores the pre-edit state bit-exactly.
#[derive(Clone, Debug)]
pub enum UndoOp {
    /// Restore the `built` RTL of the module at `path` (journaled by the
    /// rebuild that followed a spec edit).
    RestoreBuilt {
        /// Module path from the top.
        path: ModulePath,
        /// The build to put back.
        built: RtlModule,
    },
    /// Restore a functional-unit group's library type
    /// (inverse of [`Move::SetFuType`](crate::Move::SetFuType)).
    RestoreFuType {
        /// Module path from the top.
        path: ModulePath,
        /// Group index.
        group: usize,
        /// The previous library type.
        fu_type: FuTypeId,
    },
    /// Split a merged functional-unit group back apart
    /// (inverse of [`Move::MergeFu`](crate::Move::MergeFu)): truncate
    /// group `a`'s ops to their pre-merge length, restore both types, and
    /// re-insert group `b` with the split-off tail.
    UnmergeFu {
        /// Module path from the top.
        path: ModulePath,
        /// Surviving group (keeps the ops prefix).
        a: usize,
        /// Index the removed group is re-inserted at.
        b: usize,
        /// `a`'s op count before the merge.
        a_ops_len: usize,
        /// `a`'s type before the merge.
        a_fu_type: FuTypeId,
        /// `b`'s type before the merge.
        b_fu_type: FuTypeId,
    },
    /// Re-absorb a split-out operation
    /// (inverse of [`Move::SplitFu`](crate::Move::SplitFu)): pop the
    /// appended singleton group and put `op` back at its original position.
    UnsplitFu {
        /// Module path from the top.
        path: ModulePath,
        /// Group the op came from.
        group: usize,
        /// The op's original position within the group.
        pos: usize,
        /// The operation node.
        op: NodeId,
    },
    /// Restore the register-sharing policy (inverse of
    /// [`Move::RepackRegs`](crate::Move::RepackRegs) /
    /// [`Move::DedicateRegs`](crate::Move::DedicateRegs)).
    RestoreRegPolicy {
        /// Module path from the top.
        path: ModulePath,
        /// The previous policy.
        policy: RegPolicy,
    },
    /// Restore a child's implementation (inverse of
    /// [`Move::SwapChild`](crate::Move::SwapChild) /
    /// [`Move::ResynthChild`](crate::Move::ResynthChild), and of the
    /// embedding half of a child merge).
    RestoreChildKind {
        /// Parent module path from the top.
        path: ModulePath,
        /// Child index.
        child: usize,
        /// The previous implementation.
        kind: Box<ChildKind>,
    },
    /// Retarget a hierarchical node back to its previous callee DFG
    /// (inverse of the move-*A* rewrite half of
    /// [`Move::SwapChild`](crate::Move::SwapChild)).
    RestoreCallee {
        /// The DFG containing the node.
        dfg: DfgId,
        /// The hierarchical node.
        node: NodeId,
        /// The previous callee.
        callee: DfgId,
    },
    /// Split two merged children back apart (inverse of
    /// [`Move::MergeChildren`](crate::Move::MergeChildren)): truncate
    /// `a`'s node list, optionally restore `a`'s pre-embed implementation,
    /// and re-insert the removed child at `b`.
    UnmergeChildren {
        /// Parent module path from the top.
        path: ModulePath,
        /// Surviving child.
        a: usize,
        /// Index the removed child is re-inserted at.
        b: usize,
        /// `a`'s node count before the merge.
        a_nodes_len: usize,
        /// `a`'s implementation before RTL embedding (`None` when the merge
        /// only extended the node list).
        a_kind: Option<Box<ChildKind>>,
        /// The child the merge removed, intact.
        removed: Box<Child>,
    },
    /// Restore a memory's bank count (inverse of
    /// [`Move::RebankMem`](crate::Move::RebankMem)).
    RestoreMemBanks {
        /// The DFG owning the memory.
        dfg: DfgId,
        /// The memory.
        mem: MemId,
        /// The previous bank count.
        banks: u32,
    },
    /// Re-absorb a split-out hierarchical node (inverse of
    /// [`Move::SplitChild`](crate::Move::SplitChild)): pop the appended
    /// clone child and put `node` back at its original position.
    UnsplitChild {
        /// Parent module path from the top.
        path: ModulePath,
        /// Child the node came from.
        child: usize,
        /// The node's original position within the child's node list.
        pos: usize,
        /// The hierarchical node.
        node: NodeId,
    },
}

impl UndoOp {
    /// Apply this inverse edit to `dp`.
    fn replay(self, dp: &mut DesignPoint) {
        match self {
            UndoOp::RestoreBuilt { path, built } => {
                dp.top.at_mut(&path).built = built;
            }
            UndoOp::RestoreFuType {
                path,
                group,
                fu_type,
            } => {
                dp.top.at_mut(&path).core.fu_groups[group].fu_type = fu_type;
            }
            UndoOp::UnmergeFu {
                path,
                a,
                b,
                a_ops_len,
                a_fu_type,
                b_fu_type,
            } => {
                let m = dp.top.at_mut(&path);
                let tail = m.core.fu_groups[a].ops.split_off(a_ops_len);
                m.core.fu_groups[a].fu_type = a_fu_type;
                m.core.fu_groups.insert(
                    b,
                    hsyn_rtl::FuGroup {
                        fu_type: b_fu_type,
                        ops: tail,
                    },
                );
            }
            UndoOp::UnsplitFu {
                path,
                group,
                pos,
                op,
            } => {
                let m = dp.top.at_mut(&path);
                m.core.fu_groups.pop();
                m.core.fu_groups[group].ops.insert(pos, op);
            }
            UndoOp::RestoreRegPolicy { path, policy } => {
                dp.top.at_mut(&path).core.reg_policy = policy;
            }
            UndoOp::RestoreChildKind { path, child, kind } => {
                dp.top.at_mut(&path).children[child].kind = *kind;
            }
            UndoOp::RestoreCallee { dfg, node, callee } => {
                dp.hierarchy.replace_callee(dfg, node, callee);
            }
            UndoOp::UnmergeChildren {
                path,
                a,
                b,
                a_nodes_len,
                a_kind,
                removed,
            } => {
                let m = dp.top.at_mut(&path);
                m.children[a].nodes.truncate(a_nodes_len);
                if let Some(kind) = a_kind {
                    m.children[a].kind = *kind;
                }
                m.children.insert(b, *removed);
            }
            UndoOp::RestoreMemBanks { dfg, mem, banks } => {
                dp.hierarchy.dfg_mut(dfg).set_mem_banks(mem, banks);
            }
            UndoOp::UnsplitChild {
                path,
                child,
                pos,
                node,
            } => {
                let m = dp.top.at_mut(&path);
                m.children.pop();
                m.children[child].nodes.insert(pos, node);
            }
        }
    }

    /// Deterministic approximate heap footprint of this record, bytes —
    /// telemetry only ([`MoveStats::undo_bytes_peak`]), never steering.
    ///
    /// [`MoveStats::undo_bytes_peak`]: crate::MoveStats::undo_bytes_peak
    fn bytes(&self) -> usize {
        let base = std::mem::size_of::<UndoOp>();
        base + match self {
            UndoOp::RestoreBuilt { path, built } => path_bytes(path) + module_bytes(built),
            UndoOp::RestoreFuType { path, .. } | UndoOp::UnsplitFu { path, .. } => path_bytes(path),
            UndoOp::UnmergeFu { path, .. } => path_bytes(path),
            UndoOp::RestoreRegPolicy { path, policy } => {
                let groups = match policy {
                    RegPolicy::Groups(g) => {
                        g.iter().map(|v| v.len() * 8).sum::<usize>() + g.len() * 24
                    }
                    _ => 0,
                };
                path_bytes(path) + groups
            }
            UndoOp::RestoreChildKind { path, kind, .. } => path_bytes(path) + kind_bytes(kind),
            UndoOp::RestoreCallee { .. } | UndoOp::RestoreMemBanks { .. } => 0,
            UndoOp::UnmergeChildren {
                path,
                a_kind,
                removed,
                ..
            } => path_bytes(path) + a_kind.as_deref().map_or(0, kind_bytes) + child_bytes(removed),
            UndoOp::UnsplitChild { path, .. } => path_bytes(path),
        }
    }
}

fn path_bytes(path: &ModulePath) -> usize {
    path.len() * std::mem::size_of::<usize>()
}

fn module_bytes(m: &RtlModule) -> usize {
    std::mem::size_of::<RtlModule>()
        + m.name().len()
        + m.fus().len() * 64
        + m.regs().len() * 48
        + m.behaviors().len() * 256
        + m.view().heap_bytes()
        + m.subs().iter().map(module_bytes).sum::<usize>()
}

fn state_bytes(s: &ModuleState) -> usize {
    std::mem::size_of::<ModuleState>()
        + s.core.name.len()
        + s.core.fu_groups.len() * 48
        + module_bytes(&s.built)
        + s.children.iter().map(child_bytes).sum::<usize>()
}

fn child_bytes(c: &Child) -> usize {
    std::mem::size_of::<Child>()
        + c.nodes.len() * std::mem::size_of::<NodeId>()
        + kind_bytes(&c.kind)
}

fn kind_bytes(k: &ChildKind) -> usize {
    match k {
        ChildKind::Single(s) => state_bytes(s),
        ChildKind::Opaque { module, origin } => module_bytes(module) + origin.len(),
    }
}

/// A LIFO journal of inverse edits, with marks for nested speculation.
#[derive(Debug, Default)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
    /// Approximate live bytes held by `ops`.
    bytes: usize,
    /// Peak of `bytes` over this log's lifetime.
    bytes_peak: usize,
}

/// A position in an [`UndoLog`], returned by [`UndoLog::mark`]: rolling
/// back to it undoes exactly the edits journaled after it was taken.
pub type UndoMark = usize;

impl UndoLog {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Journal one inverse edit.
    pub fn push(&mut self, op: UndoOp) {
        self.bytes += op.bytes();
        self.bytes_peak = self.bytes_peak.max(self.bytes);
        self.ops.push(op);
    }

    /// The current position; pass to [`rollback_to`](Self::rollback_to) to
    /// undo everything journaled after this point.
    pub fn mark(&self) -> UndoMark {
        self.ops.len()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Peak approximate byte footprint this journal reached.
    pub fn bytes_peak(&self) -> usize {
        self.bytes_peak
    }

    /// Replay (and discard) every record after `mark`, newest first,
    /// restoring `dp` to its state when the mark was taken.
    pub fn rollback_to(&mut self, dp: &mut DesignPoint, mark: UndoMark) {
        while self.ops.len() > mark {
            let op = self.ops.pop().expect("len > mark >= 0");
            self.bytes = self.bytes.saturating_sub(op.bytes());
            op.replay(dp);
        }
    }

    /// Replay the whole journal, restoring `dp` to its state when the
    /// journal was created (or last fully rolled back / committed).
    pub fn rollback_all(&mut self, dp: &mut DesignPoint) {
        self.rollback_to(dp, 0);
    }

    /// Discard every record up to the current position without replaying:
    /// the edits they would undo become permanent.
    pub fn commit(&mut self) {
        self.ops.clear();
        self.bytes = 0;
    }
}

/// One speculative edit session on a borrowed design: apply moves through
/// [`Transaction::apply`], then either [`commit`](Transaction::commit)
/// (keep the edits) or [`rollback`](Transaction::rollback) (restore the
/// design bit-exactly). Dropping an open transaction rolls it back — the
/// borrow can never leak a half-applied design.
///
/// ```
/// use hsyn_core::{Transaction, Move};
/// # use hsyn_core::{initial_solution, DesignPoint, OperatingPoint};
/// # use hsyn_rtl::ModuleLibrary;
/// # let b = hsyn_dfg::benchmarks::paulin();
/// # let mlib = ModuleLibrary::from_simple(hsyn_lib::papers::table1_library());
/// # let op = OperatingPoint::derive(&mlib.simple, 5.0, 10.0, 10_000.0);
/// # let top = initial_solution(&b.hierarchy, &mlib, &op).unwrap();
/// # let mut dp = DesignPoint { hierarchy: b.hierarchy.clone(), op, top };
/// let before = hsyn_rtl::module_fingerprint(&dp.hierarchy, &dp.top.built);
/// let mut tx = Transaction::begin(&mut dp);
/// tx.apply(&Move::RepackRegs { path: vec![] }, &mlib, &mut |_, _, _| None)
///     .expect("repack applies");
/// tx.rollback();
/// let after = hsyn_rtl::module_fingerprint(&dp.hierarchy, &dp.top.built);
/// assert_eq!(before, after);
/// ```
#[derive(Debug)]
pub struct Transaction<'a> {
    dp: &'a mut DesignPoint,
    log: UndoLog,
}

impl<'a> Transaction<'a> {
    /// Open a transaction on `dp`.
    pub fn begin(dp: &'a mut DesignPoint) -> Self {
        Transaction {
            dp,
            log: UndoLog::new(),
        }
    }

    /// Apply `mv` in place, journaling its inverse. On error the design is
    /// already restored to the pre-`apply` state (earlier applies of this
    /// transaction are kept).
    ///
    /// # Errors
    ///
    /// Exactly [`apply_in_place`](crate::apply_in_place)'s errors.
    #[allow(clippy::type_complexity)]
    pub fn apply(
        &mut self,
        mv: &crate::Move,
        mlib: &hsyn_rtl::ModuleLibrary,
        resynth: &mut dyn FnMut(&DesignPoint, &[usize], usize) -> Option<ChildKind>,
    ) -> Result<ModulePath, crate::ApplyError> {
        let relinks = &mut crate::Relinks::default();
        crate::moves::apply_in_place(self.dp, mv, mlib, resynth, &mut self.log, relinks)
    }

    /// The design as currently edited.
    pub fn design(&self) -> &DesignPoint {
        self.dp
    }

    /// Split-borrow the transaction into the design and its journal, for
    /// callers (the LNS reconstruction loop) that drive engine primitives
    /// needing both halves mutably at once. Edits made through the
    /// returned journal participate in this transaction's
    /// commit/rollback exactly like [`apply`](Transaction::apply)ed ones.
    pub fn parts(&mut self) -> (&mut DesignPoint, &mut UndoLog) {
        (self.dp, &mut self.log)
    }

    /// Keep every applied edit; the journal is discarded without replay.
    pub fn commit(mut self) {
        self.log.commit();
    }

    /// Undo every applied edit, restoring the design bit-exactly.
    /// (Equivalent to dropping the transaction; spelled out for call sites
    /// that want the intent visible.)
    pub fn rollback(self) {}
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        self.log.rollback_all(self.dp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Objective;
    use crate::design::{initial_solution, OperatingPoint};
    use crate::moves::{selection_candidates, sharing_candidates, splitting_candidates, Move};
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;
    use hsyn_rtl::{module_fingerprint, ModuleLibrary};

    fn fixture() -> (DesignPoint, ModuleLibrary) {
        let b = benchmarks::hier_paulin();
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = b.equiv.clone();
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("hier_paulin builds");
        (
            DesignPoint {
                hierarchy: b.hierarchy.clone(),
                op,
                top,
            },
            mlib,
        )
    }

    /// Every applicable candidate move, applied in place and rolled back,
    /// restores the design fingerprint bit-exactly.
    #[test]
    fn rollback_restores_fingerprint_for_every_candidate_family() {
        let (mut dp, mlib) = fixture();
        let baseline = module_fingerprint(&dp.hierarchy, &dp.top.built);
        let mut cands = Vec::new();
        cands.extend(selection_candidates(&dp, &mlib, Objective::Area, false));
        cands.extend(sharing_candidates(&dp, &mlib, Objective::Area));
        cands.extend(splitting_candidates(&dp, &mlib, Objective::Area));
        let mut applied = 0;
        let mut log = UndoLog::new();
        let relinks = &mut crate::Relinks::default();
        for (_, mv) in cands {
            let mark = log.mark();
            match crate::moves::apply_in_place(
                &mut dp,
                &mv,
                &mlib,
                &mut |_, _, _| None,
                &mut log,
                relinks,
            ) {
                Ok(_) => {
                    applied += 1;
                    assert_ne!(
                        module_fingerprint(&dp.hierarchy, &dp.top.built),
                        baseline,
                        "move {mv} should change the design"
                    );
                    log.rollback_to(&mut dp, mark);
                }
                Err(_) => assert_eq!(log.mark(), mark, "failed apply must self-rollback"),
            }
            assert_eq!(
                module_fingerprint(&dp.hierarchy, &dp.top.built),
                baseline,
                "rollback of {mv} must restore the design"
            );
        }
        assert!(applied > 5, "fixture should admit many moves: {applied}");
        assert!(log.bytes_peak() > 0);
        assert!(log.is_empty());
    }

    /// A chain of applies rolls back across marks, LIFO.
    #[test]
    fn nested_marks_unwind_in_order() {
        let (mut dp, mlib) = fixture();
        let fp0 = module_fingerprint(&dp.hierarchy, &dp.top.built);
        let mut log = UndoLog::new();
        let m0 = log.mark();
        crate::moves::apply_in_place(
            &mut dp,
            &Move::RepackRegs { path: vec![] },
            &mlib,
            &mut |_, _, _| None,
            &mut log,
            &mut crate::Relinks::default(),
        )
        .expect("repack applies");
        let fp1 = module_fingerprint(&dp.hierarchy, &dp.top.built);
        let m1 = log.mark();
        crate::moves::apply_in_place(
            &mut dp,
            &Move::DedicateRegs { path: vec![] },
            &mlib,
            &mut |_, _, _| None,
            &mut log,
            &mut crate::Relinks::default(),
        )
        .expect("dedicate applies");
        log.rollback_to(&mut dp, m1);
        assert_eq!(module_fingerprint(&dp.hierarchy, &dp.top.built), fp1);
        log.rollback_to(&mut dp, m0);
        assert_eq!(module_fingerprint(&dp.hierarchy, &dp.top.built), fp0);
    }

    /// Rebanking a memory in place and rolling back restores the design —
    /// spec tree, hierarchy (bank counts live in the DFG), and built RTL —
    /// bit-exactly; committing keeps the new bank count.
    #[test]
    fn rebank_rolls_back_byte_exact() {
        let b = benchmarks::matmul();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 100_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("matmul builds");
        let mut dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        let dfg = dp.top.core.dfg;
        let (mid, mem) = dp
            .hierarchy
            .dfg(dfg)
            .mems()
            .map(|(i, m)| (i, m.clone()))
            .next()
            .expect("matmul owns a memory");
        assert!(mem.words >= 2, "fixture memory must admit two banks");
        let fp0 = module_fingerprint(&dp.hierarchy, &dp.top.built);
        let banks0 = mem.banks.max(1);
        let mv = Move::RebankMem {
            path: vec![],
            mem: mid,
            banks: banks0 * 2,
        };
        {
            let mut tx = Transaction::begin(&mut dp);
            tx.apply(&mv, &mlib, &mut |_, _, _| None)
                .expect("rebank applies");
            let d = tx.design();
            assert_eq!(d.hierarchy.dfg(dfg).mem(mid).banks, banks0 * 2);
            assert_ne!(module_fingerprint(&d.hierarchy, &d.top.built), fp0);
        }
        assert_eq!(dp.hierarchy.dfg(dfg).mem(mid).banks, banks0);
        assert_eq!(module_fingerprint(&dp.hierarchy, &dp.top.built), fp0);
        let mut tx = Transaction::begin(&mut dp);
        tx.apply(&mv, &mlib, &mut |_, _, _| None)
            .expect("rebank applies");
        tx.commit();
        assert_eq!(dp.hierarchy.dfg(dfg).mem(mid).banks, banks0 * 2);
        // A no-op rebank (same count) is rejected without journaling.
        let mut tx = Transaction::begin(&mut dp);
        assert!(tx.apply(&mv, &mlib, &mut |_, _, _| None).is_err());
    }

    /// A rebank and its rollback through the journal leave the memory
    /// serialization edges and order the DFG caches equal to a fresh
    /// computation, and every rebuilt module's datapath view equal to a
    /// fresh derivation.
    #[test]
    fn rebank_rollback_keeps_cached_memory_edges_fresh() {
        let b = benchmarks::matmul();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 100_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("matmul builds");
        let mut dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        let dfg = dp.top.core.dfg;
        let check = |dp: &DesignPoint| {
            let g = dp.hierarchy.dfg(dfg);
            assert_eq!(g.mem_serial_edges(), hsyn_dfg::mem_serial_edges(g));
            assert_eq!(
                g.mem_topo_order().unwrap(),
                hsyn_dfg::mem_topo_order(g).unwrap()
            );
            assert_eq!(g.mem_order_pairs(), hsyn_dfg::mem_order_pairs(g));
            assert_eq!(hsyn_rtl::view_mismatch(&dp.hierarchy, &dp.top.built), None);
            g.mem_serial_edges().to_vec()
        };
        let before = check(&dp);
        let (mid, mem) = dp
            .hierarchy
            .dfg(dfg)
            .mems()
            .next()
            .expect("matmul owns a memory");
        let mv = Move::RebankMem {
            path: vec![],
            mem: mid,
            banks: mem.banks.max(1) * 2,
        };
        let mut log = UndoLog::new();
        let mark = log.mark();
        let relinks = &mut crate::Relinks::default();
        crate::moves::apply_in_place(&mut dp, &mv, &mlib, &mut |_, _, _| None, &mut log, relinks)
            .expect("rebank applies");
        let rebanked = check(&dp);
        assert_ne!(
            rebanked, before,
            "doubling the banks must change the bank chains"
        );
        log.rollback_to(&mut dp, mark);
        assert_eq!(check(&dp), before);
    }

    /// Dropping an open transaction rolls back; committing keeps the edit.
    #[test]
    fn transaction_drop_rolls_back_commit_keeps() {
        let (mut dp, mlib) = fixture();
        let fp0 = module_fingerprint(&dp.hierarchy, &dp.top.built);
        {
            let mut tx = Transaction::begin(&mut dp);
            tx.apply(&Move::RepackRegs { path: vec![] }, &mlib, &mut |_, _, _| {
                None
            })
            .expect("repack applies");
        }
        assert_eq!(module_fingerprint(&dp.hierarchy, &dp.top.built), fp0);
        let mut tx = Transaction::begin(&mut dp);
        tx.apply(&Move::RepackRegs { path: vec![] }, &mlib, &mut |_, _, _| {
            None
        })
        .expect("repack applies");
        let d = tx.design();
        let fp1 = module_fingerprint(&d.hierarchy, &d.top.built);
        tx.commit();
        assert_eq!(module_fingerprint(&dp.hierarchy, &dp.top.built), fp1);
        assert_ne!(fp0, fp1);
    }
}
