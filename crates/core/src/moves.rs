//! The engine's move set (paper Section 1):
//!
//! * **A** — replace a simple or complex module by a better-suited library
//!   element ([`Move::SetFuType`], [`Move::SwapChild`]);
//! * **B** — resynthesize a complex module under slack-relaxed constraints
//!   ([`Move::ResynthChild`]);
//! * **C** — merge two modules into one ([`Move::MergeFu`],
//!   [`Move::MergeChildren`] via RTL embedding, plus register packing);
//! * **D** — split a module to create new optimization opportunities
//!   ([`Move::SplitFu`], [`Move::SplitChild`], register dedication).
//!
//! Candidates are generated with cheap heuristic scores; the engine fully
//! evaluates (rebuild + reschedule + power simulation) only the top few.

use crate::cost::Objective;
use crate::design::{Child, ChildKind, DesignPoint, ModuleState, Relinks};
use crate::transact::{UndoLog, UndoOp};
use hsyn_dfg::{DfgId, MemId, MemScope, NodeId, NodeKind, Operation};
use hsyn_lib::{FuTypeId, Library};
use hsyn_rtl::{embed, BuildError, EmbedError, ModuleLibrary, RegPolicy};
use std::collections::BTreeSet;
use std::fmt;

/// Path from the top module to a descendant [`ModuleState`] (child indices;
/// empty = top).
pub type ModulePath = Vec<usize>;

/// One candidate transformation of a design point.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// Move *A* (simple): change the library type of a functional-unit
    /// group.
    SetFuType {
        /// Module containing the group.
        path: ModulePath,
        /// Group index.
        group: usize,
        /// New library type.
        fu_type: FuTypeId,
    },
    /// Move *C* (simple): merge functional-unit group `b` into `a` with the
    /// given shared type.
    MergeFu {
        /// Module containing both groups.
        path: ModulePath,
        /// Surviving group.
        a: usize,
        /// Group merged away (`b > a`).
        b: usize,
        /// Shared library type.
        fu_type: FuTypeId,
    },
    /// Move *D* (simple): split one operation out of a group into its own
    /// instance.
    SplitFu {
        /// Module containing the group.
        path: ModulePath,
        /// Group index.
        group: usize,
        /// Operation to split out.
        op: NodeId,
    },
    /// Move *C* (storage): left-edge register packing for the module.
    RepackRegs {
        /// Target module.
        path: ModulePath,
    },
    /// Move *D* (storage): dedicated registers for the module.
    DedicateRegs {
        /// Target module.
        path: ModulePath,
    },
    /// Move *A* (complex): replace a child's implementation with a library
    /// complex module, possibly rewriting the hierarchical nodes to an
    /// equivalent DFG.
    SwapChild {
        /// Parent module.
        path: ModulePath,
        /// Child index.
        child: usize,
        /// Library complex-module index.
        lib_idx: usize,
        /// The DFG the library module will execute for these nodes.
        dfg: DfgId,
    },
    /// Move *B*: resynthesize a child under its slack-relaxed constraint
    /// window.
    ResynthChild {
        /// Parent module.
        path: ModulePath,
        /// Child index.
        child: usize,
    },
    /// Move *C* (complex): merge two children — same behavior ⇒ share the
    /// instance; different behaviors ⇒ RTL embedding.
    MergeChildren {
        /// Parent module.
        path: ModulePath,
        /// Surviving child.
        a: usize,
        /// Child merged away (`b > a`).
        b: usize,
    },
    /// Move *D* (complex): split one hierarchical node out of a child into
    /// its own instance.
    SplitChild {
        /// Parent module.
        path: ModulePath,
        /// Child index.
        child: usize,
        /// Node to split out.
        node: NodeId,
    },
    /// Moves *C*/*D* (memory): change the bank count of an owned memory.
    /// Halving is a sharing move — accesses serialize onto fewer ports,
    /// saving port periphery area and bank leakage; doubling is a splitting
    /// move — parallel banks relax the scheduler's port-conflict edges.
    RebankMem {
        /// Module whose behavior DFG owns the memory.
        path: ModulePath,
        /// The memory within that DFG.
        mem: MemId,
        /// New bank count (≥ 1, ≤ word count).
        banks: u32,
    },
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::SetFuType {
                path,
                group,
                fu_type,
            } => {
                write!(f, "A:set-fu path={path:?} group={group} type={fu_type}")
            }
            Move::MergeFu { path, a, b, .. } => write!(f, "C:merge-fu path={path:?} {a}+{b}"),
            Move::SplitFu { path, group, op } => {
                write!(f, "D:split-fu path={path:?} group={group} op={op}")
            }
            Move::RepackRegs { path } => write!(f, "C:pack-regs path={path:?}"),
            Move::DedicateRegs { path } => write!(f, "D:dedicate-regs path={path:?}"),
            Move::SwapChild {
                path,
                child,
                lib_idx,
                ..
            } => {
                write!(f, "A:swap-child path={path:?} child={child} lib={lib_idx}")
            }
            Move::ResynthChild { path, child } => {
                write!(f, "B:resynth path={path:?} child={child}")
            }
            Move::MergeChildren { path, a, b } => {
                write!(f, "C:merge-children path={path:?} {a}+{b}")
            }
            Move::SplitChild { path, child, node } => {
                write!(f, "D:split-child path={path:?} child={child} node={node}")
            }
            Move::RebankMem { path, mem, banks } => {
                write!(f, "CD:rebank path={path:?} mem={mem} banks={banks}")
            }
        }
    }
}

/// Why applying a move failed (the candidate is simply discarded).
#[derive(Clone, Debug)]
pub enum ApplyError {
    /// Rebuild/reschedule failed.
    Build(BuildError),
    /// RTL embedding failed.
    Embed(EmbedError),
    /// The move no longer applies to the current design (stale candidate)
    /// or resynthesis produced nothing better.
    Rejected,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Build(e) => write!(f, "rebuild failed: {e}"),
            ApplyError::Embed(e) => write!(f, "embedding failed: {e}"),
            ApplyError::Rejected => write!(f, "move rejected"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<BuildError> for ApplyError {
    fn from(e: BuildError) -> Self {
        ApplyError::Build(e)
    }
}

impl From<EmbedError> for ApplyError {
    fn from(e: EmbedError) -> Self {
        ApplyError::Embed(e)
    }
}

/// Apply `mv` to `dp` **in place**, journaling the inverse of every edit in
/// `undo` so a rejected candidate is restored by replay instead of a clone.
/// `resynth` supplies move-*B* implementations (the engine recurses into a
/// bounded synthesis there). Returns the move's dirty path: the module
/// whose subtree the move structurally changed. Everything rooted there
/// must be re-fingerprinted; ancestors along the path only recombine
/// (their own specs are untouched, but their fingerprints fold in the
/// changed child), and subtrees off the path keep their builds.
///
/// Every pre-condition is checked *before* the first mutation, so a
/// rejected candidate usually journals nothing; if the post-edit rebuild
/// fails, the journal suffix written by this call is replayed before
/// returning, so `dp` is restored either way. Records pushed by earlier
/// calls on the same log are never touched. `relinks` says how the
/// rebuild relinks and counts its work.
///
/// # Panics
///
/// When [`Relinks::check`] is set and a relink's hinted build differs
/// from the same build from scratch.
///
/// # Errors
///
/// [`ApplyError`] when the resulting design fails to schedule or the move
/// is not applicable.
#[allow(clippy::type_complexity)]
pub fn apply_in_place(
    dp: &mut DesignPoint,
    mv: &Move,
    mlib: &ModuleLibrary,
    resynth: &mut dyn FnMut(&DesignPoint, &[usize], usize) -> Option<ChildKind>,
    undo: &mut UndoLog,
    relinks: &mut Relinks,
) -> Result<ModulePath, ApplyError> {
    let mark = undo.mark();
    if let Err(e) = edit_in_place(dp, mv, mlib, resynth, undo) {
        undo.rollback_to(dp, mark);
        return Err(e);
    }
    let dirty = dirty_path(mv);
    let rebuilt = dp.rebuild_at_journaled(&mlib.simple, &dirty, relinks, &mut |path, built| {
        undo.push(UndoOp::RestoreBuilt {
            path: path.to_vec(),
            built,
        });
    });
    if let Some(diff) = relinks.diverged.take() {
        panic!("incremental rebuild after move {mv} diverged from the build from scratch: {diff}");
    }
    if let Err(e) = rebuilt {
        undo.rollback_to(dp, mark);
        return Err(e.into());
    }
    Ok(dirty)
}

/// The spec-tree half of [`apply_in_place`]: the per-variant edit plus its
/// inverse record. Mutates only after every precondition has passed, so an
/// `Err` return needs no cleanup (`MergeChildren` validates and embeds
/// before its first edit for the same reason).
#[allow(clippy::type_complexity)]
fn edit_in_place(
    dp: &mut DesignPoint,
    mv: &Move,
    mlib: &ModuleLibrary,
    resynth: &mut dyn FnMut(&DesignPoint, &[usize], usize) -> Option<ChildKind>,
    undo: &mut UndoLog,
) -> Result<(), ApplyError> {
    let lib = &mlib.simple;
    match mv {
        Move::SetFuType {
            path,
            group,
            fu_type,
        } => {
            let m = dp.top.at_mut(path);
            let g = m
                .core
                .fu_groups
                .get_mut(*group)
                .ok_or(ApplyError::Rejected)?;
            if g.fu_type == *fu_type {
                return Err(ApplyError::Rejected);
            }
            undo.push(UndoOp::RestoreFuType {
                path: path.clone(),
                group: *group,
                fu_type: g.fu_type,
            });
            g.fu_type = *fu_type;
        }
        Move::MergeFu {
            path,
            a,
            b,
            fu_type,
        } => {
            let m = dp.top.at_mut(path);
            if *a >= *b || *b >= m.core.fu_groups.len() {
                return Err(ApplyError::Rejected);
            }
            let moved = m.core.fu_groups.remove(*b);
            let ga = &mut m.core.fu_groups[*a];
            undo.push(UndoOp::UnmergeFu {
                path: path.clone(),
                a: *a,
                b: *b,
                a_ops_len: ga.ops.len(),
                a_fu_type: ga.fu_type,
                b_fu_type: moved.fu_type,
            });
            ga.ops.extend(moved.ops);
            ga.fu_type = *fu_type;
        }
        Move::SplitFu { path, group, op } => {
            let m = dp.top.at_mut(path);
            let g = m
                .core
                .fu_groups
                .get_mut(*group)
                .ok_or(ApplyError::Rejected)?;
            if g.ops.len() < 2 || !g.ops.contains(op) {
                return Err(ApplyError::Rejected);
            }
            let pos = g.ops.iter().position(|o| o == op).expect("just checked");
            undo.push(UndoOp::UnsplitFu {
                path: path.clone(),
                group: *group,
                pos,
                op: *op,
            });
            g.ops.retain(|o| o != op);
            let fu_type = g.fu_type;
            m.core.fu_groups.push(hsyn_rtl::FuGroup {
                fu_type,
                ops: vec![*op],
            });
        }
        Move::RepackRegs { path } => {
            let m = dp.top.at_mut(path);
            if matches!(m.core.reg_policy, RegPolicy::Packed) {
                return Err(ApplyError::Rejected);
            }
            let old = std::mem::replace(&mut m.core.reg_policy, RegPolicy::Packed);
            undo.push(UndoOp::RestoreRegPolicy {
                path: path.clone(),
                policy: old,
            });
        }
        Move::DedicateRegs { path } => {
            let m = dp.top.at_mut(path);
            if matches!(m.core.reg_policy, RegPolicy::Dedicated) {
                return Err(ApplyError::Rejected);
            }
            let old = std::mem::replace(&mut m.core.reg_policy, RegPolicy::Dedicated);
            undo.push(UndoOp::RestoreRegPolicy {
                path: path.clone(),
                policy: old,
            });
        }
        Move::SwapChild {
            path,
            child,
            lib_idx,
            dfg,
        } => {
            let cm = mlib.complex.get(*lib_idx).ok_or(ApplyError::Rejected)?;
            let parent_dfg = dp.top.at(path).core.dfg;
            let m = dp.top.at_mut(path);
            let c = m.children.get_mut(*child).ok_or(ApplyError::Rejected)?;
            if c.nodes.len() != 1 {
                return Err(ApplyError::Rejected);
            }
            let node = c.nodes[0];
            let old = std::mem::replace(
                &mut c.kind,
                ChildKind::Opaque {
                    module: cm.module.clone(),
                    origin: format!("library:{}", cm.module.name()),
                },
            );
            undo.push(UndoOp::RestoreChildKind {
                path: path.clone(),
                child: *child,
                kind: Box::new(old),
            });
            // Move A may rewrite the node to an equivalent DFG.
            let old_callee = dp.hierarchy.replace_callee(parent_dfg, node, *dfg);
            undo.push(UndoOp::RestoreCallee {
                dfg: parent_dfg,
                node,
                callee: old_callee,
            });
        }
        Move::ResynthChild { path, child } => {
            let kind = resynth(dp, path, *child).ok_or(ApplyError::Rejected)?;
            let m = dp.top.at_mut(path);
            let c = m.children.get_mut(*child).ok_or(ApplyError::Rejected)?;
            let old = std::mem::replace(&mut c.kind, kind);
            undo.push(UndoOp::RestoreChildKind {
                path: path.clone(),
                child: *child,
                kind: Box::new(old),
            });
        }
        Move::MergeChildren { path, a, b } => {
            let parent_dfg = dp.top.at(path).core.dfg;
            // Validate and (when needed) embed before touching anything: a
            // half-done merge would be visible, so every early return must
            // precede the first edit.
            let merged_kind = {
                let m = dp.top.at(path);
                if *a >= *b || *b >= m.children.len() {
                    return Err(ApplyError::Rejected);
                }
                let g = dp.hierarchy.dfg(parent_dfg);
                let callee_of = |n: hsyn_dfg::NodeId| match g.node(n).kind() {
                    NodeKind::Hier { callee } => Some(*callee),
                    _ => None,
                };
                let removed = &m.children[*b];
                let callees: BTreeSet<DfgId> = removed
                    .nodes
                    .iter()
                    .map(|&n| callee_of(n))
                    .collect::<Option<_>>()
                    .ok_or(ApplyError::Rejected)?;
                let target = &m.children[*a];
                // A stateful behavior (internal z⁻ᵏ registers) cannot serve
                // two hierarchical nodes from one instance.
                let mut counts: std::collections::HashMap<DfgId, usize> =
                    std::collections::HashMap::new();
                for &n in target.nodes.iter().chain(removed.nodes.iter()) {
                    let callee = callee_of(n).ok_or(ApplyError::Rejected)?;
                    *counts.entry(callee).or_insert(0) += 1;
                }
                for (d, count) in counts {
                    if count >= 2 && dp.hierarchy.has_state(d) {
                        return Err(ApplyError::Rejected);
                    }
                }
                let covered = callees
                    .iter()
                    .all(|&d| target.module().behavior_for(d).is_some());
                if covered {
                    None
                } else {
                    let merged = embed(
                        &dp.hierarchy,
                        target.module(),
                        removed.module(),
                        lib,
                        format!("{}+{}", target.module().name(), removed.module().name()),
                    )?;
                    Some(ChildKind::Opaque {
                        module: merged.module,
                        origin: "embedded".to_owned(),
                    })
                }
            };
            let m = dp.top.at_mut(path);
            let removed = m.children.remove(*b);
            let target = &mut m.children[*a];
            let a_nodes_len = target.nodes.len();
            target.nodes.extend(removed.nodes.iter().copied());
            let a_kind = merged_kind.map(|k| Box::new(std::mem::replace(&mut target.kind, k)));
            undo.push(UndoOp::UnmergeChildren {
                path: path.clone(),
                a: *a,
                b: *b,
                a_nodes_len,
                a_kind,
                removed: Box::new(removed),
            });
        }
        Move::SplitChild { path, child, node } => {
            let m = dp.top.at_mut(path);
            let c = m.children.get_mut(*child).ok_or(ApplyError::Rejected)?;
            if c.nodes.len() < 2 || !c.nodes.contains(node) {
                return Err(ApplyError::Rejected);
            }
            let pos = c
                .nodes
                .iter()
                .position(|n| n == node)
                .expect("just checked");
            undo.push(UndoOp::UnsplitChild {
                path: path.clone(),
                child: *child,
                pos,
                node: *node,
            });
            c.nodes.retain(|n| n != node);
            let clone = Child {
                nodes: vec![*node],
                kind: c.kind.clone(),
            };
            m.children.push(clone);
        }
        Move::RebankMem { path, mem, banks } => {
            let dfg = dp.top.at(path).core.dfg;
            check_rebank(dp, dfg, *mem, *banks)?;
            let old = dp.hierarchy.dfg_mut(dfg).set_mem_banks(*mem, *banks);
            undo.push(UndoOp::RestoreMemBanks {
                dfg,
                mem: *mem,
                banks: old,
            });
        }
    }
    Ok(())
}

/// The root of the subtree a move edits: every variant carries the path of
/// the module whose core or child list it rewrites.
pub fn dirty_path(mv: &Move) -> ModulePath {
    match mv {
        Move::SetFuType { path, .. }
        | Move::MergeFu { path, .. }
        | Move::SplitFu { path, .. }
        | Move::RepackRegs { path }
        | Move::DedicateRegs { path }
        | Move::SwapChild { path, .. }
        | Move::ResynthChild { path, .. }
        | Move::MergeChildren { path, .. }
        | Move::SplitChild { path, .. }
        | Move::RebankMem { path, .. } => path.clone(),
    }
}

/// Preconditions of [`Move::RebankMem`]: the memory exists, is owned, the
/// new count differs and fits the word count, and exactly one module in the
/// built tree executes the DFG — any other executor's schedule, built under
/// the old bank constraint, would silently go stale (the rebuild only
/// revisits the dirty path).
fn check_rebank(dp: &DesignPoint, dfg: DfgId, mem: MemId, banks: u32) -> Result<(), ApplyError> {
    let g = dp.hierarchy.dfg(dfg);
    if mem.index() >= g.mem_count() {
        return Err(ApplyError::Rejected);
    }
    let m = g.mem(mem);
    if !matches!(m.scope, MemScope::Owned)
        || banks == 0
        || banks == m.banks
        || banks > m.words.max(1)
        || executor_count(&dp.top.built, dfg) != 1
    {
        return Err(ApplyError::Rejected);
    }
    Ok(())
}

/// Behaviors in the built RTL tree executing `dfg` (opaque library and
/// embedded modules count — they cannot be rebuilt, so a rebank touching
/// their DFG must be rejected).
fn executor_count(m: &hsyn_rtl::RtlModule, dfg: DfgId) -> usize {
    m.behaviors().iter().filter(|b| b.dfg == dfg).count()
        + m.subs()
            .iter()
            .map(|s| executor_count(s, dfg))
            .sum::<usize>()
}

/// A scored candidate: higher heuristic first; the engine evaluates the top
/// few exactly.
pub type Candidate = (f64, Move);

/// Rough per-module energy proxy of an RTL module: Σ FU energies.
fn module_energy_proxy(m: &hsyn_rtl::RtlModule, lib: &Library) -> f64 {
    let own: f64 = m.fus().iter().map(|f| lib.fu(f.fu_type).energy()).sum();
    own + m
        .subs()
        .iter()
        .map(|s| module_energy_proxy(s, lib))
        .sum::<f64>()
}

/// Rough per-module area proxy: Σ FU + register areas.
fn module_area_proxy(m: &hsyn_rtl::RtlModule, lib: &Library) -> f64 {
    let own: f64 = m
        .fus()
        .iter()
        .map(|f| lib.fu(f.fu_type).area())
        .sum::<f64>()
        + m.regs().len() as f64 * lib.register.area;
    own + m
        .subs()
        .iter()
        .map(|s| module_area_proxy(s, lib))
        .sum::<f64>()
}

/// Move *A*/*B* candidates: module selection for functional units, library
/// swaps and resynthesis for complex children.
pub fn selection_candidates(
    dp: &DesignPoint,
    mlib: &ModuleLibrary,
    objective: Objective,
    allow_resynth: bool,
) -> Vec<Candidate> {
    let lib = &mlib.simple;
    let types = TypeTable::new(lib);
    let mut out = Vec::new();
    dp.top.for_each(|path, m| {
        // Simple module selection.
        let g = dp.hierarchy.dfg(m.core.dfg);
        for (gi, grp) in m.core.fu_groups.iter().enumerate() {
            let mask = op_mask(g, &grp.ops);
            let cur = lib.fu(grp.fu_type);
            for (tid, t) in lib.fus() {
                if tid == grp.fu_type || !types.supports_all(tid, mask) {
                    continue;
                }
                let score = match objective {
                    Objective::Area => cur.area() - t.area(),
                    Objective::Power => (cur.energy() - t.energy()) * grp.ops.len() as f64,
                };
                out.push((
                    score,
                    Move::SetFuType {
                        path: path.to_vec(),
                        group: gi,
                        fu_type: tid,
                    },
                ));
            }
        }
        // Complex: swaps and resynthesis.
        for (ci, child) in m.children.iter().enumerate() {
            let callees: BTreeSet<DfgId> = child
                .nodes
                .iter()
                .filter_map(|&n| match g.node(n).kind() {
                    NodeKind::Hier { callee } => Some(*callee),
                    _ => None,
                })
                .collect();
            if callees.len() == 1 && child.nodes.len() == 1 {
                let callee = *callees.iter().next().unwrap();
                let cur_proxy = match objective {
                    Objective::Area => module_area_proxy(child.module(), lib),
                    Objective::Power => module_energy_proxy(child.module(), lib),
                };
                for (lib_idx, dfg) in mlib.candidates_for(callee, dp.op.clk_ref_ns) {
                    let cand = &mlib.complex[lib_idx].module;
                    if cand.name() == child.module().name() {
                        continue;
                    }
                    let cand_proxy = match objective {
                        Objective::Area => module_area_proxy(cand, lib),
                        Objective::Power => module_energy_proxy(cand, lib),
                    };
                    out.push((
                        cur_proxy - cand_proxy,
                        Move::SwapChild {
                            path: path.to_vec(),
                            child: ci,
                            lib_idx,
                            dfg,
                        },
                    ));
                }
            }
            if allow_resynth && callees.len() == 1 {
                // Bigger children first: more to gain from retailoring.
                let score = 1.0 + 0.01 * module_area_proxy(child.module(), lib);
                out.push((
                    score,
                    Move::ResynthChild {
                        path: path.to_vec(),
                        child: ci,
                    },
                ));
            }
        }
    });
    out
}

/// Bit of `op` in an operation-kind mask: its position in
/// [`Operation::ALL`].
fn op_bit(op: Operation) -> u16 {
    let i = Operation::ALL
        .iter()
        .position(|&o| o == op)
        .expect("every operation is listed in Operation::ALL");
    1 << i
}

/// The [`op_bit`] mask of the operation kinds among `nodes`.
fn op_mask(g: &hsyn_dfg::Dfg, nodes: &[NodeId]) -> u16 {
    nodes.iter().fold(0, |mask, &n| match g.node(n).kind() {
        NodeKind::Op(op) => mask | op_bit(*op),
        _ => mask,
    })
}

/// What move-*C* pair scoring reads of one functional-unit group, computed
/// once per module instead of once per pair.
struct GroupSummary {
    /// Operation kinds the group executes, as a mask of [`op_bit`]s.
    ops: u16,
    /// The zero-delay operand sources of the group's operations, sorted and
    /// deduplicated. Operations reading the same producers interleave
    /// *correlated* operand streams on a shared unit (cheap in power, and
    /// the shared source avoids a mux leg in area).
    sources: Vec<hsyn_dfg::VarRef>,
    /// Earliest occupied cycle in the current schedule (0 for a group
    /// without operations or a module without a schedule): a cheap
    /// feasibility signal for merges.
    start: u32,
}

impl GroupSummary {
    fn of(dp: &DesignPoint, m: &ModuleState, group: usize) -> Self {
        let g = dp.hierarchy.dfg(m.core.dfg);
        let members = &m.core.fu_groups[group].ops;
        let ops = op_mask(g, members);
        let mut sources = Vec::new();
        for &n in members {
            for (_, e) in g.in_edges(n) {
                if e.delay == 0 {
                    sources.push(e.from);
                }
            }
        }
        sources.sort_unstable();
        sources.dedup();
        let start = m.built.behaviors().first().map_or(0, |b| {
            members
                .iter()
                .map(|&n| b.schedule.time(n).occupied.0)
                .min()
                .unwrap_or(0)
        });
        GroupSummary {
            ops,
            sources,
            start,
        }
    }

    /// Number of sources shared with `other` (a merge of two sorted lists).
    fn common_sources(&self, other: &GroupSummary) -> usize {
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < self.sources.len() && j < other.sources.len() {
            match self.sources[i].cmp(&other.sources[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        common
    }
}

/// Library facts per operation-kind mask, memoized over one candidate
/// scan: which types support a mask, and the smallest-area type that does.
struct TypeTable<'l> {
    lib: &'l Library,
    /// Per library type, the mask of operations it supports.
    supported: Vec<u16>,
    /// Per mask, the smallest-area supporting type (`None` inside: no
    /// type supports the mask); `None` outside: not computed yet.
    best: Vec<Option<Option<FuTypeId>>>,
}

impl<'l> TypeTable<'l> {
    fn new(lib: &'l Library) -> Self {
        let supported = lib
            .fus()
            .map(|(_, f)| {
                Operation::ALL
                    .iter()
                    .filter(|&&op| f.supports(op))
                    .fold(0, |m, &op| m | op_bit(op))
            })
            .collect();
        TypeTable {
            lib,
            supported,
            best: vec![None; 1 << Operation::ALL.len()],
        }
    }

    fn supports_all(&self, t: FuTypeId, mask: u16) -> bool {
        mask & !self.supported[t.index()] == 0
    }

    /// The smallest-area library type able to execute every operation in
    /// `mask` (the first such type on ties).
    fn smallest(&mut self, mask: u16) -> Option<FuTypeId> {
        if let Some(best) = self.best[usize::from(mask)] {
            return best;
        }
        let best = self
            .lib
            .fus()
            .filter(|&(id, _)| self.supports_all(id, mask))
            .min_by(|(_, x), (_, y)| x.area().total_cmp(&y.area()))
            .map(|(id, _)| id);
        self.best[usize::from(mask)] = Some(best);
        best
    }
}

/// Move *C* candidates: FU merging, register packing, child merging.
pub fn sharing_candidates(
    dp: &DesignPoint,
    mlib: &ModuleLibrary,
    objective: Objective,
) -> Vec<Candidate> {
    let lib = &mlib.simple;
    let mut types = TypeTable::new(lib);
    let mut out = Vec::new();
    dp.top.for_each(|path, m| {
        let budget = m.core.deadline.unwrap_or(u32::MAX);
        let groups = &m.core.fu_groups;
        let summaries: Vec<GroupSummary> = (0..groups.len())
            .map(|gi| GroupSummary::of(dp, m, gi))
            .collect();
        for (a, sa) in summaries.iter().enumerate() {
            for (b, sb) in summaries.iter().enumerate().skip(a + 1) {
                let mask = sa.ops | sb.ops;
                let ta = groups[a].fu_type;
                let tb = groups[b].fu_type;
                let common_sources = sa.common_sources(sb);
                let earliest = sa.start.min(sb.start);
                // Two shared-type choices: the smallest-area type (for both
                // objectives), and the faster of the two current types
                // (when the small one would lengthen the schedule too
                // much).
                let smallest = types.smallest(mask);
                let faster = if lib.fu(ta).delay_ns() <= lib.fu(tb).delay_ns() {
                    ta
                } else {
                    tb
                };
                let faster = (types.supports_all(faster, mask) && smallest != Some(faster))
                    .then_some(faster);
                let n_ops = (groups[a].ops.len() + groups[b].ops.len()) as u32;
                for shared in smallest.into_iter().chain(faster) {
                    // Feasibility prune under the *candidate* type: the
                    // serialized occupancy must fit before the deadline.
                    let est_busy =
                        n_ops * lib.latency_cycles(shared, dp.op.clk_ref_ns, lib.technology.vref());
                    let slack_bonus = if budget == u32::MAX {
                        0.0
                    } else {
                        if earliest + est_busy > budget {
                            continue;
                        }
                        (budget - earliest - est_busy) as f64 * 0.01
                    };
                    let saved = lib.fu(ta).area() + lib.fu(tb).area()
                        - lib.fu(shared).area()
                        - 2.0 * lib.mux.area_per_input;
                    // Correlated-operand bonus: shared sources keep the
                    // merged unit's switching low (power) and avoid mux
                    // legs (area).
                    let affinity = common_sources as f64
                        * match objective {
                            Objective::Power => 0.5 * lib.fu(shared).energy(),
                            Objective::Area => lib.mux.area_per_input,
                        };
                    out.push((
                        saved + slack_bonus + affinity,
                        Move::MergeFu {
                            path: path.to_vec(),
                            a,
                            b,
                            fu_type: shared,
                        },
                    ));
                }
            }
        }
        if !matches!(m.core.reg_policy, RegPolicy::Packed) && !m.regs_trivial() {
            out.push((
                lib.register.area * m.built.regs().len() as f64 * 0.25,
                Move::RepackRegs {
                    path: path.to_vec(),
                },
            ));
        }
        // Children: merging identical behaviors is the big hierarchical
        // area win; anisomorphic pairs go through RTL embedding. Stateful
        // behaviors cannot be shared across contexts (cheap pre-filter;
        // `apply_in_place` re-validates).
        let g = dp.hierarchy.dfg(m.core.dfg);
        let child_callees = |c: &Child| -> Vec<DfgId> {
            c.nodes
                .iter()
                .filter_map(|&n| match g.node(n).kind() {
                    NodeKind::Hier { callee } => Some(*callee),
                    _ => None,
                })
                .collect()
        };
        for a in 0..m.children.len() {
            let callees_a = child_callees(&m.children[a]);
            for b in (a + 1)..m.children.len() {
                let callees_b = child_callees(&m.children[b]);
                let state_clash = callees_b
                    .iter()
                    .any(|d| callees_a.contains(d) && dp.hierarchy.has_state(*d));
                if state_clash {
                    continue;
                }
                let smaller = module_area_proxy(m.children[a].module(), lib)
                    .min(module_area_proxy(m.children[b].module(), lib));
                out.push((
                    smaller,
                    Move::MergeChildren {
                        path: path.to_vec(),
                        a,
                        b,
                    },
                ));
            }
        }
        // Memory: halve an owned memory's banks — fewer bank instances
        // mean less port periphery (area) and less standing leakage
        // (power); the scheduler re-serializes accesses and rejects the
        // move if the tightened port constraint misses the deadline.
        rebank_candidates(dp, path, m, lib, objective, false, &mut out);
    });
    out
}

/// [`Move::RebankMem`] candidates for one module: halving (`double =
/// false`, a sharing move) or doubling (`double = true`, a splitting move)
/// each owned memory's bank count. Scores are cheap model deltas; the
/// engine's exact evaluation decides.
fn rebank_candidates(
    dp: &DesignPoint,
    path: &[usize],
    m: &ModuleState,
    lib: &Library,
    objective: Objective,
    double: bool,
    out: &mut Vec<Candidate>,
) {
    let dfg = m.core.dfg;
    let g = dp.hierarchy.dfg(dfg);
    if g.mem_count() == 0 {
        return;
    }
    let mut accesses = vec![0u32; g.mem_count()];
    for (_, n) in g.nodes() {
        match n.kind() {
            NodeKind::Load { mem } | NodeKind::Store { mem } => accesses[mem.index()] += 1,
            _ => {}
        }
    }
    for (mid, mem) in g.mems() {
        if !matches!(mem.scope, MemScope::Owned) {
            continue;
        }
        let banks = mem.banks.max(1);
        let acc = f64::from(accesses[mid.index()]);
        if double {
            let to = banks * 2;
            if to > mem.words.max(1) {
                continue;
            }
            // More banks relax the per-cycle port constraint; worth more
            // the more accesses currently contend per bank.
            let score = match objective {
                Objective::Power => 0.5 * acc / f64::from(banks),
                Objective::Area => 0.1 * acc / f64::from(banks),
            };
            out.push((
                score,
                Move::RebankMem {
                    path: path.to_vec(),
                    mem: mid,
                    banks: to,
                },
            ));
        } else if banks >= 2 {
            let to = banks / 2;
            let score = match objective {
                Objective::Area => {
                    lib.memory.area(mem.words, mem.elem_width, mem.ports, banks)
                        - lib.memory.area(mem.words, mem.elem_width, mem.ports, to)
                }
                // Leakage is per bank per busy cycle; approximate busy
                // cycles by the module's first-behavior makespan.
                Objective::Power => {
                    let cycles = m
                        .built
                        .behaviors()
                        .first()
                        .map_or(1.0, |b| f64::from(b.schedule.makespan().max(1)));
                    f64::from(banks - to) * cycles * lib.memory.leakage_per_bank_cycle
                }
            };
            out.push((
                score,
                Move::RebankMem {
                    path: path.to_vec(),
                    mem: mid,
                    banks: to,
                },
            ));
        }
    }
}

/// Move *D* candidates: FU splitting, register dedication, child splitting.
pub fn splitting_candidates(
    dp: &DesignPoint,
    mlib: &ModuleLibrary,
    objective: Objective,
) -> Vec<Candidate> {
    let lib = &mlib.simple;
    let mut out = Vec::new();
    dp.top.for_each(|path, m| {
        for (gi, grp) in m.core.fu_groups.iter().enumerate() {
            if grp.ops.len() < 2 {
                continue;
            }
            let energy = lib.fu(grp.fu_type).energy();
            // Splitting helps power (less interleaving) and schedule slack;
            // try peeling the first and last op of the group.
            for &op in [grp.ops.first(), grp.ops.last()].into_iter().flatten() {
                let score = match objective {
                    Objective::Power => energy * 0.5 * (grp.ops.len() as f64 - 1.0),
                    Objective::Area => 0.1,
                };
                out.push((
                    score,
                    Move::SplitFu {
                        path: path.to_vec(),
                        group: gi,
                        op,
                    },
                ));
            }
        }
        if matches!(m.core.reg_policy, RegPolicy::Packed) {
            out.push((
                match objective {
                    Objective::Power => lib.register.energy_write * m.built.regs().len() as f64,
                    Objective::Area => 0.05,
                },
                Move::DedicateRegs {
                    path: path.to_vec(),
                },
            ));
        }
        for (ci, child) in m.children.iter().enumerate() {
            if child.nodes.len() < 2 {
                continue;
            }
            for &node in [child.nodes.first(), child.nodes.last()]
                .into_iter()
                .flatten()
            {
                let score = match objective {
                    Objective::Power => module_energy_proxy(child.module(), lib) * 0.3,
                    Objective::Area => 0.1,
                };
                out.push((
                    score,
                    Move::SplitChild {
                        path: path.to_vec(),
                        child: ci,
                        node,
                    },
                ));
            }
        }
        // Memory: double an owned memory's banks — parallel banks relax
        // the scheduler's same-bank port-conflict edges, shortening the
        // schedule at the cost of port periphery area and bank leakage.
        rebank_candidates(dp, path, m, lib, objective, true, &mut out);
    });
    out
}

impl ModuleState {
    /// Whether there is nothing to gain from register packing (0/1
    /// registers).
    fn regs_trivial(&self) -> bool {
        self.built.regs().len() <= 1
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Differential check of the move-*C* generator against the
    //! straightforward per-pair generator it replaced.

    use super::*;
    use crate::{synthesize, SynthesisConfig};
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The operations executed by a functional-unit group.
    fn group_ops(dp: &DesignPoint, m: &ModuleState, group: usize) -> BTreeSet<Operation> {
        let g = dp.hierarchy.dfg(m.core.dfg);
        m.core.fu_groups[group]
            .ops
            .iter()
            .filter_map(|&n| match g.node(n).kind() {
                NodeKind::Op(op) => Some(*op),
                _ => None,
            })
            .collect()
    }

    /// The zero-delay operand sources of a group's operations — used to score
    /// merge candidates: operations reading the same producers interleave
    /// *correlated* operand streams on a shared unit (cheap in power, and the
    /// shared source avoids a mux leg in area).
    fn group_sources(
        dp: &DesignPoint,
        m: &ModuleState,
        group: usize,
    ) -> BTreeSet<hsyn_dfg::VarRef> {
        let g = dp.hierarchy.dfg(m.core.dfg);
        let mut out = BTreeSet::new();
        for &op in &m.core.fu_groups[group].ops {
            for (_, e) in g.in_edges(op) {
                if e.delay == 0 {
                    out.insert(e.from);
                }
            }
        }
        out
    }

    /// Busy cycles and earliest start of a functional-unit group in the current
    /// schedule (cheap feasibility signals for merge candidates).
    fn group_busy(m: &ModuleState, group: usize) -> (u32, u32) {
        let Some(b) = m.built.behaviors().first() else {
            return (0, 0);
        };
        let mut busy = 0u32;
        let mut earliest = u32::MAX;
        for &op in &m.core.fu_groups[group].ops {
            let t = b.schedule.time(op);
            busy += t.occupied.1 - t.occupied.0;
            earliest = earliest.min(t.occupied.0);
        }
        (busy, if earliest == u32::MAX { 0 } else { earliest })
    }

    /// The generator as it was before per-group summaries: every pair
    /// rebuilds both groups' operation and source sets.
    pub(crate) fn reference_sharing_candidates(
        dp: &DesignPoint,
        mlib: &ModuleLibrary,
        objective: Objective,
    ) -> Vec<Candidate> {
        let lib = &mlib.simple;
        let mut out = Vec::new();
        dp.top.for_each(|path, m| {
            let budget = m.core.deadline.unwrap_or(u32::MAX);
            let n = m.core.fu_groups.len();
            for a in 0..n {
                let ops_a = group_ops(dp, m, a);
                let src_a = group_sources(dp, m, a);
                let (busy_a, start_a) = group_busy(m, a);
                for b in (a + 1)..n {
                    let mut ops = ops_a.clone();
                    ops.extend(group_ops(dp, m, b));
                    let ta = m.core.fu_groups[a].fu_type;
                    let tb = m.core.fu_groups[b].fu_type;
                    let src_b = group_sources(dp, m, b);
                    let common_sources = src_a.intersection(&src_b).count();
                    // Cheap feasibility prune: the serialized busy time must fit
                    // between the earliest start and the deadline.
                    let (_busy_b, start_b) = group_busy(m, b);
                    let earliest = start_a.min(start_b);
                    let _ = busy_a;
                    // Two shared-type choices: cheapest by objective, and the
                    // faster of the two current types (when the cheap one would
                    // lengthen the schedule too much).
                    let mut types: Vec<FuTypeId> = Vec::new();
                    if let Some(t) = best_type_for(lib, &ops, Objective::Area) {
                        types.push(t);
                    }
                    let ops_list: Vec<Operation> = ops.iter().copied().collect();
                    let faster = if lib.fu(ta).delay_ns() <= lib.fu(tb).delay_ns() {
                        ta
                    } else {
                        tb
                    };
                    if lib.fu(faster).supports_all(&ops_list) && !types.contains(&faster) {
                        types.push(faster);
                    }
                    let n_ops =
                        (m.core.fu_groups[a].ops.len() + m.core.fu_groups[b].ops.len()) as u32;
                    for shared in types {
                        // Feasibility prune under the *candidate* type: the
                        // serialized occupancy must fit before the deadline.
                        let est_busy = n_ops
                            * lib.latency_cycles(shared, dp.op.clk_ref_ns, lib.technology.vref());
                        let slack_bonus = if budget == u32::MAX {
                            0.0
                        } else {
                            if earliest + est_busy > budget {
                                continue;
                            }
                            (budget - earliest - est_busy) as f64 * 0.01
                        };
                        let saved = lib.fu(ta).area() + lib.fu(tb).area()
                            - lib.fu(shared).area()
                            - 2.0 * lib.mux.area_per_input;
                        // Correlated-operand bonus: shared sources keep the
                        // merged unit's switching low (power) and avoid mux
                        // legs (area).
                        let affinity = common_sources as f64
                            * match objective {
                                Objective::Power => 0.5 * lib.fu(shared).energy(),
                                Objective::Area => lib.mux.area_per_input,
                            };
                        out.push((
                            saved + slack_bonus + affinity,
                            Move::MergeFu {
                                path: path.to_vec(),
                                a,
                                b,
                                fu_type: shared,
                            },
                        ));
                    }
                }
            }
            if !matches!(m.core.reg_policy, RegPolicy::Packed) && !m.regs_trivial() {
                out.push((
                    lib.register.area * m.built.regs().len() as f64 * 0.25,
                    Move::RepackRegs {
                        path: path.to_vec(),
                    },
                ));
            }
            // Children: merging identical behaviors is the big hierarchical
            // area win; anisomorphic pairs go through RTL embedding. Stateful
            // behaviors cannot be shared across contexts (cheap pre-filter;
            // `apply_in_place` re-validates).
            let g = dp.hierarchy.dfg(m.core.dfg);
            let child_callees = |c: &Child| -> Vec<DfgId> {
                c.nodes
                    .iter()
                    .filter_map(|&n| match g.node(n).kind() {
                        NodeKind::Hier { callee } => Some(*callee),
                        _ => None,
                    })
                    .collect()
            };
            for a in 0..m.children.len() {
                let callees_a = child_callees(&m.children[a]);
                for b in (a + 1)..m.children.len() {
                    let callees_b = child_callees(&m.children[b]);
                    let state_clash = callees_b
                        .iter()
                        .any(|d| callees_a.contains(d) && dp.hierarchy.has_state(*d));
                    if state_clash {
                        continue;
                    }
                    let smaller = module_area_proxy(m.children[a].module(), lib)
                        .min(module_area_proxy(m.children[b].module(), lib));
                    out.push((
                        smaller,
                        Move::MergeChildren {
                            path: path.to_vec(),
                            a,
                            b,
                        },
                    ));
                }
            }
            // Memory: halve an owned memory's banks — fewer bank instances
            // mean less port periphery (area) and less standing leakage
            // (power); the scheduler re-serializes accesses and rejects the
            // move if the tightened port constraint misses the deadline.
            rebank_candidates(dp, path, m, lib, objective, false, &mut out);
        });
        out
    }

    /// The cheapest library type (by objective) able to execute all `ops`.
    fn best_type_for(
        lib: &Library,
        ops: &BTreeSet<Operation>,
        objective: Objective,
    ) -> Option<FuTypeId> {
        let ops: Vec<Operation> = ops.iter().copied().collect();
        lib.fus()
            .filter(|(_, f)| f.supports_all(&ops))
            .min_by(|(_, x), (_, y)| match objective {
                Objective::Area => x.area().total_cmp(&y.area()),
                Objective::Power => x.energy().total_cmp(&y.energy()),
            })
            .map(|(id, _)| id)
    }

    /// Scans checked by [`assert_matches_reference`], over all threads.
    static CHECKED_SCANS: AtomicUsize = AtomicUsize::new(0);

    /// The engine calls this on every move-*C* scan in test builds: `got`
    /// must equal the reference list move for move, score bit for bit.
    pub(crate) fn assert_matches_reference(
        dp: &DesignPoint,
        mlib: &ModuleLibrary,
        objective: Objective,
        got: &[Candidate],
    ) {
        let want = reference_sharing_candidates(dp, mlib, objective);
        assert_eq!(got.len(), want.len(), "candidate count ({objective:?})");
        for (i, ((gs, gm), (ws, wm))) in got.iter().zip(&want).enumerate() {
            assert_eq!(gm, wm, "candidate {i} ({objective:?})");
            assert_eq!(
                gs.to_bits(),
                ws.to_bits(),
                "score of candidate {i}: {gm} ({objective:?})"
            );
        }
        CHECKED_SCANS.fetch_add(1, Ordering::Relaxed);
    }

    /// Every registry design × {hierarchical, flat} × {area, power}: a
    /// short engine run checks the initial design and the design after
    /// every step (see [`assert_matches_reference`]).
    #[test]
    fn sharing_candidates_match_the_reference_generator() {
        for bench in benchmarks::all() {
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            for hierarchical in [true, false] {
                for objective in [Objective::Area, Objective::Power] {
                    let mut c = SynthesisConfig::new(objective);
                    c.hierarchical = hierarchical;
                    c.laxity_factor = 2.2;
                    c.max_passes = 2;
                    c.candidate_limit = 2;
                    c.max_moves_per_pass = Some(6);
                    c.eval_trace_len = 8;
                    c.report_trace_len = 16;
                    c.max_clock_candidates = 1;
                    c.resynth_depth = 1;
                    let before = CHECKED_SCANS.load(Ordering::Relaxed);
                    synthesize(&bench.hierarchy, &mlib, &c).unwrap_or_else(|e| {
                        panic!("{} hierarchical={hierarchical}: {e}", bench.name)
                    });
                    assert!(
                        CHECKED_SCANS.load(Ordering::Relaxed) > before,
                        "{}: no move-C scan was checked",
                        bench.name
                    );
                }
            }
        }
    }
}
