//! Structural fingerprints of built RTL modules.
//!
//! A fingerprint is a deterministic 64-bit hash of everything the cost
//! models read from a module: functional-unit types, register count,
//! behaviors (DFG *content*, schedule, binding, serialization edges,
//! profile), and submodules, recursively. Two modules with equal
//! fingerprints yield bit-identical [`module_area`](crate::module_area)
//! breakdowns and — given identical input traces — bit-identical activity
//! under the power simulator, which is what makes per-module cost caching
//! exact rather than approximate (see DESIGN.md, "Fingerprint stability").
//!
//! Names are deliberately **excluded**: resynthesis renames modules (the
//! `_resyn` suffix) without changing their cost, and no cost model reads a
//! name. DFGs are hashed by content, not by [`DfgId`], so a behavior
//! retargeted to an equivalent DFG with identical structure fingerprints
//! the same. The content hash is [`Dfg::content_hash`], cached on each
//! call-free DFG until its next mutation, so a refresh re-hashes only
//! modules, not their DFGs. The tables of a [`Binding`](crate::Binding) are folded in
//! ascending key order, and every `f64` is hashed via
//! [`f64::to_bits`], so fingerprints are stable across processes, threads,
//! and platforms.

//!
//! [`Dfg::content_hash`]: hsyn_dfg::Dfg::content_hash

use crate::module::{Behavior, RtlModule};
use hsyn_dfg::{ContentHasher as Fp, DfgId, Hierarchy};

/// State of one fingerprint walk: the DFG-fingerprint memo, a flat arena
/// indexed by [`DfgId::index`] (dense ids, so one branch and an array load
/// per lookup, no hashing), and the number of modules hashed.
struct Walk {
    dfgs: Vec<Option<u64>>,
    modules: u64,
}

impl Walk {
    fn new(h: &Hierarchy) -> Self {
        Walk {
            dfgs: vec![None; h.dfg_count()],
            modules: 0,
        }
    }
}

/// Per-section tags keep differently-shaped content from colliding when a
/// section is empty (e.g. a module with no FUs but one reg vs. one FU and
/// no regs).
mod tag {
    pub const FUS: u64 = 0xA1;
    pub const REGS: u64 = 0xA2;
    pub const BEHAVIOR: u64 = 0xA3;
    pub const SUBS: u64 = 0xA4;
    pub const DFG: u64 = 0xB1;
    pub const SCHEDULE: u64 = 0xB2;
    pub const BINDING: u64 = 0xB3;
    pub const SERIAL: u64 = 0xB4;
    pub const PROFILE: u64 = 0xB5;
}

/// The fingerprint of a module together with its submodules' fingerprints,
/// mirroring the [`RtlModule::subs`] tree. Incremental evaluation reuses
/// unchanged sibling subtrees without re-hashing them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FpTree {
    /// Fingerprint of the module rooted here (covers the whole subtree).
    pub fp: u64,
    /// Fingerprints of the submodules, in [`RtlModule::subs`] order.
    pub subs: Vec<FpTree>,
}

impl FpTree {
    /// The subtree addressed by `path` (child indices from this node);
    /// `None` when the path runs off the tree. Empty path ⇒ `self`.
    pub fn at(&self, path: &[usize]) -> Option<&FpTree> {
        let mut cur = self;
        for &i in path {
            cur = cur.subs.get(i)?;
        }
        Some(cur)
    }
}

/// Fingerprint the whole module tree rooted at `module`.
pub fn fingerprint_tree(h: &Hierarchy, module: &RtlModule) -> FpTree {
    fp_module(h, module, &mut Walk::new(h))
}

/// Fingerprint of the submodule of `module` addressed by `path` (child
/// indices into [`RtlModule::subs`], recursively; empty ⇒ `module` itself),
/// or `None` when the path runs off the tree.
///
/// The transactional engine's rollback-validity hook: after an undo-journal
/// replay restores a design, the fingerprint tree retained from *before*
/// the speculative move must still describe it — paranoid mode asserts
/// this by recomputing the rolled-back subtree's fingerprint here and
/// comparing it against [`FpTree::at`] on the retained tree. A mismatch
/// means the journal missed an edit, exactly the corruption that would
/// otherwise surface as a silently-wrong memo hit downstream.
pub fn fingerprint_at(h: &Hierarchy, module: &RtlModule, path: &[usize]) -> Option<u64> {
    let mut cur = module;
    for &i in path {
        cur = cur.subs().get(i)?;
    }
    Some(module_fingerprint(h, cur))
}

/// Fingerprint of `module` alone (the root of [`fingerprint_tree`]).
pub fn module_fingerprint(h: &Hierarchy, module: &RtlModule) -> u64 {
    fingerprint_tree(h, module).fp
}

/// Recompute the fingerprint tree of `module` after an edit confined to the
/// submodule subtree addressed by `dirty` (child indices from the root;
/// empty ⇒ the root itself changed, i.e. a full recomputation). Subtrees off
/// the dirty path are reused from `old` without re-hashing — valid because
/// module building is deterministic, so an untouched spec rebuilds to a
/// structurally identical module with the same fingerprint.
///
/// Falls back to a full recomputation whenever `old`'s shape no longer
/// matches `module` (e.g. the edit added or removed submodules above the
/// point the caller thought it did), so the result is always exactly
/// [`fingerprint_tree`]`(h, module)`. Adds the number of modules it hashed
/// to `hashed`.
pub fn refresh_fingerprint_tree(
    h: &Hierarchy,
    module: &RtlModule,
    old: &FpTree,
    dirty: &[usize],
    hashed: &mut u64,
) -> FpTree {
    let mut walk = Walk::new(h);
    let tree = refresh(h, module, old, dirty, &mut walk);
    *hashed += walk.modules;
    tree
}

fn refresh(
    h: &Hierarchy,
    module: &RtlModule,
    old: &FpTree,
    dirty: &[usize],
    walk: &mut Walk,
) -> FpTree {
    let Some((&next, rest)) = dirty.split_first() else {
        return fp_module(h, module, walk);
    };
    if old.subs.len() != module.subs().len() || next >= module.subs().len() {
        return fp_module(h, module, walk);
    }
    let subs: Vec<FpTree> = module
        .subs()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == next {
                refresh(h, s, &old.subs[i], rest, walk)
            } else {
                old.subs[i].clone()
            }
        })
        .collect();
    fp_module_with(h, module, subs, walk)
}

fn fp_module(h: &Hierarchy, module: &RtlModule, walk: &mut Walk) -> FpTree {
    let subs: Vec<FpTree> = module
        .subs()
        .iter()
        .map(|s| fp_module(h, s, walk))
        .collect();
    fp_module_with(h, module, subs, walk)
}

/// The non-recursive tail of [`fp_module`]: hash the module's own content
/// and fold in already-computed submodule fingerprints.
fn fp_module_with(h: &Hierarchy, module: &RtlModule, subs: Vec<FpTree>, walk: &mut Walk) -> FpTree {
    walk.modules += 1;
    let mut f = Fp::new();
    f.u64(tag::FUS);
    f.usize(module.fus().len());
    for fu in module.fus() {
        f.usize(fu.fu_type.index());
    }
    f.u64(tag::REGS);
    f.usize(module.regs().len());
    for b in module.behaviors() {
        f.u64(tag::BEHAVIOR);
        fp_behavior(&mut f, h, b, walk);
    }
    f.u64(tag::SUBS);
    f.usize(subs.len());
    for s in &subs {
        f.u64(s.fp);
    }
    FpTree {
        fp: f.finish(),
        subs,
    }
}

fn fp_behavior(f: &mut Fp, h: &Hierarchy, b: &Behavior, walk: &mut Walk) {
    f.u64(tag::DFG);
    f.u64(fp_dfg(h, b.dfg, walk));

    f.u64(tag::SCHEDULE);
    let sched = &b.schedule;
    f.u32(sched.makespan());
    for t in sched.times() {
        f.u32(t.start.cycle);
        f.f64(t.start.ns);
        f.u32(t.result.cycle);
        f.f64(t.result.ns);
        f.u32(t.occupied.0);
        f.u32(t.occupied.1);
    }
    for pt in sched.port_times() {
        match pt {
            None => f.u64(0),
            Some(v) => {
                f.usize(1 + v.len());
                for &c in v {
                    f.u32(c);
                }
            }
        }
    }

    f.u64(tag::BINDING);
    // The tables iterate in ascending key order; fingerprint values
    // (persisted in the goldens and the daemon's cache) depend on it.
    f.usize(b.binding.op_to_fu.len());
    for (n, fu) in b.binding.op_to_fu.iter() {
        f.usize(n.index());
        f.usize(fu.index());
    }
    f.usize(b.binding.var_to_reg.len());
    for (v, r) in b.binding.var_to_reg.iter() {
        f.usize(v.node.index());
        f.u32(u32::from(v.port));
        f.usize(r.index());
    }
    f.usize(b.binding.hier_to_sub.len());
    for (n, s) in b.binding.hier_to_sub.iter() {
        f.usize(n.index());
        f.usize(s.index());
    }

    f.u64(tag::SERIAL);
    f.usize(b.serial.len());
    for &(a, z) in &b.serial {
        f.usize(a.index());
        f.usize(z.index());
    }

    f.u64(tag::PROFILE);
    f.usize(b.profile.inputs.len());
    for &c in &b.profile.inputs {
        f.u32(c);
    }
    f.usize(b.profile.outputs.len());
    for &c in &b.profile.outputs {
        f.u32(c);
    }
}

/// The content hash of DFG `id` ([`Dfg::content_hash`]), memoized per
/// call tree: a call-free DFG answers from its own cache, and a DFG with
/// calls rehashes its content once per tree, reading its callees here.
///
/// [`Dfg::content_hash`]: hsyn_dfg::Dfg::content_hash
fn fp_dfg(h: &Hierarchy, id: DfgId, walk: &mut Walk) -> u64 {
    if let Some(fp) = walk.dfgs[id.index()] {
        return fp;
    }
    let fp = h.dfg(id).content_hash(|callee| fp_dfg(h, callee, walk));
    walk.dfgs[id.index()] = Some(fp);
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::{Dfg, Operation, VarRef};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};

    fn sop(h: &mut Hierarchy, name: &str) -> DfgId {
        let mut g = Dfg::new(name);
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[c, d]);
        let s = g.add_op(Operation::Add, "s", &[m1, m2]);
        g.add_output("y", s);
        h.add_dfg(g)
    }

    fn built(h: &Hierarchy, dfg: DfgId, name: &str) -> RtlModule {
        let lib = table1_library();
        let ctx = crate::BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let spec = crate::ModuleSpec::dedicated(
            h,
            dfg,
            name,
            |_, op| lib.fastest_for(op).unwrap(),
            |_, _| unreachable!(),
        );
        crate::build(h, &spec, &ctx).unwrap()
    }

    #[test]
    fn fingerprint_ignores_names_but_not_structure() {
        let mut h = Hierarchy::new();
        let d1 = sop(&mut h, "first");
        let d2 = sop(&mut h, "second");
        h.set_top(d1);
        let m1 = built(&h, d1, "impl_a");
        let m2 = built(&h, d2, "impl_b");
        // Same structure, different names and DfgIds: equal fingerprints.
        assert_eq!(module_fingerprint(&h, &m1), module_fingerprint(&h, &m2));
        assert_eq!(h.content_hash(d1), h.content_hash(d2));

        // A structurally different DFG fingerprints differently.
        let mut g = Dfg::new("third");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.add_op(Operation::Sub, "s", &[a, b]);
        g.add_output("y", s);
        let d3 = h.add_dfg(g);
        assert_ne!(h.content_hash(d1), h.content_hash(d3));
        let m3 = built(&h, d3, "impl_c");
        assert_ne!(module_fingerprint(&h, &m1), module_fingerprint(&h, &m3));
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let mut h = Hierarchy::new();
        let d = sop(&mut h, "g");
        h.set_top(d);
        let m = built(&h, d, "m");
        let t1 = fingerprint_tree(&h, &m);
        let t2 = fingerprint_tree(&h, &m);
        assert_eq!(t1, t2);
        assert_eq!(t1.fp, module_fingerprint(&h, &m));
        assert!(t1.subs.is_empty());
    }

    #[test]
    fn refresh_matches_full_recomputation() {
        let mut h = Hierarchy::new();
        let d = sop(&mut h, "g");
        h.set_top(d);
        let m = built(&h, d, "m");
        let old = fingerprint_tree(&h, &m);

        // Root-dirty refresh is a full recomputation.
        let mut hashed = 0;
        assert_eq!(
            refresh_fingerprint_tree(&h, &m, &old, &[], &mut hashed),
            old
        );
        // A stale path (no such child) falls back to full recomputation
        // instead of producing a wrong tree.
        assert_eq!(
            refresh_fingerprint_tree(&h, &m, &old, &[3], &mut hashed),
            old
        );
        assert_eq!(hashed, 2, "one module, hashed by each refresh");

        // With submodules: dirty path into one child reuses the sibling.
        let sub_a = built(&h, d, "sub_a");
        let sub_b = built(&h, d, "sub_b");
        let parent = RtlModule::new(
            &h,
            "parent",
            m.fus().to_vec(),
            m.regs().to_vec(),
            vec![sub_a, sub_b],
            m.behaviors().to_vec(),
        );
        let full = fingerprint_tree(&h, &parent);
        let mut hashed = 0;
        assert_eq!(
            refresh_fingerprint_tree(&h, &parent, &full, &[0], &mut hashed),
            full
        );
        assert_eq!(
            hashed, 2,
            "the dirty child and the root; the sibling is reused"
        );
        assert_eq!(
            refresh_fingerprint_tree(&h, &parent, &full, &[1], &mut hashed),
            full
        );
        assert_eq!(hashed, 4);
    }

    #[test]
    fn fingerprint_sees_register_and_fu_changes() {
        let mut h = Hierarchy::new();
        let d = sop(&mut h, "g");
        h.set_top(d);
        let m = built(&h, d, "m");
        let base = module_fingerprint(&h, &m);
        let mut fewer_regs = m.clone();
        let mut regs = fewer_regs.regs().to_vec();
        regs.pop();
        fewer_regs = RtlModule::new(
            &h,
            "m",
            fewer_regs.fus().to_vec(),
            regs,
            vec![],
            fewer_regs.behaviors().to_vec(),
        );
        assert_ne!(base, module_fingerprint(&h, &fewer_regs));
    }

    #[test]
    fn editing_a_callee_changes_its_callers_fingerprint() {
        let mut h = Hierarchy::new();
        let leaf = sop(&mut h, "leaf");
        let mut top = Dfg::new("top");
        let ins: Vec<VarRef> = (0..4).map(|i| top.add_input(format!("x{i}"))).collect();
        let call = top.add_hier(leaf, "c", &ins);
        top.add_output("y", VarRef::new(call, 0));
        let top = h.add_dfg(top);
        h.set_top(top);
        let (leaf_before, top_before) = (h.content_hash(leaf), h.content_hash(top));
        // Warm the callee's cached hash, then edit it: a new constant node.
        assert_eq!(h.content_hash(leaf), leaf_before);
        h.dfg_mut(leaf).add_const("k", 3);
        assert_ne!(h.content_hash(leaf), leaf_before);
        assert_ne!(h.content_hash(top), top_before, "the caller sees the edit");
        // Rebanking a callee memory reaches the caller the same way.
        let with_mem = h.content_hash(top);
        let m = h
            .dfg_mut(leaf)
            .add_mem(hsyn_dfg::MemObject::owned("m", 4, 16));
        let declared = h.content_hash(top);
        assert_ne!(declared, with_mem);
        h.dfg_mut(leaf).set_mem_banks(m, 2);
        assert_ne!(h.content_hash(top), declared);
    }
}
