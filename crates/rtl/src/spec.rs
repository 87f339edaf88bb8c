//! Module specifications and the builder turning them into scheduled,
//! assigned [`RtlModule`]s.
//!
//! The synthesis engine's moves never mutate RTL directly: they edit a
//! [`ModuleSpec`] (which operations share which functional-unit instance, of
//! which library type; which hierarchical nodes share which submodule) and
//! call [`build`]. The builder derives orderings, schedules, binds
//! registers, checks validity, and computes the profile — so every candidate
//! move is validated exactly the way the paper prescribes ("when a move is
//! performed, its validity is checked by scheduling").

use crate::connect::{packed_links, DatapathView};
use crate::instance::{FuInstId, FuInstance, RegId, RegInstance, SubId};
use crate::module::{Behavior, Binding, RtlModule};
use crate::table::{NodeTable, SlotId, VarTable};
use hsyn_dfg::{DfgId, Hierarchy, NodeId, NodeKind, VarRef};
use hsyn_lib::{FuTypeId, Library};
use hsyn_sched::{
    alap_starts, asap_priority, derive_orderings, schedule, NodeDelay, Profile, SchedContext,
    SchedError, Schedule,
};
use std::fmt;

/// One functional-unit instance to create: a library type plus the operation
/// nodes bound to it.
#[derive(Clone, Debug)]
pub struct FuGroup {
    /// Library type of the instance.
    pub fu_type: FuTypeId,
    /// Operation nodes executed on this instance.
    pub ops: Vec<NodeId>,
}

/// One submodule instance to create: a prebuilt RTL module plus the
/// hierarchical nodes mapped to it.
#[derive(Clone, Debug)]
pub struct SubSpec {
    /// The implementation (must have a behavior for each node's callee DFG).
    pub module: RtlModule,
    /// Hierarchical nodes executed on this instance.
    pub nodes: Vec<NodeId>,
}

/// Register assignment policy.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum RegPolicy {
    /// One register per stored variable (the completely parallel
    /// architecture of `INITIAL_SOLUTION`).
    #[default]
    Dedicated,
    /// Explicit sharing groups; each inner vector shares one register.
    /// Variables not listed get dedicated registers.
    Groups(Vec<Vec<VarRef>>),
    /// Left-edge register allocation derived from the schedule on every
    /// build: the minimum register count for the achieved lifetimes
    /// (values crossing iterations still get dedicated registers).
    Packed,
}

/// A buildable description of one RTL module implementing one DFG.
#[derive(Clone, Debug)]
pub struct ModuleSpec {
    /// Module name.
    pub name: String,
    /// The DFG to implement.
    pub dfg: DfgId,
    /// Functional-unit instances and their operation groups.
    pub fu_groups: Vec<FuGroup>,
    /// Submodule instances and their hierarchical-node groups.
    pub subs: Vec<SubSpec>,
    /// Register sharing policy.
    pub reg_policy: RegPolicy,
}

impl ModuleSpec {
    /// The completely parallel spec of `INITIAL_SOLUTION`: one functional
    /// unit per operation (type chosen by `fu_for`), one submodule instance
    /// per hierarchical node (implementation chosen by `sub_for`), dedicated
    /// registers.
    pub fn dedicated(
        h: &Hierarchy,
        dfg: DfgId,
        name: impl Into<String>,
        mut fu_for: impl FnMut(NodeId, hsyn_dfg::Operation) -> FuTypeId,
        mut sub_for: impl FnMut(NodeId, DfgId) -> RtlModule,
    ) -> ModuleSpec {
        let g = h.dfg(dfg);
        let mut fu_groups = Vec::new();
        let mut subs = Vec::new();
        for (nid, node) in g.nodes() {
            match node.kind() {
                NodeKind::Op(op) => fu_groups.push(FuGroup {
                    fu_type: fu_for(nid, *op),
                    ops: vec![nid],
                }),
                NodeKind::Hier { callee } => subs.push(SubSpec {
                    module: sub_for(nid, *callee),
                    nodes: vec![nid],
                }),
                _ => {}
            }
        }
        ModuleSpec {
            name: name.into(),
            dfg,
            fu_groups,
            subs,
            reg_policy: RegPolicy::Dedicated,
        }
    }
}

/// Context for building: library, operating point, and the timing
/// constraints the module must satisfy (the paper's constraint set *C*, or
/// a relaxed [`ConstraintWindow`](hsyn_sched::ConstraintWindow) during
/// move-*B* resynthesis).
#[derive(Clone, Debug)]
pub struct BuildCtx<'a> {
    /// The simple-module library.
    pub lib: &'a Library,
    /// Clock period in ns.
    pub clk_ns: f64,
    /// Supply voltage.
    pub vdd: f64,
    /// Expected input arrival cycles (`None` ⇒ all zero); becomes the
    /// profile's input expectations.
    pub input_arrivals: Option<Vec<u32>>,
    /// Deadline cycle per output (`None` ⇒ only `sampling_period`).
    pub output_deadlines: Option<Vec<u32>>,
    /// Global completion deadline in cycles.
    pub sampling_period: Option<u32>,
}

impl<'a> BuildCtx<'a> {
    /// A context with inputs at cycle 0 and the given deadline.
    pub fn new(lib: &'a Library, clk_ns: f64, vdd: f64, sampling_period: Option<u32>) -> Self {
        BuildCtx {
            lib,
            clk_ns,
            vdd,
            input_arrivals: None,
            output_deadlines: None,
            sampling_period,
        }
    }

    fn sched_context(&self) -> SchedContext {
        SchedContext {
            clk_ns: self.clk_ns,
            overhead_ns: self.lib.register.overhead_ns,
            input_arrivals: self.input_arrivals.clone(),
            output_deadlines: self.output_deadlines.clone(),
            sampling_period: self.sampling_period,
        }
    }
}

/// Why building a module from a spec failed — each case invalidates the
/// candidate move that produced the spec.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// An operation node is not covered by exactly one FU group (or a
    /// hierarchical node by one sub group).
    BadCover {
        /// The uncovered / multiply covered node.
        node: NodeId,
    },
    /// A group's library type cannot execute one of its operations.
    UnsupportedOp {
        /// The offending node.
        node: NodeId,
    },
    /// A submodule lacks a behavior for a node's callee DFG.
    MissingBehavior {
        /// The offending hierarchical node.
        node: NodeId,
    },
    /// Scheduling failed (ordering cycle, deadline, ...).
    Sched(SchedError),
    /// Two variables sharing a register have overlapping lifetimes.
    RegisterConflict {
        /// First conflicting variable.
        a: VarRef,
        /// Second conflicting variable.
        b: VarRef,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadCover { node } => {
                write!(f, "node {node} not covered by exactly one group")
            }
            BuildError::UnsupportedOp { node } => {
                write!(f, "group type cannot execute operation at {node}")
            }
            BuildError::MissingBehavior { node } => {
                write!(f, "submodule lacks a behavior for hierarchical node {node}")
            }
            BuildError::Sched(e) => write!(f, "scheduling failed: {e}"),
            BuildError::RegisterConflict { a, b } => {
                write!(f, "variables {a} and {b} overlap in a shared register")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SchedError> for BuildError {
    fn from(e: SchedError) -> Self {
        BuildError::Sched(e)
    }
}

/// A borrowed [`ModuleSpec`]: the same fields, with the submodules and
/// groups left wherever the caller keeps them. [`build_ref`] clones the
/// submodules into the result only when the build succeeds, so a caller
/// that owns its children elsewhere (the synthesis engine's spec tree)
/// pays no copy for a rejected candidate.
#[derive(Clone, Debug)]
pub struct SpecRef<'a> {
    /// Module name.
    pub name: &'a str,
    /// The DFG to implement.
    pub dfg: DfgId,
    /// Functional-unit instances and their operation groups.
    pub fu_groups: &'a [FuGroup],
    /// Submodule instances: each implementation with its hierarchical
    /// nodes.
    pub subs: Vec<(&'a RtlModule, &'a [NodeId])>,
    /// Register sharing policy.
    pub reg_policy: &'a RegPolicy,
}

/// Build (schedule + assign + validate) an RTL module from `spec`.
///
/// # Errors
///
/// See [`BuildError`]; any error means the spec is not a valid design point
/// and the candidate move producing it must be rejected.
pub fn build(
    h: &Hierarchy,
    spec: &ModuleSpec,
    ctx: &BuildCtx<'_>,
) -> Result<RtlModule, BuildError> {
    let spec = SpecRef {
        name: &spec.name,
        dfg: spec.dfg,
        fu_groups: &spec.fu_groups,
        subs: spec
            .subs
            .iter()
            .map(|s| (&s.module, s.nodes.as_slice()))
            .collect(),
        reg_policy: &spec.reg_policy,
    };
    build_ref(h, &spec, ctx)
}

/// Node-indexed group table: the group listing each node, as the id
/// `id(group index)`; the table becomes the binding's node map.
///
/// # Errors
///
/// [`BuildError::BadCover`] for a node listed twice or outside the DFG.
fn cover_table<'s, T: SlotId>(
    node_count: usize,
    groups: impl Iterator<Item = &'s [NodeId]>,
    id: impl Fn(usize) -> T,
) -> Result<NodeTable<T>, BuildError> {
    let mut table = NodeTable::with_nodes(node_count);
    for (gi, members) in groups.enumerate() {
        for &n in members {
            if n.index() >= node_count || table.insert(n, id(gi)).is_some() {
                return Err(BuildError::BadCover { node: n });
            }
        }
    }
    Ok(table)
}

/// [`build`] from a borrowed spec.
///
/// # Errors
///
/// As [`build`].
pub fn build_ref(
    h: &Hierarchy,
    spec: &SpecRef<'_>,
    ctx: &BuildCtx<'_>,
) -> Result<RtlModule, BuildError> {
    let g = h.dfg(spec.dfg);

    // --- Coverage tables -----------------------------------------------------
    let op_to_fu = cover_table(
        g.node_count(),
        spec.fu_groups.iter().map(|grp| grp.ops.as_slice()),
        FuInstId::from_index,
    )?;
    let hier_to_sub = cover_table(
        g.node_count(),
        spec.subs.iter().map(|s| s.1),
        SubId::from_index,
    )?;
    for (nid, node) in g.nodes() {
        match node.kind() {
            NodeKind::Op(op) => {
                let Some(fu) = op_to_fu.get(nid) else {
                    return Err(BuildError::BadCover { node: nid });
                };
                if !ctx.lib.fu(spec.fu_groups[fu.index()].fu_type).supports(*op) {
                    return Err(BuildError::UnsupportedOp { node: nid });
                }
            }
            NodeKind::Hier { callee } => {
                let Some(sub) = hier_to_sub.get(nid) else {
                    return Err(BuildError::BadCover { node: nid });
                };
                if spec.subs[sub.index()].0.behavior_for(*callee).is_none() {
                    return Err(BuildError::MissingBehavior { node: nid });
                }
            }
            _ => {}
        }
    }

    // --- Delays and orderings ---------------------------------------------
    // One delay per node, computed once for the priorities and the
    // schedule.
    let delays: Vec<NodeDelay> = g
        .nodes()
        .map(|(nid, node)| match node.kind() {
            NodeKind::Op(_) => {
                let fu_type = spec.fu_groups[op_to_fu[&nid].index()].fu_type;
                let fu = ctx.lib.fu(fu_type);
                if fu.is_pipelined() {
                    NodeDelay::Pipelined {
                        stages: ctx.lib.latency_cycles(fu_type, ctx.clk_ns, ctx.vdd),
                    }
                } else {
                    NodeDelay::Combinational {
                        ns: ctx.lib.technology.scale_delay(fu.delay_ns(), ctx.vdd),
                    }
                }
            }
            NodeKind::Hier { callee } => {
                let profile = spec.subs[hier_to_sub[&nid].index()]
                    .0
                    .profile_for(*callee)
                    .expect("checked above")
                    .clone();
                NodeDelay::Profiled(profile)
            }
            // Memory accesses occupy their bank's issue slot for one cycle
            // (synchronous single-cycle SRAM); a load's data arrives at the
            // next boundary, so results are registered, never chained.
            NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
            _ => NodeDelay::Free,
        })
        .collect();

    // Ordering priorities: unconstrained ASAP in rough cycle units.
    let prio = asap_priority(g, |n| match &delays[n.index()] {
        NodeDelay::Free => 0,
        &NodeDelay::Combinational { ns } => {
            ((ns / (ctx.clk_ns - ctx.lib.register.overhead_ns)).ceil() as u64).max(1)
        }
        &NodeDelay::Pipelined { stages } => u64::from(stages),
        NodeDelay::Profiled(p) => u64::from(p.latency()).max(1),
    });
    // Resource keys for ordering: FU groups and sub groups with >= 2 nodes,
    // as dense indices (sub groups numbered after the FU groups).
    let fu_count = spec.fu_groups.len();
    let mut serial = derive_orderings(
        g,
        |n| {
            if let Some(fu) = op_to_fu.get(n) {
                if spec.fu_groups[fu.index()].ops.len() > 1 {
                    return Some(fu.index());
                }
            }
            match hier_to_sub.get(n) {
                Some(sub) if spec.subs[sub.index()].1.len() > 1 => Some(fu_count + sub.index()),
                _ => None,
            }
        },
        &prio,
    );
    // Memory correctness (program order) and per-bank port limits ride the
    // same serialization mechanism as shared functional units. Ordering
    // edges come from disjoint groups and are unique already; only memory
    // edges can repeat one.
    let mem_edges = g.mem_serial_edges();
    if !mem_edges.is_empty() {
        serial.extend_from_slice(mem_edges);
        let mut seen = std::collections::HashSet::new();
        serial.retain(|&e| seen.insert(e));
    }

    // --- Schedule -----------------------------------------------------------
    let sctx = ctx.sched_context();
    let sched = schedule(g, |n| &delays[n.index()], &serial, &sctx)?;

    // --- Registers ----------------------------------------------------------
    let storage = storage_analysis(g, &sched);
    let (reg_of, reg_count) = allocate_registers(&storage, spec.reg_policy)?;
    let regs = vec![RegInstance; reg_count as usize];

    // --- Assemble -----------------------------------------------------------
    let fus: Vec<FuInstance> = spec
        .fu_groups
        .iter()
        .enumerate()
        .map(|(i, grp)| FuInstance {
            fu_type: grp.fu_type,
            tag: i as u32,
        })
        .collect();
    let binding = Binding {
        op_to_fu,
        var_to_reg: VarTable::from_sorted(
            storage
                .stored_vars
                .iter()
                .zip(&reg_of)
                .map(|(&v, &r)| (v, RegId::from_index(r as usize)))
                .collect(),
        ),
        hier_to_sub,
    };

    let profile = derive_profile(g, &sched, &sctx);
    let behavior = Behavior {
        dfg: spec.dfg,
        binding,
        schedule: sched,
        serial,
        profile,
    };
    // The datapath view from the storage analysis and binding in hand.
    let links = packed_links(g, &behavior, &storage);
    let behaviors = vec![behavior];
    let view = DatapathView::from_links(h, fus.len(), &behaviors, links);
    Ok(RtlModule::with_view(
        spec.name,
        fus,
        regs,
        spec.subs.iter().map(|(m, _)| (*m).clone()).collect(),
        behaviors,
        view,
    ))
}

/// Register allocation under `policy`: the register index of every stored
/// variable, aligned with `storage.stored_vars`, and the register count.
/// Registers are numbered in creation order.
///
/// # Errors
///
/// [`BuildError::RegisterConflict`] when an explicit sharing group holds
/// two variables with overlapping lifetimes.
fn allocate_registers(
    storage: &StorageAnalysis,
    policy: &RegPolicy,
) -> Result<(Vec<u32>, u32), BuildError> {
    /// Not assigned yet: no register, or no pool slot.
    const UNASSIGNED: u32 = u32::MAX;
    let stored = &storage.stored_vars;
    let n = stored.len() as u32;
    match policy {
        RegPolicy::Dedicated => Ok(((0..n).collect(), n)),
        RegPolicy::Groups(groups) => {
            let mut reg_of = vec![UNASSIGNED; stored.len()];
            let mut count = 0u32;
            for group in groups {
                let members: Vec<usize> = group
                    .iter()
                    .filter_map(|v| stored.binary_search(v).ok())
                    .collect();
                if members.is_empty() {
                    continue;
                }
                // Pairwise lifetime compatibility.
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        if storage.conflicts_at(members[i], members[j]) {
                            return Err(BuildError::RegisterConflict {
                                a: stored[members[i]],
                                b: stored[members[j]],
                            });
                        }
                    }
                }
                for m in members {
                    reg_of[m] = count;
                }
                count += 1;
            }
            for r in &mut reg_of {
                if *r == UNASSIGNED {
                    *r = count;
                    count += 1;
                }
            }
            Ok((reg_of, count))
        }
        RegPolicy::Packed => {
            // Left-edge allocation: sort by birth, reuse the first register
            // whose last occupant died before this value is born.
            let life = &storage.lifetimes;
            let mut order: Vec<usize> = (0..stored.len()).collect();
            order.sort_by_key(|&i| (life[i].0, life[i].1, stored[i]));
            let mut reg_of = vec![UNASSIGNED; stored.len()];
            let mut sticky_count = 0u32;
            let mut reg_death: Vec<u32> = Vec::new(); // shareable pool
            let mut slot_of = vec![UNASSIGNED; stored.len()];
            for i in order {
                let (b, d, sticky) = life[i];
                if sticky {
                    reg_of[i] = sticky_count;
                    sticky_count += 1;
                    continue;
                }
                // Non-conflict with the previous occupant: its death is
                // strictly before this birth (see StorageAnalysis::conflicts).
                match reg_death.iter().position(|&death| death < b) {
                    Some(slot) => {
                        reg_death[slot] = reg_death[slot].max(d);
                        slot_of[i] = slot as u32;
                    }
                    None => {
                        reg_death.push(d);
                        slot_of[i] = (reg_death.len() - 1) as u32;
                    }
                }
            }
            // The shareable pool is numbered after the sticky registers.
            for (r, slot) in reg_of.iter_mut().zip(slot_of) {
                if slot != UNASSIGNED {
                    *r = sticky_count + slot;
                }
            }
            Ok((reg_of, sticky_count + reg_death.len() as u32))
        }
    }
}

/// The profile a freshly built module exposes: its assumed input arrivals
/// and achieved output times.
fn derive_profile(g: &hsyn_dfg::Dfg, sched: &Schedule, sctx: &SchedContext) -> Profile {
    let inputs: Vec<u32> = (0..g.input_count())
        .map(|i| {
            sctx.input_arrivals
                .as_ref()
                .and_then(|v| v.get(i).copied())
                .unwrap_or(0)
        })
        .collect();
    let outputs: Vec<u32> = g
        .outputs()
        .iter()
        .map(|&o| {
            let e = g.driver(o, 0).expect("validated dfg");
            if e.delay > 0 {
                0
            } else {
                sched.result_cycle_of_port(e.from.node, e.from.port)
            }
        })
        .collect();
    Profile::new(inputs, outputs)
}

/// Which variables need storage, their lifetimes, and per-edge chaining
/// classification.
pub struct StorageAnalysis {
    /// Variables that must be registered, sorted.
    pub stored_vars: Vec<VarRef>,
    /// `(birth, death, sticky)` per stored var, aligned with `stored_vars`;
    /// sticky variables live across iterations (delayed consumers).
    pub lifetimes: Vec<(u32, u32, bool)>,
    /// Edges consumed combinationally (chained), by edge index.
    pub chained_edges: Vec<bool>,
}

impl StorageAnalysis {
    /// `(birth, death, sticky)` of `v`, if it is stored.
    pub fn lifetime(&self, v: VarRef) -> Option<(u32, u32, bool)> {
        let i = self.stored_vars.binary_search(&v).ok()?;
        Some(self.lifetimes[i])
    }

    /// Whether two stored variables cannot share a register.
    ///
    /// # Panics
    ///
    /// Panics if `a != b` and either is not stored.
    pub fn conflicts(&self, a: VarRef, b: VarRef) -> bool {
        if a == b {
            return false;
        }
        let index = |v: &VarRef| self.stored_vars.binary_search(v).expect("stored variable");
        self.conflicts_at(index(&a), index(&b))
    }

    /// [`conflicts`](Self::conflicts) by position in `stored_vars`.
    fn conflicts_at(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (ba, da, sa) = self.lifetimes[a];
        let (bb, db, sb) = self.lifetimes[b];
        if sa || sb {
            return true; // cross-iteration values get dedicated registers
        }
        // Register occupied from the write (end of cycle birth−1) through
        // the last read (start of cycle death): intervals (bₐ−1, dₐ] and
        // (b_b−1, d_b] intersect iff bₐ ≤ d_b and b_b ≤ dₐ.
        ba <= db && bb <= da
    }
}

/// Analyze storage needs for a scheduled DFG (public: the power estimator
/// and connectivity analysis reuse the same classification).
///
/// Lifetimes use the schedule's makespan as the iteration horizon; values
/// crossing iteration boundaries (delayed consumers) are *sticky* and get
/// dedicated registers.
pub fn storage_analysis(g: &hsyn_dfg::Dfg, sched: &Schedule) -> StorageAnalysis {
    let horizon = sched.makespan();
    let mut chained_edges = vec![false; g.edge_count()];
    // One `(var, birth, death, sticky)` record per registered edge; records
    // of one variable are merged after sorting.
    let mut needs: Vec<(VarRef, u32, u32, bool)> = Vec::new();

    for (eid, e) in g.edges() {
        let producer_kind = g.node(e.from.node).kind();
        // Constants are hardwired; they never occupy registers.
        if matches!(producer_kind, NodeKind::Const { .. }) {
            continue;
        }
        let birth = sched.result_cycle_of_port(e.from.node, e.from.port);
        let consumer = g.node(e.to);
        let consumer_start = sched.time(e.to).start;
        let producer_result = sched.result_tick_of_port(e.from.node, e.from.port);

        let chained = e.delay == 0
            && matches!(producer_kind, NodeKind::Op(_))
            && matches!(consumer.kind(), NodeKind::Op(_))
            && !producer_result.is_boundary()
            && consumer_start == producer_result;
        if chained {
            chained_edges[eid.index()] = true;
            continue;
        }

        let (death, sticky) = if e.delay > 0 {
            (horizon, true)
        } else {
            match consumer.kind() {
                // Output values are held for the parent until the iteration
                // ends.
                NodeKind::Output { .. } => (horizon, false),
                _ => (consumer_start.cycle, false),
            }
        };
        needs.push((e.from, birth, death, sticky));
    }

    needs.sort_unstable_by_key(|r| r.0);
    let mut stored_vars: Vec<VarRef> = Vec::new();
    let mut lifetimes: Vec<(u32, u32, bool)> = Vec::new();
    for (var, birth, death, sticky) in needs {
        if stored_vars.last() == Some(&var) {
            let l = lifetimes.last_mut().expect("aligned with stored_vars");
            l.0 = l.0.min(birth);
            l.1 = l.1.max(death);
            l.2 |= sticky;
        } else {
            stored_vars.push(var);
            lifetimes.push((birth, death, sticky));
        }
    }
    StorageAnalysis {
        stored_vars,
        lifetimes,
        chained_edges,
    }
}

/// Compute the slack-derived constraint window of every schedulable node of
/// a built behavior — a thin wrapper wiring the module's achieved schedule
/// into [`hsyn_sched::module_window`].
pub fn window_of(
    h: &Hierarchy,
    module: &RtlModule,
    behavior_idx: usize,
    ctx: &BuildCtx<'_>,
    node: NodeId,
) -> hsyn_sched::ConstraintWindow {
    let b = &module.behaviors()[behavior_idx];
    let g = h.dfg(b.dfg);
    let sctx = ctx.sched_context();
    let alap = alap_starts(g, &b.schedule, &b.serial, &sctx);
    hsyn_sched::module_window(g, &b.schedule, &alap, &sctx, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::{Dfg, Operation};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};

    /// A 4-node DFG, `y = a + b`, as the top of a fresh hierarchy.
    fn adder() -> (Hierarchy, DfgId) {
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("add");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.add_op(Operation::Add, "s", &[a, b]);
        g.add_output("y", s);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();
        (h, id)
    }

    #[test]
    fn cover_nodes_outside_the_dfg_are_rejected() {
        let (h, dfg) = adder();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let add1 = lib.fu_by_name("add1").unwrap();
        let spec = ModuleSpec::dedicated(&h, dfg, "m", |_, _| add1, |_, _| unreachable!());
        let leaf = build(&h, &spec, &ctx).expect("the dedicated spec builds");
        let stray = NodeId::from_index(999);

        // An FU group listing a node past the end of the DFG.
        let mut bad_op = spec.clone();
        bad_op.fu_groups[0].ops.push(stray);
        assert_eq!(
            build(&h, &bad_op, &ctx).unwrap_err(),
            BuildError::BadCover { node: stray }
        );

        // A sub group listing one, on a DFG without hierarchical nodes.
        let mut bad_sub = spec.clone();
        bad_sub.subs.push(SubSpec {
            module: leaf,
            nodes: vec![stray],
        });
        assert_eq!(
            build(&h, &bad_sub, &ctx).unwrap_err(),
            BuildError::BadCover { node: stray }
        );

        // The first node past the end is out of range too.
        let mut edge = spec;
        let past = NodeId::from_index(h.dfg(dfg).node_count());
        edge.fu_groups[0].ops.push(past);
        assert_eq!(
            build(&h, &edge, &ctx).unwrap_err(),
            BuildError::BadCover { node: past }
        );
    }
}
