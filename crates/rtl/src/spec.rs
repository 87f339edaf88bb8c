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
    alap_starts, asap_priority_from, derive_orderings, schedule_from, NodeDelay, Profile,
    Reprioritize, Reschedule, Rescheduled, SchedContext, SchedError, Schedule, TopoOrder,
};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
    build_ref(h, &spec, ctx, None, &mut 0)
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

/// [`build`] from a borrowed spec, starting from `hint`, the module's
/// previous build, when it can vouch for the result.
///
/// A hint vouches when it was made by this function for the same DFG
/// (same node and edge counts, same memory serialization edges) under the
/// same scheduling context (clock, supply voltage, register overhead,
/// input arrivals, output deadlines, sampling period). The build then
/// recomputes only what the spec change disturbs: the priorities forward
/// of the nodes whose duration changed, the ordering chains of the groups
/// whose members or member priorities changed, and the schedule forward
/// of the nodes whose delay or serialization predecessors changed (see
/// DESIGN.md, "Incremental rebuild"). Any other hint, or none, builds
/// from scratch: the same function with every node dirty. The result,
/// error included, is the same either way. `rescheduled` counts the nodes
/// the scheduler timed.
///
/// # Errors
///
/// As [`build`].
pub fn build_ref(
    h: &Hierarchy,
    spec: &SpecRef<'_>,
    ctx: &BuildCtx<'_>,
    hint: Option<&RtlModule>,
    rescheduled: &mut u64,
) -> Result<RtlModule, BuildError> {
    let g = h.dfg(spec.dfg);
    let prior = hint.and_then(|m| Prior::vouched(m, g, spec.dfg, ctx));
    let timed = schedule_phase(g, spec, ctx, prior, rescheduled)?;
    let bound = bind_phase(g, &timed.schedule, spec.reg_policy)?;
    Ok(connect_phase(h, g, spec, timed, bound))
}

/// What a build leaves for the next build of the same module: the state an
/// incremental rebuild starts from. Held beside the module's behavior and
/// never part of a fingerprint, a comparison or a byte count.
pub(crate) struct BuildPlan {
    /// The scheduling context the build ran under.
    ctx: CtxKey,
    /// Node and edge count of the DFG built.
    shape: (usize, usize),
    /// The delay of every FU group's unit.
    unit_delays: Vec<UnitDelay>,
    /// The profile of every hierarchical node, by node.
    profiles: Vec<(NodeId, Profile)>,
    /// The ordering priority of every node.
    prio: Arc<Vec<u64>>,
    /// The order the schedule was computed in.
    order: Arc<TopoOrder>,
    /// Length of the serial list's ordering-chain prefix; memory edges
    /// follow it.
    chain_len: usize,
    /// The DFG's memory serialization edges.
    mem_edges: Vec<(NodeId, NodeId)>,
    /// The ordering chains by group, indexed on the first rebuild that
    /// starts here (every candidate of a scan starts from the same build).
    chains: OnceLock<ChainIndex>,
}

impl BuildPlan {
    /// The profile hierarchical node `v` was scheduled with.
    fn profile(&self, v: NodeId) -> Option<&Profile> {
        let i = self.profiles.binary_search_by_key(&v, |(n, _)| *n).ok()?;
        Some(&self.profiles[i].1)
    }
}

impl fmt::Debug for BuildPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuildPlan").finish_non_exhaustive()
    }
}

/// A [`BuildCtx`]'s scheduling inputs, floats as exact bits.
#[derive(PartialEq)]
struct CtxKey {
    clk_ns: u64,
    vdd: u64,
    overhead_ns: u64,
    input_arrivals: Option<Vec<u32>>,
    output_deadlines: Option<Vec<u32>>,
    sampling_period: Option<u32>,
}

impl CtxKey {
    fn of(ctx: &BuildCtx<'_>) -> Self {
        CtxKey {
            clk_ns: ctx.clk_ns.to_bits(),
            vdd: ctx.vdd.to_bits(),
            overhead_ns: ctx.lib.register.overhead_ns.to_bits(),
            input_arrivals: ctx.input_arrivals.clone(),
            output_deadlines: ctx.output_deadlines.clone(),
            sampling_period: ctx.sampling_period,
        }
    }

    fn matches(&self, ctx: &BuildCtx<'_>) -> bool {
        self.clk_ns == ctx.clk_ns.to_bits()
            && self.vdd == ctx.vdd.to_bits()
            && self.overhead_ns == ctx.lib.register.overhead_ns.to_bits()
            && self.input_arrivals == ctx.input_arrivals
            && self.output_deadlines == ctx.output_deadlines
            && self.sampling_period == ctx.sampling_period
    }
}

/// A previous build a rebuild starts from, once its plan vouches for it.
#[derive(Clone, Copy)]
struct Prior<'m> {
    behavior: &'m Behavior,
    plan: &'m BuildPlan,
}

impl<'m> Prior<'m> {
    fn vouched(
        module: &'m RtlModule,
        g: &hsyn_dfg::Dfg,
        dfg: DfgId,
        ctx: &BuildCtx<'_>,
    ) -> Option<Self> {
        let plan = module.plan.as_deref()?;
        let [behavior] = module.behaviors() else {
            return None;
        };
        let vouches = behavior.dfg == dfg
            && plan.shape == (g.node_count(), g.edge_count())
            && plan.ctx.matches(ctx)
            && plan.mem_edges == g.mem_serial_edges();
        vouches.then_some(Prior { behavior, plan })
    }

    /// The previous build's ordering chains and their index.
    fn chains(&self) -> (&'m ChainIndex, &'m [(NodeId, NodeId)]) {
        let chains = &self.behavior.serial[..self.plan.chain_len];
        let index = self
            .plan
            .chains
            .get_or_init(|| ChainIndex::new(self.plan.prio.len(), chains));
        (index, chains)
    }
}

/// A build's ordering chains, numbered in list order: chain `k` starts at
/// serial edge `start[k]` and orders the `size[k]` members of one group
/// (consecutive chains never share a node, so a chain starts where an edge
/// does not continue the one before).
struct ChainIndex {
    /// Each node's chain, [`ChainIndex::NONE`] outside any chain.
    chain_of: Vec<u32>,
    size: Vec<u32>,
    start: Vec<u32>,
}

impl ChainIndex {
    /// In no chain.
    const NONE: u32 = u32::MAX;

    fn new(node_count: usize, chains: &[(NodeId, NodeId)]) -> Self {
        let mut index = ChainIndex {
            chain_of: vec![Self::NONE; node_count],
            size: Vec::new(),
            start: Vec::new(),
        };
        for (i, &(a, b)) in chains.iter().enumerate() {
            if i == 0 || chains[i - 1].1 != a {
                index.chain_of[a.index()] = index.start.len() as u32;
                index.start.push(i as u32);
                index.size.push(1);
            }
            let k = index.start.len() - 1;
            index.chain_of[b.index()] = k as u32;
            index.size[k] += 1;
        }
        index
    }

    /// The chain, in `chains`, of a group with `members`, if one chain
    /// ordered exactly these nodes.
    fn of<'s>(
        &self,
        chains: &'s [(NodeId, NodeId)],
        members: &[NodeId],
    ) -> Option<&'s [(NodeId, NodeId)]> {
        let k = self.chain_of[members.first()?.index()];
        let same = k != Self::NONE
            && self.size[k as usize] as usize == members.len()
            && members.iter().all(|m| self.chain_of[m.index()] == k);
        same.then(|| &chains[self.start[k as usize] as usize..][..members.len() - 1])
    }
}

/// The delay of a functional unit at a build's operating point: the
/// [`NodeDelay`] of the operations it executes, in 16 bytes.
#[derive(Clone, Copy, Debug)]
enum UnitDelay {
    /// A combinational unit's scaled propagation delay, ns.
    Combinational(f64),
    /// A pipelined unit's latency, cycles.
    Pipelined(u32),
}

impl UnitDelay {
    fn node_delay(self) -> NodeDelay {
        match self {
            UnitDelay::Combinational(ns) => NodeDelay::Combinational { ns },
            UnitDelay::Pipelined(stages) => NodeDelay::Pipelined { stages },
        }
    }

    /// The priority duration: cycles of `usable_ns`, at least one.
    fn cycles(self, usable_ns: f64) -> u64 {
        match self {
            UnitDelay::Combinational(ns) => ((ns / usable_ns).ceil() as u64).max(1),
            UnitDelay::Pipelined(stages) => u64::from(stages),
        }
    }

    /// Whether two delays are the same, floats bit for bit.
    fn same(self, other: UnitDelay) -> bool {
        match (self, other) {
            (UnitDelay::Combinational(a), UnitDelay::Combinational(b)) => {
                a.to_bits() == b.to_bits()
            }
            (UnitDelay::Pipelined(a), UnitDelay::Pipelined(b)) => a == b,
            _ => false,
        }
    }
}

/// The schedule phase's product: the cover tables, the serial list and the
/// schedule, with the plan the next rebuild starts from.
struct Timed {
    op_to_fu: NodeTable<FuInstId>,
    hier_to_sub: NodeTable<SubId>,
    serial: Vec<(NodeId, NodeId)>,
    schedule: Schedule,
    plan: BuildPlan,
}

/// The schedule phase: cover and delay tables, ordering priorities,
/// serialization edges, schedule. With a `prior`, every step starts from
/// the previous build's and redoes only what the spec change disturbed.
fn schedule_phase(
    g: &hsyn_dfg::Dfg,
    spec: &SpecRef<'_>,
    ctx: &BuildCtx<'_>,
    prior: Option<Prior<'_>>,
    rescheduled: &mut u64,
) -> Result<Timed, BuildError> {
    let n = g.node_count();

    // --- Coverage tables -----------------------------------------------------
    let op_to_fu = cover_table(
        n,
        spec.fu_groups.iter().map(|grp| grp.ops.as_slice()),
        FuInstId::from_index,
    )?;
    let hier_to_sub = cover_table(n, spec.subs.iter().map(|s| s.1), SubId::from_index)?;
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

    // --- Delays ---------------------------------------------------------------
    // An operation's delay is its group's unit's, computed once per group;
    // a hierarchical node's is its submodule's profile; a memory access
    // occupies its bank's issue slot for one cycle (synchronous
    // single-cycle SRAM: a load's data arrives at the next boundary, so
    // results are registered, never chained); any other node is free.
    let unit_delays: Vec<UnitDelay> = spec
        .fu_groups
        .iter()
        .map(|grp| {
            let fu = ctx.lib.fu(grp.fu_type);
            if fu.is_pipelined() {
                UnitDelay::Pipelined(ctx.lib.latency_cycles(grp.fu_type, ctx.clk_ns, ctx.vdd))
            } else {
                UnitDelay::Combinational(ctx.lib.technology.scale_delay(fu.delay_ns(), ctx.vdd))
            }
        })
        .collect();
    let profile_of = |v: NodeId, callee: DfgId| {
        spec.subs[hier_to_sub[&v].index()]
            .0
            .profile_for(callee)
            .expect("checked above")
    };
    let delay_of = |v: NodeId| match g.node(v).kind() {
        NodeKind::Op(_) => unit_delays[op_to_fu[&v].index()].node_delay(),
        NodeKind::Hier { callee } => NodeDelay::Profiled(profile_of(v, *callee).clone()),
        NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
        _ => NodeDelay::Free,
    };
    // Durations for the priorities: unconstrained ASAP in rough cycle units.
    let usable_ns = ctx.clk_ns - ctx.lib.register.overhead_ns;
    let unit_cycles: Vec<u64> = unit_delays.iter().map(|d| d.cycles(usable_ns)).collect();
    let dur_of = |v: NodeId| match g.node(v).kind() {
        NodeKind::Op(_) => unit_cycles[op_to_fu[&v].index()],
        NodeKind::Hier { callee } => u64::from(profile_of(v, *callee).latency()).max(1),
        NodeKind::Load { .. } | NodeKind::Store { .. } => 1,
        _ => 0,
    };
    // From a prior: the nodes whose delay changed, and those of them whose
    // duration changed too.
    let mut changed: Vec<NodeId> = Vec::new();
    let mut dur_changed: Vec<NodeId> = Vec::new();
    if let Some(p) = prior {
        let old = &p.behavior.binding.op_to_fu;
        for (grp, &d) in spec.fu_groups.iter().zip(&unit_delays) {
            for &v in &grp.ops {
                let was = old.get(v).map(|fu| p.plan.unit_delays[fu.index()]);
                if was.is_some_and(|w| w.same(d)) || !matches!(g.node(v).kind(), NodeKind::Op(_)) {
                    continue;
                }
                changed.push(v);
                if was.map(|w| w.cycles(usable_ns)) != Some(d.cycles(usable_ns)) {
                    dur_changed.push(v);
                }
            }
        }
        for &(_, nodes) in &spec.subs {
            for &v in nodes {
                if let NodeKind::Hier { callee } = g.node(v).kind() {
                    let profile = profile_of(v, *callee);
                    let was = p.plan.profile(v);
                    if was == Some(profile) {
                        continue;
                    }
                    changed.push(v);
                    if was.map(|w| w.latency().max(1)) != Some(profile.latency().max(1)) {
                        dur_changed.push(v);
                    }
                }
            }
        }
    }

    // --- Priorities -------------------------------------------------------------
    // From scratch every node's duration is read once per out-edge, so
    // they are tabled first.
    let (prio, moved) = match prior {
        Some(p) if dur_changed.is_empty() => (Arc::clone(&p.plan.prio), Vec::new()),
        Some(p) => {
            let from = Reprioritize {
                prev: &p.plan.prio,
                order: &p.plan.order,
                changed: &dur_changed,
            };
            let (prio, moved) = asap_priority_from(g, dur_of, Some(from));
            (Arc::new(prio), moved)
        }
        None => {
            let dur: Vec<u64> = g.node_ids().map(dur_of).collect();
            let (prio, moved) = asap_priority_from(g, |v| dur[v.index()], None);
            (Arc::new(prio), moved)
        }
    };

    // --- Orderings --------------------------------------------------------------
    // Resource keys: FU groups and sub groups with >= 2 nodes. From a
    // prior whose groups are the same, with no priority moved, the
    // previous serial list stands; otherwise a group keeps its previous
    // chain when it has the same members and none of them moved.
    let unmoved = prior.filter(|p| {
        moved.is_empty()
            && p.behavior.binding.op_to_fu == op_to_fu
            && p.behavior.binding.hier_to_sub == hier_to_sub
    });
    let (serial, chain_len): (Cow<[(NodeId, NodeId)]>, usize) = match unmoved {
        Some(p) => (Cow::Borrowed(&p.behavior.serial), p.plan.chain_len),
        None => {
            let prior_chains = prior.map(|p| p.chains());
            let mut moved_flag = vec![false; if moved.is_empty() { 0 } else { n }];
            for v in &moved {
                moved_flag[v.index()] = true;
            }
            // A node of a shared FU group orders by that unit, not by a
            // submodule group it may also be listed in.
            let on_shared_unit = |v: &NodeId| {
                op_to_fu
                    .get(*v)
                    .is_some_and(|fu| spec.fu_groups[fu.index()].ops.len() > 1)
            };
            let sub_groups = spec.subs.iter().map(|&(_, nodes)| {
                if nodes.iter().any(on_shared_unit) {
                    Cow::Owned(
                        nodes
                            .iter()
                            .copied()
                            .filter(|v| !on_shared_unit(v))
                            .collect(),
                    )
                } else {
                    Cow::Borrowed(nodes)
                }
            });
            let groups = spec
                .fu_groups
                .iter()
                .map(|grp| Cow::Borrowed(&grp.ops[..]))
                .chain(sub_groups);
            let mut serial = derive_orderings(groups, &prio, |members| {
                let (chains, serial) = prior_chains?;
                if !moved.is_empty() && members.iter().any(|m| moved_flag[m.index()]) {
                    return None;
                }
                chains.of(serial, members)
            });
            let chain_len = serial.len();
            // Memory correctness (program order) and per-bank port limits
            // ride the same serialization mechanism as shared functional
            // units. Ordering edges come from disjoint groups and are
            // unique already; only memory edges can repeat one.
            let mem_edges = g.mem_serial_edges();
            if !mem_edges.is_empty() {
                serial.extend_from_slice(mem_edges);
                let mut seen = std::collections::HashSet::new();
                serial.retain(|&e| seen.insert(e));
            }
            (Cow::Owned(serial), chain_len)
        }
    };

    // --- Schedule -----------------------------------------------------------
    // Dirty: the nodes whose delay changed, and those whose ordering
    // predecessor changed (the memory edges are the hint's own).
    if let Some(p) = prior.filter(|_| unmoved.is_none()) {
        const NONE: u32 = u32::MAX;
        let pred_of = |edges: &[(NodeId, NodeId)]| {
            let mut pred = vec![NONE; n];
            for &(a, b) in edges {
                pred[b.index()] = a.index() as u32;
            }
            pred
        };
        let before = pred_of(&p.behavior.serial[..p.plan.chain_len]);
        let after = pred_of(&serial[..chain_len]);
        changed.extend(
            (0..n)
                .filter(|&i| before[i] != after[i])
                .map(NodeId::from_index),
        );
    }
    let dirty = changed;
    let sctx = ctx.sched_context();
    let Rescheduled { schedule, order } = schedule_from(
        g,
        delay_of,
        &serial,
        &sctx,
        prior.map(|p| Reschedule {
            prev: &p.behavior.schedule,
            order: &p.plan.order,
            dirty: &dirty,
        }),
        rescheduled,
    )?;

    let mut profiles: Vec<(NodeId, Profile)> = spec
        .subs
        .iter()
        .flat_map(|&(_, nodes)| nodes)
        .filter_map(|&v| match g.node(v).kind() {
            NodeKind::Hier { callee } => Some((v, profile_of(v, *callee).clone())),
            _ => None,
        })
        .collect();
    profiles.sort_unstable_by_key(|(v, _)| *v);

    Ok(Timed {
        op_to_fu,
        hier_to_sub,
        serial: serial.into_owned(),
        schedule,
        plan: BuildPlan {
            ctx: CtxKey::of(ctx),
            shape: (n, g.edge_count()),
            unit_delays,
            profiles,
            prio,
            order: match order {
                Cow::Borrowed(_) => Arc::clone(&prior.expect("borrowed from a prior").plan.order),
                Cow::Owned(order) => Arc::new(order),
            },
            chain_len,
            mem_edges: g.mem_serial_edges().to_vec(),
            chains: OnceLock::new(),
        },
    })
}

/// The bind phase's product: the storage analysis and every stored
/// variable's register.
struct Bound {
    storage: StorageAnalysis,
    reg_of: Vec<u32>,
    reg_count: u32,
}

/// The bind phase: which variables need registers, and the register each
/// gets under `policy`.
///
/// # Errors
///
/// [`BuildError::RegisterConflict`] from an explicit sharing group.
fn bind_phase(
    g: &hsyn_dfg::Dfg,
    schedule: &Schedule,
    policy: &RegPolicy,
) -> Result<Bound, BuildError> {
    let storage = storage_analysis(g, schedule);
    let (reg_of, reg_count) = allocate_registers(&storage, policy)?;
    Ok(Bound {
        storage,
        reg_of,
        reg_count,
    })
}

/// The connect phase: the binding, the profile, the datapath view, and the
/// module assembled around them with the plan the next rebuild starts
/// from.
fn connect_phase(
    h: &Hierarchy,
    g: &hsyn_dfg::Dfg,
    spec: &SpecRef<'_>,
    timed: Timed,
    bound: Bound,
) -> RtlModule {
    let Timed {
        op_to_fu,
        hier_to_sub,
        serial,
        schedule,
        plan,
    } = timed;
    let Bound {
        storage,
        reg_of,
        reg_count,
    } = bound;
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
    let profile = derive_profile(g, &schedule, plan.ctx.input_arrivals.as_deref());
    let behavior = Behavior {
        dfg: spec.dfg,
        binding,
        schedule,
        serial,
        profile,
    };
    // The datapath view from the storage analysis and binding in hand.
    let links = packed_links(g, &behavior, &storage);
    let behaviors = vec![behavior];
    let view = DatapathView::from_links(h, fus.len(), &behaviors, links);
    let mut module = RtlModule::with_view(
        spec.name,
        fus,
        vec![RegInstance; reg_count as usize],
        spec.subs.iter().map(|(m, _)| (*m).clone()).collect(),
        behaviors,
        view,
    );
    module.plan = Some(Arc::new(plan));
    module
}

/// Whether `hinted` (a build from a hint) and `fresh` (the same build
/// without it) agree: the same error, or modules with the same name,
/// units, registers, behaviors (binding, schedule times, port times and
/// makespan, serial list, profile) and datapath view. Submodules are the
/// spec's own in both and are not compared.
///
/// # Errors
///
/// The first part that differs, with both values.
pub fn same_build(
    hinted: &Result<RtlModule, BuildError>,
    fresh: &Result<RtlModule, BuildError>,
) -> Result<(), String> {
    match (hinted, fresh) {
        (Err(a), Err(b)) if a == b => Ok(()),
        (Ok(a), Ok(b)) => {
            let parts = |m: &RtlModule| {
                [
                    ("name", m.name().to_owned()),
                    ("units", format!("{:?}", m.fus())),
                    ("registers", m.regs().len().to_string()),
                    ("behaviors", format!("{:?}", m.behaviors())),
                    ("view", format!("{:?}", m.view())),
                ]
            };
            for ((what, x), (_, y)) in parts(a).into_iter().zip(parts(b)) {
                if x != y {
                    return Err(format!("{what} differ: {x} vs {y} from scratch"));
                }
            }
            Ok(())
        }
        (a, b) => Err(format!(
            "outcome differs: {} vs {} from scratch",
            outcome(a),
            outcome(b)
        )),
    }
}

/// A build outcome for a divergence message.
fn outcome(r: &Result<RtlModule, BuildError>) -> String {
    match r {
        Ok(m) => format!("module {}", m.name()),
        Err(e) => format!("error `{e}` ({e:?})"),
    }
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
fn derive_profile(g: &hsyn_dfg::Dfg, sched: &Schedule, input_arrivals: Option<&[u32]>) -> Profile {
    let inputs: Vec<u32> = (0..g.input_count())
        .map(|i| input_arrivals.and_then(|v| v.get(i).copied()).unwrap_or(0))
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
