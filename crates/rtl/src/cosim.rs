//! Cycle-accurate co-simulation of the generated FSM against the bound
//! datapath.
//!
//! [`cosimulate`] steps a module's [`Fsm`](crate::Fsm) one clock at a time
//! and *drives the structure*: functional units fire in the cycles their
//! control words assert, operands are fetched through the same
//! register/chaining/mux paths the connectivity analysis derives, register
//! writes commit on the clock edges the controller asserts their load
//! enables, and submodule controllers advance in lockstep with their
//! parent: a callee's cycle `k` executes at parent cycle `start + k`, its
//! inputs are delivered at their profile arrival cycles, and the parent
//! latches its outputs mid-run as they are produced — exactly as the
//! emitted Verilog wires them. At every routing point the structurally
//! fetched value is checked
//! against the behavioral value of the same variable; the first mismatch
//! aborts the run with a [`CosimDivergence`] that names the module, cycle,
//! and resource.
//!
//! This closes the verification gap left by the operation-level power
//! simulator ([`hsyn-power`]'s `simulate`), which computes values straight
//! off the DFG and never consults a control word or a register file: a
//! schedule that reads a register before its write commits, an FSM that
//! asserts the wrong load enable, or a binding that lets one variable
//! clobber another's storage are all invisible there but fatal here.
//!
//! Three deliberate abstractions keep the model honest without modeling
//! below the register-transfer level:
//!
//! * **Delay lines.** A variable consumed through a `z^-k` edge is read
//!   from a per-behavior history map rather than a chain of `k` physical
//!   registers — the same convention as the power simulator, because the
//!   datapath builder allocates one sticky register per delayed variable
//!   and the multi-level history is controller state, not datapath state.
//! * **Same-cycle forwarding.** A value whose register write commits at
//!   the end of the cycle it is consumed in (mid-cycle producer, boundary
//!   write) is forwarded from the producing unit's output wire, as the
//!   mux network does in hardware; such reads are counted in
//!   [`CosimStats::forwarded`] rather than flagged.
//! * **Pre-latched call inputs.** A callee input with profile arrival
//!   `a ≥ 1` is captured by the callee's own input register at the end of
//!   parent cycle `start + a − 1` — the edge on which the parent-side value
//!   settles. The delivery is routed then, and patched into any
//!   input-register write the callee's controller asserted on the same
//!   edge; such deliveries are counted in [`CosimStats::early_samples`].

use crate::fsm::{generate_fsm, ControlWord};
use crate::module::RtlModule;
use crate::spec::storage_analysis;
use hsyn_dfg::{Dfg, Edge, Hierarchy, MemId, MemScope, NodeId, NodeKind, Operation, VarRef};
use std::collections::HashMap;
use std::fmt;

/// Sign-truncate `value` to `width` bits (the datapath word size).
fn truncate(value: i64, width: u32) -> i64 {
    let shift = 64 - width;
    (value << shift) >> shift
}

/// Counters describing what one co-simulation exercised. Useful both for
/// reporting and for asserting that a test actually drove the structures it
/// claims to cover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CosimStats {
    /// Behavior iterations executed at the top level.
    pub iterations: u64,
    /// Controller cycles stepped, across all module instances.
    pub cycles: u64,
    /// Functional-unit firings (one per operation execution).
    pub fu_fires: u64,
    /// Register write commits.
    pub reg_writes: u64,
    /// Submodule invocations.
    pub sub_calls: u64,
    /// Operand reads served by same-cycle forwarding from a unit's output
    /// wire (the register write commits at the end of the reading cycle).
    pub forwarded: u64,
    /// Operand reads of variables the binder left without a register,
    /// served from the producing wire instead.
    pub unregistered_reads: u64,
    /// Submodule input ports captured the cycle before their profile
    /// arrival (the callee's input register latches on that edge).
    pub early_samples: u64,
    /// Submodule state outputs (ports driven by delayed edges inside the
    /// callee) read from the submodule's history before it ran.
    pub state_out_reads: u64,
    /// Memory accesses issued (loads + stores, across all instances).
    pub mem_accesses: u64,
}

/// The result of a divergence-free co-simulation.
#[derive(Clone, Debug)]
pub struct CosimRun {
    /// One stream per primary output, bit-identical to the behavioral
    /// reference when the design is correct.
    pub outputs: Vec<Vec<i64>>,
    /// What the run exercised.
    pub stats: CosimStats,
}

/// How the structural execution departed from the behavioral semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum CosimDivergenceKind {
    /// The FSM control word disagrees with the schedule/binding-derived
    /// expectation (wrong op select, spurious or missing load enable or
    /// start strobe).
    ControlWord {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// An operand fetched through the datapath routing differs from the
    /// behavioral value of the same variable (stale register, read before
    /// write, clobbered storage).
    Datapath {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A register write committed a value different from the behavioral
    /// value of the variable it stores.
    Register {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A memory bank word touched by an access differs between the physical
    /// (datapath-routed) banks and the behavioral shadow memory — the
    /// cycle-by-cycle memory state check.
    Memory {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A primary output read at the end of the iteration differs from the
    /// behavioral output.
    Output {
        /// Output index.
        index: usize,
        /// Value the structure delivered.
        got: i64,
        /// Behavioral value.
        expected: i64,
    },
}

/// A localized co-simulation failure: where the FSM-driven datapath first
/// departed from the behavioral semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct CosimDivergence {
    /// Instance path of the diverging module (`top/H0/...`).
    pub module: String,
    /// Behavior index executing when the divergence occurred.
    pub behavior: usize,
    /// Top-level trace iteration (sample index).
    pub iteration: usize,
    /// Controller cycle within the behavior, if the divergence is tied to
    /// one (`None` for end-of-iteration output checks).
    pub cycle: Option<u32>,
    /// What went wrong.
    pub kind: CosimDivergenceKind,
}

impl fmt::Display for CosimDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "co-simulation divergence in {} (behavior {}, iteration {}",
            self.module, self.behavior, self.iteration
        )?;
        if let Some(c) = self.cycle {
            write!(f, ", cycle {c}")?;
        }
        write!(f, "): ")?;
        match &self.kind {
            CosimDivergenceKind::ControlWord { detail } => write!(f, "control word: {detail}"),
            CosimDivergenceKind::Datapath { detail } => write!(f, "datapath: {detail}"),
            CosimDivergenceKind::Register { detail } => write!(f, "register: {detail}"),
            CosimDivergenceKind::Memory { detail } => write!(f, "memory: {detail}"),
            CosimDivergenceKind::Output {
                index,
                got,
                expected,
            } => write!(f, "output {index}: got {got}, expected {expected}"),
        }
    }
}

impl std::error::Error for CosimDivergence {}

/// A submodule output port whose value is a delayed (state) variable of the
/// callee: readable from the submodule's history before the call runs.
#[derive(Clone, Copy, Debug)]
struct StateOut {
    sub: usize,
    sub_bi: usize,
    var: VarRef,
    delay: u32,
}

/// One hierarchical call of a behavior, with its cycle-resolved timing.
#[derive(Clone, Debug)]
struct SubCallPlan {
    node: NodeId,
    sub: usize,
    sub_bi: usize,
    /// Cycle the parent asserts the start strobe (the call's schedule
    /// start); the callee's cycle `k` executes at parent cycle `start + k`.
    start: u32,
}

/// One end-of-cycle register commit: `(register index, variables sharing
/// the (birth, register) key with their register-liveness flag)`.
type WriteGroup = (usize, Vec<(VarRef, bool)>);

/// Iteration-invariant execution plan for one behavior: the control words
/// plus everything needed to drive and check them, derived independently
/// from the schedule, binding, and storage analysis.
struct Plan {
    words: Vec<ControlWord>,
    /// Schedule-derived expectation of `words[c].fu_ops`.
    fu_expect: Vec<Vec<Option<Operation>>>,
    /// Schedule-derived expectation of `words[c].sub_starts`.
    sub_expect: Vec<Vec<bool>>,
    /// Expectation of `words[c].reg_loads`.
    load_expect: Vec<Vec<bool>>,
    /// Operation nodes firing in each cycle, topologically ordered so
    /// chained producers fire before their consumers.
    ops_at: Vec<Vec<NodeId>>,
    /// Memory accesses (loads and stores) issued in each cycle, in
    /// program order.
    accesses_at: Vec<Vec<NodeId>>,
    /// Expectation of `words[c].mem_issues`.
    mem_expect: Vec<Vec<(u16, u16)>>,
    /// Register write groups committing at the end of each cycle:
    /// `(register index, variables sharing the (birth, register) key)`.
    /// The flag marks *register-live* variables (death ≥ birth) — ones
    /// whose stored value is actually read back in a later cycle. The
    /// binder may alias several same-birth variables onto one register as
    /// long as at most one is live: the dead ones are chained or forwarded
    /// into their consumers and their latched value is unobservable.
    writes_at: Vec<Vec<WriteGroup>>,
    calls: Vec<SubCallPlan>,
    /// `(call index, port)` pairs delivered in each cycle *before* the
    /// callees step: ports with profile arrival 0, available from the
    /// callee's first cycle on.
    samples_at: Vec<Vec<(usize, u16)>>,
    /// `(call index, port)` pairs delivered in each cycle *after* the
    /// callees step: a port with profile arrival `a ≥ 1` is captured by the
    /// callee's input register at the end of parent cycle `start + a − 1`,
    /// reading the parent datapath as it settles that cycle.
    late_samples_at: Vec<Vec<(usize, u16)>>,
    /// Call indices whose start strobe is asserted in each cycle.
    starts_at: Vec<Vec<usize>>,
    /// Per edge: consumed combinationally (chained).
    chained: Vec<bool>,
    /// Lifetime birth cycle per stored variable.
    births: HashMap<VarRef, u32>,
    /// Submodule state outputs by `(node, port)`.
    state_out: HashMap<(NodeId, u16), StateOut>,
    /// Variables feeding delayed edges with their maximum delay, sorted.
    max_delay: Vec<(VarRef, u32)>,
    /// Input node of each primary input, by input index.
    input_nodes: Vec<NodeId>,
    n_cycles: usize,
}

impl Plan {
    fn build(h: &Hierarchy, module: &RtlModule, bi: usize) -> Self {
        let b = &module.behaviors()[bi];
        let g = h.dfg(b.dfg);
        let st = storage_analysis(g, &b.schedule);
        // Memory-aware topo order: program order among same-cycle accesses.
        let order = hsyn_dfg::mem_topo_order(g).expect("bound dfg is acyclic");
        let words = generate_fsm(h, module).programs[bi].words.clone();
        let n_cycles = b.schedule.makespan() as usize + 1;

        let mut fu_expect = vec![vec![None; module.fus().len()]; n_cycles];
        let mut sub_expect = vec![vec![false; module.subs().len()]; n_cycles];
        let mut ops_at = vec![Vec::new(); n_cycles];
        let mut accesses_at = vec![Vec::new(); n_cycles];
        let mut mem_expect = vec![vec![(0u16, 0u16); g.mem_count()]; n_cycles];
        let mut calls = Vec::new();
        let mut samples_at = vec![Vec::new(); n_cycles];
        let mut late_samples_at = vec![Vec::new(); n_cycles];
        let mut starts_at = vec![Vec::new(); n_cycles];
        let mut state_out = HashMap::new();

        for &nid in &order {
            match g.node(nid).kind() {
                NodeKind::Op(op) => {
                    let fu = b.binding.op_to_fu[&nid];
                    let t = b.schedule.time(nid);
                    if let Some(slot) = ops_at.get_mut(t.occupied.0 as usize) {
                        slot.push(nid);
                    }
                    for c in t.occupied.0..t.occupied.1 {
                        if let Some(w) = fu_expect.get_mut(c as usize) {
                            w[fu.index()] = Some(*op);
                        }
                    }
                }
                NodeKind::Hier { callee } => {
                    let sub_id = b.binding.hier_to_sub[&nid];
                    let sub = module.sub(sub_id);
                    let sub_bi = sub
                        .behaviors()
                        .iter()
                        .position(|sb| sb.dfg == *callee)
                        .expect("submodule implements the callee");
                    let profile = &sub.behaviors()[sub_bi].profile;
                    let start = b.schedule.time(nid).start.cycle;
                    if let Some(w) = sub_expect.get_mut(start as usize) {
                        w[sub_id.index()] = true;
                    }

                    // Output ports driven by delayed edges inside the
                    // callee are *state* outputs: readable from the
                    // callee's history at any time, independent of this
                    // invocation's progress.
                    let cg = h.dfg(*callee);
                    for (q, &o) in cg.outputs().iter().enumerate() {
                        let e = cg.driver(o, 0).expect("validated dfg");
                        if e.delay > 0 {
                            state_out.insert(
                                (nid, q as u16),
                                StateOut {
                                    sub: sub_id.index(),
                                    sub_bi,
                                    var: e.from,
                                    delay: e.delay,
                                },
                            );
                        }
                    }

                    // Input ports: arrival-0 ports are delivered on the
                    // start edge; a port with arrival `a ≥ 1` is captured
                    // by the callee's input register at the end of cycle
                    // `start + a − 1`.
                    let ci = calls.len();
                    let last = n_cycles - 1;
                    for (p, &arr) in profile.inputs.iter().enumerate() {
                        if arr == 0 {
                            samples_at[(start as usize).min(last)].push((ci, p as u16));
                        } else {
                            let c = ((start + arr - 1) as usize).min(last);
                            late_samples_at[c].push((ci, p as u16));
                        }
                    }
                    starts_at[(start as usize).min(last)].push(ci);
                    calls.push(SubCallPlan {
                        node: nid,
                        sub: sub_id.index(),
                        sub_bi,
                        start,
                    });
                }
                NodeKind::Load { mem } => {
                    let c = b.schedule.time(nid).occupied.0 as usize;
                    if let Some(slot) = accesses_at.get_mut(c) {
                        slot.push(nid);
                        mem_expect[c][mem.index()].0 += 1;
                    }
                }
                NodeKind::Store { mem } => {
                    let c = b.schedule.time(nid).occupied.0 as usize;
                    if let Some(slot) = accesses_at.get_mut(c) {
                        slot.push(nid);
                        mem_expect[c][mem.index()].1 += 1;
                    }
                }
                _ => {}
            }
        }

        // Register writes grouped by (birth, register), committed at the
        // end of cycle birth−1 — the same keying the FSM generator and the
        // power simulator use.
        let mut births_sorted: Vec<(u32, usize, VarRef)> = st
            .stored_vars
            .iter()
            .zip(&st.lifetimes)
            .filter_map(|(v, life)| {
                b.binding
                    .var_to_reg
                    .get(*v)
                    .map(|r| (life.0, r.index(), *v))
            })
            .collect();
        births_sorted.sort_unstable_by_key(|&(birth, reg, _)| (birth, reg));
        let mut writes_at: Vec<Vec<WriteGroup>> = vec![Vec::new(); n_cycles];
        let mut last_key = None;
        for (birth, reg, v) in births_sorted {
            let c = (birth.saturating_sub(1) as usize).min(n_cycles - 1);
            let live = st.lifetime(v).expect("stored variable").1 >= birth;
            if last_key == Some((birth, reg)) {
                writes_at[c]
                    .last_mut()
                    .expect("key repeats")
                    .1
                    .push((v, live));
            } else {
                last_key = Some((birth, reg));
                writes_at[c].push((reg, vec![(v, live)]));
            }
        }
        let load_expect: Vec<Vec<bool>> = writes_at
            .iter()
            .map(|groups| {
                let mut loads = vec![false; module.regs().len()];
                for (reg, _) in groups {
                    loads[*reg] = true;
                }
                loads
            })
            .collect();

        let births = st
            .stored_vars
            .iter()
            .zip(&st.lifetimes)
            .map(|(v, &(birth, _, _))| (*v, birth))
            .collect();

        let mut delays: HashMap<VarRef, u32> = HashMap::new();
        for (_, e) in g.edges() {
            if e.delay > 0 {
                let d = delays.entry(e.from).or_insert(0);
                *d = (*d).max(e.delay);
            }
        }
        let mut max_delay: Vec<(VarRef, u32)> = delays.into_iter().collect();
        max_delay.sort_unstable_by_key(|&(v, _)| v);

        let mut input_nodes: Vec<Option<NodeId>> = vec![None; g.input_count()];
        for (nid, node) in g.nodes() {
            if let NodeKind::Input { index } = node.kind() {
                input_nodes[*index] = Some(nid);
            }
        }
        let input_nodes = input_nodes
            .into_iter()
            .map(|n| n.expect("validated dfg has every input node"))
            .collect();

        Plan {
            words,
            fu_expect,
            sub_expect,
            load_expect,
            ops_at,
            accesses_at,
            mem_expect,
            writes_at,
            calls,
            samples_at,
            late_samples_at,
            starts_at,
            chained: st.chained_edges,
            births,
            state_out,
            max_delay,
            input_nodes,
            n_cycles,
        }
    }
}

/// Lazily-built [`Plan`]s mirroring the module tree.
struct PlanTree {
    behaviors: Vec<Option<Plan>>,
    subs: Vec<PlanTree>,
}

impl PlanTree {
    fn for_module(m: &RtlModule) -> Self {
        PlanTree {
            behaviors: vec![],
            subs: m.subs().iter().map(PlanTree::for_module).collect(),
        }
    }

    fn ensure(&mut self, h: &Hierarchy, module: &RtlModule, bi: usize) {
        if self.behaviors.is_empty() {
            self.behaviors = module.behaviors().iter().map(|_| None).collect();
        }
        if self.behaviors[bi].is_none() {
            self.behaviors[bi] = Some(Plan::build(h, module, bi));
        }
    }
}

/// A register's current contents: the value plus which variables of which
/// behavior it holds (write groups can legitimately store several).
#[derive(Clone, Debug)]
struct RegSlot {
    value: i64,
    behavior: usize,
    vars: Vec<VarRef>,
}

/// Per-instance structural state, persisting across iterations.
struct InstState {
    regs: Vec<Option<RegSlot>>,
    /// `history[behavior][(var, k)]` = value of `var` from `k` iterations
    /// ago (the delay-line abstraction shared with the power simulator).
    history: Vec<HashMap<(VarRef, u32), i64>>,
    /// Per behavior: pool slots of the DFG's *owned* memories, allocated
    /// lazily on first invocation and retained forever after — physical
    /// SRAM keeps its contents across invocations and iterations.
    mem_slots: Vec<Option<Vec<Option<usize>>>>,
    subs: Vec<InstState>,
}

impl InstState {
    fn for_module(m: &RtlModule) -> Self {
        InstState {
            regs: vec![None; m.regs().len()],
            history: vec![HashMap::new(); m.behaviors().len()],
            mem_slots: vec![None; m.behaviors().len()],
            subs: m.subs().iter().map(InstState::for_module).collect(),
        }
    }
}

/// The physical memory banks of the whole design, as flat arrays: a slot
/// per allocated memory, shared between the owner and every callee the
/// owner passes the memory to. The behavioral shadow copy is updated with
/// reference values at the same cycles, so every access can check the
/// touched word — memory state verified cycle by cycle, not just at
/// outputs.
#[derive(Default)]
struct MemPool {
    /// Physical contents, written through datapath-routed address/data.
    got: Vec<Vec<i64>>,
    /// Behavioral shadow, written through reference values.
    want: Vec<Vec<i64>>,
}

impl MemPool {
    fn alloc(&mut self, words: usize) -> usize {
        self.got.push(vec![0; words]);
        self.want.push(vec![0; words]);
        self.got.len() - 1
    }
}

/// Pool slot of every memory of `g` for one instance running behavior
/// `bi`: owned memories get (or reuse) the instance's persistent slot;
/// external memories alias the caller's banks through the call node's
/// positional bindings — parent and callee literally read and write the
/// same array, which is what makes shared-bank lockstep checkable.
fn resolve_mem_map(
    g: &Dfg,
    state: &mut InstState,
    bi: usize,
    parent_map: &[usize],
    binds: &[MemId],
    pool: &mut MemPool,
) -> Vec<usize> {
    let slots = state.mem_slots[bi].get_or_insert_with(|| vec![None; g.mem_count()]);
    let mut ext = 0usize;
    g.mems()
        .enumerate()
        .map(|(i, (_, m))| match m.scope {
            MemScope::Owned => *slots[i].get_or_insert_with(|| pool.alloc(m.words.max(1) as usize)),
            MemScope::External => match binds.get(ext) {
                Some(b) => {
                    ext += 1;
                    parent_map[b.index()]
                }
                // Standalone cosimulation of a child design (no caller, so
                // no binds): an unbound import behaves as a private
                // zero-initialized bank, matching the flattened reference.
                None => *slots[i].get_or_insert_with(|| pool.alloc(m.words.max(1) as usize)),
            },
        })
        .collect()
}

/// Behavioral value of the variable feeding `e` — what the routing *should*
/// deliver.
fn resolve_expected(
    e: &Edge,
    hist: &HashMap<(VarRef, u32), i64>,
    expected: &HashMap<(NodeId, u16), i64>,
    state_out: &HashMap<(NodeId, u16), StateOut>,
    sub_states: &[InstState],
) -> i64 {
    if e.delay > 0 {
        return hist.get(&(e.from, e.delay)).copied().unwrap_or(0);
    }
    if let Some(&v) = expected.get(&(e.from.node, e.from.port)) {
        return v;
    }
    // A submodule state output consumed before the call ran: its value is
    // the callee's history, which the call will also report.
    if let Some(so) = state_out.get(&(e.from.node, e.from.port)) {
        return sub_states[so.sub].history[so.sub_bi]
            .get(&(so.var, so.delay))
            .copied()
            .unwrap_or(0);
    }
    0
}

/// The value present on the wire of the resource producing `var` (produced
/// this iteration, or a submodule state output readable from history).
#[allow(clippy::too_many_arguments)]
fn wire_value(
    var: VarRef,
    g: &Dfg,
    wire: &HashMap<(NodeId, u16), i64>,
    inputs: &[Option<i64>],
    width: u32,
    state_out: &HashMap<(NodeId, u16), StateOut>,
    sub_states: &[InstState],
    stats: &mut CosimStats,
) -> Option<i64> {
    match g.node(var.node).kind() {
        NodeKind::Input { index } => Some(inputs.get(*index).copied().flatten().unwrap_or(0)),
        NodeKind::Const { value } => Some(truncate(*value, width)),
        NodeKind::Op(_)
        | NodeKind::Hier { .. }
        | NodeKind::Load { .. }
        | NodeKind::Store { .. } => {
            if let Some(&v) = wire.get(&(var.node, var.port)) {
                return Some(v);
            }
            let so = state_out.get(&(var.node, var.port))?;
            stats.state_out_reads += 1;
            Some(
                sub_states[so.sub].history[so.sub_bi]
                    .get(&(so.var, so.delay))
                    .copied()
                    .unwrap_or(0),
            )
        }
        NodeKind::Output { .. } => None,
    }
}

/// Fetch the value feeding edge `e` through the datapath structure as of
/// cycle `c`: chained wire, register file (with same-cycle forwarding), or
/// the delay-line history.
#[allow(clippy::too_many_arguments)]
fn route(
    eid_index: usize,
    e: &Edge,
    c: u32,
    g: &Dfg,
    plan: &Plan,
    binding: &crate::module::Binding,
    bi: usize,
    regs: &[Option<RegSlot>],
    hist: &HashMap<(VarRef, u32), i64>,
    wire: &HashMap<(NodeId, u16), i64>,
    inputs: &[Option<i64>],
    width: u32,
    sub_states: &[InstState],
    stats: &mut CosimStats,
) -> Result<i64, CosimDivergenceKind> {
    if e.delay > 0 {
        return Ok(hist.get(&(e.from, e.delay)).copied().unwrap_or(0));
    }
    let var = e.from;
    match g.node(var.node).kind() {
        NodeKind::Const { value } => Ok(truncate(*value, width)),
        NodeKind::Input { index } => Ok(inputs.get(*index).copied().flatten().unwrap_or(0)),
        NodeKind::Output { .. } => unreachable!("outputs have no consumers"),
        NodeKind::Op(_)
        | NodeKind::Hier { .. }
        | NodeKind::Load { .. }
        | NodeKind::Store { .. } => {
            let from_wire = |stats: &mut CosimStats, why: &str| {
                wire_value(
                    var,
                    g,
                    wire,
                    inputs,
                    width,
                    &plan.state_out,
                    sub_states,
                    stats,
                )
                .ok_or_else(|| CosimDivergenceKind::Datapath {
                    detail: format!(
                        "{why} of {} port {} at cycle {c}: no value on the producing wire",
                        g.node(var.node).name(),
                        var.port
                    ),
                })
            };
            if plan.chained[eid_index] {
                return from_wire(stats, "chained read");
            }
            let Some(&birth) = plan.births.get(&var) else {
                stats.unregistered_reads += 1;
                return from_wire(stats, "unregistered read");
            };
            if birth > c {
                if birth == c + 1 {
                    // The write commits at the end of this cycle; hardware
                    // forwards the producing wire through the mux.
                    stats.forwarded += 1;
                    return from_wire(stats, "forwarded read");
                }
                return Err(CosimDivergenceKind::Datapath {
                    detail: format!(
                        "read of {} port {} at cycle {c} before its register write \
                         (commits end of cycle {})",
                        g.node(var.node).name(),
                        var.port,
                        birth.saturating_sub(1)
                    ),
                });
            }
            let Some(reg) = binding.var_to_reg.get(var) else {
                stats.unregistered_reads += 1;
                return from_wire(stats, "unregistered read");
            };
            match &regs[reg.index()] {
                Some(slot) if slot.behavior == bi && slot.vars.contains(&var) => Ok(slot.value),
                Some(slot) => Err(CosimDivergenceKind::Datapath {
                    detail: format!(
                        "register {reg} read at cycle {c} expects {} port {} but holds \
                         {:?} of behavior {}",
                        g.node(var.node).name(),
                        var.port,
                        slot.vars,
                        slot.behavior
                    ),
                }),
                None => Err(CosimDivergenceKind::Datapath {
                    detail: format!(
                        "register {reg} read at cycle {c} for {} port {} but was never written",
                        g.node(var.node).name(),
                        var.port
                    ),
                }),
            }
        }
    }
}

/// Format a control-word field mismatch.
fn word_mismatch<T: fmt::Debug>(what: &str, got: &T, want: &T) -> CosimDivergenceKind {
    CosimDivergenceKind::ControlWord {
        detail: format!("{what}: fsm asserts {got:?}, schedule implies {want:?}"),
    }
}

/// Immutable context for stepping one behavior of one module instance.
struct Ctx<'a> {
    h: &'a Hierarchy,
    module: &'a RtlModule,
    bi: usize,
    g: &'a Dfg,
    b: &'a crate::module::Behavior,
    width: u32,
    path: &'a str,
    iteration: usize,
}

impl Ctx<'_> {
    fn diverge(&self, cycle: Option<u32>, kind: CosimDivergenceKind) -> Box<CosimDivergence> {
        Box::new(CosimDivergence {
            module: self.path.to_owned(),
            behavior: self.bi,
            iteration: self.iteration,
            cycle,
            kind,
        })
    }

    /// Context for stepping submodule instance `si` running behavior `cbi`.
    fn child<'s>(&'s self, si: usize, cbi: usize, path: &'s str) -> Ctx<'s> {
        let module = &self.module.subs()[si];
        let b = &module.behaviors()[cbi];
        Ctx {
            h: self.h,
            module,
            bi: cbi,
            g: self.h.dfg(b.dfg),
            b,
            width: self.width,
            path,
            iteration: self.iteration,
        }
    }
}

/// A deferred register write of a primary input: the callee's controller
/// latches the input register at the end of cycle `arrival − 1`, one phase
/// before the parent routes the value in. Resolved the same parent cycle,
/// when the delivery arrives.
struct PendingInputWrite {
    reg: usize,
    var: VarRef,
    live: bool,
    /// Value committed by a live co-member of the same write group, if any
    /// (a later delivery must agree, or the write is a genuine collision).
    other_live: Option<i64>,
}

/// One in-flight invocation of a submodule instance, stepped in lockstep
/// with its parent.
struct SubRun {
    /// Index into [`Plan::calls`] of the call site being served.
    ci: usize,
    frame: Box<Frame>,
}

/// Per-iteration execution state of one behavior — everything reset between
/// invocations, as opposed to [`InstState`], which persists.
struct Frame {
    /// Controller cycles executed so far (the next cycle to step).
    cursor: usize,
    /// Values produced on resource output wires this iteration.
    wire: HashMap<(NodeId, u16), i64>,
    /// Behavioral counterparts, filled as nodes execute (constants are
    /// available from the start, inputs once delivered).
    expected: HashMap<(NodeId, u16), i64>,
    /// Primary input values; `None` until the parent delivers the port
    /// (top-level frames start fully populated).
    inputs: Vec<Option<i64>>,
    /// Input-register writes awaiting their port's delivery.
    pending: Vec<PendingInputWrite>,
    /// Call-input deliveries fed straight by one of this behavior's own
    /// inputs that has not arrived yet: both registers latch the same
    /// settling wire on the same edge, so the delivery is deferred until
    /// the value lands later in the cycle.
    blocked: Vec<(usize, u16)>,
    /// Active invocation per submodule instance.
    subruns: Vec<Option<SubRun>>,
    /// Pool slot of every memory of this behavior's DFG, owned slots plus
    /// caller-bound external ones (resolved per invocation: different call
    /// sites of a shared instance may bind different parent banks).
    mem_map: Vec<usize>,
}

impl Frame {
    fn new(g: &Dfg, subs: usize, width: u32, mem_map: Vec<usize>) -> Self {
        let mut expected = HashMap::new();
        for (nid, node) in g.nodes() {
            if let NodeKind::Const { value } = node.kind() {
                expected.insert((nid, 0), truncate(*value, width));
            }
        }
        Frame {
            cursor: 0,
            wire: HashMap::new(),
            expected,
            inputs: vec![None; g.input_count()],
            pending: Vec::new(),
            blocked: Vec::new(),
            subruns: (0..subs).map(|_| None).collect(),
            mem_map,
        }
    }
}

/// Resolve the pending input-register writes of `in_node` once its port
/// value arrives: patch the slot the callee latched one phase earlier, or
/// flag a genuine collision against a live co-member.
#[allow(clippy::too_many_arguments)]
fn resolve_pending_input(
    child_frame: &mut Frame,
    child_regs: &mut [Option<RegSlot>],
    in_node: NodeId,
    value: i64,
    child_path: &str,
    child_bi: usize,
    iteration: usize,
    child_cycle: Option<u32>,
) -> Result<(), Box<CosimDivergence>> {
    let mut i = 0;
    while i < child_frame.pending.len() {
        if child_frame.pending[i].var.node != in_node {
            i += 1;
            continue;
        }
        let p = child_frame.pending.remove(i);
        if !p.live {
            continue;
        }
        if let Some(x) = p.other_live {
            if x != value {
                return Err(Box::new(CosimDivergence {
                    module: child_path.to_owned(),
                    behavior: child_bi,
                    iteration,
                    cycle: child_cycle,
                    kind: CosimDivergenceKind::Register {
                        detail: format!(
                            "R{}: conflicting live writes {x} and {value} this cycle",
                            p.reg
                        ),
                    },
                }));
            }
            continue;
        }
        if let Some(slot) = child_regs[p.reg].as_mut() {
            if slot.behavior == child_bi && slot.vars.contains(&p.var) {
                slot.value = value;
            }
        }
    }
    Ok(())
}

/// The value on direct output `var.port` of an in-flight call, read from
/// the callee's datapath mid-run (the parent's register latches the output
/// wire while the callee is still executing), paired with its behavioral
/// counterpart.
#[allow(clippy::too_many_arguments)]
fn sub_output_value(
    ctx: &Ctx<'_>,
    plan: &Plan,
    subruns: &[Option<SubRun>],
    sub_states: &[InstState],
    sub_plans: &[PlanTree],
    var: VarRef,
    stats: &mut CosimStats,
) -> Option<(i64, i64)> {
    let si = ctx.b.binding.hier_to_sub.get(var.node)?.index();
    let run = subruns.get(si)?.as_ref()?;
    let call = &plan.calls[run.ci];
    if call.node != var.node || run.frame.cursor == 0 {
        return None;
    }
    let sub = &ctx.module.subs()[si];
    let cbi = call.sub_bi;
    let cb = &sub.behaviors()[cbi];
    let cg = ctx.h.dfg(cb.dfg);
    let cplan = sub_plans[si].behaviors.get(cbi)?.as_ref()?;
    let &out_node = cg.outputs().get(var.port as usize)?;
    let (eid, e) = cg.in_edges(out_node).next()?;
    if e.delay > 0 {
        // State outputs resolve through the callee's history instead.
        return None;
    }
    let cs = &sub_states[si];
    let got = route(
        eid.index(),
        e,
        run.frame.cursor as u32 - 1,
        cg,
        cplan,
        &cb.binding,
        cbi,
        &cs.regs,
        &cs.history[cbi],
        &run.frame.wire,
        &run.frame.inputs,
        ctx.width,
        &cs.subs,
        stats,
    )
    .ok()?;
    let want = resolve_expected(
        e,
        &cs.history[cbi],
        &run.frame.expected,
        &cplan.state_out,
        &cs.subs,
    );
    Some((got, want))
}

/// Route the value feeding input `p` of call `ci`, check it against the
/// behavioral reference, and hand it to the callee's frame (patching any
/// input-register write the callee's controller asserted one phase
/// earlier, and flushing deliveries the callee deferred on this input).
#[allow(clippy::too_many_arguments)]
fn deliver_port(
    ctx: &Ctx<'_>,
    plan: &Plan,
    frame: &mut Frame,
    state: &mut InstState,
    sub_plans: &[PlanTree],
    stats: &mut CosimStats,
    ci: usize,
    p: u16,
    cy: u32,
) -> Result<(), Box<CosimDivergence>> {
    let call = &plan.calls[ci];
    let si = call.sub;
    // A restart may have pre-empted this invocation (drained with
    // best-effort deliveries); the port is already closed out then.
    if !matches!(&frame.subruns[si], Some(run) if run.ci == ci) {
        return Ok(());
    }
    let g = ctx.g;
    let (eid, e) = g
        .in_edges(call.node)
        .find(|(_, e)| e.to_port == p)
        .expect("validated dfg");
    if e.delay == 0 {
        if let NodeKind::Input { index } = g.node(e.from.node).kind() {
            if frame.inputs.get(*index).copied().flatten().is_none() {
                // Fed straight by one of our own inputs that has not
                // arrived yet: defer until the value lands later this
                // cycle.
                frame.blocked.push((ci, p));
                return Ok(());
            }
        }
    }
    let (got, want) = match route(
        eid.index(),
        e,
        cy,
        g,
        plan,
        &ctx.b.binding,
        ctx.bi,
        &state.regs,
        &state.history[ctx.bi],
        &frame.wire,
        &frame.inputs,
        ctx.width,
        &state.subs,
        stats,
    ) {
        Ok(v) => {
            let want = resolve_expected(
                e,
                &state.history[ctx.bi],
                &frame.expected,
                &plan.state_out,
                &state.subs,
            );
            (v, want)
        }
        Err(k) => {
            // The feeding value may be an output of another call still
            // mid-run: the hardware muxes the callee's output wire
            // straight into this port.
            let fallback = if e.delay == 0 {
                sub_output_value(
                    ctx,
                    plan,
                    &frame.subruns,
                    &state.subs,
                    sub_plans,
                    e.from,
                    stats,
                )
            } else {
                None
            };
            match fallback {
                Some(vw) => vw,
                None => return Err(ctx.diverge(Some(cy), k)),
            }
        }
    };
    if got != want {
        return Err(ctx.diverge(
            Some(cy),
            CosimDivergenceKind::Datapath {
                detail: format!(
                    "input {p} of call {} sampled {got}, behavior says {want}",
                    g.node(call.node).name()
                ),
            },
        ));
    }
    let in_node = sub_plans[si].behaviors[call.sub_bi]
        .as_ref()
        .expect("callee plan ensured at start")
        .input_nodes[p as usize];
    let child_path = format!("{}/{}", ctx.path, ctx.module.subs()[si].name());
    let run = frame.subruns[si].as_mut().expect("checked active above");
    run.frame.inputs[p as usize] = Some(got);
    run.frame.expected.insert((in_node, 0), got);
    resolve_pending_input(
        &mut run.frame,
        &mut state.subs[si].regs,
        in_node,
        got,
        &child_path,
        call.sub_bi,
        ctx.iteration,
        Some(cy.saturating_sub(call.start)),
    )?;
    if !run.frame.blocked.is_empty() {
        // This value may unblock deliveries the callee deferred to its
        // own callees.
        let cplan = sub_plans[si].behaviors[call.sub_bi]
            .as_ref()
            .expect("callee plan ensured at start");
        let child_ctx = ctx.child(si, call.sub_bi, &child_path);
        let blocked = std::mem::take(&mut run.frame.blocked);
        let ccy = (run.frame.cursor as u32).saturating_sub(1);
        for (cci, cp) in blocked {
            deliver_port(
                &child_ctx,
                cplan,
                &mut run.frame,
                &mut state.subs[si],
                &sub_plans[si].subs,
                stats,
                cci,
                cp,
                ccy,
            )?;
        }
    }
    Ok(())
}

/// Complete the in-flight invocation on submodule instance `si`
/// immediately: best-effort deliver any outstanding input ports as routed
/// right now, run the callee's remaining cycles, and publish its outputs.
/// Used when the parent's iteration ends while the callee's tail cycles
/// extend past the parent's makespan, or when the instance is re-armed.
#[allow(clippy::too_many_arguments)]
fn drain_subrun(
    ctx: &Ctx<'_>,
    plan: &Plan,
    frame: &mut Frame,
    state: &mut InstState,
    sub_plans: &mut [PlanTree],
    pool: &mut MemPool,
    stats: &mut CosimStats,
    si: usize,
    cy: u32,
) -> Result<(), Box<CosimDivergence>> {
    let Some(mut run) = frame.subruns[si].take() else {
        return Ok(());
    };
    let call = &plan.calls[run.ci];
    let child_path = format!("{}/{}", ctx.path, ctx.module.subs()[si].name());
    let child_ctx = ctx.child(si, call.sub_bi, &child_path);
    let cplan = sub_plans[si].behaviors[call.sub_bi]
        .as_ref()
        .expect("callee plan ensured at start");
    let child_n = cplan.n_cycles;
    let input_nodes = cplan.input_nodes.clone();
    // Outstanding deliveries are routed as of now without a reference
    // check — the pre-empted tail is not observable by the parent, and the
    // callee's own checks still run against these values.
    // `p` also indexes `run.frame.inputs`, which is written in the body.
    #[allow(clippy::needless_range_loop)]
    for p in 0..run.frame.inputs.len() {
        if run.frame.inputs[p].is_some() {
            continue;
        }
        let Some((eid, e)) = ctx
            .g
            .in_edges(call.node)
            .find(|(_, e)| e.to_port == p as u16)
        else {
            continue;
        };
        let Ok(v) = route(
            eid.index(),
            e,
            cy,
            ctx.g,
            plan,
            &ctx.b.binding,
            ctx.bi,
            &state.regs,
            &state.history[ctx.bi],
            &frame.wire,
            &frame.inputs,
            ctx.width,
            &state.subs,
            stats,
        ) else {
            continue;
        };
        run.frame.inputs[p] = Some(v);
        run.frame.expected.insert((input_nodes[p], 0), v);
        resolve_pending_input(
            &mut run.frame,
            &mut state.subs[si].regs,
            input_nodes[p],
            v,
            &child_path,
            call.sub_bi,
            ctx.iteration,
            Some(cy.saturating_sub(call.start)),
        )?;
    }
    {
        let cplan = sub_plans[si].behaviors[call.sub_bi]
            .as_ref()
            .expect("callee plan ensured at start");
        let blocked = std::mem::take(&mut run.frame.blocked);
        let ccy = (run.frame.cursor as u32).saturating_sub(1);
        for (cci, cp) in blocked {
            deliver_port(
                &child_ctx,
                cplan,
                &mut run.frame,
                &mut state.subs[si],
                &sub_plans[si].subs,
                stats,
                cci,
                cp,
                ccy,
            )?;
        }
    }
    while run.frame.cursor < child_n {
        step_cycle(
            &child_ctx,
            &mut run.frame,
            &mut state.subs[si],
            &mut sub_plans[si],
            pool,
            stats,
        )?;
    }
    let out = finish_behavior(
        &child_ctx,
        &mut run.frame,
        &mut state.subs[si],
        &mut sub_plans[si],
        pool,
        stats,
    )?;
    stats.sub_calls += 1;
    for (q, v) in out.into_iter().enumerate() {
        frame.wire.insert((call.node, q as u16), v);
        frame.expected.insert((call.node, q as u16), v);
    }
    Ok(())
}

/// Execute one controller cycle: check the control word, fire the
/// operations starting this cycle, start/step/finish submodule invocations
/// in lockstep, deliver profile-timed call inputs, and commit the register
/// writes the controller asserts on the closing clock edge.
fn step_cycle(
    ctx: &Ctx<'_>,
    frame: &mut Frame,
    state: &mut InstState,
    plans: &mut PlanTree,
    pool: &mut MemPool,
    stats: &mut CosimStats,
) -> Result<(), Box<CosimDivergence>> {
    let g = ctx.g;
    let PlanTree {
        behaviors,
        subs: sub_plans,
    } = plans;
    let plan = behaviors[ctx.bi]
        .as_ref()
        .expect("plan ensured before stepping");
    let c = frame.cursor;
    frame.cursor += 1;
    let cy = c as u32;
    stats.cycles += 1;
    let word = &plan.words[c];

    // 1. The control word must match what the schedule and binding imply
    //    for this cycle.
    if word.fu_ops != plan.fu_expect[c] {
        return Err(ctx.diverge(
            Some(cy),
            word_mismatch("FU operations", &word.fu_ops, &plan.fu_expect[c]),
        ));
    }
    if word.sub_starts != plan.sub_expect[c] {
        return Err(ctx.diverge(
            Some(cy),
            word_mismatch("submodule starts", &word.sub_starts, &plan.sub_expect[c]),
        ));
    }
    if word.reg_loads != plan.load_expect[c] {
        return Err(ctx.diverge(
            Some(cy),
            word_mismatch("register loads", &word.reg_loads, &plan.load_expect[c]),
        ));
    }
    if word.mem_issues != plan.mem_expect[c] {
        return Err(ctx.diverge(
            Some(cy),
            word_mismatch("memory issues", &word.mem_issues, &plan.mem_expect[c]),
        ));
    }

    // 2. Fire the operations starting this cycle, in topological order so
    //    chained producers execute before their consumers.
    for &nid in &plan.ops_at[c] {
        let NodeKind::Op(op) = g.node(nid).kind() else {
            unreachable!("ops_at holds operation nodes");
        };
        let mut args = Vec::with_capacity(op.arity());
        for p in 0..op.arity() as u16 {
            let (eid, e) = g
                .in_edges(nid)
                .find(|(_, e)| e.to_port == p)
                .expect("validated dfg");
            let got = route(
                eid.index(),
                e,
                cy,
                g,
                plan,
                &ctx.b.binding,
                ctx.bi,
                &state.regs,
                &state.history[ctx.bi],
                &frame.wire,
                &frame.inputs,
                ctx.width,
                &state.subs,
                stats,
            )
            .map_err(|k| ctx.diverge(Some(cy), k))?;
            let want = resolve_expected(
                e,
                &state.history[ctx.bi],
                &frame.expected,
                &plan.state_out,
                &state.subs,
            );
            if got != want {
                return Err(ctx.diverge(
                    Some(cy),
                    CosimDivergenceKind::Datapath {
                        detail: format!(
                            "operand {p} of {} routed {got}, behavior says {want}",
                            g.node(nid).name()
                        ),
                    },
                ));
            }
            args.push(got);
        }
        let v = op.eval(&args, ctx.width);
        frame.wire.insert((nid, 0), v);
        frame.expected.insert((nid, 0), v);
        stats.fu_fires += 1;
    }

    // 2a. Issue the memory accesses starting this cycle: route the address
    //     (and a store's write data) through the datapath, apply them to
    //     the physical banks, and check the touched word against the
    //     behavioral shadow memory — the memory state is verified cycle by
    //     cycle, not just at outputs.
    for &nid in &plan.accesses_at[c] {
        let (mem, is_store) = match g.node(nid).kind() {
            NodeKind::Load { mem } => (*mem, false),
            NodeKind::Store { mem } => (*mem, true),
            _ => unreachable!("accesses_at holds memory accesses"),
        };
        let nports: u16 = if is_store { 2 } else { 1 };
        let mut got_args = [0i64; 2];
        let mut want_args = [0i64; 2];
        for p in 0..nports {
            let (eid, e) = g
                .in_edges(nid)
                .find(|(_, e)| e.to_port == p)
                .expect("validated dfg");
            let got = route(
                eid.index(),
                e,
                cy,
                g,
                plan,
                &ctx.b.binding,
                ctx.bi,
                &state.regs,
                &state.history[ctx.bi],
                &frame.wire,
                &frame.inputs,
                ctx.width,
                &state.subs,
                stats,
            )
            .map_err(|k| ctx.diverge(Some(cy), k))?;
            let want = resolve_expected(
                e,
                &state.history[ctx.bi],
                &frame.expected,
                &plan.state_out,
                &state.subs,
            );
            if got != want {
                return Err(ctx.diverge(
                    Some(cy),
                    CosimDivergenceKind::Datapath {
                        detail: format!(
                            "operand {p} of {} routed {got}, behavior says {want}",
                            g.node(nid).name()
                        ),
                    },
                ));
            }
            got_args[p as usize] = got;
            want_args[p as usize] = want;
        }
        let m = g.mem(mem);
        let slot = frame.mem_map[mem.index()];
        let words_n = pool.got[slot].len() as i64;
        let wi = got_args[0].rem_euclid(words_n) as usize;
        let wj = want_args[0].rem_euclid(words_n) as usize;
        let (v_got, v_want) = if is_store {
            let ew = m.elem_width.min(ctx.width).max(1);
            let sg = truncate(got_args[1], ew);
            let sw = truncate(want_args[1], ew);
            pool.got[slot][wi] = sg;
            pool.want[slot][wj] = sw;
            (sg, sw)
        } else {
            (pool.got[slot][wi], pool.want[slot][wj])
        };
        if v_got != v_want || pool.got[slot][wi] != pool.want[slot][wi] {
            return Err(ctx.diverge(
                Some(cy),
                CosimDivergenceKind::Memory {
                    detail: format!(
                        "{} word {wi} of {}: datapath {v_got}, behavior {v_want}",
                        if is_store { "store to" } else { "load from" },
                        m.name
                    ),
                },
            ));
        }
        frame.wire.insert((nid, 0), v_got);
        frame.expected.insert((nid, 0), v_want);
        stats.mem_accesses += 1;
    }

    // 3. Start the calls strobed this cycle. Re-arming an instance whose
    //    previous invocation is still in its tail cycles completes that
    //    invocation first — everything the parent needed from it was
    //    produced inside its occupied window.
    for &ci in &plan.starts_at[c] {
        let call = &plan.calls[ci];
        let si = call.sub;
        if frame.subruns[si].is_some() {
            drain_subrun(ctx, plan, frame, state, sub_plans, pool, stats, si, cy)?;
        }
        let sub = &ctx.module.subs()[si];
        sub_plans[si].ensure(ctx.h, sub, call.sub_bi);
        let sub_g = ctx.h.dfg(sub.behaviors()[call.sub_bi].dfg);
        let mem_map = resolve_mem_map(
            sub_g,
            &mut state.subs[si],
            call.sub_bi,
            &frame.mem_map,
            g.node(call.node).mem_binds(),
            pool,
        );
        frame.subruns[si] = Some(SubRun {
            ci,
            frame: Box::new(Frame::new(sub_g, sub.subs().len(), ctx.width, mem_map)),
        });
    }

    // 3a. Deliver the call inputs due on the start edge (profile arrival
    //     0): the callee reads them from its first cycle on.
    for &(ci, p) in &plan.samples_at[c] {
        deliver_port(ctx, plan, frame, state, sub_plans, stats, ci, p, cy)?;
    }

    // 4. Step every in-flight invocation one cycle — the callee's cycle
    //    `k` executes at parent cycle `start + k` — and finish those that
    //    completed their final cycle.
    // `si` also indexes `frame.subruns` for the take/put-back pattern.
    #[allow(clippy::needless_range_loop)]
    for si in 0..frame.subruns.len() {
        let Some(mut run) = frame.subruns[si].take() else {
            continue;
        };
        let call = &plan.calls[run.ci];
        let child_n = sub_plans[si].behaviors[call.sub_bi]
            .as_ref()
            .expect("callee plan ensured at start")
            .n_cycles;
        let child_path = format!("{}/{}", ctx.path, ctx.module.subs()[si].name());
        let child_ctx = ctx.child(si, call.sub_bi, &child_path);
        if run.frame.cursor < child_n {
            step_cycle(
                &child_ctx,
                &mut run.frame,
                &mut state.subs[si],
                &mut sub_plans[si],
                pool,
                stats,
            )?;
        }
        if run.frame.cursor >= child_n {
            let out = finish_behavior(
                &child_ctx,
                &mut run.frame,
                &mut state.subs[si],
                &mut sub_plans[si],
                pool,
                stats,
            )?;
            stats.sub_calls += 1;
            for (q, v) in out.into_iter().enumerate() {
                frame.wire.insert((call.node, q as u16), v);
                frame.expected.insert((call.node, q as u16), v);
            }
        } else {
            frame.subruns[si] = Some(run);
        }
    }

    // 5. Deliver the pre-latched call inputs: ports with profile arrival
    //    `a ≥ 1`, captured by the callee's input register at the end of
    //    parent cycle `start + a − 1` as the parent-side value settles.
    for &(ci, p) in &plan.late_samples_at[c] {
        stats.early_samples += 1;
        deliver_port(ctx, plan, frame, state, sub_plans, stats, ci, p, cy)?;
    }

    // 6. Commit the register writes the controller asserts at the end of
    //    this cycle.
    for (reg, vars) in &plan.writes_at[c] {
        let mut live_value: Option<i64> = None;
        let mut first_value: Option<i64> = None;
        let mut deferred: Vec<(VarRef, bool)> = Vec::new();
        for &(v, live) in vars {
            if let NodeKind::Input { index } = g.node(v.node).kind() {
                if frame.inputs.get(*index).copied().flatten().is_none() {
                    // The controller latches this input register one phase
                    // before the parent routes the port in; the delivery
                    // later this cycle patches the slot.
                    deferred.push((v, live));
                    continue;
                }
            }
            let resolved = match wire_value(
                v,
                g,
                &frame.wire,
                &frame.inputs,
                ctx.width,
                &plan.state_out,
                &state.subs,
                stats,
            ) {
                Some(got) => Some((got, None)),
                None => {
                    sub_output_value(ctx, plan, &frame.subruns, &state.subs, sub_plans, v, stats)
                        .map(|(got, want)| (got, Some(want)))
                }
            };
            let Some((got, want_override)) = resolved else {
                return Err(ctx.diverge(
                    Some(cy),
                    CosimDivergenceKind::Register {
                        detail: format!(
                            "write of {} port {} to R{reg}: producer has no value yet",
                            g.node(v.node).name(),
                            v.port
                        ),
                    },
                ));
            };
            let want = match want_override {
                Some(w) => w,
                None => match g.node(v.node).kind() {
                    NodeKind::Input { index } => {
                        frame.inputs.get(*index).copied().flatten().unwrap_or(0)
                    }
                    _ => resolve_expected(
                        &Edge {
                            from: v,
                            to: v.node,
                            to_port: 0,
                            delay: 0,
                        },
                        &state.history[ctx.bi],
                        &frame.expected,
                        &plan.state_out,
                        &state.subs,
                    ),
                },
            };
            if got != want {
                return Err(ctx.diverge(
                    Some(cy),
                    CosimDivergenceKind::Register {
                        detail: format!(
                            "R{reg} loads {got} for {} port {}, behavior says {want}",
                            g.node(v.node).name(),
                            v.port
                        ),
                    },
                ));
            }
            if first_value.is_none() {
                first_value = Some(got);
            }
            if matches!(g.node(v.node).kind(), NodeKind::Hier { .. })
                && !frame.wire.contains_key(&(v.node, v.port))
            {
                // Latched mid-run: publish the output value (and its
                // behavioral counterpart) for later readers.
                frame.wire.insert((v.node, v.port), got);
                frame.expected.insert((v.node, v.port), want);
            }
            if !live {
                // Dead on arrival: every consumer is chained or forwarded,
                // so the latched value is unobservable.
                continue;
            }
            if let Some(prev) = live_value {
                if prev != got {
                    return Err(ctx.diverge(
                        Some(cy),
                        CosimDivergenceKind::Register {
                            detail: format!(
                                "R{reg}: conflicting live writes {prev} and {got} \
                                 this cycle"
                            ),
                        },
                    ));
                }
            }
            live_value = Some(got);
        }
        state.regs[*reg] = Some(RegSlot {
            value: live_value.or(first_value).unwrap_or(0),
            behavior: ctx.bi,
            vars: vars.iter().map(|&(v, _)| v).collect(),
        });
        for (v, live) in deferred {
            frame.pending.push(PendingInputWrite {
                reg: *reg,
                var: v,
                live,
                other_live: live_value,
            });
        }
        stats.reg_writes += 1;
    }

    Ok(())
}

/// Complete an iteration of the behavior `ctx` describes: drain in-flight
/// submodule invocations, read the primary outputs, and shift the
/// delay-line history.
fn finish_behavior(
    ctx: &Ctx<'_>,
    frame: &mut Frame,
    state: &mut InstState,
    plans: &mut PlanTree,
    pool: &mut MemPool,
    stats: &mut CosimStats,
) -> Result<Vec<i64>, Box<CosimDivergence>> {
    let g = ctx.g;
    let PlanTree {
        behaviors,
        subs: sub_plans,
    } = plans;
    let plan = behaviors[ctx.bi]
        .as_ref()
        .expect("plan ensured before stepping");
    let last = plan.n_cycles as u32 - 1;
    for si in 0..frame.subruns.len() {
        if frame.subruns[si].is_some() {
            drain_subrun(ctx, plan, frame, state, sub_plans, pool, stats, si, last)?;
        }
    }

    // Primary outputs are read at the end of the final cycle (their
    // lifetimes extend to the horizon).
    let mut outputs = Vec::with_capacity(g.output_count());
    for (i, &o) in g.outputs().iter().enumerate() {
        let (eid, e) = g.in_edges(o).next().expect("validated dfg");
        let got = route(
            eid.index(),
            e,
            last,
            g,
            plan,
            &ctx.b.binding,
            ctx.bi,
            &state.regs,
            &state.history[ctx.bi],
            &frame.wire,
            &frame.inputs,
            ctx.width,
            &state.subs,
            stats,
        )
        .map_err(|k| ctx.diverge(None, k))?;
        let want = resolve_expected(
            e,
            &state.history[ctx.bi],
            &frame.expected,
            &plan.state_out,
            &state.subs,
        );
        if got != want {
            return Err(ctx.diverge(
                None,
                CosimDivergenceKind::Output {
                    index: i,
                    got,
                    expected: want,
                },
            ));
        }
        outputs.push(got);
    }

    // Shift the delay-line history (after outputs: a delayed output edge
    // delivers the value from `delay` iterations before this one).
    for &(var, maxd) in &plan.max_delay {
        for k in (2..=maxd).rev() {
            if let Some(&prev) = state.history[ctx.bi].get(&(var, k - 1)) {
                state.history[ctx.bi].insert((var, k), prev);
            }
        }
        let current = wire_value(
            var,
            g,
            &frame.wire,
            &frame.inputs,
            ctx.width,
            &plan.state_out,
            &state.subs,
            stats,
        )
        .unwrap_or(0);
        state.history[ctx.bi].insert((var, 1), current);
    }

    Ok(outputs)
}

/// Execute one iteration of `module.behaviors()[bi]` on `inputs`, stepping
/// the FSM cycle by cycle (and every in-flight submodule FSM in lockstep).
#[allow(clippy::too_many_arguments)]
fn cosim_behavior(
    h: &Hierarchy,
    module: &RtlModule,
    bi: usize,
    inputs: &[i64],
    width: u32,
    state: &mut InstState,
    plans: &mut PlanTree,
    pool: &mut MemPool,
    stats: &mut CosimStats,
    path: &str,
    iteration: usize,
) -> Result<Vec<i64>, Box<CosimDivergence>> {
    let b = &module.behaviors()[bi];
    let g = h.dfg(b.dfg);
    plans.ensure(h, module, bi);
    let ctx = Ctx {
        h,
        module,
        bi,
        g,
        b,
        width,
        path,
        iteration,
    };
    // The top DFG imports nothing: every memory it names is owned here.
    let mem_map = resolve_mem_map(g, state, bi, &[], &[], pool);
    let mut frame = Frame::new(g, module.subs().len(), width, mem_map);
    let n_cycles = {
        let plan = plans.behaviors[bi].as_ref().expect("prepared above");
        for (i, &v) in inputs.iter().enumerate() {
            frame.inputs[i] = Some(v);
            frame.expected.insert((plan.input_nodes[i], 0), v);
        }
        plan.n_cycles
    };
    for _ in 0..n_cycles {
        step_cycle(&ctx, &mut frame, state, plans, pool, stats)?;
    }
    finish_behavior(&ctx, &mut frame, state, plans, pool, stats)
}

/// Co-simulate `module` executing its first behavior once per input sample,
/// driving the generated FSM against the bound datapath and checking every
/// routed value against the behavioral semantics.
///
/// `inputs` holds one stream per primary input of the top behavior's DFG,
/// all the same length (the raw `samples` of a `TraceSet`). On success the
/// returned outputs are bit-identical to the behavioral reference
/// evaluator; the first structural mismatch aborts with a boxed
/// [`CosimDivergence`] naming the module, cycle, and resource.
///
/// # Errors
///
/// Returns the first [`CosimDivergence`] encountered.
///
/// # Panics
///
/// Panics if `width` is not in `1..=32`, if the stream count does not match
/// the DFG, or if the streams have unequal lengths.
pub fn cosimulate(
    h: &Hierarchy,
    module: &RtlModule,
    inputs: &[Vec<i64>],
    width: u32,
) -> Result<CosimRun, Box<CosimDivergence>> {
    assert!((1..=32).contains(&width), "width must be in 1..=32");
    let g = h.dfg(module.behaviors()[0].dfg);
    assert_eq!(
        inputs.len(),
        g.input_count(),
        "input stream count must match the top DFG"
    );
    let len = inputs.first().map_or(0, Vec::len);
    assert!(
        inputs.iter().all(|s| s.len() == len),
        "input streams must have equal lengths"
    );

    let mut state = InstState::for_module(module);
    let mut plans = PlanTree::for_module(module);
    let mut pool = MemPool::default();
    let mut stats = CosimStats::default();
    let mut outputs: Vec<Vec<i64>> = vec![Vec::with_capacity(len); g.output_count()];
    let mut sample = vec![0i64; inputs.len()];
    for n in 0..len {
        for (i, s) in inputs.iter().enumerate() {
            sample[i] = s[n];
        }
        let out = cosim_behavior(
            h,
            module,
            0,
            &sample,
            width,
            &mut state,
            &mut plans,
            &mut pool,
            &mut stats,
            module.name(),
            n,
        )?;
        stats.iterations += 1;
        for (o, v) in outputs.iter_mut().zip(&out) {
            o.push(*v);
        }
    }
    Ok(CosimRun { outputs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build, BuildCtx, FuGroup, ModuleSpec, RegPolicy, SubSpec};
    use hsyn_dfg::{Dfg, Hierarchy, Operation};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
    use hsyn_lib::Library;

    const W: u32 = 16;

    fn dedicated(h: &Hierarchy, dfg: hsyn_dfg::DfgId, lib: &Library) -> ModuleSpec {
        ModuleSpec::dedicated(
            h,
            dfg,
            "m",
            |_, op| lib.fastest_for(op).unwrap(),
            |_, _| unreachable!(),
        )
    }

    fn ramp(n: usize, k: i64) -> Vec<i64> {
        (0..n as i64).map(|i| i * 3 + k).collect()
    }

    #[test]
    fn sop_cosimulates_bit_exactly() {
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("sop");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[c, d]);
        let s = g.add_op(Operation::Add, "s", &[m1, m2]);
        g.add_output("y", s);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();

        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, id, &lib), &ctx).unwrap();

        let inputs: Vec<Vec<i64>> = (0..4).map(|k| ramp(8, k)).collect();
        let run = cosimulate(&h, &m, &inputs, W).unwrap();
        let want = hsyn_dfg::reference_outputs(h.dfg(id), &inputs, W);
        assert_eq!(run.outputs, want);
        assert!(run.stats.fu_fires >= 3 * 8);
        assert!(run.stats.reg_writes > 0);
        assert_eq!(run.stats.iterations, 8);
    }

    #[test]
    fn accumulator_state_survives_iterations() {
        // y[n] = x[n] + y[n-1]: exercises the sticky register / history path.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("acc");
        let x = g.add_input("x");
        let acc = g.add_op_detached(Operation::Add, "acc");
        g.connect(x, acc, 0, 0);
        g.connect(hsyn_dfg::VarRef::new(acc, 0), acc, 1, 1);
        g.add_output("y", hsyn_dfg::VarRef::new(acc, 0));
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();

        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, id, &lib), &ctx).unwrap();

        let inputs = vec![vec![1, 2, 3, 4, 5]];
        let run = cosimulate(&h, &m, &inputs, W).unwrap();
        assert_eq!(run.outputs, vec![vec![1, 3, 6, 10, 15]]);
    }

    #[test]
    fn shared_multiplier_design_cosimulates() {
        // Two mults on ONE unit: serialization, register traffic, and the
        // FU-op control words over multiple cycles all get exercised.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("share");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[c, d]);
        let s = g.add_op(Operation::Sub, "s", &[m1, m2]);
        g.add_output("y", s);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();

        let lib = table1_library();
        let mults: Vec<_> = vec![m1.node, m2.node];
        let spec = ModuleSpec {
            name: "share_impl".into(),
            dfg: id,
            fu_groups: vec![
                FuGroup {
                    fu_type: lib.fu_by_name("mult1").unwrap(),
                    ops: mults,
                },
                FuGroup {
                    fu_type: lib.fu_by_name("add1").unwrap(),
                    ops: vec![s.node],
                },
            ],
            subs: vec![],
            reg_policy: RegPolicy::Packed,
        };
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let m = build(&h, &spec, &ctx).unwrap();

        let inputs: Vec<Vec<i64>> = (0..4).map(|k| ramp(6, 7 * k + 1)).collect();
        let run = cosimulate(&h, &m, &inputs, W).unwrap();
        let want = hsyn_dfg::reference_outputs(h.dfg(id), &inputs, W);
        assert_eq!(run.outputs, want);
    }

    #[test]
    fn profiled_submodule_cosimulates() {
        // Parent calls a separately built child module: start strobes,
        // profile-timed input sampling, and output register writes.
        let mut h = Hierarchy::new();
        let mut sub = Dfg::new("sub");
        let a = sub.add_input("a");
        let b = sub.add_input("b");
        let m = sub.add_op(Operation::Mult, "m", &[a, b]);
        sub.add_output("o", m);
        let sub_id = h.add_dfg(sub);
        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let y = top.add_input("y");
        let call = top.add_hier(sub_id, "H", &[x, y]);
        let s = top.add_op(Operation::Add, "s", &[top.hier_out(call, 0), x]);
        top.add_output("z", s);
        let top_id = h.add_dfg(top);
        h.set_top(top_id);
        h.validate().unwrap();

        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let child = build(
            &h,
            &ModuleSpec::dedicated(
                &h,
                sub_id,
                "H_impl",
                |_, op| lib.fastest_for(op).unwrap(),
                |_, _| unreachable!(),
            ),
            &ctx,
        )
        .unwrap();
        let spec = ModuleSpec {
            name: "top_impl".into(),
            dfg: top_id,
            fu_groups: vec![FuGroup {
                fu_type: lib.fu_by_name("add1").unwrap(),
                ops: vec![s.node],
            }],
            subs: vec![SubSpec {
                module: child,
                nodes: vec![call],
            }],
            reg_policy: RegPolicy::Dedicated,
        };
        let parent = build(&h, &spec, &ctx).unwrap();

        let flat = h.flatten();
        let inputs: Vec<Vec<i64>> = (0..2).map(|k| ramp(6, k + 2)).collect();
        let run = cosimulate(&h, &parent, &inputs, W).unwrap();
        let want = hsyn_dfg::reference_outputs(&flat, &inputs, W);
        assert_eq!(run.outputs, want);
        assert_eq!(run.stats.sub_calls, 6);
    }

    #[test]
    fn call_with_early_output_and_late_input_cosimulates() {
        // The callee produces its first output before its last input
        // arrives (profile inputs {0, a}, outputs {1, ...} with 1 ≤ a):
        // the parent latches o0 while the callee is still waiting for
        // input b, so the invocation must be stepped in lockstep — an
        // atomic-call model would have to sample b before its producer
        // has computed it.
        let mut h = Hierarchy::new();
        let mut sub = Dfg::new("sub");
        let a = sub.add_input("a");
        let bb = sub.add_input("b");
        let fast = sub.add_op(Operation::Add, "fast", &[a, a]);
        let slow = sub.add_op(Operation::Mult, "slow", &[bb, bb]);
        sub.add_output("o0", fast);
        sub.add_output("o1", slow);
        let sub_id = h.add_dfg(sub);

        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let y = top.add_input("y");
        let m = top.add_op(Operation::Mult, "m", &[y, y]);
        let call = top.add_hier(sub_id, "H", &[x, m]);
        let s = top.add_op(
            Operation::Sub,
            "s",
            &[top.hier_out(call, 0), top.hier_out(call, 1)],
        );
        top.add_output("z", s);
        let top_id = h.add_dfg(top);
        h.set_top(top_id);
        h.validate().unwrap();

        let lib = table1_library();
        let mut child_ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(16));
        child_ctx.input_arrivals = Some(vec![0, 3]);
        let child = build(
            &h,
            &ModuleSpec::dedicated(
                &h,
                sub_id,
                "H_impl",
                |_, op| lib.fastest_for(op).unwrap(),
                |_, _| unreachable!(),
            ),
            &child_ctx,
        )
        .unwrap();
        let profile = &child.behaviors()[0].profile;
        assert!(
            profile.outputs[0] <= *profile.inputs.iter().max().unwrap(),
            "test needs an output produced no later than the last input \
             arrives, got inputs {:?} outputs {:?}",
            profile.inputs,
            profile.outputs
        );

        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(16));
        let spec = ModuleSpec {
            name: "top_impl".into(),
            dfg: top_id,
            fu_groups: vec![
                FuGroup {
                    fu_type: lib.fu_by_name("mult1").unwrap(),
                    ops: vec![m.node],
                },
                FuGroup {
                    fu_type: lib.fu_by_name("add1").unwrap(),
                    ops: vec![s.node],
                },
            ],
            subs: vec![SubSpec {
                module: child,
                nodes: vec![call],
            }],
            reg_policy: RegPolicy::Dedicated,
        };
        let parent = build(&h, &spec, &ctx).unwrap();

        let flat = h.flatten();
        let inputs: Vec<Vec<i64>> = (0..2).map(|k| ramp(6, 5 * k + 3)).collect();
        let run = cosimulate(&h, &parent, &inputs, W).unwrap();
        assert_eq!(run.outputs, hsyn_dfg::reference_outputs(&flat, &inputs, W));
        assert!(
            run.stats.early_samples > 0,
            "the late input must be pre-latched"
        );
        assert_eq!(run.stats.sub_calls, 6);
    }

    #[test]
    fn register_collision_is_flagged() {
        // Corrupt the binding so both multiplier results share one register:
        // their writes collide in the same cycle with different values, which
        // the co-simulator must report as a register divergence — this is
        // exactly the class of binding bug the behavioral simulator cannot
        // see (it never consults the register file).
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("sop");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[c, d]);
        let s = g.add_op(Operation::Add, "s", &[m1, m2]);
        g.add_output("y", s);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, id, &lib), &ctx).unwrap();

        let mut behaviors = m.behaviors().to_vec();
        let r1 = behaviors[0].binding.var_to_reg[&m1];
        behaviors[0].binding.var_to_reg.insert(m2, r1);
        let bad = RtlModule::new(
            &h,
            m.name().to_string(),
            m.fus().to_vec(),
            m.regs().to_vec(),
            vec![],
            behaviors,
        );

        // a*b = 6, c*d = 20 in the first iteration: the colliding writes
        // carry different values.
        let inputs = vec![vec![2], vec![3], vec![4], vec![5]];
        let err = *cosimulate(&h, &bad, &inputs, W).unwrap_err();
        assert!(
            matches!(
                err.kind,
                CosimDivergenceKind::Register { .. } | CosimDivergenceKind::Datapath { .. }
            ),
            "collision must surface as a register/datapath divergence, got: {err}"
        );
        assert_eq!(err.iteration, 0);
    }
}
