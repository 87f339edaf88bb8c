//! Bit-true simulation of a scheduled, bound RTL design on input traces,
//! collecting the per-resource event streams the switched-capacitance power
//! model consumes.
//!
//! This substitutes for the paper's IRSIM switch-level simulation of the
//! extracted layout (see DESIGN.md): the estimation *principle* is the same
//! — simulate the circuit on typical inputs and record the capacitance
//! switched — but at the RTL rather than transistor level. Crucially, the
//! simulation is **binding-aware**: each functional-unit *instance* sees the
//! interleaved operand stream of exactly the operations bound to it, so
//! sharing a unit between uncorrelated operations visibly raises its
//! switching activity (the effect behind the paper's observation that
//! power optimization often avoids resource sharing).
//!
//! Two things make repeated simulation cheap inside the improvement loop:
//!
//! * **per-behavior preparation** — the topological order, storage
//!   analysis, glitch-depth map, per-FU event order, delay-history shift
//!   list, flat value-slot layout, and per-port operand sources depend only
//!   on the behavior, not on the data, so they are computed once per run
//!   instead of once per trace iteration; the inner loop then runs on a
//!   flat `Vec<i64>` value arena with no hash lookups;
//! * **submodule replay** ([`SimCache`]) — a top-level submodule whose
//!   structural fingerprint and per-call input stream match a recording
//!   from an earlier run returns its recorded outputs and activity without
//!   simulating. Both are exact: the activity streams are pure integers,
//!   fully determined by the module structure and the call stream.

use crate::traces::TraceSet;
use hsyn_dfg::{Hierarchy, MemScope, NodeId, NodeKind, Operation, VarRef};
use hsyn_rtl::{storage_analysis, FpTree, RtlModule};
use std::collections::HashMap;

/// One execution of an operation on a functional-unit instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FuEvent {
    /// The operation performed.
    pub op: Operation,
    /// First operand value.
    pub a: i64,
    /// Second operand value (0 for unary operations).
    pub b: i64,
    /// Chained combinational depth of this operation: 0 when all operands
    /// come from registers, `1 + max(pred depth)` when fed combinationally
    /// in the same cycle. Drives the glitch multiplier in the estimator.
    pub depth: u32,
}

/// Event streams collected for one RTL module instance (and recursively for
/// its submodule instances).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModuleActivity {
    /// Per functional-unit instance: executions in schedule order across
    /// all iterations.
    pub fu_events: Vec<Vec<FuEvent>>,
    /// Per register instance: written values in write order.
    pub reg_writes: Vec<Vec<i64>>,
    /// Total controller-active cycles across all iterations.
    pub busy_cycles: u64,
    /// Number of behavior executions.
    pub runs: u64,
    /// Per behavior, per memory of that behavior's DFG: `(loads, stores)`
    /// issued across all iterations. Accesses to an external (parent-shared)
    /// memory count here, at the accessing module — the accessor pays the
    /// port energy; the owner pays the bank's standing cost.
    pub mem_accesses: Vec<Vec<(u64, u64)>>,
    /// Activity of submodule instances.
    pub subs: Vec<ModuleActivity>,
}

impl ModuleActivity {
    fn for_module(m: &RtlModule) -> Self {
        ModuleActivity {
            fu_events: vec![Vec::new(); m.fus().len()],
            reg_writes: vec![Vec::new(); m.regs().len()],
            busy_cycles: 0,
            runs: 0,
            // Inner vectors are sized on first execution of each behavior
            // (the word counts live on the DFG, not the RTL module).
            mem_accesses: vec![Vec::new(); m.behaviors().len()],
            subs: m.subs().iter().map(ModuleActivity::for_module).collect(),
        }
    }
}

/// Per-instance inter-iteration state (values crossing iteration boundaries
/// through delayed edges), per behavior.
#[derive(Clone, Debug, Default)]
struct ModuleState {
    /// `history[behavior][(var, k)]` = value of `var` from `k` iterations
    /// ago (k >= 1).
    history: Vec<HashMap<(VarRef, u32), i64>>,
    /// Arena slot of each *owned* memory, per behavior, allocated on first
    /// execution. Memory contents are state, like delay lines: they persist
    /// across iterations.
    mem_slots: Vec<Option<Vec<Option<usize>>>>,
    subs: Vec<ModuleState>,
}

impl ModuleState {
    fn for_module(m: &RtlModule) -> Self {
        ModuleState {
            history: vec![HashMap::new(); m.behaviors().len()],
            mem_slots: vec![None; m.behaviors().len()],
            subs: m.subs().iter().map(ModuleState::for_module).collect(),
        }
    }
}

/// Flat storage for every memory in the design. Owned memories allocate a
/// slot on first use; a callee's external memory aliases the slot the parent
/// passed through the call's `mem_binds`, so parent and child observe one
/// shared bank — the same aliasing discipline as the RTL cosimulator.
#[derive(Default)]
struct MemArena {
    slots: Vec<Vec<i64>>,
}

impl MemArena {
    fn alloc(&mut self, words: usize) -> usize {
        self.slots.push(vec![0; words]);
        self.slots.len() - 1
    }
}

/// Where the value feeding a `(node, in-port)` pair comes from, resolved
/// once per behavior instead of through a driver lookup plus a hash-map
/// probe on every trace iteration.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// Same-iteration value at a flat slot index (see [`Prep::val_start`]).
    Val(u32),
    /// Delayed value: `var` from `delay` iterations ago, read from the
    /// inter-iteration history.
    Hist(VarRef, u32),
}

/// Iteration-invariant preparation for one behavior: everything the inner
/// loop needs that does not depend on the data.
struct Prep {
    /// Topological evaluation order.
    order: Vec<NodeId>,
    /// Chained combinational depth per node (indexed by node id).
    depth: Vec<u32>,
    /// Per FU instance: `(op, node)` in event (schedule) order. The order is
    /// total — two operations sharing a unit are serialized onto distinct
    /// start ticks — so it equals the per-iteration sort it replaces.
    fu_ops: Vec<Vec<(Operation, NodeId)>>,
    /// Register writes in commit order, grouped by `(lifetime birth,
    /// register)`: `(register index, value slots sharing that key)`. Groups
    /// are almost always singletons; a multi-variable group's write order
    /// is value-dependent (ascending — the per-iteration
    /// `sort_unstable` this prep hoists keyed on `(birth, reg, value)`),
    /// so ties are resolved per iteration in [`run_behavior`].
    reg_writes: Vec<(usize, Vec<u32>)>,
    /// Variables feeding delayed edges: `(var, maximum delay, value slot)`,
    /// sorted by var.
    max_delay: Vec<(VarRef, u32, u32)>,
    /// Flat value-slot layout: node `i`'s out-port `p` lives at slot
    /// `val_start[i] + p`; `val_start[n]` is the total slot count. This is
    /// the arena that replaces the per-iteration `(node, port) → value`
    /// hash map.
    val_start: Vec<u32>,
    /// Operand sources per `(node, in-port)`: node `i`'s in-port `p` reads
    /// `srcs[src_start[i] + p]`.
    src_start: Vec<u32>,
    srcs: Vec<Src>,
}

impl Prep {
    fn build(h: &Hierarchy, module: &RtlModule, bi: usize) -> Self {
        let b = &module.behaviors()[bi];
        let g = h.dfg(b.dfg);
        // Memory-aware order: program-order pairs (store-before-load on one
        // memory) are evaluation constraints just like data edges.
        let order = g.mem_topo_order().expect("bound dfg is acyclic").to_vec();
        let st = storage_analysis(g, &b.schedule);
        let n = g.node_count();

        // Flat value-slot layout: one i64 slot per (node, out-port), laid
        // out contiguously per node. Arity comes from the node kind, raised
        // defensively by any edge referencing a higher port.
        let mut slots_per: Vec<u32> = (0..n)
            .map(|i| match g.node(NodeId::from_index(i)).kind() {
                NodeKind::Input { .. } | NodeKind::Const { .. } | NodeKind::Op(_) => 1,
                NodeKind::Load { .. } | NodeKind::Store { .. } => 1,
                NodeKind::Hier { callee } => h.out_arity(*callee) as u32,
                NodeKind::Output { .. } => 0,
            })
            .collect();
        for (_, e) in g.edges() {
            let i = e.from.node.index();
            slots_per[i] = slots_per[i].max(u32::from(e.from.port) + 1);
        }
        let mut val_start = vec![0u32; n + 1];
        for i in 0..n {
            val_start[i + 1] = val_start[i] + slots_per[i];
        }
        let slot_of = |v: VarRef| val_start[v.node.index()] + u32::from(v.port);

        // Per-(node, in-port) operand sources, resolved through the driver
        // table once instead of on every trace iteration.
        let mut src_start = vec![0u32; n + 1];
        let mut srcs: Vec<Src> = Vec::new();
        for i in 0..n {
            let nid = NodeId::from_index(i);
            let ports = match g.node(nid).kind() {
                NodeKind::Op(op) => op.arity(),
                NodeKind::Hier { callee } => h.in_arity(*callee),
                NodeKind::Output { .. } => 1,
                NodeKind::Load { .. } => 1,
                NodeKind::Store { .. } => 2,
                NodeKind::Input { .. } | NodeKind::Const { .. } => 0,
            };
            for p in 0..ports as u16 {
                let e = g.driver(nid, p).expect("validated dfg");
                srcs.push(if e.delay > 0 {
                    Src::Hist(e.from, e.delay)
                } else {
                    Src::Val(slot_of(e.from))
                });
            }
            src_start[i + 1] = srcs.len() as u32;
        }

        // Chained combinational depth per node (for glitch modeling).
        let mut depth = vec![0u32; g.node_count()];
        for &nid in &order {
            if !matches!(g.node(nid).kind(), NodeKind::Op(_)) {
                continue;
            }
            let mut d = 0u32;
            for (eid, e) in g.in_edges(nid) {
                if st.chained_edges[eid.index()] {
                    d = d.max(depth[e.from.node.index()] + 1);
                }
            }
            depth[nid.index()] = d;
        }

        // Per-FU event order: ops sorted by start tick. Distinct ticks per
        // unit (sharing serializes), so the order is independent of the
        // hash-map iteration below.
        let mut keyed: Vec<Vec<(u32, f64, Operation, NodeId)>> =
            vec![Vec::new(); module.fus().len()];
        for (&node, &fu) in &b.binding.op_to_fu {
            if let NodeKind::Op(op) = g.node(node).kind() {
                let t = b.schedule.time(node);
                keyed[fu.index()].push((t.start.cycle, t.start.ns, *op, node));
            }
        }
        let fu_ops = keyed
            .into_iter()
            .map(|mut v| {
                // Node id as the final tiebreak keeps the order total even
                // if a schedule ever produced same-tick ops on one unit.
                v.sort_by(|x, y| {
                    (x.0, x.1, x.3)
                        .partial_cmp(&(y.0, y.1, y.3))
                        .expect("finite")
                });
                v.into_iter().map(|(_, _, op, n)| (op, n)).collect()
            })
            .collect();

        // Register writes ordered by (lifetime birth, register). The pair
        // is *usually* unique, but the binder does allow same-birth
        // variables in one register; those ties were historically broken by
        // the written value (the `sort_unstable` key ended `(birth, reg,
        // value)`), which only an iteration can decide — so group them here
        // and sort the group's values in `run_behavior`.
        let mut births: Vec<(u32, usize, VarRef)> = st
            .stored_vars
            .iter()
            .zip(&st.lifetimes)
            .filter_map(|(v, life)| b.binding.var_to_reg.get(v).map(|r| (life.0, r.index(), *v)))
            .collect();
        births.sort_unstable_by_key(|&(birth, reg, _)| (birth, reg));
        let mut reg_writes: Vec<(usize, Vec<u32>)> = Vec::with_capacity(births.len());
        let mut last_key = None;
        for (birth, reg, v) in births {
            if last_key == Some((birth, reg)) {
                reg_writes
                    .last_mut()
                    .expect("key repeats")
                    .1
                    .push(slot_of(v));
            } else {
                last_key = Some((birth, reg));
                reg_writes.push((reg, vec![slot_of(v)]));
            }
        }

        let mut delays: HashMap<VarRef, u32> = HashMap::new();
        for (_, e) in g.edges() {
            if e.delay > 0 {
                let d = delays.entry(e.from).or_insert(0);
                *d = (*d).max(e.delay);
            }
        }
        let mut max_delay: Vec<(VarRef, u32, u32)> = delays
            .into_iter()
            .map(|(v, d)| (v, d, slot_of(v)))
            .collect();
        max_delay.sort_unstable_by_key(|&(v, _, _)| v);

        Prep {
            order,
            depth,
            fu_ops,
            reg_writes,
            max_delay,
            val_start,
            src_start,
            srcs,
        }
    }

    /// Flat value slot of `(node, out-port)`.
    #[inline]
    fn slot(&self, node: NodeId, port: u16) -> usize {
        self.val_start[node.index()] as usize + port as usize
    }

    /// Operand source of `(node, in-port)`.
    #[inline]
    fn src(&self, node: NodeId, port: u16) -> Src {
        self.srcs[self.src_start[node.index()] as usize + port as usize]
    }
}

/// Lazily-built [`Prep`]s mirroring the module tree.
struct PrepTree {
    behaviors: Vec<Option<Prep>>,
    subs: Vec<PrepTree>,
}

impl PrepTree {
    fn for_module(m: &RtlModule) -> Self {
        PrepTree {
            behaviors: vec![],
            subs: m.subs().iter().map(PrepTree::for_module).collect(),
        }
    }

    fn get(&mut self, h: &Hierarchy, module: &RtlModule, bi: usize) -> &Prep {
        if self.behaviors.is_empty() {
            self.behaviors = module.behaviors().iter().map(|_| None).collect();
        }
        if self.behaviors[bi].is_none() {
            self.behaviors[bi] = Some(Prep::build(h, module, bi));
        }
        self.behaviors[bi].as_ref().expect("just built")
    }
}

/// Simulate `module` executing its first behavior once per trace iteration,
/// returning the collected activity and the output streams.
///
/// # Panics
///
/// Panics if the trace input count does not match the behavior's DFG.
pub fn simulate(
    h: &Hierarchy,
    module: &RtlModule,
    traces: &TraceSet,
) -> (ModuleActivity, Vec<Vec<i64>>) {
    simulate_impl(h, module, traces, None)
}

/// [`simulate`] with top-level submodule replay through `cache`. `fp` must
/// be the fingerprint tree of `module`. Bit-exact with [`simulate`]: the
/// returned activity and outputs are identical, integer for integer.
pub fn simulate_cached(
    h: &Hierarchy,
    module: &RtlModule,
    traces: &TraceSet,
    fp: &FpTree,
    cache: &mut SimCache,
) -> (ModuleActivity, Vec<Vec<i64>>) {
    simulate_impl(h, module, traces, Some((fp, cache)))
}

fn simulate_impl(
    h: &Hierarchy,
    module: &RtlModule,
    traces: &TraceSet,
    cached: Option<(&FpTree, &mut SimCache)>,
) -> (ModuleActivity, Vec<Vec<i64>>) {
    let behavior = 0usize;
    let g = h.dfg(module.behaviors()[behavior].dfg);
    assert_eq!(
        traces.input_count(),
        g.input_count(),
        "trace width must match the top DFG's inputs"
    );
    let mut act = ModuleActivity::for_module(module);
    let mut state = ModuleState::for_module(module);
    let mut prep = PrepTree::for_module(module);
    let mut arena = MemArena::default();

    // Arm one replay driver per top-level submodule instance. A submodule
    // that touches memory anywhere in its subtree is never replayed: its
    // outputs depend on bank contents (possibly shared with the parent),
    // which the `(behavior, inputs)` call key cannot capture.
    let mut drivers: Vec<SubDriver> = Vec::new();
    let mut cache = None;
    if let Some((fp, c)) = cached {
        debug_assert_eq!(fp.subs.len(), module.subs().len(), "FpTree shape mismatch");
        if c.map.len() > SimCache::CAP {
            c.map.clear();
        }
        drivers = fp
            .subs
            .iter()
            .enumerate()
            .map(|(i, sfp)| {
                if subtree_has_mem(h, &module.subs()[i]) {
                    return SubDriver::Bypass;
                }
                match c.map.remove(&(i, sfp.fp)) {
                    Some(rec) => SubDriver::Replaying { rec, pos: 0 },
                    None => SubDriver::Live { calls: Vec::new() },
                }
            })
            .collect();
        cache = Some((fp, c));
    }

    let n_out = g.output_count();
    let mut outputs: Vec<Vec<i64>> = vec![Vec::with_capacity(traces.len()); n_out];
    let mut inputs = vec![0i64; g.input_count()];
    for n in 0..traces.len() {
        for (i, s) in traces.samples.iter().enumerate() {
            inputs[i] = s[n];
        }
        let out = run_behavior(
            h,
            module,
            behavior,
            &inputs,
            traces.width,
            &mut state,
            &mut act,
            &mut prep,
            &mut drivers,
            &mut arena,
            &[],
        );
        for (o, v) in outputs.iter_mut().zip(&out) {
            o.push(*v);
        }
    }

    // Settle the drivers: install replayed activity, refresh recordings.
    if let Some((fp, c)) = cache {
        for (i, driver) in drivers.into_iter().enumerate() {
            let key = (i, fp.subs[i].fp);
            match driver {
                SubDriver::Replaying { rec, pos } if pos == rec.calls.len() => {
                    c.hits += 1;
                    act.subs[i] = rec.act.clone();
                    c.map.insert(key, rec);
                }
                SubDriver::Replaying { rec, pos } => {
                    // The run ended mid-recording: fewer calls than recorded.
                    // The recorded activity covers too much, so replay the
                    // prefix live to rebuild the true (shorter) activity.
                    c.misses += 1;
                    let sub = &module.subs()[i];
                    let mut sub_state = ModuleState::for_module(sub);
                    let mut live_drivers = Vec::new();
                    for call in &rec.calls[..pos] {
                        run_behavior(
                            h,
                            sub,
                            call.bi,
                            &call.inputs,
                            traces.width,
                            &mut sub_state,
                            &mut act.subs[i],
                            &mut prep.subs[i],
                            &mut live_drivers,
                            &mut arena,
                            &[],
                        );
                    }
                    let calls = rec.calls[..pos].to_vec();
                    c.map.insert(
                        key,
                        SubRecording {
                            calls,
                            act: act.subs[i].clone(),
                            energy: None,
                        },
                    );
                }
                SubDriver::Live { calls } => {
                    c.misses += 1;
                    c.map.insert(
                        key,
                        SubRecording {
                            calls,
                            act: act.subs[i].clone(),
                            energy: None,
                        },
                    );
                }
                // Memory-touching subtree: always simulated live, never
                // recorded (a recording keyed on inputs would replay stale
                // bank contents).
                SubDriver::Bypass => {
                    c.misses += 1;
                }
            }
        }
    }
    (act, outputs)
}

/// Whether any behavior in `m`'s subtree declares a memory (owned or
/// imported). Such subtrees carry hidden state and are excluded from replay.
fn subtree_has_mem(h: &Hierarchy, m: &RtlModule) -> bool {
    m.behaviors().iter().any(|b| h.dfg(b.dfg).mem_count() > 0)
        || m.subs().iter().any(|s| subtree_has_mem(h, s))
}

/// One invocation of a submodule behavior, as seen from its parent.
#[derive(Clone, Debug, PartialEq)]
struct CallRecord {
    /// Behavior index executed.
    bi: usize,
    /// Input values.
    inputs: Vec<i64>,
    /// Output values produced.
    outputs: Vec<i64>,
}

/// A completed run of one top-level submodule: the call stream it served
/// and the activity it accumulated.
#[derive(Clone, Debug)]
struct SubRecording {
    calls: Vec<CallRecord>,
    act: ModuleActivity,
    /// Raw subtree energy computed from `act` by the estimator, memoized on
    /// first use (see [`estimate_cached`](crate::estimate_cached)).
    energy: Option<crate::EnergyBreakdown>,
}

/// Per-run replay state of one top-level submodule instance.
enum SubDriver {
    /// Serving calls from a recording; diverges to live on mismatch.
    Replaying { rec: SubRecording, pos: usize },
    /// Simulating live, accumulating a fresh recording.
    Live { calls: Vec<CallRecord> },
    /// Simulating live without recording: the subtree touches memory, so a
    /// call's outputs are not a function of its inputs alone.
    Bypass,
}

/// Memoized submodule simulations, keyed by `(instance index, structural
/// fingerprint)` of the design's top-level submodules.
///
/// The key includes the instance index because structurally identical
/// siblings (think eight parallel dot-product children) see different data;
/// each position keeps its own recording. A replay is *exact*: outputs and
/// activity are integers fully determined by the module structure (the
/// fingerprint) and the per-call inputs, both of which must match.
#[derive(Debug, Default)]
pub struct SimCache {
    map: HashMap<(usize, u64), SubRecording>,
    /// Submodule runs served entirely from recordings.
    pub hits: u64,
    /// Submodule runs simulated live (including divergent replays).
    pub misses: u64,
}

impl SimCache {
    /// Entry cap: the map is cleared when it grows past this (recordings
    /// from stale candidate designs would otherwise accumulate).
    const CAP: usize = 1024;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recordings held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no recordings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Memoized raw subtree energy for top-level sub `index` with
    /// fingerprint `fp`, if recorded.
    pub(crate) fn energy(&self, index: usize, fp: u64) -> Option<crate::EnergyBreakdown> {
        self.map.get(&(index, fp)).and_then(|r| r.energy)
    }

    /// Record the raw subtree energy for `(index, fp)`.
    pub(crate) fn set_energy(&mut self, index: usize, fp: u64, e: crate::EnergyBreakdown) {
        if let Some(r) = self.map.get_mut(&(index, fp)) {
            r.energy = Some(e);
        }
    }
}

impl SubDriver {
    /// Serve one call, replaying when the recording matches and falling
    /// back to live simulation (after rebuilding state from the recorded
    /// prefix) when it diverges.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        h: &Hierarchy,
        sub: &RtlModule,
        bi: usize,
        inputs: &[i64],
        width: u32,
        state: &mut ModuleState,
        act: &mut ModuleActivity,
        prep: &mut PrepTree,
        arena: &mut MemArena,
    ) -> Vec<i64> {
        if let SubDriver::Replaying { rec, pos } = self {
            let matches = rec
                .calls
                .get(*pos)
                .is_some_and(|c| c.bi == bi && c.inputs == inputs);
            if matches {
                let out = rec.calls[*pos].outputs.clone();
                *pos += 1;
                return out;
            }
            // Divergence: rebuild live state by re-running the recorded
            // prefix (state and activity were untouched while replaying),
            // then continue live from here.
            let mut live_drivers = Vec::new();
            for call in &rec.calls[..*pos] {
                run_behavior(
                    h,
                    sub,
                    call.bi,
                    &call.inputs,
                    width,
                    state,
                    act,
                    prep,
                    &mut live_drivers,
                    arena,
                    &[],
                );
            }
            let calls = rec.calls[..*pos].to_vec();
            *self = SubDriver::Live { calls };
        }
        let SubDriver::Live { calls } = self else {
            unreachable!("replaying arm returns or converts to live; bypass never calls");
        };
        let mut live_drivers = Vec::new();
        let out = run_behavior(
            h,
            sub,
            bi,
            inputs,
            width,
            state,
            act,
            prep,
            &mut live_drivers,
            arena,
            &[],
        );
        calls.push(CallRecord {
            bi,
            inputs: inputs.to_vec(),
            outputs: out.clone(),
        });
        out
    }
}

/// Execute one iteration of `module.behaviors()[bi]` on `inputs`.
/// `drivers` is non-empty only for the design's top module when replay is
/// armed; submodule recursion always runs live.
#[allow(clippy::too_many_arguments)]
fn run_behavior(
    h: &Hierarchy,
    module: &RtlModule,
    bi: usize,
    inputs: &[i64],
    width: u32,
    state: &mut ModuleState,
    act: &mut ModuleActivity,
    prep_tree: &mut PrepTree,
    drivers: &mut [SubDriver],
    arena: &mut MemArena,
    ext_slots: &[usize],
) -> Vec<i64> {
    let b = &module.behaviors()[bi];
    let g = h.dfg(b.dfg);
    // Resolve each memory of this behavior to its arena slot: owned
    // memories allocate (once — contents persist across iterations),
    // external ones alias the slots the caller passed, in declaration
    // order (the hierarchy checker validated arity and shape).
    let mem_map: Vec<usize> = {
        let slots = state.mem_slots[bi].get_or_insert_with(|| vec![None; g.mem_count()]);
        let mut ext = ext_slots.iter().copied();
        g.mems()
            .map(|(i, m)| match m.scope {
                MemScope::Owned => {
                    *slots[i.index()].get_or_insert_with(|| arena.alloc(m.words.max(1) as usize))
                }
                MemScope::External => match ext.next() {
                    Some(slot) => slot,
                    // Standalone evaluation (a child resynthesized in
                    // isolation sees no caller): an unbound import behaves
                    // as a private zero-initialized bank, matching the
                    // flattened reference evaluator.
                    None => *slots[i.index()]
                        .get_or_insert_with(|| arena.alloc(m.words.max(1) as usize)),
                },
            })
            .collect()
    };
    if act.mem_accesses.len() != module.behaviors().len() {
        act.mem_accesses
            .resize(module.behaviors().len(), Vec::new());
    }
    if act.mem_accesses[bi].len() != g.mem_count() {
        act.mem_accesses[bi] = vec![(0, 0); g.mem_count()];
    }
    // Split the borrow: the prep for this behavior vs. the sub-prep trees
    // needed by recursion.
    prep_tree.get(h, module, bi);
    let (behaviors, sub_preps) = (&mut prep_tree.behaviors, &mut prep_tree.subs);
    let prep = behaviors[bi].as_ref().expect("prepared above");
    // Flat value arena for this iteration: slot layout from the prep. Slots
    // default to 0, matching the old hash map's `unwrap_or(0)` for values
    // never produced (feedback before the first iteration).
    let mut values: Vec<i64> = vec![0; prep.val_start[g.node_count()] as usize];

    // Read a precomputed operand source — through history for delays.
    fn read_src(state_hist: &HashMap<(VarRef, u32), i64>, values: &[i64], s: Src) -> i64 {
        match s {
            Src::Val(slot) => values[slot as usize],
            Src::Hist(var, d) => state_hist.get(&(var, d)).copied().unwrap_or(0),
        }
    }

    for &nid in &prep.order {
        match g.node(nid).kind() {
            NodeKind::Input { index } => {
                values[prep.slot(nid, 0)] = inputs.get(*index).copied().unwrap_or(0);
            }
            NodeKind::Const { value } => {
                values[prep.slot(nid, 0)] = crate::truncate(*value, width);
            }
            NodeKind::Op(op) => {
                let ar = op.arity();
                let mut args = [0i64; 2];
                for (p, a) in args.iter_mut().enumerate().take(ar) {
                    *a = read_src(&state.history[bi], &values, prep.src(nid, p as u16));
                }
                values[prep.slot(nid, 0)] = op.eval(&args[..ar], width);
            }
            NodeKind::Hier { callee } => {
                let sub_id = b.binding.hier_to_sub[&nid];
                let sub = &module.subs()[sub_id.index()];
                let sub_bi = sub
                    .behaviors()
                    .iter()
                    .position(|sb| sb.dfg == *callee)
                    .expect("submodule implements the callee");
                let arity = h.in_arity(*callee);
                let mut sub_inputs = Vec::with_capacity(arity);
                for p in 0..arity as u16 {
                    sub_inputs.push(read_src(&state.history[bi], &values, prep.src(nid, p)));
                }
                let si = sub_id.index();
                // Shared banks flow to the callee as arena slots, resolved
                // through this call's positional memory binds.
                let sub_ext: Vec<usize> = g
                    .node(nid)
                    .mem_binds()
                    .iter()
                    .map(|m| mem_map[m.index()])
                    .collect();
                let out = match drivers.get_mut(si) {
                    Some(SubDriver::Bypass) | None => run_behavior(
                        h,
                        sub,
                        sub_bi,
                        &sub_inputs,
                        width,
                        &mut state.subs[si],
                        &mut act.subs[si],
                        &mut sub_preps[si],
                        &mut Vec::new(),
                        arena,
                        &sub_ext,
                    ),
                    Some(driver) => driver.call(
                        h,
                        sub,
                        sub_bi,
                        &sub_inputs,
                        width,
                        &mut state.subs[si],
                        &mut act.subs[si],
                        &mut sub_preps[si],
                        arena,
                    ),
                };
                let base = prep.slot(nid, 0);
                for (p, v) in out.into_iter().enumerate() {
                    values[base + p] = v;
                }
            }
            NodeKind::Load { mem } => {
                let addr = read_src(&state.history[bi], &values, prep.src(nid, 0));
                let bank = &arena.slots[mem_map[mem.index()]];
                let v = bank[addr.rem_euclid(bank.len() as i64) as usize];
                values[prep.slot(nid, 0)] = crate::truncate(v, width);
                act.mem_accesses[bi][mem.index()].0 += 1;
            }
            NodeKind::Store { mem } => {
                let addr = read_src(&state.history[bi], &values, prep.src(nid, 0));
                let data = read_src(&state.history[bi], &values, prep.src(nid, 1));
                let stored = crate::truncate(data, g.mem(*mem).elem_width.min(width));
                let bank = &mut arena.slots[mem_map[mem.index()]];
                let words = bank.len() as i64;
                bank[addr.rem_euclid(words) as usize] = stored;
                values[prep.slot(nid, 0)] = stored;
                act.mem_accesses[bi][mem.index()].1 += 1;
            }
            NodeKind::Output { .. } => {}
        }
    }

    // Record FU events in schedule order per instance.
    for (fu, ops) in prep.fu_ops.iter().enumerate() {
        for &(op, node) in ops {
            let a = read_src(&state.history[bi], &values, prep.src(node, 0));
            let bv = if op.arity() > 1 {
                read_src(&state.history[bi], &values, prep.src(node, 1))
            } else {
                0
            };
            act.fu_events[fu].push(FuEvent {
                op,
                a,
                b: bv,
                depth: prep.depth[node.index()],
            });
        }
    }

    // Register writes, ordered by lifetime birth; same-(birth, register)
    // groups commit in ascending value order (see `Prep::reg_writes`).
    for (reg, slots) in &prep.reg_writes {
        match slots.as_slice() {
            [s] => act.reg_writes[*reg].push(values[*s as usize]),
            tied => {
                let mut vals: Vec<i64> = tied.iter().map(|&s| values[s as usize]).collect();
                vals.sort_unstable();
                act.reg_writes[*reg].extend(vals);
            }
        }
    }

    act.busy_cycles += u64::from(b.schedule.makespan());
    act.runs += 1;

    // Collect outputs (before the history shift: a delayed output edge
    // delivers the value from `delay` iterations before this one).
    let outputs: Vec<i64> = g
        .outputs()
        .iter()
        .map(|&o| read_src(&state.history[bi], &values, prep.src(o, 0)))
        .collect();

    // Update delay history *after* the iteration: shift k-levels.
    let hist = &mut state.history[bi];
    for &(var, maxd, slot) in &prep.max_delay {
        for k in (2..=maxd).rev() {
            if let Some(&prev) = hist.get(&(var, k - 1)) {
                hist.insert((var, k), prev);
            }
        }
        hist.insert((var, 1), values[slot as usize]);
    }

    outputs
}
