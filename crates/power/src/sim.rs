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
//! Three things make repeated simulation cheap inside the improvement loop:
//!
//! * **a flat kernel** — each behavior is compiled into a [`Prep`] of two
//!   halves. The [`Layout`] depends on the DFG alone: one `Vec<i64>` per
//!   instance and behavior holds the value slots (one per `(node,
//!   out-port)`, zeroed each iteration) followed by the delay history (one
//!   slot per `(delayed var, k)`, zero-initialized); every operand is a
//!   precomputed slot index, a delayed one included; the steps follow the
//!   memory-aware topological order. The [`Bind`] depends on the binding:
//!   per-FU event order with chained depths, per-register write order and
//!   each call's submodule instance and callee behavior. The iteration loop
//!   hashes nothing; the reference interpreter kept in the tests pins the
//!   kernel to the semantics it replaced;
//! * **value streams** ([`SimCache`], modules without submodule instances)
//!   — such a module's node values depend on its DFG and the traces, never
//!   on its binding, so the kernel runs its behavior once per key (the
//!   DFG's [content hash](hsyn_dfg::Dfg::content_hash), the trace length
//!   and the width; the samples are compared on every lookup) and keeps the
//!   buffer of every iteration with the layout. A candidate then builds
//!   only its [`Bind`], and the estimator reads each operand from the
//!   streams in exactly the order the kernel records it, so every float is
//!   summed in the same order. The table holds at most
//!   [`SimCache::STREAM_CAP`] entries, oldest evicted first. Every DFG
//!   mutation drops the content hash, so an edited or rebanked behavior is
//!   a new key, never a stale hit. Modules *with* submodules keep the
//!   kernel: a shared stateful child instance interleaves its calls in an
//!   order the binding decides, so their values are not binding-free in
//!   general;
//! * **submodule replay** ([`SimCache`]) — a top-level submodule whose
//!   structural fingerprint and per-call input stream match a recording
//!   from an earlier run returns its recorded outputs and activity without
//!   simulating. Both are exact: the activity streams are pure integers,
//!   fully determined by the module structure and the call stream.

use crate::traces::TraceSet;
use hsyn_dfg::{Dfg, Hierarchy, MemScope, NodeId, NodeKind, Operation, VarRef};
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

/// What the energy walk reads of one module's own activity, whatever holds
/// it: the recorded [`ModuleActivity`] or a module's [`StreamActivity`].
/// Both sources yield the same values in the same order.
pub(crate) trait Activity {
    /// Calls `f(a, b, depth)` for every execution on FU instance `fu`, in
    /// event order across all iterations.
    fn each_fu_event(&self, fu: usize, f: impl FnMut(i64, i64, u32));
    /// Calls `f(value)` for every write of register `reg`, in write order
    /// across all iterations.
    fn each_reg_write(&self, reg: usize, f: impl FnMut(i64));
    /// Total controller-active cycles across all iterations.
    fn busy_cycles(&self) -> u64;
    /// `(loads, stores)` per memory of behavior `bi`'s DFG; empty when the
    /// behavior never ran.
    fn mem_accesses(&self, bi: usize) -> &[(u64, u64)];
}

impl Activity for ModuleActivity {
    fn each_fu_event(&self, fu: usize, mut f: impl FnMut(i64, i64, u32)) {
        for e in &self.fu_events[fu] {
            f(e.a, e.b, e.depth);
        }
    }

    fn each_reg_write(&self, reg: usize, mut f: impl FnMut(i64)) {
        for &v in &self.reg_writes[reg] {
            f(v);
        }
    }

    fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    fn mem_accesses(&self, bi: usize) -> &[(u64, u64)] {
        self.mem_accesses.get(bi).map_or(&[], Vec::as_slice)
    }
}

/// Per-instance inter-iteration state (values crossing iteration boundaries
/// through delayed edges, owned memory banks) and per-execution scratch, per
/// behavior.
#[derive(Clone, Debug, Default)]
struct ModuleState {
    behaviors: Vec<BehaviorState>,
    subs: Vec<ModuleState>,
}

impl ModuleState {
    fn for_module(m: &RtlModule) -> Self {
        ModuleState {
            behaviors: vec![BehaviorState::default(); m.behaviors().len()],
            subs: m.subs().iter().map(ModuleState::for_module).collect(),
        }
    }
}

/// The state of one behavior of one module instance. Everything is sized on
/// the behavior's first execution and reused after it, so a steady-state
/// iteration allocates nothing.
#[derive(Clone, Debug, Default)]
struct BehaviorState {
    /// Flat storage laid out by the behavior's [`Layout`]: the value arena
    /// (`..Layout::n_vals`, one slot per `(node, out-port)`, reset to 0 at
    /// the start of every iteration) followed by the delay history (one
    /// slot per `(delayed var, k)`, zero-initialized, persisting across
    /// iterations).
    buf: Vec<i64>,
    /// When set, every iteration appends `buf` here as the operand reads
    /// see it (after the steps, before the history shift): the value
    /// streams of [`Streams::fill`].
    rows: Option<Vec<i64>>,
    /// Arena slot of each *owned* memory, allocated on first execution.
    /// Memory contents are state, like delay lines: they persist across
    /// iterations.
    mem_slots: Vec<Option<usize>>,
    /// Arena slot of every memory of the behavior for the current
    /// execution (external memories alias the caller's slots, which can
    /// differ per call). Empty for memory-free behaviors.
    mem_map: Vec<usize>,
    /// Scratch for hierarchical calls: the callee's inputs, its memory
    /// binds as arena slots, and its outputs.
    call_in: Vec<i64>,
    call_ext: Vec<usize>,
    call_out: Vec<i64>,
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

/// One node of a behavior, compiled for the inner loop: every operand is a
/// slot of [`BehaviorState::buf`] listed in [`Layout::srcs`] from `src` on,
/// every result is written at `slot`.
#[derive(Clone, Copy, Debug)]
enum Step {
    Input {
        slot: u32,
        index: u32,
    },
    Const {
        slot: u32,
        value: i64,
    },
    Op {
        op: Operation,
        slot: u32,
        src: u32,
    },
    /// The `call`-th call of the behavior, executed by the submodule
    /// behavior [`Bind::calls`] names; `node` names the call's memory
    /// binds.
    Hier {
        node: NodeId,
        slot: u32,
        src: u32,
        arity: u32,
        call: u32,
    },
    Load {
        mem: u32,
        slot: u32,
        src: u32,
    },
    Store {
        mem: u32,
        slot: u32,
        src: u32,
        elem_width: u32,
    },
}

/// One operation bound to a functional unit: its operand slots (`b` is
/// `None` for unary operations) and chained combinational depth.
#[derive(Clone, Copy, Debug)]
struct FuOp {
    op: Operation,
    a: u32,
    b: Option<u32>,
    depth: u32,
}

/// The DFG-only half of a behavior's preparation: everything the inner loop
/// needs that depends neither on the data nor on the binding.
#[derive(Debug)]
struct Layout {
    /// The behavior's nodes in memory-aware topological order, outputs
    /// left out (they compute nothing).
    steps: Vec<Step>,
    /// Operand slots: a step's (or output's) in-port `p` reads
    /// `buf[srcs[src + p]]`, a value slot for a same-iteration edge and a
    /// history slot for a delayed one.
    srcs: Vec<u32>,
    /// Node `i`'s operand slots start at `srcs[src_start[i]]`.
    src_start: Vec<u32>,
    /// Node `i`'s out-port `p` lives at value slot `val_start[i] + p`.
    val_start: Vec<u32>,
    /// Operand slot of each output, in output order.
    out_srcs: Vec<u32>,
    /// Variables feeding delayed edges, sorted by var: `(first history
    /// slot, maximum delay d, value slot)`. The var's value from `k`
    /// iterations ago (1 ≤ k ≤ d) lives at history slot `first + k − 1`.
    hist: Vec<(u32, u32, u32)>,
    /// Value slots (the history follows them in the buffer).
    n_vals: usize,
    /// Value plus history slots: the length of [`BehaviorState::buf`].
    len: usize,
}

impl Layout {
    fn build(h: &Hierarchy, g: &Dfg) -> Self {
        let n = g.node_count();

        // Value slots: one i64 per (node, out-port), laid out contiguously
        // per node. Arity comes from the node kind, raised defensively by
        // any edge referencing a higher port.
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
        let n_vals = val_start[n];
        let slot_of = |v: VarRef| val_start[v.node.index()] + u32::from(v.port);

        // History slots after the values: one per (delayed var, k), vars in
        // ascending order.
        let mut delays: HashMap<VarRef, u32> = HashMap::new();
        for (_, e) in g.edges() {
            if e.delay > 0 {
                let d = delays.entry(e.from).or_insert(0);
                *d = (*d).max(e.delay);
            }
        }
        let mut delayed: Vec<(VarRef, u32)> = delays.into_iter().collect();
        delayed.sort_unstable_by_key(|&(v, _)| v);
        let mut hist_start: HashMap<VarRef, u32> = HashMap::with_capacity(delayed.len());
        let mut hist = Vec::with_capacity(delayed.len());
        let mut len = n_vals;
        for (v, d) in delayed {
            hist_start.insert(v, len);
            hist.push((len, d, slot_of(v)));
            len += d;
        }

        // Per-(node, in-port) operand slots, resolved through the driver
        // table once instead of on every trace iteration.
        let mut src_start = vec![0u32; n + 1];
        let mut srcs: Vec<u32> = Vec::new();
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
                    hist_start[&e.from] + e.delay - 1
                } else {
                    slot_of(e.from)
                });
            }
            src_start[i + 1] = srcs.len() as u32;
        }

        // Memory-aware order: program-order pairs (store-before-load on one
        // memory) are evaluation constraints just like data edges.
        let mut calls = 0u32;
        let steps = g
            .mem_topo_order()
            .expect("bound dfg is acyclic")
            .iter()
            .filter_map(|&nid| {
                let (slot, src) = (val_start[nid.index()], src_start[nid.index()]);
                Some(match g.node(nid).kind() {
                    NodeKind::Input { index } => Step::Input {
                        slot,
                        index: *index as u32,
                    },
                    NodeKind::Const { value } => Step::Const {
                        slot,
                        value: *value,
                    },
                    NodeKind::Op(op) => Step::Op { op: *op, slot, src },
                    NodeKind::Hier { callee } => {
                        calls += 1;
                        Step::Hier {
                            node: nid,
                            slot,
                            src,
                            arity: h.in_arity(*callee) as u32,
                            call: calls - 1,
                        }
                    }
                    NodeKind::Load { mem } => Step::Load {
                        mem: mem.index() as u32,
                        slot,
                        src,
                    },
                    NodeKind::Store { mem } => Step::Store {
                        mem: mem.index() as u32,
                        slot,
                        src,
                        elem_width: g.mem(*mem).elem_width,
                    },
                    NodeKind::Output { .. } => return None,
                })
            })
            .collect();

        let out_srcs = g
            .outputs()
            .iter()
            .map(|&o| srcs[src_start[o.index()] as usize])
            .collect();

        Layout {
            steps,
            srcs,
            src_start,
            val_start,
            out_srcs,
            hist,
            n_vals: n_vals as usize,
            len: len as usize,
        }
    }

    /// Value slot of `v`.
    fn slot_of(&self, v: VarRef) -> u32 {
        self.val_start[v.node.index()] + u32::from(v.port)
    }
}

/// The binding-dependent half of a behavior's preparation. FU operations
/// and register writes are stored flat, unit by unit and register by
/// register, with start offsets.
#[derive(Default)]
struct Bind {
    /// Operations in event (schedule) order, FU instance by instance: FU
    /// `i`'s are `fu_ops[fu_start[i]..fu_start[i + 1]]`. The order is
    /// total — two operations sharing a unit are serialized onto distinct
    /// start ticks — so it equals the per-iteration sort it replaces.
    fu_ops: Vec<FuOp>,
    fu_start: Vec<u32>,
    /// Value slots written within one iteration, register by register in
    /// lifetime-birth order: register `r`'s are
    /// `reg_slots[reg_start[r]..reg_start[r + 1]]`. A slot marked
    /// [`Bind::TIED`] commits in one group with the next: the binder allows
    /// same-birth variables in one register, and such a group commits in
    /// ascending value order (the order the per-iteration `sort_unstable`
    /// this prep hoists, keyed on `(birth, reg, value)`, produced), which
    /// only an iteration can decide.
    reg_slots: Vec<u32>,
    reg_start: Vec<u32>,
    /// Per hierarchical step, in step order: `(submodule instance, callee
    /// behavior index in it)`.
    calls: Vec<(u32, u32)>,
}

impl Bind {
    /// Marks a register-write slot tied with the next one.
    const TIED: u32 = 1 << 31;

    /// FU instance `fu`'s operations in event order (none when unbound).
    fn ops(&self, fu: usize) -> &[FuOp] {
        match self.fu_start.get(fu..fu + 2) {
            Some(&[lo, hi]) => &self.fu_ops[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Calls `f` with register `reg`'s writes of the iteration held in
    /// `row`, in commit order.
    fn each_reg_write(&self, reg: usize, row: &[i64], mut f: impl FnMut(i64)) {
        let slots = match self.reg_start.get(reg..reg + 2) {
            Some(&[lo, hi]) => &self.reg_slots[lo as usize..hi as usize],
            _ => return,
        };
        let mut i = 0;
        while i < slots.len() {
            if slots[i] & Self::TIED == 0 {
                f(row[slots[i] as usize]);
                i += 1;
                continue;
            }
            let mut end = i;
            while slots[end] & Self::TIED != 0 {
                end += 1;
            }
            let mut vals: Vec<i64> = slots[i..=end]
                .iter()
                .map(|&s| row[(s & !Self::TIED) as usize])
                .collect();
            vals.sort_unstable();
            vals.into_iter().for_each(&mut f);
            i = end + 1;
        }
    }

    fn build(h: &Hierarchy, module: &RtlModule, bi: usize, layout: &Layout) -> Self {
        let b = &module.behaviors()[bi];
        let g = h.dfg(b.dfg);
        let st = storage_analysis(g, &b.schedule);
        let order = g.mem_topo_order().expect("bound dfg is acyclic");

        // Chained combinational depth per node (for glitch modeling).
        let mut depth = vec![0u32; g.node_count()];
        for &nid in order {
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

        // Per-FU event order: ops sorted by unit, then start tick (distinct
        // ticks per unit, since sharing serializes). Node id as the final
        // tiebreak keeps the order total even if a schedule ever produced
        // same-tick ops on one unit.
        let mut keyed: Vec<(usize, u32, f64, NodeId, Operation)> = b
            .binding
            .op_to_fu
            .iter()
            .filter_map(|(node, fu)| match g.node(node).kind() {
                NodeKind::Op(op) => {
                    let t = b.schedule.time(node).start;
                    Some((fu.index(), t.cycle, t.ns, node, *op))
                }
                _ => None,
            })
            .collect();
        keyed.sort_by(|x, y| {
            (x.0, x.1, x.2, x.3)
                .partial_cmp(&(y.0, y.1, y.2, y.3))
                .expect("finite")
        });
        let fu_start = starts(module.fus().len(), keyed.iter().map(|k| k.0));
        let fu_ops = keyed
            .into_iter()
            .map(|(_, _, _, node, op)| {
                let src = layout.src_start[node.index()] as usize;
                FuOp {
                    op,
                    a: layout.srcs[src],
                    b: (op.arity() > 1).then(|| layout.srcs[src + 1]),
                    depth: depth[node.index()],
                }
            })
            .collect();

        // Register writes ordered by (register, lifetime birth); a repeated
        // pair ties the earlier slot to the next.
        let mut births: Vec<(usize, u32, u32)> = st
            .stored_vars
            .iter()
            .zip(&st.lifetimes)
            .filter_map(|(v, life)| {
                b.binding
                    .var_to_reg
                    .get(*v)
                    .map(|r| (r.index(), life.0, layout.slot_of(*v)))
            })
            .collect();
        births.sort_unstable_by_key(|&(reg, birth, _)| (reg, birth));
        let reg_start = starts(module.regs().len(), births.iter().map(|b| b.0));
        debug_assert!(
            layout.len < Self::TIED as usize,
            "slots leave the tie bit free"
        );
        let mut reg_slots: Vec<u32> = births.iter().map(|&(_, _, slot)| slot).collect();
        for (i, pair) in births.windows(2).enumerate() {
            if (pair[0].0, pair[0].1) == (pair[1].0, pair[1].1) {
                reg_slots[i] |= Self::TIED;
            }
        }

        // Each hierarchical node resolves its submodule instance and the
        // behavior implementing its callee here, once.
        let calls = layout
            .steps
            .iter()
            .filter_map(|s| match *s {
                Step::Hier { node, .. } => Some(node),
                _ => None,
            })
            .map(|node| {
                let NodeKind::Hier { callee } = g.node(node).kind() else {
                    unreachable!("hierarchical step");
                };
                let sub = b.binding.hier_to_sub[&node].index();
                let sub_bi = module.subs()[sub]
                    .behaviors()
                    .iter()
                    .position(|sb| sb.dfg == *callee)
                    .expect("submodule implements the callee");
                (sub as u32, sub_bi as u32)
            })
            .collect();

        Bind {
            fu_ops,
            fu_start,
            reg_slots,
            reg_start,
            calls,
        }
    }
}

/// Start offsets of `n` consecutive runs in a list sorted by run index,
/// given each element's run index: run `i` spans `starts[i]..starts[i + 1]`.
fn starts(n: usize, keys: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut starts = vec![0u32; n + 1];
    for k in keys {
        starts[k + 1] += 1;
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    starts
}

/// Iteration-invariant preparation for one behavior: its [`Layout`] and
/// [`Bind`].
struct Prep {
    layout: Layout,
    bind: Bind,
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
        self.behaviors[bi].get_or_insert_with(|| {
            let layout = Layout::build(h, h.dfg(module.behaviors()[bi].dfg));
            let bind = Bind::build(h, module, bi, &layout);
            Prep { layout, bind }
        })
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

/// Run `module`'s first behavior once per trace iteration, handing each
/// iteration's outputs to `on_out`.
///
/// # Panics
///
/// Panics if the trace input count does not match the behavior's DFG.
#[allow(clippy::too_many_arguments)]
fn run_traces(
    h: &Hierarchy,
    module: &RtlModule,
    traces: &TraceSet,
    state: &mut ModuleState,
    act: &mut ModuleActivity,
    prep: &mut PrepTree,
    drivers: &mut [SubDriver],
    arena: &mut MemArena,
    mut on_out: impl FnMut(&[i64]),
) {
    let g = h.dfg(module.behaviors()[0].dfg);
    assert_eq!(
        traces.input_count(),
        g.input_count(),
        "trace width must match the top DFG's inputs"
    );
    let mut inputs = vec![0i64; g.input_count()];
    let mut out = Vec::with_capacity(g.output_count());
    for n in 0..traces.len() {
        for (i, s) in traces.samples.iter().enumerate() {
            inputs[i] = s[n];
        }
        run_behavior(
            h,
            module,
            0,
            &inputs,
            traces.width,
            state,
            act,
            prep,
            drivers,
            arena,
            &[],
            &mut out,
        );
        on_out(&out);
    }
}

fn simulate_impl(
    h: &Hierarchy,
    module: &RtlModule,
    traces: &TraceSet,
    cached: Option<(&FpTree, &mut SimCache)>,
) -> (ModuleActivity, Vec<Vec<i64>>) {
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
        c.kernel_iterations += traces.len() as u64;
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

    let n_out = h.dfg(module.behaviors()[0].dfg).output_count();
    let mut outputs: Vec<Vec<i64>> = vec![Vec::with_capacity(traces.len()); n_out];
    run_traces(
        h,
        module,
        traces,
        &mut state,
        &mut act,
        &mut prep,
        &mut drivers,
        &mut arena,
        |out| {
            for (o, v) in outputs.iter_mut().zip(out) {
                o.push(*v);
            }
        },
    );

    // Settle the drivers: install replayed activity, refresh recordings.
    if let Some((fp, c)) = cache {
        let mut out = Vec::new();
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
                            &mut [],
                            &mut arena,
                            &[],
                            &mut out,
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

/// The value streams of one behavior of a module without submodule
/// instances on one trace set: what the kernel computed, iteration by
/// iteration, independent of any binding.
#[derive(Debug)]
struct Streams {
    /// The trace samples the streams were computed on, compared on lookup.
    samples: Vec<Vec<i64>>,
    /// The behavior's slot layout, which the streams follow.
    layout: Layout,
    /// Iteration `n`'s buffer as the kernel's operand reads see it (values
    /// after the steps, history before the shift): `rows[n * layout.len..]
    /// [..layout.len]`.
    rows: Vec<i64>,
    /// Iterations held.
    iterations: usize,
    /// `(loads, stores)` per memory of the behavior's DFG over all
    /// iterations: every step runs once per iteration, so the counts do not
    /// depend on the binding either.
    mem_accesses: Vec<(u64, u64)>,
}

impl Streams {
    /// Run the kernel once over `traces` on `module`'s first behavior with
    /// no binding half, keeping every iteration's buffer.
    fn fill(h: &Hierarchy, module: &RtlModule, traces: &TraceSet) -> Self {
        debug_assert!(
            module.subs().is_empty(),
            "value streams need a sub-free module"
        );
        let layout = Layout::build(h, h.dfg(module.behaviors()[0].dfg));
        let mut state = ModuleState::for_module(module);
        state.behaviors[0].rows = Some(Vec::with_capacity(traces.len() * layout.len));
        let mut prep = PrepTree::for_module(module);
        prep.behaviors = module.behaviors().iter().map(|_| None).collect();
        prep.behaviors[0] = Some(Prep {
            layout,
            bind: Bind::default(),
        });
        let mut act = ModuleActivity::for_module(module);
        run_traces(
            h,
            module,
            traces,
            &mut state,
            &mut act,
            &mut prep,
            &mut [],
            &mut MemArena::default(),
            |_| {},
        );
        let prep = prep.behaviors.swap_remove(0).expect("prepared above");
        Streams {
            samples: traces.samples.clone(),
            layout: prep.layout,
            rows: state.behaviors[0].rows.take().expect("set above"),
            iterations: traces.len(),
            mem_accesses: std::mem::take(&mut act.mem_accesses[0]),
        }
    }

    /// Iteration buffers in order.
    fn rows(&self) -> impl Iterator<Item = &[i64]> {
        let len = self.layout.len;
        (0..self.iterations).map(move |n| &self.rows[n * len..(n + 1) * len])
    }
}

/// The activity of a module without submodule instances, read from its
/// behavior's value streams through a candidate's [`Bind`]: the same
/// values, in the same order, that the kernel would record.
pub(crate) struct StreamActivity<'a> {
    streams: &'a Streams,
    bind: Bind,
    busy_cycles: u64,
}

impl Activity for StreamActivity<'_> {
    fn each_fu_event(&self, fu: usize, mut f: impl FnMut(i64, i64, u32)) {
        // Gathered first, then handed out: calling `f` from inside the
        // row-by-op loops made the energy walk about a third slower than
        // this two-loop form (flattened dct, 2-core x86-64 host).
        let ops = self.bind.ops(fu);
        let mut events = Vec::with_capacity(ops.len() * self.streams.iterations);
        for row in self.streams.rows() {
            events.extend(ops.iter().map(|o| {
                (
                    row[o.a as usize],
                    o.b.map_or(0, |s| row[s as usize]),
                    o.depth,
                )
            }));
        }
        for (a, b, depth) in events {
            f(a, b, depth);
        }
    }

    fn each_reg_write(&self, reg: usize, mut f: impl FnMut(i64)) {
        for row in self.streams.rows() {
            self.bind.each_reg_write(reg, row, &mut f);
        }
    }

    fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    fn mem_accesses(&self, bi: usize) -> &[(u64, u64)] {
        if bi == 0 {
            &self.streams.mem_accesses
        } else {
            &[]
        }
    }
}

/// Key of the value-stream table: the behavior DFG's content hash, the
/// trace length and the width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StreamKey {
    dfg: u64,
    len: usize,
    width: u32,
}

/// Memoized simulation work of one engine: value streams of modules without
/// submodule instances, and recordings of top-level submodules.
///
/// Recordings are keyed by `(instance index, structural fingerprint)` of
/// the design's top-level submodules. The key includes the instance index
/// because structurally identical siblings (think eight parallel
/// dot-product children) see different data; each position keeps its own
/// recording. A replay is *exact*: outputs and activity are integers fully
/// determined by the module structure (the fingerprint) and the per-call
/// inputs, both of which must match.
///
/// Value streams are keyed by behavior content and traces (see the module
/// documentation); a hit is exact for the same reason.
#[derive(Debug, Default)]
pub struct SimCache {
    map: HashMap<(usize, u64), SubRecording>,
    /// Value streams, oldest first; at most [`SimCache::STREAM_CAP`].
    streams: Vec<(StreamKey, Streams)>,
    /// Submodule runs served entirely from recordings.
    pub hits: u64,
    /// Submodule runs simulated live (including divergent replays).
    pub misses: u64,
    /// Sub-free module pricings answered from stored value streams.
    pub stream_hits: u64,
    /// Sub-free module pricings that ran the kernel to fill the streams.
    pub stream_misses: u64,
    /// Top-level trace iterations the kernel ran for this cache's owner (a
    /// deterministic physical-work counter: a value-stream hit runs none).
    pub kernel_iterations: u64,
}

impl SimCache {
    /// Entry cap of the recordings: the map is cleared when it grows past
    /// this (recordings from stale candidate designs would otherwise
    /// accumulate).
    const CAP: usize = 1024;

    /// Entry cap of the value-stream table; the oldest entry is evicted
    /// first. An engine prices one behavior per flat design (a rebank makes
    /// another), and each nested move-*B* engine has a cache of its own, so
    /// a few entries cover a search.
    pub const STREAM_CAP: usize = 8;

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

    /// The activity of `module`, which has no submodule instances, on
    /// `traces`: its first behavior's value streams (filled by one kernel
    /// run on a miss) read through the module's binding.
    pub(crate) fn stream_activity(
        &mut self,
        h: &Hierarchy,
        module: &RtlModule,
        traces: &TraceSet,
    ) -> StreamActivity<'_> {
        let b = &module.behaviors()[0];
        let key = StreamKey {
            dfg: h.content_hash(b.dfg),
            len: traces.len(),
            width: traces.width,
        };
        let found = self
            .streams
            .iter()
            .position(|(k, s)| *k == key && s.samples == traces.samples);
        let at = match found {
            Some(at) => {
                self.stream_hits += 1;
                at
            }
            None => {
                self.stream_misses += 1;
                self.kernel_iterations += traces.len() as u64;
                if self.streams.len() >= Self::STREAM_CAP {
                    self.streams.remove(0);
                }
                self.streams.push((key, Streams::fill(h, module, traces)));
                self.streams.len() - 1
            }
        };
        let streams = &self.streams[at].1;
        StreamActivity {
            bind: Bind::build(h, module, 0, &streams.layout),
            busy_cycles: traces.len() as u64 * u64::from(b.schedule.makespan()),
            streams,
        }
    }
}

impl SubDriver {
    /// Serve one call into `out`, replaying when the recording matches and
    /// falling back to live simulation (after rebuilding state from the
    /// recorded prefix) when it diverges.
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
        out: &mut Vec<i64>,
    ) {
        if let SubDriver::Replaying { rec, pos } = self {
            let matches = rec
                .calls
                .get(*pos)
                .is_some_and(|c| c.bi == bi && c.inputs == inputs);
            if matches {
                out.clear();
                out.extend_from_slice(&rec.calls[*pos].outputs);
                *pos += 1;
                return;
            }
            // Divergence: rebuild live state by re-running the recorded
            // prefix (state and activity were untouched while replaying),
            // then continue live from here.
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
                    &mut [],
                    arena,
                    &[],
                    out,
                );
            }
            let calls = rec.calls[..*pos].to_vec();
            *self = SubDriver::Live { calls };
        }
        let SubDriver::Live { calls } = self else {
            unreachable!("replaying arm returns or converts to live; bypass never calls");
        };
        run_behavior(
            h,
            sub,
            bi,
            inputs,
            width,
            state,
            act,
            prep,
            &mut [],
            arena,
            &[],
            out,
        );
        calls.push(CallRecord {
            bi,
            inputs: inputs.to_vec(),
            outputs: out.clone(),
        });
    }
}

/// Execute one iteration of `module.behaviors()[bi]` on `inputs`, leaving
/// its outputs in `out`. `drivers` is non-empty only for the design's top
/// module when replay is armed; submodule recursion always runs live.
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
    out: &mut Vec<i64>,
) {
    let b = &module.behaviors()[bi];
    let g = h.dfg(b.dfg);
    // Split the borrows: this behavior's prep and state vs. the sub-trees
    // the recursion needs.
    prep_tree.get(h, module, bi);
    let PrepTree {
        behaviors: preps,
        subs: sub_preps,
    } = prep_tree;
    let Prep { layout, bind } = preps[bi].as_ref().expect("prepared above");
    let ModuleState {
        behaviors: states,
        subs: sub_states,
    } = state;
    let BehaviorState {
        buf,
        rows,
        mem_slots,
        mem_map,
        call_in,
        call_ext,
        call_out,
    } = &mut states[bi];
    // Values never produced read 0 (feedback before the first iteration
    // reads the zeroed history; the value arena is zeroed every iteration).
    if buf.len() == layout.len {
        buf[..layout.n_vals].fill(0);
    } else {
        *buf = vec![0; layout.len];
    }

    // Resolve each memory of this behavior to its arena slot: owned
    // memories allocate (once — contents persist across iterations),
    // external ones alias the slots the caller passed, in declaration
    // order (the hierarchy checker validated arity and shape).
    if g.mem_count() > 0 {
        if mem_slots.len() != g.mem_count() {
            *mem_slots = vec![None; g.mem_count()];
        }
        let mut ext = ext_slots.iter().copied();
        mem_map.clear();
        mem_map.extend(g.mems().map(|(i, m)| {
            match m.scope {
                MemScope::Owned => *mem_slots[i.index()]
                    .get_or_insert_with(|| arena.alloc(m.words.max(1) as usize)),
                MemScope::External => match ext.next() {
                    Some(slot) => slot,
                    // Standalone evaluation (a child resynthesized in
                    // isolation sees no caller): an unbound import behaves
                    // as a private zero-initialized bank, matching the
                    // flattened reference evaluator.
                    None => *mem_slots[i.index()]
                        .get_or_insert_with(|| arena.alloc(m.words.max(1) as usize)),
                },
            }
        }));
    }
    if act.mem_accesses.len() != module.behaviors().len() {
        act.mem_accesses
            .resize(module.behaviors().len(), Vec::new());
    }
    if act.mem_accesses[bi].len() != g.mem_count() {
        act.mem_accesses[bi] = vec![(0, 0); g.mem_count()];
    }

    let srcs = &layout.srcs;
    for step in &layout.steps {
        match *step {
            Step::Input { slot, index } => {
                buf[slot as usize] = inputs.get(index as usize).copied().unwrap_or(0);
            }
            Step::Const { slot, value } => {
                buf[slot as usize] = crate::truncate(value, width);
            }
            Step::Op { op, slot, src } => {
                let ar = op.arity();
                let src = src as usize;
                let mut args = [0i64; 2];
                for (a, &s) in args.iter_mut().zip(&srcs[src..src + ar]) {
                    *a = buf[s as usize];
                }
                buf[slot as usize] = op.eval(&args[..ar], width);
            }
            Step::Hier {
                node,
                slot,
                src,
                arity,
                call,
            } => {
                let src = src as usize;
                call_in.clear();
                call_in.extend(
                    srcs[src..src + arity as usize]
                        .iter()
                        .map(|&s| buf[s as usize]),
                );
                // Shared banks flow to the callee as arena slots, resolved
                // through this call's positional memory binds.
                call_ext.clear();
                call_ext.extend(g.node(node).mem_binds().iter().map(|m| mem_map[m.index()]));
                let (si, sub_bi) = bind.calls[call as usize];
                let (si, sub_bi) = (si as usize, sub_bi as usize);
                let sub_m = &module.subs()[si];
                match drivers.get_mut(si) {
                    Some(SubDriver::Bypass) | None => run_behavior(
                        h,
                        sub_m,
                        sub_bi,
                        call_in,
                        width,
                        &mut sub_states[si],
                        &mut act.subs[si],
                        &mut sub_preps[si],
                        &mut [],
                        arena,
                        call_ext,
                        call_out,
                    ),
                    Some(driver) => driver.call(
                        h,
                        sub_m,
                        sub_bi,
                        call_in,
                        width,
                        &mut sub_states[si],
                        &mut act.subs[si],
                        &mut sub_preps[si],
                        arena,
                        call_out,
                    ),
                }
                let slot = slot as usize;
                buf[slot..slot + call_out.len()].copy_from_slice(call_out);
            }
            Step::Load { mem, slot, src } => {
                let addr = buf[srcs[src as usize] as usize];
                let bank = &arena.slots[mem_map[mem as usize]];
                let v = bank[addr.rem_euclid(bank.len() as i64) as usize];
                buf[slot as usize] = crate::truncate(v, width);
                act.mem_accesses[bi][mem as usize].0 += 1;
            }
            Step::Store {
                mem,
                slot,
                src,
                elem_width,
            } => {
                let src = src as usize;
                let addr = buf[srcs[src] as usize];
                let data = buf[srcs[src + 1] as usize];
                let stored = crate::truncate(data, elem_width.min(width));
                let bank = &mut arena.slots[mem_map[mem as usize]];
                let words = bank.len() as i64;
                bank[addr.rem_euclid(words) as usize] = stored;
                buf[slot as usize] = stored;
                act.mem_accesses[bi][mem as usize].1 += 1;
            }
        }
    }

    // Record FU events in schedule order per instance.
    for (fu, events) in act.fu_events.iter_mut().enumerate() {
        events.extend(bind.ops(fu).iter().map(|o| FuEvent {
            op: o.op,
            a: buf[o.a as usize],
            b: o.b.map_or(0, |s| buf[s as usize]),
            depth: o.depth,
        }));
    }

    // Register writes, ordered by lifetime birth; tie groups commit in
    // ascending value order (see `Bind::reg_slots`).
    for (reg, writes) in act.reg_writes.iter_mut().enumerate() {
        bind.each_reg_write(reg, buf, |v| writes.push(v));
    }

    if let Some(rows) = rows {
        rows.extend_from_slice(buf);
    }

    act.busy_cycles += u64::from(b.schedule.makespan());
    act.runs += 1;

    // Collect outputs (before the history shift: a delayed output edge
    // delivers the value from `delay` iterations before this one).
    out.clear();
    out.extend(layout.out_srcs.iter().map(|&s| buf[s as usize]));

    // Update delay history *after* the iteration: every k-level moves one
    // slot deeper, and this iteration's value enters at k = 1.
    for &(first, maxd, slot) in &layout.hist {
        let (first, maxd) = (first as usize, maxd as usize);
        buf.copy_within(first..first + maxd - 1, first + 1);
        buf[first] = buf[slot as usize];
    }
}

/// The interpreter the flat kernel replaced, kept as the reference the
/// differential tests hold [`simulate`] to: delay history in a
/// `HashMap<(VarRef, k), i64>` per behavior (a missing entry reads 0, and
/// `(var, k)` enters only once `(var, k − 1)` holds a value), a value
/// arena allocated per iteration, and hierarchical calls resolved through
/// `hier_to_sub` and a search of the submodule's behaviors on every call.
#[cfg(test)]
mod reference {
    use super::{FuEvent, MemArena, ModuleActivity};
    use crate::traces::TraceSet;
    use hsyn_dfg::{Hierarchy, MemScope, NodeId, NodeKind, Operation, VarRef};
    use hsyn_rtl::{storage_analysis, RtlModule};
    use std::collections::HashMap;

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

            // Per-FU event order: ops sorted by start tick (distinct ticks per
            // unit, since sharing serializes).
            let mut keyed: Vec<Vec<(u32, f64, Operation, NodeId)>> =
                vec![Vec::new(); module.fus().len()];
            for (node, fu) in b.binding.op_to_fu.iter() {
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
                .filter_map(|(v, life)| {
                    b.binding
                        .var_to_reg
                        .get(*v)
                        .map(|r| (life.0, r.index(), *v))
                })
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

    /// Simulate `module` executing its first behavior once per trace
    /// iteration, like [`super::simulate`].
    pub(super) fn simulate(
        h: &Hierarchy,
        module: &RtlModule,
        traces: &TraceSet,
    ) -> (ModuleActivity, Vec<Vec<i64>>) {
        let g = h.dfg(module.behaviors()[0].dfg);
        let mut act = ModuleActivity::for_module(module);
        let mut state = ModuleState::for_module(module);
        let mut prep = PrepTree::for_module(module);
        let mut arena = MemArena::default();
        let mut outputs: Vec<Vec<i64>> = vec![Vec::with_capacity(traces.len()); g.output_count()];
        let mut inputs = vec![0i64; g.input_count()];
        for n in 0..traces.len() {
            for (i, s) in traces.samples.iter().enumerate() {
                inputs[i] = s[n];
            }
            let out = run_behavior(
                h,
                module,
                0,
                &inputs,
                traces.width,
                &mut state,
                &mut act,
                &mut prep,
                &mut arena,
                &[],
            );
            for (o, v) in outputs.iter_mut().zip(&out) {
                o.push(*v);
            }
        }
        (act, outputs)
    }

    /// Execute one iteration of `module.behaviors()[bi]` on `inputs`.
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
                    MemScope::Owned => *slots[i.index()]
                        .get_or_insert_with(|| arena.alloc(m.words.max(1) as usize)),
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
                    let out = run_behavior(
                        h,
                        sub,
                        sub_bi,
                        &sub_inputs,
                        width,
                        &mut state.subs[si],
                        &mut act.subs[si],
                        &mut sub_preps[si],
                        arena,
                        &sub_ext,
                    );
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
}

#[cfg(test)]
mod tests {
    //! Differential checks: the flat kernel against the reference
    //! interpreter it replaced (activity — every event, register write,
    //! memory access and cycle count — and outputs must be equal), and the
    //! value-stream pricing of sub-free modules against the kernel (every
    //! float of the estimate must be bit-identical).

    use super::*;
    use crate::traces::dsp_default;
    use hsyn_dfg::{benchmarks, Dfg, DfgId, MemObject};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
    use hsyn_lib::Library;
    use hsyn_rtl::{build, BuildCtx, ModuleSpec, RegPolicy, SubSpec};

    const W: u32 = 16;
    /// Samples per trace.
    const SAMPLES: usize = 16;

    /// The fully parallel implementation of `dfg`: one fastest unit per
    /// operation, one submodule instance per hierarchical node (built the
    /// same way, recursively), registers under `policy`.
    fn parallel(h: &Hierarchy, dfg: DfgId, lib: &Library, policy: &RegPolicy) -> RtlModule {
        let mut spec = ModuleSpec::dedicated(
            h,
            dfg,
            h.dfg(dfg).name().to_owned(),
            |_, op| lib.fastest_for(op).expect("table 1 covers every op"),
            |_, callee| parallel(h, callee, lib, policy),
        );
        spec.reg_policy = policy.clone();
        build(h, &spec, &BuildCtx::new(lib, TABLE1_CLOCK_NS, 5.0, None)).expect("builds")
    }

    /// `simulate` and the reference agree on `m` over seeded traces.
    fn assert_matches_reference(h: &Hierarchy, m: &RtlModule, what: &str) {
        let inputs = h.dfg(m.behaviors()[0].dfg).input_count();
        for seed in [1, 0xDAC_1998] {
            let traces = dsp_default(inputs, SAMPLES, W, seed);
            let flat = simulate(h, m, &traces);
            let reference = reference::simulate(h, m, &traces);
            assert_eq!(flat.1, reference.1, "{what} seed {seed:#x}: outputs");
            assert!(
                flat.0 == reference.0,
                "{what} seed {seed:#x}: activity differs"
            );
        }
    }

    fn single(g: Dfg) -> Hierarchy {
        let mut h = Hierarchy::new();
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().expect("valid fixture");
        h
    }

    #[test]
    fn registry_benchmarks_match_the_reference() {
        let lib = table1_library();
        for bench in benchmarks::all() {
            let flat = single(bench.hierarchy.flatten());
            let hier = &bench.hierarchy;
            for policy in &[RegPolicy::Dedicated, RegPolicy::Packed] {
                let m = parallel(&flat, flat.top(), &lib, policy);
                assert_matches_reference(&flat, &m, &format!("{} flat {policy:?}", bench.name));
                let m = parallel(hier, hier.top(), &lib, policy);
                assert_matches_reference(hier, &m, &format!("{} hier {policy:?}", bench.name));
            }
        }
    }

    #[test]
    fn deep_delay_lines_match_the_reference() {
        // y0 = x[n-2] + x[n-3], y1 = s[n-3] * x[n-2], s = x + y0[n-2]:
        // several vars delayed by 2 and 3, one of them through feedback.
        let mut g = Dfg::new("delays");
        let x = g.add_input("x");
        let y0 = g.add_op_detached(Operation::Add, "y0");
        g.connect(x, y0, 0, 2);
        g.connect(x, y0, 1, 3);
        let s = g.add_op_detached(Operation::Add, "s");
        g.connect(x, s, 0, 0);
        g.connect(VarRef::new(y0, 0), s, 1, 2);
        let y1 = g.add_op_detached(Operation::Mult, "y1");
        g.connect(VarRef::new(s, 0), y1, 0, 3);
        g.connect(x, y1, 1, 2);
        g.add_output("o0", VarRef::new(y0, 0));
        g.add_output_delayed("o1", VarRef::new(y1, 0), 3);
        let h = single(g);
        let lib = table1_library();
        for policy in &[RegPolicy::Dedicated, RegPolicy::Packed] {
            let m = parallel(&h, h.top(), &lib, policy);
            assert_matches_reference(&h, &m, &format!("delays {policy:?}"));
        }
    }

    #[test]
    fn shared_stateful_instance_matches_the_reference() {
        // acc(a) = a + acc[n-1] with a 2-deep echo, called twice per
        // iteration through one shared instance: the calls interleave on
        // one delay state.
        let mut h = Hierarchy::new();
        let mut sub = Dfg::new("acc");
        let a = sub.add_input("a");
        let acc = sub.add_op_detached(Operation::Add, "acc");
        sub.connect(a, acc, 0, 0);
        sub.connect(VarRef::new(acc, 0), acc, 1, 1);
        let echo = sub.add_op_detached(Operation::Sub, "echo");
        sub.connect(VarRef::new(acc, 0), echo, 0, 0);
        sub.connect(VarRef::new(acc, 0), echo, 1, 2);
        sub.add_output("o", VarRef::new(echo, 0));
        let sub_id = h.add_dfg(sub);
        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let y = top.add_input("y");
        let c1 = top.add_hier(sub_id, "A1", &[x]);
        let c2 = top.add_hier(sub_id, "A2", &[y]);
        let s = top.add_op(
            Operation::Add,
            "s",
            &[top.hier_out(c1, 0), top.hier_out(c2, 0)],
        );
        top.add_output("z", s);
        let top_id = h.add_dfg(top);
        h.set_top(top_id);
        h.validate().expect("valid fixture");

        let lib = table1_library();
        let child = parallel(&h, sub_id, &lib, &RegPolicy::Dedicated);
        let mut spec = ModuleSpec::dedicated(
            &h,
            top_id,
            "top",
            |_, op| lib.fastest_for(op).expect("table 1 covers every op"),
            |_, _| child.clone(),
        );
        // One instance serves both calls.
        spec.subs = vec![SubSpec {
            module: child,
            nodes: vec![c1, c2],
        }];
        let m = build(&h, &spec, &BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None)).expect("builds");
        assert_eq!(m.subs().len(), 1, "both calls share one instance");
        assert_matches_reference(&h, &m, "shared stateful instance");
    }

    #[test]
    fn owned_memory_matches_the_reference() {
        // mem[x & 3] = x; y = mem[(x + 1) & 3] * x, plus a delayed tap on
        // the loaded value: bank contents persist across iterations.
        let mut g = Dfg::new("mem");
        let mem = g.add_mem(MemObject::owned("m", 4, 8));
        let x = g.add_input("x");
        let one = g.add_const("one", 1);
        let next = g.add_op(Operation::Add, "next", &[x, one]);
        g.add_store(mem, "st", x, x);
        let ld = g.add_load(mem, "ld", next);
        let y = g.add_op(Operation::Mult, "y", &[ld, x]);
        g.add_output("y", y);
        g.add_output_delayed("ld_old", ld, 2);
        let h = single(g);
        let lib = table1_library();
        let m = parallel(&h, h.top(), &lib, &RegPolicy::Dedicated);
        assert_matches_reference(&h, &m, "owned memory");
    }

    /// The bits of every float of a power report.
    fn report_bits(p: &crate::PowerReport) -> [u64; 11] {
        let e = &p.energy_breakdown;
        [
            e.fu,
            e.reg,
            e.mux,
            e.wire,
            e.controller,
            e.mem,
            e.clock,
            e.subs,
            p.energy_per_iteration,
            p.power,
            p.vdd,
        ]
        .map(f64::to_bits)
    }

    /// The value-stream path of `estimate_cached` prices `m` (sub-free)
    /// bit-identically to the kernel behind `estimate`, cold and warm.
    fn assert_streams_match_kernel(h: &Hierarchy, m: &RtlModule, what: &str) {
        assert!(
            m.subs().is_empty(),
            "{what}: the stream path serves sub-free modules"
        );
        let lib = table1_library();
        let inputs = h.dfg(m.behaviors()[0].dfg).input_count();
        let traces = dsp_default(inputs, SAMPLES, W, 0xDAC_1998);
        let fp = hsyn_rtl::fingerprint_tree(h, m);
        let kernel = crate::estimate(h, m, &lib, &traces, 3.3, TABLE1_CLOCK_NS, 20);
        let mut cache = SimCache::new();
        for round in ["cold", "warm"] {
            let streamed = crate::estimate_cached(
                h,
                m,
                &lib,
                &traces,
                3.3,
                TABLE1_CLOCK_NS,
                20,
                &fp,
                &mut cache,
            );
            assert_eq!(
                report_bits(&streamed),
                report_bits(&kernel),
                "{what} ({round}): stream pricing differs from the kernel"
            );
        }
        assert_eq!((cache.stream_misses, cache.stream_hits), (1, 1), "{what}");
        assert_eq!(cache.kernel_iterations, SAMPLES as u64, "{what}");
        assert_eq!((cache.hits, cache.misses), (0, 0), "{what}: no replay");
    }

    #[test]
    fn stream_pricing_matches_the_kernel_on_every_flattened_benchmark() {
        let lib = table1_library();
        for bench in benchmarks::all() {
            let flat = single(bench.hierarchy.flatten());
            for policy in &[RegPolicy::Dedicated, RegPolicy::Packed] {
                let m = parallel(&flat, flat.top(), &lib, policy);
                assert_streams_match_kernel(&flat, &m, &format!("{} {policy:?}", bench.name));
            }
        }
    }

    #[test]
    fn stream_pricing_matches_the_kernel_on_shared_units_and_packed_registers() {
        // Every op of one kind on one unit: long interleaved event streams
        // and register writes packed by the left-edge binder.
        let lib = table1_library();
        for name in ["dct", "iir", "matmul"] {
            let bench = benchmarks::by_name(name).expect("registry benchmark");
            let flat = single(bench.hierarchy.flatten());
            let g = flat.dfg(flat.top());
            let mut groups: Vec<hsyn_rtl::FuGroup> = Vec::new();
            for (nid, node) in g.nodes() {
                if let NodeKind::Op(op) = node.kind() {
                    let fu_type = lib.fastest_for(*op).expect("table 1 covers every op");
                    match groups.iter_mut().find(|grp| grp.fu_type == fu_type) {
                        Some(grp) => grp.ops.push(nid),
                        None => groups.push(hsyn_rtl::FuGroup {
                            fu_type,
                            ops: vec![nid],
                        }),
                    }
                }
            }
            let spec = ModuleSpec {
                name: format!("{name}_shared"),
                dfg: flat.top(),
                fu_groups: groups,
                subs: vec![],
                reg_policy: RegPolicy::Packed,
            };
            let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None);
            let m = build(&flat, &spec, &ctx).expect("serialized build fits an open deadline");
            assert_streams_match_kernel(&flat, &m, &format!("{name} shared"));
        }
    }

    #[test]
    fn stream_pricing_follows_a_rebanked_memory() {
        // Rebanking changes the DFG's content hash (and the schedule), so
        // the rebuilt design fills a stream entry of its own and still
        // prices like the kernel.
        let lib = table1_library();
        let bench = benchmarks::by_name("fir_block").expect("memory tier");
        let mut flat = single(bench.hierarchy.flatten());
        let top = flat.top();
        let mem = flat.dfg(top).mems().next().expect("a memory").0;
        let banks = flat.dfg(top).mem(mem).banks;
        let before = flat.content_hash(top);
        flat.dfg_mut(top)
            .set_mem_banks(mem, if banks == 1 { 2 } else { 1 });
        assert_ne!(flat.content_hash(top), before, "rebanking changes the key");
        let m = parallel(&flat, top, &lib, &RegPolicy::Dedicated);
        assert_streams_match_kernel(&flat, &m, "fir_block rebanked");
    }

    #[test]
    fn stream_table_is_capped_and_evicts_the_oldest() {
        // One more distinct behavior than the cap: the first one priced is
        // evicted, and pricing it again fills a fresh entry.
        let lib = table1_library();
        let mut seen = std::collections::HashSet::new();
        let designs: Vec<(Hierarchy, RtlModule)> = benchmarks::all()
            .into_iter()
            .map(|bench| single(bench.hierarchy.flatten()))
            .filter(|flat| seen.insert(flat.content_hash(flat.top())))
            .take(SimCache::STREAM_CAP + 1)
            .map(|flat| {
                let m = parallel(&flat, flat.top(), &lib, &RegPolicy::Dedicated);
                (flat, m)
            })
            .collect();
        assert_eq!(
            designs.len(),
            SimCache::STREAM_CAP + 1,
            "enough distinct behaviors"
        );
        let mut cache = SimCache::new();
        let price = |(h, m): &(Hierarchy, RtlModule), cache: &mut SimCache| {
            let inputs = h.dfg(m.behaviors()[0].dfg).input_count();
            let traces = dsp_default(inputs, SAMPLES, W, 3);
            let fp = hsyn_rtl::fingerprint_tree(h, m);
            crate::estimate_cached(h, m, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20, &fp, cache)
        };
        for d in &designs {
            price(d, &mut cache);
            assert!(cache.streams.len() <= SimCache::STREAM_CAP);
        }
        assert_eq!(cache.streams.len(), SimCache::STREAM_CAP);
        let misses = SimCache::STREAM_CAP as u64 + 1;
        assert_eq!((cache.stream_hits, cache.stream_misses), (0, misses));
        price(&designs[SimCache::STREAM_CAP], &mut cache);
        assert_eq!((cache.stream_hits, cache.stream_misses), (1, misses));
        price(&designs[0], &mut cache);
        assert_eq!((cache.stream_hits, cache.stream_misses), (1, misses + 1));
        assert_eq!(cache.kernel_iterations, (misses + 1) * SAMPLES as u64);
    }

    #[test]
    fn tied_register_writes_match_the_reference_and_the_kernel() {
        // Every stored value crammed into register 0 (an illegal binding
        // the simulators price all the same): the inputs, all born at
        // cycle 0, form one tie group that commits in ascending value
        // order, and so do other same-birth values.
        let lib = table1_library();
        for name in ["iir", "dct"] {
            let bench = benchmarks::by_name(name).expect("registry benchmark");
            let flat = single(bench.hierarchy.flatten());
            let m = parallel(&flat, flat.top(), &lib, &RegPolicy::Dedicated);
            let mut behavior = m.behaviors()[0].clone();
            let r0 = hsyn_rtl::RegId::from_index(0);
            for r in behavior.binding.var_to_reg.regs_mut() {
                *r = r0;
            }
            let crammed = RtlModule::new(
                &flat,
                name,
                m.fus().to_vec(),
                m.regs().to_vec(),
                vec![],
                vec![behavior],
            );
            let layout = Layout::build(&flat, flat.dfg(flat.top()));
            let bind = Bind::build(&flat, &crammed, 0, &layout);
            assert!(
                bind.reg_slots.iter().any(|&s| s & Bind::TIED != 0),
                "{name}: the crammed binding has tie groups"
            );
            assert_matches_reference(&flat, &crammed, &format!("{name} crammed"));
            assert_streams_match_kernel(&flat, &crammed, &format!("{name} crammed"));
        }
    }
}
