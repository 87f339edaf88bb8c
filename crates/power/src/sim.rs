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
//! The simulation has two halves:
//!
//! * **a flat kernel over the call tree** — the top behavior and, under
//!   each node, one node per hierarchical step of its DFG, numbered in
//!   preorder from the DFGs alone ([`CallTree`]). Each DFG is compiled
//!   once into a [`Layout`]: one `Vec<i64>` per execution state holds the
//!   value slots (one per `(node, out-port)`, zeroed each execution)
//!   followed by the delay history (one slot per `(delayed var, k)`,
//!   zero-initialized); every operand is a precomputed slot index; the
//!   steps follow the memory-aware topological order. The kernel executes
//!   the tree once per trace iteration and keeps every execution's buffer
//!   as that node's row: its **value streams** ([`Streams`]). The
//!   iteration loop hashes nothing; the reference interpreter kept in the
//!   tests pins the kernel to the semantics it replaced;
//! * **the binding, read off the streams** — per module instance, the
//!   call-tree nodes it serves and a [`Bind`] per behavior (per-FU event
//!   order with chained depths, per-register write order). An instance's
//!   events are the rows of its nodes, iteration-major and then in
//!   preorder, read through its `Bind` ([`StreamActivity`]): exactly the
//!   order a kernel driven by the instance tree records them in. Every
//!   estimate prices them from there; the tests record them as events and
//!   compare every field with the reference interpreter's.
//!
//! The node values depend on the binding in one case only: one instance
//! serving two call-tree nodes of one *stateful* behavior (delayed edges or
//! owned memory), whose calls then interleave on one state. [`simulate`]
//! handles it by giving such nodes one execution state; [`SimCache`] keeps
//! the streams of the binding-free case, once per hierarchy content
//! ([`Hierarchy::content_hash`] of the top), trace length and width (the
//! samples are compared on every lookup), so a candidate design builds
//! only its `Bind`s and is priced without running the kernel. The engine
//! never makes the binding-dependent case; the cached estimate falls back
//! to the uncached one there. The table holds at most
//! [`SimCache::STREAM_CAP`] entries, oldest evicted first, and each entry
//! memoizes the energy of instance subtrees by structural fingerprint and
//! served nodes. Every DFG mutation changes the content hash, so an edited
//! or rebanked hierarchy is a new key, never a stale hit.

use crate::traces::TraceSet;
use crate::EnergyBreakdown;
use hsyn_dfg::{Dfg, DfgId, Hierarchy, MemScope, NodeId, NodeKind, Operation, VarRef};
use hsyn_rtl::RtlModule;
use hsyn_util::{BoundedMemo, MemoCount};
use std::collections::HashMap;

/// One execution state: inter-iteration state (values crossing iteration
/// boundaries through delayed edges, owned memory banks) and per-execution
/// scratch. Everything is sized on the first execution and reused after
/// it, so a steady-state iteration allocates nothing.
#[derive(Clone, Debug, Default)]
struct ExecState {
    /// Flat storage laid out by the behavior's [`Layout`]: the value arena
    /// (`..Layout::n_vals`, one slot per `(node, out-port)`, reset to 0 at
    /// the start of every execution) followed by the delay history (one
    /// slot per `(delayed var, k)`, zero-initialized, persisting across
    /// iterations).
    buf: Vec<i64>,
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
/// slot of [`ExecState::buf`] listed in [`Layout::srcs`] from `src` on,
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
    /// The `call`-th hierarchical node of the behavior (its call-tree
    /// child of that index); `node` names the call's memory binds.
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
    #[cfg(test)]
    op: Operation,
    a: u32,
    b: Option<u32>,
    depth: u32,
}

/// The DFG-only compilation of a behavior: everything the inner loop needs
/// that depends neither on the data nor on the binding.
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
    /// Value plus history slots: the length of [`ExecState::buf`].
    len: usize,
    /// Whether an execution leaves state for the next one: a delayed edge
    /// or an owned memory. Two calls sharing such a behavior's state
    /// interleave on it.
    stateful: bool,
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
            stateful: !hist.is_empty() || g.mems().any(|(_, m)| m.scope == MemScope::Owned),
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

    /// Calls `f` with register `reg`'s writes of the execution held in
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

    /// The bind of `module`'s behavior `bi`, whose DFG `layout` compiles.
    ///
    /// Reads the two facts of the storage analysis it needs straight off
    /// the schedule, without running the analysis: an edge between
    /// operations is chained when its consumer starts on the tick its
    /// producer's result arrives mid-cycle, and a stored variable is born
    /// on its producer's result cycle. The stored variables are the keys
    /// of the register binding, which the builder fills with exactly the
    /// analysis's stored variables, in the same ascending order.
    fn build(h: &Hierarchy, module: &RtlModule, bi: usize, layout: &Layout) -> Self {
        let b = &module.behaviors()[bi];
        let g = h.dfg(b.dfg);
        let sched = &b.schedule;
        let order = g.mem_topo_order().expect("bound dfg is acyclic");

        // Chained combinational depth per node (for glitch modeling).
        let mut depth = vec![0u32; g.node_count()];
        for &nid in order {
            if !matches!(g.node(nid).kind(), NodeKind::Op(_)) {
                continue;
            }
            let start = sched.time(nid).start;
            let mut d = 0u32;
            for (_, e) in g.in_edges(nid) {
                let chained =
                    e.delay == 0 && matches!(g.node(e.from.node).kind(), NodeKind::Op(_)) && {
                        let result = sched.result_tick_of_port(e.from.node, e.from.port);
                        !result.is_boundary() && start == result
                    };
                if chained {
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
                    #[cfg(test)]
                    op,
                    a: layout.srcs[src],
                    b: (op.arity() > 1).then(|| layout.srcs[src + 1]),
                    depth: depth[node.index()],
                }
            })
            .collect();

        // Register writes ordered by (register, lifetime birth); a repeated
        // pair ties the earlier slot to the next.
        let mut births: Vec<(usize, u32, u32)> = b
            .binding
            .var_to_reg
            .iter()
            .map(|(v, r)| {
                let birth = sched.result_cycle_of_port(v.node, v.port);
                (r.index(), birth, layout.slot_of(v))
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

        Bind {
            fu_ops,
            fu_start,
            reg_slots,
            reg_start,
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

/// One node of the [`CallTree`]: an execution of a behavior per iteration.
#[derive(Debug)]
struct CallNode {
    /// The node's DFG, in the hierarchy the tree was built from.
    dfg: DfgId,
    /// Index of the DFG's [`Layout`] in [`CallTree::layouts`].
    layout: u32,
    /// Per hierarchical step of the DFG, in step order: the hierarchical
    /// node and the call-tree index of the child it calls.
    children: Vec<(NodeId, u32)>,
}

/// The executions of one top behavior per iteration, numbered from the
/// DFGs alone: node 0 is the top, and the children of a node are its DFG's
/// hierarchical steps in step order, numbered in preorder — the order the
/// kernel executes them in. A binding decides only which module instance
/// serves each node.
#[derive(Debug)]
struct CallTree {
    nodes: Vec<CallNode>,
    /// One layout per distinct DFG of the tree.
    layouts: Vec<Layout>,
}

impl CallTree {
    fn build(h: &Hierarchy, top: DfgId) -> Self {
        let mut tree = CallTree {
            nodes: Vec::new(),
            layouts: Vec::new(),
        };
        let mut layout_of: Vec<Option<u32>> = vec![None; h.dfg_count()];
        tree.add(h, top, &mut layout_of);
        tree
    }

    fn add(&mut self, h: &Hierarchy, dfg: DfgId, layout_of: &mut [Option<u32>]) -> u32 {
        let layout = *layout_of[dfg.index()].get_or_insert_with(|| {
            self.layouts.push(Layout::build(h, h.dfg(dfg)));
            self.layouts.len() as u32 - 1
        });
        let id = self.nodes.len() as u32;
        self.nodes.push(CallNode {
            dfg,
            layout,
            children: Vec::new(),
        });
        let g = h.dfg(dfg);
        let calls: Vec<NodeId> = self.layouts[layout as usize]
            .steps
            .iter()
            .filter_map(|s| match *s {
                Step::Hier { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        for node in calls {
            let NodeKind::Hier { callee } = g.node(node).kind() else {
                unreachable!("hierarchical step");
            };
            let child = self.add(h, *callee, layout_of);
            self.nodes[id as usize].children.push((node, child));
        }
        id
    }

    fn layout(&self, node: u32) -> &Layout {
        &self.layouts[self.nodes[node as usize].layout as usize]
    }
}

/// The call-tree nodes one module instance serves, ascending (the order
/// the kernel executes them in), each with the index of the behavior that
/// serves it, and the same for every submodule instance.
#[derive(Debug)]
pub(crate) struct Served {
    pub(crate) nodes: Vec<(u32, u32)>,
    /// Per submodule instance, in [`RtlModule::subs`] order.
    pub(crate) subs: Vec<Served>,
}

impl Served {
    /// The nodes of `tree` each instance of `module` serves through its
    /// binding (`module` executes the tree's top). The DFGs are read from
    /// `h`; `tree` may have been built from another hierarchy of the same
    /// content.
    fn walk(h: &Hierarchy, tree: &CallTree, module: &RtlModule) -> Self {
        Self::walk_nodes(h, tree, module, vec![(0, 0)])
    }

    fn walk_nodes(
        h: &Hierarchy,
        tree: &CallTree,
        module: &RtlModule,
        nodes: Vec<(u32, u32)>,
    ) -> Self {
        let mut sub_nodes: Vec<Vec<(u32, u32)>> = vec![Vec::new(); module.subs().len()];
        for &(c, bi) in &nodes {
            let b = &module.behaviors()[bi as usize];
            let g = h.dfg(b.dfg);
            for &(node, child) in &tree.nodes[c as usize].children {
                let NodeKind::Hier { callee } = g.node(node).kind() else {
                    unreachable!("hierarchical step");
                };
                let si = b.binding.hier_to_sub[&node].index();
                let sub_bi = module.subs()[si]
                    .behaviors()
                    .iter()
                    .position(|sb| sb.dfg == *callee)
                    .expect("submodule implements the callee");
                sub_nodes[si].push((child, sub_bi as u32));
            }
        }
        let subs = module
            .subs()
            .iter()
            .zip(sub_nodes)
            .map(|(sub, n)| Self::walk_nodes(h, tree, sub, n))
            .collect();
        Served { nodes, subs }
    }

    /// Whether some instance serves two nodes with one stateful behavior:
    /// their executions share a state, so their values depend on the
    /// binding.
    fn shares_state(&self, tree: &CallTree) -> bool {
        self.nodes.iter().enumerate().any(|(i, &(c, bi))| {
            tree.layout(c).stateful && self.nodes[i + 1..].iter().any(|n| n.1 == bi)
        }) || self.subs.iter().any(|s| s.shares_state(tree))
    }

    /// The execution state of every node under kernel semantics: one per
    /// `(instance, behavior)`, numbered from `next`.
    fn states(&self, state_of: &mut [u32], next: &mut u32) {
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for &(c, bi) in &self.nodes {
            state_of[c as usize] = match seen.iter().find(|s| s.0 == bi) {
                Some(&(_, state)) => state,
                None => {
                    seen.push((bi, *next));
                    *next += 1;
                    *next - 1
                }
            };
        }
        for s in &self.subs {
            s.states(state_of, next);
        }
    }
}

/// Every execution's buffer, per call-tree node, of one kernel run: the
/// value streams.
#[derive(Debug)]
pub(crate) struct Streams {
    /// The trace samples the streams were computed on, compared on lookup.
    samples: Vec<Vec<i64>>,
    tree: CallTree,
    /// Per call-tree node: iteration `n`'s buffer as the kernel's operand
    /// reads see it (values after the steps, history before the shift) at
    /// `[n * len..][..len]`, `len` the node's layout length.
    rows: Vec<Vec<i64>>,
    /// Per call-tree node: `(loads, stores)` per memory of its DFG over all
    /// iterations. Every step runs once per execution, so the counts do not
    /// depend on the binding.
    mem_accesses: Vec<Vec<(u64, u64)>>,
    /// Iterations held.
    iterations: usize,
}

impl Streams {
    /// Run the kernel over `traces` on `tree` (built from `h`), node `c`
    /// executing on state `state_of[c]`, keeping every execution's buffer.
    /// Returns the streams and the top's output streams.
    ///
    /// # Panics
    ///
    /// Panics if the trace input count does not match the top DFG.
    fn fill(
        h: &Hierarchy,
        tree: CallTree,
        state_of: &[u32],
        traces: &TraceSet,
    ) -> (Self, Vec<Vec<i64>>) {
        let g = h.dfg(tree.nodes[0].dfg);
        assert_eq!(
            traces.input_count(),
            g.input_count(),
            "trace width must match the top DFG's inputs"
        );
        let n_states = state_of.iter().max().map_or(0, |&s| s as usize + 1);
        let mut run = Run {
            h,
            tree: &tree,
            state_of,
            states: vec![ExecState::default(); n_states],
            arena: MemArena::default(),
            width: traces.width,
            rows: (0..tree.nodes.len() as u32)
                .map(|c| Vec::with_capacity(traces.len() * tree.layout(c).len))
                .collect(),
            mem_accesses: vec![Vec::new(); tree.nodes.len()],
        };
        let mut inputs = vec![0i64; g.input_count()];
        let mut out = Vec::with_capacity(g.output_count());
        let mut outputs: Vec<Vec<i64>> = vec![Vec::with_capacity(traces.len()); g.output_count()];
        for n in 0..traces.len() {
            for (i, s) in traces.samples.iter().enumerate() {
                inputs[i] = s[n];
            }
            run.exec(0, &inputs, &[], &mut out);
            for (o, v) in outputs.iter_mut().zip(&out) {
                o.push(*v);
            }
        }
        let Run {
            rows, mem_accesses, ..
        } = run;
        let streams = Streams {
            samples: traces.samples.clone(),
            tree,
            rows,
            mem_accesses,
            iterations: traces.len(),
        };
        (streams, outputs)
    }
}

/// The kernel's working set for one [`Streams::fill`].
struct Run<'a> {
    h: &'a Hierarchy,
    tree: &'a CallTree,
    state_of: &'a [u32],
    states: Vec<ExecState>,
    arena: MemArena,
    width: u32,
    rows: Vec<Vec<i64>>,
    mem_accesses: Vec<Vec<(u64, u64)>>,
}

impl Run<'_> {
    /// Execute call-tree node `c` once on `inputs` (`ext_slots`: the arena
    /// slots of its external memories), leaving its outputs in `out`.
    fn exec(&mut self, c: usize, inputs: &[i64], ext_slots: &[usize], out: &mut Vec<i64>) {
        let tree = self.tree;
        let node = &tree.nodes[c];
        let g = self.h.dfg(node.dfg);
        let layout = &tree.layouts[node.layout as usize];
        // The state leaves the table while this node runs: its callees run
        // on other states (an instance never serves its own descendants).
        let s = self.state_of[c] as usize;
        let mut state = std::mem::take(&mut self.states[s]);
        let ExecState {
            buf,
            mem_slots,
            mem_map,
            call_in,
            call_ext,
            call_out,
        } = &mut state;
        // Values never produced read 0 (feedback before the first iteration
        // reads the zeroed history; the value arena is zeroed every
        // execution).
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
            let arena = &mut self.arena;
            let mut ext = ext_slots.iter().copied();
            mem_map.clear();
            mem_map.extend(g.mems().map(|(i, m)| {
                match m.scope {
                    MemScope::Owned => *mem_slots[i.index()]
                        .get_or_insert_with(|| arena.alloc(m.words.max(1) as usize)),
                    MemScope::External => match ext.next() {
                        Some(slot) => slot,
                        // Standalone evaluation (a child resynthesized in
                        // isolation sees no caller): an unbound import
                        // behaves as a private zero-initialized bank,
                        // matching the flattened reference evaluator.
                        None => *mem_slots[i.index()]
                            .get_or_insert_with(|| arena.alloc(m.words.max(1) as usize)),
                    },
                }
            }));
        }
        if self.mem_accesses[c].len() != g.mem_count() {
            self.mem_accesses[c] = vec![(0, 0); g.mem_count()];
        }

        let (srcs, width) = (&layout.srcs, self.width);
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
                    node: hn,
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
                    // Shared banks flow to the callee as arena slots,
                    // resolved through this call's positional memory binds.
                    call_ext.clear();
                    call_ext.extend(g.node(hn).mem_binds().iter().map(|m| mem_map[m.index()]));
                    let child = node.children[call as usize].1 as usize;
                    self.exec(child, call_in, call_ext, call_out);
                    let slot = slot as usize;
                    buf[slot..slot + call_out.len()].copy_from_slice(call_out);
                }
                Step::Load { mem, slot, src } => {
                    let addr = buf[srcs[src as usize] as usize];
                    let bank = &self.arena.slots[mem_map[mem as usize]];
                    let v = bank[addr.rem_euclid(bank.len() as i64) as usize];
                    buf[slot as usize] = crate::truncate(v, width);
                    self.mem_accesses[c][mem as usize].0 += 1;
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
                    let bank = &mut self.arena.slots[mem_map[mem as usize]];
                    let words = bank.len() as i64;
                    bank[addr.rem_euclid(words) as usize] = stored;
                    buf[slot as usize] = stored;
                    self.mem_accesses[c][mem as usize].1 += 1;
                }
            }
        }
        self.rows[c].extend_from_slice(buf);

        // Collect outputs (before the history shift: a delayed output edge
        // delivers the value from `delay` iterations before this one).
        out.clear();
        out.extend(layout.out_srcs.iter().map(|&s| buf[s as usize]));

        // Update delay history *after* the execution: every k-level moves
        // one slot deeper, and this execution's value enters at k = 1.
        for &(first, maxd, slot) in &layout.hist {
            let (first, maxd) = (first as usize, maxd as usize);
            buf.copy_within(first..first + maxd - 1, first + 1);
            buf[first] = buf[slot as usize];
        }
        self.states[s] = state;
    }
}

/// The activity of one module instance, read from the value streams
/// through its binding: the rows of the call-tree nodes it serves,
/// iteration-major and then in node order, through the [`Bind`] of the
/// serving behavior — the values, in the order, the kernel would record.
pub(crate) struct StreamActivity<'a> {
    /// Per served node: its rows, its row length and its behavior.
    execs: Vec<(&'a [i64], usize, usize)>,
    /// Per behavior: its bind, when it serves a node.
    binds: Vec<Option<Bind>>,
    iterations: usize,
    /// Total controller-active cycles across all iterations.
    pub(crate) busy_cycles: u64,
    /// Per behavior: `(loads, stores)` per memory of its DFG, summed over
    /// its nodes; empty for a behavior that serves none. Accesses to an
    /// external (parent-shared) memory count here, at the accessing
    /// instance: the accessor pays the port energy, the owner the bank's
    /// standing cost.
    pub(crate) mem_accesses: Vec<Vec<(u64, u64)>>,
}

impl<'a> StreamActivity<'a> {
    /// The activity of `module` serving `nodes` (`(node, behavior)` pairs,
    /// ascending) of `streams`.
    pub(crate) fn new(
        h: &Hierarchy,
        module: &RtlModule,
        nodes: &[(u32, u32)],
        streams: &'a Streams,
    ) -> Self {
        let n_behaviors = module.behaviors().len();
        let mut binds: Vec<Option<Bind>> = (0..n_behaviors).map(|_| None).collect();
        let mut mem_accesses = vec![Vec::new(); n_behaviors];
        let mut makespans = 0u64;
        let mut execs = Vec::with_capacity(nodes.len());
        for &(c, bi) in nodes {
            let (layout, bi) = (streams.tree.layout(c), bi as usize);
            let counts = &streams.mem_accesses[c as usize];
            if binds[bi].is_none() {
                binds[bi] = Some(Bind::build(h, module, bi, layout));
                mem_accesses[bi] = vec![(0, 0); counts.len()];
            }
            for (sum, n) in mem_accesses[bi].iter_mut().zip(counts) {
                sum.0 += n.0;
                sum.1 += n.1;
            }
            makespans += u64::from(module.behaviors()[bi].schedule.makespan());
            execs.push((streams.rows[c as usize].as_slice(), layout.len, bi));
        }
        StreamActivity {
            execs,
            binds,
            iterations: streams.iterations,
            busy_cycles: streams.iterations as u64 * makespans,
            mem_accesses,
        }
    }

    /// `make(op, row)` for every execution on FU instance `fu`, in event
    /// order across all iterations.
    fn gather<T>(&self, fu: usize, make: impl Fn(&FuOp, &[i64]) -> T) -> Vec<T> {
        let per_iteration: usize = self
            .execs
            .iter()
            .map(|&(_, _, bi)| self.bind(bi).ops(fu).len())
            .sum();
        let mut events = Vec::with_capacity(per_iteration * self.iterations);
        for n in 0..self.iterations {
            for &(rows, len, bi) in &self.execs {
                let row = &rows[n * len..(n + 1) * len];
                events.extend(self.bind(bi).ops(fu).iter().map(|o| make(o, row)));
            }
        }
        events
    }

    fn bind(&self, bi: usize) -> &Bind {
        self.binds[bi]
            .as_ref()
            .expect("a served behavior has a bind")
    }

    /// Calls `f(a, b, depth)` for every execution on FU instance `fu`, in
    /// event order across all iterations.
    pub(crate) fn each_fu_event(&self, fu: usize, mut f: impl FnMut(i64, i64, u32)) {
        // Gathered first, then handed out: calling `f` from inside the
        // row-by-op loops made the energy walk about a third slower than
        // this two-loop form (flattened dct, 2-core x86-64 host).
        let events = self.gather(fu, |o, row| {
            (
                row[o.a as usize],
                o.b.map_or(0, |s| row[s as usize]),
                o.depth,
            )
        });
        for (a, b, depth) in events {
            f(a, b, depth);
        }
    }

    /// Calls `f(value)` for every write of register `reg`, in write order
    /// across all iterations.
    pub(crate) fn each_reg_write(&self, reg: usize, mut f: impl FnMut(i64)) {
        for n in 0..self.iterations {
            for &(rows, len, bi) in &self.execs {
                let row = &rows[n * len..(n + 1) * len];
                self.bind(bi).each_reg_write(reg, row, &mut f);
            }
        }
    }
}

/// One kernel run of a design on a trace set: the value streams of its
/// call tree, the call-tree nodes each module instance serves, and the
/// top behavior's output streams.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) streams: Streams,
    pub(crate) served: Served,
    /// Per output of the top behavior: its value at every trace iteration.
    pub outputs: Vec<Vec<i64>>,
}

/// Simulate `module` executing its first behavior once per trace iteration.
/// Each `(instance, behavior)` pair of the binding executes on one state,
/// so an instance serving several calls of a stateful behavior interleaves
/// them.
///
/// # Panics
///
/// Panics if the trace input count does not match the behavior's DFG.
pub fn simulate(h: &Hierarchy, module: &RtlModule, traces: &TraceSet) -> Simulation {
    let top = module.behaviors()[0].dfg;
    let tree = CallTree::build(h, top);
    let served = Served::walk(h, &tree, module);
    let mut state_of = vec![0; tree.nodes.len()];
    served.states(&mut state_of, &mut 0);
    let (streams, outputs) = Streams::fill(h, tree, &state_of, traces);
    Simulation {
        streams,
        served,
        outputs,
    }
}

/// Key of the value-stream table: the top DFG's hierarchy content hash,
/// the trace length and the width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StreamKey {
    hierarchy: u64,
    len: usize,
    width: u32,
}

/// The raw subtree energy of module instances priced from one stream
/// entry, by structural fingerprint and served `(node, behavior)` pairs:
/// the fingerprint fixes everything the energy walk reads of the instance
/// tree, the nodes fix its values (structurally equal siblings serve
/// different nodes). One library per cache.
pub(crate) type EnergyMemo = BoundedMemo<(u64, Vec<(u32, u32)>), EnergyBreakdown, ENERGY_MEMO_CAP>;

/// Entry cap of each stream entry's energy memo.
const ENERGY_MEMO_CAP: usize = 1 << 12;

/// One entry of the value-stream table.
#[derive(Debug)]
struct StreamEntry {
    key: StreamKey,
    streams: Streams,
    energies: EnergyMemo,
}

/// Memoized simulation work of one engine: the value streams of every
/// hierarchy it prices, keyed by content and traces (see the module
/// documentation), each with the energies of the instance subtrees priced
/// from it. A hit is exact: the values are integers fully determined by
/// the DFGs and the samples, both of which must match.
#[derive(Debug, Default)]
pub struct SimCache {
    /// Value streams, oldest first; at most [`SimCache::STREAM_CAP`].
    entries: Vec<StreamEntry>,
    /// Pricings answered from stored value streams (hits) or that ran the
    /// kernel to fill them (misses).
    pub stream: MemoCount,
    /// Top-level trace iterations the kernel ran for this cache's owner (a
    /// deterministic physical-work counter: a value-stream hit runs none).
    pub kernel_iterations: u64,
    /// Subtree-energy traffic of the entries evicted so far.
    evicted_energy: MemoCount,
}

impl SimCache {
    /// Entry cap of the value-stream table; the oldest entry is evicted
    /// first. An engine prices one hierarchy per design shape (a rebank or
    /// a callee swap makes another), and each nested move-*B* engine has a
    /// cache of its own, so a few entries cover a search.
    pub const STREAM_CAP: usize = 8;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subtree-energy memo traffic over every entry ever held, evicted ones
    /// included.
    pub fn energy(&self) -> MemoCount {
        let mut count = self.evicted_energy;
        for e in &self.entries {
            count.absorb(e.energies.count());
        }
        count
    }

    /// The value streams of `module`'s top behavior on `traces` (filled by
    /// one kernel run on a miss), their instance-energy memo, and the nodes
    /// each instance of `module` serves. `None`, counted as a kernel run of
    /// the caller's, when an instance serves two nodes of one stateful
    /// behavior: the streams do not hold that binding's values.
    pub(crate) fn streams(
        &mut self,
        h: &Hierarchy,
        module: &RtlModule,
        traces: &TraceSet,
    ) -> Option<(&Streams, &mut EnergyMemo, Served)> {
        let top = module.behaviors()[0].dfg;
        let key = StreamKey {
            hierarchy: h.content_hash(top),
            len: traces.len(),
            width: traces.width,
        };
        let found = self
            .entries
            .iter()
            .position(|e| e.key == key && e.streams.samples == traces.samples);
        let at = match found {
            Some(at) => {
                self.stream.hits += 1;
                at
            }
            None => {
                self.stream.misses += 1;
                self.kernel_iterations += traces.len() as u64;
                if self.entries.len() >= Self::STREAM_CAP {
                    let evicted = self.entries.remove(0).energies.count();
                    self.evicted_energy.absorb(evicted);
                }
                let tree = CallTree::build(h, top);
                let own_state: Vec<u32> = (0..tree.nodes.len() as u32).collect();
                let (streams, _) = Streams::fill(h, tree, &own_state, traces);
                self.entries.push(StreamEntry {
                    key,
                    streams,
                    energies: EnergyMemo::default(),
                });
                self.entries.len() - 1
            }
        };
        let tree = &self.entries[at].streams.tree;
        let served = Served::walk(h, tree, module);
        if served.shares_state(tree) {
            self.kernel_iterations += traces.len() as u64;
            return None;
        }
        let entry = &mut self.entries[at];
        Some((&entry.streams, &mut entry.energies, served))
    }
}

/// The interpreter the flat kernel replaced, kept as the reference the
/// differential tests hold [`simulate`] to. It records every event each
/// instance sees into a `ModuleActivity` tree, and keeps delay history in a
/// `HashMap<(VarRef, k), i64>` per behavior (a missing entry reads 0, and
/// `(var, k)` enters only once `(var, k − 1)` holds a value), a value
/// arena allocated per iteration, and hierarchical calls resolved through
/// `hier_to_sub` and a search of the submodule's behaviors on every call.
#[cfg(test)]
mod reference {
    use super::MemArena;
    use crate::traces::TraceSet;
    use hsyn_dfg::{Hierarchy, MemScope, NodeId, NodeKind, Operation, VarRef};
    use hsyn_rtl::{storage_analysis, RtlModule};
    use std::collections::HashMap;

    /// One execution of an operation on a functional-unit instance.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(super) struct FuEvent {
        /// The operation performed.
        pub(super) op: Operation,
        /// First operand value.
        pub(super) a: i64,
        /// Second operand value (0 for unary operations).
        pub(super) b: i64,
        /// Chained combinational depth: 0 when all operands come from
        /// registers, `1 + max(pred depth)` when fed combinationally in
        /// the same cycle.
        pub(super) depth: u32,
    }

    /// The events recorded for one module instance, and recursively for
    /// its submodule instances.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub(super) struct ModuleActivity {
        /// Per functional-unit instance: executions in schedule order
        /// across all iterations.
        pub(super) fu_events: Vec<Vec<FuEvent>>,
        /// Per register instance: written values in write order.
        pub(super) reg_writes: Vec<Vec<i64>>,
        /// Total controller-active cycles across all iterations.
        pub(super) busy_cycles: u64,
        /// Number of behavior executions.
        pub(super) runs: u64,
        /// Per behavior, per memory of that behavior's DFG: `(loads,
        /// stores)` issued across all iterations; empty for a behavior
        /// that never ran.
        pub(super) mem_accesses: Vec<Vec<(u64, u64)>>,
        /// Activity of submodule instances.
        pub(super) subs: Vec<ModuleActivity>,
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

    /// Empty activity mirroring `m`'s instance tree.
    fn empty_activity(m: &RtlModule) -> ModuleActivity {
        ModuleActivity {
            fu_events: vec![Vec::new(); m.fus().len()],
            reg_writes: vec![Vec::new(); m.regs().len()],
            busy_cycles: 0,
            runs: 0,
            // Inner vectors are sized on first execution of each behavior
            // (the word counts live on the DFG, not the RTL module).
            mem_accesses: vec![Vec::new(); m.behaviors().len()],
            subs: m.subs().iter().map(empty_activity).collect(),
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
        let mut act = empty_activity(module);
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
pub(crate) mod tests {
    //! Differential checks: the flat kernel against the reference
    //! interpreter it replaced (activity — every event, register write,
    //! memory access and cycle count, recorded from the kernel's streams —
    //! and outputs must be equal), and the value-stream pricing of flat and
    //! hierarchical designs against the kernel (every float of the estimate
    //! must be bit-identical).

    use super::reference::{FuEvent, ModuleActivity};
    use super::*;
    use crate::traces::dsp_default;
    use hsyn_dfg::{benchmarks, MemObject};
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
            let sim = simulate(h, m, &traces);
            let reference = reference::simulate(h, m, &traces);
            assert_eq!(sim.outputs, reference.1, "{what} seed {seed:#x}: outputs");
            assert!(
                activity(h, m, &sim.served, &sim.streams) == reference.0,
                "{what} seed {seed:#x}: activity differs"
            );
        }
    }

    /// The events of `module` serving `served` on `streams`, recorded the
    /// way the reference records them.
    fn activity(
        h: &Hierarchy,
        module: &RtlModule,
        served: &Served,
        streams: &Streams,
    ) -> ModuleActivity {
        let act = StreamActivity::new(h, module, &served.nodes, streams);
        let fu_events = (0..module.fus().len())
            .map(|fu| {
                act.gather(fu, |o, row| FuEvent {
                    op: o.op,
                    a: row[o.a as usize],
                    b: o.b.map_or(0, |s| row[s as usize]),
                    depth: o.depth,
                })
            })
            .collect();
        let reg_writes = (0..module.regs().len())
            .map(|reg| {
                let mut writes = Vec::new();
                act.each_reg_write(reg, |v| writes.push(v));
                writes
            })
            .collect();
        ModuleActivity {
            fu_events,
            reg_writes,
            busy_cycles: act.busy_cycles,
            runs: (streams.iterations * served.nodes.len()) as u64,
            mem_accesses: act.mem_accesses,
            subs: module
                .subs()
                .iter()
                .zip(&served.subs)
                .map(|(sub, s)| activity(h, sub, s, streams))
                .collect(),
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

    /// `acc(a) = a + acc[n-1]` with a 2-deep echo, called twice per
    /// iteration through one shared instance: the calls interleave on one
    /// delay state.
    pub(crate) fn shared_stateful_fixture() -> (Hierarchy, RtlModule) {
        let mut h = Hierarchy::new();
        let sub_id = h.add_dfg(accumulator("acc"));
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
        let m = one_instance(&h, top_id, child, vec![c1, c2], &RegPolicy::Dedicated);
        assert_eq!(m.subs().len(), 1, "both calls share one instance");
        (h, m)
    }

    /// `acc(a) = a + acc[n-1]`, echoed against itself two iterations back.
    fn accumulator(name: &str) -> Dfg {
        let mut sub = Dfg::new(name);
        let a = sub.add_input("a");
        let acc = sub.add_op_detached(Operation::Add, "acc");
        sub.connect(a, acc, 0, 0);
        sub.connect(VarRef::new(acc, 0), acc, 1, 1);
        let echo = sub.add_op_detached(Operation::Sub, "echo");
        sub.connect(VarRef::new(acc, 0), echo, 0, 0);
        sub.connect(VarRef::new(acc, 0), echo, 1, 2);
        sub.add_output("o", VarRef::new(echo, 0));
        sub
    }

    /// The fully parallel implementation of `dfg` except that one instance
    /// of `child` serves every hierarchical node in `calls`.
    fn one_instance(
        h: &Hierarchy,
        dfg: DfgId,
        child: RtlModule,
        calls: Vec<NodeId>,
        policy: &RegPolicy,
    ) -> RtlModule {
        let lib = table1_library();
        let mut spec = ModuleSpec::dedicated(
            h,
            dfg,
            "one_instance",
            |_, op| lib.fastest_for(op).expect("table 1 covers every op"),
            |_, _| child.clone(),
        );
        spec.subs = vec![SubSpec {
            module: child,
            nodes: calls,
        }];
        spec.reg_policy = policy.clone();
        build(h, &spec, &BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None)).expect("builds")
    }

    #[test]
    fn shared_stateful_instance_matches_the_reference() {
        let (h, m) = shared_stateful_fixture();
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

    /// `estimate_cached` prices `m` from value streams bit-identically to
    /// the kernel behind `estimate`, cold (one kernel run fills the
    /// streams) and warm (none runs).
    fn assert_streams_match_kernel(h: &Hierarchy, m: &RtlModule, what: &str) {
        let cache = price_twice(h, m, what);
        assert_eq!((cache.stream.misses, cache.stream.hits), (1, 1), "{what}");
        assert_eq!(cache.kernel_iterations, SAMPLES as u64, "{what}");
    }

    /// Price `m` twice through one cache, asserting each estimate equals
    /// the kernel's in every float; returns the cache.
    fn price_twice(h: &Hierarchy, m: &RtlModule, what: &str) -> SimCache {
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
        cache
    }

    #[test]
    fn stream_pricing_matches_the_kernel_on_every_hierarchical_benchmark() {
        let lib = table1_library();
        let mut hierarchical = 0;
        for bench in benchmarks::all() {
            let h = &bench.hierarchy;
            for policy in &[RegPolicy::Dedicated, RegPolicy::Packed] {
                let m = parallel(h, h.top(), &lib, policy);
                if m.subs().is_empty() {
                    continue;
                }
                hierarchical += 1;
                assert_streams_match_kernel(h, &m, &format!("{} {policy:?}", bench.name));
            }
        }
        // Every registry benchmark but paulin calls submodules.
        assert_eq!(hierarchical, 24, "12 benchmarks × 2 register policies");
    }

    #[test]
    fn stream_pricing_matches_the_kernel_on_external_banks() {
        // fir_block and conv2d pass their banks to children that import
        // them: the child's loads read the parent's bank through the call's
        // memory binds.
        let lib = table1_library();
        for name in ["fir_block", "conv2d"] {
            let bench = benchmarks::by_name(name).expect("memory tier");
            let h = &bench.hierarchy;
            let imports = (0..h.dfg_count())
                .map(DfgId::from_index)
                .any(|id| h.dfg(id).mems().any(|(_, m)| m.scope == MemScope::External));
            assert!(imports, "{name}: a child imports a bank");
            for policy in &[RegPolicy::Dedicated, RegPolicy::Packed] {
                let m = parallel(h, h.top(), &lib, policy);
                assert_streams_match_kernel(h, &m, &format!("{name} {policy:?}"));
            }
        }
    }

    #[test]
    fn stream_pricing_matches_the_kernel_with_stateless_children_on_one_instance() {
        // dct's eight dot-product calls served by one instance: stateless
        // calls share it without sharing values, so the streams hold.
        let lib = table1_library();
        let bench = benchmarks::by_name("dct").expect("registry benchmark");
        let h = &bench.hierarchy;
        let g = h.dfg(h.top());
        let mut calls = Vec::new();
        let mut callee = None;
        for (nid, node) in g.nodes() {
            if let NodeKind::Hier { callee: c } = node.kind() {
                calls.push(nid);
                callee = Some(*c);
            }
        }
        assert_eq!(calls.len(), 8, "dct has eight dot-product calls");
        for policy in &[RegPolicy::Dedicated, RegPolicy::Packed] {
            let child = parallel(h, callee.expect("a call"), &lib, policy);
            let m = one_instance(h, h.top(), child, calls.clone(), policy);
            assert_eq!(m.subs().len(), 1, "one instance serves every call");
            assert_matches_reference(h, &m, "dct one instance");
            assert_streams_match_kernel(h, &m, &format!("dct one instance {policy:?}"));
        }
    }

    #[test]
    fn stream_pricing_matches_the_kernel_on_an_embedded_instance_serving_two_callees() {
        // One module embedding a stateful accumulator and a stateless
        // multiply-add serves one call of each: the two behaviors keep
        // separate states, so the streams hold.
        let lib = table1_library();
        let mut h = Hierarchy::new();
        let acc = h.add_dfg(accumulator("acc"));
        let mut mac = Dfg::new("mac");
        let a = mac.add_input("a");
        let b = mac.add_input("b");
        let p = mac.add_op(Operation::Mult, "p", &[a, b]);
        let q = mac.add_op(Operation::Add, "q", &[p, b]);
        mac.add_output("o", q);
        let mac = h.add_dfg(mac);
        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let y = top.add_input("y");
        let c1 = top.add_hier(acc, "A", &[x]);
        let c2 = top.add_hier(mac, "M", &[x, y]);
        let s = top.add_op(
            Operation::Add,
            "s",
            &[top.hier_out(c1, 0), top.hier_out(c2, 0)],
        );
        top.add_output("z", s);
        let top_id = h.add_dfg(top);
        h.set_top(top_id);
        h.validate().expect("valid fixture");
        let child_acc = parallel(&h, acc, &lib, &RegPolicy::Dedicated);
        let child_mac = parallel(&h, mac, &lib, &RegPolicy::Dedicated);
        let merged = hsyn_rtl::embed(&h, &child_acc, &child_mac, &lib, "acc_mac")
            .expect("distinct behaviors embed")
            .module;
        assert_eq!(merged.behaviors().len(), 2);
        let m = one_instance(&h, top_id, merged, vec![c1, c2], &RegPolicy::Dedicated);
        assert_matches_reference(&h, &m, "embedded instance");
        assert_streams_match_kernel(&h, &m, "embedded instance");
    }

    #[test]
    fn a_shared_stateful_instance_falls_back_to_the_kernel() {
        // The streams give each call its own accumulator; the binding
        // interleaves both on one, so the cached estimate runs the kernel
        // (and counts it) and still equals the uncached one.
        let (h, m) = shared_stateful_fixture();
        let cache = price_twice(&h, &m, "shared stateful instance");
        assert_eq!((cache.stream.misses, cache.stream.hits), (1, 1));
        assert_eq!(cache.kernel_iterations, 3 * SAMPLES as u64);
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
            assert!(cache.entries.len() <= SimCache::STREAM_CAP);
        }
        assert_eq!(cache.entries.len(), SimCache::STREAM_CAP);
        let misses = SimCache::STREAM_CAP as u64 + 1;
        assert_eq!((cache.stream.hits, cache.stream.misses), (0, misses));
        price(&designs[SimCache::STREAM_CAP], &mut cache);
        assert_eq!((cache.stream.hits, cache.stream.misses), (1, misses));
        price(&designs[0], &mut cache);
        assert_eq!((cache.stream.hits, cache.stream.misses), (1, misses + 1));
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
