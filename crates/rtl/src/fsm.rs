//! FSM controller generation: per behavior, the cycle-by-cycle control
//! words (which unit computes what, which registers load, which submodules
//! start). The paper's `H-SYN` emits "a finite-state machine description of
//! the controller" alongside the datapath netlist; this module is that
//! description, and its bit counts feed the controller area/energy models.

use crate::connect::{bits_for, Connectivity};
use crate::module::RtlModule;
use crate::spec::storage_analysis;
use hsyn_dfg::{DfgId, Hierarchy, NodeKind, Operation};
use std::fmt;

/// Control signals asserted in one state (cycle) of one behavior.
#[derive(Clone, Debug, Default)]
pub struct ControlWord {
    /// Per functional unit: the operation it performs this cycle, if any.
    pub fu_ops: Vec<Option<Operation>>,
    /// Per register: whether it loads at the end of this cycle.
    pub reg_loads: Vec<bool>,
    /// Per submodule: whether it is started this cycle.
    pub sub_starts: Vec<bool>,
    /// Per memory of the behavior's DFG: `(loads, stores)` issued this
    /// cycle (multi-ported and banked memories accept several at once).
    pub mem_issues: Vec<(u16, u16)>,
}

/// The control program for one behavior: one word per cycle.
#[derive(Clone, Debug)]
pub struct FsmProgram {
    /// The behavior's DFG.
    pub dfg: DfgId,
    /// One control word per cycle, cycle 0 first.
    pub words: Vec<ControlWord>,
}

/// The module's finite-state machine: a program per behavior plus an
/// implicit idle state.
#[derive(Clone, Debug)]
pub struct Fsm {
    /// One program per behavior, in behavior order.
    pub programs: Vec<FsmProgram>,
}

impl Fsm {
    /// Total number of states (cycles across programs + 1 idle state).
    pub fn state_count(&self) -> usize {
        1 + self.programs.iter().map(|p| p.words.len()).sum::<usize>()
    }
}

impl fmt::Display for Fsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.programs {
            writeln!(f, "behavior {}:", p.dfg)?;
            for (c, w) in p.words.iter().enumerate() {
                write!(f, "  s{c}:")?;
                for (i, op) in w.fu_ops.iter().enumerate() {
                    if let Some(op) = op {
                        write!(f, " F{i}={op}")?;
                    }
                }
                let loads: Vec<String> = w
                    .reg_loads
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l)
                    .map(|(i, _)| format!("R{i}"))
                    .collect();
                if !loads.is_empty() {
                    write!(f, " load[{}]", loads.join(","))?;
                }
                for (i, &s) in w.sub_starts.iter().enumerate() {
                    if s {
                        write!(f, " start(M{i})")?;
                    }
                }
                for (i, &(r, wr)) in w.mem_issues.iter().enumerate() {
                    if r + wr > 0 {
                        write!(f, " mem{i}(r{r},w{wr})")?;
                    }
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Generate the FSM of `module`.
pub fn generate_fsm(h: &Hierarchy, module: &RtlModule) -> Fsm {
    let mut programs = Vec::new();
    for b in module.behaviors() {
        let g = h.dfg(b.dfg);
        let st = storage_analysis(g, &b.schedule);
        let n_cycles = b.schedule.makespan() as usize + 1;
        let mut words = vec![
            ControlWord {
                fu_ops: vec![None; module.fus().len()],
                reg_loads: vec![false; module.regs().len()],
                sub_starts: vec![false; module.subs().len()],
                mem_issues: vec![(0, 0); g.mem_count()],
            };
            n_cycles
        ];
        for (nid, node) in g.nodes() {
            match node.kind() {
                NodeKind::Op(op) => {
                    let fu = b.binding.op_to_fu[&nid];
                    let t = b.schedule.time(nid);
                    for c in t.occupied.0..t.occupied.1 {
                        if let Some(w) = words.get_mut(c as usize) {
                            w.fu_ops[fu.index()] = Some(*op);
                        }
                    }
                }
                NodeKind::Hier { .. } => {
                    let sub = b.binding.hier_to_sub[&nid];
                    let start = b.schedule.time(nid).start.cycle;
                    if let Some(w) = words.get_mut(start as usize) {
                        w.sub_starts[sub.index()] = true;
                    }
                }
                NodeKind::Load { mem } => {
                    let start = b.schedule.time(nid).occupied.0;
                    if let Some(w) = words.get_mut(start as usize) {
                        w.mem_issues[mem.index()].0 += 1;
                    }
                }
                NodeKind::Store { mem } => {
                    let start = b.schedule.time(nid).occupied.0;
                    if let Some(w) = words.get_mut(start as usize) {
                        w.mem_issues[mem.index()].1 += 1;
                    }
                }
                _ => {}
            }
        }
        for (v, &(birth, _, _)) in st.stored_vars.iter().zip(&st.lifetimes) {
            if let Some(reg) = b.binding.var_to_reg.get(*v) {
                // The write occurs at the end of cycle birth−1 (external
                // loads — inputs arriving at cycle 0 — map to state 0).
                let c = birth.saturating_sub(1) as usize;
                if let Some(w) = words.get_mut(c) {
                    w.reg_loads[reg.index()] = true;
                }
            }
        }
        programs.push(FsmProgram { dfg: b.dfg, words });
    }
    Fsm { programs }
}

/// Number of control output bits the controller drives: per-FU enables and
/// op selects, per-register load enables, mux select lines, submodule
/// start strobes and memory port controls. The pricing walks read the same
/// number through [`control_bits`]; this from-scratch derivation (one scan
/// of the binding per FU) is the reference it is checked against.
pub fn control_bit_count(h: &Hierarchy, module: &RtlModule, conn: &Connectivity) -> usize {
    let mut bits = 0usize;
    // FU enables + operation select (distinct ops over all behaviors).
    for i in 0..module.fus().len() {
        let mut ops = std::collections::BTreeSet::new();
        for b in module.behaviors() {
            let g = h.dfg(b.dfg);
            for (node, fu_id) in b.binding.op_to_fu.iter() {
                if fu_id.index() == i {
                    if let NodeKind::Op(op) = g.node(node).kind() {
                        ops.insert(*op);
                    }
                }
            }
        }
        bits += 1 + bits_for(ops.len());
    }
    // Register load enables.
    bits += module.regs().len();
    // Submodule start strobes.
    bits += module.subs().len();
    bits += mem_port_bits(h, module);
    // Mux selects.
    bits += conn.select_bits();
    bits
}

/// [`control_bit_count`] from the module's stored
/// [`DatapathView`](crate::DatapathView): the binding's share is read, not
/// rescanned; register, submodule and memory terms are counted here.
pub fn control_bits(h: &Hierarchy, module: &RtlModule) -> usize {
    module.view().binding_control_bits()
        + module.regs().len()
        + module.subs().len()
        + mem_port_bits(h, module)
}

/// Memory port control: an enable and a write strobe per bank port, for
/// every memory a behavior touches (owned banks or a shared interface).
/// Read from the DFGs, so it always reflects the current bank counts.
///
/// # Panics
///
/// Panics if the count overflows `usize`. Parsed DFGs cannot reach that:
/// the parser bounds banks by the word count and ports by
/// [`MAX_MEM_PORTS`](hsyn_dfg::text::MAX_MEM_PORTS).
fn mem_port_bits(h: &Hierarchy, module: &RtlModule) -> usize {
    module
        .behaviors()
        .iter()
        .flat_map(|b| h.dfg(b.dfg).mems())
        .try_fold(0usize, |bits, (_, m)| {
            let banks = usize::try_from(m.banks.max(1)).ok()?;
            let ports = usize::try_from(m.ports.max(1)).ok()?;
            bits.checked_add(banks.checked_mul(ports)?.checked_mul(2)?)
        })
        .expect("memory port control bits overflow usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::connectivity;
    use crate::spec::{build, BuildCtx, FuGroup, ModuleSpec, RegPolicy, SubSpec};
    use hsyn_dfg::{Dfg, Hierarchy, Operation};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
    use hsyn_lib::Library;

    fn dedicated(h: &Hierarchy, dfg: hsyn_dfg::DfgId, lib: &Library) -> ModuleSpec {
        ModuleSpec::dedicated(
            h,
            dfg,
            "m",
            |_, op| lib.fastest_for(op).unwrap(),
            |_, _| unreachable!(),
        )
    }

    #[test]
    fn chain_fsm_has_one_word_per_cycle() {
        // a+b feeding a multiply feeding a subtract: three FUs, serial
        // dependency chain across several cycles.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("chain");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let s = g.add_op(Operation::Add, "s", &[a, b]);
        let m = g.add_op(Operation::Mult, "m", &[s, c]);
        let d = g.add_op(Operation::Sub, "d", &[m, a]);
        g.add_output("y", d);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();

        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(16));
        let module = build(&h, &dedicated(&h, id, &lib), &ctx).unwrap();
        let fsm = generate_fsm(&h, &module);

        assert_eq!(fsm.programs.len(), 1);
        let prog = &fsm.programs[0];
        let bhv = &module.behaviors()[0];
        assert_eq!(prog.dfg, bhv.dfg);
        assert_eq!(prog.words.len(), bhv.schedule.makespan() as usize + 1);
        assert_eq!(fsm.state_count(), prog.words.len() + 1);

        // Every op asserts its own operation on its own FU over exactly its
        // occupied window, nothing else (dedicated binding, no sharing).
        for (node, fu) in bhv.binding.op_to_fu.iter() {
            let op = match h.dfg(bhv.dfg).node(node).kind() {
                NodeKind::Op(op) => *op,
                _ => unreachable!("only ops are bound to FUs"),
            };
            let t = bhv.schedule.time(node);
            for (cyc, w) in prog.words.iter().enumerate() {
                let active = (t.occupied.0..t.occupied.1).contains(&(cyc as u32));
                assert_eq!(
                    w.fu_ops[fu.index()],
                    active.then_some(op),
                    "F{} at state {cyc}",
                    fu.index()
                );
            }
        }
        // No submodules, so no start strobes anywhere.
        assert!(prog.words.iter().all(|w| w.sub_starts.is_empty()));
        // Primary inputs are latched at state 0 under the dedicated policy.
        assert!(prog.words[0].reg_loads.iter().any(|&l| l));
        // Every register loads at least once, in exactly one state per
        // stored variable group.
        for r in 0..module.regs().len() {
            assert!(
                prog.words.iter().any(|w| w.reg_loads[r]),
                "R{r} never loads"
            );
        }
    }

    #[test]
    fn shared_alu_serializes_and_counts_op_select_bits() {
        // Add and Sub time-share one `add1` ALU: the control word must
        // steer the unit's operation per cycle, costing one op-select bit.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("alu");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s1 = g.add_op(Operation::Add, "s1", &[a, b]);
        let s2 = g.add_op(Operation::Sub, "s2", &[s1, a]);
        g.add_output("y", s2);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();

        let lib = table1_library();
        let spec = ModuleSpec {
            name: "alu_impl".into(),
            dfg: id,
            fu_groups: vec![FuGroup {
                fu_type: lib.fu_by_name("add1").unwrap(),
                ops: vec![s1.node, s2.node],
            }],
            subs: vec![],
            reg_policy: RegPolicy::Dedicated,
        };
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(16));
        let module = build(&h, &spec, &ctx).unwrap();
        let fsm = generate_fsm(&h, &module);
        let prog = &fsm.programs[0];

        // One FU, two operations: each cycle asserts at most one, and both
        // appear across the program.
        assert_eq!(module.fus().len(), 1);
        let asserted: Vec<Operation> = prog.words.iter().filter_map(|w| w.fu_ops[0]).collect();
        assert!(asserted.contains(&Operation::Add));
        assert!(asserted.contains(&Operation::Sub));

        // Control bits: (1 enable + 1 op-select bit for the 2-op ALU) +
        // one load enable per register + mux select lines. No submodules.
        let conn = connectivity(&h, &module);
        assert_eq!(
            control_bit_count(&h, &module, &conn),
            2 + module.regs().len() + conn.select_bits()
        );
    }

    #[test]
    fn submodule_start_strobe_fires_at_call_start() {
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
        let child = build(&h, &dedicated(&h, sub_id, &lib), &ctx).unwrap();
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
        let fsm = generate_fsm(&h, &parent);
        let prog = &fsm.programs[0];
        let bhv = &parent.behaviors()[0];

        // The start strobe fires exactly once, at the call's start cycle.
        let start = bhv.schedule.time(call).start.cycle as usize;
        for (cyc, w) in prog.words.iter().enumerate() {
            assert_eq!(w.sub_starts, vec![cyc == start], "state {cyc}");
        }

        // Control bits: the lone single-op adder costs 1 enable (no select
        // bits), the submodule strobe 1, plus register load enables and mux
        // select lines.
        let conn = connectivity(&h, &parent);
        assert_eq!(parent.fus().len(), 1);
        assert_eq!(
            control_bit_count(&h, &parent, &conn),
            1 + parent.regs().len() + 1 + conn.select_bits()
        );
    }
}
