//! RTL circuit representation for the H-SYN reproduction: functional-unit /
//! register / submodule instances, bindings, behaviors, derived
//! interconnect, area models, FSM controllers — and **RTL embedding**, the
//! paper's technique for letting multiple anisomorphic DFGs execute on one
//! RTL module (Example 3).
//!
//! The central workflow:
//!
//! 1. describe a module as a [`ModuleSpec`] (which ops share which FU of
//!    which type; which hierarchical nodes share which submodule);
//! 2. [`build`] it — orderings are derived, the module is scheduled,
//!    registers are bound, validity is checked, a [`Profile`] is computed;
//! 3. cost it with [`module_area`], merge it with [`embed`], inspect it
//!    with [`generate_fsm`] / [`netlist_text`].
//!
//! [`Profile`]: hsyn_sched::Profile

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
mod assignment;
mod connect;
mod cosim;
mod cost;
mod embed;
mod fingerprint;
mod fsm;
mod instance;
mod library;
mod module;
mod netlist;
pub mod papers;
mod sizing;
mod spec;
mod table;
mod verilog;

pub use affinity::{module_affinity, AffinityMatrix};
pub use assignment::{assignment_gain, max_weight_assignment};
pub use connect::{connectivity, view_mismatch, Connectivity, DatapathView, Sink, Source};
pub use cosim::{cosimulate, CosimDivergence, CosimDivergenceKind, CosimRun, CosimStats};
pub use cost::{module_area, module_area_sized, AreaBreakdown};
pub use embed::{embed, EmbedError, EmbedMaps, EmbedResult};
pub use fingerprint::{
    fingerprint_at, fingerprint_tree, module_fingerprint, refresh_fingerprint_tree, FpTree,
};
pub use fsm::{control_bit_count, control_bits, generate_fsm, ControlWord, Fsm, FsmProgram};
pub use instance::{FuInstId, FuInstance, RegId, RegInstance, SubId};
pub use library::{ComplexModule, ModuleLibrary};
pub use module::{Behavior, Binding, RtlModule};
pub use netlist::netlist_text;
pub use sizing::{derive_widths, fu_scale, ModuleWidths};
pub use spec::{
    build, build_ref, same_build, storage_analysis, window_of, BuildCtx, BuildError, FuGroup,
    ModuleSpec, RegPolicy, SpecRef, StorageAnalysis, SubSpec,
};
pub use table::{NodeTable, SlotId, VarTable};
pub use verilog::verilog_text;

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::{Dfg, Hierarchy, Operation};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
    use hsyn_lib::Library;

    /// y = (a*b) + (c*d): 2 mults, 1 add.
    fn sop(h: &mut Hierarchy) -> hsyn_dfg::DfgId {
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
        id
    }

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
    fn dedicated_build_schedules_and_binds() {
        let mut h = Hierarchy::new();
        let dfg = sop(&mut h);
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, dfg, &lib), &ctx).unwrap();
        assert_eq!(m.fus().len(), 3);
        assert_eq!(m.behaviors().len(), 1);
        let b = &m.behaviors()[0];
        // mult1 is 3 cycles; the add chains right after at cycle 3.
        assert_eq!(b.profile.outputs, vec![4]);
        // All ops bound, registers exist for the mult outputs and inputs.
        assert_eq!(b.binding.op_to_fu.len(), 3);
        assert!(m.regs().len() >= 4);
    }

    #[test]
    fn shared_multiplier_serializes_and_lengthens_schedule() {
        let mut h = Hierarchy::new();
        let dfg = sop(&mut h);
        let lib = table1_library();
        let mult1 = lib.fu_by_name("mult1").unwrap();
        let add1 = lib.fu_by_name("add1").unwrap();
        let g = h.dfg(dfg);
        let mults: Vec<_> = g
            .nodes()
            .filter(|(_, n)| matches!(n.kind(), hsyn_dfg::NodeKind::Op(Operation::Mult)))
            .map(|(id, _)| id)
            .collect();
        let adds: Vec<_> = g
            .nodes()
            .filter(|(_, n)| matches!(n.kind(), hsyn_dfg::NodeKind::Op(Operation::Add)))
            .map(|(id, _)| id)
            .collect();
        let spec = ModuleSpec {
            name: "shared".into(),
            dfg,
            fu_groups: vec![
                FuGroup {
                    fu_type: mult1,
                    ops: mults.clone(),
                },
                FuGroup {
                    fu_type: add1,
                    ops: adds,
                },
            ],
            subs: vec![],
            reg_policy: RegPolicy::Dedicated,
        };
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let shared = build(&h, &spec, &ctx).unwrap();
        let dedicated = build(&h, &dedicated(&h, dfg, &lib), &ctx).unwrap();
        assert_eq!(shared.fus().len(), 2);
        // Serialized mults: 3 + 3 cycles, then the add ⇒ latency 7 vs 4.
        assert!(
            shared.behaviors()[0].profile.latency() > dedicated.behaviors()[0].profile.latency()
        );
        // Sharing trades FU area for mux area.
        let a_shared = module_area(&h, &shared, &lib);
        let a_dedicated = module_area(&h, &dedicated, &lib);
        assert!(a_shared.fu < a_dedicated.fu);
        assert!(a_shared.mux > a_dedicated.mux);
    }

    #[test]
    fn sharing_violating_deadline_is_rejected() {
        let mut h = Hierarchy::new();
        let dfg = sop(&mut h);
        let lib = table1_library();
        let mult1 = lib.fu_by_name("mult1").unwrap();
        let add1 = lib.fu_by_name("add1").unwrap();
        let g = h.dfg(dfg);
        let mults: Vec<_> = g
            .nodes()
            .filter(|(_, n)| matches!(n.kind(), hsyn_dfg::NodeKind::Op(Operation::Mult)))
            .map(|(id, _)| id)
            .collect();
        let adds: Vec<_> = g
            .nodes()
            .filter(|(_, n)| matches!(n.kind(), hsyn_dfg::NodeKind::Op(Operation::Add)))
            .map(|(id, _)| id)
            .collect();
        let spec = ModuleSpec {
            name: "shared".into(),
            dfg,
            fu_groups: vec![
                FuGroup {
                    fu_type: mult1,
                    ops: mults,
                },
                FuGroup {
                    fu_type: add1,
                    ops: adds,
                },
            ],
            subs: vec![],
            reg_policy: RegPolicy::Dedicated,
        };
        // Deadline 4 admits the parallel form but not the serialized one.
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(4));
        assert!(matches!(
            build(&h, &spec, &ctx).unwrap_err(),
            BuildError::Sched(_)
        ));
    }

    #[test]
    fn unsupported_op_and_bad_cover_rejected() {
        let mut h = Hierarchy::new();
        let dfg = sop(&mut h);
        let lib = table1_library();
        let add1 = lib.fu_by_name("add1").unwrap();
        // All ops (incl. mults) on an adder: unsupported.
        let g = h.dfg(dfg);
        let all_ops: Vec<_> = g
            .nodes()
            .filter(|(_, n)| n.kind().is_schedulable())
            .map(|(id, _)| id)
            .collect();
        let spec = ModuleSpec {
            name: "bad".into(),
            dfg,
            fu_groups: vec![FuGroup {
                fu_type: add1,
                ops: all_ops.clone(),
            }],
            subs: vec![],
            reg_policy: RegPolicy::Dedicated,
        };
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        assert!(matches!(
            build(&h, &spec, &ctx).unwrap_err(),
            BuildError::UnsupportedOp { .. }
        ));
        // Empty cover.
        let spec2 = ModuleSpec {
            name: "bad2".into(),
            dfg,
            fu_groups: vec![],
            subs: vec![],
            reg_policy: RegPolicy::Dedicated,
        };
        assert!(matches!(
            build(&h, &spec2, &ctx).unwrap_err(),
            BuildError::BadCover { .. }
        ));
    }

    #[test]
    fn register_sharing_with_disjoint_lifetimes() {
        // Serial mults: m1's result is consumed before m2's exists, so their
        // outputs can share a register.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("chain");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[m1, b]);
        let m3 = g.add_op(Operation::Mult, "m3", &[m2, a]);
        g.add_output("y", m3);
        let dfg = h.add_dfg(g);
        h.set_top(dfg);
        h.validate().unwrap();
        let lib = table1_library();
        let mut spec = dedicated(&h, dfg, &lib);
        spec.reg_policy = RegPolicy::Groups(vec![vec![m1, m2]]);
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let shared = build(&h, &spec, &ctx).unwrap();
        let mut spec2 = dedicated(&h, dfg, &lib);
        spec2.reg_policy = RegPolicy::Dedicated;
        let ded = build(&h, &spec2, &ctx).unwrap();
        assert_eq!(shared.regs().len() + 1, ded.regs().len());
    }

    #[test]
    fn register_sharing_with_overlap_rejected() {
        // Parallel mults both alive at the add: cannot share.
        let mut h = Hierarchy::new();
        let dfg = sop(&mut h);
        let lib = table1_library();
        let g = h.dfg(dfg);
        let m1 = g.nodes().find(|(_, n)| n.name() == "m1").unwrap().0;
        let m2 = g.nodes().find(|(_, n)| n.name() == "m2").unwrap().0;
        let mut spec = dedicated(&h, dfg, &lib);
        spec.reg_policy = RegPolicy::Groups(vec![vec![
            hsyn_dfg::VarRef::new(m1, 0),
            hsyn_dfg::VarRef::new(m2, 0),
        ]]);
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        assert!(matches!(
            build(&h, &spec, &ctx).unwrap_err(),
            BuildError::RegisterConflict { .. }
        ));
    }

    #[test]
    fn fsm_covers_all_cycles_and_loads() {
        let mut h = Hierarchy::new();
        let dfg = sop(&mut h);
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, dfg, &lib), &ctx).unwrap();
        let fsm = generate_fsm(&h, &m);
        assert_eq!(fsm.programs.len(), 1);
        let words = &fsm.programs[0].words;
        assert_eq!(words.len() as u32, m.behaviors()[0].schedule.makespan() + 1);
        // The multipliers are active in cycles 0..3.
        assert!(words[0].fu_ops.iter().filter(|o| o.is_some()).count() >= 2);
        // Some register loads happen.
        assert!(words.iter().any(|w| w.reg_loads.iter().any(|&l| l)));
        // Pretty printer emits one line per state plus a header.
        let text = fsm.to_string();
        assert!(text.contains("s0:"));
    }

    #[test]
    fn profiled_submodule_composes() {
        // top: H(a, b) + c where H = sop-like multiplier module.
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
        assert_eq!(child.profile_for(sub_id).unwrap().outputs, vec![3]);
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
        // Child latency 3, then the add: output at cycle 4.
        assert_eq!(parent.profile_for(top_id).unwrap().outputs, vec![4]);
        let area = module_area(&h, &parent, &lib);
        assert!(area.subs > 0.0);
        let text = netlist_text(&h, &parent, &lib);
        assert!(text.contains("module top_impl"));
        assert!(text.contains("module H_impl"));
    }

    // --- RTL embedding (Example 3) ------------------------------------------

    #[test]
    fn embedding_reproduces_example3_area_relation() {
        let (h, rtl1, rtl2, lib) = papers::figure3_modules();
        let merged = embed(&h, &rtl1, &rtl2, &lib, "NewRTL").unwrap();
        let a1 = module_area(&h, &rtl1, &lib).total();
        let a2 = module_area(&h, &rtl2, &lib).total();
        let an = module_area(&h, &merged.module, &lib).total();
        // Example 3: RTL1 = 57.94, RTL2 = 53.89, NewRTL = 61.67 — the merged
        // module is barely larger than the bigger input and far smaller than
        // the sum.
        assert!(an >= a1.max(a2) * 0.99, "merged {an} vs inputs {a1}/{a2}");
        assert!(
            an < 0.75 * (a1 + a2),
            "merged {an} not much smaller than sum {}",
            a1 + a2
        );
        // Both behaviors preserved with unaltered schedules.
        assert_eq!(merged.module.behaviors().len(), 2);
        let b1 = merged.module.behaviors()[0].clone();
        assert_eq!(
            b1.schedule.makespan(),
            rtl1.behaviors()[0].schedule.makespan()
        );
    }

    #[test]
    fn embedding_shares_compatible_units() {
        let (h, rtl1, rtl2, lib) = papers::figure3_modules();
        let merged = embed(&h, &rtl1, &rtl2, &lib, "NewRTL").unwrap();
        // Table 2: A1, A2, M1, M2 shared; S1 only in RTL1 ⇒ merged has
        // 2 adders + 2 multipliers + 1 subtractor = 5 FUs.
        assert_eq!(merged.module.fus().len(), 5);
        // Registers merge to max(|a|, |b|).
        assert_eq!(
            merged.module.regs().len(),
            rtl1.regs().len().max(rtl2.regs().len())
        );
        // The mapping is injective per side.
        let mut seen = std::collections::HashSet::new();
        for f in &merged.maps.fu_a {
            assert!(seen.insert(*f));
        }
        let mut seen_b = std::collections::HashSet::new();
        for f in &merged.maps.fu_b {
            assert!(seen_b.insert(*f));
        }
    }

    #[test]
    fn embedding_rejects_duplicate_behaviors() {
        let (h, rtl1, _, lib) = papers::figure3_modules();
        assert_eq!(
            embed(&h, &rtl1, &rtl1, &lib, "dup").unwrap_err(),
            EmbedError::DuplicateBehavior
        );
    }

    // --- test1 complex library (Figure 2) -------------------------------------

    #[test]
    fn test1_library_profiles_match_figure2_story() {
        let (bench, mlib) = papers::test1_complex_library();
        let h = &bench.hierarchy;
        let c4 = &mlib.complex[3].module;
        let wsum = h.dfg_by_name("wsum").unwrap();
        // Example 1: Profile(RTL3, DFG3) = {0, 0, 2, 4, 7}.
        let p = c4.profile_for(wsum).unwrap();
        assert_eq!(p.inputs, vec![0, 0, 2, 4]);
        assert_eq!(p.outputs, vec![7]);
        // C5: a chain of three add1 units completes in one cycle.
        let c5 = &mlib.complex[4].module;
        let s4c = h.dfg_by_name("sum4_chain").unwrap();
        assert_eq!(c5.profile_for(s4c).unwrap().outputs, vec![1]);
        // C2 (mult2-based) is slower but lower-energy than C1 (mult1-based).
        let c1 = &mlib.complex[0].module;
        let c2 = &mlib.complex[1].module;
        let dot_t = h.dfg_by_name("dot3_tree").unwrap();
        let dot_c = h.dfg_by_name("dot3_chain").unwrap();
        assert!(
            c2.profile_for(dot_c).unwrap().latency() > c1.profile_for(dot_t).unwrap().latency()
        );
    }

    #[test]
    fn complex_candidates_follow_equivalence() {
        let (bench, mlib) = papers::test1_complex_library();
        let h = &bench.hierarchy;
        let dot_t = h.dfg_by_name("dot3_tree").unwrap();
        let cands = mlib.candidates_for(dot_t, TABLE1_CLOCK_NS);
        // C1 implements dot3_tree directly; C2 via the equivalent chain DFG.
        assert!(cands.iter().any(|&(i, d)| i == 0 && d == dot_t));
        let dot_c = h.dfg_by_name("dot3_chain").unwrap();
        assert!(cands.iter().any(|&(i, d)| i == 1 && d == dot_c));
        // prodsum has exactly one implementation.
        let ps = h.dfg_by_name("prodsum").unwrap();
        assert_eq!(mlib.candidates_for(ps, TABLE1_CLOCK_NS).len(), 1);
        // At a faster clock the hard macros are unusable.
        assert!(mlib.candidates_for(ps, TABLE1_CLOCK_NS / 2.0).is_empty());
    }

    #[test]
    fn storage_analysis_classifies_chaining() {
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("c");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s1 = g.add_op(Operation::Add, "s1", &[a, b]);
        let s2 = g.add_op(Operation::Add, "s2", &[s1, b]);
        g.add_output("y", s2);
        let dfg = h.add_dfg(g);
        h.set_top(dfg);
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, dfg, &lib), &ctx).unwrap();
        let b0 = &m.behaviors()[0];
        let st = storage_analysis(h.dfg(dfg), &b0.schedule);
        // add1 chains: the s1→s2 edge is combinational, so s1's output is
        // never registered.
        let g = h.dfg(dfg);
        let s1n = g.nodes().find(|(_, n)| n.name() == "s1").unwrap().0;
        assert!(st.chained_edges.iter().any(|&c| c));
        assert!(!st.stored_vars.contains(&hsyn_dfg::VarRef::new(s1n, 0)));
    }
}
