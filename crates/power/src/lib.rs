//! Trace-driven switched-capacitance power estimation for scheduled, bound
//! RTL designs — the H-SYN reproduction's substitute for the paper's
//! IRSIM switch-level flow (see DESIGN.md for the substitution argument).
//!
//! * [`traces`] generates typical input stimuli ([`dsp_default`]:
//!   correlated random walks — DSP inputs are time-correlated, which is
//!   what makes resource sharing between unrelated operations expensive in
//!   power);
//! * [`simulate`] runs the bound RTL bit-true on the traces, keeping the
//!   value streams of every behavior execution and the executions each
//!   module instance serves;
//! * [`estimate`] reads each instance's operand and register-write streams
//!   off those values through its binding and converts them into
//!   energy/power with the library's capacitance models and `(Vdd/Vref)²`
//!   scaling; [`estimate_cached`] prices from value streams kept across
//!   the designs of one hierarchy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod estimate;
mod report;
mod sim;
pub mod traces;

pub use estimate::{estimate, estimate_cached, estimate_sized, EnergyBreakdown, PowerReport};
pub use report::{per_module_energy, report_text, ModuleEnergy};
pub use sim::{simulate, SimCache, Simulation};
pub use traces::{dsp_default, TraceSet};

/// Truncate `value` to a `width`-bit two's-complement value (sign-extended
/// into `i64`) — the datapath quantization applied to constants and
/// arithmetic results.
pub(crate) fn truncate(value: i64, width: u32) -> i64 {
    let shift = 64 - width;
    (value << shift) >> shift
}

/// Hamming distance between two samples under a width mask: the bits that
/// toggle between them, which the estimator weights pair by pair.
#[inline]
pub(crate) fn hamming(a: i64, b: i64, mask: u64) -> u32 {
    (((a ^ b) as u64) & mask).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::{Dfg, Hierarchy, NodeId, Operation, VarRef};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
    use hsyn_lib::Library;
    use hsyn_rtl::{build, BuildCtx, FuGroup, ModuleSpec, RegPolicy, SubSpec};

    const W: u32 = 16;

    fn dedicated(h: &Hierarchy, dfg: hsyn_dfg::DfgId, lib: &Library, name: &str) -> ModuleSpec {
        ModuleSpec::dedicated(
            h,
            dfg,
            name,
            |_, op| lib.fastest_for(op).unwrap(),
            |_, _| unreachable!(),
        )
    }

    /// y = a*b + c*d
    fn sop() -> (Hierarchy, hsyn_dfg::DfgId, NodeId, NodeId) {
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
        (h, id, m1.node, m2.node)
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn simulation_matches_reference_semantics() {
        let (h, dfg, ..) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let m = build(&h, &dedicated(&h, dfg, &lib, "m"), &ctx).unwrap();
        let traces = dsp_default(4, 32, W, 1);
        let outs = simulate(&h, &m, &traces).outputs;
        for n in 0..32 {
            let a = traces.samples[0][n];
            let b = traces.samples[1][n];
            let c = traces.samples[2][n];
            let d = traces.samples[3][n];
            let expect = Operation::Add.eval(
                &[
                    Operation::Mult.eval(&[a, b], W),
                    Operation::Mult.eval(&[c, d], W),
                ],
                W,
            );
            assert_eq!(outs[0][n], expect, "iteration {n}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn hierarchical_simulation_matches_flattened_semantics() {
        // top = H(x, y) + x, where H(a, b) = a*b.
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
        let child = build(&h, &dedicated(&h, sub_id, &lib, "H_impl"), &ctx).unwrap();
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
        let traces = dsp_default(2, 24, W, 5);
        let sim = simulate(&h, &parent, &traces);
        for n in 0..24 {
            let x = traces.samples[0][n];
            let y = traces.samples[1][n];
            let expect = Operation::Add.eval(&[Operation::Mult.eval(&[x, y], W), x], W);
            assert_eq!(sim.outputs[0][n], expect);
        }
        // The submodule's multiplier saw one event per iteration.
        let child = &parent.subs()[0];
        let act = sim::StreamActivity::new(&h, child, &sim.served.subs[0].nodes, &sim.streams);
        let mut events = 0;
        act.each_fu_event(0, |_, _, _| events += 1);
        assert_eq!(events, 24);
    }

    #[test]
    fn feedback_state_is_simulated() {
        // acc[n] = x[n] + acc[n-1]
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("acc");
        let x = g.add_input("x");
        let n = g.add_op_detached(Operation::Add, "acc");
        g.connect(x, n, 0, 0);
        g.connect(VarRef::new(n, 0), n, 1, 1);
        g.add_output("y", VarRef::new(n, 0));
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(4));
        let m = build(&h, &dedicated(&h, id, &lib, "acc"), &ctx).unwrap();
        let traces = TraceSet {
            samples: vec![vec![1, 2, 3, 4, 5]],
            width: W,
        };
        let outs = simulate(&h, &m, &traces).outputs;
        assert_eq!(outs[0], vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn two_sample_delay_is_simulated() {
        // y[n] = x[n-2]
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("d2");
        let x = g.add_input("x");
        let idn = g.add_op(Operation::Add, "id", &[x, x]); // 2x as a stand-in op
        let _ = idn;
        let mut g2 = Dfg::new("d2");
        let x2 = g2.add_input("x");
        let zero = g2.add_const("zero", 0);
        let pass = g2.add_op(Operation::Add, "pass", &[x2, zero]);
        g2.add_output_delayed("y", pass, 2);
        let id = h.add_dfg(g2);
        h.set_top(id);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(4));
        let m = build(&h, &dedicated(&h, id, &lib, "d2"), &ctx).unwrap();
        let traces = TraceSet {
            samples: vec![vec![7, 8, 9, 10]],
            width: W,
        };
        let outs = simulate(&h, &m, &traces).outputs;
        assert_eq!(outs[0], vec![0, 0, 7, 8]);
    }

    #[test]
    fn sharing_uncorrelated_ops_raises_fu_activity() {
        // Two multiplies on independent random walks: shared multiplier sees
        // an interleaved (uncorrelated) stream with higher Hamming activity
        // than either dedicated stream — ref.&nbsp;9's resource-sharing effect.
        let (h, dfg, m1, m2) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let ded = build(&h, &dedicated(&h, dfg, &lib, "ded"), &ctx).unwrap();
        let mult1 = lib.fu_by_name("mult1").unwrap();
        let add1 = lib.fu_by_name("add1").unwrap();
        let g = h.dfg(dfg);
        let adds: Vec<NodeId> = g
            .nodes()
            .filter(|(_, n)| matches!(n.kind(), hsyn_dfg::NodeKind::Op(Operation::Add)))
            .map(|(id, _)| id)
            .collect();
        let shared_spec = ModuleSpec {
            name: "shared".into(),
            dfg,
            fu_groups: vec![
                FuGroup {
                    fu_type: mult1,
                    ops: vec![m1, m2],
                },
                FuGroup {
                    fu_type: add1,
                    ops: adds,
                },
            ],
            subs: vec![],
            reg_policy: RegPolicy::Dedicated,
        };
        let shared = build(&h, &shared_spec, &ctx).unwrap();
        let traces = dsp_default(4, 256, W, 11);
        let p_ded = estimate(&h, &ded, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let p_shared = estimate(&h, &shared, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        assert!(
            p_shared.energy_breakdown.fu > p_ded.energy_breakdown.fu * 1.05,
            "shared FU energy {} should exceed dedicated {}",
            p_shared.energy_breakdown.fu,
            p_ded.energy_breakdown.fu
        );
    }

    #[test]
    fn voltage_scaling_reduces_power_quadratically() {
        let (h, dfg, ..) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let m = build(&h, &dedicated(&h, dfg, &lib, "m"), &ctx).unwrap();
        let traces = dsp_default(4, 64, W, 3);
        let p5 = estimate(&h, &m, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let p33 = estimate(&h, &m, &lib, &traces, 3.3, TABLE1_CLOCK_NS, 20);
        let ratio = p33.energy_per_iteration / p5.energy_per_iteration;
        assert!((ratio - (3.3f64 / 5.0).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn mult2_module_consumes_less_fu_energy_than_mult1() {
        // "to perform the same sequence of operations, mult2 consumes much
        // less power than mult1."
        let (h, dfg, ..) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let fast = build(
            &h,
            &ModuleSpec::dedicated(
                &h,
                dfg,
                "fast",
                |_, op| match op {
                    Operation::Mult => lib.fu_by_name("mult1").unwrap(),
                    _ => lib.fu_by_name("add1").unwrap(),
                },
                |_, _| unreachable!(),
            ),
            &ctx,
        )
        .unwrap();
        let slow = build(
            &h,
            &ModuleSpec::dedicated(
                &h,
                dfg,
                "slow",
                |_, op| match op {
                    Operation::Mult => lib.fu_by_name("mult2").unwrap(),
                    _ => lib.fu_by_name("add1").unwrap(),
                },
                |_, _| unreachable!(),
            ),
            &ctx,
        )
        .unwrap();
        let traces = dsp_default(4, 128, W, 9);
        let pf = estimate(&h, &fast, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let ps = estimate(&h, &slow, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        assert!(ps.energy_breakdown.fu < pf.energy_breakdown.fu / 2.0);
        assert!(ps.power < pf.power);
    }

    #[test]
    fn longer_sampling_period_lowers_power() {
        let (h, dfg, ..) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(40));
        let m = build(&h, &dedicated(&h, dfg, &lib, "m"), &ctx).unwrap();
        let traces = dsp_default(4, 64, W, 3);
        let p20 = estimate(&h, &m, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let p40 = estimate(&h, &m, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 40);
        // Data-dependent energy is period-independent; only the standing
        // clock-network cost grows with the period.
        let data20 = p20.energy_per_iteration - p20.energy_breakdown.clock;
        let data40 = p40.energy_per_iteration - p40.energy_breakdown.clock;
        assert!((data20 - data40).abs() < 1e-12);
        assert!(p40.energy_breakdown.clock > p20.energy_breakdown.clock);
        // Stretching the deadline still lowers average power.
        assert!(p40.power < p20.power);
    }

    #[test]
    fn glitch_depth_penalizes_chained_designs() {
        // y = ((a+b)+c)+d with 3 ns adders chains fully in one cycle;
        // breaking the chain (15 ns adders, registered between) removes the
        // glitch multiplier. Compare per-op FU energy for the same adder
        // energy rating.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("chain4");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let s1 = g.add_op(Operation::Add, "s1", &[a, b]);
        let s2 = g.add_op(Operation::Add, "s2", &[s1, c]);
        let s3 = g.add_op(Operation::Add, "s3", &[s2, d]);
        g.add_output("y", s3);
        let dfg = h.add_dfg(g);
        h.set_top(dfg);
        h.validate().unwrap();

        let mut chained_lib = hsyn_lib::Library::empty();
        chained_lib.add_fu(hsyn_lib::FuType::new(
            "addc",
            [Operation::Add],
            10.0,
            2.0,
            2.0,
        ));
        let mut reg_lib = hsyn_lib::Library::empty();
        reg_lib.add_fu(hsyn_lib::FuType::new(
            "addr",
            [Operation::Add],
            10.0,
            8.0,
            2.0,
        ));

        let traces = dsp_default(4, 64, W, 5);
        let run = |lib: &hsyn_lib::Library| {
            let ctx = BuildCtx::new(lib, TABLE1_CLOCK_NS, 5.0, Some(12));
            let spec = ModuleSpec::dedicated(
                &h,
                dfg,
                "m",
                |_, op| lib.fastest_for(op).unwrap(),
                |_, _| unreachable!(),
            );
            let m = build(&h, &spec, &ctx).unwrap();
            estimate(&h, &m, lib, &traces, 5.0, TABLE1_CLOCK_NS, 12)
        };
        let chained = run(&chained_lib);
        let registered = run(&reg_lib);
        assert!(
            chained.energy_breakdown.fu > registered.energy_breakdown.fu * 1.2,
            "glitch depth should penalize the fully chained form: {} vs {}",
            chained.energy_breakdown.fu,
            registered.energy_breakdown.fu
        );
    }

    #[test]
    fn clock_energy_scales_with_register_count() {
        let (h, dfg, ..) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let mut spec = dedicated(&h, dfg, &lib, "m");
        let ded = build(&h, &spec, &ctx).unwrap();
        spec.reg_policy = hsyn_rtl::RegPolicy::Packed;
        let packed = build(&h, &spec, &ctx).unwrap();
        assert!(packed.regs().len() < ded.regs().len());
        let traces = dsp_default(4, 32, W, 3);
        let p_ded = estimate(&h, &ded, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let p_packed = estimate(&h, &packed, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        assert!(p_packed.energy_breakdown.clock < p_ded.energy_breakdown.clock);
        let ratio = p_ded.energy_breakdown.clock / ded.regs().len() as f64;
        let ratio2 = p_packed.energy_breakdown.clock / packed.regs().len() as f64;
        assert!(
            (ratio - ratio2).abs() < 1e-9,
            "clock energy is linear in registers"
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let (h, dfg, ..) = sop();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(20));
        let m = build(&h, &dedicated(&h, dfg, &lib, "m"), &ctx).unwrap();
        let traces = dsp_default(4, 64, W, 3);
        let p1 = estimate(&h, &m, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let p2 = estimate(&h, &m, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        assert_eq!(p1, p2);
    }

    /// top = H(x, y) + H(y, x), with two instances of the same child
    /// module: one fingerprint serving two call-tree nodes.
    fn two_child_fixture() -> (Hierarchy, hsyn_rtl::RtlModule, Library) {
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
        let c1 = top.add_hier(sub_id, "H1", &[x, y]);
        let c2 = top.add_hier(sub_id, "H2", &[y, x]);
        let s = top.add_op(
            Operation::Add,
            "s",
            &[top.hier_out(c1, 0), top.hier_out(c2, 0)],
        );
        top.add_output("z", s);
        let top_id = h.add_dfg(top);
        h.set_top(top_id);
        h.validate().unwrap();

        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let child = build(&h, &dedicated(&h, sub_id, &lib, "H_impl"), &ctx).unwrap();
        let spec = ModuleSpec {
            name: "top_impl".into(),
            dfg: top_id,
            fu_groups: vec![FuGroup {
                fu_type: lib.fu_by_name("add1").unwrap(),
                ops: vec![s.node],
            }],
            subs: vec![
                SubSpec {
                    module: child.clone(),
                    nodes: vec![c1],
                },
                SubSpec {
                    module: child,
                    nodes: vec![c2],
                },
            ],
            reg_policy: RegPolicy::Dedicated,
        };
        let parent = build(&h, &spec, &ctx).unwrap();
        (h, parent, lib)
    }

    #[test]
    fn cached_estimate_is_bit_exact_with_full() {
        let (h, parent, lib) = two_child_fixture();
        let fp = hsyn_rtl::fingerprint_tree(&h, &parent);
        let traces = dsp_default(2, 24, W, 5);
        let full = estimate(&h, &parent, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let mut cache = SimCache::new();
        // Cold: one kernel run fills the streams; warm: none runs, and the
        // children's energies come from the memo. Floats stay
        // bit-identical.
        for (round, iterations) in [("cold", 24), ("warm", 24)] {
            let cached = estimate_cached(
                &h,
                &parent,
                &lib,
                &traces,
                5.0,
                TABLE1_CLOCK_NS,
                20,
                &fp,
                &mut cache,
            );
            assert_eq!(full, cached, "{round}");
            assert_eq!(cache.kernel_iterations, iterations, "{round}");
        }
        assert_eq!((cache.stream.misses, cache.stream.hits), (1, 1));
        let energy = cache.energy();
        assert_eq!(
            (energy.hits, energy.misses),
            (2, 2),
            "warm: both children recalled"
        );
    }

    #[test]
    fn sized_estimate_with_uniform_widths_is_bit_exact() {
        let (h, parent, lib) = two_child_fixture();
        let traces = dsp_default(2, 24, W, 5);
        let base = estimate(&h, &parent, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let widths = hsyn_rtl::ModuleWidths::uniform(&parent, W);
        let sized = estimate_sized(
            &h,
            &parent,
            &lib,
            &traces,
            5.0,
            TABLE1_CLOCK_NS,
            20,
            &widths,
        );
        assert_eq!(base, sized);
    }

    #[test]
    fn certified_widths_reduce_power_with_narrow_coefficients() {
        // top = H(x, 40) + x, H(a, b) = a*b: the constant coefficient makes
        // the child's `b` input provably 7 bits wide, narrowing its holding
        // register and operand bus; sized power must drop strictly.
        let mut h = Hierarchy::new();
        let mut sub = Dfg::new("sub");
        let a = sub.add_input("a");
        let b = sub.add_input("b");
        let m = sub.add_op(Operation::Mult, "m", &[a, b]);
        sub.add_output("o", m);
        let sub_id = h.add_dfg(sub);
        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let k = top.add_const("k", 40);
        let call = top.add_hier(sub_id, "H", &[x, k]);
        let s = top.add_op(Operation::Add, "s", &[top.hier_out(call, 0), x]);
        top.add_output("z", s);
        let top_id = h.add_dfg(top);
        h.set_top(top_id);
        h.validate().unwrap();

        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(12));
        let child = build(&h, &dedicated(&h, sub_id, &lib, "H_impl"), &ctx).unwrap();
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
        let cert = hsyn_dataflow::analyze_hierarchy(&h, W)
            .unwrap()
            .into_certificate();
        let widths = hsyn_rtl::derive_widths(&h, &parent, &cert);
        let traces = dsp_default(1, 64, W, 5);
        let base = estimate(&h, &parent, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 20);
        let sized = estimate_sized(
            &h,
            &parent,
            &lib,
            &traces,
            5.0,
            TABLE1_CLOCK_NS,
            20,
            &widths,
        );
        assert!(
            sized.power < base.power,
            "sized {} vs base {}",
            sized.power,
            base.power
        );
    }

    #[test]
    fn cached_estimate_keys_streams_on_the_samples() {
        let (h, parent, lib) = two_child_fixture();
        let fp = hsyn_rtl::fingerprint_tree(&h, &parent);
        let t1 = dsp_default(2, 24, W, 5);
        let t2 = dsp_default(2, 24, W, 6); // same length, other samples
        let t3 = TraceSet {
            samples: t1.samples.iter().map(|s| s[..10].to_vec()).collect(),
            width: W,
        }; // a prefix of t1
        let mut cache = SimCache::new();
        for traces in [&t1, &t2, &t3, &t1, &t3] {
            let full = estimate(&h, &parent, &lib, traces, 5.0, TABLE1_CLOCK_NS, 20);
            let cached = estimate_cached(
                &h,
                &parent,
                &lib,
                traces,
                5.0,
                TABLE1_CLOCK_NS,
                20,
                &fp,
                &mut cache,
            );
            assert_eq!(full, cached, "trace set of {} samples", traces.len());
        }
        assert_eq!((cache.stream.misses, cache.stream.hits), (3, 2));
        assert_eq!(cache.kernel_iterations, 24 + 24 + 10);
    }

    #[test]
    fn energy_memo_counts_survive_stream_eviction() {
        // One more trace set than the stream table holds: each cold pricing
        // misses both children's subtree energies, a warm one hits both,
        // and evicting the first entry keeps the counts it gathered.
        let (h, parent, lib) = two_child_fixture();
        let fp = hsyn_rtl::fingerprint_tree(&h, &parent);
        let mut cache = SimCache::new();
        let price = |seed: u64, cache: &mut SimCache| {
            let traces = dsp_default(2, 24, W, seed);
            estimate_cached(
                &h,
                &parent,
                &lib,
                &traces,
                5.0,
                TABLE1_CLOCK_NS,
                20,
                &fp,
                cache,
            );
        };
        let sets = SimCache::STREAM_CAP as u64 + 1;
        for seed in 0..sets {
            price(seed, &mut cache);
        }
        let energy = |cache: &SimCache| (cache.energy().hits, cache.energy().misses);
        assert_eq!(cache.stream.misses, sets, "the first entry was evicted");
        assert_eq!(energy(&cache), (0, 2 * sets));
        price(sets - 1, &mut cache);
        assert_eq!(energy(&cache), (2, 2 * sets));
        price(0, &mut cache);
        assert_eq!(cache.stream.misses, sets + 1);
        assert_eq!(energy(&cache), (2, 2 * sets + 2));
    }
}
