//! Randomized property tests on the RTL substrate: register allocation
//! (left-edge packing), module building, and RTL embedding on randomized
//! inputs. Cases are generated from a fixed seed, so failures reproduce
//! exactly; set `HSYN_PROP_CASES` to widen the sweep locally.

use hsyn_dfg::{Dfg, Hierarchy, Operation, VarRef};
use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
use hsyn_rtl::{build, embed, module_area, storage_analysis, BuildCtx, ModuleSpec, RegPolicy};
use hsyn_util::Rng;

fn cases() -> u64 {
    std::env::var("HSYN_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

fn arb_leaf_dfg(rng: &mut Rng) -> Dfg {
    let n_in = rng.range_usize(2, 5);
    let n_ops = rng.range_usize(2, 14);
    let seed = rng.next_u64();
    let mut g = Dfg::new("rand");
    let mut vars: Vec<VarRef> = (0..n_in).map(|i| g.add_input(format!("i{i}"))).collect();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let ops = [Operation::Add, Operation::Sub, Operation::Mult];
    for k in 0..n_ops {
        let a = vars[next() % vars.len()];
        let b = vars[next() % vars.len()];
        vars.push(g.add_op(ops[next() % 3], format!("n{k}"), &[a, b]));
    }
    g.add_output("y", *vars.last().unwrap());
    g
}

fn dedicated_spec(h: &Hierarchy, dfg: hsyn_dfg::DfgId, lib: &hsyn_lib::Library) -> ModuleSpec {
    ModuleSpec::dedicated(
        h,
        dfg,
        "m",
        |_, op| lib.fastest_for(op).unwrap(),
        |_, _| unreachable!("leaf"),
    )
}

/// Left-edge packing (`RegPolicy::Packed`) never assigns two live-range
/// conflicting variables to the same register, and never uses more
/// registers than the dedicated policy.
#[test]
fn packed_registers_are_conflict_free_and_no_larger() {
    let mut rng = Rng::seed_from_u64(0x27_01);
    for _ in 0..cases() {
        let g = arb_leaf_dfg(&mut rng);
        let mut h = Hierarchy::new();
        let dfg = h.add_dfg(g);
        h.set_top(dfg);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None);

        let mut spec = dedicated_spec(&h, dfg, &lib);
        let dedicated = build(&h, &spec, &ctx).unwrap();
        spec.reg_policy = RegPolicy::Packed;
        let packed = build(&h, &spec, &ctx).unwrap();

        assert!(packed.regs().len() <= dedicated.regs().len());
        // No two vars in one register may conflict.
        let b = &packed.behaviors()[0];
        let st = storage_analysis(h.dfg(dfg), &b.schedule);
        let mut by_reg: std::collections::HashMap<usize, Vec<VarRef>> = Default::default();
        for (v, r) in b.binding.var_to_reg.iter() {
            by_reg.entry(r.index()).or_default().push(v);
        }
        for (_, vars) in by_reg {
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    assert!(
                        !st.conflicts(vars[i], vars[j]),
                        "{} and {} share a register but conflict",
                        vars[i],
                        vars[j]
                    );
                }
            }
        }
        // Every stored variable is bound.
        for v in &st.stored_vars {
            assert!(b.binding.var_to_reg.get(*v).is_some());
        }
    }
}

/// Embedding any two structurally different random modules yields a
/// module that (a) carries both behaviors, (b) is never larger than the
/// side-by-side pair, and (c) keeps both schedules unaltered.
#[test]
fn embedding_is_sound_on_random_pairs() {
    let mut rng = Rng::seed_from_u64(0x27_02);
    for _ in 0..cases() {
        let g1 = arb_leaf_dfg(&mut rng);
        let g2 = arb_leaf_dfg(&mut rng);
        let mut h = Hierarchy::new();
        let d1 = h.add_dfg(g1);
        let d2 = h.add_dfg(g2);
        h.set_top(d1);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None);
        let m1 = build(&h, &dedicated_spec(&h, d1, &lib), &ctx).unwrap();
        let m2 = build(&h, &dedicated_spec(&h, d2, &lib), &ctx).unwrap();
        let merged = embed(&h, &m1, &m2, &lib, "new").unwrap();

        assert_eq!(merged.module.behaviors().len(), 2);
        let a1 = module_area(&h, &m1, &lib).total();
        let a2 = module_area(&h, &m2, &lib).total();
        let an = module_area(&h, &merged.module, &lib).total();
        assert!(an <= a1 + a2 + 1e-6, "merged {an} > sum {}", a1 + a2);
        // Schedules unaltered.
        assert_eq!(
            merged.module.behaviors()[0].schedule.makespan(),
            m1.behaviors()[0].schedule.makespan()
        );
        assert_eq!(
            merged.module.behaviors()[1].schedule.makespan(),
            m2.behaviors()[0].schedule.makespan()
        );
        // Mappings are injective and within range.
        let mut seen = std::collections::HashSet::new();
        for f in &merged.maps.fu_a {
            assert!(f.index() < merged.module.fus().len());
            assert!(seen.insert(*f));
        }
        let mut seen_b = std::collections::HashSet::new();
        for f in &merged.maps.fu_b {
            assert!(f.index() < merged.module.fus().len());
            assert!(seen_b.insert(*f));
        }
    }
}

/// The builder's profile is consistent: rescheduling the same module
/// with input arrivals equal to its profile reproduces the profile's
/// output times.
#[test]
fn profiles_are_self_consistent() {
    let mut rng = Rng::seed_from_u64(0x27_03);
    for _ in 0..cases() {
        let g = arb_leaf_dfg(&mut rng);
        let mut h = Hierarchy::new();
        let dfg = h.add_dfg(g);
        h.set_top(dfg);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None);
        let m = build(&h, &dedicated_spec(&h, dfg, &lib), &ctx).unwrap();
        let p = m.profile_for(dfg).unwrap().clone();
        let mut ctx2 = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None);
        ctx2.input_arrivals = Some(p.inputs.clone());
        let m2 = build(&h, &dedicated_spec(&h, dfg, &lib), &ctx2).unwrap();
        assert_eq!(m2.profile_for(dfg).unwrap(), &p);
    }
}
