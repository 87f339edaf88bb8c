//! Unit tests for the move set: each move family applies, validates, and
//! rejects correctly on concrete design points.

use hsyn_core::{
    apply_in_place, initial_solution, selection_candidates, sharing_candidates,
    splitting_candidates, ApplyError, DesignPoint, Move, Objective, OperatingPoint, UndoLog,
};
use hsyn_dfg::benchmarks;
use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
use hsyn_rtl::ModuleLibrary;

fn paulin_dp(period_ns: f64) -> (DesignPoint, ModuleLibrary) {
    let b = benchmarks::paulin();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();
    let op = OperatingPoint::derive(&mlib.simple, 5.0, TABLE1_CLOCK_NS, period_ns);
    let top = initial_solution(&b.hierarchy, &mlib, &op).expect("builds");
    (
        DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        },
        mlib,
    )
}

/// Apply `mv` to a clone of `dp` (no move-*B* resynthesis).
fn apply(dp: &DesignPoint, mv: &Move, mlib: &ModuleLibrary) -> Result<DesignPoint, ApplyError> {
    let mut new = dp.clone();
    let relinks = &mut hsyn_core::Relinks::default();
    apply_in_place(
        &mut new,
        mv,
        mlib,
        &mut |_, _, _| None,
        &mut UndoLog::new(),
        relinks,
    )?;
    Ok(new)
}

#[test]
fn set_fu_type_swaps_multiplier_variant() {
    let (dp, mlib) = paulin_dp(400.0);
    let mult2 = mlib.simple.fu_by_name("mult2").unwrap();
    // Find a group currently on mult1.
    let mult1 = mlib.simple.fu_by_name("mult1").unwrap();
    let group = dp
        .top
        .core
        .fu_groups
        .iter()
        .position(|g| g.fu_type == mult1)
        .expect("initial solution uses the fastest multiplier");
    let mv = Move::SetFuType {
        path: vec![],
        group,
        fu_type: mult2,
    };
    let new = apply(&dp, &mv, &mlib).expect("slack admits mult2");
    assert_eq!(new.top.core.fu_groups[group].fu_type, mult2);
    // Same move again is rejected (no-op).
    assert!(apply(&new, &mv, &mlib).is_err());
}

#[test]
fn merge_then_split_round_trips_group_count() {
    let (dp, mlib) = paulin_dp(600.0);
    let n0 = dp.top.core.fu_groups.len();
    let cands = sharing_candidates(&dp, &mlib, Objective::Area);
    let merge = cands
        .iter()
        .find_map(|(_, mv)| match mv {
            Move::MergeFu { .. } => Some(mv.clone()),
            _ => None,
        })
        .expect("merge candidates exist");
    let merged = apply(&dp, &merge, &mlib).expect("merge applies");
    assert_eq!(merged.top.core.fu_groups.len(), n0 - 1);
    // Now split the merged group back apart.
    let cands = splitting_candidates(&merged, &mlib, Objective::Power);
    let split = cands
        .iter()
        .find_map(|(_, mv)| match mv {
            Move::SplitFu { .. } => Some(mv.clone()),
            _ => None,
        })
        .expect("split candidates exist after a merge");
    let split_dp = apply(&merged, &split, &mlib).expect("split applies");
    assert_eq!(split_dp.top.core.fu_groups.len(), n0);
}

#[test]
fn register_packing_shrinks_and_dedication_restores() {
    let (dp, mlib) = paulin_dp(400.0);
    let dedicated_regs = dp.top.built.regs().len();
    let packed = apply(&dp, &Move::RepackRegs { path: vec![] }, &mlib).expect("packing applies");
    assert!(packed.top.built.regs().len() < dedicated_regs);
    // Packing twice is a no-op ⇒ rejected.
    assert!(apply(&packed, &Move::RepackRegs { path: vec![] }, &mlib).is_err());
    let restored =
        apply(&packed, &Move::DedicateRegs { path: vec![] }, &mlib).expect("dedication applies");
    assert_eq!(restored.top.built.regs().len(), dedicated_regs);
}

#[test]
fn stale_moves_are_rejected_not_panicking() {
    let (dp, mlib) = paulin_dp(400.0);
    let n = dp.top.core.fu_groups.len();
    // Out-of-range group.
    assert!(apply(
        &dp,
        &Move::SetFuType {
            path: vec![],
            group: n + 5,
            fu_type: mlib.simple.fu_by_name("add1").unwrap(),
        },
        &mlib
    )
    .is_err());
    // Merge with b out of range.
    assert!(apply(
        &dp,
        &Move::MergeFu {
            path: vec![],
            a: 0,
            b: n + 1,
            fu_type: mlib.simple.fu_by_name("add1").unwrap(),
        },
        &mlib
    )
    .is_err());
    // Split of a singleton group.
    let op = dp.top.core.fu_groups[0].ops[0];
    assert!(apply(
        &dp,
        &Move::SplitFu {
            path: vec![],
            group: 0,
            op,
        },
        &mlib
    )
    .is_err());
}

#[test]
fn merge_children_shares_stateless_instances() {
    // dct: 8 hierarchical nodes of the stateless dot8 — merging two onto
    // one instance must succeed and serialize them.
    let b = benchmarks::dct();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();
    let op = OperatingPoint::derive(&mlib.simple, 5.0, TABLE1_CLOCK_NS, 1500.0);
    let top = initial_solution(&b.hierarchy, &mlib, &op).expect("builds");
    let dp = DesignPoint {
        hierarchy: b.hierarchy.clone(),
        op,
        top,
    };
    assert_eq!(dp.top.children.len(), 8);
    let mv = Move::MergeChildren {
        path: vec![],
        a: 0,
        b: 1,
    };
    let merged = apply(&dp, &mv, &mlib).expect("stateless merge");
    assert_eq!(merged.top.children.len(), 7);
    assert_eq!(merged.top.children[0].nodes.len(), 2);
    // Split it back out.
    let node = merged.top.children[0].nodes[1];
    let split = Move::SplitChild {
        path: vec![],
        child: 0,
        node,
    };
    let restored = apply(&merged, &split, &mlib).expect("split back");
    assert_eq!(restored.top.children.len(), 8);
}

#[test]
fn merge_children_rejects_stateful_sharing() {
    // iir: two biquad sections with internal state must not share.
    let b = benchmarks::iir();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();
    let op = OperatingPoint::derive(&mlib.simple, 5.0, TABLE1_CLOCK_NS, 2000.0);
    let top = initial_solution(&b.hierarchy, &mlib, &op).expect("builds");
    let dp = DesignPoint {
        hierarchy: b.hierarchy.clone(),
        op,
        top,
    };
    assert_eq!(dp.top.children.len(), 2);
    let mv = Move::MergeChildren {
        path: vec![],
        a: 0,
        b: 1,
    };
    assert!(
        apply(&dp, &mv, &mlib).is_err(),
        "stateful biquads must not share one instance"
    );
    // And the candidate generator does not even propose it.
    let cands = sharing_candidates(&dp, &mlib, Objective::Area);
    assert!(!cands
        .iter()
        .any(|(_, mv)| matches!(mv, Move::MergeChildren { .. })));
}

#[test]
fn selection_candidates_cover_children_and_groups() {
    let (bench, mlib) = hsyn_rtl::papers::test1_complex_library();
    let op = OperatingPoint::derive(&mlib.simple, 5.0, TABLE1_CLOCK_NS, 240.0);
    let top = initial_solution(&bench.hierarchy, &mlib, &op).expect("builds");
    let dp = DesignPoint {
        hierarchy: bench.hierarchy.clone(),
        op,
        top,
    };
    let cands = selection_candidates(&dp, &mlib, Objective::Power, true);
    let has_swap = cands
        .iter()
        .any(|(_, m)| matches!(m, Move::SwapChild { .. }));
    let has_resynth = cands
        .iter()
        .any(|(_, m)| matches!(m, Move::ResynthChild { .. }));
    assert!(has_swap, "library equivalents must produce swap candidates");
    assert!(has_resynth, "children must produce resynthesis candidates");
    // Without resynthesis allowed, no B candidates appear.
    let cands = selection_candidates(&dp, &mlib, Objective::Power, false);
    assert!(!cands
        .iter()
        .any(|(_, m)| matches!(m, Move::ResynthChild { .. })));
}
