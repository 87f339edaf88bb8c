//! Integration test reproducing the paper's **Example 2** mechanics on the
//! `test1` benchmark: slack-derived constraint windows let move *A* swap a
//! complex module for an equivalent lower-power one, and move *B*
//! resynthesis replaces `mult1` units with `mult2` when the environment
//! relaxes.

use hsyn::core::{
    apply_in_place, initial_solution, selection_candidates, DesignPoint, Move, Objective,
    OperatingPoint, UndoLog,
};
use hsyn::lib::papers::TABLE1_CLOCK_NS;
use hsyn::rtl::papers::test1_complex_library;
use hsyn::sched::Profile;

/// With a relaxed sampling period, the candidate set must contain a
/// move-A swap of `RTL1` (dot3, initially the fast `C1`) to the equivalent
/// low-power `C2` (the `dot3_chain` DFG), and applying it must (a) rewrite
/// the hierarchical node's DFG and (b) keep the design schedulable.
#[test]
fn move_a_swaps_c1_for_equivalent_c2() {
    let (bench, mlib) = test1_complex_library();
    let h = &bench.hierarchy;
    // Sampling period 24 cycles: plenty of slack over the ~9-cycle minimum.
    let op = OperatingPoint::derive(&mlib.simple, 5.0, TABLE1_CLOCK_NS, 240.0);
    let top = initial_solution(h, &mlib, &op).expect("test1 initial solution");
    let dp = DesignPoint {
        hierarchy: h.clone(),
        op,
        top,
    };

    let dot3_tree = h.dfg_by_name("dot3_tree").unwrap();
    let dot3_chain = h.dfg_by_name("dot3_chain").unwrap();

    let cands = selection_candidates(&dp, &mlib, Objective::Power, false);
    let swap = cands
        .iter()
        .map(|(_, mv)| mv)
        .find(|mv| {
            matches!(mv, Move::SwapChild { dfg, lib_idx, .. }
                if *dfg == dot3_chain && mlib.complex[*lib_idx].module.name() == "C2")
        })
        .expect("a C1 -> C2 swap candidate must exist (equivalence class)");

    let mut new = dp.clone();
    apply_in_place(
        &mut new,
        swap,
        &mlib,
        &mut |_, _, _| None,
        &mut UndoLog::new(),
        &mut hsyn::core::Relinks::default(),
    )
    .expect("swap is schedulable");
    // The hierarchical node now invokes the chain DFG, not the tree.
    let top_dfg = new.top.core.dfg;
    let g = new.hierarchy.dfg(top_dfg);
    let rewritten = g.nodes().any(
        |(_, n)| matches!(n.kind(), hsyn::dfg::NodeKind::Hier { callee } if *callee == dot3_chain),
    );
    assert!(rewritten, "move A rewrote the node's DFG to the equivalent");
    assert!(!g.nodes().any(
        |(_, n)| matches!(n.kind(), hsyn::dfg::NodeKind::Hier { callee } if *callee == dot3_tree)
    ));
}

/// Example 2's core arithmetic: the relaxed window `{0,0,0,0,9,9}` admits
/// the `mult2`-based implementation of the prodsum block, while the
/// original environment does not.
#[test]
fn relaxed_window_admits_mult2_resynthesis() {
    let (bench, mlib) = test1_complex_library();
    let h = &bench.hierarchy;
    let prodsum = h.dfg_by_name("prodsum").unwrap();

    // Build the mult2-based variant of the prodsum module — the
    // implementation move-B resynthesis proposes under a relaxed window
    // ("replacement of modules M5 and M4, currently of type mult1, by
    // mult2, which would significantly reduce power consumption").
    let lib = &mlib.simple;
    let spec = hsyn::rtl::ModuleSpec::dedicated(
        h,
        prodsum,
        "prodsum_mult2",
        |_, op| match op {
            hsyn::dfg::Operation::Mult => lib.fu_by_name("mult2").unwrap(),
            _ => lib.fu_by_name("add1").unwrap(),
        },
        |_, _| unreachable!("leaf"),
    );
    let ctx = hsyn::rtl::BuildCtx::new(lib, TABLE1_CLOCK_NS, 5.0, Some(9));
    let slow = hsyn::rtl::build(h, &spec, &ctx).expect("fits the 9-cycle window");
    // The fast library module C3 (mult1-based) has profile latency 4.
    let c3 = &mlib.complex[2].module;
    assert_eq!(c3.profile_for(prodsum).unwrap().latency(), 4);
    // A mult2-based implementation takes longer but fits the relaxed window.
    let relaxed = hsyn::sched::Environment {
        input_arrivals: vec![0, 0, 0, 0],
        output_consumptions: vec![9, 9],
    };
    let tight = hsyn::sched::Environment {
        input_arrivals: vec![0, 0, 0, 0],
        output_consumptions: vec![4, 3],
    };
    let slow_profile: &Profile = slow.profile_for(prodsum).expect("behavior");
    assert!(
        slow_profile.latency() > 4,
        "mult2 implementation is slower: {slow_profile}"
    );
    assert!(relaxed.admits(slow_profile), "relaxed window admits mult2");
    assert!(
        !tight.admits(slow_profile),
        "original environment rejects it"
    );
}
