//! Property tests for the transactional move engine: random move sequences
//! speculated in place on random behaviors must match a from-scratch
//! rebuild after every applied move (the localized rebuild is exact), and
//! must roll back bit-exactly (the structural fingerprint of the whole
//! design returns to its value at every journal mark). Cases come from a
//! fixed seed so failures reproduce exactly; set `HSYN_TEST_ITERS` to
//! widen the sweep locally.

mod common;

use common::{arb_behavior, test_iters};
use hsyn::core::{
    apply_in_place, initial_solution, selection_candidates, sharing_candidates,
    splitting_candidates, DesignPoint, Move, Objective, OperatingPoint, UndoLog,
};
use hsyn::dfg::Hierarchy;
use hsyn::lib::papers::table1_library;
use hsyn::rtl::{module_fingerprint, ModuleLibrary};
use hsyn_util::Rng;

/// A buildable design point for a random leaf behavior, plus its library.
fn random_design(rng: &mut Rng) -> (DesignPoint, ModuleLibrary) {
    let g = arb_behavior(rng);
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    assert!(h.validate().is_ok());
    let mlib = ModuleLibrary::from_simple(table1_library());
    let op = OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
    let top = initial_solution(&h, &mlib, &op).expect("relaxed deadline always builds");
    (
        DesignPoint {
            hierarchy: h,
            op,
            top,
        },
        mlib,
    )
}

/// Every candidate move the generators produce for `dp`, in a shuffled
/// order so sequences differ between cases.
fn shuffled_moves(dp: &DesignPoint, mlib: &ModuleLibrary, rng: &mut Rng) -> Vec<Move> {
    let mut cands = Vec::new();
    for objective in [Objective::Area, Objective::Power] {
        cands.extend(selection_candidates(dp, mlib, objective, false));
        cands.extend(sharing_candidates(dp, mlib, objective));
        cands.extend(splitting_candidates(dp, mlib, objective));
    }
    let mut moves: Vec<Move> = cands.into_iter().map(|(_, mv)| mv).collect();
    // Fisher–Yates with the case RNG.
    for i in (1..moves.len()).rev() {
        moves.swap(i, rng.range_usize(0, i));
    }
    moves
}

/// Speculate a random move sequence inside one journal, snapshotting the
/// design fingerprint at every mark, then force a rollback to a random
/// prefix and finally to the baseline: each unwind must restore the
/// fingerprint recorded at that mark bit-exactly. After every applied move
/// the in-place design must also match a clone rebuilt from scratch — the
/// full-rebuild oracle for the journaled, path-local rebuild.
#[test]
fn random_move_sequences_roll_back_bit_exactly() {
    let mut rng = Rng::seed_from_u64(0x0DD0_11FE);
    for case in 0..test_iters(12) {
        let (mut dp, mlib) = random_design(&mut rng);
        let moves = shuffled_moves(&dp, &mlib, &mut rng);

        // (journal mark, fingerprint) before each applied move; index 0 is
        // the untouched baseline.
        let mut log = UndoLog::new();
        let mut snaps = vec![(log.mark(), module_fingerprint(&dp.hierarchy, &dp.top.built))];
        let mut applied = 0usize;
        let relinks = &mut hsyn::core::Relinks::default();
        for mv in &moves {
            let mark = log.mark();
            // Moves invalidated by earlier edits of the sequence are fine:
            // a failed apply must leave no trace in design or journal.
            match apply_in_place(&mut dp, mv, &mlib, &mut |_, _, _| None, &mut log, relinks) {
                Ok(_) => {
                    applied += 1;
                    let fp = module_fingerprint(&dp.hierarchy, &dp.top.built);
                    let mut oracle = dp.clone();
                    oracle
                        .rebuild(&mlib.simple)
                        .unwrap_or_else(|e| panic!("case {case}: {mv} does not rebuild: {e}"));
                    assert_eq!(
                        module_fingerprint(&oracle.hierarchy, &oracle.top.built),
                        fp,
                        "case {case}: in-place {mv} diverged from a full rebuild"
                    );
                    snaps.push((log.mark(), fp));
                }
                Err(_) => assert_eq!(
                    (log.mark(), module_fingerprint(&dp.hierarchy, &dp.top.built)),
                    (mark, snaps.last().unwrap().1),
                    "case {case}: rejected {mv} must leave design and journal untouched"
                ),
            }
            if applied >= 12 {
                break;
            }
        }
        assert!(
            applied >= 2,
            "case {case}: sequence too short to exercise rollback ({applied} applies)"
        );

        // Unwind to a random intermediate prefix, then all the way down.
        let keep = rng.range_usize(0, snaps.len() - 1);
        for &idx in &[keep, 0] {
            let (mark, fp) = snaps[idx];
            log.rollback_to(&mut dp, mark);
            assert_eq!(
                module_fingerprint(&dp.hierarchy, &dp.top.built),
                fp,
                "case {case}: rollback to mark {idx}/{} diverged",
                snaps.len() - 1
            );
        }
        assert!(
            log.is_empty(),
            "case {case}: baseline rollback must drain the journal"
        );
        assert!(
            log.bytes_peak() > 0,
            "case {case}: journal never accounted its records"
        );
    }
}
