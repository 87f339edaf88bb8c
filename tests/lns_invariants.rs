//! Property tests for the large-neighborhood-search layer
//! (`hsyn::core::lns`): on random behaviors, every ruin→recreate→rollback
//! cycle must restore the design fingerprint bit-exactly, ruin planning
//! must be a pure function of the generator state, and full synthesis with
//! LNS refinement enabled must never end worse than the same synthesis
//! without it — with the paranoid verifier confirming every committed
//! iteration lint-clean along the way. Cases come from fixed seeds so
//! failures reproduce exactly; set `HSYN_TEST_ITERS` to widen the sweep.

mod common;

use common::{arb_behavior, test_iters};
use hsyn::core::{
    apply_in_place, initial_solution, plan_ruin, ruin_region, selection_candidates,
    sharing_candidates, splitting_candidates, synthesize, DesignPoint, Move, Objective,
    OperatingPoint, Relinks, RuinKind, SynthesisConfig, UndoLog,
};
use hsyn::dfg::{benchmarks, Hierarchy};
use hsyn::lib::papers::table1_library;
use hsyn::lint::{verify_design, DesignView};
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

/// A shuffled pool of candidate moves standing in for the recreate phase:
/// the invariant under test is the journal's, so any applied sequence after
/// the ruin works.
fn recreate_moves(dp: &DesignPoint, mlib: &ModuleLibrary, rng: &mut Rng) -> Vec<Move> {
    let mut cands = Vec::new();
    for objective in [Objective::Area, Objective::Power] {
        cands.extend(selection_candidates(dp, mlib, objective, false));
        cands.extend(sharing_candidates(dp, mlib, objective));
        cands.extend(splitting_candidates(dp, mlib, objective));
    }
    let mut moves: Vec<Move> = cands.into_iter().map(|(_, mv)| mv).collect();
    for i in (1..moves.len()).rev() {
        moves.swap(i, rng.range_usize(0, i));
    }
    moves
}

/// Every ruin→recreate→rollback cycle restores the pre-ruin fingerprint
/// bit-exactly, whatever region was destroyed and whatever was rebuilt on
/// top of it.
#[test]
fn ruin_recreate_rollback_is_fingerprint_identical() {
    let mut rng = Rng::seed_from_u64(0x1A45_0001);
    for case in 0..test_iters(10) {
        let (mut dp, mlib) = random_design(&mut rng);
        for cycle in 0..4 {
            let before = module_fingerprint(&dp.hierarchy, &dp.top.built);
            let mut log = UndoLog::new();
            let kind = plan_ruin(&dp, &mut rng);
            let ruined = ruin_region(&mut dp, &mlib, &kind, &mut log, 16, &mut Relinks::default());
            assert!(
                ruined == 0 || !log.is_empty(),
                "case {case} cycle {cycle}: ruin edits must be journaled"
            );
            // Recreate: apply whatever candidate moves still validate.
            let mut applied = 0usize;
            let relinks = &mut Relinks::default();
            for mv in recreate_moves(&dp, &mlib, &mut rng) {
                if applied >= 6 {
                    break;
                }
                if apply_in_place(&mut dp, &mv, &mlib, &mut |_, _, _| None, &mut log, relinks)
                    .is_ok()
                {
                    applied += 1;
                }
            }
            log.rollback_all(&mut dp);
            assert!(log.is_empty(), "case {case} cycle {cycle}: journal drained");
            assert_eq!(
                before,
                module_fingerprint(&dp.hierarchy, &dp.top.built),
                "case {case} cycle {cycle} ({kind:?}, {ruined} ruin edits, \
                 {applied} recreate edits): rollback must restore the design"
            );
        }
    }
}

/// Ruining to fixpoint (no edit cap) then ruining again is a no-op: the
/// region is at its destroyed pole, so the planner finds nothing left.
#[test]
fn ruin_to_fixpoint_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0x1A45_0002);
    for case in 0..test_iters(10) {
        let (mut dp, mlib) = random_design(&mut rng);
        let kind = plan_ruin(&dp, &mut rng);
        let mut log = UndoLog::new();
        let first = ruin_region(
            &mut dp,
            &mlib,
            &kind,
            &mut log,
            usize::MAX,
            &mut Relinks::default(),
        );
        let fp = module_fingerprint(&dp.hierarchy, &dp.top.built);
        let again = ruin_region(
            &mut dp,
            &mlib,
            &kind,
            &mut log,
            usize::MAX,
            &mut Relinks::default(),
        );
        assert_eq!(
            (again, fp),
            (0, module_fingerprint(&dp.hierarchy, &dp.top.built)),
            "case {case}: second ruin of {kind:?} after {first} edits must be a no-op"
        );
        log.rollback_all(&mut dp);
    }
}

/// Ruin planning is a pure function of the design and the generator state:
/// the same seed always picks the same region.
#[test]
fn plan_ruin_is_deterministic_given_the_seed() {
    let mut rng = Rng::seed_from_u64(0x1A45_0003);
    for _ in 0..test_iters(10) {
        let (dp, _) = random_design(&mut rng);
        let seed = rng.next_u64();
        let picks = |s: u64| -> Vec<RuinKind> {
            let mut r = Rng::seed_from_u64(s);
            (0..8).map(|_| plan_ruin(&dp, &mut r)).collect()
        };
        assert_eq!(picks(seed), picks(seed));
    }
}

/// Full synthesis with LNS refinement on random behaviors: the paranoid
/// verifier confirms every committed iteration lint-clean (a violation
/// aborts the configuration, which `skipped_configs` would record), the
/// final cost never exceeds the LNS-off result at the same seed, and the
/// winning design lints clean.
#[test]
fn lns_synthesis_is_never_worse_and_lints_clean() {
    let mut rng = Rng::seed_from_u64(0x1A45_0004);
    for case in 0..test_iters(6) {
        let g = arb_behavior(&mut rng);
        let objective = if rng.next_bool(0.5) {
            Objective::Area
        } else {
            Objective::Power
        };
        let mut h = Hierarchy::new();
        let id = h.add_dfg(g);
        h.set_top(id);
        assert!(h.validate().is_ok());
        let mlib = ModuleLibrary::from_simple(table1_library());

        let mut config = SynthesisConfig::new(objective);
        config.laxity_factor = 2.2;
        config.max_passes = 2;
        config.candidate_limit = 2;
        config.eval_trace_len = 8;
        config.report_trace_len = 16;
        config.max_clock_candidates = 2;
        config.resynth_depth = 0;
        config.paranoid = true;

        let off = synthesize(&h, &mlib, &config)
            .unwrap_or_else(|e| panic!("case {case}: LNS-off synthesis failed: {e}"));
        config.lns_iters = 6;
        let on = synthesize(&h, &mlib, &config)
            .unwrap_or_else(|e| panic!("case {case}: LNS-on synthesis failed: {e}"));

        for s in &on.skipped_configs {
            assert!(
                s.rule.is_none(),
                "case {case}: verifier rejected a committed LNS iteration \
                 ({}, {} ns): {}",
                s.vdd,
                s.clk_ns,
                s.reason
            );
        }
        assert!(
            on.evaluation.cost <= off.evaluation.cost,
            "case {case} ({objective:?}): LNS ended worse ({} vs {})",
            on.evaluation.cost,
            off.evaluation.cost
        );
        let design = &on.design;
        let diags = verify_design(&DesignView {
            hierarchy: &design.hierarchy,
            module: &design.top.built,
            lib: &mlib.simple,
            vdd: design.op.vdd,
            clk_ns: design.op.clk_ref_ns,
            sampling_period: design.top.core.deadline,
        });
        assert!(
            diags.is_empty(),
            "case {case}: LNS final design dirty: {diags:?}"
        );
    }
}

/// The same guarantee on real paper-suite hierarchies (children, complex
/// modules): never worse than LNS-off, and ruins actually fire.
#[test]
fn lns_is_never_worse_on_paper_benchmarks() {
    for bench in [benchmarks::paulin(), benchmarks::iir()] {
        for objective in [Objective::Area, Objective::Power] {
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            let mut config = SynthesisConfig::new(objective);
            config.laxity_factor = 2.2;
            config.max_passes = 3;
            config.candidate_limit = 3;
            config.eval_trace_len = 16;
            config.report_trace_len = 32;
            config.max_clock_candidates = 2;
            config.resynth_depth = 1;
            let off = synthesize(&bench.hierarchy, &mlib, &config).unwrap();
            config.lns_iters = 8;
            let on = synthesize(&bench.hierarchy, &mlib, &config).unwrap();
            assert!(
                on.stats.lns_ruins > 0,
                "{} ({objective:?}): no ruin ever fired",
                bench.name
            );
            assert!(
                on.evaluation.cost <= off.evaluation.cost,
                "{} ({objective:?}): LNS ended worse ({} vs {})",
                bench.name,
                on.evaluation.cost,
                off.evaluation.cost
            );
        }
    }
}
