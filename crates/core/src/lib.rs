//! The H-SYN synthesis engine (Lakshminarayana & Jha, DAC 1998): iterative
//! improvement over hierarchical RTL design points with four move families —
//! module replacement (*A*), slack-driven resynthesis of complex modules
//! (*B*), merging via resource sharing and RTL embedding (*C*), and
//! splitting (*D*) — wrapped in loops over pruned supply-voltage and
//! clock-period candidate sets.
//!
//! Entry point: [`synthesize`]. The flattened baseline the paper compares
//! against (ref.&nbsp;10) is the same engine with
//! [`SynthesisConfig::hierarchical`] set to `false`.
//!
//! ```
//! use hsyn_core::{synthesize, Objective, SynthesisConfig};
//! use hsyn_dfg::benchmarks;
//! use hsyn_rtl::ModuleLibrary;
//!
//! let bench = benchmarks::paulin();
//! let mut mlib = ModuleLibrary::from_simple(hsyn_lib::Library::realistic());
//! mlib.equiv = bench.equiv.clone();
//! let mut config = SynthesisConfig::new(Objective::Power);
//! config.laxity_factor = 2.2;
//! // Small budgets keep this example fast; drop these lines for real runs.
//! config.max_passes = 2;
//! config.candidate_limit = 2;
//! config.eval_trace_len = 8;
//! config.report_trace_len = 16;
//! config.max_clock_candidates = 2;
//! let report = synthesize(&bench.hierarchy, &mlib, &config).expect("synthesizable");
//! println!(
//!     "area {:.0}, power {:.3} at {} V",
//!     report.evaluation.area.total(),
//!     report.evaluation.power.power,
//!     report.design.op.vdd
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod cache;
mod cancel;
mod config;
mod cost;
mod design;
mod explore;
mod fuzz;
mod improve;
mod lns;
mod moves;
mod synth;
mod transact;

pub use analyze::{analyze, AnalyzeError, AnalyzeReport, ObjectiveAnalysis};
pub use cache::{EvalCache, MemoTraffic};
pub use cancel::CancelToken;
pub use config::{Budget, MoveFamilies, SynthesisConfig};
pub use cost::{evaluate, Evaluation, Objective};
pub use design::{
    initial_solution, probe_min_latency, Child, ChildKind, DesignPoint, ModuleState,
    OperatingPoint, Relinks, SpecCore,
};
pub use explore::{explore, pareto_front, Exploration, ExplorePoint, SkippedPoint};
pub use fuzz::{fuzz_cosim, FuzzCoverage, FuzzDivergence, FuzzParams, FuzzReport};
pub use hsyn_util::MemoCount;
pub use improve::{MoveStats, ParanoidViolation};
pub use lns::{plan_ruin, ruin_region, Portfolio, RuinKind};
pub use moves::{
    apply_in_place, dirty_path, selection_candidates, sharing_candidates, splitting_candidates,
    ApplyError, ModulePath, Move,
};
pub use synth::{
    synthesize, ConfigTelemetry, ScaledDesign, SkippedConfig, SynthesisError, SynthesisReport,
};
pub use transact::{Transaction, UndoLog, UndoMark, UndoOp};

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;
    use hsyn_lib::Library;
    use hsyn_rtl::papers::test1_complex_library;
    use hsyn_rtl::ModuleLibrary;

    fn fast_config(objective: Objective) -> SynthesisConfig {
        let mut c = SynthesisConfig::new(objective);
        c.max_passes = 4;
        c.candidate_limit = 4;
        c.eval_trace_len = 16;
        c.report_trace_len = 48;
        c.max_clock_candidates = 2;
        c.resynth_depth = 1;
        c
    }

    #[test]
    fn paulin_area_synthesis_beats_initial_solution() {
        let b = benchmarks::paulin();
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = b.equiv.clone();
        let mut config = fast_config(Objective::Area);
        config.laxity_factor = 2.2;
        let report = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        // The initial solution has one FU per op (11); sharing must shrink it.
        assert!(
            report.design.top.built.fus().len() < 11,
            "sharing did not reduce the 11-op parallel initial solution: {} FUs",
            report.design.top.built.fus().len()
        );
        assert!(report.evaluation.area.total() > 0.0);
        assert!(report.vdd_scaled.is_some(), "area mode voltage-scales");
        let scaled = report.vdd_scaled.unwrap();
        assert!(scaled.design.op.vdd <= 5.0);
        assert!(scaled.evaluation.power.power <= report.evaluation.power.power + 1e-9);
    }

    #[test]
    fn power_synthesis_beats_area_synthesis_on_power() {
        let b = benchmarks::paulin();
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = b.equiv.clone();
        let mut ca = fast_config(Objective::Area);
        ca.laxity_factor = 2.2;
        let mut cp = fast_config(Objective::Power);
        cp.laxity_factor = 2.2;
        let ra = synthesize(&b.hierarchy, &mlib, &ca).unwrap();
        let rp = synthesize(&b.hierarchy, &mlib, &cp).unwrap();
        // Power-optimized consumes less than area-optimized at 5 V.
        assert!(
            rp.evaluation.power.power < ra.evaluation.power.power,
            "P-opt {} vs A-opt-at-5V {}",
            rp.evaluation.power.power,
            ra.evaluation.power.power
        );
        // And typically runs at reduced voltage.
        assert!(rp.design.op.vdd <= 5.0);
    }

    #[test]
    fn hierarchical_test1_uses_library_and_improves() {
        let (bench, mlib) = test1_complex_library();
        let mut config = fast_config(Objective::Power);
        config.laxity_factor = 2.0;
        let report = synthesize(&bench.hierarchy, &mlib, &config).unwrap();
        assert!(report.evaluation.power.power > 0.0);
        // Hierarchical design retains submodules.
        assert!(!report.design.top.built.subs().is_empty());
    }

    #[test]
    fn flattened_baseline_runs_on_hierarchical_input() {
        let (bench, mlib) = test1_complex_library();
        let mut config = fast_config(Objective::Area);
        config.hierarchical = false;
        config.laxity_factor = 2.0;
        let report = synthesize(&bench.hierarchy, &mlib, &config).unwrap();
        // Flattened: no submodules at all.
        assert!(report.design.top.built.subs().is_empty());
        assert!(!report.design.top.built.fus().is_empty());
    }

    #[test]
    fn laxity_one_tightest_period_still_synthesizes() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut config = fast_config(Objective::Area);
        config.laxity_factor = 1.0;
        let report = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        assert!(report.period_ns >= report.min_period_ns * 0.999);
    }

    #[test]
    fn infeasible_period_reports_error() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut config = fast_config(Objective::Area);
        config.sampling_period_ns = Some(1.0);
        assert!(matches!(
            synthesize(&b.hierarchy, &mlib, &config),
            Err(SynthesisError::Infeasible { .. })
        ));
    }

    #[test]
    fn empty_library_reports_error() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(Library::empty());
        let config = fast_config(Objective::Area);
        assert_eq!(
            synthesize(&b.hierarchy, &mlib, &config).unwrap_err(),
            SynthesisError::NoClockCandidates
        );
    }

    #[test]
    fn synthesis_is_deterministic() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut config = fast_config(Objective::Area);
        config.laxity_factor = 2.2;
        let r1 = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        let r2 = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        assert_eq!(r1.evaluation.area.total(), r2.evaluation.area.total());
        assert_eq!(r1.evaluation.power.power, r2.evaluation.power.power);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn stats_account_for_moves() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut config = fast_config(Objective::Area);
        config.laxity_factor = 3.2;
        let report = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        assert!(report.stats.evaluated > 0);
        assert!(report.stats.passes >= 1);
        let applied = report.stats.applied_a
            + report.stats.applied_b
            + report.stats.applied_c
            + report.stats.applied_d;
        assert!(applied > 0, "some moves should commit at laxity 3.2");
    }

    #[test]
    fn paranoid_mode_is_observation_only() {
        let b = benchmarks::paulin();
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = b.equiv.clone();
        let mut config = fast_config(Objective::Area);
        config.laxity_factor = 2.2;
        let plain = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        config.paranoid = true;
        let checked = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        // Same search, same result: the verifier observes, never steers.
        assert_eq!(plain.stats, checked.stats);
        assert_eq!(
            plain.evaluation.area.total(),
            checked.evaluation.area.total()
        );
        assert_eq!(plain.evaluation.power.power, checked.evaluation.power.power);
        assert_eq!(plain.per_config.len(), checked.per_config.len());
        for (p, c) in plain.per_config.iter().zip(&checked.per_config) {
            assert_eq!(
                (
                    p.vdd,
                    p.clk_ns,
                    p.stats.evaluated,
                    p.stats.rejected,
                    p.stats.passes,
                    p.selected
                ),
                (
                    c.vdd,
                    c.clk_ns,
                    c.stats.evaluated,
                    c.stats.rejected,
                    c.stats.passes,
                    c.selected
                )
            );
            assert_eq!(p.cost, c.cost);
            // Verifier wall-clock is recorded only when paranoid is on.
            assert_eq!(p.verify_s, 0.0);
            assert!(c.verify_s > 0.0, "paranoid run must record verify time");
        }
        assert!(checked.skipped_configs.iter().all(|s| s.rule.is_none()));
    }

    #[test]
    fn cancelled_token_aborts_with_structured_error() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut config = fast_config(Objective::Area);
        config.laxity_factor = 2.2;
        let token = CancelToken::new();
        token.cancel();
        config.cancel = Some(token);
        assert_eq!(
            synthesize(&b.hierarchy, &mlib, &config).unwrap_err(),
            SynthesisError::Cancelled
        );
        // An expired deadline cancels the same way.
        config.cancel = Some(CancelToken::with_deadline(std::time::Duration::ZERO));
        assert_eq!(
            synthesize(&b.hierarchy, &mlib, &config).unwrap_err(),
            SynthesisError::Cancelled
        );
        // An untripped token is a no-op: same bytes as no token at all.
        config.cancel = Some(CancelToken::new());
        let with_token = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        config.cancel = None;
        let without = synthesize(&b.hierarchy, &mlib, &config).unwrap();
        assert_eq!(with_token.result_json(), without.result_json());
    }

    #[test]
    fn higher_laxity_lowers_power() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut c1 = fast_config(Objective::Power);
        c1.laxity_factor = 1.2;
        let mut c3 = fast_config(Objective::Power);
        c3.laxity_factor = 3.2;
        let r1 = synthesize(&b.hierarchy, &mlib, &c1).unwrap();
        let r3 = synthesize(&b.hierarchy, &mlib, &c3).unwrap();
        assert!(
            r3.evaluation.power.power < r1.evaluation.power.power,
            "laxity 3.2 power {} should undercut laxity 1.2 power {}",
            r3.evaluation.power.power,
            r1.evaluation.power.power
        );
    }
}
