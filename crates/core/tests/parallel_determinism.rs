//! Parallel and serial runs must be indistinguishable: results are merged
//! in input order with a total-order tiebreak, so thread count may change
//! wall-clock but never the report. `parallelism = Some(4)` spawns real
//! worker threads even on a single-core host, so this exercises the
//! threaded path regardless of the machine it runs on.

use hsyn_core::{explore, pareto_front, synthesize, MoveStats, Objective, SynthesisConfig};
use hsyn_dfg::benchmarks;
use hsyn_lib::papers::table1_library;
use hsyn_rtl::ModuleLibrary;

fn base_config(objective: Objective) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.max_passes = 3;
    c.candidate_limit = 3;
    c.eval_trace_len = 16;
    c.report_trace_len = 32;
    c.max_clock_candidates = 3;
    c.laxity_factor = 2.2;
    c
}

#[test]
fn synthesize_is_identical_across_thread_counts() {
    let b = benchmarks::paulin();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();

    for objective in [Objective::Area, Objective::Power] {
        let mut serial_cfg = base_config(objective);
        serial_cfg.parallelism = Some(1);
        let mut parallel_cfg = base_config(objective);
        parallel_cfg.parallelism = Some(4);

        let s = synthesize(&b.hierarchy, &mlib, &serial_cfg).unwrap();
        let p = synthesize(&b.hierarchy, &mlib, &parallel_cfg).unwrap();

        // Same chosen operating point.
        assert_eq!(s.design.op, p.design.op, "{objective:?}: operating point");
        // Same evaluation.
        assert_eq!(
            s.evaluation.area.total(),
            p.evaluation.area.total(),
            "{objective:?}: area"
        );
        assert_eq!(
            s.evaluation.power.power, p.evaluation.power.power,
            "{objective:?}: power"
        );
        // Same absorbed move statistics (order of absorption is fixed to
        // sweep order in both paths).
        assert_eq!(s.stats, p.stats, "{objective:?}: move stats");
        // Same per-configuration telemetry shape and winner.
        assert_eq!(s.per_config.len(), p.per_config.len());
        for (a, b) in s.per_config.iter().zip(&p.per_config) {
            assert_eq!(a.vdd, b.vdd);
            assert_eq!(a.clk_ns, b.clk_ns);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.stats.evaluated, b.stats.evaluated);
            assert_eq!(a.stats.rejected, b.stats.rejected);
            assert_eq!(a.selected, b.selected);
        }
        assert_eq!(s.skipped_configs.len(), p.skipped_configs.len());
    }
}

#[test]
fn explore_is_identical_across_thread_counts() {
    let b = benchmarks::paulin();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();
    let laxities = [1.5, 2.2, 3.0];

    let mut serial_cfg = base_config(Objective::Area);
    serial_cfg.parallelism = Some(1);
    let mut parallel_cfg = base_config(Objective::Area);
    parallel_cfg.parallelism = Some(4);

    let s = explore(&b.hierarchy, &mlib, &serial_cfg, &laxities);
    let p = explore(&b.hierarchy, &mlib, &parallel_cfg, &laxities);

    assert_eq!(s.points.len(), p.points.len());
    assert_eq!(s.skipped.len(), p.skipped.len());

    let mut s_stats = MoveStats::default();
    let mut p_stats = MoveStats::default();
    for (a, b) in s.points.iter().zip(&p.points) {
        assert_eq!(a.laxity, b.laxity);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.area(), b.area());
        assert_eq!(a.power(), b.power());
        assert_eq!(a.report.design.op, b.report.design.op);
        s_stats.absorb(&a.report.stats);
        p_stats.absorb(&b.report.stats);
    }
    // Totals absorbed across the whole grid agree too.
    assert_eq!(s_stats, p_stats);

    // The Pareto fronts are byte-identical.
    let sf = pareto_front(&s.points);
    let pf = pareto_front(&p.points);
    assert_eq!(sf.len(), pf.len());
    for (a, b) in sf.iter().zip(&pf) {
        assert_eq!(a.laxity, b.laxity);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.area(), b.area());
        assert_eq!(a.power(), b.power());
    }
}
