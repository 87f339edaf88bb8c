//! Cross-crate end-to-end invariants: every benchmark synthesizes in all
//! four modes (flat/hier × area/power) and the results respect the ordering
//! relations the paper's evaluation rests on.

use hsyn::core::{synthesize, Objective, SynthesisConfig};
use hsyn::dfg::benchmarks;
use hsyn::lib::papers::table1_library;
use hsyn::rtl::ModuleLibrary;

fn quick(objective: Objective, hierarchical: bool, lf: f64) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.laxity_factor = lf;
    c.hierarchical = hierarchical;
    c.max_passes = 3;
    c.candidate_limit = 3;
    c.eval_trace_len = 16;
    c.report_trace_len = 48;
    c.max_clock_candidates = 2;
    c.resynth_depth = 1;
    c
}

#[test]
fn every_benchmark_synthesizes_hierarchically() {
    for bench in benchmarks::all() {
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = bench.equiv.clone();
        let report = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 2.2))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            report.evaluation.area.total() > 0.0,
            "{} produced a zero-area design",
            bench.name
        );
        assert!(report.evaluation.power.power > 0.0, "{}", bench.name);
        assert!(report.period_ns >= report.min_period_ns, "{}", bench.name);
    }
}

#[test]
fn every_benchmark_synthesizes_flattened() {
    for bench in benchmarks::paper_suite() {
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = bench.equiv.clone();
        let report = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, false, 2.2))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            report.design.top.built.subs().is_empty(),
            "{}: flattened designs have no submodules",
            bench.name
        );
    }
}

#[test]
fn power_mode_never_loses_to_area_mode_on_power() {
    // On each benchmark, the P-optimized design must consume no more power
    // than the A-optimized design evaluated at 5 V (it could always copy it).
    for bench in [benchmarks::iir(), benchmarks::lat(), benchmarks::test1()] {
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = bench.equiv.clone();
        let ra = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 2.2)).unwrap();
        let rp = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Power, true, 2.2)).unwrap();
        assert!(
            rp.evaluation.power.power <= ra.evaluation.power.power * 1.05,
            "{}: P-opt {} should not exceed A-opt {}",
            bench.name,
            rp.evaluation.power.power,
            ra.evaluation.power.power
        );
    }
}

#[test]
fn area_mode_never_loses_to_power_mode_on_area() {
    for bench in [benchmarks::iir(), benchmarks::test1()] {
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = bench.equiv.clone();
        let ra = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 2.2)).unwrap();
        let rp = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Power, true, 2.2)).unwrap();
        assert!(
            ra.evaluation.area.total() <= rp.evaluation.area.total() * 1.05,
            "{}: A-opt {} should not exceed P-opt {}",
            bench.name,
            ra.evaluation.area.total(),
            rp.evaluation.area.total()
        );
    }
}

#[test]
fn hierarchical_search_is_cheaper_than_flat() {
    // The paper's Table 4 synthesis-time claim, measured by engine workload
    // (candidate evaluations) rather than flaky wall-clock: the coarse
    // module-level moves of hierarchical synthesis need far less search
    // than flattened synthesis of the same behavior.
    let bench = benchmarks::dct();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let rh = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 2.2)).unwrap();
    let rf = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, false, 2.2)).unwrap();
    assert!(
        rh.stats.evaluated < rf.stats.evaluated,
        "hier evaluated {} should be below flat {}",
        rh.stats.evaluated,
        rf.stats.evaluated
    );
    // And the results stay comparable: hierarchical area within 1.6x.
    assert!(rh.evaluation.area.total() < rf.evaluation.area.total() * 1.6);
}

#[test]
fn stateful_modules_never_shared_across_contexts() {
    // wdf5 has five hierarchical nodes of one *stateful* callee: after any
    // amount of optimization, each must still own a distinct instance.
    let bench = benchmarks::wdf5();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let report = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 3.2)).unwrap();
    let b = &report.design.top.built.behaviors()[0];
    let mut by_sub = std::collections::HashMap::new();
    for (_, sub) in b.binding.hier_to_sub.iter() {
        *by_sub.entry(sub).or_insert(0) += 1;
    }
    for (sub, count) in by_sub {
        assert_eq!(count, 1, "stateful section shared on instance {sub:?}");
    }
}

#[test]
fn deeper_hierarchy_fft4_synthesizes() {
    let bench = benchmarks::fft4();
    assert_eq!(bench.hierarchy.depth(bench.hierarchy.top()), 3);
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let report = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 2.5)).unwrap();
    // The three-level hierarchy survives into the RTL: the top has
    // submodules which themselves have submodules.
    let top = &report.design.top.built;
    assert!(!top.subs().is_empty());
    assert!(
        top.subs().iter().any(|s| !s.subs().is_empty()),
        "stage modules should contain butterfly modules"
    );
}

#[test]
fn fsm_and_netlist_export_work_on_synthesized_designs() {
    let bench = benchmarks::lat();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let report = synthesize(&bench.hierarchy, &mlib, &quick(Objective::Area, true, 2.2)).unwrap();
    let design = &report.design;
    let fsm = hsyn::rtl::generate_fsm(&design.hierarchy, &design.top.built);
    assert!(fsm.state_count() >= 2);
    let text = hsyn::rtl::netlist_text(&design.hierarchy, &design.top.built, &mlib.simple);
    assert!(text.contains("module"));
    assert!(text.contains("behavior"));
}
