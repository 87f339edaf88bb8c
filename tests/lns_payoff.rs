//! What the large-neighborhood-search layer buys
//! ([`SynthesisConfig::lns_iters`]), on dct and iir at both objectives.
//!
//! Under a tight search budget the baseline pass loop converges fast, so
//! handing it 64 more passes must buy nothing: the final cost stays
//! bit-identical. The same run with 64 LNS ruin-and-recreate iterations
//! must end **strictly** cheaper. Only those two relations are asserted,
//! not the costs themselves: a fidelity change may move the numbers on
//! purpose, but must not erase the payoff.

use hsyn_core::{synthesize, Objective, SynthesisConfig};
use hsyn_lib::papers::table1_library;
use hsyn_rtl::ModuleLibrary;

/// Final cost of `bench` under the golden-snapshot budget (the flat
/// Table-1 library, two passes, two candidates per family) plus
/// `extra_passes` improvement passes and `lns_iters` LNS iterations.
fn final_cost(bench: &str, objective: Objective, extra_passes: usize, lns_iters: usize) -> f64 {
    let b = hsyn_dfg::benchmarks::by_name(bench).expect("known benchmark");
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();
    let mut cfg = SynthesisConfig::new(objective);
    cfg.laxity_factor = 2.2;
    cfg.max_passes = 2 + extra_passes;
    cfg.candidate_limit = 2;
    cfg.eval_trace_len = 8;
    cfg.report_trace_len = 16;
    cfg.max_clock_candidates = 2;
    cfg.resynth_depth = 1;
    cfg.parallelism = Some(1);
    cfg.lns_iters = lns_iters;
    synthesize(&b.hierarchy, &mlib, &cfg)
        .expect("benchmark synthesizes")
        .evaluation
        .cost
}

fn assert_lns_pays(bench: &str, objective: Objective) {
    let base = final_cost(bench, objective, 0, 0);
    let flat = final_cost(bench, objective, 64, 0);
    assert_eq!(
        base.to_bits(),
        flat.to_bits(),
        "{bench} {objective:?}: the converged baseline moved when handed 64 more passes \
         ({base} vs {flat})"
    );
    let lns = final_cost(bench, objective, 0, 64);
    assert!(
        lns < base,
        "{bench} {objective:?}: 64 LNS iterations must end strictly cheaper ({lns} vs {base})"
    );
}

#[test]
fn lns_pays_on_dct_area() {
    assert_lns_pays("dct", Objective::Area);
}

#[test]
fn lns_pays_on_dct_power() {
    assert_lns_pays("dct", Objective::Power);
}

#[test]
fn lns_pays_on_iir_area() {
    assert_lns_pays("iir", Objective::Area);
}

#[test]
fn lns_pays_on_iir_power() {
    assert_lns_pays("iir", Objective::Power);
}
