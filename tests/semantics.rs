//! Semantic preservation across the flow: the synthesized, scheduled, bound
//! RTL (hierarchical or flattened) computes exactly what the behavioral
//! description says, including stateful filters — verified by bit-true
//! simulation against an independent reference evaluator.

use hsyn::core::{synthesize, Objective, SynthesisConfig};
use hsyn::dfg::benchmarks::{self, Benchmark};
use hsyn::dfg::reference_outputs;
use hsyn::lib::papers::table1_library;
use hsyn::power::{dsp_default, simulate};
use hsyn::rtl::ModuleLibrary;

const W: u32 = 16;

fn check_semantics(bench: &Benchmark, hierarchical: bool) {
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let mut config = SynthesisConfig::new(Objective::Area);
    config.laxity_factor = 2.2;
    config.hierarchical = hierarchical;
    config.max_passes = 3;
    config.candidate_limit = 3;
    config.eval_trace_len = 16;
    config.max_clock_candidates = 2;
    let report = synthesize(&bench.hierarchy, &mlib, &config)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));

    let flat = bench.hierarchy.flatten();
    let traces = dsp_default(flat.input_count(), 40, W, 99);
    let expected = reference_outputs(&flat, &traces.samples, W);
    let got = simulate(&report.design.hierarchy, &report.design.top.built, &traces).outputs;
    assert_eq!(got.len(), expected.len(), "{}", bench.name);
    for (o, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            g,
            e,
            "{} output {o} ({})",
            bench.name,
            if hierarchical { "hier" } else { "flat" }
        );
    }
}

#[test]
fn synthesized_lat_matches_reference() {
    check_semantics(&benchmarks::lat(), true);
    check_semantics(&benchmarks::lat(), false);
}

#[test]
fn synthesized_iir_matches_reference() {
    check_semantics(&benchmarks::iir(), true);
    check_semantics(&benchmarks::iir(), false);
}

#[test]
fn synthesized_paulin_matches_reference() {
    check_semantics(&benchmarks::paulin(), true);
}

#[test]
fn synthesized_hier_paulin_matches_reference() {
    check_semantics(&benchmarks::hier_paulin(), true);
}

#[test]
fn synthesized_avenhaus_matches_reference() {
    check_semantics(&benchmarks::avenhaus_cascade(), true);
}

#[test]
fn synthesized_fir8_matches_reference() {
    // Delayed edges feeding a hierarchical node (the tapped delay line).
    check_semantics(&benchmarks::fir8(), true);
    check_semantics(&benchmarks::fir8(), false);
}

#[test]
fn synthesized_wdf5_matches_reference() {
    // Five stateful allpass sections: the engine must never fold two of
    // them onto one module instance.
    check_semantics(&benchmarks::wdf5(), true);
}
