//! Randomized end-to-end check: for *random* behaviors, synthesis at a
//! random laxity must produce RTL that computes exactly the behavioral
//! semantics — the strongest cross-crate invariant in the suite (schedule,
//! binding, chaining, register sharing, and module moves all sit between
//! the DFG and the simulated outputs). Cases are generated from a fixed
//! seed, so failures reproduce exactly; set `HSYN_TEST_ITERS` to widen the
//! sweep locally.

mod common;

use common::{arb_behavior, reference, test_iters, W};
use hsyn::core::{synthesize, Objective, SynthesisConfig};
use hsyn::dfg::Hierarchy;
use hsyn::lib::papers::table1_library;
use hsyn::power::{dsp_default, simulate};
use hsyn::rtl::ModuleLibrary;
use hsyn_util::Rng;

#[test]
fn random_behaviors_synthesize_bit_exactly() {
    let cases = test_iters(24);
    let mut rng = Rng::seed_from_u64(0xE2E01);
    for _ in 0..cases {
        let g = arb_behavior(&mut rng);
        let laxity_pct = rng.range_i64(120, 319) as u32;
        let objective_area = rng.next_bool(0.5);
        let mut h = Hierarchy::new();
        let id = h.add_dfg(g.clone());
        h.set_top(id);
        assert!(h.validate().is_ok());

        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut config = SynthesisConfig::new(if objective_area {
            Objective::Area
        } else {
            Objective::Power
        });
        config.laxity_factor = f64::from(laxity_pct) / 100.0;
        config.max_passes = 2;
        config.candidate_limit = 2;
        config.eval_trace_len = 8;
        config.report_trace_len = 16;
        config.max_clock_candidates = 2;
        config.resynth_depth = 0;

        let report = synthesize(&h, &mlib, &config).expect("random behavior synthesizes");
        let traces = dsp_default(g.input_count(), 24, W, 1234);
        let expected = reference(&g, &traces);
        let got = simulate(&report.design.hierarchy, &report.design.top.built, &traces).outputs;
        assert_eq!(
            &got[0], &expected,
            "synthesized RTL diverges from the behavior"
        );
    }
}
