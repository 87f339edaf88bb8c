//! Seeded property test for shadow evaluation: random behaviors are
//! synthesized with [`SynthesisConfig::shadow_eval`] armed, so **every**
//! search evaluation runs both the incremental and the full path and panics
//! on the first bit-level divergence, naming the offending move and the
//! module path it dirtied. A completed run *is* the assertion. Cases come
//! from a fixed seed so failures reproduce exactly; set `HSYN_TEST_ITERS`
//! to widen the sweep locally.

mod common;

use common::{arb_behavior, test_iters};
use hsyn::core::{synthesize, Objective, SynthesisConfig};
use hsyn::dfg::Hierarchy;
use hsyn::lib::papers::table1_library;
use hsyn::rtl::ModuleLibrary;
use hsyn_util::Rng;

#[test]
fn shadow_synthesis_of_random_behaviors_never_diverges() {
    let cases = test_iters(8);
    let mut rng = Rng::seed_from_u64(0x5AD0E);
    for case in 0..cases {
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
        config.shadow_eval = true;

        // Any cache/full divergence panics inside the engine with the
        // offending move and dirty module path; reaching here means every
        // evaluation of this case was bit-identical on both paths.
        let report = synthesize(&h, &mlib, &config)
            .unwrap_or_else(|e| panic!("case {case}: shadow synthesis failed: {e}"));
        // The cached path really ran (shadow without cache traffic would
        // be vacuous); area mode has no cache, only its area walks.
        let s = &report.stats;
        if objective_area {
            assert!(
                s.modules_area_walked > 0 && (s.eval_cache_hits, s.eval_cache_misses) == (0, 0),
                "case {case}: area run walked no area or touched the cache: {s:?}"
            );
        } else {
            assert!(
                s.eval_cache_misses > 0,
                "case {case}: shadow run recorded no cache traffic"
            );
        }
    }
}
