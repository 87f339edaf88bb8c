//! Differential harness for the incremental-evaluation cache. Every search
//! evaluation goes through the cache; shadow mode also runs the uncached
//! reference on each one and panics on the first bit-level divergence. A
//! shadow-checked run must therefore never panic, and must be the **same
//! search with the same result** as a plain run, compared byte-for-byte
//! through the canonical [`SynthesisReport::result_json`] rendering (every
//! float as its exact bit pattern, structural fingerprints standing in for
//! the designs).
//!
//! The quick tier runs every built-in benchmark × {Area, Power}
//! hierarchically on one seed, plus `lat` and `iir` flattened; release
//! builds widen to every benchmark × {hierarchical, flat} and (with
//! `HSYN_EQUIV_SEEDS=n`) three seeds per cell, which is the matrix the CI
//! release job enforces. Flat designs are where the whole-design memo and
//! the simulation kernel do most of their work.

use hsyn::core::{synthesize, Objective, SynthesisConfig};
use hsyn::dfg::benchmarks;
use hsyn::lib::papers::table1_library;
use hsyn::rtl::ModuleLibrary;
use hsyn_util::Json;

fn tiny(objective: Objective, seed: u64, hierarchical: bool) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.hierarchical = hierarchical;
    c.laxity_factor = 2.2;
    c.max_passes = 2;
    c.candidate_limit = 2;
    c.eval_trace_len = 8;
    c.report_trace_len = 16;
    c.max_clock_candidates = 2;
    c.resynth_depth = 1;
    c.seed = seed;
    c
}

/// Shadow mode compares every cached search evaluation with the uncached
/// reference bit for bit, so a shadow-checked run that completes proves
/// cached and uncached evaluation agree at every candidate; its report
/// must then equal the plain run's.
#[test]
fn cached_and_uncached_synthesis_are_byte_identical() {
    let seeds: &[u64] = &[0xDAC_1998, 1, 42];
    let seed_count: usize = std::env::var("HSYN_EQUIV_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 1 } else { 3 })
        .min(seeds.len());
    for bench in benchmarks::all() {
        // Debug builds run flat only where it is cheap.
        let flat = !cfg!(debug_assertions) || ["lat", "iir"].contains(&bench.name);
        let forms: &[bool] = if flat { &[true, false] } else { &[true] };
        for objective in [Objective::Area, Objective::Power] {
            for &hierarchical in forms {
                for &seed in &seeds[..seed_count] {
                    let form = if hierarchical { "hier" } else { "flat" };
                    let mut mlib = ModuleLibrary::from_simple(table1_library());
                    mlib.equiv = bench.equiv.clone();

                    let plain = tiny(objective, seed, hierarchical);
                    let mut shadow = plain.clone();
                    shadow.shadow_eval = true;

                    let r_plain = synthesize(&bench.hierarchy, &mlib, &plain)
                        .unwrap_or_else(|e| panic!("{} {form} plain: {e}", bench.name));
                    let r_shadow = synthesize(&bench.hierarchy, &mlib, &shadow)
                        .unwrap_or_else(|e| panic!("{} {form} shadow-checked: {e}", bench.name));

                    let j_plain = r_plain.result_json();
                    let j_shadow = r_shadow.result_json();
                    // The rendering must be well-formed JSON (the codec is the
                    // comparison surface, so it has to parse on both sides).
                    Json::parse(&j_plain).expect("plain result_json parses");
                    Json::parse(&j_shadow).expect("shadow-checked result_json parses");
                    assert_eq!(
                        j_plain, j_shadow,
                        "{} {form} {objective:?} seed {seed:#x}: shadow-checked and \
                         plain synthesis diverged",
                        bench.name
                    );
                    // The search actually priced designs — power mode through
                    // the cache, area mode by its plain area walk, which has
                    // no cache traffic — and both runs drove it identically.
                    let s = &r_plain.stats;
                    match objective {
                        Objective::Power => assert!(
                            s.eval_cache_misses > 0,
                            "{}: run recorded no cache traffic",
                            bench.name
                        ),
                        Objective::Area => assert!(
                            s.modules_area_walked > 0
                                && (s.eval_cache_hits, s.eval_cache_misses) == (0, 0),
                            "{}: area run walked no area or touched the cache: {s:?}",
                            bench.name
                        ),
                    }
                    assert_eq!(
                        r_plain.stats, r_shadow.stats,
                        "{}: shadow checking changed the engine's counters",
                        bench.name
                    );
                }
            }
        }
    }
}

#[test]
fn shadow_mode_is_observation_only() {
    // Shadow evaluation runs both paths and panics on divergence; on a
    // legal run it must not change the search either.
    let bench = benchmarks::test1();
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let plain = tiny(Objective::Power, 7, true);
    let mut shadow = plain.clone();
    shadow.shadow_eval = true;
    let r_plain = synthesize(&bench.hierarchy, &mlib, &plain).unwrap();
    let r_shadow = synthesize(&bench.hierarchy, &mlib, &shadow).unwrap();
    assert_eq!(r_plain.result_json(), r_shadow.result_json());
    // Shadow mode books the reference evaluations to the verifier time;
    // the plain run (paranoid off) books nothing there.
    assert!(r_shadow
        .per_config
        .iter()
        .all(|c| c.verify_s > 0.0 && c.eval_incr_s > 0.0));
    assert!(r_plain.per_config.iter().all(|c| c.verify_s == 0.0));
}
