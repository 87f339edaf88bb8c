//! LNS determinism: ruin-and-recreate refinement is a pure function of the
//! design and [`SynthesisConfig::seed`] — no wall-clock, no thread
//! scheduling, no iteration-order dependence. For every paper-suite
//! benchmark at both objectives, synthesis with `lns_iters` on must
//! produce byte-identical [`SynthesisReport::result_json`]:
//!
//! * across repeated runs of the same configuration, and
//! * across 1, 2, and 4 workers for the `(Vdd, clk)` sweep — each
//!   configuration's LNS stream is seeded from its own operating point, so
//!   the worker count can only change wall-clock, never the result.
//!
//! The canonical JSON pins the LNS counters (`lns_ruins`, `lns_accepts`)
//! alongside every per-config cost, so a single diverging ruin or accept
//! anywhere in the sweep fails the comparison.
//!
//! The quick default covers two benchmarks; set `HSYN_LNS_ALL=1` (the CI
//! `lns` job does) to sweep the full paper suite.

use hsyn::core::{synthesize, Objective, SynthesisConfig, SynthesisReport};
use hsyn::dfg::benchmarks::{self, Benchmark};
use hsyn::lib::papers::table1_library;
use hsyn::rtl::ModuleLibrary;

fn config(objective: Objective, workers: usize) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.laxity_factor = 2.2;
    c.max_passes = 3;
    c.candidate_limit = 3;
    c.eval_trace_len = 16;
    c.report_trace_len = 32;
    c.max_clock_candidates = 2;
    c.resynth_depth = 1;
    c.lns_iters = 6;
    c.parallelism = Some(workers);
    c
}

fn run(bench: &Benchmark, objective: Objective, workers: usize) -> SynthesisReport {
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    synthesize(&bench.hierarchy, &mlib, &config(objective, workers))
        .unwrap_or_else(|e| panic!("{} ({objective:?}): synthesis failed: {e}", bench.name))
}

/// Benchmarks under test: a small always-on set, widened to the full
/// paper suite when `HSYN_LNS_ALL` is set.
fn suite() -> Vec<Benchmark> {
    if std::env::var_os("HSYN_LNS_ALL").is_some() {
        benchmarks::paper_suite()
    } else {
        vec![benchmarks::paulin(), benchmarks::iir()]
    }
}

#[test]
fn lns_result_json_is_identical_across_runs_and_worker_counts() {
    for bench in suite() {
        for objective in [Objective::Area, Objective::Power] {
            let baseline = run(&bench, objective, 1);
            assert!(
                baseline.stats.lns_ruins > 0,
                "{} ({objective:?}): the determinism check must exercise LNS",
                bench.name
            );
            let base_json = baseline.result_json();
            // Repeated run, same configuration: byte-identical.
            assert_eq!(
                base_json,
                run(&bench, objective, 1).result_json(),
                "{} ({objective:?}): result_json diverged across repeated runs",
                bench.name
            );
            // Same seed across sweep worker counts: byte-identical.
            for workers in [2usize, 4] {
                assert_eq!(
                    base_json,
                    run(&bench, objective, workers).result_json(),
                    "{} ({objective:?}): result_json diverged at {workers} sweep workers",
                    bench.name
                );
            }
        }
    }
}
