//! The full [`SynthesisReport::result_json`] of every cell of the
//! power-refinement job list — the nine paper and memory-tier benchmarks ×
//! {hierarchical, flat} × laxity {1.2, 2.2}, without dct at 2.2, under
//! [`SweepConfig::quick`] with two LNS iterations — pinned as
//! `tests/golden/refine_power_<bench>_<hier|flat>_<laxity>.json`.
//!
//! These are the cells where the KL pass loop and LNS revisit designs they
//! have already scanned most often, so they pin every search shortcut
//! (memoized candidates, memoized move-*B* resynthesis) to the bytes the
//! plain search produces. Debug builds run the `lat` cells only; release
//! builds run all 34. `UPDATE_GOLDEN=1` regenerates the files after a
//! deliberate modeling change.

use hsyn::core::{synthesize, Objective};
use hsyn::dfg::benchmarks::{self, Benchmark};
use hsyn_bench::{benchmark_library, SweepConfig, LAXITIES};

mod common;
use common::check_golden;

/// LNS iterations per cell.
const LNS_ITERS: usize = 2;

/// The refinement cells: `(benchmark, laxity, hierarchical)`.
fn cells() -> Vec<(Benchmark, f64, bool)> {
    let mut suite = benchmarks::paper_suite();
    suite.extend(benchmarks::memory_suite());
    let mut out = Vec::new();
    for b in suite {
        if cfg!(debug_assertions) && b.name != "lat" {
            continue;
        }
        for &laxity in &LAXITIES[..2] {
            if laxity > LAXITIES[0] && b.name == "dct" {
                continue;
            }
            for hierarchical in [true, false] {
                out.push((b.clone(), laxity, hierarchical));
            }
        }
    }
    out
}

#[test]
fn refine_power_result_json_matches_goldens() {
    let mut drift = Vec::new();
    for (bench, laxity, hierarchical) in cells() {
        let mlib = benchmark_library(&bench);
        let mut config = SweepConfig::quick().to_config(Objective::Power, hierarchical, laxity);
        config.lns_iters = LNS_ITERS;
        let mode = if hierarchical { "hier" } else { "flat" };
        let report = synthesize(&bench.hierarchy, &mlib, &config)
            .unwrap_or_else(|e| panic!("{} {mode} {laxity}: {e}", bench.name));
        let mut got = report.result_json();
        got.push('\n');
        check_golden(
            &format!("refine_power_{}_{mode}_{laxity}", bench.name),
            &got,
            &mut drift,
        );
    }
    assert!(
        drift.is_empty(),
        "refine_power result_json goldens drifted (UPDATE_GOLDEN=1 regenerates \
         them if the change is deliberate):\n{}",
        drift.join("\n")
    );
}
