//! The physical-work budget: per cell of the two in-process perfbench job
//! lists — the 34 `refine_power` cells ([`SweepConfig::quick`], two LNS
//! iterations) and the 18 `sweep_area` cells at laxity 2.2
//! ([`SweepConfig::default`]) — the kernel trace iterations and the misses
//! of every memo ([`MoveStats::memo`]), pinned in
//! `tests/golden/work_budget.json`, one line per cell.
//!
//! The `result_json` goldens pin *logical* work, which every memo replays
//! by design; these counters are the work the memos and the value streams
//! save, so a memo whose key silently narrowed, or a kernel run that came
//! back, shows here. The counts are deterministic at any thread count
//! (each memo lives inside one engine). A change that lowers one
//! regenerates the file with `UPDATE_GOLDEN=1` and lists the diff in
//! CHANGES.md. Debug builds run the `lat` cells only and check each of
//! their lines against the file; release builds run and pin every cell.

use hsyn::core::{synthesize, MoveStats, Objective};
use hsyn::dfg::benchmarks;
use hsyn_bench::{benchmark_library, SweepConfig, LAXITIES};

mod common;
use common::check_golden;

/// LNS iterations per `refine_power` cell.
const LNS_ITERS: usize = 2;

/// The laxity of the `sweep_area` cells.
const SWEEP_LAXITY: f64 = 2.2;

/// One pinned line: the cell's name and its counters.
fn line(name: &str, s: &MoveStats) -> String {
    let m = &s.memo;
    format!(
        "  \"{name}\": {{\"kernel_iterations\": {}, \"area\": {}, \"design\": {}, \
         \"stream\": {}, \"candidate\": {}, \"move_b\": {}}}",
        s.kernel_iterations,
        m.area.misses,
        m.design.misses,
        m.stream.misses,
        m.candidate.misses,
        m.move_b.misses,
    )
}

/// Every cell's line, `refine_power` cells first, in suite order.
fn lines() -> Vec<String> {
    let mut suite = benchmarks::paper_suite();
    suite.extend(benchmarks::memory_suite());
    let mut jobs: Vec<(&str, Objective, SweepConfig, usize, f64)> = Vec::new();
    for &laxity in &LAXITIES[..2] {
        jobs.push((
            "refine_power",
            Objective::Power,
            SweepConfig::quick(),
            LNS_ITERS,
            laxity,
        ));
    }
    jobs.push((
        "sweep_area",
        Objective::Area,
        SweepConfig::default(),
        0,
        SWEEP_LAXITY,
    ));
    let mut out = Vec::new();
    for (workload, objective, sweep, lns_iters, laxity) in jobs {
        for bench in &suite {
            if cfg!(debug_assertions) && bench.name != "lat" {
                continue;
            }
            if workload == "refine_power" && laxity > LAXITIES[0] && bench.name == "dct" {
                continue;
            }
            let mlib = benchmark_library(bench);
            for hierarchical in [true, false] {
                let mut config = sweep.to_config(objective, hierarchical, laxity);
                config.lns_iters = lns_iters;
                let mode = if hierarchical { "hier" } else { "flat" };
                let name = format!("{workload} {} {mode} {laxity}", bench.name);
                let report = synthesize(&bench.hierarchy, &mlib, &config)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                out.push(line(&name, &report.stats));
            }
        }
    }
    out
}

#[test]
fn physical_work_matches_the_budget() {
    let lines = lines();
    if cfg!(debug_assertions) {
        // Only the `lat` cells ran: each must be a line of the file.
        let golden = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work_budget.json"),
        )
        .expect("tests/golden/work_budget.json (a release run with UPDATE_GOLDEN=1 writes it)");
        let pinned: Vec<&str> = golden.lines().map(|l| l.trim_end_matches(',')).collect();
        for l in &lines {
            assert!(
                pinned.contains(&l.as_str()),
                "work budget drifted (a release run with UPDATE_GOLDEN=1 regenerates \
                 the file if the change is deliberate):\n{l}"
            );
        }
        return;
    }
    let got = format!("{{\n{}\n}}\n", lines.join(",\n"));
    let mut drift = Vec::new();
    check_golden("work_budget", &got, &mut drift);
    assert!(
        drift.is_empty(),
        "work budget drifted (UPDATE_GOLDEN=1 regenerates the file if the change \
         is deliberate):\n{}",
        drift.join("\n")
    );
}
