//! Width-certificate gate over the benchmark suite: for every built-in
//! benchmark and both objectives, the abstract interpreter's per-port
//! certificate must survive certified re-execution (every value truncated
//! to its certified width) byte-for-byte against the flattened behavioral
//! reference, the width-sized cost models must never exceed the baseline,
//! and the analysis must be deterministic. The full `result_json` of the
//! narrow-coefficient and memory benchmarks is pinned in
//! `tests/golden/analyze_*.json`
//! (`UPDATE_GOLDEN=1 cargo test --test analyze_certificates` regenerates).

use hsyn::core::{analyze, AnalyzeReport, Objective, SynthesisConfig};
use hsyn::dataflow::{analyze_hierarchy, certified_outputs, WidthCertificate};
use hsyn::dfg::{benchmarks, reference_outputs};
use hsyn::lib::papers::table1_library;
use hsyn::power::dsp_default;
use hsyn::rtl::ModuleLibrary;

mod common;
use common::check_golden;

const W: u32 = 16;

fn quick_config() -> SynthesisConfig {
    let mut config = SynthesisConfig::new(Objective::Area);
    config.laxity_factor = 2.2;
    config.max_passes = 1;
    config.candidate_limit = 2;
    config.eval_trace_len = 8;
    config.report_trace_len = 24;
    config.max_clock_candidates = 2;
    config
}

fn run_analyze(name: &str) -> AnalyzeReport {
    let bench = benchmarks::all()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    analyze(
        &bench.hierarchy,
        &mlib,
        &quick_config(),
        &[Objective::Area, Objective::Power],
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every benchmark's bare hierarchy: certified execution at the proven
/// widths reproduces the behavioral reference exactly on random traces.
#[test]
fn certificates_are_sound_on_every_benchmark() {
    for bench in benchmarks::all() {
        let h = &bench.hierarchy;
        let analysis = analyze_hierarchy(h, W).unwrap();
        let inputs = dsp_default(h.dfg(h.top()).input_count(), 64, W, 0xC0FFEE);
        let got = certified_outputs(h, analysis.certificate(), &inputs.samples, W)
            .unwrap_or_else(|v| panic!("{}: certificate violated: {v}", bench.name));
        let want = reference_outputs(&h.flatten(), &inputs.samples, W);
        assert_eq!(got, want, "{}: certified outputs diverge", bench.name);
    }
}

/// A certificate with every width at nominal is a no-op: certified
/// execution equals reference execution on the un-truncated design.
#[test]
fn uniform_certificate_is_bit_exact() {
    for bench in benchmarks::all() {
        let h = &bench.hierarchy;
        let cert = WidthCertificate::uniform(h, W);
        let inputs = dsp_default(h.dfg(h.top()).input_count(), 32, W, 7);
        let got = certified_outputs(h, &cert, &inputs.samples, W).unwrap();
        let want = reference_outputs(&h.flatten(), &inputs.samples, W);
        assert_eq!(got, want, "{}", bench.name);
    }
}

/// The acceptance criterion: width-certified sizing strictly reduces
/// reported area and power on the narrow-coefficient benchmarks, for both
/// objectives, while the oracle gate holds.
#[test]
fn sized_costs_improve_on_dct_and_iir() {
    for name in ["dct", "iir"] {
        let report = run_analyze(name);
        assert_eq!(report.objectives.len(), 2);
        for o in &report.objectives {
            assert_eq!(
                o.verified_iterations, 24,
                "{name} ({:?}): gate did not cover the report traces",
                o.objective
            );
            assert!(
                o.sized_area.total() < o.baseline.area.total(),
                "{name} ({:?}): sized area {} !< baseline {}",
                o.objective,
                o.sized_area.total(),
                o.baseline.area.total()
            );
            assert!(
                o.sized_power.power < o.baseline.power.power,
                "{name} ({:?}): sized power {} !< baseline {}",
                o.objective,
                o.sized_power.power,
                o.baseline.power.power
            );
            assert!(o.narrowed_ports > 0);
            assert!(o.narrowed_resources > 0);
        }
    }
}

/// Sizing is sound everywhere: on every benchmark the sized figures are
/// parity or better, never an inflation.
#[test]
fn sized_costs_never_exceed_baseline_anywhere() {
    for bench in benchmarks::all() {
        let report = run_analyze(bench.name);
        for o in &report.objectives {
            assert!(
                o.sized_area.total() <= o.baseline.area.total() + 1e-9,
                "{} ({:?})",
                bench.name,
                o.objective
            );
            assert!(
                o.sized_power.power <= o.baseline.power.power + 1e-12,
                "{} ({:?})",
                bench.name,
                o.objective
            );
        }
    }
}

/// Same design in, byte-identical `result_json` out.
#[test]
fn analyze_report_json_is_deterministic() {
    let a = run_analyze("fir8").result_json();
    let b = run_analyze("fir8").result_json();
    assert_eq!(a, b);
}

/// Baseline and width-sized pricing pinned bit for bit: every float of the
/// report (both objectives) rendered as its bit pattern. `dct` and `iir`
/// exercise narrowed FUs, registers and sinks; `matmul` the memory path.
#[test]
fn analyze_reports_match_golden_snapshots() {
    let mut drift = Vec::new();
    for name in ["dct", "iir", "matmul"] {
        let mut got = run_analyze(name).result_json();
        got.push('\n');
        check_golden(&format!("analyze_{name}"), &got, &mut drift);
    }
    assert!(
        drift.is_empty(),
        "analyze golden snapshots drifted (UPDATE_GOLDEN=1 regenerates them \
         if the change is deliberate):\n{}",
        drift.join("\n")
    );
}
