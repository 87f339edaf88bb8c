//! Golden snapshot tests: the headline numbers of every paper-suite
//! benchmark at both objectives — final area, power, supply voltage and
//! clock period — are pinned in `tests/golden/*.json`, with every float
//! carried both human-readable and as its exact bit pattern. The full
//! [`SynthesisReport::result_json`] of every registry benchmark at both
//! objectives is pinned too (`tests/golden/result_*.json`), so the engine's
//! deterministic work counters (`evaluated`, `rejected`, `passes`,
//! `applied_*`) are a regression gate as well. A perf PR (incremental
//! evaluation, parallelism, memoization, …) must not shift any of them; a
//! deliberate modeling change regenerates the files with
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots`.

use hsyn::core::{synthesize, Objective, SynthesisConfig, SynthesisReport};
use hsyn::dfg::benchmarks;
use hsyn::lib::papers::table1_library;
use hsyn::power::{dsp_default, per_module_energy};
use hsyn::rtl::{netlist_text, ModuleLibrary};
use hsyn_util::Json;

mod common;
use common::{check_golden, check_golden_file};

fn golden_config(objective: Objective) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.laxity_factor = 2.2;
    c.max_passes = 2;
    c.candidate_limit = 2;
    c.eval_trace_len = 8;
    c.report_trace_len = 16;
    c.max_clock_candidates = 2;
    c.resynth_depth = 1;
    c
}

/// The pinned surface: each float twice, readable and bit-exact. The
/// comparison is byte-level on the rendered JSON, so the `_bits` fields
/// make even sub-ulp drift fail loudly while the plain fields keep the
/// diff reviewable.
fn snapshot(report: &SynthesisReport) -> String {
    fn float(obj: &mut Vec<(String, Json)>, name: &str, v: f64) {
        obj.push((name.to_owned(), Json::Num(v)));
        obj.push((
            format!("{name}_bits"),
            Json::Str(format!("{:016x}", v.to_bits())),
        ));
    }
    let mut obj = Vec::new();
    float(&mut obj, "area", report.evaluation.area.total());
    float(&mut obj, "power", report.evaluation.power.power);
    float(&mut obj, "vdd", report.design.op.vdd);
    float(&mut obj, "clk_ns", report.design.op.clk_ref_ns);
    let mut text = Json::Obj(obj).to_string_pretty();
    text.push('\n');
    text
}

fn golden_name(name: &str, objective: Objective, suffix: &str) -> String {
    let obj = match objective {
        Objective::Area => "area",
        Objective::Power => "power",
    };
    format!("{name}_{obj}{suffix}")
}

#[test]
fn paper_suite_matches_golden_snapshots() {
    let mut drift = Vec::new();
    for bench in benchmarks::paper_suite() {
        for objective in [Objective::Area, Objective::Power] {
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            let report = synthesize(&bench.hierarchy, &mlib, &golden_config(objective))
                .unwrap_or_else(|e| panic!("{} {objective:?}: {e}", bench.name));
            check_golden(
                &golden_name(bench.name, objective, ""),
                &snapshot(&report),
                &mut drift,
            );
        }
    }
    assert!(
        drift.is_empty(),
        "golden snapshots drifted (UPDATE_GOLDEN=1 regenerates them if the \
         change is deliberate):\n{}",
        drift.join("\n")
    );
}

/// The whole canonical `result_json` — final design fingerprint, every
/// evaluation float as bits, the work counters and the per-configuration
/// telemetry — of every registry benchmark at both objectives, pinned as
/// `tests/golden/result_<bench>_<obj>.json`.
#[test]
fn registry_result_json_matches_goldens() {
    let mut drift = Vec::new();
    for bench in benchmarks::all() {
        for objective in [Objective::Area, Objective::Power] {
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            let report = synthesize(&bench.hierarchy, &mlib, &golden_config(objective))
                .unwrap_or_else(|e| panic!("{} {objective:?}: {e}", bench.name));
            let mut got = report.result_json();
            got.push('\n');
            check_golden(
                &format!("result_{}", golden_name(bench.name, objective, "")),
                &got,
                &mut drift,
            );
        }
    }
    assert!(
        drift.is_empty(),
        "result_json goldens drifted (UPDATE_GOLDEN=1 regenerates them if \
         the change is deliberate):\n{}",
        drift.join("\n")
    );
}

/// The same pinned surface with LNS refinement on (`*_lns.json` files),
/// plus the parity-or-better guard: for every benchmark × objective, the
/// LNS run's final cost must never exceed the LNS-off run's — refinement
/// starts from the converged design and only commits strict improvements,
/// so any regression here is an engine bug, not a tuning matter.
#[test]
fn paper_suite_matches_lns_golden_snapshots() {
    let mut drift = Vec::new();
    for bench in benchmarks::paper_suite() {
        for objective in [Objective::Area, Objective::Power] {
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            let plain = synthesize(&bench.hierarchy, &mlib, &golden_config(objective))
                .unwrap_or_else(|e| panic!("{} {objective:?}: {e}", bench.name));
            let mut config = golden_config(objective);
            config.lns_iters = 4;
            let report = synthesize(&bench.hierarchy, &mlib, &config)
                .unwrap_or_else(|e| panic!("{} {objective:?} (lns): {e}", bench.name));
            assert!(
                report.evaluation.cost <= plain.evaluation.cost,
                "{} {objective:?}: LNS ended worse than LNS-off ({} vs {})",
                bench.name,
                report.evaluation.cost,
                plain.evaluation.cost
            );
            check_golden(
                &golden_name(bench.name, objective, "_lns"),
                &snapshot(&report),
                &mut drift,
            );
        }
    }
    assert!(
        drift.is_empty(),
        "LNS golden snapshots drifted (UPDATE_GOLDEN=1 regenerates them if \
         the change is deliberate):\n{}",
        drift.join("\n")
    );
}

/// The rendered [`netlist_text`] of the final design of `test1` (whose
/// area and power designs both hold RTL-embedded children, with their
/// `q` registers and the functional-unit names embedding copies over),
/// `paulin`, and flattened `dct`, at both objectives, pinned as
/// `tests/golden/netlist_<bench>_<obj>.txt`: every instance name, mux leg
/// and area figure.
#[test]
fn final_netlists_match_goldens() {
    let mut drift = Vec::new();
    for (name, hierarchical) in [("test1", true), ("paulin", true), ("dct", false)] {
        let bench = benchmarks::by_name(name).expect("built-in benchmark");
        for objective in [Objective::Area, Objective::Power] {
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            let mut config = golden_config(objective);
            config.hierarchical = hierarchical;
            let report = synthesize(&bench.hierarchy, &mlib, &config)
                .unwrap_or_else(|e| panic!("{name} {objective:?}: {e}"));
            let d = &report.design;
            let suffix = if hierarchical { "" } else { "_flat" };
            check_golden_file(
                &format!("netlist_{}.txt", golden_name(name, objective, suffix)),
                &netlist_text(&d.hierarchy, &d.top.built, &mlib.simple),
                &mut drift,
            );
        }
    }
    assert!(
        drift.is_empty(),
        "netlist goldens drifted (UPDATE_GOLDEN=1 regenerates them if the \
         change is deliberate):\n{}",
        drift.join("\n")
    );
}

/// The per-module power attribution ([`per_module_energy`], the
/// `--power-report` path) of the final power-objective design of `iir`,
/// `matmul` (memories at two levels) and `test1` (embedded modules), on
/// the report traces the CLI draws, pinned as
/// `tests/golden/power_modules_<bench>.txt`: one line per instance, every
/// float at full precision.
#[test]
fn per_module_power_matches_goldens() {
    let mut drift = Vec::new();
    for name in ["iir", "matmul", "test1"] {
        let bench = benchmarks::by_name(name).expect("built-in benchmark");
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = bench.equiv.clone();
        let config = golden_config(Objective::Power);
        let report =
            synthesize(&bench.hierarchy, &mlib, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let d = &report.design;
        let traces = dsp_default(
            d.hierarchy.dfg(d.top.core.dfg).input_count(),
            config.report_trace_len,
            config.width,
            config.seed ^ 0x5eed,
        );
        let mut text = String::new();
        for m in per_module_energy(&d.hierarchy, &d.top.built, &mlib.simple, &traces) {
            let b = &m.breakdown;
            text.push_str(&format!(
                "{} fu {:?} reg {:?} mux {:?} wire {:?} controller {:?} mem {:?} clock {:?} subs {:?}\n",
                m.path, b.fu, b.reg, b.mux, b.wire, b.controller, b.mem, b.clock, b.subs
            ));
        }
        check_golden_file(&format!("power_modules_{name}.txt"), &text, &mut drift);
    }
    assert!(
        drift.is_empty(),
        "per-module power goldens drifted (UPDATE_GOLDEN=1 regenerates them \
         if the change is deliberate):\n{}",
        drift.join("\n")
    );
}
