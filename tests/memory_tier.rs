//! The memory benchmark tier end to end: matmul / fir_block / conv2d
//! synthesize at both objectives with memories priced into area and energy,
//! survive the paranoid + cosim gates, produce byte-identical reports
//! across runs and worker counts, and demonstrably reschedule when the
//! bank constraint changes. Headline numbers are pinned in
//! `tests/golden/*.json` exactly like the paper suite
//! (`UPDATE_GOLDEN=1 cargo test --test memory_tier` regenerates).

use hsyn::core::{
    initial_solution, synthesize, DesignPoint, Objective, OperatingPoint, SynthesisConfig,
    SynthesisReport,
};
use hsyn::dfg::benchmarks::{self, Benchmark};
use hsyn::lib::papers::table1_library;
use hsyn::rtl::ModuleLibrary;
use hsyn_util::Json;

mod common;
use common::check_golden;

fn config(objective: Objective) -> SynthesisConfig {
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

fn run(bench: &Benchmark, config: &SynthesisConfig) -> SynthesisReport {
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    synthesize(&bench.hierarchy, &mlib, config)
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", bench.name))
}

/// The pinned surface of one report: the paper-suite headline numbers plus
/// the memory slices of both cost models, each float carried readable and
/// bit-exact.
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
    float(&mut obj, "area_mem", report.evaluation.area.mem);
    float(&mut obj, "power", report.evaluation.power.power);
    float(
        &mut obj,
        "energy_mem",
        report.evaluation.power.energy_breakdown.mem,
    );
    float(&mut obj, "vdd", report.design.op.vdd);
    float(&mut obj, "clk_ns", report.design.op.clk_ref_ns);
    let mut text = Json::Obj(obj).to_string_pretty();
    text.push('\n');
    text
}

/// Every memory benchmark synthesizes at both objectives with the paranoid
/// cross-layer invariants and the cosim gate on, memories show up in both
/// cost models, and the headline numbers match the pinned goldens.
#[test]
fn memory_suite_synthesizes_and_matches_goldens() {
    let mut drift = Vec::new();
    for bench in benchmarks::memory_suite() {
        for objective in [Objective::Area, Objective::Power] {
            let mut c = config(objective);
            c.paranoid = true;
            c.cosim_check = true;
            let report = run(&bench, &c);
            assert!(
                report.evaluation.area.mem > 0.0,
                "{}: owned banks must be priced into area",
                bench.name
            );
            if matches!(objective, Objective::Power) {
                assert!(
                    report.evaluation.power.energy_breakdown.mem > 0.0,
                    "{}: loads/stores must be priced into energy",
                    bench.name
                );
            }
            let obj = match objective {
                Objective::Area => "area",
                Objective::Power => "power",
            };
            check_golden(
                &format!("{}_{obj}", bench.name),
                &snapshot(&report),
                &mut drift,
            );
        }
    }
    assert!(
        drift.is_empty(),
        "memory-tier golden snapshots drifted (UPDATE_GOLDEN=1 regenerates \
         them if the change is deliberate):\n{}",
        drift.join("\n")
    );
}

/// Reports are a pure function of the configuration: byte-identical across
/// repeated runs and across `(Vdd, clk)` sweep worker counts 1 / 2 / 4.
#[test]
fn memory_suite_reports_are_deterministic_across_worker_counts() {
    for bench in benchmarks::memory_suite() {
        for objective in [Objective::Area, Objective::Power] {
            let mut c = config(objective);
            c.parallelism = Some(1);
            let base = run(&bench, &c).result_json();
            assert_eq!(
                base,
                run(&bench, &c).result_json(),
                "{} ({objective:?}): diverged across repeated runs",
                bench.name
            );
            for workers in [2usize, 4] {
                c.parallelism = Some(workers);
                assert_eq!(
                    base,
                    run(&bench, &c).result_json(),
                    "{} ({objective:?}): diverged at {workers} sweep workers",
                    bench.name
                );
            }
        }
    }
}

/// Bank-conflict scheduling is live. Independent constant-address loads on
/// a single-ported memory serialize one per cycle when every word shares
/// one bank, and issue in parallel once the words spread across banks —
/// writes stay serialized by the hazard ordering regardless, so loads are
/// where banking shows up. Both makespans are pinned in a golden file so a
/// silent constraint regression (e.g. the serial edges dropping out) fails
/// loudly.
/// y = Σ t[i] for i in 0..4 over a single-ported 4-word table: the loads
/// are data-independent, so banking is the only thing deciding whether
/// they issue together or one per cycle.
fn table_sum_with_banks(banks: u32) -> hsyn::dfg::Hierarchy {
    use hsyn::dfg::{Dfg, Hierarchy, MemObject, Operation};
    let mut g = Dfg::new("table_sum");
    let t = g.add_mem(MemObject::owned("t", 4, 16).with_banks(banks));
    let seed = g.add_input("seed");
    let w0 = g.add_const("w0", 0);
    let st = g.add_store(t, "st", w0, seed);
    let _ = st;
    let loads: Vec<_> = (0..4)
        .map(|i| {
            let a = g.add_const(format!("a{i}"), i);
            g.add_load(t, format!("l{i}"), a)
        })
        .collect();
    let s0 = g.add_op(Operation::Add, "s0", &[loads[0], loads[1]]);
    let s1 = g.add_op(Operation::Add, "s1", &[loads[2], loads[3]]);
    let y = g.add_op(Operation::Add, "y", &[s0, s1]);
    g.add_output("y_out", y);
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    h
}

#[test]
fn bank_constraint_demonstrably_changes_the_schedule() {
    let design_with_banks = table_sum_with_banks;
    let mlib = ModuleLibrary::from_simple(table1_library());
    let op = OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 100_000.0);
    let makespan = |banks: u32| -> u32 {
        let h = design_with_banks(banks);
        let top = initial_solution(&h, &mlib, &op).expect("table_sum builds");
        let dp = DesignPoint {
            hierarchy: h,
            op,
            top,
        };
        dp.top.built.behaviors()[0].schedule.makespan()
    };
    let serialized = makespan(1);
    let unconstrained = makespan(4); // one bank per word
    assert!(
        serialized > unconstrained,
        "bank constraint must lengthen the schedule: 1 bank → {serialized} \
         cycles vs 4 banks → {unconstrained}"
    );
    let got = format!(
        "{}\n",
        Json::Obj(vec![
            ("makespan_1_bank".to_owned(), Json::Num(serialized.into())),
            (
                "makespan_4_banks".to_owned(),
                Json::Num(unconstrained.into())
            ),
        ])
        .to_string_pretty()
    );
    let mut drift = Vec::new();
    check_golden("bank_conflict", &got, &mut drift);
    assert!(
        drift.is_empty(),
        "bank-conflict schedule golden drifted:\n{}",
        drift.join("\n")
    );
}

/// MEM003 fires on a genuinely overcommitted schedule. Build table_sum at
/// 4 banks (loads issue in parallel), then shrink the memory to one bank
/// *without* rescheduling — exactly the stale-schedule hazard the move
/// engine's sole-executor check on `RebankMem` exists to prevent — and the
/// design verifier must flag the port overcommit as an error.
#[test]
fn stale_bank_constraint_is_caught_by_mem003() {
    use hsyn::lint::{verify_design, DesignView, RuleCode, Severity};
    let mlib = ModuleLibrary::from_simple(table1_library());
    let op = OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 100_000.0);
    let mut h = table_sum_with_banks(4);
    let top = initial_solution(&h, &mlib, &op).expect("table_sum builds");
    let tid = h.top();
    let mems: Vec<_> = h.dfg(tid).mems().map(|(id, _)| id).collect();
    for m in mems {
        h.dfg_mut(tid).set_mem_banks(m, 1);
    }
    let dp = DesignPoint {
        hierarchy: h,
        op,
        top,
    };
    let diags = verify_design(&DesignView {
        hierarchy: &dp.hierarchy,
        module: &dp.top.built,
        lib: &mlib.simple,
        vdd: dp.op.vdd,
        clk_ns: dp.op.clk_ref_ns,
        sampling_period: dp.top.core.deadline,
    });
    assert!(
        diags
            .iter()
            .any(|d| d.code == RuleCode::Mem003 && d.severity == Severity::Error),
        "stale single-bank schedule must trip MEM003: {diags:?}"
    );
}
