//! The datapath view every module stores — the per-sink source counts and
//! the binding's control bits the area and energy models read — must equal
//! a from-scratch derivation (`connectivity` counts and
//! `control_bit_count`) on every module the engine produces: hierarchical
//! and flat, after every accepted move (paranoid mode re-checks the whole
//! tree after each one, `RTL008`), and on modules merged by RTL embedding.

use hsyn::core::{synthesize, Objective, SynthesisConfig};
use hsyn::dfg::{benchmarks, DfgId, Hierarchy, NodeKind};
use hsyn::lib::papers::{table1_library, TABLE1_CLOCK_NS};
use hsyn::rtl::{build, embed, view_mismatch, BuildCtx, ModuleLibrary, ModuleSpec, RtlModule};

/// Assert the view of `m` and of every submodule matches.
fn assert_tree_matches(h: &Hierarchy, m: &RtlModule, path: &str) {
    assert_eq!(view_mismatch(h, m), None, "module {path}");
    for s in m.subs() {
        assert_tree_matches(h, s, &format!("{path}/{}", s.name()));
    }
}

#[test]
fn every_registry_module_view_matches_a_fresh_derivation() {
    for bench in benchmarks::all() {
        for hierarchical in [true, false] {
            let label = format!(
                "{} ({})",
                bench.name,
                if hierarchical { "hier" } else { "flat" }
            );
            let mut mlib = ModuleLibrary::from_simple(table1_library());
            mlib.equiv = bench.equiv.clone();
            // Small budgets: the point is every accepted design shape.
            let mut c = SynthesisConfig::new(Objective::Power);
            c.laxity_factor = 2.2;
            c.hierarchical = hierarchical;
            c.max_passes = 2;
            c.candidate_limit = 2;
            c.eval_trace_len = 8;
            c.report_trace_len = 16;
            c.max_clock_candidates = 2;
            c.resynth_depth = 1;
            c.paranoid = true;
            let report = synthesize(&bench.hierarchy, &mlib, &c)
                .unwrap_or_else(|e| panic!("{label}: synthesis failed: {e}"));
            assert!(
                report.skipped_configs.iter().all(|s| s.rule.is_none()),
                "{label}: the paranoid verifier failed: {:?}",
                report.skipped_configs
            );
            let d = &report.design;
            assert_tree_matches(&d.hierarchy, &d.top.built, &label);
        }
    }
}

#[test]
fn embedded_module_view_matches_a_fresh_derivation() {
    // The first registry hierarchy with two distinct leaf behaviors (no
    // hierarchical nodes).
    let leaves_of = |h: &Hierarchy| -> Vec<DfgId> {
        h.dfgs()
            .filter(|(_, g)| {
                g.nodes()
                    .all(|(_, n)| !matches!(n.kind(), NodeKind::Hier { .. }))
            })
            .map(|(id, _)| id)
            .take(2)
            .collect()
    };
    let bench = benchmarks::all()
        .into_iter()
        .find(|b| leaves_of(&b.hierarchy).len() == 2)
        .expect("a registry benchmark with two leaf behaviors");
    let h = &bench.hierarchy;
    let leaves = leaves_of(h);
    let lib = table1_library();
    let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, lib.technology.vref(), None);
    let built: Vec<RtlModule> = leaves
        .iter()
        .map(|&id| {
            let spec = ModuleSpec::dedicated(
                h,
                id,
                "leaf",
                |_, op| lib.fastest_for(op).expect("op implementable"),
                |_, _| unreachable!("leaf graph"),
            );
            build(h, &spec, &ctx).expect("leaf builds")
        })
        .collect();
    let merged = embed(h, &built[0], &built[1], &lib, "merged")
        .expect("distinct behaviors embed")
        .module;
    assert_eq!(merged.behaviors().len(), 2);
    assert!(
        merged.view().sinks().any(|(_, n)| n > 1),
        "embedding should share at least one steered input"
    );
    assert_tree_matches(h, &merged, "merged");
}
