//! Human-readable power reports: per-module energy breakdowns over the RTL
//! tree — where the switched capacitance actually goes.

use crate::estimate::{EnergyBreakdown, PowerReport};
use crate::sim::{simulate, ModuleActivity};
use crate::traces::TraceSet;
use hsyn_dfg::Hierarchy;
use hsyn_lib::Library;
use hsyn_rtl::RtlModule;
use std::fmt::Write as _;

/// Energy attributed to one module instance (own resources only, not
/// submodules), plus its instance path.
#[derive(Clone, Debug)]
pub struct ModuleEnergy {
    /// Instance path from the top (`top/sub0/...`).
    pub path: String,
    /// Per-iteration energy of this module's own resources at the reference
    /// voltage.
    pub breakdown: EnergyBreakdown,
}

/// Per-module energy attribution for `module` on `traces` (reference
/// voltage, averaged per iteration).
pub fn per_module_energy(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    traces: &TraceSet,
) -> Vec<ModuleEnergy> {
    let (act, _) = simulate(h, module, traces);
    let mut out = Vec::new();
    walk(h, module, lib, &act, traces, "top", &mut out);
    out
}

fn walk(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    act: &ModuleActivity,
    traces: &TraceSet,
    path: &str,
    out: &mut Vec<ModuleEnergy>,
) {
    let own = crate::estimate::module_own_energy(h, module, lib, act, traces.width, None);
    out.push(ModuleEnergy {
        path: path.to_owned(),
        breakdown: own.per_iteration(traces.len() as f64),
    });
    for (i, (sub, sub_act)) in module.subs().iter().zip(&act.subs).enumerate() {
        let sub_path = format!("{path}/{}#{i}", sub.name());
        walk(h, sub, lib, sub_act, traces, &sub_path, out);
    }
}

/// Render a power report: the operating point, the class totals, and the
/// per-module attribution sorted by energy.
pub fn report_text(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    traces: &TraceSet,
    report: &PowerReport,
) -> String {
    let mut s = String::new();
    let b = &report.energy_breakdown;
    let _ = writeln!(
        s,
        "power {:.4} at {} V  (energy/iteration {:.1})",
        report.power, report.vdd, report.energy_per_iteration
    );
    let _ = writeln!(
        s,
        "  by class: fu {:.1}  reg {:.1}  mux {:.1}  wire {:.1}  ctrl {:.1}  mem {:.1}  clock {:.1}",
        b.fu, b.reg, b.mux, b.wire, b.controller, b.mem, b.clock
    );
    let mut modules = per_module_energy(h, module, lib, traces);
    modules.sort_by(|a, b| b.breakdown.total().total_cmp(&a.breakdown.total()));
    let _ = writeln!(s, "  by module (reference voltage, own resources):");
    for m in modules.iter().take(12) {
        let _ = writeln!(
            s,
            "    {:<40} {:>9.1}  (fu {:.1}, reg {:.1}, ctrl {:.1})",
            m.path,
            m.breakdown.total(),
            m.breakdown.fu,
            m.breakdown.reg,
            m.breakdown.controller
        );
    }
    if modules.len() > 12 {
        let _ = writeln!(s, "    ... {} more modules", modules.len() - 12);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate;
    use crate::traces::dsp_default;
    use hsyn_dfg::DfgId;
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
    use hsyn_rtl::{build, BuildCtx, ModuleSpec};

    /// The completely parallel implementation of `dfg` and, recursively,
    /// of every callee.
    fn dedicated(h: &Hierarchy, dfg: DfgId, lib: &Library, ctx: &BuildCtx) -> RtlModule {
        let spec = ModuleSpec::dedicated(
            h,
            dfg,
            h.dfg(dfg).name(),
            |_, op| lib.fastest_for(op).unwrap(),
            |_, callee| dedicated(h, callee, lib, ctx),
        );
        build(h, &spec, ctx).unwrap()
    }

    #[test]
    fn per_module_attribution_sums_to_the_total() {
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, None);
        // iir: top + two biquad instances; matmul: top + four dot products
        // loading from the top's memories, so memory energy is attributed
        // to both levels.
        for (bench, instances) in [
            (hsyn_dfg::benchmarks::iir(), 3),
            (hsyn_dfg::benchmarks::matmul(), 5),
        ] {
            let h = &bench.hierarchy;
            let top = dedicated(h, h.top(), &lib, &ctx);
            let traces = dsp_default(h.dfg(h.top()).input_count(), 48, 16, 9);
            let report = estimate(h, &top, &lib, &traces, 5.0, TABLE1_CLOCK_NS, 40);
            let modules = per_module_energy(h, &top, &lib, &traces);
            assert_eq!(modules.len(), instances, "{}", bench.name);
            let sum: f64 = modules.iter().map(|m| m.breakdown.total()).sum();
            let total_no_clock = report.energy_breakdown.total() - report.energy_breakdown.clock;
            assert!(
                (sum - total_no_clock).abs() < 1e-6 * total_no_clock.max(1.0),
                "{}: per-module sum {sum} vs class total {total_no_clock}",
                bench.name
            );
            let text = report_text(h, &top, &lib, &traces, &report);
            assert!(text.contains("by module"));
            assert!(text.contains("top/"));
            assert!(text.contains(" mem "));
        }
    }
}
