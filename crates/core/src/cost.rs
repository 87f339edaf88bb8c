//! Cost evaluation of design points: area (always at the reference
//! voltage — Vdd scaling does not change layout) and trace-driven power at
//! the operating point. The objective picks which number the iterative
//! improvement minimizes; both are always reported.

use crate::cache::EvalCache;
use crate::design::DesignPoint;
use hsyn_lib::Library;
use hsyn_power::{estimate, estimate_cached, PowerReport, TraceSet};
use hsyn_rtl::{module_area, AreaBreakdown, FpTree};

/// What to optimize (the paper's two modes).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Minimize area.
    Area,
    /// Minimize average power under the throughput constraint.
    Power,
}

/// A costed design point.
#[derive(Clone, Copy, Debug)]
pub struct Evaluation {
    /// Area breakdown.
    pub area: AreaBreakdown,
    /// Power report at the operating voltage.
    pub power: PowerReport,
    /// The scalar the engine minimizes (area total or power).
    pub cost: f64,
}

/// Like [`evaluate`], but skips the power simulation when the objective is
/// area (the search loop never reads it) — roughly halves area-mode
/// synthesis time. The returned power report is zeroed in that case.
/// Uncached: the reference that shadow mode checks every cached search
/// evaluation against.
pub(crate) fn evaluate_search(
    dp: &DesignPoint,
    lib: &Library,
    traces: &TraceSet,
    objective: Objective,
) -> Evaluation {
    match objective {
        Objective::Power => evaluate(dp, lib, traces, objective),
        Objective::Area => area_only(dp, module_area(&dp.hierarchy, &dp.top.built, lib)),
    }
}

/// The area-mode search evaluation of `dp`: `area` is the cost, and the
/// power report is zeroed (the search never reads it).
fn area_only(dp: &DesignPoint, area: AreaBreakdown) -> Evaluation {
    Evaluation {
        area,
        power: PowerReport {
            energy_breakdown: Default::default(),
            energy_per_iteration: 0.0,
            power: 0.0,
            vdd: dp.op.vdd,
        },
        cost: area.total(),
    }
}

/// [`evaluate_search`] through an incremental cache. Bit-exact with
/// [`evaluate_search`] — same floats in every field (see [`EvalCache`]).
/// Power mode keys its memos by `fp`, the fingerprint tree of
/// `dp.top.built`, and panics without it: a design already priced at the
/// same operating point is answered whole from the cache's design memo,
/// skipping the area walk, the simulation and the energy walk. Area mode
/// is the plain area walk and reads no fingerprint.
pub(crate) fn evaluate_search_cached(
    dp: &DesignPoint,
    lib: &Library,
    traces: &TraceSet,
    objective: Objective,
    fp: Option<&FpTree>,
    cache: &mut EvalCache,
) -> Evaluation {
    match objective {
        Objective::Power => {
            let fp = fp.expect("power-mode pricing is keyed by the fingerprint tree");
            let key = (fp.fp, dp.op.key_bits());
            if let Some(&mut eval) = cache.designs.get(&key) {
                return eval;
            }
            let area = walk_area(dp, lib, cache);
            let power = estimate_cached(
                &dp.hierarchy,
                &dp.top.built,
                lib,
                traces,
                dp.op.vdd,
                dp.op.physical_clk_ns(lib),
                dp.op.sampling_cycles.max(1),
                fp,
                &mut cache.sim,
            );
            let eval = Evaluation {
                area,
                power,
                cost: power.power,
            };
            cache.designs.insert(key, eval);
            eval
        }
        Objective::Area => area_only(dp, walk_area(dp, lib, cache)),
    }
}

/// [`module_area`] of `dp`'s tree, counting its modules in `cache`.
fn walk_area(dp: &DesignPoint, lib: &Library, cache: &mut EvalCache) -> AreaBreakdown {
    cache.modules_area_walked += dp.top.built.module_count();
    module_area(&dp.hierarchy, &dp.top.built, lib)
}

/// Evaluate `dp` under `objective` using `traces` for power estimation.
pub fn evaluate(
    dp: &DesignPoint,
    lib: &Library,
    traces: &TraceSet,
    objective: Objective,
) -> Evaluation {
    let area = module_area(&dp.hierarchy, &dp.top.built, lib);
    let power = estimate(
        &dp.hierarchy,
        &dp.top.built,
        lib,
        traces,
        dp.op.vdd,
        dp.op.physical_clk_ns(lib),
        dp.op.sampling_cycles.max(1),
    );
    let cost = match objective {
        Objective::Area => area.total(),
        Objective::Power => power.power,
    };
    Evaluation { area, power, cost }
}
