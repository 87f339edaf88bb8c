//! Design-space exploration: sweep the throughput constraint and the
//! objective, collect the synthesized designs, and extract the area/power
//! Pareto front — the workflow an ASIC designer runs on top of the engine
//! (the paper's introduction motivates exactly this area-vs-power-vs-speed
//! navigation).

use crate::config::SynthesisConfig;
use crate::cost::Objective;
use crate::synth::{synthesize, SynthesisError, SynthesisReport};
use hsyn_dfg::Hierarchy;
use hsyn_rtl::ModuleLibrary;

/// One explored design point.
#[derive(Clone, Debug)]
pub struct ExplorePoint {
    /// Laxity factor synthesized at.
    pub laxity: f64,
    /// Objective used.
    pub objective: Objective,
    /// The synthesis result.
    pub report: SynthesisReport,
}

impl ExplorePoint {
    /// Total area of the design.
    pub fn area(&self) -> f64 {
        self.report.evaluation.area.total()
    }

    /// Power of the design.
    pub fn power(&self) -> f64 {
        self.report.evaluation.power.power
    }
}

/// A `(laxity, objective)` grid point that failed to synthesize.
/// Previously `explore` silently dropped these; reporting them lets a
/// caller distinguish "the grid was infeasible" from "the grid was empty".
#[derive(Clone, Debug)]
pub struct SkippedPoint {
    /// Laxity factor attempted.
    pub laxity: f64,
    /// Objective attempted.
    pub objective: Objective,
    /// Why synthesis failed.
    pub error: SynthesisError,
}

/// The outcome of a design-space sweep: the synthesized points plus every
/// grid point that failed, both in deterministic grid order
/// (laxity-major, area before power).
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Successfully synthesized design points.
    pub points: Vec<ExplorePoint>,
    /// Grid points that failed to synthesize, with the reason.
    pub skipped: Vec<SkippedPoint>,
}

impl Exploration {
    /// The non-dominated subset of the synthesized points — see
    /// [`pareto_front`].
    pub fn pareto_front(&self) -> Vec<&ExplorePoint> {
        pareto_front(&self.points)
    }
}

/// Synthesize `hierarchy` at every `(laxity, objective)` combination.
/// `base` supplies all other knobs, including
/// [`parallelism`](SynthesisConfig::parallelism): grid points are
/// independent synthesis runs, so they are evaluated concurrently and
/// merged in grid order — the result is identical for every thread count.
/// Infeasible points are returned in [`Exploration::skipped`] rather than
/// silently dropped.
///
/// ```
/// use hsyn_core::{explore, Objective, SynthesisConfig};
/// use hsyn_dfg::benchmarks;
/// use hsyn_rtl::ModuleLibrary;
///
/// let bench = benchmarks::paulin();
/// let mut mlib = ModuleLibrary::from_simple(hsyn_lib::papers::table1_library());
/// mlib.equiv = bench.equiv.clone();
///
/// let mut base = SynthesisConfig::new(Objective::Area);
/// // Small budgets keep this example fast; drop these lines for real runs.
/// base.max_passes = 2;
/// base.candidate_limit = 2;
/// base.eval_trace_len = 8;
/// base.report_trace_len = 16;
/// base.max_clock_candidates = 2;
///
/// // Laxity 0.2 is infeasible (tighter than the minimum period); 2.0 is not.
/// let sweep = explore(&bench.hierarchy, &mlib, &base, &[0.2, 2.0]);
/// assert_eq!(sweep.points.len(), 2, "laxity 2.0 × two objectives");
/// assert_eq!(sweep.skipped.len(), 2, "laxity 0.2 × two objectives");
/// ```
pub fn explore(
    hierarchy: &Hierarchy,
    mlib: &ModuleLibrary,
    base: &SynthesisConfig,
    laxities: &[f64],
) -> Exploration {
    let grid: Vec<(f64, Objective)> = laxities
        .iter()
        .flat_map(|&laxity| [(laxity, Objective::Area), (laxity, Objective::Power)])
        .collect();
    // Parallelize across grid points; each synthesize() call then runs its
    // own configuration sweep serially (one subdivision of the machine is
    // enough — grid points outnumber cores in realistic sweeps, and nested
    // thread pools would oversubscribe).
    let threads = hsyn_util::effective_threads(base.parallelism);
    let results = hsyn_util::par_map(threads, &grid, |_, &(laxity, objective)| {
        let mut config = base.clone();
        config.laxity_factor = laxity;
        config.sampling_period_ns = None;
        config.objective = objective;
        config.parallelism = Some(1);
        synthesize(hierarchy, mlib, &config)
    });
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    for (&(laxity, objective), result) in grid.iter().zip(results) {
        match result {
            Ok(report) => points.push(ExplorePoint {
                laxity,
                objective,
                report,
            }),
            Err(error) => skipped.push(SkippedPoint {
                laxity,
                objective,
                error,
            }),
        }
    }
    Exploration { points, skipped }
}

/// The non-dominated subset of `points` on (area, power), sorted by area
/// ascending. A point dominates another if it is no worse on both axes and
/// strictly better on one.
///
/// ```
/// use hsyn_core::{explore, pareto_front, Objective, SynthesisConfig};
/// use hsyn_dfg::benchmarks;
/// use hsyn_rtl::ModuleLibrary;
///
/// let bench = benchmarks::paulin();
/// let mut mlib = ModuleLibrary::from_simple(hsyn_lib::papers::table1_library());
/// mlib.equiv = bench.equiv.clone();
///
/// let mut base = SynthesisConfig::new(Objective::Area);
/// // Small budgets keep this example fast; drop these lines for real runs.
/// base.max_passes = 2;
/// base.candidate_limit = 2;
/// base.eval_trace_len = 8;
/// base.report_trace_len = 16;
/// base.max_clock_candidates = 2;
///
/// let sweep = explore(&bench.hierarchy, &mlib, &base, &[1.5, 3.0]);
/// let front = pareto_front(&sweep.points);
/// assert!(!front.is_empty() && front.len() <= sweep.points.len());
/// // Along the front, area rises and power falls.
/// for w in front.windows(2) {
///     assert!(w[0].area() <= w[1].area() && w[0].power() >= w[1].power());
/// }
/// ```
pub fn pareto_front(points: &[ExplorePoint]) -> Vec<&ExplorePoint> {
    let mut front: Vec<&ExplorePoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                q.area() <= p.area()
                    && q.power() <= p.power()
                    && (q.area() < p.area() || q.power() < p.power())
            })
        })
        .collect();
    front.sort_by(|a, b| a.area().total_cmp(&b.area()));
    front.dedup_by(|a, b| a.area() == b.area() && a.power() == b.power());
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;

    #[test]
    fn explore_covers_the_grid_and_front_is_nondominated() {
        let b = benchmarks::paulin();
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = b.equiv.clone();
        let mut base = SynthesisConfig::new(Objective::Area);
        base.max_passes = 3;
        base.candidate_limit = 3;
        base.eval_trace_len = 16;
        base.report_trace_len = 32;
        base.max_clock_candidates = 2;
        let sweep = explore(&b.hierarchy, &mlib, &base, &[1.5, 3.0]);
        let points = sweep.points;
        assert_eq!(points.len(), 4, "2 laxities x 2 objectives, all feasible");
        assert!(sweep.skipped.is_empty());

        let front = pareto_front(&points);
        assert!(!front.is_empty());
        // No member of the front is dominated by any explored point.
        for f in &front {
            for p in &points {
                let dominates = p.area() <= f.area()
                    && p.power() <= f.power()
                    && (p.area() < f.area() || p.power() < f.power());
                assert!(!dominates, "front member dominated");
            }
        }
        // Sorted by area; power non-increasing along the front.
        for w in front.windows(2) {
            assert!(w[0].area() <= w[1].area());
            assert!(w[0].power() >= w[1].power());
        }
    }

    #[test]
    fn infeasible_laxities_are_skipped() {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let mut base = SynthesisConfig::new(Objective::Area);
        base.max_passes = 2;
        base.candidate_limit = 2;
        base.eval_trace_len = 8;
        base.report_trace_len = 16;
        base.max_clock_candidates = 2;
        // Laxity below 1 cannot be met; laxity 2 can.
        let sweep = explore(&b.hierarchy, &mlib, &base, &[0.2, 2.0]);
        assert!(sweep.points.iter().all(|p| p.laxity == 2.0));
        assert_eq!(sweep.points.len(), 2);
        // The infeasible points are reported, not silently dropped.
        assert_eq!(sweep.skipped.len(), 2);
        assert!(sweep.skipped.iter().all(|s| s.laxity == 0.2));
        for s in &sweep.skipped {
            assert!(
                matches!(s.error, SynthesisError::Infeasible { .. }),
                "unexpected skip reason: {:?}",
                s.error
            );
        }
    }
}
