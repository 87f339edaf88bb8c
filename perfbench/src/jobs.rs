//! Seeded job lists. The workload seed and the round number alone fix
//! every list; nothing here reads the clock or the host.
//!
//! Every list holds the same set of jobs for every seed; the seed fixes
//! their order (and, on `serve_mixed`, which jobs are repeated where).
//! Trace seeds stay at the engine default: the traces change how much work
//! a power job does, and with a trace seed drawn per job `job_s_p50` of
//! `refine_power` ranged 0.19–0.25 s over five seeds.

use hsyn_core::Objective;
use hsyn_dfg::benchmarks::{self, Benchmark};
use hsyn_serve::{Budget, JobSource, JobSpec};
use hsyn_util::Rng;

/// The Table 3/4 laxity factors.
pub const LAXITIES: [f64; 3] = hsyn_bench::LAXITIES;

/// LNS iterations on `refine_power`.
pub const REFINE_LNS_ITERS: usize = 2;

/// The reduced search budget of every `serve_mixed` job. Without move-B
/// resynthesis the slowest job takes about 0.4 s instead of 2.5 s, so no
/// handful of jobs dominates a round.
pub const SERVE_BUDGET: Budget = Budget {
    max_passes: Some(3),
    candidate_limit: Some(4),
    eval_trace_len: Some(16),
    report_trace_len: Some(32),
    max_clock_candidates: Some(2),
    resynth_depth: Some(0),
};

/// Repeats per cold job on `serve_mixed`: 2 of every 5 submissions.
const REPEATS_PER_COLD: (usize, usize) = (2, 3);

/// The paper suite plus the memory tier: the nine benchmarks of the
/// in-process workloads.
pub fn suite() -> Vec<Benchmark> {
    let mut v = benchmarks::paper_suite();
    v.extend(benchmarks::memory_suite());
    v
}

/// One in-process synthesis job.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Index into [`suite`].
    pub bench: usize,
    pub laxity: f64,
    pub hierarchical: bool,
}

/// One `serve_mixed` submission.
#[derive(Clone, Debug, PartialEq)]
pub enum Submission {
    /// A job not submitted before in this run.
    Cold(Box<JobSpec>),
    /// An exact repeat of the submission at this earlier index.
    Repeat(usize),
}

fn rng_for(seed: u64, round: usize, salt: u64) -> Rng {
    let mut r = Rng::seed_from_u64(seed ^ salt);
    let skip = r.next_u64();
    Rng::seed_from_u64(skip ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.range_usize(0, i + 1);
        v.swap(i, j);
    }
}

/// `sweep_area`: every suite benchmark × laxity × {hierarchical, flat},
/// in a seeded order.
pub fn sweep_area(seed: u64, round: usize) -> Vec<Cell> {
    let mut rng = rng_for(seed, round, 0x5EED_A4EA);
    let mut cells = Vec::new();
    for bench in 0..suite().len() {
        for &laxity in &LAXITIES {
            for hierarchical in [true, false] {
                cells.push(Cell {
                    bench,
                    laxity,
                    hierarchical,
                });
            }
        }
    }
    shuffle(&mut cells, &mut rng);
    cells
}

/// `refine_power`: every suite benchmark × {hierarchical, flat} at
/// laxity 1.2, and every one but dct at laxity 2.2, in a seeded order. At
/// laxity 1.2 the hierarchical dct job spends nearly all its time in LNS
/// power refinement; its two laxity-2.2 cells alone would take a quarter
/// of a run, so they stay out, as does laxity 3.2.
pub fn refine_power(seed: u64, round: usize) -> Vec<Cell> {
    let mut rng = rng_for(seed, round, 0x5EED_90E4);
    let mut cells = Vec::new();
    for (bench, b) in suite().iter().enumerate() {
        for &laxity in &LAXITIES[..2] {
            if laxity > LAXITIES[0] && b.name == "dct" {
                continue;
            }
            for hierarchical in [true, false] {
                cells.push(Cell {
                    bench,
                    laxity,
                    hierarchical,
                });
            }
        }
    }
    shuffle(&mut cells, &mut rng);
    cells
}

/// `serve_mixed`: one cold job for every registry benchmark × objective ×
/// laxity, in a seeded order; 2 of every 5 submissions are exact repeats of
/// a seeded earlier cold job. The first submission is always cold.
pub fn serve_mixed(seed: u64, round: usize) -> Vec<Submission> {
    let mut rng = rng_for(seed, round, 0x5EED_5E4E);
    let mut cold = Vec::new();
    for b in benchmarks::all() {
        for objective in [Objective::Area, Objective::Power] {
            for &laxity in &LAXITIES {
                let mut job = JobSpec::new(JobSource::Bench(b.name.to_owned()));
                job.objective = objective;
                job.laxity = laxity;
                job.budget = Some(SERVE_BUDGET);
                cold.push(Box::new(job));
            }
        }
    }
    shuffle(&mut cold, &mut rng);
    let repeats = cold.len() * REPEATS_PER_COLD.0 / REPEATS_PER_COLD.1;
    let total = cold.len() + repeats;
    // Seeded repeat slots among positions 1.., so position 0 is cold.
    let mut slots: Vec<bool> = (1..total).map(|i| i <= repeats).collect();
    shuffle(&mut slots, &mut rng);
    slots.insert(0, false);
    let mut cold = cold.into_iter();
    let mut seq: Vec<Submission> = Vec::with_capacity(total);
    let mut cold_at: Vec<usize> = Vec::new();
    for is_repeat in slots {
        if is_repeat {
            let of = cold_at[rng.range_usize(0, cold_at.len())];
            seq.push(Submission::Repeat(of));
        } else {
            cold_at.push(seq.len());
            seq.push(Submission::Cold(
                cold.next().expect("one cold job per slot"),
            ));
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lists_other_seed_other_lists() {
        assert_eq!(sweep_area(7, 0), sweep_area(7, 0));
        assert_eq!(refine_power(7, 0), refine_power(7, 0));
        assert_eq!(serve_mixed(7, 0), serve_mixed(7, 0));
        assert_ne!(sweep_area(7, 0), sweep_area(8, 0));
        assert_ne!(refine_power(7, 0), refine_power(8, 0));
        assert_ne!(serve_mixed(7, 0), serve_mixed(8, 0));
        assert_ne!(serve_mixed(7, 0), serve_mixed(7, 1));
    }

    #[test]
    fn lists_cover_their_cells() {
        let sweep = sweep_area(1, 0);
        assert_eq!(sweep.len(), 9 * 3 * 2);
        let refine = refine_power(1, 0);
        assert_eq!(refine.len(), 9 * 2 * 2 - 2);
        let dct = suite().iter().position(|b| b.name == "dct").unwrap();
        assert_eq!(refine.iter().filter(|c| c.bench == dct).count(), 2);
    }

    #[test]
    fn serve_repeats_point_back_at_cold_jobs() {
        let seq = serve_mixed(3, 0);
        let cold = seq
            .iter()
            .filter(|s| matches!(s, Submission::Cold(_)))
            .count();
        assert_eq!(cold, benchmarks::all().len() * 2 * 3);
        assert_eq!(seq.len() - cold, cold * 2 / 3);
        assert!(matches!(seq[0], Submission::Cold(_)));
        for (i, s) in seq.iter().enumerate() {
            if let Submission::Repeat(of) = s {
                assert!(*of < i && matches!(seq[*of], Submission::Cold(_)));
            }
        }
        // Cold jobs are distinct, so every repeat can only be a cache hit.
        let keys: std::collections::BTreeSet<String> = seq
            .iter()
            .filter_map(|s| match s {
                Submission::Cold(j) => Some(j.cache_key()),
                Submission::Repeat(_) => None,
            })
            .collect();
        assert_eq!(keys.len(), cold);
    }
}
