//! The in-process workloads, `sweep_area` and `refine_power`: jobs run
//! one after another through `hsyn_core::synthesize`, and the engine's own
//! (Vdd, clk) sweep uses `nproc` threads.

use std::time::Instant;

use hsyn_bench::{benchmark_library, SweepConfig};
use hsyn_core::{synthesize, Objective, SynthesisConfig, SynthesisReport};
use hsyn_dfg::benchmarks::Benchmark;
use hsyn_rtl::ModuleLibrary;

use crate::jobs::{self, Cell};
use crate::metrics::{geomean, median, quantile, Outcome};
use crate::trace::Tracer;
use crate::{gate, host, Args};

/// Passes over each round's job list. A job's latency is the median of its
/// executions, one per pass, so a host slowdown shorter than a pass moves
/// at most one of them. Executions after the first are exact repeats and
/// give `hit_s_p50`.
const PASSES: usize = 3;

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// One in-process workload.
pub struct Inproc {
    jobs: fn(u64, usize) -> Vec<Cell>,
    objective: Objective,
    sweep: fn() -> SweepConfig,
    lns_iters: usize,
    /// The warm-up job of set-up: benchmark, laxity, hierarchical. It is
    /// no cell of any job list.
    warmup: (&'static str, f64, bool),
}

pub const SWEEP_AREA: Inproc = Inproc {
    jobs: jobs::sweep_area,
    objective: Objective::Area,
    sweep: SweepConfig::default,
    lns_iters: 0,
    warmup: ("wdf5", 2.2, true),
};

pub const REFINE_POWER: Inproc = Inproc {
    jobs: jobs::refine_power,
    objective: Objective::Power,
    sweep: SweepConfig::quick,
    lns_iters: jobs::REFINE_LNS_ITERS,
    warmup: ("wdf5", 1.2, true),
};

impl Inproc {
    fn config(&self, laxity: f64, hierarchical: bool) -> SynthesisConfig {
        let mut c = (self.sweep)().to_config(self.objective, hierarchical, laxity);
        c.lns_iters = self.lns_iters;
        c.parallelism = Some(host::nproc());
        c
    }
}

/// A finished job: the report of its first execution, for the gate.
struct Done {
    job: u64,
    bench: usize,
    config: SynthesisConfig,
    report: SynthesisReport,
}

pub fn run(w: &Inproc, args: &Args, out: &mut Outcome) -> Tracer {
    // Set-up: the nine benchmark libraries plus one warm-up job.
    let mut setup = Vec::new();
    let mut ready: Option<(Vec<Benchmark>, Vec<ModuleLibrary>)> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let suite = jobs::suite();
        let libs: Vec<ModuleLibrary> = suite.iter().map(benchmark_library).collect();
        let (name, laxity, hierarchical) = w.warmup;
        let bench = hsyn_dfg::benchmarks::by_name(name).expect("warm-up benchmark exists");
        let mlib = benchmark_library(&bench);
        synthesize(&bench.hierarchy, &mlib, &w.config(laxity, hierarchical))
            .expect("warm-up job synthesizes");
        setup.push(t.elapsed().as_secs_f64());
        ready = Some((suite, libs));
    }
    out.set("setup_s", median(&setup));
    let (suite, libs) = ready.expect("set-up ran");

    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let mut latencies = Vec::new();
    let mut repeats = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    let rounds = crate::rounds(args.seconds);
    let mut executions = 0u64;
    for round in 0..rounds {
        let cells = (w.jobs)(args.seed, round);
        let configs: Vec<SynthesisConfig> = cells
            .iter()
            .map(|c| w.config(c.laxity, c.hierarchical))
            .collect();
        let mut times = vec![Vec::with_capacity(PASSES); cells.len()];
        let mut reports: Vec<Option<SynthesisReport>> = vec![None; cells.len()];
        let base = latencies.len();
        for pass in 0..PASSES {
            for (i, cell) in cells.iter().enumerate() {
                let job = (base + i) as u64;
                let bench = &suite[cell.bench];
                let t = Instant::now();
                let r = tr.span("core.synth", job, |_| {
                    synthesize(&bench.hierarchy, &libs[cell.bench], &configs[i])
                });
                times[i].push(t.elapsed().as_secs_f64());
                executions += 1;
                out.attempted += 1;
                match r {
                    Ok(report) if pass == 0 => reports[i] = Some(report),
                    Ok(_) => {}
                    Err(e) => out.fail(format!("{} {cell:?}: {e}", bench.name)),
                }
            }
        }
        for (i, t) in times.iter().enumerate() {
            latencies.push(median(t));
            repeats.extend_from_slice(&t[1..]);
            if let Some(report) = reports[i].take() {
                done.push(Done {
                    job: (base + i) as u64,
                    bench: cells[i].bench,
                    config: configs[i].clone(),
                    report,
                });
            }
        }
    }
    let wall = origin.elapsed().as_secs_f64();
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set("jobs_per_s", executions as f64 / wall);
    crate::set_latencies(out, "job", &latencies);
    out.set("hit_s_p50", quantile(&repeats, 0.5));
    out.notes.push(format!(
        "timed phase: {} round(s) x {PASSES} passes, {} jobs, {executions} executions in \
         {wall:.3} s; hit_s_p50 is the median of the {} repeat executions \
         (no in-process result cache)",
        rounds,
        latencies.len(),
        repeats.len()
    ));
    if tr.enabled() {
        out.set("trace.jobs_per_s", executions as f64 / wall);
    }
    let costs: Vec<f64> = done.iter().map(|d| d.report.evaluation.cost).collect();
    if !costs.is_empty() {
        out.set("qor_cost_geo", geomean(&costs));
    }

    // Correctness gate and, when tracing, the layer replay.
    let store = tr.enabled().then(crate::replay_store);
    for d in &done {
        crate::record_report(out, &d.report);
        let lib = &libs[d.bench].simple;
        let name = suite[d.bench].name;
        if let Err(e) = gate::check_design(&d.report.design, lib, &d.config, &mut tr, d.job) {
            out.fail(format!("{name} job {}: {e}", d.job));
        }
        if let Some(store) = &store {
            let checked = gate::replay_layers(&d.report, lib, &d.config, &mut tr, d.job)
                .and_then(|()| gate::replay_io(store, &d.report.result_json(), &mut tr, d.job));
            if let Err(e) = checked {
                out.fail(format!("{name} job {} replay: {e}", d.job));
            }
        }
    }
    tr
}
