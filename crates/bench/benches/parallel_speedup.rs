//! Wall-clock benchmarks for the "same result, less time" layers and for
//! what the LNS layer buys.
//!
//! Part 1 runs the same `explore()` sweep with `parallelism = Some(1)` and
//! `parallelism = None` (one worker per available core), prints the
//! wall-clock of each and the resulting speedup, and asserts that the two
//! runs produce identical results — the deterministic-merge guarantee the
//! parallel path is built around. On a single-core host the speedup is
//! necessarily ~1.0×; the determinism check still runs.
//!
//! Part 2 is an adjacency micro-benchmark on the flattened dct graph: the
//! `*_scan` linear-scan reference accessors vs the CSR index, same checksum
//! required.
//!
//! Part 3 measures what the large-neighborhood-search layer
//! ([`SynthesisConfig::lns_iters`]) buys at equal wall-clock on dct and
//! iir at both objectives: the baseline pass loop is handed a pass budget
//! far past its convergence point and must flatline (same final cost,
//! bit-exact — extra passes buy nothing once no pass gains), while the
//! same seconds spent on LNS ruin-and-recreate must end at a **strictly
//! lower** final cost.
//!
//! All results land in `BENCH_parallel_speedup.json` at the workspace
//! root (the CI bench job uploads it as an artifact).
//!
//! ```text
//! cargo bench -p hsyn-bench --bench parallel_speedup
//! ```

use hsyn_bench::{benchmark_library, timing, SweepConfig};
use hsyn_core::{explore, synthesize, Exploration, Objective, SynthesisConfig, SynthesisReport};
use hsyn_dfg::Dfg;
use hsyn_lib::papers::table1_library;
use hsyn_rtl::ModuleLibrary;
use hsyn_util::Json;
use std::time::{Duration, Instant};

fn run(parallelism: Option<usize>) -> Exploration {
    let b = hsyn_dfg::benchmarks::iir();
    let mlib = benchmark_library(&b);
    let mut base = SweepConfig::quick().to_config(Objective::Area, true, 1.2);
    base.parallelism = parallelism;
    // 4 laxities x 2 objectives = 8 grid points.
    explore(&b.hierarchy, &mlib, &base, &[1.2, 1.7, 2.2, 3.2])
}

fn assert_identical(a: &Exploration, b: &Exploration) {
    assert_eq!(a.points.len(), b.points.len(), "point count differs");
    assert_eq!(a.skipped.len(), b.skipped.len(), "skip count differs");
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(p.laxity, q.laxity);
        assert_eq!(p.objective, q.objective);
        assert_eq!(p.area(), q.area(), "area differs at laxity {}", p.laxity);
        assert_eq!(p.power(), q.power(), "power differs at laxity {}", p.laxity);
        assert_eq!(
            p.report.design.op, q.report.design.op,
            "operating point differs"
        );
    }
}

/// Walk every node's fan-in, fan-out, and port-0 driver, folding edge ids
/// and fields into a checksum. `scan` selects the O(edges) linear-scan
/// reference accessors; otherwise the CSR index answers each query from
/// its packed slices. Both must produce the same checksum — the CSR layer
/// is a layout change, not a semantic one.
fn adjacency_walk(g: &Dfg, scan: bool) -> u64 {
    let mut acc = 0u64;
    for n in g.node_ids() {
        if scan {
            for (id, e) in g.in_edges_scan(n) {
                acc = acc.wrapping_add(id.index() as u64 + u64::from(e.delay));
            }
            for (id, e) in g.out_edges_scan(n) {
                acc = acc.wrapping_add(id.index() as u64 ^ u64::from(e.to_port));
            }
            if let Some(e) = g.driver_scan(n, 0) {
                acc = acc.wrapping_add(u64::from(e.from.port) + 1);
            }
        } else {
            for (id, e) in g.in_edges(n) {
                acc = acc.wrapping_add(id.index() as u64 + u64::from(e.delay));
            }
            for (id, e) in g.out_edges(n) {
                acc = acc.wrapping_add(id.index() as u64 ^ u64::from(e.to_port));
            }
            if let Some(e) = g.driver(n, 0) {
                acc = acc.wrapping_add(u64::from(e.from.port) + 1);
            }
        }
    }
    acc
}

/// Adjacency micro-benchmark on the flattened dct graph: full-graph walk
/// through the linear-scan reference accessors vs the CSR index.
fn adjacency_micro() -> Json {
    let g = hsyn_dfg::benchmarks::dct().hierarchy.flatten();
    let expect = adjacency_walk(&g, true);
    assert_eq!(
        expect,
        adjacency_walk(&g, false),
        "CSR adjacency disagrees with the linear-scan reference"
    );
    let budget = Duration::from_millis(300);
    let scan_s = timing::bench("adjacency walk, linear scan", budget, || {
        assert_eq!(std::hint::black_box(adjacency_walk(&g, true)), expect);
    });
    let csr_s = timing::bench("adjacency walk, CSR index", budget, || {
        assert_eq!(std::hint::black_box(adjacency_walk(&g, false)), expect);
    });
    let speedup = scan_s / csr_s.max(1e-12);
    println!("  CSR speedup over linear scan: {speedup:.2}x");
    Json::Obj(vec![
        ("benchmark".into(), Json::Str("dct (flattened)".into())),
        ("nodes".into(), Json::Num(g.node_count() as f64)),
        ("scan_s".into(), Json::Num(scan_s)),
        ("csr_s".into(), Json::Num(csr_s)),
        ("speedup".into(), Json::Num(speedup)),
        ("identical".into(), Json::Bool(true)),
    ])
}

/// LNS refinement budget for the part-3 cells.
const LNS_ITERS: usize = 64;

/// Synthesize one benchmark under a tight pass budget with an LNS
/// refinement budget and `extra_passes` more improvement passes, returning
/// the report and the wall-clock. The budget matches the golden-snapshot
/// configuration (the flat Table-1 module library, two passes, two
/// candidates per family): tight enough that the pass loop converges fast
/// and LNS, not candidate breadth, is what buys further cost. Serial outer
/// sweep, as everywhere else.
fn run_lns(
    name: &str,
    objective: Objective,
    lns_iters: usize,
    extra_passes: usize,
) -> (SynthesisReport, f64) {
    let b = match name {
        "dct" => hsyn_dfg::benchmarks::dct(),
        "iir" => hsyn_dfg::benchmarks::iir(),
        other => unreachable!("unknown lns benchmark {other}"),
    };
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = b.equiv.clone();
    let mut cfg = SynthesisConfig::new(objective);
    cfg.laxity_factor = 2.2;
    cfg.max_passes = 2 + extra_passes;
    cfg.candidate_limit = 2;
    cfg.eval_trace_len = 8;
    cfg.report_trace_len = 16;
    cfg.max_clock_candidates = 2;
    cfg.resynth_depth = 1;
    cfg.parallelism = Some(1);
    cfg.lns_iters = lns_iters;
    let t = Instant::now();
    let report = synthesize(&b.hierarchy, &mlib, &cfg).expect("benchmark synthesizes");
    (report, t.elapsed().as_secs_f64())
}

/// One benchmark × objective cell of the part-3 measurement: the
/// equal-wall-clock comparison of final cost with and without LNS.
fn lns_cell(name: &str, objective: Objective) -> Json {
    let obj_name = match objective {
        Objective::Area => "area",
        Objective::Power => "power",
    };
    let _ = run_lns(name, objective, 0, 0); // warm-up
    let (base, base_s) = run_lns(name, objective, 0, 0);
    // Equal-wall-clock control: a pass budget far past convergence. The
    // pass loop exits the moment no pass gains, so the baseline cannot
    // convert extra wall-clock into cost — it must flatline bit-exactly.
    let (flat, flat_s) = run_lns(name, objective, 0, 64);
    assert_eq!(
        base.evaluation.cost.to_bits(),
        flat.evaluation.cost.to_bits(),
        "{name} {obj_name}: the converged baseline moved when handed more passes"
    );
    let (lns, lns_s) = run_lns(name, objective, LNS_ITERS, 0);
    assert!(
        lns.evaluation.cost < base.evaluation.cost,
        "{name} {obj_name}: LNS must end strictly better than the baseline \
         ({} vs {})",
        lns.evaluation.cost,
        base.evaluation.cost
    );
    let gain_pct = 100.0 * (base.evaluation.cost - lns.evaluation.cost) / base.evaluation.cost;
    let lns_refine_s: f64 = lns.per_config.iter().map(|c| c.lns_s).sum();
    println!("{name} {obj_name}:");
    println!(
        "  baseline:          cost {:>10.4} in {base_s:>7.3} s",
        base.evaluation.cost
    );
    println!(
        "  baseline +64 passes: cost {:>8.4} in {flat_s:>7.3} s (flatline, bit-exact)",
        flat.evaluation.cost
    );
    println!(
        "  +{LNS_ITERS} LNS iters:      cost {:>10.4} in {lns_s:>7.3} s ({gain_pct:.2}% better; \
         {} ruins, {} accepted, {lns_refine_s:.3} s refining)",
        lns.evaluation.cost, lns.stats.lns_ruins, lns.stats.lns_accepts
    );
    Json::Obj(vec![
        ("benchmark".into(), Json::Str(name.into())),
        ("objective".into(), Json::Str(obj_name.into())),
        ("baseline_cost".into(), Json::Num(base.evaluation.cost)),
        ("baseline_s".into(), Json::Num(base_s)),
        ("flatline_cost".into(), Json::Num(flat.evaluation.cost)),
        ("flatline_s".into(), Json::Num(flat_s)),
        ("lns_iters".into(), Json::Num(LNS_ITERS as f64)),
        ("lns_cost".into(), Json::Num(lns.evaluation.cost)),
        ("lns_s".into(), Json::Num(lns_s)),
        ("lns_refine_s".into(), Json::Num(lns_refine_s)),
        ("lns_gain_pct".into(), Json::Num(gain_pct)),
        ("lns_ruins".into(), Json::Num(lns.stats.lns_ruins as f64)),
        (
            "lns_accepts".into(),
            Json::Num(lns.stats.lns_accepts as f64),
        ),
        ("strictly_better".into(), Json::Bool(true)),
    ])
}

fn main() {
    let cores = hsyn_util::effective_threads(None);
    println!("parallel_speedup: 8-point laxity grid on the IIR benchmark");
    println!("available worker threads: {cores}");

    // Warm-up so neither timed run pays first-touch costs.
    let _ = run(Some(1));

    let serial = run(Some(1));
    let parallel = run(None);
    assert_identical(&serial, &parallel);
    // Report the workers that ran, not the machine size: an 8-point grid
    // on a 16-core host runs 8 workers, and a serial run exactly 1.
    assert_eq!(serial.threads_used, 1, "serial sweep spawned workers");
    assert_eq!(
        parallel.threads_used,
        hsyn_util::workers_for(cores, 8),
        "sweep misreported its worker count"
    );

    let par_speedup = serial.elapsed_s / parallel.elapsed_s.max(1e-12);
    println!("serial   (parallelism=1): {:>8.3} s", serial.elapsed_s);
    println!(
        "parallel ({} workers):    {:>8.3} s",
        parallel.threads_used, parallel.elapsed_s
    );
    println!("speedup: {par_speedup:.2}x");
    println!("results identical across thread counts: yes");
    if cores == 1 {
        println!("(single-core host: speedup is expected to be ~1.0x)");
    }

    println!();
    println!("data_oriented: CSR adjacency");
    let adjacency = adjacency_micro();

    println!();
    println!("lns: final cost at equal wall-clock, ruin-and-recreate vs extended baseline");
    let mut lns_cells = Vec::new();
    for name in ["dct", "iir"] {
        for objective in [Objective::Area, Objective::Power] {
            lns_cells.push(lns_cell(name, objective));
        }
    }

    let out = Json::Obj(vec![
        (
            "parallel".into(),
            Json::Obj(vec![
                ("benchmark".into(), Json::Str("iir".into())),
                ("grid_points".into(), Json::Num(8.0)),
                ("threads".into(), Json::Num(parallel.threads_used as f64)),
                ("serial_s".into(), Json::Num(serial.elapsed_s)),
                ("parallel_s".into(), Json::Num(parallel.elapsed_s)),
                ("speedup".into(), Json::Num(par_speedup)),
                ("identical".into(), Json::Bool(true)),
            ]),
        ),
        (
            "data_oriented".into(),
            Json::Obj(vec![
                ("host_threads".into(), Json::Num(cores as f64)),
                ("adjacency".into(), adjacency),
            ]),
        ),
        (
            "lns".into(),
            Json::Obj(vec![
                ("lns_iters".into(), Json::Num(LNS_ITERS as f64)),
                ("cells".into(), Json::Arr(lns_cells)),
            ]),
        ),
    ]);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_speedup.json"
    );
    let mut text = out.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("write BENCH_parallel_speedup.json");
    println!("\nwrote {path}");
}
