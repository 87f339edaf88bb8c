//! End-to-end and per-layer benchmark of the hsyn synthesis stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_area|refine_power|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run sets the workload up (timed as
//! `setup_s`), measures whole rounds of its seeded job list for about
//! `--seconds`, then checks every result outside the timed phase. The last
//! line of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! `perfbench/README.md` defines every metric.

mod gate;
mod host;
mod inproc;
mod jobs;
mod metrics;
mod serve_mixed;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use hsyn_core::SynthesisReport;
use hsyn_serve::DiskStore;

use metrics::{quantile, tail, MetricDef, Outcome};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sweep_area", "refine_power", "serve_mixed"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Run time of one round of any workload's job list (timed phase plus
/// checks) on a 2-core reference host, seconds. A run measures
/// `--seconds / ROUND_S` whole rounds, at least one. The count never
/// depends on the clock, so every run of a given `--seconds` measures the
/// same work and the same number of latency samples.
const ROUND_S: f64 = 30.0;

/// How many rounds a run of `seconds` measures.
pub fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).max(1)
}

/// Where runs leave their files: serve cache directories, the replay
/// store, and trace files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// A fresh job store for the traced replay of the serve storage layer.
pub fn replay_store() -> DiskStore {
    let dir = out_dir().join(format!("replay-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    DiskStore::open(&dir).expect("replay store directory is writable")
}

/// `<prefix>_s_p50` and `<prefix>_s_tail`, with the tail's percentile and
/// sample count as a note.
pub fn set_latencies(out: &mut Outcome, prefix: &str, samples: &[f64]) {
    out.set(&format!("{prefix}_s_p50"), quantile(samples, 0.5));
    let (value, pct, n) = tail(samples);
    out.set(&format!("{prefix}_s_tail"), value);
    let beyond = if n >= 11 { 10 } else { 0 };
    out.notes.push(format!(
        "{prefix}_s_tail is p{pct} of {n} samples ({beyond} beyond it)"
    ));
}

/// Fold one job's engine counters (`MoveStats`, `ConfigTelemetry`) into
/// the per-layer metrics.
pub fn record_report(out: &mut Outcome, r: &SynthesisReport) {
    let s = &r.stats;
    out.add("core.evaluated", s.evaluated as f64);
    out.add("core.rejected", s.rejected as f64);
    out.add("core.configs_skipped", s.configs_skipped as f64);
    out.add("core.rolled_back", s.moves_rolled_back as f64);
    out.add("core.lns_ruins", s.lns_ruins as f64);
    out.add("raw.lns_accepts", s.lns_accepts as f64);
    out.add("raw.eval_hits", s.eval_cache_hits as f64);
    out.add(
        "raw.eval_lookups",
        (s.eval_cache_hits + s.eval_cache_misses) as f64,
    );
    let peak = out
        .values
        .get("core.undo_bytes_peak")
        .copied()
        .unwrap_or(0.0);
    out.set("core.undo_bytes_peak", peak.max(s.undo_bytes_peak as f64));
    for c in &r.per_config {
        out.add("core.eval_incr_s", c.eval_incr_s);
        out.add("core.apply_s", c.apply_s);
        out.add("core.lns_s", c.lns_s);
    }
}

/// Derived per-layer metrics: span self times and counter ratios.
fn finish_layers(out: &mut Outcome, tr: &Tracer) {
    for (name, (calls, self_s)) in tr.self_times() {
        out.set(&format!("{name}_s"), self_s);
        out.set(&format!("{name}_calls"), calls as f64);
    }
    out.set("trace.spans", tr.len() as f64);
    let get = |out: &Outcome, k: &str| out.values.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hit = ratio(get(out, "raw.eval_hits"), get(out, "raw.eval_lookups"));
    out.set("core.eval_hit_ratio", hit);
    let accept = ratio(get(out, "raw.lns_accepts"), get(out, "core.lns_ruins"));
    out.set("core.lns_accept_ratio", accept);
}

fn print_metrics(out: &Outcome, defs: &[MetricDef]) {
    for d in defs {
        let v = out.values.get(&d.name).copied().unwrap_or(0.0);
        println!("{:<28} {:>16.6} {}", d.name, v, d.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for fact in host::facts() {
        println!("# host {fact}");
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }

    let mut out = Outcome::default();
    let tr = match args.workload.as_str() {
        "sweep_area" => inproc::run(&inproc::SWEEP_AREA, &args, &mut out),
        "refine_power" => inproc::run(&inproc::REFINE_POWER, &args, &mut out),
        _ => match serve_mixed::run(&args, &mut out) {
            Ok(tr) => tr,
            Err(e) => {
                eprintln!("perfbench: serve_mixed could not run: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    finish_layers(&mut out, &tr);
    let _ = std::fs::remove_dir_all(out_dir().join(format!("replay-store-{}", std::process::id())));

    for note in &out.notes {
        println!("# {note}");
    }
    let e2e = metrics::end_to_end();
    let layers = metrics::per_layer();
    if args.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => println!("# {} spans written to {}", tr.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!("# end-to-end metrics of this traced run (informational)");
        print_metrics(&out, &e2e);
        println!("# per-layer metrics");
        print_metrics(&out, &layers);
    } else {
        print_metrics(&out, &e2e);
    }
    println!(
        "{:<28} {:>16.6} 1   ({} of {} attempted)",
        "fail_frac",
        out.fail_frac(),
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{}",
        out.result_line(if args.trace { &layers } else { &e2e })
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_util::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn registry(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.clone(), d.unit.to_owned(), d.better.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = benchmark_json();
        assert_eq!(
            declared(&doc, "end_to_end"),
            registry(&metrics::end_to_end())
        );
        assert_eq!(declared(&doc, "per_layer"), registry(&metrics::per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for defs in [metrics::end_to_end(), metrics::per_layer()] {
            let line = out.result_line(&defs);
            let v = Json::parse(&line).expect("the result line is JSON");
            let Json::Obj(top) = &v else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(ms)) = v.get("metrics") else {
                panic!("no metrics")
            };
            assert_eq!(ms.len(), defs.len());
            for (d, (name, m)) in defs.iter().zip(ms) {
                assert_eq!(&d.name, name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn a_corrupted_result_is_caught_and_raises_fail_frac() {
        use hsyn_core::{synthesize, Objective, SynthesisConfig};
        let bench = hsyn_dfg::benchmarks::paulin();
        let mut mlib = hsyn_rtl::ModuleLibrary::from_simple(hsyn_lib::papers::table1_library());
        mlib.equiv = bench.equiv.clone();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.laxity_factor = 2.2;
        config.max_passes = 2;
        config.report_trace_len = 16;
        let report = synthesize(&bench.hierarchy, &mlib, &config).expect("paulin synthesizes");
        let mut tr = Tracer::new(false, std::time::Instant::now());
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        gate::check_design(&report.design, &mlib.simple, &config, &mut tr, 0)
            .expect("the real design passes the gate");
        assert_eq!(out.fail_frac(), 0.0);

        // Corrupt the result: claim a one-cycle budget its schedule misses.
        let mut bad = report.design.clone();
        bad.top.core.deadline = Some(1);
        let err = gate::check_design(&bad, &mlib.simple, &config, &mut tr, 0)
            .expect_err("the gate catches the corrupted design");
        out.fail(err);
        assert_eq!(out.fail_frac(), 1.0);
        assert!(out
            .result_line(&metrics::end_to_end())
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "sweep_area"]).is_err());
        assert!(args(&["--workload", "sweep_area", "--seed", "1", "--trace", "2"]).is_err());
        let ok = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "4",
            "--seconds",
            "60",
        ])
        .unwrap();
        assert_eq!((ok.seed, rounds(ok.seconds), ok.trace), (4, 2, false));
        assert_eq!(rounds(1.0), 1);
    }
}
