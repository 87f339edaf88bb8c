//! `hsyn` — command-line driver: read a textual hierarchical DFG, run
//! H-SYN synthesis, and report the resulting architecture.
//!
//! ```text
//! hsyn <behavior.dfg> [options]
//!
//! options:
//!   --objective area|power   what to optimize            (default: power)
//!   --laxity <f>             sampling period / minimum   (default: 2.2)
//!   --period <ns>            explicit sampling period (overrides --laxity)
//!   --library table1|realistic                           (default: realistic)
//!   --flat                   flattened synthesis (the baseline)
//!   --paranoid               verify cross-layer invariants after every
//!                            accepted move (observation-only when legal)
//!   --shadow-eval            run the full evaluation alongside every cached
//!                            one and panic on the first bit-level divergence
//!   --cosim-check            co-simulate every optimized configuration
//!                            against the behavioral reference and skip
//!                            configurations whose outputs diverge
//!   --netlist                print the structural netlist
//!   --fsm                    print the FSM controller
//!   --verilog <file>         write structural Verilog
//!   --dot <file>             write the hierarchy as Graphviz DOT
//!   --power-report           print the per-module power attribution
//!   --seed <n>               trace RNG seed
//!   --parallel <n>           worker threads for the (Vdd, clock) sweep
//!                            (default: one per core; results identical
//!                            for every setting)
//!   --result-json            print only the canonical deterministic report
//!                            (what the serve differential suite compares)
//!
//! hsyn lint [<behavior.dfg> | --benchmark NAME | --all-benchmarks] [options]
//!
//! options:
//!   --synthesize             also synthesize and lint the resulting design
//!   --objective area|power|both   objective(s) for --synthesize (default: both)
//!   --library table1|realistic                           (default: realistic)
//!   --laxity <f>             laxity factor for --synthesize (default: 2.2)
//!   --allow <CODE>           suppress a rule (repeatable, e.g. --allow SCH005)
//!   --deny-warnings          exit nonzero on warnings too, not just errors
//!   --json                   machine-readable diagnostics
//!
//! hsyn analyze [<behavior.dfg> | --benchmark NAME | --all-benchmarks] [options]
//!
//! options:
//!   --objective area|power|both   objective(s) to analyze (default: both)
//!   --library table1|realistic                           (default: realistic)
//!   --laxity <f>             laxity factor (default: 2.2)
//!   --json                   machine-readable report (deterministic:
//!                            wall-clock excluded, floats as bit patterns)
//!
//! Synthesizes each target, proves per-port width certificates by abstract
//! interpretation, verifies them by certified re-execution against the
//! behavioral reference, and reports baseline vs width-sized area/power.
//! Any certificate violation or output mismatch exits nonzero.
//!
//! hsyn cosim [<behavior.dfg> | --benchmark NAME | --all-benchmarks] [options]
//!
//! options:
//!   --objective area|power|both   objective(s) to check (default: both)
//!   --library table1|realistic                           (default: realistic)
//!   --laxity <f>             laxity factor (default: 2.2)
//!   --flat                   co-simulate the flattened baseline
//!   --iters <n>              trace length in iterations (default: 32)
//!   --seed <n>               trace / fuzz RNG seed
//!   --fuzz <n>               run N coverage-guided random-DFG cases instead
//!                            of a fixed behavior
//!   --json <file>            write a divergence reproducer as JSON
//!
//! hsyn serve [options]
//!
//! options:
//!   --port <n>               listen port on 127.0.0.1 (default: 0 = free port)
//!   --cache-dir <dir>        persistent job/area cache (default: in-memory)
//!   --jobs <n>               concurrent synthesis workers (default: 2)
//!   --queue-cap <n>          bounded job-queue capacity (default: 64)
//!
//! hsyn submit --connect HOST:PORT [<behavior.dfg> | --benchmark NAME] [options]
//!
//! options:
//!   --objective/--laxity/--period/--library/--flat/--seed/--lns-iters
//!                            as for synthesis, forwarded in the job spec
//!   --deadline-ms <n>        abort the job after N ms (structured error)
//!   --tag <t>                label for targeted --cancel T
//!   --no-cache               bypass the daemon's response cache
//!   --verilog                also return structural Verilog
//!   --result-json            print only the canonical report
//!   --ping | --stats | --cancel TAG | --shutdown
//!                            daemon actions instead of a job
//!
//! Exit status: 0 clean (warnings allowed), 1 error diagnostics, failed
//! runs, or co-simulation divergences, 2 usage errors.
//! ```

use hsyn::core::{analyze, synthesize, Objective, SynthesisConfig};
use hsyn::dfg::{benchmarks, reference_outputs, text, EquivClasses, Hierarchy};
use hsyn::lib::{papers::table1_library, Library};
use hsyn::lint::{
    diagnostics_to_json, error_count, lint_hierarchy_with, verify_design_with, DesignView,
    Diagnostic, LintConfig,
};
use hsyn::rtl::{cosimulate, generate_fsm, netlist_text, verilog_text, ModuleLibrary};
use hsyn::util::Json;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hsyn [<behavior.dfg> | --benchmark NAME] [--objective area|power]\n\
         \x20           [--laxity F] [--period NS]\n\
         \x20           [--library table1|realistic] [--flat] [--paranoid] [--netlist]\n\
         \x20           [--shadow-eval] [--cosim-check] [--fsm] [--verilog FILE]\n\
         \x20           [--dot FILE] [--power-report] [--seed N] [--parallel N]\n\
         \x20           [--lns-iters N]\n\
         \x20      hsyn lint [<behavior.dfg> | --benchmark NAME | --all-benchmarks]\n\
         \x20           [--synthesize] [--objective area|power|both] [--laxity F]\n\
         \x20           [--library table1|realistic] [--allow CODE] [--json]\n\
         \x20           [--deny-warnings]\n\
         \x20      hsyn analyze [<behavior.dfg> | --benchmark NAME | --all-benchmarks]\n\
         \x20           [--objective area|power|both] [--laxity F]\n\
         \x20           [--library table1|realistic] [--json]\n\
         \x20      hsyn cosim [<behavior.dfg> | --benchmark NAME | --all-benchmarks]\n\
         \x20           [--objective area|power|both] [--laxity F] [--flat]\n\
         \x20           [--library table1|realistic] [--iters N] [--seed N]\n\
         \x20           [--fuzz N] [--json FILE]\n\
         \x20      hsyn serve [--port N] [--cache-dir DIR] [--jobs N]\n\
         \x20           [--queue-cap N]\n\
         \x20      hsyn submit --connect HOST:PORT\n\
         \x20           [<behavior.dfg> | --benchmark NAME] [--objective area|power]\n\
         \x20           [--laxity F] [--period NS] [--library table1|realistic]\n\
         \x20           [--flat] [--seed N] [--lns-iters N]\n\
         \x20           [--deadline-ms N] [--tag TAG] [--no-cache] [--verilog]\n\
         \x20           [--result-json] | --ping | --stats | --cancel TAG |\n\
         \x20           --shutdown"
    );
    ExitCode::from(2)
}

/// Render an approximate byte count with a binary unit suffix.
fn format_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Parse a library name shared by both subcommands.
fn library_by_name(name: &str) -> Option<Library> {
    match name {
        "table1" => Some(table1_library()),
        "realistic" => Some(Library::realistic()),
        _ => {
            eprintln!("unknown library `{name}`; available libraries: table1, realistic");
            None
        }
    }
}

/// Every registered benchmark name on one line, for `--benchmark` error help.
fn benchmark_names() -> String {
    benchmarks::all()
        .iter()
        .map(|b| b.name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_main(args.split_off(1)),
        Some("analyze") => analyze_main(args.split_off(1)),
        Some("cosim") => cosim_main(args.split_off(1)),
        Some("serve") => serve_main(args.split_off(1)),
        Some("submit") => submit_main(args.split_off(1)),
        // A bare first word that is neither a flag nor a readable behavior
        // file is almost certainly a mistyped subcommand; say so instead of
        // failing later with a confusing "cannot read" error.
        Some(word) if !word.starts_with('-') && !std::path::Path::new(word).exists() => {
            eprintln!(
                "unknown subcommand `{word}` (and no such file); \
                 subcommands: serve, submit, lint, analyze, cosim"
            );
            ExitCode::from(2)
        }
        _ => synth_main(args),
    }
}

/// A behavior to lint or co-simulate: its display name, hierarchy, and
/// equivalences.
struct BehaviorTarget {
    name: String,
    hierarchy: Hierarchy,
    equiv: EquivClasses,
}

/// Resolve the `<behavior.dfg> | --benchmark NAME | --all-benchmarks`
/// selection shared by `lint` and `cosim` into concrete targets. Exactly
/// one source must be given.
fn collect_targets(
    input: Option<String>,
    bench_name: Option<String>,
    all_benchmarks: bool,
) -> Result<Vec<BehaviorTarget>, ExitCode> {
    let sources = input.is_some() as u8 + bench_name.is_some() as u8 + all_benchmarks as u8;
    if sources != 1 {
        eprintln!("choose exactly one of <behavior.dfg>, --benchmark, --all-benchmarks");
        return Err(usage());
    }
    let mut targets = Vec::new();
    if let Some(path) = input {
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        match text::parse(&source) {
            Ok(p) => targets.push(BehaviorTarget {
                name: path,
                hierarchy: p.hierarchy,
                equiv: p.equiv,
            }),
            Err(e) => {
                eprintln!("{path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    } else if let Some(name) = bench_name {
        match benchmarks::by_name(&name) {
            Some(b) => targets.push(BehaviorTarget {
                name: b.name.to_owned(),
                hierarchy: b.hierarchy,
                equiv: b.equiv,
            }),
            None => {
                eprintln!(
                    "unknown benchmark `{name}`; available benchmarks: {}",
                    benchmark_names()
                );
                return Err(ExitCode::FAILURE);
            }
        }
    } else {
        for b in benchmarks::all() {
            targets.push(BehaviorTarget {
                name: b.name.to_owned(),
                hierarchy: b.hierarchy,
                equiv: b.equiv,
            });
        }
    }
    Ok(targets)
}

/// The `hsyn lint` subcommand: verify cross-layer IR invariants of a
/// textual DFG or a built-in benchmark, optionally synthesizing first and
/// linting the resulting design at its operating point.
fn lint_main(args: Vec<String>) -> ExitCode {
    let mut input: Option<String> = None;
    let mut bench_name: Option<String> = None;
    let mut all_benchmarks = false;
    let mut do_synthesize = false;
    let mut objectives = vec![Objective::Area, Objective::Power];
    let mut library = "realistic".to_owned();
    let mut laxity = 2.2f64;
    let mut json = false;
    let mut deny_warnings = false;
    let mut lint_cfg = LintConfig::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => match it.next() {
                Some(v) => bench_name = Some(v),
                None => return usage(),
            },
            "--all-benchmarks" => all_benchmarks = true,
            "--synthesize" => do_synthesize = true,
            "--objective" => match it.next().as_deref() {
                Some("area") => objectives = vec![Objective::Area],
                Some("power") => objectives = vec![Objective::Power],
                Some("both") => objectives = vec![Objective::Area, Objective::Power],
                _ => return usage(),
            },
            "--library" => match it.next() {
                Some(v) => library = v,
                None => return usage(),
            },
            "--laxity" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => laxity = v,
                _ => {
                    eprintln!("--laxity expects a positive number");
                    return usage();
                }
            },
            "--allow" => match it.next() {
                Some(code) => {
                    if !lint_cfg.allow_str(&code) {
                        eprintln!("unknown rule code `{code}`");
                        return usage();
                    }
                }
                None => return usage(),
            },
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => return usage(),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let targets = match collect_targets(input, bench_name, all_benchmarks) {
        Ok(t) => t,
        Err(code) => return code,
    };

    let Some(simple) = library_by_name(&library) else {
        return ExitCode::FAILURE;
    };

    let mut failed = false;
    let mut results: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    for target in &targets {
        // The behavioral input itself.
        let diags = lint_hierarchy_with(&target.hierarchy, &lint_cfg);
        failed |= error_count(&diags) > 0 || (deny_warnings && !diags.is_empty());
        results.push((target.name.clone(), diags));

        if !do_synthesize {
            continue;
        }
        for &objective in &objectives {
            let label = format!(
                "{}[{}]",
                target.name,
                match objective {
                    Objective::Area => "area",
                    Objective::Power => "power",
                }
            );
            let mut mlib = ModuleLibrary::from_simple(simple.clone());
            mlib.equiv = target.equiv.clone();
            let mut config = SynthesisConfig::new(objective);
            config.laxity_factor = laxity;
            let report = match synthesize(&target.hierarchy, &mlib, &config) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{label}: synthesis failed: {e}");
                    failed = true;
                    continue;
                }
            };
            let design = &report.design;
            let diags = verify_design_with(
                &DesignView {
                    hierarchy: &design.hierarchy,
                    module: &design.top.built,
                    lib: &mlib.simple,
                    vdd: design.op.vdd,
                    clk_ns: design.op.clk_ref_ns,
                    sampling_period: design.top.core.deadline,
                },
                &lint_cfg,
            );
            failed |= error_count(&diags) > 0 || (deny_warnings && !diags.is_empty());
            results.push((label, diags));
        }
    }

    if json {
        let arr: Vec<Json> = results
            .iter()
            .map(|(name, diags)| {
                Json::Obj(vec![
                    ("target".to_owned(), Json::Str(name.clone())),
                    ("errors".to_owned(), Json::Num(error_count(diags) as f64)),
                    ("diagnostics".to_owned(), diagnostics_to_json(diags)),
                ])
            })
            .collect();
        println!("{}", Json::Arr(arr).to_string_pretty());
    } else {
        for (name, diags) in &results {
            if diags.is_empty() {
                println!("{name}: clean");
            } else {
                println!(
                    "{name}: {} diagnostics ({} errors)",
                    diags.len(),
                    error_count(diags)
                );
                for d in diags {
                    println!("  {d}");
                }
            }
        }
        // Per-rule tally across every target, in stable code order.
        let mut by_code: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        for (_, diags) in &results {
            for d in diags {
                *by_code.entry(d.code.as_str()).or_insert(0) += 1;
            }
        }
        if by_code.is_empty() {
            println!("rules fired: none");
        } else {
            let tally: Vec<String> = by_code
                .iter()
                .map(|(code, n)| format!("{code}x{n}"))
                .collect();
            println!("rules fired: {}", tally.join(" "));
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `hsyn analyze` subcommand: synthesize each target, prove per-port
/// width certificates by abstract interpretation, verify them by certified
/// re-execution against the behavioral reference, and report baseline vs
/// width-sized area and power.
fn analyze_main(args: Vec<String>) -> ExitCode {
    let mut input: Option<String> = None;
    let mut bench_name: Option<String> = None;
    let mut all_benchmarks = false;
    let mut objectives = vec![Objective::Area, Objective::Power];
    let mut library = "realistic".to_owned();
    let mut laxity = 2.2f64;
    let mut json = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => match it.next() {
                Some(v) => bench_name = Some(v),
                None => return usage(),
            },
            "--all-benchmarks" => all_benchmarks = true,
            "--objective" => match it.next().as_deref() {
                Some("area") => objectives = vec![Objective::Area],
                Some("power") => objectives = vec![Objective::Power],
                Some("both") => objectives = vec![Objective::Area, Objective::Power],
                _ => return usage(),
            },
            "--library" => match it.next() {
                Some(v) => library = v,
                None => return usage(),
            },
            "--laxity" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => laxity = v,
                _ => {
                    eprintln!("--laxity expects a positive number");
                    return usage();
                }
            },
            "--json" => json = true,
            "--help" | "-h" => return usage(),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let targets = match collect_targets(input, bench_name, all_benchmarks) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let Some(simple) = library_by_name(&library) else {
        return ExitCode::FAILURE;
    };

    let mut failed = false;
    let mut json_out: Vec<Json> = Vec::new();
    for target in &targets {
        let mut mlib = ModuleLibrary::from_simple(simple.clone());
        mlib.equiv = target.equiv.clone();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.laxity_factor = laxity;
        let report = match analyze(&target.hierarchy, &mlib, &config, &objectives) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", target.name);
                failed = true;
                continue;
            }
        };
        if json {
            json_out.push(Json::Obj(vec![
                ("target".to_owned(), Json::Str(target.name.clone())),
                ("report".to_owned(), report.result_json_value()),
            ]));
            continue;
        }
        println!("{} (width {}):", target.name, report.width);
        for o in &report.objectives {
            let base_area = o.baseline.area.total();
            let sized_area = o.sized_area.total();
            let base_power = o.baseline.power.power;
            let sized_power = o.sized_power.power;
            let pct = |base: f64, sized: f64| {
                if base > 0.0 {
                    100.0 * (base - sized) / base
                } else {
                    0.0
                }
            };
            println!(
                "  {:>5}: area {base_area:.0} -> {sized_area:.0} (-{:.1}%), power {base_power:.4} -> {sized_power:.4} (-{:.1}%)",
                match o.objective {
                    Objective::Area => "area",
                    Objective::Power => "power",
                },
                pct(base_area, sized_area),
                pct(base_power, sized_power),
            );
            println!(
                "         certified {}/{} ports narrowed, {} resources below nominal, {} iterations verified",
                o.narrowed_ports, o.total_ports, o.narrowed_resources, o.verified_iterations
            );
            println!(
                "         fixpoint {:.3} ms over {} dfgs ({} summary runs, {} memo hits)",
                o.stats.fixpoint_s * 1e3,
                o.stats.dfgs_analyzed,
                o.stats.summary_runs,
                o.stats.memo_hits
            );
        }
    }
    if json {
        println!("{}", Json::Arr(json_out).to_string_pretty());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `hsyn cosim` subcommand: synthesize a behavior (or a fleet of random
/// ones with `--fuzz`) and step the resulting FSM + datapath cycle by cycle,
/// requiring the outputs to match the flattened behavioral reference byte
/// for byte.
fn cosim_main(args: Vec<String>) -> ExitCode {
    let mut input: Option<String> = None;
    let mut bench_name: Option<String> = None;
    let mut all_benchmarks = false;
    let mut objectives = vec![Objective::Area, Objective::Power];
    let mut library = "realistic".to_owned();
    let mut laxity = 2.2f64;
    let mut flat = false;
    let mut iters = 32usize;
    let mut seed = 0xDAC_1998u64;
    let mut fuzz_cases: Option<u64> = None;
    let mut json_out: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => match it.next() {
                Some(v) => bench_name = Some(v),
                None => return usage(),
            },
            "--all-benchmarks" => all_benchmarks = true,
            "--objective" => match it.next().as_deref() {
                Some("area") => objectives = vec![Objective::Area],
                Some("power") => objectives = vec![Objective::Power],
                Some("both") => objectives = vec![Objective::Area, Objective::Power],
                _ => return usage(),
            },
            "--library" => match it.next() {
                Some(v) => library = v,
                None => return usage(),
            },
            "--laxity" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => laxity = v,
                _ => {
                    eprintln!("--laxity expects a positive number");
                    return usage();
                }
            },
            "--flat" => flat = true,
            "--iters" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => iters = v,
                _ => {
                    eprintln!("--iters expects a positive iteration count");
                    return usage();
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--fuzz" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) if v >= 1 => fuzz_cases = Some(v),
                _ => {
                    eprintln!("--fuzz expects a positive case count");
                    return usage();
                }
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some(v),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    // Fuzz mode: coverage-guided random DFGs instead of a fixed behavior.
    if let Some(cases) = fuzz_cases {
        if input.is_some() || bench_name.is_some() || all_benchmarks {
            eprintln!("--fuzz takes no behavior argument");
            return usage();
        }
        let report = hsyn::core::fuzz_cosim(cases, seed);
        println!(
            "fuzz                : {} cases, {} executed, {} synthesis-infeasible",
            report.cases, report.executed, report.synth_failures
        );
        println!(
            "coverage            : {} distinct structural features",
            report.coverage.distinct()
        );
        let Some(div) = report.divergence else {
            println!("result              : clean");
            return ExitCode::SUCCESS;
        };
        eprintln!(
            "DIVERGENCE at case {} (seed {}, {}): {}",
            div.case,
            div.case_seed,
            match div.objective {
                Objective::Area => "area",
                Objective::Power => "power",
            },
            div.detail
        );
        let repro = div.to_json().to_string_pretty();
        if let Some(path) = json_out {
            if let Err(e) = std::fs::write(&path, &repro) {
                eprintln!("cannot write {path}: {e}");
            } else {
                eprintln!("reproducer written  : {path}");
            }
        } else {
            eprintln!("{repro}");
        }
        return ExitCode::FAILURE;
    }

    let targets = match collect_targets(input, bench_name, all_benchmarks) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let Some(simple) = library_by_name(&library) else {
        return ExitCode::FAILURE;
    };

    let mut failed = false;
    for target in &targets {
        if let Err(e) = target.hierarchy.validate() {
            eprintln!("{}: {e}", target.name);
            failed = true;
            continue;
        }
        let flat_ref = target.hierarchy.flatten();
        for &objective in &objectives {
            let label = format!(
                "{}[{}{}]",
                target.name,
                match objective {
                    Objective::Area => "area",
                    Objective::Power => "power",
                },
                if flat { ",flat" } else { "" }
            );
            let mut mlib = ModuleLibrary::from_simple(simple.clone());
            mlib.equiv = target.equiv.clone();
            let mut config = SynthesisConfig::new(objective);
            config.laxity_factor = laxity;
            config.hierarchical = !flat;
            config.seed = seed;
            let report = match synthesize(&target.hierarchy, &mlib, &config) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{label}: synthesis failed: {e}");
                    failed = true;
                    continue;
                }
            };
            let design = &report.design;
            let traces =
                hsyn::power::dsp_default(flat_ref.input_count(), iters, config.width, seed);
            let want = reference_outputs(&flat_ref, &traces.samples, traces.width);
            match cosimulate(
                &design.hierarchy,
                &design.top.built,
                &traces.samples,
                traces.width,
            ) {
                Ok(run) if run.outputs == want => {
                    println!(
                        "{label}: ok ({} iterations, {} cycles, {} FU fires, \
                         {} register writes, {} sub calls)",
                        run.stats.iterations,
                        run.stats.cycles,
                        run.stats.fu_fires,
                        run.stats.reg_writes,
                        run.stats.sub_calls
                    );
                }
                Ok(_) => {
                    eprintln!("{label}: DIVERGED: outputs differ from the behavioral reference");
                    failed = true;
                }
                Err(d) => {
                    eprintln!("{label}: DIVERGED: {d}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn synth_main(args: Vec<String>) -> ExitCode {
    let mut input: Option<String> = None;
    let mut bench_name: Option<String> = None;
    let mut objective = Objective::Power;
    let mut laxity = 2.2f64;
    let mut period: Option<f64> = None;
    let mut library = "realistic".to_owned();
    let mut flat = false;
    let mut show_netlist = false;
    let mut show_fsm = false;
    let mut verilog_out: Option<String> = None;
    let mut dot_out: Option<String> = None;
    let mut power_report = false;
    let mut seed: Option<u64> = None;
    let mut parallel: Option<usize> = None;
    let mut paranoid = false;
    let mut shadow_eval = false;
    let mut cosim_check = false;
    let mut lns_iters = 0usize;
    let mut result_json_only = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<String> {
            match it.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("{name} expects a value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--objective" => match take("--objective").as_deref() {
                Some("area") => objective = Objective::Area,
                Some("power") => objective = Objective::Power,
                _ => return usage(),
            },
            "--laxity" => match take("--laxity").and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => laxity = v,
                _ => {
                    eprintln!("--laxity expects a positive number");
                    return usage();
                }
            },
            "--period" => match take("--period").and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => period = Some(v),
                _ => {
                    eprintln!("--period expects a positive number of nanoseconds");
                    return usage();
                }
            },
            "--library" => match take("--library") {
                Some(v) => library = v,
                None => return usage(),
            },
            "--flat" => flat = true,
            "--paranoid" => paranoid = true,
            "--shadow-eval" => shadow_eval = true,
            "--cosim-check" => cosim_check = true,
            "--netlist" => show_netlist = true,
            "--fsm" => show_fsm = true,
            "--verilog" => match take("--verilog") {
                Some(v) => verilog_out = Some(v),
                None => return usage(),
            },
            "--dot" => match take("--dot") {
                Some(v) => dot_out = Some(v),
                None => return usage(),
            },
            "--power-report" => power_report = true,
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = Some(v),
                None => return usage(),
            },
            "--parallel" => match take("--parallel").and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => parallel = Some(v),
                _ => {
                    eprintln!("--parallel expects a thread count of at least 1");
                    return usage();
                }
            },
            "--lns-iters" => match take("--lns-iters").and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => lns_iters = v,
                None => {
                    eprintln!("--lns-iters expects an iteration count");
                    return usage();
                }
            },
            "--benchmark" => match take("--benchmark") {
                Some(v) => bench_name = Some(v),
                None => return usage(),
            },
            "--result-json" => result_json_only = true,
            "--help" | "-h" => return usage(),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let (path, hierarchy, equiv) = match (input, bench_name) {
        (Some(_), Some(_)) => {
            eprintln!("choose one of <behavior.dfg> or --benchmark");
            return usage();
        }
        (None, None) => return usage(),
        (Some(path), None) => {
            let source = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let parsed = match text::parse(&source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = parsed.hierarchy.validate() {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
            (path, parsed.hierarchy, parsed.equiv)
        }
        (None, Some(name)) => match benchmarks::by_name(&name) {
            Some(b) => (b.name.to_owned(), b.hierarchy, b.equiv),
            None => {
                eprintln!(
                    "unknown benchmark `{name}`; available benchmarks: {}",
                    benchmark_names()
                );
                return ExitCode::FAILURE;
            }
        },
    };

    let Some(simple) = library_by_name(&library) else {
        return ExitCode::FAILURE;
    };
    let mut mlib = ModuleLibrary::from_simple(simple);
    mlib.equiv = equiv;

    let mut config = SynthesisConfig::new(objective);
    config.laxity_factor = laxity;
    config.sampling_period_ns = period;
    config.hierarchical = !flat;
    if let Some(s) = seed {
        config.seed = s;
    }
    if parallel.is_some() {
        config.parallelism = parallel;
    }
    config.paranoid = paranoid;
    config.shadow_eval = shadow_eval;
    config.cosim_check = cosim_check;
    config.lns_iters = lns_iters;

    let report = match synthesize(&hierarchy, &mlib, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if result_json_only {
        // The canonical deterministic report, nothing else: this is what
        // the serve differential suite byte-compares against daemon runs.
        println!("{}", report.result_json());
        return ExitCode::SUCCESS;
    }

    let design = &report.design;
    println!("behavior            : {}", path);
    println!(
        "mode                : {} / {}",
        if flat { "flattened" } else { "hierarchical" },
        match objective {
            Objective::Area => "area-optimized",
            Objective::Power => "power-optimized",
        }
    );
    println!("min sampling period : {:.1} ns", report.min_period_ns);
    println!("sampling period     : {:.1} ns", report.period_ns);
    println!("supply voltage      : {} V", design.op.vdd);
    println!(
        "clock               : {:.2} ns ({} cycles per sample)",
        design.op.physical_clk_ns(&mlib.simple),
        design.op.sampling_cycles
    );
    println!(
        "area                : {:.1}",
        report.evaluation.area.total()
    );
    println!("power               : {:.4}", report.evaluation.power.power);
    println!(
        "hardware            : {} functional units, {} registers",
        design.top.built.total_fu_count(),
        design.top.built.total_reg_count()
    );
    println!(
        "engine              : {} moves (A={} B={} C={} D={}), {} passes, {:.2}s",
        report.stats.applied_a
            + report.stats.applied_b
            + report.stats.applied_c
            + report.stats.applied_d,
        report.stats.applied_a,
        report.stats.applied_b,
        report.stats.applied_c,
        report.stats.applied_d,
        report.stats.passes,
        report.elapsed_s
    );
    println!(
        "configurations      : {} optimized, {} infeasible",
        report.per_config.len(),
        report.skipped_configs.len()
    );
    if paranoid {
        println!(
            "verifier            : clean, {:.3}s across {} configurations{}",
            report.per_config.iter().map(|c| c.verify_s).sum::<f64>(),
            report.per_config.len(),
            if shadow_eval {
                " (includes the shadow reference evaluations)"
            } else {
                ""
            }
        );
    }
    if cosim_check {
        let flagged = report
            .skipped_configs
            .iter()
            .filter(|s| s.rule.as_deref() == Some("COSIM"))
            .count();
        println!(
            "cosim check         : {} configurations clean, {} diverged",
            report.per_config.len(),
            flagged
        );
    }
    let incr_s: f64 = report.per_config.iter().map(|c| c.eval_incr_s).sum();
    println!(
        "eval cache          : {} hits, {} misses, {incr_s:.3}s evaluating{}",
        report.stats.eval_cache_hits,
        report.stats.eval_cache_misses,
        if shadow_eval {
            " (shadowed by full recomputation, identical)"
        } else {
            ""
        }
    );
    println!(
        "move B memo         : {} hits, {} misses",
        report.stats.resynth_hits, report.stats.resynth_misses,
    );
    println!(
        "candidate memo      : {} hits, {} misses",
        report.stats.cand_hits, report.stats.cand_misses,
    );
    let apply_s: f64 = report.per_config.iter().map(|c| c.apply_s).sum();
    println!(
        "move engine         : {} rolled back, {} undo-journal peak, {apply_s:.3}s applying",
        report.stats.moves_rolled_back,
        format_bytes(report.stats.undo_bytes_peak),
    );
    if lns_iters > 0 {
        let lns_s: f64 = report.per_config.iter().map(|c| c.lns_s).sum();
        println!(
            "lns                 : {} ruins, {} accepted, {lns_s:.3}s refining",
            report.stats.lns_ruins, report.stats.lns_accepts
        );
    }
    if let Some(scaled) = &report.vdd_scaled {
        println!(
            "voltage-scaled      : {} V, power {:.4}",
            scaled.design.op.vdd, scaled.evaluation.power.power
        );
    }

    if show_netlist {
        println!("\n== netlist ==\n");
        println!(
            "{}",
            netlist_text(&design.hierarchy, &design.top.built, &mlib.simple)
        );
    }
    if show_fsm {
        let fsm = generate_fsm(&design.hierarchy, &design.top.built);
        println!("\n== controller ({} states) ==\n", fsm.state_count());
        println!("{fsm}");
    }
    if power_report {
        let traces = hsyn::power::dsp_default(
            design.hierarchy.dfg(design.top.core.dfg).input_count(),
            config.report_trace_len,
            config.width,
            config.seed ^ 0x5eed,
        );
        println!("\n== power attribution ==\n");
        print!(
            "{}",
            hsyn::power::report_text(
                &design.hierarchy,
                &design.top.built,
                &mlib.simple,
                &traces,
                &report.evaluation.power,
            )
        );
    }
    if let Some(dpath) = dot_out {
        let dot = hsyn::dfg::dot::hierarchy_to_dot(&design.hierarchy);
        if let Err(e) = std::fs::write(&dpath, dot) {
            eprintln!("cannot write {dpath}: {e}");
            return ExitCode::FAILURE;
        }
        println!("dot written         : {dpath}");
    }
    if let Some(vpath) = verilog_out {
        let v = verilog_text(&design.hierarchy, &design.top.built, &mlib.simple, 16);
        if let Err(e) = std::fs::write(&vpath, v) {
            eprintln!("cannot write {vpath}: {e}");
            return ExitCode::FAILURE;
        }
        println!("verilog written     : {vpath}");
    }
    ExitCode::SUCCESS
}

/// `hsyn serve`: run the synthesis daemon until a client sends `shutdown`.
fn serve_main(args: Vec<String>) -> ExitCode {
    use hsyn::serve::{ServeOptions, Server};

    let mut opts = ServeOptions {
        banner: true,
        ..ServeOptions::default()
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<String> {
            match it.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("{name} expects a value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--port" => match take("--port").and_then(|v| v.parse::<u16>().ok()) {
                Some(p) => opts.addr = format!("127.0.0.1:{p}"),
                None => {
                    eprintln!("--port expects a port number");
                    return usage();
                }
            },
            "--cache-dir" => match take("--cache-dir") {
                Some(d) => opts.cache_dir = Some(std::path::PathBuf::from(d)),
                None => return usage(),
            },
            "--jobs" => match take("--jobs").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.workers = n,
                _ => {
                    eprintln!("--jobs expects a worker count of at least 1");
                    return usage();
                }
            },
            "--queue-cap" => match take("--queue-cap").and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.queue_cap = n,
                _ => {
                    eprintln!("--queue-cap expects a capacity of at least 1");
                    return usage();
                }
            },
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let server = match Server::bind(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `hsyn submit`: one synchronous client interaction with a running daemon.
fn submit_main(args: Vec<String>) -> ExitCode {
    use hsyn::serve::{Client, JobSource, JobSpec};

    let mut connect: Option<String> = None;
    let mut input: Option<String> = None;
    let mut bench_name: Option<String> = None;
    let mut objective = Objective::Power;
    let mut laxity: Option<f64> = None;
    let mut period: Option<f64> = None;
    let mut library: Option<String> = None;
    let mut flat = false;
    let mut seed: Option<u64> = None;
    let mut lns_iters: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut tag: Option<String> = None;
    let mut no_cache = false;
    let mut want_verilog = false;
    let mut result_json_only = false;
    let mut do_ping = false;
    let mut do_stats = false;
    let mut do_shutdown = false;
    let mut cancel_tag: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<String> {
            match it.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("{name} expects a value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--connect" => match take("--connect") {
                Some(v) => connect = Some(v),
                None => return usage(),
            },
            "--benchmark" => match take("--benchmark") {
                Some(v) => bench_name = Some(v),
                None => return usage(),
            },
            "--objective" => match take("--objective").as_deref() {
                Some("area") => objective = Objective::Area,
                Some("power") => objective = Objective::Power,
                _ => return usage(),
            },
            "--laxity" => match take("--laxity").and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => laxity = Some(v),
                _ => {
                    eprintln!("--laxity expects a positive number");
                    return usage();
                }
            },
            "--period" => match take("--period").and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => period = Some(v),
                _ => {
                    eprintln!("--period expects a positive number of nanoseconds");
                    return usage();
                }
            },
            "--library" => match take("--library") {
                Some(v) => library = Some(v),
                None => return usage(),
            },
            "--flat" => flat = true,
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = Some(v),
                None => return usage(),
            },
            "--lns-iters" => match take("--lns-iters").and_then(|v| v.parse().ok()) {
                Some(v) => lns_iters = Some(v),
                None => return usage(),
            },
            "--deadline-ms" => match take("--deadline-ms").and_then(|v| v.parse().ok()) {
                Some(v) => deadline_ms = Some(v),
                None => return usage(),
            },
            "--tag" => match take("--tag") {
                Some(v) => tag = Some(v),
                None => return usage(),
            },
            "--no-cache" => no_cache = true,
            "--verilog" => want_verilog = true,
            "--result-json" => result_json_only = true,
            "--ping" => do_ping = true,
            "--stats" => do_stats = true,
            "--shutdown" => do_shutdown = true,
            "--cancel" => match take("--cancel") {
                Some(v) => cancel_tag = Some(v),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let Some(addr) = connect else {
        eprintln!("submit needs --connect HOST:PORT");
        return usage();
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Action requests are exclusive of a job submission.
    if do_ping {
        return match client.ping() {
            Ok(()) => {
                println!("pong");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if do_stats {
        return match client.stats() {
            Ok(v) => {
                println!("{}", v.to_string_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(t) = cancel_tag {
        return match client.cancel(&t) {
            Ok(n) => {
                println!("cancelled {n} job(s) tagged `{t}`");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if do_shutdown {
        return match client.shutdown() {
            Ok(n) => {
                println!("daemon drained and stopped after {n} job(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let source = match (input, bench_name) {
        (Some(_), Some(_)) => {
            eprintln!("choose one of <behavior.dfg> or --benchmark");
            return usage();
        }
        (None, None) => {
            eprintln!("submit needs a job (<behavior.dfg> or --benchmark) or an action flag");
            return usage();
        }
        (Some(path), None) => match std::fs::read_to_string(&path) {
            Ok(s) => JobSource::Text(s),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(name)) => JobSource::Bench(name),
    };
    let mut job = JobSpec::new(source);
    job.objective = objective;
    if let Some(v) = laxity {
        job.laxity = v;
    }
    job.period_ns = period;
    if let Some(l) = library {
        job.library = l;
    }
    job.flat = flat;
    job.seed = seed;
    if let Some(v) = lns_iters {
        job.lns_iters = v;
    }
    job.deadline_ms = deadline_ms;
    job.tag = tag;
    job.no_cache = no_cache;
    job.want_verilog = want_verilog;

    match client.submit(&job) {
        Ok(result) => {
            if result_json_only {
                println!("{}", result.result_json);
            } else {
                println!(
                    "served {} in {:.1} ms ({:.1} ms queued), {} warm area hits",
                    if result.cached { "from cache" } else { "fresh" },
                    result.wall_ms,
                    result.queue_ms,
                    result.warm_area_hits
                );
                println!("{}", result.result_json);
                if let Some(v) = &result.verilog {
                    println!("\n== verilog ==\n\n{v}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
