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
//!   --cache-dir <dir>        persistent job cache (default: in-memory)
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
use hsyn::lib::Library;
use hsyn::lint::{
    diagnostics_to_json, error_count, lint_hierarchy_with, verify_design_with, DesignView,
    Diagnostic, LintConfig,
};
use hsyn::rtl::{cosimulate, generate_fsm, netlist_text, verilog_text, ModuleLibrary};
use hsyn::serve::{named_benchmark, named_library, JobError, JobSource, JobSpec};
use hsyn::util::Json;
use std::io::Write;
use std::process::ExitCode;

/// Write to stdout through one locked handle. A reader that has gone away
/// (`hsyn ... | head -1`) ends the process quietly with status 0, as it
/// would end any Unix filter; any other write error exits 1.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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

/// The value after flag `name`, or `None` and a message saying it is
/// missing.
fn flag_value(name: &str, it: &mut impl Iterator<Item = String>) -> Option<String> {
    let value = it.next();
    if value.is_none() {
        eprintln!("{name} expects a value");
    }
    value
}

/// Print `e` and return the failure status.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

/// A positive finite number, or `msg` and the usage text.
fn positive(value: Option<String>, msg: &str) -> Result<f64, ExitCode> {
    match value.and_then(|v| v.parse::<f64>().ok()) {
        Some(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => {
            eprintln!("{msg}");
            Err(usage())
        }
    }
}

/// The job flags one-shot synthesis and `hsyn submit` share: the behavior
/// (`<behavior.dfg>` or `--benchmark`) and the knobs of its [`JobSpec`].
struct JobArgs {
    input: Option<String>,
    bench_name: Option<String>,
    /// Every knob but the source, which [`into_job`](Self::into_job) sets.
    job: JobSpec,
}

impl JobArgs {
    fn new() -> Self {
        JobArgs {
            input: None,
            bench_name: None,
            job: JobSpec::new(JobSource::Bench(String::new())),
        }
    }

    /// Consume `arg`, and its value from `it`, if it is a job flag or the
    /// behavior path; `Ok(false)` if it is neither.
    fn take(&mut self, arg: &str, it: &mut impl Iterator<Item = String>) -> Result<bool, ExitCode> {
        let job = &mut self.job;
        match arg {
            "--benchmark" => self.bench_name = Some(flag_value(arg, it).ok_or_else(usage)?),
            "--objective" => {
                job.objective = match flag_value(arg, it).as_deref() {
                    Some("area") => Objective::Area,
                    Some("power") => Objective::Power,
                    _ => return Err(usage()),
                }
            }
            "--laxity" => job.laxity = positive(it.next(), "--laxity expects a positive number")?,
            "--period" => {
                let msg = "--period expects a positive number of nanoseconds";
                job.period_ns = Some(positive(it.next(), msg)?);
            }
            "--library" => job.library = flag_value(arg, it).ok_or_else(usage)?,
            "--flat" => job.flat = true,
            "--seed" => match flag_value(arg, it).and_then(|v| v.parse().ok()) {
                Some(v) => job.seed = Some(v),
                None => return Err(usage()),
            },
            "--lns-iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => job.lns_iters = v,
                None => {
                    eprintln!("--lns-iters expects an iteration count");
                    return Err(usage());
                }
            },
            other if self.input.is_none() && !other.starts_with('-') => {
                self.input = Some(other.to_owned());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The job with its source read, and its label: the behavior path or
    /// the benchmark name. Exactly one source must be given.
    fn into_job(self) -> Result<(String, JobSpec), ExitCode> {
        let mut job = self.job;
        let label = match (self.input, self.bench_name) {
            (Some(_), Some(_)) => {
                eprintln!("choose one of <behavior.dfg> or --benchmark");
                return Err(usage());
            }
            (None, None) => {
                eprintln!("no job: give a <behavior.dfg> or --benchmark NAME");
                return Err(usage());
            }
            (Some(path), None) => match std::fs::read_to_string(&path) {
                Ok(text) => {
                    job.source = JobSource::Text(text);
                    path
                }
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return Err(ExitCode::FAILURE);
                }
            },
            (None, Some(name)) => {
                job.source = JobSource::Bench(name.clone());
                name
            }
        };
        Ok((label, job))
    }
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

/// The flags `lint`, `analyze` and `cosim` share: the behaviors to check
/// (`<behavior.dfg> | --benchmark NAME | --all-benchmarks`), the
/// objectives, the library and the laxity.
struct TargetArgs {
    input: Option<String>,
    bench_name: Option<String>,
    all_benchmarks: bool,
    objectives: Vec<Objective>,
    library: String,
    laxity: f64,
}

impl TargetArgs {
    fn new() -> Self {
        TargetArgs {
            input: None,
            bench_name: None,
            all_benchmarks: false,
            objectives: vec![Objective::Area, Objective::Power],
            library: "realistic".to_owned(),
            laxity: 2.2,
        }
    }

    /// Consume `arg`, and its value from `it`, if it is one of these flags
    /// or the behavior path; `Ok(false)` if it is neither.
    fn take(&mut self, arg: &str, it: &mut impl Iterator<Item = String>) -> Result<bool, ExitCode> {
        match arg {
            "--benchmark" => self.bench_name = Some(flag_value(arg, it).ok_or_else(usage)?),
            "--all-benchmarks" => self.all_benchmarks = true,
            "--objective" => {
                self.objectives = match flag_value(arg, it).as_deref() {
                    Some("area") => vec![Objective::Area],
                    Some("power") => vec![Objective::Power],
                    Some("both") => vec![Objective::Area, Objective::Power],
                    _ => return Err(usage()),
                }
            }
            "--library" => self.library = flag_value(arg, it).ok_or_else(usage)?,
            "--laxity" => self.laxity = positive(it.next(), "--laxity expects a positive number")?,
            other if self.input.is_none() && !other.starts_with('-') => {
                self.input = Some(other.to_owned());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The selected behaviors and the component library. Exactly one
    /// source must be given.
    fn targets(&self) -> Result<(Vec<BehaviorTarget>, Library), ExitCode> {
        let sources = self.input.is_some() as u8
            + self.bench_name.is_some() as u8
            + self.all_benchmarks as u8;
        if sources != 1 {
            eprintln!("choose exactly one of <behavior.dfg>, --benchmark, --all-benchmarks");
            return Err(usage());
        }
        let targets = if let Some(path) = &self.input {
            let source = std::fs::read_to_string(path)
                .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
            let p = text::parse(&source).map_err(|e| fail(format!("{path}: {e}")))?;
            vec![BehaviorTarget {
                name: path.clone(),
                hierarchy: p.hierarchy,
                equiv: p.equiv,
            }]
        } else {
            let benches = match &self.bench_name {
                Some(name) => vec![named_benchmark(name).map_err(fail)?],
                None => benchmarks::all(),
            };
            benches
                .into_iter()
                .map(|b| BehaviorTarget {
                    name: b.name.to_owned(),
                    hierarchy: b.hierarchy,
                    equiv: b.equiv,
                })
                .collect()
        };
        Ok((targets, named_library(&self.library).map_err(fail)?))
    }
}

/// The `hsyn lint` subcommand: verify cross-layer IR invariants of a
/// textual DFG or a built-in benchmark, optionally synthesizing first and
/// linting the resulting design at its operating point.
fn lint_main(args: Vec<String>) -> ExitCode {
    let mut do_synthesize = false;
    let mut json = false;
    let mut deny_warnings = false;
    let mut lint_cfg = LintConfig::new();

    let mut sel = TargetArgs::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match sel.take(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        match arg.as_str() {
            "--synthesize" => do_synthesize = true,
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
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let (targets, simple) = match sel.targets() {
        Ok(t) => t,
        Err(code) => return code,
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
        for &objective in &sel.objectives {
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
            config.laxity_factor = sel.laxity;
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
        outln!("{}", Json::Arr(arr).to_string_pretty());
    } else {
        for (name, diags) in &results {
            if diags.is_empty() {
                outln!("{name}: clean");
            } else {
                outln!(
                    "{name}: {} diagnostics ({} errors)",
                    diags.len(),
                    error_count(diags)
                );
                for d in diags {
                    outln!("  {d}");
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
            outln!("rules fired: none");
        } else {
            let tally: Vec<String> = by_code
                .iter()
                .map(|(code, n)| format!("{code}x{n}"))
                .collect();
            outln!("rules fired: {}", tally.join(" "));
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
    let mut json = false;

    let mut sel = TargetArgs::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match sel.take(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let (targets, simple) = match sel.targets() {
        Ok(t) => t,
        Err(code) => return code,
    };

    let mut failed = false;
    let mut json_out: Vec<Json> = Vec::new();
    for target in &targets {
        let mut mlib = ModuleLibrary::from_simple(simple.clone());
        mlib.equiv = target.equiv.clone();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.laxity_factor = sel.laxity;
        let report = match analyze(&target.hierarchy, &mlib, &config, &sel.objectives) {
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
        outln!("{} (width {}):", target.name, report.width);
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
            outln!(
                "  {:>5}: area {base_area:.0} -> {sized_area:.0} (-{:.1}%), power {base_power:.4} -> {sized_power:.4} (-{:.1}%)",
                match o.objective {
                    Objective::Area => "area",
                    Objective::Power => "power",
                },
                pct(base_area, sized_area),
                pct(base_power, sized_power),
            );
            outln!(
                "         certified {}/{} ports narrowed, {} resources below nominal, {} iterations verified",
                o.narrowed_ports, o.total_ports, o.narrowed_resources, o.verified_iterations
            );
            outln!(
                "         fixpoint {:.3} ms over {} dfgs ({} summary runs, {} memo hits)",
                o.stats.fixpoint_s * 1e3,
                o.stats.dfgs_analyzed,
                o.stats.summary_runs,
                o.stats.memo_hits
            );
        }
    }
    if json {
        outln!("{}", Json::Arr(json_out).to_string_pretty());
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
    let mut flat = false;
    let mut iters = 32usize;
    let mut seed = 0xDAC_1998u64;
    let mut fuzz_cases: Option<u64> = None;
    let mut json_out: Option<String> = None;

    let mut sel = TargetArgs::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match sel.take(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        match arg.as_str() {
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
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    // Fuzz mode: coverage-guided random DFGs instead of a fixed behavior.
    if let Some(cases) = fuzz_cases {
        if sel.input.is_some() || sel.bench_name.is_some() || sel.all_benchmarks {
            eprintln!("--fuzz takes no behavior argument");
            return usage();
        }
        let report = hsyn::core::fuzz_cosim(cases, seed);
        outln!(
            "fuzz                : {} cases, {} executed, {} synthesis-infeasible",
            report.cases,
            report.executed,
            report.synth_failures
        );
        outln!(
            "coverage            : {} distinct structural features",
            report.coverage.distinct()
        );
        let Some(div) = report.divergence else {
            outln!("result              : clean");
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

    let (targets, simple) = match sel.targets() {
        Ok(t) => t,
        Err(code) => return code,
    };

    let mut failed = false;
    for target in &targets {
        if let Err(e) = target.hierarchy.validate() {
            eprintln!("{}: {e}", target.name);
            failed = true;
            continue;
        }
        let flat_ref = target.hierarchy.flatten();
        for &objective in &sel.objectives {
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
            config.laxity_factor = sel.laxity;
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
                    outln!(
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
    let mut job_args = JobArgs::new();
    let mut show_netlist = false;
    let mut show_fsm = false;
    let mut verilog_out: Option<String> = None;
    let mut dot_out: Option<String> = None;
    let mut power_report = false;
    let mut parallel: Option<usize> = None;
    let mut paranoid = false;
    let mut shadow_eval = false;
    let mut cosim_check = false;
    let mut result_json_only = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match job_args.take(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        match arg.as_str() {
            "--paranoid" => paranoid = true,
            "--shadow-eval" => shadow_eval = true,
            "--cosim-check" => cosim_check = true,
            "--netlist" => show_netlist = true,
            "--fsm" => show_fsm = true,
            "--verilog" => match flag_value("--verilog", &mut it) {
                Some(v) => verilog_out = Some(v),
                None => return usage(),
            },
            "--dot" => match flag_value("--dot", &mut it) {
                Some(v) => dot_out = Some(v),
                None => return usage(),
            },
            "--power-report" => power_report = true,
            "--parallel" => match flag_value("--parallel", &mut it).and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => parallel = Some(v),
                _ => {
                    eprintln!("--parallel expects a thread count of at least 1");
                    return usage();
                }
            },
            "--result-json" => result_json_only = true,
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let (path, job) = match job_args.into_job() {
        Ok(j) => j,
        Err(code) => return code,
    };
    let (hierarchy, mlib, mut config) = match job.resolve() {
        Ok(r) => r,
        Err(e @ JobError::Source(_)) => return fail(format!("{path}: {e}")),
        Err(e) => return fail(e),
    };
    config.parallelism = parallel;
    config.paranoid = paranoid;
    config.shadow_eval = shadow_eval;
    config.cosim_check = cosim_check;

    let report = match synthesize(&hierarchy, &mlib, &config) {
        Ok(r) => r,
        Err(e) => return fail(format!("synthesis failed: {e}")),
    };

    if result_json_only {
        // The canonical deterministic report, nothing else: this is what
        // the serve differential suite byte-compares against daemon runs.
        outln!("{}", report.result_json());
        return ExitCode::SUCCESS;
    }

    let design = &report.design;
    outln!("behavior            : {}", path);
    outln!(
        "mode                : {} / {}",
        if config.hierarchical {
            "hierarchical"
        } else {
            "flattened"
        },
        match config.objective {
            Objective::Area => "area-optimized",
            Objective::Power => "power-optimized",
        }
    );
    outln!("min sampling period : {:.1} ns", report.min_period_ns);
    outln!("sampling period     : {:.1} ns", report.period_ns);
    outln!("supply voltage      : {} V", design.op.vdd);
    outln!(
        "clock               : {:.2} ns ({} cycles per sample)",
        design.op.physical_clk_ns(&mlib.simple),
        design.op.sampling_cycles
    );
    outln!(
        "area                : {:.1}",
        report.evaluation.area.total()
    );
    outln!("power               : {:.4}", report.evaluation.power.power);
    outln!(
        "hardware            : {} functional units, {} registers",
        design.top.built.total_fu_count(),
        design.top.built.total_reg_count()
    );
    outln!(
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
    outln!(
        "configurations      : {} optimized, {} infeasible",
        report.per_config.len(),
        report.skipped_configs.len()
    );
    if paranoid {
        outln!(
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
        outln!(
            "cosim check         : {} configurations clean, {} diverged",
            report.per_config.len(),
            flagged
        );
    }
    let incr_s: f64 = report.per_config.iter().map(|c| c.eval_incr_s).sum();
    outln!(
        "eval cache          : {} hits, {} misses, {incr_s:.3}s evaluating{}",
        report.stats.eval_cache_hits,
        report.stats.eval_cache_misses,
        if shadow_eval {
            " (shadowed by full recomputation, identical)"
        } else {
            ""
        }
    );
    let memo = &report.stats.memo;
    outln!(
        "  by memo           : whole design {}/{}, value streams {}/{}, subtree energies {}/{}, \
         candidates {}/{}, move B {}/{} (hits/misses); {} kernel iterations, \
         {} modules fingerprinted, {} modules area-walked, {} modules rebuilt, \
         {} nodes rescheduled",
        memo.design.hits,
        memo.design.misses,
        memo.stream.hits,
        memo.stream.misses,
        memo.energy.hits,
        memo.energy.misses,
        memo.candidate.hits,
        memo.candidate.misses,
        memo.move_b.hits,
        memo.move_b.misses,
        report.stats.kernel_iterations,
        report.stats.modules_fingerprinted,
        report.stats.modules_area_walked,
        report.stats.modules_rebuilt,
        report.stats.nodes_rescheduled,
    );
    let apply_s: f64 = report.per_config.iter().map(|c| c.apply_s).sum();
    outln!(
        "move engine         : {} rolled back, {} undo-journal peak, {apply_s:.3}s applying",
        report.stats.moves_rolled_back,
        format_bytes(report.stats.undo_bytes_peak),
    );
    if config.lns_iters > 0 {
        let lns_s: f64 = report.per_config.iter().map(|c| c.lns_s).sum();
        outln!(
            "lns                 : {} ruins, {} accepted, {lns_s:.3}s refining",
            report.stats.lns_ruins,
            report.stats.lns_accepts
        );
    }
    if let Some(scaled) = &report.vdd_scaled {
        outln!(
            "voltage-scaled      : {} V, power {:.4}",
            scaled.design.op.vdd,
            scaled.evaluation.power.power
        );
    }

    if show_netlist {
        outln!("\n== netlist ==\n");
        outln!(
            "{}",
            netlist_text(&design.hierarchy, &design.top.built, &mlib.simple)
        );
    }
    if show_fsm {
        let fsm = generate_fsm(&design.hierarchy, &design.top.built);
        outln!("\n== controller ({} states) ==\n", fsm.state_count());
        outln!("{fsm}");
    }
    if power_report {
        let traces = hsyn::power::dsp_default(
            design.hierarchy.dfg(design.top.core.dfg).input_count(),
            config.report_trace_len,
            config.width,
            config.seed ^ 0x5eed,
        );
        outln!("\n== power attribution ==\n");
        write_stdout(format_args!(
            "{}",
            hsyn::power::report_text(
                &design.hierarchy,
                &design.top.built,
                &mlib.simple,
                &traces,
                &report.evaluation.power,
            )
        ));
    }
    if let Some(dpath) = dot_out {
        let dot = hsyn::dfg::dot::hierarchy_to_dot(&design.hierarchy);
        if let Err(e) = std::fs::write(&dpath, dot) {
            eprintln!("cannot write {dpath}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("dot written         : {dpath}");
    }
    if let Some(vpath) = verilog_out {
        let v = verilog_text(&design.hierarchy, &design.top.built, &mlib.simple, 16);
        if let Err(e) = std::fs::write(&vpath, v) {
            eprintln!("cannot write {vpath}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("verilog written     : {vpath}");
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
        match arg.as_str() {
            "--port" => match flag_value("--port", &mut it).and_then(|v| v.parse::<u16>().ok()) {
                Some(p) => opts.addr = format!("127.0.0.1:{p}"),
                None => {
                    eprintln!("--port expects a port number");
                    return usage();
                }
            },
            "--cache-dir" => match flag_value("--cache-dir", &mut it) {
                Some(d) => opts.cache_dir = Some(std::path::PathBuf::from(d)),
                None => return usage(),
            },
            "--jobs" => match flag_value("--jobs", &mut it).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.workers = n,
                _ => {
                    eprintln!("--jobs expects a worker count of at least 1");
                    return usage();
                }
            },
            "--queue-cap" => {
                match flag_value("--queue-cap", &mut it).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => opts.queue_cap = n,
                    _ => {
                        eprintln!("--queue-cap expects a capacity of at least 1");
                        return usage();
                    }
                }
            }
            "--help" | "-h" => return usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let server = match Server::bind(opts) {
        Ok(s) => s,
        Err(e) => return fail(format!("cannot start daemon: {e}")),
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
    use hsyn::serve::Client;

    let mut job_args = JobArgs::new();
    let mut connect: Option<String> = None;
    let mut result_json_only = false;
    let mut do_ping = false;
    let mut do_stats = false;
    let mut do_shutdown = false;
    let mut cancel_tag: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match job_args.take(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(code) => return code,
        }
        let job = &mut job_args.job;
        match arg.as_str() {
            "--connect" => match flag_value("--connect", &mut it) {
                Some(v) => connect = Some(v),
                None => return usage(),
            },
            "--deadline-ms" => {
                match flag_value("--deadline-ms", &mut it).and_then(|v| v.parse().ok()) {
                    Some(v) => job.deadline_ms = Some(v),
                    None => return usage(),
                }
            }
            "--tag" => match flag_value("--tag", &mut it) {
                Some(v) => job.tag = Some(v),
                None => return usage(),
            },
            "--no-cache" => job.no_cache = true,
            "--verilog" => job.want_verilog = true,
            "--result-json" => result_json_only = true,
            "--ping" => do_ping = true,
            "--stats" => do_stats = true,
            "--shutdown" => do_shutdown = true,
            "--cancel" => match flag_value("--cancel", &mut it) {
                Some(v) => cancel_tag = Some(v),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
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
        Err(e) => return fail(format!("cannot connect to {addr}: {e}")),
    };

    // Action requests are exclusive of a job submission.
    if do_ping {
        return match client.ping() {
            Ok(()) => {
                outln!("pong");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        };
    }
    if do_stats {
        return match client.stats() {
            Ok(v) => {
                outln!("{}", v.to_string_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        };
    }
    if let Some(t) = cancel_tag {
        return match client.cancel(&t) {
            Ok(n) => {
                outln!("cancelled {n} job(s) tagged `{t}`");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        };
    }
    if do_shutdown {
        return match client.shutdown() {
            Ok(n) => {
                outln!("daemon drained and stopped after {n} job(s)");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        };
    }

    let job = match job_args.into_job() {
        Ok((_, job)) => job,
        Err(code) => return code,
    };
    match client.submit(&job) {
        Ok(result) => {
            if result_json_only {
                outln!("{}", result.result_json);
            } else {
                outln!(
                    "served {} in {:.1} ms ({:.1} ms queued)",
                    if result.cached { "from cache" } else { "fresh" },
                    result.wall_ms,
                    result.queue_ms
                );
                outln!("{}", result.result_json);
                if let Some(v) = &result.verilog {
                    outln!("\n== verilog ==\n\n{v}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}
