//! The top level of H-SYN (Figure 4): loops over the pruned supply-voltage
//! and clock-period sets, builds the initial solution for each feasible
//! configuration, runs variable-depth iterative improvement, and keeps the
//! best design seen. Also provides the flattened baseline (ref.&nbsp;10) and
//! post-synthesis voltage scaling of area-optimized designs.

use crate::config::SynthesisConfig;
use crate::cost::{evaluate, Evaluation, Objective};
use crate::design::{initial_solution, probe_min_latency, DesignPoint, OperatingPoint};
use crate::improve::{Abort, Engine, MoveStats};
use hsyn_dfg::Hierarchy;
use hsyn_power::{dsp_default, TraceSet};
use hsyn_rtl::ModuleLibrary;
use std::fmt;
use std::time::Instant;

/// Why synthesis failed outright.
#[derive(Clone, Debug, PartialEq)]
pub enum SynthesisError {
    /// The library offers no clock candidates (it is empty).
    NoClockCandidates,
    /// No `(Vdd, clk)` configuration could meet the sampling period.
    Infeasible {
        /// The sampling period that could not be met, ns.
        period_ns: f64,
    },
    /// Even the unconstrained fastest design could not be built (an
    /// operation has no implementing unit).
    Unimplementable {
        /// Builder diagnostics.
        detail: String,
    },
    /// The run's [`CancelToken`](crate::CancelToken) tripped — an explicit
    /// client cancel or an expired deadline. All-or-nothing by design:
    /// no partial report is ever produced, so cancellation can never
    /// change result bytes, only whether a result exists.
    Cancelled,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoClockCandidates => write!(f, "library offers no clock candidates"),
            SynthesisError::Infeasible { period_ns } => {
                write!(
                    f,
                    "no configuration meets the {period_ns} ns sampling period"
                )
            }
            SynthesisError::Unimplementable { detail } => {
                write!(f, "behavior cannot be implemented: {detail}")
            }
            SynthesisError::Cancelled => {
                write!(f, "synthesis cancelled (client cancel or deadline)")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// An area-optimized design after voltage scaling ("subsequently
/// voltage-scaled for low power operation", Table 3 column *A*).
#[derive(Clone, Debug)]
pub struct ScaledDesign {
    /// The design at the scaled voltage.
    pub design: DesignPoint,
    /// Its evaluation (report traces).
    pub evaluation: Evaluation,
}

/// Telemetry for one `(Vdd, clk)` operating point the engine optimized.
/// One record per kept configuration, in the deterministic sweep order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigTelemetry {
    /// Supply voltage of the configuration, V.
    pub vdd: f64,
    /// Reference clock period of the configuration, ns.
    pub clk_ns: f64,
    /// Wall-clock spent optimizing this configuration, seconds. Varies
    /// between runs (as does `verify_s`); everything else is deterministic.
    pub elapsed_s: f64,
    /// Wall-clock spent in the paranoid verifier and in shadow-mode
    /// reference evaluations within this configuration, seconds — 0 when
    /// [`SynthesisConfig::paranoid`] and [`SynthesisConfig::shadow_eval`]
    /// are both off.
    pub verify_s: f64,
    /// The engine counters of this configuration alone: work, memo
    /// traffic and kernel iterations (see [`MoveStats`]). Of them only
    /// `evaluated`, `rejected` and `passes` enter
    /// [`SynthesisReport::result_json`](crate::SynthesisReport::result_json).
    pub stats: MoveStats,
    /// Wall-clock spent in cache-aware search evaluations, seconds.
    pub eval_incr_s: f64,
    /// Wall-clock spent applying moves, seconds: in-place apply, rollback,
    /// and winner re-apply.
    pub apply_s: f64,
    /// Wall-clock spent in large-neighborhood ruin→recreate refinement,
    /// seconds — 0 with [`SynthesisConfig::lns_iters`] at 0.
    pub lns_s: f64,
    /// Final cost of this configuration's best design (search metric).
    pub cost: f64,
    /// Whether this configuration's design was selected as the winner.
    pub selected: bool,
}

/// A `(Vdd, clk)` operating point that was dropped without producing a
/// design — either no initial solution could be built, or (in paranoid
/// mode) the verifier caught an invariant violation mid-optimization.
/// Previously these were silently discarded; callers can now tell
/// "infeasible point" apart from "never considered". Each dropped point is
/// counted exactly once here and in
/// [`MoveStats::configs_skipped`](crate::MoveStats::configs_skipped).
#[derive(Clone, Debug)]
pub struct SkippedConfig {
    /// Supply voltage of the skipped configuration, V.
    pub vdd: f64,
    /// Reference clock period of the skipped configuration, ns.
    pub clk_ns: f64,
    /// Diagnostic explaining why the configuration was dropped.
    pub reason: String,
    /// The lint rule code (e.g. `"SCH002"`) when the paranoid verifier
    /// rejected the configuration; `None` for builder infeasibility.
    pub rule: Option<String>,
}

/// The result of a synthesis run.
#[derive(Clone, Debug)]
pub struct SynthesisReport {
    /// The best design found.
    pub design: DesignPoint,
    /// Its evaluation on the report traces.
    pub evaluation: Evaluation,
    /// Minimum achievable sampling period (laxity denominator), ns.
    pub min_period_ns: f64,
    /// The sampling period synthesized for, ns.
    pub period_ns: f64,
    /// For area-optimized runs: the same design voltage-scaled to just meet
    /// the sampling period.
    pub vdd_scaled: Option<ScaledDesign>,
    /// Engine activity counters, aggregated over all configurations.
    pub stats: MoveStats,
    /// Per-configuration telemetry, in deterministic sweep order.
    pub per_config: Vec<ConfigTelemetry>,
    /// Operating points dropped because no initial solution existed.
    pub skipped_configs: Vec<SkippedConfig>,
    /// Wall-clock synthesis time, seconds.
    pub elapsed_s: f64,
}

impl SynthesisReport {
    /// Canonical JSON rendering of everything **deterministic** in the
    /// report, for byte-level comparison between runs: every `f64` appears
    /// as the hex form of its `to_bits` (bit-exactness, not proximity), and
    /// structural fingerprints stand in for the designs themselves.
    ///
    /// Deliberately excluded, because they legitimately differ between
    /// otherwise identical runs: wall-clock (`elapsed_s`, `verify_s`,
    /// `eval_incr_s`, `apply_s`, `lns_s`), memo traffic
    /// (`eval_cache_hits` / `eval_cache_misses` and `memo`, which count
    /// cache use, not search work), and `kernel_iterations`, physical work
    /// the memos save. Two runs are the same search with the same result iff
    /// their `result_json` bytes match — the contract the
    /// `incremental_equivalence` differential suite enforces between
    /// shadow-checked and plain runs.
    pub fn result_json(&self) -> String {
        use hsyn_util::Json;

        fn bits(v: f64) -> Json {
            Json::Str(format!("{:016x}", v.to_bits()))
        }
        fn count(v: u64) -> Json {
            Json::Num(v as f64)
        }
        fn eval_json(e: &Evaluation) -> Json {
            let a = &e.area;
            let p = &e.power;
            let b = &p.energy_breakdown;
            Json::Obj(vec![
                ("area_fu".into(), bits(a.fu)),
                ("area_reg".into(), bits(a.reg)),
                ("area_mux".into(), bits(a.mux)),
                ("area_wire".into(), bits(a.wire)),
                ("area_controller".into(), bits(a.controller)),
                ("area_subs".into(), bits(a.subs)),
                ("energy_fu".into(), bits(b.fu)),
                ("energy_reg".into(), bits(b.reg)),
                ("energy_mux".into(), bits(b.mux)),
                ("energy_wire".into(), bits(b.wire)),
                ("energy_controller".into(), bits(b.controller)),
                ("energy_clock".into(), bits(b.clock)),
                ("energy_subs".into(), bits(b.subs)),
                ("energy_per_iteration".into(), bits(p.energy_per_iteration)),
                ("power".into(), bits(p.power)),
                ("vdd".into(), bits(p.vdd)),
                ("cost".into(), bits(e.cost)),
            ])
        }
        fn design_json(dp: &DesignPoint) -> Json {
            let fp = hsyn_rtl::module_fingerprint(&dp.hierarchy, &dp.top.built);
            Json::Obj(vec![
                ("fp".into(), Json::Str(format!("{fp:016x}"))),
                ("vdd".into(), bits(dp.op.vdd)),
                ("clk_ref_ns".into(), bits(dp.op.clk_ref_ns)),
                ("period_ns".into(), bits(dp.op.period_ns)),
                (
                    "sampling_cycles".into(),
                    count(u64::from(dp.op.sampling_cycles)),
                ),
            ])
        }

        let stats = Json::Obj(vec![
            ("evaluated".into(), count(self.stats.evaluated)),
            ("rejected".into(), count(self.stats.rejected)),
            ("applied_a".into(), count(self.stats.applied_a)),
            ("applied_b".into(), count(self.stats.applied_b)),
            ("applied_c".into(), count(self.stats.applied_c)),
            ("applied_d".into(), count(self.stats.applied_d)),
            ("passes".into(), count(self.stats.passes)),
            ("configs".into(), count(self.stats.configs)),
            ("configs_skipped".into(), count(self.stats.configs_skipped)),
            ("lns_ruins".into(), count(self.stats.lns_ruins)),
            ("lns_accepts".into(), count(self.stats.lns_accepts)),
        ]);
        let per_config = Json::Arr(
            self.per_config
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("vdd".into(), bits(c.vdd)),
                        ("clk_ns".into(), bits(c.clk_ns)),
                        ("evaluated".into(), count(c.stats.evaluated)),
                        ("rejected".into(), count(c.stats.rejected)),
                        ("passes".into(), count(c.stats.passes)),
                        ("cost".into(), bits(c.cost)),
                        ("selected".into(), Json::Bool(c.selected)),
                    ])
                })
                .collect(),
        );
        let skipped = Json::Arr(
            self.skipped_configs
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("vdd".into(), bits(s.vdd)),
                        ("clk_ns".into(), bits(s.clk_ns)),
                        ("reason".into(), Json::Str(s.reason.clone())),
                        (
                            "rule".into(),
                            s.rule.as_ref().map_or(Json::Null, |r| Json::Str(r.clone())),
                        ),
                    ])
                })
                .collect(),
        );
        let vdd_scaled = self.vdd_scaled.as_ref().map_or(Json::Null, |s| {
            Json::Obj(vec![
                ("design".into(), design_json(&s.design)),
                ("evaluation".into(), eval_json(&s.evaluation)),
            ])
        });
        Json::Obj(vec![
            ("design".into(), design_json(&self.design)),
            ("evaluation".into(), eval_json(&self.evaluation)),
            ("min_period_ns".into(), bits(self.min_period_ns)),
            ("period_ns".into(), bits(self.period_ns)),
            ("vdd_scaled".into(), vdd_scaled),
            ("stats".into(), stats),
            ("per_config".into(), per_config),
            ("skipped_configs".into(), skipped),
        ])
        .to_string_pretty()
    }
}

/// The paranoid-mode co-simulation gate: step the optimized design's FSM
/// against its bound datapath on the evaluation traces and require the
/// outputs to match the flattened behavioral reference byte for byte.
fn cosim_gate(dp: &DesignPoint, traces: &TraceSet) -> Result<(), String> {
    let run = hsyn_rtl::cosimulate(&dp.hierarchy, &dp.top.built, &traces.samples, traces.width)
        .map_err(|d| d.to_string())?;
    let want = hsyn_dfg::reference_outputs(&dp.hierarchy.flatten(), &traces.samples, traces.width);
    if run.outputs != want {
        return Err("co-simulated outputs differ from the behavioral reference".into());
    }
    Ok(())
}

/// Synthesize `hierarchy` with `mlib` under `config` — the paper's
/// `SYNTHESIZE` procedure. For `config.hierarchical == false` the behavior
/// is flattened first and complex modules are unused (the flattened
/// baseline the paper compares against, ref.&nbsp;10).
///
/// The `(Vdd, clk)` candidate sweep runs on
/// [`config.parallelism`](SynthesisConfig::parallelism) worker threads;
/// results are merged in sweep order, so the report is identical for every
/// thread count.
///
/// ```
/// use hsyn_core::{synthesize, Objective, SynthesisConfig};
/// use hsyn_dfg::benchmarks;
/// use hsyn_rtl::ModuleLibrary;
///
/// let bench = benchmarks::paulin();
/// let mut mlib = ModuleLibrary::from_simple(hsyn_lib::papers::table1_library());
/// mlib.equiv = bench.equiv.clone();
///
/// let mut config = SynthesisConfig::new(Objective::Area);
/// config.laxity_factor = 2.2;
/// // Small budgets keep this example fast; drop these lines for real runs.
/// config.max_passes = 2;
/// config.candidate_limit = 2;
/// config.eval_trace_len = 8;
/// config.report_trace_len = 16;
/// config.max_clock_candidates = 2;
///
/// let report = synthesize(&bench.hierarchy, &mlib, &config).unwrap();
/// assert!(report.evaluation.area.total() > 0.0);
/// assert!(report.per_config.iter().any(|c| c.selected));
/// ```
///
/// # Errors
///
/// See [`SynthesisError`].
pub fn synthesize(
    hierarchy: &Hierarchy,
    mlib: &ModuleLibrary,
    config: &SynthesisConfig,
) -> Result<SynthesisReport, SynthesisError> {
    let start = Instant::now();
    if config.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
        return Err(SynthesisError::Cancelled);
    }

    // Flattened baseline: one DFG, simple modules only.
    let (work_h, work_lib);
    let (h, lib): (&Hierarchy, &ModuleLibrary) = if config.hierarchical {
        (hierarchy, mlib)
    } else {
        let mut flat = Hierarchy::new();
        let top = flat.add_dfg(hierarchy.flatten());
        flat.set_top(top);
        work_h = flat;
        work_lib = ModuleLibrary::from_simple(mlib.simple.clone());
        (&work_h, &work_lib)
    };

    let clocks = lib.simple.clock_candidates(config.max_clock_candidates);
    if clocks.is_empty() {
        return Err(SynthesisError::NoClockCandidates);
    }

    // Minimum achievable period over clock candidates (at Vref).
    let mut min_latency: Vec<(f64, u32)> = Vec::new();
    let mut min_period = f64::INFINITY;
    let mut probe_err = String::new();
    for &clk in &clocks {
        match probe_min_latency(h, lib, clk) {
            Ok(lat) => {
                min_latency.push((clk, lat));
                min_period = min_period.min(f64::from(lat) * clk);
            }
            Err(e) => probe_err = e.to_string(),
        }
    }
    if min_latency.is_empty() {
        return Err(SynthesisError::Unimplementable { detail: probe_err });
    }
    let period_ns = config
        .sampling_period_ns
        .unwrap_or(config.laxity_factor * min_period);

    let top_inputs = h.dfg(h.top()).input_count();
    let eval_traces = dsp_default(top_inputs, config.eval_trace_len, config.width, config.seed);

    // Pruned Vdd set: area mode optimizes at Vref only (area is
    // Vdd-independent); power mode sweeps the candidate set.
    let vdds: Vec<f64> = match config.objective {
        Objective::Area => vec![lib.simple.technology.vref()],
        Objective::Power => lib.simple.technology.vdd_candidates().to_vec(),
    };

    // Pruning (footnote 2): drop configurations where even the fastest
    // design cannot fit the cycle budget, then keep per clock only the
    // reference voltage and the two lowest feasible voltages — lower Vdd
    // dominates intermediate steps on the energy side, so the pruned set
    // still contains the frontier.
    let mut configs: Vec<OperatingPoint> = Vec::new();
    for &(clk, lat) in &min_latency {
        let mut feasible: Vec<OperatingPoint> = vdds
            .iter()
            .map(|&vdd| OperatingPoint::derive(&lib.simple, vdd, clk, period_ns))
            .filter(|op| op.sampling_cycles >= lat)
            .collect();
        // Highest-first candidate order ⇒ keep front (vref) + last two.
        let keep_tail = feasible.len().saturating_sub(2);
        let kept: Vec<OperatingPoint> = feasible
            .drain(..)
            .enumerate()
            .filter(|&(i, _)| i == 0 || i >= keep_tail)
            .map(|(_, op)| op)
            .collect();
        configs.extend(kept);
    }

    // Optimize every kept configuration, possibly in parallel. Each worker
    // owns an independent `Engine`; outcomes are merged below in sweep
    // order, so the report is byte-identical for every thread count.
    enum ConfigOutcome {
        Optimized {
            design: Box<DesignPoint>,
            eval: Box<Evaluation>,
            stats: Box<MoveStats>,
            elapsed_s: f64,
            verify_s: f64,
            eval_incr_s: f64,
            apply_s: f64,
            lns_s: f64,
        },
        Skipped {
            reason: String,
            rule: Option<String>,
        },
        Cancelled,
    }
    let threads = hsyn_util::effective_threads(config.parallelism);
    let outcomes = hsyn_util::par_map(threads, &configs, |_, op| {
        let config_start = Instant::now();
        if config.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return ConfigOutcome::Cancelled;
        }
        match initial_solution(h, lib, op) {
            Err(e) => ConfigOutcome::Skipped {
                reason: e.to_string(),
                rule: None,
            },
            Ok(top) => {
                let dp = DesignPoint {
                    hierarchy: h.clone(),
                    op: *op,
                    top,
                };
                let mut engine =
                    Engine::new(lib, config, eval_traces.clone(), config.resynth_depth);
                // Paranoid mode verifies the initial design and every
                // accepted move inside `optimize`, plus the final winner at
                // the configuration boundary here.
                let result = engine.optimize(dp).and_then(|(opt, opt_eval)| {
                    engine.paranoid_check(&opt, None)?;
                    Ok((opt, opt_eval))
                });
                match result {
                    Err(Abort::Cancelled) => ConfigOutcome::Cancelled,
                    Err(Abort::Paranoid(violation)) => ConfigOutcome::Skipped {
                        rule: Some(violation.diagnostic.code.as_str().to_owned()),
                        reason: violation.to_string(),
                    },
                    Ok((opt, opt_eval)) => {
                        // The co-simulation gate sits after the lint gate:
                        // lint checks structural invariants, co-simulation
                        // checks the cycle-accurate execution itself.
                        let cosim = if config.cosim_check {
                            cosim_gate(&opt, &eval_traces)
                        } else {
                            Ok(())
                        };
                        match cosim {
                            Err(reason) => ConfigOutcome::Skipped {
                                reason,
                                rule: Some("COSIM".to_owned()),
                            },
                            Ok(()) => ConfigOutcome::Optimized {
                                design: Box::new(opt),
                                eval: Box::new(opt_eval),
                                stats: Box::new(engine.stats),
                                elapsed_s: config_start.elapsed().as_secs_f64(),
                                verify_s: engine.verify_s,
                                eval_incr_s: engine.eval_incr_s,
                                apply_s: engine.apply_s,
                                lns_s: engine.lns_s,
                            },
                        }
                    }
                }
            }
        }
    });

    // Deterministic reduction: iterate in sweep (input) order and keep the
    // first strictly-better cost — the total order is (cost, config index),
    // exactly what the serial loop produced.
    let mut stats = MoveStats::default();
    let mut per_config: Vec<ConfigTelemetry> = Vec::new();
    let mut skipped_configs: Vec<SkippedConfig> = Vec::new();
    let mut best: Option<(usize, DesignPoint, Evaluation)> = None;
    // Cancellation is all-or-nothing: if any configuration aborted on the
    // token, the whole job errors rather than reporting a partial sweep
    // whose bytes would depend on when the token tripped.
    if outcomes
        .iter()
        .any(|o| matches!(o, ConfigOutcome::Cancelled))
    {
        return Err(SynthesisError::Cancelled);
    }
    for (op, outcome) in configs.iter().zip(outcomes) {
        match outcome {
            ConfigOutcome::Cancelled => unreachable!("handled above"),
            ConfigOutcome::Skipped { reason, rule } => {
                stats.configs_skipped += 1;
                skipped_configs.push(SkippedConfig {
                    vdd: op.vdd,
                    clk_ns: op.clk_ref_ns,
                    reason,
                    rule,
                });
            }
            ConfigOutcome::Optimized {
                design,
                eval,
                stats: config_stats,
                elapsed_s,
                verify_s,
                eval_incr_s,
                apply_s,
                lns_s,
            } => {
                stats.configs += 1;
                stats.absorb(&config_stats);
                per_config.push(ConfigTelemetry {
                    vdd: op.vdd,
                    clk_ns: op.clk_ref_ns,
                    elapsed_s,
                    verify_s,
                    stats: *config_stats,
                    eval_incr_s,
                    apply_s,
                    lns_s,
                    cost: eval.cost,
                    selected: false,
                });
                let telemetry_idx = per_config.len() - 1;
                if best.as_ref().is_none_or(|(_, _, e)| eval.cost < e.cost) {
                    best = Some((telemetry_idx, *design, *eval));
                }
            }
        }
    }
    let Some((winner_idx, best_dp, _)) = best else {
        return Err(SynthesisError::Infeasible { period_ns });
    };
    per_config[winner_idx].selected = true;

    // Final evaluation on longer traces.
    let report_traces = dsp_default(
        top_inputs,
        config.report_trace_len,
        config.width,
        config.seed ^ 0x5eed,
    );
    let evaluation = evaluate(&best_dp, &lib.simple, &report_traces, config.objective);

    // Voltage scaling of area-optimized designs (Table 3 column A).
    let vdd_scaled = if config.objective == Objective::Area {
        let mut scaled = None;
        for &vdd in lib.simple.technology.vdd_candidates() {
            let mut cand = best_dp.clone();
            cand.op = OperatingPoint::derive(&lib.simple, vdd, cand.op.clk_ref_ns, period_ns);
            // Deadlines inside the spec tree track the top-level budget.
            cand.top.core.deadline = Some(cand.op.sampling_cycles);
            if cand.rebuild(&lib.simple).is_ok() {
                let ev = evaluate(&cand, &lib.simple, &report_traces, config.objective);
                // Keep the lowest feasible voltage.
                match &scaled {
                    Some(ScaledDesign { design, .. }) if design.op.vdd <= vdd => {}
                    _ => {
                        scaled = Some(ScaledDesign {
                            design: cand,
                            evaluation: ev,
                        })
                    }
                }
            }
        }
        scaled
    } else {
        None
    };

    Ok(SynthesisReport {
        design: best_dp,
        evaluation,
        min_period_ns: min_period,
        period_ns,
        vdd_scaled,
        stats,
        per_config,
        skipped_configs,
        elapsed_s: start.elapsed().as_secs_f64(),
    })
}
