//! Synthesis configuration.

use crate::cost::Objective;

/// Which move families the engine may use — all on by default; ablation
/// studies switch families off individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveFamilies {
    /// Module replacement / selection (simple and complex).
    pub a: bool,
    /// Resynthesis of complex modules under relaxed constraints.
    pub b: bool,
    /// Merging: resource sharing, register packing, RTL embedding.
    pub c: bool,
    /// Splitting: resource splitting, register dedication.
    pub d: bool,
}

impl Default for MoveFamilies {
    fn default() -> Self {
        MoveFamilies {
            a: true,
            b: true,
            c: true,
            d: true,
        }
    }
}

/// Tunable knobs of the synthesis run (paper defaults in brackets).
#[derive(Clone, Debug)]
pub struct SynthesisConfig {
    /// Optimize for area or for power.
    pub objective: Objective,
    /// Sampling period = `laxity_factor` × minimum achievable period
    /// (Table 3 uses 1.2, 2.2, 3.2). Ignored if `sampling_period_ns` set.
    pub laxity_factor: f64,
    /// Explicit sampling period in ns, overriding the laxity factor.
    pub sampling_period_ns: Option<f64>,
    /// Synthesize hierarchically (the paper's method) or flatten first (the
    /// baseline of ref.&nbsp;10).
    pub hierarchical: bool,
    /// Moves per improvement pass; `None` ⇒ adaptive (≈ op count / 2,
    /// clamped to 8..=40).
    pub max_moves_per_pass: Option<usize>,
    /// Maximum improvement passes per `(Vdd, clk)` configuration.
    pub max_passes: usize,
    /// Candidates fully evaluated per move selection.
    pub candidate_limit: usize,
    /// Trace length for gain evaluation during search.
    pub eval_trace_len: usize,
    /// Trace length for the final report.
    pub report_trace_len: usize,
    /// Move-*B* recursion depth (0 disables resynthesis).
    pub resynth_depth: u32,
    /// Candidate clock periods considered.
    pub max_clock_candidates: usize,
    /// Datapath bit width for simulation.
    pub width: u32,
    /// RNG seed (traces).
    pub seed: u64,
    /// Move families available to the engine (ablation switch).
    pub moves: MoveFamilies,
    /// Worker threads for the outer loops (the `(Vdd, clk)` sweep inside
    /// [`synthesize`](crate::synthesize) and the laxity×objective grid of
    /// [`explore`](crate::explore)). `None` ⇒ one thread per available
    /// core; `Some(1)` ⇒ fully serial. Results are **identical** for every
    /// setting: work is merged in input order with a total-order tiebreak,
    /// so parallelism changes wall-clock only, never the report.
    pub parallelism: Option<usize>,
    /// Run the cross-layer IR verifier (`hsyn-lint`) on the design after
    /// every accepted move and at each `(Vdd, clk)` configuration boundary,
    /// failing the configuration fast on the first error-severity
    /// diagnostic (it surfaces as a
    /// [`SkippedConfig`](crate::SkippedConfig) carrying the rule code).
    /// Observation-only on legal runs — the report is byte-identical with
    /// the flag off; verifier wall-clock is recorded in
    /// [`ConfigTelemetry::verify_s`](crate::ConfigTelemetry::verify_s).
    pub paranoid: bool,
    /// Shadow evaluation (off by default): run every cached search
    /// evaluation alongside the uncached reference recomputation and panic
    /// on the first bit-level divergence, naming the offending move and
    /// module path. A debugging/CI mode that turns the cache-exactness
    /// contract of [`EvalCache`](crate::EvalCache) into a runtime
    /// assertion; the reference's wall-clock is booked to
    /// [`ConfigTelemetry::verify_s`](crate::ConfigTelemetry::verify_s).
    pub shadow_eval: bool,
    /// Large-neighborhood search iterations appended after the KL-style
    /// pass loop of each `(Vdd, clk)` configuration (0, the default,
    /// disables the layer). Each iteration ruins a seeded-random region of
    /// the converged design — a module subtree or every instance of one FU
    /// class, split back to a canonical maximally-parallel state inside one
    /// [`Transaction`](crate::Transaction) — then greedily reconstructs it
    /// under the current objective with an adaptive move-family portfolio
    /// and affinity-pruned merge candidates, committing only on strict
    /// cost improvement (rollback is O(edit size) otherwise). Fully
    /// deterministic given [`seed`](Self::seed): the report is
    /// byte-identical across repeated runs and every
    /// [`parallelism`](Self::parallelism) setting. Telemetry:
    /// [`MoveStats::lns_ruins`](crate::MoveStats::lns_ruins) /
    /// [`lns_accepts`](crate::MoveStats::lns_accepts) and
    /// [`ConfigTelemetry::lns_s`](crate::ConfigTelemetry::lns_s).
    pub lns_iters: usize,
    /// Co-simulation check (off by default): after each `(Vdd, clk)`
    /// configuration is optimized, step the winning design's FSM against
    /// its bound datapath cycle by cycle
    /// ([`hsyn_rtl::cosimulate`](hsyn_rtl::cosimulate)) on the evaluation
    /// traces and require the outputs to be byte-identical to the flattened
    /// behavioral reference. A divergence surfaces as a
    /// [`SkippedConfig`](crate::SkippedConfig) with rule code `COSIM`.
    /// Observation-only on legal runs — the report is byte-identical with
    /// the flag off.
    pub cosim_check: bool,
    /// Cooperative cancellation handle (none by default). The engine polls
    /// it at pass, move-step, and LNS-iteration boundaries; a tripped
    /// token aborts the whole run with
    /// [`SynthesisError::Cancelled`](crate::SynthesisError::Cancelled).
    /// All-or-nothing: cancellation never yields a partial report, so it
    /// can change *whether* a result exists but never its bytes.
    /// Propagates into recursive move-*B* child synthesis via the child
    /// budget.
    pub cancel: Option<crate::CancelToken>,
    /// Cross-run area-result store (none by default). When set, every
    /// engine run is seeded with the store's fingerprint-keyed area
    /// entries before optimizing and contributes its own entries back
    /// after — the persistence hook the `hsyn serve` daemon uses to keep
    /// submodules warm across jobs and restarts. Entries are bit-exact by
    /// the fingerprint contract, so sharing changes cache telemetry and
    /// wall-clock only, never `result_json` bytes. The store must match
    /// the run's [`Library`](hsyn_lib::Library): keep one per library.
    pub shared_area: Option<std::sync::Arc<crate::SharedAreaCache>>,
}

impl SynthesisConfig {
    /// Defaults for the given objective.
    pub fn new(objective: Objective) -> Self {
        SynthesisConfig {
            objective,
            laxity_factor: 1.2,
            sampling_period_ns: None,
            hierarchical: true,
            max_moves_per_pass: None,
            max_passes: 10,
            candidate_limit: 6,
            eval_trace_len: 32,
            report_trace_len: 256,
            resynth_depth: 2,
            max_clock_candidates: 4,
            width: 16,
            seed: 0xDAC_1998,
            moves: MoveFamilies::default(),
            parallelism: None,
            paranoid: false,
            shadow_eval: false,
            lns_iters: 0,
            cosim_check: false,
            cancel: None,
            shared_area: None,
        }
    }

    /// The reduced budget used for recursive move-*B* resynthesis. LNS
    /// refinement is outer-level only (`lns_iters: 0`): a ruin inside a
    /// speculative move-*B* child synthesis would multiply the budget out
    /// for marginal gain.
    pub(crate) fn child_budget(&self) -> SynthesisConfig {
        SynthesisConfig {
            max_moves_per_pass: Some(6),
            max_passes: 2,
            candidate_limit: 4,
            lns_iters: 0,
            ..self.clone()
        }
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig::new(Objective::Area)
    }
}
