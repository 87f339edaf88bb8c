//! Variable-depth iterative improvement (Figure 4, lines 3–16): each pass
//! applies a sequence of best-available moves — individual moves may have
//! *negative* gain — then commits the prefix with the best cumulative gain,
//! "thus enabling escape from local minima".

use crate::cache::{EvalCache, MemoCount, MemoTraffic};
use crate::config::SynthesisConfig;
use crate::cost::{evaluate_search, evaluate_search_cached, Evaluation, Objective};
use crate::design::{
    initial_module_with_window, ChildKind, DesignPoint, ModuleState, OperatingPoint,
};
use crate::moves::{
    apply_in_place, selection_candidates, sharing_candidates, splitting_candidates, Candidate, Move,
};
use crate::transact::{UndoLog, UndoMark};
use hsyn_dfg::{DfgId, NodeKind};
use hsyn_lint::{error_count, verify_design, DesignView, Diagnostic, Severity};
use hsyn_power::{dsp_default, TraceSet};
use hsyn_rtl::{
    dfg_fingerprint, fingerprint_at, fingerprint_tree, module_fingerprint,
    refresh_fingerprint_tree, window_of, FpTree, ModuleLibrary, RtlModule,
};
use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// A paranoid-mode verifier failure: the design under optimization stopped
/// satisfying a cross-layer invariant. Carries the move that introduced the
/// corruption (when one did) and the first error-severity diagnostic.
#[derive(Clone, Debug)]
pub struct ParanoidViolation {
    /// Display form of the accepted move after which the verifier fired;
    /// `None` when a configuration-boundary check (initial or final design)
    /// failed.
    pub after_move: Option<String>,
    /// The first error-severity diagnostic the verifier reported.
    pub diagnostic: Diagnostic,
}

impl fmt::Display for ParanoidViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.after_move {
            Some(mv) => write!(f, "verifier failed after move {mv}: {}", self.diagnostic),
            None => write!(
                f,
                "verifier failed at configuration boundary: {}",
                self.diagnostic
            ),
        }
    }
}

impl std::error::Error for ParanoidViolation {}

/// Why an engine run stopped before producing an optimized design:
/// a paranoid-mode verifier failure (the configuration is skipped and the
/// sweep continues) or a tripped [`CancelToken`](crate::CancelToken) (the
/// whole job aborts). `From<Box<ParanoidViolation>>` keeps every
/// `paranoid_check(..)?` call site unchanged.
#[derive(Debug)]
pub(crate) enum Abort {
    /// The cross-layer verifier reported an error-severity diagnostic.
    Paranoid(Box<ParanoidViolation>),
    /// The run's cancel token tripped (explicit cancel or deadline).
    Cancelled,
}

impl From<Box<ParanoidViolation>> for Abort {
    fn from(v: Box<ParanoidViolation>) -> Self {
        Abort::Paranoid(v)
    }
}

/// Counters describing what the engine did (reported for every synthesis
/// run; the experiment harness prints them alongside the results).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Candidate moves fully evaluated (rebuild + reschedule + simulate),
    /// including those answered from the candidate memo: a repeated
    /// speculation counts exactly as the live one it stands for.
    pub evaluated: u64,
    /// Candidates rejected by validity checks.
    pub rejected: u64,
    /// Moves committed, per family.
    pub applied_a: u64,
    /// Move B commits.
    pub applied_b: u64,
    /// Move C commits.
    pub applied_c: u64,
    /// Move D commits.
    pub applied_d: u64,
    /// Improvement passes executed.
    pub passes: u64,
    /// `(Vdd, clk)` configurations explored.
    pub configs: u64,
    /// `(Vdd, clk)` configurations skipped because no initial solution
    /// could be built (see
    /// [`SynthesisReport::skipped_configs`](crate::SynthesisReport::skipped_configs)
    /// for the reasons).
    pub configs_skipped: u64,
    /// Incremental-evaluation cache lookups answered from the cache: power
    /// pricings answered whole by the design memo (area mode has no
    /// eval-cache traffic). Candidates answered from the candidate memo
    /// never reach the cache, so repeated speculations do not show up here
    /// as hits; the misses (first speculations) are unaffected.
    pub eval_cache_hits: u64,
    /// Incremental-evaluation cache lookups that fell through to a fresh
    /// computation.
    pub eval_cache_misses: u64,
    /// The same cache traffic by memo (whole design), plus the
    /// value-stream table, which the two sums above leave out, and the
    /// engine's candidate and move-*B* memos. Like the eval-cache
    /// counters, excluded from
    /// [`SynthesisReport::result_json`](crate::SynthesisReport::result_json).
    pub memo: MemoTraffic,
    /// Top-level trace iterations the power-simulation kernel ran in
    /// search evaluations: a deterministic physical-work counter (only a
    /// value-stream miss runs the kernel; a value-stream hit, a
    /// whole-design hit and a replayed move-*B* resynthesis run none).
    /// Shadow-mode reference evaluations are not counted.
    pub kernel_iterations: u64,
    /// Modules hashed into the engine's fingerprint trees (the keys of the
    /// candidate and power-mode memos): area mode hashes at committed
    /// steps only, power mode at every priced candidate too. Physical work,
    /// like `kernel_iterations`; verification hashing is not counted.
    pub modules_fingerprinted: u64,
    /// Modules visited by search area walks: the whole priced tree, for
    /// every area-mode pricing and every power-mode design-memo miss.
    pub modules_area_walked: u64,
    /// Move applications undone by replaying the undo journal — every
    /// speculated candidate plus every pass step beyond the committed
    /// prefix.
    pub moves_rolled_back: u64,
    /// Peak approximate byte footprint of the undo journal (see
    /// [`UndoLog::bytes_peak`](crate::UndoLog::bytes_peak)). Aggregated by
    /// `max`, not sum, in [`absorb`](Self::absorb) — it is a high-water
    /// mark.
    pub undo_bytes_peak: u64,
    /// Large-neighborhood ruin→recreate iterations that actually destroyed
    /// a region (see [`SynthesisConfig::lns_iters`]); 0 with the LNS layer
    /// off.
    pub lns_ruins: u64,
    /// LNS iterations whose reconstruction strictly improved cost and was
    /// committed; the rest rolled back in O(edit size).
    pub lns_accepts: u64,
}

impl MoveStats {
    pub(crate) fn record(&mut self, mv: &Move) {
        match mv {
            Move::SetFuType { .. } | Move::SwapChild { .. } => self.applied_a += 1,
            Move::ResynthChild { .. } => self.applied_b += 1,
            // Rebanking serves both families (halve = share, double =
            // split); the stats bucket it with the sharing moves.
            Move::MergeFu { .. }
            | Move::RepackRegs { .. }
            | Move::MergeChildren { .. }
            | Move::RebankMem { .. } => self.applied_c += 1,
            Move::SplitFu { .. } | Move::DedicateRegs { .. } | Move::SplitChild { .. } => {
                self.applied_d += 1
            }
        }
    }

    /// Merge another stats record into this one.
    pub fn absorb(&mut self, other: &MoveStats) {
        self.evaluated += other.evaluated;
        self.rejected += other.rejected;
        self.applied_a += other.applied_a;
        self.applied_b += other.applied_b;
        self.applied_c += other.applied_c;
        self.applied_d += other.applied_d;
        self.passes += other.passes;
        self.configs += other.configs;
        self.configs_skipped += other.configs_skipped;
        self.eval_cache_hits += other.eval_cache_hits;
        self.eval_cache_misses += other.eval_cache_misses;
        self.memo.absorb(&other.memo);
        self.kernel_iterations += other.kernel_iterations;
        self.modules_fingerprinted += other.modules_fingerprinted;
        self.modules_area_walked += other.modules_area_walked;
        self.moves_rolled_back += other.moves_rolled_back;
        self.undo_bytes_peak = self.undo_bytes_peak.max(other.undo_bytes_peak);
        self.lns_ruins += other.lns_ruins;
        self.lns_accepts += other.lns_accepts;
    }

    /// The part of a nested move-*B* engine's counters its parent folds in
    /// (via [`absorb`](Self::absorb)): the candidate work, the eval-cache
    /// traffic (sums and per memo), the rollbacks and the journal peak.
    /// Passes, commits, candidate and move-*B* memo traffic and the
    /// physical-work counters (kernel iterations, modules fingerprinted and
    /// area-walked) stay the child's own; the parent folds the physical
    /// work in only when the child really runs.
    fn child_delta(&self) -> MoveStats {
        MoveStats {
            evaluated: self.evaluated,
            rejected: self.rejected,
            eval_cache_hits: self.eval_cache_hits,
            eval_cache_misses: self.eval_cache_misses,
            memo: MemoTraffic {
                candidate: MemoCount::default(),
                move_b: MemoCount::default(),
                ..self.memo
            },
            moves_rolled_back: self.moves_rolled_back,
            undo_bytes_peak: self.undo_bytes_peak,
            ..MoveStats::default()
        }
    }
}

/// One move-*B* request: everything the nested resynthesis reads. The
/// callee index seeds the child traces; the callee's content fingerprint
/// covers its memories' banks, which a committed `RebankMem` can change
/// mid-search; the operating point is kept as bits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ResynthKey {
    callee: DfgId,
    dfg_fp: u64,
    op: [u64; 4],
    arrivals: Option<Vec<u32>>,
    deadlines: Option<Vec<u32>>,
    depth: u32,
}

/// A resynthesis outcome: the optimized child module (`None` when no
/// initial module meets the window) and the nested engine's
/// [`MoveStats::child_delta`], which a memo hit replays so the counters
/// match a fresh run.
#[derive(Clone)]
struct Resynthesis {
    module: Option<Box<ModuleState>>,
    delta: MoveStats,
}

/// The move-*B* memo of one `(Vdd, clk)` configuration, shared down the
/// resynthesis recursion and dropped with the configuration's engine.
type ResynthMemo = HashMap<ResynthKey, Resynthesis>;

/// Entry cap of the move-*B* memo: it is cleared when an insert would grow
/// it past this (a bound, not a tuning knob; a configuration's search on
/// the registry benchmarks stores at most a few dozen entries).
const RESYNTH_MEMO_CAP: usize = 1 << 14;

/// Remember a complete resynthesis, clearing `memo` first when it is full.
fn remember_resynthesis(memo: &mut ResynthMemo, key: ResynthKey, run: Resynthesis) {
    if memo.len() >= RESYNTH_MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, run);
}

/// The design a candidate scan speculates from: the root of its built
/// fingerprint tree plus [`spec_digest`], the spec state that fingerprint
/// omits.
type CandBase = (u64, u64);

/// The candidate memo of one engine: per base design, every move speculated
/// from it and the outcome — the candidate's cost, or `None` when it was
/// rejected. Dropped with the engine (see DESIGN.md, "Candidate memo").
type CandMemo = HashMap<CandBase, HashMap<Move, Option<f64>>>;

/// Entry cap of the candidate memo: it is cleared when a scan would grow it
/// past this (a bound, not a tuning knob; a configuration's search stores a
/// few thousand entries).
const CAND_MEMO_CAP: usize = 1 << 14;

/// Digest of everything about `dp` a candidate's outcome depends on that
/// its built fingerprint omits. The fingerprint hashes built structure, with
/// DFGs by content, so two designs can share a root while a move's rebuild
/// on them differs:
///
/// * each module's spec windows — `input_arrivals`, `output_deadlines`,
///   `deadline` — which constrain every rebuild but do not show in a build
///   that already meets them;
/// * each module's `reg_policy`, which the next rebuild re-applies;
/// * each child's kind (`Single` or `Opaque`) and an opaque child's origin;
/// * the [`DfgId`]s of every behavior and of every hierarchical node's
///   callee, which moves resolve by id, plus every memory's bank count;
/// * the operating point.
fn spec_digest(dp: &DesignPoint) -> u64 {
    fn spec(m: &ModuleState, h: &mut DefaultHasher) {
        let c = &m.core;
        c.dfg.hash(h);
        c.reg_policy.hash(h);
        c.input_arrivals.hash(h);
        c.output_deadlines.hash(h);
        c.deadline.hash(h);
        h.write_usize(m.children.len());
        for child in &m.children {
            match &child.kind {
                ChildKind::Single(s) => {
                    h.write_u8(0);
                    spec(s, h);
                }
                ChildKind::Opaque { origin, .. } => {
                    h.write_u8(1);
                    origin.hash(h);
                }
            }
        }
    }
    fn behaviors(m: &RtlModule, h: &mut DefaultHasher) {
        for b in m.behaviors() {
            b.dfg.hash(h);
        }
        h.write_usize(m.subs().len());
        for s in m.subs() {
            behaviors(s, h);
        }
    }
    let mut h = DefaultHasher::new();
    spec(&dp.top, &mut h);
    behaviors(&dp.top.built, &mut h);
    for (_, g) in dp.hierarchy.dfgs() {
        for (_, mem) in g.mems() {
            mem.banks.hash(&mut h);
        }
        for (_, node) in g.nodes() {
            if let NodeKind::Hier { callee } = node.kind() {
                callee.hash(&mut h);
            }
        }
    }
    for v in [dp.op.vdd, dp.op.clk_ref_ns, dp.op.period_ns] {
        v.to_bits().hash(&mut h);
    }
    dp.op.sampling_cycles.hash(&mut h);
    h.finish()
}

/// A candidate that survived the scan. The scan rolled it back; the winner
/// is re-applied in place from `mv` (and `resynth`) by
/// [`Engine::reapply`], which also refreshes its fingerprint tree and
/// evaluates it.
pub(crate) struct Applied {
    pub(crate) gain: f64,
    pub(crate) mv: Move,
    /// Move *B* only: the resynthesized implementation, kept so re-applying
    /// the winner does not re-run (and re-account) the recursive
    /// resynthesis.
    pub(crate) resynth: Option<ChildKind>,
}

/// The per-configuration optimizer.
pub(crate) struct Engine<'a> {
    pub mlib: &'a ModuleLibrary,
    pub config: &'a SynthesisConfig,
    pub traces: TraceSet,
    /// Remaining move-*B* recursion budget.
    pub depth: u32,
    pub stats: MoveStats,
    /// Wall-clock spent in the paranoid verifier and in shadow-mode
    /// reference evaluations, seconds (0 when both are off). Kept off
    /// `MoveStats` so the stats stay `Eq`-comparable across runs.
    pub verify_s: f64,
    /// Incremental evaluation cache; every search evaluation goes through
    /// it.
    pub cache: EvalCache,
    /// Wall-clock spent in search evaluations, seconds.
    pub eval_incr_s: f64,
    /// Wall-clock spent applying moves, seconds: in-place apply, rollback,
    /// and winner re-apply. Like `verify_s`, kept off `MoveStats` so the
    /// stats stay `Eq`.
    pub apply_s: f64,
    /// Wall-clock spent in large-neighborhood ruin→recreate refinement,
    /// seconds (0 with [`SynthesisConfig::lns_iters`] at 0). Like
    /// `verify_s`, kept off `MoveStats` so the stats stay `Eq`.
    pub lns_s: f64,
    /// Move-*B* memo: each distinct resynthesis request runs once per
    /// configuration (see DESIGN.md, "Move-B memo").
    memo: ResynthMemo,
    /// Candidate memo: each `(base design, move)` speculation runs once per
    /// engine.
    cands: CandMemo,
    /// Entries held in `cands`, across all base designs.
    cands_len: usize,
}

impl<'a> Engine<'a> {
    pub fn new(
        mlib: &'a ModuleLibrary,
        config: &'a SynthesisConfig,
        traces: TraceSet,
        depth: u32,
    ) -> Self {
        Engine {
            mlib,
            config,
            traces,
            depth,
            stats: MoveStats::default(),
            verify_s: 0.0,
            cache: EvalCache::new(),
            eval_incr_s: 0.0,
            apply_s: 0.0,
            lns_s: 0.0,
            memo: ResynthMemo::new(),
            cands: CandMemo::new(),
            cands_len: 0,
        }
    }

    /// Cooperative cancellation checkpoint: error out if the run's token
    /// (when one is configured) has tripped. Polled at pass, move-step,
    /// and LNS-iteration boundaries — coarse enough to be free, fine
    /// enough that a cancelled job stops within one candidate scan.
    pub(crate) fn check_cancel(&self) -> Result<(), Abort> {
        match &self.config.cancel {
            Some(t) if t.is_cancelled() => Err(Abort::Cancelled),
            _ => Ok(()),
        }
    }

    /// Paranoid mode: verify every cross-layer invariant of `dp`, failing
    /// on the first error-severity diagnostic. A no-op unless
    /// [`SynthesisConfig::paranoid`] is set; observation-only on legal
    /// designs (it never mutates anything, only accumulates `verify_s`).
    pub(crate) fn paranoid_check(
        &mut self,
        dp: &DesignPoint,
        after: Option<&Move>,
    ) -> Result<(), Box<ParanoidViolation>> {
        if !self.config.paranoid {
            return Ok(());
        }
        let t0 = Instant::now();
        let diags = verify_design(&DesignView {
            hierarchy: &dp.hierarchy,
            module: &dp.top.built,
            lib: &self.mlib.simple,
            vdd: dp.op.vdd,
            clk_ns: dp.op.clk_ref_ns,
            sampling_period: dp.top.core.deadline,
        });
        self.verify_s += t0.elapsed().as_secs_f64();
        if error_count(&diags) == 0 {
            return Ok(());
        }
        let diagnostic = diags
            .into_iter()
            .find(|d| d.severity == Severity::Error)
            .expect("error_count counted at least one error");
        Err(Box::new(ParanoidViolation {
            after_move: after.map(|m| m.to_string()),
            diagnostic,
        }))
    }

    fn objective(&self) -> Objective {
        self.config.objective
    }

    /// The fingerprint tree of `dp`, every module counted in
    /// [`MoveStats::modules_fingerprinted`].
    pub(crate) fn fingerprint(&mut self, dp: &DesignPoint) -> FpTree {
        self.stats.modules_fingerprinted += dp.top.built.module_count();
        fingerprint_tree(&dp.hierarchy, &dp.top.built)
    }

    /// The fingerprint tree of `dp` after an edit confined to the subtree
    /// `dirty`, refreshed from `old`, the tree before it; the modules it
    /// hashes are counted in [`MoveStats::modules_fingerprinted`].
    fn refingerprint(&mut self, dp: &DesignPoint, old: &FpTree, dirty: &[usize]) -> FpTree {
        let hashed = &mut self.stats.modules_fingerprinted;
        refresh_fingerprint_tree(&dp.hierarchy, &dp.top.built, old, dirty, hashed)
    }

    /// Evaluate `dp` for the search loop through the incremental cache
    /// (`fp` is `dp`'s fingerprint tree, which power mode needs and area
    /// mode does not read). In power-mode shadow mode the uncached
    /// reference runs too and any bit-level divergence panics, naming the
    /// offending move; its wall-clock is booked to `verify_s`. Area mode
    /// has no cached path to check: both are the one area walk.
    pub(crate) fn eval(
        &mut self,
        dp: &DesignPoint,
        fp: Option<&FpTree>,
        mv: Option<&Move>,
    ) -> Evaluation {
        let lib = &self.mlib.simple;
        let objective = self.objective();
        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let (traffic0, iterations0) = (self.cache.traffic(), self.cache.sim.kernel_iterations);
        let walked0 = self.cache.modules_area_walked;
        let t0 = Instant::now();
        let incr = evaluate_search_cached(dp, lib, &self.traces, objective, fp, &mut self.cache);
        self.eval_incr_s += t0.elapsed().as_secs_f64();
        self.stats.eval_cache_hits += self.cache.hits() - hits0;
        self.stats.eval_cache_misses += self.cache.misses() - misses0;
        self.stats
            .memo
            .absorb(&self.cache.traffic().since(&traffic0));
        self.stats.kernel_iterations += self.cache.sim.kernel_iterations - iterations0;
        self.stats.modules_area_walked += self.cache.modules_area_walked - walked0;
        if self.config.shadow_eval && objective == Objective::Power {
            let t0 = Instant::now();
            let full = evaluate_search(dp, lib, &self.traces, objective);
            self.verify_s += t0.elapsed().as_secs_f64();
            assert_shadow_identical(&incr, &full, mv);
        }
        incr
    }

    /// Price one candidate against the base design `dp` (fingerprint tree
    /// `cur_fp`): its cost, or `None` if it is invalid. `seen` holds the
    /// outcomes already speculated from this base; a repeat is answered
    /// from it, anything else is speculated live ([`Engine::speculate`])
    /// and remembered. Either way the work counters move exactly as a live
    /// speculation moves them, and `dp` is unchanged on return. Move *B*
    /// resolves its resynthesis first (replaying the nested engine's
    /// counters on a move-B memo hit) and also returns the implementation,
    /// so re-applying the winner does not re-run it.
    fn try_move(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: &FpTree,
        seen: &mut HashMap<Move, Option<f64>>,
        mv: &Move,
        log: &mut UndoLog,
    ) -> Option<(Option<ChildKind>, f64)> {
        let mut resynth: Option<ChildKind> = None;
        if let Move::ResynthChild { path, child } = mv {
            if self.depth == 0 {
                return None;
            }
            resynth = self.resynthesize_child(dp, path, *child);
            resynth.as_ref()?;
        }
        let outcome = match seen.get(mv) {
            Some(&stored) => {
                self.stats.memo.candidate.hits += 1;
                if self.config.shadow_eval {
                    self.shadow_candidate(dp, cur_fp, mv, &resynth, stored);
                }
                stored
            }
            None => {
                self.stats.memo.candidate.misses += 1;
                let fresh = self.speculate(dp, cur_fp, mv, &resynth, log, false);
                seen.insert(mv.clone(), fresh);
                fresh
            }
        };
        let Some(cost) = outcome else {
            self.stats.rejected += 1;
            return None;
        };
        self.stats.evaluated += 1;
        self.stats.moves_rolled_back += 1;
        Some((resynth, cost))
    }

    /// Speculate one candidate **in place** on the live design: apply,
    /// evaluate, then roll the journal back — `dp` is bit-identical to its
    /// pre-call state on return, success or failure. In power mode the
    /// candidate's fingerprint tree, which keys the power memos, is derived
    /// from `cur_fp` by re-fingerprinting only the move's dirty subtree and
    /// recombining its ancestors; area mode prices from the built tree
    /// alone and fingerprints nothing. With
    /// `uncached`, the candidate is priced by the full reference evaluation
    /// instead, leaving the eval cache untouched. Returns the candidate's
    /// cost, `None` if the move is invalid. Books wall-clock and eval-cache
    /// traffic; the candidate counters are the caller's.
    fn speculate(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: &FpTree,
        mv: &Move,
        resynth: &Option<ChildKind>,
        log: &mut UndoLog,
        uncached: bool,
    ) -> Option<f64> {
        let mark = log.mark();
        let t0 = Instant::now();
        let outcome = apply_in_place(dp, mv, self.mlib, &mut |_, _, _| resynth.clone(), log);
        self.apply_s += t0.elapsed().as_secs_f64();
        let dirty = outcome.ok()?;
        let cost = if uncached {
            evaluate_search(dp, &self.mlib.simple, &self.traces, self.objective()).cost
        } else {
            let fp = (self.objective() == Objective::Power)
                .then(|| self.refingerprint(dp, cur_fp, &dirty));
            self.eval(dp, fp.as_ref(), Some(mv)).cost
        };
        let t1 = Instant::now();
        log.rollback_to(dp, mark);
        self.apply_s += t1.elapsed().as_secs_f64();
        // Rollback-validity hook (paranoid mode): the retained fingerprint
        // tree must still describe the rolled-back design, or every later
        // `EvalCache` hit keyed through it would silently return results
        // for a different structure.
        if self.config.paranoid {
            let t2 = Instant::now();
            let retained = cur_fp.at(&dirty).map(|t| t.fp);
            let recomputed = fingerprint_at(&dp.hierarchy, &dp.top.built, &dirty);
            self.verify_s += t2.elapsed().as_secs_f64();
            assert_eq!(
                retained, recomputed,
                "rollback of move {mv} failed to restore the dirty subtree: \
                 the undo journal missed an edit"
            );
        }
        Some(cost)
    }

    /// Shadow mode for the candidate memo: speculate a hit live again, in a
    /// journal of its own and priced by the full reference evaluation
    /// (leaving no trace on the counters, the eval cache or the pass
    /// journal's peak; its wall-clock is booked to `verify_s`), and require
    /// the same outcome, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics naming the move and the base design's fingerprint when the
    /// recomputation differs from the stored outcome.
    fn shadow_candidate(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: &FpTree,
        mv: &Move,
        resynth: &Option<ChildKind>,
        stored: Option<f64>,
    ) {
        let t0 = Instant::now();
        let saved = (self.verify_s, self.apply_s);
        let fresh = self.speculate(dp, cur_fp, mv, resynth, &mut UndoLog::new(), true);
        (self.verify_s, self.apply_s) = saved;
        self.verify_s += t0.elapsed().as_secs_f64();
        assert!(
            fresh.map(f64::to_bits) == stored.map(f64::to_bits),
            "candidate memo diverged for move {mv} on base design {:016x}: \
             stored {stored:?}, recomputed {fresh:?}",
            cur_fp.fp
        );
    }

    /// Evaluate the top candidates by heuristic score and return the best
    /// by true gain (possibly negative). Candidates are speculated in
    /// place through `log`; `dp` and `log` are unchanged on return.
    ///
    /// Rejections and evaluations are budgeted separately: up to
    /// `candidate_limit` candidates are fully evaluated, and the scan stops
    /// early only after `5 × candidate_limit` *rejections*. (A single
    /// shared attempt counter could previously exhaust the scan on
    /// rejected candidates before evaluating any valid one.)
    pub(crate) fn best_from(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: &FpTree,
        base_cost: f64,
        mut cands: Vec<Candidate>,
        log: &mut UndoLog,
    ) -> Option<Applied> {
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        if self.cands_len >= CAND_MEMO_CAP {
            self.cands.clear();
            self.cands_len = 0;
        }
        let base = (cur_fp.fp, spec_digest(dp));
        let mut seen = self.cands.remove(&base).unwrap_or_default();
        let known = seen.len();
        let mut best: Option<Applied> = None;
        let mut evaluated = 0usize;
        let mut rejected = 0usize;
        for (_, mv) in cands {
            if evaluated >= self.config.candidate_limit
                || rejected >= 5 * self.config.candidate_limit
            {
                break;
            }
            match self.try_move(dp, cur_fp, &mut seen, &mv, log) {
                Some((resynth, cost)) => {
                    evaluated += 1;
                    let gain = base_cost - cost;
                    if best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(Applied { gain, mv, resynth });
                    }
                }
                None => rejected += 1,
            }
        }
        self.cands_len += seen.len() - known;
        self.cands.insert(base, seen);
        best
    }

    /// Re-apply a scan winner in place (the scan rolled it back), reusing
    /// its saved move-*B* implementation, then refresh its fingerprint tree
    /// from `base_fp` along the dirty path and evaluate it. The pass loop
    /// and LNS recreation both step through here.
    ///
    /// # Errors
    ///
    /// In paranoid mode, a cross-layer invariant the re-applied move broke.
    pub(crate) fn reapply(
        &mut self,
        dp: &mut DesignPoint,
        base_fp: &FpTree,
        won: Applied,
        log: &mut UndoLog,
    ) -> Result<(Move, FpTree, Evaluation), Box<ParanoidViolation>> {
        let Applied { mv, resynth, .. } = won;
        let mut saved = resynth;
        let t0 = Instant::now();
        let dirty = apply_in_place(dp, &mv, self.mlib, &mut |_, _, _| saved.take(), log)
            .expect("re-apply of a just-validated move on the identical design");
        self.apply_s += t0.elapsed().as_secs_f64();
        let fp = self.refingerprint(dp, base_fp, &dirty);
        let eval = self.eval(dp, Some(&fp), Some(&mv));
        self.paranoid_check(dp, Some(&mv))?;
        Ok((mv, fp, eval))
    }

    /// `GET_BEST_TYPE_A_AND_B_MOVE` (Figure 5 wrapped into one selector).
    fn best_ab(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: &FpTree,
        base_cost: f64,
        log: &mut UndoLog,
    ) -> Option<Applied> {
        let families = self.config.moves;
        if !families.a && !families.b {
            return None;
        }
        let mut cands = selection_candidates(
            dp,
            self.mlib,
            self.objective(),
            self.depth > 0 && families.b,
        );
        if !families.a {
            cands.retain(|(_, mv)| matches!(mv, Move::ResynthChild { .. }));
        }
        self.best_from(dp, cur_fp, base_cost, cands, log)
    }

    /// `GET_BEST_RESOURCE_SHARING_MOVE`, falling back to
    /// `GET_BEST_RESOURCE_SPLITTING_MOVE` when sharing only degrades
    /// (Figure 4, lines 8–10).
    fn best_cd(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: &FpTree,
        base_cost: f64,
        log: &mut UndoLog,
    ) -> Option<Applied> {
        let families = self.config.moves;
        let sharing = if families.c {
            let cands = sharing_candidates(dp, self.mlib, self.objective());
            #[cfg(test)]
            crate::moves::tests::assert_matches_reference(dp, self.mlib, self.objective(), &cands);
            self.best_from(dp, cur_fp, base_cost, cands, log)
        } else {
            None
        };
        match sharing {
            Some(s) if s.gain > 0.0 => Some(s),
            other => {
                let splitting = if families.d {
                    let cands = splitting_candidates(dp, self.mlib, self.objective());
                    self.best_from(dp, cur_fp, base_cost, cands, log)
                } else {
                    None
                };
                match (other, splitting) {
                    (Some(a), Some(b)) => Some(if a.gain >= b.gain { a } else { b }),
                    (a, b) => a.or(b),
                }
            }
        }
    }

    /// One full variable-depth optimization of `initial` at its operating
    /// point (Figure 4 lines 3–16), followed by LNS refinement when
    /// [`SynthesisConfig::lns_iters`] is positive. Returns the best design
    /// seen.
    ///
    /// # Errors
    ///
    /// In paranoid mode, the first cross-layer invariant violation aborts
    /// the configuration, naming the offending move. A tripped cancel token
    /// aborts the run. Never errors otherwise.
    pub(crate) fn optimize(
        &mut self,
        initial: DesignPoint,
    ) -> Result<(DesignPoint, Evaluation), Abort> {
        let (dp, eval) = self.pass_loop(initial)?;
        if self.config.lns_iters == 0 {
            return Ok((dp, eval));
        }
        let t0 = Instant::now();
        let out = self.lns_refine(dp, eval);
        self.lns_s += t0.elapsed().as_secs_f64();
        out
    }

    /// The search loop: one live design, mutated in place.
    ///
    /// Per step, every candidate is speculated and rolled back inside the
    /// pass journal ([`Engine::try_move`]); the winner is then re-applied
    /// (reusing its saved move-*B* implementation, so recursive
    /// resynthesis runs exactly once per evaluation). The pass history is
    /// `(Evaluation, FpTree)` pairs plus journal marks: committing the
    /// best-cumulative-gain prefix = rolling the journal back to the mark
    /// taken before the first rejected step.
    fn pass_loop(&mut self, initial: DesignPoint) -> Result<(DesignPoint, Evaluation), Abort> {
        self.paranoid_check(&initial, None)?;
        let mut cur = initial;
        let mut cur_fp = self.fingerprint(&cur);
        let mut cur_eval = self.eval(&cur, Some(&cur_fp), None);
        let mut best = cur.clone();
        let mut best_eval = cur_eval;

        let op_count = cur.hierarchy.dfg(cur.top.core.dfg).schedulable_count();
        let max_moves = self
            .config
            .max_moves_per_pass
            .unwrap_or_else(|| (op_count / 2).clamp(8, 40));

        for _pass in 0..self.config.max_passes {
            self.check_cancel()?;
            self.stats.passes += 1;
            let mut log = UndoLog::new();
            // history[k]: evaluation + fingerprint tree after k committed
            // steps; step_marks[k]: journal position before step k+1.
            let mut history: Vec<(Evaluation, FpTree)> = vec![(cur_eval, cur_fp.clone())];
            let mut step_marks: Vec<UndoMark> = Vec::new();
            let mut seq_moves: Vec<Move> = Vec::new();
            for _ in 0..max_moves {
                self.check_cancel()?;
                let (work_eval, work_fp) = history.last().expect("non-empty");
                let base = work_eval.cost;
                let m1 = self.best_ab(&mut cur, work_fp, base, &mut log);
                let m3 = self.best_cd(&mut cur, work_fp, base, &mut log);
                let chosen = match (m1, m3) {
                    (Some(a), Some(b)) => Some(if a.gain >= b.gain { a } else { b }),
                    (a, b) => a.or(b),
                };
                let Some(chosen) = chosen else { break };
                let mark = log.mark();
                let (mv, fp, eval) = self.reapply(&mut cur, work_fp, chosen, &mut log)?;
                seq_moves.push(mv);
                step_marks.push(mark);
                history.push((eval, fp));
            }
            // Commit the best-cumulative-gain prefix; unwind the rest.
            let (best_idx, _) = history
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cost.total_cmp(&b.0.cost))
                .expect("non-empty");
            let pass_gain = history[0].0.cost - history[best_idx].0.cost;
            self.stats.undo_bytes_peak = self.stats.undo_bytes_peak.max(log.bytes_peak() as u64);
            if best_idx == 0 || pass_gain <= 1e-9 {
                // Reject the whole pass: unwind every applied step.
                let t0 = Instant::now();
                log.rollback_all(&mut cur);
                self.apply_s += t0.elapsed().as_secs_f64();
                self.stats.moves_rolled_back += seq_moves.len() as u64;
                break;
            }
            for mv in &seq_moves[..best_idx] {
                self.stats.record(mv);
            }
            if best_idx < seq_moves.len() {
                let t0 = Instant::now();
                log.rollback_to(&mut cur, step_marks[best_idx]);
                self.apply_s += t0.elapsed().as_secs_f64();
                self.stats.moves_rolled_back += (seq_moves.len() - best_idx) as u64;
            }
            let (committed_eval, committed_fp) = history.swap_remove(best_idx);
            cur_eval = committed_eval;
            cur_fp = committed_fp;
            if cur_eval.cost < best_eval.cost {
                best = cur.clone();
                best_eval = cur_eval;
            }
        }
        Ok((best, best_eval))
    }

    /// Move *B*: derive the child's slack window from the parent schedule
    /// ("constraint derivation"), then run a bounded recursive synthesis of
    /// the callee DFG under that window ("resynthesis"), once per distinct
    /// request in this configuration.
    fn resynthesize_child(
        &mut self,
        dp: &DesignPoint,
        path: &[usize],
        child_idx: usize,
    ) -> Option<ChildKind> {
        let key = self.resynth_request(dp, path, child_idx)?;
        self.resynthesize_memoized(dp, key)
    }

    /// The move-*B* request (memo key) for child `child_idx` of the module
    /// at `path`. `None` unless the child serves calls of a single callee.
    fn resynth_request(
        &self,
        dp: &DesignPoint,
        path: &[usize],
        child_idx: usize,
    ) -> Option<ResynthKey> {
        let parent = dp.top.at(path);
        let child = parent.children.get(child_idx)?;
        let g = dp.hierarchy.dfg(parent.core.dfg);
        // Single-callee children only (merged modules are not resynthesized).
        let mut callee = None;
        for &n in &child.nodes {
            match g.node(n).kind() {
                NodeKind::Hier { callee: c } => {
                    if *callee.get_or_insert(*c) != *c {
                        return None;
                    }
                }
                _ => return None,
            }
        }
        let callee = callee?;

        // Constraint derivation: intersect the windows of all nodes served.
        // The parent schedules its children under exactly the context it
        // relinks with — one shared helper, so the two can never drift.
        let lib = &self.mlib.simple;
        let ctx = parent.core.build_ctx(lib, &dp.op);
        let mut arrivals: Option<Vec<u32>> = None;
        let mut deadlines: Option<Vec<u32>> = None;
        for &n in &child.nodes {
            let w = window_of(&dp.hierarchy, &parent.built, 0, &ctx, n);
            // The module start is when its first inputs arrive; express the
            // window relative to the node's own start (profiles are
            // start-relative).
            let base = w.input_arrivals.iter().copied().min().unwrap_or(0);
            let rel_in: Vec<u32> = w.input_arrivals.iter().map(|&a| a - base).collect();
            let rel_out: Vec<u32> = w
                .output_deadlines
                .iter()
                .map(|&d| d.saturating_sub(base))
                .collect();
            arrivals = Some(match arrivals {
                None => rel_in,
                Some(prev) => prev.iter().zip(&rel_in).map(|(&a, &b)| a.max(b)).collect(),
            });
            deadlines = Some(match deadlines {
                None => rel_out,
                Some(prev) => prev.iter().zip(&rel_out).map(|(&a, &b)| a.min(b)).collect(),
            });
        }

        Some(ResynthKey {
            callee,
            dfg_fp: dfg_fingerprint(&dp.hierarchy, callee),
            op: [
                dp.op.vdd.to_bits(),
                dp.op.clk_ref_ns.to_bits(),
                dp.op.period_ns.to_bits(),
                u64::from(dp.op.sampling_cycles),
            ],
            arrivals,
            deadlines,
            depth: self.depth,
        })
    }

    /// Answer a move-*B* request from the memo, replaying the stored work
    /// counters, or run it and remember the outcome unless the inner run
    /// aborted.
    fn resynthesize_memoized(&mut self, dp: &DesignPoint, key: ResynthKey) -> Option<ChildKind> {
        if let Some(hit) = self.memo.get(&key).cloned() {
            self.stats.memo.move_b.hits += 1;
            self.stats.absorb(&hit.delta);
            if self.config.shadow_eval {
                self.shadow_resynthesis(dp, &key, &hit);
            }
            return hit.module.map(ChildKind::Single);
        }
        self.stats.memo.move_b.misses += 1;
        let (run, complete) = self.resynthesize(dp, &key);
        self.stats.absorb(&run.delta);
        let module = run.module.clone();
        // A child verifier failure (or a cancellation that tripped inside
        // the child) simply rejects this move-B candidate; the parent loop
        // re-checks the cancel token at its next step boundary. Such a run
        // depends on more than the key, so it is never memoized.
        if complete {
            remember_resynthesis(&mut self.memo, key, run);
        }
        module.map(ChildKind::Single)
    }

    /// Resynthesis proper: a bounded recursive synthesis of `callee` under
    /// the window in `key`, sharing this engine's memo. The nested engine's
    /// wall-clock and memo traffic are folded in here; its work counters
    /// come back as the outcome's delta, which the caller accounts. The
    /// flag is false when the inner run aborted: the outcome is then `None`
    /// and the delta the partial work.
    fn resynthesize(&mut self, dp: &DesignPoint, key: &ResynthKey) -> (Resynthesis, bool) {
        let callee = key.callee;
        let Ok(initial) = initial_module_with_window(
            &dp.hierarchy,
            callee,
            self.mlib,
            &dp.op,
            key.arrivals.clone(),
            key.deadlines.clone(),
            &format!("{}_resyn", dp.hierarchy.dfg(callee).name()),
        ) else {
            let none = Resynthesis {
                module: None,
                delta: MoveStats::default(),
            };
            return (none, true);
        };
        let in_count = dp.hierarchy.dfg(callee).input_count();
        let child_traces = dsp_default(
            in_count,
            self.config.eval_trace_len.min(24),
            self.config.width,
            self.config.seed ^ (callee.index() as u64).wrapping_mul(0x9e37_79b9),
        );
        let inner_cfg = self.config.child_budget();
        let mut inner = Engine::new(self.mlib, &inner_cfg, child_traces, self.depth - 1);
        inner.memo = std::mem::take(&mut self.memo);
        let child_dp = DesignPoint {
            hierarchy: dp.hierarchy.clone(),
            op: OperatingPoint {
                // The child's deadline lives in its core; the sampling-cycles
                // field only feeds power normalization during inner search.
                ..dp.op
            },
            top: initial,
        };
        let result = inner.optimize(child_dp);
        self.memo = std::mem::take(&mut inner.memo);
        let inner_memo = &inner.stats.memo;
        self.stats.memo.candidate.absorb(inner_memo.candidate);
        self.stats.memo.move_b.absorb(inner_memo.move_b);
        self.stats.kernel_iterations += inner.stats.kernel_iterations;
        self.stats.modules_fingerprinted += inner.stats.modules_fingerprinted;
        self.stats.modules_area_walked += inner.stats.modules_area_walked;
        self.verify_s += inner.verify_s;
        self.eval_incr_s += inner.eval_incr_s;
        self.apply_s += inner.apply_s;
        self.lns_s += inner.lns_s;
        let delta = inner.stats.child_delta();
        let Ok((optimized, _)) = result else {
            return (
                Resynthesis {
                    module: None,
                    delta,
                },
                false,
            );
        };
        // Only `optimized.top` survives; the nested hierarchy is dropped. A
        // committed inner edit to the callee's DFG (a rebank of a memory it
        // owns) would be lost with it, and the memo key would describe a
        // different callee than the module was built against.
        if self.config.paranoid {
            let t0 = Instant::now();
            let inner_fp = dfg_fingerprint(&optimized.hierarchy, callee);
            self.verify_s += t0.elapsed().as_secs_f64();
            assert_eq!(
                inner_fp,
                key.dfg_fp,
                "move-B resynthesis of callee {} ({}) edited the callee's DFG; \
                 the edit is lost with the nested hierarchy",
                dp.hierarchy.dfg(callee).name(),
                callee
            );
        }
        let module = Some(Box::new(optimized.top));
        (Resynthesis { module, delta }, true)
    }

    /// Shadow mode for the move-*B* memo: recompute a hit from scratch
    /// (with an empty memo, leaving no trace on the engine but its
    /// wall-clock, booked to `verify_s`) and require the stored module
    /// fingerprint and work delta to match.
    ///
    /// # Panics
    ///
    /// Panics naming the callee and window when the recomputation differs.
    fn shadow_resynthesis(&mut self, dp: &DesignPoint, key: &ResynthKey, hit: &Resynthesis) {
        let t0 = Instant::now();
        let saved = (
            std::mem::take(&mut self.memo),
            self.stats,
            self.verify_s,
            self.eval_incr_s,
            self.apply_s,
            self.lns_s,
        );
        let (fresh, complete) = self.resynthesize(dp, key);
        (
            self.memo,
            self.stats,
            self.verify_s,
            self.eval_incr_s,
            self.apply_s,
            self.lns_s,
        ) = saved;
        self.verify_s += t0.elapsed().as_secs_f64();
        let summary = |r: &Resynthesis| {
            let fp = r
                .module
                .as_ref()
                .map(|m| module_fingerprint(&dp.hierarchy, &m.built));
            (fp, r.delta)
        };
        // A cancel that tripped during the recomputation leaves nothing to
        // compare; the parent stops at its next checkpoint.
        if !complete && self.check_cancel().is_err() {
            return;
        }
        let (stored, fresh) = (summary(hit), summary(&fresh));
        assert!(
            complete && fresh == stored,
            "move-B memo diverged for callee {} ({}) (arrivals {:?}, deadlines {:?}): \
             stored {stored:?}, recomputed {fresh:?} (run to completion: {complete})",
            dp.hierarchy.dfg(key.callee).name(),
            key.callee,
            key.arrivals,
            key.deadlines
        );
    }
}

/// Every float of an [`Evaluation`], labeled — the shadow-mode comparison
/// surface.
fn eval_fields(e: &Evaluation) -> [(&'static str, f64); 19] {
    let a = &e.area;
    let p = &e.power;
    let b = &p.energy_breakdown;
    [
        ("area.fu", a.fu),
        ("area.reg", a.reg),
        ("area.mux", a.mux),
        ("area.wire", a.wire),
        ("area.controller", a.controller),
        ("area.mem", a.mem),
        ("area.subs", a.subs),
        ("energy.fu", b.fu),
        ("energy.reg", b.reg),
        ("energy.mux", b.mux),
        ("energy.wire", b.wire),
        ("energy.controller", b.controller),
        ("energy.mem", b.mem),
        ("energy.clock", b.clock),
        ("energy.subs", b.subs),
        ("power.energy_per_iteration", p.energy_per_iteration),
        ("power.power", p.power),
        ("power.vdd", p.vdd),
        ("cost", e.cost),
    ]
}

/// Shadow-mode diff: the cached evaluation must equal the full
/// recomputation bit-for-bit (`f64::to_bits`, not an epsilon). `mv` is the
/// move that produced the evaluated design — `None` at a configuration's
/// initial design.
///
/// # Panics
///
/// Panics on the first diverging field, naming the move, the module path it
/// edited, and both bit patterns.
fn assert_shadow_identical(incr: &Evaluation, full: &Evaluation, mv: Option<&Move>) {
    for ((name, i), (_, f)) in eval_fields(incr).iter().zip(eval_fields(full).iter()) {
        if i.to_bits() != f.to_bits() {
            let origin = match mv {
                Some(mv) => format!(
                    "after move {mv} (dirty module path {:?})",
                    crate::moves::dirty_path(mv)
                ),
                None => "at the initial design".to_owned(),
            };
            panic!(
                "shadow evaluation diverged {origin}: {name} cached {i:?} ({:#018x}) != full {f:?} ({:#018x})",
                i.to_bits(),
                f.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::initial_solution;
    use crate::moves::Candidate;
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;
    use hsyn_rtl::RegPolicy;
    use hsyn_rtl::{module_fingerprint, ModuleLibrary};

    fn paulin_fixture() -> (DesignPoint, ModuleLibrary, TraceSet) {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("paulin builds");
        let traces = dsp_default(b.hierarchy.dfg(b.hierarchy.top()).input_count(), 4, 16, 1);
        let dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        (dp, mlib, traces)
    }

    #[test]
    fn resynthesis_memo_is_cleared_when_full() {
        let key = |dfg_fp: u64| ResynthKey {
            callee: DfgId::from_index(0),
            dfg_fp,
            op: [0; 4],
            arrivals: None,
            deadlines: None,
            depth: 0,
        };
        let run = || Resynthesis {
            module: None,
            delta: MoveStats::default(),
        };
        let mut memo = ResynthMemo::new();
        for fp in 0..RESYNTH_MEMO_CAP as u64 {
            remember_resynthesis(&mut memo, key(fp), run());
        }
        assert_eq!(memo.len(), RESYNTH_MEMO_CAP);
        remember_resynthesis(&mut memo, key(u64::MAX), run());
        assert_eq!(memo.len(), 1, "full: cleared, then the new entry");
        assert!(memo.contains_key(&key(u64::MAX)));
    }

    /// Regression for the `best_from` bailout: before the evaluated/rejected
    /// budgets were split, a single shared attempt counter
    /// (`attempts >= 5 × candidate_limit`, counting *both* kinds) could
    /// exhaust the scan on rejected candidates and stop before evaluating a
    /// valid lower-scored one. With `candidate_limit = 2`, one valid
    /// candidate followed by nine rejecting ones used to spend the whole
    /// budget (1 + 9 = 10 ≥ 10); the trailing valid candidate was never
    /// evaluated.
    #[test]
    fn rejections_do_not_starve_valid_candidates() {
        let (mut dp, mlib, traces) = paulin_fixture();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.candidate_limit = 2;
        let mut engine = Engine::new(&mlib, &config, traces, 0);
        let fp = fingerprint_tree(&dp.hierarchy, &dp.top.built);
        let base = engine.eval(&dp, Some(&fp), None);
        let before = module_fingerprint(&dp.hierarchy, &dp.top.built);
        // Group 999 does not exist, so these nine are rejected by
        // `apply_in_place`; RepackRegs is valid (the initial register
        // policy is dedicated).
        let stale_type = dp.top.core.fu_groups[0].fu_type;
        let mut cands: Vec<Candidate> = vec![(100.0, Move::RepackRegs { path: vec![] })];
        for i in 0..9 {
            cands.push((
                90.0 - i as f64,
                Move::SetFuType {
                    path: vec![],
                    group: 999,
                    fu_type: stale_type,
                },
            ));
        }
        cands.push((1.0, Move::RepackRegs { path: vec![] }));
        let mut log = UndoLog::new();
        let best = engine.best_from(&mut dp, &fp, base.cost, cands, &mut log);
        assert!(best.is_some(), "a valid candidate must be found");
        assert_eq!(
            (engine.stats.evaluated, engine.stats.rejected),
            (2, 9),
            "both valid candidates must be evaluated despite nine rejections"
        );
        // The scan leaves both the journal and the design untouched
        // behind it.
        assert_eq!(engine.stats.moves_rolled_back, 2);
        assert!(log.is_empty(), "scan must roll every speculation back");
        assert_eq!(
            module_fingerprint(&dp.hierarchy, &dp.top.built),
            before,
            "scan must leave the design bit-identical"
        );
    }

    /// matmul at the reference voltage: four `dot2` children over two
    /// shared memories, and an engine with one level of move *B*.
    fn matmul_fixture() -> (DesignPoint, ModuleLibrary, TraceSet) {
        let b = benchmarks::matmul();
        let mut mlib = ModuleLibrary::from_simple(table1_library());
        mlib.equiv = b.equiv.clone();
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("matmul builds");
        let traces = dsp_default(b.hierarchy.dfg(b.hierarchy.top()).input_count(), 4, 16, 1);
        let dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        (dp, mlib, traces)
    }

    fn child_fp(dp: &DesignPoint, kind: &ChildKind) -> u64 {
        let ChildKind::Single(m) = kind else {
            panic!("move B yields a spec tree")
        };
        module_fingerprint(&dp.hierarchy, &m.built)
    }

    /// A repeated request is answered from the memo: the same module and
    /// the same replayed work counters as the run that filled it.
    #[test]
    fn repeated_resynthesis_hits_the_memo() {
        let (dp, mlib, traces) = matmul_fixture();
        let config = SynthesisConfig::new(Objective::Area);
        let mut engine = Engine::new(&mlib, &config, traces, 1);
        let first = engine
            .resynthesize_child(&dp, &[], 0)
            .expect("resynthesizes");
        let after_first = engine.stats;
        let second = engine.resynthesize_child(&dp, &[], 0).expect("memo hit");
        assert_eq!(
            (after_first.memo.move_b.misses, after_first.memo.move_b.hits),
            (1, 0)
        );
        assert_eq!(
            (
                engine.stats.memo.move_b.misses,
                engine.stats.memo.move_b.hits
            ),
            (1, 1)
        );
        assert!(after_first.evaluated > 0, "the nested engine searched");
        assert_eq!(child_fp(&dp, &first), child_fp(&dp, &second));
        // The hit replays exactly the delta the miss folded in.
        let mut replayed = after_first;
        replayed.absorb(&after_first.child_delta());
        replayed.memo.move_b.hits = 1;
        assert_eq!(engine.stats, replayed);
        assert_eq!(engine.memo.len(), 1);
    }

    /// Every input the nested engine reads is in the key: another window
    /// or a rebanked callee memory is a new request.
    #[test]
    fn changed_window_or_rebanked_callee_misses() {
        let (mut dp, mlib, traces) = matmul_fixture();
        let config = SynthesisConfig::new(Objective::Area);
        let mut engine = Engine::new(&mlib, &config, traces, 1);
        let key = engine.resynth_request(&dp, &[], 0).expect("single callee");
        engine.resynthesize_memoized(&dp, key.clone());
        let mut wider = key.clone();
        for d in wider.deadlines.as_mut().expect("window derived") {
            *d += 1;
        }
        engine.resynthesize_memoized(&dp, wider);
        assert_eq!(
            (
                engine.stats.memo.move_b.misses,
                engine.stats.memo.move_b.hits
            ),
            (2, 0)
        );

        let callee = key.callee;
        let (mem, m) = dp
            .hierarchy
            .dfg(callee)
            .mems()
            .next()
            .expect("dot2 has memories");
        let banks = m.banks.max(1) * 2;
        dp.hierarchy.dfg_mut(callee).set_mem_banks(mem, banks);
        let rebanked = engine.resynth_request(&dp, &[], 0).expect("single callee");
        assert_ne!(rebanked.dfg_fp, key.dfg_fp);
        engine.resynthesize_memoized(&dp, rebanked);
        assert_eq!(
            (
                engine.stats.memo.move_b.misses,
                engine.stats.memo.move_b.hits
            ),
            (3, 0)
        );
    }

    /// An inner run that aborts is not a function of the key: it rejects
    /// the candidate and is never stored.
    #[test]
    fn cancelled_resynthesis_is_not_memoized() {
        let (dp, mlib, traces) = matmul_fixture();
        let mut config = SynthesisConfig::new(Objective::Area);
        let token = crate::CancelToken::new();
        token.cancel();
        config.cancel = Some(token);
        let mut engine = Engine::new(&mlib, &config, traces, 1);
        assert!(engine.resynthesize_child(&dp, &[], 0).is_none());
        assert!(engine.memo.is_empty());
        assert_eq!(engine.stats.memo.move_b.misses, 1);
    }

    /// Shadow mode recomputes every memo hit; a stored outcome that no
    /// longer matches the recomputation panics, naming the callee.
    #[test]
    #[should_panic(expected = "move-B memo diverged for callee")]
    fn shadow_mode_catches_a_stale_memo_entry() {
        let (dp, mlib, traces) = matmul_fixture();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.shadow_eval = true;
        let mut engine = Engine::new(&mlib, &config, traces, 1);
        engine
            .resynthesize_child(&dp, &[], 0)
            .expect("resynthesizes");
        for entry in engine.memo.values_mut() {
            entry.delta.evaluated += 1;
        }
        engine.resynthesize_child(&dp, &[], 0);
    }

    /// lat at the reference voltage with the Table 1 library: every child
    /// is a `Single` spec tree.
    fn lat_fixture() -> (DesignPoint, ModuleLibrary, TraceSet) {
        let b = benchmarks::lat();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("lat builds");
        let traces = dsp_default(b.hierarchy.dfg(b.hierarchy.top()).input_count(), 4, 16, 1);
        let dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        (dp, mlib, traces)
    }

    /// Scan `mv` alone from `dp` (base cost 0): the candidate's cost bits,
    /// `None` when rejected.
    fn scan_one(engine: &mut Engine, dp: &mut DesignPoint, mv: &Move) -> Option<u64> {
        let fp = fingerprint_tree(&dp.hierarchy, &dp.top.built);
        let mut log = UndoLog::new();
        engine
            .best_from(dp, &fp, 0.0, vec![(0.0, mv.clone())], &mut log)
            .map(|won| (-won.gain).to_bits())
    }

    /// Two designs with one built fingerprint tree, told apart only by the
    /// spec state `edit` rewrites in child 0 (left unbuilt, so its build
    /// and every fingerprint stay as they were). Some move on that child
    /// must price differently on the two, and one engine scanning that move
    /// from both must speculate it twice and report the edited design's
    /// own outcome — a key of the built root and the move alone would
    /// answer the second scan with the first design's cost.
    fn assert_spec_edit_is_a_new_base(edit: impl Fn(&mut ModuleState)) {
        let (dp, mlib, traces) = lat_fixture();
        let config = SynthesisConfig::new(Objective::Area);
        let mut edited = dp.clone();
        let ChildKind::Single(child) = &mut edited.top.children[0].kind else {
            panic!("lat children are spec trees under the Table 1 library")
        };
        edit(child);
        assert_eq!(
            fingerprint_tree(&dp.hierarchy, &dp.top.built),
            fingerprint_tree(&edited.hierarchy, &edited.top.built),
            "the edit must not show in the built fingerprint"
        );
        let objective = config.objective;
        let mut moves = selection_candidates(&dp, &mlib, objective, false);
        moves.extend(sharing_candidates(&dp, &mlib, objective));
        moves.extend(splitting_candidates(&dp, &mlib, objective));
        let fresh = |dp: &DesignPoint, mv: &Move| {
            let mut engine = Engine::new(&mlib, &config, traces.clone(), 0);
            scan_one(&mut engine, &mut dp.clone(), mv)
        };
        let (mv, want) = moves
            .into_iter()
            .map(|(_, mv)| mv)
            .filter(|mv| crate::moves::dirty_path(mv) == [0])
            .find_map(|mv| {
                let want = fresh(&edited, &mv);
                (fresh(&dp, &mv) != want).then_some((mv, want))
            })
            .expect("some move on child 0 prices the edit");
        let mut engine = Engine::new(&mlib, &config, traces.clone(), 0);
        scan_one(&mut engine, &mut dp.clone(), &mv);
        let got = scan_one(&mut engine, &mut edited, &mv);
        assert_eq!(
            (
                engine.stats.memo.candidate.misses,
                engine.stats.memo.candidate.hits
            ),
            (2, 0),
            "{mv} from the edited design must be speculated, not recalled"
        );
        assert_eq!(got, want, "{mv} on the edited design");
    }

    /// A child's output deadlines constrain its next rebuild but do not
    /// show in a build that already meets them.
    #[test]
    fn candidate_memo_key_covers_output_deadlines() {
        assert_spec_edit_is_a_new_base(|child| {
            let outputs = child.built.behaviors()[0].profile.outputs.len();
            child.core.output_deadlines = Some(vec![0; outputs]);
        });
    }

    /// A child's register policy is re-applied by its next rebuild.
    #[test]
    fn candidate_memo_key_covers_reg_policy() {
        assert_spec_edit_is_a_new_base(|child| {
            assert!(matches!(child.core.reg_policy, RegPolicy::Dedicated));
            child.core.reg_policy = RegPolicy::Packed;
        });
    }

    /// A repeated candidate is answered from the memo and moves the
    /// counters exactly as the live speculation did.
    #[test]
    fn repeated_candidate_replays_its_counters() {
        let (mut dp, mlib, traces) = paulin_fixture();
        let config = SynthesisConfig::new(Objective::Area);
        let mut engine = Engine::new(&mlib, &config, traces, 0);
        let mv = Move::RepackRegs { path: vec![] };
        let first = scan_one(&mut engine, &mut dp, &mv);
        let after_first = engine.stats;
        let second = scan_one(&mut engine, &mut dp, &mv);
        assert!(first.is_some());
        assert_eq!(first, second);
        assert_eq!(
            (
                after_first.memo.candidate.misses,
                after_first.memo.candidate.hits
            ),
            (1, 0)
        );
        assert_eq!(
            (
                engine.stats.memo.candidate.misses,
                engine.stats.memo.candidate.hits
            ),
            (1, 1)
        );
        assert_eq!(engine.stats.evaluated, 2 * after_first.evaluated);
        assert_eq!(
            engine.stats.moves_rolled_back,
            2 * after_first.moves_rolled_back
        );
        assert_eq!(
            engine.stats.eval_cache_misses,
            after_first.eval_cache_misses
        );
    }

    /// Shadow mode speculates every candidate-memo hit again; a stored
    /// outcome that no longer matches panics, naming the move.
    #[test]
    #[should_panic(expected = "candidate memo diverged for move")]
    fn shadow_mode_catches_a_stale_candidate_entry() {
        let (mut dp, mlib, traces) = paulin_fixture();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.shadow_eval = true;
        let mut engine = Engine::new(&mlib, &config, traces, 0);
        let mv = Move::RepackRegs { path: vec![] };
        scan_one(&mut engine, &mut dp, &mv);
        for cost in engine.cands.values_mut().flat_map(|seen| seen.values_mut()) {
            *cost = cost.map(|c| c + 1.0);
        }
        scan_one(&mut engine, &mut dp, &mv);
    }

    /// The per-memo traffic adds up to the two eval-cache sums (value
    /// streams counted apart), a design-memo miss walks the area of the
    /// whole tree, and flat and hierarchical designs alike are priced from
    /// value streams: the kernel runs once per distinct hierarchy, not once
    /// per candidate.
    #[test]
    fn memo_traffic_adds_up_and_every_design_prices_from_streams() {
        let (hier, mlib, traces) = lat_fixture();
        let mut flat = hier.clone();
        let mut h = hsyn_dfg::Hierarchy::new();
        let top = h.add_dfg(hier.hierarchy.flatten());
        h.set_top(top);
        flat.top = initial_solution(&h, &mlib, &flat.op).expect("flat lat builds");
        flat.hierarchy = h;
        for (dp, is_flat) in [(hier, false), (flat, true)] {
            let config = SynthesisConfig::new(Objective::Power);
            let mut engine = Engine::new(&mlib, &config, traces.clone(), config.resynth_depth);
            engine.optimize(dp).expect("optimizes");
            let (s, m) = (engine.stats, engine.stats.memo);
            assert_eq!(m.design.hits, s.eval_cache_hits);
            assert_eq!(m.design.misses, s.eval_cache_misses);
            assert!(s.eval_cache_misses > 0, "flat {is_flat}: power mode misses");
            if is_flat {
                // One module per walk, and no move B, whose memo hits
                // replay misses without walking.
                assert_eq!(s.modules_area_walked, m.design.misses);
            } else {
                assert!(s.modules_area_walked > 0);
            }
            assert!(
                m.stream.hits > m.stream.misses,
                "flat {is_flat}: most pricings hit streams"
            );
            if is_flat {
                assert_eq!(s.kernel_iterations, m.stream.misses * traces.len() as u64);
            } else {
                // Only stream fills run the kernel, on this engine's traces
                // or a nested move-B engine's (at most 24 samples); a
                // move-B memo hit replays its misses without running.
                assert!(s.kernel_iterations <= m.stream.misses * 24);
            }
        }
    }

    /// A design priced twice at one operating point is answered whole by
    /// the design memo: one eval-cache hit, the same bits, no value-stream
    /// traffic and no area walk.
    #[test]
    fn design_memo_answers_a_repeat_whole() {
        let (dp, mlib, traces) = lat_fixture();
        let fp = fingerprint_tree(&dp.hierarchy, &dp.top.built);
        let mut cache = EvalCache::new();
        let price = |cache: &mut EvalCache| {
            evaluate_search_cached(
                &dp,
                &mlib.simple,
                &traces,
                Objective::Power,
                Some(&fp),
                cache,
            )
        };
        let first = price(&mut cache);
        let (hits, misses) = (cache.hits(), cache.misses());
        let sim = (cache.sim.stream_hits, cache.sim.stream_misses);
        let walked = cache.modules_area_walked;
        assert_eq!(walked, dp.top.built.module_count());
        let second = price(&mut cache);
        assert_shadow_identical(&second, &first, None);
        assert_eq!((cache.hits(), cache.misses()), (hits + 1, misses));
        assert_eq!((cache.sim.stream_hits, cache.sim.stream_misses), sim);
        assert_eq!(cache.modules_area_walked, walked);
    }

    /// The operating point is part of the memo key: the same built tree
    /// priced at two supply voltages is two entries with different power.
    #[test]
    fn design_memo_key_covers_the_operating_point() {
        let (dp, mlib, traces) = lat_fixture();
        let fp = fingerprint_tree(&dp.hierarchy, &dp.top.built);
        let mut low = dp.clone();
        low.op.vdd = 3.3;
        let mut cache = EvalCache::new();
        let at_vref = evaluate_search_cached(
            &dp,
            &mlib.simple,
            &traces,
            Objective::Power,
            Some(&fp),
            &mut cache,
        );
        let at_low = evaluate_search_cached(
            &low,
            &mlib.simple,
            &traces,
            Objective::Power,
            Some(&fp),
            &mut cache,
        );
        assert_eq!(cache.design_entries().count(), 2);
        assert_ne!(at_vref.power.power.to_bits(), at_low.power.power.to_bits());
        let reference = evaluate_search(&low, &mlib.simple, &traces, Objective::Power);
        assert_shadow_identical(&at_low, &reference, None);
    }

    /// Shadow mode re-prices every design-memo hit; a stored evaluation that
    /// no longer matches the recomputation panics.
    #[test]
    #[should_panic(expected = "shadow evaluation diverged at the initial design")]
    fn shadow_mode_catches_a_corrupted_design_entry() {
        let (dp, mlib, traces) = lat_fixture();
        let mut config = SynthesisConfig::new(Objective::Power);
        config.shadow_eval = true;
        let mut engine = Engine::new(&mlib, &config, traces, 0);
        let fp = fingerprint_tree(&dp.hierarchy, &dp.top.built);
        engine.eval(&dp, Some(&fp), None);
        for eval in engine.cache.design_entries() {
            eval.power.energy_breakdown.mem += 1.0;
        }
        engine.eval(&dp, Some(&fp), None);
    }

    /// Shadow mode turns a cache/full divergence into a panic naming the
    /// offending move and field.
    #[test]
    #[should_panic(expected = "shadow evaluation diverged after move")]
    fn shadow_divergence_panics() {
        let (dp, mlib, traces) = paulin_fixture();
        let incr = evaluate_search(&dp, &mlib.simple, &traces, Objective::Area);
        let mut full = incr;
        full.area.fu += 1.0;
        assert_shadow_identical(&incr, &full, Some(&Move::RepackRegs { path: vec![] }));
    }
}
