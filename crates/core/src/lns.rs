//! Large-neighborhood search: ruin-and-recreate refinement layered over the
//! per-configuration optimizer.
//!
//! The KL-style pass loop of [`Engine::optimize`] moves one best candidate
//! at a time and stalls once no single move (or short move prefix) pays. The
//! LNS layer escapes deeper local minima by periodically *destroying* a
//! seeded-random region of the converged design — a module subtree or every
//! instance of one functional-unit class, split back to its canonical
//! maximally-parallel state ([`ruin_region`]) — and greedily *recreating* it
//! under the current objective with the existing move families. The whole
//! cycle runs inside one [`Transaction`]: an iteration commits only when the
//! recreated design strictly beats the pre-ruin cost, and rolls back in
//! O(edit size) otherwise.
//!
//! Two pruning devices keep recreation cheap and focused:
//!
//! * an adaptive **move portfolio** ([`Portfolio`]) — per-family weights
//!   updated by recent payoff decide which family to try first each step,
//!   deterministically given the seed;
//! * precomputed **affinity matrices**
//!   ([`AffinityMatrix`](hsyn_rtl::AffinityMatrix)) — top-K profitable merge
//!   partners keyed by structural fingerprint, computed once per refinement
//!   from the converged design, restrict the quadratic merge-candidate wave
//!   to pairs that looked promising there. Keys the matrices never saw
//!   (structures created mid-recreate) are deliberately never pruned.
//!
//! Everything is a pure function of the design and
//! [`SynthesisConfig::seed`]: results are byte-identical across repeated
//! runs and across worker counts (enforced by `tests/lns_determinism.rs`;
//! structural invariants by `tests/lns_invariants.rs`).

use crate::cost::Evaluation;
use crate::design::{DesignPoint, Relinks};
use crate::improve::{Abort, Applied, Engine};
use crate::moves::{
    apply_in_place, selection_candidates, sharing_candidates, splitting_candidates, Candidate,
    ModulePath, Move,
};
use crate::transact::{Transaction, UndoLog, UndoMark};
use hsyn_dfg::{Dfg, NodeId, NodeKind, Operation};
use hsyn_lib::{FuTypeId, Library};
use hsyn_rtl::{
    module_affinity, module_fingerprint, AffinityMatrix, FpTree, ModuleLibrary, RegPolicy,
};
use hsyn_util::Rng;
use std::collections::BTreeSet;

/// Per-key partner-list cap of the precomputed affinity matrices.
const AFFINITY_K: usize = 8;
/// Edit cap one [`Engine::lns_refine`] ruin may spend: keeps a root-subtree
/// ruin of a large benchmark from canonicalizing the whole design (and the
/// recreate budget, which scales with the ruin size, from exploding).
const RUIN_CAP: usize = 24;
/// Recreate steps tolerated without a new trajectory-best cost before the
/// walk is cut short (the prefix commit would discard the tail anyway).
const STALE_LIMIT: usize = 5;
/// Per-candidate keep probability of the seeded dropout each recreate step
/// applies to its candidate wave — the randomized-greedy core of
/// ruin-and-recreate. Deterministic given the seed.
const DROPOUT_KEEP: f64 = 0.7;
/// Exponential-moving-average smoothing of [`Portfolio::reward`].
const ALPHA: f64 = 0.3;
/// Sampling mass [`Portfolio::sample`] reserves for uniform exploration
/// across enabled families, so a family that has not paid recently is still
/// tried occasionally.
const EXPLORE: f64 = 0.1;

/// SplitMix64 finalizer: a cheap bijective bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adaptive move-family portfolio: one weight per family (A=0, B=1, C=2,
/// D=3), updated by recent payoff ([`reward`](Self::reward)) and sampled
/// with a uniform exploration floor ([`sample`](Self::sample)). Fully
/// deterministic: the same reward stream and generator state always produce
/// the same samples.
#[derive(Clone, Debug)]
pub struct Portfolio {
    weights: [f64; 4],
    enabled: [bool; 4],
}

impl Portfolio {
    /// A portfolio over the four move families; `enabled[i]` switches
    /// family `i` on. Weights start equal (1.0), so the first samples are
    /// uniform over the enabled families.
    pub fn new(enabled: [bool; 4]) -> Self {
        Portfolio {
            weights: [1.0; 4],
            enabled,
        }
    }

    /// Fold a payoff observation for `family` into its weight
    /// (exponential moving average; payoffs are clamped to `[0, 1]`).
    pub fn reward(&mut self, family: usize, payoff: f64) {
        let p = payoff.clamp(0.0, 1.0);
        self.weights[family] = (1.0 - ALPHA) * self.weights[family] + ALPHA * p;
    }

    /// The current weight of `family`.
    pub fn weight(&self, family: usize) -> f64 {
        self.weights[family]
    }

    /// Current sampling probabilities: a uniform exploration floor of
    /// `EXPLORE / n` over the `n` enabled families plus
    /// weight-proportional exploitation mass. Disabled families get
    /// exactly 0; enabled families always get strictly positive mass, even
    /// at weight 0.
    pub fn probabilities(&self) -> [f64; 4] {
        let n = self.enabled.iter().filter(|&&e| e).count();
        let mut out = [0.0; 4];
        if n == 0 {
            return out;
        }
        let total: f64 = (0..4)
            .filter(|&i| self.enabled[i])
            .map(|i| self.weights[i])
            .sum();
        for (i, slot) in out.iter_mut().enumerate() {
            if !self.enabled[i] {
                continue;
            }
            let exploit = if total > 0.0 {
                (1.0 - EXPLORE) * self.weights[i] / total
            } else {
                (1.0 - EXPLORE) / n as f64
            };
            *slot = EXPLORE / n as f64 + exploit;
        }
        out
    }

    /// Sample a family index from [`probabilities`](Self::probabilities).
    ///
    /// # Panics
    ///
    /// Panics if no family is enabled.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let probs = self.probabilities();
        let total: f64 = probs.iter().sum();
        assert!(
            total > 0.0,
            "sample() on a portfolio with no enabled family"
        );
        let mut x = rng.next_f64() * total;
        for (i, &p) in probs.iter().enumerate() {
            x -= p;
            if p > 0.0 && x <= 0.0 {
                return i;
            }
        }
        // Float round-off: fall back to the last enabled family.
        (0..4)
            .rev()
            .find(|&i| self.enabled[i])
            .expect("total > 0 implies an enabled family")
    }

    /// Enabled families, best weight first (family index as the
    /// deterministic tiebreak) — the fallback order the recreate loop
    /// walks after the sampled family comes up empty.
    pub fn order(&self) -> Vec<usize> {
        let mut fams: Vec<usize> = (0..4).filter(|&i| self.enabled[i]).collect();
        fams.sort_by(|&a, &b| self.weights[b].total_cmp(&self.weights[a]).then(a.cmp(&b)));
        fams
    }
}

/// The region one LNS iteration destroys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuinKind {
    /// Canonicalize every module in the subtree rooted at this path
    /// (inclusive): dedicated registers, singleton functional-unit groups,
    /// one hierarchical node per child instance. Perturbs toward the
    /// maximally-parallel pole — effective on sharing-heavy (area-mode)
    /// designs.
    Subtree(ModulePath),
    /// Split apart every multi-op functional-unit group bound to this
    /// library type, design-wide.
    FuClass(FuTypeId),
    /// The opposite pole: greedily pack registers and merge mergeable
    /// functional-unit-group pairs in the subtree rooted at this path,
    /// regardless of cost. Power-optimized designs converge near the
    /// maximally-parallel pole (parallelism buys voltage headroom), so
    /// canonicalizing barely perturbs them — collapsing does.
    Collapse(ModulePath),
}

/// Pick the region the next iteration ruins: with probability ½ (when the
/// design binds any functional units) all instances of a uniformly random
/// library type in use; otherwise a uniformly random module subtree,
/// destroyed toward either pole with equal probability — canonicalized
/// ([`RuinKind::Subtree`]) or collapsed ([`RuinKind::Collapse`]).
/// Deterministic given the generator state.
pub fn plan_ruin(dp: &DesignPoint, rng: &mut Rng) -> RuinKind {
    let mut paths: Vec<ModulePath> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut types: Vec<FuTypeId> = Vec::new();
    dp.top.for_each(|path, m| {
        paths.push(path.to_vec());
        for grp in &m.core.fu_groups {
            if seen.insert(grp.fu_type.index()) {
                types.push(grp.fu_type);
            }
        }
    });
    types.sort_by_key(|t| t.index());
    if !types.is_empty() && rng.next_bool(0.5) {
        RuinKind::FuClass(types[rng.range_usize(0, types.len())])
    } else {
        let path = paths[rng.range_usize(0, paths.len())].clone();
        if rng.next_bool(0.5) {
            RuinKind::Collapse(path)
        } else {
            RuinKind::Subtree(path)
        }
    }
}

/// The next destroying move inside the region, or `None` at the region's
/// fixpoint. Priority per module — canonicalizing kinds: dedicate
/// registers, then split a multi-op group, then split a multi-node child;
/// collapsing kind: pack registers, then merge the first group pair whose
/// operation-kind union some library type implements (lowest-index such
/// type; recreation's selection family retunes it afterwards).
fn next_ruin_move(dp: &DesignPoint, lib: &Library, kind: &RuinKind) -> Option<Move> {
    let mut found: Option<Move> = None;
    dp.top.for_each(|path, m| {
        if found.is_some() {
            return;
        }
        match kind {
            RuinKind::Subtree(prefix) => {
                if path.len() < prefix.len() || path[..prefix.len()] != prefix[..] {
                    return;
                }
                if !matches!(m.core.reg_policy, RegPolicy::Dedicated) {
                    found = Some(Move::DedicateRegs {
                        path: path.to_vec(),
                    });
                    return;
                }
                for (gi, grp) in m.core.fu_groups.iter().enumerate() {
                    if grp.ops.len() >= 2 {
                        found = Some(Move::SplitFu {
                            path: path.to_vec(),
                            group: gi,
                            op: *grp.ops.last().expect("len >= 2"),
                        });
                        return;
                    }
                }
                for (ci, c) in m.children.iter().enumerate() {
                    if c.nodes.len() >= 2 {
                        found = Some(Move::SplitChild {
                            path: path.to_vec(),
                            child: ci,
                            node: *c.nodes.last().expect("len >= 2"),
                        });
                        return;
                    }
                }
            }
            RuinKind::FuClass(t) => {
                for (gi, grp) in m.core.fu_groups.iter().enumerate() {
                    if grp.fu_type.index() == t.index() && grp.ops.len() >= 2 {
                        found = Some(Move::SplitFu {
                            path: path.to_vec(),
                            group: gi,
                            op: *grp.ops.last().expect("len >= 2"),
                        });
                        return;
                    }
                }
            }
            RuinKind::Collapse(prefix) => {
                if path.len() < prefix.len() || path[..prefix.len()] != prefix[..] {
                    return;
                }
                if !matches!(m.core.reg_policy, RegPolicy::Packed) {
                    found = Some(Move::RepackRegs {
                        path: path.to_vec(),
                    });
                    return;
                }
                let g = dp.hierarchy.dfg(m.core.dfg);
                let classes: Vec<BTreeSet<Operation>> = m
                    .core
                    .fu_groups
                    .iter()
                    .map(|grp| group_kinds(g, &grp.ops))
                    .collect();
                for i in 0..classes.len() {
                    for j in (i + 1)..classes.len() {
                        if classes[i].is_empty() || classes[j].is_empty() {
                            continue;
                        }
                        let union: Vec<Operation> =
                            classes[i].union(&classes[j]).copied().collect();
                        let Some((t, _)) = lib.fus().find(|(_, f)| f.supports_all(&union)) else {
                            continue;
                        };
                        found = Some(Move::MergeFu {
                            path: path.to_vec(),
                            a: i,
                            b: j,
                            fu_type: t,
                        });
                        return;
                    }
                }
            }
        }
    });
    found
}

/// Destroy `kind`'s region of `dp` — toward the canonical
/// maximally-parallel pole (dedicated registers, one operation per
/// functional unit, one hierarchical node per child) or, for
/// [`RuinKind::Collapse`], toward the shared pole — one journaled move at a
/// time, to fixpoint or until `limit` edits have been spent. Every edit
/// lands in `undo`, so the whole ruin replays back in O(edit size). Returns
/// the number of edits applied; an edit the scheduler rejects (it
/// self-rolls-back inside [`apply_in_place`]) stops the ruin early. Either
/// early stop leaves a smaller but still consistent region destroyed.
/// `relinks` says how the edits' rebuilds relink and counts their work.
pub fn ruin_region(
    dp: &mut DesignPoint,
    mlib: &ModuleLibrary,
    kind: &RuinKind,
    undo: &mut UndoLog,
    limit: usize,
    relinks: &mut Relinks,
) -> usize {
    let mut edits = 0usize;
    while edits < limit {
        let Some(mv) = next_ruin_move(dp, &mlib.simple, kind) else {
            break;
        };
        if apply_in_place(dp, &mv, mlib, &mut |_, _, _| None, undo, relinks).is_err() {
            break;
        }
        edits += 1;
    }
    edits
}

/// The distinct operation kinds a functional-unit group executes.
fn group_kinds(g: &Dfg, ops: &[NodeId]) -> BTreeSet<Operation> {
    ops.iter()
        .filter_map(|&n| match g.node(n).kind() {
            NodeKind::Op(op) => Some(*op),
            _ => None,
        })
        .collect()
}

/// Fingerprint of a group's operation-kind class: the sorted distinct
/// [`Operation`] kinds, and nothing else. Deliberately independent of the
/// group's size, its current library type, and how operations are
/// distributed across groups — so the singleton groups a ruin leaves behind
/// and the chain-merged groups recreation builds key into the same matrix
/// entries as the converged groups the matrix was computed from.
fn kind_class_fp(kinds: &BTreeSet<Operation>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &k in kinds {
        h = mix64(h ^ (k as u64 + 1));
    }
    h
}

/// Precompute the functional-unit merge-partner matrix of `dp`: keys are
/// [kind-class fingerprints](kind_class_fp); a pair of classes within the
/// same module registers iff some library type implements their union
/// (otherwise no `MergeFu` between them can ever validate), scored by the
/// kind overlap plus a bonus for identical classes.
pub(crate) fn group_affinity(dp: &DesignPoint, lib: &Library, k: usize) -> AffinityMatrix {
    let mut pairs: Vec<(u64, u64, f64)> = Vec::new();
    dp.top.for_each(|_, m| {
        let g = dp.hierarchy.dfg(m.core.dfg);
        let classes: Vec<BTreeSet<Operation>> = m
            .core
            .fu_groups
            .iter()
            .map(|grp| group_kinds(g, &grp.ops))
            .collect();
        for i in 0..classes.len() {
            for j in (i + 1)..classes.len() {
                if classes[i].is_empty() || classes[j].is_empty() {
                    continue;
                }
                let union: Vec<Operation> = classes[i].union(&classes[j]).copied().collect();
                if !lib.fus().any(|(_, f)| f.supports_all(&union)) {
                    continue;
                }
                let overlap = classes[i].intersection(&classes[j]).count();
                let mut score = 1.0 + overlap as f64;
                if classes[i] == classes[j] {
                    score += 2.0;
                }
                pairs.push((
                    kind_class_fp(&classes[i]),
                    kind_class_fp(&classes[j]),
                    score,
                ));
            }
        }
    });
    AffinityMatrix::from_pairs(pairs, k)
}

impl<'a> Engine<'a> {
    /// Candidate moves of one family for the recreate loop, with merge
    /// candidates pruned through the precomputed affinity matrices.
    fn lns_candidates(
        &self,
        dp: &DesignPoint,
        family: usize,
        group_aff: &AffinityMatrix,
        child_aff: &AffinityMatrix,
    ) -> Vec<Candidate> {
        let objective = self.config.objective;
        match family {
            0 => selection_candidates(dp, self.mlib, objective, false),
            1 => {
                let mut c = selection_candidates(dp, self.mlib, objective, true);
                c.retain(|(_, mv)| matches!(mv, Move::ResynthChild { .. }));
                c
            }
            2 => {
                let mut c = sharing_candidates(dp, self.mlib, objective);
                c.retain(|(_, mv)| match mv {
                    Move::MergeFu { path, a, b, .. } => {
                        let m = dp.top.at(path);
                        let g = dp.hierarchy.dfg(m.core.dfg);
                        let fa = kind_class_fp(&group_kinds(g, &m.core.fu_groups[*a].ops));
                        let fb = kind_class_fp(&group_kinds(g, &m.core.fu_groups[*b].ops));
                        group_aff.allows_pair(fa, fb)
                    }
                    Move::MergeChildren { path, a, b } => {
                        let m = dp.top.at(path);
                        let fa = module_fingerprint(&dp.hierarchy, m.children[*a].module());
                        let fb = module_fingerprint(&dp.hierarchy, m.children[*b].module());
                        child_aff.allows_pair(fa, fb)
                    }
                    _ => true,
                });
                c
            }
            _ => splitting_candidates(dp, self.mlib, objective),
        }
    }

    /// The ruin-and-recreate refinement appended after the pass loop when
    /// [`SynthesisConfig::lns_iters`](crate::SynthesisConfig::lns_iters) is
    /// positive (see this module's docs — this is the tentpole loop).
    /// Ruin and recreate are exactly the nested-speculation shape the
    /// undo journal exists for.
    ///
    /// # Errors
    ///
    /// Paranoid-mode violations abort the configuration exactly as in
    /// [`Engine::optimize`], and a tripped cancel token aborts the run at
    /// the next iteration boundary; the in-flight transaction rolls back
    /// on the way out, so the design is never left mid-ruin.
    pub(crate) fn lns_refine(
        &mut self,
        mut cur: DesignPoint,
        mut cur_eval: Evaluation,
    ) -> Result<(DesignPoint, Evaluation), Abort> {
        let seed = self.config.seed
            ^ mix64(cur.op.vdd.to_bits())
            ^ mix64(cur.op.clk_ref_ns.to_bits().rotate_left(17));
        let mut rng = Rng::seed_from_u64(seed);
        // Computed once per refinement, from the converged design: the
        // merge pairs that looked profitable there are where recreation
        // should spend its candidate budget.
        let group_aff = group_affinity(&cur, &self.mlib.simple, AFFINITY_K);
        let child_aff = module_affinity(&cur.hierarchy, &cur.top.built, AFFINITY_K);
        let fams = self.config.moves;
        let mut portfolio = Portfolio::new([fams.a, fams.b && self.depth > 0, fams.c, fams.d]);
        if portfolio.order().is_empty() {
            return Ok((cur, cur_eval));
        }
        let mut best = cur.clone();
        let mut best_eval = cur_eval;
        for _ in 0..self.config.lns_iters {
            self.check_cancel()?;
            let kind = plan_ruin(&cur, &mut rng);
            let entry_cost = cur_eval.cost;
            // The transaction borrows `cur` for the whole ruin→recreate
            // cycle; the block scopes that borrow so the accept path can
            // clone `cur` afterwards.
            let accepted = 'cycle: {
                let mut tx = Transaction::begin(&mut cur);
                let (dp, log) = tx.parts();
                let mut relinks = self.relinks();
                let ruined = ruin_region(dp, self.mlib, &kind, log, RUIN_CAP, &mut relinks);
                self.count_relinks(&relinks);
                if ruined == 0 {
                    // Region already canonical (e.g. a leaf kept
                    // parallel): nothing journaled, nothing to recreate.
                    break 'cycle None;
                }
                self.counts.lns_ruins += 1;
                let fp = self.fingerprint(dp);
                let work_eval = self.eval(dp, Some(&fp), None);
                // KL-style reconstruction: one move per step, possibly
                // uphill, with a journal mark before each step. The sampled
                // family's best move wins outright when it improves —
                // that's the stochastic diversification — otherwise the
                // remaining families are scanned in portfolio order and
                // the least-bad move overall is taken, so recreation can
                // walk through the plateaus and ridges the converged pass
                // loop stalled on. Bounded by the ruin size: recreation
                // re-fuses what the ruin scattered plus a little slack.
                let mut history: Vec<(Evaluation, FpTree)> = vec![(work_eval, fp)];
                let mut marks: Vec<UndoMark> = Vec::new();
                let mut applied: Vec<Move> = Vec::new();
                // Steps since the trajectory last set a new best cost;
                // once a streak of uphill steps this long accrues, the
                // walk has wandered off and the tail would be discarded
                // by the prefix commit anyway.
                let mut stale = 0usize;
                let mut traj_best = work_eval.cost;
                for _ in 0..2 * ruined + 8 {
                    if stale >= STALE_LIMIT {
                        break;
                    }
                    let (work_eval, work_fp) = history.last().expect("non-empty");
                    let base = work_eval.cost;
                    let sampled = portfolio.sample(&mut rng);
                    let mut try_order = vec![sampled];
                    try_order.extend(portfolio.order().into_iter().filter(|&f| f != sampled));
                    let mut chosen: Option<(usize, Applied)> = None;
                    for f in try_order {
                        let mut cands = self.lns_candidates(dp, f, &group_aff, &child_aff);
                        // Randomized greedy: seeded dropout forbids a
                        // slice of the candidates each step, so successive
                        // recreations of the same region walk different
                        // reconstruction orders instead of deterministic
                        // greedy retracing the converged design.
                        if cands.len() > 1 {
                            let kept: Vec<Candidate> = cands
                                .iter()
                                .filter(|_| rng.next_bool(DROPOUT_KEEP))
                                .cloned()
                                .collect();
                            if !kept.is_empty() {
                                cands = kept;
                            }
                        }
                        if cands.is_empty() {
                            portfolio.reward(f, 0.0);
                            continue;
                        }
                        let Some(won) = self.best_from(dp, work_fp, base, cands, log) else {
                            portfolio.reward(f, 0.0);
                            continue;
                        };
                        let improving = won.gain > 1e-9;
                        if chosen.as_ref().is_none_or(|(_, c)| won.gain > c.gain) {
                            chosen = Some((f, won));
                        }
                        if improving {
                            break;
                        }
                        portfolio.reward(f, 0.0);
                    }
                    // No family produced even one valid candidate.
                    let Some((f, won)) = chosen else { break };
                    let mark = log.mark();
                    let gain = won.gain;
                    let (mv, won_fp, eval) = self.reapply(dp, work_fp, won, log)?;
                    portfolio.reward(f, gain / entry_cost.abs().max(f64::MIN_POSITIVE));
                    if eval.cost < traj_best - 1e-9 {
                        traj_best = eval.cost;
                        stale = 0;
                    } else {
                        stale += 1;
                    }
                    marks.push(mark);
                    history.push((eval, won_fp));
                    applied.push(mv);
                }
                self.counts.undo_bytes_peak =
                    self.counts.undo_bytes_peak.max(log.bytes_peak() as u64);
                // Commit the best point along the trajectory iff it
                // strictly beats the pre-ruin cost.
                let (bi, _) = history
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.0.cost.total_cmp(&b.0.cost))
                    .expect("non-empty");
                if history[bi].0.cost < entry_cost - 1e-9 {
                    // Strict improvement: unwind the steps past the best
                    // point, then discard the journal in place so the
                    // transaction's drop has nothing left to undo.
                    if bi < applied.len() {
                        log.rollback_to(dp, marks[bi]);
                        self.counts.moves_rolled_back += (applied.len() - bi) as u64;
                    }
                    log.commit();
                    for mv in &applied[..bi] {
                        self.counts.record(mv);
                    }
                    self.counts.lns_accepts += 1;
                    Some(history.swap_remove(bi).0)
                } else {
                    // Not better: the transaction's drop unwinds ruin +
                    // recreate in O(edit size).
                    self.counts.moves_rolled_back += (ruined + applied.len()) as u64;
                    None
                }
            };
            if let Some(new_eval) = accepted {
                cur_eval = new_eval;
                if cur_eval.cost < best_eval.cost {
                    best = cur.clone();
                    best_eval = cur_eval;
                }
            }
        }
        Ok((best, best_eval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeding one family all the payoff must concentrate sampling mass on
    /// it — while every other enabled family keeps the exploration floor.
    #[test]
    fn portfolio_converges_to_the_paying_family() {
        let mut p = Portfolio::new([true, true, true, true]);
        for _ in 0..64 {
            p.reward(2, 1.0);
            p.reward(0, 0.0);
            p.reward(1, 0.0);
            p.reward(3, 0.0);
        }
        let probs = p.probabilities();
        assert!(
            probs[2] > 0.8,
            "family C should dominate after a rigged payoff stream: {probs:?}"
        );
        // Zero-payoff families keep strictly positive exploration mass.
        for i in [0usize, 1, 3] {
            assert!(
                probs[i] >= EXPLORE / 4.0 - 1e-12,
                "family {i} lost its exploration floor: {probs:?}"
            );
        }
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Deterministic fallback order: best weight first, C on top.
        assert_eq!(p.order()[0], 2);
        // Sampling follows the distribution deterministically.
        let mut rng = Rng::seed_from_u64(7);
        let hits = (0..1000).filter(|_| p.sample(&mut rng) == 2).count();
        assert!(
            hits > 700,
            "sample() must favor the dominant family: {hits}"
        );
    }

    /// Disabled families never sample; weight ties break by family index.
    #[test]
    fn portfolio_respects_enable_mask_and_tiebreak() {
        let p = Portfolio::new([true, false, true, false]);
        let probs = p.probabilities();
        assert_eq!(probs[1], 0.0);
        assert_eq!(probs[3], 0.0);
        assert!(
            (probs[0] - probs[2]).abs() < 1e-12,
            "equal weights split evenly"
        );
        assert_eq!(p.order(), vec![0, 2]);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..100 {
            let f = p.sample(&mut rng);
            assert!(f == 0 || f == 2);
        }
    }

    /// The kind-class fingerprint ignores grouping and multiplicity: any
    /// set of nodes with the same distinct operation kinds collides.
    #[test]
    fn kind_class_fp_is_grouping_independent() {
        let one: BTreeSet<Operation> = [Operation::Add].into_iter().collect();
        let many: BTreeSet<Operation> = [Operation::Add, Operation::Add].into_iter().collect();
        assert_eq!(kind_class_fp(&one), kind_class_fp(&many));
        let mixed: BTreeSet<Operation> = [Operation::Add, Operation::Mult].into_iter().collect();
        assert_ne!(kind_class_fp(&one), kind_class_fp(&mixed));
    }
}
