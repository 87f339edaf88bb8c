//! Hierarchical interprocedural analysis.
//!
//! The hierarchy's callgraph is a DAG (validated), so the analysis makes a
//! single caller-first pass: every reachable DFG is solved once under the
//! *join* of the abstract argument tuples flowing into it from every
//! reachable call site. Caller-first order guarantees all of a module's
//! contexts have been accumulated before the module itself is solved, and
//! transfer monotonicity makes the joined-context facts a sound
//! over-approximation of every individual call site — which is exactly
//! what a *shared* module instance (one piece of hardware serving all
//! sites) needs.
//!
//! Call sites are resolved during solving through memoized *summary*
//! queries: callee outputs under an exact abstract argument tuple, keyed by
//! the callee's content hash ([`Hierarchy::content_hash`], blind to names
//! and ids) so repeated (or renamed) submodules analyze once per distinct
//! context. Summary runs are pure — they do not
//! accumulate contexts — so only the official joined runs decide the
//! certificate.
//!
//! DFGs not reachable from the top (equivalence alternatives kept in the
//! hierarchy for move *A*) are analyzed with unconstrained inputs and do
//! not pollute reachable modules' contexts: their call sites never execute
//! in this design.

use crate::certificate::WidthCertificate;
use crate::domain::AbstractValue;
use crate::solver::{fixpoint_values, liveness, output_deps, DfgFacts};
use hsyn_dfg::{DfgId, Hierarchy, HierarchyError, NodeKind};
use hsyn_util::BoundedMemo;
use std::time::Instant;

/// Counters and timing for one [`analyze_hierarchy`] run. Everything except
/// `fixpoint_s` is deterministic for a given hierarchy and width.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisStats {
    /// Wall-clock seconds spent in the whole analysis (content hashes,
    /// fixpoints, liveness, certificate extraction).
    pub fixpoint_s: f64,
    /// Number of official (joined-context) DFG solves — one per DFG.
    pub dfgs_analyzed: u64,
    /// Number of summary fixpoint runs actually executed (memo misses).
    pub summary_runs: u64,
    /// Number of summary queries answered from the memo table.
    pub memo_hits: u64,
}

/// The result of analyzing a whole hierarchy: per-DFG facts under joined
/// call-site contexts, the width certificate extracted from them, and run
/// statistics.
#[derive(Clone, Debug)]
pub struct HierAnalysis {
    width: u32,
    per_dfg: Vec<DfgFacts>,
    certificate: WidthCertificate,
    /// Run counters and timing.
    pub stats: AnalysisStats,
}

impl HierAnalysis {
    /// The nominal datapath width the analysis ran at.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Joined-context facts for `dfg`.
    pub fn facts(&self, dfg: DfgId) -> &DfgFacts {
        &self.per_dfg[dfg.index()]
    }

    /// The extracted width certificate.
    pub fn certificate(&self) -> &WidthCertificate {
        &self.certificate
    }

    /// Consume the analysis, keeping only the certificate.
    pub fn into_certificate(self) -> WidthCertificate {
        self.certificate
    }
}

/// Exact memo key for one abstract value: interval bounds + known bits.
type AvKey = (i64, i64, u64, u64);

fn av_key(v: &AbstractValue) -> AvKey {
    (v.range.lo, v.range.hi, v.bits.zeros, v.bits.ones)
}

/// Entry cap of the summary memo (a bound, not a tuning knob: an analysis
/// of a registry benchmark stores at most 12 summaries).
const SUMMARY_MEMO_CAP: usize = 1 << 14;

/// Summary memo: callee outputs by (callee content hash, exact argument
/// tuple). Its misses are the summary runs.
type SummaryMemo = BoundedMemo<(u64, Vec<AvKey>), Vec<AbstractValue>, SUMMARY_MEMO_CAP>;

/// Callee outputs under the exact abstract argument tuple `args`, memoized
/// by (content hash, args); `hashes` holds each DFG's content hash.
fn summary_out(
    h: &Hierarchy,
    width: u32,
    callee: DfgId,
    args: &[AbstractValue],
    memo: &mut SummaryMemo,
    hashes: &[u64],
) -> Vec<AbstractValue> {
    let key = (hashes[callee.index()], args.iter().map(av_key).collect());
    if let Some(outs) = memo.get(&key) {
        return outs.clone();
    }
    let g = h.dfg(callee);
    let values = fixpoint_values(h, g, width, args, &mut |c2, a2| {
        summary_out(h, width, c2, a2, memo, hashes)
    });
    let outs: Vec<AbstractValue> = g
        .outputs()
        .iter()
        .map(|&o| {
            values[o.index()]
                .first()
                .copied()
                .flatten()
                .unwrap_or_else(|| AbstractValue::top(width))
        })
        .collect();
    memo.insert(key, outs.clone());
    outs
}

/// Callee-first topological order of all DFGs (callees before callers);
/// requires the validated acyclic callgraph.
fn callee_first(h: &Hierarchy) -> Vec<DfgId> {
    let n = h.dfg_count();
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if done[root] {
            continue;
        }
        let mut stack = vec![(DfgId::from_index(root), false)];
        while let Some((d, expanded)) = stack.pop() {
            if done[d.index()] && !expanded {
                continue;
            }
            if expanded {
                if !done[d.index()] {
                    done[d.index()] = true;
                    order.push(d);
                }
                continue;
            }
            stack.push((d, true));
            for (_, node) in h.dfg(d).nodes() {
                if let NodeKind::Hier { callee } = node.kind() {
                    if !done[callee.index()] {
                        stack.push((*callee, false));
                    }
                }
            }
        }
    }
    order
}

/// The set of DFGs reachable from the top through hierarchical calls.
fn reachable_from_top(h: &Hierarchy) -> Vec<bool> {
    let mut seen = vec![false; h.dfg_count()];
    let mut stack = vec![h.top()];
    while let Some(d) = stack.pop() {
        if seen[d.index()] {
            continue;
        }
        seen[d.index()] = true;
        for (_, node) in h.dfg(d).nodes() {
            if let NodeKind::Hier { callee } = node.kind() {
                stack.push(*callee);
            }
        }
    }
    seen
}

/// Analyze `h` at datapath `width`: value/known-bits/constant facts per
/// node port under joined call-site contexts, port-level liveness, and a
/// width certificate.
///
/// # Errors
///
/// Returns the hierarchy's own validation error if `h` is malformed — the
/// solver relies on the structural invariants `validate` establishes
/// (every input port driven exactly once, zero-delay acyclicity, acyclic
/// callgraph).
///
/// # Panics
///
/// Panics if `width` is not in `1..=32` (the range the reference semantics
/// are defined over).
pub fn analyze_hierarchy(h: &Hierarchy, width: u32) -> Result<HierAnalysis, HierarchyError> {
    assert!((1..=32).contains(&width), "width must be in 1..=32");
    h.validate()?;
    let t0 = Instant::now();
    let n = h.dfg_count();
    let order = callee_first(h);
    // `Hierarchy::content_hash` of every DFG, callees first so each callee
    // is hashed once.
    let mut hashes = vec![0; n];
    for &d in &order {
        hashes[d.index()] = h.dfg(d).content_hash(|c| hashes[c.index()]);
    }
    let reachable = reachable_from_top(h);

    // Input-dependency summaries, bottom-up (callees first).
    let mut deps: Vec<Vec<u64>> = vec![Vec::new(); n];
    for &d in &order {
        deps[d.index()] = output_deps(h, h.dfg(d), &deps);
    }

    // Joined call-site contexts, accumulated caller-first.
    let mut ctx: Vec<Option<Vec<AbstractValue>>> = vec![None; n];
    let top = h.top();
    ctx[top.index()] = Some(vec![AbstractValue::top(width); h.in_arity(top)]);

    let mut memo = SummaryMemo::default();
    let mut per_dfg: Vec<Option<DfgFacts>> = vec![None; n];
    for &d in order.iter().rev() {
        let g = h.dfg(d);
        let inputs = if reachable[d.index()] {
            ctx[d.index()]
                .take()
                .unwrap_or_else(|| vec![AbstractValue::top(width); h.in_arity(d)])
        } else {
            vec![AbstractValue::top(width); h.in_arity(d)]
        };
        let accumulate = reachable[d.index()];
        let values = {
            let ctx = &mut ctx;
            let memo = &mut memo;
            fixpoint_values(h, g, width, &inputs, &mut |callee, args| {
                if accumulate {
                    let slot = &mut ctx[callee.index()];
                    let joined = match slot.take() {
                        None => args.to_vec(),
                        Some(prev) => prev
                            .iter()
                            .zip(args)
                            .map(|(p, a)| p.join(*a).normalize(width))
                            .collect(),
                    };
                    *slot = Some(joined);
                }
                summary_out(h, width, callee, args, memo, &hashes)
            })
        };
        let live = liveness(h, g, &deps);
        per_dfg[d.index()] = Some(DfgFacts {
            width,
            values,
            live,
        });
    }
    let per_dfg: Vec<DfgFacts> = per_dfg.into_iter().map(|f| f.expect("analyzed")).collect();

    // Extract the certificate: width_bits of each port's fact, nominal for
    // ports the solver never reached.
    let widths: Vec<Vec<Vec<u8>>> = h
        .dfgs()
        .map(|(d, g)| {
            let facts = &per_dfg[d.index()];
            g.node_ids()
                .map(|nid| {
                    (0..facts.port_count(nid))
                        .map(|p| {
                            facts
                                .value(nid, p as u16)
                                .map_or(width as u8, |v| v.width_bits(width) as u8)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let certificate = WidthCertificate::from_widths(width, widths);

    let stats = AnalysisStats {
        fixpoint_s: t0.elapsed().as_secs_f64(),
        dfgs_analyzed: n as u64,
        summary_runs: memo.count().misses,
        memo_hits: memo.count().hits,
    };
    Ok(HierAnalysis {
        width,
        per_dfg,
        certificate,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::certified_outputs;
    use hsyn_dfg::{Dfg, Operation};

    /// top: y = scale(x) + scale(k) with k a narrow constant; scale doubles.
    fn shared_callee() -> (Hierarchy, DfgId, DfgId) {
        let mut h = Hierarchy::new();
        let mut sub = Dfg::new("scale");
        let a = sub.add_input("a");
        let two = sub.add_const("two", 2);
        let m = sub.add_op(Operation::Mult, "m", &[a, two]);
        sub.add_output("y", m);
        let sub_id = h.add_dfg(sub);
        let mut top = Dfg::new("top");
        let x = top.add_input("x");
        let k = top.add_const("k", 5);
        let c1 = top.add_hier(sub_id, "c1", &[x]);
        let c2 = top.add_hier(sub_id, "c2", &[k]);
        let s = top.add_op(
            Operation::Add,
            "s",
            &[top.hier_out(c1, 0), top.hier_out(c2, 0)],
        );
        top.add_output("y", s);
        let t = h.add_dfg(top);
        h.set_top(t);
        (h, sub_id, t)
    }

    #[test]
    fn joined_context_covers_every_call_site() {
        let (h, sub_id, top_id) = shared_callee();
        let an = analyze_hierarchy(&h, 16).unwrap();
        // The shared callee sees the join of {top of x} and {constant 5}:
        // its input fact must be full width (x is unconstrained).
        let g = h.dfg(sub_id);
        let input = g.inputs()[0];
        let f = an.facts(sub_id).value(input, 0).unwrap();
        assert_eq!(f.width_bits(16), 16);
        // But the per-site summary still folds the constant call site: the
        // c2 output in top is exactly 10.
        let tg = h.dfg(top_id);
        let c2 = tg
            .node_ids()
            .find(|&nn| tg.node(nn).name() == "c2")
            .unwrap();
        let out = an.facts(top_id).value(c2, 0).unwrap();
        assert_eq!(out.as_constant(16), Some(10));
    }

    #[test]
    fn memoization_collapses_repeated_contexts() {
        let (h, _, _) = shared_callee();
        let an = analyze_hierarchy(&h, 16).unwrap();
        // Call sites: c1 (top args) and c2 (constant args) plus the two
        // official runs — distinct contexts run once each; repeats hit.
        assert!(an.stats.summary_runs >= 1);
        assert_eq!(an.stats.dfgs_analyzed, 2);
    }

    #[test]
    fn certificate_is_dynamically_sound_on_random_streams() {
        let (h, _, _) = shared_callee();
        let an = analyze_hierarchy(&h, 12).unwrap();
        let cert = an.certificate();
        let mut rng = hsyn_util::Rng::seed_from_u64(7);
        let stream: Vec<i64> = (0..64)
            .map(|_| rng.range_i64(-(1 << 11), (1 << 11) - 1))
            .collect();
        let outs = certified_outputs(&h, cert, std::slice::from_ref(&stream), 12)
            .expect("certified widths hold dynamically");
        let want = hsyn_dfg::reference_outputs(&h.flatten(), &[stream], 12);
        assert_eq!(outs, want);
    }

    #[test]
    fn memory_benchmarks_analyze_and_certify() {
        // The certified hierarchical evaluator must agree with the flattened
        // reference on every memory-tier benchmark (shared banks included),
        // and the extracted widths must hold dynamically.
        for b in hsyn_dfg::benchmarks::memory_suite() {
            let an = analyze_hierarchy(&b.hierarchy, 16).unwrap();
            let cert = an.certificate();
            let mut rng = hsyn_util::Rng::seed_from_u64(11);
            let n_in = b.hierarchy.in_arity(b.hierarchy.top());
            let streams: Vec<Vec<i64>> = (0..n_in)
                .map(|_| (0..16).map(|_| rng.range_i64(-100, 100)).collect())
                .collect();
            let got = certified_outputs(&b.hierarchy, cert, &streams, 16)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let want = hsyn_dfg::reference_outputs(&b.hierarchy.flatten(), &streams, 16);
            assert_eq!(got, want, "{} diverges from the reference", b.name);
        }
    }

    #[test]
    fn load_width_is_bounded_by_element_width() {
        // An 8-bit-wide memory bounds what a load can produce even when the
        // stored data is full-width.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("m8");
        let m = g.add_mem(hsyn_dfg::MemObject::owned("buf", 4, 8));
        let x = g.add_input("x");
        let a = g.add_input("a");
        g.add_store(m, "st", a, x);
        let l = g.add_load(m, "l", a);
        g.add_output("y", l);
        let id = h.add_dfg(g);
        h.set_top(id);
        let an = analyze_hierarchy(&h, 16).unwrap();
        let g = h.dfg(id);
        let ld = g.node_ids().find(|&n| g.node(n).name() == "l").unwrap();
        assert!(an.facts(id).value(ld, 0).unwrap().width_bits(16) <= 8);
        assert_eq!(an.certificate().port_width(id, ld, 0), 8);
    }

    #[test]
    fn store_operands_stay_live() {
        // The store's address chain feeds no output, yet it must not be
        // reported dead: the write is an observable side effect.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("st");
        let m = g.add_mem(hsyn_dfg::MemObject::owned("buf", 4, 16));
        let x = g.add_input("x");
        let a0 = g.add_const("a0", 1);
        let addr = g.add_op(Operation::Add, "addr", &[a0, a0]);
        g.add_store(m, "stn", addr, x);
        let l = g.add_load(m, "l", a0);
        g.add_output("y", l);
        let id = h.add_dfg(g);
        h.set_top(id);
        let an = analyze_hierarchy(&h, 16).unwrap();
        let g = h.dfg(id);
        let addr_node = g.node_ids().find(|&n| g.node(n).name() == "addr").unwrap();
        assert!(
            an.facts(id).live(addr_node, 0),
            "store address chain is live"
        );
    }

    #[test]
    fn analysis_is_deterministic() {
        let (h, _, _) = shared_callee();
        let a1 = analyze_hierarchy(&h, 16).unwrap();
        let a2 = analyze_hierarchy(&h, 16).unwrap();
        assert_eq!(a1.certificate(), a2.certificate());
        assert_eq!(a1.stats.summary_runs, a2.stats.summary_runs);
        assert_eq!(a1.stats.memo_hits, a2.stats.memo_hits);
    }

    #[test]
    fn unreachable_alternatives_do_not_pollute_contexts() {
        // An unreachable variant calls `scale` with top inputs; the
        // reachable top calls it only with the constant 3. The certificate
        // for the c2 call site must still fold.
        let mut h = Hierarchy::new();
        let mut sub = Dfg::new("scale");
        let a = sub.add_input("a");
        let two = sub.add_const("two", 2);
        let m = sub.add_op(Operation::Mult, "m", &[a, two]);
        sub.add_output("y", m);
        let sub_id = h.add_dfg(sub);
        // Unreachable caller with an unconstrained argument.
        let mut alt = Dfg::new("alt");
        let w = alt.add_input("w");
        let c = alt.add_hier(sub_id, "c", &[w]);
        alt.add_output("y", alt.hier_out(c, 0));
        let _alt_id = h.add_dfg(alt);
        let mut top = Dfg::new("top");
        let k = top.add_const("k", 3);
        let c2 = top.add_hier(sub_id, "c2", &[k]);
        top.add_output("y", top.hier_out(c2, 0));
        let t = h.add_dfg(top);
        h.set_top(t);
        let an = analyze_hierarchy(&h, 16).unwrap();
        // Joined context of the reachable design is {3} only: the callee's
        // internal multiply fact folds to 6.
        let g = h.dfg(sub_id);
        let mul = g.node_ids().find(|&nn| g.node(nn).name() == "m").unwrap();
        assert_eq!(
            an.facts(sub_id).value(mul, 0).unwrap().as_constant(16),
            Some(6)
        );
    }
}
