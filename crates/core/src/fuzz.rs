//! Coverage-guided random-DFG fuzzing of the co-simulation oracle.
//!
//! Each case draws structural parameters ([`FuzzParams`]), generates a
//! random hierarchical behavior, synthesizes it under **both** objectives
//! with small search budgets, co-simulates the winning design cycle by
//! cycle ([`hsyn_rtl::cosimulate`]), and requires the outputs to be
//! byte-identical to the flattened behavioral reference
//! ([`hsyn_dfg::reference_outputs`]).
//!
//! The generator is *coverage-guided*: a [`FuzzCoverage`] map counts
//! structural features actually exercised (hierarchy depth, op-count
//! bucket, feedback, multi-level delays, sharing degree, chaining,
//! multi-function ALUs, submodule state outputs), and each case picks,
//! among a handful of random parameter candidates, the one whose predicted
//! features are least covered — so long runs keep probing rare corners
//! instead of resampling the common case.
//!
//! A divergence is **shrunk** before it is reported: the parameters are
//! repeatedly reduced (fewer ops, fewer inputs, no submodules, no
//! feedback, …) while the failure reproduces, and the minimal case is
//! rendered as a JSON reproducer carrying the textual DFG
//! ([`hsyn_dfg::text::print`]), the seeds, and the failing configuration.
//! Everything is deterministic from the initial seed.

use crate::config::SynthesisConfig;
use crate::cost::Objective;
use crate::synth::synthesize;
use hsyn_dfg::{reference_outputs, text, Dfg, DfgId, Hierarchy, NodeKind, Operation, VarRef};
use hsyn_power::dsp_default;
use hsyn_rtl::{ModuleLibrary, RtlModule};
use hsyn_util::{Json, Rng};
use std::collections::BTreeMap;

/// Structural parameters of one generated case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzParams {
    /// Primary inputs of the top DFG (1..=4).
    pub inputs: usize,
    /// Operation nodes in the top DFG (1..=12).
    pub ops: usize,
    /// Submodule DFGs called from the top (0..=2).
    pub subs: usize,
    /// Operation nodes per submodule DFG.
    pub sub_ops: usize,
    /// Nest the second submodule inside the first (hierarchy depth 3).
    pub nested: bool,
    /// Add a delay-1 feedback edge in the top DFG.
    pub feedback: bool,
    /// Consume one top variable through a delay-2 edge (multi-level
    /// history).
    pub deep_delay: bool,
    /// Give one submodule a delayed (state) output.
    pub sub_state: bool,
    /// Synthesize the flattened baseline instead of hierarchically.
    pub flatten: bool,
    /// Owned memories in the top DFG (0..=2), each receiving random
    /// stores and loads with a mix of constant and variable addresses.
    pub mems: usize,
    /// Bind the first memory into the first submodule as a shared bank
    /// (the callee declares it `external` and loads from it).
    pub mem_share: bool,
    /// Laxity factor in percent (120..=319).
    pub laxity_pct: u32,
}

impl FuzzParams {
    /// Draw a random parameter set.
    fn draw(rng: &mut Rng) -> Self {
        let subs = rng.range_usize(0, 3);
        let sub_state = subs > 0 && rng.next_bool(0.4);
        let mems = rng.range_usize(0, 3);
        FuzzParams {
            inputs: rng.range_usize(1, 5),
            ops: rng.range_usize(1, 13),
            subs,
            sub_ops: rng.range_usize(1, 6),
            nested: subs == 2 && rng.next_bool(0.5),
            feedback: rng.next_bool(0.4),
            deep_delay: rng.next_bool(0.25),
            sub_state,
            flatten: rng.next_bool(0.25),
            mems,
            // Shared banks and state outputs both special-case sub 0; keep
            // the generator simple by never combining them.
            mem_share: mems > 0 && subs > 0 && !sub_state && rng.next_bool(0.5),
            laxity_pct: rng.range_i64(120, 319) as u32,
        }
    }

    /// Features predictable from the parameters alone (used to score
    /// candidates against the coverage map before running them).
    fn predicted_features(&self) -> Vec<String> {
        let mut f = vec![
            format!("depth:{}", self.depth()),
            format!("ops:{}", (self.ops + self.subs * self.sub_ops) / 4),
            format!("feedback:{}", self.feedback),
            format!("deepdelay:{}", self.deep_delay),
            format!("flatten:{}", self.flatten),
        ];
        if self.subs > 0 {
            f.push(format!("substate:{}", self.sub_state));
        }
        f.push(format!("mems:{}", self.mems));
        if self.mems > 0 && self.subs > 0 {
            f.push(format!("memshare:{}", self.mem_share));
        }
        f
    }

    fn depth(&self) -> usize {
        match (self.subs, self.nested) {
            (0, _) => 1,
            (_, false) => 2,
            (_, true) => 3,
        }
    }

    /// Strictly smaller parameter sets to try while shrinking a failure, in
    /// preference order (biggest reductions first).
    fn reductions(&self) -> Vec<FuzzParams> {
        let mut out = Vec::new();
        if self.subs > 0 {
            out.push(FuzzParams {
                subs: 0,
                nested: false,
                sub_state: false,
                ..*self
            });
        }
        if self.nested {
            out.push(FuzzParams {
                nested: false,
                ..*self
            });
        }
        if self.ops > 1 {
            out.push(FuzzParams {
                ops: self.ops / 2,
                ..*self
            });
            out.push(FuzzParams {
                ops: self.ops - 1,
                ..*self
            });
        }
        if self.sub_ops > 1 && self.subs > 0 {
            out.push(FuzzParams {
                sub_ops: self.sub_ops / 2,
                ..*self
            });
        }
        if self.feedback {
            out.push(FuzzParams {
                feedback: false,
                ..*self
            });
        }
        if self.deep_delay {
            out.push(FuzzParams {
                deep_delay: false,
                ..*self
            });
        }
        if self.sub_state {
            out.push(FuzzParams {
                sub_state: false,
                ..*self
            });
        }
        if self.mems > 0 {
            out.push(FuzzParams {
                mems: 0,
                mem_share: false,
                ..*self
            });
            out.push(FuzzParams {
                mems: self.mems - 1,
                mem_share: self.mem_share && self.mems > 1,
                ..*self
            });
        }
        if self.mem_share {
            out.push(FuzzParams {
                mem_share: false,
                ..*self
            });
        }
        if self.inputs > 1 {
            out.push(FuzzParams {
                inputs: self.inputs - 1,
                ..*self
            });
        }
        out
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("inputs".into(), Json::Num(self.inputs as f64)),
            ("ops".into(), Json::Num(self.ops as f64)),
            ("subs".into(), Json::Num(self.subs as f64)),
            ("sub_ops".into(), Json::Num(self.sub_ops as f64)),
            ("nested".into(), Json::Bool(self.nested)),
            ("feedback".into(), Json::Bool(self.feedback)),
            ("deep_delay".into(), Json::Bool(self.deep_delay)),
            ("sub_state".into(), Json::Bool(self.sub_state)),
            ("flatten".into(), Json::Bool(self.flatten)),
            ("mems".into(), Json::Num(self.mems as f64)),
            ("mem_share".into(), Json::Bool(self.mem_share)),
            ("laxity_pct".into(), Json::Num(f64::from(self.laxity_pct))),
        ])
    }
}

/// Counts of structural features exercised so far. Keys are short
/// `name:value` strings (e.g. `"depth:2"`, `"chained:true"`).
#[derive(Clone, Debug, Default)]
pub struct FuzzCoverage {
    counts: BTreeMap<String, u64>,
}

impl FuzzCoverage {
    /// Number of distinct features seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterate over `(feature, hits)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// How often this exact feature combination has been seen (sum of
    /// per-feature counts — lower means less explored).
    fn score(&self, features: &[String]) -> u64 {
        features
            .iter()
            .map(|f| self.counts.get(f).copied().unwrap_or(0))
            .sum()
    }

    fn record(&mut self, features: &[String]) {
        for f in features {
            *self.counts.entry(f.clone()).or_insert(0) += 1;
        }
    }
}

/// A shrunk co-simulation failure, renderable as a JSON reproducer.
#[derive(Clone, Debug)]
pub struct FuzzDivergence {
    /// Case number within the run.
    pub case: u64,
    /// Seed the case (and its shrunk variants) was generated from.
    pub case_seed: u64,
    /// The (shrunk) parameters that still reproduce the failure.
    pub params: FuzzParams,
    /// Objective under which the failure occurred.
    pub objective: Objective,
    /// What diverged.
    pub detail: String,
    /// The failing hierarchy in the textual DFG format
    /// ([`hsyn_dfg::text::parse`] reads it back).
    pub dfg_text: String,
}

impl FuzzDivergence {
    /// Render the reproducer as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("case".into(), Json::Num(self.case as f64)),
            // Seeds are 64-bit; a JSON number (f64) cannot hold them
            // exactly, so the reproducer stores the decimal digits.
            ("case_seed".into(), Json::Str(self.case_seed.to_string())),
            ("params".into(), self.params.to_json()),
            (
                "objective".into(),
                Json::Str(
                    match self.objective {
                        Objective::Area => "area",
                        Objective::Power => "power",
                    }
                    .into(),
                ),
            ),
            ("detail".into(), Json::Str(self.detail.clone())),
            ("dfg".into(), Json::Str(self.dfg_text.clone())),
        ])
    }
}

/// The outcome of a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases attempted.
    pub cases: u64,
    /// Cases where at least one objective synthesized and co-simulated.
    pub executed: u64,
    /// Cases skipped because synthesis failed (infeasible random designs).
    pub synth_failures: u64,
    /// Features exercised.
    pub coverage: FuzzCoverage,
    /// The first divergence found, shrunk — `None` on a clean run.
    pub divergence: Option<FuzzDivergence>,
}

const WIDTH: u32 = 16;
const TRACE_LEN: usize = 12;

/// Generate a random leaf DFG: `inputs` inputs feeding a chain of random
/// operations, a final output, and optionally a delay-1 feedback edge or a
/// delayed (state) output.
fn gen_leaf(
    rng: &mut Rng,
    name: &str,
    inputs: usize,
    ops: usize,
    feedback: bool,
    state_output: bool,
) -> Dfg {
    let mut g = Dfg::new(name);
    let mut vars: Vec<VarRef> = (0..inputs).map(|i| g.add_input(format!("x{i}"))).collect();
    let op_pool = [Operation::Add, Operation::Sub, Operation::Mult];
    for i in 0..ops {
        let a = vars[rng.range_usize(0, vars.len())];
        let b = vars[rng.range_usize(0, vars.len())];
        let op = op_pool[rng.range_usize(0, op_pool.len())];
        vars.push(g.add_op(op, format!("n{i}"), &[a, b]));
    }
    let last = *vars.last().expect("at least the inputs");
    if feedback {
        // acc = last + acc[z^-1]: genuine cross-iteration state.
        let acc = g.add_op_detached(Operation::Add, "acc");
        g.connect(last, acc, 0, 0);
        g.connect(VarRef::new(acc, 0), acc, 1, 1);
        g.add_output("y", VarRef::new(acc, 0));
    } else {
        g.add_output("y", last);
    }
    if state_output {
        // A second output reading an op result one iteration late — at the
        // RTL level this is a submodule *state* output, readable before the
        // call runs.
        let src = vars[rng.range_usize(inputs.saturating_sub(1), vars.len())];
        g.add_output_delayed("y_state", src, 1);
    }
    g
}

/// Word count of the shared bank when [`FuzzParams::mem_share`] is on: the
/// callee's `external` declaration must match the caller's memory shape.
const SHARED_WORDS: u32 = 8;

/// Generate a leaf DFG that loads from an externally supplied memory:
/// `inputs` inputs, a load addressed by input 0, and a random op chain over
/// the loaded word and the inputs.
fn gen_mem_leaf(rng: &mut Rng, name: &str, inputs: usize, ops: usize) -> Dfg {
    let mut g = Dfg::new(name);
    let m = g.add_mem(hsyn_dfg::MemObject::external("xm", SHARED_WORDS, WIDTH));
    let ins: Vec<VarRef> = (0..inputs).map(|i| g.add_input(format!("x{i}"))).collect();
    let mut vars = ins;
    vars.push(g.add_load(m, "ld", vars[0]));
    let op_pool = [Operation::Add, Operation::Sub, Operation::Mult];
    for i in 0..ops {
        let a = vars[rng.range_usize(0, vars.len())];
        let b = vars[rng.range_usize(0, vars.len())];
        let op = op_pool[rng.range_usize(0, op_pool.len())];
        vars.push(g.add_op(op, format!("n{i}"), &[a, b]));
    }
    g.add_output("y", *vars.last().expect("load at minimum"));
    g
}

/// Generate a random hierarchical behavior from `p`, deterministically from
/// `rng`.
fn gen_hierarchy(rng: &mut Rng, p: &FuzzParams) -> Hierarchy {
    let mut h = Hierarchy::new();

    // Submodule DFGs first (a nested one calls its sibling: depth 3).
    let mut sub_ids: Vec<(DfgId, usize)> = Vec::new(); // (dfg, input count)
    for s in 0..p.subs {
        let n_in = rng.range_usize(1, 4);
        let g = if p.mem_share && s == 0 {
            gen_mem_leaf(rng, "sub0", n_in, p.sub_ops)
        } else if p.nested && s == 1 {
            let mut g = Dfg::new(format!("sub{s}"));
            let ins: Vec<VarRef> = (0..n_in).map(|i| g.add_input(format!("x{i}"))).collect();
            let (callee, callee_in) = sub_ids[0];
            let args: Vec<VarRef> = (0..callee_in).map(|i| ins[i % n_in]).collect();
            let call = g.add_hier(callee, "inner", &args);
            let mut acc = g.hier_out(call, 0);
            let op_pool = [Operation::Add, Operation::Sub, Operation::Mult];
            for i in 0..p.sub_ops {
                let other = ins[rng.range_usize(0, ins.len())];
                let op = op_pool[rng.range_usize(0, op_pool.len())];
                acc = g.add_op(op, format!("n{i}"), &[acc, other]);
            }
            g.add_output("y", acc);
            g
        } else {
            gen_leaf(
                rng,
                &format!("sub{s}"),
                n_in,
                p.sub_ops,
                false,
                p.sub_state && s == 0,
            )
        };
        let id = h.add_dfg(g);
        sub_ids.push((id, n_in));
    }

    // Top DFG: ops mixed with calls to every submodule.
    let mut g = Dfg::new("top");
    // Owned memories, written and read below. The first one takes the
    // shared-bank shape when a callee imports it.
    let mem_ids: Vec<(hsyn_dfg::MemId, u32)> = (0..p.mems)
        .map(|mi| {
            let words = if p.mem_share && mi == 0 {
                SHARED_WORDS
            } else {
                [2u32, 4, 8][rng.range_usize(0, 3)]
            };
            let ports = 1 + rng.range_i64(0, 2) as u32;
            let banks = 1 + rng.range_i64(0, 2) as u32;
            let id = g.add_mem(
                hsyn_dfg::MemObject::owned(format!("m{mi}"), words, WIDTH)
                    .with_ports(ports)
                    .with_banks(banks),
            );
            (id, words)
        })
        .collect();
    let mut vars: Vec<VarRef> = (0..p.inputs)
        .map(|i| g.add_input(format!("in{i}")))
        .collect();
    let op_pool = [Operation::Add, Operation::Sub, Operation::Mult];
    for i in 0..p.ops {
        let a = vars[rng.range_usize(0, vars.len())];
        let b = vars[rng.range_usize(0, vars.len())];
        let op = op_pool[rng.range_usize(0, op_pool.len())];
        vars.push(g.add_op(op, format!("t{i}"), &[a, b]));
    }
    // Memory traffic: one store per memory (so every bank holds live
    // state), then one or two loads, mixing constant and variable
    // addresses — constants exercise the bank assignment and the MEM001
    // range check, variables the conflicts-everywhere pessimism.
    for (mi, &(id, words)) in mem_ids.iter().enumerate() {
        let addr = |g: &mut Dfg, tag: &str, vars: &[VarRef], rng: &mut Rng| -> VarRef {
            if rng.next_bool(0.5) {
                g.add_const(format!("{tag}{mi}"), rng.range_i64(0, i64::from(words)))
            } else {
                vars[rng.range_usize(0, vars.len())]
            }
        };
        let sa = addr(&mut g, "sa", &vars, rng);
        let data = vars[rng.range_usize(0, vars.len())];
        g.add_store(id, format!("st{mi}"), sa, data);
        for li in 0..rng.range_usize(1, 3) {
            let la = addr(&mut g, &format!("la{li}_"), &vars, rng);
            vars.push(g.add_load(id, format!("ld{mi}_{li}"), la));
        }
    }
    for (s, &(id, n_in)) in sub_ids.iter().enumerate() {
        let args: Vec<VarRef> = (0..n_in)
            .map(|_| vars[rng.range_usize(0, vars.len())])
            .collect();
        let call = if p.mem_share && s == 0 {
            g.add_hier_with_mems(id, format!("call{s}"), &args, &[mem_ids[0].0])
        } else {
            g.add_hier(id, format!("call{s}"), &args)
        };
        vars.push(g.hier_out(call, 0));
        if p.sub_state && s == 0 {
            // Consume the state output too, so the early-read path is live.
            vars.push(g.hier_out(call, 1));
        }
    }
    // Merge the produced values down to one result.
    while vars.len() > p.inputs + 1 {
        let a = vars.pop().expect("non-empty");
        let b = vars.pop().expect("non-empty");
        let op = op_pool[rng.range_usize(0, op_pool.len())];
        vars.push(g.add_op(op, format!("m{}", vars.len()), &[a, b]));
    }
    let mut result = *vars.last().expect("at least one value");
    if p.feedback {
        let acc = g.add_op_detached(Operation::Add, "acc");
        g.connect(result, acc, 0, 0);
        g.connect(VarRef::new(acc, 0), acc, 1, 1);
        result = VarRef::new(acc, 0);
    }
    if p.deep_delay {
        let old = g.add_op_detached(Operation::Sub, "old");
        g.connect(result, old, 0, 0);
        g.connect(result, old, 1, 2);
        result = VarRef::new(old, 0);
    }
    g.add_output("out", result);
    let top = h.add_dfg(g);
    h.set_top(top);
    h
}

/// Features observed from a built design (beyond what the parameters
/// predict): sharing degree, chaining, multi-function ALUs.
fn observed_features(h: &Hierarchy, module: &RtlModule) -> Vec<String> {
    let mut share = 0usize;
    let mut multi_fn = false;
    let mut chained = false;
    for b in module.behaviors() {
        let g = h.dfg(b.dfg);
        let mut per_fu: BTreeMap<usize, Vec<Operation>> = BTreeMap::new();
        for (node, fu) in b.binding.op_to_fu.iter() {
            if let NodeKind::Op(op) = g.node(node).kind() {
                per_fu.entry(fu.index()).or_default().push(*op);
            }
        }
        for ops in per_fu.values() {
            share = share.max(ops.len());
            let mut distinct = ops.clone();
            distinct.sort_unstable();
            distinct.dedup();
            multi_fn |= distinct.len() > 1;
        }
        let st = hsyn_rtl::storage_analysis(g, &b.schedule);
        chained |= st.chained_edges.iter().any(|&c| c);
    }
    vec![
        format!("share:{}", share.min(4)),
        format!("multifn:{multi_fn}"),
        format!("chained:{chained}"),
    ]
}

/// Run one case: generate, synthesize under both objectives, co-simulate,
/// compare. Returns observed features on success, the failing objective and
/// detail on divergence, or `None` when nothing synthesized.
#[allow(clippy::type_complexity)]
fn run_case(
    case_seed: u64,
    p: &FuzzParams,
) -> Result<Option<Vec<String>>, (Objective, String, String)> {
    let mut rng = Rng::seed_from_u64(case_seed);
    let h = gen_hierarchy(&mut rng, p);
    if h.validate().is_err() {
        return Ok(None);
    }
    let flat = h.flatten();
    let traces = dsp_default(
        flat.input_count(),
        TRACE_LEN,
        WIDTH,
        case_seed ^ 0xC051_3ED5,
    );
    let expected = reference_outputs(&flat, &traces.samples, WIDTH);
    let mlib = ModuleLibrary::from_simple(hsyn_lib::papers::table1_library());

    let mut features: Option<Vec<String>> = None;
    for objective in [Objective::Area, Objective::Power] {
        let mut config = SynthesisConfig::new(objective);
        config.laxity_factor = f64::from(p.laxity_pct) / 100.0;
        config.hierarchical = !p.flatten;
        config.max_passes = 1;
        config.candidate_limit = 2;
        config.eval_trace_len = 8;
        config.report_trace_len = 8;
        config.max_clock_candidates = 2;
        config.resynth_depth = 0;
        let Ok(report) = synthesize(&h, &mlib, &config) else {
            continue;
        };
        let design = &report.design;
        let got = match hsyn_rtl::cosimulate(
            &design.hierarchy,
            &design.top.built,
            &traces.samples,
            WIDTH,
        ) {
            Ok(run) => run.outputs,
            Err(d) => {
                return Err((objective, d.to_string(), text::print(&h, None)));
            }
        };
        if got != expected {
            return Err((
                objective,
                format!(
                    "co-simulated outputs differ from the flattened reference \
                     (got {got:?}, expected {expected:?})"
                ),
                text::print(&h, None),
            ));
        }
        let mut f = observed_features(&design.hierarchy, &design.top.built);
        f.extend(p.predicted_features());
        features = Some(f);
    }
    Ok(features)
}

/// Fuzz the co-simulation oracle for `cases` cases from `seed`. Stops at
/// the first divergence, after shrinking it.
pub fn fuzz_cosim(cases: u64, seed: u64) -> FuzzReport {
    let mut rng = Rng::seed_from_u64(seed);
    let mut report = FuzzReport {
        cases: 0,
        executed: 0,
        synth_failures: 0,
        coverage: FuzzCoverage::default(),
        divergence: None,
    };
    for case in 0..cases {
        // Coverage guidance: draw a few candidates, run the least covered.
        let candidates: [FuzzParams; 4] = std::array::from_fn(|_| FuzzParams::draw(&mut rng));
        let params = *candidates
            .iter()
            .min_by_key(|p| report.coverage.score(&p.predicted_features()))
            .expect("non-empty");
        let case_seed = rng.next_u64();
        report.cases += 1;
        match run_case(case_seed, &params) {
            Ok(Some(features)) => {
                report.executed += 1;
                report.coverage.record(&features);
            }
            Ok(None) => report.synth_failures += 1,
            Err((objective, detail, dfg_text)) => {
                report.divergence =
                    Some(shrink(case, case_seed, params, objective, detail, dfg_text));
                break;
            }
        }
    }
    report
}

/// Shrink a failing case: repeatedly try strictly smaller parameter sets
/// with the same seed, keeping any that still fail, until none do.
fn shrink(
    case: u64,
    case_seed: u64,
    mut params: FuzzParams,
    mut objective: Objective,
    mut detail: String,
    mut dfg_text: String,
) -> FuzzDivergence {
    let mut budget = 32u32;
    'outer: while budget > 0 {
        for cand in params.reductions() {
            budget -= 1;
            if let Err((obj, det, text)) = run_case(case_seed, &cand) {
                params = cand;
                objective = obj;
                detail = det;
                dfg_text = text;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    FuzzDivergence {
        case,
        case_seed,
        params,
        objective,
        detail,
        dfg_text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_is_clean_and_exercises_cases() {
        let report = fuzz_cosim(6, 0xF072);
        assert!(
            report.divergence.is_none(),
            "divergence: {}",
            report.divergence.unwrap().to_json().to_string_pretty()
        );
        assert!(report.executed > 0, "no case executed");
        assert!(report.coverage.distinct() > 3, "coverage map barely filled");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = fuzz_cosim(4, 99);
        let b = fuzz_cosim(4, 99);
        let ka: Vec<_> = a.coverage.iter().collect();
        let kb: Vec<_> = b.coverage.iter().collect();
        assert_eq!(ka, kb);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn divergence_json_round_trips() {
        let d = FuzzDivergence {
            case: 3,
            case_seed: 42,
            params: FuzzParams {
                inputs: 2,
                ops: 4,
                subs: 1,
                sub_ops: 2,
                nested: false,
                feedback: true,
                deep_delay: false,
                sub_state: true,
                flatten: false,
                mems: 1,
                mem_share: false,
                laxity_pct: 220,
            },
            objective: Objective::Power,
            detail: "R3 loads 7, behavior says 9".into(),
            dfg_text: "dfg top { }".into(),
        };
        let text = d.to_json().to_string_pretty();
        let back = Json::parse(&text).expect("reproducer JSON parses");
        assert_eq!(back.get("case").and_then(Json::as_f64), Some(3.0));
        assert_eq!(back.get("objective").and_then(Json::as_str), Some("power"));
        assert!(back.get("params").is_some());
    }
}
