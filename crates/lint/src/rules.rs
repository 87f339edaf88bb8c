//! The rule implementations behind [`verify_design`] and
//! [`lint_hierarchy`].
//!
//! Every check is read-only and re-derives the invariant it guards from
//! scratch (e.g. register lifetimes come from a fresh
//! [`storage_analysis`], not from anything the builder cached), so a stale
//! or hand-tampered IR cannot satisfy a rule by construction.

use crate::{Diagnostic, LintConfig, Location, RuleCode, Severity};
use hsyn_dataflow::{analyze_hierarchy, AbstractValue};
use hsyn_dfg::{Dfg, DfgId, Hierarchy, HierarchyError, MemScope, NodeId, NodeKind, Operation};
use hsyn_lib::Library;
use hsyn_rtl::{storage_analysis, view_mismatch, Behavior, FuInstId, RegId, RtlModule};
use std::collections::BTreeMap;

/// Everything the verifier needs to see of a synthesized design: the
/// behavioral hierarchy, the built RTL module tree, the library the design
/// was built against, and its operating point.
///
/// Schedules are expressed in reference-voltage time throughout the
/// synthesis engine, so `clk_ns` must be the *reference* clock period (the
/// engine's `clk_ref_ns`), not the voltage-stretched physical period;
/// `vdd` is the operating supply voltage the `PWR0xx` rules validate.
#[derive(Clone, Copy, Debug)]
pub struct DesignView<'a> {
    /// The behavioral hierarchy the module tree implements.
    pub hierarchy: &'a Hierarchy,
    /// The top RTL module.
    pub module: &'a RtlModule,
    /// The simple-module library the design was built against.
    pub lib: &'a Library,
    /// Operating supply voltage, V.
    pub vdd: f64,
    /// Clock period at the reference voltage, ns.
    pub clk_ns: f64,
    /// Sampling-period deadline in cycles for the top module's behaviors
    /// (`None` disables the `SCH004` deadline check; nested modules are
    /// always checked against their parent's schedule instead).
    pub sampling_period: Option<u32>,
}

/// Diagnostic accumulator honoring the suppression config.
struct Sink<'a> {
    cfg: &'a LintConfig,
    diags: Vec<Diagnostic>,
}

impl Sink<'_> {
    fn emit(&mut self, code: RuleCode, severity: Severity, location: Location, message: String) {
        if self.cfg.enabled(code) {
            self.diags.push(Diagnostic {
                code,
                severity,
                location,
                message,
            });
        }
    }
}

/// Verify a full design with every rule enabled.
///
/// Returns all diagnostics, deterministically ordered (power rules, then
/// hierarchy rules, then per-module rules walking the module tree
/// depth-first). A legal design yields an empty vector.
pub fn verify_design(view: &DesignView<'_>) -> Vec<Diagnostic> {
    verify_design_with(view, &LintConfig::default())
}

/// Verify a full design under a suppression config.
pub fn verify_design_with(view: &DesignView<'_>, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut sink = Sink {
        cfg,
        diags: Vec::new(),
    };
    check_power(view, &mut sink);
    let hier_errors = view.hierarchy.check_all();
    for e in &hier_errors {
        emit_hierarchy_error(e, &mut sink);
    }
    // Memory-usage rules assume validated memory structure (binds resolve,
    // references are in range), so they run only on a clean hierarchy.
    if hier_errors.is_empty() {
        check_memory(view.hierarchy, &mut sink);
    }
    check_module(
        view,
        view.module,
        view.module.name(),
        view.sampling_period,
        &mut sink,
    );
    // The fresh derivation walks every edge of every behavior, so it needs
    // a structurally valid hierarchy.
    if hier_errors.is_empty() && cfg.enabled(RuleCode::Rtl008) {
        check_views(view.hierarchy, view.module, view.module.name(), &mut sink);
    }
    sink.diags
}

/// `RTL008`: the [`DatapathView`](hsyn_rtl::DatapathView) each module
/// stores — the source counts and control bits the area and energy models
/// read — must equal a from-scratch derivation, or every later pricing of
/// the module reads a stale figure. Modules whose schedules do not cover
/// their graphs (`SCH001`) are skipped: nothing can be derived from them.
fn check_views(h: &Hierarchy, module: &RtlModule, path: &str, sink: &mut Sink<'_>) {
    let derivable = module.behaviors().iter().all(|b| {
        b.dfg.index() < h.dfg_count() && b.schedule.times().len() == h.dfg(b.dfg).node_count()
    });
    if derivable {
        if let Some(diff) = view_mismatch(h, module) {
            sink.emit(
                RuleCode::Rtl008,
                Severity::Error,
                Location {
                    module: Some(path.to_owned()),
                    ..Location::default()
                },
                format!("stale datapath view: {diff}"),
            );
        }
    }
    for sub in module.subs() {
        check_views(h, sub, &format!("{path}/{}", sub.name()), sink);
    }
}

/// Lint a bare behavioral description (the `DFG0xx` family only).
pub fn lint_hierarchy(h: &Hierarchy) -> Vec<Diagnostic> {
    lint_hierarchy_with(h, &LintConfig::default())
}

/// Lint a bare behavioral description under a suppression config.
pub fn lint_hierarchy_with(h: &Hierarchy, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut sink = Sink {
        cfg,
        diags: Vec::new(),
    };
    for e in h.check_all() {
        emit_hierarchy_error(&e, &mut sink);
    }
    let clean = sink.diags.is_empty() && h.check_all().is_empty();
    // Memory-usage rules assume validated memory structure.
    if clean {
        check_memory(h, &mut sink);
    }
    // Dataflow rules need a structurally valid hierarchy (the abstract
    // interpreter assumes one) and are skipped entirely when every DFA rule
    // is suppressed, so a plain structural lint pays nothing for them.
    let dfa = [
        RuleCode::Dfa001,
        RuleCode::Dfa002,
        RuleCode::Dfa003,
        RuleCode::Dfa004,
    ];
    if clean && dfa.iter().any(|&c| cfg.enabled(c)) {
        check_dataflow(h, &mut sink);
    }
    sink.diags
}

/// Datapath width the `DFA0xx` rules analyze at. Facts proven at this width
/// hold at any width ≥ it for the constant/dead/decided rules; `DFA004`'s
/// "fits in half the datapath" claim is specific to this width and says so
/// in its message.
pub const DATAFLOW_LINT_WIDTH: u32 = 16;

/// The `DFA0xx` family: run the abstract interpreter over the hierarchy and
/// report facts a designer would want to act on. All findings are
/// [`Severity::Warning`] — the design is legal, just wasteful.
fn check_dataflow(h: &Hierarchy, sink: &mut Sink<'_>) {
    let Ok(analysis) = analyze_hierarchy(h, DATAFLOW_LINT_WIDTH) else {
        return; // structural rules already reported why
    };
    let w = DATAFLOW_LINT_WIDTH;
    let at = |dfg: DfgId, node: NodeId| Location {
        dfg: Some(dfg),
        node: Some(node),
        ..Location::default()
    };
    for (dfg_id, g) in h.dfgs() {
        let facts = analysis.facts(dfg_id);
        let adj = g.adj();
        // A zero-delay operand whose producer fact is a singleton interval
        // is a compile-time constant. Delayed operands join with the reset
        // value, so they are conservatively treated as unknown here.
        let const_operand = |node: NodeId, port: u16| -> Option<i64> {
            let e = g.edge(adj.driver_edge(node, port)?);
            if e.delay != 0 {
                return None;
            }
            let v = facts.value(e.from.node, e.from.port)?;
            (v.range.lo == v.range.hi).then_some(v.range.lo)
        };
        let operand_range = |node: NodeId, port: u16| -> Option<AbstractValue> {
            let e = g.edge(adj.driver_edge(node, port)?);
            if e.delay != 0 {
                return None;
            }
            facts.value(e.from.node, e.from.port)
        };
        for (nid, node) in g.nodes() {
            // `DFA002`: output ports nothing downstream of a design output
            // ever reads. Inputs are interface contracts and outputs have no
            // out-ports, so only Op/Const/Hier nodes are eligible.
            if matches!(
                node.kind(),
                NodeKind::Op(_) | NodeKind::Const { .. } | NodeKind::Hier { .. }
            ) {
                for p in 0..facts.port_count(nid) as u16 {
                    if !facts.live(nid, p) {
                        sink.emit(
                            RuleCode::Dfa002,
                            Severity::Warning,
                            at(dfg_id, nid),
                            format!(
                                "output port {p} of {nid} is dead: no design output depends on it"
                            ),
                        );
                    }
                }
            }
            let NodeKind::Op(op) = node.kind() else {
                continue;
            };
            let op = *op;
            let arity = op.arity() as u16;
            let consts: Vec<Option<i64>> = (0..arity).map(|p| const_operand(nid, p)).collect();
            let all_const = !consts.is_empty() && consts.iter().all(Option::is_some);

            // `DFA001`: every operand is a known constant, so the whole
            // operation folds at compile time.
            if all_const {
                let folded = op.eval(&consts.iter().map(|c| c.unwrap()).collect::<Vec<_>>(), w);
                sink.emit(
                    RuleCode::Dfa001,
                    Severity::Warning,
                    at(dfg_id, nid),
                    format!(
                        "{nid} ({op}) has only constant operands and always computes {folded}: fold it to a constant"
                    ),
                );
                continue; // the remaining rules would restate the same fact
            }

            // `DFA003`: a comparison or select whose operand ranges cannot
            // overlap always takes the same arm.
            if matches!(op, Operation::Lt | Operation::Max | Operation::Min) {
                if let (Some(a), Some(b)) = (operand_range(nid, 0), operand_range(nid, 1)) {
                    let decided = if a.range.hi < b.range.lo {
                        Some("the left operand is always smaller")
                    } else if b.range.hi < a.range.lo {
                        Some("the right operand is always smaller")
                    } else {
                        None
                    };
                    if let Some(why) = decided {
                        sink.emit(
                            RuleCode::Dfa003,
                            Severity::Warning,
                            at(dfg_id, nid),
                            format!(
                                "{nid} ({op}) is statically decided: operand ranges [{}, {}] and [{}, {}] are disjoint, {why}",
                                a.range.lo, a.range.hi, b.range.lo, b.range.hi
                            ),
                        );
                    }
                }
            }

            // `DFA004`: arithmetic whose result provably fits in half the
            // datapath — a candidate for a narrower functional unit.
            if matches!(
                op,
                Operation::Add | Operation::Sub | Operation::Mult | Operation::Shl | Operation::Neg
            ) {
                if let Some(v) = facts.value(nid, 0) {
                    let need = v.width_bits(w);
                    if need <= w / 2 {
                        sink.emit(
                            RuleCode::Dfa004,
                            Severity::Warning,
                            at(dfg_id, nid),
                            format!(
                                "{nid} ({op}) provably fits in {need} of {w} bits: overflow is impossible at half width"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Map a structural [`HierarchyError`] onto the stable `DFG0xx` codes.
fn emit_hierarchy_error(e: &HierarchyError, sink: &mut Sink<'_>) {
    let (code, dfg, node) = match e {
        HierarchyError::DanglingEdge { dfg, .. } => (RuleCode::Dfg001, Some(*dfg), None),
        HierarchyError::BadPortDrive { dfg, node, .. } => {
            (RuleCode::Dfg002, Some(*dfg), Some(*node))
        }
        HierarchyError::BadSourcePort { dfg, node, .. } => {
            (RuleCode::Dfg003, Some(*dfg), Some(*node))
        }
        HierarchyError::CombinationalCycle { dfg } => (RuleCode::Dfg004, Some(*dfg), None),
        HierarchyError::NoTop => (RuleCode::Dfg005, None, None),
        HierarchyError::DanglingCallee { dfg, node } => (RuleCode::Dfg005, Some(*dfg), Some(*node)),
        HierarchyError::RecursiveHierarchy { dfg } => (RuleCode::Dfg005, Some(*dfg), None),
        HierarchyError::DanglingMem { dfg, node } => (RuleCode::Dfg006, Some(*dfg), Some(*node)),
        HierarchyError::BadMemBind { dfg, node, .. } => (RuleCode::Dfg006, Some(*dfg), Some(*node)),
        HierarchyError::IncompatibleMemBind { dfg, node, .. } => {
            (RuleCode::Dfg006, Some(*dfg), Some(*node))
        }
        HierarchyError::UnboundExternalMem { dfg } => (RuleCode::Dfg006, Some(*dfg), None),
        HierarchyError::MemoryOrderCycle { dfg } => (RuleCode::Dfg006, Some(*dfg), None),
    };
    sink.emit(
        code,
        Severity::Error,
        Location {
            dfg,
            node,
            ..Location::default()
        },
        e.to_string(),
    );
}

/// `MEM001`/`MEM002`: memory-usage facts over a structurally valid
/// hierarchy.
///
/// `MEM001` flags an access whose constant address lies outside
/// `[0, words)` — legal (evaluation wraps modulo the word count) but almost
/// always an indexing bug. `MEM002` flags an owned memory that is written
/// but never read *anywhere*: loads through every callee the bank is shared
/// with (transitively, via call-interface binds) count as reads.
fn check_memory(h: &Hierarchy, sink: &mut Sink<'_>) {
    // MEM001: constant addresses against the word range, per access node.
    for (did, g) in h.dfgs() {
        for (nid, node) in g.nodes() {
            let mem = match node.kind() {
                NodeKind::Load { mem } | NodeKind::Store { mem } => *mem,
                _ => continue,
            };
            // `hsyn_dfg::const_address` pre-wraps modulo the word count
            // (what evaluation and banking want); the lint needs the raw
            // literal to see that the author wrote an out-of-range index.
            let Some(e) = g.driver(nid, 0) else { continue };
            let NodeKind::Const { value: addr } = *g.node(e.from.node).kind() else {
                continue;
            };
            if e.delay != 0 {
                continue;
            }
            let m = g.mem(mem);
            let words = i64::from(m.words.max(1));
            if addr < 0 || addr >= words {
                sink.emit(
                    RuleCode::Mem001,
                    Severity::Warning,
                    Location {
                        dfg: Some(did),
                        node: Some(nid),
                        instance: Some(m.name.clone()),
                        ..Location::default()
                    },
                    format!(
                        "{nid} addresses word {addr} of `{}` which has {words} words: evaluation wraps to {}",
                        m.name,
                        addr.rem_euclid(words)
                    ),
                );
            }
        }
    }

    // MEM002: aggregate load/store counts per memory, resolving callee
    // accesses to external memories onto the parent banks they bind to.
    let mut memo: Vec<Option<Vec<(u64, u64)>>> = vec![None; h.dfg_count()];
    for (did, g) in h.dfgs() {
        let usage = mem_usage(h, did, &mut memo).to_vec();
        for ((mid, m), (loads, stores)) in g.mems().zip(usage) {
            if matches!(m.scope, MemScope::Owned) && stores > 0 && loads == 0 {
                sink.emit(
                    RuleCode::Mem002,
                    Severity::Warning,
                    Location {
                        dfg: Some(did),
                        instance: Some(m.name.clone()),
                        ..Location::default()
                    },
                    format!(
                        "memory `{}` ({mid}) receives {stores} store(s) but is never loaded, here or through any shared-bank callee",
                    m.name
                    ),
                );
            }
        }
    }
}

/// `(loads, stores)` reaching each memory of `did`, including accesses made
/// by callees through shared-bank binds (resolved transitively — the
/// hierarchy is acyclic, which the caller verified).
fn mem_usage<'a>(
    h: &Hierarchy,
    did: DfgId,
    memo: &'a mut Vec<Option<Vec<(u64, u64)>>>,
) -> &'a [(u64, u64)] {
    if memo[did.index()].is_none() {
        let g = h.dfg(did);
        let mut counts = vec![(0u64, 0u64); g.mem_count()];
        for (_, node) in g.nodes() {
            match node.kind() {
                NodeKind::Load { mem } => counts[mem.index()].0 += 1,
                NodeKind::Store { mem } => counts[mem.index()].1 += 1,
                _ => {}
            }
        }
        for (_, node) in g.nodes() {
            if let NodeKind::Hier { callee } = node.kind() {
                let sub = mem_usage(h, *callee, memo).to_vec();
                let binds = node.mem_binds();
                let mut ext = 0usize;
                for ((_, m), (loads, stores)) in h.dfg(*callee).mems().zip(sub) {
                    if matches!(m.scope, MemScope::External) {
                        if let Some(b) = binds.get(ext) {
                            counts[b.index()].0 += loads;
                            counts[b.index()].1 += stores;
                        }
                        ext += 1;
                    }
                }
            }
        }
        memo[did.index()] = Some(counts);
    }
    memo[did.index()].as_ref().expect("just computed")
}

/// `PWR001`/`PWR002`: the operating point must lie inside the range the
/// technology's delay and energy models are calibrated for.
fn check_power(view: &DesignView<'_>, sink: &mut Sink<'_>) {
    let tech = &view.lib.technology;
    if view.vdd <= tech.vt() {
        sink.emit(
            RuleCode::Pwr001,
            Severity::Error,
            Location::default(),
            format!(
                "supply voltage {} V is at or below the threshold voltage {} V: the delay model is undefined there",
                view.vdd,
                tech.vt()
            ),
        );
    } else if view.vdd > tech.vref() + 1e-9 {
        sink.emit(
            RuleCode::Pwr001,
            Severity::Warning,
            Location::default(),
            format!(
                "supply voltage {} V exceeds the characterization voltage {} V: energies are extrapolated",
                view.vdd,
                tech.vref()
            ),
        );
    }
    let overhead = view.lib.register.overhead_ns;
    if view.clk_ns <= overhead {
        sink.emit(
            RuleCode::Pwr002,
            Severity::Error,
            Location::default(),
            format!(
                "clock period {} ns does not exceed the register overhead {} ns: no usable compute time per cycle",
                view.clk_ns, overhead
            ),
        );
    }
}

/// Check one module's behaviors, then recurse into its submodules. The
/// sampling deadline only applies at the level it was given for (the top).
fn check_module(
    view: &DesignView<'_>,
    module: &RtlModule,
    path: &str,
    sampling: Option<u32>,
    sink: &mut Sink<'_>,
) {
    for behavior in module.behaviors() {
        check_behavior(view, module, path, behavior, sampling, sink);
    }
    for sub in module.subs() {
        let sub_path = format!("{path}/{}", sub.name());
        check_module(view, sub, &sub_path, None, sink);
    }
}

fn check_behavior(
    view: &DesignView<'_>,
    module: &RtlModule,
    path: &str,
    b: &Behavior,
    sampling: Option<u32>,
    sink: &mut Sink<'_>,
) {
    let at = |node: Option<NodeId>, cycle: Option<u32>, instance: Option<String>| Location {
        module: Some(path.to_owned()),
        dfg: Some(b.dfg),
        node,
        cycle,
        instance,
    };

    if b.dfg.index() >= view.hierarchy.dfg_count() {
        sink.emit(
            RuleCode::Rtl001,
            Severity::Error,
            Location {
                module: Some(path.to_owned()),
                ..Location::default()
            },
            format!(
                "behavior references {} which is not in the hierarchy",
                b.dfg
            ),
        );
        return;
    }
    let g = view.hierarchy.dfg(b.dfg);
    let n = g.node_count();

    // Binding completeness (`RTL001`) and FU compatibility (`RTL005`) need
    // no schedule, so they run even when the schedule is unusable.
    check_binding(view, module, g, b, &at, sink);

    // `SCH001`: everything downstream indexes the schedule by node id, so a
    // schedule covering the wrong node count invalidates all of it.
    if b.schedule.times().len() != n {
        sink.emit(
            RuleCode::Sch001,
            Severity::Error,
            at(None, None, None),
            format!(
                "schedule covers {} nodes but the graph has {n}",
                b.schedule.times().len()
            ),
        );
        return;
    }
    // Guard against edges/serialization naming out-of-range nodes before
    // touching the schedule with them (`DFG001` owns the edge case).
    if g.edges()
        .any(|(_, e)| e.to.index() >= n || e.from.node.index() >= n)
    {
        return;
    }

    let usable = view.clk_ns - view.lib.register.overhead_ns;

    // `SCH005`: chained combinational paths must fit the usable period.
    if usable > 0.0 {
        for (nid, _) in g.nodes() {
            let t = b.schedule.time(nid);
            let worst = t.result.ns.max(t.start.ns);
            if worst > usable + 1e-6 {
                sink.emit(
                    RuleCode::Sch005,
                    Severity::Error,
                    at(Some(nid), Some(t.result.cycle), None),
                    format!(
                        "chained path through {nid} accumulates {worst:.3} ns, over the usable {usable:.3} ns",
                    ),
                );
            }
        }
    }

    // `SCH002`: every zero-delay data edge must be satisfied — the value
    // ready no later than its consumer starts (profiled consumers latch
    // each input at `start + profile offset`).
    for (_, e) in g.edges() {
        if e.delay != 0 {
            continue;
        }
        match g.node(e.to).kind() {
            NodeKind::Op(_) | NodeKind::Output { .. } => {
                let avail = b.schedule.result_tick_of_port(e.from.node, e.from.port);
                let start = b.schedule.time(e.to).start;
                if avail > start {
                    sink.emit(
                        RuleCode::Sch002,
                        Severity::Error,
                        at(Some(e.to), Some(start.cycle), None),
                        format!(
                            "{} consumes {} at {start}, before it is ready at {avail}",
                            e.to, e.from
                        ),
                    );
                }
            }
            NodeKind::Hier { callee } => {
                // The submodule latches input `port` at start + offset.
                let profile = b
                    .binding
                    .hier_to_sub
                    .get(e.to)
                    .filter(|s| s.index() < module.subs().len())
                    .and_then(|s| module.subs()[s.index()].profile_for(*callee));
                let Some(profile) = profile else {
                    continue; // RTL001 already reported the broken binding
                };
                let offset = profile.inputs.get(e.to_port as usize).copied().unwrap_or(0);
                let need = b.schedule.time(e.to).start.cycle + offset;
                let avail = b.schedule.result_cycle_of_port(e.from.node, e.from.port);
                if avail > need {
                    sink.emit(
                        RuleCode::Sch002,
                        Severity::Error,
                        at(Some(e.to), Some(need), None),
                        format!(
                            "{} needs {} by cycle {need} (start + profile offset {offset}) but it is ready in cycle {avail}",
                            e.to, e.from
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    // `SCH003`: a serialization edge `(a, b)` means `b` must not start
    // before `a` releases the shared resource.
    for &(a, bnode) in &b.serial {
        if a.index() >= n || bnode.index() >= n {
            sink.emit(
                RuleCode::Sch001,
                Severity::Error,
                at(None, None, None),
                format!("serialization edge ({a}, {bnode}) names a node outside the graph"),
            );
            continue;
        }
        let release = b.schedule.time(a).occupied.1;
        let start = b.schedule.time(bnode).start.cycle;
        if start < release {
            sink.emit(
                RuleCode::Sch003,
                Severity::Error,
                at(Some(bnode), Some(start), None),
                format!(
                    "{bnode} starts in cycle {start}, before serialized predecessor {a} releases its resource at cycle {release}",
                ),
            );
        }
    }

    // `SCH004`: the top-level behavior must complete within the sampling
    // period.
    if let Some(p) = sampling {
        let makespan = b.schedule.makespan();
        if makespan > p {
            sink.emit(
                RuleCode::Sch004,
                Severity::Error,
                at(None, Some(makespan), None),
                format!(
                    "activity runs to cycle {makespan}, past the sampling period of {p} cycles"
                ),
            );
        }
    }

    // `MEM003`: per cycle, a memory bank serves at most its port count.
    // Mirrors the scheduler's pessimism: an access whose address is not a
    // compile-time constant may hit any bank, so it counts against all of
    // them — exactly the discipline `mem_serial_edges` enforces, so a
    // schedule that respects its serialization never trips this.
    {
        let mut per_slot: BTreeMap<(usize, u32, u32), Vec<NodeId>> = BTreeMap::new();
        for (nid, node) in g.nodes() {
            let mem = match node.kind() {
                NodeKind::Load { mem } | NodeKind::Store { mem } => *mem,
                _ => continue,
            };
            let cycle = b.schedule.time(nid).occupied.0;
            let m = g.mem(mem);
            match hsyn_dfg::const_address(g, nid) {
                Some(addr) => per_slot
                    .entry((mem.index(), hsyn_dfg::bank_of(m, addr), cycle))
                    .or_default()
                    .push(nid),
                None => {
                    for bank in 0..m.banks.max(1) {
                        per_slot
                            .entry((mem.index(), bank, cycle))
                            .or_default()
                            .push(nid);
                    }
                }
            }
        }
        for ((mi, bank, cycle), nodes) in per_slot {
            let (_, m) = g.mems().nth(mi).expect("keyed from g.mems()");
            let ports = m.ports.max(1);
            if nodes.len() > ports as usize {
                sink.emit(
                    RuleCode::Mem003,
                    Severity::Error,
                    at(Some(nodes[0]), Some(cycle), Some(m.name.clone())),
                    format!(
                        "cycle {cycle} issues {} accesses that may hit bank {bank} of `{}`, which has {ports} port(s)",
                        nodes.len(),
                        m.name
                    ),
                );
            }
        }
    }

    // `RTL002`/`RTL003`: two users of one hardware instance must occupy
    // disjoint cycle ranges.
    check_resource_conflicts(view.lib, module, g, b, &at, sink);

    // `RTL004`/`RTL007`: storage. Re-derive lifetimes from the schedule and
    // check the register binding against them.
    let sa = storage_analysis(g, &b.schedule);
    for (&v, &(birth, _, _)) in sa.stored_vars.iter().zip(&sa.lifetimes) {
        match b.binding.var_to_reg.get(v) {
            None => {
                sink.emit(
                    RuleCode::Rtl004,
                    Severity::Error,
                    at(Some(v.node), Some(birth), None),
                    format!(
                        "value {v} must be stored but has no register: its consumers' mux inputs are undriven",
                    ),
                );
            }
            Some(r) if r.index() >= module.regs().len() => {
                sink.emit(
                    RuleCode::Rtl004,
                    Severity::Error,
                    at(Some(v.node), None, None),
                    format!("value {v} is bound to nonexistent register {r}"),
                );
            }
            Some(_) => {}
        }
    }
    let mut by_reg: BTreeMap<usize, Vec<hsyn_dfg::VarRef>> = BTreeMap::new();
    for (v, r) in b.binding.var_to_reg.iter() {
        if r.index() < module.regs().len() && sa.lifetime(v).is_some() {
            by_reg.entry(r.index()).or_default().push(v);
        }
    }
    // Each list is in ascending variable order: the table iterates so.
    for (reg, vars) in by_reg {
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                if sa.conflicts(vars[i], vars[j]) {
                    let name = module.reg_name(RegId::from_index(reg));
                    sink.emit(
                        RuleCode::Rtl007,
                        Severity::Error,
                        at(Some(vars[i].node), None, Some(name)),
                        format!(
                            "values {} and {} share a register but their lifetimes overlap",
                            vars[i], vars[j]
                        ),
                    );
                }
            }
        }
    }
}

/// `RTL001`/`RTL005`: every schedulable node needs exactly the hardware its
/// binding claims, and that hardware must be able to execute it.
fn check_binding(
    view: &DesignView<'_>,
    module: &RtlModule,
    g: &Dfg,
    b: &Behavior,
    at: &dyn Fn(Option<NodeId>, Option<u32>, Option<String>) -> Location,
    sink: &mut Sink<'_>,
) {
    for (nid, node) in g.nodes() {
        match node.kind() {
            NodeKind::Op(op) => match b.binding.op_to_fu.get(nid) {
                None => sink.emit(
                    RuleCode::Rtl001,
                    Severity::Error,
                    at(Some(nid), None, None),
                    format!("operation {nid} ({op}) has no functional-unit binding"),
                ),
                Some(fu) if fu.index() >= module.fus().len() => sink.emit(
                    RuleCode::Rtl001,
                    Severity::Error,
                    at(Some(nid), None, None),
                    format!("operation {nid} is bound to nonexistent functional unit {fu}"),
                ),
                Some(fu) => {
                    let inst = module.fu(fu);
                    if inst.fu_type.index() >= view.lib.fu_count() {
                        sink.emit(
                            RuleCode::Rtl005,
                            Severity::Error,
                            at(Some(nid), None, Some(fu.to_string())),
                            format!("functional unit {fu} has a type outside the library"),
                        );
                    } else if !view.lib.fu(inst.fu_type).supports(*op) {
                        let name = inst.name(view.lib);
                        sink.emit(
                            RuleCode::Rtl005,
                            Severity::Error,
                            at(Some(nid), None, Some(name.clone())),
                            format!(
                                "operation {nid} ({op}) is bound to {name} ({}), which cannot execute it",
                                view.lib.fu(inst.fu_type).name()
                            ),
                        );
                    }
                }
            },
            NodeKind::Hier { callee } => match b.binding.hier_to_sub.get(nid) {
                None => sink.emit(
                    RuleCode::Rtl001,
                    Severity::Error,
                    at(Some(nid), None, None),
                    format!("hierarchical node {nid} has no submodule binding"),
                ),
                Some(s) if s.index() >= module.subs().len() => sink.emit(
                    RuleCode::Rtl001,
                    Severity::Error,
                    at(Some(nid), None, None),
                    format!("hierarchical node {nid} is bound to nonexistent submodule {s}"),
                ),
                Some(s) => {
                    let sub = &module.subs()[s.index()];
                    if sub.behavior_for(*callee).is_none() {
                        sink.emit(
                            RuleCode::Rtl001,
                            Severity::Error,
                            at(Some(nid), None, Some(sub.name().to_owned())),
                            format!(
                                "submodule {} has no behavior for the callee of {nid}",
                                sub.name()
                            ),
                        );
                    }
                }
            },
            _ => {}
        }
    }
}

/// How a diagnostic names functional unit `fu` of `module`: its instance
/// name, or its id when its type lies outside `lib` (the instance name is
/// derived from the library type).
fn fu_label(lib: &Library, module: &RtlModule, fu: FuInstId) -> String {
    let inst = module.fu(fu);
    if inst.fu_type.index() < lib.fu_count() {
        inst.name(lib)
    } else {
        fu.to_string()
    }
}

/// `RTL002`/`RTL003`: occupied-interval overlap between two users of one
/// hardware instance.
fn check_resource_conflicts(
    lib: &Library,
    module: &RtlModule,
    g: &Dfg,
    b: &Behavior,
    at: &dyn Fn(Option<NodeId>, Option<u32>, Option<String>) -> Location,
    sink: &mut Sink<'_>,
) {
    let overlap = |x: (u32, u32), y: (u32, u32)| x.0.max(y.0) < x.1.min(y.1);

    let mut by_fu: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for (nid, fu) in b.binding.op_to_fu.iter() {
        if fu.index() < module.fus().len() && nid.index() < g.node_count() {
            by_fu.entry(fu.index()).or_default().push(nid);
        }
    }
    // Each list is in ascending node order: the table iterates so.
    for (fu, nodes) in by_fu {
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let ta = b.schedule.time(nodes[i]).occupied;
                let tb = b.schedule.time(nodes[j]).occupied;
                if overlap(ta, tb) {
                    let name = fu_label(lib, module, FuInstId::from_index(fu));
                    sink.emit(
                        RuleCode::Rtl002,
                        Severity::Error,
                        at(Some(nodes[j]), Some(ta.0.max(tb.0)), Some(name.clone())),
                        format!(
                            "functional unit {name} executes {} (cycles {}..{}) and {} (cycles {}..{}) concurrently",
                            nodes[i], ta.0, ta.1, nodes[j], tb.0, tb.1
                        ),
                    );
                }
            }
        }
    }

    let mut by_sub: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for (nid, s) in b.binding.hier_to_sub.iter() {
        if s.index() < module.subs().len() && nid.index() < g.node_count() {
            by_sub.entry(s.index()).or_default().push(nid);
        }
    }
    for (si, nodes) in by_sub {
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let ta = b.schedule.time(nodes[i]).occupied;
                let tb = b.schedule.time(nodes[j]).occupied;
                if overlap(ta, tb) {
                    let name = module.subs()[si].name().to_owned();
                    sink.emit(
                        RuleCode::Rtl003,
                        Severity::Error,
                        at(Some(nodes[j]), Some(ta.0.max(tb.0)), Some(name.clone())),
                        format!(
                            "submodule {name} executes {} (cycles {}..{}) and {} (cycles {}..{}) concurrently",
                            nodes[i], ta.0, ta.1, nodes[j], tb.0, tb.1
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_count;

    fn single(mut g: Dfg) -> Hierarchy {
        let mut h = Hierarchy::new();
        let _ = &mut g;
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();
        h
    }

    #[test]
    fn dfa001_flags_all_constant_operations() {
        let mut g = Dfg::new("k");
        let a = g.add_const("a", 2);
        let b = g.add_const("b", 3);
        let m = g.add_op(hsyn_dfg::Operation::Mult, "m", &[a, b]);
        g.add_output("y", m);
        let diags = lint_hierarchy(&single(g));
        assert_eq!(error_count(&diags), 0);
        assert!(
            diags
                .iter()
                .any(|d| d.code == RuleCode::Dfa001 && d.message.contains("always computes 6")),
            "{diags:?}"
        );
        // Suppressible like any other rule.
        let cfg = LintConfig::new().allow(RuleCode::Dfa001);
        let mut g2 = Dfg::new("k");
        let a = g2.add_const("a", 2);
        let b = g2.add_const("b", 3);
        let m = g2.add_op(hsyn_dfg::Operation::Mult, "m", &[a, b]);
        g2.add_output("y", m);
        let diags = lint_hierarchy_with(&single(g2), &cfg);
        assert!(diags.iter().all(|d| d.code != RuleCode::Dfa001));
    }

    #[test]
    fn mem001_flags_out_of_range_constant_addresses() {
        let mut g = Dfg::new("k");
        let m = g.add_mem(hsyn_dfg::MemObject::owned("t", 4, 16));
        let x = g.add_input("x");
        let w0 = g.add_const("w0", 0);
        g.add_store(m, "st", w0, x);
        let a = g.add_const("a", 9);
        let l = g.add_load(m, "l", a);
        g.add_output("y", l);
        let diags = lint_hierarchy(&single(g));
        assert_eq!(error_count(&diags), 0);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Mem001)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("wraps to 1"), "{diags:?}");
        assert_eq!(hits[0].location.instance.as_deref(), Some("t"));
    }

    #[test]
    fn mem002_flags_memory_stored_but_never_loaded() {
        let mut g = Dfg::new("k");
        let m = g.add_mem(hsyn_dfg::MemObject::owned("t", 4, 16));
        let x = g.add_input("x");
        let w = g.add_const("w", 1);
        g.add_store(m, "st", w, x);
        g.add_output("y", x);
        let diags = lint_hierarchy(&single(g));
        assert!(
            diags
                .iter()
                .any(|d| d.code == RuleCode::Mem002 && d.message.contains("`t`")),
            "{diags:?}"
        );
    }

    /// A parent-side store consumed only through a shared-bank callee's
    /// loads is not dead: MEM002 must look through `mem_binds`.
    #[test]
    fn mem002_sees_loads_through_shared_bank_callees() {
        let mut h = Hierarchy::new();
        let mut c = Dfg::new("c");
        let cm = c.add_mem(hsyn_dfg::MemObject::external("xm", 4, 16));
        let a = c.add_input("a");
        let l = c.add_load(cm, "l", a);
        c.add_output("y", l);
        let callee = h.add_dfg(c);
        let mut g = Dfg::new("top");
        let m = g.add_mem(hsyn_dfg::MemObject::owned("t", 4, 16));
        let x = g.add_input("x");
        let w = g.add_const("w", 1);
        g.add_store(m, "st", w, x);
        let call = g.add_hier_with_mems(callee, "call", &[x], &[m]);
        let out = g.hier_out(call, 0);
        g.add_output("y", out);
        let id = h.add_dfg(g);
        h.set_top(id);
        h.validate().unwrap();
        let diags = lint_hierarchy(&h);
        assert!(
            diags.iter().all(|d| d.code != RuleCode::Mem002),
            "{diags:?}"
        );
    }

    #[test]
    fn dfa002_flags_dead_outputs() {
        let mut g = Dfg::new("k");
        let x = g.add_input("x");
        let dead = g.add_op(hsyn_dfg::Operation::Add, "dead", &[x, x]);
        let s = g.add_op(hsyn_dfg::Operation::Sub, "s", &[x, x]);
        g.add_output("y", s);
        let diags = lint_hierarchy(&single(g));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Dfa002)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].location.node, Some(dead.node));
        assert_eq!(hits[0].severity, Severity::Warning);
    }

    #[test]
    fn dfa003_flags_decided_comparison() {
        // Lt(Min(x, 3), 100): the left range tops out at 3, so the compare
        // always yields 1.
        let mut g = Dfg::new("k");
        let x = g.add_input("x");
        let c3 = g.add_const("c3", 3);
        let c100 = g.add_const("c100", 100);
        let m = g.add_op(hsyn_dfg::Operation::Min, "m", &[x, c3]);
        let lt = g.add_op(hsyn_dfg::Operation::Lt, "lt", &[m, c100]);
        g.add_output("y", lt);
        let diags = lint_hierarchy(&single(g));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Dfa003)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].location.node, Some(lt.node));
    }

    #[test]
    fn dfa004_flags_provably_narrow_arithmetic() {
        // Add(Max(Min(x, 10), 0), 5) lands in [5, 15]: 5 of 16 bits.
        let mut g = Dfg::new("k");
        let x = g.add_input("x");
        let c10 = g.add_const("c10", 10);
        let c0 = g.add_const("c0", 0);
        let c5 = g.add_const("c5", 5);
        let lo = g.add_op(hsyn_dfg::Operation::Min, "lo", &[x, c10]);
        let hi = g.add_op(hsyn_dfg::Operation::Max, "hi", &[lo, c0]);
        let s = g.add_op(hsyn_dfg::Operation::Add, "s", &[hi, c5]);
        g.add_output("y", s);
        let diags = lint_hierarchy(&single(g));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Dfa004)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].location.node, Some(s.node));
    }

    #[test]
    fn dataflow_rules_skip_broken_hierarchies() {
        // No top: the structural DFG005 fires alone and the abstract
        // interpreter never runs.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("k");
        let a = g.add_const("a", 2);
        let b = g.add_const("b", 3);
        let m = g.add_op(hsyn_dfg::Operation::Mult, "m", &[a, b]);
        g.add_output("y", m);
        h.add_dfg(g);
        let diags = lint_hierarchy(&h);
        assert!(diags.iter().any(|d| d.code == RuleCode::Dfg005));
        assert!(diags.iter().all(|d| d.code != RuleCode::Dfa001));
    }
}
