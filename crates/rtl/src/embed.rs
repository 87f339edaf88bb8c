//! **RTL embedding** (paper, Example 3): construct a new RTL module into
//! which two existing modules both embed, so one piece of hardware can
//! execute both their (anisomorphic) DFGs. Schedules and assignments of the
//! original behaviors are *unaltered* — the merged module simply cannot run
//! them in parallel — which is what makes the procedure fast enough to be
//! used inside the iterative-improvement loop.
//!
//! Component sharing is a maximum-weight bipartite assignment: each matched
//! pair of functional units (registers) becomes one shared unit, weighted by
//! the area saved plus an interconnect-affinity bonus (shared connection
//! patterns avoid multiplexer legs). The goal mirrors the paper: "find the
//! minimum area embedding (including a measure of interconnect) which
//! satisfies clock cycle constraints."

// Parallel index maps (fu_map_a/b, reg_map_a/b, weight matrices) make
// explicit indexing clearer than iterator zips here.
#![allow(clippy::needless_range_loop)]

use crate::assignment::max_weight_assignment;
use crate::connect::{connectivity, Connectivity, Sink, Source};
use crate::instance::{FuInstId, FuInstance, RegId, RegInstance, SubId};
use crate::module::{Behavior, Binding, RtlModule};
use crate::table::VarTable;
use hsyn_dfg::{Hierarchy, NodeKind, Operation};
use hsyn_lib::{FuTypeId, Library};
use std::collections::{HashMap, HashSet};

/// Where each original component ended up in the merged module — the
/// labeling the paper shows in Table 2.
#[derive(Clone, Debug)]
pub struct EmbedMaps {
    /// `a`'s functional units → merged ids.
    pub fu_a: Vec<FuInstId>,
    /// `b`'s functional units → merged ids.
    pub fu_b: Vec<FuInstId>,
    /// `a`'s registers → merged ids.
    pub reg_a: Vec<RegId>,
    /// `b`'s registers → merged ids.
    pub reg_b: Vec<RegId>,
    /// `a`'s submodules → merged ids.
    pub sub_a: Vec<SubId>,
    /// `b`'s submodules → merged ids.
    pub sub_b: Vec<SubId>,
}

/// Result of embedding two modules.
#[derive(Clone, Debug)]
pub struct EmbedResult {
    /// The merged module, carrying all behaviors of both inputs.
    pub module: RtlModule,
    /// Component correspondence tables.
    pub maps: EmbedMaps,
}

/// Why embedding failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbedError {
    /// The two modules implement a common DFG; merging them would be
    /// ambiguous (the same behavior twice).
    DuplicateBehavior,
}

impl std::fmt::Display for EmbedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedError::DuplicateBehavior => {
                write!(f, "modules share a behavior; embedding would duplicate it")
            }
        }
    }
}

impl std::error::Error for EmbedError {}

/// The operations actually executed on each functional unit of a module.
fn ops_used(h: &Hierarchy, m: &RtlModule) -> Vec<HashSet<Operation>> {
    let mut used: Vec<HashSet<Operation>> = vec![HashSet::new(); m.fus().len()];
    for b in m.behaviors() {
        let g = h.dfg(b.dfg);
        for (node, fu) in b.binding.op_to_fu.iter() {
            if let NodeKind::Op(op) = g.node(node).kind() {
                used[fu.index()].insert(*op);
            }
        }
    }
    used
}

/// The cheapest library type able to stand in for both `ta` and `tb` while
/// preserving their schedules: supports all executed ops, is at least as
/// fast as both, and has the same pipelining structure.
fn shared_type(
    lib: &Library,
    ta: FuTypeId,
    tb: FuTypeId,
    ops: &HashSet<Operation>,
) -> Option<FuTypeId> {
    let fa = lib.fu(ta);
    let fb = lib.fu(tb);
    let max_delay = fa.delay_ns().min(fb.delay_ns());
    lib.fus()
        .filter(|(_, f)| {
            f.stages() == fa.stages()
                && f.stages() == fb.stages()
                && f.delay_ns() <= max_delay + 1e-9
                && ops.iter().all(|&op| f.supports(op))
        })
        .min_by(|(_, x), (_, y)| x.area().total_cmp(&y.area()))
        .map(|(id, _)| id)
}

/// Interconnect affinity between two sinks: how many *globally identified*
/// sources (constants, module inputs) they share — merging them avoids that
/// many mux legs.
fn port_affinity(ca: &Connectivity, cb: &Connectivity, sa: Sink, sb: Sink) -> usize {
    let set_a: HashSet<Source> = ca
        .sinks()
        .filter(|(s, _)| *s == sa)
        .flat_map(|(_, srcs)| srcs.iter().copied())
        .filter(|s| matches!(s, Source::Const(_) | Source::Input(_)))
        .collect();
    if set_a.is_empty() {
        return 0;
    }
    cb.sinks()
        .filter(|(s, _)| *s == sb)
        .flat_map(|(_, srcs)| srcs.iter().copied())
        .filter(|s| set_a.contains(s))
        .count()
}

/// Embed `a` and `b` into a new module named `name`.
///
/// # Errors
///
/// Returns [`EmbedError::DuplicateBehavior`] if the modules implement a
/// common DFG.
pub fn embed(
    h: &Hierarchy,
    a: &RtlModule,
    b: &RtlModule,
    lib: &Library,
    name: impl Into<String>,
) -> Result<EmbedResult, EmbedError> {
    for ba in a.behaviors() {
        if b.behavior_for(ba.dfg).is_some() {
            return Err(EmbedError::DuplicateBehavior);
        }
    }
    let ops_a = ops_used(h, a);
    let ops_b = ops_used(h, b);
    let conn_a = connectivity(h, a);
    let conn_b = connectivity(h, b);

    // --- Functional-unit matching -------------------------------------------
    let na = a.fus().len();
    let nb = b.fus().len();
    let mut fu_weight = vec![vec![0.0f64; nb]; na];
    let mut fu_choice: HashMap<(usize, usize), FuTypeId> = HashMap::new();
    for i in 0..na {
        for j in 0..nb {
            let ta = a.fus()[i].fu_type;
            let tb = b.fus()[j].fu_type;
            let mut ops: HashSet<Operation> = ops_a[i].clone();
            ops.extend(ops_b[j].iter().copied());
            if let Some(t) = shared_type(lib, ta, tb, &ops) {
                let saved = lib.fu(ta).area() + lib.fu(tb).area() - lib.fu(t).area();
                // Steering penalty: each shared port likely grows a mux leg.
                let penalty = 2.0 * lib.mux.area_per_input;
                let affinity: usize = (0..2u16)
                    .map(|p| {
                        port_affinity(
                            &conn_a,
                            &conn_b,
                            Sink::FuPort(FuInstId::from_index(i), p),
                            Sink::FuPort(FuInstId::from_index(j), p),
                        )
                    })
                    .sum();
                let w = saved - penalty + affinity as f64 * lib.mux.area_per_input;
                if w > 0.0 {
                    fu_weight[i][j] = w;
                    fu_choice.insert((i, j), t);
                }
            }
        }
    }
    let fu_match = max_weight_assignment(&fu_weight);

    // --- Build merged FU list -----------------------------------------------
    let mut merged_fus: Vec<FuInstance> = Vec::new();
    let mut fu_map_a = vec![FuInstId::from_index(0); na];
    let mut fu_map_b: Vec<Option<FuInstId>> = vec![None; nb];
    for i in 0..na {
        let id = FuInstId::from_index(merged_fus.len());
        match fu_match[i] {
            Some(j) => {
                let t = fu_choice[&(i, j)];
                merged_fus.push(FuInstance {
                    fu_type: t,
                    tag: id.index() as u32,
                });
                fu_map_b[j] = Some(id);
            }
            None => {
                merged_fus.push(a.fus()[i]);
            }
        }
        fu_map_a[i] = id;
    }
    for j in 0..nb {
        if fu_map_b[j].is_none() {
            let id = FuInstId::from_index(merged_fus.len());
            merged_fus.push(b.fus()[j]);
            fu_map_b[j] = Some(id);
        }
    }
    let fu_map_b: Vec<FuInstId> = fu_map_b.into_iter().map(Option::unwrap).collect();

    // --- Register matching ----------------------------------------------------
    // Behaviors never execute concurrently, so any register pair may share;
    // weight = register area saved + write-path affinity (same merged FU
    // writing both avoids a mux leg).
    let ra = a.regs().len();
    let rb = b.regs().len();
    let write_source = |conn: &Connectivity, reg: usize| -> Vec<Source> {
        conn.sinks()
            .filter(|(s, _)| *s == Sink::RegIn(RegId::from_index(reg)))
            .flat_map(|(_, srcs)| srcs.iter().copied())
            .collect()
    };
    let mut reg_weight = vec![vec![0.0f64; rb]; ra];
    for i in 0..ra {
        let wa = write_source(&conn_a, i);
        for j in 0..rb {
            let wb = write_source(&conn_b, j);
            let mut affinity = 0usize;
            for s in &wa {
                let matched = match s {
                    Source::Fu(f) => wb.iter().any(|t| {
                        matches!(t, Source::Fu(g) if fu_map_b
                        .get(g.index())
                        .is_some_and(|&m| m == fu_map_a[f.index()]))
                    }),
                    Source::Const(_) | Source::Input(_) => wb.contains(s),
                    _ => false,
                };
                if matched {
                    affinity += 1;
                }
            }
            reg_weight[i][j] = lib.register.area + affinity as f64 * lib.mux.area_per_input
                - lib.mux.area_per_input;
        }
    }
    let reg_match = max_weight_assignment(&reg_weight);

    let mut merged_regs: Vec<RegInstance> = Vec::new();
    let mut reg_map_a = vec![RegId::from_index(0); ra];
    let mut reg_map_b: Vec<Option<RegId>> = vec![None; rb];
    for i in 0..ra {
        let id = RegId::from_index(merged_regs.len());
        merged_regs.push(RegInstance);
        if let Some(j) = reg_match[i] {
            reg_map_b[j] = Some(id);
        }
        reg_map_a[i] = id;
    }
    for j in 0..rb {
        if reg_map_b[j].is_none() {
            let id = RegId::from_index(merged_regs.len());
            merged_regs.push(RegInstance);
            reg_map_b[j] = Some(id);
        }
    }
    let reg_map_b: Vec<RegId> = reg_map_b.into_iter().map(Option::unwrap).collect();

    // --- Submodules: copied side by side (no cross-matching) ------------------
    let mut merged_subs: Vec<RtlModule> = Vec::new();
    let sub_map_a: Vec<SubId> = (0..a.subs().len())
        .map(|i| {
            merged_subs.push(a.subs()[i].clone());
            SubId::from_index(merged_subs.len() - 1)
        })
        .collect();
    let sub_map_b: Vec<SubId> = (0..b.subs().len())
        .map(|j| {
            merged_subs.push(b.subs()[j].clone());
            SubId::from_index(merged_subs.len() - 1)
        })
        .collect();

    // --- Rebind behaviors ------------------------------------------------------
    let remap = |behavior: &Behavior, fu_map: &[FuInstId], reg_map: &[RegId], sub_map: &[SubId]| {
        let mut binding = Binding::default();
        for (n, f) in behavior.binding.op_to_fu.iter() {
            binding.op_to_fu.insert(n, fu_map[f.index()]);
        }
        binding.var_to_reg = VarTable::from_sorted(
            behavior
                .binding
                .var_to_reg
                .iter()
                .map(|(v, r)| (v, reg_map[r.index()]))
                .collect(),
        );
        for (n, s) in behavior.binding.hier_to_sub.iter() {
            binding.hier_to_sub.insert(n, sub_map[s.index()]);
        }
        Behavior {
            dfg: behavior.dfg,
            binding,
            schedule: behavior.schedule.clone(),
            serial: behavior.serial.clone(),
            profile: behavior.profile.clone(),
        }
    };
    let mut behaviors: Vec<Behavior> = a
        .behaviors()
        .iter()
        .map(|x| remap(x, &fu_map_a, &reg_map_a, &sub_map_a))
        .collect();
    behaviors.extend(
        b.behaviors()
            .iter()
            .map(|x| remap(x, &fu_map_b, &reg_map_b, &sub_map_b)),
    );

    let mut module = RtlModule::new(h, name, merged_fus, merged_regs, merged_subs, behaviors);
    module.embedded = true;
    Ok(EmbedResult {
        module,
        maps: EmbedMaps {
            fu_a: fu_map_a,
            fu_b: fu_map_b,
            reg_a: reg_map_a,
            reg_b: reg_map_b,
            sub_a: sub_map_a,
            sub_b: sub_map_b,
        },
    })
}
