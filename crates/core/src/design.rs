//! Design points: the engine's mutable representation of a (scheduled,
//! assigned, costed) RTL implementation, plus `INITIAL_SOLUTION`.
//!
//! Moves never touch RTL directly — they edit the spec tree
//! ([`ModuleState`]) and call [`DesignPoint::rebuild`], which re-derives
//! orderings, schedules, register bindings, and profiles bottom-up and
//! rejects anything that misses the throughput constraint ("when a move is
//! performed, its validity is checked by scheduling").

use hsyn_dfg::{DfgId, Hierarchy, NodeId, NodeKind};
use hsyn_lib::Library;
use hsyn_rtl::{
    build_ref, same_build, BuildCtx, BuildError, FuGroup, ModuleLibrary, RegPolicy, RtlModule,
    SpecRef,
};

/// The operating point of a design: supply voltage, reference clock, and
/// the throughput constraint.
///
/// Scheduling always happens in reference-voltage time: lowering `vdd`
/// stretches the physical clock by the technology's delay factor, which
/// shrinks the cycle *budget* within the fixed sampling period instead of
/// changing any unit's cycle latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage.
    pub vdd: f64,
    /// Clock period at the reference voltage, ns.
    pub clk_ref_ns: f64,
    /// Sampling period in real time, ns (the throughput constraint).
    pub period_ns: f64,
    /// Cycle budget: `floor(period_ns / (clk_ref_ns × delay_factor(vdd)))`.
    pub sampling_cycles: u32,
}

impl OperatingPoint {
    /// Derive the operating point for a `(vdd, clk)` pair under `period_ns`.
    pub fn derive(lib: &Library, vdd: f64, clk_ref_ns: f64, period_ns: f64) -> Self {
        let phys_clk = clk_ref_ns * lib.technology.delay_factor(vdd);
        let sampling_cycles = (period_ns / phys_clk).floor() as u32;
        OperatingPoint {
            vdd,
            clk_ref_ns,
            period_ns,
            sampling_cycles,
        }
    }

    /// Physical clock period at the operating voltage, ns.
    pub fn physical_clk_ns(&self, lib: &Library) -> f64 {
        self.clk_ref_ns * lib.technology.delay_factor(self.vdd)
    }

    /// Every field as exact bits, for memo keys: `vdd`, `clk_ref_ns`,
    /// `period_ns`, then `sampling_cycles`.
    pub fn key_bits(&self) -> [u64; 4] {
        [
            self.vdd.to_bits(),
            self.clk_ref_ns.to_bits(),
            self.period_ns.to_bits(),
            u64::from(self.sampling_cycles),
        ]
    }
}

/// The spec of one module, minus its children (held separately so they can
/// be rebuilt and replaced independently).
#[derive(Clone, Debug)]
pub struct SpecCore {
    /// Module name.
    pub name: String,
    /// The DFG implemented.
    pub dfg: DfgId,
    /// Functional-unit instances and their operation groups.
    pub fu_groups: Vec<FuGroup>,
    /// Register sharing policy.
    pub reg_policy: RegPolicy,
    /// Expected input arrival cycles (profile basis; `None` ⇒ zeros).
    pub input_arrivals: Option<Vec<u32>>,
    /// Per-output deadlines (from a resynthesis window).
    pub output_deadlines: Option<Vec<u32>>,
    /// Completion deadline in cycles.
    pub deadline: Option<u32>,
}

impl SpecCore {
    /// The build context this spec schedules under: the completion deadline
    /// plus the input-arrival / output-deadline window. The single source
    /// of truth for the window cloning that module relinking and move-*B*
    /// constraint derivation both perform — previously duplicated in both
    /// places, a latent drift bug if one side changed.
    pub fn build_ctx<'a>(&self, lib: &'a Library, op: &OperatingPoint) -> BuildCtx<'a> {
        let mut ctx = BuildCtx::new(lib, op.clk_ref_ns, lib.technology.vref(), self.deadline);
        ctx.input_arrivals = self.input_arrivals.clone();
        ctx.output_deadlines = self.output_deadlines.clone();
        ctx
    }
}

/// How a submodule instance is implemented.
#[derive(Clone, Debug)]
pub enum ChildKind {
    /// A spec tree of our own making — resynthesizable by move *B*.
    Single(Box<ModuleState>),
    /// An opaque prebuilt module: a library complex module instance, or the
    /// result of RTL embedding. Not resynthesized ("modules, whose internal
    /// descriptions are not available or cannot be altered, are not
    /// resynthesized"), but swappable/mergeable/splittable.
    Opaque {
        /// The implementation.
        module: RtlModule,
        /// Where it came from (library name, `"embedded"`, ...).
        origin: String,
    },
}

/// One submodule instance of a module: the hierarchical nodes mapped to it
/// and its implementation.
#[derive(Clone, Debug)]
pub struct Child {
    /// Hierarchical nodes (of the parent DFG) executed on this instance.
    pub nodes: Vec<NodeId>,
    /// The implementation.
    pub kind: ChildKind,
}

impl Child {
    /// The child's current RTL module.
    pub fn module(&self) -> &RtlModule {
        match &self.kind {
            ChildKind::Single(s) => &s.built,
            ChildKind::Opaque { module, .. } => module,
        }
    }
}

/// How relinks run, and the work they did.
///
/// Every relink hands the module's current build to [`build_ref`] as its
/// hint, so it redoes only what the edit disturbed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Relinks {
    /// Every relink also runs the same build without its hint and records
    /// in `diverged` where the two differ ([`same_build`]); shadow and
    /// paranoid modes set it, and
    /// [`apply_in_place`](crate::apply_in_place) panics on a divergence,
    /// naming the move.
    pub check: bool,
    /// The first checked relink whose hinted build differed from the build
    /// from scratch: the module, its path and the difference.
    pub diverged: Option<String>,
    /// Relinks attempted, failed ones included.
    pub modules: u64,
    /// Nodes whose time the scheduler computed, over all relinks.
    pub nodes_rescheduled: u64,
}

/// A module's spec tree together with its latest build.
#[derive(Clone, Debug)]
pub struct ModuleState {
    /// The module's own spec.
    pub core: SpecCore,
    /// Submodule instances.
    pub children: Vec<Child>,
    /// The latest successful build (kept in sync by
    /// [`ModuleState::rebuild`]).
    pub built: RtlModule,
}

impl ModuleState {
    /// Rebuild this module (children first), refreshing `built`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`BuildError`] — the candidate edit that caused
    /// the rebuild is then invalid.
    pub fn rebuild(
        &mut self,
        h: &Hierarchy,
        lib: &Library,
        op: &OperatingPoint,
    ) -> Result<(), BuildError> {
        for child in &mut self.children {
            if let ChildKind::Single(s) = &mut child.kind {
                s.rebuild(h, lib, op)?;
            }
        }
        self.relink_swap(h, lib, op, &[], &mut Relinks::default())
            .map(drop)
    }

    /// Build this module's own level from its current spec and its
    /// children's current builds, starting from its current build, and
    /// return the *previous* build — the undo record for transactional
    /// move application. `built` is replaced only on success: a failed
    /// build leaves the module exactly as it was. `path` names the module
    /// in a [`Relinks::diverged`] record.
    fn relink_swap(
        &mut self,
        h: &Hierarchy,
        lib: &Library,
        op: &OperatingPoint,
        path: &[usize],
        relinks: &mut Relinks,
    ) -> Result<RtlModule, BuildError> {
        // Borrowed: the children are cloned into the new build only when it
        // succeeds.
        let spec = SpecRef {
            name: &self.core.name,
            dfg: self.core.dfg,
            fu_groups: &self.core.fu_groups,
            subs: self
                .children
                .iter()
                .map(|c| (c.module(), c.nodes.as_slice()))
                .collect(),
            reg_policy: &self.core.reg_policy,
        };
        let ctx = self.core.build_ctx(lib, op);
        relinks.modules += 1;
        let new = build_ref(
            h,
            &spec,
            &ctx,
            Some(&self.built),
            &mut relinks.nodes_rescheduled,
        );
        if relinks.check && relinks.diverged.is_none() {
            let fresh = build_ref(h, &spec, &ctx, None, &mut 0);
            if let Err(diff) = same_build(&new, &fresh) {
                let name = &self.core.name;
                relinks.diverged = Some(format!("module {name} (path {path:?}): {diff}"));
            }
        }
        Ok(std::mem::replace(&mut self.built, new?))
    }

    /// Rebuild only what a localized edit at `path` can have changed: the
    /// module there (its own spec was rewritten) and the modules along the
    /// path to it (their specs embed the rebuilt child). Everything else —
    /// descendants of the edited module and off-path subtrees — keeps its
    /// current `built`, which a rebuild would reproduce bit-identically:
    /// builds are deterministic functions of the specs, and those specs are
    /// untouched. Bit-exact with [`ModuleState::rebuild`].
    ///
    /// Every replaced build is journaled: each relinked module along `path`
    /// hands its *previous* `built` to `journal` together with its absolute
    /// path (child indices from the module this was first called on;
    /// `prefix` carries the indices walked so far). Replaying the journaled
    /// modules in reverse order restores the tree's builds bit-exactly —
    /// the RTL half of a transactional rollback (the spec half is the
    /// move's own inverse record).
    ///
    /// Deepest module first: on failure, modules already relinked stay
    /// relinked and stay journaled, so the caller can always roll back to
    /// the pre-apply state. `relinks` says how to relink and counts the
    /// work.
    ///
    /// # Errors
    ///
    /// Propagates the first [`BuildError`], exactly as [`rebuild`](Self::rebuild).
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild_at_journaled(
        &mut self,
        h: &Hierarchy,
        lib: &Library,
        op: &OperatingPoint,
        path: &[usize],
        prefix: &mut Vec<usize>,
        relinks: &mut Relinks,
        journal: &mut dyn FnMut(&[usize], RtlModule),
    ) -> Result<(), BuildError> {
        if let Some((&i, rest)) = path.split_first() {
            if let Some(child) = self.children.get_mut(i) {
                if let ChildKind::Single(s) = &mut child.kind {
                    prefix.push(i);
                    s.rebuild_at_journaled(h, lib, op, rest, prefix, relinks, journal)?;
                    prefix.pop();
                }
            }
        }
        let old = self.relink_swap(h, lib, op, prefix, relinks)?;
        journal(prefix, old);
        Ok(())
    }

    /// Visit this module state and every [`ChildKind::Single`] descendant,
    /// depth-first, with the child-index path from `self`.
    pub fn for_each(&self, mut f: impl FnMut(&[usize], &ModuleState)) {
        fn walk(
            s: &ModuleState,
            path: &mut Vec<usize>,
            f: &mut impl FnMut(&[usize], &ModuleState),
        ) {
            f(path, s);
            for (i, c) in s.children.iter().enumerate() {
                if let ChildKind::Single(sub) = &c.kind {
                    path.push(i);
                    walk(sub, path, f);
                    path.pop();
                }
            }
        }
        walk(self, &mut Vec::new(), &mut f);
    }

    /// The module state addressed by `path` (child indices from `self`).
    ///
    /// # Panics
    ///
    /// Panics if the path crosses an opaque child or is out of range.
    pub fn at(&self, path: &[usize]) -> &ModuleState {
        let mut cur = self;
        for &i in path {
            match &cur.children[i].kind {
                ChildKind::Single(s) => cur = s,
                ChildKind::Opaque { .. } => panic!("path crosses an opaque child"),
            }
        }
        cur
    }

    /// Mutable access along `path` (see [`ModuleState::at`]).
    ///
    /// # Panics
    ///
    /// Panics if the path crosses an opaque child or is out of range.
    pub fn at_mut(&mut self, path: &[usize]) -> &mut ModuleState {
        let mut cur = self;
        for &i in path {
            match &mut cur.children[i].kind {
                ChildKind::Single(s) => cur = s,
                ChildKind::Opaque { .. } => panic!("path crosses an opaque child"),
            }
        }
        cur
    }
}

/// A complete design point: the (possibly move-*A*-rewritten) behavioral
/// hierarchy, the spec/RTL tree, and the operating point.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// The behavioral description this design implements. A private copy:
    /// move *A* may substitute equivalent DFGs at hierarchical nodes.
    pub hierarchy: Hierarchy,
    /// Operating point.
    pub op: OperatingPoint,
    /// The top-level module state.
    pub top: ModuleState,
}

impl DesignPoint {
    /// Rebuild the whole design (bottom-up) and check the throughput
    /// constraint.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from any level.
    pub fn rebuild(&mut self, lib: &Library) -> Result<(), BuildError> {
        let DesignPoint { hierarchy, op, top } = self;
        top.rebuild(hierarchy, lib, op)
    }

    /// [`rebuild`](Self::rebuild) restricted to the modules a localized
    /// edit at `path` can have changed, journaling every replaced build —
    /// see [`ModuleState::rebuild_at_journaled`].
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from any rebuilt level.
    pub fn rebuild_at_journaled(
        &mut self,
        lib: &Library,
        path: &[usize],
        relinks: &mut Relinks,
        journal: &mut dyn FnMut(&[usize], RtlModule),
    ) -> Result<(), BuildError> {
        let DesignPoint { hierarchy, op, top } = self;
        top.rebuild_at_journaled(hierarchy, lib, op, path, &mut Vec::new(), relinks, journal)
    }
}

/// `INITIAL_SOLUTION` (Figure 4): map every operation to its own instance
/// of the fastest library type, every variable to its own register, and
/// every hierarchical node to its own submodule — the fastest library
/// complex module that implements its callee, or a recursively constructed
/// initial module when the library offers none.
///
/// # Errors
///
/// Returns the build error if even this fastest completely-parallel design
/// misses the deadline (the `(vdd, clk)` configuration is then infeasible
/// and is pruned).
pub fn initial_solution(
    h: &Hierarchy,
    mlib: &ModuleLibrary,
    op: &OperatingPoint,
) -> Result<ModuleState, BuildError> {
    initial_module(h, h.top(), mlib, op, Some(op.sampling_cycles), "top")
}

/// The makespan (cycles) of the unconstrained fastest design at the given
/// clock — used to compute the minimum achievable sampling period (the
/// laxity-factor denominator) and to prune infeasible `(Vdd, clk)` pairs.
///
/// # Errors
///
/// Propagates build errors (e.g. an operation no library unit implements).
pub fn probe_min_latency(
    h: &Hierarchy,
    mlib: &ModuleLibrary,
    clk_ref_ns: f64,
) -> Result<u32, BuildError> {
    let op = OperatingPoint {
        vdd: mlib.simple.technology.vref(),
        clk_ref_ns,
        period_ns: f64::INFINITY,
        sampling_cycles: u32::MAX,
    };
    let state = initial_module(h, h.top(), mlib, &op, None, "probe")?;
    Ok(state
        .built
        .behaviors()
        .first()
        .map_or(0, |b| b.schedule.makespan()))
}

/// Build an initial (fully parallel) module for `dfg` under an explicit
/// constraint window — the entry point of move-*B* resynthesis.
///
/// # Errors
///
/// Propagates the build error if even the fastest design misses the window.
pub fn initial_module_with_window(
    h: &Hierarchy,
    dfg: DfgId,
    mlib: &ModuleLibrary,
    op: &OperatingPoint,
    input_arrivals: Option<Vec<u32>>,
    output_deadlines: Option<Vec<u32>>,
    name: &str,
) -> Result<ModuleState, BuildError> {
    let deadline = output_deadlines
        .as_ref()
        .and_then(|v| v.iter().copied().max());
    let mut state = initial_module(h, dfg, mlib, op, deadline, name)?;
    state.core.input_arrivals = input_arrivals;
    state.core.output_deadlines = output_deadlines;
    state.rebuild(h, &mlib.simple, op)?;
    Ok(state)
}

fn initial_module(
    h: &Hierarchy,
    dfg: DfgId,
    mlib: &ModuleLibrary,
    op: &OperatingPoint,
    deadline: Option<u32>,
    name: &str,
) -> Result<ModuleState, BuildError> {
    let g = h.dfg(dfg);
    let lib = &mlib.simple;
    let mut fu_groups = Vec::new();
    let mut children = Vec::new();
    for (nid, node) in g.nodes() {
        match node.kind() {
            NodeKind::Op(op_kind) => {
                let fu_type = lib
                    .fastest_for(*op_kind)
                    .ok_or(BuildError::UnsupportedOp { node: nid })?;
                fu_groups.push(FuGroup {
                    fu_type,
                    ops: vec![nid],
                });
            }
            NodeKind::Hier { callee } => {
                // Fastest library module implementing the callee directly
                // (initial solution does not rewrite DFGs) and usable at
                // this clock — complex-module profiles count cycles of
                // their design clock.
                let best = mlib
                    .complex
                    .iter()
                    .filter(|cm| cm.implements(*callee) && cm.usable_at(op.clk_ref_ns))
                    .min_by(|a, b| {
                        let la = a
                            .module
                            .profile_for(*callee)
                            .map_or(u32::MAX, |p| p.latency());
                        let lb = b
                            .module
                            .profile_for(*callee)
                            .map_or(u32::MAX, |p| p.latency());
                        la.cmp(&lb)
                    });
                let kind = match best {
                    Some(cm) => ChildKind::Opaque {
                        module: cm.module.clone(),
                        origin: format!("library:{}", cm.module.name()),
                    },
                    None => {
                        let sub = initial_module(
                            h,
                            *callee,
                            mlib,
                            op,
                            None,
                            &format!("{name}/{}", node.name()),
                        )?;
                        ChildKind::Single(Box::new(sub))
                    }
                };
                children.push(Child {
                    nodes: vec![nid],
                    kind,
                });
            }
            _ => {}
        }
    }
    let mut state = ModuleState {
        core: SpecCore {
            name: name.to_owned(),
            dfg,
            fu_groups,
            reg_policy: RegPolicy::Dedicated,
            input_arrivals: None,
            output_deadlines: None,
            deadline,
        },
        children,
        built: RtlModule::new(h, name, vec![], vec![], vec![], vec![]),
    };
    state.rebuild(h, lib, op)?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;
    use hsyn_rtl::papers::test1_complex_library;

    #[test]
    fn operating_point_budget_shrinks_with_vdd() {
        let lib = table1_library();
        let p5 = OperatingPoint::derive(&lib, 5.0, 10.0, 240.0);
        let p33 = OperatingPoint::derive(&lib, 3.3, 10.0, 240.0);
        assert_eq!(p5.sampling_cycles, 24);
        assert!(p33.sampling_cycles < p5.sampling_cycles);
        assert!(p33.physical_clk_ns(&lib) > p5.physical_clk_ns(&lib));
    }

    #[test]
    fn initial_solution_is_fully_parallel() {
        let b = benchmarks::paulin();
        let lib = table1_library();
        let mlib = hsyn_rtl::ModuleLibrary::from_simple(lib);
        let op = OperatingPoint::derive(&mlib.simple, 5.0, 10.0, 300.0);
        let state = initial_solution(&b.hierarchy, &mlib, &op).unwrap();
        let g = b.hierarchy.dfg(b.hierarchy.top());
        // One FU per op.
        assert_eq!(state.built.fus().len(), g.schedulable_count());
        // Every FU is the fastest for its op class (mult1, add1, alu for lt).
        assert!(state.core.fu_groups.iter().all(|grp| grp.ops.len() == 1));
    }

    #[test]
    fn initial_solution_uses_library_complex_modules() {
        let (bench, mlib) = test1_complex_library();
        let op = OperatingPoint::derive(&mlib.simple, 5.0, 10.0, 240.0);
        let state = initial_solution(&bench.hierarchy, &mlib, &op).unwrap();
        assert_eq!(state.children.len(), 4);
        // All four hierarchical nodes found library implementations.
        for child in &state.children {
            assert!(
                matches!(&child.kind, ChildKind::Opaque { origin, .. } if origin.starts_with("library:"))
            );
        }
    }

    #[test]
    fn initial_solution_synthesizes_missing_children() {
        // hier_paulin has no library complex modules: children are Single.
        let b = benchmarks::hier_paulin();
        let mlib = hsyn_rtl::ModuleLibrary::from_simple(table1_library());
        let op = OperatingPoint::derive(&mlib.simple, 5.0, 10.0, 1200.0);
        let state = initial_solution(&b.hierarchy, &mlib, &op).unwrap();
        assert_eq!(state.children.len(), 4);
        assert!(state
            .children
            .iter()
            .all(|c| matches!(c.kind, ChildKind::Single(_))));
        // Paths resolve.
        let mut count = 0;
        state.for_each(|_, _| count += 1);
        assert_eq!(count, 5, "top + 4 single children");
    }

    #[test]
    fn infeasible_deadline_is_an_error() {
        let b = benchmarks::paulin();
        let mlib = hsyn_rtl::ModuleLibrary::from_simple(table1_library());
        // Period of 2 cycles cannot fit the 6-mult critical path.
        let op = OperatingPoint::derive(&mlib.simple, 5.0, 10.0, 20.0);
        assert!(initial_solution(&b.hierarchy, &mlib, &op).is_err());
    }
}
