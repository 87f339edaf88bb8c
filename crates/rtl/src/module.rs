use crate::connect::DatapathView;
use crate::instance::{FuInstId, FuInstance, RegId, RegInstance, SubId};
use crate::spec::BuildPlan;
use crate::table::{NodeTable, VarTable};
use hsyn_dfg::{DfgId, Hierarchy, NodeId};
use hsyn_sched::{Profile, Schedule};
use std::sync::Arc;

/// How a DFG's operations, variables, and hierarchical nodes map onto the
/// hardware of one [`RtlModule`] — the paper's *assignment*.
///
/// Dense tables, not hash maps: the two node maps hold one slot per DFG
/// node, the register map is sorted by variable. Lookups never hash and
/// iteration is in ascending key order (see DESIGN.md, "Derived views").
#[derive(Clone, Debug, Default)]
pub struct Binding {
    /// Operation node → functional-unit instance.
    pub op_to_fu: NodeTable<FuInstId>,
    /// Variable → register (only variables that need storage appear).
    pub var_to_reg: VarTable,
    /// Hierarchical node → submodule instance.
    pub hier_to_sub: NodeTable<SubId>,
}

/// One behavior an RTL module can execute: a DFG with its schedule,
/// assignment, serialization edges, and the resulting [`Profile`].
///
/// A module created by dedicated synthesis has one behavior; RTL embedding
/// (move *C*) produces modules with several ("multiple hierarchical nodes
/// can map to the same RTL module").
#[derive(Clone, Debug)]
pub struct Behavior {
    /// The DFG this behavior executes.
    pub dfg: DfgId,
    /// Assignment of that DFG onto the module's hardware.
    pub binding: Binding,
    /// The schedule (relative to module start).
    pub schedule: Schedule,
    /// Serialization (ordering) edges used to produce the schedule.
    pub serial: Vec<(NodeId, NodeId)>,
    /// Input/output timing of this behavior (the module's profile for
    /// hierarchical nodes mapped to it).
    pub profile: Profile,
}

/// An RTL module: functional units, registers, submodule instances, and the
/// behaviors they implement. Multiplexers, wiring, and the FSM controller
/// are derived from the behaviors' bindings. The area and energy models
/// read the counts they need from the module's [`DatapathView`], fixed when
/// the module is assembled; [`connectivity`](crate::connectivity) (the
/// full source sets) and [`generate_fsm`](crate::generate_fsm) (the
/// control words) derive the rest on demand.
#[derive(Clone, Debug)]
pub struct RtlModule {
    name: String,
    fus: Vec<FuInstance>,
    regs: Vec<RegInstance>,
    subs: Vec<RtlModule>,
    behaviors: Vec<Behavior>,
    view: DatapathView,
    /// Made by RTL embedding: its registers are named `q{i}`, not `r{i}`.
    pub(crate) embedded: bool,
    /// What [`build_ref`](crate::build_ref) left for the next build of
    /// this module (`None` for a module assembled any other way). Shared
    /// by clones; never fingerprinted or compared.
    pub(crate) plan: Option<Arc<BuildPlan>>,
}

impl RtlModule {
    /// Assemble a module from parts, deriving its [`DatapathView`] from the
    /// behaviors over `h` (the hierarchy holding their DFGs).
    pub fn new(
        h: &Hierarchy,
        name: impl Into<String>,
        fus: Vec<FuInstance>,
        regs: Vec<RegInstance>,
        subs: Vec<RtlModule>,
        behaviors: Vec<Behavior>,
    ) -> Self {
        let view = DatapathView::derive(h, fus.len(), &behaviors);
        RtlModule::with_view(name, fus, regs, subs, behaviors, view)
    }

    /// [`new`](Self::new) with a view the caller already derived (the
    /// builder, which holds the storage analysis and binding it needs).
    pub(crate) fn with_view(
        name: impl Into<String>,
        fus: Vec<FuInstance>,
        regs: Vec<RegInstance>,
        subs: Vec<RtlModule>,
        behaviors: Vec<Behavior>,
        view: DatapathView,
    ) -> Self {
        RtlModule {
            name: name.into(),
            fus,
            regs,
            subs,
            behaviors,
            view,
            embedded: false,
            plan: None,
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Functional-unit instances.
    pub fn fus(&self) -> &[FuInstance] {
        &self.fus
    }

    /// Register instances.
    pub fn regs(&self) -> &[RegInstance] {
        &self.regs
    }

    /// Submodule instances.
    pub fn subs(&self) -> &[RtlModule] {
        &self.subs
    }

    /// Mutable access to submodule instances (used when a child is
    /// resynthesized in place by move *B*).
    pub fn subs_mut(&mut self) -> &mut Vec<RtlModule> {
        &mut self.subs
    }

    /// The behaviors this module implements.
    pub fn behaviors(&self) -> &[Behavior] {
        &self.behaviors
    }

    /// The datapath facts the area and energy models read, derived when
    /// the module was assembled.
    pub fn view(&self) -> &DatapathView {
        &self.view
    }

    /// The behavior executing `dfg`, if any.
    pub fn behavior_for(&self, dfg: DfgId) -> Option<&Behavior> {
        self.behaviors.iter().find(|b| b.dfg == dfg)
    }

    /// The profile of the behavior executing `dfg`.
    pub fn profile_for(&self, dfg: DfgId) -> Option<&Profile> {
        self.behavior_for(dfg).map(|b| &b.profile)
    }

    /// Access a functional unit by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fu(&self, id: FuInstId) -> &FuInstance {
        &self.fus[id.index()]
    }

    /// Access a register by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn reg(&self, id: RegId) -> &RegInstance {
        &self.regs[id.index()]
    }

    /// Name of register `r`: `q{i}` in a module RTL embedding made,
    /// `r{i}` in any other. Derived when rendered: no cost model reads it.
    pub fn reg_name(&self, r: RegId) -> String {
        let prefix = if self.embedded { 'q' } else { 'r' };
        format!("{prefix}{}", r.index())
    }

    /// Access a submodule by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn sub(&self, id: SubId) -> &RtlModule {
        &self.subs[id.index()]
    }

    /// Total count of functional units in this module and all submodules.
    pub fn total_fu_count(&self) -> usize {
        self.fus.len()
            + self
                .subs
                .iter()
                .map(RtlModule::total_fu_count)
                .sum::<usize>()
    }

    /// Number of modules in the tree rooted here, this one included.
    pub fn module_count(&self) -> u64 {
        1 + self.subs.iter().map(RtlModule::module_count).sum::<u64>()
    }

    /// Total register count including submodules.
    pub fn total_reg_count(&self) -> usize {
        self.regs.len()
            + self
                .subs
                .iter()
                .map(RtlModule::total_reg_count)
                .sum::<usize>()
    }
}
