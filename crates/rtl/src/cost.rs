//! Area model: functional units + registers + derived multiplexers +
//! wiring + FSM controller, recursively over submodules. The paper's flow
//! measured post-layout area; here the same quantities come from the
//! parametric cost models in [`hsyn_lib`] (see DESIGN.md).

use crate::connect::Sink;
use crate::fsm::control_bits;
use crate::module::RtlModule;
use crate::sizing::{fu_scale, ModuleWidths};
use hsyn_dfg::Hierarchy;
use hsyn_lib::Library;

/// Area of one module, split by resource class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaBreakdown {
    /// Functional units.
    pub fu: f64,
    /// Registers.
    pub reg: f64,
    /// Multiplexers.
    pub mux: f64,
    /// Wiring estimate.
    pub wire: f64,
    /// FSM controller.
    pub controller: f64,
    /// Owned memories (cell arrays plus port periphery).
    pub mem: f64,
    /// Submodules (their totals).
    pub subs: f64,
}

impl AreaBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.fu + self.reg + self.mux + self.wire + self.controller + self.mem + self.subs
    }
}

/// Compute the area of `module`, including all submodules.
pub fn module_area(h: &Hierarchy, module: &RtlModule, lib: &Library) -> AreaBreakdown {
    area_walk(h, module, lib, None)
}

/// [`module_area`] with every resource priced at its certified width (from
/// [`derive_widths`](crate::derive_widths)): FUs scale by [`fu_scale`],
/// registers, muxes and nets linearly. Bit-exact with the unsized model
/// when `widths` is [`ModuleWidths::uniform`].
pub fn module_area_sized(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    widths: &ModuleWidths,
) -> AreaBreakdown {
    area_walk(h, module, lib, Some(widths))
}

/// The one area recursion: the module's own resources over the totals of
/// its submodules, each sized by its own entry of `widths.subs`.
///
/// `widths` prices each FU, register, mux and net at its certified width;
/// `None` prices every resource at the nominal width. Controller and
/// memories are width-independent. At nominal every scale factor is
/// exactly `1.0` and the width-weighted counts are sums of `1.0`, so both
/// cases share every float operation the nominal figures depend on.
fn area_walk(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    widths: Option<&ModuleWidths>,
) -> AreaBreakdown {
    let subs: f64 = module
        .subs()
        .iter()
        .enumerate()
        .map(|(i, s)| area_walk(h, s, lib, widths.map(|w| &w.subs[i])).total())
        .sum();
    let view = module.view();
    let ratio = |w: &ModuleWidths, bits: u32| f64::from(bits) / f64::from(w.nominal);
    let fu: f64 = module
        .fus()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let t = lib.fu(f.fu_type);
            t.area() * widths.map_or(1.0, |w| fu_scale(t, w.fu_width(i), w.nominal))
        })
        .sum();
    // Width-weighted counts start from +0.0 so an empty set prices like
    // the plain `0 as f64` count.
    let regs = (0..module.regs().len())
        .map(|i| widths.map_or(1.0, |w| ratio(w, w.reg_width(i))))
        .fold(0.0, |a, r| a + r);
    let reg = regs * lib.register.area;
    let sink_scale = |s: Sink| widths.map_or(1.0, |w| ratio(w, w.sink_width(s)));
    let mux: f64 = view
        .sinks()
        .map(|(s, sources)| lib.mux.area(sources) * sink_scale(s))
        .sum();
    let nets = view
        .sinks()
        .map(|(s, sources)| sources as f64 * sink_scale(s))
        .fold(0.0, |a, n| a + n);
    let wire = nets * lib.wire.area_per_net;
    let states: usize = module
        .behaviors()
        .iter()
        .map(|b| b.schedule.makespan() as usize + 1)
        .sum();
    let controller = lib.controller.area(states, control_bits(h, module));
    // Owned memories are this module's hardware; an external memory is the
    // parent's bank reached through the call interface, priced at its owner.
    // A bank stores `elem_width` bits whatever the certified datapath widths.
    let mem: f64 = module
        .behaviors()
        .iter()
        .flat_map(|b| h.dfg(b.dfg).mems())
        .filter(|(_, m)| matches!(m.scope, hsyn_dfg::MemScope::Owned))
        .map(|(_, m)| lib.memory.area(m.words, m.elem_width, m.ports, m.banks))
        .sum();
    AreaBreakdown {
        fu,
        reg,
        mux,
        wire,
        controller,
        mem,
        subs,
    }
}
