//! Width-aware datapath sizing from analysis certificates.
//!
//! Without widths, the cost models ([`module_area`](crate::module_area),
//! power estimation) price every FU, register, mux and net at the nominal
//! datapath width. A [`WidthCertificate`](hsyn_dataflow::WidthCertificate)
//! proves smaller widths for individual variables; [`derive_widths`] folds
//! those per-variable proofs through a module's bindings into per-resource
//! widths — an FU must accommodate the widest operand/result bound to it
//! across all behaviors, a register the widest variable stored in it, a
//! sink the widest value steered into it. Sizing is an argument of the
//! same pricing walk, not a second model:
//! [`module_area_sized`](crate::module_area_sized) and
//! `hsyn_power::estimate_sized` hand these widths to the walk the unsized
//! entry points run with none.
//!
//! Scaling rules: linear in width for registers, muxes, wiring and
//! adder-class FUs; quadratic for multiplier-capable FUs (array-multiplier
//! area grows with the product of operand widths). Controller and memory
//! area are width-independent. With every width at nominal, each scale
//! factor is exactly `1.0` and the sized figures reproduce the base model
//! bit for bit — the parity anchor the tests pin.

use crate::connect::Sink;
use crate::module::RtlModule;
use hsyn_dataflow::WidthCertificate;
use hsyn_dfg::{Hierarchy, Operation};
use hsyn_lib::FuType;
use std::collections::BTreeMap;

/// Per-resource proven widths for one module (and, recursively, its
/// submodules), derived from a [`WidthCertificate`] via the module's
/// bindings. Indices parallel [`RtlModule::fus`] / [`RtlModule::regs`] /
/// [`RtlModule::subs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleWidths {
    /// The nominal datapath width everything is scaled against.
    pub nominal: u32,
    /// Required width per functional-unit instance.
    pub fu: Vec<u32>,
    /// Required width per register instance.
    pub reg: Vec<u32>,
    /// Required width per datapath sink (mux/wire sizing); sinks not in the
    /// map are at the nominal width.
    pub sink: BTreeMap<Sink, u32>,
    /// Widths of each submodule instance.
    pub subs: Vec<ModuleWidths>,
}

impl ModuleWidths {
    /// All resources at the nominal width — sizing with this reproduces the
    /// unsized cost models exactly.
    pub fn uniform(module: &RtlModule, nominal: u32) -> Self {
        ModuleWidths {
            nominal,
            fu: vec![nominal; module.fus().len()],
            reg: vec![nominal; module.regs().len()],
            sink: BTreeMap::new(),
            subs: module
                .subs()
                .iter()
                .map(|s| ModuleWidths::uniform(s, nominal))
                .collect(),
        }
    }

    /// Width of functional unit `i` (nominal when unknown).
    pub fn fu_width(&self, i: usize) -> u32 {
        self.known_or_nominal(self.fu.get(i))
    }

    /// Width of register `i` (nominal when unknown).
    pub fn reg_width(&self, i: usize) -> u32 {
        self.known_or_nominal(self.reg.get(i))
    }

    fn known_or_nominal(&self, w: Option<&u32>) -> u32 {
        w.copied().filter(|&w| w > 0).unwrap_or(self.nominal)
    }

    /// Width of datapath sink `s` (nominal when unknown).
    pub fn sink_width(&self, s: Sink) -> u32 {
        self.sink.get(&s).copied().unwrap_or(self.nominal)
    }

    /// Sum over all registers (including submodules) of `width / nominal` —
    /// the effective register count the clock-network energy scales with.
    /// Equals the plain register count when every width is nominal.
    pub fn reg_width_factor_total(&self) -> f64 {
        let own: f64 = (0..self.reg.len())
            .map(|i| f64::from(self.reg_width(i)) / f64::from(self.nominal))
            .sum();
        own + self
            .subs
            .iter()
            .map(ModuleWidths::reg_width_factor_total)
            .sum::<f64>()
    }

    /// Number of resources (FUs + registers, including submodules) sized
    /// strictly below the nominal width.
    pub fn narrowed_resources(&self) -> usize {
        let own = (0..self.fu.len())
            .filter(|&i| self.fu_width(i) < self.nominal)
            .count()
            + (0..self.reg.len())
                .filter(|&i| self.reg_width(i) < self.nominal)
                .count();
        own + self
            .subs
            .iter()
            .map(ModuleWidths::narrowed_resources)
            .sum::<usize>()
    }
}

/// Area/capacitance scale factor of a functional unit at width `w` against
/// `nominal`: quadratic for multiplier-capable units, linear otherwise.
/// Exactly `1.0` at the nominal width.
pub fn fu_scale(t: &FuType, w: u32, nominal: u32) -> f64 {
    let r = f64::from(w) / f64::from(nominal);
    if t.supports(Operation::Mult) {
        r * r
    } else {
        r
    }
}

/// Fold `cert` through `module`'s bindings into per-resource widths.
///
/// For every behavior: each FU takes the max of the certified widths of its
/// bound operations' results and operands; each register the max over the
/// variables stored in it; each sink the max over the variables steered
/// into it. Resources nothing is bound to stay at the nominal width.
pub fn derive_widths(h: &Hierarchy, module: &RtlModule, cert: &WidthCertificate) -> ModuleWidths {
    let nominal = cert.nominal_width();
    let mut fu = vec![0u32; module.fus().len()];
    let mut reg = vec![0u32; module.regs().len()];
    let mut sink: BTreeMap<Sink, u32> = BTreeMap::new();
    for b in module.behaviors() {
        let g = h.dfg(b.dfg);
        for (n, f) in b.binding.op_to_fu.iter() {
            let w = &mut fu[f.index()];
            *w = (*w).max(cert.port_width(b.dfg, n, 0));
        }
        for (v, r) in b.binding.var_to_reg.iter() {
            let w = cert.var_width(b.dfg, v);
            reg[r.index()] = reg[r.index()].max(w);
            let s = sink.entry(Sink::RegIn(r)).or_insert(0);
            *s = (*s).max(w);
        }
        for (_, e) in g.edges() {
            let w = cert.var_width(b.dfg, e.from);
            use hsyn_dfg::NodeKind;
            let key = match g.node(e.to).kind() {
                NodeKind::Op(_) => {
                    let f = b.binding.op_to_fu[&e.to];
                    fu[f.index()] = fu[f.index()].max(w);
                    Sink::FuPort(f, e.to_port)
                }
                NodeKind::Hier { .. } => Sink::SubPort(b.binding.hier_to_sub[&e.to], e.to_port),
                NodeKind::Output { index } => Sink::Output(*index),
                _ => continue,
            };
            let s = sink.entry(key).or_insert(0);
            *s = (*s).max(w);
        }
    }
    let subs = module
        .subs()
        .iter()
        .map(|s| derive_widths(h, s, cert))
        .collect();
    let or_nominal = |w: u32| if w == 0 { nominal } else { w };
    ModuleWidths {
        nominal,
        fu: fu.into_iter().map(or_nominal).collect(),
        reg: reg.into_iter().map(or_nominal).collect(),
        sink: sink.into_iter().map(|(k, w)| (k, or_nominal(w))).collect(),
        subs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{module_area, module_area_sized};
    use crate::spec::{build, BuildCtx, ModuleSpec};
    use hsyn_dfg::{Dfg, Hierarchy, Operation};
    use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};

    fn narrow_coeff_design() -> (Hierarchy, RtlModule, hsyn_lib::Library) {
        // y = (x * 5) + 3: the coefficient and addend are narrow constants.
        let mut h = Hierarchy::new();
        let mut g = Dfg::new("k");
        let x = g.add_input("x");
        let k = g.add_const("k", 5);
        let c = g.add_const("c", 3);
        let m = g.add_op(Operation::Mult, "m", &[x, k]);
        let s = g.add_op(Operation::Add, "s", &[m, c]);
        g.add_output("y", s);
        let dfg = h.add_dfg(g);
        h.set_top(dfg);
        h.validate().unwrap();
        let lib = table1_library();
        let ctx = BuildCtx::new(&lib, TABLE1_CLOCK_NS, 5.0, Some(16));
        let spec = ModuleSpec::dedicated(
            &h,
            dfg,
            "m",
            |_, op| lib.fastest_for(op).unwrap(),
            |_, _| unreachable!(),
        );
        let m = build(&h, &spec, &ctx).unwrap();
        (h, m, lib)
    }

    #[test]
    fn uniform_widths_reproduce_base_area_exactly() {
        let (h, m, lib) = narrow_coeff_design();
        let base = module_area(&h, &m, &lib);
        let sized = module_area_sized(&h, &m, &lib, &ModuleWidths::uniform(&m, 16));
        assert_eq!(base, sized);
    }

    #[test]
    fn certified_widths_shrink_area() {
        let (h, m, lib) = narrow_coeff_design();
        let cert = hsyn_dataflow::analyze_hierarchy(&h, 16)
            .unwrap()
            .into_certificate();
        let widths = derive_widths(&h, &m, &cert);
        // The constant operand nets (5 and 3) are proven narrow, so at least
        // the wire/mux sinks they feed must shrink.
        assert!(
            widths.sink.values().any(|&w| w < 16),
            "constant operand sinks must narrow"
        );
        let base = module_area(&h, &m, &lib).total();
        let sized = module_area_sized(&h, &m, &lib, &widths).total();
        assert!(sized < base, "sized {sized} vs base {base}");
        // Controller is width-independent.
        assert_eq!(
            module_area(&h, &m, &lib).controller,
            module_area_sized(&h, &m, &lib, &widths).controller
        );
    }

    #[test]
    fn derived_widths_never_exceed_nominal() {
        let (h, m, _) = narrow_coeff_design();
        let cert = hsyn_dataflow::analyze_hierarchy(&h, 16)
            .unwrap()
            .into_certificate();
        let w = derive_widths(&h, &m, &cert);
        assert!(w.fu.iter().all(|&x| (1..=16).contains(&x)));
        assert!(w.reg.iter().all(|&x| (1..=16).contains(&x)));
        assert!(w.sink.values().all(|&x| (1..=16).contains(&x)));
    }
}
