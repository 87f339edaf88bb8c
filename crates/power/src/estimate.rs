//! Switched-capacitance power estimation over simulated activity.
//!
//! Energy per iteration is accumulated per resource class:
//!
//! * **functional units** — per instance, the Hamming activity of its
//!   operand stream (consecutive executions, across iterations) times the
//!   unit's effective capacitance;
//! * **registers** — Hamming activity of consecutive written values;
//! * **multiplexers / wiring** — steering energy proportional to delivered
//!   operand activity on sinks with more than one source;
//! * **controller** — active cycles × control bits;
//!
//! all scaled by `(Vdd / Vref)²`. Power is energy per iteration divided by
//! the sampling period. Units are arbitrary but consistent — the paper
//! reports only normalized power, which is what the experiment harness
//! computes.

use crate::sim::{simulate, EnergyMemo, Served, SimCache, StreamActivity, Streams};
use crate::traces::TraceSet;
use hsyn_dfg::Hierarchy;
use hsyn_lib::Library;
use hsyn_rtl::{control_bits, fu_scale, FpTree, ModuleWidths, RtlModule, Sink};

/// Energy per iteration, split by resource class (reference voltage).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Functional units.
    pub fu: f64,
    /// Registers.
    pub reg: f64,
    /// Multiplexers.
    pub mux: f64,
    /// Wiring.
    pub wire: f64,
    /// FSM controller.
    pub controller: f64,
    /// Memories: per-access read/write energy plus per-bank leakage.
    pub mem: f64,
    /// Clock network (per-register standing cost, whole design).
    pub clock: f64,
    /// Submodules (their totals).
    pub subs: f64,
}

impl EnergyBreakdown {
    /// Total energy per iteration.
    pub fn total(&self) -> f64 {
        self.fu
            + self.reg
            + self.mux
            + self.wire
            + self.controller
            + self.mem
            + self.clock
            + self.subs
    }

    /// Raw whole-simulation totals → per-iteration averages. `clock` is
    /// not accumulated over the simulation and is left as it is.
    pub(crate) fn per_iteration(mut self, iterations: f64) -> Self {
        self.fu /= iterations;
        self.reg /= iterations;
        self.mux /= iterations;
        self.wire /= iterations;
        self.controller /= iterations;
        self.mem /= iterations;
        self.subs /= iterations;
        self
    }
}

/// A complete power estimate for a design at an operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerReport {
    /// Energy per iteration at the reference voltage.
    pub energy_breakdown: EnergyBreakdown,
    /// Energy per iteration at the operating voltage.
    pub energy_per_iteration: f64,
    /// Average power: energy / (sampling period × clock), in library
    /// energy-units per nanosecond.
    pub power: f64,
    /// The operating voltage used.
    pub vdd: f64,
}

/// Estimate the power of `module` on `traces` at the given operating point.
///
/// `sampling_period_cycles` is the iteration interval (the throughput
/// constraint); `clk_ns` the clock period at the operating voltage.
///
/// # Panics
///
/// Panics if traces are empty or their input count mismatches the design.
pub fn estimate(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    traces: &TraceSet,
    vdd: f64,
    clk_ns: f64,
    sampling_period_cycles: u32,
) -> PowerReport {
    estimate_walk(
        h,
        module,
        lib,
        traces,
        vdd,
        clk_ns,
        sampling_period_cycles,
        None,
    )
}

/// [`estimate`] with every resource priced at its certified width: Hamming
/// activity is masked to the width of the carrying resource (sign-extension
/// bits above a proven width cannot toggle in sized hardware), FU effective
/// capacitance scales with [`fu_scale`], the wire-length footprint uses
/// sized areas, and the clock network scales with `Σ (reg width / nominal)`.
///
/// Bit-exact with [`estimate`] when `widths` is [`ModuleWidths::uniform`].
///
/// # Panics
///
/// Panics if traces are empty or their input count mismatches the design.
#[allow(clippy::too_many_arguments)]
pub fn estimate_sized(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    traces: &TraceSet,
    vdd: f64,
    clk_ns: f64,
    sampling_period_cycles: u32,
    widths: &ModuleWidths,
) -> PowerReport {
    estimate_walk(
        h,
        module,
        lib,
        traces,
        vdd,
        clk_ns,
        sampling_period_cycles,
        Some(widths),
    )
}

/// The uncached estimate, nominal (`widths == None`) or sized.
#[allow(clippy::too_many_arguments)]
fn estimate_walk(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    traces: &TraceSet,
    vdd: f64,
    clk_ns: f64,
    sampling_period_cycles: u32,
    widths: Option<&ModuleWidths>,
) -> PowerReport {
    assert!(
        !traces.is_empty(),
        "power estimation needs at least one sample"
    );
    let sim = simulate(h, module, traces);
    let breakdown = instance_energy(
        h,
        module,
        lib,
        traces.width,
        &sim.streams,
        &sim.served,
        widths,
        None,
    );
    let effective_regs = match widths {
        None => module.total_reg_count() as f64,
        Some(w) => w.reg_width_factor_total(),
    };
    finish_estimate(
        lib,
        breakdown,
        traces.len() as f64,
        vdd,
        clk_ns,
        sampling_period_cycles,
        effective_regs,
    )
}

/// [`estimate`] through `cache`: every module instance is priced from the
/// value streams of the design's hierarchy, computed once per hierarchy
/// content and trace set, and each submodule instance's subtree energy is
/// memoized by its fingerprint and the call-tree nodes it serves. `fp` must
/// be the fingerprint tree of `module`. A binding with one instance serving
/// two calls of a stateful behavior (no engine move makes one) is priced
/// by [`estimate`] itself.
///
/// Bit-exact with [`estimate`]: the value streams yield the operands the
/// kernel would record, in the order it records them, and a memoized
/// subtree energy was computed from the same structure and the same
/// values, so every float matches the full recomputation.
///
/// # Panics
///
/// Panics if traces are empty or their input count mismatches the design.
#[allow(clippy::too_many_arguments)]
pub fn estimate_cached(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    traces: &TraceSet,
    vdd: f64,
    clk_ns: f64,
    sampling_period_cycles: u32,
    fp: &FpTree,
    cache: &mut SimCache,
) -> PowerReport {
    assert!(
        !traces.is_empty(),
        "power estimation needs at least one sample"
    );
    let Some((streams, memo, served)) = cache.streams(h, module, traces) else {
        return estimate(h, module, lib, traces, vdd, clk_ns, sampling_period_cycles);
    };
    let breakdown = instance_energy(
        h,
        module,
        lib,
        traces.width,
        streams,
        &served,
        None,
        Some((memo, fp)),
    );
    finish_estimate(
        lib,
        breakdown,
        traces.len() as f64,
        vdd,
        clk_ns,
        sampling_period_cycles,
        module.total_reg_count() as f64,
    )
}

/// Raw (un-normalized) energy of the instance `module`, serving `served`,
/// and its subtree across the whole simulation, at the reference voltage,
/// read from `streams`. Each submodule is sized by its own entry of
/// `widths.subs`. With a memo (`fp` the fingerprint tree of `module`), each
/// submodule subtree's energy is looked up by its fingerprint and served
/// nodes before it is priced, and remembered after; the memo holds nominal
/// energies, so it goes with `widths == None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn instance_energy(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    width: u32,
    streams: &Streams,
    served: &Served,
    widths: Option<&ModuleWidths>,
    mut memo: Option<(&mut EnergyMemo, &FpTree)>,
) -> EnergyBreakdown {
    let act = StreamActivity::new(h, module, &served.nodes, streams);
    let mut e = module_own_energy(h, module, lib, &act, width, widths);
    for (i, (sub, sub_served)) in module.subs().iter().zip(&served.subs).enumerate() {
        let sub_widths = widths.map(|w| &w.subs[i]);
        let price =
            |memo| instance_energy(h, sub, lib, width, streams, sub_served, sub_widths, memo);
        let sub_e = match &mut memo {
            None => price(None),
            Some((memo, fp)) => {
                let (sub_fp, nodes) = (&fp.subs[i], &sub_served.nodes);
                match memo.get(sub_fp.fp, nodes) {
                    Some(sub_e) => sub_e,
                    None => {
                        let sub_e = price(Some((&mut **memo, sub_fp)));
                        memo.insert(sub_fp.fp, nodes, sub_e);
                        sub_e
                    }
                }
            }
        };
        e.subs += sub_e.total();
    }
    e
}

/// Shared tail of every estimate: per-iteration normalization, the clock
/// network over `effective_regs` registers (the plain register count, or
/// `Σ (reg width / nominal)` when sized, so the network scales with the
/// bits actually clocked), voltage scaling.
fn finish_estimate(
    lib: &Library,
    breakdown: EnergyBreakdown,
    iterations: f64,
    vdd: f64,
    clk_ns: f64,
    sampling_period_cycles: u32,
    effective_regs: f64,
) -> PowerReport {
    let mut breakdown = breakdown.per_iteration(iterations);
    let period_ns = f64::from(sampling_period_cycles) * clk_ns;
    // Clock network: every register's clock pin toggles every cycle of the
    // sampling period, busy or not.
    breakdown.clock = effective_regs * period_ns * lib.register.clock_energy_per_ns;
    let energy_factor = lib.technology.energy_factor(vdd);
    let energy = breakdown.total() * energy_factor;
    PowerReport {
        energy_breakdown: breakdown,
        energy_per_iteration: energy,
        power: energy / period_ns,
        vdd,
    }
}

/// Mask for the low `bits` bits.
fn width_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Raw energy of one module's *own* resources (no submodules) across the
/// whole simulation — the attribution unit of the per-module report.
///
/// `widths` masks each resource's activity to its certified width and
/// scales FU capacitance by [`fu_scale`]; `None` prices everything at the
/// nominal `width`. Masks and scale factors are fixed per resource before
/// its event loop; at nominal every mask is the full-width mask and every
/// factor exactly `1.0`, so both cases share every float operation the
/// nominal figures depend on.
fn module_own_energy(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    act: &StreamActivity,
    width: u32,
    widths: Option<&ModuleWidths>,
) -> EnergyBreakdown {
    let mut e = EnergyBreakdown::default();
    let view = module.view();
    let ratio = |w: &ModuleWidths, bits: u32| f64::from(bits) / f64::from(w.nominal);
    // Average wire length grows with the module's footprint (≈ √area): a
    // sprawling datapath pays more capacitance per toggle. Uses the
    // FU+register area as the footprint proxy, at sized areas when sized (a
    // narrowed datapath is also physically smaller).
    let footprint: f64 = module
        .fus()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let t = lib.fu(f.fu_type);
            t.area() * widths.map_or(1.0, |w| fu_scale(t, w.fu_width(i), w.nominal))
        })
        .sum::<f64>()
        + (0..module.regs().len())
            .map(|i| widths.map_or(1.0, |w| ratio(w, w.reg_width(i))))
            .fold(0.0, |a, r| a + r)
            * lib.register.area;
    let wire_length = (footprint / 100.0).sqrt().max(1.0);
    let w = f64::from(width);
    // Activity is normalized by the *nominal* width throughout: a narrowed
    // bus toggles at most its own bits of the nominal wires. The quotient
    // `popcount / w` is tabulated for every popcount (at most 64), so each
    // pair reads exactly the value its own division would compute.
    let ham_of: [f64; 65] = std::array::from_fn(|k| f64::from(k as u32) / w);
    let ham = |a: i64, b: i64, mask: u64| -> f64 { ham_of[crate::hamming(a, b, mask) as usize] };
    let bus_mask = |bits: Option<u32>| width_mask(bits.map_or(width, |b| b.min(width)));

    // Spurious transitions multiply through chained combinational stages:
    // registered operands (depth 0) see clean activity. The multiplier
    // `(1 + glitch_factor)^min(depth, 8)` is tabulated too; `black_box`
    // keeps each exponent a runtime value, so the compiler cannot fold an
    // entry differently from the runtime `powi` a pair once called.
    let glitch_of: [f64; 9] =
        std::array::from_fn(|d| (1.0 + lib.glitch_factor).powi(std::hint::black_box(d as i32)));

    // Functional units: operand-transition activity × effective capacitance.
    for (i, fu) in module.fus().iter().enumerate() {
        let t = lib.fu(fu.fu_type);
        let id = hsyn_rtl::FuInstId::from_index(i);
        let (port_a, port_b) = (Sink::FuPort(id, 0), Sink::FuPort(id, 1));
        let mux_a = view.source_count(port_a) > 1;
        let mux_b = view.source_count(port_b) > 1;
        let mask_a = bus_mask(widths.map(|w| w.sink_width(port_a)));
        let mask_b = bus_mask(widths.map(|w| w.sink_width(port_b)));
        let cap = widths.map_or(1.0, |w| fu_scale(t, w.fu_width(i), w.nominal));
        let mut fu_energy = 0.0;
        let mut mux_energy = 0.0;
        let mut wire_energy = 0.0;
        let mut prev: Option<(i64, i64)> = None;
        act.each_fu_event(i, |a, b, depth| {
            if let Some((pa, pb)) = prev {
                let da = ham(pa, a, mask_a);
                let db = ham(pb, b, mask_b);
                let glitch = glitch_of[depth.min(8) as usize];
                let activity = (da + db) / 2.0 * glitch;
                fu_energy += activity * t.energy() * cap;
                if mux_a {
                    mux_energy += da * lib.mux.energy_per_access;
                }
                if mux_b {
                    mux_energy += db * lib.mux.energy_per_access;
                }
                wire_energy += (da + db) * glitch * lib.wire.energy_per_toggle * wire_length;
            }
            prev = Some((a, b));
        });
        e.fu += fu_energy;
        e.mux += mux_energy;
        e.wire += wire_energy;
    }

    // Registers: write-transition activity at the register's width.
    for i in 0..module.regs().len() {
        let mask = bus_mask(widths.map(|w| w.reg_width(i)));
        let mut reg_energy = 0.0;
        let mut prev: Option<i64> = None;
        act.each_reg_write(i, |v| {
            if let Some(p) = prev {
                reg_energy += ham(p, v, mask) * lib.register.energy_write;
            }
            prev = Some(v);
        });
        e.reg += reg_energy;
        e.wire += reg_energy / lib.register.energy_write.max(1e-12)
            * lib.wire.energy_per_toggle
            * 0.5
            * wire_length;
    }

    // Controller: active cycles × control bits (width-independent).
    let bits = control_bits(h, module) as f64;
    e.controller += act.busy_cycles as f64 * bits * lib.controller.energy_per_bit_cycle;

    // Memories: per-access dynamic energy plus standing bank leakage.
    e.mem += mem_energy(h, module, lib, act, width);
    e
}

/// Memory energy of one module instance: each access pays a read or write
/// cost scaled by the element width actually stored, and every *owned* bank
/// pays leakage for each controller-active cycle (an imported external
/// memory is the parent's hardware — the accessor pays only the access).
///
/// Independent of datapath sizing: the array stores `elem_width` bits
/// whatever the certified operand widths.
fn mem_energy(
    h: &Hierarchy,
    module: &RtlModule,
    lib: &Library,
    act: &StreamActivity,
    width: u32,
) -> f64 {
    let mut e = 0.0;
    for (bi, b) in module.behaviors().iter().enumerate() {
        let g = h.dfg(b.dfg);
        if g.mem_count() == 0 {
            continue;
        }
        let counts = &act.mem_accesses[bi];
        for (i, m) in g.mems() {
            let (loads, stores) = counts.get(i.index()).copied().unwrap_or((0, 0));
            let bits = f64::from(m.elem_width.min(width).max(1));
            e += loads as f64 * lib.memory.energy_read_per_bit * bits
                + stores as f64 * lib.memory.energy_write_per_bit * bits;
            if matches!(m.scope, hsyn_dfg::MemScope::Owned) {
                e += f64::from(m.banks.max(1))
                    * act.busy_cycles as f64
                    * lib.memory.leakage_per_bank_cycle;
            }
        }
    }
    e
}
