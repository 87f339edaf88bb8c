//! Human-readable structural netlist export — the "datapath netlist"
//! deliverable of the paper's flow, for inspection and debugging.

use crate::connect::{connectivity, Sink, Source};
use crate::cost::module_area;
use crate::instance::RegId;
use crate::module::RtlModule;
use hsyn_dfg::Hierarchy;
use hsyn_lib::Library;
use std::fmt::Write as _;

/// Render `module` (and its submodules, indented) as a structural netlist:
/// components, steering (mux) structure, and an area summary.
pub fn netlist_text(h: &Hierarchy, module: &RtlModule, lib: &Library) -> String {
    let mut out = String::new();
    render(h, module, lib, 0, &mut out);
    out
}

fn render(h: &Hierarchy, module: &RtlModule, lib: &Library, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let area = module_area(h, module, lib);
    let _ = writeln!(
        out,
        "{pad}module {} (area {:.1}: fu {:.1}, reg {:.1}, mux {:.1}, wire {:.1}, ctrl {:.1}, mem {:.1}, subs {:.1})",
        module.name(),
        area.total(),
        area.fu,
        area.reg,
        area.mux,
        area.wire,
        area.controller,
        area.mem,
        area.subs,
    );
    for (i, fu) in module.fus().iter().enumerate() {
        let t = lib.fu(fu.fu_type);
        let _ = writeln!(
            out,
            "{pad}  F{i} {} : {} (area {:.1}, {:.1} ns)",
            fu.name(lib),
            t.name(),
            t.area(),
            t.delay_ns()
        );
    }
    for i in 0..module.regs().len() {
        let r = RegId::from_index(i);
        let _ = writeln!(out, "{pad}  {r} {}", module.reg_name(r));
    }
    let conn = connectivity(h, module);
    for (sink, sources) in conn.sinks() {
        if sources.len() < 2 {
            continue;
        }
        let name = match sink {
            Sink::FuPort(f, p) => format!("F{}.{p}", f.index()),
            Sink::RegIn(r) => format!("R{}.d", r.index()),
            Sink::SubPort(s, p) => format!("M{}.{p}", s.index()),
            Sink::Output(i) => format!("out{i}"),
            Sink::MemAddr(m) => format!("mem{}.addr", m.index()),
            Sink::MemData(m) => format!("mem{}.wdata", m.index()),
        };
        let legs: Vec<String> = sources
            .iter()
            .map(|s| match s {
                Source::Fu(f) => format!("F{}", f.index()),
                Source::Sub(m, p) => format!("M{}.{p}", m.index()),
                Source::Reg(r) => format!("R{}", r.index()),
                Source::Const(v) => format!("#{v}"),
                Source::Input(i) => format!("in{i}"),
                Source::Mem(m) => format!("mem{}.rdata", m.index()),
            })
            .collect();
        let _ = writeln!(out, "{pad}  mux -> {name} [{}]", legs.join(", "));
    }
    for b in module.behaviors() {
        let _ = writeln!(
            out,
            "{pad}  behavior {} ({} cycles, profile {})",
            h.dfg(b.dfg).name(),
            b.schedule.makespan(),
            b.profile
        );
    }
    for sub in module.subs() {
        render(h, sub, lib, depth + 1, out);
    }
}
