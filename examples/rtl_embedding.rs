//! RTL embedding (the paper's Example 3): make one RTL module execute two
//! *different* DFGs, preserving both schedules, at a fraction of the
//! side-by-side area.
//!
//! ```text
//! cargo run --release --example rtl_embedding
//! ```

use hsyn::rtl::{embed, module_area, papers::figure3_modules};

fn main() {
    let (h, rtl1, rtl2, lib) = figure3_modules();

    println!("RTL1 implements (a+b)*(c+d) - a*c  — 2 adders, 2 multipliers, 1 subtractor");
    println!("RTL2 implements ((a+b)*c + d)*a    — 2 adders, 2 multipliers\n");

    let merged = embed(&h, &rtl1, &rtl2, &lib, "NewRTL").expect("compatible modules");
    let a1 = module_area(&h, &rtl1, &lib).total();
    let a2 = module_area(&h, &rtl2, &lib).total();
    let an = module_area(&h, &merged.module, &lib).total();

    println!("area(RTL1)          = {a1:8.2}");
    println!("area(RTL2)          = {a2:8.2}");
    println!("area(RTL1 + RTL2)   = {:8.2}   (side by side)", a1 + a2);
    println!("area(NewRTL)        = {an:8.2}   (merged)");
    println!(
        "\nThe merged module costs {:.1}% of side-by-side hardware while still\nexecuting either behavior with its original, unaltered schedule.",
        100.0 * an / (a1 + a2)
    );

    println!("\nShared functional units:");
    for (i, fu) in merged.module.fus().iter().enumerate() {
        let from_a = merged.maps.fu_a.iter().any(|f| f.index() == i);
        let from_b = merged.maps.fu_b.iter().any(|f| f.index() == i);
        let tag = match (from_a, from_b) {
            (true, true) => "shared by RTL1 and RTL2",
            (true, false) => "RTL1 only",
            (false, true) => "RTL2 only",
            (false, false) => "unused",
        };
        println!("  F{i} ({}) — {tag}", fu.name(&lib));
    }
    println!(
        "\nBoth behaviors retained: {}",
        merged
            .module
            .behaviors()
            .iter()
            .map(|b| h.dfg(b.dfg).name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
