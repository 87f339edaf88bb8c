//! Regenerate the paper's **Figure 3 / Table 2 / Example 3**: RTL
//! embedding. Two modules (`RTL1`, `RTL2`) implementing different DFGs are
//! merged into `NewRTL`; the component labeling and the area relation
//! (`max(a₁,a₂) ≤ a_new ≪ a₁+a₂`) are printed.
//!
//! ```text
//! cargo run --release -p hsyn-bench --bin embedding_table2
//! ```

use hsyn_rtl::{embed, module_area, netlist_text, papers::figure3_modules};

fn main() {
    let (h, rtl1, rtl2, lib) = figure3_modules();
    let merged = embed(&h, &rtl1, &rtl2, &lib, "NewRTL").expect("embeddable");

    let a1 = module_area(&h, &rtl1, &lib).total();
    let a2 = module_area(&h, &rtl2, &lib).total();
    let an = module_area(&h, &merged.module, &lib).total();

    println!("Example 3: mapping two distinct DFGs onto the same RTL module\n");
    println!("  area(RTL1)   = {a1:>8.2}");
    println!("  area(RTL2)   = {a2:>8.2}");
    println!("  area(NewRTL) = {an:>8.2}");
    println!(
        "  (paper: 57.94 / 53.89 / 61.67 — merged barely exceeds the larger input,\n   saving {:.1}% versus side-by-side implementation)\n",
        100.0 * (1.0 - an / (a1 + a2))
    );

    println!("Table 2: component labeling of NewRTL\n");
    println!("{:<10}{:<10}{:<10}", "NewRTL", "RTL1", "RTL2");
    for (i, _) in merged.module.fus().iter().enumerate() {
        let merged_name = format!("F{i}");
        let in_a = merged
            .maps
            .fu_a
            .iter()
            .position(|f| f.index() == i)
            .map(|j| rtl1.fus()[j].name(&lib))
            .unwrap_or_else(|| "-".into());
        let in_b = merged
            .maps
            .fu_b
            .iter()
            .position(|f| f.index() == i)
            .map(|j| rtl2.fus()[j].name(&lib))
            .unwrap_or_else(|| "-".into());
        println!("{merged_name:<10}{in_a:<10}{in_b:<10}");
    }
    for (i, _) in merged.module.regs().iter().enumerate() {
        let merged_name = format!("q{i}");
        let in_a = merged
            .maps
            .reg_a
            .iter()
            .position(|r| r.index() == i)
            .map(|j| format!("r{j}"))
            .unwrap_or_else(|| "-".into());
        let in_b = merged
            .maps
            .reg_b
            .iter()
            .position(|r| r.index() == i)
            .map(|j| format!("s{j}"))
            .unwrap_or_else(|| "-".into());
        println!("{merged_name:<10}{in_a:<10}{in_b:<10}");
    }

    println!("\nMerged module netlist:\n");
    println!("{}", netlist_text(&h, &merged.module, &lib));
}
