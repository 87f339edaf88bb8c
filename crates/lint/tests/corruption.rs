//! Deliberately corrupt schedules, bindings, and netlists and assert the
//! exact rule code fires. Legal designs must stay diagnostic-free — the
//! paranoid mode of the synthesis engine depends on that.

use hsyn_dfg::{Dfg, DfgId, Hierarchy, NodeId, Operation, VarRef};
use hsyn_lib::papers::{table1_library, TABLE1_CLOCK_NS};
use hsyn_lib::Library;
use hsyn_lint::{
    error_count, lint_hierarchy, verify_design, verify_design_with, DesignView, LintConfig,
    RuleCode, Severity,
};
use hsyn_rtl::{build, BuildCtx, ModuleSpec, RtlModule};

fn lib() -> Library {
    table1_library()
}

fn ctx(lib: &Library) -> BuildCtx<'_> {
    BuildCtx::new(lib, TABLE1_CLOCK_NS, lib.technology.vref(), Some(100))
}

fn view<'a>(h: &'a Hierarchy, module: &'a RtlModule, lib: &'a Library) -> DesignView<'a> {
    DesignView {
        hierarchy: h,
        module,
        lib,
        vdd: lib.technology.vref(),
        clk_ns: TABLE1_CLOCK_NS,
        sampling_period: Some(100),
    }
}

fn dedicated_build(h: &Hierarchy, dfg: DfgId, lib: &Library, name: &str) -> RtlModule {
    let spec = ModuleSpec::dedicated(
        h,
        dfg,
        name,
        |_, op| lib.fastest_for(op).expect("op implementable"),
        |_, _| unreachable!("leaf graph"),
    );
    build(h, &spec, &ctx(lib)).expect("legal spec builds")
}

fn codes(diags: &[hsyn_lint::Diagnostic]) -> Vec<RuleCode> {
    diags.iter().map(|d| d.code).collect()
}

/// y = (a*b) + (c*d): two parallel multipliers feeding an adder.
fn sop() -> (Hierarchy, DfgId, NodeId, NodeId, NodeId) {
    let mut g = Dfg::new("sop");
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let d = g.add_input("d");
    let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
    let m2 = g.add_op(Operation::Mult, "m2", &[c, d]);
    let s = g.add_op(Operation::Add, "s", &[m1, m2]);
    g.add_output("y", s);
    let (m1, m2, s) = (m1.node, m2.node, s.node);
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    (h, id, m1, m2, s)
}

/// Two independent adds, scheduled concurrently on dedicated units.
fn parallel_adds() -> (Hierarchy, DfgId, NodeId, NodeId) {
    let mut g = Dfg::new("par");
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let d = g.add_input("d");
    let s1 = g.add_op(Operation::Add, "s1", &[a, b]);
    let s2 = g.add_op(Operation::Add, "s2", &[c, d]);
    g.add_output("y1", s1);
    g.add_output("y2", s2);
    let (s1, s2) = (s1.node, s2.node);
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    (h, id, s1, s2)
}

#[test]
fn legal_design_is_diagnostic_free() {
    let lib = lib();
    let (h, id, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let diags = verify_design(&view(&h, &module, &lib));
    assert!(diags.is_empty(), "clean design flagged: {diags:?}");
}

// --- DFG family ------------------------------------------------------------

#[test]
fn dfg001_dangling_edge() {
    let mut g = Dfg::new("bad");
    let a = g.add_input("a");
    let n = g.add_op_detached(Operation::Neg, "n");
    g.connect(a, n, 0, 0);
    // An edge whose source node does not exist.
    g.connect(VarRef::new(NodeId::from_index(99), 0), n, 0, 0);
    g.add_output("y", VarRef::new(n, 0));
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    let diags = lint_hierarchy(&h);
    assert!(codes(&diags).contains(&RuleCode::Dfg001), "{diags:?}");
}

#[test]
fn dfg002_undriven_port() {
    let mut g = Dfg::new("bad");
    let a = g.add_input("a");
    let n = g.add_op_detached(Operation::Add, "n");
    g.connect(a, n, 0, 0); // port 1 undriven
    g.add_output("y", VarRef::new(n, 0));
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    let diags = lint_hierarchy(&h);
    assert_eq!(codes(&diags), vec![RuleCode::Dfg002], "{diags:?}");
}

#[test]
fn dfg003_bad_source_port() {
    let mut g = Dfg::new("bad");
    let a = g.add_input("a");
    let n = g.add_op_detached(Operation::Neg, "n");
    g.connect(VarRef::new(a.node, 7), n, 0, 0); // inputs have one output port
    g.add_output("y", VarRef::new(n, 0));
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    let diags = lint_hierarchy(&h);
    assert!(codes(&diags).contains(&RuleCode::Dfg003), "{diags:?}");
}

#[test]
fn dfg004_combinational_cycle() {
    let mut g = Dfg::new("loop");
    let a = g.add_input("a");
    let n1 = g.add_op_detached(Operation::Add, "n1");
    let n2 = g.add_op_detached(Operation::Add, "n2");
    g.connect(a, n1, 0, 0);
    g.connect(VarRef::new(n2, 0), n1, 1, 0);
    g.connect(VarRef::new(n1, 0), n2, 0, 0);
    g.connect(a, n2, 1, 0);
    g.add_output("y", VarRef::new(n2, 0));
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    let diags = lint_hierarchy(&h);
    assert_eq!(codes(&diags), vec![RuleCode::Dfg004], "{diags:?}");
}

#[test]
fn dfg005_missing_top_and_collecting_all() {
    let h = Hierarchy::new();
    let diags = lint_hierarchy(&h);
    assert_eq!(codes(&diags), vec![RuleCode::Dfg005], "{diags:?}");
    assert_eq!(error_count(&diags), 1);
}

// --- SCH family ------------------------------------------------------------

/// Build against a relaxed twin graph (the data dependency is an
/// inter-iteration edge there), then point the behavior at the strict twin:
/// the schedule now violates the strict graph's precedence.
#[test]
fn sch002_data_precedence_violation() {
    let make = |delay: u32| {
        let mut g = Dfg::new(if delay == 0 { "strict" } else { "relaxed" });
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m = g.add_op(Operation::Mult, "m", &[a, b]);
        let s = g.add_op_detached(Operation::Add, "s");
        g.connect(m, s, 0, delay);
        g.connect(a, s, 1, 0);
        g.add_output("y", VarRef::new(s, 0));
        g
    };
    let mut h = Hierarchy::new();
    let strict = h.add_dfg(make(0));
    let relaxed = h.add_dfg(make(1));
    h.set_top(strict);

    let lib = lib();
    let module = dedicated_build(&h, relaxed, &lib, "twin");
    // Retarget the behavior at the strict twin without rescheduling.
    let mut behavior = module.behaviors()[0].clone();
    behavior.dfg = strict;
    let tampered = RtlModule::new(
        &h,
        "twin",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert!(codes(&diags).contains(&RuleCode::Sch002), "{diags:?}");
}

#[test]
fn sch003_serialization_violation() {
    let lib = lib();
    let (h, id, s1, s2) = parallel_adds();
    let module = dedicated_build(&h, id, &lib, "par");
    // Claim s1 and s2 were serialized on one resource; they overlap.
    let mut behavior = module.behaviors()[0].clone();
    behavior.serial.push((s1, s2));
    let tampered = RtlModule::new(
        &h,
        "par",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert_eq!(codes(&diags), vec![RuleCode::Sch003], "{diags:?}");
}

#[test]
fn sch004_sampling_deadline_exceeded() {
    let lib = lib();
    let (h, id, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let mut v = view(&h, &module, &lib);
    v.sampling_period = Some(1); // the multiplies alone need 3 cycles
    let diags = verify_design(&v);
    assert_eq!(codes(&diags), vec![RuleCode::Sch004], "{diags:?}");
}

#[test]
fn sch005_chaining_overflow() {
    let lib = lib();
    let (h, id, ..) = parallel_adds();
    let module = dedicated_build(&h, id, &lib, "par");
    // Lint against a shorter clock than the design was scheduled for: the
    // 3 ns adders no longer fit the 2 ns usable window.
    let mut v = view(&h, &module, &lib);
    v.clk_ns = lib.register.overhead_ns + 2.0;
    let diags = verify_design(&v);
    assert!(codes(&diags).contains(&RuleCode::Sch005), "{diags:?}");
    assert!(codes(&diags).iter().all(|&c| c == RuleCode::Sch005));
}

#[test]
fn sch001_schedule_graph_mismatch() {
    let lib = lib();
    let (h0, id0, ..) = sop();
    let module = dedicated_build(&h0, id0, &lib, "sop");
    // A hierarchy whose g0 has a different node count.
    let mut g = Dfg::new("other");
    let a = g.add_input("a");
    g.add_output("y", a);
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    let diags = verify_design(&view(&h, &module, &lib));
    assert!(codes(&diags).contains(&RuleCode::Sch001), "{diags:?}");
}

// --- RTL family ------------------------------------------------------------

#[test]
fn rtl001_missing_binding() {
    let lib = lib();
    let (h, id, m1, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let mut behavior = module.behaviors()[0].clone();
    assert!(
        behavior.binding.op_to_fu.remove(m1).is_some(),
        "m1 was bound"
    );
    assert_eq!(behavior.binding.op_to_fu.get(m1), None);
    let tampered = RtlModule::new(
        &h,
        "sop",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert!(codes(&diags).contains(&RuleCode::Rtl001), "{diags:?}");
}

#[test]
fn rtl002_fu_double_booked() {
    let lib = lib();
    let (h, id, s1, s2) = parallel_adds();
    let module = dedicated_build(&h, id, &lib, "par");
    // Rebind the second add onto the first add's unit: both run in cycle 0.
    let mut behavior = module.behaviors()[0].clone();
    let fu_of_s1 = behavior.binding.op_to_fu[&s1];
    assert!(behavior.binding.op_to_fu.insert(s2, fu_of_s1).is_some());
    let tampered = RtlModule::new(
        &h,
        "par",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert_eq!(codes(&diags), vec![RuleCode::Rtl002], "{diags:?}");
}

#[test]
fn rtl003_submodule_double_booked() {
    let lib = lib();
    // Callee: y = a + b.
    let mut h = Hierarchy::new();
    let mut callee = Dfg::new("leaf");
    let a = callee.add_input("a");
    let b = callee.add_input("b");
    let s = callee.add_op(Operation::Add, "s", &[a, b]);
    callee.add_output("y", s);
    let callee_id = h.add_dfg(callee);
    // Parent: two concurrent instantiations.
    let mut top = Dfg::new("top");
    let x = top.add_input("x");
    let y = top.add_input("y");
    let z = top.add_input("z");
    let w = top.add_input("w");
    let f1 = top.add_hier(callee_id, "f1", &[x, y]);
    let f2 = top.add_hier(callee_id, "f2", &[z, w]);
    let o1 = top.hier_out(f1, 0);
    let o2 = top.hier_out(f2, 0);
    top.add_output("o1", o1);
    top.add_output("o2", o2);
    let top_id = h.add_dfg(top);
    h.set_top(top_id);
    h.validate().expect("well-formed");

    let sub_module = dedicated_build(&h, callee_id, &lib, "leaf");
    let spec = ModuleSpec::dedicated(
        &h,
        top_id,
        "top",
        |_, op| lib.fastest_for(op).expect("implementable"),
        |_, _| sub_module.clone(),
    );
    let module = build(&h, &spec, &ctx(&lib)).expect("legal spec builds");
    let v = view(&h, &module, &lib);
    assert!(verify_design(&v).is_empty(), "clean hierarchical design");

    // Claim both hierarchical nodes run on submodule 0 concurrently.
    let mut behavior = module.behaviors()[0].clone();
    let sub_of_f1 = behavior.binding.hier_to_sub[&f1];
    assert!(behavior.binding.hier_to_sub.insert(f2, sub_of_f1).is_some());
    let tampered = RtlModule::new(
        &h,
        "top",
        module.fus().to_vec(),
        module.regs().to_vec(),
        module.subs().to_vec(),
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert_eq!(codes(&diags), vec![RuleCode::Rtl003], "{diags:?}");
}

#[test]
fn rtl004_undriven_mux_input() {
    let lib = lib();
    let (h, id, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let mut behavior = module.behaviors()[0].clone();
    // The smallest stored variable: the table iterates in ascending order.
    let (victim, _) = behavior
        .binding
        .var_to_reg
        .iter()
        .next()
        .expect("sop stores values");
    assert!(behavior.binding.var_to_reg.remove(victim).is_some());
    assert_eq!(behavior.binding.var_to_reg.get(victim), None);
    let tampered = RtlModule::new(
        &h,
        "sop",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert_eq!(codes(&diags), vec![RuleCode::Rtl004], "{diags:?}");
}

#[test]
fn rtl005_incompatible_fu() {
    let lib = lib();
    let (h, id, m1, _, s) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    // Swap the multiplier's and adder's instances.
    let mut behavior = module.behaviors()[0].clone();
    let fu_m = behavior.binding.op_to_fu[&m1];
    let fu_s = behavior.binding.op_to_fu[&s];
    assert_eq!(behavior.binding.op_to_fu.insert(m1, fu_s), Some(fu_m));
    assert_eq!(behavior.binding.op_to_fu.insert(s, fu_m), Some(fu_s));
    let tampered = RtlModule::new(
        &h,
        "sop",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert!(codes(&diags).contains(&RuleCode::Rtl005), "{diags:?}");
}

/// A unit whose type lies outside the library is RTL005, named by its id
/// (an instance name is derived from the library type, which cannot be
/// looked up); the double booking it also carries is RTL002 under the
/// same name. Neither check may index the library with the stray type.
#[test]
fn rtl005_fu_type_outside_the_library() {
    let lib = lib();
    let (h, id, m1, m2, _) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let mut behavior = module.behaviors()[0].clone();
    let fu = behavior.binding.op_to_fu[&m1];
    // Both multiplications, which the schedule runs concurrently, on one
    // unit of a type one past the library's last.
    behavior.binding.op_to_fu.insert(m2, fu);
    let mut wider = lib.clone();
    let stray = wider.add_fu(lib.fu(module.fu(fu).fu_type).clone());
    assert_eq!(stray.index(), lib.fu_count());
    let mut fus = module.fus().to_vec();
    fus[fu.index()].fu_type = stray;
    let tampered = RtlModule::new(
        &h,
        "sop",
        fus,
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    for code in [RuleCode::Rtl005, RuleCode::Rtl002] {
        let d = diags
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{code:?} missing: {diags:?}"));
        assert_eq!(
            d.location.instance.as_deref(),
            Some(fu.to_string().as_str())
        );
    }
}

#[test]
fn rtl007_register_lifetime_overlap() {
    let lib = lib();
    let (h, id, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    // Cram every stored value into register 0: the two concurrent
    // multiplier results collide.
    let mut behavior = module.behaviors()[0].clone();
    let r0 = hsyn_rtl::RegId::from_index(0);
    for r in behavior.binding.var_to_reg.regs_mut() {
        *r = r0;
    }
    let tampered = RtlModule::new(
        &h,
        "sop",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let diags = verify_design(&view(&h, &tampered, &lib));
    assert!(codes(&diags).contains(&RuleCode::Rtl007), "{diags:?}");
    assert!(codes(&diags).iter().all(|&c| c == RuleCode::Rtl007));
}

// --- PWR family ------------------------------------------------------------

/// A module priced against a hierarchy it was not built from: the twin
/// graph differs only in one constant address, so both loads now share one
/// address source and the stored mux count on the memory's address bus is
/// stale.
#[test]
fn rtl008_stale_datapath_view() {
    let lib = lib();
    let make = |second: i64| {
        let mut g = Dfg::new("twin_loads");
        let m = g.add_mem(hsyn_dfg::MemObject::owned("a", 4, 16));
        let k0 = g.add_const("k0", 0);
        let k1 = g.add_const("k1", second);
        let l0 = g.add_load(m, "l0", k0);
        let l1 = g.add_load(m, "l1", k1);
        let s = g.add_op(Operation::Add, "s", &[l0, l1]);
        g.add_output("y", s);
        let mut h = Hierarchy::new();
        let id = h.add_dfg(g);
        h.set_top(id);
        (h, id)
    };
    let (built_on, id) = make(1);
    let module = dedicated_build(&built_on, id, &lib, "twin");
    assert!(verify_design(&view(&built_on, &module, &lib)).is_empty());
    let (priced_on, _) = make(0);
    let diags = verify_design(&view(&priced_on, &module, &lib));
    assert_eq!(codes(&diags), vec![RuleCode::Rtl008], "{diags:?}");
    assert_eq!(diags[0].location.module.as_deref(), Some("twin"));
    assert!(
        diags[0].message.contains("stale datapath view"),
        "{diags:?}"
    );
}

#[test]
fn pwr001_vdd_out_of_range() {
    let lib = lib();
    let (h, id, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let mut v = view(&h, &module, &lib);
    v.vdd = 0.5; // below the 0.8 V threshold
    let diags = verify_design(&v);
    assert_eq!(codes(&diags), vec![RuleCode::Pwr001], "{diags:?}");
    assert_eq!(diags[0].severity, Severity::Error);

    v.vdd = lib.technology.vref() + 2.0; // above characterization
    let diags = verify_design(&v);
    assert_eq!(codes(&diags), vec![RuleCode::Pwr001], "{diags:?}");
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(error_count(&diags), 0);
}

#[test]
fn pwr002_clock_below_overhead() {
    let lib = lib();
    let (h, id, ..) = sop();
    let module = dedicated_build(&h, id, &lib, "sop");
    let mut v = view(&h, &module, &lib);
    v.clk_ns = lib.register.overhead_ns * 0.5;
    let diags = verify_design(&v);
    assert!(codes(&diags).contains(&RuleCode::Pwr002), "{diags:?}");
}

// --- Suppression -----------------------------------------------------------

#[test]
fn suppressed_rules_do_not_fire() {
    let lib = lib();
    let (h, id, s1, s2) = parallel_adds();
    let module = dedicated_build(&h, id, &lib, "par");
    let mut behavior = module.behaviors()[0].clone();
    behavior.serial.push((s1, s2));
    let tampered = RtlModule::new(
        &h,
        "par",
        module.fus().to_vec(),
        module.regs().to_vec(),
        vec![],
        vec![behavior],
    );
    let v = view(&h, &tampered, &lib);
    assert!(!verify_design(&v).is_empty());
    let cfg = LintConfig::new().allow(RuleCode::Sch003);
    assert!(verify_design_with(&v, &cfg).is_empty());
}
