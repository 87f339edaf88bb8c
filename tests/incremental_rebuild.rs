//! Incremental rebuild is exact: a module rebuilt from its previous build
//! (the hint `ModuleState` relinks hand to `hsyn::rtl::build_ref`) equals
//! the same build from scratch — schedule, port times, makespan, serial
//! list, binding, profile, datapath view, and the `Result` itself, error
//! value included.
//!
//! Every move is applied with [`Relinks::check`] on, so each relink also
//! builds without its hint and panics on any difference. The designs are
//! every registry benchmark, flat and hierarchical, and random DFGs drawn
//! with `hsyn_util`'s SplitMix64 generator; on each, every selection,
//! sharing and splitting candidate is tried from the initial design and
//! after each step of a short seeded walk over valid moves. The sweeps
//! must meet candidates rejected by a deadline, and candidates rejected by
//! an ordering cycle through a memory serialization edge. A hint built
//! under another operating point or another arrival window must be
//! bypassed.

use hsyn::core::{
    apply_in_place, initial_solution, probe_min_latency, selection_candidates, sharing_candidates,
    splitting_candidates, ApplyError, DesignPoint, Move, Objective, OperatingPoint, Relinks,
    UndoLog,
};
use hsyn::dfg::{benchmarks, Dfg, Hierarchy, MemObject, Operation};
use hsyn::rtl::{build_ref, same_build, BuildError, ModuleLibrary, SpecRef};
use hsyn::sched::SchedError;
use hsyn_bench::benchmark_library;
use hsyn_util::Rng;

mod common;
use common::{arb_behavior, test_iters};

/// How the candidates of a sweep came out.
#[derive(Debug, Default)]
struct Tally {
    applied: u64,
    deadline: u64,
    cycle: u64,
    /// Cycles on a design whose DFGs carry memory serialization edges.
    memory_cycle: u64,
    other: u64,
}

/// Every selection, sharing and splitting candidate of `dp`, both
/// objectives' scores (the moves are the same; only their order differs).
fn candidates(dp: &DesignPoint, mlib: &ModuleLibrary) -> Vec<Move> {
    let mut out: Vec<Move> = Vec::new();
    for objective in [Objective::Area, Objective::Power] {
        let scored = selection_candidates(dp, mlib, objective, false)
            .into_iter()
            .chain(sharing_candidates(dp, mlib, objective))
            .chain(splitting_candidates(dp, mlib, objective));
        for (_, mv) in scored {
            if !out.contains(&mv) {
                out.push(mv);
            }
        }
    }
    out
}

/// Apply `mv` with every relink checked against the build from scratch.
fn apply_checked(
    dp: &mut DesignPoint,
    mv: &Move,
    mlib: &ModuleLibrary,
    log: &mut UndoLog,
) -> Result<(), ApplyError> {
    let mut relinks = Relinks {
        check: true,
        ..Relinks::default()
    };
    apply_in_place(dp, mv, mlib, &mut |_, _, _| None, log, &mut relinks).map(drop)
}

/// Try every candidate of `dp` (each rolled back), tallying the outcomes.
fn sweep(dp: &mut DesignPoint, mlib: &ModuleLibrary, tally: &mut Tally) {
    let has_memory = dp
        .hierarchy
        .dfgs()
        .any(|(_, g)| !g.mem_serial_edges().is_empty());
    for mv in candidates(dp, mlib) {
        let mut log = UndoLog::new();
        match apply_checked(dp, &mv, mlib, &mut log) {
            Ok(()) => {
                tally.applied += 1;
                log.rollback_all(dp);
            }
            Err(ApplyError::Build(BuildError::Sched(SchedError::DeadlineMissed { .. }))) => {
                tally.deadline += 1
            }
            Err(ApplyError::Build(BuildError::Sched(SchedError::Cycle))) => {
                tally.cycle += 1;
                tally.memory_cycle += u64::from(has_memory);
            }
            Err(_) => tally.other += 1,
        }
    }
}

/// Sweep the initial design, then walk `steps` seeded valid moves, sweeping
/// after each.
fn walk(mut dp: DesignPoint, mlib: &ModuleLibrary, steps: usize, seed: u64, tally: &mut Tally) {
    let mut rng = Rng::seed_from_u64(seed);
    sweep(&mut dp, mlib, tally);
    for _ in 0..steps {
        let mut moves = candidates(&dp, mlib);
        let mut stepped = false;
        while !moves.is_empty() {
            let mv = moves.swap_remove(rng.range_usize(0, moves.len()));
            let mut log = UndoLog::new();
            if apply_checked(&mut dp, &mv, mlib, &mut log).is_ok() {
                stepped = true;
                break;
            }
        }
        if !stepped {
            return;
        }
        sweep(&mut dp, mlib, tally);
    }
}

/// The design of `h` at `laxity` times its minimum sampling period, at the
/// reference supply and a 10 ns clock; `None` when it does not build.
fn design(h: &Hierarchy, mlib: &ModuleLibrary, laxity: f64) -> Option<DesignPoint> {
    let clk = 10.0;
    let min = probe_min_latency(h, mlib, clk).ok()?;
    let vdd = mlib.simple.technology.vref();
    let op = OperatingPoint::derive(&mlib.simple, vdd, clk, f64::from(min) * clk * laxity);
    let top = initial_solution(h, mlib, &op).ok()?;
    Some(DesignPoint {
        hierarchy: h.clone(),
        op,
        top,
    })
}

/// `h` flattened into a one-DFG hierarchy.
fn flattened(h: &Hierarchy) -> Hierarchy {
    let mut flat = Hierarchy::new();
    let top = flat.add_dfg(h.flatten());
    flat.set_top(top);
    flat
}

#[test]
fn hinted_builds_equal_builds_from_scratch_on_every_benchmark() {
    let steps = if cfg!(debug_assertions) { 1 } else { 3 };
    let mut tally = Tally::default();
    for bench in benchmarks::all() {
        if cfg!(debug_assertions) && !["lat", "matmul", "hier_paulin"].contains(&bench.name) {
            continue;
        }
        let mlib = benchmark_library(&bench);
        let flat_lib = ModuleLibrary::from_simple(mlib.simple.clone());
        for (h, lib) in [
            (bench.hierarchy.clone(), &mlib),
            (flattened(&bench.hierarchy), &flat_lib),
        ] {
            for laxity in [1.2, 2.2] {
                let Some(dp) = design(&h, lib, laxity) else {
                    continue;
                };
                walk(dp, lib, steps, 7, &mut tally);
            }
        }
    }
    println!("{tally:?}");
    assert!(tally.applied > 0, "{tally:?}");
    assert!(
        tally.deadline > 0,
        "no candidate failed by deadline: {tally:?}"
    );
}

/// A memory behavior where one multiplier shared by a deep product that is
/// stored and a shallow product of the value loaded back orders the
/// shallow one first (it has the lower priority), against the store→load
/// memory edge: the merge closes a cycle.
fn store_then_load() -> Hierarchy {
    let mut g = Dfg::new("store_then_load");
    let m = g.add_mem(MemObject::owned("m", 4, 16));
    let x: Vec<_> = (0..4).map(|i| g.add_input(format!("x{i}"))).collect();
    let p1 = g.add_op(Operation::Mult, "p1", &[x[0], x[1]]);
    let p2 = g.add_op(Operation::Mult, "p2", &[p1, x[2]]);
    let p3 = g.add_op(Operation::Mult, "p3", &[p2, x[3]]);
    let a0 = g.add_const("a0", 0);
    g.add_store(m, "st", a0, p3);
    let a1 = g.add_const("a1", 0);
    let loaded = g.add_load(m, "ld", a1);
    let y = g.add_op(Operation::Mult, "y", &[loaded, x[0]]);
    g.add_output("out", y);
    let mut h = Hierarchy::new();
    let top = h.add_dfg(g);
    h.set_top(top);
    h
}

#[test]
fn memory_edge_cycles_are_found_exactly() {
    let h = store_then_load();
    h.validate().expect("valid behavior");
    let mlib = ModuleLibrary::from_simple(hsyn::lib::papers::table1_library());
    let mut tally = Tally::default();
    for laxity in [1.5, 3.0] {
        let dp = design(&h, &mlib, laxity).expect("the parallel design builds");
        walk(dp, &mlib, 3, 11, &mut tally);
    }
    println!("{tally:?}");
    assert!(
        tally.memory_cycle > 0,
        "no candidate failed by a cycle through the memory edge: {tally:?}"
    );
}

#[test]
fn hinted_builds_equal_builds_from_scratch_on_random_dfgs() {
    let mut rng = Rng::seed_from_u64(0x1C2E_B01D);
    let mlib = ModuleLibrary::from_simple(hsyn::lib::papers::table1_library());
    let mut tally = Tally::default();
    for case in 0..test_iters(24) {
        let mut h = Hierarchy::new();
        let top = h.add_dfg(arb_behavior(&mut rng));
        h.set_top(top);
        if h.validate().is_err() {
            continue;
        }
        let laxity = [1.0, 1.3, 2.0][case as usize % 3];
        let Some(dp) = design(&h, &mlib, laxity) else {
            continue;
        };
        walk(dp, &mlib, 3, case, &mut tally);
    }
    println!("{tally:?}");
    assert!(tally.applied > 0, "{tally:?}");
}

/// A hint built under another context must not be used: the hinted build
/// equals the build from scratch and times every node.
#[test]
fn a_changed_operating_point_or_window_bypasses_the_hint() {
    let bench = benchmarks::by_name("dct").expect("dct is registered");
    let h = flattened(&bench.hierarchy);
    let mlib = ModuleLibrary::from_simple(hsyn::lib::papers::table1_library());
    let dp = design(&h, &mlib, 2.2).expect("dct builds");
    let m = &dp.top;
    let spec = SpecRef {
        name: &m.core.name,
        dfg: m.core.dfg,
        fu_groups: &m.core.fu_groups,
        subs: Vec::new(),
        reg_policy: &m.core.reg_policy,
    };
    let lib = &mlib.simple;
    let nodes = h.dfg(m.core.dfg).node_count() as u64;
    let base = m.core.build_ctx(lib, &dp.op);

    // The hint's own context: nothing changed, nothing rescheduled.
    let mut timed = 0;
    let same = build_ref(&h, &spec, &base, Some(&m.built), &mut timed);
    assert_eq!(same_build(&same, &Ok(m.built.clone())), Ok(()));
    assert_eq!(timed, 0, "an unchanged spec reschedules nothing");

    let mut slower = base.clone();
    slower.clk_ns *= 1.5;
    let mut lower = base.clone();
    lower.vdd = 3.3;
    let mut later = base.clone();
    later.input_arrivals = Some(vec![1; h.dfg(m.core.dfg).input_count()]);
    let mut tighter = base.clone();
    tighter.sampling_period = base.sampling_period.map(|p| p - 1);
    let mut due = base.clone();
    due.output_deadlines = Some(vec![3; h.dfg(m.core.dfg).outputs().len()]);
    for ctx in [slower, lower, later, tighter, due] {
        let mut timed = 0;
        let hinted = build_ref(&h, &spec, &ctx, Some(&m.built), &mut timed);
        let fresh = build_ref(&h, &spec, &ctx, None, &mut 0);
        assert_eq!(same_build(&hinted, &fresh), Ok(()));
        if hinted.is_ok()
            || matches!(
                hinted,
                Err(BuildError::Sched(SchedError::DeadlineMissed { .. }))
            )
        {
            assert_eq!(timed, nodes, "a context change times every node");
        }
    }
}
