//! Scheduling for the H-SYN reproduction.
//!
//! The paper's scheduler (Section 4): orderings for operations sharing a
//! resource are imposed as extra dependency edges, after which "scheduling
//! of a node reduces to the problem of finding the longest path from a
//! primary input to the node". This crate implements that longest-path
//! scheduler with:
//!
//! * **chaining** — combinational operations pack into one clock cycle when
//!   their summed delays fit the usable period;
//! * **multicycling** — slow units spread over several cycles;
//! * **pipelined units** — one issue per cycle, results `stages` later;
//! * **hierarchical nodes** — scheduled through module [`Profile`]s
//!   (Section 2), with the paper's `start = max(arrivalᵢ − profileᵢ)` rule;
//! * **loops** — inter-iteration (delayed) edges impose no intra-iteration
//!   precedence;
//! * **slack analysis** — [`alap_starts`], [`module_window`] and
//!   [`environment_of`] implement the constraint-derivation step feeding
//!   moves *A*/*B* of the synthesis engine.
//!
//! Scheduling `y = (a + b) + c` with 3 ns adders at a 10 ns clock
//! (1 ns register overhead) chains both adds into cycle 0:
//!
//! ```
//! use hsyn_dfg::{Dfg, Operation};
//! use hsyn_sched::{schedule, NodeDelay, SchedContext};
//!
//! let mut g = Dfg::new("chain");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let s1 = g.add_op(Operation::Add, "s1", &[a, b]);
//! let s2 = g.add_op(Operation::Add, "s2", &[s1, c]);
//! g.add_output("y", s2);
//!
//! let ctx = SchedContext::new(10.0, 1.0, Some(4)); // clk, overhead, deadline
//! let delay = |n| if g.node(n).kind().is_schedulable() {
//!     NodeDelay::Combinational { ns: 3.0 }
//! } else {
//!     NodeDelay::Free
//! };
//! let sched = schedule(&g, delay, &[], &ctx).expect("feasible");
//! assert_eq!(sched.time(s1.node).start.cycle, 0);
//! assert_eq!(sched.time(s2.node).start.cycle, 0); // chained: 3 + 3 ≤ 9 usable
//! assert_eq!(sched.makespan(), 1);
//! ```
//!
//! All per-node state is indexed by dense [`hsyn_dfg::NodeId`]s into flat
//! arrays, and dependence walks use the graph's CSR adjacency — see
//! DESIGN.md, "Data layout & arena invariants".

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod list;
#[cfg(test)]
mod mem;
mod ordering;
mod profile;
mod schedule;
mod slack;
mod sweep;
mod time;

pub use list::{list_schedule, ListSchedError, ListSchedule};
pub use ordering::{asap_priority, asap_priority_from, derive_orderings, Reprioritize};
pub use profile::{Environment, Profile};
pub use schedule::{
    result_tick_of_port, schedule, schedule_from, NodeDelay, NodeTime, Reschedule, Rescheduled,
    SchedContext, SchedError, Schedule,
};
pub use slack::{alap_starts, environment_of, module_window, ConstraintWindow};
pub use sweep::TopoOrder;
pub use time::{max_tick, Tick};

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn_dfg::{Dfg, NodeId, Operation, VarRef};

    const CLK: f64 = 10.0;
    const OVH: f64 = 1.0;

    fn ctx(period: Option<u32>) -> SchedContext {
        SchedContext::new(CLK, OVH, period)
    }

    /// y = (a + b) + c with configurable adder delay.
    fn chain3() -> (Dfg, NodeId, NodeId) {
        let mut g = Dfg::new("chain3");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let s1 = g.add_op(Operation::Add, "s1", &[a, b]);
        let s2 = g.add_op(Operation::Add, "s2", &[s1, c]);
        g.add_output("y", s2);
        (g, s1.node, s2.node)
    }

    fn comb(ns: f64) -> impl FnMut(NodeId) -> NodeDelay {
        move |_| NodeDelay::Combinational { ns }
    }

    /// One delay per node of `g`, the way a builder tabulates them: `node`
    /// executes `profile`, every other node takes `other`. Schedules borrow
    /// from the table (`|n| &delays[n.index()]`), copying no profile.
    fn delay_table(
        g: &Dfg,
        node: NodeId,
        profile: &Profile,
        other: impl Fn(NodeId) -> NodeDelay,
    ) -> Vec<NodeDelay> {
        g.nodes()
            .map(|(n, _)| {
                if n == node {
                    NodeDelay::Profiled(profile.clone())
                } else {
                    other(n)
                }
            })
            .collect()
    }

    fn delay_for(g: &Dfg, ns: f64) -> impl FnMut(NodeId) -> NodeDelay + '_ {
        move |n| {
            if g.node(n).kind().is_schedulable() {
                NodeDelay::Combinational { ns }
            } else {
                NodeDelay::Free
            }
        }
    }

    #[test]
    fn two_adders_chain_in_one_cycle() {
        let (g, s1, s2) = chain3();
        let sched = schedule(&g, delay_for(&g, 3.0), &[], &ctx(Some(12))).unwrap();
        assert_eq!(sched.time(s1).start.cycle, 0);
        assert_eq!(sched.time(s2).start.cycle, 0);
        assert!((sched.time(s2).result.ns - 6.0).abs() < 1e-9);
        assert_eq!(sched.makespan(), 1);
    }

    #[test]
    fn chain_breaks_when_cycle_is_full() {
        // 5 ns adders: 5 + 5 > 9 usable ⇒ second adder starts next cycle.
        let (g, s1, s2) = chain3();
        let sched = schedule(&g, delay_for(&g, 5.0), &[], &ctx(Some(12))).unwrap();
        assert_eq!(sched.time(s1).start.cycle, 0);
        assert_eq!(sched.time(s2).start.cycle, 1);
        assert_eq!(sched.makespan(), 2);
    }

    #[test]
    fn multicycle_operation_spans_cycles() {
        let mut g = Dfg::new("m");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m = g.add_op(Operation::Mult, "m", &[a, b]);
        g.add_output("y", m);
        // 25 ns over 9 ns usable ⇒ ceil(25/9) = 3 cycles.
        let sched = schedule(&g, delay_for(&g, 25.0), &[], &ctx(Some(12))).unwrap();
        assert_eq!(sched.time(m.node).occupied, (0, 3));
        assert_eq!(sched.result_cycle(m.node), 3);
    }

    #[test]
    fn no_chaining_into_multicycle_result() {
        // mult (25 ns) then add (3 ns): the add starts at the boundary after
        // the mult completes (cycle 3), then chains within cycle 3.
        let mut g = Dfg::new("mc");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m = g.add_op(Operation::Mult, "m", &[a, b]);
        let s = g.add_op(Operation::Add, "s", &[m, a]);
        g.add_output("y", s);
        let sched = schedule(
            &g,
            |n| match g.node(n).kind() {
                hsyn_dfg::NodeKind::Op(Operation::Mult) => NodeDelay::Combinational { ns: 25.0 },
                hsyn_dfg::NodeKind::Op(_) => NodeDelay::Combinational { ns: 3.0 },
                _ => NodeDelay::Free,
            },
            &[],
            &ctx(Some(12)),
        )
        .unwrap();
        assert_eq!(sched.time(s.node).start.cycle, 3);
        assert!(sched.time(s.node).start.is_boundary());
    }

    #[test]
    fn pipelined_unit_has_full_latency_but_short_occupancy() {
        let mut g = Dfg::new("p");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m = g.add_op(Operation::Mult, "m", &[a, b]);
        g.add_output("y", m);
        let sched = schedule(
            &g,
            |n| {
                if g.node(n).kind().is_schedulable() {
                    NodeDelay::Pipelined { stages: 2 }
                } else {
                    NodeDelay::Free
                }
            },
            &[],
            &ctx(Some(12)),
        )
        .unwrap();
        assert_eq!(sched.time(m.node).occupied, (0, 1));
        assert_eq!(sched.result_cycle(m.node), 2);
    }

    #[test]
    fn pipelined_units_issue_back_to_back() {
        // Two independent mults on one pipelined unit: second issues one
        // cycle later, not `stages` later.
        let mut g = Dfg::new("pp");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[a, b]);
        g.add_output("y1", m1);
        g.add_output("y2", m2);
        let serial = [(m1.node, m2.node)];
        let sched = schedule(
            &g,
            |n| {
                if g.node(n).kind().is_schedulable() {
                    NodeDelay::Pipelined { stages: 3 }
                } else {
                    NodeDelay::Free
                }
            },
            &serial,
            &ctx(Some(12)),
        )
        .unwrap();
        assert_eq!(sched.time(m1.node).start.cycle, 0);
        assert_eq!(sched.time(m2.node).start.cycle, 1);
        assert_eq!(sched.result_cycle(m2.node), 4);
    }

    #[test]
    fn serialization_delays_second_op() {
        let mut g = Dfg::new("s");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[a, b]);
        g.add_output("y1", m1);
        g.add_output("y2", m2);
        let serial = [(m1.node, m2.node)];
        let sched = schedule(&g, delay_for(&g, 25.0), &serial, &ctx(Some(12))).unwrap();
        assert_eq!(sched.time(m1.node).occupied, (0, 3));
        assert_eq!(sched.time(m2.node).start.cycle, 3);
        let free = schedule(&g, delay_for(&g, 25.0), &[], &ctx(Some(12))).unwrap();
        assert_eq!(free.time(m2.node).start.cycle, 0);
    }

    #[test]
    fn conflicting_ordering_is_a_cycle_error() {
        let (g, s1, s2) = chain3();
        let serial = [(s2, s1)];
        assert_eq!(
            schedule(&g, delay_for(&g, 3.0), &serial, &ctx(Some(12))).unwrap_err(),
            SchedError::Cycle
        );
    }

    #[test]
    fn deadline_violation_reported() {
        let (g, _, _) = chain3();
        let err = schedule(&g, delay_for(&g, 5.0), &[], &ctx(Some(1))).unwrap_err();
        assert!(matches!(
            err,
            SchedError::DeadlineMissed {
                produced: 2,
                deadline: 1
            }
        ));
    }

    #[test]
    fn per_output_deadlines() {
        let (g, _, _) = chain3();
        let mut c = ctx(Some(10));
        c.output_deadlines = Some(vec![1]);
        assert!(schedule(&g, delay_for(&g, 5.0), &[], &c).is_err());
        c.output_deadlines = Some(vec![2]);
        assert!(schedule(&g, delay_for(&g, 5.0), &[], &c).is_ok());
    }

    #[test]
    fn input_arrival_times_respected() {
        let (g, s1, _) = chain3();
        let mut c = ctx(Some(12));
        c.input_arrivals = Some(vec![0, 4, 0]);
        let sched = schedule(&g, delay_for(&g, 3.0), &[], &c).unwrap();
        assert_eq!(sched.time(s1).start.cycle, 4);
    }

    #[test]
    fn profiled_node_follows_paper_rule() {
        // Example 1 numbers: profile {0,0,2,4,7}, inputs at 2,5,3,7 ⇒ start
        // 5, output at 12.
        let mut sub = Dfg::new("sub");
        let a = sub.add_input("a");
        let b = sub.add_input("b");
        let c0 = sub.add_input("c");
        let d = sub.add_input("d");
        let s = sub.add_op(Operation::Add, "s", &[a, b]);
        let s2 = sub.add_op(Operation::Add, "s2", &[s, c0]);
        let m = sub.add_op(Operation::Mult, "m", &[s2, d]);
        sub.add_output("o", m);
        let mut h = hsyn_dfg::Hierarchy::new();
        let sub_id = h.add_dfg(sub);
        let mut g = Dfg::new("h");
        let ins: Vec<VarRef> = (0..4).map(|i| g.add_input(format!("i{i}"))).collect();
        let node = g.add_hier(sub_id, "H", &[ins[0], ins[1], ins[2], ins[3]]);
        g.add_output("y", g.hier_out(node, 0));
        let mut c = ctx(Some(20));
        c.input_arrivals = Some(vec![2, 5, 3, 7]);
        let profile = Profile::new(vec![0, 0, 2, 4], vec![7]);
        let delays = delay_table(&g, node, &profile, |_| NodeDelay::Free);
        let sched = schedule(&g, |n| &delays[n.index()], &[], &c).unwrap();
        assert_eq!(sched.time(node).start.cycle, 5);
        let out = result_tick_of_port(&sched, node, 0, Some(&profile));
        assert_eq!(out.cycle, 12);
    }

    #[test]
    fn feedback_does_not_constrain_schedule() {
        let mut g = Dfg::new("acc");
        let x = g.add_input("x");
        let n = g.add_op_detached(Operation::Add, "acc");
        g.connect(x, n, 0, 0);
        g.connect(VarRef::new(n, 0), n, 1, 1);
        g.add_output("y", VarRef::new(n, 0));
        let sched = schedule(&g, delay_for(&g, 3.0), &[], &ctx(Some(4))).unwrap();
        assert_eq!(sched.time(n).start.cycle, 0);
    }

    #[test]
    fn unusable_clock_is_an_error() {
        let (g, _, _) = chain3();
        let c = SchedContext::new(0.5, 1.0, Some(10));
        assert!(matches!(
            schedule(&g, comb(3.0), &[], &c).unwrap_err(),
            SchedError::UnusableClock { .. }
        ));
    }

    // --- slack analysis ---

    #[test]
    fn alap_of_last_node_touches_deadline() {
        let (g, s1, s2) = chain3();
        let sched = schedule(&g, delay_for(&g, 5.0), &[], &ctx(Some(10))).unwrap();
        let alap = alap_starts(&g, &sched, &[], &ctx(Some(10)));
        assert_eq!(alap[s2.index()], 9);
        assert_eq!(alap[s1.index()], 8);
        assert!(alap[s1.index()] >= sched.time(s1).start.cycle);
    }

    #[test]
    fn module_window_matches_example_2_style_relaxation() {
        let mut sub = Dfg::new("sub");
        let i0 = sub.add_input("i");
        let neg = sub.add_op(Operation::Neg, "n", &[i0]);
        sub.add_output("o", neg);
        let mut h = hsyn_dfg::Hierarchy::new();
        let sub_id = h.add_dfg(sub);
        let mut g = Dfg::new("top");
        let a = g.add_input("a");
        let node = g.add_hier(sub_id, "H", &[a]);
        g.add_output("y", g.hier_out(node, 0));
        let profile = Profile::new(vec![0], vec![3]);
        let c = ctx(Some(12));
        let delays = delay_table(&g, node, &profile, |_| NodeDelay::Free);
        let sched = schedule(&g, |n| &delays[n.index()], &[], &c).unwrap();
        let alap = alap_starts(&g, &sched, &[], &c);
        let win = module_window(&g, &sched, &alap, &c, node);
        assert_eq!(win.input_arrivals, vec![0]);
        assert_eq!(win.output_deadlines, vec![12]);
        assert!(win
            .as_environment()
            .admits(&Profile::new(vec![0], vec![12])));
        assert!(!win
            .as_environment()
            .admits(&Profile::new(vec![0], vec![13])));
    }

    #[test]
    fn environment_reports_actual_consumption() {
        let mut sub = Dfg::new("sub");
        let i0 = sub.add_input("i");
        let neg = sub.add_op(Operation::Neg, "n", &[i0]);
        sub.add_output("o", neg);
        let mut h = hsyn_dfg::Hierarchy::new();
        let sub_id = h.add_dfg(sub);
        let mut g = Dfg::new("top");
        let a = g.add_input("a");
        let node = g.add_hier(sub_id, "H", &[a]);
        let s = g.add_op(Operation::Add, "s", &[g.hier_out(node, 0), a]);
        g.add_output("y", s);
        let profile = Profile::new(vec![0], vec![3]);
        let c = ctx(Some(12));
        let delays = delay_table(&g, node, &profile, |n| {
            if g.node(n).kind().is_schedulable() {
                NodeDelay::Combinational { ns: 3.0 }
            } else {
                NodeDelay::Free
            }
        });
        let sched = schedule(&g, |n| &delays[n.index()], &[], &c).unwrap();
        let env = environment_of(&g, &sched, node);
        assert_eq!(env.input_arrivals, vec![0]);
        // H starts at 0, its output appears at cycle 3 per the profile, and
        // the adder consumes it at cycle 3.
        assert_eq!(env.output_consumptions, vec![3]);
        assert_eq!(sched.time(s.node).start.cycle, 3);
    }

    // --- ordering derivation ---

    #[test]
    fn orderings_group_by_assignment_and_priority() {
        let mut g = Dfg::new("o");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m1 = g.add_op(Operation::Mult, "m1", &[a, b]);
        let m2 = g.add_op(Operation::Mult, "m2", &[m1, b]);
        let m3 = g.add_op(Operation::Mult, "m3", &[a, b]);
        g.add_output("y", m2);
        g.add_output("z", m3);
        let prio = asap_priority(&g, |n| {
            if g.node(n).kind().is_schedulable() {
                1
            } else {
                0
            }
        });
        let shared: Vec<NodeId> = g
            .node_ids()
            .filter(|&n| g.node(n).kind().is_schedulable())
            .collect();
        let edges = derive_orderings([shared], &prio, |_| None);
        assert_eq!(edges.len(), 2);
        let last = edges.last().unwrap();
        assert_eq!(last.1, m2.node, "data-dependent op ordered last");
        let sched = schedule(&g, delay_for(&g, 8.0), &edges, &ctx(Some(10))).unwrap();
        assert!(sched.makespan() <= 10);
    }

    #[test]
    fn schedule_is_deterministic() {
        let (g, _, _) = chain3();
        let s1 = schedule(&g, delay_for(&g, 3.0), &[], &ctx(Some(12))).unwrap();
        let s2 = schedule(&g, delay_for(&g, 3.0), &[], &ctx(Some(12))).unwrap();
        for (a, b) in s1.times().zip(s2.times()) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.result, b.result);
        }
    }
}
