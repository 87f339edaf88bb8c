//! Randomized property tests on the scheduler: on random DAGs with random
//! delays and random resource serializations, schedules must respect data
//! dependencies, serialization, chaining capacity, and slack bounds.
//! Cases are generated from a fixed seed, so failures reproduce exactly;
//! set `HSYN_PROP_CASES` to widen the sweep locally.

use hsyn_dfg::{Dfg, NodeId, Operation, VarRef};
use hsyn_sched::{alap_starts, derive_orderings, schedule, NodeDelay, SchedContext};
use hsyn_util::Rng;
use std::collections::HashMap;

const CLK: f64 = 10.0;
const OVH: f64 = 1.0;

fn cases() -> u64 {
    std::env::var("HSYN_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn arb_case(rng: &mut Rng) -> (Dfg, Vec<f64>, Vec<u8>) {
    let n_in = rng.range_usize(2, 5);
    let n_ops = rng.range_usize(2, 18);
    let seed = rng.next_u64();
    let mut g = Dfg::new("rand");
    let mut vars: Vec<VarRef> = (0..n_in).map(|i| g.add_input(format!("i{i}"))).collect();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut delays = vec![0.0f64; n_in];
    let mut groups = vec![0u8; n_in];
    for k in 0..n_ops {
        let a = vars[next() % vars.len()];
        let b = vars[next() % vars.len()];
        vars.push(g.add_op(Operation::Add, format!("n{k}"), &[a, b]));
        // Delays between 2 and 26 ns: chaining, single, multicycle.
        delays.push(2.0 + (next() % 25) as f64);
        groups.push((next() % 4) as u8);
    }
    g.add_output("y", *vars.last().unwrap());
    delays.push(0.0);
    groups.push(0);
    (g, delays, groups)
}

#[test]
fn schedules_respect_dependencies_and_serialization() {
    let mut rng = Rng::seed_from_u64(0x5C_01);
    for _ in 0..cases() {
        let (g, delays, groups) = arb_case(&mut rng);
        let delay_of = |n: NodeId| {
            if g.node(n).kind().is_schedulable() {
                NodeDelay::Combinational {
                    ns: delays[n.index()],
                }
            } else {
                NodeDelay::Free
            }
        };
        // Serialize ops sharing a pseudo-random group id.
        let prio = hsyn_sched::asap_priority(&g, |n| {
            if g.node(n).kind().is_schedulable() {
                1
            } else {
                0
            }
        });
        let serial = derive_orderings(
            group_lists(&g, |n| {
                g.node(n).kind().is_schedulable().then(|| groups[n.index()])
            }),
            &prio,
            |_| None,
        );
        let ctx = SchedContext::new(CLK, OVH, None);
        let sched = schedule(&g, delay_of, &serial, &ctx).expect("unconstrained schedules");

        // (1) Data dependencies: a consumer never starts before the
        //     producer's result is available.
        for (_, e) in g.edges() {
            if e.delay != 0 {
                continue;
            }
            if !g.node(e.to).kind().is_schedulable() {
                continue;
            }
            let p = sched.result_tick_of_port(e.from.node, e.from.port);
            let c = sched.time(e.to).start;
            assert!(
                c >= p,
                "consumer {} at {c} before producer result {p}",
                e.to
            );
        }
        // (2) Serialization: occupancy windows of serialized pairs are
        //     disjoint and ordered.
        for &(a, b) in &serial {
            let ta = sched.time(a);
            let tb = sched.time(b);
            assert!(
                tb.occupied.0 >= ta.occupied.1,
                "{a}->{b}: {:?} then {:?}",
                ta.occupied,
                tb.occupied
            );
        }
        // (3) Chaining capacity: results never exceed the usable window.
        for nid in g.node_ids() {
            let t = sched.time(nid);
            if !t.result.is_boundary() {
                assert!(t.result.ns <= ctx.usable_ns() + 1e-6);
            }
        }
        // (4) Makespan covers all activity.
        for nid in g.node_ids() {
            assert!(sched.time(nid).occupied.1 <= sched.makespan());
        }
    }
}

/// The ordering derivation as first written: hash the groups, then sort
/// them by their smallest member.
/// The node lists of the groups `assignment` forms, in key order.
fn group_lists(g: &Dfg, assignment: impl Fn(NodeId) -> Option<u8>) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); 256];
    for nid in g.node_ids() {
        if let Some(k) = assignment(nid) {
            groups[usize::from(k)].push(nid);
        }
    }
    groups
}

fn reference_orderings(
    g: &Dfg,
    assignment: impl Fn(NodeId) -> Option<u8>,
    priority: &[u64],
) -> Vec<(NodeId, NodeId)> {
    let mut groups: HashMap<u8, Vec<NodeId>> = HashMap::new();
    for nid in g.node_ids() {
        if let Some(k) = assignment(nid) {
            groups.entry(k).or_default().push(nid);
        }
    }
    let mut ordered: Vec<Vec<NodeId>> = groups.into_values().collect();
    ordered.sort_by_key(|grp| grp.iter().map(|n| n.index()).min().unwrap_or(0));
    let mut edges = Vec::new();
    for grp in &mut ordered {
        grp.sort_by_key(|n| (priority.get(n.index()).copied().unwrap_or(0), n.index()));
        for pair in grp.windows(2) {
            edges.push((pair[0], pair[1]));
        }
    }
    edges
}

#[test]
fn derive_orderings_matches_the_sorted_reference() {
    let mut rng = Rng::seed_from_u64(0x5C_01);
    for _ in 0..cases() {
        let (g, _, groups) = arb_case(&mut rng);
        let key = |n: NodeId| g.node(n).kind().is_schedulable().then(|| groups[n.index()]);
        let asap = hsyn_sched::asap_priority(&g, |n| u64::from(key(n).is_some()));
        // Reversed node order as a second priority: ties and inversions.
        let reversed: Vec<u64> = (0..g.node_count() as u64).rev().collect();
        for prio in [&asap, &reversed] {
            assert_eq!(
                derive_orderings(group_lists(&g, key), prio, |_| None),
                reference_orderings(&g, key, prio)
            );
        }
    }
}

#[test]
fn alap_windows_contain_the_schedule() {
    let mut rng = Rng::seed_from_u64(0x5C_02);
    for _ in 0..cases() {
        let (g, delays, _groups) = arb_case(&mut rng);
        let delay_of = |n: NodeId| {
            if g.node(n).kind().is_schedulable() {
                NodeDelay::Combinational {
                    ns: delays[n.index()],
                }
            } else {
                NodeDelay::Free
            }
        };
        let ctx0 = SchedContext::new(CLK, OVH, None);
        let sched0 = schedule(&g, delay_of, &[], &ctx0).expect("schedules");
        // Re-schedule under a deadline with slack.
        let deadline = sched0.makespan() + 4;
        let ctx = SchedContext::new(CLK, OVH, Some(deadline));
        let sched = schedule(&g, delay_of, &[], &ctx).expect("fits with slack");
        let alap = alap_starts(&g, &sched, &[], &ctx);
        for nid in g.node_ids() {
            assert!(
                alap[nid.index()] >= sched.time(nid).start.cycle,
                "ALAP window excludes the achieved schedule at {nid}"
            );
            assert!(alap[nid.index()] <= deadline);
        }
    }
}

#[test]
fn tighter_deadlines_never_extend_makespan() {
    let mut rng = Rng::seed_from_u64(0x5C_03);
    for _ in 0..cases() {
        let (g, delays, _groups) = arb_case(&mut rng);
        let delay_of = |n: NodeId| {
            if g.node(n).kind().is_schedulable() {
                NodeDelay::Combinational {
                    ns: delays[n.index()],
                }
            } else {
                NodeDelay::Free
            }
        };
        let free = schedule(&g, delay_of, &[], &SchedContext::new(CLK, OVH, None)).unwrap();
        let tight = schedule(
            &g,
            delay_of,
            &[],
            &SchedContext::new(CLK, OVH, Some(free.makespan())),
        );
        // ASAP scheduling is deadline-independent: exactly feasible.
        assert!(tight.is_ok());
        assert_eq!(tight.unwrap().makespan(), free.makespan());
    }
}
