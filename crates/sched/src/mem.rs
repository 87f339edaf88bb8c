//! Scheduling under memory serialization: the program-order pairs and
//! per-bank port chains of [`hsyn_dfg::mem_serial_edges`] fed to
//! [`schedule`](crate::schedule) as ordering edges, exactly as the RTL
//! builder passes them.

use hsyn_dfg::{bank_assignment, mem_serial_edges, Dfg, NodeId, NodeKind};

mod tests {
    use super::*;
    use crate::{schedule, NodeDelay, SchedContext};
    use hsyn_dfg::{MemObject, Operation};

    fn ctx(period: Option<u32>) -> SchedContext {
        SchedContext::new(10.0, 1.0, period)
    }

    fn access_delay(g: &Dfg) -> impl FnMut(hsyn_dfg::NodeId) -> NodeDelay + '_ {
        move |n| match g.node(n).kind() {
            NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
            k if k.is_schedulable() => NodeDelay::Combinational { ns: 3.0 },
            _ => NodeDelay::Free,
        }
    }

    /// Four independent constant-address loads of one memory.
    fn four_loads(ports: u32, banks: u32) -> (Dfg, Vec<NodeId>) {
        let mut g = Dfg::new("ld4");
        let m = g.add_mem(
            MemObject::owned("a", 8, 16)
                .with_ports(ports)
                .with_banks(banks),
        );
        let mut loads = Vec::new();
        let mut prev: Option<hsyn_dfg::VarRef> = None;
        for i in 0..4 {
            let k = g.add_const(format!("k{i}"), i);
            let l = g.add_load(m, format!("l{i}"), k);
            loads.push(l.node);
            prev = Some(match prev {
                None => l,
                Some(p) => g.add_op(Operation::Add, format!("s{i}"), &[p, l]),
            });
        }
        g.add_output("y", prev.unwrap());
        (g, loads)
    }

    #[test]
    fn single_port_serializes_same_bank_accesses() {
        let (g, loads) = four_loads(1, 1);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        let mut starts: Vec<u32> = loads.iter().map(|&n| sched.time(n).start.cycle).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 1, 2, 3], "one access per cycle");
    }

    #[test]
    fn banking_recovers_parallelism() {
        // Addresses 0..4 over 2 banks: words {0,2} in bank 0, {1,3} in bank
        // 1 — two accesses per cycle even with single-ported banks.
        let (g, loads) = four_loads(1, 2);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        let mut starts: Vec<u32> = loads.iter().map(|&n| sched.time(n).start.cycle).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 0, 1, 1]);
    }

    #[test]
    fn dual_port_doubles_throughput() {
        let (g, loads) = four_loads(2, 1);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        let mut starts: Vec<u32> = loads.iter().map(|&n| sched.time(n).start.cycle).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 0, 1, 1]);
    }

    #[test]
    fn unknown_address_conflicts_with_every_bank() {
        let mut g = Dfg::new("unk");
        let m = g.add_mem(MemObject::owned("a", 8, 16).with_banks(2));
        let x = g.add_input("x");
        let k0 = g.add_const("k0", 0);
        let k1 = g.add_const("k1", 1);
        let l0 = g.add_load(m, "l0", k0);
        let l1 = g.add_load(m, "l1", k1);
        let lx = g.add_load(m, "lx", x);
        let s = g.add_op(Operation::Add, "s", &[l0, l1]);
        let s2 = g.add_op(Operation::Add, "s2", &[s, lx]);
        g.add_output("y", s2);
        assert_eq!(bank_assignment(&g)[lx.node.index()], None);
        let serial = mem_serial_edges(&g);
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        // l0 and l1 land in distinct banks (cycle 0); lx must wait for both.
        assert_eq!(sched.time(l0.node).start.cycle, 0);
        assert_eq!(sched.time(l1.node).start.cycle, 0);
        assert_eq!(sched.time(lx.node).start.cycle, 1);
    }

    #[test]
    fn program_order_pairs_serialize_store_then_load() {
        let mut g = Dfg::new("wr");
        let m = g.add_mem(MemObject::owned("a", 4, 16).with_ports(2));
        let x = g.add_input("x");
        let k = g.add_const("k", 0);
        let st = g.add_store(m, "st", k, x);
        let l = g.add_load(m, "l", k);
        g.add_output("y", l);
        let serial = mem_serial_edges(&g);
        assert!(serial.contains(&(st, l.node)), "write-before-read edge");
        let sched = schedule(&g, access_delay(&g), &serial, &ctx(None)).unwrap();
        // Dual-ported, but program order still forces the load after the
        // store releases its issue slot.
        assert!(sched.time(l.node).start.cycle > sched.time(st).start.cycle);
    }

    #[test]
    fn serial_edges_are_deterministic_and_deduped() {
        let (g, _) = four_loads(1, 2);
        let e1 = mem_serial_edges(&g);
        let e2 = mem_serial_edges(&g);
        assert_eq!(e1, e2);
        let mut d = e1.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), e1.len(), "no duplicate edges");
    }
}

mod review_probe {
    use super::*;
    use crate::{schedule, NodeDelay, SchedContext};
    use hsyn_dfg::{MemObject, Operation};

    #[test]
    fn deep_store_then_shallow_load() {
        let mut g = Dfg::new("probe");
        let m = g.add_mem(MemObject::owned("a", 4, 16));
        let x = g.add_input("x");
        let c1 = g.add_op(Operation::Add, "c1", &[x, x]);
        let c2 = g.add_op(Operation::Add, "c2", &[c1, c1]);
        let k = g.add_const("k", 0);
        let st = g.add_store(m, "st", k, c2);
        let l = g.add_load(m, "l", k);
        g.add_output("y", l);
        let serial = mem_serial_edges(&g);
        eprintln!("serial edges: {:?}", serial);
        assert!(serial.contains(&(st, l.node)), "program order st->l");
        assert!(
            !serial.contains(&(l.node, st)),
            "cyclic reverse edge present!"
        );
        let delay = |n: hsyn_dfg::NodeId| match g.node(n).kind() {
            NodeKind::Load { .. } | NodeKind::Store { .. } => NodeDelay::Pipelined { stages: 1 },
            k2 if k2.is_schedulable() => NodeDelay::Combinational { ns: 3.0 },
            _ => NodeDelay::Free,
        };
        let sched = schedule(&g, delay, &serial, &SchedContext::new(10.0, 1.0, None)).unwrap();
        assert!(sched.time(l.node).start.cycle > sched.time(st).start.cycle);
    }
}
