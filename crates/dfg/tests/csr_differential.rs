//! Differential sweep of the CSR adjacency arena against a linear scan of
//! the edge arena on fuzzer-generated DFGs and the flattened `dct`
//! benchmark: the `*_scan` functions below, written over the public
//! [`Dfg::edges`], are the executable specification, and [`Dfg::adj`] must
//! reproduce them edge for edge — including the first-edge-wins rule for
//! (illegal but representable) duplicate drivers and across cache-dropping
//! mutations. The zero-delay topological order cached with the adjacency
//! ([`Dfg::topo_order`]) is checked the same way against Kahn's algorithm
//! run on the linear scans.

use hsyn_dfg::{Dfg, Edge, EdgeId, NodeId, Operation, VarRef};

/// Edges entering `node`, in edge-id order: an O(E) filter of the arena.
fn in_edges_scan(g: &Dfg, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
    g.edges().filter(move |(_, e)| e.to == node)
}

/// Edges leaving any output port of `node`, in edge-id order.
fn out_edges_scan(g: &Dfg, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
    g.edges().filter(move |(_, e)| e.from.node == node)
}

/// The lowest-id edge driving input `port` of `node`.
fn driver_scan(g: &Dfg, node: NodeId, port: u16) -> Option<(EdgeId, &Edge)> {
    g.edges().find(|(_, e)| e.to == node && e.to_port == port)
}

/// SplitMix64 — deterministic, dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const OPS: [Operation; 9] = [
    Operation::Add,
    Operation::Sub,
    Operation::Mult,
    Operation::Lt,
    Operation::Shl,
    Operation::Shr,
    Operation::Neg,
    Operation::Max,
    Operation::Min,
];

/// A random graph: inputs, constants, detached ops wired with random
/// sources, random delays, occasional bogus source ports and duplicate
/// drivers (the adjacency must represent whatever the arena holds, legal
/// or not — validation is a different layer).
fn random_dfg(rng: &mut SplitMix64) -> Dfg {
    let mut g = Dfg::new("fuzz");
    let mut nodes: Vec<NodeId> = Vec::new();
    for i in 0..rng.below(4) + 1 {
        nodes.push(g.add_input(format!("x{i}")).node);
    }
    for i in 0..rng.below(3) {
        nodes.push(g.add_const(format!("c{i}"), rng.next() as i64 % 100).node);
    }
    let op_count = rng.below(20) + 2;
    for i in 0..op_count {
        let op = OPS[rng.below(OPS.len() as u64) as usize];
        let n = g.add_op_detached(op, format!("n{i}"));
        nodes.push(n);
        for port in 0..op.arity() as u16 {
            if rng.below(10) == 0 {
                continue; // leave the port undriven
            }
            let from = nodes[rng.below(nodes.len() as u64) as usize];
            let from_port = if rng.below(8) == 0 { 1 } else { 0 };
            let delay = if rng.below(4) == 0 {
                (rng.below(3) + 1) as u32
            } else {
                0
            };
            g.connect(VarRef::new(from, from_port), n, port, delay);
            // Occasionally double-drive the port: first edge must win.
            if rng.below(12) == 0 {
                let dup = nodes[rng.below(nodes.len() as u64) as usize];
                g.connect(VarRef::new(dup, 0), n, port, 0);
            }
        }
    }
    for i in 0..rng.below(3) + 1 {
        let from = nodes[rng.below(nodes.len() as u64) as usize];
        g.add_output(format!("y{i}"), VarRef::new(from, 0));
    }
    g
}

/// Every CSR accessor against its linear-scan specification, all nodes,
/// ports 0..8.
fn assert_csr_matches_scans(g: &Dfg) {
    let adj = g.adj();
    assert_eq!(adj.node_count(), g.node_count());
    for (n, _) in g.nodes() {
        let ins: Vec<u32> = in_edges_scan(g, n)
            .map(|(id, _)| id.index() as u32)
            .collect();
        assert_eq!(adj.in_edge_indices(n), &ins[..], "in-edges of {n}");
        assert!(g
            .in_edges(n)
            .map(|(id, _)| id.index() as u32)
            .eq(ins.iter().copied()));
        assert_eq!(adj.in_degree(n), ins.len());
        let outs: Vec<u32> = out_edges_scan(g, n)
            .map(|(id, _)| id.index() as u32)
            .collect();
        assert_eq!(adj.out_edge_indices(n), &outs[..], "out-edges of {n}");
        assert!(g
            .out_edges(n)
            .map(|(id, _)| id.index() as u32)
            .eq(outs.iter().copied()));
        assert_eq!(adj.out_degree(n), outs.len());
        for port in 0..8u16 {
            let scan = driver_scan(g, n, port).map(|(id, _)| id);
            assert_eq!(adj.driver_edge(n, port), scan, "driver of {n} port {port}");
            assert_eq!(
                g.driver(n, port).map(|e| (e.from, e.delay)),
                scan.map(|id| (g.edge(id).from, g.edge(id).delay)),
                "Dfg::driver of {n} port {port}"
            );
        }
    }
}

/// Kahn's algorithm over zero-delay edges from the linear scans: FIFO
/// queue seeded in node order, successors in ascending edge-id order.
/// `None` when the zero-delay subgraph is cyclic.
fn scan_kahn(g: &Dfg) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = g
        .node_ids()
        .map(|v| in_edges_scan(g, v).filter(|(_, e)| e.delay == 0).count())
        .collect();
    let mut queue: std::collections::VecDeque<NodeId> =
        g.node_ids().filter(|v| indeg[v.index()] == 0).collect();
    let mut order = Vec::new();
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (_, e) in out_edges_scan(g, v).filter(|(_, e)| e.delay == 0) {
            indeg[e.to.index()] -= 1;
            if indeg[e.to.index()] == 0 {
                queue.push_back(e.to);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// The cached order (asked twice: computed, then served from the cache)
/// and the owned copy both equal a fresh Kahn run.
fn assert_topo_matches_kahn(g: &Dfg) {
    let want = scan_kahn(g);
    for _ in 0..2 {
        assert_eq!(g.topo_order().ok().map(<[NodeId]>::to_vec), want);
    }
    assert_eq!(hsyn_dfg::analysis::topo_order(g).ok(), want);
}

#[test]
fn csr_matches_scans_on_random_graphs() {
    let mut rng = SplitMix64(0xD1FF_5EED);
    let mut cyclic = 0;
    for _ in 0..200 {
        let g = random_dfg(&mut rng);
        assert_csr_matches_scans(&g);
        assert_topo_matches_kahn(&g);
        cyclic += usize::from(g.topo_order().is_err());
    }
    assert!(cyclic > 0, "the sweep covers cyclic graphs");
}

/// The flattened dct benchmark: one fixed, realistic case beside the
/// random graphs.
#[test]
fn csr_matches_scans_on_flattened_dct() {
    let g = hsyn_dfg::benchmarks::dct().hierarchy.flatten();
    assert_eq!(g.node_count(), 200);
    assert_csr_matches_scans(&g);
    assert_topo_matches_kahn(&g);
}

#[test]
fn cached_topo_order_stays_an_error_on_a_cyclic_graph() {
    let mut g = Dfg::new("cyc");
    let a = g.add_input("a");
    let n1 = g.add_op_detached(Operation::Add, "n1");
    let n2 = g.add_op_detached(Operation::Neg, "n2");
    g.connect(a, n1, 0, 0);
    g.connect(VarRef::new(n2, 0), n1, 1, 0);
    g.connect(VarRef::new(n1, 0), n2, 0, 0);
    g.add_output("y", VarRef::new(n1, 0));
    for _ in 0..3 {
        assert!(g.topo_order().is_err());
        assert!(hsyn_dfg::analysis::asap(&g, |_| 1).is_err());
    }
    assert_topo_matches_kahn(&g);
    // Growing the graph drops the cached error with the adjacency; the
    // cycle is still there.
    let b = g.add_input("b");
    assert!(g.topo_order().is_err());
    g.add_output("z", b);
    assert_topo_matches_kahn(&g);
}

#[test]
fn duplicate_driver_resolves_to_first_edge() {
    let mut g = Dfg::new("dup");
    let a = g.add_input("a");
    let b = g.add_input("b");
    let n = g.add_op_detached(Operation::Neg, "n");
    g.connect(a, n, 0, 0);
    g.connect(b, n, 0, 0); // same port, later edge: must lose
    g.add_output("y", VarRef::new(n, 0));
    let (_, scan) = driver_scan(&g, n, 0).unwrap();
    assert_eq!(scan.from, a);
    let csr = g.adj().driver_edge(n, 0).unwrap();
    assert_eq!(csr, EdgeId::from_index(0));
    assert_eq!(g.edge(csr).from, a);
}

#[test]
fn csr_matches_scans_across_mutations() {
    // Grow a graph edge by edge, re-checking the (rebuilt) adjacency after
    // every mutation — the cache must never serve a stale arena.
    let mut rng = SplitMix64(42);
    let mut g = Dfg::new("grow");
    let x = g.add_input("x");
    let mut nodes = vec![x.node];
    for i in 0..40 {
        let op = OPS[rng.below(OPS.len() as u64) as usize];
        let n = g.add_op_detached(op, format!("n{i}"));
        assert_csr_matches_scans(&g);
        assert_topo_matches_kahn(&g);
        for port in 0..op.arity() as u16 {
            let from = nodes[rng.below(nodes.len() as u64) as usize];
            g.connect(VarRef::new(from, 0), n, port, rng.below(2) as u32);
            assert_csr_matches_scans(&g);
            assert_topo_matches_kahn(&g);
        }
        nodes.push(n);
    }
    g.add_output("y", VarRef::new(*nodes.last().unwrap(), 0));
    assert_csr_matches_scans(&g);
    assert_topo_matches_kahn(&g);
}
