use crate::profile::Profile;
use crate::time::{max_tick, Tick};
use hsyn_dfg::{Dfg, EdgeId, NodeId, NodeKind};
use std::borrow::Borrow;
use std::fmt;

/// Timing behavior of one node, supplied by the binding layer.
#[derive(Clone, PartialEq, Debug)]
pub enum NodeDelay {
    /// Zero-time node (input, constant, output).
    Free,
    /// Single-stage combinational unit with the given propagation delay
    /// (already scaled to the operating voltage); eligible for chaining.
    Combinational {
        /// Propagation delay in nanoseconds.
        ns: f64,
    },
    /// Pipelined unit: starts on a cycle boundary, result `stages` cycles
    /// later, can accept a new operation every cycle.
    Pipelined {
        /// Pipeline depth in cycles.
        stages: u32,
    },
    /// A hierarchical node executed by an RTL module with the given profile;
    /// starts on a cycle boundary, outputs appear per the profile.
    Profiled(Profile),
}

/// Scheduling context: clock, register overhead, and the constraint set
/// (input arrival cycles, output deadlines, sampling period).
#[derive(Clone, Debug)]
pub struct SchedContext {
    /// Clock period in nanoseconds (at the operating voltage).
    pub clk_ns: f64,
    /// Register setup + clock-to-Q overhead per cycle, in nanoseconds.
    pub overhead_ns: f64,
    /// Arrival cycle of each primary input (`None` ⇒ all at cycle 0). Part
    /// of the paper's constraint set *C*; move *B* resynthesizes modules
    /// under relaxed versions of these.
    pub input_arrivals: Option<Vec<u32>>,
    /// Deadline cycle for each primary output (`None` ⇒ only the global
    /// sampling period applies).
    pub output_deadlines: Option<Vec<u32>>,
    /// Sampling period in cycles: every output must be produced by this
    /// cycle. `None` disables the check (used when probing minimal periods).
    pub sampling_period: Option<u32>,
}

impl SchedContext {
    /// A context with all inputs at cycle 0 and a sampling period.
    pub fn new(clk_ns: f64, overhead_ns: f64, sampling_period: Option<u32>) -> Self {
        SchedContext {
            clk_ns,
            overhead_ns,
            input_arrivals: None,
            output_deadlines: None,
            sampling_period,
        }
    }

    /// Usable combinational time per cycle.
    pub fn usable_ns(&self) -> f64 {
        self.clk_ns - self.overhead_ns
    }
}

/// Scheduled timing of one node.
#[derive(Clone, Debug)]
pub struct NodeTime {
    /// When execution begins.
    pub start: Tick,
    /// When the (last) result is available; chainable if mid-cycle.
    pub result: Tick,
    /// Cycles `[occupied.0, occupied.1)` during which the node holds its
    /// resource (issue slot only, for pipelined units).
    pub occupied: (u32, u32),
}

/// A complete schedule of one DFG.
#[derive(Clone, Debug)]
pub struct Schedule {
    times: Vec<NodeTime>,
    /// For profiled (hierarchical) nodes: the absolute production cycle of
    /// each output port.
    port_times: Vec<Option<Vec<u32>>>,
    makespan: u32,
}

impl Schedule {
    /// Timing of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from the scheduled DFG.
    pub fn time(&self, node: NodeId) -> &NodeTime {
        &self.times[node.index()]
    }

    /// The cycle from which `node`'s (last) result can be consumed at a
    /// register boundary (mid-cycle results round up).
    pub fn result_cycle(&self, node: NodeId) -> u32 {
        self.times[node.index()].result.ceil_cycle()
    }

    /// The cycle from which output `port` of `node` can be consumed. Equals
    /// [`Schedule::result_cycle`] for ordinary nodes; uses the module
    /// profile for hierarchical nodes.
    pub fn result_cycle_of_port(&self, node: NodeId, port: u16) -> u32 {
        match &self.port_times[node.index()] {
            Some(v) => v
                .get(port as usize)
                .copied()
                .unwrap_or_else(|| self.result_cycle(node)),
            None => self.result_cycle(node),
        }
    }

    /// The tick at which output `port` of `node` becomes available.
    pub fn result_tick_of_port(&self, node: NodeId, port: u16) -> Tick {
        match &self.port_times[node.index()] {
            Some(v) => Tick::at_cycle(
                v.get(port as usize)
                    .copied()
                    .unwrap_or_else(|| self.result_cycle(node)),
            ),
            None => self.times[node.index()].result,
        }
    }

    /// Completion cycle of the whole iteration.
    pub fn makespan(&self) -> u32 {
        self.makespan
    }

    /// Iterate over node timings in node-id order.
    pub fn times(&self) -> impl ExactSizeIterator<Item = &NodeTime> + '_ {
        self.times.iter()
    }

    /// Per-node output-port production cycles, in node-id order: `Some` for
    /// profiled (hierarchical) nodes, `None` for ordinary ones. Exposed so
    /// structural fingerprints can cover the full schedule.
    pub fn port_times(&self) -> &[Option<Vec<u32>>] {
        &self.port_times
    }
}

/// Why scheduling failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    /// The data-flow + serialization edge union is cyclic (an ordering
    /// conflicts with data dependencies).
    Cycle,
    /// An output missed its deadline, or activity ran past the sampling
    /// period.
    DeadlineMissed {
        /// Cycle the output is produced / activity ends.
        produced: u32,
        /// Cycle it was due.
        deadline: u32,
    },
    /// The clock period leaves no usable compute time.
    UnusableClock {
        /// The offending clock period.
        clk_ns: f64,
    },
    /// A [`NodeDelay::Profiled`] node's profile arity does not match the
    /// node's ports.
    ProfileArity {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Cycle => write!(f, "serialization conflicts with data dependencies"),
            SchedError::DeadlineMissed { produced, deadline } => {
                write!(f, "output produced in cycle {produced}, due {deadline}")
            }
            SchedError::UnusableClock { clk_ns } => {
                write!(f, "clock period {clk_ns} ns leaves no usable compute time")
            }
            SchedError::ProfileArity { node } => {
                write!(f, "profile arity mismatch at node {node}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Schedule `g` by longest path over the union of data-flow edges (delay 0)
/// and the supplied `serial` ordering edges (paper Section 4: "this ordering
/// imposes extra dependencies in the DFG, … scheduling of a node reduces to
/// the problem of finding the longest path from a primary input to the
/// node").
///
/// Chaining: a combinational node whose operands become available mid-cycle
/// starts immediately if its delay fits the remaining usable time;
/// otherwise it waits for the next boundary and multicycles if needed.
/// A `serial` edge `(a, b)` makes `b` start no earlier than the cycle in
/// which `a` releases the shared resource.
///
/// `delay` is asked once per node. It may return each node's delay by
/// value or borrow it from a table (`|n| &delays[n.index()]`), so a
/// [`NodeDelay::Profiled`] entry is read where it lies instead of being
/// copied on every call.
///
/// # Errors
///
/// See [`SchedError`].
pub fn schedule<D: Borrow<NodeDelay>>(
    g: &Dfg,
    mut delay: impl FnMut(NodeId) -> D,
    serial: &[(NodeId, NodeId)],
    ctx: &SchedContext,
) -> Result<Schedule, SchedError> {
    let usable = ctx.usable_ns();
    if usable <= 0.0 {
        return Err(SchedError::UnusableClock { clk_ns: ctx.clk_ns });
    }
    let n = g.node_count();
    // Serialization successors per node, built once for both the
    // topological sort and the floor-update loop below.
    let serial_succ = SerialSucc::new(n, serial);
    let order = combined_topo(g, &serial_succ)?;

    let mut serial_floor = vec![0u32; n];
    let mut times: Vec<Option<NodeTime>> = vec![None; n];
    let mut port_times: Vec<Option<Vec<u32>>> = vec![None; n];

    // Availability tick of the value on (producer, port).
    let avail = |times: &[Option<NodeTime>],
                 port_times: &[Option<Vec<u32>>],
                 v: hsyn_dfg::VarRef|
     -> Tick {
        let p = times[v.node.index()].as_ref().expect("topological order");
        match &port_times[v.node.index()] {
            Some(pt) => Tick::at_cycle(
                pt.get(v.port as usize)
                    .copied()
                    .unwrap_or_else(|| p.result.ceil_cycle()),
            ),
            None => p.result,
        }
    };

    for &nid in order.iter() {
        let mut ready = Tick::zero();
        for (_, e) in g.in_edges(nid) {
            if e.delay == 0 {
                ready = max_tick(ready, avail(&times, &port_times, e.from));
            }
        }
        let floor = serial_floor[nid.index()];

        let node_delay = delay(nid);
        let time = match node_delay.borrow() {
            NodeDelay::Free => {
                let t = match g.node(nid).kind() {
                    NodeKind::Input { index } => {
                        let arr = ctx
                            .input_arrivals
                            .as_ref()
                            .and_then(|v| v.get(*index).copied())
                            .unwrap_or(0);
                        Tick::at_cycle(arr)
                    }
                    NodeKind::Const { .. } => Tick::zero(),
                    _ => ready,
                };
                NodeTime {
                    start: t,
                    result: t,
                    occupied: (t.ceil_cycle(), t.ceil_cycle()),
                }
            }
            &NodeDelay::Combinational { ns } => schedule_combinational(ready, floor, ns, usable),
            &NodeDelay::Pipelined { stages } => {
                let sc = ready.ceil_cycle().max(floor);
                NodeTime {
                    start: Tick::at_cycle(sc),
                    result: Tick::at_cycle(sc + stages.max(1)),
                    occupied: (sc, sc + 1),
                }
            }
            NodeDelay::Profiled(profile) => {
                let in_arity = profile.input_count();
                let mut arrivals = Vec::with_capacity(in_arity);
                for port in 0..in_arity as u16 {
                    let e = match g.driver(nid, port) {
                        Some(e) => e,
                        None => return Err(SchedError::ProfileArity { node: nid }),
                    };
                    let arr = if e.delay > 0 {
                        0 // inter-iteration value: registered, ready at 0
                    } else {
                        avail(&times, &port_times, e.from).ceil_cycle()
                    };
                    arrivals.push(arr);
                }
                if g.adj().in_degree(nid) != in_arity {
                    return Err(SchedError::ProfileArity { node: nid });
                }
                let start = profile.start_for(&arrivals).max(floor);
                let latency = profile.latency();
                port_times[nid.index()] = Some(profile.output_times(start));
                NodeTime {
                    start: Tick::at_cycle(start),
                    result: Tick::at_cycle(start + latency),
                    occupied: (start, start + latency.max(1)),
                }
            }
        };

        let release = time.occupied.1;
        for &b in serial_succ.of(nid.index()) {
            let f = &mut serial_floor[b as usize];
            *f = (*f).max(release);
        }
        times[nid.index()] = Some(time);
    }

    let times: Vec<NodeTime> = times.into_iter().map(Option::unwrap).collect();

    // Deadline checks on primary outputs.
    let avail_final = |v: hsyn_dfg::VarRef| -> u32 {
        match &port_times[v.node.index()] {
            Some(pt) => pt
                .get(v.port as usize)
                .copied()
                .unwrap_or_else(|| times[v.node.index()].result.ceil_cycle()),
            None => times[v.node.index()].result.ceil_cycle(),
        }
    };
    let mut makespan = 0u32;
    for (i, &outp) in g.outputs().iter().enumerate() {
        let e = g.driver(outp, 0).expect("validated dfg");
        let produced = if e.delay > 0 { 0 } else { avail_final(e.from) };
        makespan = makespan.max(produced);
        let deadline = ctx
            .output_deadlines
            .as_ref()
            .and_then(|v| v.get(i).copied())
            .or(ctx.sampling_period);
        if let Some(d) = deadline {
            if produced > d {
                return Err(SchedError::DeadlineMissed {
                    produced,
                    deadline: d,
                });
            }
        }
    }
    // The sampling period also bounds all internal activity.
    let busiest = times.iter().map(|t| t.occupied.1).max().unwrap_or(0);
    makespan = makespan.max(busiest);
    if let Some(p) = ctx.sampling_period {
        if busiest > p {
            return Err(SchedError::DeadlineMissed {
                produced: busiest,
                deadline: p,
            });
        }
    }

    Ok(Schedule {
        times,
        port_times,
        makespan,
    })
}

/// Free-function convenience mirroring
/// [`Schedule::result_tick_of_port`], with an explicit profile override.
pub fn result_tick_of_port(
    sched: &Schedule,
    node: NodeId,
    port: u16,
    profile: Option<&Profile>,
) -> Tick {
    match profile {
        Some(p) => {
            let start = sched.time(node).start.cycle;
            Tick::at_cycle(start + p.outputs.get(port as usize).copied().unwrap_or(0))
        }
        None => sched.result_tick_of_port(node, port),
    }
}

fn schedule_combinational(ready: Tick, floor: u32, ns: f64, usable: f64) -> NodeTime {
    // Try to chain into the partial cycle the operands arrive in.
    if ready.cycle >= floor && !ready.is_boundary() && ready.ns + ns <= usable + 1e-9 {
        return NodeTime {
            start: ready,
            result: Tick {
                cycle: ready.cycle,
                ns: ready.ns + ns,
            },
            occupied: (ready.cycle, ready.cycle + 1),
        };
    }
    // Start at a boundary.
    let sc = ready.ceil_cycle().max(floor);
    if ns <= usable + 1e-9 {
        NodeTime {
            start: Tick::at_cycle(sc),
            result: Tick { cycle: sc, ns },
            occupied: (sc, sc + 1),
        }
    } else {
        let k = (ns / usable).ceil() as u32;
        NodeTime {
            start: Tick::at_cycle(sc),
            result: Tick::at_cycle(sc + k),
            occupied: (sc, sc + k),
        }
    }
}

/// Serialization successors in compressed-sparse-row form: node `a`'s
/// successors are the `b` of every `(a, b)` in the `serial` slice, in slice
/// order.
struct SerialSucc {
    /// `start[a]..start[a + 1]` bounds node `a`'s slice of `succ`.
    start: Vec<u32>,
    succ: Vec<u32>,
}

impl SerialSucc {
    fn new(n: usize, serial: &[(NodeId, NodeId)]) -> Self {
        let mut start = vec![0u32; n + 1];
        for &(a, _) in serial {
            start[a.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cur = start.clone();
        let mut succ = vec![0u32; serial.len()];
        for &(a, b) in serial {
            let c = &mut cur[a.index()];
            succ[*c as usize] = b.index() as u32;
            *c += 1;
        }
        SerialSucc { start, succ }
    }

    fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    fn of(&self, a: usize) -> &[u32] {
        &self.succ[self.start[a] as usize..self.start[a + 1] as usize]
    }
}

/// Topological order over data edges (delay 0) plus serialization edges.
///
/// Data-edge successors come straight from the graph's CSR
/// [`Adjacency`](hsyn_dfg::Adjacency); only the serialization overlay is
/// materialized. Successors are visited in a fixed order (data edges in
/// ascending edge-id order, then serial edges in input order), so the
/// resulting order — and every schedule built from it — is deterministic.
/// Without serialization edges this is exactly Kahn's order over the data
/// edges, which the graph caches ([`Dfg::topo_order`]).
fn combined_topo<'g>(
    g: &'g Dfg,
    serial_succ: &SerialSucc,
) -> Result<std::borrow::Cow<'g, [NodeId]>, SchedError> {
    if serial_succ.is_empty() {
        return g
            .topo_order()
            .map(std::borrow::Cow::Borrowed)
            .map_err(|_| SchedError::Cycle);
    }
    let n = g.node_count();
    let adj = g.adj();
    let mut indeg = vec![0usize; n];
    for (_, e) in g.edges() {
        if e.delay == 0 {
            indeg[e.to.index()] += 1;
        }
    }
    for &b in &serial_succ.succ {
        indeg[b as usize] += 1;
    }
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        let nid = NodeId::from_index(i);
        order.push(nid);
        for &ei in adj.out_edge_indices(nid) {
            let e = g.edge(EdgeId::from_index(ei as usize));
            if e.delay == 0 {
                let t = e.to.index();
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        for &t in serial_succ.of(i) {
            let t = t as usize;
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push_back(t);
            }
        }
    }
    if order.len() != n {
        return Err(SchedError::Cycle);
    }
    Ok(std::borrow::Cow::Owned(order))
}
