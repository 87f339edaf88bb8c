use crate::profile::Profile;
use crate::sweep::{RankQueue, TopoOrder};
use crate::time::{max_tick, Tick};
use hsyn_dfg::{Dfg, EdgeId, NodeId, NodeKind};
use std::borrow::{Borrow, Cow};
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
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
/// This is [`schedule_from`] with nothing to start from.
///
/// # Errors
///
/// See [`SchedError`].
pub fn schedule<D: Borrow<NodeDelay>>(
    g: &Dfg,
    delay: impl FnMut(NodeId) -> D,
    serial: &[(NodeId, NodeId)],
    ctx: &SchedContext,
) -> Result<Schedule, SchedError> {
    schedule_from(g, delay, serial, ctx, None, &mut 0).map(|s| s.schedule)
}

/// What [`schedule_from`] reschedules from: the schedule of the same DFG,
/// under the same context, before some nodes' delays or serialization
/// predecessors changed.
#[derive(Clone, Copy, Debug)]
pub struct Reschedule<'p> {
    /// The schedule before the change.
    pub prev: &'p Schedule,
    /// The order that schedule was computed in (see
    /// [`Rescheduled::order`]).
    pub order: &'p TopoOrder,
    /// Every node whose delay changed, or which gained or lost a
    /// serialization predecessor. Repeats are harmless.
    pub dirty: &'p [NodeId],
}

/// A schedule and the order it was computed in.
#[derive(Clone, Debug)]
pub struct Rescheduled<'p> {
    /// The schedule.
    pub schedule: Schedule,
    /// A topological order of the data (delay 0) and serialization edges
    /// scheduled: what the next [`Reschedule`] starts from. Borrowed when
    /// it is the order rescheduled from.
    pub order: Cow<'p, TopoOrder>,
}

/// [`schedule`], optionally restarting from an earlier schedule of the same
/// DFG: only the forward cone of `from.dirty` is timed again, in
/// topological order, and a node whose time comes out unchanged does not
/// pass the visit on. `visited` counts the nodes timed (all of them from
/// scratch), failed passes included. The result equals a schedule from
/// scratch, error included:
///
/// * the earlier order is still topological for every edge both graphs
///   share, so only serialization edges it contradicts need a new order.
///   They all lie in one rank interval; any cycle of the new graph runs
///   through one of them and so stays inside that interval, where a Kahn
///   pass re-sorts the nodes or reports [`SchedError::Cycle`];
/// * a node's time depends only on its own delay and its predecessors'
///   times, so nodes outside the visited cone keep theirs;
/// * the output-deadline and sampling-period checks run over the final
///   times in the same order as from scratch;
/// * a [`SchedError::ProfileArity`] names the first offending node in the
///   order of a pass from scratch, so a reschedule that meets one runs
///   from scratch.
///
/// # Errors
///
/// See [`SchedError`].
pub fn schedule_from<'p, D: Borrow<NodeDelay>>(
    g: &Dfg,
    mut delay: impl FnMut(NodeId) -> D,
    serial: &[(NodeId, NodeId)],
    ctx: &SchedContext,
    from: Option<Reschedule<'p>>,
    visited: &mut u64,
) -> Result<Rescheduled<'p>, SchedError> {
    if let Some(r) = from.filter(|r| r.dirty.is_empty()) {
        return Ok(Rescheduled {
            schedule: r.prev.clone(),
            order: Cow::Borrowed(r.order),
        });
    }
    match sweep(g, &mut delay, serial, ctx, from, visited) {
        Err(SchedError::ProfileArity { .. }) if from.is_some() => {
            sweep(g, &mut delay, serial, ctx, None, visited)
        }
        out => out,
    }
}

/// A node time no pass has computed yet.
const UNTIMED: NodeTime = NodeTime {
    start: Tick { cycle: 0, ns: 0.0 },
    result: Tick { cycle: 0, ns: 0.0 },
    occupied: (0, 0),
};

/// The body of [`schedule_from`], without the fallback.
fn sweep<'p, D: Borrow<NodeDelay>>(
    g: &Dfg,
    delay: &mut impl FnMut(NodeId) -> D,
    serial: &[(NodeId, NodeId)],
    ctx: &SchedContext,
    from: Option<Reschedule<'p>>,
    visited: &mut u64,
) -> Result<Rescheduled<'p>, SchedError> {
    let usable = ctx.usable_ns();
    if usable <= 0.0 {
        return Err(SchedError::UnusableClock { clk_ns: ctx.clk_ns });
    }
    let n = g.node_count();
    let links = Links::new(n, serial);
    // Start from the earlier order, or from scratch from the DFG's cached
    // order of its data edges; either is topological for every data edge.
    let mut topo = match from {
        None => {
            let data = g.topo_order().map_err(|_| SchedError::Cycle)?;
            Cow::Owned(TopoOrder::new(data.to_vec()))
        }
        Some(r) => Cow::Borrowed(r.order),
    };
    let mut region: Option<(usize, usize)> = None;
    for &(a, b) in serial {
        let (ra, rb) = (topo.of(a), topo.of(b));
        if ra >= rb {
            region = Some(region.map_or((rb, ra), |(lo, hi)| (lo.min(rb), hi.max(ra))));
        }
    }
    if let Some((lo, hi)) = region {
        resort(g, links.tables(), topo.to_mut(), lo, hi)?;
    }
    let mut table = TimeTable::new(n, from.map(|r| r.prev));
    let mut queue = match from {
        None => RankQueue::full(n),
        Some(r) => {
            let mut q = RankQueue::empty(n);
            for &d in r.dirty {
                q.push(topo.of(d));
            }
            q
        }
    };

    let adj = g.adj();
    while let Some(r) = queue.pop() {
        let nid = topo.order[r];
        *visited += 1;
        let (time, ports) = node_time(g, nid, delay(nid).borrow(), &table, &links, ctx)?;
        let i = nid.index();
        if from.is_some() {
            let (old, old_ports) = table.get(i);
            if same_time(old, &time) && *old_ports == ports {
                continue;
            }
            for &ei in adj.out_edge_indices(nid) {
                let e = g.edge(EdgeId::from_index(ei as usize));
                if e.delay == 0 {
                    queue.push(topo.of(e.to));
                }
            }
            links.each_succ(i, |b| queue.push(topo.rank[b] as usize));
        }
        table.set(i, time, ports);
    }

    // Deadline checks on primary outputs.
    let avail_final = |v: hsyn_dfg::VarRef| -> u32 {
        let (t, ports) = table.get(v.node.index());
        match ports {
            Some(pt) => pt
                .get(v.port as usize)
                .copied()
                .unwrap_or_else(|| t.result.ceil_cycle()),
            None => t.result.ceil_cycle(),
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
    let busiest = (0..n).map(|i| table.get(i).0.occupied.1).max().unwrap_or(0);
    makespan = makespan.max(busiest);
    if let Some(p) = ctx.sampling_period {
        if busiest > p {
            return Err(SchedError::DeadlineMissed {
                produced: busiest,
                deadline: p,
            });
        }
    }

    let (times, port_times) = table.into_vecs();
    Ok(Rescheduled {
        schedule: Schedule {
            times,
            port_times,
            makespan,
        },
        order: topo,
    })
}

/// The node times of a pass: those it computed, over the earlier
/// schedule's. A reschedule that fails copies nothing; from scratch,
/// every node is computed before it is read.
struct TimeTable<'p> {
    prev: Option<&'p Schedule>,
    /// Rescheduling: each node's entry in `times`, [`TimeTable::PREV`] for
    /// the earlier schedule's. From scratch: empty, `times` is by node.
    slot: Vec<u32>,
    times: Vec<NodeTime>,
    ports: Vec<Option<Vec<u32>>>,
    /// Rescheduling: the node of each entry.
    nodes: Vec<u32>,
}

impl<'p> TimeTable<'p> {
    /// No entry: the earlier schedule's time.
    const PREV: u32 = u32::MAX;

    fn new(n: usize, prev: Option<&'p Schedule>) -> Self {
        let (slot, times, ports) = match prev {
            None => (Vec::new(), vec![UNTIMED; n], vec![None; n]),
            Some(_) => (vec![Self::PREV; n], Vec::new(), Vec::new()),
        };
        TimeTable {
            prev,
            slot,
            times,
            ports,
            nodes: Vec::new(),
        }
    }

    fn get(&self, i: usize) -> (&NodeTime, &Option<Vec<u32>>) {
        let k = match self.prev {
            None => i,
            Some(prev) if self.slot[i] == Self::PREV => {
                return (&prev.times[i], &prev.port_times[i]);
            }
            Some(_) => self.slot[i] as usize,
        };
        (&self.times[k], &self.ports[k])
    }

    fn set(&mut self, i: usize, time: NodeTime, ports: Option<Vec<u32>>) {
        let k = match self.prev {
            None => i,
            Some(_) if self.slot[i] == Self::PREV => {
                self.slot[i] = self.times.len() as u32;
                self.times.push(time);
                self.ports.push(ports);
                self.nodes.push(i as u32);
                return;
            }
            Some(_) => self.slot[i] as usize,
        };
        self.times[k] = time;
        self.ports[k] = ports;
    }

    /// Every node's time and port times, in node order.
    fn into_vecs(self) -> (Vec<NodeTime>, Vec<Option<Vec<u32>>>) {
        let Some(prev) = self.prev else {
            return (self.times, self.ports);
        };
        let mut times = prev.times.clone();
        let mut port_times = prev.port_times.clone();
        for ((i, t), p) in self.nodes.into_iter().zip(self.times).zip(self.ports) {
            times[i as usize] = t;
            port_times[i as usize] = p;
        }
        (times, port_times)
    }
}

/// Whether two node times are the same, bit for bit.
fn same_time(a: &NodeTime, b: &NodeTime) -> bool {
    let tick = |x: Tick, y: Tick| x.cycle == y.cycle && x.ns.to_bits() == y.ns.to_bits();
    tick(a.start, b.start) && tick(a.result, b.result) && a.occupied == b.occupied
}

/// The time of `nid` (and, for a profiled node, its output-port cycles)
/// from its delay and its predecessors' times: data predecessors give the
/// operands' arrival, serialization predecessors `serial_pred` the cycle
/// the shared resource frees up.
fn node_time(
    g: &Dfg,
    nid: NodeId,
    node_delay: &NodeDelay,
    table: &TimeTable<'_>,
    links: &Links<'_>,
    ctx: &SchedContext,
) -> Result<(NodeTime, Option<Vec<u32>>), SchedError> {
    // Availability tick of the value on (producer, port).
    let avail = |v: hsyn_dfg::VarRef| -> Tick {
        let (p, ports) = table.get(v.node.index());
        match ports {
            Some(pt) => Tick::at_cycle(
                pt.get(v.port as usize)
                    .copied()
                    .unwrap_or_else(|| p.result.ceil_cycle()),
            ),
            None => p.result,
        }
    };
    let mut ready = Tick::zero();
    for (_, e) in g.in_edges(nid) {
        if e.delay == 0 {
            ready = max_tick(ready, avail(e.from));
        }
    }
    let mut floor = 0;
    links.each_pred(nid.index(), |a| {
        floor = floor.max(table.get(a).0.occupied.1)
    });

    let time = match node_delay {
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
        &NodeDelay::Combinational { ns } => {
            schedule_combinational(ready, floor, ns, ctx.usable_ns())
        }
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
                    avail(e.from).ceil_cycle()
                };
                arrivals.push(arr);
            }
            if g.adj().in_degree(nid) != in_arity {
                return Err(SchedError::ProfileArity { node: nid });
            }
            let start = profile.start_for(&arrivals).max(floor);
            let latency = profile.latency();
            let time = NodeTime {
                start: Tick::at_cycle(start),
                result: Tick::at_cycle(start + latency),
                occupied: (start, start + latency.max(1)),
            };
            return Ok((time, Some(profile.output_times(start))));
        }
    };
    Ok((time, None))
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

/// The serialization edges, looked up by node: by scanning the list while
/// the scans have read fewer edges than building [`SerialLinks`] costs
/// (a reschedule looks up few nodes), through the tables after that.
struct Links<'s> {
    serial: &'s [(NodeId, NodeId)],
    n: usize,
    tables: OnceCell<SerialLinks>,
    /// Edges read by scans so far.
    scanned: Cell<usize>,
}

impl<'s> Links<'s> {
    fn new(n: usize, serial: &'s [(NodeId, NodeId)]) -> Self {
        Links {
            serial,
            n,
            tables: OnceCell::new(),
            scanned: Cell::new(0),
        }
    }

    /// The tables, built now if they are not yet.
    fn tables(&self) -> &SerialLinks {
        self.tables
            .get_or_init(|| SerialLinks::new(self.n, self.serial))
    }

    /// The tables if a lookup should use them; otherwise the scan is
    /// counted and the caller scans.
    fn use_tables(&self) -> Option<&SerialLinks> {
        if self.tables.get().is_none() {
            let scanned = self.scanned.get() + self.serial.len();
            if scanned <= 4 * (self.n + self.serial.len()) {
                self.scanned.set(scanned);
                return None;
            }
        }
        Some(self.tables())
    }

    /// Call `f` with each serialization predecessor of `b`, in list order.
    fn each_pred(&self, b: usize, mut f: impl FnMut(usize)) {
        match self.use_tables() {
            Some(t) => t.pred(b).iter().for_each(|&a| f(a as usize)),
            None => self
                .serial
                .iter()
                .filter(|e| e.1.index() == b)
                .for_each(|e| f(e.0.index())),
        }
    }

    /// Call `f` with each serialization successor of `a`, in list order.
    fn each_succ(&self, a: usize, mut f: impl FnMut(usize)) {
        match self.use_tables() {
            Some(t) => t.succ(a).iter().for_each(|&b| f(b as usize)),
            None => self
                .serial
                .iter()
                .filter(|e| e.0.index() == a)
                .for_each(|e| f(e.1.index())),
        }
    }
}

/// The serialization edges in compressed-sparse-row form, both ways: node
/// `a`'s successors are the `b` of every `(a, b)` in the `serial` slice,
/// its predecessors the `a` of every `(a, a')`, each in slice order.
struct SerialLinks {
    succ: Csr,
    pred: Csr,
}

/// One direction of [`SerialLinks`]: `start[a]..start[a + 1]` bounds node
/// `a`'s slice of `to`.
struct Csr {
    start: Vec<u32>,
    to: Vec<u32>,
}

impl Csr {
    fn new(n: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut start = vec![0u32; n + 1];
        for (a, _) in pairs.clone() {
            start[a + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cur = start.clone();
        let mut to = vec![0u32; start[n] as usize];
        for (a, b) in pairs {
            let c = &mut cur[a];
            to[*c as usize] = b as u32;
            *c += 1;
        }
        Csr { start, to }
    }

    fn of(&self, a: usize) -> &[u32] {
        &self.to[self.start[a] as usize..self.start[a + 1] as usize]
    }
}

impl SerialLinks {
    fn new(n: usize, serial: &[(NodeId, NodeId)]) -> Self {
        SerialLinks {
            succ: Csr::new(n, serial.iter().map(|(a, b)| (a.index(), b.index()))),
            pred: Csr::new(n, serial.iter().map(|(a, b)| (b.index(), a.index()))),
        }
    }

    fn succ(&self, a: usize) -> &[u32] {
        self.succ.of(a)
    }

    fn pred(&self, b: usize) -> &[u32] {
        self.pred.of(b)
    }
}

/// Re-sort the nodes of ranks `lo..=hi` of `topo` topologically over data
/// edges (delay 0) plus serialization edges, by Kahn's algorithm restricted
/// to that interval (sources in their current order, data successors in
/// ascending edge-id order, then serialization successors in input order);
/// ranks outside it are kept.
///
/// Exact when every edge with an endpoint outside the interval already
/// runs forward in `topo`: a path can then neither leave the interval and
/// come back nor enter it from a later rank.
///
/// # Errors
///
/// [`SchedError::Cycle`] if the interval holds a cycle.
fn resort(
    g: &Dfg,
    links: &SerialLinks,
    topo: &mut TopoOrder,
    lo: usize,
    hi: usize,
) -> Result<(), SchedError> {
    let inside = |rank: &[u32], n: usize| (lo..=hi).contains(&(rank[n] as usize));
    let len = hi - lo + 1;
    let mut indeg = vec![0u32; len];
    for (d, &v) in indeg.iter_mut().zip(&topo.order[lo..=hi]) {
        let data = g
            .in_edges(v)
            .filter(|(_, e)| e.delay == 0 && inside(&topo.rank, e.from.node.index()))
            .count();
        let ser = links
            .pred(v.index())
            .iter()
            .filter(|&&a| inside(&topo.rank, a as usize))
            .count();
        *d = (data + ser) as u32;
    }
    let mut queue: VecDeque<NodeId> = (lo..=hi)
        .filter(|&r| indeg[r - lo] == 0)
        .map(|r| topo.order[r])
        .collect();
    let adj = g.adj();
    let mut sorted = Vec::with_capacity(len);
    while let Some(v) = queue.pop_front() {
        sorted.push(v);
        let data = adj.out_edge_indices(v).iter().filter_map(|&ei| {
            let e = g.edge(EdgeId::from_index(ei as usize));
            (e.delay == 0).then_some(e.to.index())
        });
        let ser = links.succ(v.index()).iter().map(|&b| b as usize);
        for w in data.chain(ser) {
            if inside(&topo.rank, w) {
                let d = &mut indeg[topo.rank[w] as usize - lo];
                *d -= 1;
                if *d == 0 {
                    queue.push_back(NodeId::from_index(w));
                }
            }
        }
    }
    if sorted.len() != len {
        return Err(SchedError::Cycle);
    }
    for (r, v) in (lo..).zip(sorted) {
        topo.order[r] = v;
        topo.rank[v.index()] = r as u32;
    }
    Ok(())
}
