use crate::csr::Adjacency;
use crate::hierarchy::DfgId;
use crate::mem::MemCache;
use crate::op::Operation;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node within one [`Dfg`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(u32);

impl NodeId {
    pub(crate) fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node count fits in u32"))
    }

    /// Position of the node in [`Dfg::nodes`] iteration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a node id from its dense index.
    ///
    /// Ids are dense insertion-order indices (`id.index()` round-trips), so
    /// analysis crates can keep per-node state in plain vectors. The caller
    /// is responsible for `index` referring to a node of the intended DFG.
    pub fn from_index(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a [`MemObject`] within one [`Dfg`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MemId(u32);

impl MemId {
    pub(crate) fn new(index: usize) -> Self {
        MemId(u32::try_from(index).expect("memory count fits in u32"))
    }

    /// Position of the memory in [`Dfg::mems`] iteration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a memory id from its dense index (see
    /// [`NodeId::from_index`]).
    pub fn from_index(index: usize) -> Self {
        MemId::new(index)
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Ownership of a memory relative to the DFG declaring it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemScope {
    /// The DFG owns the storage: one physical memory instance is
    /// materialized per RTL instantiation, state persisting across sample
    /// iterations.
    Owned,
    /// The memory is part of the DFG's call interface: every hierarchical
    /// node invoking this DFG must bind a compatible memory of the caller
    /// (its own, or in turn external). External memories of a DFG, in
    /// declaration order, form its memory interface.
    External,
}

/// A first-class memory of a DFG: an addressable array accessed through
/// [`NodeKind::Load`] / [`NodeKind::Store`] nodes.
///
/// `ports` and `banks` do not change behavioral semantics (state is one
/// flat array); they constrain scheduling (at most `ports` same-bank
/// accesses may issue per cycle) and drive the area/power pricing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemObject {
    /// Human-readable name.
    pub name: String,
    /// Number of addressable words. Addresses wrap modulo `words`.
    pub words: u32,
    /// Element width in bits; stored values are truncated to this width.
    pub elem_width: u32,
    /// Simultaneous same-bank accesses allowed per cycle.
    pub ports: u32,
    /// Bank count; word `w` lives in bank `w % banks`.
    pub banks: u32,
    /// Whether the DFG owns the storage or imports it from its caller.
    pub scope: MemScope,
}

impl MemObject {
    /// A single-ported, single-banked owned memory.
    pub fn owned(name: impl Into<String>, words: u32, elem_width: u32) -> Self {
        MemObject {
            name: name.into(),
            words,
            elem_width,
            ports: 1,
            banks: 1,
            scope: MemScope::Owned,
        }
    }

    /// A single-ported, single-banked external (interface) memory.
    pub fn external(name: impl Into<String>, words: u32, elem_width: u32) -> Self {
        MemObject {
            scope: MemScope::External,
            ..MemObject::owned(name, words, elem_width)
        }
    }

    /// Builder-style port count override.
    pub fn with_ports(mut self, ports: u32) -> Self {
        self.ports = ports;
        self
    }

    /// Builder-style bank count override.
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self
    }
}

/// Identifier of an edge within one [`Dfg`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EdgeId(u32);

impl EdgeId {
    pub(crate) fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge count fits in u32"))
    }

    /// Position of the edge in [`Dfg::edges`] iteration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an edge id from its dense index (see
    /// [`NodeId::from_index`]).
    pub fn from_index(index: usize) -> Self {
        EdgeId::new(index)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A value produced at an output port of a node: the paper's notion of a
/// *variable* (the things that get bound to registers).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarRef {
    /// Producing node.
    pub node: NodeId,
    /// Output port on the producing node.
    pub port: u16,
}

impl VarRef {
    /// A reference to output port `port` of `node`.
    pub fn new(node: NodeId, port: u16) -> Self {
        VarRef { node, port }
    }
}

impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.port)
    }
}

/// What a DFG node represents.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// Primary input number `index` of the DFG.
    Input {
        /// Zero-based input position.
        index: usize,
    },
    /// Primary output number `index` of the DFG (single input port).
    Output {
        /// Zero-based output position.
        index: usize,
    },
    /// A compile-time constant (coefficients etc.).
    Const {
        /// The constant value (interpreted at the datapath bit width).
        value: i64,
    },
    /// A primitive operation.
    Op(Operation),
    /// A memory read: input port 0 is the address, output port 0 the loaded
    /// value (available one cycle after issue, like a synchronous SRAM).
    Load {
        /// The memory read from.
        mem: MemId,
    },
    /// A memory write: input port 0 is the address, port 1 the data. Stores
    /// produce no value; ordering against other accesses of the same memory
    /// follows node insertion order (program order).
    Store {
        /// The memory written to.
        mem: MemId,
    },
    /// A hierarchical node: an invocation of another DFG in the hierarchy.
    Hier {
        /// The DFG this node invokes.
        callee: DfgId,
    },
}

impl NodeKind {
    /// `true` for [`NodeKind::Op`], [`NodeKind::Load`], [`NodeKind::Store`]
    /// and [`NodeKind::Hier`] — the nodes that consume schedule time and get
    /// bound to hardware.
    pub fn is_schedulable(&self) -> bool {
        matches!(
            self,
            NodeKind::Op(_)
                | NodeKind::Load { .. }
                | NodeKind::Store { .. }
                | NodeKind::Hier { .. }
        )
    }

    /// The memory this node accesses directly, if it is a load or store.
    pub fn mem_access(&self) -> Option<MemId> {
        match self {
            NodeKind::Load { mem } | NodeKind::Store { mem } => Some(*mem),
            _ => None,
        }
    }
}

/// A node of a [`Dfg`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node {
    kind: NodeKind,
    name: String,
    /// For hierarchical nodes: caller memories bound to the callee's
    /// external memories, in the callee's declaration order. Empty for
    /// every other node kind.
    mem_binds: Vec<MemId>,
}

impl Node {
    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Human-readable name (unique names are conventional, not enforced).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Caller memories bound to the callee's external memories (hierarchical
    /// nodes only; empty otherwise).
    pub fn mem_binds(&self) -> &[MemId] {
        &self.mem_binds
    }
}

/// A directed edge carrying the value at `from` to input port `to_port` of
/// node `to`, delayed by `delay` sample periods (`z^-delay`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Producing variable.
    pub from: VarRef,
    /// Consuming node.
    pub to: NodeId,
    /// Input port on the consuming node.
    pub to_port: u16,
    /// Inter-iteration delay in sample periods; 0 for ordinary data flow.
    pub delay: u32,
}

/// A single-level data-flow graph.
///
/// Nodes are added through the `add_*` methods, which connect operand edges
/// immediately; feedback (loop) edges are added afterwards through
/// [`Dfg::connect`] with a nonzero delay. Structural invariants (every input
/// port driven exactly once, zero-delay acyclicity, ...) are checked by
/// [`Hierarchy::validate`](crate::Hierarchy::validate) rather than on every
/// mutation, so graphs with feedback can be built incrementally.
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    mems: Vec<MemObject>,
    /// Lazily-built CSR adjacency (see [`Adjacency`]). Derived data: never
    /// compared, never cloned, dropped on any node/edge mutation.
    adj: OnceLock<Adjacency>,
    /// Lazily derived memory ordering and serialization edges (see
    /// [`crate::mem`]). Derived data like `adj`, but dropped on *every*
    /// mutation, bank reassignment included.
    mem: MemCache,
    /// Cached [`Dfg::content_hash`] of a graph without hierarchical nodes
    /// (see [`crate::hash`]). Derived data like `mem`, dropped by the same
    /// mutations; never compared, but kept by clones (equal content has an
    /// equal hash).
    hash: OnceLock<u64>,
}

impl Clone for Dfg {
    fn clone(&self) -> Self {
        // The adjacency is cheap to rebuild (O(V + E)) and clones are taken
        // on worker threads that may never query it; start clones cold.
        Dfg {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            mems: self.mems.clone(),
            adj: OnceLock::new(),
            mem: MemCache::default(),
            hash: self.hash.clone(),
        }
    }
}

impl PartialEq for Dfg {
    fn eq(&self, other: &Self) -> bool {
        // Semantic fields only; the adjacency cache is derived data.
        self.name == other.name
            && self.nodes == other.nodes
            && self.edges == other.edges
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.mems == other.mems
    }
}

impl fmt::Debug for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dfg")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("edges", &self.edges)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("mems", &self.mems)
            .finish()
    }
}

impl Dfg {
    /// Create an empty DFG called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            mems: Vec::new(),
            adj: OnceLock::new(),
            mem: MemCache::default(),
            hash: OnceLock::new(),
        }
    }

    /// The CSR adjacency of this graph, built on first use and cached until
    /// the next node/edge mutation (see [`Adjacency`] for the invariants).
    ///
    /// Retargeting a hierarchical node's callee does **not** drop the cache:
    /// it changes a node's kind, never an edge, so the adjacency stays valid
    /// through synthesis-move application and transactional rollback.
    pub fn adj(&self) -> &Adjacency {
        self.adj.get_or_init(|| Adjacency::build(self))
    }

    pub(crate) fn mem_cache(&self) -> &MemCache {
        &self.mem
    }

    pub(crate) fn hash_cache(&self) -> &OnceLock<u64> {
        &self.hash
    }

    /// Drop the derived data every content mutation invalidates: the memory
    /// facts and the content hash. (The adjacency is dropped separately,
    /// only by node and edge insertion.)
    fn content_changed(&mut self) {
        self.mem = MemCache::default();
        self.hash.take();
    }

    /// Topological order over zero-delay edges, computed on first use and
    /// cached with the adjacency (dropped with it on the next node/edge
    /// mutation). [`analysis::topo_order`](crate::analysis::topo_order)
    /// returns an owned copy of the same order.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`](crate::analysis::CycleError) if the
    /// zero-delay subgraph is cyclic.
    pub fn topo_order(&self) -> Result<&[NodeId], crate::analysis::CycleError> {
        self.adj().topo_order(self)
    }

    /// The DFG's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the DFG.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The input nodes, ordered by input index.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The output nodes, ordered by output index.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DFG.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Access an edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DFG.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterate over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterate over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// Iterate over `(id, node)` pairs.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// Iterate over `(id, edge)` pairs.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Edges entering `node` (any delay), in ascending edge-id order.
    ///
    /// Served from the cached [`Adjacency`]: O(in-degree), not O(E).
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.adj()
            .in_edge_indices(node)
            .iter()
            .map(move |&ei| (EdgeId::new(ei as usize), &self.edges[ei as usize]))
    }

    /// Edges leaving any output port of `node` (any delay), in ascending
    /// edge-id order. Served from the cached [`Adjacency`].
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.adj()
            .out_edge_indices(node)
            .iter()
            .map(move |&ei| (EdgeId::new(ei as usize), &self.edges[ei as usize]))
    }

    /// The edge driving input port `port` of `node`, if present — O(1) via
    /// the cached [`Adjacency`] driver table.
    pub fn driver(&self, node: NodeId, port: u16) -> Option<&Edge> {
        self.adj()
            .driver_edge(node, port)
            .map(|id| &self.edges[id.index()])
    }

    /// Number of memory objects.
    pub fn mem_count(&self) -> usize {
        self.mems.len()
    }

    /// Access a memory object.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this DFG.
    pub fn mem(&self, id: MemId) -> &MemObject {
        &self.mems[id.index()]
    }

    /// Iterate over `(id, memory)` pairs in declaration order.
    pub fn mems(&self) -> impl ExactSizeIterator<Item = (MemId, &MemObject)> + '_ {
        self.mems
            .iter()
            .enumerate()
            .map(|(i, m)| (MemId::new(i), m))
    }

    /// The DFG's memory interface: external memories in declaration order.
    /// Hierarchical nodes invoking this DFG bind one caller memory per entry.
    pub fn external_mems(&self) -> Vec<MemId> {
        self.mems()
            .filter(|(_, m)| m.scope == MemScope::External)
            .map(|(id, _)| id)
            .collect()
    }

    /// Declare a memory object; returns its id.
    pub fn add_mem(&mut self, mem: MemObject) -> MemId {
        self.content_changed();
        let id = MemId::new(self.mems.len());
        self.mems.push(mem);
        id
    }

    /// Set the bank count of memory `id`, returning the previous count —
    /// the undo record a transactional caller replays to reverse the
    /// reassignment. Banks affect scheduling and cost only, never behavior,
    /// so (like [`Dfg::replace_hier_callee`]) the adjacency cache survives;
    /// the memory cache drops, since the bank chains of
    /// [`Dfg::mem_serial_edges`] depend on the count.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this DFG or `banks` is 0.
    pub fn set_mem_banks(&mut self, id: MemId, banks: u32) -> u32 {
        assert!(banks >= 1, "memory needs at least one bank");
        self.content_changed();
        std::mem::replace(&mut self.mems[id.index()].banks, banks)
    }

    /// Add a load node reading `mem` at `addr`; returns the loaded variable.
    pub fn add_load(&mut self, mem: MemId, name: impl Into<String>, addr: VarRef) -> VarRef {
        let id = self.push_node(NodeKind::Load { mem }, name);
        self.connect(addr, id, 0, 0);
        VarRef::new(id, 0)
    }

    /// Add a store node writing `data` to `mem` at `addr`; returns the node.
    pub fn add_store(
        &mut self,
        mem: MemId,
        name: impl Into<String>,
        addr: VarRef,
        data: VarRef,
    ) -> NodeId {
        let id = self.push_node(NodeKind::Store { mem }, name);
        self.connect(addr, id, 0, 0);
        self.connect(data, id, 1, 0);
        id
    }

    /// Add a load node with *no* ports connected yet (used by the
    /// flattener); connect port 0 (address) later with [`Dfg::connect`].
    pub fn add_load_detached(&mut self, mem: MemId, name: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Load { mem }, name)
    }

    /// Add a store node with *no* ports connected yet (used by the
    /// flattener); connect port 0 (address) and port 1 (data) later with
    /// [`Dfg::connect`].
    pub fn add_store_detached(&mut self, mem: MemId, name: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Store { mem }, name)
    }

    /// Add a primary input; returns the variable it produces.
    pub fn add_input(&mut self, name: impl Into<String>) -> VarRef {
        let index = self.inputs.len();
        let id = self.push_node(NodeKind::Input { index }, name);
        self.inputs.push(id);
        VarRef::new(id, 0)
    }

    /// Add a constant node; returns the variable it produces.
    pub fn add_const(&mut self, name: impl Into<String>, value: i64) -> VarRef {
        let id = self.push_node(NodeKind::Const { value }, name);
        VarRef::new(id, 0)
    }

    /// Add an operation node with its operands connected (delay 0); returns
    /// the produced variable.
    ///
    /// # Panics
    ///
    /// Panics if `operands.len() != op.arity()`.
    pub fn add_op(
        &mut self,
        op: Operation,
        name: impl Into<String>,
        operands: &[VarRef],
    ) -> VarRef {
        assert_eq!(
            operands.len(),
            op.arity(),
            "operation {op} expects {} operands",
            op.arity()
        );
        let id = self.push_node(NodeKind::Op(op), name);
        for (port, &src) in operands.iter().enumerate() {
            self.connect(src, id, port as u16, 0);
        }
        VarRef::new(id, 0)
    }

    /// Add an operation node with *no* operands connected yet (used to build
    /// feedback loops); connect its ports later with [`Dfg::connect`].
    pub fn add_op_detached(&mut self, op: Operation, name: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Op(op), name)
    }

    /// Add a hierarchical node invoking `callee`, with all inputs connected
    /// (delay 0). Returns the node id; use [`Dfg::hier_out`] for its outputs.
    pub fn add_hier(
        &mut self,
        callee: DfgId,
        name: impl Into<String>,
        operands: &[VarRef],
    ) -> NodeId {
        self.add_hier_with_mems(callee, name, operands, &[])
    }

    /// [`add_hier`](Self::add_hier) binding caller memories to the callee's
    /// external memories (`mem_binds[i]` serves the callee's i-th external
    /// memory). Arity and compatibility are checked by
    /// [`Hierarchy::validate`](crate::Hierarchy::validate).
    pub fn add_hier_with_mems(
        &mut self,
        callee: DfgId,
        name: impl Into<String>,
        operands: &[VarRef],
        mem_binds: &[MemId],
    ) -> NodeId {
        let id = self.push_node(NodeKind::Hier { callee }, name);
        self.nodes[id.index()].mem_binds = mem_binds.to_vec();
        for (port, &src) in operands.iter().enumerate() {
            self.connect(src, id, port as u16, 0);
        }
        id
    }

    /// The variable produced at output `port` of hierarchical node `node`.
    ///
    /// Works for any node; provided for readability at hierarchical call
    /// sites, which are the only multi-output nodes.
    pub fn hier_out(&self, node: NodeId, port: u16) -> VarRef {
        VarRef::new(node, port)
    }

    /// Add a primary output consuming `src` (delay 0).
    pub fn add_output(&mut self, name: impl Into<String>, src: VarRef) -> NodeId {
        self.add_output_delayed(name, src, 0)
    }

    /// Add a primary output consuming `src` through a `delay`-sample delay.
    pub fn add_output_delayed(
        &mut self,
        name: impl Into<String>,
        src: VarRef,
        delay: u32,
    ) -> NodeId {
        let index = self.outputs.len();
        let id = self.push_node(NodeKind::Output { index }, name);
        self.outputs.push(id);
        self.connect(src, id, 0, delay);
        id
    }

    /// Redirect hierarchical node `node` to invoke `callee` instead — the
    /// paper's move *A* "can change the DFG representing a hierarchical
    /// node" when substituting a library module that implements an
    /// equivalent DFG. The new callee must have the same input/output
    /// arities (callers ensure this via declared equivalence classes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a hierarchical node.
    pub fn set_hier_callee(&mut self, node: NodeId, callee: DfgId) {
        self.replace_hier_callee(node, callee);
    }

    /// [`set_hier_callee`](Self::set_hier_callee) returning the callee the
    /// node invoked before — the undo record a transactional caller replays
    /// to reverse the retarget (`replace_hier_callee(node, old)`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a hierarchical node.
    pub fn replace_hier_callee(&mut self, node: NodeId, callee: DfgId) -> DfgId {
        self.content_changed();
        match &mut self.nodes[node.index()].kind {
            NodeKind::Hier { callee: c } => std::mem::replace(c, callee),
            other => panic!("set_hier_callee on non-hierarchical node {node} ({other:?})"),
        }
    }

    /// Connect `from` to input port `to_port` of `to`, delayed by `delay`
    /// sample periods. Feedback loops must use `delay >= 1`.
    pub fn connect(&mut self, from: VarRef, to: NodeId, to_port: u16, delay: u32) -> EdgeId {
        self.adj.take();
        self.content_changed();
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge {
            from,
            to,
            to_port,
            delay,
        });
        id
    }

    /// Number of input ports `node` has (requires the hierarchy only for
    /// hierarchical nodes, so callers pass a resolver).
    pub(crate) fn in_arity_with(
        &self,
        node: NodeId,
        hier_in_arity: impl Fn(DfgId) -> usize,
    ) -> usize {
        match self.node(node).kind() {
            NodeKind::Input { .. } | NodeKind::Const { .. } => 0,
            NodeKind::Output { .. } | NodeKind::Load { .. } => 1,
            NodeKind::Store { .. } => 2,
            NodeKind::Op(op) => op.arity(),
            NodeKind::Hier { callee } => hier_in_arity(*callee),
        }
    }

    /// Number of output ports `node` has.
    pub(crate) fn out_arity_with(
        &self,
        node: NodeId,
        hier_out_arity: impl Fn(DfgId) -> usize,
    ) -> usize {
        match self.node(node).kind() {
            NodeKind::Input { .. } | NodeKind::Const { .. } => 1,
            NodeKind::Output { .. } | NodeKind::Store { .. } => 0,
            NodeKind::Op(_) | NodeKind::Load { .. } => 1,
            NodeKind::Hier { callee } => hier_out_arity(*callee),
        }
    }

    /// Count of schedulable nodes (operations + hierarchical nodes).
    pub fn schedulable_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind().is_schedulable())
            .count()
    }

    fn push_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        self.adj.take();
        self.content_changed();
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node {
            kind,
            name: name.into(),
            mem_binds: Vec::new(),
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> Dfg {
        let mut g = Dfg::new("mac");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m = g.add_op(Operation::Mult, "m", &[a, b]);
        let s = g.add_op(Operation::Add, "s", &[m, c]);
        g.add_output("y", s);
        g
    }

    #[test]
    fn build_and_inspect() {
        let g = mac();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.input_count(), 3);
        assert_eq!(g.output_count(), 1);
        assert_eq!(g.schedulable_count(), 2);
    }

    #[test]
    fn drivers_and_adjacency() {
        let g = mac();
        let mult = g
            .nodes()
            .find(|(_, n)| n.name() == "m")
            .map(|(id, _)| id)
            .unwrap();
        let add = g
            .nodes()
            .find(|(_, n)| n.name() == "s")
            .map(|(id, _)| id)
            .unwrap();
        // mult has two in-edges from the inputs, one out-edge to the add.
        assert_eq!(g.in_edges(mult).count(), 2);
        assert_eq!(g.out_edges(mult).count(), 1);
        let drv = g.driver(add, 0).expect("port 0 driven");
        assert_eq!(drv.from.node, mult);
        assert!(g.driver(add, 7).is_none());
    }

    #[test]
    fn feedback_edges_carry_delay() {
        // y[n] = x[n] + y[n-1]
        let mut g = Dfg::new("acc");
        let x = g.add_input("x");
        let acc = g.add_op_detached(Operation::Add, "acc");
        g.connect(x, acc, 0, 0);
        g.connect(VarRef::new(acc, 0), acc, 1, 1);
        g.add_output("y", VarRef::new(acc, 0));
        let fb = g
            .edges()
            .find(|(_, e)| e.delay == 1)
            .map(|(_, e)| e.clone())
            .unwrap();
        assert_eq!(fb.from.node, acc);
        assert_eq!(fb.to, acc);
    }

    #[test]
    fn input_output_ordering_is_preserved() {
        let g = mac();
        let names: Vec<&str> = g.inputs().iter().map(|&id| g.node(id).name()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "expects 2 operands")]
    fn add_op_rejects_wrong_arity() {
        let mut g = Dfg::new("bad");
        let a = g.add_input("a");
        g.add_op(Operation::Add, "s", &[a]);
    }

    #[test]
    fn every_mutator_drops_the_cached_content_hash() {
        // Each step hashes (filling the cache of a call-free graph),
        // mutates, and checks that the cache is gone and the hash moved.
        fn hash(g: &Dfg) -> u64 {
            g.content_hash(|_| unreachable!("no calls"))
        }
        let mut g = mac();
        let m = g.add_mem(MemObject::owned("m", 4, 16));
        let before = hash(&g);
        assert_eq!(
            g.hash_cache().get(),
            Some(&before),
            "call-free graphs cache"
        );

        let z = g.push_node(NodeKind::Const { value: 7 }, "z");
        assert!(g.hash_cache().get().is_none(), "push_node");
        let after_push = hash(&g);
        assert_ne!(after_push, before);

        g.connect(VarRef::new(z, 0), g.outputs()[0], 1, 0);
        assert!(g.hash_cache().get().is_none(), "connect");
        let after_connect = hash(&g);
        assert_ne!(after_connect, after_push);

        assert_eq!(g.set_mem_banks(m, 2), 1);
        assert!(g.hash_cache().get().is_none(), "set_mem_banks");
        assert_ne!(hash(&g), after_connect);

        // A graph with calls never caches and folds in the callee's hash,
        // so retargeting a call changes it too.
        let mut caller = Dfg::new("caller");
        let x = caller.add_input("x");
        let call = caller.add_hier(DfgId::new(0), "c", &[x]);
        caller.add_output("y", VarRef::new(call, 0));
        let callee_hash = |id: DfgId| 100 + id.index() as u64;
        let first = caller.content_hash(callee_hash);
        assert!(
            caller.hash_cache().get().is_none(),
            "graphs with calls never cache"
        );
        assert_eq!(
            caller.replace_hier_callee(call, DfgId::new(1)),
            DfgId::new(0)
        );
        assert!(caller.hash_cache().get().is_none(), "replace_hier_callee");
        assert_ne!(caller.content_hash(callee_hash), first);
    }

    #[test]
    fn content_hash_ignores_names_and_survives_clones() {
        let g = mac();
        let mut renamed = mac();
        renamed.set_name("other");
        let h = g.content_hash(|_| 0);
        assert_eq!(renamed.content_hash(|_| 0), h);
        let copy = g.clone();
        assert_eq!(copy.hash_cache().get(), Some(&h), "a clone keeps the hash");
        assert_eq!(copy.content_hash(|_| 0), h);
    }

    #[test]
    fn display_impls_are_compact() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(EdgeId::new(9).to_string(), "e9");
        assert_eq!(VarRef::new(NodeId::new(2), 1).to_string(), "n2.1");
    }
}
