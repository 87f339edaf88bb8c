//! Hierarchical data-flow graph (DFG) intermediate representation for the
//! H-SYN reproduction (Lakshminarayana & Jha, DAC 1998).
//!
//! A behavioral description is a [`Hierarchy`]: a collection of [`Dfg`]s in
//! which nodes are either primitive operations ([`Operation`]), constants,
//! primary inputs/outputs, or *hierarchical nodes* that reference another DFG
//! in the same hierarchy. Edges carry values between node ports and may be
//! annotated with an inter-iteration *delay* (the `z^-k` of DSP flow graphs),
//! which is how loops (IIR filters, lattice filters, ...) are expressed.
//!
//! The crate also provides:
//!
//! * a flat CSR adjacency arena over each graph's edge list ([`csr`]),
//!   cached per [`Dfg`] and serving the `in_edges`/`out_edges`/`driver`
//!   accessors in O(degree)/O(1) instead of O(E);
//! * graph analyses used throughout the synthesis flow ([`analysis`]):
//!   topological order, longest paths, mobility windows;
//! * hierarchy [`flatten`](Hierarchy::flatten)ing, used by the flattened
//!   baseline synthesis the paper compares against;
//! * [`EquivClasses`]: user-declared functional equivalence between DFGs
//!   ("building blocks" such as dot products or butterflies), consumed by
//!   move *A* of the synthesis engine;
//! * first-class memories ([`MemObject`], [`NodeKind::Load`]/[`NodeKind::Store`])
//!   with program-order dependence derivation and bank mapping ([`mem`]);
//! * stable content hashes of graphs ([`hash`]), cached per [`Dfg`];
//! * a small textual format ([`text`]) with a parser and printer;
//! * a reference evaluator for flattened DFGs ([`eval`]), the shared
//!   behavioral oracle for the simulators and the co-simulation tests;
//! * behavioral [`transform`]ations (constant folding, common-subexpression
//!   elimination, dead-code elimination, tree-height reduction);
//! * the reconstructed DSP [`benchmarks`] used in the paper's evaluation
//!   (`paulin`, `hier_paulin`, `dct`, `iir`, `lat`, `avenhaus_cascade`,
//!   `test1`, and the extension `fft4`).
//!
//! # Example
//!
//! ```
//! use hsyn_dfg::{Dfg, Hierarchy, Operation};
//!
//! let mut g = Dfg::new("mac");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let m = g.add_op(Operation::Mult, "m", &[a, b]);
//! let s = g.add_op(Operation::Add, "s", &[m, c]);
//! g.add_output("y", s);
//!
//! let mut h = Hierarchy::new();
//! let top = h.add_dfg(g);
//! h.set_top(top);
//! h.validate().expect("well-formed hierarchy");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod benchmarks;
pub mod csr;
pub mod dot;
mod equiv;
pub mod eval;
mod graph;
pub mod hash;
mod hierarchy;
pub mod mem;
mod op;
pub mod text;
pub mod transform;

pub use csr::Adjacency;
pub use equiv::EquivClasses;
pub use eval::reference_outputs;
pub use graph::{Dfg, Edge, EdgeId, MemId, MemObject, MemScope, Node, NodeId, NodeKind, VarRef};
pub use hash::ContentHasher;
pub use hierarchy::{DfgId, Hierarchy, HierarchyError};
pub use mem::{
    bank_assignment, bank_of, const_address, mem_order_pairs, mem_serial_edges, mem_topo_order,
};
pub use op::Operation;
