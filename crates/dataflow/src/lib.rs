//! Abstract-interpretation dataflow analysis for the H-SYN reproduction.
//!
//! This crate is the static-analysis substrate under the synthesis flow: a
//! worklist fixpoint solver running over each DFG's CSR adjacency arena
//! with a reduced product of composable abstract domains —
//!
//! * **interval / value range** ([`Interval`]): signed bounds at the
//!   datapath width, with wrap-aware transfers (any possible overflow
//!   widens to the full representable range);
//! * **known bits** ([`KnownBits`]): bit-level must-be-zero / must-be-one
//!   facts, giving constants, sign information and trailing-zero counts
//!   the interval domain cannot see;
//! * **constant propagation**: the bottom of both domains — a singleton
//!   interval or fully-known bits folds to a constant;
//! * **dead value / liveness**: backward port-level observability through
//!   delays and hierarchical calls.
//!
//! The interprocedural layer ([`analyze_hierarchy`]) walks the validated
//! hierarchy caller-first, joining the abstract argument tuples of every
//! reachable call site into one context per module (sound for shared
//! hardware instances), while memoized per-context *summaries* — keyed by
//! [`Hierarchy::content_hash`](hsyn_dfg::Hierarchy::content_hash), so
//! repeated submodules analyze once — resolve call sites exactly during
//! solving.
//!
//! Its headline product is the [`WidthCertificate`]: a proven-sufficient
//! bit width for every variable in the hierarchy, which RTL sizing uses to
//! shrink functional units, registers and interconnect, and which
//! [`certified_outputs`] checks dynamically against the reference
//! semantics (bit-exact with [`hsyn_dfg::reference_outputs`] on the
//! flattened graph).
//!
//! # Example
//!
//! ```
//! use hsyn_dfg::{Dfg, Hierarchy, Operation};
//! use hsyn_dataflow::analyze_hierarchy;
//!
//! let mut g = Dfg::new("small");
//! let x = g.add_input("x");
//! let k = g.add_const("k", 3);          // narrow coefficient
//! let s = g.add_op(Operation::Add, "s", &[x, k]);
//! g.add_output("y", s);
//! let mut h = Hierarchy::new();
//! let top = h.add_dfg(g);
//! h.set_top(top);
//!
//! let analysis = analyze_hierarchy(&h, 16).unwrap();
//! let cert = analysis.certificate();
//! // The constant folds to a 3-bit value; the sum stays near full width.
//! assert!(cert.narrowed_ports() >= 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod certificate;
mod domain;
mod interproc;
mod solver;

pub use certificate::{certified_outputs, CertificateViolation, WidthCertificate};
pub use domain::{bits_needed, sign_extend, transfer, AbstractValue, Interval, KnownBits};
pub use interproc::{analyze_hierarchy, AnalysisStats, HierAnalysis};
pub use solver::DfgFacts;
