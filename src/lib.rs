//! # hsyn — hierarchical high-level synthesis for power and area
//!
//! A Rust reproduction of *“Synthesis of Power-Optimized and Area-Optimized
//! Circuits from Hierarchical Behavioral Descriptions”* (Lakshminarayana &
//! Jha, DAC 1998). This facade crate re-exports the whole workspace:
//!
//! * [`dfg`] — hierarchical data-flow graph IR, textual format, benchmarks;
//! * [`dataflow`] — abstract-interpretation dataflow analysis and width
//!   certificates (drives lint's dataflow rules and width-aware sizing);
//! * [`lib`] — module libraries, technology (Vdd/clock) models;
//! * [`sched`] — scheduling, profiles/environments, slack analysis;
//! * [`rtl`] — RTL circuit IR, FSM controllers, RTL embedding;
//! * [`power`] — trace-driven switched-capacitance power estimation;
//! * [`lint`] — cross-layer IR verifier: structured diagnostics over DFGs,
//!   schedules, bindings, and operating points (drives the engine's
//!   paranoid mode and the `hsyn lint` subcommand);
//! * [`core`] — the iterative-improvement synthesis engine (moves A–D,
//!   Vdd/clock selection, flattened baseline);
//! * [`serve`] — synthesis-as-a-service: the `hsyn serve` daemon, its
//!   length-prefixed wire protocol, the persistent job cache, and
//!   the synchronous client behind `hsyn submit`;
//! * [`util`] — zero-dependency helpers (JSON, thread pool, framing).
//!
//! ## Quickstart
//!
//! ```
//! use hsyn::prelude::*;
//!
//! let bench = hsyn::dfg::benchmarks::paulin();
//! let library = hsyn::lib::Library::realistic();
//! // See `examples/quickstart.rs` for a full synthesis run.
//! assert_eq!(bench.name, "paulin");
//! assert!(library.fu_count() > 0);
//! ```

pub use hsyn_core as core;
pub use hsyn_dataflow as dataflow;
pub use hsyn_dfg as dfg;
pub use hsyn_lib as lib;
pub use hsyn_lint as lint;
pub use hsyn_power as power;
pub use hsyn_rtl as rtl;
pub use hsyn_sched as sched;
pub use hsyn_serve as serve;
pub use hsyn_util as util;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use hsyn_core::{synthesize, DesignPoint, Objective, SynthesisConfig, SynthesisReport};
    pub use hsyn_dfg::{Dfg, DfgId, EquivClasses, Hierarchy, NodeId, Operation, VarRef};
    pub use hsyn_lib::{Library, Technology};
    pub use hsyn_lint::{verify_design, DesignView, Diagnostic, LintConfig, RuleCode};
}
