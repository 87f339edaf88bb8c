//! Cross-layer IR verifier for the H-SYN reproduction.
//!
//! The synthesis engine rewrites three coupled IRs — hierarchical DFGs,
//! schedules, and RTL implementations — and a buggy move that produces an
//! infeasible schedule or a mis-wired netlist would otherwise be silently
//! costed. This crate re-checks the invariants each layer relies on and
//! reports violations as structured [`Diagnostic`]s with stable rule codes:
//!
//! | family   | guards |
//! |----------|--------|
//! | `DFG0xx` | graph/hierarchy structure ([`hsyn_dfg::Hierarchy::check_all`]) |
//! | `SCH0xx` | schedule legality: precedence, serialization, deadlines, chaining |
//! | `RTL0xx` | binding completeness, resource conflicts, register lifetimes |
//! | `PWR0xx` | operating-point sanity for the calibrated power/delay models |
//! | `DFA0xx` | dataflow facts: constant-foldable ops, dead outputs, decided selects, over-wide arithmetic ([`hsyn_dataflow::analyze_hierarchy`]) |
//!
//! Entry points: [`verify_design`] checks a synthesized design (a
//! [`DesignView`] pairing an RTL module tree with its hierarchy, library,
//! and operating point); [`lint_hierarchy`] checks a bare behavioral
//! description. Rules are individually suppressible via [`LintConfig`].
//!
//! The verifier is *observation-only*: it never mutates anything and a
//! legal design produces zero diagnostics, which is what the synthesis
//! engine's paranoid mode (`SynthesisConfig::paranoid` in `hsyn-core`)
//! asserts after every accepted move.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod rules;

pub use rules::{
    lint_hierarchy, lint_hierarchy_with, verify_design, verify_design_with, DesignView,
    DATAFLOW_LINT_WIDTH,
};

use hsyn_util::Json;
use std::collections::BTreeSet;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but not structurally illegal (e.g. operating outside the
    /// calibrated model range on the safe side).
    Warning,
    /// A broken invariant: the design is not a legal implementation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable rule codes. Codes never change meaning; retired codes are not
/// reused (which is why the sequence may have gaps).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[allow(missing_docs)] // the per-variant story lives in `summary()`
pub enum RuleCode {
    Dfg001,
    Dfg002,
    Dfg003,
    Dfg004,
    Dfg005,
    Dfg006,
    Mem001,
    Mem002,
    Mem003,
    Sch001,
    Sch002,
    Sch003,
    Sch004,
    Sch005,
    Rtl001,
    Rtl002,
    Rtl003,
    Rtl004,
    Rtl005,
    Rtl007,
    Rtl008,
    Pwr001,
    Pwr002,
    Dfa001,
    Dfa002,
    Dfa003,
    Dfa004,
}

impl RuleCode {
    /// Every rule, in code order.
    pub const ALL: [RuleCode; 27] = [
        RuleCode::Dfg001,
        RuleCode::Dfg002,
        RuleCode::Dfg003,
        RuleCode::Dfg004,
        RuleCode::Dfg005,
        RuleCode::Dfg006,
        RuleCode::Mem001,
        RuleCode::Mem002,
        RuleCode::Mem003,
        RuleCode::Sch001,
        RuleCode::Sch002,
        RuleCode::Sch003,
        RuleCode::Sch004,
        RuleCode::Sch005,
        RuleCode::Rtl001,
        RuleCode::Rtl002,
        RuleCode::Rtl003,
        RuleCode::Rtl004,
        RuleCode::Rtl005,
        RuleCode::Rtl007,
        RuleCode::Rtl008,
        RuleCode::Pwr001,
        RuleCode::Pwr002,
        RuleCode::Dfa001,
        RuleCode::Dfa002,
        RuleCode::Dfa003,
        RuleCode::Dfa004,
    ];

    /// The stable textual code (`"SCH003"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::Dfg001 => "DFG001",
            RuleCode::Dfg002 => "DFG002",
            RuleCode::Dfg003 => "DFG003",
            RuleCode::Dfg004 => "DFG004",
            RuleCode::Dfg005 => "DFG005",
            RuleCode::Dfg006 => "DFG006",
            RuleCode::Mem001 => "MEM001",
            RuleCode::Mem002 => "MEM002",
            RuleCode::Mem003 => "MEM003",
            RuleCode::Sch001 => "SCH001",
            RuleCode::Sch002 => "SCH002",
            RuleCode::Sch003 => "SCH003",
            RuleCode::Sch004 => "SCH004",
            RuleCode::Sch005 => "SCH005",
            RuleCode::Rtl001 => "RTL001",
            RuleCode::Rtl002 => "RTL002",
            RuleCode::Rtl003 => "RTL003",
            RuleCode::Rtl004 => "RTL004",
            RuleCode::Rtl005 => "RTL005",
            RuleCode::Rtl007 => "RTL007",
            RuleCode::Rtl008 => "RTL008",
            RuleCode::Pwr001 => "PWR001",
            RuleCode::Pwr002 => "PWR002",
            RuleCode::Dfa001 => "DFA001",
            RuleCode::Dfa002 => "DFA002",
            RuleCode::Dfa003 => "DFA003",
            RuleCode::Dfa004 => "DFA004",
        }
    }

    /// One-line description of what the rule guards.
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::Dfg001 => "edge references a node outside its graph",
            RuleCode::Dfg002 => "input port undriven or driven more than once",
            RuleCode::Dfg003 => "edge reads a nonexistent output port",
            RuleCode::Dfg004 => "combinational (zero-delay) cycle",
            RuleCode::Dfg005 => "hierarchy malformed: no top, dangling or recursive callee",
            RuleCode::Dfg006 => "memory structure malformed: dangling, misbound, or cyclic",
            RuleCode::Mem001 => "constant address provably outside the memory's word range",
            RuleCode::Mem002 => "memory is stored to but never loaded from",
            RuleCode::Mem003 => "cycle issues more accesses to a memory than its ports allow",
            RuleCode::Sch001 => "schedule does not cover the behavior's graph",
            RuleCode::Sch002 => "data precedence violated: value consumed before it is ready",
            RuleCode::Sch003 => "serialization edge violated: shared resource not released",
            RuleCode::Sch004 => "schedule exceeds the sampling-period deadline",
            RuleCode::Sch005 => "chained path exceeds the usable clock period",
            RuleCode::Rtl001 => "binding incomplete: op/hier node lacks a hardware instance",
            RuleCode::Rtl002 => "functional unit assigned two ops in overlapping cycles",
            RuleCode::Rtl003 => "submodule executes two hierarchical nodes at once",
            RuleCode::Rtl004 => "stored value has no register: datapath mux input undriven",
            RuleCode::Rtl005 => "op bound to a functional unit that cannot execute it",
            RuleCode::Rtl007 => "register holds two live values at once",
            RuleCode::Rtl008 => "stored datapath view disagrees with a fresh derivation",
            RuleCode::Pwr001 => "supply voltage outside the calibrated technology range",
            RuleCode::Pwr002 => "clock period does not exceed the register overhead",
            RuleCode::Dfa001 => "operation has only constant operands: constant-foldable",
            RuleCode::Dfa002 => "node output is provably dead: no design output observes it",
            RuleCode::Dfa003 => "comparison or select statically decided by disjoint ranges",
            RuleCode::Dfa004 => {
                "arithmetic result provably fits in at most half the datapath width"
            }
        }
    }

    /// Parse a textual code (case-insensitive).
    pub fn parse(s: &str) -> Option<RuleCode> {
        let up = s.to_ascii_uppercase();
        RuleCode::ALL.iter().copied().find(|c| c.as_str() == up)
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: any subset of module path, graph, node,
/// control step, and hardware instance.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Location {
    /// RTL module path from the design top (`"paulin/f1_mod"`).
    pub module: Option<String>,
    /// The DFG involved.
    pub dfg: Option<hsyn_dfg::DfgId>,
    /// The node involved.
    pub node: Option<hsyn_dfg::NodeId>,
    /// The control step (cycle) involved.
    pub cycle: Option<u32>,
    /// The hardware instance involved (FU, register, or submodule name).
    pub instance: Option<String>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(m) = &self.module {
            write!(f, "module {m}")?;
            sep = " ";
        }
        if let Some(d) = self.dfg {
            write!(f, "{sep}{d}")?;
            sep = " ";
        }
        if let Some(n) = self.node {
            write!(f, "{sep}{n}")?;
            sep = " ";
        }
        if let Some(c) = self.cycle {
            write!(f, "{sep}c{c}")?;
            sep = " ";
        }
        if let Some(i) = &self.instance {
            write!(f, "{sep}{i}")?;
            sep = " ";
        }
        if sep.is_empty() {
            write!(f, "design")?;
        }
        Ok(())
    }
}

/// One verifier finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: RuleCode,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} (at {})",
            self.severity, self.code, self.message, self.location
        )
    }
}

/// Which rules run: all by default, individual codes suppressible.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    suppressed: BTreeSet<RuleCode>,
}

impl LintConfig {
    /// A config with every rule enabled.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Suppress a rule (builder style).
    pub fn allow(mut self, code: RuleCode) -> Self {
        self.suppressed.insert(code);
        self
    }

    /// Suppress a rule by its textual code; `false` if the code is unknown.
    pub fn allow_str(&mut self, code: &str) -> bool {
        match RuleCode::parse(code) {
            Some(c) => {
                self.suppressed.insert(c);
                true
            }
            None => false,
        }
    }

    /// Whether a rule should run.
    pub fn enabled(&self, code: RuleCode) -> bool {
        !self.suppressed.contains(&code)
    }
}

/// Number of [`Severity::Error`] diagnostics (the CLI's exit-code basis).
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Render diagnostics as a JSON array (stable field order, suitable for
/// `hsyn lint --json`).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> Json {
    let opt_str = |s: &Option<String>| match s {
        Some(v) => Json::Str(v.clone()),
        None => Json::Null,
    };
    Json::Arr(
        diags
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("code".to_owned(), Json::Str(d.code.as_str().to_owned())),
                    ("severity".to_owned(), Json::Str(d.severity.to_string())),
                    ("message".to_owned(), Json::Str(d.message.clone())),
                    ("module".to_owned(), opt_str(&d.location.module)),
                    (
                        "dfg".to_owned(),
                        match d.location.dfg {
                            Some(g) => Json::Num(g.index() as f64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "node".to_owned(),
                        match d.location.node {
                            Some(n) => Json::Num(n.index() as f64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "cycle".to_owned(),
                        match d.location.cycle {
                            Some(c) => Json::Num(f64::from(c)),
                            None => Json::Null,
                        },
                    ),
                    ("instance".to_owned(), opt_str(&d.location.instance)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_round_trip() {
        for code in RuleCode::ALL {
            assert_eq!(RuleCode::parse(code.as_str()), Some(code));
            assert_eq!(RuleCode::parse(&code.as_str().to_lowercase()), Some(code));
            assert!(!code.summary().is_empty());
        }
        assert_eq!(RuleCode::parse("XYZ999"), None);
    }

    #[test]
    fn config_suppression() {
        let mut cfg = LintConfig::new().allow(RuleCode::Sch005);
        assert!(!cfg.enabled(RuleCode::Sch005));
        assert!(cfg.enabled(RuleCode::Sch002));
        assert!(cfg.allow_str("rtl002"));
        assert!(!cfg.enabled(RuleCode::Rtl002));
        assert!(!cfg.allow_str("nope"));
    }

    #[test]
    fn diagnostic_display_and_json() {
        let d = Diagnostic {
            code: RuleCode::Sch003,
            severity: Severity::Error,
            location: Location {
                module: Some("top".into()),
                dfg: None,
                node: Some(hsyn_dfg::NodeId::from_index(3)),
                cycle: Some(2),
                instance: Some("F1".into()),
            },
            message: "shared resource not released".into(),
        };
        let text = d.to_string();
        assert!(text.contains("error[SCH003]"), "{text}");
        assert!(text.contains("module top"), "{text}");
        let json = diagnostics_to_json(&[d]).to_string_pretty();
        assert!(json.contains("\"SCH003\""), "{json}");
        assert!(json.contains("\"cycle\": 2"), "{json}");
    }
}
