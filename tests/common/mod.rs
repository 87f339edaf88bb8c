//! Shared helpers for the end-to-end test suite: the random-behavior
//! generator and its reference evaluator, used by the semantics property
//! test and the paranoid-mode property test.
#![allow(dead_code)]

use hsyn::dfg::{Dfg, NodeId, Operation, VarRef};
use hsyn::power::TraceSet;
use hsyn_util::Rng;

/// Datapath bit width used by every property test.
pub const W: u32 = 16;

/// Iteration count for a property test: `HSYN_TEST_ITERS` if set, else the
/// legacy `HSYN_PROP_CASES`, else `default` — so CI can run deep sweeps
/// while local runs stay fast and old pipelines keep working.
pub fn test_iters(default: u64) -> u64 {
    ["HSYN_TEST_ITERS", "HSYN_PROP_CASES"]
        .iter()
        .find_map(|k| std::env::var(k).ok()?.parse().ok())
        .unwrap_or(default)
}

/// A random leaf DFG over add/sub/mult with occasional feedback edges.
pub fn arb_behavior(rng: &mut Rng) -> Dfg {
    let n_in = rng.range_usize(2, 4);
    let n_ops = rng.range_usize(3, 14);
    let seed = rng.next_u64();
    let feedback = rng.next_bool(0.5);
    let mut g = Dfg::new("rand");
    let mut vars: Vec<VarRef> = (0..n_in).map(|i| g.add_input(format!("i{i}"))).collect();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let ops = [Operation::Add, Operation::Sub, Operation::Mult];
    let mut pending_feedback: Option<NodeId> = None;
    for k in 0..n_ops {
        let op = ops[next() % 3];
        if feedback && k == 0 {
            // One accumulator-style feedback node.
            let a = vars[next() % vars.len()];
            let n = g.add_op_detached(Operation::Add, format!("fb{k}"));
            g.connect(a, n, 0, 0);
            pending_feedback = Some(n);
            vars.push(VarRef::new(n, 0));
            continue;
        }
        let a = vars[next() % vars.len()];
        let b = vars[next() % vars.len()];
        vars.push(g.add_op(op, format!("n{k}"), &[a, b]));
    }
    if let Some(n) = pending_feedback {
        // Close the loop through a delay from a later value.
        let src = *vars.last().expect("non-empty");
        g.connect(src, n, 1, 1);
    }
    g.add_output("y", *vars.last().unwrap());
    g
}

/// Reference evaluation of the behavior with delay state: the shared
/// [`hsyn::dfg::reference_outputs`] oracle, specialized to the generator's
/// single-output graphs.
pub fn reference(g: &Dfg, traces: &TraceSet) -> Vec<i64> {
    let mut outs = hsyn::dfg::reference_outputs(g, &traces.samples, W);
    assert_eq!(outs.len(), 1, "arb_behavior emits a single output");
    outs.remove(0)
}

/// Compare `got` against the pinned golden file `tests/golden/<name>.json`,
/// or rewrite it under `UPDATE_GOLDEN=1`; drift is collected, not asserted,
/// so one run reports every divergence.
pub fn check_golden(name: &str, got: &str, drift: &mut Vec<String>) {
    check_golden_file(&format!("{name}.json"), got, drift);
}

/// [`check_golden`] for a golden file of any extension,
/// `tests/golden/<name>`.
pub fn check_golden_file(name: &str, got: &str, drift: &mut Vec<String>) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: missing golden file (run UPDATE_GOLDEN=1 to create): {e}",
            path.display()
        )
    });
    if got != want {
        drift.push(format!(
            "{name}:\n  expected {}  actual   {}",
            want.replace('\n', "\n  "),
            got.replace('\n', "\n  ")
        ));
    }
}
