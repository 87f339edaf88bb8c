//! The incremental evaluation cache of power-mode pricing: value streams
//! and subtree energies, and whole-design evaluations keyed by root
//! fingerprint and operating point, shared across candidate evaluations of
//! one engine run. Area is walked afresh on every pricing: that walk costs
//! less than fingerprinting each candidate to key a memo of it.
//!
//! A fingerprint ([`hsyn_rtl::fingerprint_tree`]) covers everything the
//! cost models read from a module, so a hit returns the bit-identical
//! evaluation a full recomputation would have produced — incremental
//! evaluation changes wall-clock only, never a single float (see DESIGN.md,
//! "Fingerprint stability", and [`SynthesisConfig::shadow_eval`] which
//! enforces this at runtime).
//!
//! [`SynthesisConfig::shadow_eval`]: crate::SynthesisConfig::shadow_eval

use hsyn_power::SimCache;
use hsyn_util::{BoundedMemo, MemoCount};

use crate::cost::Evaluation;

/// Entry cap of the whole-design memo (a bound, not a tuning knob; a
/// configuration's search on the registry benchmarks prices at most about
/// a thousand distinct designs).
const DESIGN_MEMO_CAP: usize = 1 << 14;

/// Key of the whole-design memo: the root structural fingerprint plus
/// [`OperatingPoint::key_bits`](crate::OperatingPoint::key_bits). The
/// fingerprint covers everything the cost models read from the built tree;
/// the operating point scales the energy and sets the clock period, and the
/// fingerprint does not see it.
type DesignKey = (u64, [u64; 4]);

/// The traffic of each memo, by name: the three behind an [`EvalCache`],
/// and the engine's candidate and move-*B* memos. Cache traffic, never
/// part of
/// [`SynthesisReport::result_json`](crate::SynthesisReport::result_json).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoTraffic {
    /// Whole-design power evaluations (power mode only).
    pub design: MemoCount,
    /// Value streams ([`SimCache`]): one lookup per power pricing that the
    /// whole-design memo did not answer.
    pub stream: MemoCount,
    /// Subtree energies: one lookup per submodule instance priced from
    /// value streams, answered from the stream entry's energy memo or
    /// priced (a miss prices the instance's own submodules the same way).
    pub energy: MemoCount,
    /// Candidate speculations, answered from the engine's `(base design,
    /// move)` memo (the stored cost or rejection; apply, rebuild,
    /// evaluation and rollback are skipped) or run live to fill it.
    pub candidate: MemoCount,
    /// Move-*B* resynthesis requests, answered from the configuration's
    /// memo (the stored outcome and work counters are replayed) or run in
    /// a nested engine.
    pub move_b: MemoCount,
}

impl MemoTraffic {
    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: &MemoTraffic) {
        self.design.absorb(other.design);
        self.stream.absorb(other.stream);
        self.energy.absorb(other.energy);
        self.candidate.absorb(other.candidate);
        self.move_b.absorb(other.move_b);
    }
}

/// Per-engine evaluation cache: the power simulator's value streams and a
/// memo of whole-design power-mode evaluations, plus the count of modules
/// the search's area walks visit.
///
/// One cache serves one `Engine` run — the trace set, library and
/// objective are fixed there, which is what makes reusing value streams,
/// subtree energies and whole evaluations sound. The whole-design memo is
/// never shared beyond its engine: an evaluation depends on the traces.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// Power-simulation value streams and subtree-energy memos.
    pub sim: SimCache,
    /// Whole-design memo: the evaluation of every design this engine has
    /// priced, by root fingerprint and operating point.
    pub(crate) designs: BoundedMemo<DesignKey, Evaluation, DESIGN_MEMO_CAP>,
    /// Modules visited by the area walks of search pricings: every module
    /// of the priced tree, once per pricing that computes area (every
    /// area-mode pricing, every power-mode pricing the design memo does
    /// not answer).
    pub modules_area_walked: u64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hits and misses of each memo behind this cache, by name (the
    /// candidate and move-*B* counts, which the engine keeps, are zero).
    pub fn traffic(&self) -> MemoTraffic {
        MemoTraffic {
            design: self.designs.count(),
            stream: self.sim.stream,
            energy: self.sim.energy(),
            ..MemoTraffic::default()
        }
    }
}
