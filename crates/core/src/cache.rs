//! The incremental evaluation cache: per-module cost results keyed by
//! structural fingerprint, and whole-design evaluations keyed by root
//! fingerprint and operating point, shared across candidate evaluations of
//! one engine run.
//!
//! A fingerprint ([`hsyn_rtl::fingerprint_tree`]) covers everything the
//! cost models read from a module, so a hit returns the bit-identical
//! breakdown a full recomputation would have produced — incremental
//! evaluation changes wall-clock only, never a single float (see DESIGN.md,
//! "Fingerprint stability", and [`SynthesisConfig::shadow_eval`] which
//! enforces this at runtime).
//!
//! [`SynthesisConfig::shadow_eval`]: crate::SynthesisConfig::shadow_eval

use std::collections::HashMap;

use hsyn_power::SimCache;
use hsyn_rtl::AreaCache;

use crate::cost::Evaluation;
use crate::design::OperatingPoint;

/// Entry cap of the whole-design memo: it is cleared when an insert would
/// grow it past this (a bound, not a tuning knob; a configuration's search
/// on the registry benchmarks prices at most about a thousand distinct
/// designs).
const DESIGN_MEMO_CAP: usize = 1 << 14;

/// Key of the whole-design memo: the root structural fingerprint plus the
/// bits of every operating-point field (`vdd`, `clk_ref_ns`, `period_ns`,
/// `sampling_cycles`). The fingerprint covers everything the cost models
/// read from the built tree; the operating point scales the energy and
/// sets the clock period, and the fingerprint does not see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct DesignKey {
    fp: u64,
    op: [u64; 3],
    sampling_cycles: u32,
}

impl DesignKey {
    fn new(fp: u64, op: &OperatingPoint) -> Self {
        DesignKey {
            fp,
            op: [
                op.vdd.to_bits(),
                op.clk_ref_ns.to_bits(),
                op.period_ns.to_bits(),
            ],
            sampling_cycles: op.sampling_cycles,
        }
    }
}

/// Hits and misses of one memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCount {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
}

impl MemoCount {
    fn new(hits: u64, misses: u64) -> Self {
        MemoCount { hits, misses }
    }

    pub(crate) fn absorb(&mut self, other: MemoCount) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    fn since(self, before: MemoCount) -> MemoCount {
        MemoCount::new(self.hits - before.hits, self.misses - before.misses)
    }
}

/// The traffic of each memo, by name: the four behind an [`EvalCache`],
/// and the engine's candidate and move-*B* memos. Cache traffic, never
/// part of
/// [`SynthesisReport::result_json`](crate::SynthesisReport::result_json).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoTraffic {
    /// Per-module area breakdowns ([`AreaCache`]).
    pub area: MemoCount,
    /// Whole-design power evaluations (power mode only).
    pub design: MemoCount,
    /// Value streams ([`SimCache`]): one lookup per power pricing that the
    /// whole-design memo did not answer.
    pub stream: MemoCount,
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
        self.area.absorb(other.area);
        self.design.absorb(other.design);
        self.stream.absorb(other.stream);
        self.candidate.absorb(other.candidate);
        self.move_b.absorb(other.move_b);
    }

    /// The traffic between snapshot `before` and this one.
    pub(crate) fn since(&self, before: &MemoTraffic) -> MemoTraffic {
        MemoTraffic {
            area: self.area.since(before.area),
            design: self.design.since(before.design),
            stream: self.stream.since(before.stream),
            candidate: self.candidate.since(before.candidate),
            move_b: self.move_b.since(before.move_b),
        }
    }
}

/// Per-engine evaluation cache: area breakdowns keyed by structural
/// fingerprint, the power simulator's value streams, and a memo of
/// whole-design power-mode evaluations.
///
/// One cache serves one `Engine` run — the trace set, library and
/// objective are fixed there, which is what makes reusing value streams,
/// subtree energies and whole evaluations sound. (Area entries would be
/// valid across trace sets too, but an engine never changes traces
/// mid-run, so no distinction is needed.) The whole-design memo is never shared beyond
/// its engine: unlike area, an evaluation depends on the traces.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// Area results (per-module breakdowns).
    pub area: AreaCache,
    /// Power-simulation value streams and subtree-energy memos.
    pub sim: SimCache,
    /// Whole-design memo: the evaluation of every design this engine has
    /// priced, by root fingerprint and operating point.
    designs: HashMap<DesignKey, Evaluation>,
    /// Lookups answered by `designs`.
    design_hits: u64,
    /// Lookups `designs` could not answer.
    design_misses: u64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups answered from the cache (area + whole designs).
    /// Value-stream hits are counted apart, in [`traffic`](Self::traffic).
    pub fn hits(&self) -> u64 {
        self.area.hits + self.design_hits
    }

    /// Total lookups that fell through to a fresh computation (area). A
    /// whole-design miss falls through to the area cache and the value
    /// streams, which count it.
    pub fn misses(&self) -> u64 {
        self.area.misses
    }

    /// Hits and misses of each memo behind this cache, by name (the
    /// candidate and move-*B* counts, which the engine keeps, are zero).
    pub fn traffic(&self) -> MemoTraffic {
        MemoTraffic {
            area: MemoCount::new(self.area.hits, self.area.misses),
            design: MemoCount::new(self.design_hits, self.design_misses),
            stream: MemoCount::new(self.sim.stream_hits, self.sim.stream_misses),
            ..MemoTraffic::default()
        }
    }

    /// The memoized evaluation of the design with root fingerprint `fp` at
    /// `op`, counted as a hit when present.
    pub(crate) fn design(&mut self, fp: u64, op: &OperatingPoint) -> Option<Evaluation> {
        let hit = self.designs.get(&DesignKey::new(fp, op)).copied();
        self.design_hits += u64::from(hit.is_some());
        self.design_misses += u64::from(hit.is_none());
        hit
    }

    /// Memoize the evaluation of the design with root fingerprint `fp` at
    /// `op`, clearing the memo first when it is full.
    pub(crate) fn remember_design(&mut self, fp: u64, op: &OperatingPoint, eval: Evaluation) {
        if self.designs.len() >= DESIGN_MEMO_CAP {
            self.designs.clear();
        }
        self.designs.insert(DesignKey::new(fp, op), eval);
    }

    /// The whole-design memo's entries, for tests that inspect or corrupt
    /// them.
    #[cfg(test)]
    pub(crate) fn design_entries(&mut self) -> impl Iterator<Item = &mut Evaluation> {
        self.designs.values_mut()
    }
}
