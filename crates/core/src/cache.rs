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
use std::sync::Mutex;

use hsyn_power::SimCache;
use hsyn_rtl::{AreaBreakdown, AreaCache};

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

    fn absorb(&mut self, other: MemoCount) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    fn since(self, before: MemoCount) -> MemoCount {
        MemoCount::new(self.hits - before.hits, self.misses - before.misses)
    }
}

/// The traffic of each memo behind an [`EvalCache`], by name. Cache
/// traffic, never part of
/// [`SynthesisReport::result_json`](crate::SynthesisReport::result_json).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoTraffic {
    /// Per-module area breakdowns ([`AreaCache`]).
    pub area: MemoCount,
    /// Top-level submodule recordings ([`SimCache`] replay): one lookup per
    /// submodule of every simulated design with submodules.
    pub replay: MemoCount,
    /// Whole-design power evaluations (power mode only).
    pub design: MemoCount,
    /// Value streams of modules without submodule instances ([`SimCache`]).
    pub stream: MemoCount,
}

impl MemoTraffic {
    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: &MemoTraffic) {
        self.area.absorb(other.area);
        self.replay.absorb(other.replay);
        self.design.absorb(other.design);
        self.stream.absorb(other.stream);
    }

    /// The traffic between snapshot `before` and this one.
    pub(crate) fn since(&self, before: &MemoTraffic) -> MemoTraffic {
        MemoTraffic {
            area: self.area.since(before.area),
            replay: self.replay.since(before.replay),
            design: self.design.since(before.design),
            stream: self.stream.since(before.stream),
        }
    }
}

/// Per-engine evaluation cache: area breakdowns and power-simulation
/// recordings keyed by structural fingerprint, and a memo of whole-design
/// power-mode evaluations.
///
/// One cache serves one `Engine` run — the trace set, library and
/// objective are fixed there, which is what makes reusing simulation
/// recordings and whole evaluations sound. (Area entries would be valid
/// across trace sets too, but an engine never changes traces mid-run, so no
/// distinction is needed.) The whole-design memo is never shared beyond
/// its engine: unlike area, an evaluation depends on the traces.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// Area results (per-module breakdowns).
    pub area: AreaCache,
    /// Power-simulation submodule recordings and energy memos.
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

    /// Total lookups answered from the cache (area + submodule replay +
    /// whole designs). Value-stream hits are counted apart, in
    /// [`traffic`](Self::traffic), so this sum keeps its meaning.
    pub fn hits(&self) -> u64 {
        self.area.hits + self.sim.hits + self.design_hits
    }

    /// Total lookups that fell through to a fresh computation (area +
    /// submodule replay). A whole-design miss falls through to the area and
    /// simulation caches, which count it.
    pub fn misses(&self) -> u64 {
        self.area.misses + self.sim.misses
    }

    /// Hits and misses of each memo, by name.
    pub fn traffic(&self) -> MemoTraffic {
        MemoTraffic {
            area: MemoCount::new(self.area.hits, self.area.misses),
            replay: MemoCount::new(self.sim.hits, self.sim.misses),
            design: MemoCount::new(self.design_hits, self.design_misses),
            stream: MemoCount::new(self.sim.stream_hits, self.sim.stream_misses),
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

/// Upper bound on entries a [`SharedAreaCache`] retains. Far above any
/// realistic workload (entries are one `AreaBreakdown` per distinct module
/// structure); the cap only exists so a hostile job stream cannot grow the
/// daemon's memory without bound. Overflow is counted, never silent.
pub const SHARED_AREA_CAP: usize = 1 << 16;

/// A cross-run area-result store, shared between concurrent engine runs
/// and (via the serve daemon) persisted across process lifetimes.
///
/// Only **area** entries live here. Power-simulation recordings
/// ([`SimCache`]) are deliberately excluded: they are sound only within
/// one fixed trace set, while area depends on nothing but module structure
/// — exactly what the fingerprint covers — so an area entry computed by
/// any run answers bit-identically for every other run. Area is also
/// independent of the `(Vdd, clk)` operating point, so one store serves
/// the whole configuration sweep. Entries *do* depend on the component
/// library, so embedders must keep one store per library (the daemon keys
/// stores by library name).
///
/// Seeding an engine from this store changes cache-hit telemetry and
/// wall-clock, never a float of the result — the same contract as the
/// intra-run cache, enforced at runtime by `shadow_eval` and by the serve
/// differential suite.
#[derive(Debug, Default)]
pub struct SharedAreaCache {
    map: Mutex<HashMap<u64, AreaBreakdown>>,
    /// Entries rejected because the store was at [`SHARED_AREA_CAP`].
    dropped: Mutex<u64>,
}

impl SharedAreaCache {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("shared area cache poisoned").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries rejected so far because the store was full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().expect("shared area cache poisoned")
    }

    /// Insert one entry (used when loading a persisted store from disk).
    /// Ignored with a drop count if the store is at capacity.
    pub fn insert(&self, fp: u64, area: AreaBreakdown) {
        let mut map = self.map.lock().expect("shared area cache poisoned");
        if map.len() >= SHARED_AREA_CAP && !map.contains_key(&fp) {
            *self.dropped.lock().expect("shared area cache poisoned") += 1;
        } else {
            map.insert(fp, area);
        }
    }

    /// Seed every stored entry into an engine's per-run cache, marking
    /// them warm for telemetry.
    pub fn seed_into(&self, cache: &mut AreaCache) {
        let map = self.map.lock().expect("shared area cache poisoned");
        for (&fp, &area) in map.iter() {
            cache.seed(fp, area);
        }
    }

    /// Copy every entry a finished run computed back into the store, so
    /// later runs (and persisted snapshots) see them. Returns how many
    /// entries were new.
    pub fn absorb(&self, cache: &AreaCache) -> usize {
        let mut map = self.map.lock().expect("shared area cache poisoned");
        let mut added = 0usize;
        let mut dropped = 0u64;
        for (fp, area) in cache.entries() {
            if map.contains_key(&fp) {
                continue;
            }
            if map.len() >= SHARED_AREA_CAP {
                dropped += 1;
                continue;
            }
            map.insert(fp, area);
            added += 1;
        }
        if dropped > 0 {
            *self.dropped.lock().expect("shared area cache poisoned") += dropped;
        }
        added
    }

    /// All entries, sorted by fingerprint — a deterministic order for
    /// persistence, so equal stores serialize to equal bytes.
    pub fn snapshot(&self) -> Vec<(u64, AreaBreakdown)> {
        let map = self.map.lock().expect("shared area cache poisoned");
        let mut out: Vec<_> = map.iter().map(|(&fp, &a)| (fp, a)).collect();
        out.sort_unstable_by_key(|&(fp, _)| fp);
        out
    }
}
