//! Interconnect derivation: which sources feed which datapath sinks across
//! all of a module's behaviors. Multiplexers, wiring area, and steering
//! energy all fall out of this analysis.

use crate::instance::{FuInstId, RegId, SubId};
use crate::module::{Behavior, RtlModule};
use crate::spec::{storage_analysis, StorageAnalysis};
use hsyn_dfg::{Dfg, Hierarchy, MemId, NodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// A value source inside a module.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Source {
    /// Direct (chained) connection from a functional unit's output.
    Fu(FuInstId),
    /// Output `port` of a submodule.
    Sub(SubId, u16),
    /// A register's output.
    Reg(RegId),
    /// A hardwired constant.
    Const(i64),
    /// Primary input `index` of the module.
    Input(usize),
    /// The read-data bus of memory `mem` of the behavior's DFG.
    Mem(MemId),
}

/// A value sink inside a module.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Sink {
    /// Input `port` of a functional unit.
    FuPort(FuInstId, u16),
    /// The data input of a register.
    RegIn(RegId),
    /// Input `port` of a submodule.
    SubPort(SubId, u16),
    /// Primary output `index` of the module.
    Output(usize),
    /// The address bus of memory `mem` (steered between accesses).
    MemAddr(MemId),
    /// The write-data bus of memory `mem`.
    MemData(MemId),
}

/// The union, over all behaviors, of sources feeding each sink.
#[derive(Clone, Debug, Default)]
pub struct Connectivity {
    sinks: BTreeMap<Sink, BTreeSet<Source>>,
}

impl Connectivity {
    /// Number of distinct sources steering into `sink` (mux size; 0 or 1
    /// means no mux).
    pub fn source_count(&self, sink: Sink) -> usize {
        self.sinks.get(&sink).map_or(0, BTreeSet::len)
    }

    /// Iterate over `(sink, sources)` pairs.
    pub fn sinks(&self) -> impl Iterator<Item = (Sink, &BTreeSet<Source>)> + '_ {
        self.sinks.iter().map(|(&s, set)| (s, set))
    }

    /// Total number of distinct point-to-point nets.
    pub fn net_count(&self) -> usize {
        self.sinks.values().map(BTreeSet::len).sum()
    }

    /// Total multiplexer legs beyond the first input of each sink.
    pub fn mux_legs(&self) -> usize {
        self.sinks.values().map(|s| s.len().saturating_sub(1)).sum()
    }

    /// Select-line bits needed to steer all muxes.
    pub fn select_bits(&self) -> usize {
        self.sinks.values().map(|s| bits_for(s.len())).sum()
    }
}

/// ceil(log2(n)) for n >= 2, else 0.
pub(crate) fn bits_for(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Derive the connectivity of `module` (its own level only; recurse over
/// [`RtlModule::subs`] for a full-hierarchy view). Computed from scratch;
/// the pricing walks read the counts from [`RtlModule::view`] instead.
pub fn connectivity(h: &Hierarchy, module: &RtlModule) -> Connectivity {
    let mut conn = Connectivity::default();
    for b in module.behaviors() {
        let g = h.dfg(b.dfg);
        behavior_links(g, b, &storage_analysis(g, &b.schedule), |sink, src| {
            conn.sinks.entry(sink).or_default().insert(src);
        });
    }
    conn
}

/// The links of behavior `b` ([`behavior_links`]), packed ([`pack_link`]).
/// `st` is the storage analysis of `b`'s schedule.
pub(crate) fn packed_links(g: &Dfg, b: &Behavior, st: &StorageAnalysis) -> Vec<u128> {
    let mut links = Vec::with_capacity(g.edge_count() + st.stored_vars.len());
    behavior_links(g, b, st, |sink, src| links.push(pack_link(sink, src)));
    links
}

/// Bit position of the sink in a packed link: above the source's 3-bit
/// tag and 64-bit payload.
const SINK_SHIFT: u32 = 67;

/// A `(sink, source)` link as one integer: the sink's [`SinkCount::key`]
/// in the top bits, so packed links order by sink exactly as [`Sink`]
/// does, then the source as a tag and a 64-bit payload (an order of its
/// own; only distinctness matters within a sink). Sorting these is an
/// integer sort, not a variant-by-variant comparison of enum pairs.
fn pack_link(sink: Sink, src: Source) -> u128 {
    let (tag, payload): (u8, u64) = match src {
        Source::Fu(f) => (0, f.index() as u64),
        Source::Sub(s, port) => (1, (s.index() as u64) << 16 | u64::from(port)),
        Source::Reg(r) => (2, r.index() as u64),
        Source::Const(v) => (3, v as u64),
        Source::Input(i) => (4, i as u64),
        Source::Mem(m) => (5, m.index() as u64),
    };
    u128::from(SinkCount::packed_key(sink)) << SINK_SHIFT
        | u128::from(tag) << 64
        | u128::from(payload)
}

/// Call `link(sink, source)` for every link of behavior `b`, possibly
/// with repeats: data edges into their consumers, then the register write
/// paths. `st` is the storage analysis of `b`'s schedule. A node the
/// binding does not cover contributes no link.
pub(crate) fn behavior_links(
    g: &Dfg,
    b: &Behavior,
    st: &StorageAnalysis,
    mut link: impl FnMut(Sink, Source),
) {
    let bind = &b.binding;
    // The resource acting as source for a produced variable.
    let producer_source = |from: hsyn_dfg::VarRef, chained: bool| -> Option<Source> {
        match g.node(from.node).kind() {
            NodeKind::Const { value } => Some(Source::Const(*value)),
            NodeKind::Input { index } => Some(Source::Input(*index)),
            NodeKind::Op(_) if chained => bind.op_to_fu.get(from.node).map(Source::Fu),
            NodeKind::Hier { .. } if chained => bind
                .hier_to_sub
                .get(from.node)
                .map(|s| Source::Sub(s, from.port)),
            // Loads are pipelined (never chained), so their results
            // always land in a register before consumption.
            NodeKind::Op(_) | NodeKind::Hier { .. } | NodeKind::Load { .. } => {
                bind.var_to_reg.get(from).map(Source::Reg)
            }
            // Stores produce no consumed value; no edge leaves them.
            NodeKind::Store { .. } => None,
            NodeKind::Output { .. } => None,
        }
    };

    for (eid, e) in g.edges() {
        let chained = st.chained_edges[eid.index()];
        let Some(src) = producer_source(e.from, chained) else {
            continue;
        };
        let sink = match g.node(e.to).kind() {
            NodeKind::Op(_) => match bind.op_to_fu.get(e.to) {
                Some(f) => Sink::FuPort(f, e.to_port),
                None => continue,
            },
            NodeKind::Hier { .. } => match bind.hier_to_sub.get(e.to) {
                Some(s) => Sink::SubPort(s, e.to_port),
                None => continue,
            },
            NodeKind::Output { index } => Sink::Output(*index),
            // Port 0 of both accesses is the address; a store's port 1
            // is the written data. Several accesses of one memory share
            // (and mux) its address/data buses.
            NodeKind::Load { mem } => Sink::MemAddr(*mem),
            NodeKind::Store { mem } => {
                if e.to_port == 0 {
                    Sink::MemAddr(*mem)
                } else {
                    Sink::MemData(*mem)
                }
            }
            _ => continue,
        };
        link(sink, src);
    }

    // Register write paths: the producing resource drives the register.
    for v in &st.stored_vars {
        let Some(reg) = bind.var_to_reg.get(*v) else {
            continue;
        };
        let src = match g.node(v.node).kind() {
            NodeKind::Op(_) => match bind.op_to_fu.get(v.node) {
                Some(f) => Source::Fu(f),
                None => continue,
            },
            NodeKind::Hier { .. } => match bind.hier_to_sub.get(v.node) {
                Some(s) => Source::Sub(s, v.port),
                None => continue,
            },
            NodeKind::Input { index } => Source::Input(*index),
            NodeKind::Load { mem } => Source::Mem(*mem),
            _ => continue,
        };
        link(Sink::RegIn(reg), src);
    }
}

/// The datapath facts the area and energy models read, fixed when a module
/// is assembled: the number of distinct sources of every driven [`Sink`],
/// in ascending `Sink` order (the order [`Connectivity::sinks`] iterates,
/// so sums over it round identically), and the controller bits the binding
/// fixes — per-FU enable and operation select, plus the mux select lines.
///
/// Register load enables, submodule start strobes and memory port controls
/// are not stored: they are read from the module and its DFGs when priced
/// (see [`control_bits`](crate::control_bits)), so a bank reassignment can
/// never leave a stale count behind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatapathView {
    /// Driven sinks in ascending [`Sink`] order.
    sinks: Box<[SinkCount]>,
    binding_bits: usize,
}

/// One driven sink of a [`DatapathView`] and its distinct source count.
/// The sink is held as `(variant, index, port)`, which orders exactly like
/// [`Sink`], in 12 bytes where `(Sink, u32)` takes 24.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SinkCount {
    kind: u8,
    port: u16,
    index: u32,
    sources: u32,
}

impl SinkCount {
    fn key(sink: Sink) -> (u8, u32, u16) {
        let id = |i: usize| u32::try_from(i).expect("index fits in u32");
        match sink {
            Sink::FuPort(f, p) => (0, id(f.index()), p),
            Sink::RegIn(r) => (1, id(r.index()), 0),
            Sink::SubPort(s, p) => (2, id(s.index()), p),
            Sink::Output(i) => (3, id(i), 0),
            Sink::MemAddr(m) => (4, id(m.index()), 0),
            Sink::MemData(m) => (5, id(m.index()), 0),
        }
    }

    /// [`key`](Self::key) as one integer with the same order.
    fn packed_key(sink: Sink) -> u64 {
        let (kind, index, port) = Self::key(sink);
        u64::from(kind) << 48 | u64::from(index) << 16 | u64::from(port)
    }

    /// The count of `sources` for the sink of a [`packed_key`](Self::packed_key).
    fn from_packed(key: u64, sources: usize) -> Self {
        SinkCount {
            kind: (key >> 48) as u8,
            port: key as u16,
            index: (key >> 16) as u32,
            sources: u32::try_from(sources).expect("source count fits in u32"),
        }
    }

    fn sink(self) -> Sink {
        let i = self.index as usize;
        match self.kind {
            0 => Sink::FuPort(FuInstId::from_index(i), self.port),
            1 => Sink::RegIn(RegId::from_index(i)),
            2 => Sink::SubPort(SubId::from_index(i), self.port),
            3 => Sink::Output(i),
            4 => Sink::MemAddr(MemId::from_index(i)),
            _ => Sink::MemData(MemId::from_index(i)),
        }
    }
}

impl DatapathView {
    /// Derive the view of a module with `fu_count` functional units
    /// implementing `behaviors`, from scratch.
    pub(crate) fn derive(h: &Hierarchy, fu_count: usize, behaviors: &[Behavior]) -> Self {
        let mut links = Vec::new();
        for b in behaviors {
            let g = h.dfg(b.dfg);
            links.extend(packed_links(g, b, &storage_analysis(g, &b.schedule)));
        }
        Self::from_links(h, fu_count, behaviors, links)
    }

    /// The view from the packed links of every behavior
    /// ([`packed_links`]): one integer sort instead of a map of sets, and
    /// one pass over the bindings for the operation selects.
    pub(crate) fn from_links(
        h: &Hierarchy,
        fu_count: usize,
        behaviors: &[Behavior],
        mut links: Vec<u128>,
    ) -> Self {
        links.sort_unstable();
        links.dedup();
        // Sized exactly, so the view is one allocation that never moves.
        let runs = links.chunk_by(|a, b| a >> SINK_SHIFT == b >> SINK_SHIFT);
        let mut sinks = Vec::with_capacity(runs.clone().count());
        sinks.extend(
            runs.map(|run| SinkCount::from_packed((run[0] >> SINK_SHIFT) as u64, run.len())),
        );
        // Distinct operations per FU over all behaviors, as bit masks.
        let mut ops = vec![0u32; fu_count];
        for b in behaviors {
            let g = h.dfg(b.dfg);
            for (node, fu) in b.binding.op_to_fu.iter() {
                if let (NodeKind::Op(op), Some(mask)) =
                    (g.node(node).kind(), ops.get_mut(fu.index()))
                {
                    *mask |= 1 << *op as u32;
                }
            }
        }
        let fu_bits: usize = ops
            .iter()
            .map(|m| 1 + bits_for(m.count_ones() as usize))
            .sum();
        let select_bits: usize = sinks.iter().map(|c| bits_for(c.sources as usize)).sum();
        DatapathView {
            sinks: sinks.into_boxed_slice(),
            binding_bits: fu_bits + select_bits,
        }
    }

    /// `(sink, distinct source count)` for every driven sink, ascending.
    pub fn sinks(&self) -> impl Iterator<Item = (Sink, usize)> + '_ {
        self.sinks.iter().map(|c| (c.sink(), c.sources as usize))
    }

    /// Number of distinct sources steering into `sink` (0 when undriven).
    pub fn source_count(&self, sink: Sink) -> usize {
        let key = SinkCount::key(sink);
        self.sinks
            .binary_search_by(|c| (c.kind, c.index, c.port).cmp(&key))
            .map_or(0, |i| self.sinks[i].sources as usize)
    }

    /// Controller bits fixed by the binding: per-FU enable and operation
    /// select, plus mux select lines.
    pub(crate) fn binding_control_bits(&self) -> usize {
        self.binding_bits
    }

    /// Bytes this view holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[SinkCount]>(&self.sinks)
    }
}

/// Compare `module`'s stored [`DatapathView`] (this level only) with a
/// from-scratch derivation: the [`connectivity`] source counts and
/// [`control_bit_count`](crate::control_bit_count). `None` when they
/// agree, else a description of the first difference.
pub fn view_mismatch(h: &Hierarchy, module: &RtlModule) -> Option<String> {
    let conn = connectivity(h, module);
    let stored: Vec<(Sink, usize)> = module.view().sinks().collect();
    let fresh: Vec<(Sink, usize)> = conn.sinks().map(|(s, set)| (s, set.len())).collect();
    if stored != fresh {
        let i = stored
            .iter()
            .zip(&fresh)
            .position(|(a, b)| a != b)
            .unwrap_or(stored.len().min(fresh.len()));
        return Some(format!(
            "sink entry {i}: stored {:?}, fresh derivation {:?}",
            stored.get(i),
            fresh.get(i)
        ));
    }
    let stored = crate::control_bits(h, module);
    let fresh = crate::control_bit_count(h, module, &conn);
    (stored != fresh).then(|| format!("control bits: stored {stored}, fresh derivation {fresh}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_is_ceil_log2() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
    }
}
