//! Stable content hashing of graphs.
//!
//! [`ContentHasher`] is the one stream hasher behind every structural
//! fingerprint in the workspace: [`Dfg::content_hash`] here and the module
//! fingerprints of `hsyn-rtl`. `std`'s default hasher is randomly seeded
//! per process, so fingerprints must not go through it.
//!
//! A graph without hierarchical nodes caches its content hash (the cache is
//! dropped by every mutation that can change the hash: node and edge
//! insertion, memory declaration and rebanking, callee retargeting). A graph
//! *with* hierarchical nodes is rehashed on every call and folds in its
//! callees' hashes as the caller supplies them, so an edit to a callee can
//! never leave a stale hash in its callers.

use crate::graph::{Dfg, MemScope, NodeKind};
use crate::hierarchy::{DfgId, Hierarchy};

/// A streaming 64-bit hasher with fixed (seed-free) initial state: an
/// FNV-1a accumulator over little-endian words with a SplitMix64
/// finalizer. Not cryptographic, just deterministic and well-mixed, and
/// stable across processes, threads and platforms.
#[derive(Clone, Debug)]
pub struct ContentHasher(u64);

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in its initial state.
    pub fn new() -> Self {
        ContentHasher(Self::OFFSET)
    }

    /// Fold in one word.
    pub fn u64(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Fold in a `usize` as a word.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Fold in a `u32` as a word.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Fold in an `i64` as a word.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Fold in an `f64` by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        // SplitMix64 finalizer: spreads the FNV state over all 64 bits.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Per-section tags keep differently-shaped content from colliding.
mod tag {
    pub const NODE_INPUT: u64 = 0xC1;
    pub const NODE_OUTPUT: u64 = 0xC2;
    pub const NODE_CONST: u64 = 0xC3;
    pub const NODE_OP: u64 = 0xC4;
    pub const NODE_HIER: u64 = 0xC5;
    pub const NODE_LOAD: u64 = 0xC6;
    pub const NODE_STORE: u64 = 0xC7;
    pub const MEMS: u64 = 0xD1;
}

impl Dfg {
    /// Content hash of this graph, independent of its [`DfgId`] and of all
    /// node and graph names: node kinds, memories, edges (with delays) and
    /// the input and output order. `callee` answers the content hash of
    /// each hierarchical node's callee; [`Hierarchy::content_hash`] supplies
    /// it recursively.
    ///
    /// Cached when the graph has no hierarchical nodes (the hash is then a
    /// function of this graph alone) until the next mutation; a graph with
    /// hierarchical nodes is rehashed on every call.
    pub fn content_hash(&self, mut callee: impl FnMut(DfgId) -> u64) -> u64 {
        if let Some(&h) = self.hash_cache().get() {
            return h;
        }
        let mut calls = false;
        let mut f = ContentHasher::new();
        f.usize(self.node_count());
        for (_, n) in self.nodes() {
            match n.kind() {
                NodeKind::Input { index } => {
                    f.u64(tag::NODE_INPUT);
                    f.usize(*index);
                }
                NodeKind::Output { index } => {
                    f.u64(tag::NODE_OUTPUT);
                    f.usize(*index);
                }
                NodeKind::Const { value } => {
                    f.u64(tag::NODE_CONST);
                    f.i64(*value);
                }
                NodeKind::Op(op) => {
                    f.u64(tag::NODE_OP);
                    f.u64(*op as u64);
                }
                NodeKind::Hier { callee: c } => {
                    calls = true;
                    f.u64(tag::NODE_HIER);
                    f.u64(callee(*c));
                    // Bank bindings steer which physical memories a call
                    // shares.
                    f.usize(n.mem_binds().len());
                    for b in n.mem_binds() {
                        f.usize(b.index());
                    }
                }
                NodeKind::Load { mem } => {
                    f.u64(tag::NODE_LOAD);
                    f.usize(mem.index());
                }
                NodeKind::Store { mem } => {
                    f.u64(tag::NODE_STORE);
                    f.usize(mem.index());
                }
            }
        }
        // Memory shapes feed area (bits, ports, banks) and energy
        // (per-access) models, so they are part of the hashed content.
        f.u64(tag::MEMS);
        f.usize(self.mem_count());
        for (_, m) in self.mems() {
            f.u32(m.words);
            f.u32(m.elem_width);
            f.u32(m.ports);
            f.u32(m.banks);
            f.u64(match m.scope {
                MemScope::Owned => 0,
                MemScope::External => 1,
            });
        }
        f.usize(self.edge_count());
        for (_, e) in self.edges() {
            f.usize(e.from.node.index());
            f.u32(u32::from(e.from.port));
            f.usize(e.to.index());
            f.u32(u32::from(e.to_port));
            f.u32(e.delay);
        }
        f.usize(self.inputs().len());
        for &n in self.inputs() {
            f.usize(n.index());
        }
        f.usize(self.outputs().len());
        for &n in self.outputs() {
            f.usize(n.index());
        }
        let h = f.finish();
        if !calls {
            let _ = self.hash_cache().set(h);
        }
        h
    }
}

impl Hierarchy {
    /// [`Dfg::content_hash`] of DFG `id`, with every callee hashed the same
    /// way. Hierarchies are acyclic (validated), so this terminates.
    pub fn content_hash(&self, id: DfgId) -> u64 {
        self.dfg(id).content_hash(|c| self.content_hash(c))
    }
}
