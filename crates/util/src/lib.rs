//! Dependency-free runtime substrate shared by the H-SYN crates.
//!
//! Six small pieces that the rest of the workspace would otherwise pull
//! external crates for:
//!
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64) for trace
//!   generation and randomized tests;
//! * [`par`] — a scoped-thread parallel map whose results are merged in
//!   input order, so parallel and serial runs are byte-identical;
//! * [`json`] — a minimal JSON value type with parser and pretty printer
//!   for the experiment-result cache;
//! * [`frame`] — length-prefixed socket framing for the `hsyn serve`
//!   protocol, with structured errors for every way a peer can misbehave;
//! * [`hash`] — stable FNV-1a content hashing for on-disk cache keys;
//! * [`memo`] — the one bounded memo table behind every engine and
//!   analysis memo, which clears when full and counts its own hits and
//!   misses.
//!
//! Everything here is `std`-only: the workspace builds with no network
//! access and no registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod hash;
pub mod json;
pub mod memo;
pub mod par;
pub mod rng;

pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME};
pub use hash::{content_key, fnv1a_64};
pub use json::Json;
pub use memo::{BoundedMemo, MemoCount};
pub use par::{effective_threads, par_map};
pub use rng::Rng;
