//! Synthesis-as-a-service for the H-SYN reproduction.
//!
//! This crate turns the one-shot synthesis engine into a long-running
//! daemon (`hsyn serve`) with a matching synchronous client (`hsyn
//! submit`). The pieces:
//!
//! - [`proto`] — the wire protocol: JSON bodies in length-prefixed frames
//!   ([`hsyn_util::frame`]), a strict [`JobSpec`] parser, the
//!   content-addressed [`JobSpec::cache_key`] that names a job by its
//!   semantic content (deadline, tag, and `no_cache` excluded), and
//!   [`JobSpec::resolve`], the one place a job becomes `synthesize`
//!   inputs, for the daemon and the one-shot CLI alike.
//! - [`store`] — the persistent disk cache: a content-addressed job-result
//!   cache, written atomically (temp file + rename), versioned and
//!   checksummed, with corrupt files detected, discarded, and counted
//!   rather than trusted.
//! - [`server`] — the daemon: accept loop, bounded job queue, worker pool,
//!   per-job deadlines and tag-based cancellation, telemetry, and a
//!   shutdown-drain path.
//! - [`client`] — the synchronous client used by `hsyn submit` and the
//!   differential test harness.
//!
//! # Determinism contract
//!
//! A job's `result_json` depends only on the job spec. Queue order,
//! worker count, concurrent load, whether the answer came from the job
//! cache (of this daemon or of an earlier one), and cache corruption
//! recovery must all be byte-invisible in the report. The serve
//! differential suite (`tests/serve_differential.rs`) enforces this
//! against single-shot CLI runs byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

pub use client::{Client, ClientError, JobResult};
pub use hsyn_core::Budget;
pub use proto::{
    named_benchmark, named_library, parse_job, JobError, JobSource, JobSpec, MAX_LNS_ITERS,
    MAX_TRACE_LEN, PROTO_VERSION,
};
pub use server::{ServeOptions, Server, ServerStats};
pub use store::{DiskStore, JobLookup, STORE_VERSION};
