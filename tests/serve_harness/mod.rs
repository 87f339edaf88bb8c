//! Shared harness for the `hsyn serve` test suites: spawn an in-process
//! daemon, build reduced-budget jobs, and compute the single-shot
//! reference `result_json` a daemon answer must match byte for byte.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

use hsyn::serve::{Budget, JobSource, JobSpec, ServeOptions, Server};

/// Spawn a daemon on a free port; returns its address and the `run()`
/// thread (joined after `Client::shutdown`).
pub fn start_server(opts: ServeOptions) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(opts).expect("daemon binds");
    let addr = server.local_addr().expect("daemon has an address");
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, handle)
}

/// A fresh per-test cache directory under the target temp dir.
pub fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsyn-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reduced search budget every serve test uses (same scale as the
/// other integration suites, so one job runs in well under a second).
pub fn tiny_budget() -> Budget {
    Budget {
        max_passes: Some(3),
        candidate_limit: Some(3),
        eval_trace_len: Some(16),
        report_trace_len: Some(32),
        max_clock_candidates: Some(2),
        resynth_depth: Some(1),
    }
}

/// A reduced-budget job for a built-in benchmark.
pub fn tiny_job(bench: &str) -> JobSpec {
    let mut job = JobSpec::new(JobSource::Bench(bench.to_owned()));
    job.budget = Some(tiny_budget());
    job
}

/// The single-shot reference: synthesize `job` in-process with no daemon
/// and no cancellation token, and return its
/// `result_json`. The determinism contract says every daemon answer for
/// the same job — cold, warm, concurrent, or after a restart — must equal
/// these bytes exactly.
pub fn reference_result_json(job: &JobSpec) -> String {
    let (hierarchy, equiv) = match &job.source {
        JobSource::Bench(name) => {
            let b = hsyn::dfg::benchmarks::by_name(name).expect("known benchmark");
            (b.hierarchy, b.equiv)
        }
        JobSource::Text(src) => {
            let p = hsyn::dfg::text::parse(src).expect("valid DFG text");
            p.hierarchy.validate().expect("valid hierarchy");
            (p.hierarchy, p.equiv)
        }
    };
    let simple = match job.library.as_str() {
        "table1" => hsyn::lib::papers::table1_library(),
        "realistic" => hsyn::lib::Library::realistic(),
        other => panic!("unknown library {other}"),
    };
    let mut mlib = hsyn::rtl::ModuleLibrary::from_simple(simple);
    mlib.equiv = equiv;
    let config = job.to_config(None, None);
    hsyn::core::synthesize(&hierarchy, &mlib, &config)
        .expect("reference synthesis succeeds")
        .result_json()
}
