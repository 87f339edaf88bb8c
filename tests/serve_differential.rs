//! The serve-vs-CLI differential suite — the daemon's correctness
//! contract, enforced byte for byte:
//!
//! * a job's `result_json` from the daemon equals a single-shot in-process
//!   (and CLI `--result-json`) run of the same spec;
//! * cold, warm (content-addressed job-cache hit), cache-bypassing
//!   (`no_cache`), and after-daemon-restart answers are all
//!   byte-identical, and the daemon keeps nothing but `jobs/` on disk;
//! * 1, 2, and 4 concurrent clients interleaving distinct jobs never
//!   cross-talk — every response matches its own job's reference bytes;
//! * the telemetry proves the job cache actually worked (job-cache hits
//!   nonzero on repeats).

#[path = "serve_harness/mod.rs"]
mod harness;

use std::process::Command;

use harness::{reference_result_json, start_server, temp_cache, tiny_job};
use hsyn::core::Objective;
use hsyn::serve::{Client, JobSource, JobSpec, ServeOptions};
use hsyn::util::Json;

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

#[test]
fn cold_warm_nocache_and_restart_are_byte_identical() {
    let cache = temp_cache("diff");
    let opts = ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    };
    let (addr, handle) = start_server(opts.clone());
    let job = tiny_job("paulin");
    let expected = reference_result_json(&job);

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let cold = client.submit(&job).expect("cold submit");
    assert!(!cold.cached, "first submission cannot be a cache hit");
    assert_eq!(cold.result_json, expected, "cold daemon run != reference");
    // The job-cache entry is written before the answer is sent, so a
    // repeat racing in right behind the answer can never miss.
    let entry = cache.join("jobs").join(format!("{}.json", job.cache_key()));
    assert!(
        entry.is_file(),
        "{} must exist once the cold answer is received",
        entry.display()
    );

    let warm = client.submit(&job).expect("warm submit");
    assert!(warm.cached, "repeat submission must hit the job cache");
    assert_eq!(warm.result_json, expected, "cached bytes != reference");

    // no_cache forces a recompute after a prior job of the same spec.
    let mut bypass_job = job.clone();
    bypass_job.no_cache = true;
    let bypass = client.submit(&bypass_job).expect("no_cache submit");
    assert!(!bypass.cached);
    assert_eq!(bypass.result_json, expected, "no_cache recompute diverged");

    let stats = client.stats().expect("stats");
    assert!(stat(&stats, "job_cache_hits") >= 1.0, "{stats:?}");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");

    // The job cache is the daemon's only disk state.
    let kept: Vec<_> = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(kept, ["jobs"], "the daemon wrote more than jobs/");

    // Restart on the same cache directory: the persisted job cache must
    // answer without synthesizing, and a forced recompute must agree.
    let (addr, handle) = start_server(opts);
    let mut client = Client::connect(&addr.to_string()).expect("reconnect");
    let replay = client.submit(&job).expect("post-restart submit");
    assert!(replay.cached, "restart must preserve the job cache");
    assert_eq!(replay.result_json, expected, "post-restart bytes diverged");
    let recompute = client.submit(&bypass_job).expect("post-restart recompute");
    assert!(!recompute.cached);
    assert_eq!(recompute.result_json, expected);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&cache);
}

/// One row of the CLI-vs-daemon table: a one-shot CLI argv and the job
/// that must be answered with the same `result_json` bytes.
struct Row {
    argv: &'static [&'static str],
    job: JobSpec,
}

fn bench_job(name: &str, edit: impl FnOnce(&mut JobSpec)) -> JobSpec {
    let mut job = JobSpec::new(JobSource::Bench(name.to_owned()));
    edit(&mut job);
    job
}

#[test]
fn daemon_matches_cli_result_json_bytes() {
    // Full-budget jobs, no overrides: each row pairs a CLI invocation with
    // the job `hsyn submit` would send for the same flags.
    let biquad = std::fs::read_to_string("examples/dfg/biquad.dfg").expect("example DFG");
    let rows = [
        Row {
            argv: &["--benchmark", "paulin"],
            job: bench_job("paulin", |_| {}),
        },
        Row {
            argv: &[
                "--benchmark",
                "paulin",
                "--library",
                "table1",
                "--objective",
                "area",
                "--flat",
            ],
            job: bench_job("paulin", |j| {
                j.library = "table1".to_owned();
                j.objective = Objective::Area;
                j.flat = true;
            }),
        },
        Row {
            argv: &[
                "--benchmark",
                "paulin",
                "--laxity",
                "1.2",
                "--seed",
                "7",
                "--lns-iters",
                "2",
            ],
            job: bench_job("paulin", |j| {
                j.laxity = 1.2;
                j.seed = Some(7);
                j.lns_iters = 2;
            }),
        },
        Row {
            argv: &["--benchmark", "paulin", "--period", "120"],
            job: bench_job("paulin", |j| j.period_ns = Some(120.0)),
        },
        Row {
            argv: &["examples/dfg/biquad.dfg"],
            job: JobSpec::new(JobSource::Text(biquad)),
        },
    ];

    let (addr, handle) = start_server(ServeOptions::default());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let served: Vec<String> = rows
        .iter()
        .map(|row| client.submit(&row.job).expect("submit").result_json)
        .collect();
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");

    for (row, served) in rows.iter().zip(&served) {
        let out = Command::new(env!("CARGO_BIN_EXE_hsyn"))
            .args(row.argv)
            .arg("--result-json")
            .output()
            .expect("CLI runs");
        assert!(out.status.success(), "CLI {:?} failed: {out:?}", row.argv);
        let cli = String::from_utf8(out.stdout).expect("CLI output is UTF-8");
        assert_eq!(
            cli.trim_end(),
            served,
            "daemon and CLI {:?} disagree on result_json bytes",
            row.argv
        );
    }
}

#[test]
fn concurrent_clients_never_cross_talk() {
    // Distinct jobs (different seeds) in flight at once, from 1, 2, and 4
    // clients: every response must match its own job's reference bytes.
    let jobs: Vec<JobSpec> = [11u64, 22, 33, 44]
        .iter()
        .map(|&s| {
            let mut j = tiny_job("paulin");
            j.seed = Some(s);
            j.no_cache = true; // force real synthesis every time
            j
        })
        .collect();
    let expected: Vec<String> = jobs.iter().map(reference_result_json).collect();

    for clients in [1usize, 2, 4] {
        let (addr, handle) = start_server(ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        });
        let mut threads = Vec::new();
        for c in 0..clients {
            let addr = addr.to_string();
            let jobs = jobs.clone();
            let expected = expected.clone();
            threads.push(std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                // Each client walks the suite in a different order.
                for i in 0..jobs.len() {
                    let k = (i + c) % jobs.len();
                    let got = client.submit(&jobs[k]).expect("submit");
                    assert_eq!(
                        got.result_json, expected[k],
                        "client {c} job {k} got another job's (or wrong) bytes \
                         under {clients} concurrent clients"
                    );
                }
            }));
        }
        for t in threads {
            t.join().expect("client thread");
        }
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("daemon thread");
    }
}
