//! The `serve_mixed` workload: an `hsyn serve` daemon in this process on
//! loopback, driven by a closed loop of `nproc` client connections against
//! `nproc` workers. Every run starts the daemon on a fresh cache
//! directory.

use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hsyn_core::synthesize;
use hsyn_dfg::benchmarks;
use hsyn_rtl::ModuleLibrary;
use hsyn_serve::{Client, JobSource, JobSpec, ServeOptions, Server};
use hsyn_util::Json;

use crate::jobs::{self, Submission};
use crate::metrics::{geomean, median, quantile, Outcome};
use crate::trace::Tracer;
use crate::{gate, host, Args};

/// Passes over each round's sequence, each on a fresh daemon. A
/// submission's latency is its median over the passes, which absorbs how
/// concurrent jobs happened to pair up and host hiccups shorter than a job.
const PASSES: usize = 3;

/// Daemon starts beyond the one per pass, made after the passes;
/// `setup_s` is the median of all starts.
const EXTRA_STARTS: usize = 2;

/// Daemon `stats` counters summed over passes for the per-layer metrics.
const STATS: &[&str] = &[
    "job_cache_hits",
    "job_cache_misses",
    "warm_area_hits",
    "queue_rejected",
    "cache_discards",
];

/// A running daemon and its clients.
struct Daemon {
    clients: Vec<Client>,
    thread: JoinHandle<std::io::Result<()>>,
    cache_dir: std::path::PathBuf,
}

impl Daemon {
    /// Set-up: bind on a fresh cache directory, connect every client (the
    /// first round trip waits for the accept loop), and run one warm-up
    /// job that is in no job list.
    fn start(n: usize, tag: &str) -> Result<Daemon, String> {
        let cache_dir = crate::out_dir().join(format!("serve-cache-{tag}"));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Server::bind(ServeOptions {
            workers: n,
            cache_dir: Some(cache_dir.clone()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr: SocketAddr = server.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        let mut clients = Vec::with_capacity(n);
        for _ in 0..n {
            let mut c = Client::connect(&addr.to_string()).map_err(|e| e.to_string())?;
            c.ping().map_err(|e| e.to_string())?;
            clients.push(c);
        }
        let mut warmup = JobSpec::new(JobSource::Bench("paulin".to_owned()));
        warmup.seed = Some(0);
        warmup.budget = Some(jobs::SERVE_BUDGET);
        clients[0].submit(&warmup).map_err(|e| e.to_string())?;
        Ok(Daemon {
            clients,
            thread,
            cache_dir,
        })
    }

    fn stop(mut self) -> Result<(), String> {
        let r = self.clients[0]
            .shutdown()
            .map(|_| ())
            .map_err(|e| e.to_string());
        drop(self.clients);
        let joined = self.thread.join();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        r?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

/// One answered (or refused) submission.
struct Answer {
    pos: usize,
    rtt: f64,
    wall_s: f64,
    queue_s: f64,
    cached: bool,
    result: Result<String, String>,
}

/// Answers by position, so a repeat can wait for its original.
struct Board {
    answers: Mutex<Vec<Option<Result<String, String>>>>,
    cv: Condvar,
}

impl Board {
    fn wait_for(&self, pos: usize) -> Result<String, String> {
        let mut a = self.answers.lock().expect("board poisoned");
        loop {
            if let Some(r) = &a[pos] {
                return r.clone();
            }
            a = self.cv.wait(a).expect("board poisoned");
        }
    }

    fn post(&self, pos: usize, r: Result<String, String>) {
        self.answers.lock().expect("board poisoned")[pos] = Some(r);
        self.cv.notify_all();
    }
}

/// One client's closed loop over its lane of the submission sequence:
/// positions `lane`, `lane + n`, ... A repeat first waits until its
/// original has been answered, so it can only be a cache hit.
fn drive(
    client: &mut Client,
    seq: &[Submission],
    lane: usize,
    n: usize,
    board: &Board,
    tr: &mut Tracer,
) -> Vec<Answer> {
    let mut out = Vec::new();
    for pos in (lane..seq.len()).step_by(n) {
        let (job, original) = match &seq[pos] {
            Submission::Cold(job) => (job, None),
            Submission::Repeat(of) => match &seq[*of] {
                Submission::Cold(job) => (job, Some(board.wait_for(*of))),
                Submission::Repeat(_) => unreachable!("repeats point at cold jobs"),
            },
        };
        let t = Instant::now();
        let r = tr.span("serve.rtt", pos as u64, |_| client.submit(job));
        let rtt = t.elapsed().as_secs_f64();
        let mut answer = Answer {
            pos,
            rtt,
            wall_s: 0.0,
            queue_s: 0.0,
            cached: false,
            result: Err(String::new()),
        };
        answer.result = match r {
            Ok(res) => {
                answer.wall_s = res.wall_ms / 1e3;
                answer.queue_s = res.queue_ms / 1e3;
                answer.cached = res.cached;
                match original {
                    Some(Ok(first)) if first != res.result_json => Err(format!(
                        "repeat of #{pos} returned other bytes than its first answer"
                    )),
                    Some(Err(e)) => Err(format!("original failed: {e}")),
                    _ => Ok(res.result_json),
                }
            }
            Err(e) => Err(e.to_string()),
        };
        board.post(pos, answer.result.clone());
        out.push(answer);
    }
    out
}

/// The objective value of a served report (`evaluation.cost`, stored as
/// the hex of its bits).
fn served_cost(result_json: &str) -> Option<f64> {
    let v = Json::parse(result_json).ok()?;
    let hex = v.get("evaluation")?.get("cost")?.as_str()?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

/// Run one pass of `seq` on `daemon`: one closed-loop client thread per
/// connection. Returns each lane's answers and spans.
fn run_pass(
    daemon: &mut Daemon,
    seq: &[Submission],
    trace: bool,
    origin: Instant,
) -> Vec<(Vec<Answer>, Tracer)> {
    let n = daemon.clients.len();
    let board = Board {
        answers: Mutex::new(vec![None; seq.len()]),
        cv: Condvar::new(),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let board = &board;
                let mut lane_tr = Tracer::new(trace, origin);
                s.spawn(move || (drive(client, seq, lane, n, board, &mut lane_tr), lane_tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<Tracer, String> {
    let n = host::nproc();
    let mut starts = 0usize;
    let mut setup = Vec::new();
    let mut start = |setup: &mut Vec<f64>| -> Result<Daemon, String> {
        starts += 1;
        let t = Instant::now();
        let d = Daemon::start(n, &format!("{}-{starts}", std::process::id()))?;
        setup.push(t.elapsed().as_secs_f64());
        Ok(d)
    };

    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let rounds = crate::rounds(args.seconds);
    let mut timed = 0.0;
    let mut completed = 0u64;
    let (mut computed, mut hits, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold_jobs: Vec<(JobSpec, String)> = Vec::new();
    let mut stats_sum: Vec<(&str, f64)> = STATS.iter().map(|&k| (k, 0.0)).collect();
    let mut peak_rss = None;
    for round in 0..rounds {
        let seq = jobs::serve_mixed(args.seed, round);
        let mut by_pos: Vec<Vec<Answer>> = (0..seq.len()).map(|_| Vec::new()).collect();
        for _ in 0..PASSES {
            let mut daemon = start(&mut setup)?;
            let t = Instant::now();
            let lanes = run_pass(&mut daemon, &seq, args.trace, origin);
            timed += t.elapsed().as_secs_f64();
            // Later passes inherit the allocator state of earlier daemons,
            // so the memory figure is taken after the first.
            peak_rss.get_or_insert_with(host::peak_rss_mb);
            let stats = daemon.clients[0].stats().map_err(|e| e.to_string());
            daemon.stop()?;
            let stats = stats?;
            for (key, sum) in &mut stats_sum {
                *sum += stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            }
            for (lane_answers, lane_tr) in lanes {
                tr.merge(lane_tr);
                for a in lane_answers {
                    by_pos[a.pos].push(a);
                }
            }
        }
        for (pos, answers) in by_pos.into_iter().enumerate() {
            let mut first: Option<&String> = None;
            for a in &answers {
                out.attempted += 1;
                match &a.result {
                    Ok(bytes) if first.is_some_and(|f| f != bytes) => out.fail(format!(
                        "submission #{pos}: passes on fresh daemons returned other bytes"
                    )),
                    Ok(bytes) => {
                        completed += 1;
                        first.get_or_insert(bytes);
                    }
                    Err(e) => out.fail(format!("submission #{pos} ({:?}): {e}", seq[pos])),
                }
                let t = a.rtt - a.queue_s - a.wall_s;
                transport.push(t);
                out.add("serve.queue_wait_s", a.queue_s);
                out.add("serve.exec_s", a.wall_s);
                out.add("serve.transport_s", t);
            }
            // The submission's latency: the median over passes, within the
            // class (computed or job-cache hit) most passes saw.
            let cached = answers.iter().filter(|a| a.cached).count() * 2 > answers.len();
            let rtts: Vec<f64> = answers
                .iter()
                .filter(|a| a.cached == cached && a.result.is_ok())
                .map(|a| a.rtt)
                .collect();
            if !rtts.is_empty() {
                if cached { &mut hits } else { &mut computed }.push(median(&rtts));
            }
            if let (Submission::Cold(job), Some(bytes)) = (&seq[pos], first) {
                cold_jobs.push((JobSpec::clone(job), bytes.clone()));
            }
        }
    }
    for _ in 0..EXTRA_STARTS {
        start(&mut setup)?.stop()?;
    }
    out.set("peak_rss_mb", peak_rss.expect("one pass ran"));
    out.set("setup_s", median(&setup));
    out.set("jobs_per_s", completed as f64 / timed);
    if !computed.is_empty() {
        crate::set_latencies(out, "job", &computed);
    }
    if !hits.is_empty() {
        out.set("hit_s_p50", quantile(&hits, 0.5));
    }
    if !transport.is_empty() {
        out.set("serve.transport_s_p50", median(&transport));
    }
    out.notes.push(format!(
        "timed phase: {rounds} round(s) x {PASSES} passes on fresh daemons, {} jobs \
         ({} computed, {} job-cache hits; each latency the median over passes) \
         over {n} connections and {n} workers in {timed:.3} s",
        computed.len() + hits.len(),
        computed.len(),
        hits.len()
    ));
    if tr.enabled() {
        out.set("trace.jobs_per_s", completed as f64 / timed);
        let stat = |k: &str| stats_sum.iter().find(|s| s.0 == k).map_or(0.0, |s| s.1);
        let (h, m) = (stat("job_cache_hits"), stat("job_cache_misses"));
        out.set("serve.job_cache_hit_ratio", h / (h + m).max(1.0));
        out.set("serve.warm_area_hits", stat("warm_area_hits"));
        out.set("serve.queue_rejected", stat("queue_rejected"));
        out.set("serve.cache_discards", stat("cache_discards"));
    }
    let costs: Vec<f64> = cold_jobs
        .iter()
        .filter_map(|(_, b)| served_cost(b))
        .collect();
    if !costs.is_empty() {
        out.set("qor_cost_geo", geomean(&costs));
    }

    // Correctness gate: re-run every computed job in this process; the
    // served bytes must match, and the design must pass the design checks.
    let store = tr.enabled().then(crate::replay_store);
    for (i, (job, served)) in cold_jobs.iter().enumerate() {
        let i = i as u64;
        let JobSource::Bench(name) = &job.source else {
            unreachable!("serve_mixed submits registry benchmarks")
        };
        let bench = benchmarks::by_name(name).expect("registry benchmark");
        let mut mlib = ModuleLibrary::from_simple(hsyn_lib::Library::realistic());
        mlib.equiv = bench.equiv.clone();
        let config = job.to_config(None, None);
        let report = match tr.span("core.synth", i, |_| {
            synthesize(&bench.hierarchy, &mlib, &config)
        }) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{name}: in-process re-run failed: {e}"));
                continue;
            }
        };
        crate::record_report(out, &report);
        if report.result_json() != *served {
            out.fail(format!(
                "{name}: served bytes differ from the in-process run"
            ));
        }
        if let Err(e) = gate::check_design(&report.design, &mlib.simple, &config, &mut tr, i) {
            out.fail(format!("{name}: {e}"));
        }
        if let Some(store) = &store {
            let checked = gate::replay_layers(&report, &mlib.simple, &config, &mut tr, i)
                .and_then(|()| gate::replay_io(store, served, &mut tr, i));
            if let Err(e) = checked {
                out.fail(format!("{name} replay: {e}"));
            }
        }
    }
    Ok(tr)
}
