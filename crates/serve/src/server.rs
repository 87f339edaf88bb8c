//! The `hsyn serve` daemon: accept loop, bounded job queue, worker pool,
//! cancellation registry, telemetry, and shutdown drain.
//!
//! One thread per connection reads frames and dispatches requests; `submit`
//! requests enqueue onto a bounded queue drained by a fixed worker pool
//! (`--jobs`), each worker running one synthesis at a time (whose own
//! `(Vdd, clk)` sweep may use further threads). Responses are written back
//! over the submitting connection, matched by `seq`, as one write on a
//! `TCP_NODELAY` socket. A computed job's cache entry is written before
//! its response is sent, so a repeat that arrives right after the answer
//! is always a cache hit. The area store only warms later jobs: a worker
//! marks it dirty after answering and a persister thread writes it, one
//! write for every burst of jobs; shutdown writes it before acking.
//!
//! Determinism contract: a job's `result_json` depends only on the job
//! spec — not on queue order, worker count, concurrent load, cache
//! temperature, or daemon restarts. The serve differential suite enforces
//! this against single-shot CLI runs byte for byte.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hsyn_core::{synthesize, CancelToken, SharedAreaCache, SynthesisError};
use hsyn_rtl::verilog_text;
use hsyn_util::{read_frame, write_frame, FrameError, Json, MAX_FRAME};

use crate::proto::{error_response, parse_job, JobSpec};
use crate::store::{DiskStore, JobLookup};

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (tests use this).
    pub addr: String,
    /// Concurrent synthesis workers.
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it get `queue_full`.
    pub queue_cap: usize,
    /// Cache directory for the persistent stores; `None` keeps both cache
    /// layers in memory only (still warm across jobs, cold on restart).
    pub cache_dir: Option<PathBuf>,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// Print a listening banner and a shutdown summary to stdout.
    pub banner: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 64,
            cache_dir: None,
            max_frame: MAX_FRAME,
            banner: false,
        }
    }
}

/// Daemon-lifetime counters, all monotone except the gauges. Exposed via
/// the `stats` request and printed in the shutdown summary.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Jobs accepted onto the queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs answered with a `result` (cached or computed).
    pub jobs_served: AtomicU64,
    /// Jobs that failed (bad request or synthesis error).
    pub jobs_failed: AtomicU64,
    /// Jobs aborted by explicit cancellation.
    pub jobs_cancelled: AtomicU64,
    /// Jobs aborted by deadline expiry.
    pub jobs_deadline: AtomicU64,
    /// Submits rejected because the queue was full.
    pub queue_rejected: AtomicU64,
    /// Job-cache lookups answered from disk/memory.
    pub job_cache_hits: AtomicU64,
    /// Job-cache lookups that fell through to synthesis.
    pub job_cache_misses: AtomicU64,
    /// Corrupt cache files detected and discarded (both layers).
    pub cache_discards: AtomicU64,
    /// Warm area-cache hits across all jobs (entries seeded from the
    /// shared store — work some previous job already paid for).
    pub warm_area_hits: AtomicU64,
    /// Malformed frames / JSON / requests seen.
    pub protocol_errors: AtomicU64,
    /// Current queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Jobs currently executing (gauge).
    pub active_jobs: AtomicU64,
}

/// One queued job.
struct Queued {
    seq: f64,
    job: JobSpec,
    token: CancelToken,
    writer: Arc<Mutex<TcpStream>>,
    queued_at: Instant,
}

/// The bounded job queue: `Mutex<VecDeque>` + `Condvar`, rejecting (not
/// blocking) when full so a flooded daemon degrades with structured
/// `queue_full` errors instead of backpressure deadlocks.
struct JobQueue {
    q: Mutex<VecDeque<Queued>>,
    cv: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> Self {
        JobQueue {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue, or return the job back (boxed: a `Queued` is wide, and the
    /// rejection path is cold) if the queue is at capacity.
    fn push(&self, item: Queued) -> Result<(), Box<Queued>> {
        let mut q = self.q.lock().expect("queue poisoned");
        if q.len() >= self.cap {
            return Err(Box::new(item));
        }
        q.push_back(item);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once `stop` is set and the queue is empty.
    fn pop(&self, stop: &AtomicBool) -> Option<Queued> {
        let mut q = self.q.lock().expect("queue poisoned");
        loop {
            if let Some(item) = q.pop_front() {
                return Some(item);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(100))
                .expect("queue poisoned");
            q = guard;
        }
    }
}

/// Requests to the persister thread.
#[derive(Default)]
struct PersistSignal {
    /// A job finished since the persister last started a write.
    dirty: bool,
    /// The daemon is stopping; `run` writes the final snapshot itself.
    exit: bool,
}

/// Shared daemon state.
struct Ctx {
    opts: ServeOptions,
    stats: ServerStats,
    queue: JobQueue,
    /// Set when shutdown begins: no new submits are accepted.
    draining: AtomicBool,
    /// Set when workers and the accept loop should exit.
    stop: AtomicBool,
    /// Signalled whenever a job finishes (for the drain wait).
    idle_cv: Condvar,
    idle_mx: Mutex<()>,
    /// Live cancel tokens by job tag.
    tags: Mutex<HashMap<String, Vec<CancelToken>>>,
    /// One cross-job area store per library name.
    areas: Mutex<HashMap<String, Arc<SharedAreaCache>>>,
    store: Option<DiskStore>,
    /// Requests to the persister thread, and its wake-up.
    persist: Mutex<PersistSignal>,
    persist_cv: Condvar,
    /// Area entry count of the last successful area-store write. The lock
    /// also serializes every `persist_areas` call.
    persisted: Mutex<Option<u64>>,
    /// Where a throwaway connection wakes the blocking accept loop.
    wake_addr: SocketAddr,
    started: Instant,
}

impl Ctx {
    fn pending_jobs(&self) -> u64 {
        self.stats.queue_depth.load(Ordering::Acquire)
            + self.stats.active_jobs.load(Ordering::Acquire)
    }

    /// The shared area store for a library, created on first use.
    fn area_store(&self, library: &str) -> Arc<SharedAreaCache> {
        let mut areas = self.areas.lock().expect("areas poisoned");
        areas
            .entry(library.to_owned())
            .or_insert_with(|| Arc::new(SharedAreaCache::new()))
            .clone()
    }

    /// Persist the area stores: a no-op without a cache directory, or when
    /// the entry count is unchanged since the last write (the stores only
    /// grow, so an equal count means equal contents). Calls are serialized.
    fn persist_areas(&self) {
        let Some(store) = &self.store else { return };
        let mut persisted = self.persisted.lock().expect("persisted poisoned");
        if *persisted == Some(self.area_entries()) {
            return;
        }
        let areas = self.areas.lock().expect("areas poisoned");
        let mut libs: Vec<(String, Vec<_>)> = areas
            .iter()
            .map(|(name, s)| (name.clone(), s.snapshot()))
            .collect();
        drop(areas);
        libs.sort_by(|a, b| a.0.cmp(&b.0));
        let count = libs.iter().map(|(_, e)| e.len() as u64).sum();
        // Persistence is best-effort: a failed write costs warmth, not
        // correctness, and the next job retries it.
        if store.store_areas(&libs).is_ok() {
            *persisted = Some(count);
        }
    }

    /// Ask the persister for an area-store write.
    fn request_persist(&self) {
        self.persist.lock().expect("persist poisoned").dirty = true;
        self.persist_cv.notify_one();
    }

    fn area_entries(&self) -> u64 {
        let areas = self.areas.lock().expect("areas poisoned");
        areas.values().map(|s| s.len() as u64).sum()
    }

    fn area_dropped(&self) -> u64 {
        let areas = self.areas.lock().expect("areas poisoned");
        areas.values().map(|s| s.dropped()).sum()
    }
}

/// A bound, not-yet-running daemon. `bind` then `run`; tests read
/// [`local_addr`](Self::local_addr) between the two.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Bind the listener and load the persistent caches.
    ///
    /// # Errors
    ///
    /// Bind failures and cache-directory creation failures.
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let store = match &opts.cache_dir {
            Some(dir) => Some(DiskStore::open(dir)?),
            None => None,
        };
        let ctx = Arc::new(Ctx {
            queue: JobQueue::new(opts.queue_cap),
            stats: ServerStats::default(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            idle_cv: Condvar::new(),
            idle_mx: Mutex::new(()),
            tags: Mutex::new(HashMap::new()),
            areas: Mutex::new(HashMap::new()),
            store,
            persist: Mutex::new(PersistSignal::default()),
            persist_cv: Condvar::new(),
            persisted: Mutex::new(None),
            wake_addr,
            started: Instant::now(),
            opts,
        });
        // Warm the per-library area stores from disk. A corrupt file is
        // discarded (and counted): the daemon starts cold but correct.
        if let Some(store) = &ctx.store {
            let (libs, discards) = store.load_areas();
            ctx.stats
                .cache_discards
                .fetch_add(discards, Ordering::AcqRel);
            let mut areas = ctx.areas.lock().expect("areas poisoned");
            for (name, entries) in libs {
                let shared = Arc::new(SharedAreaCache::new());
                for (fp, a) in entries {
                    shared.insert(fp, a);
                }
                areas.insert(name, shared);
            }
        }
        Ok(Server { listener, ctx })
    }

    /// The bound address (with the real port when `addr` asked for port 0).
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run until a `shutdown` request drains the queue. Blocks the calling
    /// thread; tests run it on a spawned thread.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O errors only — per-connection and per-job
    /// failures are structured protocol errors, not daemon failures.
    pub fn run(self) -> io::Result<()> {
        let ctx = self.ctx;
        if ctx.opts.banner {
            // The test harness and scripts parse this line for the port.
            banner(format_args!(
                "hsyn serve listening on {}",
                self.listener.local_addr()?
            ));
        }
        let mut workers = Vec::new();
        for _ in 0..ctx.opts.workers.max(1) {
            let ctx = ctx.clone();
            workers.push(std::thread::spawn(move || worker_loop(&ctx)));
        }
        let persister = {
            let ctx = ctx.clone();
            std::thread::spawn(move || persister_loop(&ctx))
        };
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            // `shutdown` sets `stop`, then wakes this blocking accept with a
            // throwaway connection.
            if ctx.stop.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(stream) => {
                    ctx.stats.connections.fetch_add(1, Ordering::AcqRel);
                    conns.retain(|c| !c.is_finished());
                    let ctx = ctx.clone();
                    conns.push(std::thread::spawn(move || connection_loop(&ctx, stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        ctx.queue.cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        ctx.persist.lock().expect("persist poisoned").exit = true;
        ctx.persist_cv.notify_one();
        let _ = persister.join();
        // Connection threads exit when their peers close or on the next
        // read timeout; don't block daemon exit on lingering idle peers.
        for c in conns {
            if c.is_finished() {
                let _ = c.join();
            }
        }
        ctx.persist_areas();
        if ctx.opts.banner {
            let s = &ctx.stats;
            banner(format_args!(
                "hsyn serve: {} jobs served ({} cache hits, {} warm area hits), \
                 {} failed, {} cancelled, {} deadline-expired, {} protocol errors, \
                 {} area entries persisted, up {:.1}s",
                s.jobs_served.load(Ordering::Acquire),
                s.job_cache_hits.load(Ordering::Acquire),
                s.warm_area_hits.load(Ordering::Acquire),
                s.jobs_failed.load(Ordering::Acquire),
                s.jobs_cancelled.load(Ordering::Acquire),
                s.jobs_deadline.load(Ordering::Acquire),
                s.protocol_errors.load(Ordering::Acquire),
                ctx.area_entries(),
                ctx.started.elapsed().as_secs_f64(),
            ));
        }
        Ok(())
    }
}

/// Print one banner line through a locked stdout and flush it, ignoring
/// write errors: a daemon must not die because its log reader went away
/// (`println!` panics on a closed pipe).
fn banner(line: std::fmt::Arguments<'_>) {
    use io::Write as _;
    let mut out = io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Send one JSON frame, serializing writers on the connection's mutex.
fn send(writer: &Arc<Mutex<TcpStream>>, body: &Json) {
    let mut stream = writer.lock().expect("writer poisoned");
    // A dead peer is not a daemon error; the write result is dropped and
    // the reader side will observe the close.
    let _ = write_frame(&mut *stream, body.to_string_pretty().as_bytes());
}

/// Per-connection reader: frames in, dispatch, until close or a
/// connection-fatal frame error.
fn connection_loop(ctx: &Arc<Ctx>, stream: TcpStream) {
    // A peer that stalls mid-frame for minutes is dropped rather than
    // pinning the reader thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
    // Answers must not wait for the peer's delayed ACK (Nagle).
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        match read_frame(&mut reader, ctx.opts.max_frame) {
            Ok(payload) => {
                if !dispatch(ctx, &payload, &writer) {
                    break;
                }
            }
            Err(FrameError::Closed) => break,
            Err(e) => {
                // Truncated / oversized / garbage-length frames: count,
                // answer with a structured error (best effort — the peer
                // may already be gone), and drop the connection. The
                // accept loop and all other connections are unaffected.
                ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
                send(&writer, &error_response(None, "bad_frame", &e.to_string()));
                break;
            }
        }
    }
}

/// Handle one request frame. Returns `false` when the connection should
/// close (after a `shutdown` ack).
fn dispatch(ctx: &Arc<Ctx>, payload: &[u8], writer: &Arc<Mutex<TcpStream>>) -> bool {
    let Ok(text) = std::str::from_utf8(payload) else {
        ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
        send(
            writer,
            &error_response(None, "bad_json", "frame payload is not UTF-8"),
        );
        return true;
    };
    let v = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
            send(
                writer,
                &error_response(None, "bad_json", &format!("frame is not JSON: {e}")),
            );
            return true;
        }
    };
    let seq = v.get("seq").and_then(Json::as_f64);
    let Some(kind) = v.get("type").and_then(Json::as_str) else {
        ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
        send(
            writer,
            &error_response(seq, "bad_request", "request needs a string `type`"),
        );
        return true;
    };
    match kind {
        "ping" => {
            send(
                writer,
                &Json::Obj(vec![
                    ("type".to_owned(), Json::Str("pong".to_owned())),
                    ("seq".to_owned(), seq.map_or(Json::Null, Json::Num)),
                ]),
            );
            true
        }
        "stats" => {
            send(writer, &stats_response(ctx, seq));
            true
        }
        "cancel" => {
            let Some(tag) = v.get("tag").and_then(Json::as_str) else {
                ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
                send(
                    writer,
                    &error_response(seq, "bad_request", "cancel needs a string `tag`"),
                );
                return true;
            };
            let cancelled = {
                let tags = ctx.tags.lock().expect("tags poisoned");
                match tags.get(tag) {
                    Some(tokens) => {
                        for t in tokens {
                            t.cancel();
                        }
                        tokens.len() as u64
                    }
                    None => 0,
                }
            };
            send(
                writer,
                &Json::Obj(vec![
                    ("type".to_owned(), Json::Str("cancel_ack".to_owned())),
                    ("seq".to_owned(), seq.map_or(Json::Null, Json::Num)),
                    ("cancelled".to_owned(), Json::Num(cancelled as f64)),
                ]),
            );
            true
        }
        "shutdown" => {
            ctx.draining.store(true, Ordering::Release);
            // Drain: finish every queued and running job before acking.
            let mut guard = ctx.idle_mx.lock().expect("idle poisoned");
            while ctx.pending_jobs() > 0 {
                let (g, _) = ctx
                    .idle_cv
                    .wait_timeout(guard, Duration::from_millis(100))
                    .expect("idle poisoned");
                guard = g;
            }
            drop(guard);
            ctx.persist_areas();
            send(
                writer,
                &Json::Obj(vec![
                    ("type".to_owned(), Json::Str("shutdown_ack".to_owned())),
                    ("seq".to_owned(), seq.map_or(Json::Null, Json::Num)),
                    (
                        "jobs_served".to_owned(),
                        Json::Num(ctx.stats.jobs_served.load(Ordering::Acquire) as f64),
                    ),
                ]),
            );
            ctx.stop.store(true, Ordering::Release);
            ctx.queue.cv.notify_all();
            let _ = TcpStream::connect(ctx.wake_addr);
            false
        }
        "submit" => {
            let Some(job_v) = v.get("job") else {
                ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
                send(
                    writer,
                    &error_response(seq, "bad_request", "submit needs a `job` object"),
                );
                return true;
            };
            let job = match parse_job(job_v) {
                Ok(j) => j,
                Err(e) => {
                    ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
                    send(writer, &error_response(seq, "bad_request", &e));
                    return true;
                }
            };
            let Some(seq) = seq else {
                ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
                send(
                    writer,
                    &error_response(None, "bad_request", "submit needs a numeric `seq`"),
                );
                return true;
            };
            if ctx.draining.load(Ordering::Acquire) {
                send(
                    writer,
                    &error_response(Some(seq), "draining", "daemon is shutting down"),
                );
                return true;
            }
            let token = match job.deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            if let Some(tag) = &job.tag {
                ctx.tags
                    .lock()
                    .expect("tags poisoned")
                    .entry(tag.clone())
                    .or_default()
                    .push(token.clone());
            }
            let item = Queued {
                seq,
                job,
                token,
                writer: writer.clone(),
                queued_at: Instant::now(),
            };
            match ctx.queue.push(item) {
                Ok(()) => {
                    ctx.stats.jobs_submitted.fetch_add(1, Ordering::AcqRel);
                    ctx.stats.queue_depth.fetch_add(1, Ordering::AcqRel);
                }
                Err(item) => {
                    ctx.stats.queue_rejected.fetch_add(1, Ordering::AcqRel);
                    send(
                        &item.writer,
                        &error_response(
                            Some(item.seq),
                            "queue_full",
                            &format!("job queue is at capacity ({})", ctx.opts.queue_cap),
                        ),
                    );
                }
            }
            true
        }
        other => {
            ctx.stats.protocol_errors.fetch_add(1, Ordering::AcqRel);
            send(
                writer,
                &error_response(
                    seq,
                    "bad_request",
                    &format!("unknown request type `{other}`"),
                ),
            );
            true
        }
    }
}

/// Worker: pop jobs until stopped, run each, signal the drain waiters.
fn worker_loop(ctx: &Arc<Ctx>) {
    while let Some(item) = ctx.queue.pop(&ctx.stop) {
        ctx.stats.queue_depth.fetch_sub(1, Ordering::AcqRel);
        ctx.stats.active_jobs.fetch_add(1, Ordering::AcqRel);
        run_job(ctx, &item);
        if let Some(tag) = &item.job.tag {
            let mut tags = ctx.tags.lock().expect("tags poisoned");
            if let Some(tokens) = tags.get_mut(tag) {
                tokens.retain(|t| !t.same(&item.token));
                if tokens.is_empty() {
                    tags.remove(tag);
                }
            }
        }
        ctx.stats.active_jobs.fetch_sub(1, Ordering::AcqRel);
        ctx.idle_cv.notify_all();
    }
}

/// Persister: write the area store whenever a job finished since the last
/// write started, until `run` asks it to exit. Jobs that finish while a
/// write runs are all covered by the next one.
fn persister_loop(ctx: &Ctx) {
    let mut signal = ctx.persist.lock().expect("persist poisoned");
    while !signal.exit {
        if signal.dirty {
            signal.dirty = false;
            drop(signal);
            ctx.persist_areas();
            signal = ctx.persist.lock().expect("persist poisoned");
        } else {
            signal = ctx.persist_cv.wait(signal).expect("persist poisoned");
        }
    }
}

/// Execute one job end to end: job-cache lookup, synthesis with the shared
/// area store, job-cache write, response, area-store write request.
fn run_job(ctx: &Arc<Ctx>, item: &Queued) {
    let seq = item.seq;
    let job = &item.job;
    let t0 = Instant::now();

    if item.token.is_cancelled() {
        finish_cancelled(ctx, item, seq);
        return;
    }

    // Layer 1: the content-addressed response cache.
    let key = job.cache_key();
    if !job.no_cache {
        if let Some(store) = &ctx.store {
            match store.load_job(&key) {
                JobLookup::Hit(payload) => {
                    ctx.stats.job_cache_hits.fetch_add(1, Ordering::AcqRel);
                    ctx.stats.jobs_served.fetch_add(1, Ordering::AcqRel);
                    let mut fields = vec![
                        ("type".to_owned(), Json::Str("result".to_owned())),
                        ("seq".to_owned(), Json::Num(seq)),
                        ("cached".to_owned(), Json::Bool(true)),
                        ("warm_area_hits".to_owned(), Json::Num(0.0)),
                        (
                            "wall_ms".to_owned(),
                            Json::Num(t0.elapsed().as_secs_f64() * 1e3),
                        ),
                        (
                            "queue_ms".to_owned(),
                            Json::Num((t0 - item.queued_at).as_secs_f64() * 1e3),
                        ),
                    ];
                    if let Json::Obj(payload_fields) = payload {
                        fields.extend(payload_fields);
                    }
                    send(&item.writer, &Json::Obj(fields));
                    return;
                }
                JobLookup::Corrupt => {
                    ctx.stats.cache_discards.fetch_add(1, Ordering::AcqRel);
                    ctx.stats.job_cache_misses.fetch_add(1, Ordering::AcqRel);
                }
                JobLookup::Miss => {
                    ctx.stats.job_cache_misses.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
    }

    // Layer 2: synthesize, seeded from the shared per-library area store.
    let (hierarchy, mlib, mut config) = match job.resolve() {
        Ok(t) => t,
        Err(e) => {
            ctx.stats.jobs_failed.fetch_add(1, Ordering::AcqRel);
            send(
                &item.writer,
                &error_response(Some(seq), "bad_request", &e.to_string()),
            );
            return;
        }
    };
    config.cancel = Some(item.token.clone());
    config.shared_area = Some(ctx.area_store(&job.library));

    match synthesize(&hierarchy, &mlib, &config) {
        Ok(report) => {
            let warm: u64 = report.per_config.iter().map(|c| c.warm_area_hits).sum();
            ctx.stats.warm_area_hits.fetch_add(warm, Ordering::AcqRel);
            ctx.stats.jobs_served.fetch_add(1, Ordering::AcqRel);
            let mut payload_fields =
                vec![("result_json".to_owned(), Json::Str(report.result_json()))];
            if job.want_verilog {
                payload_fields.push((
                    "verilog".to_owned(),
                    Json::Str(verilog_text(
                        &report.design.hierarchy,
                        &report.design.top.built,
                        &mlib.simple,
                        16,
                    )),
                ));
            }
            let payload = Json::Obj(payload_fields.clone());
            let mut fields = vec![
                ("type".to_owned(), Json::Str("result".to_owned())),
                ("seq".to_owned(), Json::Num(seq)),
                ("cached".to_owned(), Json::Bool(false)),
                ("warm_area_hits".to_owned(), Json::Num(warm as f64)),
                (
                    "wall_ms".to_owned(),
                    Json::Num(t0.elapsed().as_secs_f64() * 1e3),
                ),
                (
                    "queue_ms".to_owned(),
                    Json::Num((t0 - item.queued_at).as_secs_f64() * 1e3),
                ),
            ];
            fields.extend(payload_fields);
            // Write the job-cache entry *before* answering: a repeat sent
            // the moment this answer arrives may reach another worker, and
            // must find the entry rather than recompute.
            if let Some(store) = &ctx.store {
                if !job.no_cache {
                    let _ = store.store_job(&key, &payload);
                }
            }
            send(&item.writer, &Json::Obj(fields));
            // The area snapshot only warms later jobs: the persister writes
            // it off this worker.
            ctx.request_persist();
        }
        Err(SynthesisError::Cancelled) => finish_cancelled(ctx, item, seq),
        Err(e) => {
            ctx.stats.jobs_failed.fetch_add(1, Ordering::AcqRel);
            send(
                &item.writer,
                &error_response(Some(seq), "synthesis", &e.to_string()),
            );
        }
    }
}

/// Answer a cancelled job, distinguishing deadline expiry from an explicit
/// client cancel.
fn finish_cancelled(ctx: &Arc<Ctx>, item: &Queued, seq: f64) {
    if item.token.deadline_expired() {
        ctx.stats.jobs_deadline.fetch_add(1, Ordering::AcqRel);
        send(
            &item.writer,
            &error_response(
                Some(seq),
                "deadline",
                &format!(
                    "job exceeded its {} ms deadline",
                    item.job.deadline_ms.unwrap_or(0)
                ),
            ),
        );
    } else {
        ctx.stats.jobs_cancelled.fetch_add(1, Ordering::AcqRel);
        send(
            &item.writer,
            &error_response(Some(seq), "cancelled", "job was cancelled"),
        );
    }
}

/// Build the `stats` response body.
fn stats_response(ctx: &Arc<Ctx>, seq: Option<f64>) -> Json {
    fn n(v: u64) -> Json {
        Json::Num(v as f64)
    }
    let s = &ctx.stats;
    Json::Obj(vec![
        ("type".to_owned(), Json::Str("stats".to_owned())),
        ("seq".to_owned(), seq.map_or(Json::Null, Json::Num)),
        ("workers".to_owned(), n(ctx.opts.workers as u64)),
        ("queue_cap".to_owned(), n(ctx.opts.queue_cap as u64)),
        (
            "draining".to_owned(),
            Json::Bool(ctx.draining.load(Ordering::Acquire)),
        ),
        (
            "uptime_ms".to_owned(),
            Json::Num(ctx.started.elapsed().as_secs_f64() * 1e3),
        ),
        (
            "connections".to_owned(),
            n(s.connections.load(Ordering::Acquire)),
        ),
        (
            "jobs_submitted".to_owned(),
            n(s.jobs_submitted.load(Ordering::Acquire)),
        ),
        (
            "jobs_served".to_owned(),
            n(s.jobs_served.load(Ordering::Acquire)),
        ),
        (
            "jobs_failed".to_owned(),
            n(s.jobs_failed.load(Ordering::Acquire)),
        ),
        (
            "jobs_cancelled".to_owned(),
            n(s.jobs_cancelled.load(Ordering::Acquire)),
        ),
        (
            "jobs_deadline".to_owned(),
            n(s.jobs_deadline.load(Ordering::Acquire)),
        ),
        (
            "queue_depth".to_owned(),
            n(s.queue_depth.load(Ordering::Acquire)),
        ),
        (
            "active_jobs".to_owned(),
            n(s.active_jobs.load(Ordering::Acquire)),
        ),
        (
            "queue_rejected".to_owned(),
            n(s.queue_rejected.load(Ordering::Acquire)),
        ),
        (
            "job_cache_hits".to_owned(),
            n(s.job_cache_hits.load(Ordering::Acquire)),
        ),
        (
            "job_cache_misses".to_owned(),
            n(s.job_cache_misses.load(Ordering::Acquire)),
        ),
        (
            "cache_discards".to_owned(),
            n(s.cache_discards.load(Ordering::Acquire)),
        ),
        (
            "warm_area_hits".to_owned(),
            n(s.warm_area_hits.load(Ordering::Acquire)),
        ),
        (
            "protocol_errors".to_owned(),
            n(s.protocol_errors.load(Ordering::Acquire)),
        ),
        ("area_entries".to_owned(), n(ctx.area_entries())),
        ("area_dropped".to_owned(), n(ctx.area_dropped())),
        ("persistent".to_owned(), Json::Bool(ctx.store.is_some())),
    ])
}
