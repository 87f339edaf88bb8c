//! Round-trip latency regressions for `hsyn serve`: a job-cache hit must
//! come back in well under the ~40 ms a Nagle/delayed-ACK stall costs, and
//! a `shutdown` must wake the blocking accept loop so `run()` returns.

#[path = "serve_harness/mod.rs"]
mod harness;

use std::time::{Duration, Instant};

use harness::{start_server, temp_cache, tiny_job};
use hsyn::serve::{Client, ServeOptions};

#[test]
fn repeat_round_trips_do_not_stall() {
    let cache = temp_cache("latency");
    let (addr, handle) = start_server(ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    });
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let job = tiny_job("paulin");
    let first = client.submit(&job).expect("computed submit");
    assert!(!first.cached);
    let mut rtts: Vec<Duration> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let r = client.submit(&job).expect("repeat submit");
            assert!(r.cached, "an exact repeat must be a job-cache hit");
            assert_eq!(r.result_json, first.result_json);
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median cache-hit round trip {median:?} (all: {rtts:?}); a stall on \
         the response write costs about 40 ms"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn shutdown_wakes_the_accept_loop() {
    // A wildcard bind is woken through loopback.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (addr, handle) = start_server(ServeOptions {
            addr: bind.to_owned(),
            ..ServeOptions::default()
        });
        let port = addr.port();
        let mut client = Client::connect(&format!("127.0.0.1:{port}")).expect("connect");
        client.ping().expect("ping");
        client.shutdown().expect("shutdown");
        let deadline = Instant::now() + Duration::from_secs(2);
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{bind}: run() did not return within 2 s of the shutdown ack"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().expect("daemon thread");
    }
}
