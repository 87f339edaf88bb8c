//! Adversarial wire-protocol tests: truncated frames, oversized length
//! prefixes, garbage bytes, mid-frame disconnects, and malformed JSON must
//! produce structured errors (or a clean connection drop) — never a panic
//! and never a wedged accept loop. After every hostility the daemon keeps
//! serving new connections.

#[path = "serve_harness/mod.rs"]
mod harness;

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Duration;

use harness::start_server;
use hsyn::serve::{Client, ServeOptions};
use hsyn::util::{read_frame, write_frame, Json, MAX_FRAME};

fn raw(addr: &SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Read one frame and parse it as JSON.
fn response(s: &mut TcpStream) -> Json {
    let payload = read_frame(s, MAX_FRAME).expect("server responds with a frame");
    Json::parse(std::str::from_utf8(&payload).expect("UTF-8")).expect("JSON")
}

fn kind_of(v: &Json) -> (&str, &str) {
    (
        v.get("type").and_then(Json::as_str).unwrap_or(""),
        v.get("kind").and_then(Json::as_str).unwrap_or(""),
    )
}

/// The daemon is still alive and serving fresh connections.
fn assert_alive(addr: &SocketAddr) {
    let mut client = Client::connect(&addr.to_string()).expect("daemon still accepts");
    client.ping().expect("daemon still answers");
}

#[test]
fn hostile_frames_get_structured_errors_and_never_kill_the_daemon() {
    let (addr, handle) = start_server(ServeOptions::default());

    // 1. Oversized length prefix (u32::MAX): structured bad_frame error.
    {
        let mut s = raw(&addr);
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        s.flush().unwrap();
        let v = response(&mut s);
        assert_eq!(kind_of(&v), ("error", "bad_frame"), "{v:?}");
    }
    assert_alive(&addr);

    // 2. Garbage bytes: an absurd length the server refuses up front.
    {
        let mut s = raw(&addr);
        s.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x42]).unwrap();
        s.flush().unwrap();
        let v = response(&mut s);
        assert_eq!(kind_of(&v), ("error", "bad_frame"), "{v:?}");
    }
    assert_alive(&addr);

    // 3. Truncated header: two bytes then disconnect. Nothing to answer —
    // the daemon just drops the connection without wedging.
    {
        let mut s = raw(&addr);
        s.write_all(&[0x00, 0x00]).unwrap();
        s.flush().unwrap();
        drop(s);
    }
    assert_alive(&addr);

    // 4. Mid-frame disconnect: honest header, half the payload, hang up.
    {
        let mut s = raw(&addr);
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(&[0x7B; 37]).unwrap();
        s.flush().unwrap();
        drop(s);
    }
    assert_alive(&addr);

    // 5. A well-framed payload that is not UTF-8: structured error, and
    // the *same connection* keeps working afterwards.
    {
        let mut s = raw(&addr);
        write_frame(&mut s, &[0xFF, 0xFE, 0x00, 0x80]).unwrap();
        let v = response(&mut s);
        assert_eq!(kind_of(&v), ("error", "bad_json"), "{v:?}");
        write_frame(&mut s, br#"{"type": "ping", "seq": 1}"#).unwrap();
        let v = response(&mut s);
        assert_eq!(v.get("type").and_then(Json::as_str), Some("pong"), "{v:?}");
    }

    // 6. Well-framed garbage JSON and malformed requests: each gets its
    // own structured error on a connection that stays usable.
    {
        let mut s = raw(&addr);
        for (payload, want_kind) in [
            (&br#"{"type": "#[..], "bad_json"),
            (&br#"{"seq": 7}"#[..], "bad_request"),
            (&br#"{"type": "warp", "seq": 8}"#[..], "bad_request"),
            (&br#"{"type": "submit", "seq": 9}"#[..], "bad_request"),
            (&br#"{"type": "cancel", "seq": 10}"#[..], "bad_request"),
            (
                &br#"{"type": "submit", "seq": 11, "job": {"bench": "paulin", "warp_factor": 9}}"#
                    [..],
                "bad_request",
            ),
            (
                &br#"{"type": "submit", "job": {"bench": "paulin"}}"#[..],
                "bad_request", // submit without a seq
            ),
        ] {
            write_frame(&mut s, payload).unwrap();
            let v = response(&mut s);
            assert_eq!(
                kind_of(&v),
                ("error", want_kind),
                "payload {:?} -> {v:?}",
                String::from_utf8_lossy(payload)
            );
        }
        write_frame(&mut s, br#"{"type": "ping", "seq": 12}"#).unwrap();
        let v = response(&mut s);
        assert_eq!(v.get("type").and_then(Json::as_str), Some("pong"), "{v:?}");
    }

    // The daemon counted the hostility and is still fully operational.
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let stats = client.stats().expect("stats");
    let errors = stats
        .get("protocol_errors")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(errors >= 9.0, "expected >= 9 protocol errors, got {errors}");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn submit_rejections_name_the_offending_field() {
    // Hostile-but-parseable job specs: the error message must carry enough
    // context to fix the request without reading the server source.
    let (addr, handle) = start_server(ServeOptions::default());
    let mut s = raw(&addr);
    for (job, needle) in [
        (r#"{"bench": "nope"}"#, "unknown benchmark"),
        (
            r#"{"bench": "paulin", "library": "nope"}"#,
            "unknown library",
        ),
        (r#"{"bench": "paulin", "laxity": -1.0}"#, "laxity"),
        (r#"{"bench": "paulin", "text": "dfg f {}"}"#, "exactly one"),
        // The intra-config worker count is no longer a job knob.
        (
            r#"{"bench": "paulin", "intra_jobs": 2}"#,
            "unknown job field `intra_jobs`",
        ),
        (r#"{}"#, "bench"),
        (r#"{"bench": "paulin", "objective": "speed"}"#, "objective"),
    ] {
        let req = format!(r#"{{"type": "submit", "seq": 1, "job": {job}}}"#);
        write_frame(&mut s, req.as_bytes()).unwrap();
        let v = response(&mut s);
        let (ty, kind) = kind_of(&v);
        let msg = v.get("message").and_then(Json::as_str).unwrap_or("");
        assert_eq!((ty, kind), ("error", "bad_request"), "{job} -> {v:?}");
        assert!(
            msg.contains(needle),
            "job {job}: message {msg:?} should mention {needle:?}"
        );
    }
    drop(s);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// `hsyn submit` of a behavior declaring a four-billion-word memory gets
/// the parse error back; the daemon neither aborts on the allocation nor
/// stops answering.
#[test]
fn oversized_memory_submission_fails_and_the_daemon_survives() {
    let (addr, handle) = start_server(ServeOptions::default());
    let dir = std::env::temp_dir().join(format!("hsyn-serve-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oversized_memory.dfg");
    std::fs::write(
        &path,
        "dfg g {\n  mem m 4000000000\n  input a\n  l = load m a\n  store m a l\n  \
         output y = l\n}\ntop g\n",
    )
    .unwrap();
    let submit = |extra: &[&std::ffi::OsStr]| {
        Command::new(env!("CARGO_BIN_EXE_hsyn"))
            .args(["submit", "--connect", &addr.to_string()])
            .args(extra)
            .output()
            .expect("hsyn binary runs")
    };
    let out = submit(&[path.as_os_str(), "--result-json".as_ref()]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the job must fail: {out:?}");
    assert!(
        stderr.contains("memory word count 4000000000 exceeds the limit"),
        "the parse error must reach the client: {stderr}"
    );
    let ping = submit(&["--ping".as_ref()]);
    assert!(ping.status.success(), "daemon stopped answering: {ping:?}");
    assert_alive(&addr);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// A 2,000-level chain of calls once overflowed a worker thread's stack
/// and aborted the daemon; it is now a parse error like any other.
#[test]
fn deep_call_chain_submission_fails_and_the_daemon_survives() {
    let (addr, handle) = start_server(ServeOptions::default());
    let dir = std::env::temp_dir().join(format!("hsyn-serve-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep_call_chain.dfg");
    let mut text = String::from("dfg l0 {\n  input a\n  output y = a\n}\n");
    for i in 1..2_000 {
        text.push_str(&format!(
            "dfg l{i} {{\n  input a\n  c = call l{} a\n  output y = c\n}}\n",
            i - 1
        ));
    }
    text.push_str("top l1999\n");
    std::fs::write(&path, text).unwrap();
    let submit = |extra: &[&std::ffi::OsStr]| {
        Command::new(env!("CARGO_BIN_EXE_hsyn"))
            .args(["submit", "--connect", &addr.to_string()])
            .args(extra)
            .output()
            .expect("hsyn binary runs")
    };
    let out = submit(&[path.as_os_str(), "--result-json".as_ref()]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the job must fail: {out:?}");
    assert!(
        stderr.contains("hierarchy depth of dfg `l16` exceeds the limit of 16"),
        "the parse error must reach the client: {stderr}"
    );
    let ping = submit(&["--ping".as_ref()]);
    assert!(ping.status.success(), "daemon stopped answering: {ping:?}");
    assert_alive(&addr);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Submit `job`, a wire-form job object, on `s` and read the answer.
fn submit_raw(s: &mut TcpStream, job: &str) -> Json {
    let req = format!(r#"{{"type": "submit", "seq": 1, "job": {job}}}"#);
    write_frame(s, req.as_bytes()).unwrap();
    response(s)
}

/// Submit `job` and require a `bad_request` whose message holds `needle`.
fn expect_rejection(s: &mut TcpStream, job: &str, needle: &str) {
    let v = submit_raw(s, job);
    let msg = v.get("message").and_then(Json::as_str).unwrap_or("");
    assert_eq!(kind_of(&v), ("error", "bad_request"), "{job} -> {v:?}");
    assert!(msg.contains(needle), "job {job}: {msg:?} lacks {needle:?}");
}

/// A trace length of zero or above the limit, or too many LNS iterations,
/// gets a `bad_request` naming the field and the limit, and the worker
/// lives on: a one-worker daemon answers the next valid job. A zero-length
/// trace once panicked the worker, so the valid job behind it waited
/// forever; the read timeout turns that into a failure here.
#[test]
fn out_of_range_budgets_are_rejected_and_the_worker_survives() {
    let (addr, handle) = start_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut s = raw(&addr);
    expect_rejection(
        &mut s,
        r#"{"bench": "paulin", "budget": {"eval_trace_len": 0}}"#,
        "budget.eval_trace_len is 0; it must be from 1 to 4096",
    );
    expect_rejection(
        &mut s,
        r#"{"bench": "paulin", "budget": {"report_trace_len": 0}}"#,
        "budget.report_trace_len is 0; it must be from 1 to 4096",
    );
    let valid = harness::tiny_job("paulin").to_json().to_string_pretty();
    let v = submit_raw(&mut s, &valid);
    assert_eq!(kind_of(&v).0, "result", "the worker must survive: {v:?}");
    // The upper limits come last: a daemon without them would run these
    // jobs, so they are only sent once the zero-length cases passed.
    expect_rejection(
        &mut s,
        r#"{"bench": "paulin", "budget": {"eval_trace_len": 4097}}"#,
        "budget.eval_trace_len is 4097; it must be from 1 to 4096",
    );
    expect_rejection(
        &mut s,
        r#"{"bench": "paulin", "budget": {"report_trace_len": 1000000000}}"#,
        "budget.report_trace_len is 1000000000",
    );
    expect_rejection(
        &mut s,
        r#"{"bench": "paulin", "lns_iters": 4097}"#,
        "lns_iters (--lns-iters) is 4097; it must be from 0 to 4096",
    );
    drop(s);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}
