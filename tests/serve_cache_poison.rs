//! Cache-poisoning tests: corrupt or truncate the on-disk job cache
//! between daemon runs; the daemon must detect the damage, discard the
//! poisoned files, count the discards, and still answer with byte-identical
//! reports via the cold path — a poisoned cache can cost time, never
//! correctness. Files the daemon does not own are never read.

#[path = "serve_harness/mod.rs"]
mod harness;

use std::fs;

use harness::{reference_result_json, start_server, temp_cache, tiny_job};
use hsyn::serve::{Client, ServeOptions};
use hsyn::util::Json;

#[test]
fn poisoned_caches_are_discarded_and_recomputed_identically() {
    let cache = temp_cache("poison");
    let opts = ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    };
    let job = tiny_job("paulin");
    let expected = reference_result_json(&job);

    // Seed the job cache with an honest run.
    let (addr, handle) = start_server(opts.clone());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let first = client.submit(&job).expect("seed submit");
    assert_eq!(first.result_json, expected);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");

    // Poison the job cache: truncate its entry to half its length.
    let jobs_dir = cache.join("jobs");
    let job_files: Vec<_> = fs::read_dir(&jobs_dir)
        .expect("jobs dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(job_files.len(), 1, "exactly one cached job expected");
    let bytes = fs::read(&job_files[0]).expect("read cache entry");
    fs::write(&job_files[0], &bytes[..bytes.len() / 2]).expect("truncate");

    // Plant a garbage `area.json`, the file older daemons kept: it is not
    // the daemon's, so it is neither read nor counted.
    let area = cache.join("area.json");
    fs::write(&area, b"{\"version\": 1, \"check\": \"liar\"").expect("plant area");

    // Restart: the truncated entry must be detected and discarded, and the
    // job must recompute cold to the exact same bytes.
    let (addr, handle) = start_server(opts.clone());
    let mut client = Client::connect(&addr.to_string()).expect("reconnect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("cache_discards").and_then(Json::as_f64),
        Some(0.0),
        "nothing is discarded at startup: {stats:?}"
    );
    let replay = client.submit(&job).expect("post-poison submit");
    assert!(
        !replay.cached,
        "a truncated job-cache entry must not be served as a hit"
    );
    assert_eq!(
        replay.result_json, expected,
        "cold recompute after poisoning diverged from the reference bytes"
    );
    let stats = client.stats().expect("stats after recompute");
    assert_eq!(
        stats.get("cache_discards").and_then(Json::as_f64),
        Some(1.0),
        "the truncated job entry must be counted: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");

    // The poisoned entry was deleted and rewritten by the recompute: a
    // third daemon answers from a healthy cache again. The planted file is
    // left alone.
    let (addr, handle) = start_server(opts);
    let mut client = Client::connect(&addr.to_string()).expect("third connect");
    let healed = client.submit(&job).expect("healed submit");
    assert!(healed.cached, "recompute must have rewritten the job cache");
    assert_eq!(healed.result_json, expected);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    assert!(
        area.exists(),
        "the daemon must not delete a file it does not own"
    );
    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn version_skewed_job_entry_is_rejected_not_trusted() {
    let cache = temp_cache("skew");
    let opts = ServeOptions {
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    };
    let job = tiny_job("paulin");
    let expected = reference_result_json(&job);

    let (addr, handle) = start_server(opts.clone());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.submit(&job).expect("seed submit");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");

    // Rewrite the entry claiming a future format version; its checksum
    // still matches, so only the version gate can reject it.
    let entry = fs::read_dir(cache.join("jobs"))
        .expect("jobs dir")
        .next()
        .expect("one entry")
        .expect("dir entry")
        .path();
    let text = fs::read_to_string(&entry).expect("read entry");
    fs::write(
        &entry,
        text.replacen("\"version\": 1", "\"version\": 999", 1),
    )
    .expect("skew version");

    let (addr, handle) = start_server(opts);
    let mut client = Client::connect(&addr.to_string()).expect("reconnect");
    let replay = client.submit(&job).expect("submit");
    assert!(!replay.cached, "a version-skewed entry must not be trusted");
    assert_eq!(replay.result_json, expected);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    let _ = fs::remove_dir_all(&cache);
}
