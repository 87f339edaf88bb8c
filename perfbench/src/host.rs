//! Host facts stamped on every result, and peak resident memory.

use std::path::Path;

/// Worker threads and client connections the load may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The facts printed above every result.
pub fn facts() -> Vec<String> {
    let n = nproc();
    let mut v = vec![
        format!("nproc {n}"),
        format!("commit {}", commit()),
        format!("source {}", source_digest()),
        format!(
            "build {} (opt-level {}, debug-assertions {})",
            env!("PERFBENCH_PROFILE"),
            env!("PERFBENCH_OPT_LEVEL"),
            cfg!(debug_assertions)
        ),
        format!("rustc {}", env!("PERFBENCH_RUSTC")),
    ];
    if n < 2 {
        v.push(format!(
            "LOW-CORE HOST: nproc {n} < 2; do not quote these figures as parallel speed-ups"
        ));
    }
    v
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// A content digest of the benchmarked sources (`crates/` and the
/// benchmark's own `src/`), which names the code even without git.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        h = hsyn_util::fnv1a_64(f.to_string_lossy().as_bytes(), h);
        h = hsyn_util::fnv1a_64(&bytes, h);
    }
    format!("fnv1a:{h:016x} over {} files", files.len())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
