//! The `hsyn` CLI fails helpfully: unknown `--benchmark` / `--library`
//! names exit nonzero and list every available name so the user can
//! correct the invocation without consulting the source.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .args(args)
        .output()
        .expect("hsyn binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_benchmark_lists_available_names() {
    for args in [
        &["--benchmark", "nope"][..],
        &["cosim", "--benchmark", "nope"][..],
        &["lint", "--benchmark", "nope"][..],
    ] {
        let (ok, stderr) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("unknown benchmark `nope`"),
            "{args:?}: {stderr}"
        );
        for name in ["paulin", "fft4", "matmul", "fir_block", "conv2d"] {
            assert!(
                stderr.contains(name),
                "{args:?}: error must list `{name}`: {stderr}"
            );
        }
    }
}

#[test]
fn unknown_library_lists_available_names() {
    let (ok, stderr) = run(&["--benchmark", "paulin", "--library", "nope"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown library `nope`")
            && stderr.contains("table1")
            && stderr.contains("realistic"),
        "{stderr}"
    );
}

#[test]
fn unknown_subcommand_lists_subcommands() {
    let (ok, stderr) = run(&["serv"]);
    assert!(!ok, "a mistyped subcommand must fail");
    assert!(
        stderr.contains("unknown subcommand `serv`"),
        "stderr must name the bad word: {stderr}"
    );
    for sub in ["serve", "submit", "lint", "analyze", "cosim"] {
        assert!(stderr.contains(sub), "error must list `{sub}`: {stderr}");
    }
}

/// The engine has one search path, so the flags that used to select the
/// clone-per-candidate scan, the uncached search, and the intra-config
/// parallel scan are gone: each is an unknown argument, on the one-shot
/// path and on `submit` alike, and never silently ignored.
#[test]
fn removed_engine_flags_are_unknown_arguments() {
    for flags in [
        &["--no-transactional"][..],
        &["--no-incremental"][..],
        &["--intra-jobs", "2"][..],
    ] {
        for prefix in [
            &["--benchmark", "paulin"][..],
            &["submit", "--benchmark", "paulin"][..],
        ] {
            let args: Vec<&str> = prefix.iter().chain(flags).copied().collect();
            let (ok, stderr) = run(&args);
            assert!(!ok, "{args:?} must fail");
            assert!(
                stderr.contains(&format!("unknown argument `{}`", flags[0])),
                "{args:?}: the error must name the removed flag: {stderr}"
            );
        }
    }
}

#[test]
fn submit_requires_a_daemon_address() {
    let (ok, stderr) = run(&["submit", "--benchmark", "paulin"]);
    assert!(!ok);
    assert!(
        stderr.contains("--connect"),
        "submit without --connect must say what is missing: {stderr}"
    );
}

/// A behavior whose memory declares four billion words: eight bytes a word
/// would be a 32 GB allocation, which aborts the process (exit 134) instead
/// of failing.
const OVERSIZED_MEMORY_DFG: &str = "\
dfg g {
  mem m 4000000000
  input a
  l = load m a
  store m a l
  output y = l
}
top g
";

#[test]
fn oversized_memory_is_a_parse_error() {
    let dir = std::env::temp_dir().join(format!("hsyn-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oversized_memory.dfg");
    std::fs::write(&path, OVERSIZED_MEMORY_DFG).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .arg(&path)
        .arg("--result-json")
        .output()
        .expect("hsyn binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2: memory word count 4000000000 exceeds the limit of 65536"),
        "the parse error must name the line and the limit: {stderr}"
    );
}
