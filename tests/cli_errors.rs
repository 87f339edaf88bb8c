//! The `hsyn` CLI fails helpfully: unknown `--benchmark` / `--library`
//! names exit nonzero and list every available name so the user can
//! correct the invocation without consulting the source.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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

/// Run `hsyn <file> --result-json` on a behavior that loads from and
/// stores to one memory declared by `mem_line` (written as line 2), and
/// return the exit code and stderr.
fn run_memory_dfg(name: &str, mem_line: &str) -> (Option<i32>, String) {
    run_dfg_text(
        name,
        &format!(
            "dfg g {{\n  {mem_line}\n  input a\n  l = load m a\n  store m a l\n  output y = l\n}}\ntop g\n"
        ),
    )
}

/// Run `hsyn <file> --result-json` on `text`; returns the exit code and
/// stderr.
fn run_dfg_text(name: &str, text: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("hsyn-cli-errors-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.dfg"));
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .arg(&path)
        .arg("--result-json")
        .output()
        .expect("hsyn binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A 2,000-level chain of calls (114 KB of text): the hierarchy walks
/// recurse once per level, and 20,000 levels aborted the CLI (exit 134).
#[test]
fn deep_call_chain_is_a_parse_error() {
    let mut text = String::from("dfg l0 {\n  input a\n  output y = a\n}\n");
    for i in 1..2_000 {
        text.push_str(&format!(
            "dfg l{i} {{\n  input a\n  c = call l{} a\n  output y = c\n}}\n",
            i - 1
        ));
    }
    text.push_str("top l1999\n");
    let (code, stderr) = run_dfg_text("deep_call_chain", &text);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("line 80: hierarchy depth of dfg `l16` exceeds the limit of 16"),
        "the parse error must name the line and the limit: {stderr}"
    );
}

/// A memory of four billion words: eight bytes a word would be a 32 GB
/// allocation, which aborts the process (exit 134) instead of failing.
#[test]
fn oversized_memory_is_a_parse_error() {
    let (code, stderr) = run_memory_dfg("oversized_memory", "mem m 4000000000");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2: memory word count 4000000000 exceeds the limit of 65536"),
        "the parse error must name the line and the limit: {stderr}"
    );
}

/// More banks than words: scheduling costs one pass per bank, so
/// `banks 200000` took a third of a second and `banks 4000000000` would
/// run for hours.
#[test]
fn memory_with_more_banks_than_words_is_a_parse_error() {
    let (code, stderr) = run_memory_dfg("banks_over_words", "mem m 4 banks 200000");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2: memory bank count 200000 exceeds its word count 4"),
        "the parse error must name the line and the limit: {stderr}"
    );
}

/// A port count past the limit: `ports 2147483648 banks 4` once wrapped
/// the controller's port-control bit count to zero and priced a smaller
/// controller than `ports 1`.
#[test]
fn memory_with_too_many_ports_is_a_parse_error() {
    let (code, stderr) = run_memory_dfg("too_many_ports", "mem m 4 ports 2147483648 banks 4");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2: memory port count 2147483648 exceeds the limit of 16"),
        "the parse error must name the line and the limit: {stderr}"
    );
}

/// `--lns-iters` above the limit fails before synthesis starts, naming the
/// flag and the limit.
#[test]
fn lns_iters_above_the_limit_is_rejected() {
    let (ok, stderr) = run(&["--benchmark", "paulin", "--lns-iters", "4097"]);
    assert!(!ok, "an over-limit LNS count must fail");
    assert!(
        stderr.contains("--lns-iters") && stderr.contains("4096"),
        "the error must name the flag and the limit: {stderr}"
    );
}

/// A reader that goes away early (`hsyn ... | head -1`) ends the run
/// quietly and successfully: the next write to stdout gets a broken pipe,
/// which once panicked in `println!` and exited 101.
#[test]
fn closed_stdout_ends_quietly() {
    for args in [
        &["--benchmark", "paulin", "--netlist", "--fsm"][..],
        &["lint", "--benchmark", "paulin"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hsyn"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("hsyn binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("hsyn exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

/// A daemon whose log reader went away (`hsyn serve | head -1`) keeps
/// serving and shuts down cleanly: the summary banner written at shutdown
/// hits the closed pipe, which once panicked in `println!` and exited 101.
#[test]
fn serve_with_closed_stdout_shuts_down_cleanly() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .args(["serve", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hsyn binary runs");
    // Read the "listening on" line, then close the read end, as `head -1`.
    let mut line = String::new();
    BufReader::new(daemon.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("banner line");
    let Some(addr) = line.trim().strip_prefix("hsyn serve listening on ") else {
        let _ = daemon.kill();
        panic!("unexpected banner: {line:?}");
    };
    let pong = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .args(["submit", "--connect", addr, "--ping"])
        .output()
        .expect("hsyn submit runs");
    let shutdown = Command::new(env!("CARGO_BIN_EXE_hsyn"))
        .args(["submit", "--connect", addr, "--shutdown"])
        .output()
        .expect("hsyn submit runs");
    let out = daemon.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        pong.status.success(),
        "the daemon serves after its reader left"
    );
    assert!(shutdown.status.success(), "shutdown is acknowledged");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
