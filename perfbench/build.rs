//! Stamps the build profile and the compiler version into the binary, so
//! every result names the toolchain that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for (key, var) in [
        ("PROFILE", "PERFBENCH_PROFILE"),
        ("OPT_LEVEL", "PERFBENCH_OPT_LEVEL"),
    ] {
        let v = std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
        println!("cargo:rustc-env={var}={v}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
