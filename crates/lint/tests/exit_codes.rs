//! The `urbane-lint` binary's exit codes on small temp workspaces: 0 when
//! nothing fires, 1 on any finding, 2 on a usage error.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A workspace root (`Cargo.toml` plus `crates/x/src/lib.rs`) holding `lib`.
fn temp_root(name: &str, lib: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("urbane-lint-{name}-{}", std::process::id()));
    let src = root.join("crates/x/src");
    fs::create_dir_all(&src).expect("create temp root");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
    fs::write(src.join("lib.rs"), lib).expect("write lib.rs");
    root
}

fn lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_urbane-lint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run urbane-lint")
}

#[test]
fn clean_root_exits_0() {
    let root = temp_root("clean", "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n");
    let out = lint(&root, &["check"]);
    fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bare_unwrap_exits_1() {
    let root = temp_root("unwrap", "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
    let out = lint(&root, &["check"]);
    let json = lint(&root, &["check", "--json"]);
    fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/x/src/lib.rs:2 [panic-freedom]"), "{stdout}");
    assert_eq!(json.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&json.stdout).starts_with("{\"ok\": false"));
}

#[test]
fn removed_baseline_mode_is_a_usage_error() {
    let root = temp_root("usage", "pub fn f() {}\n");
    let subcommand = lint(&root, &["baseline"]);
    let flag = lint(&root, &["check", "--baseline", "f"]);
    fs::remove_dir_all(&root).ok();
    for out in [subcommand, flag] {
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: urbane-lint check"), "{stderr}");
    }
}
