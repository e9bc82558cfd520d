//! End-to-end tests of the `a3-analyze` binary: the real workspace must be
//! clean, seeded violations must fail the run, and stale allowlist entries
//! must fail only under `--deny-all`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_a3-analyze"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// A throwaway workspace tree under the target dir, removed on drop.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> Self {
        let root = workspace_root()
            .join("target")
            .join("a3-analyze-test")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp tree");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(path, content).expect("write source");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_is_clean_under_deny_all() {
    let output = bin()
        .args(["--deny-all", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run a3-analyze");
    assert!(
        output.status.success(),
        "workspace has lint findings:\n{}",
        stdout(&output)
    );
    assert!(stdout(&output).contains("0 finding(s)"));
}

#[test]
fn list_names_every_lint() {
    let output = bin().arg("--list").output().expect("run a3-analyze");
    assert!(output.status.success());
    let text = stdout(&output);
    for lint in [
        "unsafe-safety-comment",
        "unsafe-allowlist",
        "hotpath-no-panic",
        "fixed-no-bare-cast",
        "result-errors-documented",
    ] {
        assert!(text.contains(lint), "--list is missing {lint}");
    }
}

#[test]
fn self_test_passes() {
    let output = bin().arg("--self-test").output().expect("run a3-analyze");
    assert!(
        output.status.success(),
        "self-test failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn seeded_hotpath_violation_fails_the_run() {
    let tree = TempTree::new("seeded-hotpath");
    tree.write(
        "crates/core/src/serve/bad.rs",
        "pub fn pick(xs: &[f32]) -> f32 {\n    xs.first().copied().unwrap()\n}\n",
    );
    let output = bin()
        .args(["--deny-all", "--root"])
        .arg(&tree.root)
        .output()
        .expect("run a3-analyze");
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(text.contains("hotpath-no-panic"), "wrong lint:\n{text}");
    assert!(text.contains("crates/core/src/serve/bad.rs:2"));
    assert!(text.contains("fix:"), "finding lacks a fix hint:\n{text}");
}

#[test]
fn seeded_unsafe_violation_fails_the_run() {
    let tree = TempTree::new("seeded-unsafe");
    tree.write(
        "crates/core/src/kernel.rs",
        "pub fn read(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    let output = bin()
        .args(["--root"])
        .arg(&tree.root)
        .output()
        .expect("run a3-analyze");
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(text.contains("unsafe-safety-comment"), "{text}");
    assert!(text.contains("unsafe-allowlist"), "{text}");
}

#[test]
fn stale_allowlist_entry_fails_only_under_deny_all() {
    let tree = TempTree::new("stale-allowlist");
    tree.write("crates/core/src/lib.rs", "pub fn ok() {}\n");
    tree.write(
        "crates/analyze/allowlists/unsafe-allowlist.txt",
        "crates/core/src/gone.rs *\n",
    );
    let lenient = bin()
        .args(["--root"])
        .arg(&tree.root)
        .output()
        .expect("run a3-analyze");
    assert!(lenient.status.success(), "{}", stdout(&lenient));
    assert!(stdout(&lenient).contains("warning: stale allowlist entry"));

    let strict = bin()
        .args(["--deny-all", "--root"])
        .arg(&tree.root)
        .output()
        .expect("run a3-analyze");
    assert_eq!(strict.status.code(), Some(1));
    assert!(stdout(&strict).contains("error: stale allowlist entry"));
}

#[test]
fn nested_cargo_workspace_is_not_analyzed() {
    let tree = TempTree::new("nested-workspace");
    tree.write(
        "bench/src/lib.rs",
        "pub fn parse(s: &str) -> Result<u8, ()> {\n    s.parse().map_err(|_| ())\n}\n",
    );
    let run = || {
        bin()
            .args(["--deny-all", "--root"])
            .arg(&tree.root)
            .output()
            .expect("run a3-analyze")
    };

    // A member-less `[workspace]` manifest makes `bench/` its own project.
    tree.write(
        "bench/Cargo.toml",
        "[package]\nname = \"bench\"\n\n[workspace]\n",
    );
    let nested = run();
    let text = stdout(&nested);
    assert!(
        nested.status.success() && text.contains("0 finding(s)"),
        "{text}"
    );

    // The same file in an ordinary package directory is linted.
    tree.write("bench/Cargo.toml", "[package]\nname = \"bench\"\n");
    let member = run();
    assert_eq!(member.status.code(), Some(1));
    assert!(stdout(&member).contains("result-errors-documented"));
}

#[test]
fn single_lint_selection_runs_only_that_lint() {
    let tree = TempTree::new("single-lint");
    tree.write(
        "crates/fixed/src/bad.rs",
        "pub fn widen(x: i32) -> i64 {\n    x as i64\n}\n",
    );
    tree.write(
        "crates/core/src/serve/bad.rs",
        "pub fn pick(xs: &[f32]) -> f32 {\n    xs.first().copied().unwrap()\n}\n",
    );
    let output = bin()
        .args(["--lint", "fixed-no-bare-cast", "--root"])
        .arg(&tree.root)
        .output()
        .expect("run a3-analyze");
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(text.contains("fixed-no-bare-cast"), "{text}");
    assert!(!text.contains("hotpath-no-panic"), "{text}");
}

#[test]
fn unknown_lint_is_a_usage_error() {
    let output = bin()
        .args(["--lint", "no-such-lint"])
        .output()
        .expect("run a3-analyze");
    assert_eq!(output.status.code(), Some(2));
}
