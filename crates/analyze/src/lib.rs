//! `a3-analyze`: a source-level invariant checker and range prover for the A3
//! workspace (no external dependencies beyond the workspace's own `a3-fixed`).
//!
//! It parses every tracked `.rs` file into a masked code view
//! ([`source::SourceFile`]) and runs a fixed set of [`lints::LINTS`] over it:
//! unsafe-code hygiene, hot-path panic-freedom, sanctioned numeric casts in the
//! fixed-point crate, and `# Errors` documentation on fallible public APIs.
//! Findings can be suppressed per file/line through the allowlist files in
//! `crates/analyze/allowlists/` ([`allowlist`]).
//!
//! Beyond the lints, the [`range`] subsystem proves — by abstract
//! interpretation over the real `a3-fixed` formats — that every quantized
//! pipeline shape the SIMD gates admit is free of early saturation and lane
//! overflow, and pins the proof in a committed certificate whose drift is a
//! finding like any other ([`range::certificate`]).
//!
//! The companion binary (`cargo run -p a3-analyze -- --deny-all`) gates CI.

pub mod allowlist;
pub mod lints;
pub mod range;
pub mod selftest;
pub mod source;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use lints::{Finding, LINTS};
use source::SourceFile;

/// Directory (relative to the workspace root) holding per-lint allowlists.
pub const ALLOWLIST_DIR: &str = "crates/analyze/allowlists";

/// Outcome of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings not covered by an allowlist entry, in file order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by allowlist entries.
    pub suppressed: usize,
    /// Stale allowlist entries: `(lint, path, pattern, allowlist line)`.
    pub stale: Vec<(String, String, String, usize)>,
    /// Number of files analyzed.
    pub files: usize,
}

impl Analysis {
    /// Whether the run is clean under the given strictness.
    ///
    /// Findings always fail; stale allowlist entries fail only under
    /// `deny_all`.
    pub fn is_clean(&self, deny_all: bool) -> bool {
        self.findings.is_empty() && (!deny_all || self.stale.is_empty())
    }
}

/// Runs the selected lints over the workspace rooted at `root`.
///
/// `only` restricts the run to a single lint by name; `None` runs all of them.
///
/// # Errors
///
/// Returns an I/O error when a source file or allowlist file exists but cannot
/// be read (missing allowlist files are fine — they mean "allow nothing").
pub fn analyze(root: &Path, only: Option<&str>) -> io::Result<Analysis> {
    let files = collect_sources(root)?;

    let mut analysis = Analysis {
        files: files.len(),
        ..Analysis::default()
    };
    let mut lists: Vec<(usize, Allowlist)> = Vec::new();
    for (idx, lint) in LINTS.iter().enumerate() {
        let selected = match only {
            Some(name) => name == lint.name,
            None => true,
        };
        if !selected {
            continue;
        }
        let path = root.join(ALLOWLIST_DIR).join(format!("{}.txt", lint.name));
        let list = match fs::read_to_string(&path) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Allowlist::default(),
            Err(e) => return Err(e),
        };
        lists.push((idx, list));
    }

    for rel_path in &files {
        let text = fs::read_to_string(root.join(rel_path))?;
        let file = SourceFile::from_source(rel_path, &text);
        for (idx, list) in &mut lists {
            let mut raw = Vec::new();
            lints::run_lint(LINTS[*idx].name, &file, &mut raw);
            for finding in raw {
                if list.permits(&finding) {
                    analysis.suppressed += 1;
                } else {
                    analysis.findings.push(finding);
                }
            }
        }
    }

    // Full runs also re-verify the range-proof certificate; drift or a
    // semantic proof failure is a finding like any other.
    if only.is_none() {
        analysis.findings.extend(range::certificate::check(root));
    }

    for (idx, list) in &lists {
        for entry in list.stale_entries() {
            analysis.stale.push((
                LINTS[*idx].name.to_owned(),
                entry.path.clone(),
                entry.pattern.clone(),
                entry.line,
            ));
        }
    }
    Ok(analysis)
}

/// Collects workspace-relative paths of every `.rs` file under `root`,
/// skipping build output, vendored dependencies, VCS metadata and nested
/// cargo workspaces (a subdirectory whose own `Cargo.toml` declares
/// `[workspace]` is a separate project with its own rules).
///
/// # Errors
///
/// Returns an I/O error when a directory cannot be listed.
pub fn collect_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "node_modules"];

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref())
                || name.starts_with('.')
                || declares_workspace(&path)
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Escapes `value` for use inside a JSON string literal (quotes, backslashes
/// and control characters); shared by the `--json` output and the range-proof
/// certificate.
pub fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Finds the workspace root: walks up from `start` to the first directory whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if declares_workspace(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Whether `dir` holds a `Cargo.toml` with a `[workspace]` table.
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_repo_tree_runs_and_visits_files() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root not found");
        let analysis = analyze(&root, None).expect("analysis failed");
        assert!(analysis.files > 20, "only {} files visited", analysis.files);
    }

    #[test]
    fn self_test_corpus_is_clean() {
        assert!(selftest::run().is_empty());
    }
}
