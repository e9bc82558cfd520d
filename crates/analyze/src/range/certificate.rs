//! The committed, machine-readable range-proof certificate.
//!
//! `crates/analyze/certificates/range-proof.json` pins the prover's verdict:
//! the verified gate table, the sweep over the proved grid (every shape the
//! SIMD datapath may run), and every obligation with its derived interval for
//! the paper shape `Q4.4/ld6/ln9`, so an edit to a transfer function shows up
//! in the certificate diff. [`check`] re-proves everything and
//! byte-compares against the committed file, so *any* drift — a changed
//! gate, a changed grid, a changed transfer function — fails `a3-analyze
//! --deny-all` until `a3-analyze range-proof --update-certificate` is re-run
//! and the refreshed certificate is reviewed and committed.
//!
//! The renderer is deterministic by construction: obligation order is the
//! op-graph order, grid order is fixed, and no timestamps or environment data
//! are embedded, so the certificate is byte-reproducible on every host.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use a3_fixed::PipelineFormats;

use crate::json_escape;
use crate::lints::Finding;

use super::pipeline::{self, CrossCheck, Shape, ShapeProof};

/// Repository-relative path of the committed certificate.
pub const CERTIFICATE_PATH: &str = "crates/analyze/certificates/range-proof.json";

/// Repository-relative path of the source the certificate certifies: the
/// lane gates and the proved grid bounds. Its presence marks a tree as this
/// workspace, whose certificate [`check`] must verify.
const GATES_SOURCE_PATH: &str = "crates/fixed/src/pipeline_formats.rs";

/// Everything the certificate certifies, re-proved from the current sources.
pub struct RangeReport {
    /// The full proof of the paper shape `Q4.4/ld6/ln9`.
    pub paper: ShapeProof,
    /// The exhaustive gate-vs-prover sweep over the proved grid.
    pub sweep: CrossCheck,
    /// Failures from cross-checking the deployed gate table against the
    /// prover's required gates (empty means verified).
    pub gate_failures: Vec<String>,
}

impl RangeReport {
    /// Human-readable problems that must fail CI regardless of certificate
    /// freshness: an unproved paper shape, gate-table mismatches, soundness
    /// holes. (Completeness gaps are reported in the certificate, not fatal.)
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Some(failed) = self.paper.counterexample() {
            problems.push(format!(
                "paper shape {} fails obligation `{}`",
                self.paper.shape, failed.name
            ));
        }
        for failure in &self.gate_failures {
            problems.push(format!("gate table: {failure}"));
        }
        for hole in &self.sweep.soundness_holes {
            problems.push(format!("soundness hole: {hole}"));
        }
        problems
    }
}

/// Re-proves the paper shape, verifies the gate table and sweeps the grid.
pub fn report() -> RangeReport {
    RangeReport {
        paper: pipeline::prove(&Shape::new(4, 4, 6, 9)),
        sweep: pipeline::cross_check(pipeline::deployed_gates),
        gate_failures: pipeline::verify_gates(pipeline::deployed_gates),
    }
}

fn json_string_array(out: &mut String, indent: &str, values: &[String]) {
    if values.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(indent);
        let _ = write!(out, "  \"{}\"", json_escape(value));
    }
    out.push('\n');
    out.push_str(indent);
    out.push(']');
}

/// Renders a report into the canonical certificate text.
///
/// Interval bounds are emitted as plain JSON numbers; every bound the
/// paper shape and the proved grid can produce is below `2^53`, so
/// the numbers are exact in any JSON reader. Container bounds are emitted as
/// their descriptions, not as numbers, for the same reason in reverse
/// (`i64::MAX` is not exactly representable in an `f64`-based reader).
pub fn render_report(report: &RangeReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"certificate\": \"a3 range proof\",\n");
    out.push_str("  \"version\": 1,\n");
    let _ = writeln!(out, "  \"source\": \"{GATES_SOURCE_PATH}\",");

    // The verified gate table (shape-independent metadata from the paper
    // shape; `gate_failures` below certifies it matches the prover on every
    // grid shape).
    out.push_str("  \"gates\": [\n");
    let gates = pipeline::deployed_gates(&report.paper.shape);
    for (i, gate) in gates.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"expression\": \"{}\", \"container\": \"{}\", \"limit\": {}}}",
            gate.name, gate.expression, gate.container, gate.limit
        );
        out.push_str(if i + 1 < gates.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"gate_failures\": ");
    json_string_array(&mut out, "  ", &report.gate_failures);
    out.push_str(",\n");

    // The sweep summary.
    let sweep = &report.sweep;
    out.push_str("  \"sweep\": {\n");
    let _ = writeln!(
        out,
        "    \"grid\": \"int_bits {:?}, frac_bits {:?}, ld {:?}, ln {:?}\",",
        PipelineFormats::GRID_INT_BITS,
        PipelineFormats::GRID_FRAC_BITS,
        PipelineFormats::GRID_LD,
        PipelineFormats::GRID_LN
    );
    let _ = writeln!(out, "    \"checked\": {},", sweep.checked);
    let _ = writeln!(out, "    \"simd_eligible\": {},", sweep.simd_eligible);
    let _ = writeln!(out, "    \"scalar_proved\": {},", sweep.scalar_proved);
    out.push_str("    \"soundness_holes\": ");
    json_string_array(&mut out, "    ", &sweep.soundness_holes);
    out.push_str(",\n");
    out.push_str("    \"completeness_gaps\": ");
    json_string_array(&mut out, "    ", &sweep.completeness_gaps);
    out.push('\n');
    out.push_str("  },\n");

    // The paper shape's full proof.
    let proof = &report.paper;
    out.push_str("  \"paper_shape\": {\n");
    let _ = writeln!(out, "    \"shape\": \"{}\",", proof.shape);
    let _ = writeln!(out, "    \"n_max\": {},", proof.n_max);
    let _ = writeln!(out, "    \"d_max\": {},", proof.d_max);
    let _ = writeln!(out, "    \"proved\": {},", proof.all_proved());
    out.push_str("    \"obligations\": [\n");
    for (oi, ob) in proof.obligations.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"name\": \"{}\", \"scope\": \"{}\", \"lo\": {}, \"hi\": {}, \
             \"required\": \"{}\", \"proved\": {}}}",
            ob.name,
            ob.scope.name(),
            ob.derived.lo(),
            ob.derived.hi(),
            ob.required_desc,
            ob.proved()
        );
        out.push_str(if oi + 1 < proof.obligations.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("    ]\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn finding(message: String) -> Finding {
    Finding {
        lint: "range-certificate",
        path: CERTIFICATE_PATH.to_owned(),
        line: 1,
        message,
        snippet: "run `cargo run -p a3-analyze -- range-proof --update-certificate`".to_owned(),
    }
}

/// Verifies the committed certificate against a fresh proof run.
///
/// Returns findings for (a) semantic problems — an unproved paper shape,
/// gate-table mismatches, soundness holes — and (b) certificate drift
/// (missing or byte-different file). Returns nothing when the workspace at
/// `root` has no `crates/fixed/src/pipeline_formats.rs` (the gate source) at
/// all: foreign trees, lint test fixtures.
pub fn check(root: &Path) -> Vec<Finding> {
    if !root.join(GATES_SOURCE_PATH).exists() {
        return Vec::new();
    }
    let report = report();
    let mut findings: Vec<Finding> = report.problems().into_iter().map(finding).collect();
    let expected = render_report(&report);
    match fs::read_to_string(root.join(CERTIFICATE_PATH)) {
        Ok(actual) if actual == expected => {}
        Ok(_) => findings.push(finding(
            "stale range-proof certificate: committed file differs from a fresh proof run"
                .to_owned(),
        )),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            findings.push(finding("missing range-proof certificate".to_owned()))
        }
        Err(e) => findings.push(finding(format!("unreadable range-proof certificate: {e}"))),
    }
    findings
}

/// Rewrites the committed certificate from a fresh proof run.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn update(root: &Path) -> io::Result<()> {
    let text = render_report(&report());
    let path = root.join(CERTIFICATE_PATH);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use crate::find_workspace_root;

    use super::*;

    fn repo_root() -> std::path::PathBuf {
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
    }

    #[test]
    fn committed_certificate_is_fresh_and_clean() {
        assert_eq!(
            check(&repo_root())
                .iter()
                .map(|f| f.message.clone())
                .collect::<Vec<_>>(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(render_report(&report()), render_report(&report()));
    }

    #[test]
    fn check_skips_trees_without_the_gate_source() {
        let dir = std::env::temp_dir().join("a3-range-cert-skip-test");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(check(&dir).is_empty());
    }

    #[test]
    fn check_reports_a_stale_certificate_next_to_the_gate_source() {
        let dir = std::env::temp_dir().join(format!("a3-range-cert-stale-{}", std::process::id()));
        for (path, text) in [
            (GATES_SOURCE_PATH, "// gates\n"),
            (CERTIFICATE_PATH, "{}\n"),
        ] {
            let file = dir.join(path);
            std::fs::create_dir_all(file.parent().unwrap()).unwrap();
            std::fs::write(file, text).unwrap();
        }
        let messages: Vec<String> = check(&dir).into_iter().map(|f| f.message).collect();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            messages
                .iter()
                .any(|m| m.contains("stale range-proof certificate")),
            "{messages:?}"
        );
    }

    #[test]
    fn report_problems_are_empty() {
        let report = report();
        assert_eq!(report.problems(), Vec::<String>::new());
        assert_eq!(report.paper.shape.label(), "Q4.4/ld6/ln9");
    }
}
