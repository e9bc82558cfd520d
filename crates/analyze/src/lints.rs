//! The lint rules.
//!
//! Every lint reports [`Finding`]s against the masked code view of a
//! [`SourceFile`] (see [`crate::source`]), so tokens inside strings, comments and
//! doc examples never trigger. Lines inside `#[cfg(test)]` items are exempt from
//! the hot-path and cast rules — tests may unwrap and index freely.

use crate::source::SourceFile;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint rule name (one of [`LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending line, trimmed (also the allowlist match key).
    pub snippet: String,
}

/// Static description of a lint rule.
pub struct LintInfo {
    /// Rule name, as used on the command line and in allowlist file names.
    pub name: &'static str,
    /// One-line description of what the rule enforces.
    pub description: &'static str,
    /// Shown with every finding: how to fix (or consciously allowlist) it.
    pub fix_hint: &'static str,
}

/// All lint rules, in evaluation order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "unsafe-safety-comment",
        description: "every `unsafe` must carry an adjacent `// SAFETY:` comment",
        fix_hint: "add a `// SAFETY:` comment directly above the unsafe block/fn \
                   stating the invariant that makes it sound",
    },
    LintInfo {
        name: "unsafe-allowlist",
        description: "`unsafe` may appear only in allowlisted SIMD modules",
        fix_hint: "move the unsafe code into the sanctioned SIMD module, or add the \
                   file to crates/analyze/allowlists/unsafe-allowlist.txt with a review",
    },
    LintInfo {
        name: "hotpath-no-panic",
        description: "no unwrap/expect/panic!/assert!/slice-indexing in the non-test code of \
                      a3-core and a3-fixed (crates/core/src/, crates/fixed/src/), which every \
                      serving path runs",
        fix_hint: "return a ServeError/AttentionError instead of panicking; replace \
                   `xs[i]` with `xs.get(i)` and handle the None case",
    },
    LintInfo {
        name: "fixed-no-bare-cast",
        description: "no bare `as` numeric casts in crates/fixed outside the \
                      sanctioned cast helpers",
        fix_hint: "route the conversion through a helper in crates/fixed/src/cast.rs \
                   so its semantics are stated and audited once",
    },
    LintInfo {
        name: "result-errors-documented",
        description: "every `pub fn` returning `Result` documents its errors under \
                      a `# Errors` doc section",
        fix_hint: "add a `/// # Errors` section to the doc comment describing when \
                   each error variant is returned",
    },
];

/// Numeric primitive types a bare `as` cast to which is flagged in `crates/fixed`.
const NUMERIC_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "f32",
    "f64",
];

/// Runs one lint (by name) over a file. Unknown names report nothing.
pub fn run_lint(name: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    match name {
        "unsafe-safety-comment" => unsafe_safety_comment(file, findings),
        "unsafe-allowlist" => unsafe_allowlist(file, findings),
        "hotpath-no-panic" => hotpath_no_panic(file, findings),
        "fixed-no-bare-cast" => fixed_no_bare_cast(file, findings),
        "result-errors-documented" => result_errors_documented(file, findings),
        _ => {}
    }
}

/// Is there a standalone word `word` in `code` (not part of an identifier)?
fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let p = start + pos;
        let before_ok = p == 0 || {
            let c = bytes[p - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        let after = p + word.len();
        let after_ok = after >= bytes.len() || {
            let c = bytes[after];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = p + word.len();
    }
    false
}

fn push(findings: &mut Vec<Finding>, lint: &'static str, file: &SourceFile, i: usize, msg: String) {
    findings.push(Finding {
        lint,
        path: file.rel_path.clone(),
        line: i + 1,
        message: msg,
        snippet: file
            .raw_lines
            .get(i)
            .map_or_else(String::new, |l| l.trim().to_owned()),
    });
}

/// Is this raw line a comment/attribute/blank line that a safety-comment search
/// may step over while walking upwards?
fn is_annotation_line(trimmed: &str) -> bool {
    trimmed.is_empty()
        || trimmed.starts_with("//")
        || trimmed.starts_with("/*")
        || trimmed.starts_with('*')
        || trimmed.starts_with("#[")
        || trimmed.starts_with("#![")
        || trimmed.starts_with(")]")
}

/// Does the `unsafe` at line `i` have an adjacent `SAFETY:` comment (or a
/// `# Safety` doc section) above it — stepping over attributes and doc lines?
fn has_safety_comment(file: &SourceFile, i: usize) -> bool {
    let safety_marker =
        |t: &str| t.contains("SAFETY:") || t.contains("# Safety") || t.contains("# SAFETY");
    if safety_marker(file.raw_lines[i].as_str()) {
        return true;
    }
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 20 {
        j -= 1;
        steps += 1;
        let t = file.raw_lines[j].trim();
        if safety_marker(t) {
            return true;
        }
        if !is_annotation_line(t) {
            return false;
        }
    }
    false
}

/// `unsafe-safety-comment`: every line with an `unsafe` token needs a `SAFETY:`
/// comment adjacent above (attributes and doc lines may sit in between).
fn unsafe_safety_comment(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, code) in file.code_lines.iter().enumerate() {
        if !contains_word(code, "unsafe") || file.is_test_line(i) {
            continue;
        }
        // The `#[allow(unsafe_code)]` opt-in attribute is a scope marker, not an
        // unsafe operation; `contains_word` already rejects `unsafe_code`, but
        // `unsafe` also appears in `unsafe fn`/`unsafe {`/`unsafe impl` — all of
        // which do need justification.
        if !has_safety_comment(file, i) {
            push(
                findings,
                "unsafe-safety-comment",
                file,
                i,
                "`unsafe` without an adjacent `// SAFETY:` comment".to_owned(),
            );
        }
    }
}

/// `unsafe-allowlist`: `unsafe` tokens are only permitted in allowlisted files
/// (the allowlist itself is applied by the runner; this lint flags every use).
fn unsafe_allowlist(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, code) in file.code_lines.iter().enumerate() {
        if contains_word(code, "unsafe") && !file.is_test_line(i) {
            push(
                findings,
                "unsafe-allowlist",
                file,
                i,
                "`unsafe` outside the sanctioned SIMD modules".to_owned(),
            );
        }
    }
}

/// Files subject to the hot-path panic-freedom rule: all of `a3-core` and
/// `a3-fixed`, because the serving paths reach every module of both.
fn is_hotpath(rel_path: &str) -> bool {
    rel_path.starts_with("crates/core/src/") || rel_path.starts_with("crates/fixed/src/")
}

/// Column of a slice-indexing `[` on this masked line, if any: a `[` directly
/// flush against the end of an expression (identifier char, `)`, or `]`).
/// Macro brackets (`vec![`) and attributes (`#[`) never match because `!` and
/// `#` end no expression; array *types*, array literals and slice *patterns*
/// (`[f32; 8]`, `let [a, b] = …`) are preceded by whitespace or punctuation.
fn slice_indexing_column(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    for (p, &b) in bytes.iter().enumerate() {
        if b != b'[' || p == 0 {
            continue;
        }
        let c = bytes[p - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b')' || c == b']' {
            return Some(p);
        }
    }
    None
}

/// `hotpath-no-panic`: no panicking constructs or slice indexing in the files
/// [`is_hotpath`] covers, outside tests.
fn hotpath_no_panic(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !is_hotpath(&file.rel_path) {
        return;
    }
    const PANICS: &[(&str, &str)] = &[
        (".unwrap()", "`.unwrap()` on the serving hot path"),
        (".expect(", "`.expect(...)` on the serving hot path"),
        ("panic!", "`panic!` on the serving hot path"),
        ("unreachable!", "`unreachable!` on the serving hot path"),
        ("todo!", "`todo!` on the serving hot path"),
        ("unimplemented!", "`unimplemented!` on the serving hot path"),
        (
            ".unwrap_unchecked(",
            "`.unwrap_unchecked(...)` on the serving hot path",
        ),
    ];
    // Matched as whole words, so `debug_assert!` and friends (compiled out of
    // release builds) stay permitted.
    const ASSERTS: &[(&str, &str)] = &[
        ("assert!", "`assert!` on the serving hot path"),
        ("assert_eq!", "`assert_eq!` on the serving hot path"),
        ("assert_ne!", "`assert_ne!` on the serving hot path"),
    ];
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.is_test_line(i) {
            continue;
        }
        let panic = PANICS.iter().find(|(tok, _)| code.contains(tok));
        let assert = || ASSERTS.iter().find(|(tok, _)| contains_word(code, tok));
        if let Some((_, msg)) = panic.or_else(assert) {
            push(findings, "hotpath-no-panic", file, i, (*msg).to_owned());
            continue;
        }
        if slice_indexing_column(code).is_some() {
            push(
                findings,
                "hotpath-no-panic",
                file,
                i,
                "slice indexing (can panic) on the serving hot path".to_owned(),
            );
        }
    }
}

/// `fixed-no-bare-cast`: flags `<expr> as <numeric-type>` in `crates/fixed/src/`.
fn fixed_no_bare_cast(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !file.rel_path.starts_with("crates/fixed/src/") {
        return;
    }
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.is_test_line(i) {
            continue;
        }
        let trimmed = code.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        if let Some(target) = bare_numeric_cast(code) {
            push(
                findings,
                "fixed-no-bare-cast",
                file,
                i,
                format!("bare `as {target}` cast outside the sanctioned cast helpers"),
            );
        }
    }
}

/// The target type of the first bare numeric `as` cast on this masked line.
fn bare_numeric_cast(code: &str) -> Option<&'static str> {
    let mut start = 0;
    while let Some(pos) = code[start..].find(" as ") {
        let p = start + pos;
        let rest = code[p + 4..].trim_start();
        let word_len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let word = &rest[..word_len];
        if let Some(t) = NUMERIC_TYPES.iter().find(|t| **t == word) {
            return Some(t);
        }
        start = p + 4;
    }
    None
}

/// `result-errors-documented`: a `pub fn` returning `Result` must have a
/// `# Errors` section in its doc comment.
fn result_errors_documented(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !(file.rel_path.contains("/src/") || file.rel_path.starts_with("src/")) {
        return;
    }
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.is_test_line(i) || !code.contains("pub fn ") {
            continue;
        }
        // Gather the signature: from the `pub fn` line to the opening brace or
        // a terminating semicolon (trait method declarations).
        let mut signature = String::new();
        for line in file.code_lines.iter().skip(i).take(40) {
            signature.push_str(line);
            signature.push(' ');
            let t = line.trim_end();
            if t.contains('{') || t.ends_with(';') {
                break;
            }
        }
        // Word-boundary match so plain structs like `AttentionResult` don't count.
        let returns_result = match signature.find("->") {
            Some(arrow) => contains_word(&signature[arrow..], "Result"),
            None => false,
        };
        if !returns_result {
            continue;
        }
        if !doc_block_has_errors_section(file, i) {
            push(
                findings,
                "result-errors-documented",
                file,
                i,
                "`pub fn` returning `Result` without a `# Errors` doc section".to_owned(),
            );
        }
    }
}

/// Walks the doc/attribute block directly above line `i` looking for `# Errors`.
fn doc_block_has_errors_section(file: &SourceFile, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = file.raw_lines[j].trim();
        if t.contains("# Errors") {
            return true;
        }
        if !is_annotation_line(t) {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(lint: &str, path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source(path, src);
        let mut findings = Vec::new();
        run_lint(lint, &file, &mut findings);
        findings
    }

    // Each lint has a seeded-violation self-test (the violation fires) and a
    // clean-code test (the fixed version does not).

    #[test]
    fn seeded_unsafe_without_safety_comment_fires() {
        let bad = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        let findings = lint_source("unsafe-safety-comment", "crates/x/src/lib.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);

        let good = "fn f() {\n    // SAFETY: f is never called.\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert!(lint_source("unsafe-safety-comment", "crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn safety_comment_steps_over_attributes() {
        let src = "// SAFETY: caller checked the CPU features.\n#[target_feature(enable = \"avx2\")]\nunsafe fn g() {}\n";
        assert!(lint_source("unsafe-safety-comment", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_unsafe_outside_allowlist_fires() {
        let bad = "fn f() {\n    // SAFETY: totally fine.\n    unsafe { do_thing() }\n}\n";
        let findings = lint_source("unsafe-allowlist", "crates/core/src/kernel.rs", bad);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn unsafe_in_string_or_comment_does_not_fire() {
        let src = "fn f() {\n    let s = \"unsafe\"; // unsafe in comment\n}\n";
        assert!(lint_source("unsafe-allowlist", "crates/x/src/lib.rs", src).is_empty());
        assert!(lint_source("unsafe-safety-comment", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_hotpath_unwrap_fires() {
        let bad = "pub fn serve() {\n    let x = queue.pop().unwrap();\n}\n";
        let findings = lint_source("hotpath-no-panic", "crates/core/src/serve/mod.rs", bad);
        assert_eq!(findings.len(), 1);
        // Same code outside a3-core and a3-fixed is fine.
        assert!(lint_source("hotpath-no-panic", "crates/eval/src/lib.rs", bad).is_empty());
        assert!(lint_source("hotpath-no-panic", "crates/core/tests/streaming.rs", bad).is_empty());
    }

    #[test]
    fn hotpath_covers_all_of_a3_core() {
        // The multi-tenant serving layer (token-bucket admission, builder
        // config) is on the submit/flush hot path, and the approximate backend
        // runs the algorithms under `approx/` and the `Matrix` accessors on
        // every query: all must stay panic-free like the rest of `serve/`.
        let bad = "pub fn admit() {\n    let t = buckets.get(&id).unwrap();\n}\n";
        for file in [
            "crates/core/src/serve/tenant.rs",
            "crates/core/src/serve/config.rs",
            "crates/core/src/serve/scheduler.rs",
            "crates/core/src/approx/candidate.rs",
            "crates/core/src/matrix.rs",
        ] {
            assert_eq!(
                lint_source("hotpath-no-panic", file, bad).len(),
                1,
                "{file} must be hot-path covered"
            );
        }
    }

    #[test]
    fn seeded_hotpath_indexing_fires_but_tests_are_exempt() {
        let bad = "pub fn serve(xs: &[f32]) -> f32 {\n    xs[0]\n}\n";
        let findings = lint_source("hotpath-no-panic", "crates/core/src/backend/mod.rs", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("slice indexing"));

        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(xs: &[f32]) -> f32 { xs[0].max(0.0).sqrt().floor().abs().min(xs[1]) }\n}\n";
        assert!(lint_source(
            "hotpath-no-panic",
            "crates/core/src/backend/mod.rs",
            in_test
        )
        .is_empty());
    }

    #[test]
    fn seeded_hotpath_asserts_fire_but_debug_asserts_do_not() {
        for (body, expected) in [
            ("assert!(x > 0.0);", "`assert!`"),
            ("assert_eq!(x, 1.0, \"mismatch\");", "`assert_eq!`"),
            ("std::assert_ne!(x, 0.0);", "`assert_ne!`"),
        ] {
            let bad = format!("pub fn serve(x: f32) {{\n    {body}\n}}\n");
            let findings = lint_source("hotpath-no-panic", "crates/fixed/src/fixed.rs", &bad);
            assert_eq!(findings.len(), 1, "missed: {body}");
            assert!(findings[0].message.contains(expected), "{body}");
        }
        for clean in [
            "debug_assert!(x > 0.0);",
            "debug_assert_eq!(x, 1.0);",
            "debug_assert_ne!(x, 0.0);",
            "let asserted = x;",
        ] {
            let src = format!("pub fn serve(x: f32) {{\n    {clean}\n}}\n");
            assert!(
                lint_source("hotpath-no-panic", "crates/core/src/backend/mod.rs", &src).is_empty(),
                "false positive on: {clean}"
            );
        }
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(x: f32) { assert!(x > 0.0); }\n}\n";
        assert!(
            lint_source("hotpath-no-panic", "crates/core/src/serve/mod.rs", in_test).is_empty()
        );
    }

    #[test]
    fn indexing_heuristic_skips_macros_attributes_and_types() {
        for clean in [
            "pub fn f(xs: &[f32], m: &Matrix) -> Vec<f32> { vec![0.0; xs.len()] }",
            "#[derive(Debug)]\npub struct S;",
            "pub fn g(buf: [f32; 8]) {}",
            "pub fn h() { let [a, b] = pair; }",
        ] {
            assert!(
                lint_source("hotpath-no-panic", "crates/core/src/serve/mod.rs", clean).is_empty(),
                "false positive on: {clean}"
            );
        }
        for dirty in ["let x = xs[i];", "let y = f(i)[0];", "let z = grid[i][j];"] {
            let wrapped = format!("pub fn f() {{\n    {dirty}\n}}\n");
            assert_eq!(
                lint_source("hotpath-no-panic", "crates/core/src/serve/mod.rs", &wrapped).len(),
                1,
                "missed: {dirty}"
            );
        }
    }

    #[test]
    fn seeded_bare_cast_fires_only_in_fixed() {
        let bad = "pub fn f(x: i64) -> f64 {\n    x as f64\n}\n";
        let findings = lint_source("fixed-no-bare-cast", "crates/fixed/src/fixed.rs", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("as f64"));
        // Outside crates/fixed the rule does not apply.
        assert!(lint_source("fixed-no-bare-cast", "crates/core/src/matrix.rs", bad).is_empty());
    }

    #[test]
    fn cast_lint_skips_use_renames_and_non_numeric_casts() {
        let src = "use crate::qformat as formats;\npub fn f(e: &dyn Error) -> &dyn Any { e as &dyn Any }\n";
        assert!(lint_source("fixed-no-bare-cast", "crates/fixed/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_undocumented_result_fires() {
        let bad = "pub fn parse(s: &str) -> Result<u32, String> {\n    s.parse().map_err(|_| String::new())\n}\n";
        let findings = lint_source("result-errors-documented", "crates/x/src/lib.rs", bad);
        assert_eq!(findings.len(), 1);

        let good = "/// Parses.\n///\n/// # Errors\n///\n/// Returns an error when `s` is not a number.\npub fn parse(s: &str) -> Result<u32, String> {\n    s.parse().map_err(|_| String::new())\n}\n";
        assert!(lint_source("result-errors-documented", "crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn multiline_signature_result_detected() {
        let bad = "pub fn prepare(\n    a: u32,\n    b: u32,\n) -> Result<u32, String> {\n    Ok(a + b)\n}\n";
        assert_eq!(
            lint_source("result-errors-documented", "crates/x/src/lib.rs", bad).len(),
            1
        );
    }

    #[test]
    fn non_result_pub_fn_ignored() {
        let src = "pub fn total_bits(&self) -> u32 {\n    self.int + self.frac\n}\n";
        assert!(lint_source("result-errors-documented", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn result_named_structs_do_not_count_as_result() {
        let src = "pub fn merge(xs: &[f32]) -> AttentionResult {\n    combine(xs)\n}\npub fn run() -> A3Result {\n    go()\n}\n";
        assert!(lint_source("result-errors-documented", "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(contains_word("pub unsafe fn f()", "unsafe"));
        assert!(!contains_word("#[allow(unsafe_code)]", "unsafe"));
        assert!(!contains_word("let unsafety = 1;", "unsafe"));
    }
}
