//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p a3-analyze                   # run all lints + certificate check
//! cargo run -p a3-analyze -- --deny-all     # CI mode: also fail stale allowlist entries
//! cargo run -p a3-analyze -- --lint <name>  # run one lint
//! cargo run -p a3-analyze -- --json         # machine-readable findings (one JSON object)
//! cargo run -p a3-analyze -- --github       # also emit GitHub `::error` annotations
//! cargo run -p a3-analyze -- --list         # list lints
//! cargo run -p a3-analyze -- --self-test    # seeded-violation self-test (lints + prover)
//! cargo run -p a3-analyze -- --root <dir>   # analyze another tree
//! cargo run -p a3-analyze -- range-proof    # run the range prover and report
//! cargo run -p a3-analyze -- range-proof --update-certificate
//! ```
//!
//! Exit status: 0 when clean, 1 on findings (or, with `--deny-all`, stale
//! allowlist entries), 2 on usage or I/O errors.

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use a3_analyze::lints::{Finding, LINTS};
use a3_analyze::range::certificate;
use a3_analyze::{analyze, find_workspace_root, json_escape, range, selftest};

struct Options {
    deny_all: bool,
    lint: Option<String>,
    list: bool,
    self_test: bool,
    json: bool,
    github: bool,
    range_proof: bool,
    update_certificate: bool,
    root: Option<PathBuf>,
}

fn usage() {
    eprintln!(
        "a3-analyze: source-level invariant checker for the A3 workspace\n\
         \n\
         USAGE: a3-analyze [--deny-all] [--lint <name>] [--json] [--github] [--list]\n\
         \x20                 [--self-test] [--root <dir>]\n\
         \x20      a3-analyze range-proof [--update-certificate] [--root <dir>]\n\
         \n\
         --deny-all             CI mode: stale allowlist entries are errors too\n\
         --lint <name>          run a single lint (see --list)\n\
         --json                 emit findings as one JSON object on stdout\n\
         --github               also emit GitHub Actions `::error` annotations\n\
         --list                 list the lint rules and exit\n\
         --self-test            verify every lint and the range prover fire on seeded violations\n\
         --root <dir>           workspace root (default: discovered from the current dir)\n\
         range-proof            prove the gate-admitted pipeline shapes and verify the certificate\n\
         --update-certificate   (with range-proof) rewrite the committed certificate"
    );
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny_all: false,
        lint: None,
        list: false,
        self_test: false,
        json: false,
        github: false,
        range_proof: false,
        update_certificate: false,
        root: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--list" => opts.list = true,
            "--self-test" => opts.self_test = true,
            "--json" => opts.json = true,
            "--github" => opts.github = true,
            "range-proof" => opts.range_proof = true,
            "--update-certificate" => opts.update_certificate = true,
            "--lint" => {
                let name = args.next().ok_or("--lint requires a lint name")?;
                if !LINTS.iter().any(|l| l.name == name) {
                    return Err(format!("unknown lint `{name}` (see --list)"));
                }
                opts.lint = Some(name);
            }
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.update_certificate && !opts.range_proof {
        return Err("--update-certificate only applies to the range-proof command".to_owned());
    }
    Ok(opts)
}

fn finding_hint(finding: &Finding) -> &'static str {
    LINTS
        .iter()
        .find(|l| l.name == finding.lint)
        .map_or("", |info| info.fix_hint)
}

/// One JSON object covering the whole run: findings with fix hints, stale
/// allowlist entries, and the summary counters the text output prints.
fn print_json(analysis: &a3_analyze::Analysis) {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        let _ = write!(
            out,
            "{{\"path\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\", \
             \"snippet\": \"{}\", \"fix_hint\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.lint,
            json_escape(&f.message),
            json_escape(&f.snippet),
            json_escape(finding_hint(f)),
        );
    }
    out.push_str(if analysis.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"stale_allowlist_entries\": [");
    for (i, (lint, path, pattern, line)) in analysis.stale.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        let _ = write!(
            out,
            "{{\"lint\": \"{}\", \"path\": \"{}\", \"pattern\": \"{}\", \"allowlist_line\": {}}}",
            json_escape(lint),
            json_escape(path),
            json_escape(pattern),
            line
        );
    }
    out.push_str(if analysis.stale.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = write!(
        out,
        "  \"files\": {},\n  \"suppressed\": {}\n}}",
        analysis.files, analysis.suppressed
    );
    println!("{out}");
}

/// GitHub Actions workflow-command annotations: one `::error` per finding,
/// attached to the offending file and line in the PR diff view.
fn print_github_annotations(analysis: &a3_analyze::Analysis) {
    for f in &analysis.findings {
        // Annotation text must be single-line; %0A is the escaped newline.
        println!(
            "::error file={},line={},title=a3-analyze {}::{}%0A{}",
            f.path, f.line, f.lint, f.message, f.snippet
        );
    }
}

fn run_range_proof(root: &Path, update: bool) -> Result<ExitCode, String> {
    let report = certificate::report();
    println!(
        "range-proof: paper shape {} ({} obligations); grid sweep {} shapes, \
         {} simd-eligible, {} scalar-proved",
        report.paper.shape,
        report.paper.obligations.len(),
        report.sweep.checked,
        report.sweep.simd_eligible,
        report.sweep.scalar_proved
    );
    for gap in &report.sweep.completeness_gaps {
        println!("  completeness gap (gates conservative, proof clean): {gap}");
    }
    let problems = report.problems();
    for problem in &problems {
        eprintln!("range-proof FAILURE: {problem}");
    }
    if update {
        certificate::update(root).map_err(|e| format!("cannot write certificate: {e}"))?;
        println!("wrote {}", certificate::CERTIFICATE_PATH);
    } else {
        let expected = certificate::render_report(&report);
        match fs::read_to_string(root.join(certificate::CERTIFICATE_PATH)) {
            Ok(actual) if actual == expected => {
                println!("certificate {} is fresh", certificate::CERTIFICATE_PATH);
            }
            Ok(_) => {
                eprintln!(
                    "range-proof FAILURE: stale certificate {} — rerun with --update-certificate \
                     and commit the diff",
                    certificate::CERTIFICATE_PATH
                );
                return Ok(ExitCode::FAILURE);
            }
            Err(e) => {
                eprintln!(
                    "range-proof FAILURE: cannot read certificate {}: {e}",
                    certificate::CERTIFICATE_PATH
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if problems.is_empty() {
        println!("range-proof OK: every gate-admitted shape proves; gate table verified both ways");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;

    if opts.list {
        for lint in LINTS {
            println!("{:<26} {}", lint.name, lint.description);
        }
        println!(
            "{:<26} committed range-proof certificate must match a fresh proof run",
            "range-certificate"
        );
        return Ok(ExitCode::SUCCESS);
    }

    if opts.self_test {
        let mut failures = selftest::run();
        failures.extend(range::selftest());
        if failures.is_empty() {
            println!(
                "self-test OK: all {} lints and the range prover fire on seeded violations \
                 and pass on the fixes",
                LINTS.len()
            );
            return Ok(ExitCode::SUCCESS);
        }
        for f in &failures {
            eprintln!("self-test FAILURE: {f}");
        }
        return Ok(ExitCode::FAILURE);
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found (no ancestor Cargo.toml with [workspace])")?
        }
    };

    if opts.range_proof {
        return run_range_proof(&root, opts.update_certificate);
    }

    let analysis =
        analyze(&root, opts.lint.as_deref()).map_err(|e| format!("analysis failed: {e}"))?;

    if opts.json {
        print_json(&analysis);
    } else {
        for f in &analysis.findings {
            println!("{}:{}: [{}] {}", f.path, f.line, f.lint, f.message);
            println!("    {}", f.snippet);
            let hint = finding_hint(f);
            if !hint.is_empty() {
                println!("    fix: {hint}");
            }
        }
        for (lint, path, pattern, line) in &analysis.stale {
            let level = if opts.deny_all { "error" } else { "warning" };
            println!(
                "{level}: stale allowlist entry `{path} {pattern}` ({}.txt:{line}) matched nothing — remove it",
                lint
            );
        }
        println!(
            "a3-analyze: {} files, {} finding(s), {} suppressed by allowlists, {} stale allowlist entr(y/ies)",
            analysis.files,
            analysis.findings.len(),
            analysis.suppressed,
            analysis.stale.len()
        );
    }
    if opts.github {
        print_github_annotations(&analysis);
    }

    if analysis.is_clean(opts.deny_all) {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("a3-analyze: {msg}");
            usage();
            ExitCode::from(2)
        }
    }
}
