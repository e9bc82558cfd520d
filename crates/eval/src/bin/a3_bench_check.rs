//! `a3_bench_check`: the perf-regression gate behind the `bench-regression` CI job.
//!
//! Usage:
//!
//! ```text
//! a3_bench_check check  [--baseline PATH] [--tolerance PCT] [--inject-slowdown FACTOR]
//! a3_bench_check update [--baseline PATH]
//! ```
//!
//! `check` runs the deterministic perf smoke ([`a3_eval::bench_check::measure`]),
//! compares it against the committed baselines (default `BENCH_BASELINE.tsv`),
//! prints the sorted delta table as Markdown (CI appends stdout to the job summary)
//! and exits nonzero when any gated metric regressed by more than the tolerance
//! (default 15%). `update` regenerates the baseline file after an **intentional**
//! performance change — review the diff before committing it.
//!
//! `--inject-slowdown FACTOR` multiplies the measured wall-clock and ratio metrics
//! by `FACTOR` before comparing. It exists to prove the gate works:
//! `--inject-slowdown 1.5` against a fresh baseline must fail the check (ratio
//! metrics gate at the tolerance times the cross-host headroom, 30% by default).

use std::process::ExitCode;

use a3_eval::bench_check::{
    compare, inject_slowdown, measure, parse_baseline, render_baseline, Effort,
    DEFAULT_TOLERANCE_PCT,
};

const DEFAULT_BASELINE: &str = "BENCH_BASELINE.tsv";

struct Options {
    command: String,
    baseline: String,
    tolerance_pct: f64,
    inject: Option<f64>,
}

fn usage() {
    eprintln!(
        "usage: a3_bench_check check [--baseline PATH] [--tolerance PCT] \
         [--inject-slowdown FACTOR]\n       a3_bench_check update [--baseline PATH]"
    );
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command (check|update)")?;
    let mut options = Options {
        command,
        baseline: DEFAULT_BASELINE.to_owned(),
        tolerance_pct: DEFAULT_TOLERANCE_PCT,
        inject: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                options.baseline = args.next().ok_or("--baseline needs a path")?;
            }
            "--tolerance" => {
                options.tolerance_pct = args
                    .next()
                    .ok_or("--tolerance needs a percentage")?
                    .parse()
                    .map_err(|_| "--tolerance must be a number")?;
            }
            "--inject-slowdown" => {
                options.inject = Some(
                    args.next()
                        .ok_or("--inject-slowdown needs a factor")?
                        .parse()
                        .map_err(|_| "--inject-slowdown must be a number")?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match options.command.as_str() {
        "update" => {
            eprintln!("measuring perf smoke (full effort)...");
            let metrics = measure(Effort::Full);
            let text = render_baseline(&metrics);
            if let Err(error) = std::fs::write(&options.baseline, &text) {
                eprintln!("error: cannot write {}: {error}", options.baseline);
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} ({} metrics). Review the diff before committing.",
                options.baseline,
                metrics.len()
            );
            ExitCode::SUCCESS
        }
        "check" => {
            let text = match std::fs::read_to_string(&options.baseline) {
                Ok(text) => text,
                Err(error) => {
                    eprintln!(
                        "error: cannot read {}: {error}\nrun scripts/bench_update.sh to create it",
                        options.baseline
                    );
                    return ExitCode::FAILURE;
                }
            };
            let baseline = match parse_baseline(&text) {
                Ok(baseline) => baseline,
                Err(message) => {
                    eprintln!("error: malformed {}: {message}", options.baseline);
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("measuring perf smoke (full effort)...");
            let mut current = measure(Effort::Full);
            if let Some(factor) = options.inject {
                eprintln!("injecting an artificial x{factor} slowdown into wall/ratio metrics");
                inject_slowdown(&mut current, factor);
            }
            let comparison = compare(&baseline, &current, options.tolerance_pct);
            println!("### Bench regression check\n");
            print!("{}", comparison.render_markdown());
            let regressions = comparison.regressions();
            if regressions > 0 {
                eprintln!(
                    "FAIL: {regressions} gated metric(s) regressed by more than {:.0}%. \
                     If intentional, regenerate baselines with scripts/bench_update.sh.",
                    options.tolerance_pct
                );
                ExitCode::FAILURE
            } else {
                eprintln!("OK: no gated regression.");
                ExitCode::SUCCESS
            }
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            usage();
            ExitCode::FAILURE
        }
    }
}
