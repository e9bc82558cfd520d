//! Serving benchmark for the A3 reproduction.
//!
//! Generates seeded traffic in this process, drives the real
//! `AttentionServer` through its public API, checks every sampled output, and
//! prints each metric by name, unit and sample count. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` carrying
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! separate traced run (see `GLOSSARY.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload babi_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Exits with 1 when any output check or request fails, 2 on bad arguments.

mod check;
mod decode;
mod layers;
mod openloop;
mod probe;
mod run;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;

use a3_core::backend::simd::{SimdLevel, FORCE_SCALAR_ENV};
use a3_core::ServeError;

use crate::probe::Probe;
use crate::run::Metric;
use crate::traced::SpanLog;
use crate::workload::{Kind, Spec};

const USAGE: &str = "usage: perfbench --workload <babi_small|squad_approx|decode_stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let name = value("--workload")?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: number("--seed")?,
        seconds,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// The host facts a result is only comparable within.
fn host_line(spec: &Spec) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let forced = std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != "0");
    format!(
        "{{\"nproc\":{nproc},\"fanout_workers\":{},\"simd\":\"{}\",\"force_scalar\":{forced}}}",
        // The batch fan-out uses one worker per core, capped by the batch size.
        nproc.min(spec.policy.max_batch),
        SimdLevel::detect(),
    )
}

struct Outcome {
    metrics: Vec<Metric>,
    phases: Vec<String>,
    attempted: u64,
    failed: u64,
    failed_frac: f64,
}

fn execute(args: &Args, spec: &Spec, host: &str) -> Result<Outcome, ServeError> {
    // A traced run gives half of the time to the untraced run it is compared
    // with, so every run takes about `--seconds`.
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let untraced = run::run(spec, args.seed, seconds, None)?;
    let mut runs = vec![("untraced", &untraced)];
    let traced_run;
    let metrics = if args.trace {
        let log = SpanLog::new();
        let mut probe = Probe::new(log.clone());
        traced_run = run::run(spec, args.seed, seconds, Some(&mut probe))?;
        runs.push(("traced", &traced_run));
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-spans")
            .join(format!("{}-seed{}.jsonl", spec.kind.name(), args.seed));
        match log.write_jsonl(&path, host) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
        layers::layer_metrics(&traced_run, &probe, untraced.throughput_qps)
    } else {
        untraced.e2e_metrics()
    };
    let mut phases = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (label, run) in &runs {
        for (phase, c) in &run.phases {
            phases.push(format!(
                "{label}/{phase}: sent={} completed={} failed={}",
                c.sent, c.completed, c.failed
            ));
        }
        phases.push(format!(
            "{label}/check: checked={} mismatches={} cache_violations={}",
            run.checks.checked, run.checks.mismatches, run.cache_violations
        ));
        let (sent, _, f) = run.totals();
        attempted += sent;
        failed += f;
    }
    Ok(Outcome {
        metrics,
        phases,
        attempted,
        failed,
        failed_frac: untraced.failed_frac(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    let host = host_line(&spec);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {host}");
    let outcome = match execute(&args, &spec, &host) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.phases {
        println!("{line}");
    }
    println!(
        "{:<34} {:>16} {:>9} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        println!(
            "{:<34} {:>16.6} {:>9} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<34} {:>16.6} {:>9} {:>9}",
        "failed_frac", outcome.failed_frac, "frac", outcome.attempted
    );
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
