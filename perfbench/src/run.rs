//! One run of a workload: set-up, then open-loop or closed-loop serving with
//! the set-up repeated between segments, then the output check on the sampled
//! responses.

use std::time::Instant;

use a3_core::backend::ComputeBackend;
use a3_core::serve::SessionMemory;
use a3_core::ServeError;

use crate::check::CheckTally;
use crate::decode;
use crate::openloop::{self, Chunked, PhaseCounts};
use crate::probe::Probe;
use crate::stats::{median, ratio};
use crate::traced::TracedBackend;
use crate::workload::{Kind, Spec};

/// Set-ups timed after each open-loop cycle of latency chunk and backlog
/// rounds. The closed loop times the set-up of each of its epochs instead.
const SETUPS_BETWEEN: usize = 2;
/// Sampled queries replayed through the stage functions in a traced run.
const MAX_REPLAYS: usize = 256;
/// Rows of each live decode session replayed as queries.
const DECODE_REPLAY_STRIDE: usize = 32;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Counters only the closed loop produces.
#[derive(Debug, Clone, Copy)]
pub struct DecodeSummary {
    pub appends: u64,
    pub full_reprepares: u64,
    pub rebalances: u64,
    pub cache_updates: u64,
}

#[derive(Debug)]
pub struct Run {
    pub kind: Kind,
    pub setup_s: Vec<f64>,
    /// Cache (hits, misses) when set-up ends.
    pub setup_cache: (u64, u64),
    pub throughput_qps: f64,
    pub throughput_samples: usize,
    pub latency_us: Chunked,
    pub lag_us: Chunked,
    pub phases: Vec<(&'static str, PhaseCounts)>,
    pub checks: CheckTally,
    /// Appends that broke the cache-update invariant (decode only).
    pub cache_violations: u64,
    pub decode: Option<DecodeSummary>,
    /// `(memory, queries)` groups for the stage replays of a traced run.
    pub replay: Vec<(SessionMemory, Vec<Vec<f32>>)>,
}

impl Run {
    /// Requests (sent, completed, failed) over every phase; output-check
    /// mismatches and cache-invariant violations count as failed.
    pub fn totals(&self) -> (u64, u64, u64) {
        let (mut sent, mut completed, mut failed) = (0, 0, 0);
        for (_, c) in &self.phases {
            sent += c.sent;
            completed += c.completed;
            failed += c.failed;
        }
        (
            sent,
            completed,
            failed + self.checks.mismatches + self.cache_violations,
        )
    }

    pub fn e2e_metrics(&self) -> Vec<Metric> {
        let lat = self.latency_us.samples;
        vec![
            Metric {
                name: "setup_s",
                value: median(&self.setup_s),
                unit: "s",
                samples: self.setup_s.len(),
            },
            Metric {
                name: "throughput_qps",
                value: self.throughput_qps,
                unit: "1/s",
                samples: self.throughput_samples,
            },
            Metric {
                name: "latency_p50_us",
                value: self.latency_us.p50(),
                unit: "us",
                samples: lat,
            },
            Metric {
                name: "latency_p99_us",
                value: self.latency_us.p99(),
                unit: "us",
                samples: lat,
            },
            Metric {
                name: "recall_top5",
                value: self.checks.recall(),
                unit: "frac",
                samples: self.checks.checked as usize,
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
                samples: 1,
            },
        ]
    }

    /// Failed requests over attempted ones; carried in the result line as
    /// `failed` and `attempted` rather than as a metric, since it is 0 on a
    /// healthy run.
    pub fn failed_frac(&self) -> f64 {
        let (sent, _, failed) = self.totals();
        ratio(failed as f64, sent as f64)
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One set-up, timed into `setup_s`; the server it builds is dropped.
fn timed_set_up(
    spec: &Spec,
    backend: &dyn Fn() -> Box<dyn ComputeBackend>,
    setup_s: &mut Vec<f64>,
) -> Result<(), ServeError> {
    let start = Instant::now();
    let built = spec.set_up(backend())?;
    setup_s.push(start.elapsed().as_secs_f64());
    drop(built);
    Ok(())
}

/// Runs `spec` for `seconds`. With a probe, the server is built around a
/// `TracedBackend` and the serving calls are timed.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    mut probe: Option<&mut Probe>,
) -> Result<Run, ServeError> {
    let kind = spec.kind;
    let log = probe.as_ref().map(|p| p.log.clone());
    let backend = move || -> Box<dyn ComputeBackend> {
        match &log {
            Some(log) => Box::new(TracedBackend::new(kind.backend(), log.clone())),
            None => kind.backend(),
        }
    };
    let reference = kind.backend();

    // The first set-up also warms the allocator and code paths; it is not
    // timed.
    let (mut server, sessions) = spec.set_up(backend())?;
    let setup_cache = (server.cache().hits(), server.cache().misses());

    if kind == Kind::DecodeStream {
        drop(server);
        let (phase, server, live) = decode::closed_loop(
            spec,
            seconds,
            &backend,
            reference.as_ref(),
            probe.as_deref_mut(),
        )?;
        let replay = live
            .iter()
            .filter_map(|&id| server.session(id))
            .map(|s| {
                let memory = s.memory().clone();
                let (keys, _) = crate::layers::flatten(&memory);
                let queries = keys
                    .iter_rows()
                    .step_by(DECODE_REPLAY_STRIDE)
                    .map(<[f32]>::to_vec)
                    .collect();
                (memory, queries)
            })
            .collect();
        return Ok(Run {
            kind,
            setup_s: phase.setup_s,
            setup_cache,
            throughput_qps: median(&phase.epoch_qps),
            throughput_samples: phase.epoch_qps.len(),
            latency_us: phase.latency_us,
            lag_us: phase.lag_us,
            phases: vec![("closed_loop", phase.counts)],
            checks: phase.checks,
            cache_violations: phase.cache_violations,
            decode: Some(DecodeSummary {
                appends: phase.appends,
                full_reprepares: phase.full_reprepares,
                rebalances: phase.rebalances,
                cache_updates: phase.cache_updates,
            }),
            replay,
        });
    }

    let mut setup_s = Vec::new();
    let mut setup_error = None;
    let mut between = || {
        for _ in 0..SETUPS_BETWEEN {
            if let Err(e) = timed_set_up(spec, &backend, &mut setup_s) {
                setup_error = Some(e);
            }
        }
    };
    let open = openloop::serve(
        &mut server,
        &sessions,
        spec,
        seed,
        seconds,
        probe,
        &mut between,
    );
    if let Some(e) = setup_error {
        return Err(e);
    }
    let mut checks = CheckTally::default();
    let mut replay: Vec<(usize, Vec<Vec<f32>>)> = Vec::new();
    for (i, served) in open.served.iter().enumerate() {
        let query = &spec.memories[served.memory].queries[served.query];
        match server.session(sessions[served.memory]) {
            Some(s) => checks.check(reference.as_ref(), s.memory(), query, &served.result),
            None => checks.mismatches += 1,
        }
        if i < MAX_REPLAYS {
            match replay.iter_mut().find(|(m, _)| *m == served.memory) {
                Some((_, queries)) => queries.push(query.clone()),
                None => replay.push((served.memory, vec![query.clone()])),
            }
        }
    }
    let replay = replay
        .into_iter()
        .filter_map(|(m, queries)| Some((server.session(sessions[m])?.memory().clone(), queries)))
        .collect();
    Ok(Run {
        kind,
        setup_s,
        setup_cache,
        throughput_qps: open.throughput_qps(),
        throughput_samples: open.round_qps.len(),
        latency_us: open.latency_us,
        lag_us: open.lag_us,
        phases: vec![
            ("latency", open.latency_counts),
            ("backlog", open.backlog_counts),
        ],
        checks,
        cache_violations: 0,
        decode: None,
        replay,
    })
}
