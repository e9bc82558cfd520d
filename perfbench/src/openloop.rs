//! Open-loop serving for `babi_small` and `squad_approx`. The run alternates
//! two kinds of segment on one server, so both sample the whole run:
//!
//! * a latency chunk: Poisson arrivals at the workload's fixed rate, each
//!   request timed from when it was due to when `poll` returned it;
//! * backlog rounds: requests all due at tick 0, drained to an empty server,
//!   one throughput figure per round.
//!
//! Percentiles are taken per latency chunk and reported as their median over
//! the chunks of the whole run, so a stretch of run time on a slowed host moves
//! some chunks, not the run. Between segments the run calls a hook, which
//! repeats the set-up phase so that `setup_s` samples the whole run too. The
//! generator and the server share this thread. Ticks are microseconds since
//! serving began.

use std::time::Instant;

use a3_core::attention::AttentionResult;
use a3_core::serve::{AttentionServer, CompletedBatch, Request, SessionId, Tick};

use crate::probe::{self, Probe};
use crate::stats::{self, Rng};
use crate::workload::Spec;

/// Scheduled requests per latency chunk: enough that each chunk's p99 has 10
/// samples beyond it, and short enough (0.2 s of `babi_small`) that the
/// shared host's sporadic stalls of 5-20 ms, which set the p99 of any chunk
/// they land in, leave most chunks untouched.
const CHUNK_REQUESTS: f64 = 1000.0;
/// Backlog rounds run for at least this long after each latency chunk.
const BACKLOG_S: f64 = 0.2;
/// Every `CHECK_EVERY`-th request's response is kept for the output check.
const CHECK_EVERY: u64 = 8;
/// Upper bound on kept responses.
const MAX_CHECKED: usize = 4096;

/// One kept response: which memory and query it served, and what came back.
#[derive(Debug)]
pub struct Served {
    pub memory: usize,
    pub query: usize,
    pub result: AttentionResult,
}

#[derive(Debug, Default)]
pub struct PhaseCounts {
    pub sent: u64,
    pub completed: u64,
    pub failed: u64,
}

impl PhaseCounts {
    fn add(&mut self, other: &PhaseCounts) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.failed += other.failed;
    }
}

/// Per-chunk percentiles of a latency-like quantity, reported as their median
/// over chunks.
#[derive(Debug, Default)]
pub struct Chunked {
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    pub samples: usize,
}

impl Chunked {
    pub fn push(&mut self, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        self.p50.push(stats::percentile(values, 50.0));
        self.p99.push(stats::percentile(values, 99.0));
        self.samples += values.len();
    }

    pub fn p50(&self) -> f64 {
        stats::median(&self.p50)
    }

    pub fn p99(&self) -> f64 {
        stats::median(&self.p99)
    }
}

#[derive(Debug, Default)]
pub struct OpenLoop {
    pub latency_counts: PhaseCounts,
    pub backlog_counts: PhaseCounts,
    pub latency_us: Chunked,
    pub lag_us: Chunked,
    /// Requests completed per wall second, one value per backlog round.
    pub round_qps: Vec<f64>,
    pub served: Vec<Served>,
}

impl OpenLoop {
    pub fn throughput_qps(&self) -> f64 {
        stats::median(&self.round_qps)
    }
}

/// What a request was, indexed by `raw id - first id of its segment`.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due_us: f64,
    memory: u32,
    query: u32,
}

/// The run's single time base.
struct Clock(Instant);

impl Clock {
    fn now_us(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e6
    }
}

fn request(spec: &Spec, sessions: &[SessionId], sent: Sent) -> Request {
    let memory = &spec.memories[sent.memory as usize];
    let due = sent.due_us as Tick;
    let request = Request::new(
        sessions[sent.memory as usize],
        memory.queries[sent.query as usize].clone(),
        due,
    );
    match spec.deadline_us {
        Some(d) => request.with_deadline(due + d),
        None => request,
    }
}

fn pick(spec: &Spec, rng: &mut Rng, due_us: f64) -> Sent {
    let memory = rng.below(spec.memories.len());
    let query = rng.below(spec.memories[memory].queries.len());
    Sent {
        due_us,
        memory: memory as u32,
        query: query as u32,
    }
}

/// The requests of one segment: what was sent, and what came back.
struct Segment {
    first_id: u64,
    ledger: Vec<Sent>,
    counts: PhaseCounts,
    latencies: Vec<f64>,
    /// Batch formation is only recorded on the arrival schedule.
    scheduled: bool,
}

impl Segment {
    fn new(server: &AttentionServer, scheduled: bool) -> Self {
        Self {
            first_id: server.stats().submitted,
            ledger: Vec::new(),
            counts: PhaseCounts::default(),
            latencies: Vec::new(),
            scheduled,
        }
    }

    fn send(
        &mut self,
        server: &mut AttentionServer,
        sent: Sent,
        request: Request,
        probe: Option<&mut Probe>,
    ) {
        self.counts.sent += 1;
        match probe::submit(server, request, probe) {
            Ok(_) => self.ledger.push(sent),
            Err(_) => self.counts.failed += 1,
        }
    }

    /// Books the responses of one poll, keeping a sample for the output check.
    fn book(&mut self, batches: Vec<CompletedBatch>, done_us: f64, served: &mut Vec<Served>) {
        for response in batches.into_iter().flat_map(|b| b.responses) {
            let raw = response.request.raw();
            let Some(sent) = self.ledger.get((raw - self.first_id) as usize) else {
                continue;
            };
            self.counts.completed += 1;
            self.latencies.push(done_us - sent.due_us);
            if raw % CHECK_EVERY == 0 && served.len() < MAX_CHECKED {
                served.push(Served {
                    memory: sent.memory as usize,
                    query: sent.query as usize,
                    result: response.result,
                });
            }
        }
    }

    /// Polls whenever a batch is due, until `until` returns true.
    fn poll_until(
        &mut self,
        server: &mut AttentionServer,
        clock: &Clock,
        served: &mut Vec<Served>,
        mut probe: Option<&mut Probe>,
        mut until: impl FnMut(&mut Self, &mut AttentionServer, f64, Option<&mut Probe>) -> bool,
    ) {
        loop {
            let now = clock.now_us();
            if until(self, server, now, probe.as_deref_mut()) {
                return;
            }
            let tick = now as Tick;
            if server.next_due().is_some_and(|due| due <= tick) {
                match probe::poll(server, tick, probe.as_deref_mut()) {
                    Ok(batches) => {
                        if let (true, Some(p)) = (self.scheduled, probe.as_deref_mut()) {
                            p.record_formation(&batches);
                        }
                        self.book(batches, clock.now_us(), served);
                    }
                    Err(_) => return,
                }
            }
        }
    }

    /// Counts requests accepted but never answered as failed.
    fn finish(mut self) -> (PhaseCounts, Vec<f64>) {
        self.counts.failed += self.ledger.len() as u64 - self.counts.completed;
        (self.counts, self.latencies)
    }
}

/// Serves `spec` open-loop for `seconds`, alternating latency chunks and
/// backlog rounds. `between` runs after each backlog phase, when the server
/// is empty.
pub fn serve(
    server: &mut AttentionServer,
    sessions: &[SessionId],
    spec: &Spec,
    seed: u64,
    seconds: f64,
    mut probe: Option<&mut Probe>,
    between: &mut dyn FnMut(),
) -> OpenLoop {
    let mut arrivals = Rng::new(seed ^ 0x0A11_0CA7);
    let mut backlog_rng = Rng::new(seed ^ 0xBAC4_1060);
    let mean_gap_us = 1e6 / spec.rate_per_s;
    let mut out = OpenLoop::default();
    let clock = Clock(Instant::now());
    let mut chunk = 0;
    while clock.now_us() < seconds * 1e6 {
        // Latency chunk: send on the Poisson schedule, then stop sending and
        // let the server answer what is still queued.
        let start_us = clock.now_us();
        let end_us = start_us + CHUNK_REQUESTS * mean_gap_us;
        let gap = arrivals.exp(mean_gap_us);
        let mut next = pick(spec, &mut arrivals, start_us + gap);
        let mut lags = Vec::new();
        let mut segment = Segment::new(server, true);
        segment.poll_until(
            server,
            &clock,
            &mut out.served,
            probe.as_deref_mut(),
            |seg, server, now, mut probe| {
                while next.due_us <= now && now < end_us {
                    seg.send(
                        server,
                        next,
                        request(spec, sessions, next),
                        probe.as_deref_mut(),
                    );
                    lags.push(now - next.due_us);
                    let due = next.due_us + arrivals.exp(mean_gap_us);
                    next = pick(spec, &mut arrivals, due);
                }
                now >= end_us && server.pending() == 0
            },
        );
        let (counts, latencies) = segment.finish();
        out.latency_counts.add(&counts);
        // The first chunk warms queues and caches; it is not reported.
        if chunk > 0 {
            out.latency_us.push(&latencies);
            out.lag_us.push(&lags);
        }
        chunk += 1;

        let backlog_end = clock.now_us() + BACKLOG_S * 1e6;
        while clock.now_us() < backlog_end {
            // Requests are built before the round is timed.
            let round: Vec<(Sent, Request)> = (0..spec.backlog)
                .map(|_| {
                    let sent = pick(spec, &mut backlog_rng, 0.0);
                    (sent, request(spec, sessions, sent))
                })
                .collect();
            let mut segment = Segment::new(server, false);
            segment.ledger.reserve(round.len());
            let start = Instant::now();
            for (sent, request) in round {
                segment.send(server, sent, request, probe.as_deref_mut());
            }
            segment.poll_until(
                server,
                &clock,
                &mut out.served,
                probe.as_deref_mut(),
                |_, server, _, _| server.pending() == 0,
            );
            let (counts, _) = segment.finish();
            out.round_qps
                .push(counts.completed as f64 / start.elapsed().as_secs_f64());
            out.backlog_counts.add(&counts);
        }
        between();
    }
    out
}
