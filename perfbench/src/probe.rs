//! Calls into the serving layer, timed from the benchmark's side when a run
//! is traced and passed straight through otherwise.

use std::time::Instant;

use a3_core::serve::{AttentionServer, CompletedBatch, FlushReason, Request, RequestId, Tick};
use a3_core::ServeError;

use crate::traced::SpanLog;

#[derive(Debug)]
pub struct Probe {
    pub log: SpanLog,
    pub submit_ns: Vec<f64>,
    /// Wall time inside `poll`.
    pub poll_ns: f64,
    /// Part of `poll_ns` spent inside backend batch calls.
    pub poll_backend_ns: f64,
    /// Responses returned by the timed polls.
    pub polled: u64,
    /// Batch formation of requests served on an arrival schedule (backlog
    /// rounds, all due at tick 0, are left out): `formed_at - arrival` in
    /// ticks (microseconds), batches, and batches flushed because full.
    pub queue_wait_us: Vec<f64>,
    pub batches: u64,
    pub full_batches: u64,
}

impl Probe {
    pub fn new(log: SpanLog) -> Self {
        Self {
            log,
            submit_ns: Vec::new(),
            poll_ns: 0.0,
            poll_backend_ns: 0.0,
            polled: 0,
            queue_wait_us: Vec::new(),
            batches: 0,
            full_batches: 0,
        }
    }
}

pub fn submit(
    server: &mut AttentionServer,
    request: Request,
    probe: Option<&mut Probe>,
) -> Result<RequestId, ServeError> {
    let Some(probe) = probe else {
        return server.submit(request);
    };
    let start = Instant::now();
    let out = server.submit(request);
    probe.submit_ns.push(start.elapsed().as_nanos() as f64);
    out
}

pub fn poll(
    server: &mut AttentionServer,
    now: Tick,
    probe: Option<&mut Probe>,
) -> Result<Vec<CompletedBatch>, ServeError> {
    let Some(probe) = probe else {
        return server.poll(now);
    };
    let from = probe.log.len();
    let start = Instant::now();
    let out = server.poll(now);
    probe.poll_ns += start.elapsed().as_nanos() as f64;
    if let Ok(batches) = &out {
        probe.poll_backend_ns += probe.log.tag(from, batches) as f64;
        probe.polled += batches
            .iter()
            .map(|b| b.responses.len() as u64)
            .sum::<u64>();
    }
    out
}

impl Probe {
    /// Records how the scheduler formed `batches`.
    pub fn record_formation(&mut self, batches: &[CompletedBatch]) {
        for batch in batches {
            self.batches += 1;
            self.full_batches += u64::from(batch.reason == FlushReason::Full);
            self.queue_wait_us.extend(
                batch
                    .responses
                    .iter()
                    .map(|r| batch.formed_at.saturating_sub(r.arrival) as f64),
            );
        }
    }
}
