//! Closed-loop `decode_stream`: 8 clients, each step appends the next token
//! row to the client's session and then queries with that row. A client's
//! next step is ready when its previous response returns.
//!
//! The loop runs in epochs. Each epoch builds a fresh server (timed as a
//! set-up, outside any step) and every client decodes `GENERATIONS`
//! sequences, so one replacement per client happens inside every epoch. The
//! server has no way to close a session, so a single long-lived server would
//! grow by one memory per replacement and make memory and run time depend on
//! throughput; a fresh server per epoch keeps both bounded.

use std::time::Instant;

use a3_core::backend::ComputeBackend;
use a3_core::serve::{AttentionServer, MemoryConfig, Request, SessionId, Tick};
use a3_core::{Matrix, ServeError};

use crate::check::CheckTally;
use crate::openloop::{Chunked, PhaseCounts};
use crate::probe::{self, Probe};
use crate::workload::{
    decode_memory, decode_shards, Spec, DECODE_POOL, DECODE_ROWS, DECODE_START_ROWS,
};

const CLIENTS: usize = 8;
/// Sequences each client decodes per epoch.
const GENERATIONS: usize = 2;
/// Every `CHECK_EVERY`-th step is checked against a direct call.
const CHECK_EVERY: u64 = 16;

/// Wall clock that excludes paused intervals (epoch set-up and output checks),
/// so neither shows up in step latency or throughput.
struct Clock {
    origin: Instant,
    paused_ns: f64,
}

impl Clock {
    fn now_us(&self) -> f64 {
        (self.origin.elapsed().as_nanos() as f64 - self.paused_ns) / 1e3
    }

    fn paused<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.paused_ns += start.elapsed().as_nanos() as f64;
        out
    }
}

#[derive(Debug, Default)]
pub struct DecodePhase {
    pub counts: PhaseCounts,
    /// Step latency, percentiles per epoch.
    pub latency_us: Chunked,
    /// How long after its step became ready each request was submitted.
    pub lag_us: Chunked,
    /// Steps per active second, one value per epoch.
    pub epoch_qps: Vec<f64>,
    /// Wall seconds of each epoch's set-up.
    pub setup_s: Vec<f64>,
    pub checks: CheckTally,
    pub appends: u64,
    pub full_reprepares: u64,
    pub rebalances: u64,
    pub cache_updates: u64,
    /// Appends that were not exactly one cache update, or that missed the
    /// cache without a rebalance.
    pub cache_violations: u64,
}

struct Client {
    session: SessionId,
    shards: usize,
    sequence: usize,
    rows: usize,
    generation: usize,
    ready_us: f64,
}

/// Registers the first `DECODE_START_ROWS` rows of `sequence` as a session.
fn open(
    server: &mut AttentionServer,
    spec: &Spec,
    sequence: usize,
    shards: usize,
) -> Result<SessionId, ServeError> {
    let memory = decode_memory(&spec.sequences[sequence], shards);
    server.register(MemoryConfig::new(&memory.keys, &memory.values).sharded(shards))
}

/// Runs epochs until `seconds` of active time have passed. Returns the phase
/// and the last epoch's server with its live sessions.
pub fn closed_loop(
    spec: &Spec,
    seconds: f64,
    backend: &dyn Fn() -> Box<dyn ComputeBackend>,
    reference: &dyn ComputeBackend,
    mut probe: Option<&mut Probe>,
) -> Result<(DecodePhase, AttentionServer, Vec<SessionId>), ServeError> {
    let mut phase = DecodePhase::default();
    let mut clock = Clock {
        origin: Instant::now(),
        paused_ns: 0.0,
    };
    let mut epoch = 0;
    loop {
        // Set-up of the epoch's server is not part of any step.
        let (mut server, sessions) = clock.paused(|| {
            let start = Instant::now();
            let built = spec.set_up(backend());
            phase.setup_s.push(start.elapsed().as_secs_f64());
            built
        })?;
        let start_us = clock.now_us();
        let mut clients: Vec<Client> = sessions
            .iter()
            .enumerate()
            .map(|(c, &session)| Client {
                session,
                shards: decode_shards(c),
                sequence: c,
                rows: DECODE_START_ROWS,
                generation: 0,
                ready_us: start_us,
            })
            .collect();
        // Sessions open on sequences 0..CLIENTS; replacements cycle through
        // the rest of the pool, shifting by epoch.
        let mut next_sequence = epoch * CLIENTS;
        let mut steps = 0u64;
        let mut live = CLIENTS;
        let (mut latencies, mut lags) = (Vec::new(), Vec::new());
        while live > 0 {
            for client in clients.iter_mut().filter(|c| c.generation < GENERATIONS) {
                if client.rows == DECODE_ROWS {
                    client.generation += 1;
                    if client.generation == GENERATIONS {
                        live -= 1;
                        continue;
                    }
                    client.sequence = CLIENTS + next_sequence % (DECODE_POOL - CLIENTS);
                    next_sequence += 1;
                    client.session = open(&mut server, spec, client.sequence, client.shards)?;
                    client.rows = DECODE_START_ROWS;
                }
                let token = spec.sequences[client.sequence].row(client.rows).to_vec();
                let row = Matrix::from_flat(token.clone(), 1, token.len())
                    .map_err(ServeError::Attention)?;
                phase.counts.sent += 1;
                steps += 1;
                let (updates, misses) = (server.cache().updates(), server.cache().misses());
                let mutation = match server.append_to_session(client.session, &row, &row) {
                    Ok(m) => m,
                    Err(_) => {
                        phase.counts.failed += 1;
                        client.ready_us = clock.now_us();
                        continue;
                    }
                };
                client.rows += 1;
                phase.appends += 1;
                phase.full_reprepares += mutation.full_reprepares;
                phase.rebalances += u64::from(mutation.rebalanced);
                let cache = server.cache();
                if cache.updates() != updates + 1
                    || (!mutation.rebalanced && cache.misses() != misses)
                {
                    phase.cache_violations += 1;
                }
                let submit_us = clock.now_us();
                lags.push(submit_us - client.ready_us);
                let tick = submit_us as Tick;
                let request = Request::new(client.session, token.clone(), tick);
                let served = probe::submit(&mut server, request, probe.as_deref_mut())
                    .and_then(|_| probe::poll(&mut server, tick, probe.as_deref_mut()));
                if let (Ok(batches), Some(p)) = (&served, probe.as_deref_mut()) {
                    p.record_formation(batches);
                }
                let Some(result) = served
                    .ok()
                    .and_then(|batches| batches.into_iter().flat_map(|b| b.responses).next())
                else {
                    phase.counts.failed += 1;
                    client.ready_us = clock.now_us();
                    continue;
                };
                let done = clock.now_us();
                phase.counts.completed += 1;
                latencies.push(done - client.ready_us);
                client.ready_us = done;
                if phase.counts.sent % CHECK_EVERY == 0 {
                    let checks = &mut phase.checks;
                    clock.paused(|| match server.session(client.session) {
                        Some(s) => checks.check(reference, s.memory(), &token, &result.result),
                        None => checks.mismatches += 1,
                    });
                }
            }
        }
        let active_s = (clock.now_us() - start_us) / 1e6;
        phase.cache_updates += server.cache().updates();
        // The first epoch warms caches; it is not reported.
        if epoch > 0 {
            phase.epoch_qps.push(steps as f64 / active_s);
            phase.latency_us.push(&latencies);
            phase.lag_us.push(&lags);
        }
        epoch += 1;
        if clock.now_us() >= seconds * 1e6 {
            let live_sessions = clients.iter().map(|c| c.session).collect();
            return Ok((phase, server, live_sessions));
        }
    }
}
