//! `TracedBackend`: a `ComputeBackend` that delegates every call to the
//! workload's own backend and records a span around it. The server is built
//! around the wrapper in the traced run only; end-to-end metrics never see it.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use a3_core::attention::AttentionResult;
use a3_core::backend::{
    ComputeBackend, IncrementalPrepareStats, PreparedMemory, ShardedMemory, WorkProfile,
};
use a3_core::serve::CompletedBatch;
use a3_core::{AttentionError, Matrix};

/// The backend entry point a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Prepare,
    AppendRows,
    UpdateRow,
    AttendPrepared,
    AttendBatchPrepared,
    AttendSharded,
    AttendBatchSharded,
    Profile,
    Attend,
    AttendBatch,
}

impl Call {
    pub fn is_batch(self) -> bool {
        matches!(self, Call::AttendBatchPrepared | Call::AttendBatchSharded)
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub call: Call,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Queries the call served (0 for memory maintenance).
    pub queries: usize,
    /// Ids of the requests the call served, filled in by [`SpanLog::tag`].
    pub requests: Vec<u64>,
}

/// In-memory span store shared between the wrapper (inside the server) and
/// the driver; written out once, at the end of the run.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned: a backend call panicked")
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Tags the batch spans recorded since `from` with the request ids of the
    /// batches a poll returned. The server executes batches in the order it
    /// returns them, one backend batch call each. Returns the summed duration
    /// of those spans.
    pub fn tag(&self, from: usize, batches: &[CompletedBatch]) -> u64 {
        let mut spans = self.lock();
        let mut batch_spans = spans[from..].iter_mut().filter(|s| s.call.is_batch());
        let mut total = 0;
        for batch in batches {
            if let Some(span) = batch_spans.next() {
                span.requests = batch.responses.iter().map(|r| r.request.raw()).collect();
                total += span.dur_ns;
            }
        }
        total
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.lock().iter() {
            let ids: Vec<String> = s.requests.iter().map(u64::to_string).collect();
            writeln!(
                out,
                "{{\"call\":\"{:?}\",\"start_ns\":{},\"dur_ns\":{},\"queries\":{},\"requests\":[{}]}}",
                s.call,
                s.start_ns,
                s.dur_ns,
                s.queries,
                ids.join(",")
            )?;
        }
        out.flush()
    }

    fn record<T>(&self, call: Call, queries: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            call,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            queries,
            requests: Vec::new(),
        };
        self.lock().push(span);
        out
    }
}

pub struct TracedBackend {
    inner: Box<dyn ComputeBackend>,
    log: SpanLog,
}

impl TracedBackend {
    pub fn new(inner: Box<dyn ComputeBackend>, log: SpanLog) -> Self {
        Self { inner, log }
    }
}

impl ComputeBackend for TracedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        self.log
            .record(Call::Prepare, 0, || self.inner.prepare(keys, values))
    }

    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        self.log.record(Call::AppendRows, 0, || {
            self.inner.append_rows(memory, new_keys, new_values)
        })
    }

    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        self.log.record(Call::UpdateRow, 0, || {
            self.inner.update_row(memory, row, key, value)
        })
    }

    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        self.log.record(Call::AttendPrepared, 1, || {
            self.inner.attend_prepared(memory, query)
        })
    }

    fn attend_batch_prepared(
        &self,
        memory: &PreparedMemory,
        queries: &[&[f32]],
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        self.log
            .record(Call::AttendBatchPrepared, queries.len(), || {
                self.inner.attend_batch_prepared(memory, queries)
            })
    }

    fn attend_sharded(
        &self,
        memory: &ShardedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        self.log.record(Call::AttendSharded, 1, || {
            self.inner.attend_sharded(memory, query)
        })
    }

    fn attend_batch_sharded(
        &self,
        memory: &ShardedMemory,
        queries: &[&[f32]],
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        self.log
            .record(Call::AttendBatchSharded, queries.len(), || {
                self.inner.attend_batch_sharded(memory, queries)
            })
    }

    fn profile(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<Option<WorkProfile>, AttentionError> {
        self.log
            .record(Call::Profile, 1, || self.inner.profile(memory, query))
    }

    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        self.log
            .record(Call::Attend, 1, || self.inner.attend(keys, values, query))
    }

    fn attend_batch(
        &self,
        keys: &Matrix,
        values: &Matrix,
        queries: &Matrix,
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        self.log.record(Call::AttendBatch, queries.rows(), || {
            self.inner.attend_batch(keys, values, queries)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;
    use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request};

    fn rows(n: usize, d: usize, salt: u64) -> Matrix {
        let mut rng = crate::stats::Rng::new(salt);
        let flat = (0..n * d).map(|_| rng.unit() as f32 - 0.5).collect();
        Matrix::from_flat(flat, n, d).unwrap()
    }

    /// Registers, mutates and queries whole and sharded sessions; returns every
    /// completed batch plus the cache's (hits, misses, updates).
    fn serve_short_trace(backend: Box<dyn ComputeBackend>) -> (Vec<CompletedBatch>, [u64; 3]) {
        let mut server = AttentionServer::builder(backend)
            .batch_policy(BatchPolicy::new(4, 50).unwrap())
            .build();
        let (keys, other) = (rows(40, 16, 1), rows(24, 16, 2));
        let whole = server.register(MemoryConfig::new(&keys, &keys)).unwrap();
        let again = server.register(MemoryConfig::new(&keys, &keys)).unwrap();
        let sharded = server
            .register(MemoryConfig::new(&other, &other).sharded(4))
            .unwrap();
        let extra = rows(3, 16, 3);
        server.append_to_session(whole, &extra, &extra).unwrap();
        server.append_to_session(sharded, &extra, &extra).unwrap();
        server
            .update_session_row(sharded, 5, extra.row(0), extra.row(1))
            .unwrap();
        let queries = rows(12, 16, 4);
        let mut batches = Vec::new();
        for (i, q) in queries.iter_rows().enumerate() {
            let session = [whole, again, sharded][i % 3];
            server
                .submit(Request::new(session, q.to_vec(), i as u64 * 10))
                .unwrap();
            batches.extend(server.poll(i as u64 * 10).unwrap());
        }
        batches.extend(server.flush_all(1_000).unwrap());
        let cache = server.cache();
        (batches, [cache.hits(), cache.misses(), cache.updates()])
    }

    #[test]
    fn traced_backend_changes_nothing() {
        for kind in Kind::ALL {
            let log = SpanLog::new();
            let wrapper = TracedBackend::new(kind.backend(), log.clone());
            assert_eq!(
                wrapper.name(),
                kind.backend().name(),
                "cache keys must match"
            );
            let traced = serve_short_trace(Box::new(wrapper));
            let bare = serve_short_trace(kind.backend());
            assert_eq!(traced.0, bare.0, "{}: responses differ", kind.name());
            assert_eq!(traced.1, bare.1, "{}: cache counters differ", kind.name());
            assert!(traced.0.len() >= 3, "{}: trace must batch", kind.name());
            let spans = log.spans();
            assert!(spans.iter().any(|s| s.call == Call::Prepare));
            assert!(spans.iter().any(|s| s.call == Call::AppendRows));
            assert!(spans.iter().any(|s| s.call == Call::UpdateRow));
            assert!(spans.iter().any(|s| s.call == Call::AttendBatchSharded));
        }
    }

    #[test]
    fn tag_attaches_request_ids_in_execution_order() {
        let log = SpanLog::new();
        let backend = TracedBackend::new(Kind::BabiSmall.backend(), log.clone());
        let mut server = AttentionServer::builder(Box::new(backend))
            .batch_policy(BatchPolicy::new(2, 100).unwrap())
            .build();
        let (a, b) = (rows(8, 4, 5), rows(8, 4, 6));
        let sa = server.register(MemoryConfig::new(&a, &a)).unwrap();
        let sb = server.register(MemoryConfig::new(&b, &b)).unwrap();
        for (i, s) in [sa, sb, sa, sb].into_iter().enumerate() {
            server
                .submit(Request::new(s, vec![0.1; 4], i as u64))
                .unwrap();
        }
        let from = log.len();
        let batches = server.poll(10).unwrap();
        assert_eq!(batches.len(), 2);
        let total = log.tag(from, &batches);
        let spans = log.spans();
        let tagged: Vec<&Span> = spans[from..].iter().filter(|s| s.call.is_batch()).collect();
        assert_eq!(tagged.len(), 2);
        for (span, batch) in tagged.iter().zip(&batches) {
            let ids: Vec<u64> = batch.responses.iter().map(|r| r.request.raw()).collect();
            assert_eq!(span.requests, ids);
        }
        assert_eq!(total, tagged.iter().map(|s| s.dur_ns).sum::<u64>());
    }
}
