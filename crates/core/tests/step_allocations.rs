//! Heap allocations of the two serving loops the benchmark drives. One warm
//! decode step, the loop of `decode_stream`: append the next token row to a
//! live quantized session, then submit it as a query and poll its response.
//! One batched poll, the loop of `babi_small`: 16 requests queued on a whole
//! `SimdBackend` session, served by one poll. A counting global allocator
//! counts per thread, so tests running in parallel do not mix their counts.
//!
//! The sessions are warm and every measured step stays inside the capacity
//! of every buffer it grows: the first warm-up append moves each buffer past
//! its first capacity boundary, and the measured appends stay far below the
//! next one. Any allocation counted here is therefore per-step bookkeeping.

use a3_core::backend::{QuantizedBackend, SimdBackend};
use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request, SessionId, Tick};
use a3_core::Matrix;

mod common;
use common::seeded_rows;

// Test-only code: the `cfg(test)` item is what marks it as test code for the
// workspace's unsafe-code rules, which exempt test items.
#[cfg(test)]
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting every allocation and reallocation on
    /// the calling thread.
    struct Counting;

    fn count() {
        // A const-initialised `Cell` without a destructor never allocates and
        // stays accessible while the thread exits.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards to `System` with the caller's arguments,
    // so `System`'s guarantees carry over; counting touches only a
    // thread-local integer.
    unsafe impl GlobalAlloc for Counting {
        // SAFETY: forwarded to `System` under the caller's contract.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: forwarded to `System` under the caller's contract.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
            unsafe { System.alloc_zeroed(layout) }
        }

        // SAFETY: forwarded to `System` under the caller's contract.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: `ptr` came from this allocator, which is `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        // SAFETY: forwarded to `System` under the caller's contract.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, which is `System`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Runs `f` and returns its output with the number of allocations and
    /// reallocations it made on this thread.
    pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ALLOCATIONS.with(Cell::get);
        let out = f();
        (out, ALLOCATIONS.with(Cell::get) - before)
    }
}

use counting::allocations;

const D: usize = 64;
/// Rows a session registers with: `decode_stream`'s starting length.
const ROWS: usize = 256;
/// Decode steps before the measured ones.
const WARM_STEPS: usize = 2;
/// Measured decode steps.
const STEPS: usize = 4;

/// Allocations of one decode step's two halves.
struct StepAllocations {
    append: u64,
    serve: u64,
}

/// Appends `token` to `session` and serves it as a query at `tick`,
/// counting each half's allocations. The row matrix and the query vector
/// are built before counting starts: they are the caller's.
fn decode_step(
    server: &mut AttentionServer,
    session: SessionId,
    token: &[f32],
    tick: Tick,
) -> StepAllocations {
    let row = Matrix::from_flat(token.to_vec(), 1, token.len()).unwrap();
    let request = Request::new(session, token.to_vec(), tick);
    let (mutation, append) = allocations(|| server.append_to_session(session, &row, &row).unwrap());
    assert!(!mutation.rebalanced, "a measured step must not rebalance");
    let (batches, serve) = allocations(|| {
        server.submit(request).unwrap();
        server.poll(tick).unwrap()
    });
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].responses.len(), 1);
    StepAllocations { append, serve }
}

/// A `shards`-shard session of `ROWS` rows on a per-request server, warmed by
/// `WARM_STEPS` decode steps, and the tokens of its measured steps.
fn warm_session(shards: usize) -> (AttentionServer, SessionId, Matrix, bool) {
    let tokens = seeded_rows(ROWS + WARM_STEPS + STEPS, D, 7);
    let prefix = Matrix::from_flat(tokens.as_slice()[..ROWS * D].to_vec(), ROWS, D).unwrap();
    let mut server = AttentionServer::builder(Box::new(QuantizedBackend::paper()))
        .batch_policy(BatchPolicy::per_request())
        .build();
    let session = server
        .register(MemoryConfig::new(&prefix, &prefix).sharded(shards))
        .unwrap();
    for step in 0..WARM_STEPS {
        decode_step(&mut server, session, tokens.row(ROWS + step), step as Tick);
    }
    let memory = server.session(session).unwrap().memory();
    let vectorized = match (memory.whole(), memory.sharded()) {
        (Some(whole), _) => whole.quantized().unwrap().is_vectorized(),
        (None, Some(sharded)) => sharded
            .shards()
            .iter()
            .all(|shard| shard.memory().quantized().unwrap().is_vectorized()),
        (None, None) => unreachable!("a session is whole or sharded"),
    };
    (server, session, tokens, vectorized)
}

/// A warm append allocates nothing: it moves the session's cache entry
/// under a backend name the server formatted once, and every buffer it grows
/// has room. Serving the step allocates the poll's batch list, the batch's
/// response list and the attend's results, but no request or batch
/// bookkeeping: the session's queue keeps its buffer and the server reuses
/// its scratch lists. A whole session's output takes over the query's
/// buffer; a sharded one still borrows its queries.
///
/// On the AVX2 datapath a whole-memory step serves in 5 allocations (the
/// scores, the weights and the work buffer) and a 4-shard step, which runs
/// the fused sharded query, in 11 (its 7, the borrowed query list and the
/// batch call's result list). Under `A3_FORCE_SCALAR=1` the scalar pipeline
/// and the per-shard merge allocate more per query: 9 and 42, the merge
/// reading no environment variable.
#[test]
fn a_warm_decode_step_allocates_only_its_results() {
    for (shards, vector_budget, scalar_budget) in [(1, 5, 9), (4, 11, 42)] {
        let (mut server, session, tokens, vectorized) = warm_session(shards);
        let budget = if vectorized {
            vector_budget
        } else {
            scalar_budget
        };
        for step in WARM_STEPS..WARM_STEPS + STEPS {
            let counted = decode_step(&mut server, session, tokens.row(ROWS + step), step as Tick);
            assert_eq!(
                counted.append, 0,
                "{shards} shard(s), step {step}: append_to_session allocated"
            );
            assert!(
                counted.serve <= budget,
                "{shards} shard(s), step {step}: submit + poll allocated {} times, \
                 budget {budget}",
                counted.serve
            );
        }
        assert_eq!(
            server.session(session).unwrap().memory().n(),
            ROWS + WARM_STEPS + STEPS
        );
        assert_eq!(server.cache().len(), shards, "one entry per shard");
    }
}

/// Requests a batched poll serves: one full `babi_small` batch.
const BATCH: usize = 16;

/// A warm poll of `BATCH` requests queued on one whole `SimdBackend` session
/// allocates, per request, only the scores and weights of its result. Each
/// output takes over its query's buffer, and the poll adds its batch list and
/// the batch's response list: `2 * BATCH + 2` allocations at both dispatch
/// levels.
#[test]
fn a_warm_batched_poll_allocates_only_scores_and_weights_per_request() {
    let memory = seeded_rows(48, D, 11);
    let queries = seeded_rows(2 * BATCH, D, 13);
    for backend in [SimdBackend::new(), SimdBackend::scalar()] {
        let level = backend.level();
        let mut server = AttentionServer::builder(Box::new(backend))
            .batch_policy(BatchPolicy::new(BATCH, 200).unwrap())
            .build();
        let session = server
            .register(MemoryConfig::new(&memory, &memory))
            .unwrap();
        for round in 0..3 {
            let requests: Vec<Request> = queries
                .iter_rows()
                .skip(round % 2 * BATCH)
                .take(BATCH)
                .map(|q| Request::new(session, q.to_vec(), round as Tick))
                .collect();
            let (batches, counted) = allocations(|| {
                for request in requests {
                    server.submit(request).unwrap();
                }
                server.poll(round as Tick).unwrap()
            });
            assert_eq!(batches.len(), 1);
            assert_eq!(batches[0].responses.len(), BATCH);
            // The first round grows the queue and the server's scratch lists.
            if round > 0 {
                assert_eq!(
                    counted,
                    2 * BATCH as u64 + 2,
                    "{level}, round {round}: submit + poll allocated {counted} times"
                );
            }
        }
    }
}
