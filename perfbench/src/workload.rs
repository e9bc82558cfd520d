//! The three workloads: their seeded inputs, backend, batch policy and traffic
//! shape. The server only ever sees what is generated here.

use a3_core::backend::{ApproximateBackend, ComputeBackend, QuantizedBackend, SimdBackend};
use a3_core::serve::{
    AttentionServer, BatchPolicy, MemoryConfig, Priority, SessionId, TenantConfig, TenantId,
};
use a3_core::{Matrix, ServeError};
use a3_workloads::babi::BabiGenerator;
use a3_workloads::bert::BertLite;
use a3_workloads::memn2n::MemN2N;
use a3_workloads::squad::SquadGenerator;

use crate::stats::Rng;

/// Large enough that no workload ever evicts a live entry, so cache counters
/// only move on the events the workload is built to cause.
const CACHE_CAPACITY: usize = 256;

/// Noisy variants of each bAbI question kept per story.
const BABI_QUERY_VARIANTS: usize = 8;
/// Amplitude of the seeded noise added to a bAbI question embedding.
const BABI_QUERY_NOISE: f32 = 0.05;

/// Decode sequences: 512 tokens each, sessions start at half of that.
pub const DECODE_ROWS: usize = 512;
pub const DECODE_START_ROWS: usize = 256;
/// Distinct decode sequences generated per run: 8 to open the sessions on,
/// the rest for replacements.
pub const DECODE_POOL: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BabiSmall,
    SquadApprox,
    DecodeStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::BabiSmall, Kind::SquadApprox, Kind::DecodeStream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BabiSmall => "babi_small",
            Kind::SquadApprox => "squad_approx",
            Kind::DecodeStream => "decode_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A fresh instance of the workload's datapath. Every call builds an
    /// identical backend, so a second instance is a valid reference for
    /// checking the server's outputs.
    pub fn backend(self) -> Box<dyn ComputeBackend> {
        match self {
            Kind::BabiSmall => Box::new(SimdBackend::new()),
            Kind::SquadApprox => Box::new(ApproximateBackend::conservative()),
            Kind::DecodeStream => Box::new(QuantizedBackend::paper()),
        }
    }

    pub fn is_approximate(self) -> bool {
        self == Kind::SquadApprox
    }
}

/// One registration: the memory, who owns it, how it is split, and the
/// queries clients send against it.
#[derive(Debug, Clone)]
pub struct Memory {
    pub keys: Matrix,
    pub values: Matrix,
    pub tenant: TenantId,
    pub shards: usize,
    pub queries: Vec<Vec<f32>>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub policy: BatchPolicy,
    pub deadline_us: Option<u64>,
    pub tenants: Vec<(TenantId, TenantConfig)>,
    /// Registered at set-up, in order; session `i` serves `memories[i]`.
    pub memories: Vec<Memory>,
    /// Open loop: mean Poisson arrival rate.
    pub rate_per_s: f64,
    /// Open loop: requests in one backlog round of the throughput phase.
    pub backlog: usize,
    /// Closed loop: full decode sequences (`DECODE_ROWS` x d).
    pub sequences: Vec<Matrix>,
}

impl Spec {
    pub fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::BabiSmall => babi_small(seed),
            Kind::SquadApprox => squad_approx(seed),
            Kind::DecodeStream => decode_stream(seed),
        }
    }

    /// Builds the server and registers every memory: the set-up phase.
    pub fn set_up(
        &self,
        backend: Box<dyn ComputeBackend>,
    ) -> Result<(AttentionServer, Vec<SessionId>), ServeError> {
        let mut builder = AttentionServer::builder(backend)
            .batch_policy(self.policy)
            .cache_capacity(CACHE_CAPACITY);
        for &(id, config) in &self.tenants {
            builder = builder.tenant(id, config);
        }
        let mut server = builder.build();
        let sessions = self
            .memories
            .iter()
            .map(|m| {
                server.register(
                    MemoryConfig::new(&m.keys, &m.values)
                        .tenant(m.tenant)
                        .sharded(m.shards),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((server, sessions))
    }
}

/// 32 bAbI stories (n = 5..50, d = 64), each registered by a high-priority and
/// a normal tenant, so half of the registrations hit the cache.
fn babi_small(seed: u64) -> Spec {
    let generator = BabiGenerator::with_story_length(seed, 5, 50);
    let model = MemN2N::with_config(a3_core::PAPER_D, 3, generator.clone(), seed);
    let (high, normal) = (TenantId::from_raw(1), TenantId::from_raw(2));
    let mut rng = Rng::new(seed);
    let mut memories = Vec::new();
    for story in generator.generate_many(32) {
        let case = model.attention_case(&story);
        let queries: Vec<Vec<f32>> = (0..BABI_QUERY_VARIANTS)
            .map(|_| {
                model
                    .embedding()
                    .perturb(&case.query, BABI_QUERY_NOISE, rng.next_u64())
            })
            .collect();
        for tenant in [high, normal] {
            memories.push(Memory {
                keys: case.keys.clone(),
                values: case.values.clone(),
                tenant,
                shards: 1,
                queries: queries.clone(),
            });
        }
    }
    Spec {
        kind: Kind::BabiSmall,
        policy: BatchPolicy::new(16, 200).expect("non-zero batch"),
        deadline_us: None,
        tenants: vec![
            (high, TenantConfig::new(Priority::High)),
            (normal, TenantConfig::new(Priority::Normal)),
        ],
        memories,
        rate_per_s: 5_000.0,
        backlog: 4096,
        sequences: Vec::new(),
    }
}

/// 8 BERT/SQuAD sequences (n = 320, d = 64); each query is one of the
/// session's own token rows, as self-attention issues them.
fn squad_approx(seed: u64) -> Spec {
    let model = BertLite::new(seed);
    let generator = SquadGenerator::new(seed);
    let memories = generator
        .generate_many(8)
        .iter()
        .map(|example| {
            let case = model.attention_case(example);
            Memory {
                queries: case.keys.iter_rows().map(<[f32]>::to_vec).collect(),
                keys: case.keys,
                values: case.values,
                tenant: TenantId::DEFAULT,
                shards: 1,
            }
        })
        .collect();
    Spec {
        kind: Kind::SquadApprox,
        policy: BatchPolicy::new(16, 500).expect("non-zero batch"),
        deadline_us: Some(2_000),
        tenants: Vec::new(),
        memories,
        rate_per_s: 2_000.0,
        backlog: 1024,
        sequences: Vec::new(),
    }
}

/// 8 decode clients over 512-token sequences; clients 4..8 are sharded 4 ways.
fn decode_stream(seed: u64) -> Spec {
    let tokens = DECODE_ROWS - 8;
    let model = BertLite::with_config(
        a3_core::PAPER_D,
        1,
        SquadGenerator::with_lengths(seed, tokens, 8),
        seed,
    );
    let generator = SquadGenerator::with_lengths(seed, tokens, 8);
    let sequences: Vec<Matrix> = generator
        .generate_many(DECODE_POOL)
        .iter()
        .map(|example| model.embedding().embed_sequence(&model.tokens(example)))
        .collect();
    let memories = (0..8)
        .map(|client| decode_memory(&sequences[client], decode_shards(client)))
        .collect();
    Spec {
        kind: Kind::DecodeStream,
        policy: BatchPolicy::per_request(),
        deadline_us: None,
        tenants: Vec::new(),
        memories,
        rate_per_s: 0.0,
        backlog: 0,
        sequences,
    }
}

/// Decode clients 0..4 serve whole sessions, 4..8 sharded ones.
pub fn decode_shards(client: usize) -> usize {
    if client < 4 {
        1
    } else {
        4
    }
}

/// The first `DECODE_START_ROWS` rows of a decode sequence.
pub fn decode_memory(sequence: &Matrix, shards: usize) -> Memory {
    let d = sequence.dim();
    let prefix = Matrix::from_flat(
        sequence.as_slice()[..DECODE_START_ROWS * d].to_vec(),
        DECODE_START_ROWS,
        d,
    )
    .expect("sequence holds at least the start rows");
    Memory {
        keys: prefix.clone(),
        values: prefix,
        tenant: TenantId::DEFAULT,
        shards,
        queries: Vec::new(),
    }
}
