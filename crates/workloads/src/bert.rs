//! BERT-style self-attention model over the synthetic SQuAD task.
//!
//! The paper evaluates Google BERT (base) on SQuAD v1.1; each self-attention head
//! performs `n = 320` attention operations (one per token) against an `n x d` key
//! matrix with `d = 64` — the same key matrix for all queries, which is why the
//! key-matrix preprocessing of the approximate scheme is amortized (Section IV-C) and
//! why its cost appears on the critical path for this workload (Section VI-C).
//!
//! [`BertLite`] is a deliberately small stand-in: token + positional embeddings, a
//! stack of single-projection self-attention layers (each head `d = 64` wide, as in
//! BERT-base), a residual connection, and a lexical-overlap span-prediction head. It is
//! not a trained language model, and need not be: A3 approximates only the attention
//! operation, so a model whose attention has BERT's shape and weight concentration
//! exercises it the same way. Its attention operations have the paper's exact shape
//! and its end-task F1 responds to attention approximation the same way: pruning rows
//! that carry real attention weight hurts, pruning near-zero rows does not.

use a3_core::backend::ComputeBackend;
use a3_core::Matrix;

use crate::embedding::EmbeddingSpace;
use crate::metrics::mean_span_f1;
use crate::squad::{SquadExample, SquadGenerator};
use crate::workload::{AttentionCase, Workload, WorkloadKind};

/// A small BERT-style encoder for the synthetic SQuAD task.
#[derive(Debug, Clone, PartialEq)]
pub struct BertLite {
    embedding: EmbeddingSpace,
    num_layers: usize,
    generator: SquadGenerator,
    answer_len: usize,
}

impl BertLite {
    /// Creates the paper-sized configuration: `d = 64`, two self-attention layers,
    /// sequence length 320.
    pub fn new(seed: u64) -> Self {
        Self::with_config(a3_core::PAPER_D, 2, SquadGenerator::new(seed), seed)
    }

    /// Creates a small configuration for fast tests (sequence length 54, `d = 32`, one
    /// layer).
    pub fn small(seed: u64) -> Self {
        Self::with_config(32, 1, SquadGenerator::with_lengths(seed, 48, 6), seed)
    }

    /// Creates a fully custom configuration.
    pub fn with_config(
        d_model: usize,
        num_layers: usize,
        generator: SquadGenerator,
        seed: u64,
    ) -> Self {
        Self {
            embedding: EmbeddingSpace::new(d_model, seed),
            num_layers: num_layers.max(1),
            generator,
            answer_len: 3,
        }
    }

    /// The embedding space used by the model.
    pub fn embedding(&self) -> &EmbeddingSpace {
        &self.embedding
    }

    /// Number of self-attention layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The full token sequence the model reads for an example: passage followed by the
    /// question (the paper's `n = 320` counts both).
    pub fn tokens<'a>(&self, example: &'a SquadExample) -> Vec<&'a str> {
        example
            .passage
            .iter()
            .map(String::as_str)
            .chain(example.question.iter().map(String::as_str))
            .collect()
    }

    /// Encodes an example into final token states using `backend` for every attention
    /// operation; each layer prepares its key matrix once for all `n` queries.
    pub fn encode(&self, backend: &dyn ComputeBackend, example: &SquadExample) -> Matrix {
        let tokens = self.tokens(example);
        let mut states = self.embedding.embed_sequence(&tokens);
        for _ in 0..self.num_layers {
            // Self-attention over the token states (queries = keys = values = states,
            // the paper's n x d self-attention shape), followed by a residual mix.
            let attended = backend
                .attend_batch(&states, &states, &states)
                .expect("workload-generated shapes are consistent");
            let mixed: Vec<Vec<f32>> = states
                .iter_rows()
                .zip(&attended)
                .map(|(s, a)| {
                    s.iter()
                        .zip(&a.output)
                        .map(|(x, y)| 0.5 * x + 0.5 * y)
                        .collect()
                })
                .collect();
            states = Matrix::from_rows(mixed).expect("non-empty sequence");
        }
        states
    }

    /// Predicts an answer span (inclusive token indices into the passage) for one
    /// example.
    ///
    /// The span head scores every candidate start position by how strongly the *five
    /// preceding tokens* match the question representation — in the synthetic task the
    /// answer is always introduced by question words ("the ⟨topic⟩ was established by ␣"),
    /// which mirrors how extractive QA models locate spans by matching question context.
    /// The window must cover the whole introducing phrase: a shorter window lets a
    /// shifted window containing the highly distinctive topic token outscore the true
    /// start, biasing every prediction a couple of tokens early.
    pub fn predict_span(
        &self,
        backend: &dyn ComputeBackend,
        example: &SquadExample,
    ) -> (usize, usize) {
        let states = self.encode(backend, example);
        let plen = example.passage.len();
        let d = states.dim();
        // Question summary vector: mean of the question-token states.
        let mut question_vec = vec![0.0f32; d];
        for i in plen..states.rows() {
            for (q, x) in question_vec.iter_mut().zip(states.row(i)) {
                *q += x;
            }
        }
        let qn = (states.rows() - plen).max(1) as f32;
        for q in &mut question_vec {
            *q /= qn;
        }
        // Per-position match score.
        let scores: Vec<f32> = (0..plen)
            .map(|i| {
                states
                    .row(i)
                    .iter()
                    .zip(&question_vec)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        // Start score: how well the preceding context matches the question.
        let mut best_start = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        let window = 5; // length of the answer-introducing phrase "the ⟨topic⟩ was established by"
        for start in window..plen.saturating_sub(self.answer_len - 1) {
            let context: f32 = scores[start - window..start].iter().sum();
            if context > best_score {
                best_score = context;
                best_start = start;
            }
        }
        (best_start, (best_start + self.answer_len - 1).min(plen - 1))
    }

    /// Builds one representative attention case per example: the key/value memory is
    /// the first layer's key/value projection of the token states and the query is the
    /// projected query of the first answer token (the paper's `n = 320`, `d = 64`
    /// self-attention shape). Ground-truth relevant rows are the answer span and the
    /// topic mention.
    pub fn attention_case(&self, example: &SquadExample) -> AttentionCase {
        let tokens = self.tokens(example);
        let states = self.embedding.embed_sequence(&tokens);
        // Key = value = token state, query = state of the first answer token. This
        // preserves the similarity structure a self-attention query sees (its strongest
        // matches are duplicate tokens and related context) and the paper's n and d.
        let query_row = example.answer_span.0;
        let mut relevant: Vec<usize> = (example.answer_span.0..=example.answer_span.1).collect();
        if let Some(topic_pos) = example.passage.iter().position(|t| *t == example.topic) {
            relevant.push(topic_pos);
        }
        AttentionCase {
            keys: states.clone(),
            values: states.clone(),
            query: states.row(query_row).to_vec(),
            relevant_rows: relevant,
        }
    }
}

impl Workload for BertLite {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Bert
    }

    fn attention_cases(&self, count: usize) -> Vec<AttentionCase> {
        self.generator
            .generate_many(count)
            .iter()
            .map(|ex| self.attention_case(ex))
            .collect()
    }

    fn evaluate(&self, backend: &dyn ComputeBackend, count: usize) -> f64 {
        let examples = self.generator.generate_many(count);
        let pairs: Vec<((usize, usize), (usize, usize))> = examples
            .iter()
            .map(|ex| (self.predict_span(backend, ex), ex.answer_span))
            .collect();
        mean_span_f1(&pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3_core::backend::{ApproximateBackend, ExactBackend};

    #[test]
    fn paper_configuration_shapes() {
        let model = BertLite::new(1);
        assert_eq!(model.num_layers(), 2);
        let case = model.attention_cases(1).remove(0);
        assert_eq!(case.n(), 320);
        assert_eq!(case.d(), 64);
    }

    #[test]
    fn small_model_exact_f1_is_high() {
        let model = BertLite::small(3);
        let f1 = model.evaluate(&ExactBackend, 12);
        assert!(f1 > 0.6, "exact F1 {f1}");
    }

    #[test]
    fn approximation_does_not_collapse_f1() {
        let model = BertLite::small(3);
        let exact = model.evaluate(&ExactBackend, 8);
        let approx = model.evaluate(&ApproximateBackend::conservative(), 8);
        assert!(approx >= exact - 0.3, "approx F1 {approx} vs exact {exact}");
    }

    #[test]
    fn predicted_span_is_within_passage() {
        let model = BertLite::small(5);
        let ex = SquadGenerator::with_lengths(5, 48, 6).generate(0);
        let (s, e) = model.predict_span(&ExactBackend, &ex);
        assert!(s <= e);
        assert!(e < ex.passage.len());
    }

    #[test]
    fn attention_case_relevant_rows_cover_answer_span() {
        let model = BertLite::small(7);
        let ex = SquadGenerator::with_lengths(7, 48, 6).generate(2);
        let case = model.attention_case(&ex);
        for r in ex.answer_span.0..=ex.answer_span.1 {
            assert!(case.relevant_rows.contains(&r));
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let model = BertLite::small(9);
        let ex = SquadGenerator::with_lengths(9, 48, 6).generate(1);
        let a = model.encode(&ExactBackend, &ex);
        let b = model.encode(&ExactBackend, &ex);
        assert_eq!(a, b);
    }

    #[test]
    fn workload_metadata() {
        let model = BertLite::small(11);
        assert_eq!(model.kind(), WorkloadKind::Bert);
        assert_eq!(model.kind().metric_name(), "F1");
    }
}
