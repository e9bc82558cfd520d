//! Key-Value-Memory-Network-style model over the synthetic WikiMovies knowledge base.
//!
//! Following Miller et al. (the paper's reference \[19\]), each fact is stored as a
//! *key* that encodes what the fact is about (`movie ⊕ relation`) and a *value* that
//! encodes what should be retrieved (the object entity). The question is embedded into
//! the query, attention retrieves a weighted sum of value embeddings, and answers are
//! ranked by similarity between that retrieved vector and each candidate entity
//! embedding. The paper reports Mean Average Precision for this workload.

use a3_core::backend::ComputeBackend;
use a3_core::Matrix;

use crate::embedding::EmbeddingSpace;
use crate::metrics::mean_average_precision;
use crate::wikimovies::{MovieQuestion, WikiMoviesGenerator, WikiMoviesKb};
use crate::workload::{AttentionCase, Workload, WorkloadKind};

/// KV-MemN2N-style model for the synthetic WikiMovies task.
#[derive(Debug, Clone, PartialEq)]
pub struct KvMemN2N {
    embedding: EmbeddingSpace,
    generator: WikiMoviesGenerator,
    /// How many answers to rank per question (the length of the ranked list fed to the
    /// MAP metric).
    ranking_depth: usize,
}

impl KvMemN2N {
    /// Creates the model with the paper's embedding dimension (`d = 64`) and the default
    /// knowledge-base generator (`n ≈ 189`).
    pub fn new(seed: u64) -> Self {
        Self {
            embedding: EmbeddingSpace::new(a3_core::PAPER_D, seed),
            generator: WikiMoviesGenerator::new(seed),
            ranking_depth: 10,
        }
    }

    /// Creates the model with an explicit embedding dimension and generator.
    pub fn with_config(embedding_dim: usize, generator: WikiMoviesGenerator, seed: u64) -> Self {
        Self {
            embedding: EmbeddingSpace::new(embedding_dim, seed),
            generator,
            ranking_depth: 10,
        }
    }

    /// The embedding space used by the model.
    pub fn embedding(&self) -> &EmbeddingSpace {
        &self.embedding
    }

    /// Builds the key/value memory for a knowledge base (done once per KB — this is the
    /// "comprehension time" work the paper distinguishes from query response time).
    pub fn memory(&self, kb: &WikiMoviesKb) -> (Matrix, Matrix) {
        let mut keys = Vec::with_capacity(kb.n());
        let mut values = Vec::with_capacity(kb.n());
        for fact in &kb.facts {
            // The key emphasizes the movie (the entity the fact is about) and encodes
            // the relation with lower weight, the usual key construction for KV memory
            // networks ("key = subject + relation", "value = object").
            let mut weighted: Vec<(&str, f32)> = vec![(fact.movie.as_str(), 1.0)];
            for tok in fact.relation.tokens() {
                weighted.push((tok, 0.5));
            }
            keys.push(self.embedding.embed_weighted(&weighted));
            values.push(self.embedding.embed_token(&fact.object));
        }
        (
            Matrix::from_rows(keys).expect("knowledge base is non-empty"),
            Matrix::from_rows(values).expect("knowledge base is non-empty"),
        )
    }

    /// Embeds a question into a query vector. The relation is embedded through its
    /// canonical tokens (the question-understanding front-end of a KV memory network
    /// maps the surface phrasing "who directed ..." onto the canonical relation).
    pub fn query(&self, question: &MovieQuestion) -> Vec<f32> {
        let mut weighted: Vec<(&str, f32)> = vec![(question.movie.as_str(), 1.0)];
        for tok in question.relation.tokens() {
            weighted.push((tok, 0.5));
        }
        self.embedding.embed_weighted(&weighted)
    }

    /// Builds the attention case for one question of one knowledge base.
    pub fn attention_case(&self, kb: &WikiMoviesKb, question: &MovieQuestion) -> AttentionCase {
        let (keys, values) = self.memory(kb);
        AttentionCase {
            keys,
            values,
            query: self.query(question),
            relevant_rows: question.supporting_facts.clone(),
        }
    }

    /// Answers one question: returns the ranked candidate entities (best first).
    pub fn rank_answers(
        &self,
        backend: &dyn ComputeBackend,
        keys: &Matrix,
        values: &Matrix,
        question: &MovieQuestion,
    ) -> Vec<String> {
        let query = self.query(question);
        let result = backend
            .attend(keys, values, &query)
            .expect("workload-generated shapes are consistent");
        let candidates = WikiMoviesKb::candidate_entities();
        let mut scored: Vec<(f32, &str)> = candidates
            .iter()
            .map(|&entity| {
                let e = self.embedding.embed_token(entity);
                let score: f32 = e.iter().zip(&result.output).map(|(a, b)| a * b).sum();
                (score, entity)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored
            .into_iter()
            .take(self.ranking_depth)
            .map(|(_, e)| e.to_owned())
            .collect()
    }
}

impl Workload for KvMemN2N {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::KvMemN2N
    }

    fn attention_cases(&self, count: usize) -> Vec<AttentionCase> {
        // Draw questions from consecutive knowledge bases so the cases cover several
        // distinct memories.
        let mut cases = Vec::with_capacity(count);
        let mut kb_index = 0usize;
        while cases.len() < count {
            let kb = self.generator.generate(kb_index);
            for question in &kb.questions {
                if cases.len() >= count {
                    break;
                }
                cases.push(self.attention_case(&kb, question));
            }
            kb_index += 1;
        }
        cases
    }

    fn evaluate(&self, backend: &dyn ComputeBackend, count: usize) -> f64 {
        let mut cases: Vec<(Vec<String>, Vec<String>)> = Vec::with_capacity(count);
        let mut kb_index = 0usize;
        while cases.len() < count {
            let kb = self.generator.generate(kb_index);
            let (keys, values) = self.memory(&kb);
            for question in &kb.questions {
                if cases.len() >= count {
                    break;
                }
                let ranked = self.rank_answers(backend, &keys, &values, question);
                cases.push((ranked, question.answers.clone()));
            }
            kb_index += 1;
        }
        mean_average_precision(&cases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3_core::backend::{ApproximateBackend, ExactBackend};

    fn small_model() -> KvMemN2N {
        KvMemN2N::with_config(32, WikiMoviesGenerator::with_size(4, 8, 2), 4)
    }

    #[test]
    fn memory_shapes_match_kb() {
        let m = small_model();
        let kb = WikiMoviesGenerator::with_size(4, 8, 2).generate(0);
        let (keys, values) = m.memory(&kb);
        assert_eq!(keys.rows(), kb.n());
        assert_eq!(values.rows(), kb.n());
        assert_eq!(keys.dim(), 32);
    }

    #[test]
    fn attention_concentrates_on_supporting_facts() {
        let m = small_model();
        let cases = m.attention_cases(12);
        let mut hits = 0;
        for case in &cases {
            let result = ExactBackend
                .attend(&case.keys, &case.values, &case.query)
                .unwrap();
            let top = result.top_k(5);
            if case.relevant_rows.iter().any(|r| top.contains(r)) {
                hits += 1;
            }
        }
        assert!(
            hits >= 9,
            "supporting fact in top-5 for only {hits}/12 cases"
        );
    }

    #[test]
    fn exact_map_is_reasonable() {
        let m = small_model();
        let map = m.evaluate(&ExactBackend, 16);
        assert!(map > 0.3, "exact MAP {map}");
    }

    #[test]
    fn conservative_approximation_close_to_exact() {
        let m = small_model();
        let exact = m.evaluate(&ExactBackend, 12);
        let approx = m.evaluate(&ApproximateBackend::conservative(), 12);
        assert!(
            approx >= exact - 0.2,
            "approx MAP {approx} vs exact {exact}"
        );
    }

    #[test]
    fn ranked_answers_have_requested_depth_and_no_duplicates() {
        let m = small_model();
        let kb = WikiMoviesGenerator::with_size(4, 8, 2).generate(0);
        let (keys, values) = m.memory(&kb);
        let ranked = m.rank_answers(&ExactBackend, &keys, &values, &kb.questions[0]);
        assert_eq!(ranked.len(), 10);
        let mut dedup = ranked.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ranked.len());
    }

    #[test]
    fn workload_metadata() {
        let m = small_model();
        assert_eq!(m.kind(), WorkloadKind::KvMemN2N);
        assert_eq!(m.kind().metric_name(), "MAP");
        assert_eq!(m.attention_cases(3).len(), 3);
    }
}
