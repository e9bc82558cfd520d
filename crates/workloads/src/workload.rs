//! The common interface every workload exposes to the evaluation harness.

use a3_core::backend::ComputeBackend;
use a3_core::Matrix;

/// One concrete attention operation extracted from a workload: a key matrix, a value
/// matrix, a query vector, and the ground-truth "relevant" rows (the rows whose softmax
/// weight is meaningful for the task). The evaluation harness uses these cases both for
/// accuracy analysis (top-k recall, Figure 13b) and as inputs to the cycle-level
/// simulator (Figures 14/15).
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionCase {
    /// Key matrix (`n x d`).
    pub keys: Matrix,
    /// Value matrix (`n x d`).
    pub values: Matrix,
    /// Query vector (`d`).
    pub query: Vec<f32>,
    /// Rows that are truly relevant to the query (task ground truth).
    pub relevant_rows: Vec<usize>,
}

impl AttentionCase {
    /// Number of memory rows (`n`).
    pub fn n(&self) -> usize {
        self.keys.rows()
    }

    /// Embedding dimension (`d`).
    pub fn d(&self) -> usize {
        self.keys.dim()
    }
}

/// Identifies one of the paper's three evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkloadKind {
    /// End-to-End Memory Network running the bAbI QA task.
    MemN2N,
    /// Key-Value Memory Network running the WikiMovies QA task.
    KvMemN2N,
    /// BERT(base)-style self-attention running a SQuAD-like span-extraction task.
    Bert,
}

impl WorkloadKind {
    /// All three workloads, in the order the paper's figures list them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::MemN2N,
        WorkloadKind::KvMemN2N,
        WorkloadKind::Bert,
    ];

    /// The display name the paper uses.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::MemN2N => "MemN2N",
            WorkloadKind::KvMemN2N => "KV-MemN2N",
            WorkloadKind::Bert => "BERT",
        }
    }

    /// The accuracy metric the paper reports for this workload.
    pub fn metric_name(&self) -> &'static str {
        match self {
            WorkloadKind::MemN2N => "accuracy",
            WorkloadKind::KvMemN2N => "MAP",
            WorkloadKind::Bert => "F1",
        }
    }

    /// Typical number of memory rows / search targets (`n`) per attention operation
    /// (Section VI-A: bAbI average 20, WikiMovies average 186, SQuAD 320).
    pub fn typical_n(&self) -> usize {
        match self {
            WorkloadKind::MemN2N => 20,
            WorkloadKind::KvMemN2N => 186,
            WorkloadKind::Bert => 320,
        }
    }

    /// The `k` used for the top-k-recall metric of Figure 13b (2 for bAbI, 5 for the
    /// other two workloads).
    pub fn top_k(&self) -> usize {
        match self {
            WorkloadKind::MemN2N => 2,
            _ => 5,
        }
    }

    /// Whether the key/value matrices are built at comprehension time (off the query
    /// critical path). True for the memory networks, false for BERT whose self-attention
    /// builds them on the critical path (Section VI-C "Preprocessing").
    pub fn preprocessing_off_critical_path(&self) -> bool {
        !matches!(self, WorkloadKind::Bert)
    }
}

/// A workload: a synthetic task generator plus the model that solves it via attention.
pub trait Workload {
    /// Which of the paper's workloads this is.
    fn kind(&self) -> WorkloadKind;

    /// Human-readable name.
    fn name(&self) -> String {
        self.kind().name().to_owned()
    }

    /// Extracts `count` representative attention operations (key/value/query triples
    /// with ground-truth relevant rows).
    fn attention_cases(&self, count: usize) -> Vec<AttentionCase>;

    /// Runs the task end-to-end on `count` examples using `backend` for every attention
    /// operation and returns the task metric (accuracy / MAP / F1, per
    /// [`WorkloadKind::metric_name`]).
    fn evaluate(&self, backend: &dyn ComputeBackend, count: usize) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_kind_metadata() {
        assert_eq!(WorkloadKind::MemN2N.name(), "MemN2N");
        assert_eq!(WorkloadKind::KvMemN2N.metric_name(), "MAP");
        assert_eq!(WorkloadKind::Bert.typical_n(), 320);
        assert_eq!(WorkloadKind::MemN2N.top_k(), 2);
        assert_eq!(WorkloadKind::KvMemN2N.top_k(), 5);
        assert!(WorkloadKind::MemN2N.preprocessing_off_critical_path());
        assert!(!WorkloadKind::Bert.preprocessing_off_critical_path());
        assert_eq!(WorkloadKind::ALL.len(), 3);
    }

    #[test]
    fn attention_case_dimensions() {
        let case = AttentionCase {
            keys: Matrix::zeros(10, 4),
            values: Matrix::zeros(10, 4),
            query: vec![0.0; 4],
            relevant_rows: vec![3],
        };
        assert_eq!(case.n(), 10);
        assert_eq!(case.d(), 4);
    }
}
