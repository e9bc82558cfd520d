//! The unified error types of the attention stack.
//!
//! Every fallible path in this crate funnels into one of two enums:
//!
//! * [`AttentionError`] — shape, parameter, backend and fixed-point failures raised
//!   while computing a single attention operation. The compute backends and the
//!   quantized pipeline both speak this type; fixed-point arithmetic errors from
//!   [`a3_fixed`] convert into it via `From<FixedError>`.
//! * [`ServeError`] — failures of the request-oriented serving front-end
//!   ([`crate::serve`]): unknown sessions, invalid scheduling parameters, plus any
//!   [`AttentionError`] raised while executing a batch (via `From<AttentionError>`).
//!
//! Both implement [`std::error::Error`] with [`std::error::Error::source`] chaining
//! (`ServeError` → `AttentionError` → `FixedError`), so callers can hold a
//! `Box<dyn Error>` and walk the chain.

use std::error::Error;
use std::fmt;

use a3_fixed::FixedError;

/// Errors produced by attention computations.
#[derive(Debug, Clone, PartialEq)]
pub enum AttentionError {
    /// The matrix rows do not all have the same length.
    RaggedRows {
        /// Index of the first offending row.
        row: usize,
        /// Expected row length.
        expected: usize,
        /// Actual row length.
        actual: usize,
    },
    /// The key and value matrices must have the same number of rows.
    RowCountMismatch {
        /// Number of key rows.
        keys: usize,
        /// Number of value rows.
        values: usize,
    },
    /// The query dimension does not match the key-matrix dimension.
    DimensionMismatch {
        /// Key/value embedding dimension.
        expected: usize,
        /// Query length.
        actual: usize,
    },
    /// The key matrix is empty (no rows to attend over).
    EmptyMemory,
    /// An approximation parameter is out of its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        constraint: &'static str,
    },
    /// A prepared memory was handed to a backend that cannot serve its preprocessed
    /// state (e.g. an exact-prepared memory passed to the approximate backend).
    BackendMismatch {
        /// The prepared-state label the backend requires.
        expected: &'static str,
        /// The label of the state the memory actually carries.
        actual: &'static str,
    },
    /// A fixed-point conversion or arithmetic step failed in the quantized datapath.
    Fixed(FixedError),
}

impl fmt::Display for AttentionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttentionError::RaggedRows {
                row,
                expected,
                actual,
            } => write!(
                f,
                "row {row} has {actual} elements but the matrix dimension is {expected}"
            ),
            AttentionError::RowCountMismatch { keys, values } => write!(
                f,
                "key matrix has {keys} rows but value matrix has {values} rows"
            ),
            AttentionError::DimensionMismatch { expected, actual } => write!(
                f,
                "query has {actual} elements but the key matrix dimension is {expected}"
            ),
            AttentionError::EmptyMemory => write!(f, "attention over an empty key matrix"),
            AttentionError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter {name}: {constraint}")
            }
            AttentionError::BackendMismatch { expected, actual } => write!(
                f,
                "memory carries {actual} preprocessed state but the backend requires {expected}"
            ),
            AttentionError::Fixed(inner) => write!(f, "fixed-point pipeline error: {inner}"),
        }
    }
}

impl Error for AttentionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttentionError::Fixed(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<FixedError> for AttentionError {
    fn from(inner: FixedError) -> Self {
        AttentionError::Fixed(inner)
    }
}

/// Errors produced by the request-oriented serving front-end ([`crate::serve`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A request referenced a session id the server never issued (or has dropped).
    UnknownSession {
        /// The raw session id carried by the offending request.
        session: u64,
    },
    /// A registration referenced a tenant id the server never registered.
    UnknownTenant {
        /// The raw tenant id carried by the offending registration.
        tenant: u64,
    },
    /// A request was rejected by its tenant's token-bucket admission control
    /// (the tenant is offering load above its contracted rate).
    Throttled {
        /// The raw id of the over-rate tenant.
        tenant: u64,
    },
    /// A scheduling parameter is out of its valid range.
    InvalidPolicy {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        constraint: &'static str,
    },
    /// The underlying attention computation (or memory preparation) failed.
    Attention(AttentionError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession { session } => {
                write!(f, "request references unknown session {session}")
            }
            ServeError::UnknownTenant { tenant } => {
                write!(f, "registration references unknown tenant {tenant}")
            }
            ServeError::Throttled { tenant } => {
                write!(
                    f,
                    "request throttled: tenant {tenant} is over its admission rate"
                )
            }
            ServeError::InvalidPolicy { name, constraint } => {
                write!(f, "invalid scheduling policy {name}: {constraint}")
            }
            ServeError::Attention(inner) => write!(f, "attention execution failed: {inner}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Attention(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<AttentionError> for ServeError {
    fn from(inner: AttentionError) -> Self {
        ServeError::Attention(inner)
    }
}

impl From<FixedError> for ServeError {
    fn from(inner: FixedError) -> Self {
        ServeError::Attention(AttentionError::Fixed(inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3_fixed::QFormat;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = AttentionError::DimensionMismatch {
            expected: 64,
            actual: 32,
        };
        let text = e.to_string();
        assert!(text.contains("64"));
        assert!(text.contains("32"));
        assert!(text.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<AttentionError>();
        assert_error::<ServeError>();
    }

    #[test]
    fn ragged_rows_message() {
        let e = AttentionError::RaggedRows {
            row: 3,
            expected: 8,
            actual: 7,
        };
        assert!(e.to_string().contains("row 3"));
    }

    #[test]
    fn backend_mismatch_names_both_states() {
        let e = AttentionError::BackendMismatch {
            expected: "sorted",
            actual: "exact",
        };
        let text = e.to_string();
        assert!(text.contains("sorted"));
        assert!(text.contains("exact"));
    }

    #[test]
    fn fixed_errors_convert_and_chain() {
        let fixed = FixedError::Overflow {
            value: 99.0,
            format: QFormat::new(4, 4),
        };
        let e: AttentionError = fixed.clone().into();
        assert!(e.to_string().contains("Q4.4"));
        let source = e.source().expect("wrapped error must be the source");
        assert_eq!(source.to_string(), fixed.to_string());

        let serve: ServeError = fixed.clone().into();
        assert!(matches!(
            serve,
            ServeError::Attention(AttentionError::Fixed(_))
        ));
    }

    #[test]
    fn serve_errors_convert_and_chain() {
        let inner = AttentionError::EmptyMemory;
        let e: ServeError = inner.clone().into();
        assert!(e.to_string().contains("empty key matrix"));
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());

        let unknown = ServeError::UnknownSession { session: 17 };
        assert!(unknown.to_string().contains("17"));
        assert!(unknown.source().is_none());

        let policy = ServeError::InvalidPolicy {
            name: "max_batch",
            constraint: "must be at least 1",
        };
        assert!(policy.to_string().contains("max_batch"));

        let tenant = ServeError::UnknownTenant { tenant: 5 };
        assert!(tenant.to_string().contains("5"));
        assert!(tenant.source().is_none());

        let throttled = ServeError::Throttled { tenant: 9 };
        assert!(throttled.to_string().contains("9"));
        assert!(throttled.to_string().contains("throttled"));
        assert!(throttled.source().is_none());
    }
}
