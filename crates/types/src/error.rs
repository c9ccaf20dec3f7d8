//! Error types for constructing and validating the core data model.

use std::fmt;

/// Errors raised when constructing core types with invalid arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// A `CP(M, K, L, G)` constraint set was inconsistent.
    InvalidConstraints(String),
    /// A time sequence was not strictly increasing.
    NonMonotonicTime {
        /// The previous (larger or equal) time.
        prev: u32,
        /// The offending time.
        next: u32,
    },
    /// A DBSCAN parameter was out of range.
    InvalidDbscanParams(String),
    /// A discretizer was configured with a non-positive interval.
    InvalidInterval(f64),
    /// A pattern-engine setting was out of range.
    InvalidEngineConfig(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::InvalidConstraints(msg) => {
                write!(f, "invalid CP(M,K,L,G) constraints: {msg}")
            }
            TypeError::NonMonotonicTime { prev, next } => write!(
                f,
                "time sequence must be strictly increasing, got {next} after {prev}"
            ),
            TypeError::InvalidDbscanParams(msg) => write!(f, "invalid DBSCAN parameters: {msg}"),
            TypeError::InvalidInterval(v) => {
                write!(f, "discretization interval must be positive, got {v}")
            }
            TypeError::InvalidEngineConfig(msg) => {
                write!(f, "invalid pattern-engine configuration: {msg}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TypeError::NonMonotonicTime { prev: 5, next: 3 };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains('3'));

        let e = TypeError::InvalidConstraints("K < L".into());
        assert!(e.to_string().contains("K < L"));

        let e = TypeError::InvalidInterval(-1.0);
        assert!(e.to_string().contains("-1"));

        let e = TypeError::InvalidDbscanParams("minPts = 0".into());
        assert!(e.to_string().contains("minPts"));
    }
}
