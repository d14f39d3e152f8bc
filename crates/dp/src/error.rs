//! Error type for the exact backend.
//!
//! The DP backend never silently falls back to Monte Carlo or silently
//! truncates: everything it cannot compute exactly is a loud
//! [`DpError`] naming the strategy or knob responsible, so workload
//! validation can surface it as a spec-path error.

use std::fmt;

/// Why an exact evaluation could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// The request is outside the exact backend's domain (non-Markovian
    /// strategy, unsupported knob, out-of-range parameter).
    Unsupported {
        /// What was asked for.
        what: String,
        /// Why the exact backend refuses it, and what to do instead.
        reason: String,
    },
    /// A cost guard tripped: the computation is well-defined but would
    /// exceed the backend's resource envelope.
    Guard {
        /// The quantity that blew past the guard.
        what: String,
        /// The guard's limit.
        limit: usize,
        /// What to do about it (e.g. shrink the cell, fall back to
        /// Monte Carlo).
        hint: String,
    },
    /// Truncated tail mass (e.g. the uniform kernel's phase cap)
    /// exceeded [`crate::TRUNCATION_TOL`] — the answer would not be
    /// exact to within tolerance, so no answer is produced.
    Truncation {
        /// The kernel whose truncation states absorbed the mass.
        kernel: String,
        /// The exact probability mass lost to truncation.
        lost: f64,
    },
}

impl fmt::Display for DpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpError::Unsupported { what, reason } => {
                write!(f, "exact backend does not support {what}: {reason}")
            }
            DpError::Guard { what, limit, hint } => {
                write!(
                    f,
                    "exact backend guard tripped: {what} exceeds the limit of {limit}; {hint}"
                )
            }
            DpError::Truncation { kernel, lost } => {
                write!(
                    f,
                    "exact backend truncation for {kernel}: {lost:.3e} probability mass \
                     fell past the truncation states (tolerance {:.0e}); \
                     this cell is not exactly computable at the current caps",
                    crate::TRUNCATION_TOL
                )
            }
        }
    }
}

impl std::error::Error for DpError {}
