//! # ants-dp — the exact dynamic-programming backend
//!
//! Every number the simulator produces is a Monte Carlo estimate. For
//! the *Markovian* zoo strategies — finite internal state, exact dyadic
//! transition probabilities, no dependence on history beyond the state —
//! the same quantities are exactly computable by dynamic programming
//! over `(internal state × position)` occupancy tables, in the style of
//! time-indexed propagation DPs for random walks. This crate is that
//! second engine:
//!
//! * [`MarkovKernel`] / [`TableKernel`] — a strategy as data: per
//!   internal state, an exact transition distribution over
//!   `(next state, grid action)`. Constructors cover `randomwalk`,
//!   `coin(d, ℓ)`, `nonuniform(d)`, `uniform(ℓ, n, K)` (phase-capped
//!   with exact truncation accounting), every PFA `automaton(...)`
//!   entry, and `mortal(inner, expiry)` as a state-space product.
//!   Lévy, harmonic, spiral and fully-uniform strategies are *not*
//!   Markovian in this sense and fail loudly ([`DpError::Unsupported`])
//!   — never a silent fallback.
//! * [`collapse`] — step sequences between moves (coin flips, oracle
//!   returns) are collapsed by an exact linear solve into per-*move*
//!   transition entries, so the absorption DP's horizon is the move
//!   budget, not the (much larger) step count.
//! * [`absorb`] — the move-indexed forward DP: exact per-trial
//!   absorption CDFs over the target (success probability within any
//!   move budget, conditional expected/median moves).
//! * [`rounds`] — step-indexed DPs for the `observe.rs` metric
//!   vocabulary: coverage-by-round, first-visit curves, found-round
//!   curves, and the χ support statistic.
//! * [`eval`] — the cell evaluator: combines per-strategy CDFs for
//!   independent mixed populations in closed form
//!   (`1 − Π(1 − Fᵢ(t))^kᵢ`), averages over the target placement's
//!   enumerated support, and emits the same row vocabulary as the
//!   Monte Carlo `WorkloadExperiment`. It runs in three steps —
//!   [`curve_units`] lists the curves, [`solve_unit`] solves one,
//!   [`combine`] rebuilds the report — so a host can solve the curves
//!   of many cells on its own thread pool.
//! * [`symmetries`] — the grid reflections a kernel's law is invariant
//!   under, each verified by a state-permutation search; [`curve_units`]
//!   lists every curve at its point's orbit representative, so orbit
//!   mates share one solve.
//!
//! Exactness contract: all kernel probabilities are dyadic rationals
//! representable in `f64`; the DP's only approximations are (a) f64
//! summation round-off and (b) explicitly tracked truncation/pruning
//! mass, which is checked against [`TRUNCATION_TOL`] and turns into a
//! [`DpError::Truncation`] instead of a wrong answer. Each curve is
//! solved single-threaded and each report combined in a fixed summation
//! order, so reports are byte-identical across thread counts and reruns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absorb;
mod collapse;
mod error;
mod eval;
mod frontier;
mod kernel;
mod rounds;
mod symmetry;

pub use absorb::{absorption_cdf, dense_absorption_cdf, AbsorptionCurve};
pub use collapse::{collapse, CollapsedKernel, CollapsedRow, MoveExit};
pub use error::DpError;
pub use eval::{
    combine, curve_units, evaluate, evaluate_with, solve_unit, target_support, CurveKind,
    CurveUnit, DpCellReport, DpMetrics, DpRequest, DpStrategy, SolveCache,
};
pub use frontier::{
    sparse_absorption_cdf, sparse_absorption_cdf_stats, sparse_first_landing_cdf, FrontierStats,
};
pub use kernel::{
    coin_kernel, kernel_fingerprint, mortal_kernel, nonuniform_kernel, pfa_kernel,
    randomwalk_kernel, uniform_kernel, KernelTransition, MarkovKernel, PositionClass, TableKernel,
    UNIFORM_PHASE_CAP,
};
pub use rounds::{chi_support, dense_first_landing_cdf, step_absorption_cdf, visit_survival_curve};
pub use symmetry::{symmetries, Mirror};

/// Backend selector surfaced through workload specs and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Monte Carlo: the simulator's trial pool (the default).
    #[default]
    Mc,
    /// Exact dynamic programming over Markov kernels.
    Dp,
}

impl Backend {
    /// Parse a spec/CLI backend name.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "mc" => Some(Backend::Mc),
            "dp" => Some(Backend::Dp),
            _ => None,
        }
    }

    /// The spec/CLI name of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Mc => "mc",
            Backend::Dp => "dp",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The exact backend's table-representation rule, applied per solve
/// from the predicted dense shape (`states × (2·span + 1)²` entries,
/// `span` = move budget or round horizon): dense at or below the
/// measured break-even [`DENSE_BREAKEVEN_ENTRIES`], sparse beyond — but
/// only while sparse is *plausible*, i.e. a single state's full position
/// square still fits [`MAX_FRONTIER_ENTRIES`]. Past that (a span above
/// 1447), a worst-case (fully diffusive) kernel would grind through
/// billions of frontier updates before the reactive cap could trip, so
/// the solve stays dense and fails fast on the dense guard instead.
fn use_sparse(states: usize, span: u64) -> bool {
    let width = (2 * span as u128 + 1).pow(2);
    let dense_fits =
        (states as u128).checked_mul(width).is_some_and(|e| e <= DENSE_BREAKEVEN_ENTRIES as u128);
    !dense_fits && width <= MAX_FRONTIER_ENTRIES as u128
}

/// Largest internal-state space the per-move collapse will solve
/// exactly (dense Gaussian elimination is cubic in this).
pub const MAX_SOLVE_STATES: usize = 1024;

/// Largest dense occupancy table, in entries
/// (`states × (2·budget + 1)²`), the forward DP will allocate.
pub const MAX_TABLE_ENTRIES: usize = 1 << 23;

/// Maximum probability mass allowed to fall past truncation states or
/// pruning before the evaluation refuses to report
/// ([`DpError::Truncation`]).
pub const TRUNCATION_TOL: f64 = 1e-9;

/// States whose accumulated occupancy mass stays below this floor are
/// ignored by the χ support statistic (they are never meaningfully
/// selected).
pub const CHI_MASS_FLOOR: f64 = 1e-12;

/// Occupancy entries below this mass are dropped by the forward DP; the
/// dropped total is accounted exactly and checked against
/// [`TRUNCATION_TOL`].
pub const PRUNE: f64 = 1e-20;

/// Largest merged sparse frontier, in live `(state, position)` entries,
/// before the sparse DP refuses ([`DpError::Guard`]). Matches the dense
/// entry cap: sparse extends the reachable *budget*, not the reachable
/// *occupancy*.
pub const MAX_FRONTIER_ENTRIES: usize = 1 << 23;

/// Largest move budget / round horizon the packed sparse frontier key
/// can address (each offset coordinate gets 21 bits).
pub const MAX_SPARSE_SPAN: u64 = (1 << 20) - 1;

/// Representation break-even, in predicted dense table entries: at or below
/// this the dense table's branch-free inner loop wins; above it the
/// sparse frontier's occupancy savings dominate. Measured on the
/// bundled crosscheck grid (`BENCH_dp.json` v2: the dense and sparse
/// `backend/*` medians cross between the 10⁵-entry single-state cells
/// and the 10⁶-entry multi-state cells).
pub const DENSE_BREAKEVEN_ENTRIES: usize = 1 << 18;

#[cfg(test)]
mod tests {
    use super::{use_sparse, Backend, DENSE_BREAKEVEN_ENTRIES};

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Mc, Backend::Dp] {
            assert_eq!(Backend::parse(b.as_str()), Some(b));
            assert_eq!(b.to_string(), b.as_str());
        }
        assert_eq!(Backend::parse("exact"), None);
        assert_eq!(Backend::default(), Backend::Mc);
    }

    #[test]
    fn auto_resolves_at_the_break_even() {
        // 1 state at span 32: 65² = 4225 entries — dense.
        assert!(!use_sparse(1, 32));
        // Past the break-even with a plausible frontier: sparse.
        assert!(use_sparse(DENSE_BREAKEVEN_ENTRIES, 32));
        // A span whose single-state square cannot fit the frontier cap
        // stays dense (and so fails fast on the dense guard) rather
        // than grinding toward the reactive frontier cap: 2·1447+1
        // squared is the last width at or under 2²³.
        assert!(use_sparse(1, 1447));
        assert!(!use_sparse(1, 1448));
        assert!(!use_sparse(1024, u64::MAX / 4));
    }
}
