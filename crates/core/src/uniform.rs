//! Algorithm 5: the uniform-in-`D` search (Theorem 3.14).

use crate::components::SquareSearch;
use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::GridAction;
use ants_rng::{BiasedCoin, Coin, DefaultRng, DyadicError};

/// Algorithm 5: search without knowing `D`, uniform in the target
/// distance.
///
/// The agent iterates *phases* `i = 1, 2, …`. In phase `i` its distance
/// estimate is `2^{iℓ}`; it repeatedly runs `search(i, ℓ)` (Algorithm 4)
/// followed by an oracle return, as long as the phase coin
/// `coin(K + max{i − ⌊log₂ n / ℓ⌋, 0}, ℓ)` shows heads — so the expected
/// number of searches per phase is `≈ 2^{(K + max{i − log n/ℓ, 0})ℓ}`,
/// enough for the `n` agents together to cover the estimate square
/// (Lemma 3.12), then moves on to phase `i + 1`.
///
/// Expected moves for the first of `n` agents to find a target at
/// distance `D`: `(D²/n + D) · 2^{O(ℓ)}` (Theorem 3.14). Memory: three
/// approximate counters of `⌈log₂ i⌉` bits each at phase `i`, and the
/// target is found w.h.p. by phase `i₀ ≈ log₂ D / ℓ`, giving
/// `χ ≤ 3 log log D + O(1)`.
///
/// ```
/// use ants_core::{SearchStrategy, UniformSearch};
/// let agent = UniformSearch::new(2, /*n=*/64, /*K=*/2).unwrap();
/// assert_eq!(agent.phase(), 1);
/// assert_eq!(agent.selection_complexity().ell(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UniformSearch {
    ell: u32,
    n_agents: u64,
    big_k: u32,
    phase_i: u32,
    state: UniformState,
}

#[derive(Debug, Clone)]
enum UniformState {
    /// Flipping the phase coin, one base flip per step; counts tails run.
    PhaseCoin {
        /// Consecutive tails of the base coin seen so far.
        tails_run: u32,
    },
    /// Running one `search(i, ℓ)`.
    Searching(SquareSearch),
    /// One oracle-return step after a finished search.
    Returning,
}

impl UniformSearch {
    /// Create a uniform searcher.
    ///
    /// * `ell` — probability resolution (`ℓ ≥ 1`);
    /// * `n_agents` — the number of agents `n` (the paper's algorithm is
    ///   non-uniform in `n`; see Section 2 for lifting this);
    /// * `big_k` — the constant `K` (the paper: "sufficiently large");
    ///   `K = 2` already reproduces the theorem's shape in simulation.
    ///
    /// # Errors
    ///
    /// [`DyadicError::ExponentTooLarge`] if `ell > 64`.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0`, `n_agents == 0` or `big_k == 0`.
    pub fn new(ell: u32, n_agents: u64, big_k: u32) -> Result<Self, DyadicError> {
        assert!(ell >= 1, "ell must be at least 1");
        assert!(n_agents >= 1, "need at least one agent");
        assert!(big_k >= 1, "K must be positive");
        let _ = BiasedCoin::base(ell)?; // validate eagerly
        Ok(Self {
            ell,
            n_agents,
            big_k,
            phase_i: 1,
            state: UniformState::PhaseCoin { tails_run: 0 },
        })
    }

    /// The current phase `i` (the distance estimate is `2^{iℓ}`).
    pub fn phase(&self) -> u32 {
        self.phase_i
    }

    /// The phase-coin flip count `k_i = K + max{i − ⌊log₂ n / ℓ⌋, 0}`.
    fn phase_coin_k(&self) -> u32 {
        let log_n_over_ell = (63 - self.n_agents.max(1).leading_zeros()) / self.ell;
        self.big_k + self.phase_i.saturating_sub(log_n_over_ell)
    }

    /// The distance estimate of the current phase, saturating at `2^63`.
    pub fn distance_estimate(&self) -> u64 {
        let e = (self.phase_i * self.ell).min(63);
        1u64 << e
    }
}

impl SearchStrategy for UniformSearch {
    fn name(&self) -> &'static str {
        "uniform (Alg 5)"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        self.step_run(rng, 1).0
    }

    /// Only a search's walks come as runs: the phase changes (and with
    /// it the footprint) on single phase-coin steps.
    fn step_run(&mut self, rng: &mut DefaultRng, max_steps: u64) -> (GridAction, u64) {
        match &mut self.state {
            UniformState::PhaseCoin { tails_run } => {
                let base = BiasedCoin::base(self.ell).expect("validated in new");
                if base.flip(rng).is_heads() {
                    // coin(k_i, l) shows heads -> run another search.
                    self.state = UniformState::Searching(
                        SquareSearch::new(self.phase_i, self.ell).expect("validated"),
                    );
                } else {
                    *tails_run += 1;
                    if *tails_run >= self.phase_coin_k() {
                        // coin(k_i, l) shows tails -> next phase.
                        self.phase_i += 1;
                        self.state = UniformState::PhaseCoin { tails_run: 0 };
                    }
                }
                (GridAction::None, 1)
            }
            UniformState::Searching(search) => {
                let (s, n) = search.step_run(rng, max_steps);
                if s.is_finished() {
                    self.state = UniformState::Returning;
                }
                (s.action(), n)
            }
            UniformState::Returning => {
                self.state = UniformState::PhaseCoin { tails_run: 0 };
                (GridAction::Origin, 1)
            }
        }
    }

    fn emits_runs(&self) -> bool {
        true
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        // Three counters at phase i (paper, Section 3.2): the phase index
        // (⌈log i⌉ bits), the walk flip counter (⌈log i⌉ bits) and the
        // phase-coin flip counter (⌈log(K + i)⌉ bits), plus O(1) phase
        // bits. This is the paper's b = 3·log log_{2^l} D + O(1) at the
        // success phase i0 ≈ log D / l.
        let i = self.phase_i as u64;
        let b = crate::ceil_log2(i.max(1))
            + crate::ceil_log2(i.max(1))
            + crate::ceil_log2((self.big_k as u64 + i).max(1))
            + 3;
        SelectionComplexity::new(b, self.ell)
    }

    fn reset(&mut self) {
        self.phase_i = 1;
        self.state = UniformState::PhaseCoin { tails_run: 0 };
    }

    /// Abandon the current search, keeping the phase: the agent is back
    /// at the origin and resumes the phase-coin loop, so an interrupted
    /// overshooting excursion costs progress only within its phase.
    fn abort_guess(&mut self) {
        self.state = UniformState::PhaseCoin { tails_run: 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_grid::Point;
    use ants_rng::derive_rng;

    fn moves_to_find(agent: &mut UniformSearch, target: Point, cap: u64, seed: u64) -> Option<u64> {
        let mut rng = derive_rng(seed, 3);
        let mut pos = Point::ORIGIN;
        let mut moves = 0u64;
        while moves < cap {
            let a = agent.step(&mut rng);
            if a.is_move() {
                moves += 1;
            }
            pos = apply_action(pos, a);
            if pos == target {
                return Some(moves);
            }
        }
        None
    }

    #[test]
    fn finds_close_target() {
        let mut agent = UniformSearch::new(1, 1, 2).unwrap();
        assert!(moves_to_find(&mut agent, Point::new(1, 1), 500_000, 1).is_some());
    }

    #[test]
    fn finds_far_target_eventually() {
        let mut agent = UniformSearch::new(2, 1, 2).unwrap();
        assert!(
            moves_to_find(&mut agent, Point::new(20, -13), 5_000_000, 2).is_some(),
            "target at distance 20 not found"
        );
    }

    #[test]
    fn phases_advance() {
        let mut agent = UniformSearch::new(1, 1, 1).unwrap();
        let mut rng = derive_rng(3, 0);
        let mut max_phase = 1;
        for _ in 0..200_000 {
            let _ = agent.step(&mut rng);
            max_phase = max_phase.max(agent.phase());
        }
        assert!(max_phase >= 3, "agent stuck in phase {max_phase}");
    }

    #[test]
    fn distance_estimate_grows_exponentially() {
        let mut agent = UniformSearch::new(3, 1, 1).unwrap();
        assert_eq!(agent.distance_estimate(), 8); // 2^{1*3}
        agent.phase_i = 2;
        assert_eq!(agent.distance_estimate(), 64);
        agent.phase_i = 30;
        assert_eq!(agent.distance_estimate(), 1 << 63); // saturates
    }

    #[test]
    fn phase_coin_k_accounts_for_n() {
        // With many agents the early phases flip fewer coins (the while
        // loop is shorter): k_i = K + max{i - floor(log n / l), 0}.
        let a = UniformSearch::new(1, 1024, 2).unwrap(); // log n = 10
        assert_eq!(a.phase_coin_k(), 2); // i = 1 <= 10 -> K
        let mut b = UniformSearch::new(1, 1024, 2).unwrap();
        b.phase_i = 15;
        assert_eq!(b.phase_coin_k(), 2 + 5);
        // With one agent, k_i = K + i from the start.
        let mut c = UniformSearch::new(1, 1, 2).unwrap();
        c.phase_i = 4;
        assert_eq!(c.phase_coin_k(), 6);
    }

    #[test]
    fn selection_complexity_grows_like_3_log_phase() {
        let mut agent = UniformSearch::new(1, 1, 2).unwrap();
        agent.phase_i = 16;
        let sc16 = agent.selection_complexity();
        agent.phase_i = 256;
        let sc256 = agent.selection_complexity();
        // Memory grows by ~3 * (log 256 - log 16) = 3 * 4 = 12 bits.
        let growth = sc256.memory_bits() - sc16.memory_bits();
        assert!((8..=14).contains(&growth), "memory growth {growth}");
        // Theorem 3.14 shape: b <= 3 log2(i) + O(1).
        assert!(sc256.memory_bits() as f64 <= 3.0 * 8.0 + 6.0);
    }

    #[test]
    fn origin_return_after_each_search() {
        let mut agent = UniformSearch::new(1, 1, 2).unwrap();
        let mut rng = derive_rng(5, 0);
        let mut pos = Point::ORIGIN;
        let mut searches_seen = 0;
        for _ in 0..100_000 {
            let a = agent.step(&mut rng);
            pos = apply_action(pos, a);
            if a == GridAction::Origin {
                assert_eq!(pos, Point::ORIGIN);
                searches_seen += 1;
            }
        }
        assert!(searches_seen > 5, "expected several completed searches");
    }

    #[test]
    fn abort_guess_keeps_phase() {
        let mut agent = UniformSearch::new(1, 1, 2).unwrap();
        let mut rng = derive_rng(9, 0);
        // Walk until the agent is mid-search in some phase > 1.
        for _ in 0..200_000 {
            let _ = agent.step(&mut rng);
            if agent.phase() > 1 && matches!(agent.state, UniformState::Searching(_)) {
                break;
            }
        }
        let phase = agent.phase();
        assert!(phase > 1, "agent never left phase 1 mid-search");
        agent.abort_guess();
        assert_eq!(agent.phase(), phase, "abort_guess must not lose phase progress");
        assert!(matches!(agent.state, UniformState::PhaseCoin { tails_run: 0 }));
    }

    #[test]
    fn reset_restores_phase_one() {
        let mut agent = UniformSearch::new(2, 4, 2).unwrap();
        let mut rng = derive_rng(6, 0);
        for _ in 0..100_000 {
            let _ = agent.step(&mut rng);
        }
        assert!(agent.phase() > 1);
        agent.reset();
        assert_eq!(agent.phase(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut agent = UniformSearch::new(2, 8, 2).unwrap();
            let mut rng = derive_rng(seed, 1);
            let mut pos = Point::ORIGIN;
            for _ in 0..10_000 {
                pos = apply_action(pos, agent.step(&mut rng));
            }
            (pos, agent.phase())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // overwhelmingly likely
    }

    #[test]
    #[should_panic(expected = "ell must be at least 1")]
    fn zero_ell_rejected() {
        let _ = UniformSearch::new(0, 1, 2);
    }
}
