//! Lifting the uniform algorithm to be uniform in `n` as well.
//!
//! Section 2 of the paper: "We can apply a technique from [12], that the
//! authors use to make their algorithms uniform in n, in order to
//! generalize our results and obtain an algorithm that is uniform in both
//! D and n." The technique is guess-and-double with repetition control:
//! the agent runs epochs `j = 1, 2, …`; in epoch `j` it behaves like the
//! `n`-aware algorithm configured for the guess `n̂ = 2^{2^j}` for a
//! bounded number of phases, then restarts with a doubled (in the
//! exponent) guess. Underestimates only waste a bounded prefix; the first
//! epoch with `n̂ ≥ n` already delivers the guarantee at the cost of an
//! extra `O(log^{1+ε})`-type factor — matching [12]'s competitiveness
//! trade-off, which the paper inherits.
//!
//! Memory: the epoch counter adds `⌈log j⌉` bits on top of
//! [`UniformSearch`]'s three counters; at the success epoch
//! `j ≈ log log n`, so the footprint stays `O(log log D + log log n)`.

use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use crate::uniform::UniformSearch;
use ants_automaton::GridAction;
use ants_rng::{DefaultRng, DyadicError};

/// The doubly-uniform searcher: knows neither `D` nor `n`.
#[derive(Debug, Clone)]
pub struct FullyUniformSearch {
    ell: u32,
    big_k: u32,
    /// Current epoch (the guess is `n̂ = 2^{2^j}`).
    epoch: u32,
    /// Phases to run in the current epoch before re-guessing.
    phases_left: u32,
    inner: UniformSearch,
    max_epoch: u32,
}

impl FullyUniformSearch {
    /// Create a searcher uniform in both `D` and `n`.
    ///
    /// # Errors
    ///
    /// [`DyadicError::ExponentTooLarge`] if `ell > 64`.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0` or `big_k == 0`.
    pub fn new(ell: u32, big_k: u32) -> Result<Self, DyadicError> {
        let inner = UniformSearch::new(ell, Self::guess(1), big_k)?;
        Ok(Self { ell, big_k, epoch: 1, phases_left: Self::phase_budget(1), inner, max_epoch: 1 })
    }

    /// The epoch-`j` colony-size guess `n̂ = 2^{2^j}` (capped to stay in
    /// `u64`).
    fn guess(epoch: u32) -> u64 {
        let e = 1u32 << epoch.min(5); // 2^j, capped at 32
        1u64 << e.min(63)
    }

    /// Phases the agent grants epoch `j` before restarting with a larger
    /// guess. Linear growth (`2j + 2`) suffices: the inner algorithm's
    /// distance estimate grows exponentially *within* an epoch, so epoch
    /// `j` already reaches distance `2^{ℓ(2j+2)}`, and the restart waste
    /// across epochs stays geometric.
    fn phase_budget(epoch: u32) -> u32 {
        2 * epoch + 2
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The current colony-size guess.
    pub fn current_guess(&self) -> u64 {
        Self::guess(self.epoch)
    }
}

impl SearchStrategy for FullyUniformSearch {
    fn name(&self) -> &'static str {
        "fully uniform (unknown D and n)"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        self.step_run(rng, 1).0
    }

    fn step_run(&mut self, rng: &mut DefaultRng, max_steps: u64) -> (GridAction, u64) {
        let phase_before = self.inner.phase();
        // The inner phase only advances on a single phase-coin step, so a
        // run never crosses an epoch change.
        let run = self.inner.step_run(rng, max_steps);
        if self.inner.phase() > phase_before {
            // One inner phase completed.
            if self.phases_left == 0 {
                // Epoch over: re-guess n and restart the inner search.
                self.epoch += 1;
                self.max_epoch = self.max_epoch.max(self.epoch);
                self.phases_left = Self::phase_budget(self.epoch);
                self.inner = UniformSearch::new(self.ell, Self::guess(self.epoch), self.big_k)
                    .expect("parameters validated in new");
            } else {
                self.phases_left -= 1;
            }
        }
        run
    }

    fn emits_runs(&self) -> bool {
        true
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        let inner = self.inner.selection_complexity();
        // Epoch counter + phase-budget countdown.
        let extra = crate::ceil_log2(self.max_epoch.max(1) as u64)
            + crate::ceil_log2(Self::phase_budget(self.max_epoch).max(1) as u64);
        SelectionComplexity::new(inner.memory_bits() + extra, inner.ell())
    }

    fn reset(&mut self) {
        *self = Self::new(self.ell, self.big_k).expect("parameters validated before");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_grid::Point;
    use ants_rng::derive_rng;

    #[test]
    fn guesses_square_exponentially() {
        assert_eq!(FullyUniformSearch::guess(1), 4); // 2^2
        assert_eq!(FullyUniformSearch::guess(2), 16); // 2^4
        assert_eq!(FullyUniformSearch::guess(3), 256); // 2^8
        assert_eq!(FullyUniformSearch::guess(4), 65536); // 2^16
    }

    #[test]
    fn finds_targets_without_knowing_anything() {
        let mut agent = FullyUniformSearch::new(1, 2).unwrap();
        let mut rng = derive_rng(1, 0);
        let target = Point::new(5, -3);
        let mut pos = Point::ORIGIN;
        let mut moves = 0u64;
        let mut found = false;
        while moves < 5_000_000 {
            let a = agent.step(&mut rng);
            if a.is_move() {
                moves += 1;
            }
            pos = apply_action(pos, a);
            if pos == target {
                found = true;
                break;
            }
        }
        assert!(found, "fully uniform agent failed to find a nearby target");
    }

    #[test]
    fn epochs_advance_eventually() {
        let mut agent = FullyUniformSearch::new(1, 1).unwrap();
        let mut rng = derive_rng(2, 0);
        for _ in 0..3_000_000 {
            let _ = agent.step(&mut rng);
            if agent.epoch() >= 2 {
                break;
            }
        }
        assert!(agent.epoch() >= 2, "epoch never advanced");
        assert!(agent.current_guess() >= 16);
    }

    #[test]
    fn footprint_grows_slowly() {
        let agent = FullyUniformSearch::new(2, 2).unwrap();
        let sc = agent.selection_complexity();
        // Fresh agent: inner footprint + small epoch counters.
        assert!(sc.memory_bits() < 20, "b = {}", sc.memory_bits());
        assert_eq!(sc.ell(), 2);
    }

    #[test]
    fn reset_restores_epoch_one() {
        let mut agent = FullyUniformSearch::new(1, 2).unwrap();
        let mut rng = derive_rng(3, 0);
        for _ in 0..500_000 {
            let _ = agent.step(&mut rng);
        }
        agent.reset();
        assert_eq!(agent.epoch(), 1);
    }
}
