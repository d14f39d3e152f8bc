//! A Feinerman–Korman–Lotker–Sereni-style comparator (`χ = Θ(log D)`).

use crate::selection::SelectionComplexity;
use crate::strategy::SearchStrategy;
use ants_automaton::GridAction;
use ants_grid::{Direction, Point};
use ants_rng::{DefaultRng, Rng64};

/// A reconstruction of the PODC'12 search of Feinerman, Korman, Lotker and
/// Sereni ("Collaborative Search on the Plane without Communication", the
/// paper's reference 12).
///
/// In phase `i` the agent picks a uniformly random cell within distance
/// `2^i`, walks straight to it, exhaustively scans a plot of side
/// `≈ 2^{i+1}/√n` around it, and returns to the origin. With `n` agents
/// the phase-`i` plots tile the radius-`2^i` ball, giving expected
/// `O(D²/n + D)` moves — the same performance as Algorithm 1.
///
/// The point of reproducing it: the agent must *store a coordinate pair up
/// to distance `2^i`*, so by the time the target is found its memory is
/// `b = Θ(log D)` — this is the `χ = Ω(log D)` footprint the paper
/// contrasts with its own `log log D + O(1)` (see Section 1, "the existing
/// results … require `χ(A) = Ω(log D)`"). Sampling uses only fair coin
/// bits (`ℓ = 1`): the complexity lives entirely in `b`.
#[derive(Debug, Clone)]
pub struct HarmonicSearch {
    n_agents: u64,
    phase_i: u32,
    state: HState,
    /// Largest phase reached (selection-complexity accounting).
    max_phase: u32,
    /// [`plot_side`](HarmonicSearch::plot_side) of the current phase,
    /// updated at each phase change (it costs a square root).
    side: u64,
}

#[derive(Debug, Clone)]
enum HState {
    /// Draw the random destination (one step of local computation).
    Sample,
    /// Walk toward `dest`; `rel` is the current offset from the origin.
    GoTo { dest: Point, rel: Point },
    /// Scan the plot: a boustrophedon sweep of `side × side` cells.
    Scan { rel: Point, row: u64, col: u64, rightward: bool },
    /// Return to the origin and advance the phase.
    Return,
}

impl HarmonicSearch {
    /// Create an agent knowing the colony size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n_agents == 0`.
    pub fn new(n_agents: u64) -> Self {
        assert!(n_agents >= 1, "need at least one agent");
        let mut agent = Self { n_agents, phase_i: 1, state: HState::Sample, max_phase: 1, side: 1 };
        agent.side = agent.plot_side();
        agent
    }

    /// Current phase.
    pub fn phase(&self) -> u32 {
        self.phase_i
    }

    /// Plot side for phase `i`: `max(1, 2^{i+1} / ⌈√n⌉)`.
    fn plot_side(&self) -> u64 {
        let radius = 1u64 << self.phase_i.min(40);
        let sqrt_n = (self.n_agents as f64).sqrt().ceil() as u64;
        (2 * radius / sqrt_n.max(1)).max(1)
    }
}

impl SearchStrategy for HarmonicSearch {
    fn name(&self) -> &'static str {
        "harmonic plots (FKLS'12-style)"
    }

    fn step(&mut self, rng: &mut DefaultRng) -> GridAction {
        self.step_run(rng, 1).0
    }

    /// Runs are the straight legs of the walk to the destination and the
    /// rows of the scan; neither draws randomness.
    fn step_run(&mut self, rng: &mut DefaultRng, max_steps: u64) -> (GridAction, u64) {
        let max_steps = max_steps.max(1);
        match &mut self.state {
            HState::Sample => {
                let r = 1i64 << self.phase_i.min(40);
                let side = 2 * r + 1;
                let dest = Point::new(
                    rng.next_below(side as u64) as i64 - r,
                    rng.next_below(side as u64) as i64 - r,
                );
                self.state = HState::GoTo { dest, rel: Point::ORIGIN };
                (GridAction::None, 1)
            }
            HState::GoTo { dest, rel } => {
                // Manhattan walk: x first, then y.
                let (dir, left) = if rel.x != dest.x {
                    let dir = if dest.x > rel.x { Direction::Right } else { Direction::Left };
                    (dir, dest.x.abs_diff(rel.x))
                } else if rel.y != dest.y {
                    let dir = if dest.y > rel.y { Direction::Up } else { Direction::Down };
                    (dir, dest.y.abs_diff(rel.y))
                } else {
                    // Arrived: start scanning.
                    self.state = HState::Scan { rel: *rel, row: 0, col: 0, rightward: true };
                    return (GridAction::None, 1);
                };
                let n = left.min(max_steps);
                *rel = rel.step_by(dir, n);
                (GridAction::Move(dir), n)
            }
            HState::Scan { rel, row, col, rightward } => {
                // Boustrophedon: sweep a row, step up, sweep back.
                if *col + 1 < self.side {
                    let n = (self.side - 1 - *col).min(max_steps);
                    *col += n;
                    let dir = if *rightward { Direction::Right } else { Direction::Left };
                    *rel = rel.step_by(dir, n);
                    (GridAction::Move(dir), n)
                } else if *row + 1 < self.side {
                    *row += 1;
                    *col = 0;
                    *rightward = !*rightward;
                    *rel = rel.step(Direction::Up);
                    (GridAction::Move(Direction::Up), 1)
                } else {
                    self.state = HState::Return;
                    (GridAction::None, 1)
                }
            }
            HState::Return => {
                self.phase_i += 1;
                self.max_phase = self.max_phase.max(self.phase_i);
                self.side = self.plot_side();
                self.state = HState::Sample;
                (GridAction::Origin, 1)
            }
        }
    }

    fn emits_runs(&self) -> bool {
        true
    }

    fn selection_complexity(&self) -> SelectionComplexity {
        // The destination coordinates dominate: 2(i+1) bits, plus the scan
        // counters (2 ceil(log side)) and O(1) phase bits. ell = 1: all
        // randomness is fair coin bits (uniform sampling via next_below is
        // realisable with expected O(1) fair flips per bit by rejection).
        let i = self.max_phase;
        let coord_bits = 2 * (i + 1);
        let scan_bits = 2 * crate::ceil_log2(self.side);
        SelectionComplexity::new(coord_bits + scan_bits + 3, 1)
    }

    fn reset(&mut self) {
        let n = self.n_agents;
        *self = Self::new(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::apply_action;
    use ants_rng::derive_rng;

    fn find(agent: &mut HarmonicSearch, target: Point, cap: u64, seed: u64) -> Option<u64> {
        let mut rng = derive_rng(seed, 4);
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
    fn finds_targets_single_agent() {
        let mut agent = HarmonicSearch::new(1);
        assert!(find(&mut agent, Point::new(3, -4), 2_000_000, 1).is_some());
    }

    #[test]
    fn phases_advance_and_plots_shrink_with_n() {
        let one = HarmonicSearch::new(1);
        let many = HarmonicSearch::new(1024);
        assert!(one.plot_side() > many.plot_side());
    }

    #[test]
    fn cached_plot_side_tracks_the_phase() {
        let mut agent = HarmonicSearch::new(3);
        let mut rng = derive_rng(5, 0);
        while agent.phase() < 5 {
            let _ = agent.step(&mut rng);
            assert_eq!(agent.side, agent.plot_side(), "stale plot side at phase {}", agent.phase());
        }
        agent.reset();
        assert_eq!(agent.side, agent.plot_side());
    }

    #[test]
    fn scan_visits_full_plot() {
        // With n huge the plot is 1x1; with n = 1 and phase 1 it is 4x4.
        let mut agent = HarmonicSearch::new(1);
        assert_eq!(agent.plot_side(), 4);
        agent.phase_i = 3;
        assert_eq!(agent.plot_side(), 16);
    }

    #[test]
    fn memory_is_theta_log_d() {
        let mut agent = HarmonicSearch::new(4);
        let mut rng = derive_rng(2, 0);
        // Run until phase 6 (estimate 64).
        while agent.phase() < 6 {
            let _ = agent.step(&mut rng);
        }
        let sc = agent.selection_complexity();
        // Coordinates alone need 2 * 7 = 14 bits.
        assert!(sc.memory_bits() >= 14, "b = {}", sc.memory_bits());
        assert_eq!(sc.ell(), 1);
        // chi ~ b: linear in log D (the contrast with log log D).
        assert!(sc.chi() >= 14.0);
    }

    #[test]
    fn returns_to_origin_between_phases() {
        let mut agent = HarmonicSearch::new(2);
        let mut rng = derive_rng(3, 0);
        let mut pos = Point::ORIGIN;
        let mut phase_ends = 0;
        for _ in 0..200_000 {
            let a = agent.step(&mut rng);
            pos = apply_action(pos, a);
            if a == GridAction::Origin {
                assert_eq!(pos, Point::ORIGIN);
                phase_ends += 1;
            }
        }
        assert!(phase_ends >= 2, "saw {phase_ends} phase ends");
    }

    #[test]
    fn reset_restores_phase_one() {
        let mut agent = HarmonicSearch::new(2);
        let mut rng = derive_rng(4, 0);
        for _ in 0..100_000 {
            let _ = agent.step(&mut rng);
        }
        agent.reset();
        assert_eq!(agent.phase(), 1);
    }
}
