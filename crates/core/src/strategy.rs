//! The step-wise agent interface.

use crate::selection::SelectionComplexity;
use ants_automaton::GridAction;
use ants_grid::Point;
use ants_rng::DefaultRng;

/// A search strategy: the behaviour of one agent, advanced one
/// Markov-chain transition at a time.
///
/// Semantics follow the paper's model (Section 2):
///
/// * each [`step`](SearchStrategy::step) call is one *step* (`M_steps`);
/// * a returned [`GridAction::Move`] is one *move* (`M_moves`);
/// * [`GridAction::Origin`] teleports the agent to the origin via the
///   return oracle (not counted as moves);
/// * [`GridAction::None`] is local computation.
///
/// Strategies are position-oblivious: the simulator owns the position
/// (apply actions with [`apply_action`]). Strategies that *internally*
/// track coordinates (e.g. spiral search) pay for it in declared memory —
/// that is precisely the selection-complexity accounting the paper makes.
///
/// The trait is object-safe; the simulator works with
/// `Box<dyn SearchStrategy>` so heterogeneous strategy zoos (experiment
/// E9) are possible.
pub trait SearchStrategy: Send {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Advance one step and return the action performed.
    fn step(&mut self, rng: &mut DefaultRng) -> GridAction;

    /// Advance a *run*: up to `max_steps` consecutive steps that all
    /// return the same action, in one call. Returns `(action, n)` with
    /// `1 <= n <= max_steps.max(1)`.
    ///
    /// The contract, which lets a simulator apply the run as one
    /// axis-aligned segment:
    ///
    /// * the run is exactly the next `n` [`step`](SearchStrategy::step)
    ///   calls: each returns `action`, the run draws the same RNG words in
    ///   the same order, and it leaves the strategy in the same state (a
    ///   strategy that must look ahead at a coin flip to end its run peeks
    ///   at the generator and leaves the flip undrawn);
    /// * the run never crosses a change in the footprint:
    ///   [`selection_complexity`](SearchStrategy::selection_complexity)
    ///   after each of the `n` steps equals its value after the last;
    /// * [`is_halted`](SearchStrategy::is_halted) is `false` after each of
    ///   the first `n − 1` steps.
    ///
    /// The default is one [`step`](SearchStrategy::step). Strategies
    /// whose moves come in straight runs (geometric walks, Lévy legs,
    /// straight scans) override it and [`emits_runs`](SearchStrategy::emits_runs).
    fn step_run(&mut self, rng: &mut DefaultRng, max_steps: u64) -> (GridAction, u64) {
        let _ = max_steps;
        (self.step(rng), 1)
    }

    /// Can [`step_run`](SearchStrategy::step_run) return runs longer than
    /// one step? The simulator reads this once per agent to choose between
    /// its per-step and its per-run loop; the default `false` keeps
    /// strategies without runs on the per-step loop, which is faster for
    /// them.
    fn emits_runs(&self) -> bool {
        false
    }

    /// The current selection-complexity footprint `(b, ℓ)`.
    ///
    /// For phase-based algorithms this may grow over time (the uniform
    /// algorithm's counters widen as its distance estimate doubles); the
    /// value reported is the footprint of the *current* phase, and the
    /// simulator tracks the running maximum.
    fn selection_complexity(&self) -> SelectionComplexity;

    /// Is [`selection_complexity`](SearchStrategy::selection_complexity)
    /// constant over the strategy's whole lifetime — a pure function of
    /// construction parameters, unaffected by steps, resets, and aborts?
    ///
    /// Fixed automata and fixed-parameter walks return `true`; the
    /// simulator then knows the running-max footprint without sampling it
    /// after every move (speculative agent chunks otherwise record a
    /// per-move breakpoint curve so their footprints can be rewound to an
    /// earlier cap). The default `false` is always safe, merely slower.
    fn selection_complexity_is_static(&self) -> bool {
        false
    }

    /// Restart from the initial state (new agent, fresh memory).
    fn reset(&mut self);

    /// Abandon the current origin-to-origin excursion ("guess").
    ///
    /// The simulator calls this when a scenario's per-guess move-budget
    /// ceiling trips (see `ScenarioBuilder::guess_move_ceiling` in
    /// `ants-sim`): the agent has been teleported home by the return
    /// oracle and should start its next attempt. Phase-based strategies
    /// override this to keep their phase progress; the default is a full
    /// [`reset`](SearchStrategy::reset), which is always model-legal (an
    /// agent may forget everything) and correct for memoryless baselines.
    fn abort_guess(&mut self) {
        self.reset();
    }

    /// Has the strategy permanently stopped acting (every future step
    /// returns [`GridAction::None`] without consuming randomness)?
    ///
    /// Finite-lifetime wrappers (`Mortal`, `Expiring`) override this so
    /// move-bounded simulation loops can stop instead of spinning on an
    /// agent that will never move again. [`reset`](SearchStrategy::reset)
    /// revives a halted strategy; [`abort_guess`](SearchStrategy::abort_guess)
    /// need not. The default — immortal strategies — is `false` forever.
    fn is_halted(&self) -> bool {
        false
    }
}

/// Apply a strategy's action to a position, per the model's semantics.
///
/// ```
/// use ants_core::apply_action;
/// use ants_automaton::GridAction;
/// use ants_grid::{Direction, Point};
///
/// let p = apply_action(Point::ORIGIN, GridAction::Move(Direction::Up));
/// assert_eq!(p, Point::new(0, 1));
/// assert_eq!(apply_action(p, GridAction::Origin), Point::ORIGIN);
/// assert_eq!(apply_action(p, GridAction::None), p);
/// ```
pub fn apply_action(pos: Point, action: GridAction) -> Point {
    match action {
        GridAction::Move(d) => pos.step(d),
        GridAction::Origin => Point::ORIGIN,
        GridAction::None => pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_grid::Direction;

    #[test]
    fn apply_action_semantics() {
        let p = Point::new(2, 3);
        assert_eq!(apply_action(p, GridAction::Move(Direction::Left)), Point::new(1, 3));
        assert_eq!(apply_action(p, GridAction::Origin), Point::ORIGIN);
        assert_eq!(apply_action(p, GridAction::None), p);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_boxed(_: Box<dyn SearchStrategy>) {}
    }

    #[test]
    fn default_abort_guess_is_a_reset() {
        struct Dummy {
            resets: u32,
        }
        impl SearchStrategy for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn step(&mut self, _rng: &mut DefaultRng) -> GridAction {
                GridAction::None
            }
            fn selection_complexity(&self) -> SelectionComplexity {
                SelectionComplexity::new(0, 0)
            }
            fn reset(&mut self) {
                self.resets += 1;
            }
        }
        let mut d = Dummy { resets: 0 };
        d.abort_guess();
        assert_eq!(d.resets, 1, "default abort_guess must delegate to reset");
    }
}
