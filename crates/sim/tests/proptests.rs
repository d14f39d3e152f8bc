//! Property-based tests for the simulation engine.

use ants_core::baselines::{Expiring, HarmonicSearch, LevyWalk, RandomWalk, SpiralSearch};
use ants_core::{CoinNonUniformSearch, NonUniformSearch, SearchStrategy, UniformSearch};
use ants_grid::{Point, Rect, TargetPlacement};
use ants_rng::Rng64;
use ants_sim::{
    coverage, run_trial, run_trials, AgentStepper, RoundExecutor, Scenario, StepOutcome,
};
use proptest::prelude::*;

fn scenario(n: usize, d: u64, budget: u64, spiral: bool) -> Scenario {
    let b = Scenario::builder()
        .agents(n)
        .target(TargetPlacement::UniformInBall { distance: d })
        .move_budget(budget);
    if spiral {
        b.strategy(|_| Box::new(SpiralSearch::new())).build()
    } else {
        b.strategy(|_| Box::new(RandomWalk::new())).build()
    }
}

/// Strategies that advance in runs, plus a per-step control.
fn run_strategy(kind: u8, d: u64) -> Box<dyn SearchStrategy> {
    match kind % 7 {
        0 => Box::new(NonUniformSearch::new(d).expect("valid")),
        1 => Box::new(CoinNonUniformSearch::new(d, 2).expect("valid")),
        2 => Box::new(UniformSearch::new(1, 4, 2).expect("valid")),
        3 => Box::new(HarmonicSearch::new(4)),
        4 => Box::new(LevyWalk::new(2.0, 64)),
        5 => Box::new(Expiring::new(Box::new(NonUniformSearch::new(d).expect("valid")), 3_000)),
        _ => Box::new(RandomWalk::new()),
    }
}

/// A one-agent scenario running `run_strategy(kind, d)`. The ball
/// placement accepts any ceiling; tests hand the stepper its target.
fn run_scenario(kind: u8, d: u64, ceiling: Option<u64>) -> Scenario {
    let b = Scenario::builder()
        .agents(1)
        .target(TargetPlacement::UniformInBall { distance: 50 })
        .move_budget(1_000_000)
        .strategy(move |_| run_strategy(kind, d));
    match ceiling {
        Some(c) => b.guess_move_ceiling(c).build(),
        None => b.build(),
    }
}

/// Advance `by_run` one run of at most `max` transitions and `by_step`
/// one transition at a time through the same transitions. They must
/// agree on the run's last outcome and on all stepper state, and no
/// transition before the last may find the target or abort the guess.
fn check_run(by_run: &mut AgentStepper, by_step: &mut AgentStepper, max: u64) -> StepOutcome {
    let out = by_run.step_run(max);
    let taken = by_run.steps() - by_step.steps();
    assert!((1..=max.max(1)).contains(&taken), "run of {taken} at max {max}");
    for i in 1..=taken {
        let step = by_step.step();
        if i < taken {
            assert_eq!(step.action, out.action, "transition {i} of {taken}");
            assert!(!step.found && !step.aborted, "transition {i} of {taken} ended the run");
        } else {
            assert_eq!(step, out, "last transition of {taken}");
        }
    }
    assert_eq!(by_run.pos(), by_step.pos());
    assert_eq!(by_run.moves(), by_step.moves());
    assert_eq!(by_run.found_at(), by_step.found_at());
    assert_eq!(by_run.chi(), by_step.chi());
    out
}

/// A run bound: mostly short, sometimes 1 or unbounded.
fn pick_max(pick: &mut impl Rng64) -> u64 {
    match pick.next_below(8) {
        0 => u64::MAX,
        1 => 1,
        _ => 1 + pick.next_below(80),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `AgentStepper::step_run(max)` equals at most `max` `step()` calls,
    /// for random targets, guess ceilings and run bounds — also after a
    /// find, when the stepper keeps going.
    #[test]
    fn stepper_step_run_is_repeated_step(
        kind in any::<u8>(),
        d in 2u64..200,
        tx in -40i64..41,
        ty in -40i64..41,
        ceiling in 0u64..300,
        seed in any::<u64>(),
    ) {
        let target = if (tx, ty) == (0, 0) { Point::new(1, 0) } else { Point::new(tx, ty) };
        let s = run_scenario(kind, d, (ceiling >= 2).then_some(ceiling));
        let mut by_run = AgentStepper::for_scenario(&s, seed, Some(target), 0);
        let mut by_step = AgentStepper::for_scenario(&s, seed, Some(target), 0);
        let mut pick = ants_rng::derive_rng(seed, 5);
        for _ in 0..3_000 {
            check_run(&mut by_run, &mut by_step, pick_max(&mut pick));
        }
    }

    /// A target on a run's first, middle or last cell stops the run
    /// there: the stepper cuts runs on the target's line at the target.
    /// The run is found target-blind first, then replayed with the target
    /// on it.
    #[test]
    fn stepper_runs_stop_on_the_target(
        kind in 0u8..6,
        seed in any::<u64>(),
        which in 0u8..3,
    ) {
        let s = run_scenario(kind, 64, None);
        let mut blind = AgentStepper::for_scenario(&s, seed, None, 0);
        let mut pick = ants_rng::derive_rng(seed, 6);
        let mut target = None;
        for _ in 0..20_000 {
            let start = blind.pos();
            let out = blind.step_run(pick_max(&mut pick));
            let len = out.pos_after_move.dist_l1(&start);
            if let (ants_core::GridAction::Move(d), true) = (out.action, len >= 3) {
                let j = [1, len / 2, len][which as usize];
                let t = start.step_by(d, j);
                if t != Point::ORIGIN {
                    target = Some(t);
                    break;
                }
            }
        }
        let target = target.expect("a run of at least three moves");
        let mut by_run = AgentStepper::for_scenario(&s, seed, Some(target), 0);
        let mut by_step = AgentStepper::for_scenario(&s, seed, Some(target), 0);
        let mut pick = ants_rng::derive_rng(seed, 6);
        while by_run.found_at().is_none() {
            check_run(&mut by_run, &mut by_step, pick_max(&mut pick));
        }
        prop_assert_eq!(by_run.pos(), target);
    }

    /// A trial is a pure function of its seed.
    #[test]
    fn trials_pure_in_seed(
        n in 1usize..6,
        d in 1u64..20,
        seed in any::<u64>(),
        spiral in any::<bool>(),
    ) {
        let s = scenario(n, d, 50_000, spiral);
        prop_assert_eq!(run_trial(&s, seed), run_trial(&s, seed));
    }

    /// If the target is found, the winner index is valid and the move
    /// count respects the budget.
    #[test]
    fn results_well_formed(
        n in 1usize..6,
        d in 1u64..16,
        seed in any::<u64>(),
    ) {
        let s = scenario(n, d, 20_000, true);
        let r = run_trial(&s, seed);
        prop_assert!(s.target().region().contains(&r.target));
        if let (Some(m), Some(st), Some(w)) = (r.moves, r.steps, r.winner) {
            prop_assert!(m <= 20_000);
            prop_assert!(st >= m, "steps {st} < moves {m}");
            prop_assert!(w < n);
        } else {
            prop_assert_eq!(r.moves, None);
            prop_assert_eq!(r.steps, None);
            prop_assert_eq!(r.winner, None);
        }
    }

    /// The spiral covers the ball deterministically: a uniform target at
    /// distance <= d is ALWAYS found within (2d+1)^2 + O(d) moves.
    #[test]
    fn spiral_always_finds_within_area_budget(
        d in 1u64..24,
        seed in any::<u64>(),
    ) {
        let budget = (2 * d + 1) * (2 * d + 1) + 4 * d + 4;
        let s = scenario(1, d, budget, true);
        let r = run_trial(&s, seed);
        prop_assert!(r.found(), "spiral missed target {} at budget {budget}", r.target);
    }

    /// run_trials is deterministic and independent of how many trials
    /// precede a given one (seeds are pre-derived).
    #[test]
    fn run_trials_prefix_stable(seed in any::<u64>()) {
        let s = scenario(2, 8, 30_000, false);
        let five = run_trials(&s, 5, seed);
        let ten = run_trials(&s, 10, seed);
        prop_assert_eq!(five.trials(), &ten.trials()[..5]);
    }

    /// Coverage measurement: distinct cells never exceed steps + 1 per
    /// agent, and coverage is monotone in the number of agents.
    #[test]
    fn coverage_bounds(
        n in 1usize..5,
        steps in 1u64..400,
        seed in any::<u64>(),
    ) {
        let f: ants_sim::StrategyFactory = Box::new(|_| Box::new(RandomWalk::new()));
        let rep = coverage::measure(&f, n, steps, Rect::ball(30), seed);
        prop_assert!(rep.grid.distinct() as u64 <= n as u64 * (steps + 1));
        prop_assert_eq!(rep.steps_per_agent, steps);
    }

    /// The synchronous executor and the fast path agree on whether a
    /// deterministic strategy finds the target.
    #[test]
    fn round_executor_agrees_with_fast_path(
        d in 1u64..12,
        seed in any::<u64>(),
    ) {
        let s = scenario(1, d, 4_000, true);
        let fast = run_trial(&s, seed);
        let mut sync = RoundExecutor::new(&s, seed);
        let found = sync.run(4_000);
        prop_assert_eq!(fast.steps, found);
        prop_assert_eq!(sync.target(), fast.target);
    }

    /// Summary statistics are internally consistent.
    #[test]
    fn summary_consistency(seed in any::<u64>(), trials in 1u64..20) {
        let s = scenario(2, 6, 30_000, true);
        let sum = run_trials(&s, trials, seed).summary();
        prop_assert_eq!(sum.trials(), trials);
        prop_assert!(sum.found() <= trials);
        prop_assert!((0.0..=1.0).contains(&sum.success_rate()));
        if sum.found() > 0 {
            prop_assert!(sum.mean_moves() > 0.0);
            prop_assert!(sum.median_moves() > 0.0);
            prop_assert!(sum.mean_steps() >= sum.mean_moves());
        }
    }
}

/// A guess ceiling below the walks' typical length cuts runs at the
/// ceiling: the abort lands on a run's last move, and the stepper agrees
/// with per-step stepping through it.
#[test]
fn stepper_ceiling_aborts_on_a_runs_last_move() {
    let s = run_scenario(0, 1 << 10, Some(5));
    let mut by_run = AgentStepper::for_scenario(&s, 7, Some(Point::new(300, 300)), 0);
    let mut by_step = AgentStepper::for_scenario(&s, 7, Some(Point::new(300, 300)), 0);
    let mut aborts = 0;
    for _ in 0..2_000 {
        let out = check_run(&mut by_run, &mut by_step, u64::MAX);
        if out.aborted && out.moved {
            aborts += 1;
            assert_eq!(by_run.pos(), Point::ORIGIN);
        }
    }
    assert!(aborts > 10, "a 5-move ceiling must cut long walks, saw {aborts} aborts");
}

/// Non-proptest regression: the engine's early-cap optimisation does not
/// change the minimum (brute-force comparison on a small instance).
#[test]
fn early_cap_preserves_minimum() {
    let d = 6u64;
    let n = 4usize;
    let budget = 200_000u64;
    let s = Scenario::builder()
        .agents(n)
        .target(TargetPlacement::Corner { distance: d })
        .move_budget(budget)
        .strategy(move |_| Box::new(NonUniformSearch::new(d).unwrap()))
        .build();
    for seed in 0..10u64 {
        let fast = run_trial(&s, seed);
        // Brute force: run every agent to the full budget independently.
        let mut best: Option<u64> = None;
        let mut target_rng = ants_rng::derive_rng(seed, u64::MAX);
        let target = s.target().place(&mut target_rng);
        for agent in 0..n {
            let mut strat = s.make_strategy(agent);
            let mut rng = ants_rng::derive_rng(seed, agent as u64);
            let mut pos = ants_grid::Point::ORIGIN;
            let mut moves = 0u64;
            while moves < budget {
                let a = ants_core::SearchStrategy::step(&mut *strat, &mut rng);
                if a.is_move() {
                    moves += 1;
                }
                pos = ants_core::apply_action(pos, a);
                if pos == target {
                    best = Some(best.map_or(moves, |b: u64| b.min(moves)));
                    break;
                }
            }
        }
        assert_eq!(fast.moves, best, "seed {seed}: early-cap changed the minimum");
        assert_eq!(fast.target, target);
    }
}
