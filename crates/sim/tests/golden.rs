//! Golden end-to-end determinism test.
//!
//! `run_trials` on a fixed [`Scenario`] + seed must reproduce *byte-identical*
//! results across runs, across thread counts, and against the
//! single-threaded `run_trials_serial` reference. The pinned
//! constants below freeze two contracts:
//!
//! 1. the seed-derivation contract of `ants_rng::derive_rng` (trial seed +
//!    stream index -> PRNG stream), and
//! 2. the trial semantics of the engine (target placement from stream
//!    `u64::MAX`, agents on streams `0..n`, early-cap minimum).
//!
//! If either changes, every number below shifts and this test names the
//! contract that was broken. Update the constants only for a *deliberate*
//! break of reproducibility (and say so in the changelog).

use ants_core::{NonUniformSearch, SelectionComplexity, UniformSearch};
use ants_grid::{Point, TargetPlacement};
use ants_rng::{derive_rng, Rng64};
use ants_sim::{
    run_sweep_with, run_trial, run_trials, run_trials_serial, Granularity, Scenario, SweepJob,
    SweepOptions, TrialPlan,
};

fn golden_scenario() -> Scenario {
    Scenario::builder()
        .agents(4)
        .target(TargetPlacement::UniformInBall { distance: 12 })
        .move_budget(500_000)
        .strategy(|_| Box::new(NonUniformSearch::new(12).expect("valid D")))
        .build()
}

const GOLDEN_SEED: u64 = 0xA2755;
const GOLDEN_TRIALS: u64 = 24;

/// The seed-derivation contract: fixed (base, index) pairs map to fixed
/// streams forever.
#[test]
fn derive_rng_streams_are_pinned() {
    let mut agent0 = derive_rng(42, 0);
    assert_eq!(agent0.next_u64(), 0xd076_4d4f_4476_689f);
    assert_eq!(agent0.next_u64(), 0x519e_4174_576f_3791);
    // Stream u64::MAX is reserved for target placement.
    let mut target = derive_rng(42, u64::MAX);
    assert_eq!(target.next_u64(), 0x0509_a203_b52e_ef11);
}

/// Trial-level goldens: the first trials of the fixed scenario, byte for
/// byte (target draw, minimum move/step counts, winning agent).
#[test]
fn golden_trials_are_pinned() {
    let outcome = run_trials(&golden_scenario(), GOLDEN_TRIALS, GOLDEN_SEED);
    let expected: [(Point, u64, u64, usize); 6] = [
        (Point::new(5, 5), 346, 414, 2),
        (Point::new(12, -1), 720, 878, 2),
        (Point::new(-6, -3), 2286, 2739, 2),
        (Point::new(4, -1), 280, 343, 3),
        (Point::new(-4, -9), 437, 510, 2),
        (Point::new(-4, 3), 338, 401, 0),
    ];
    for (i, (target, moves, steps, winner)) in expected.into_iter().enumerate() {
        let t = &outcome.trials()[i];
        assert_eq!(t.target, target, "trial {i}: target drifted");
        assert_eq!(t.moves, Some(moves), "trial {i}: moves drifted");
        assert_eq!(t.steps, Some(steps), "trial {i}: steps drifted");
        assert_eq!(t.winner, Some(winner), "trial {i}: winner drifted");
    }
    let sum = outcome.summary();
    assert_eq!(sum.found(), 24);
    assert_eq!(sum.mean_moves(), 772.541_666_666_666_5);
    assert_eq!(sum.mean_steps(), 907.583_333_333_333_3);
    assert_eq!(sum.median_moves(), 508.0);
}

/// A phase-based smoke scenario for the agent-level goldens: the uniform
/// searcher's footprint grows over its lifetime and shrinks on guess
/// aborts, so these pins exercise exactly the part of the chunked
/// reduction (speculative caps + footprint rewind) that trial-level
/// execution never touches.
fn agent_level_scenario() -> Scenario {
    Scenario::builder()
        .agents(6)
        .target(TargetPlacement::UniformInBall { distance: 8 })
        .move_budget(200_000)
        .guess_move_ceiling(2_000)
        .strategy(|_| Box::new(UniformSearch::new(1, 4, 2).expect("valid")))
        .build()
}

const AGENT_GOLDEN_SEED: u64 = 0xC0FFEE;

/// Agent-level goldens: chunked trial plans on the smoke scenario, byte
/// for byte — including the chi footprint, which is where a chunked
/// engine would drift first (a speculative chunk steps an agent past its
/// serial stop and must rewind the footprint exactly).
#[test]
fn golden_agent_level_outcomes_are_pinned() {
    let s = agent_level_scenario();
    let expected: [(Point, u64, u64, usize, u32, u32); 4] = [
        (Point::new(4, 2), 53, 143, 5, 12, 1),
        (Point::new(-6, -2), 74, 182, 3, 13, 1),
        (Point::new(0, -5), 12, 54, 2, 12, 1),
        (Point::new(-1, 8), 38_829, 79_025, 2, 15, 1),
    ];
    for (i, (target, moves, steps, winner, b, ell)) in expected.into_iter().enumerate() {
        let seed = AGENT_GOLDEN_SEED ^ i as u64;
        let reference = run_trial(&s, seed);
        for chunk in [1usize, 2, 3, 4, 6, 7] {
            let t = TrialPlan::new(&s, seed, chunk).run();
            assert_eq!(t.target, target, "trial {i} chunk {chunk}: target drifted");
            assert_eq!(t.moves, Some(moves), "trial {i} chunk {chunk}: moves drifted");
            assert_eq!(t.steps, Some(steps), "trial {i} chunk {chunk}: steps drifted");
            assert_eq!(t.winner, Some(winner), "trial {i} chunk {chunk}: winner drifted");
            assert_eq!(
                t.chi_footprint,
                SelectionComplexity::new(b, ell),
                "trial {i} chunk {chunk}: chi footprint drifted"
            );
            assert_eq!(t, reference, "trial {i} chunk {chunk}: diverged from run_trial");
        }
    }
}

/// The sweep scheduler reproduces the agent-level goldens at every
/// granularity and thread count.
#[test]
fn golden_sweep_is_granularity_invariant() {
    let jobs = vec![SweepJob::new(agent_level_scenario(), 4, AGENT_GOLDEN_SEED)];
    let reference = run_trials_serial(&jobs[0].scenario, 4, AGENT_GOLDEN_SEED);
    for threads in [1usize, 2, 4] {
        for granularity in [Granularity::Auto, Granularity::Trial, Granularity::Agent] {
            let opts = SweepOptions::with_threads(Some(threads)).granularity(granularity).chunk(2);
            let outcomes = run_sweep_with(&jobs, &opts);
            assert_eq!(
                outcomes[0].trials(),
                reference.trials(),
                "sweep diverged at threads {threads}, granularity {granularity:?}"
            );
        }
    }
}

/// Repeat runs and the serial reference implementation agree exactly:
/// the pooled `run_trials` against the single-threaded reference.
#[test]
fn run_trials_matches_serial_reference() {
    let s = golden_scenario();
    let a = run_trials(&s, GOLDEN_TRIALS, GOLDEN_SEED);
    let b = run_trials(&s, GOLDEN_TRIALS, GOLDEN_SEED);
    let serial = run_trials_serial(&s, GOLDEN_TRIALS, GOLDEN_SEED);
    assert_eq!(a.trials(), b.trials(), "run_trials is not repeatable");
    assert_eq!(a.trials(), serial.trials(), "pooled and serial runs diverge");
    let (sa, ss) = (a.summary(), serial.summary());
    assert_eq!(sa.mean_moves(), ss.mean_moves());
    assert_eq!(sa.mean_steps(), ss.mean_steps());
    assert_eq!(sa.success_rate(), ss.success_rate());
}
