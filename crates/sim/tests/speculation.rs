//! The speculation-tax battery.
//!
//! PR 3 measured agent-chunked execution redoing ~3.3x the serial work on
//! E9 at chunk 8: speculative chunks could not see earlier chunks' finds,
//! so their early caps started at the full move budget. The shared
//! [`CapHint`] closes that gap. These tests pin both directions:
//!
//! * without the hint, chunked execution on an E9-style cell really does
//!   pay a tax well above the 1.3x acceptance bound (so the cell is a
//!   meaningful probe, not a vacuously easy one), and
//! * with the hint, a forced agent-chunk sweep at chunk 8 performs less
//!   than 1.3x the serial work — measured through the scheduler's own
//!   work probe, deterministically, on a single worker draining units in
//!   canonical order (concurrent workers only move the stop points
//!   between the serial and unhinted extremes).

use ants_core::NonUniformSearch;
use ants_grid::TargetPlacement;
use ants_sim::{
    run_sweep_with, run_trials_serial, Granularity, Scenario, SweepJob, SweepOptions, TrialPlan,
};

/// An E9-style cell: many agents on a heavy budget, where trials cannot
/// fill a pool on their own and agent-chunking is the only parallelism.
fn e9_style_scenario() -> Scenario {
    Scenario::builder()
        .agents(64)
        .target(TargetPlacement::UniformInBall { distance: 12 })
        .move_budget(120_000)
        .strategy(|_| Box::new(NonUniformSearch::new(12).expect("valid D")))
        .build()
}

const SEED: u64 = 0xE9;
const TRIALS: u64 = 2;

/// Total steps over a sweep of the cell, measured by the scheduler's
/// probe, forced to agent granularity at the given chunk size on one
/// worker (deterministic: units drain in canonical order).
fn probed_work(chunk: usize) -> u64 {
    use ants_sim::Probe;

    let jobs = vec![SweepJob::new(e9_style_scenario(), TRIALS, SEED)];
    let probe = Probe::new();
    let opts = SweepOptions::with_threads(Some(1))
        .granularity(Granularity::Agent)
        .chunk(chunk)
        .with_probe(probe.clone());
    let outcomes = run_sweep_with(&jobs, &opts);
    assert_eq!(
        outcomes[0].trials(),
        run_trials_serial(&jobs[0].scenario, TRIALS, SEED).trials(),
        "chunk {chunk} sweep diverged from the serial reference"
    );
    let work = probe.work();
    assert!(work > 0, "probe recorded no work at chunk {chunk}");
    work
}

/// The acceptance bound: an E9-style forced agent-chunk sweep at chunk 8
/// performs < 1.3x the serial work. A chunk spanning all agents has
/// serial caps by construction, so it is the work baseline; the hinted
/// chunk-8 sweep must land within 30% of it.
#[test]
fn hinted_chunked_sweep_work_is_near_serial() {
    let serial = probed_work(64);
    let chunked = probed_work(8);
    eprintln!(
        "hinted chunk-8 work ratio: {:.3} ({chunked} / {serial} steps)",
        chunked as f64 / serial as f64
    );
    assert!(
        chunked * 10 < serial * 13,
        "chunk-8 work {chunked} exceeds 1.3x serial work {serial} (ratio {:.2})",
        chunked as f64 / serial as f64
    );
}

/// The guard that keeps the acceptance test honest: on the same cell the
/// *unhinted* chunk-8 path (every chunk fully speculative, as the
/// pre-hint scheduler ran it) pays well over the 1.3x bound. If this
/// starts failing, the cell no longer exhibits the tax and the test
/// above proves nothing — pick a harder cell.
#[test]
fn unhinted_chunked_work_pays_the_tax() {
    let s = e9_style_scenario();
    let mut serial = 0u64;
    let mut unhinted = 0u64;
    for trial_seed in [SEED, SEED ^ 1] {
        let whole = TrialPlan::new(&s, trial_seed, s.n_agents());
        serial += whole.run_chunk(0).work();
        let plan = TrialPlan::new(&s, trial_seed, 8);
        unhinted += (0..plan.n_chunks()).map(|c| plan.run_chunk(c).work()).sum::<u64>();
    }
    eprintln!(
        "unhinted chunk-8 work ratio: {:.3} ({unhinted} / {serial} steps)",
        unhinted as f64 / serial as f64
    );
    assert!(
        unhinted * 10 > serial * 13,
        "unhinted chunk-8 work {unhinted} vs serial {serial} (ratio {:.2}): \
         the cell no longer exhibits a speculation tax",
        unhinted as f64 / serial as f64
    );
}
