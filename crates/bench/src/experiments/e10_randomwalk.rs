//! E10 — the random-walk ceiling (the paper's ref.&nbsp;3, used as contrast):
//! `n` uniform random walkers speed search up by only `min{log n, D}`.
//!
//! Sweep `n`, measure median `M_moves` to a fixed near target, and compare
//! the measured speed-up to `ln n`.
//!
//! Implements [`Experiment`]; the `n` sweep fans across one pool via
//! [`run_sweep_with`].

use super::{Effort, Experiment, ExperimentMeta, Report, RunConfig, SweepConfig};
use ants_analysis::speedup;
use ants_core::baselines::RandomWalk;
use ants_grid::TargetPlacement;
use ants_sim::{run_sweep_with, run_trials, Scenario, SweepJob};

/// Identity and claim.
pub const META: ExperimentMeta = ExperimentMeta {
    key: "e10",
    id: "E10 (random-walk speed-up, paper ref [3])",
    claim: "n uniform random walkers achieve speed-up only min{log n, D}",
};

/// The E10 harness.
pub struct E10RandomWalk;

fn d_value(effort: Effort) -> u64 {
    effort.pick(6, 10)
}

fn n_values(effort: Effort) -> &'static [usize] {
    effort.pick(&[1, 8][..], &[1, 4, 16, 64, 256][..])
}

fn trials(effort: Effort) -> u64 {
    effort.pick(10, 50)
}

fn scenario(d: u64, n: usize) -> Scenario {
    Scenario::builder()
        .agents(n)
        .target(TargetPlacement::Ring { distance: d })
        .move_budget(d * d * d * 40 + 200_000) // generous tail room
        .strategy(|_| Box::new(RandomWalk::new()))
        .build()
}

/// Median moves for `n` random walkers to a ring target at distance `d`.
///
/// Medians, not means: the hitting time of a fixed site by a planar
/// random walk has *infinite* expectation (the walk is recurrent but
/// null-recurrent toward single sites), so sample means are
/// budget-truncation artifacts. The `min{log n, D}` speed-up claim is
/// about typical behaviour, which the median captures.
pub fn median_moves(d: u64, n: usize, trials: u64, seed: u64) -> f64 {
    run_trials(&scenario(d, n), trials, seed).summary().median_moves()
}

impl Experiment for E10RandomWalk {
    fn meta(&self) -> &ExperimentMeta {
        &META
    }

    fn config(&self, effort: Effort) -> SweepConfig {
        SweepConfig { cells: n_values(effort).len(), trials_per_cell: trials(effort) }
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let d = d_value(cfg.effort);
        let trials = trials(cfg.effort);
        let mut report = Report::new(
            &META,
            cfg,
            vec!["n", "D", "median moves", "speed-up", "ln n ceiling", "optimal (min{n, D})"],
        );
        report.param("D", d).param("trials", trials);
        // n = 1 is the speed-up baseline, swept like every other n.
        let base_seed = cfg.seed(0xE10_001);
        let jobs: Vec<SweepJob> = n_values(cfg.effort)
            .iter()
            .map(|&n| {
                let seed = if n == 1 { base_seed } else { base_seed ^ (n as u64) << 8 };
                SweepJob::new(scenario(d, n), trials, seed)
            })
            .collect();
        let outcomes = run_sweep_with(&jobs, &cfg.sweep_options());
        let baseline = n_values(cfg.effort)
            .iter()
            .position(|&n| n == 1)
            .expect("every effort level sweeps the n = 1 baseline");
        let t1 = outcomes[baseline].summary().median_moves();
        for (&n, outcome) in n_values(cfg.effort).iter().zip(&outcomes) {
            let tn = outcome.summary().median_moves();
            report.row(vec![
                n.into(),
                d.into(),
                tn.into(),
                (t1 / tn).into(),
                speedup::random_walk_ceiling(n as u64, d).max(1.0).into(),
                speedup::optimal_ceiling(n as u64, d).into(),
            ]);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_sublinear_in_n() {
        // 16 walkers vs 1 at d = 5 (medians): the claim is speed-up far
        // below n. ln 16 ~ 2.8; allow a generous band but require << 16.
        let d = 5;
        let t1 = median_moves(d, 1, 60, 1);
        let t16 = median_moves(d, 16, 60, 2);
        let sp = t1 / t16;
        assert!(sp < 13.0, "random-walk speed-up {sp} too close to linear");
        assert!(sp > 1.0, "more walkers should help at least a little: {sp}");
    }

    #[test]
    fn every_effort_sweeps_the_n1_baseline() {
        for effort in [Effort::Smoke, Effort::Standard] {
            assert!(n_values(effort).contains(&1), "{effort:?} lacks the n = 1 baseline");
        }
    }

    #[test]
    fn smoke_runs() {
        let r = E10RandomWalk.run(&RunConfig::smoke());
        assert_eq!(r.len(), 2);
        assert_eq!(r.len(), E10RandomWalk.config(Effort::Smoke).cells);
        // The n = 1 row's speed-up is 1 by construction.
        assert!((r.num(0, "speed-up") - 1.0).abs() < 1e-12);
    }
}
