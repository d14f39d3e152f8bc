//! E4 — Lemma 3.8: the distribution of `walk(k, ℓ, dir)`.
//!
//! Claims, per `(k, ℓ)`:
//! * `P[exactly i moves] ≥ 1/2^{kℓ+2}` for every `i ∈ {0, …, 2^{kℓ}}`;
//! * `P[at least 2^{kℓ} moves] ≥ 1/4`;
//! * `E[moves] < 2^{kℓ}`.
//!
//! Implements [`Experiment`]; the walk sampling is bespoke (no scenario
//! engine), so it hands the sweep pool batches of sample indices through
//! [`ants_sim::map_units`] instead of scenario jobs: per-sample seeds
//! are derived by index and the batches come back in canonical index
//! order, so the histogram is byte-identical at every thread count. Each
//! lemma check reports its measured value and its verdict in separate
//! typed columns.

use super::{Effort, Experiment, ExperimentMeta, Report, RunConfig, SweepConfig};
use ants_core::components::GeometricWalk;
use ants_grid::Direction;
use ants_rng::derive_rng;
use ants_sim::map_units;

/// Identity and claim.
pub const META: ExperimentMeta = ExperimentMeta {
    key: "e4",
    id: "E4 (Lemma 3.8)",
    claim: "walk(k,l): point masses >= 1/2^{kl+2} on 0..2^{kl}, tail P[>= 2^{kl}] >= 1/4, mean < 2^{kl}",
};

/// The E4 harness.
pub struct E4Walk;

fn cases(effort: Effort) -> &'static [(u32, u32)] {
    effort.pick(&[(2, 2)][..], &[(2, 2), (4, 1), (3, 2), (2, 4)][..])
}

fn trials(effort: Effort) -> u64 {
    effort.pick(30_000, 300_000)
}

/// Walk samples per pool unit: large enough that claiming a unit costs
/// nothing next to its walks, small enough to load-balance the standard
/// run's 300 000 samples.
const SAMPLE_BATCH: u64 = 1024;

/// One full walk's move count.
fn walk_length(k: u32, ell: u32, seed: u64) -> u64 {
    let mut walk = GeometricWalk::new(k, ell, Direction::Up).expect("valid parameters");
    let mut rng = derive_rng(seed, 0);
    let mut moves = 0u64;
    loop {
        let s = walk.step(&mut rng);
        if s.action().is_move() {
            moves += 1;
        }
        if s.is_finished() {
            return moves;
        }
    }
}

impl Experiment for E4Walk {
    fn meta(&self) -> &ExperimentMeta {
        &META
    }

    fn config(&self, effort: Effort) -> SweepConfig {
        SweepConfig { cells: cases(effort).len(), trials_per_cell: trials(effort) }
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let trials = trials(cfg.effort);
        let mut report = Report::new(
            &META,
            cfg,
            vec![
                "k",
                "l",
                "2^{kl}",
                "mean",
                "mean < 2^{kl}",
                "P[>= 2^{kl}]",
                "tail >= 1/4",
                "min mass x 2^{kl+2}",
                "masses >= 1",
            ],
        );
        report.param("trials", trials);
        let opts = cfg.sweep_options();
        for &(k, ell) in cases(cfg.effort) {
            let bound = 1u64 << (k * ell);
            let mut counts = vec![0u64; bound as usize + 1];
            let mut total = 0u64;
            let mut tail = 0u64;
            // Sample the walk lengths across the pool, one batch of
            // sample indices per unit; the fold below is in canonical
            // sample order (and commutative anyway), so the histogram is
            // identical at every thread count.
            let batches: Vec<std::ops::Range<u64>> = (0..trials)
                .step_by(SAMPLE_BATCH as usize)
                .map(|lo| lo..(lo + SAMPLE_BATCH).min(trials))
                .collect();
            let lengths = map_units(&batches, &opts, |batch| {
                batch
                    .clone()
                    .map(|s| {
                        walk_length(
                            k,
                            ell,
                            cfg.seed(0xE4_0000 ^ s ^ ((k as u64) << 40) ^ ((ell as u64) << 48)),
                        )
                    })
                    .collect::<Vec<u64>>()
            });
            for m in lengths.into_iter().flatten() {
                total += m;
                if m >= bound {
                    tail += 1;
                }
                if m <= bound {
                    counts[m as usize] += 1;
                }
            }
            let mean = total as f64 / trials as f64;
            let tail_p = tail as f64 / trials as f64;
            let min_mass =
                counts.iter().map(|&c| c as f64 / trials as f64).fold(f64::INFINITY, f64::min);
            let scaled_mass = min_mass * (4 * bound) as f64;
            report.row(vec![
                k.into(),
                ell.into(),
                bound.into(),
                mean.into(),
                (mean < bound as f64).into(),
                tail_p.into(),
                (tail_p >= 0.24).into(),
                scaled_mass.into(),
                (scaled_mass >= 0.9).into(),
            ]);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lemma_checks_pass() {
        let r = E4Walk.run(&RunConfig::smoke());
        assert_eq!(r.len(), E4Walk.config(Effort::Smoke).cells);
        assert!(r.all_checks_pass(), "a Lemma 3.8 check failed:\n{r}");
    }

    #[test]
    fn mean_is_exactly_geometric() {
        // p = 1/16: mean = 15.
        let trials = 50_000u64;
        let total: u64 = (0..trials).map(|s| walk_length(2, 2, s)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 15.0).abs() < 0.5, "mean {mean}");
    }
}
