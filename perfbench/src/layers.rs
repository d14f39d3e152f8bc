//! Per-layer readings shared by every workload: the `sim` and `dp`
//! layers from telemetry deltas, plus the `rng`/`core`/`automaton`
//! unit-cost probes.

use crate::{probes, Sheet};
use ants_obs::{Counter, Phase, Snapshot};

/// Telemetry deltas of the traced passes (all at `nproc` workers: the
/// one-thread sweep takes a serial path that records no telemetry).
#[derive(Default)]
pub struct Traced {
    /// Sum of the per-pass deltas.
    pub tn: Snapshot,
    pub tn_passes: usize,
}

impl Traced {
    pub fn add(&mut self, delta: Snapshot) {
        self.tn = self.tn.merge(&delta);
        self.tn_passes += 1;
    }

    /// Milliseconds per `nproc` pass spent in `phases`.
    pub fn phase_ms(&self, phases: &[Phase]) -> f64 {
        let ns: u64 = phases.iter().map(|p| self.tn.phase_ns[*p as usize]).sum();
        ns as f64 / 1e6 / self.tn_passes.max(1) as f64
    }

    /// The `sim.*` (but `sim.sweep_ms`, `sim.observe_ms` and
    /// `sim.engine_steps`) and `dp.*` (but `dp.cell_ms.*`) metrics, and
    /// the unit-cost probes.
    pub fn put(&self, sheet: &mut Sheet, nproc: usize) {
        let per_pass = |c: Counter| self.tn.counter(c) as f64 / self.tn_passes.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let n = self.tn_passes;
        sheet.put("sim.plan_ms", self.phase_ms(&[Phase::Plan]), n);
        sheet.put("sim.execute_ms", self.phase_ms(&[Phase::Execute]), n);
        sheet.put("sim.reduce_ms", self.phase_ms(&[Phase::Reduce]), n);
        let steps = self.tn.counter(Counter::EngineSteps);
        let busy = self.tn.counter(Counter::PoolBusyNs);
        sheet.put("sim.steps_per_s", ratio(steps, busy) * 1e9, n);
        sheet.put(
            "sim.hint_saved_per_step",
            ratio(self.tn.counter(Counter::HintStepsSaved), steps),
            n,
        );
        sheet.put("sim.pool_units", per_pass(Counter::PoolUnits), n);
        sheet.put("sim.pool_reduces", per_pass(Counter::PoolReduces), n);
        sheet.put(
            "sim.pool_busy_share",
            ratio(busy, busy + self.tn.counter(Counter::PoolIdleNs)),
            n,
        );
        let workers: Vec<f64> = (0..nproc)
            .map(|w| self.tn.worker_busy_ns.get(w).copied().unwrap_or(0) as f64)
            .collect();
        let mean = workers.iter().sum::<f64>() / nproc as f64;
        let max = workers.iter().copied().fold(0.0, f64::max);
        sheet.put("sim.worker_busy_imbalance", if mean > 0.0 { max / mean } else { 0.0 }, n);
        sheet.put("dp.solve_ms", self.phase_ms(&[Phase::DpSolve]), n);
        sheet.put("dp.curve_solves", per_pass(Counter::DpMemoMisses), n);
        let hits = self.tn.counter(Counter::DpMemoHits);
        sheet.put(
            "dp.memo_hit_ratio",
            ratio(hits, hits + self.tn.counter(Counter::DpMemoMisses)),
            n,
        );
        for (name, ns) in probes::unit_costs() {
            sheet.put(name, ns, probes::BATCHES);
        }
    }
}
