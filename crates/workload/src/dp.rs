//! The bridge from planned cells to the exact backend: a
//! [`PlannedCell`] with `backend = "dp"` maps onto an
//! [`ants_dp::DpRequest`] — kernels built from the resolved zoo
//! entries, the target placement enumerated into its weighted support,
//! and the spec's observation metrics translated into the DP's
//! step-indexed curves.

use crate::plan::PlannedCell;
use crate::WorkloadError;
use ants_dp::{
    collapse, combine, curve_units, evaluate_with, solve_unit, target_support, CollapsedKernel,
    CurveKind, CurveUnit, DpCellReport, DpError, DpMetrics, DpRequest, DpStrategy, MarkovKernel,
    SolveCache,
};
use ants_sim::{map_units, Metric, MetricSet, SweepOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cross-cell DP curve memo: the workload-side [`SolveCache`].
///
/// One memo can be shared across every cell of a sweep (and, in `ants
/// serve`, across submissions): curves are keyed by kernel fingerprint,
/// point and clock, so cells that differ only in agent count or trial
/// count reuse each other's solves byte-for-byte.
/// Thread-safe; the counters feed the `dp_memo_hits` / `dp_memo_misses`
/// telemetry.
#[derive(Debug, Default)]
pub struct DpMemo {
    curves: Mutex<HashMap<String, Arc<Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DpMemo {
    /// A fresh, empty memo.
    pub fn new() -> DpMemo {
        DpMemo::default()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of memoized curves.
    pub fn len(&self) -> usize {
        self.curves.lock().expect("memo lock").len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count a hit served without a lookup: a key an earlier cell of
    /// the same wave already looked up (and missed or hit).
    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

impl SolveCache for DpMemo {
    fn get(&self, key: &str) -> Option<Arc<Vec<f64>>> {
        let hit = self.curves.lock().expect("memo lock").get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn put(&self, key: &str, value: Arc<Vec<f64>>) {
        self.curves.lock().expect("memo lock").insert(key.to_string(), value);
    }
}

/// Build the exact-backend request for a cell.
///
/// `smoke` selects the trial count exactly as the Monte Carlo path does
/// — the DP's probabilities do not depend on it, but the reported
/// `found` expectation scales with the trials the row claims to cover.
///
/// # Errors
///
/// Non-Markovian population entries (with the strategy named) and
/// placements without finite support come back as a [`WorkloadError`]
/// carrying the cell label.
pub fn dp_request(
    cell: &PlannedCell,
    smoke: bool,
    metrics: MetricSet,
) -> Result<DpRequest, WorkloadError> {
    let ctx =
        |message: String| WorkloadError { context: format!("cell '{}'", cell.label), message };
    let population = cell
        .population
        .iter()
        .map(|(w, s)| Ok(DpStrategy { weight: *w, kernel: s.kernel()? }))
        .collect::<Result<Vec<_>, String>>()
        .map_err(&ctx)?;
    let targets = target_support(&cell.placement()).map_err(|e| ctx(e.to_string()))?;
    let dp_metrics = if metrics.is_empty() {
        None
    } else {
        Some(DpMetrics {
            coverage: metrics.contains(Metric::Coverage),
            first_visit: metrics.contains(Metric::FirstVisit),
            round_trace: metrics.contains(Metric::RoundTrace),
            chi: metrics.contains(Metric::Chi),
            found_round: metrics.contains(Metric::FoundRound),
            bounds_radius: cell.dist(),
            rounds: cell.observe_rounds(),
        })
    };
    Ok(DpRequest {
        agents: cell.agents,
        move_budget: cell.move_budget,
        trials: cell.trials_at(smoke),
        population,
        targets,
        metrics: dp_metrics,
    })
}

/// Evaluate a cell exactly: build the request and run the DP.
///
/// # Errors
///
/// Request-construction failures (see [`dp_request`]) plus the DP's own
/// guards — state-space, table-size, frontier-size, and metric-work
/// ceilings, and truncation mass beyond [`ants_dp::TRUNCATION_TOL`] —
/// all labelled with the cell.
pub fn evaluate_cell(
    cell: &PlannedCell,
    smoke: bool,
    metrics: MetricSet,
) -> Result<DpCellReport, WorkloadError> {
    evaluate_cell_with(cell, smoke, metrics, None)
}

/// [`evaluate_cell`] with an optional cross-cell [`DpMemo`]. Memoized
/// evaluations are byte-identical to fresh ones (the memo returns the
/// exact curves a fresh solve produces).
///
/// # Errors
///
/// As [`evaluate_cell`].
pub fn evaluate_cell_with(
    cell: &PlannedCell,
    smoke: bool,
    metrics: MetricSet,
    memo: Option<&DpMemo>,
) -> Result<DpCellReport, WorkloadError> {
    let req = dp_request(cell, smoke, metrics)?;
    evaluate_with(&req, memo.map(|m| m as &dyn SolveCache)).map_err(|e| cell_error(cell, &e))
}

/// A [`DpError`] labelled with the cell it came from.
fn cell_error(cell: &PlannedCell, e: &DpError) -> WorkloadError {
    WorkloadError { context: format!("cell '{}'", cell.label), message: e.to_string() }
}

/// A curve's predicted solve work, `states × (2·clock + 1)² × clock`:
/// the dense table's size times its step count (saturating, for clocks
/// no guard would let through anyway).
fn predicted_work(req: &DpRequest, unit: &CurveUnit) -> u128 {
    let states = req.population[unit.strategy()].kernel.num_states() as u128;
    let clock = u128::from(unit.clock());
    let width = (2 * clock + 1).saturating_mul(2 * clock + 1);
    states.saturating_mul(width).saturating_mul(clock)
}

/// Where a wave finds a curve: already in the memo, or at an index of
/// the wave's solve list.
enum Curve {
    Memo(Arc<Vec<f64>>),
    Solve(usize),
}

/// Evaluate many cells exactly as one wave on the sim pool.
///
/// Each cell is split into its curves ([`curve_units`]); curves are
/// deduplicated across cells and against `memo`, every missing curve is
/// solved once ([`solve_unit`]) with one pool claim per curve,
/// costliest first ([`map_units`], so only `opts.threads` and
/// `opts.telemetry` apply), and each cell's report is rebuilt from its curves ([`combine`]) in
/// cell order. Each distinct kernel is collapsed at most once per wave.
/// Reports and memo contents are byte-identical to evaluating the cells
/// one by one through [`evaluate_cell_with`] with the same memo, at
/// every thread count; so are the memo's counters whenever every cell
/// succeeds (each curve lookup a one-by-one run would make counts once:
/// a miss for the first lookup of an unmemoized key, a hit otherwise).
///
/// Returns one result per cell, in cell order. A failing cell does not
/// stop the others.
pub fn evaluate_cells(
    cells: &[&PlannedCell],
    smoke: bool,
    metrics: MetricSet,
    memo: &DpMemo,
    opts: &SweepOptions,
) -> Vec<Result<DpCellReport, WorkloadError>> {
    // Step 1: every cell's request and curve list, in cell order.
    let listed: Vec<Result<(DpRequest, Vec<CurveUnit>), WorkloadError>> = cells
        .iter()
        .map(|cell| {
            let req = dp_request(cell, smoke, metrics)?;
            let units = curve_units(&req).map_err(|e| cell_error(cell, &e))?;
            Ok((req, units))
        })
        .collect();

    // Dedupe in lookup order: the first lookup of a key consults the
    // memo, later ones are hits on the wave's own copy.
    let mut curves: HashMap<&str, Curve> = HashMap::new();
    let mut todo: Vec<(&DpRequest, &CurveUnit)> = Vec::new();
    for (req, units) in listed.iter().flatten() {
        for unit in units {
            if curves.contains_key(unit.key()) {
                memo.record_hit();
                continue;
            }
            let curve = match memo.get(unit.key()) {
                Some(hit) => Curve::Memo(hit),
                None => {
                    todo.push((req, unit));
                    Curve::Solve(todo.len() - 1)
                }
            };
            curves.insert(unit.key(), curve);
        }
    }

    // Step 2: solve the missing curves on the pool, one claim each.
    // Absorption curves share their kernel's collapse, made by whichever
    // unit needs it first.
    let mut collapses: HashMap<u128, OnceLock<Result<CollapsedKernel, DpError>>> = HashMap::new();
    for (_, unit) in &todo {
        if unit.kind() == CurveKind::Absorption {
            collapses.entry(unit.fingerprint()).or_default();
        }
    }
    // Claim the costliest curves first, so the heaviest solve never
    // starts last and holds up the wave's tail; results go back to
    // `todo` order, so nothing downstream sees the claim order.
    let mut order: Vec<usize> = (0..todo.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(predicted_work(todo[i].0, todo[i].1)));
    let claimed: Vec<Result<Arc<Vec<f64>>, DpError>> = map_units(&order, opts, |&i| {
        let (req, unit) = todo[i];
        solve_unit(req, unit, || {
            collapses[&unit.fingerprint()]
                .get_or_init(|| collapse(&req.population[unit.strategy()].kernel))
                .as_ref()
                .map_err(Clone::clone)
        })
        .map(Arc::new)
    });
    let mut claimed: Vec<(usize, _)> = order.into_iter().zip(claimed).collect();
    claimed.sort_by_key(|&(i, _)| i);
    let solved: Vec<Result<Arc<Vec<f64>>, DpError>> =
        claimed.into_iter().map(|(_, curve)| curve).collect();
    for ((_, unit), curve) in todo.iter().zip(&solved) {
        if let Ok(curve) = curve {
            memo.put(unit.key(), Arc::clone(curve));
        }
    }

    // Step 3: every report, in cell order, from its curves.
    listed
        .iter()
        .zip(cells)
        .map(|(listed, cell)| {
            let (req, units) = listed.as_ref().map_err(Clone::clone)?;
            combine(req, units, |unit| match &curves[unit.key()] {
                Curve::Memo(hit) => Ok(Arc::clone(hit)),
                Curve::Solve(i) => solved[*i].clone(),
            })
            .map_err(|e| cell_error(cell, &e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WorkloadPlan, WorkloadSpec};

    fn cell_from(text: &str) -> PlannedCell {
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap();
        plan.cells.into_iter().next().unwrap()
    }

    const WALK: &str = "\
name = \"dp\"
[defaults]
trials = 64
backend = \"dp\"
[[cells]]
name = \"walk\"
agents = 3
move_budget = 24
target = { model = \"fixed\", x = 1, y = 1 }
population = [ { strategy = \"randomwalk\" } ]
";

    #[test]
    fn request_carries_cell_shape() {
        let cell = cell_from(WALK);
        let req = dp_request(&cell, false, MetricSet::empty()).unwrap();
        assert_eq!(req.agents, 3);
        assert_eq!(req.move_budget, 24);
        assert_eq!(req.trials, 64);
        assert_eq!(req.population.len(), 1);
        assert_eq!(req.targets, vec![(ants_grid::Point::new(1, 1), 1.0)]);
        assert!(req.metrics.is_none());
        // Smoke effort only changes the claimed trial count.
        assert_eq!(dp_request(&cell, true, MetricSet::empty()).unwrap().trials, 8);
    }

    #[test]
    fn evaluation_is_exact_and_deterministic() {
        let cell = cell_from(WALK);
        let a = evaluate_cell(&cell, false, MetricSet::empty()).unwrap();
        let b = evaluate_cell(&cell, false, MetricSet::empty()).unwrap();
        assert!(a.success > 0.0 && a.success < 1.0);
        // Bit-identical across reruns — the whole point of the backend.
        assert_eq!(a.success.to_bits(), b.success.to_bits());
        assert_eq!(a.mean_moves.to_bits(), b.mean_moves.to_bits());
    }

    #[test]
    fn metrics_translate_to_dp_curves() {
        let text = WALK
            .replace("move_budget = 24", "move_budget = 16")
            .replace("name = \"dp\"", "name = \"dpm\"\nmetrics = [\"coverage\", \"found_round\"]");
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(&text).unwrap()).unwrap();
        let cell = &plan.cells[0];
        let report = evaluate_cell(cell, false, plan.metrics).unwrap();
        let cov = report.coverage.expect("coverage requested");
        assert!(cov > 0.0 && cov <= 1.0, "{cov}");
        assert!(report.found_round.is_some());
        assert!(report.mean_first_visit.is_none(), "unrequested metrics stay None");
    }

    #[test]
    fn memo_shares_curves_across_cells_and_stays_byte_identical() {
        // Two cells over the same kernel/target/budget that differ only
        // in agent count: the second cell's curves all come from the
        // memo, and the reports match the unmemoized ones bit for bit.
        let text = "\
name = \"memo\"
[defaults]
trials = 64
backend = \"dp\"
[[cells]]
name = \"walk\"
move_budget = 24
target = { model = \"fixed\", x = 1, y = 1 }
population = [ { strategy = \"randomwalk\" } ]
sweep = { agents = [1, 2, 4] }
";
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap();
        assert_eq!(plan.cells.len(), 3);
        let memo = DpMemo::new();
        for cell in &plan.cells {
            let fresh = evaluate_cell(cell, false, MetricSet::empty()).unwrap();
            let memoized =
                evaluate_cell_with(cell, false, MetricSet::empty(), Some(&memo)).unwrap();
            assert_eq!(fresh.success.to_bits(), memoized.success.to_bits(), "{}", cell.label);
            assert_eq!(fresh.mean_moves.to_bits(), memoized.mean_moves.to_bits(), "{}", cell.label);
        }
        let (hits, misses) = memo.stats();
        assert_eq!(misses, 1, "one absorption solve covers the whole sweep");
        assert_eq!(hits, 2, "the other two cells reuse it");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_wave_shares_curves_like_the_per_cell_path_and_isolates_failures() {
        // The agent sweep of `memo_shares_curves_across_cells...` plus a
        // non-Markovian cell in the middle: the wave solves the shared
        // curve once (1 miss, 2 hits, as one by one), fails only the
        // middle cell, and every report is bit-identical to a fresh one.
        let text = "\
name = \"wave\"
[defaults]
trials = 64
move_budget = 24
[[cells]]
name = \"walk\"
backend = \"dp\"
target = { model = \"fixed\", x = 1, y = 1 }
population = [ { strategy = \"randomwalk\" } ]
sweep = { agents = [1, 2] }
[[cells]]
name = \"spiral\"
agents = 1
target = { model = \"fixed\", x = 1, y = 1 }
population = [ { strategy = \"spiral\" } ]
[[cells]]
name = \"walk4\"
backend = \"dp\"
agents = 4
target = { model = \"fixed\", x = 1, y = 1 }
population = [ { strategy = \"randomwalk\" } ]
";
        let plan = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap();
        let cells: Vec<&PlannedCell> = plan.cells.iter().collect();
        assert_eq!(cells.len(), 4);
        for threads in [1, 2] {
            let memo = DpMemo::new();
            let opts = SweepOptions::with_threads(Some(threads));
            let reports = evaluate_cells(&cells, false, MetricSet::empty(), &memo, &opts);
            assert_eq!(reports.len(), 4);
            let e = reports[2].as_ref().unwrap_err();
            assert!(e.context.contains("spiral") && e.message.contains("spiral"), "{e}");
            for i in [0, 1, 3] {
                let fresh = evaluate_cell(cells[i], false, MetricSet::empty()).unwrap();
                let got = reports[i].as_ref().unwrap();
                assert_eq!(fresh.success.to_bits(), got.success.to_bits(), "cell {i}");
                assert_eq!(fresh.mean_moves.to_bits(), got.mean_moves.to_bits(), "cell {i}");
            }
            assert_eq!(memo.stats(), (2, 1), "{threads} threads: (hits, misses)");
            assert_eq!(memo.len(), 1);
        }
    }

    #[test]
    fn non_markovian_cells_error_with_the_strategy_name() {
        // Construct an MC cell, then ask the DP bridge to evaluate it:
        // the kernel constructor must refuse, naming the strategy.
        let text = WALK
            .replace("backend = \"dp\"", "backend = \"mc\"")
            .replace("randomwalk", "levy(2.0, 64)");
        let cell = cell_from(&text);
        let e = dp_request(&cell, false, MetricSet::empty()).unwrap_err();
        assert!(e.context.contains("cell 'walk'"), "{e}");
        assert!(e.message.contains("levy(2, 64)") || e.message.contains("levy"), "{e}");
        assert!(e.message.contains("mc"), "{e}");
    }
}
