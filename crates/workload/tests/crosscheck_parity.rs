//! Dense-vs-sparse parity on the bundled crosscheck grid: every curve
//! the exact backend solves for `examples/workloads/dp_crosscheck.toml`
//! is solved on both table representations, which must agree within
//! the truncation budget wherever the dense table fits its guard. The
//! one cell past the dense guard (`sparse/overbudget`) must be refused
//! by the dense solver and solved by the sparse one — the case the
//! exact backend routes to the frontier on its own.

use ants_dp::{
    collapse, curve_units, dense_absorption_cdf, dense_first_landing_cdf, sparse_absorption_cdf,
    sparse_first_landing_cdf, CurveKind, DpError, MarkovKernel,
};
use ants_grid::Point;
use ants_workload::dp::dp_request;
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::collections::{BTreeSet, HashSet};

/// The exactness invariant of the sparse frontier (as in the dp crate's
/// `sparse_parity` battery).
const PARITY_TOL: f64 = 1e-9;

#[test]
fn every_crosscheck_curve_agrees_on_both_representations() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/workloads/dp_crosscheck.toml");
    let text = std::fs::read_to_string(path).expect("bundled crosscheck spec");
    let plan = WorkloadPlan::expand(&WorkloadSpec::parse(&text).unwrap()).unwrap();
    let mut seen = HashSet::new();
    let mut dense_refused = BTreeSet::new();
    let mut compared = 0usize;
    for cell in &plan.cells {
        let req = dp_request(cell, false, plan.metrics).unwrap();
        for unit in curve_units(&req).unwrap() {
            if !seen.insert(unit.key().to_string()) {
                continue;
            }
            let kernel = &req.population[unit.strategy()].kernel;
            let (label, point, clock) = (kernel.label(), unit.point(), unit.clock());
            let (dense, sparse) = match unit.kind() {
                CurveKind::Absorption => {
                    let c = collapse(kernel).unwrap();
                    (
                        dense_absorption_cdf(&c, label, point, clock).map(|a| a.cdf),
                        sparse_absorption_cdf(&c, label, point, clock).map(|a| a.cdf),
                    )
                }
                // The origin's survival curve is identically zero, with
                // no solve behind it.
                CurveKind::Survival if point == Point::ORIGIN => continue,
                CurveKind::Survival | CurveKind::FoundRound => (
                    dense_first_landing_cdf(kernel, label, point, clock),
                    sparse_first_landing_cdf(kernel, label, point, clock).map(|(f, _)| f),
                ),
            };
            let sparse = sparse.unwrap_or_else(|e| panic!("{}: sparse failed: {e}", unit.key()));
            match dense {
                Ok(dense) => {
                    assert_eq!(dense.len(), sparse.len(), "{}", unit.key());
                    for (i, (d, s)) in dense.iter().zip(&sparse).enumerate() {
                        assert!(
                            (d - s).abs() <= PARITY_TOL,
                            "cell {} curve {} at {i}: dense {d} vs sparse {s}",
                            cell.label,
                            unit.key()
                        );
                    }
                    compared += 1;
                }
                Err(DpError::Guard { .. }) => {
                    dense_refused.insert(cell.label.clone());
                }
                Err(e) => panic!("{}: dense failed unexpectedly: {e}", unit.key()),
            }
        }
    }
    assert_eq!(dense_refused, BTreeSet::from(["sparse/overbudget".to_string()]));
    assert!(compared > plan.cells.len(), "only {compared} curves compared");
}
