//! Property battery for the sparse-frontier solvers: for *every* kernel
//! the zoo can construct, the pruned sparse representation must agree
//! with the dense tables wherever both run. The two solvers are called
//! directly, so parity holds whichever one the exact backend picks for
//! a given shape.
//!
//! Three invariants:
//!
//! * **Absorption parity** — the move-budget absorption CDF computed on
//!   the sparse frontier matches the dense table pointwise within the
//!   truncation budget (1e-9; fold-free kernels are bit-identical, and
//!   folding may shift a value by strictly less than the pruned mass);
//! * **Round-curve parity** — the per-round first-landing CDF agrees
//!   under the same bound, and the public found-round and visit
//!   survival curves match it;
//! * **Memo byte-identity** — a cell evaluated through a warm
//!   cross-cell curve cache renders the exact same [`DpCellReport`] as
//!   a fresh solve.

use ants_automaton::library;
use ants_dp::{
    coin_kernel, collapse, dense_absorption_cdf, dense_first_landing_cdf, evaluate_with,
    mortal_kernel, nonuniform_kernel, pfa_kernel, randomwalk_kernel, sparse_absorption_cdf,
    sparse_first_landing_cdf, step_absorption_cdf, uniform_kernel, visit_survival_curve, DpRequest,
    DpStrategy, MarkovKernel, SolveCache, TableKernel, UNIFORM_PHASE_CAP,
};
use ants_grid::Point;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The exactness invariant: sparse and dense may differ only by the
/// pruned-mass budget, never more.
const PARITY_TOL: f64 = 1e-9;

/// A selection of zoo kernels spanning every constructor. Index-driven
/// so proptest can draw one uniformly (mirrors `proptests.rs`).
fn zoo_kernel(which: usize) -> TableKernel {
    match which {
        0 => randomwalk_kernel(),
        1 => nonuniform_kernel(4).unwrap(),
        2 => nonuniform_kernel(100).unwrap(),
        3 => coin_kernel(16, 1).unwrap(),
        4 => coin_kernel(64, 3).unwrap(),
        5 => uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap(),
        6 => uniform_kernel(2, 8, 3, UNIFORM_PHASE_CAP).unwrap(),
        7 => pfa_kernel("automaton(rw)", &library::random_walk()),
        8 => pfa_kernel("automaton(lazy)", &library::lazy_random_walk()),
        9 => pfa_kernel("automaton(drift4)", &library::drift_walk(4).unwrap()),
        10 => pfa_kernel("automaton(alg1)", &library::algorithm1(3).unwrap()),
        11 => mortal_kernel(&randomwalk_kernel(), 7).unwrap(),
        12 => mortal_kernel(&nonuniform_kernel(8).unwrap(), 25).unwrap(),
        _ => mortal_kernel(&coin_kernel(8, 2).unwrap(), 12).unwrap(),
    }
}

const ZOO_SIZE: usize = 14;

/// A plain map cache so the memo property exercises the same
/// [`SolveCache`] seam production uses, without depending on the
/// workload crate.
#[derive(Default)]
struct MapCache(Mutex<HashMap<String, Arc<Vec<f64>>>>);

impl SolveCache for MapCache {
    fn get(&self, key: &str) -> Option<Arc<Vec<f64>>> {
        self.0.lock().unwrap().get(key).cloned()
    }
    fn put(&self, key: &str, value: Arc<Vec<f64>>) {
        self.0.lock().unwrap().insert(key.to_string(), value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_absorption_matches_dense(
        which in 0usize..ZOO_SIZE,
        tx in -3i64..=3,
        ty in -3i64..=3,
        budget in 1u64..40,
    ) {
        let target = if tx == 0 && ty == 0 { Point::new(1, 0) } else { Point::new(tx, ty) };
        let k = zoo_kernel(which);
        let c = collapse(&k).unwrap();
        let dense = dense_absorption_cdf(&c, k.label(), target, budget).unwrap();
        let sparse = sparse_absorption_cdf(&c, k.label(), target, budget).unwrap();
        prop_assert_eq!(dense.cdf.len(), sparse.cdf.len());
        for (m, (&d, &s)) in dense.cdf.iter().zip(sparse.cdf.iter()).enumerate() {
            prop_assert!(
                (d - s).abs() <= PARITY_TOL,
                "kernel {} target {target} move {m}: dense {d} vs sparse {s}",
                k.label()
            );
        }
    }

    #[test]
    fn sparse_round_curves_match_dense(
        which in 0usize..ZOO_SIZE,
        horizon in 1u64..32,
    ) {
        let target = Point::new(1, 1);
        let k = zoo_kernel(which);
        let dense = dense_first_landing_cdf(&k, k.label(), target, horizon).unwrap();
        let (sparse, _) = sparse_first_landing_cdf(&k, k.label(), target, horizon).unwrap();
        prop_assert_eq!(dense.len(), sparse.len());
        for (r, (&d, &s)) in dense.iter().zip(sparse.iter()).enumerate() {
            prop_assert!(
                (d - s).abs() <= PARITY_TOL,
                "kernel {} round {r}: dense {d} vs sparse {s}",
                k.label()
            );
        }
        // The public curves, on whichever table the backend picks, stay
        // within the same bound of the dense reference.
        let found = step_absorption_cdf(&k, k.label(), target, horizon).unwrap();
        let survival = visit_survival_curve(&k, k.label(), target, horizon).unwrap();
        prop_assert_eq!(survival.len(), dense.len());
        for (r, ((&d, &f), &q)) in dense.iter().zip(&found).zip(&survival).enumerate() {
            prop_assert!(
                (d - f).abs() <= PARITY_TOL && ((1.0 - d) - q).abs() <= PARITY_TOL,
                "kernel {} round {r}: dense {d} vs found {f} / survival {q}",
                k.label()
            );
        }
    }

    #[test]
    fn memoized_reports_render_byte_identical(
        which in 0usize..ZOO_SIZE,
        budget in 1u64..24,
    ) {
        let req = DpRequest {
            agents: 2,
            move_budget: budget,
            trials: 500,
            population: vec![DpStrategy { weight: 1, kernel: zoo_kernel(which) }],
            targets: vec![(Point::new(1, 1), 1.0), (Point::new(2, 0), 1.0 / 2.0)],
            metrics: None,
        };
        let fresh = evaluate_with(&req, None).unwrap();
        let cache = MapCache::default();
        let cold = evaluate_with(&req, Some(&cache)).unwrap();
        let warm = evaluate_with(&req, Some(&cache)).unwrap();
        // Debug rendering of f64 is bijective with its bits (modulo NaN,
        // which both sides produce identically), so string equality here
        // is byte-identity of everything a report can print.
        let fresh = format!("{fresh:?}");
        prop_assert_eq!(&fresh, &format!("{cold:?}"), "cold cache changed the report");
        prop_assert_eq!(&fresh, &format!("{warm:?}"), "warm cache changed the report");
    }
}
