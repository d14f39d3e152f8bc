//! Step-indexed DPs for the observation-metric vocabulary.
//!
//! The observed simulator (`observe.rs` in `ants-sim`) runs every agent
//! for a fixed number of *rounds* — one kernel step per round — and
//! records coverage, first visits, and found rounds against that clock.
//! The DPs here mirror that clock exactly: they propagate the raw
//! step-indexed kernel (no per-move collapse) and absorb on *move
//! landings*, matching the recorder's rule that a cell is visited at
//! round `r` when a move performed in round `r` lands on it (the origin
//! is recorded at round 0 at spawn; `Origin` teleports do not record).
//!
//! Both public curves are first-passage problems solved by the same
//! forward DP, on the dense table or the sparse frontier by the rule of
//! [`crate::absorption_cdf`]:
//!
//! * [`step_absorption_cdf`] — `F(r)` = P(a move has landed on the
//!   target within the first `r` rounds): the found-round curve;
//! * [`visit_survival_curve`] — `q(r)` = P(a bounds cell is still
//!   unvisited after `r` rounds): the coverage/first-visit ingredient
//!   (per-cell curves combine across independent agents as `q̄(r)^n`).
//!
//! [`chi_support`] is the χ analogue: the exact per-round internal-state
//! marginal accumulates per-state occupancy mass, and the footprint is
//! the maximum χ over states whose accumulated mass clears
//! [`crate::CHI_MASS_FLOOR`]. For phase-growing strategies this is a
//! *support statistic* (the largest footprint reached with
//! non-negligible probability), which is the exact-backend analogue of
//! the simulator's running-max footprint column.

use crate::error::DpError;
use crate::kernel::{MarkovKernel, PositionClass};
use ants_automaton::GridAction;
use ants_grid::Point;

/// First-landing CDF of `kernel` on `point` over `horizon` rounds, on
/// the dense table: `out[r]` = P(some move within rounds `1..=r` landed
/// on `point`). `out[0] = 0`; monotone non-decreasing by construction.
/// The reference the sparse frontier
/// ([`crate::sparse_first_landing_cdf`]) is checked against.
///
/// # Errors
///
/// [`DpError::Guard`] when the dense table would exceed
/// [`crate::MAX_TABLE_ENTRIES`]; [`DpError::Truncation`] as documented
/// on the module.
pub fn dense_first_landing_cdf(
    kernel: &dyn MarkovKernel,
    label: &str,
    point: Point,
    horizon: u64,
) -> Result<Vec<f64>, DpError> {
    let states = kernel.num_states();
    let h = horizon as i64;
    let width = 2 * horizon as usize + 1;
    if states.checked_mul(width * width).filter(|&e| e <= crate::MAX_TABLE_ENTRIES).is_none() {
        return Err(DpError::Guard {
            what: format!(
                "dense step-DP table for {label} ({states} states x ({width})^2 positions at \
                 horizon {horizon})"
            ),
            limit: crate::MAX_TABLE_ENTRIES,
            hint: "shrink the move budget, or use backend = \"mc\"".into(),
        });
    }
    let mut is_trunc = vec![false; states];
    for &t in kernel.truncation_states() {
        is_trunc[t] = true;
    }

    let w = width;
    let idx =
        |s: usize, x: i64, y: i64| -> usize { (s * w + (x + h) as usize) * w + (y + h) as usize };
    let mut cur = vec![0.0f64; states * w * w];
    let mut nxt = vec![0.0f64; states * w * w];
    cur[idx(kernel.start(), 0, 0)] = 1.0;

    let mut out = Vec::with_capacity(horizon as usize + 1);
    out.push(0.0);
    let mut absorbed = 0.0f64;
    let mut lost = 0.0f64;

    for r in 1..=h {
        let src_r = r - 1;
        let dst_r = r.min(h);
        // Clear the writable sub-box (stale data from two rounds ago).
        for s in 0..states {
            for x in -dst_r..=dst_r {
                let lo = idx(s, x, -dst_r);
                nxt[lo..=lo + (2 * dst_r) as usize].fill(0.0);
            }
        }
        for s in 0..states {
            let row = kernel.row(s, PositionClass::Away);
            if row.is_empty() {
                continue;
            }
            for x in -src_r..=src_r {
                for y in -src_r..=src_r {
                    let p = cur[idx(s, x, y)];
                    if p == 0.0 {
                        continue;
                    }
                    if p < crate::PRUNE {
                        lost += p;
                        continue;
                    }
                    for t in row {
                        let mass = p * t.prob;
                        if mass == 0.0 {
                            continue;
                        }
                        if is_trunc[t.next] {
                            lost += mass;
                            continue;
                        }
                        match t.action {
                            GridAction::Move(dir) => {
                                let (dx, dy) = dir.delta();
                                let (nx, ny) = (x + dx, y + dy);
                                if nx == point.x && ny == point.y {
                                    absorbed += mass;
                                } else {
                                    nxt[idx(t.next, nx, ny)] += mass;
                                }
                            }
                            GridAction::None => nxt[idx(t.next, x, y)] += mass,
                            GridAction::Origin => nxt[idx(t.next, 0, 0)] += mass,
                        }
                    }
                }
            }
        }
        out.push(absorbed);
        std::mem::swap(&mut cur, &mut nxt);
    }

    if lost > crate::TRUNCATION_TOL {
        return Err(DpError::Truncation { kernel: label.to_string(), lost });
    }
    Ok(out)
}

/// First-landing CDF on the table the predicted shape favours (see
/// [`crate::absorption_cdf`] for the rule).
fn first_landing_cdf(
    kernel: &dyn MarkovKernel,
    label: &str,
    point: Point,
    horizon: u64,
) -> Result<Vec<f64>, DpError> {
    if crate::use_sparse(kernel.num_states(), horizon) {
        crate::frontier::sparse_first_landing_cdf(kernel, label, point, horizon).map(|(f, _)| f)
    } else {
        dense_first_landing_cdf(kernel, label, point, horizon)
    }
}

/// The found-round curve: `out[r]` = P(the agent has found `target`
/// within the first `r` rounds of observed stepping).
///
/// # Errors
///
/// [`DpError::Guard`] / [`DpError::Truncation`] as documented on the
/// module; [`DpError::Unsupported`] for an origin target.
pub fn step_absorption_cdf(
    kernel: &dyn MarkovKernel,
    label: &str,
    target: Point,
    horizon: u64,
) -> Result<Vec<f64>, DpError> {
    if target == Point::ORIGIN {
        return Err(DpError::Unsupported {
            what: "a found-round curve for an origin target".into(),
            reason: "targets are never placed on the origin".into(),
        });
    }
    first_landing_cdf(kernel, label, target, horizon)
}

/// The per-cell survival curve: `out[r]` = P(`cell` is still unvisited
/// after `r` rounds). The origin is visited at spawn (round 0), so its
/// curve is identically zero.
///
/// # Errors
///
/// [`DpError::Guard`] / [`DpError::Truncation`] as documented on the
/// module.
pub fn visit_survival_curve(
    kernel: &dyn MarkovKernel,
    label: &str,
    cell: Point,
    horizon: u64,
) -> Result<Vec<f64>, DpError> {
    if cell == Point::ORIGIN {
        return Ok(vec![0.0; horizon as usize + 1]);
    }
    let f = first_landing_cdf(kernel, label, cell, horizon)?;
    Ok(f.into_iter().map(|p| 1.0 - p).collect())
}

/// The exact-backend χ footprint: the maximum `χ` over internal states
/// whose accumulated occupancy mass across rounds `0..=horizon` exceeds
/// [`crate::CHI_MASS_FLOOR`]. Positionless — the state marginal does not
/// depend on the grid — so this is cheap even for large kernels.
pub fn chi_support(kernel: &dyn MarkovKernel, horizon: u64) -> f64 {
    let states = kernel.num_states();
    let mut sigma = vec![0.0f64; states];
    let mut next = vec![0.0f64; states];
    let mut acc = vec![0.0f64; states];
    sigma[kernel.start()] = 1.0;
    for _ in 0..=horizon {
        for s in 0..states {
            acc[s] += sigma[s];
        }
        next.fill(0.0);
        for (s, &p) in sigma.iter().enumerate() {
            if p < crate::CHI_MASS_FLOOR {
                continue;
            }
            for t in kernel.row(s, PositionClass::Away) {
                next[t.next] += p * t.prob;
            }
        }
        std::mem::swap(&mut sigma, &mut next);
    }
    let mut is_trunc = vec![false; states];
    for &t in kernel.truncation_states() {
        is_trunc[t] = true;
    }
    let mut chi = f64::NEG_INFINITY;
    for s in 0..states {
        if acc[s] > crate::CHI_MASS_FLOOR && !is_trunc[s] {
            chi = chi.max(kernel.chi(s).chi());
        }
    }
    chi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{
        mortal_kernel, nonuniform_kernel, randomwalk_kernel, uniform_kernel, UNIFORM_PHASE_CAP,
    };

    #[test]
    fn randomwalk_steps_equal_moves() {
        // For the random walk every step is a move, so the step-indexed
        // curve equals the move-indexed one.
        let k = randomwalk_kernel();
        let by_round = dense_first_landing_cdf(&k, "rw", Point::new(1, 0), 6).unwrap();
        let collapsed = crate::collapse::collapse(&k).unwrap();
        let by_move =
            crate::absorb::dense_absorption_cdf(&collapsed, "rw", Point::new(1, 0), 6).unwrap();
        for (r, (a, b)) in by_round.iter().zip(by_move.cdf.iter()).enumerate() {
            assert!((a - b).abs() < 1e-15, "round {r}: {a} vs {b}");
        }
    }

    #[test]
    fn nonuniform_rounds_lag_moves() {
        // Coin flips consume rounds without moving, so the round-indexed
        // CDF is pointwise at most the move-indexed one.
        let k = nonuniform_kernel(4).unwrap();
        let by_round = dense_first_landing_cdf(&k, "nu", Point::new(1, 1), 24).unwrap();
        let collapsed = crate::collapse::collapse(&k).unwrap();
        let by_move =
            crate::absorb::dense_absorption_cdf(&collapsed, "nu", Point::new(1, 1), 24).unwrap();
        for (r, (&br, &bm)) in by_round.iter().zip(by_move.cdf.iter()).enumerate() {
            assert!(br <= bm + 1e-15, "round {r}: {br} > {bm}");
        }
        assert!(by_round[24] > 0.0);
    }

    #[test]
    fn visit_survival_origin_is_zero_and_neighbours_decay() {
        let k = randomwalk_kernel();
        let at_origin = visit_survival_curve(&k, "rw", Point::ORIGIN, 8).unwrap();
        assert!(at_origin.iter().all(|&q| q == 0.0));
        let near = visit_survival_curve(&k, "rw", Point::new(0, 1), 8).unwrap();
        assert_eq!(near[0], 1.0);
        assert_eq!(near[1], 0.75);
        for r in 1..near.len() {
            assert!(near[r] <= near[r - 1]);
        }
    }

    #[test]
    fn mortal_survival_freezes() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 2).unwrap();
        let q = visit_survival_curve(&k, "mortal", Point::new(0, 1), 6).unwrap();
        for r in 2..q.len() {
            assert_eq!(q[r], q[2], "round {r}");
        }
    }

    #[test]
    fn chi_support_static_kernel_is_its_chi() {
        let k = randomwalk_kernel();
        use crate::kernel::MarkovKernel as _;
        assert_eq!(chi_support(&k, 32), k.chi(0).chi());
    }

    #[test]
    fn chi_support_grows_with_horizon_for_uniform() {
        let k = uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap();
        let short = chi_support(&k, 4);
        let long = chi_support(&k, 4096);
        assert!(long > short, "support chi must grow with reachable phases: {short} vs {long}");
    }
}
