//! The move-indexed forward absorption DP.
//!
//! Given a collapsed kernel ([`crate::collapse`]) and a target cell, the
//! DP propagates the exact joint occupancy of `(internal state,
//! position)` one *move* at a time, absorbing mass that lands on the
//! target. The result is the exact single-agent absorption CDF
//! `F(m) = P(find the target within m moves)` — the distribution the
//! simulator estimates with trials.
//!
//! The table is dense over the square `|x|,|y| ≤ B` (`B` = move budget:
//! no agent leaves it) with one layer per internal state. Three exact
//! accounting channels keep the answer honest:
//!
//! * *deficit* — mass that can never move again (halted mortal agents)
//!   is dropped; it never finds the target, so the CDF is unaffected;
//! * *truncation* — mass entering designated truncation states
//!   accumulates and trips [`DpError::Truncation`] past
//!   [`crate::TRUNCATION_TOL`];
//! * *pruning* — occupancy entries below [`crate::PRUNE`] are dropped
//!   with their exact mass added to the truncation account, so pruning
//!   can speed things up but never silently bias the CDF.
//!
//! Summation order is fixed (states, then row-major positions, then
//! exits), so results are bit-identical across runs and thread counts.

use crate::collapse::CollapsedKernel;
use crate::error::DpError;
use ants_grid::Point;

/// The exact absorption CDF of one agent against one target.
#[derive(Debug, Clone)]
pub struct AbsorptionCurve {
    /// `cdf[m]` = probability the agent has found the target within `m`
    /// moves; `cdf[0] = 0`, monotone non-decreasing by construction.
    pub cdf: Vec<f64>,
    /// Exact probability mass lost to truncation states and pruning
    /// (already checked against [`crate::TRUNCATION_TOL`]).
    pub lost: f64,
}

/// Dense `(state, position)` occupancy table over `|x|,|y| <= radius`.
struct Table {
    radius: i64,
    width: usize,
    mass: Vec<f64>,
}

impl Table {
    fn new(states: usize, radius: i64) -> Table {
        let width = (2 * radius + 1) as usize;
        Table { radius, width, mass: vec![0.0; states * width * width] }
    }

    #[inline]
    fn idx(&self, state: usize, x: i64, y: i64) -> usize {
        debug_assert!(x.abs() <= self.radius && y.abs() <= self.radius);
        (state * self.width + (x + self.radius) as usize) * self.width + (y + self.radius) as usize
    }

    /// Zero every entry of `state`'s layer within `|x|,|y| <= r`.
    fn clear_box(&mut self, state: usize, r: i64) {
        let w = self.width;
        for x in -r..=r {
            let row = (state * w + (x + self.radius) as usize) * w;
            let lo = row + (-r + self.radius) as usize;
            self.mass[lo..=lo + (2 * r) as usize].fill(0.0);
        }
    }

    fn clear_box_all(&mut self, states: usize, r: i64) {
        for s in 0..states {
            self.clear_box(s, r);
        }
    }
}

/// Compute the exact absorption CDF of a single agent driven by
/// `collapsed` against `target`, for move budgets up to `budget`, on
/// whichever table the predicted shape favours: the dense solver
/// ([`dense_absorption_cdf`]) at or below the measured break-even, the
/// sparse frontier ([`crate::sparse_absorption_cdf`]) beyond it while a
/// single state's square fits the frontier cap, dense (and so its
/// guard) past that.
///
/// # Errors
///
/// As the chosen solver.
pub fn absorption_cdf(
    collapsed: &CollapsedKernel,
    label: &str,
    target: Point,
    budget: u64,
) -> Result<AbsorptionCurve, DpError> {
    if crate::use_sparse(collapsed.rows.len(), budget) {
        crate::frontier::sparse_absorption_cdf(collapsed, label, target, budget)
    } else {
        dense_absorption_cdf(collapsed, label, target, budget)
    }
}

/// Compute the exact absorption CDF of a single agent driven by
/// `collapsed` against `target`, for move budgets up to `budget`, on
/// the dense table — the reference the sparse frontier is checked
/// against.
///
/// # Errors
///
/// * [`DpError::Guard`] when the dense table would exceed
///   [`crate::MAX_TABLE_ENTRIES`].
/// * [`DpError::Truncation`] when truncated + pruned mass exceeds
///   [`crate::TRUNCATION_TOL`].
/// * [`DpError::Unsupported`] when `target` is the origin (targets are
///   never placed there).
pub fn dense_absorption_cdf(
    collapsed: &CollapsedKernel,
    label: &str,
    target: Point,
    budget: u64,
) -> Result<AbsorptionCurve, DpError> {
    if target == Point::ORIGIN {
        return Err(DpError::Unsupported {
            what: "absorption at the origin".into(),
            reason: "targets are never placed on the origin".into(),
        });
    }
    let states = collapsed.rows.len();
    let b = budget as i64;
    let width = 2 * budget as usize + 1;
    let entries = states.checked_mul(width * width).filter(|&e| e <= crate::MAX_TABLE_ENTRIES);
    if entries.is_none() {
        return Err(DpError::Guard {
            what: format!(
                "dense occupancy table for {label} ({states} states x ({width})^2 positions at \
                 move budget {budget})"
            ),
            limit: crate::MAX_TABLE_ENTRIES,
            hint: "shrink the move budget, or use backend = \"mc\"".into(),
        });
    }

    // Per state, the collapsed row split into clean entries (applied per
    // occupied position) and reset entries (applied once to the state's
    // positional marginal — the Origin teleport erases the position).
    struct Entry {
        next: usize,
        dx: i64,
        dy: i64,
        prob: f64,
    }
    let mut clean: Vec<Vec<Entry>> = Vec::with_capacity(states);
    let mut reset: Vec<Vec<Entry>> = Vec::with_capacity(states);
    let mut trunc_of: Vec<f64> = Vec::with_capacity(states);
    for row in &collapsed.rows {
        let mut c = Vec::new();
        let mut r = Vec::new();
        for &(e, prob) in &row.exits {
            let exit = collapsed.exits[e as usize];
            let (dx, dy) = exit.dir.delta();
            let entry = Entry { next: exit.next, dx, dy, prob };
            if exit.reset {
                r.push(entry);
            } else {
                c.push(entry);
            }
        }
        clean.push(c);
        reset.push(r);
        trunc_of.push(row.trunc);
    }

    let mut cur = Table::new(states, b);
    let mut nxt = Table::new(states, b);
    let start_idx = cur.idx(collapsed.start, 0, 0);
    cur.mass[start_idx] = 1.0;

    let mut cdf = Vec::with_capacity(budget as usize + 1);
    cdf.push(0.0);
    let mut absorbed = 0.0f64;
    let mut lost = 0.0f64;

    for m in 1..=b {
        // Occupied positions after m-1 moves lie within radius m-1.
        let src_r = (m - 1).min(b);
        let dst_r = m.min(b);
        nxt.clear_box_all(states, dst_r);
        for s in 0..states {
            if clean[s].is_empty() && reset[s].is_empty() && trunc_of[s] == 0.0 {
                // Dead state: its mass is deficit — drop the layer.
                continue;
            }
            let mut marginal = 0.0f64;
            for x in -src_r..=src_r {
                for y in -src_r..=src_r {
                    let p = cur.mass[cur.idx(s, x, y)];
                    if p == 0.0 {
                        continue;
                    }
                    if p < crate::PRUNE {
                        lost += p;
                        continue;
                    }
                    marginal += p;
                    for e in &clean[s] {
                        let (nx, ny) = (x + e.dx, y + e.dy);
                        let mass = p * e.prob;
                        if nx == target.x && ny == target.y {
                            absorbed += mass;
                        } else {
                            let i = nxt.idx(e.next, nx, ny);
                            nxt.mass[i] += mass;
                        }
                    }
                }
            }
            if marginal > 0.0 {
                for e in &reset[s] {
                    let mass = marginal * e.prob;
                    if e.dx == target.x && e.dy == target.y {
                        absorbed += mass;
                    } else {
                        let i = nxt.idx(e.next, e.dx, e.dy);
                        nxt.mass[i] += mass;
                    }
                }
                lost += marginal * trunc_of[s];
            }
        }
        cdf.push(absorbed);
        std::mem::swap(&mut cur, &mut nxt);
    }

    if lost > crate::TRUNCATION_TOL {
        return Err(DpError::Truncation { kernel: label.to_string(), lost });
    }
    Ok(AbsorptionCurve { cdf, lost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse;
    use crate::kernel::{mortal_kernel, nonuniform_kernel, randomwalk_kernel};

    #[test]
    fn randomwalk_first_moves_exact() {
        // Target (1,0): F(1) = 1/4. None of the three 1-move misses
        // ((0,1), (0,-1), (-1,0)) is adjacent to the target, so
        // F(2) = F(1). First hits at move 3 are miss->b->target with b a
        // free neighbour of the target: from (0,1) via (0,0) or (1,1),
        // from (0,-1) via (0,0) or (1,-1), from (-1,0) via (0,0) —
        // five paths of probability (1/4)^3 each.
        let c = collapse(&randomwalk_kernel()).unwrap();
        let curve = dense_absorption_cdf(&c, "randomwalk", Point::new(1, 0), 6).unwrap();
        assert_eq!(curve.cdf[0], 0.0);
        assert_eq!(curve.cdf[1], 0.25);
        assert_eq!(curve.cdf[2], 0.25);
        let f3 = 0.25 + 5.0 / 64.0;
        assert!((curve.cdf[3] - f3).abs() < 1e-15, "F(3) = {}", curve.cdf[3]);
        for m in 1..curve.cdf.len() {
            assert!(curve.cdf[m] >= curve.cdf[m - 1]);
        }
        assert_eq!(curve.lost, 0.0);
    }

    #[test]
    fn mortal_curve_flatlines_at_expiry() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 3).unwrap();
        let c = collapse(&k).unwrap();
        let curve = dense_absorption_cdf(&c, "mortal", Point::new(1, 0), 8).unwrap();
        let base = collapse(&inner).unwrap();
        let free = dense_absorption_cdf(&base, "randomwalk", Point::new(1, 0), 8).unwrap();
        // Identical while alive, frozen after the third move.
        for m in 0..=3 {
            assert_eq!(curve.cdf[m], free.cdf[m], "move {m}");
        }
        for m in 4..=8 {
            assert_eq!(curve.cdf[m], curve.cdf[3], "move {m}");
        }
        assert!(free.cdf[8] > curve.cdf[8]);
    }

    #[test]
    fn nonuniform_far_target_unreachable_mass_is_conserved() {
        let k = nonuniform_kernel(4).unwrap();
        let c = collapse(&k).unwrap();
        let curve = dense_absorption_cdf(&c, "nonuniform(4)", Point::new(2, 2), 32).unwrap();
        assert!(curve.cdf[32] > 0.0 && curve.cdf[32] < 1.0);
        assert!(curve.lost < crate::TRUNCATION_TOL);
    }

    #[test]
    fn table_guard_trips_on_huge_budget() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let err = dense_absorption_cdf(&c, "randomwalk", Point::new(1, 0), 1 << 12).unwrap_err();
        assert!(matches!(err, DpError::Guard { .. }), "{err}");
    }

    #[test]
    fn origin_target_rejected() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let err = dense_absorption_cdf(&c, "randomwalk", Point::ORIGIN, 4).unwrap_err();
        assert!(matches!(err, DpError::Unsupported { .. }));
    }
}
