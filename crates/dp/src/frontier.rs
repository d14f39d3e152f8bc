//! Sparse-frontier forward DPs: the same move- and step-indexed
//! propagation as [`crate::absorb`] / [`crate::rounds`], but over only
//! the occupied `(state, position)` entries instead of the full dense
//! budget square.
//!
//! ## Representation
//!
//! The frontier is a `Vec<(u64, f64)>` sorted by a packed key
//! `(state, x + B, y + B)` (state in the high 22 bits, each offset
//! coordinate in 21 bits). One move scatters every entry through its
//! state's exits into a scratch vector, then a *stable* sort + run
//! merge rebuilds the sorted frontier. Stability matters: contributions
//! to one cell are summed in exactly the order the dense table would
//! have added them, so an unfolded sparse solve is bit-identical to the
//! dense solve — same CDF bytes, same pruned mass, same summation
//! order. The cost per move is `O(E log E)` in the number of scattered
//! entries `E`, against the dense table's `O(states × (2B+1)²)`
//! regardless of occupancy; kernels whose mass stays concentrated
//! (mortal expiries, long budgets with far targets, drift automata)
//! keep `E` orders of magnitude below the box.
//!
//! ## Symmetry folding
//!
//! Two different uses of the kernels' grid symmetries meet here; both
//! rest on the one check in [`crate::symmetry`].
//!
//! * **In-solve folding** (this module): when a grid reflection `σ`
//!   fixes the target and the origin, and leaves every reachable row
//!   invariant with the state permutation `π` the identity (as a
//!   multiset of `(next state, σ-mapped action, probability, reset)`),
//!   one DP runs on the quotient chain — each stored entry carries the
//!   *total* mass of its `{p, σp}` orbit and scatters to canonical
//!   representatives only. That halves the frontier (minus the fixed
//!   axis) at the cost of last-ulp differences from the dense solve;
//!   agreement stays far inside the crate's 1e-9 exactness tolerance
//!   (proptest-pinned in `tests/sparse_parity.rs`). The random walk and
//!   its mortal wrapper fold; the square-search kernels, whose state
//!   records the walk direction, never do.
//! * **Cross-point orbit dedupe** ([`crate::curve_units`]): any `σ`
//!   with *some* verified `π` — the square-search kernels qualify with
//!   `π` swapping their direction blocks — makes the curves at `t` and
//!   at `σt` equal, so the evaluator solves one curve per orbit of the
//!   target and bounds points and never touches the solve itself.
//!
//! ## Accounting
//!
//! The three exact channels are identical to the dense DPs: deficit
//! mass is dropped, truncation-state mass and sub-[`crate::PRUNE`]
//! entries accumulate into `lost` and are checked against
//! [`crate::TRUNCATION_TOL`]. The only guards are a per-move cap on the
//! merged frontier length ([`crate::MAX_FRONTIER_ENTRIES`]) and the
//! packed-key coordinate span ([`crate::MAX_SPARSE_SPAN`]) — there is
//! no up-front refusal based on the budget square, which is the point:
//! cells the dense guard rejects outright often have tiny frontiers.

use crate::absorb::AbsorptionCurve;
use crate::collapse::CollapsedKernel;
use crate::error::DpError;
use crate::kernel::{MarkovKernel, PositionClass};
use crate::symmetry::{Chain, Mirror};
use ants_automaton::GridAction;
use ants_grid::Point;

/// The first reflection that fixes `target` (the origin is fixed by
/// all four). `None` for off-axis, off-diagonal targets.
fn mirror_for(target: Point) -> Option<Mirror> {
    if target.y == 0 {
        Some(Mirror::NegY)
    } else if target.x == 0 {
        Some(Mirror::NegX)
    } else if target.x == target.y {
        Some(Mirror::Swap)
    } else if target.x == -target.y {
        Some(Mirror::AntiSwap)
    } else {
        None
    }
}

/// Statistics of one sparse solve, for `ants profile` narration and the
/// `BENCH_dp.json` frontier-size record.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontierStats {
    /// Largest merged frontier length reached at any move/round.
    pub peak_entries: usize,
    /// Was a symmetry fold applied?
    pub folded: bool,
}

/// Packed `(state, x + span, y + span)` key; sorts state-major then
/// row-major — the dense tables' exact iteration order.
#[inline]
fn pack(span: i64, s: usize, x: i64, y: i64) -> u64 {
    debug_assert!(x.abs() <= span && y.abs() <= span);
    ((s as u64) << 42) | (((x + span) as u64) << 21) | ((y + span) as u64)
}

#[inline]
fn unpack(span: i64, key: u64) -> (usize, i64, i64) {
    let s = (key >> 42) as usize;
    let x = ((key >> 21) & 0x1f_ffff) as i64 - span;
    let y = (key & 0x1f_ffff) as i64 - span;
    (s, x, y)
}

/// Check the packed-key span and state-count limits up front.
fn check_shape(label: &str, states: usize, span: u64, clock: &str) -> Result<(), DpError> {
    if span > crate::MAX_SPARSE_SPAN {
        return Err(DpError::Guard {
            what: format!("sparse frontier coordinate span for {label} ({clock} {span})"),
            limit: crate::MAX_SPARSE_SPAN as usize,
            hint: "shrink the cell or use backend = \"mc\"".into(),
        });
    }
    if states >= 1 << 22 {
        return Err(DpError::Guard {
            what: format!("sparse frontier state space for {label} ({states} states)"),
            limit: (1 << 22) - 1,
            hint: "shrink the cell or use backend = \"mc\"".into(),
        });
    }
    Ok(())
}

/// Stable-sort the scratch scatter list and merge equal keys by
/// left-to-right summation (the dense tables' accumulation order),
/// writing the merged frontier into `out`.
fn merge_scatter(scratch: &mut [(u64, f64)], out: &mut Vec<(u64, f64)>) {
    scratch.sort_by_key(|&(k, _)| k);
    out.clear();
    for &(k, p) in scratch.iter() {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 += p,
            _ => out.push((k, p)),
        }
    }
}

/// Guard the merged frontier length.
fn check_frontier(label: &str, len: usize, m: i64, clock: &str) -> Result<(), DpError> {
    if len > crate::MAX_FRONTIER_ENTRIES {
        return Err(DpError::Guard {
            what: format!("sparse frontier for {label} ({len} live entries at {clock} {m})"),
            limit: crate::MAX_FRONTIER_ENTRIES,
            hint: "shrink the cell or use backend = \"mc\"".into(),
        });
    }
    Ok(())
}

/// Sparse twin of [`crate::dense_absorption_cdf`]: same semantics,
/// same accounting, frontier storage. Unfolded solves are bit-identical
/// to the dense table; folded solves agree to well within
/// [`crate::TRUNCATION_TOL`].
///
/// # Errors
///
/// * [`DpError::Guard`] when the live frontier exceeds
///   [`crate::MAX_FRONTIER_ENTRIES`] or the budget exceeds the packed
///   coordinate span.
/// * [`DpError::Truncation`] / [`DpError::Unsupported`] exactly as the
///   dense solver.
pub fn sparse_absorption_cdf(
    collapsed: &CollapsedKernel,
    label: &str,
    target: Point,
    budget: u64,
) -> Result<AbsorptionCurve, DpError> {
    sparse_absorption_cdf_stats(collapsed, label, target, budget).map(|(curve, _)| curve)
}

/// [`sparse_absorption_cdf`] plus the solve's [`FrontierStats`].
///
/// # Errors
///
/// As [`sparse_absorption_cdf`].
pub fn sparse_absorption_cdf_stats(
    collapsed: &CollapsedKernel,
    label: &str,
    target: Point,
    budget: u64,
) -> Result<(AbsorptionCurve, FrontierStats), DpError> {
    if target == Point::ORIGIN {
        return Err(DpError::Unsupported {
            what: "absorption at the origin".into(),
            reason: "targets are never placed on the origin".into(),
        });
    }
    let states = collapsed.rows.len();
    check_shape(label, states, budget, "move budget")?;
    let span = budget as i64;
    let mirror = mirror_for(target).filter(|&m| Chain::of_collapsed(collapsed).fixed_by(m));
    let canon = |x: i64, y: i64| -> (i64, i64) {
        match mirror {
            Some(m) => m.canon(x, y),
            None => (x, y),
        }
    };

    // Per-state exit split, identical to the dense solver: clean exits
    // scatter per occupied position; reset exits apply once to the
    // state's positional marginal and teleport to `dir.delta()`.
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

    let mut cur: Vec<(u64, f64)> = vec![(pack(span, collapsed.start, 0, 0), 1.0)];
    let mut scratch: Vec<(u64, f64)> = Vec::new();
    let mut cdf = Vec::with_capacity(budget as usize + 1);
    cdf.push(0.0);
    let mut absorbed = 0.0f64;
    let mut lost = 0.0f64;
    let mut peak = cur.len();

    for m in 1..=span {
        scratch.clear();
        let mut i = 0;
        while i < cur.len() {
            let s = (cur[i].0 >> 42) as usize;
            if clean[s].is_empty() && reset[s].is_empty() && trunc_of[s] == 0.0 {
                // Dead state: its mass is deficit — skip the group.
                while i < cur.len() && (cur[i].0 >> 42) as usize == s {
                    i += 1;
                }
                continue;
            }
            let mut marginal = 0.0f64;
            while i < cur.len() && (cur[i].0 >> 42) as usize == s {
                let (key, p) = cur[i];
                i += 1;
                if p == 0.0 {
                    continue;
                }
                if p < crate::PRUNE {
                    lost += p;
                    continue;
                }
                marginal += p;
                let (_, x, y) = unpack(span, key);
                for e in &clean[s] {
                    let (nx, ny) = (x + e.dx, y + e.dy);
                    let mass = p * e.prob;
                    if nx == target.x && ny == target.y {
                        absorbed += mass;
                    } else {
                        let (cx, cy) = canon(nx, ny);
                        scratch.push((pack(span, e.next, cx, cy), mass));
                    }
                }
            }
            if marginal > 0.0 {
                for e in &reset[s] {
                    let mass = marginal * e.prob;
                    if e.dx == target.x && e.dy == target.y {
                        absorbed += mass;
                    } else {
                        let (cx, cy) = canon(e.dx, e.dy);
                        scratch.push((pack(span, e.next, cx, cy), mass));
                    }
                }
                lost += marginal * trunc_of[s];
            }
        }
        merge_scatter(&mut scratch, &mut cur);
        check_frontier(label, cur.len(), m, "move")?;
        peak = peak.max(cur.len());
        cdf.push(absorbed);
    }

    if lost > crate::TRUNCATION_TOL {
        return Err(DpError::Truncation { kernel: label.to_string(), lost });
    }
    Ok((
        AbsorptionCurve { cdf, lost },
        FrontierStats { peak_entries: peak, folded: mirror.is_some() },
    ))
}

/// Sparse twin of [`crate::dense_first_landing_cdf`], the step-indexed
/// DP behind [`crate::step_absorption_cdf`] /
/// [`crate::visit_survival_curve`]: raw per-step kernel rows,
/// absorption on move landings only, `Origin` teleports to the origin.
///
/// # Errors
///
/// As [`sparse_absorption_cdf`], against the round clock.
pub fn sparse_first_landing_cdf(
    kernel: &dyn MarkovKernel,
    label: &str,
    point: Point,
    horizon: u64,
) -> Result<(Vec<f64>, FrontierStats), DpError> {
    let states = kernel.num_states();
    check_shape(label, states, horizon, "horizon")?;
    let span = horizon as i64;
    let mirror = mirror_for(point).filter(|&m| Chain::of_kernel(kernel).fixed_by(m));
    let canon = |x: i64, y: i64| -> (i64, i64) {
        match mirror {
            Some(m) => m.canon(x, y),
            None => (x, y),
        }
    };
    let mut is_trunc = vec![false; states];
    for &t in kernel.truncation_states() {
        is_trunc[t] = true;
    }

    let mut cur: Vec<(u64, f64)> = vec![(pack(span, kernel.start(), 0, 0), 1.0)];
    let mut scratch: Vec<(u64, f64)> = Vec::new();
    let mut out = Vec::with_capacity(horizon as usize + 1);
    out.push(0.0);
    let mut absorbed = 0.0f64;
    let mut lost = 0.0f64;
    let mut peak = cur.len();

    for r in 1..=span {
        scratch.clear();
        let mut i = 0;
        while i < cur.len() {
            let s = (cur[i].0 >> 42) as usize;
            let row = kernel.row(s, PositionClass::Away);
            if row.is_empty() {
                while i < cur.len() && (cur[i].0 >> 42) as usize == s {
                    i += 1;
                }
                continue;
            }
            while i < cur.len() && (cur[i].0 >> 42) as usize == s {
                let (key, p) = cur[i];
                i += 1;
                if p == 0.0 {
                    continue;
                }
                if p < crate::PRUNE {
                    lost += p;
                    continue;
                }
                let (_, x, y) = unpack(span, key);
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
                                let (cx, cy) = canon(nx, ny);
                                scratch.push((pack(span, t.next, cx, cy), mass));
                            }
                        }
                        GridAction::None => scratch.push((pack(span, t.next, x, y), mass)),
                        GridAction::Origin => scratch.push((pack(span, t.next, 0, 0), mass)),
                    }
                }
            }
        }
        merge_scatter(&mut scratch, &mut cur);
        check_frontier(label, cur.len(), r, "round")?;
        peak = peak.max(cur.len());
        out.push(absorbed);
    }

    if lost > crate::TRUNCATION_TOL {
        return Err(DpError::Truncation { kernel: label.to_string(), lost });
    }
    Ok((out, FrontierStats { peak_entries: peak, folded: mirror.is_some() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse;
    use crate::kernel::{mortal_kernel, nonuniform_kernel, randomwalk_kernel};

    #[test]
    fn off_axis_target_folds_nothing() {
        assert_eq!(mirror_for(Point::new(2, 1)), None);
        assert_eq!(mirror_for(Point::new(3, 0)), Some(Mirror::NegY));
        assert_eq!(mirror_for(Point::new(0, -3)), Some(Mirror::NegX));
        assert_eq!(mirror_for(Point::new(2, 2)), Some(Mirror::Swap));
        assert_eq!(mirror_for(Point::new(2, -2)), Some(Mirror::AntiSwap));
    }

    #[test]
    fn unfolded_sparse_is_bit_identical_to_dense() {
        // Target (2,1) admits no mirror, so the sparse solve replays the
        // dense summation order exactly — byte-identical CDF.
        let c = collapse(&nonuniform_kernel(4).unwrap()).unwrap();
        let target = Point::new(2, 1);
        let dense = crate::absorb::dense_absorption_cdf(&c, "nu", target, 24).unwrap();
        let (sparse, stats) = sparse_absorption_cdf_stats(&c, "nu", target, 24).unwrap();
        assert!(!stats.folded);
        assert_eq!(dense.lost.to_bits(), sparse.lost.to_bits());
        for (m, (a, b)) in dense.cdf.iter().zip(sparse.cdf.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "move {m}: {a} vs {b}");
        }
    }

    #[test]
    fn folded_sparse_agrees_with_dense_on_axis_target() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let target = Point::new(3, 0);
        let dense = crate::absorb::dense_absorption_cdf(&c, "rw", target, 32).unwrap();
        let (sparse, stats) = sparse_absorption_cdf_stats(&c, "rw", target, 32).unwrap();
        assert!(stats.folded, "axis target must fold");
        for (m, (a, b)) in dense.cdf.iter().zip(sparse.cdf.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12, "move {m}: {a} vs {b}");
        }
        // Folding roughly halves the frontier.
        let (_, unfolded) = sparse_absorption_cdf_stats(&c, "rw", Point::new(3, 1), 32).unwrap();
        assert!(stats.peak_entries < unfolded.peak_entries);
    }

    #[test]
    fn sparse_solves_past_the_dense_guard() {
        // mortal(randomwalk, 1000) at budget 64: the dense table wants
        // 1001 × 129² ≈ 16.7M entries (> MAX_TABLE_ENTRIES), but only
        // one lifetime layer is ever occupied, so the frontier stays
        // tiny.
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 1000).unwrap();
        let c = collapse(&k).unwrap();
        let target = Point::new(4, 0);
        assert!(matches!(
            crate::absorb::dense_absorption_cdf(&c, "mortal", target, 64),
            Err(DpError::Guard { .. })
        ));
        let (curve, stats) = sparse_absorption_cdf_stats(&c, "mortal", target, 64).unwrap();
        assert_eq!(curve.cdf.len(), 65);
        assert!(stats.peak_entries <= 129 * 129);
        // The free walk never expires within 64 moves, so the curves
        // agree with the plain random walk's.
        let free = collapse(&inner).unwrap();
        let base = crate::absorb::dense_absorption_cdf(&free, "rw", target, 64).unwrap();
        for (m, (a, b)) in base.cdf.iter().zip(curve.cdf.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12, "move {m}: {a} vs {b}");
        }
    }

    #[test]
    fn sparse_step_cdf_matches_dense_rounds() {
        // The random walk's single state is row-invariant under every
        // mirror, so a diagonal target folds.
        let rw = randomwalk_kernel();
        let dense =
            crate::rounds::dense_first_landing_cdf(&rw, "rw", Point::new(2, 2), 24).unwrap();
        let (sparse, stats) = sparse_first_landing_cdf(&rw, "rw", Point::new(2, 2), 24).unwrap();
        assert!(stats.folded, "diagonal target must fold for the random walk");
        for (r, (a, b)) in dense.iter().zip(sparse.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12, "round {r}: {a} vs {b}");
        }
        // The nonuniform kernel encodes its walk direction in the state
        // (vertical vs horizontal blocks), so no identity-on-state
        // mirror leaves its rows invariant: every target runs unfolded —
        // and therefore bit-identical to the dense rounds DP.
        let k = nonuniform_kernel(4).unwrap();
        for target in [Point::new(1, 1), Point::new(2, 1)] {
            let (unfolded, ustats) = sparse_first_landing_cdf(&k, "nu", target, 24).unwrap();
            assert!(!ustats.folded);
            let dense2 = crate::rounds::dense_first_landing_cdf(&k, "nu", target, 24).unwrap();
            for (r, (a, b)) in dense2.iter().zip(unfolded.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "round {r}");
            }
        }
    }

    #[test]
    fn span_guard_trips_on_absurd_budget() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        let err = sparse_absorption_cdf(&c, "rw", Point::new(1, 0), crate::MAX_SPARSE_SPAN + 1)
            .unwrap_err();
        assert!(matches!(err, DpError::Guard { .. }), "{err}");
    }
}
