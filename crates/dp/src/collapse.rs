//! Per-move collapse: turn a step-indexed kernel into a move-indexed one.
//!
//! The paper's quantities are indexed by *moves*, but a kernel steps
//! once per RNG event — a `uniform` searcher may flip hundreds of coins
//! between two moves. Running the occupancy DP per step would make its
//! horizon the step count; this module collapses each maximal run of
//! non-move steps into an exact per-move transition table, so the
//! absorption DP's horizon is the move budget.
//!
//! A segment starts right after a move (or at trial start) and ends at
//! the next move. Within a segment only `None` and `Origin` actions
//! occur; the position at the segment's end is `p + δ(dir)` if no
//! `Origin` occurred, or `origin + δ(dir)` if one did (later `Origin`s
//! overwrite earlier positions, but both land on the origin, so a single
//! "was reset" flag suffices). The collapse therefore computes, per
//! starting state, the exact joint distribution of
//! `(exit state, move direction, reset flag)` — a standard absorption
//! problem on the kernel's non-move transition graph, solved by dense
//! Gaussian elimination in a fixed order (bit-deterministic).
//!
//! The solve runs in two blocks. The *reset* block (an `Origin` has
//! already occurred) treats both `None` and `Origin` edges as transient.
//! The *clean* block treats only `None` edges as transient; its `Origin`
//! edges couple into the reset block's solved rows. Mass that can never
//! move again — a mortal kernel past its expiry — leaves both systems as
//! an implicit deficit (`1 − Σ exits − trunc`), and mass entering a
//! designated truncation state is tracked in a dedicated column so the
//! DP can enforce [`crate::TRUNCATION_TOL`].

use crate::error::DpError;
use crate::kernel::{MarkovKernel, PositionClass};
use ants_automaton::GridAction;
use ants_grid::Direction;
use std::collections::HashMap;

/// One collapsed per-move exit: the next internal state, the direction
/// moved, and whether an `Origin` reset happened during the segment
/// (if so, the move is taken from the origin, not the current position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoveExit {
    /// Internal state after the move.
    pub next: usize,
    /// Direction of the move that ends the segment.
    pub dir: Direction,
    /// Did an `Origin` action occur since the segment started?
    pub reset: bool,
}

/// One state's collapsed distribution over [`MoveExit`]s.
#[derive(Debug, Clone, Default)]
pub struct CollapsedRow {
    /// Sparse distribution over exit indices into
    /// [`CollapsedKernel::exits`].
    pub exits: Vec<(u32, f64)>,
    /// Probability of entering a truncation state before the next move.
    pub trunc: f64,
}

impl CollapsedRow {
    /// Mass that never moves again (halted agents): the complement of
    /// exits and truncation.
    pub fn deficit(&self) -> f64 {
        (1.0 - self.trunc - self.exits.iter().map(|&(_, p)| p).sum::<f64>()).max(0.0)
    }
}

/// A kernel collapsed to per-move transitions.
#[derive(Debug, Clone)]
pub struct CollapsedKernel {
    /// Start state of the underlying kernel.
    pub start: usize,
    /// The deduplicated exit alphabet.
    pub exits: Vec<MoveExit>,
    /// Per starting state, the exact distribution over exits.
    pub rows: Vec<CollapsedRow>,
}

/// Edge classification of one kernel state.
struct Edges {
    /// `None`-action edges to non-truncation states.
    none: Vec<(usize, f64)>,
    /// `Origin`-action edges to non-truncation states.
    origin: Vec<(usize, f64)>,
    /// Move edges `(next, dir, prob)` — these end the segment whatever
    /// their target state is.
    moves: Vec<(usize, Direction, f64)>,
    /// Total probability of `None`/`Origin` edges into truncation states.
    trunc: f64,
}

/// Gaussian elimination with partial pivoting on `[A | rhs]`, solving
/// `A · X = rhs` in place, with `A` dense and the right-hand side held
/// as one sparse row per equation: exits sorted by index, absent
/// entries `+0.0`, plus the dense truncation column. Fixed scan order —
/// bit-deterministic.
///
/// Pivots and row operations are exactly those of the dense solve on
/// `[A | rhs]` (kept under `cfg(test)` as [`solve_dense`]): every entry
/// present in either row sees the same `x − factor·y`, every entry
/// absent from both stays zero. An absent `x` enters as `0.0`, and
/// `0.0 − v` is exactly `−v`, so the non-zero results match the dense
/// solve bit for bit; only the sign of a zero could differ, and zeros
/// never reach the collapsed rows. Memory is `O(k² + nnz)` instead of
/// the dense `O(k · exits)`. `a` is row-major `n × n`.
fn solve_sparse(n: usize, a: &mut [f64], rhs: &mut [CollapsedRow]) -> Result<(), DpError> {
    let mut merged: Vec<(u32, f64)> = Vec::new();
    for col in 0..n {
        let pivot_row = pivot(n, a, col)?;
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            rhs.swap(col, pivot_row);
        }
        let inv = 1.0 / a[col * n + col];
        let pivot = std::mem::take(&mut rhs[col]);
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            let target = &mut rhs[row];
            if !pivot.exits.is_empty() {
                merged.clear();
                let (x, y) = (&target.exits, &pivot.exits);
                let (mut i, mut j) = (0, 0);
                while i < x.len() || j < y.len() {
                    match (x.get(i), y.get(j)) {
                        (Some(&(ex, px)), Some(&(ey, py))) if ex == ey => {
                            merged.push((ex, px - factor * py));
                            i += 1;
                            j += 1;
                        }
                        (Some(&(ex, px)), Some(&(ey, _))) if ex < ey => {
                            merged.push((ex, px));
                            i += 1;
                        }
                        (Some(&(ex, px)), None) => {
                            merged.push((ex, px));
                            i += 1;
                        }
                        (_, Some(&(ey, py))) => {
                            merged.push((ey, 0.0 - factor * py));
                            j += 1;
                        }
                        (None, None) => unreachable!("loop condition"),
                    }
                }
                std::mem::swap(&mut target.exits, &mut merged);
            }
            target.trunc -= factor * pivot.trunc;
        }
        rhs[col] = pivot;
    }
    for (row, r) in rhs.iter_mut().enumerate() {
        let inv = 1.0 / a[row * n + row];
        for (_, p) in &mut r.exits {
            *p *= inv;
        }
        r.trunc *= inv;
    }
    Ok(())
}

/// The partial-pivoting choice for column `col`: the row at or below
/// `col` with the largest `|a[row][col]|` (last one on ties).
fn pivot(n: usize, a: &[f64], col: usize) -> Result<usize, DpError> {
    let pivot_row = (col..n)
        .max_by(|&i, &j| a[i * n + col].abs().partial_cmp(&a[j * n + col].abs()).expect("finite"))
        .expect("non-empty range");
    if a[pivot_row * n + col].abs() < 1e-300 {
        return Err(DpError::Unsupported {
            what: "per-move collapse".into(),
            reason: "singular transient system (a state set loops forever without \
                     moving yet was not eliminated as dead)"
                .into(),
        });
    }
    Ok(pivot_row)
}

/// The dense reference for [`solve_sparse`]: Gaussian elimination with
/// partial pivoting on `[A | rhs]`, both dense. `a` is row-major
/// `n × n`, `rhs` row-major `n × m`.
#[cfg(test)]
fn solve_dense(n: usize, m: usize, a: &mut [f64], rhs: &mut [f64]) -> Result<(), DpError> {
    for col in 0..n {
        let pivot_row = pivot(n, a, col)?;
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            for k in 0..m {
                rhs.swap(col * m + k, pivot_row * m + k);
            }
        }
        let inv = 1.0 / a[col * n + col];
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            for k in 0..m {
                rhs[row * m + k] -= factor * rhs[col * m + k];
            }
        }
    }
    for row in 0..n {
        let inv = 1.0 / a[row * n + row];
        for k in 0..m {
            rhs[row * m + k] *= inv;
        }
    }
    Ok(())
}

/// States from which the block's transient graph can reach a leak
/// (a state with any non-transient edge). Mass in a non-live state can
/// never exit — it is dead (halted) and leaves the system as deficit.
fn live_states(
    n: usize,
    transient: impl Fn(usize) -> Vec<(usize, f64)>,
    leaky: impl Fn(usize) -> bool,
) -> Vec<bool> {
    // Reverse adjacency of the transient graph, then BFS from the leaks.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for s in 0..n {
        for (t, p) in transient(s) {
            if p > 0.0 && t != s {
                rev[t].push(s);
            }
        }
    }
    let mut live = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&s| leaky(s)).collect();
    for &s in &queue {
        live[s] = true;
    }
    while let Some(s) = queue.pop() {
        for &p in &rev[s] {
            if !live[p] {
                live[p] = true;
                queue.push(p);
            }
        }
    }
    live
}

/// A transient-system solver: `A · X = rhs` in place, `A` dense `k × k`,
/// one sparse right-hand-side row per equation.
type Solver = fn(usize, &mut [f64], &mut [CollapsedRow]) -> Result<(), DpError>;

/// Collapse `kernel` into per-move transitions.
///
/// # Errors
///
/// * [`DpError::Guard`] if the state space exceeds
///   [`crate::MAX_SOLVE_STATES`].
/// * [`DpError::Unsupported`] for position-sensitive kernels.
pub fn collapse(kernel: &dyn MarkovKernel) -> Result<CollapsedKernel, DpError> {
    collapse_with(kernel, solve_sparse)
}

/// [`collapse`] with the transient systems solved by `solve`.
fn collapse_with(kernel: &dyn MarkovKernel, solve: Solver) -> Result<CollapsedKernel, DpError> {
    let n = kernel.num_states();
    if n > crate::MAX_SOLVE_STATES {
        return Err(DpError::Guard {
            what: format!("{} internal-state space ({n} states)", kernel.label()),
            limit: crate::MAX_SOLVE_STATES,
            hint: "shrink the cell or use backend = \"mc\"".into(),
        });
    }
    if kernel.position_sensitive() {
        return Err(DpError::Unsupported {
            what: format!("kernel {}", kernel.label()),
            reason: "the per-move collapse only supports position-oblivious kernels".into(),
        });
    }
    let mut is_trunc = vec![false; n];
    for &t in kernel.truncation_states() {
        is_trunc[t] = true;
    }
    let edges: Vec<Edges> = (0..n)
        .map(|s| {
            let mut e =
                Edges { none: Vec::new(), origin: Vec::new(), moves: Vec::new(), trunc: 0.0 };
            for t in kernel.row(s, PositionClass::Away) {
                if t.prob == 0.0 {
                    continue;
                }
                match t.action {
                    GridAction::Move(dir) => e.moves.push((t.next, dir, t.prob)),
                    GridAction::None if is_trunc[t.next] => e.trunc += t.prob,
                    GridAction::None => e.none.push((t.next, t.prob)),
                    GridAction::Origin if is_trunc[t.next] => e.trunc += t.prob,
                    GridAction::Origin => e.origin.push((t.next, t.prob)),
                }
            }
            e
        })
        .collect();

    // Exit alphabet, deduplicated in first-appearance order (states in
    // index order, reset block enumerated before the clean block's own
    // moves) — deterministic.
    let mut exits: Vec<MoveExit> = Vec::new();
    let mut exit_idx: HashMap<MoveExit, u32> = HashMap::new();
    let mut intern = |exits: &mut Vec<MoveExit>, e: MoveExit| -> u32 {
        *exit_idx.entry(e).or_insert_with(|| {
            exits.push(e);
            (exits.len() - 1) as u32
        })
    };

    // --- Reset block: an Origin already occurred. Transient edges are
    // None + Origin; moves exit with reset = true.
    /// Per-state RHS builder passed to `solve_block`: maps a state to
    /// its (exit row, coupled truncation mass), interning new exits
    /// through the supplied interner.
    type RhsOf<'a> = dyn Fn(
            usize,
            &mut Vec<MoveExit>,
            &mut dyn FnMut(&mut Vec<MoveExit>, MoveExit) -> u32,
        ) -> (Vec<(u32, f64)>, f64)
        + 'a;
    let solve_block = |exits: &mut Vec<MoveExit>,
                       intern: &mut dyn FnMut(&mut Vec<MoveExit>, MoveExit) -> u32,
                       transient_of: &dyn Fn(usize) -> Vec<(usize, f64)>,
                       extra_leak: &dyn Fn(usize) -> bool,
                       rhs_of: &RhsOf|
     -> Result<Vec<CollapsedRow>, DpError> {
        let live = live_states(
            n,
            |s| if is_trunc[s] { Vec::new() } else { transient_of(s) },
            |s| {
                !is_trunc[s]
                    && (!edges[s].moves.is_empty() || edges[s].trunc > 0.0 || extra_leak(s))
            },
        );
        // Map live, non-trunc states into the dense system.
        let sys: Vec<usize> = (0..n).filter(|&s| live[s] && !is_trunc[s]).collect();
        let pos: HashMap<usize, usize> = sys.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        // Build per-state RHS rows first: interning assigns exit indices.
        let mut raw_rows: Vec<(Vec<(u32, f64)>, f64)> = Vec::with_capacity(sys.len());
        for &s in &sys {
            raw_rows.push(rhs_of(s, exits, intern));
        }
        let k = sys.len();
        let mut a = vec![0.0f64; k * k];
        let mut rhs: Vec<CollapsedRow> = Vec::with_capacity(k);
        for (i, (&s, (mut raw, coupled_trunc))) in sys.iter().zip(raw_rows).enumerate() {
            a[i * k + i] = 1.0;
            for (t, p) in transient_of(s) {
                if let Some(&j) = pos.get(&t) {
                    a[i * k + j] -= p;
                }
                // Edges to dead states: deficit (dropped).
            }
            // One entry per exit, ascending; repeated exits sum from
            // 0.0 in their order of appearance (the sort is stable),
            // exactly as the dense solve accumulated into a zeroed
            // column.
            raw.sort_by_key(|&(e, _)| e);
            let mut exits: Vec<(u32, f64)> = Vec::with_capacity(raw.len());
            for (e, p) in raw {
                match exits.last_mut() {
                    Some(last) if last.0 == e => last.1 += p,
                    _ => exits.push((e, 0.0 + p)),
                }
            }
            // Direct edges into truncation states plus any trunc
            // mass inherited through an Origin coupling.
            rhs.push(CollapsedRow { exits, trunc: 0.0 + (coupled_trunc + edges[s].trunc) });
        }
        solve(k, &mut a, &mut rhs)?;
        let mut out = vec![CollapsedRow::default(); n];
        for (&s, r) in sys.iter().zip(rhs) {
            let exits = r.exits.into_iter().filter(|&(_, p)| p > 0.0).collect();
            out[s] = CollapsedRow { exits, trunc: r.trunc.max(0.0) };
        }
        for s in 0..n {
            if is_trunc[s] {
                out[s] = CollapsedRow { exits: Vec::new(), trunc: 1.0 };
            }
        }
        Ok(out)
    };

    let reset_rows = solve_block(
        &mut exits,
        &mut intern,
        &|s| {
            let mut t = edges[s].none.clone();
            t.extend(edges[s].origin.iter().copied());
            t
        },
        &|_| false,
        &|s, exits, intern| {
            let row = edges[s]
                .moves
                .iter()
                .map(|&(next, dir, p)| (intern(exits, MoveExit { next, dir, reset: true }), p))
                .collect();
            (row, 0.0)
        },
    )?;

    // --- Clean block: no Origin yet. Transient edges are None only;
    // Origin edges couple into the reset block's solved rows; moves exit
    // with reset = false.
    let clean_rows = solve_block(
        &mut exits,
        &mut intern,
        &|s| edges[s].none.clone(),
        &|s| !edges[s].origin.is_empty(),
        &|s, exits, intern| {
            let mut row: Vec<(u32, f64)> = edges[s]
                .moves
                .iter()
                .map(|&(next, dir, p)| (intern(exits, MoveExit { next, dir, reset: false }), p))
                .collect();
            let mut trunc = 0.0;
            for &(t, p) in &edges[s].origin {
                // Mass teleports to the origin, then evolves in the
                // reset block from state t.
                let coupled = &reset_rows[t];
                for &(e, q) in &coupled.exits {
                    row.push((e, p * q));
                }
                trunc += p * coupled.trunc;
            }
            (row, trunc)
        },
    )?;

    // Drop exit columns no final row references (the reset block interns
    // its move exits eagerly; kernels without Origin edges never use
    // them) and remap indices — deterministic, order-preserving.
    let mut used = vec![false; exits.len()];
    for r in &clean_rows {
        for &(e, p) in &r.exits {
            if p > 0.0 {
                used[e as usize] = true;
            }
        }
    }
    let mut remap = vec![u32::MAX; exits.len()];
    let mut compact = Vec::new();
    for (i, e) in exits.into_iter().enumerate() {
        if used[i] {
            remap[i] = compact.len() as u32;
            compact.push(e);
        }
    }
    let rows = clean_rows
        .into_iter()
        .map(|r| CollapsedRow {
            exits: r
                .exits
                .into_iter()
                .filter(|&(_, p)| p > 0.0)
                .map(|(e, p)| (remap[e as usize], p))
                .collect(),
            trunc: r.trunc,
        })
        .collect();

    Ok(CollapsedKernel { start: kernel.start(), exits: compact, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{
        coin_kernel, mortal_kernel, nonuniform_kernel, pfa_kernel, randomwalk_kernel,
        uniform_kernel, TableKernel, UNIFORM_PHASE_CAP,
    };
    use ants_automaton::library;
    use ants_rng::{SeedableRng64, Xoshiro256PlusPlus};
    use proptest::prelude::*;

    /// [`solve_dense`] behind the [`Solver`] signature: densify the
    /// right-hand side (one column per exit index up to the largest
    /// present, plus trunc), solve, and hand every column back.
    fn solve_dense_rows(k: usize, a: &mut [f64], rhs: &mut [CollapsedRow]) -> Result<(), DpError> {
        let exits = rhs
            .iter()
            .flat_map(|r| r.exits.iter().map(|&(e, _)| e as usize + 1))
            .max()
            .unwrap_or(0);
        let m = exits + 1;
        let mut dense = vec![0.0f64; k * m];
        for (i, r) in rhs.iter().enumerate() {
            for &(e, p) in &r.exits {
                dense[i * m + e as usize] = p;
            }
            dense[i * m + exits] = r.trunc;
        }
        solve_dense(k, m, a, &mut dense)?;
        for (i, r) in rhs.iter_mut().enumerate() {
            r.exits = (0..exits).map(|e| (e as u32, dense[i * m + e])).collect();
            r.trunc = dense[i * m + exits];
        }
        Ok(())
    }

    /// The sparse-RHS collapse equals the dense reference bit for bit:
    /// same exit alphabet, and per row the same exit indices, the same
    /// probability bits, the same trunc bits.
    fn assert_matches_dense(kernel: &TableKernel) {
        let sparse = collapse(kernel).unwrap();
        let dense = collapse_with(kernel, solve_dense_rows).unwrap();
        let label = kernel.label();
        assert_eq!(sparse.start, dense.start, "{label}");
        assert_eq!(sparse.exits, dense.exits, "{label}: exit alphabet");
        assert_eq!(sparse.rows.len(), dense.rows.len(), "{label}");
        for (s, (a, b)) in sparse.rows.iter().zip(&dense.rows).enumerate() {
            let bits = |r: &CollapsedRow| -> Vec<(u32, u64)> {
                r.exits.iter().map(|&(e, p)| (e, p.to_bits())).collect()
            };
            assert_eq!(bits(a), bits(b), "{label} state {s}: exits");
            assert_eq!(a.trunc.to_bits(), b.trunc.to_bits(), "{label} state {s}: trunc");
        }
    }

    /// The kernel zoo of `tests/proptests.rs`: every constructor.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sparse_rhs_collapse_matches_dense_reference(which in 0usize..ZOO_SIZE) {
            assert_matches_dense(&zoo_kernel(which));
        }

        #[test]
        fn sparse_rhs_collapse_matches_dense_reference_on_random_pfas(
            states in 1usize..=12,
            ell in 1u32..=6,
            seed in any::<u64>(),
        ) {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let pfa = library::random_pfa(states, ell, &mut rng);
            assert_matches_dense(&pfa_kernel("automaton(random)", &pfa));
        }
    }

    #[test]
    fn sparse_rhs_collapse_matches_dense_reference_on_a_long_lifetime() {
        // The largest collapse a bundled workload runs: 1001 lifetime
        // layers over the walk (the dense right-hand side alone is
        // ~62 MiB here).
        assert_matches_dense(&mortal_kernel(&randomwalk_kernel(), 1000).unwrap());
    }

    fn row_mass(c: &CollapsedKernel, s: usize) -> f64 {
        c.rows[s].exits.iter().map(|&(_, p)| p).sum::<f64>() + c.rows[s].trunc
    }

    #[test]
    fn randomwalk_collapse_is_identity() {
        let c = collapse(&randomwalk_kernel()).unwrap();
        assert_eq!(c.exits.len(), 4);
        assert!((row_mass(&c, 0) - 1.0).abs() < 1e-15);
        for &(_, p) in &c.rows[0].exits {
            assert!((p - 0.25).abs() < 1e-15);
        }
        assert!(c.exits.iter().all(|e| !e.reset));
    }

    #[test]
    fn coin_collapse_conserves_mass_and_resets() {
        let k = coin_kernel(8, 1).unwrap();
        let c = collapse(&k).unwrap();
        for s in 0..k.num_states() {
            assert!((row_mass(&c, s) - 1.0).abs() < 1e-12, "state {s}: {}", row_mass(&c, s));
        }
        // The Returning state's exits all pass through Origin first.
        let returning = k.num_states() - 1;
        assert!(c.rows[returning].exits.iter().all(|&(e, _)| c.exits[e as usize].reset));
        // The start state has both clean exits (first walk move) and no
        // trunc mass.
        assert_eq!(c.rows[c.start].trunc, 0.0);
        assert!(c.rows[c.start].exits.iter().any(|&(e, _)| !c.exits[e as usize].reset));
    }

    #[test]
    fn nonuniform_first_move_direction_split() {
        // From the start, the first move is Up/Down/Left/Right; vertical
        // and horizontal splits are fair, so by symmetry each vertical
        // direction carries equal mass, as does each horizontal one.
        let c = collapse(&nonuniform_kernel(16).unwrap()).unwrap();
        let mut by_dir = std::collections::HashMap::new();
        for &(e, p) in &c.rows[c.start].exits {
            *by_dir.entry(c.exits[e as usize].dir).or_insert(0.0) += p;
        }
        let up = by_dir[&ants_grid::Direction::Up];
        let down = by_dir[&ants_grid::Direction::Down];
        let left = by_dir[&ants_grid::Direction::Left];
        let right = by_dir[&ants_grid::Direction::Right];
        assert!((up - down).abs() < 1e-12);
        assert!((left - right).abs() < 1e-12);
        assert!((up + down + left + right - 1.0).abs() < 1e-12);
        // Vertical comes first, so it carries more of the first-move mass.
        assert!(up > left);
    }

    #[test]
    fn uniform_collapse_tracks_truncation_mass() {
        // A tiny cap makes the truncation mass visible.
        let k = uniform_kernel(1, 2, 1, 2).unwrap();
        let c = collapse(&k).unwrap();
        let t = c.rows[c.start].trunc;
        assert!(t > 0.0, "cap 2 must leak measurable mass");
        assert!((row_mass(&c, c.start) - 1.0).abs() < 1e-12);
        // At the default cap the leak is far below the tolerance.
        let k = uniform_kernel(1, 2, 1, UNIFORM_PHASE_CAP).unwrap();
        let c = collapse(&k).unwrap();
        assert!(c.rows[c.start].trunc < crate::TRUNCATION_TOL);
    }

    #[test]
    fn mortal_collapse_has_deficit_at_expiry() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 2).unwrap();
        let c = collapse(&k).unwrap();
        // Fresh agent: full mass exits (first move always happens).
        assert!((row_mass(&c, c.start) - 1.0).abs() < 1e-15);
        // Expired layer: no exits, no trunc — pure deficit.
        let expired = 2 * inner.num_states(); // layer u = 2, state 0
        assert!(c.rows[expired].exits.is_empty());
        assert_eq!(c.rows[expired].trunc, 0.0);
        assert!((c.rows[expired].deficit() - 1.0).abs() < 1e-15);
    }
}
