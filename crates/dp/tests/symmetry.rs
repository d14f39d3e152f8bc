//! Property battery for the kernels' grid symmetries
//! ([`ants_dp::symmetries`]), which let the evaluator solve one curve
//! per orbit of target and bounds points:
//!
//! * **Orbit equality** — for every zoo kernel and every reflection `σ`
//!   it is credited with, the absorption curves (dense and sparse) and
//!   the first-landing curves at `t` and at `σ(t)` agree within the
//!   exactness tolerance;
//! * **Pinned groups** — each bundled kernel gets exactly the
//!   reflections its strategy's coin flips make it invariant under;
//! * **No false credit** — a perturbed probability removes every
//!   reflection it breaks, and a search that runs out of steps credits
//!   nothing.

use ants_automaton::{library, GridAction};
use ants_core::SelectionComplexity;
use ants_dp::{
    coin_kernel, collapse, dense_absorption_cdf, dense_first_landing_cdf, mortal_kernel,
    nonuniform_kernel, pfa_kernel, randomwalk_kernel, sparse_absorption_cdf,
    sparse_first_landing_cdf, symmetries, uniform_kernel, KernelTransition, MarkovKernel, Mirror,
    PositionClass, TableKernel, UNIFORM_PHASE_CAP,
};
use ants_grid::{Direction, Point};
use proptest::prelude::*;

/// The exactness invariant: orbit mates' curves are equal in exact
/// arithmetic, so only round-off separates them.
const ORBIT_TOL: f64 = 1e-9;

/// A selection of zoo kernels spanning every constructor (mirrors
/// `proptests.rs`).
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

fn assert_close(what: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= ORBIT_TOL, "{what} at {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn orbit_mates_have_equal_curves(
        which in 0usize..ZOO_SIZE,
        tx in -3i64..=3,
        ty in -3i64..=3,
        budget in 1u64..24,
    ) {
        let t = if tx == 0 && ty == 0 { Point::new(1, 2) } else { Point::new(tx, ty) };
        let k = zoo_kernel(which);
        let c = collapse(&k).unwrap();
        let label = k.label();
        for m in symmetries(&k) {
            let s = m.apply(t);
            let what = format!("{label} {m:?}: {t} vs {s}");
            assert_close(
                &format!("{what} dense absorption"),
                &dense_absorption_cdf(&c, label, t, budget).unwrap().cdf,
                &dense_absorption_cdf(&c, label, s, budget).unwrap().cdf,
            );
            assert_close(
                &format!("{what} sparse absorption"),
                &sparse_absorption_cdf(&c, label, t, budget).unwrap().cdf,
                &sparse_absorption_cdf(&c, label, s, budget).unwrap().cdf,
            );
            assert_close(
                &format!("{what} dense first landing"),
                &dense_first_landing_cdf(&k, label, t, budget).unwrap(),
                &dense_first_landing_cdf(&k, label, s, budget).unwrap(),
            );
            assert_close(
                &format!("{what} sparse first landing"),
                &sparse_first_landing_cdf(&k, label, t, budget).unwrap().0,
                &sparse_first_landing_cdf(&k, label, s, budget).unwrap().0,
            );
        }
    }
}

#[test]
fn bundled_kernels_get_their_pinned_groups() {
    use Mirror::{AntiSwap, NegX, NegY, Swap};
    let all = vec![NegY, NegX, Swap, AntiSwap];
    let axes = vec![NegY, NegX];
    // The drift walk leans right: only the reflection that keeps left
    // and right in place survives.
    let up_down = vec![NegY];
    let expected = [
        (0, &all),
        (1, &axes),
        (2, &axes),
        (3, &axes),
        (4, &axes),
        (5, &axes),
        (6, &axes),
        (7, &all),
        (8, &all),
        (9, &up_down),
        (10, &axes),
        (11, &all),
        (12, &axes),
        (13, &axes),
    ];
    assert_eq!(expected.len(), ZOO_SIZE);
    for (which, group) in expected {
        let k = zoo_kernel(which);
        assert_eq!(&symmetries(&k), group, "{}", k.label());
    }
    // The long-lived mortal walk of the crosscheck grid keeps the walk's
    // full group.
    let mortal = mortal_kernel(&randomwalk_kernel(), 1000).unwrap();
    assert_eq!(symmetries(&mortal), all);
}

/// A kernel given by its rows, for hand-built chains.
struct Rows {
    start: usize,
    rows: Vec<Vec<KernelTransition>>,
}

impl Rows {
    fn of(k: &TableKernel) -> Rows {
        let rows = (0..k.num_states()).map(|s| k.row(s, PositionClass::Away).to_vec()).collect();
        Rows { start: k.start(), rows }
    }

    /// Shift the probability of the transition of `state` emitting
    /// `action` by `2^-20`.
    fn perturb(mut self, state: usize, action: GridAction) -> Rows {
        let t = self.rows[state].iter_mut().find(|t| t.action == action).expect("transition");
        t.prob += 1.0 / f64::from(1 << 20);
        self
    }
}

impl MarkovKernel for Rows {
    fn label(&self) -> &str {
        "rows"
    }

    fn num_states(&self) -> usize {
        self.rows.len()
    }

    fn start(&self) -> usize {
        self.start
    }

    fn row(&self, state: usize, _pos: PositionClass) -> &[KernelTransition] {
        &self.rows[state]
    }

    fn chi(&self, _state: usize) -> SelectionComplexity {
        SelectionComplexity::new(1, 1)
    }

    fn chi_is_static(&self) -> bool {
        true
    }
}

fn step(next: usize, action: GridAction, prob: f64) -> KernelTransition {
    KernelTransition { next, action, prob }
}

#[test]
fn a_perturbed_probability_removes_the_reflections_it_breaks() {
    use Mirror::{NegX, NegY, Swap};
    let up = GridAction::Move(Direction::Up);
    // The walk's up-move: only NegX leaves it in place.
    let walk = Rows::of(&randomwalk_kernel()).perturb(0, up);
    assert_eq!(symmetries(&walk), vec![NegX]);
    // A coin kernel's up-walk: NegY (which swaps it with the down-walk)
    // goes, NegX (which maps it to itself) stays.
    let coin = coin_kernel(8, 2).unwrap();
    let up_walk =
        (0..coin.num_states()).find(|&s| coin.row(s, PositionClass::Away)[0].action == up).unwrap();
    assert_eq!(symmetries(&Rows::of(&coin).perturb(up_walk, up)), vec![NegX]);
    // An up/right walk is symmetric under Swap alone; one perturbed
    // probability leaves it no reflection at all.
    let right = GridAction::Move(Direction::Right);
    let diagonal = Rows { start: 0, rows: vec![vec![step(0, up, 0.5), step(0, right, 0.5)]] };
    assert_eq!(symmetries(&diagonal), vec![Swap]);
    assert_eq!(symmetries(&diagonal.perturb(0, up)), Vec::<Mirror>::new());
    // Sanity: the unperturbed copies keep their groups.
    assert_eq!(symmetries(&Rows::of(&coin)), vec![NegY, NegX]);
}

/// A hub fanning out to `n` identical-looking branches, each leading to
/// a walker that moves left (first half) or right (second half) forever.
/// NegX is a symmetry — swap the halves — but identity-first search
/// assigns every branch to itself and must backtrack through the
/// branch permutations before it finds the swap.
fn fan(n: usize) -> Rows {
    let none = GridAction::None;
    let mut rows = vec![(0..n).map(|i| step(1 + i, none, 1.0 / n as f64)).collect::<Vec<_>>()];
    for i in 0..n {
        rows.push(vec![step(1 + n + i, none, 1.0)]);
    }
    for i in 0..n {
        let dir = if i < n / 2 { Direction::Left } else { Direction::Right };
        rows.push(vec![step(1 + n + i, GridAction::Move(dir), 1.0)]);
    }
    Rows { start: 0, rows }
}

#[test]
fn a_search_past_its_step_cap_credits_no_reflection() {
    use Mirror::{NegX, NegY};
    // NegY fixes every left/right move, so the identity serves it at
    // any size. A small fan backtracks its way to the half swap NegX
    // needs.
    assert_eq!(symmetries(&fan(4)), vec![NegY, NegX]);
    // Sixteen branches: the swap exists, but finding it identity-first
    // means running through the 15! placements of the other branches
    // first, far past the cap — the search gives up and credits
    // nothing, while NegY still comes back at once.
    assert_eq!(symmetries(&fan(16)), vec![NegY]);
}
