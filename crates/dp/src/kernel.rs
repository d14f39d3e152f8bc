//! The [`MarkovKernel`] trait and the zoo's kernel constructors.
//!
//! A kernel is a strategy re-expressed as data: a finite internal-state
//! space and, per state, an exact transition distribution over
//! `(next state, grid action)`. The DP layers ([`crate::collapse`],
//! [`crate::absorb`], [`crate::rounds`]) consume kernels generically —
//! adding a strategy to the exact backend means writing its kernel here
//! and proving (via the crate's proptest battery) that the rows are
//! stochastic and closed.
//!
//! Every kernel in this module mirrors a `SearchStrategy` in `ants-core`
//! transition for transition: one kernel transition = one RNG event of
//! the live strategy = one Markov step of the paper's model. The unit
//! tests drive kernel and strategy side by side to pin that equivalence.

use crate::error::DpError;
use ants_automaton::{GridAction, Pfa};
use ants_core::baselines::RandomWalk;
use ants_core::{CoinNonUniformSearch, SearchStrategy, SelectionComplexity};
use ants_grid::Direction;

/// Position class of a kernel row, per the backend design: a strategy's
/// transition distribution may depend on whether the agent currently
/// stands at the origin. Every strategy shipped today is
/// position-oblivious (their `step` never reads the position), so all
/// current kernels return identical rows for both classes; the parameter
/// keeps the trait ready for position-aware strategies without an API
/// break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionClass {
    /// The agent stands at the origin.
    Origin,
    /// The agent stands anywhere else.
    Away,
}

/// One exact transition: with probability `prob`, emit `action` and move
/// to internal state `next`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTransition {
    /// Successor internal state.
    pub next: usize,
    /// The grid action emitted by this transition.
    pub action: GridAction,
    /// Exact transition probability (a dyadic rational in f64).
    pub prob: f64,
}

/// A strategy's exact finite-state transition structure.
pub trait MarkovKernel {
    /// Human-readable kernel name (used in error messages and reports).
    fn label(&self) -> &str;

    /// Number of internal states.
    fn num_states(&self) -> usize;

    /// The start state (a fresh agent at trial start).
    fn start(&self) -> usize;

    /// The exact transition row of `state` for the given position class.
    fn row(&self, state: usize, pos: PositionClass) -> &[KernelTransition];

    /// The selection-complexity footprint charged while in `state`.
    fn chi(&self, state: usize) -> SelectionComplexity;

    /// Is [`MarkovKernel::chi`] the same for every state?
    fn chi_is_static(&self) -> bool;

    /// Do any rows differ between position classes? The collapse layer
    /// only supports position-oblivious kernels today and errors
    /// otherwise.
    fn position_sensitive(&self) -> bool {
        false
    }

    /// States that stand in for truncated tail mass (e.g. the uniform
    /// kernel's phase cap). The DP tracks the exact probability of ever
    /// entering one and fails if it exceeds [`crate::TRUNCATION_TOL`] —
    /// truncation is never silent.
    fn truncation_states(&self) -> &[usize] {
        &[]
    }
}

/// The canonical [`MarkovKernel`] implementation: fully tabulated rows.
///
/// All zoo kernels are `TableKernel`s built by the constructors below;
/// the DP layers only ever see the trait. The rows live back to back in
/// one table (state `s` owns `transitions[offsets[s]..offsets[s + 1]]`),
/// so even a thousand-state product kernel is two allocations to build
/// and to drop.
#[derive(Debug, Clone)]
pub struct TableKernel {
    label: String,
    start: usize,
    transitions: Vec<KernelTransition>,
    offsets: Vec<usize>,
    chi: Vec<SelectionComplexity>,
    trunc: Vec<usize>,
    chi_static: bool,
}

impl TableKernel {
    fn new(
        label: String,
        start: usize,
        rows: Vec<Vec<KernelTransition>>,
        chi: Vec<SelectionComplexity>,
        trunc: Vec<usize>,
    ) -> TableKernel {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        let mut transitions = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for row in rows {
            transitions.extend(row);
            offsets.push(transitions.len());
        }
        TableKernel::from_table(label, start, transitions, offsets, chi, trunc)
    }

    /// A kernel from its rows already laid out back to back: state `s`
    /// owns `transitions[offsets[s]..offsets[s + 1]]`.
    fn from_table(
        label: String,
        start: usize,
        transitions: Vec<KernelTransition>,
        offsets: Vec<usize>,
        chi: Vec<SelectionComplexity>,
        trunc: Vec<usize>,
    ) -> TableKernel {
        debug_assert_eq!(offsets.len(), chi.len() + 1);
        debug_assert_eq!(offsets.last(), Some(&transitions.len()));
        debug_assert!(start < chi.len());
        let chi_static = chi.iter().all(|&c| c == chi[0]);
        TableKernel { label, start, transitions, offsets, chi, trunc, chi_static }
    }
}

impl MarkovKernel for TableKernel {
    fn label(&self) -> &str {
        &self.label
    }

    fn num_states(&self) -> usize {
        self.chi.len()
    }

    fn start(&self) -> usize {
        self.start
    }

    fn row(&self, state: usize, _pos: PositionClass) -> &[KernelTransition] {
        &self.transitions[self.offsets[state]..self.offsets[state + 1]]
    }

    fn chi(&self, state: usize) -> SelectionComplexity {
        self.chi[state]
    }

    fn chi_is_static(&self) -> bool {
        self.chi_static
    }

    fn truncation_states(&self) -> &[usize] {
        &self.trunc
    }
}

/// Ceiling of `log₂ x` for `x ≥ 1` (mirrors `ants-core`'s private
/// helper).
pub(crate) fn ceil_log2(x: u64) -> u32 {
    debug_assert!(x >= 1);
    64 - (x - 1).leading_zeros()
}

/// The exact f64 value of the base-coin tails probability `1/2^ℓ`.
fn base_tails(ell: u32) -> Result<f64, DpError> {
    if ell == 0 || ell > 64 {
        return Err(DpError::Unsupported {
            what: format!("base coin resolution ell = {ell}"),
            reason: "ell must be in 1..=64".into(),
        });
    }
    Ok(0.5f64.powi(ell as i32))
}

/// The uniform random walk: one state, four equiprobable moves.
pub fn randomwalk_kernel() -> TableKernel {
    let rows = vec![Direction::ALL
        .iter()
        .map(|&d| KernelTransition { next: 0, action: GridAction::Move(d), prob: 0.25 })
        .collect()];
    let chi = vec![RandomWalk::new().selection_complexity()];
    TableKernel::new("randomwalk".into(), 0, rows, chi, Vec::new())
}

/// Square-search (Algorithm 4) sub-state layout shared by the coin and
/// uniform kernels: `ChooseVertical`, `Vertical(dir, run)`,
/// `ChooseHorizontal`, `Horizontal(dir, run)` — `4k + 2` states for walk
/// flip count `k`.
struct SquareLayout {
    base: usize,
    k: usize,
}

impl SquareLayout {
    fn size(&self) -> usize {
        4 * self.k + 2
    }

    fn choose_vertical(&self) -> usize {
        self.base
    }

    fn vertical(&self, down: usize, run: usize) -> usize {
        self.base + 1 + down * self.k + run
    }

    fn choose_horizontal(&self) -> usize {
        self.base + 1 + 2 * self.k
    }

    fn horizontal(&self, right: usize, run: usize) -> usize {
        self.base + 2 + 2 * self.k + right * self.k + run
    }

    /// Emit the square-search rows into `rows`. `done` is the state the
    /// machine lands in when the horizontal walk finishes (emitting the
    /// finishing `GridAction::None`).
    fn emit(&self, rows: &mut [Vec<KernelTransition>], tails: f64, done: usize) {
        let heads = 1.0 - tails;
        let none = GridAction::None;
        rows[self.choose_vertical()] = vec![
            KernelTransition { next: self.vertical(0, 0), action: none, prob: 0.5 },
            KernelTransition { next: self.vertical(1, 0), action: none, prob: 0.5 },
        ];
        for (down, dir) in [(0, Direction::Up), (1, Direction::Down)] {
            for run in 0..self.k {
                let next_on_tails = if run + 1 < self.k {
                    self.vertical(down, run + 1)
                } else {
                    self.choose_horizontal()
                };
                rows[self.vertical(down, run)] = vec![
                    KernelTransition {
                        next: self.vertical(down, 0),
                        action: GridAction::Move(dir),
                        prob: heads,
                    },
                    KernelTransition { next: next_on_tails, action: none, prob: tails },
                ];
            }
        }
        rows[self.choose_horizontal()] = vec![
            KernelTransition { next: self.horizontal(0, 0), action: none, prob: 0.5 },
            KernelTransition { next: self.horizontal(1, 0), action: none, prob: 0.5 },
        ];
        for (right, dir) in [(0, Direction::Left), (1, Direction::Right)] {
            for run in 0..self.k {
                let next_on_tails =
                    if run + 1 < self.k { self.horizontal(right, run + 1) } else { done };
                rows[self.horizontal(right, run)] = vec![
                    KernelTransition {
                        next: self.horizontal(right, 0),
                        action: GridAction::Move(dir),
                        prob: heads,
                    },
                    KernelTransition { next: next_on_tails, action: none, prob: tails },
                ];
            }
        }
    }
}

/// `coin(d, ℓ)` — Algorithm 1 driven by composite coins
/// (`CoinNonUniformSearch`): repeat `search(k, ℓ)` followed by an oracle
/// return, `k = ⌈log₂ d / ℓ⌉`.
///
/// # Errors
///
/// [`DpError::Unsupported`] for out-of-range `d`/`ell` (same domain as
/// the live strategy).
pub fn coin_kernel(d: u64, ell: u32) -> Result<TableKernel, DpError> {
    if d < 2 {
        return Err(DpError::Unsupported {
            what: format!("coin kernel for d = {d}"),
            reason: "non-uniform search requires D >= 2".into(),
        });
    }
    let tails = base_tails(ell)?;
    // The live strategy owns the k formula and the chi accounting; build
    // one and read both off it so kernel and simulator cannot drift.
    let live = CoinNonUniformSearch::new(d, ell).map_err(|e| DpError::Unsupported {
        what: format!("coin kernel for d = {d}, ell = {ell}"),
        reason: e.to_string(),
    })?;
    let k = live.k() as usize;
    let square = SquareLayout { base: 0, k };
    let returning = square.size();
    let mut rows = vec![Vec::new(); returning + 1];
    square.emit(&mut rows, tails, returning);
    rows[returning] = vec![KernelTransition {
        next: square.choose_vertical(),
        action: GridAction::Origin,
        prob: 1.0,
    }];
    let chi = vec![live.selection_complexity(); rows.len()];
    Ok(TableKernel::new(
        format!("coin(d={d}, ell={ell})"),
        square.choose_vertical(),
        rows,
        chi,
        Vec::new(),
    ))
}

/// `nonuniform(d)` — Algorithm 1 at the resolution the live
/// `NonUniformSearch` uses: `ℓ = ⌈log₂ d⌉`.
///
/// # Errors
///
/// As [`coin_kernel`].
pub fn nonuniform_kernel(d: u64) -> Result<TableKernel, DpError> {
    if d < 2 {
        return Err(DpError::Unsupported {
            what: format!("nonuniform kernel for d = {d}"),
            reason: "non-uniform search requires D >= 2".into(),
        });
    }
    let ell = ceil_log2(d).max(1);
    let mut k = coin_kernel(d, ell)?;
    k.label = format!("nonuniform(d={d})");
    Ok(k)
}

/// Default phase cap for [`uniform_kernel`]: phases beyond the cap are
/// routed to an explicit truncation state whose exact mass the DP
/// checks against [`crate::TRUNCATION_TOL`]. Reaching phase `i` requires
/// `Σ k_j` consecutive-tails runs, so the cap-overflow probability decays
/// like `2^{-Σ k_j}` — far below the tolerance for every practical cell.
pub const UNIFORM_PHASE_CAP: u32 = 12;

/// `uniform(ℓ, n, K)` — Algorithm 5 (`UniformSearch`), phases truncated
/// at `cap` with exact overflow accounting.
///
/// # Errors
///
/// [`DpError::Unsupported`] for out-of-range parameters.
pub fn uniform_kernel(
    ell: u32,
    n_agents: u64,
    big_k: u32,
    cap: u32,
) -> Result<TableKernel, DpError> {
    if n_agents == 0 || big_k == 0 || cap == 0 {
        return Err(DpError::Unsupported {
            what: format!("uniform kernel (ell={ell}, n={n_agents}, K={big_k}, cap={cap})"),
            reason: "n, K and the phase cap must be positive".into(),
        });
    }
    let tails = base_tails(ell)?;
    let heads = 1.0 - tails;
    let none = GridAction::None;
    // k_i = K + max{i − ⌊log₂ n / ℓ⌋, 0} — mirrors UniformSearch::phase_coin_k.
    let log_n_over_ell = (63 - n_agents.leading_zeros()) / ell;
    let phase_coin_k = |i: u32| (big_k + i.saturating_sub(log_n_over_ell)) as usize;
    // Per-phase block: PhaseCoin(t) for t in 0..k_i, then search(i, ℓ),
    // then Returning.
    let mut offsets = Vec::with_capacity(cap as usize + 1);
    let mut total = 0usize;
    for i in 1..=cap {
        offsets.push(total);
        total += phase_coin_k(i) + (4 * i as usize + 2) + 1;
    }
    let trunc_state = total;
    total += 1;
    let phase_coin = |i: u32, t: usize| offsets[(i - 1) as usize] + t;
    let square =
        |i: u32| SquareLayout { base: offsets[(i - 1) as usize] + phase_coin_k(i), k: i as usize };
    let returning = |i: u32| square(i).base + square(i).size();

    let mut rows = vec![Vec::new(); total];
    let mut chi = Vec::with_capacity(total);
    for i in 1..=cap {
        let k_i = phase_coin_k(i);
        let sq = square(i);
        for t in 0..k_i {
            let next_on_tails = if t + 1 < k_i {
                phase_coin(i, t + 1)
            } else if i < cap {
                phase_coin(i + 1, 0)
            } else {
                trunc_state
            };
            rows[phase_coin(i, t)] = vec![
                KernelTransition { next: sq.choose_vertical(), action: none, prob: heads },
                KernelTransition { next: next_on_tails, action: none, prob: tails },
            ];
        }
        sq.emit(&mut rows, tails, returning(i));
        rows[returning(i)] = vec![KernelTransition {
            next: phase_coin(i, 0),
            action: GridAction::Origin,
            prob: 1.0,
        }];
        // Mirrors UniformSearch::selection_complexity at phase i: the
        // phase index and walk counter (⌈log i⌉ bits each), the phase-coin
        // counter (⌈log(K + i)⌉ bits), plus O(1) phase bits.
        let b = 2 * ceil_log2(u64::from(i)) + ceil_log2(u64::from(big_k + i)) + 3;
        let sc = SelectionComplexity::new(b, ell);
        for _ in 0..(k_i + sq.size() + 1) {
            chi.push(sc);
        }
    }
    rows[trunc_state] = vec![KernelTransition { next: trunc_state, action: none, prob: 1.0 }];
    chi.push(*chi.last().expect("cap >= 1"));
    Ok(TableKernel::new(
        format!("uniform(ell={ell}, n={n_agents}, K={big_k})"),
        phase_coin(1, 0),
        rows,
        chi,
        vec![trunc_state],
    ))
}

/// `automaton(...)` — any PFA from the zoo. One kernel state per PFA
/// state; the action of a transition is the *successor's* label, exactly
/// as `AutomatonStrategy::step` emits it.
pub fn pfa_kernel(label: &str, pfa: &Pfa) -> TableKernel {
    let rows = pfa
        .state_ids()
        .map(|s| {
            pfa.transitions(s)
                .iter()
                .map(|&(next, p)| KernelTransition {
                    next: next.0,
                    action: pfa.label(next),
                    prob: p.to_f64(),
                })
                .collect()
        })
        .collect();
    let chi = vec![SelectionComplexity::new(pfa.memory_bits(), pfa.ell()); pfa.num_states()];
    TableKernel::new(label.to_string(), pfa.start().0, rows, chi, Vec::new())
}

/// `mortal(inner, expiry)` — the `Expiring` wrapper as a state-space
/// product: `(inner state, moves used)` for `moves used ∈ 0..=expiry`.
/// Rows at `moves used = expiry` are the halted agent: a `None`
/// self-loop that never moves again (the DP books that mass as
/// never-finds, exactly like the simulator's halted steppers).
///
/// # Errors
///
/// [`DpError::Guard`] when the product state space exceeds
/// [`crate::MAX_SOLVE_STATES`].
pub fn mortal_kernel(inner: &TableKernel, expiry: u64) -> Result<TableKernel, DpError> {
    if expiry == 0 {
        return Err(DpError::Unsupported {
            what: format!("mortal({}, 0)", inner.label()),
            reason: "expiry must be at least one move".into(),
        });
    }
    let s = inner.num_states();
    let layers = (expiry + 1) as usize;
    let states =
        s.checked_mul(layers).filter(|&n| n <= crate::MAX_SOLVE_STATES).ok_or_else(|| {
            DpError::Guard {
                what: format!(
                    "mortal({}, {expiry}) product state space ({s} x {layers})",
                    inner.label()
                ),
                limit: crate::MAX_SOLVE_STATES,
                hint: "shrink the expiry or use backend = \"mc\"".into(),
            }
        })?;
    let at = |state: usize, used: usize| used * s + state;
    let mut transitions = Vec::with_capacity(expiry as usize * inner.transitions.len() + s);
    let mut offsets = Vec::with_capacity(states + 1);
    offsets.push(0);
    let mut chi = Vec::with_capacity(states);
    // The move counter holds expiry + 1 values — same accounting as
    // Expiring::selection_complexity.
    let counter_bits = u64::BITS - expiry.leading_zeros();
    for used in 0..layers {
        for state in 0..s {
            let inner_chi = inner.chi[state];
            chi.push(SelectionComplexity::new(
                inner_chi.memory_bits() + counter_bits,
                inner_chi.ell(),
            ));
            if used as u64 >= expiry {
                transitions.push(KernelTransition {
                    next: at(state, used),
                    action: GridAction::None,
                    prob: 1.0,
                });
            } else {
                transitions.extend(inner.row(state, PositionClass::Away).iter().map(|t| {
                    KernelTransition {
                        next: at(t.next, if t.action.is_move() { used + 1 } else { used }),
                        action: t.action,
                        prob: t.prob,
                    }
                }));
            }
            offsets.push(transitions.len());
        }
    }
    let trunc =
        (0..layers).flat_map(|used| inner.trunc.iter().map(move |&t| at(t, used))).collect();
    Ok(TableKernel::from_table(
        format!("mortal({}, {expiry})", inner.label()),
        at(inner.start, 0),
        transitions,
        offsets,
        chi,
        trunc,
    ))
}

/// Content fingerprint of a kernel: a 128-bit FNV-1a hash over every
/// observable the DP layers consume — state count, start state, both
/// position-class rows (successor, action, exact probability bits),
/// per-state chi, truncation states, and the trait flags. Two kernels
/// with equal fingerprints produce byte-identical DP curves, which is
/// what makes the fingerprint a sound memoization key
/// ([`crate::SolveCache`]).
pub fn kernel_fingerprint(k: &dyn MarkovKernel) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    struct Fnv(u128);
    impl Fnv {
        fn bytes(&mut self, b: &[u8]) {
            for &byte in b {
                self.0 ^= u128::from(byte);
                self.0 = self.0.wrapping_mul(PRIME);
            }
        }
        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
    }
    let action_code = |a: GridAction| -> u64 {
        match a {
            GridAction::None => 0,
            GridAction::Origin => 1,
            GridAction::Move(d) => {
                let (dx, dy) = d.delta();
                // Encodes the move direction injectively: 2 + (dx+1) + 3(dy+1).
                2 + (dx + 1 + 3 * (dy + 1)) as u64
            }
        }
    };
    let mut h = Fnv(OFFSET);
    h.u64(k.num_states() as u64);
    h.u64(k.start() as u64);
    h.u64(u64::from(k.chi_is_static()));
    h.u64(u64::from(k.position_sensitive()));
    for s in 0..k.num_states() {
        let chi = k.chi(s);
        h.u64(u64::from(chi.memory_bits()));
        h.u64(u64::from(chi.ell()));
        for pos in [PositionClass::Origin, PositionClass::Away] {
            let row = k.row(s, pos);
            h.u64(row.len() as u64);
            for t in row {
                h.u64(t.next as u64);
                h.u64(action_code(t.action));
                h.u64(t.prob.to_bits());
            }
        }
    }
    for &t in k.truncation_states() {
        h.u64(t as u64);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ants_automaton::library;
    use ants_core::UniformSearch;

    fn row_sum(k: &TableKernel, s: usize) -> f64 {
        k.row(s, PositionClass::Away).iter().map(|t| t.prob).sum()
    }

    #[test]
    fn randomwalk_matches_live_strategy() {
        let k = randomwalk_kernel();
        assert_eq!(k.num_states(), 1);
        assert_eq!(row_sum(&k, 0), 1.0);
        assert_eq!(k.chi(0), RandomWalk::new().selection_complexity());
        assert!(k.chi_is_static());
        // Four distinct directions, each 1/4.
        let dirs: Vec<GridAction> =
            k.row(0, PositionClass::Origin).iter().map(|t| t.action).collect();
        assert_eq!(dirs.len(), 4);
        for d in Direction::ALL {
            assert!(dirs.contains(&GridAction::Move(d)));
        }
    }

    #[test]
    fn coin_kernel_shape_and_chi() {
        let k = coin_kernel(16, 2).unwrap();
        let live = CoinNonUniformSearch::new(16, 2).unwrap();
        // 4k + 3 states for walk count k.
        assert_eq!(k.num_states(), 4 * live.k() as usize + 3);
        assert_eq!(k.chi(0), live.selection_complexity());
        assert!(k.chi_is_static());
        for s in 0..k.num_states() {
            assert!((row_sum(&k, s) - 1.0).abs() < 1e-15, "state {s}");
        }
    }

    #[test]
    fn nonuniform_kernel_uses_live_ell() {
        let k = nonuniform_kernel(1000).unwrap();
        // ell = ceil(log2 1000) = 10, k = 1 -> 7 states.
        assert_eq!(k.num_states(), 7);
        assert_eq!(k.chi(0).ell(), 10);
    }

    #[test]
    fn uniform_kernel_start_chi_matches_live_phase_one() {
        let k = uniform_kernel(2, 8, 2, UNIFORM_PHASE_CAP).unwrap();
        let live = UniformSearch::new(2, 8, 2).unwrap();
        assert_eq!(k.chi(k.start()), live.selection_complexity());
        assert!(!k.chi_is_static(), "uniform chi grows with the phase");
        assert_eq!(k.truncation_states().len(), 1);
        for s in 0..k.num_states() {
            assert!((row_sum(&k, s) - 1.0).abs() < 1e-15, "state {s}");
        }
    }

    #[test]
    fn pfa_kernel_action_is_successor_label() {
        let pfa = library::drift_walk(4).unwrap();
        let k = pfa_kernel("automaton(drift4)", &pfa);
        assert_eq!(k.num_states(), pfa.num_states());
        for s in pfa.state_ids() {
            for (t, &(next, p)) in k.row(s.0, PositionClass::Away).iter().zip(pfa.transitions(s)) {
                assert_eq!(t.next, next.0);
                assert_eq!(t.action, pfa.label(next));
                assert_eq!(t.prob, p.to_f64());
            }
        }
        assert_eq!(k.chi(0), SelectionComplexity::new(pfa.memory_bits(), pfa.ell()));
    }

    #[test]
    fn mortal_kernel_product_counts_moves() {
        let inner = randomwalk_kernel();
        let k = mortal_kernel(&inner, 3).unwrap();
        assert_eq!(k.num_states(), 4); // 1 inner state x (3 + 1) counter values
                                       // Alive layers: moves advance the counter.
        for used in 0..3 {
            for t in k.row(used, PositionClass::Away) {
                assert!(t.action.is_move());
                assert_eq!(t.next, used + 1);
            }
        }
        // Expired layer: a None self-loop.
        let halted = k.row(3, PositionClass::Away);
        assert_eq!(halted.len(), 1);
        assert_eq!(halted[0].action, GridAction::None);
        assert_eq!(halted[0].next, 3);
        // Counter bits match Expiring: expiry 3 needs 2 bits.
        assert_eq!(k.chi(0).memory_bits(), inner.chi(0).memory_bits() + 2);
    }

    #[test]
    fn fingerprint_separates_kernels_and_is_stable() {
        let a = kernel_fingerprint(&randomwalk_kernel());
        let b = kernel_fingerprint(&nonuniform_kernel(4).unwrap());
        let c = kernel_fingerprint(&nonuniform_kernel(8).unwrap());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, kernel_fingerprint(&randomwalk_kernel()));
        // The mortal wrapper changes the fingerprint even though the
        // inner rows are shared.
        let inner = randomwalk_kernel();
        let m = kernel_fingerprint(&mortal_kernel(&inner, 3).unwrap());
        assert_ne!(a, m);
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Memo keys start from these fingerprints: a change to how
        // kernels are stored must not change what they hash to.
        for (k, fp) in [
            (
                mortal_kernel(&randomwalk_kernel(), 1000).unwrap(),
                0xed93336d9f544b9bbd5d499396529deb,
            ),
            (
                mortal_kernel(&coin_kernel(8, 2).unwrap(), 12).unwrap(),
                0x1a1e642a357622d3138b15f91336ee9d,
            ),
            (
                uniform_kernel(1, 4, 2, UNIFORM_PHASE_CAP).unwrap(),
                0x3e5477ddb2963bf55c3bd802522ae8f4,
            ),
        ] {
            assert_eq!(kernel_fingerprint(&k), fp, "{}", k.label());
        }
    }

    #[test]
    fn mortal_kernel_guards_state_blowup() {
        let inner = coin_kernel(16, 1).unwrap();
        let err = mortal_kernel(&inner, 1 << 40).unwrap_err();
        assert!(matches!(err, DpError::Guard { .. }), "{err}");
    }
}
