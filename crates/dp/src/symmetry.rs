//! Grid reflections a kernel's law is invariant under.
//!
//! A reflection `σ` of the grid through the origin is a *symmetry* of a
//! kernel when some permutation `π` of its internal states satisfies
//!
//! * `π(start) = start`;
//! * truncation states map to truncation states;
//! * for every reachable state `s` (and both position classes), the
//!   row of `s` mapped through `(π, σ)` — each transition
//!   `(next, action, p)` becoming `(π(next), σ(action), p)` — equals the
//!   row of `π(s)` as a multiset, probabilities compared bit for bit.
//!
//! Then `σ` applied to the agent's whole path has the same law as the
//! path itself, so every curve the exact backend solves against a point
//! `t` — absorption, survival, found-round — equals the curve against
//! `σ(t)`. The evaluator ([`crate::curve_units`]) uses this to solve one
//! curve per orbit of the group the verified reflections generate.
//!
//! `π` is found by a bounded backtracking search ([`symmetries`]):
//! starting from `π(start) = start`, each assigned state's row forces
//! or offers the images of its successors, identity first. A search
//! that fails, or runs past [`SYMMETRY_SEARCH_STEPS`], means "not a
//! symmetry" — the caller then solves every point on its own, exactly
//! as without the search. The random walk is symmetric with `π` the
//! identity; the square-search kernels (`coin`, `nonuniform`,
//! `uniform`) need a `π` that swaps their up/down (or left/right)
//! direction blocks.
//!
//! The sparse frontier's in-solve folding ([`crate::frontier`]) is the
//! `π = identity` case of the same check ([`Chain::fixed_by`]): a
//! reflection that also fixes the target lets one solve run on the
//! quotient chain.

use crate::collapse::CollapsedKernel;
use crate::kernel::{MarkovKernel, PositionClass};
use ants_automaton::GridAction;
use ants_grid::{Direction, Point};

/// Step budget of one permutation search: every row match, choice and
/// backtrack counts one. Bundled kernels need about one step per
/// reachable state (their rows leave at most one image that fits); a
/// kernel whose search runs past the budget is treated as having no
/// symmetry.
pub(crate) const SYMMETRY_SEARCH_STEPS: usize = 1 << 16;

/// A grid reflection through the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mirror {
    /// `(x, y) → (x, −y)`.
    NegY,
    /// `(x, y) → (−x, y)`.
    NegX,
    /// `(x, y) → (y, x)`.
    Swap,
    /// `(x, y) → (−y, −x)`.
    AntiSwap,
}

impl Mirror {
    /// All four reflections, in the order [`symmetries`] reports them.
    pub(crate) const ALL: [Mirror; 4] =
        [Mirror::NegY, Mirror::NegX, Mirror::Swap, Mirror::AntiSwap];

    /// Apply the reflection to a point.
    pub fn apply(self, p: Point) -> Point {
        let (x, y) = self.map(p.x, p.y);
        Point::new(x, y)
    }

    /// Apply the reflection to coordinates.
    pub(crate) fn map(self, x: i64, y: i64) -> (i64, i64) {
        match self {
            Mirror::NegY => (x, -y),
            Mirror::NegX => (-x, y),
            Mirror::Swap => (y, x),
            Mirror::AntiSwap => (-y, -x),
        }
    }

    /// Apply the reflection to a move direction.
    pub(crate) fn map_dir(self, d: Direction) -> Direction {
        match (self, d) {
            (Mirror::NegY, Direction::Up) => Direction::Down,
            (Mirror::NegY, Direction::Down) => Direction::Up,
            (Mirror::NegY, d) => d,
            (Mirror::NegX, Direction::Left) => Direction::Right,
            (Mirror::NegX, Direction::Right) => Direction::Left,
            (Mirror::NegX, d) => d,
            (Mirror::Swap, Direction::Up) => Direction::Right,
            (Mirror::Swap, Direction::Right) => Direction::Up,
            (Mirror::Swap, Direction::Down) => Direction::Left,
            (Mirror::Swap, Direction::Left) => Direction::Down,
            (Mirror::AntiSwap, Direction::Up) => Direction::Left,
            (Mirror::AntiSwap, Direction::Left) => Direction::Up,
            (Mirror::AntiSwap, Direction::Down) => Direction::Right,
            (Mirror::AntiSwap, Direction::Right) => Direction::Down,
        }
    }

    /// The representative of `(x, y)`'s two-point orbit `{p, σp}` that
    /// a folded solve stores.
    #[inline]
    pub(crate) fn canon(self, x: i64, y: i64) -> (i64, i64) {
        let canonical = match self {
            Mirror::NegY => y >= 0,
            Mirror::NegX => x >= 0,
            Mirror::Swap => x >= y,
            Mirror::AntiSwap => x + y >= 0,
        };
        if canonical {
            (x, y)
        } else {
            self.map(x, y)
        }
    }
}

/// The representative of `p`'s orbit under the group `mirrors`
/// generate: the orbit's lexicographic maximum `(x, y)`. With no
/// mirrors, `p` itself.
pub(crate) fn orbit_representative(mirrors: &[Mirror], p: Point) -> Point {
    // A group of grid reflections has at most eight elements.
    let mut orbit = vec![p];
    let mut i = 0;
    while i < orbit.len() {
        for m in mirrors {
            let q = m.apply(orbit[i]);
            if !orbit.contains(&q) {
                orbit.push(q);
            }
        }
        i += 1;
    }
    orbit.into_iter().max_by_key(|q| (q.x, q.y)).expect("the orbit holds p")
}

/// The reflections that are verified symmetries of `k`, in the order
/// NegY, NegX, Swap, AntiSwap: for each, a state permutation `π` with
/// `π(start) = start` that maps truncation states to truncation states
/// and every reachable row, reflected, onto its image's row (as a
/// multiset, probabilities bit for bit). The permutation search is
/// bounded; a reflection it cannot verify within its step budget is
/// left out, which only costs sharing, never correctness.
pub fn symmetries(k: &dyn MarkovKernel) -> Vec<Mirror> {
    let chain = Chain::of_kernel(k);
    Mirror::ALL
        .into_iter()
        .filter(|&m| {
            chain.find_permutation(m, SYMMETRY_SEARCH_STEPS).is_some_and(|pi| chain.maps(m, &pi))
        })
        .collect()
}

/// Marks a state the permutation does not (yet) map.
const UNSET: usize = usize::MAX;

/// One transition as a reflection sees it. Fields are ordered so that
/// sorting groups a row into runs of equal `(tag, dir, prob)`, the part
/// a permutation cannot change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    /// What `σ` leaves alone: position class and action kind for a
    /// kernel row, the reset flag for a collapsed exit.
    tag: u8,
    /// The move direction `σ` maps; `None` for non-moves.
    dir: Option<Direction>,
    /// Exact probability bits.
    prob: u64,
    /// Successor state.
    next: usize,
}

impl Edge {
    fn mirrored(self, m: Mirror) -> Edge {
        Edge { dir: self.dir.map(|d| m.map_dir(d)), ..self }
    }
}

/// A row with its successors dropped: sorted `(tag, dir, prob)`.
type Shape = Vec<(u8, Option<Direction>, u64)>;

/// A chain's start, truncation states and rows, in the form the
/// reflection check reads.
pub(crate) struct Chain {
    start: usize,
    trunc: Vec<bool>,
    rows: Vec<Vec<Edge>>,
}

impl Chain {
    /// The raw kernel: both position classes' rows.
    pub(crate) fn of_kernel(k: &dyn MarkovKernel) -> Chain {
        let n = k.num_states();
        let mut trunc = vec![false; n];
        for &t in k.truncation_states() {
            trunc[t] = true;
        }
        let rows = (0..n)
            .map(|s| {
                [PositionClass::Away, PositionClass::Origin]
                    .into_iter()
                    .enumerate()
                    .flat_map(|(class, pos)| {
                        k.row(s, pos).iter().map(move |t| {
                            let (kind, dir) = match t.action {
                                GridAction::Move(d) => (0, Some(d)),
                                GridAction::None => (1, None),
                                GridAction::Origin => (2, None),
                            };
                            Edge {
                                tag: 4 * class as u8 + kind,
                                dir,
                                prob: t.prob.to_bits(),
                                next: t.next,
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        Chain { start: k.start(), trunc, rows }
    }

    /// The collapsed kernel's exits. A reset exit teleports to the
    /// absolute point `dir.delta()`, which `σ` maps exactly like a move,
    /// so the reset flag is a fixed tag and the direction is mapped. The
    /// per-row truncation mass is not an edge: only the identity
    /// permutation is ever checked here ([`Chain::fixed_by`]), and it
    /// maps every row's truncation mass onto itself.
    pub(crate) fn of_collapsed(c: &CollapsedKernel) -> Chain {
        let rows = c
            .rows
            .iter()
            .map(|row| {
                row.exits
                    .iter()
                    .map(|&(e, p)| {
                        let exit = c.exits[e as usize];
                        Edge {
                            tag: u8::from(exit.reset),
                            dir: Some(exit.dir),
                            prob: p.to_bits(),
                            next: exit.next,
                        }
                    })
                    .collect()
            })
            .collect();
        Chain { start: c.start, trunc: vec![false; c.rows.len()], rows }
    }

    /// Is `σ` a symmetry with `π` the identity on the reachable states?
    pub(crate) fn fixed_by(&self, m: Mirror) -> bool {
        let mut pi = vec![UNSET; self.rows.len()];
        pi[self.start] = self.start;
        let mut stack = vec![self.start];
        while let Some(s) = stack.pop() {
            for e in &self.rows[s] {
                if pi[e.next] == UNSET {
                    pi[e.next] = e.next;
                    stack.push(e.next);
                }
            }
        }
        self.maps(m, &pi)
    }

    /// The check of the module doc for a candidate `π` (`UNSET` off the
    /// states reachable from the start).
    fn maps(&self, m: Mirror, pi: &[usize]) -> bool {
        if pi[self.start] != self.start {
            return false;
        }
        let mut hit = vec![false; pi.len()];
        for (s, &t) in pi.iter().enumerate() {
            if t == UNSET {
                continue;
            }
            if std::mem::replace(&mut hit[t], true) || self.trunc[s] != self.trunc[t] {
                return false;
            }
            let mut mapped = Vec::with_capacity(self.rows[s].len());
            for e in &self.rows[s] {
                if pi[e.next] == UNSET {
                    return false;
                }
                mapped.push(Edge { next: pi[e.next], ..e.mirrored(m) });
            }
            let mut image = self.rows[t].clone();
            mapped.sort_unstable();
            image.sort_unstable();
            if mapped != image {
                return false;
            }
        }
        true
    }

    /// The sorted `(tag, dir, prob)` runs of `s`'s row, mirrored by `m`
    /// when given: the part of a row no permutation can change.
    fn shape(&self, s: usize, m: Option<Mirror>) -> Shape {
        let mut shape: Vec<_> = self.rows[s]
            .iter()
            .map(|&e| m.map_or(e, |m| e.mirrored(m)))
            .map(|e| (e.tag, e.dir, e.prob))
            .collect();
        shape.sort_unstable();
        shape
    }

    /// Search for a `π` that makes `m` a symmetry, within `cap` steps.
    /// `None` when there is none or the budget runs out.
    fn find_permutation(&self, m: Mirror, cap: usize) -> Option<Vec<usize>> {
        let n = self.rows.len();
        let plain: Vec<_> = (0..n).map(|s| self.shape(s, None)).collect();
        let mirrored: Vec<_> = (0..n).map(|s| self.shape(s, Some(m))).collect();
        let mut search = Search {
            chain: self,
            m,
            plain,
            mirrored,
            pi: vec![UNSET; n],
            used: vec![false; n],
            trail: Vec::new(),
        };
        if !search.fits(self.start, self.start) {
            return None;
        }
        search.assign(self.start, self.start);
        search.run(cap)
    }
}

/// What matching one assigned state's row against its image's row found.
enum Step {
    /// Every successor is mapped consistently.
    Done,
    /// No consistent image exists under the current assignment.
    Conflict,
    /// Successor `u` may map to any of these (identity first).
    Branch(usize, Vec<usize>),
}

/// An open choice: undo to `trail`, resume checking at `checked`, and
/// try `cands[at + 1]` for `u`.
struct Choice {
    trail: usize,
    checked: usize,
    u: usize,
    cands: Vec<usize>,
    at: usize,
}

/// The backtracking state of one permutation search.
struct Search<'a> {
    chain: &'a Chain,
    m: Mirror,
    /// Every state's row shape, plain and mirrored ([`Chain::shape`]).
    plain: Vec<Shape>,
    mirrored: Vec<Shape>,
    pi: Vec<usize>,
    used: Vec<bool>,
    /// Mapped states in assignment order: the undo log, and the order
    /// rows are checked in.
    trail: Vec<usize>,
}

impl Search<'_> {
    /// Can `u` map to `v` at all: same truncation flag, and `v`'s row
    /// has the shape of `u`'s mirrored row.
    fn fits(&self, u: usize, v: usize) -> bool {
        self.chain.trunc[u] == self.chain.trunc[v] && self.mirrored[u] == self.plain[v]
    }

    fn assign(&mut self, u: usize, v: usize) {
        self.pi[u] = v;
        self.used[v] = true;
        self.trail.push(u);
    }

    fn undo(&mut self, len: usize) {
        while self.trail.len() > len {
            let u = self.trail.pop().expect("longer than len");
            self.used[self.pi[u]] = false;
            self.pi[u] = UNSET;
        }
    }

    /// Check every mapped state's row in assignment order, branching on
    /// ambiguous successors and backtracking on conflicts.
    fn run(mut self, cap: usize) -> Option<Vec<usize>> {
        let mut choices: Vec<Choice> = Vec::new();
        let mut checked = 0;
        let mut steps = 0;
        while checked < self.trail.len() {
            steps += 1;
            if steps > cap {
                return None;
            }
            match self.step(self.trail[checked]) {
                Step::Done => checked += 1,
                Step::Branch(u, cands) => {
                    choices.push(Choice { trail: self.trail.len(), checked, u, cands, at: 0 });
                    let v = choices.last().expect("just pushed").cands[0];
                    self.assign(u, v);
                }
                Step::Conflict => loop {
                    let c = choices.last_mut()?;
                    c.at += 1;
                    if let Some(&v) = c.cands.get(c.at) {
                        let (len, u) = (c.trail, c.u);
                        checked = c.checked;
                        self.undo(len);
                        self.assign(u, v);
                        break;
                    }
                    let len = c.trail;
                    choices.pop();
                    self.undo(len);
                },
            }
        }
        Some(self.pi)
    }

    /// Match the row of mapped state `s`, mirrored, against the row of
    /// `π(s)`, mapping every successor a run of equal `(tag, dir, prob)`
    /// leaves no choice for.
    fn step(&mut self, s: usize) -> Step {
        let mut from: Vec<Edge> = self.chain.rows[s].iter().map(|e| e.mirrored(self.m)).collect();
        let mut to = self.chain.rows[self.pi[s]].clone();
        from.sort_unstable();
        to.sort_unstable();
        // `fits(s, π(s))` held at assignment, so the two rows have the
        // same runs.
        let mut i = 0;
        while i < from.len() {
            let key = |e: &Edge| (e.tag, e.dir, e.prob);
            let j = i + from[i..].iter().take_while(|e| key(e) == key(&from[i])).count();
            loop {
                let mut free: Vec<usize> = to[i..j].iter().map(|e| e.next).collect();
                let mut unmapped = None;
                for e in &from[i..j] {
                    match self.pi[e.next] {
                        UNSET => unmapped = unmapped.or(Some(e.next)),
                        v => match free.iter().position(|&f| f == v) {
                            Some(at) => {
                                free.swap_remove(at);
                            }
                            None => return Step::Conflict,
                        },
                    }
                }
                let Some(u) = unmapped else { break };
                let mut cands: Vec<usize> =
                    free.into_iter().filter(|&v| !self.used[v] && self.fits(u, v)).collect();
                cands.sort_unstable();
                cands.dedup();
                if let Some(at) = cands.iter().position(|&v| v == u) {
                    cands[..=at].rotate_right(1);
                }
                match cands.len() {
                    0 => return Step::Conflict,
                    1 => self.assign(u, cands[0]),
                    _ => return Step::Branch(u, cands),
                }
            }
            i = j;
        }
        Step::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{coin_kernel, randomwalk_kernel};

    #[test]
    fn orbits_pick_the_lexicographic_maximum() {
        let all = Mirror::ALL;
        assert_eq!(orbit_representative(&all, Point::new(-1, -2)), Point::new(2, 1));
        assert_eq!(orbit_representative(&all, Point::new(0, -3)), Point::new(3, 0));
        let axes = [Mirror::NegY, Mirror::NegX];
        assert_eq!(orbit_representative(&axes, Point::new(-1, -2)), Point::new(1, 2));
        assert_eq!(orbit_representative(&[], Point::new(-1, -2)), Point::new(-1, -2));
    }

    #[test]
    fn identity_checks_match_the_kernels() {
        let rw = Chain::of_kernel(&randomwalk_kernel());
        assert!(Mirror::ALL.iter().all(|&m| rw.fixed_by(m)));
        // The coin kernel needs its direction blocks swapped: identity
        // fails, the search succeeds.
        let coin = Chain::of_kernel(&coin_kernel(8, 2).unwrap());
        assert!(!coin.fixed_by(Mirror::NegY));
        let pi = coin.find_permutation(Mirror::NegY, SYMMETRY_SEARCH_STEPS).unwrap();
        assert!(coin.maps(Mirror::NegY, &pi));
        assert!(pi.iter().enumerate().any(|(s, &t)| t != UNSET && t != s));
    }
}
