//! Expansion: a parsed [`WorkloadSpec`] becomes a validated
//! [`WorkloadPlan`] — one [`PlannedCell`] per point of each cell's sweep
//! cross product, every symbolic strategy argument bound, every scenario
//! proven constructible (via `ScenarioBuilder::try_build`).
//!
//! Determinism: expansion order is the document order of cells crossed
//! with the axes in the fixed order *target → agents → dist →
//! move_budget* (later axes vary fastest), and each expanded cell's seed
//! tag is drawn from a `SplitMix64` stream over the spec seed at the
//! cell's global expansion ordinal — unless the cell carries an explicit
//! `seed`, in which case its tags come from a cell-local stream over
//! that value and survive edits elsewhere in the spec. Two parses of the
//! same file produce identical plans, trial seeds and all.

use crate::spec::{CellSpec, Defaults, TargetSpec, WorkloadSpec};
use crate::zoo::ResolvedStrategy;
use crate::WorkloadError;
use ants_dp::Backend;
use ants_grid::{Point, Rect, TargetPlacement};
use ants_rng::{Rng64, SplitMix64};
use ants_sim::{Metric, MetricSet, ObservedJob, ObserverSpec, Scenario, SweepJob};

// Salt folded into the spec seed before deriving per-cell seed tags —
// registered in `ants_sim::salts` so new engine streams cannot alias it.
const PLAN_SEED_SALT: u64 = ants_sim::salts::WORKLOAD_PLAN_SALT;

/// Expansion ceiling: a typo'd sweep axis should fail validation, not
/// allocate a million scenarios.
const MAX_CELLS: usize = 4096;

/// One concrete, validated scenario of the plan.
#[derive(Debug)]
pub struct PlannedCell {
    /// Cell label: the spec cell name plus one suffix per swept axis.
    pub label: String,
    /// Agent count `n`.
    pub agents: u64,
    /// The concrete target model.
    pub target: TargetSpec,
    /// Per-agent move budget.
    pub move_budget: u64,
    /// Per-guess move ceiling, if any.
    pub guess_move_ceiling: Option<u64>,
    /// Trials at standard effort.
    pub trials: u64,
    /// Trials at smoke effort.
    pub smoke_trials: u64,
    /// The seed tag the runner XORs with its base seed.
    pub seed_tag: u64,
    /// Evaluation backend: Monte Carlo sampling or the exact DP engine
    /// (validated at expansion time — a `"dp"` cell only contains
    /// Markovian strategies).
    pub backend: Backend,
    /// The resolved weighted population.
    pub population: Vec<(u64, ResolvedStrategy)>,
}

impl PlannedCell {
    /// The target distance `D` (max-norm) the cell's zoo entries bound
    /// their `dist` argument to.
    pub fn dist(&self) -> u64 {
        match self.target {
            TargetSpec::Corner { dist } | TargetSpec::Ball { dist } | TargetSpec::Ring { dist } => {
                dist
            }
            TargetSpec::Fixed { x, y } => x.unsigned_abs().max(y.unsigned_abs()),
        }
    }

    /// Trials at the given effort.
    pub fn trials_at(&self, smoke: bool) -> u64 {
        if smoke {
            self.smoke_trials
        } else {
            self.trials
        }
    }

    /// The engine-level target placement.
    pub fn placement(&self) -> TargetPlacement {
        match self.target {
            TargetSpec::Corner { dist } => TargetPlacement::Corner { distance: dist },
            TargetSpec::Ball { dist } => TargetPlacement::UniformInBall { distance: dist },
            TargetSpec::Ring { dist } => TargetPlacement::Ring { distance: dist },
            TargetSpec::Fixed { x, y } => TargetPlacement::Fixed(Point::new(x, y)),
        }
    }

    /// `corner(16)`-style target label for reports.
    pub fn target_label(&self) -> String {
        match self.target {
            TargetSpec::Fixed { x, y } => format!("fixed({x},{y})"),
            _ => format!("{}({})", self.target.model(), self.dist()),
        }
    }

    /// `2:nonuniform(16) + 1:randomwalk`-style population label.
    pub fn population_label(&self) -> String {
        self.population
            .iter()
            .map(|(w, s)| format!("{w}:{}", s.label()))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Build the cell's scenario: the resolved population as a weighted
    /// mix (a one-entry mix assigns everyone entry 0, so no special
    /// case is needed).
    pub fn scenario(&self) -> Result<Scenario, WorkloadError> {
        let mut b = Scenario::builder()
            .agents(self.agents as usize)
            .target(self.placement())
            .move_budget(self.move_budget);
        if let Some(c) = self.guess_move_ceiling {
            b = b.guess_move_ceiling(c);
        }
        for (w, s) in &self.population {
            b = b.mix_boxed(*w, s.factory());
        }
        b.try_build().map_err(|e| WorkloadError {
            context: format!("cell '{}'", self.label),
            message: e.to_string(),
        })
    }

    /// The cell's [`SweepJob`] at the given effort and base seed.
    pub fn job(&self, smoke: bool, base_seed: u64) -> Result<SweepJob, WorkloadError> {
        Ok(SweepJob::new(self.scenario()?, self.trials_at(smoke), base_seed ^ self.seed_tag))
    }

    /// The round horizon of the cell's observed runs: the move budget
    /// read as a transition count (for the Theorem 4.1 measurements the
    /// spec sets `move_budget = D²`, which is exactly the theorem's step
    /// horizon).
    pub fn observe_rounds(&self) -> u64 {
        self.move_budget
    }

    /// The observer specs `metrics` induces for this cell, in canonical
    /// [`Metric::ALL`] order: coverage-style observers measure
    /// `Rect::ball(dist)` (the theorem's candidate region), and the
    /// round trace samples at quarter-horizon stride.
    pub fn observer_specs(&self, metrics: MetricSet) -> Vec<ObserverSpec> {
        let bounds = Rect::ball(self.dist());
        let rounds = self.observe_rounds();
        metrics
            .iter()
            .map(|m| match m {
                Metric::Coverage => ObserverSpec::JointCoverage { bounds },
                Metric::FirstVisit => ObserverSpec::FirstVisitTimes { bounds },
                Metric::RoundTrace => {
                    ObserverSpec::RoundTrace { bounds, stride: (rounds / 4).max(1) }
                }
                Metric::Chi => ObserverSpec::ChiFootprint,
                Metric::FoundRound => ObserverSpec::FirstFinder,
            })
            .collect()
    }

    /// The cell's [`ObservedJob`] for `metrics` at the given effort and
    /// base seed — same trial seeds as [`PlannedCell::job`], so trial
    /// metrics and observations describe the same random executions.
    pub fn observed_job(
        &self,
        smoke: bool,
        base_seed: u64,
        metrics: MetricSet,
    ) -> Result<ObservedJob, WorkloadError> {
        Ok(ObservedJob::new(
            self.scenario()?,
            self.trials_at(smoke),
            base_seed ^ self.seed_tag,
            self.observe_rounds(),
            self.observer_specs(metrics),
        ))
    }
}

/// A validated, fully-expanded workload.
#[derive(Debug)]
pub struct WorkloadPlan {
    /// The spec's display name.
    pub name: String,
    /// Report key: the name sanitized to `[a-z0-9_-]`.
    pub key: String,
    /// The spec's description.
    pub description: String,
    /// The spec's observation metrics (empty = trial metrics only).
    pub metrics: MetricSet,
    /// The expanded cells, in expansion order.
    pub cells: Vec<PlannedCell>,
}

impl WorkloadPlan {
    /// Expand and validate a parsed spec.
    pub fn expand(spec: &WorkloadSpec) -> Result<WorkloadPlan, WorkloadError> {
        let mut cells = Vec::new();
        let mut seed_stream = SplitMix64::new(spec.defaults.seed.unwrap_or(0) ^ PLAN_SEED_SALT);
        for cell in &spec.cells {
            expand_cell(cell, &spec.defaults, &mut cells, &mut seed_stream)?;
        }
        // Prove every scenario constructible now, so `workload validate`
        // and experiment construction catch bad ceilings/budgets before
        // anything runs. This is the single validation point:
        // `WorkloadExperiment` trusts plans produced here.
        for c in &cells {
            let _ = c.scenario()?;
        }
        // Labels encode every swept axis, so a duplicate label means two
        // byte-identical parameter combinations — e.g. a `dist` axis
        // clobbering the distances declared in a `target` axis, or a
        // repeated value inside one axis. That silently double-spends
        // trials and produces indistinguishable report rows; reject it.
        let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(WorkloadError {
                context: "cells".to_string(),
                message: format!(
                    "expansion produced duplicate cells '{}' — two sweep points resolve to the \
                     same parameters (a 'dist' axis overrides the distances of every 'target' \
                     axis entry; vary the models, not just their dists, or drop one axis)",
                    w[0]
                ),
            });
        }
        let key = sanitize_key(&spec.name);
        // The key doubles as the report file name: an empty key would
        // write a hidden `.json` that validate/trend silently skip, and
        // an `e<N>` key would overwrite a built-in experiment's report.
        if key.is_empty() {
            return Err(WorkloadError {
                context: "spec.name".to_string(),
                message: format!(
                    "name '{}' sanitizes to an empty report key — include at least one \
                     alphanumeric character",
                    spec.name
                ),
            });
        }
        if key
            .strip_prefix('e')
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        {
            return Err(WorkloadError {
                context: "spec.name".to_string(),
                message: format!(
                    "report key '{key}' is reserved for the built-in e<N> experiments — \
                     rename the workload"
                ),
            });
        }
        Ok(WorkloadPlan {
            name: spec.name.clone(),
            key,
            description: spec.description.clone(),
            metrics: spec.metrics,
            cells,
        })
    }

    /// Total trials at the given effort (workload previews).
    pub fn total_trials(&self, smoke: bool) -> u64 {
        self.cells.iter().map(|c| c.trials_at(smoke)).sum()
    }

    /// The jobs of the whole plan at the given effort/base seed, in cell
    /// order — hand these to `ants_sim::run_sweep_with`.
    pub fn jobs(&self, smoke: bool, base_seed: u64) -> Result<Vec<SweepJob>, WorkloadError> {
        self.cells.iter().map(|c| c.job(smoke, base_seed)).collect()
    }

    /// The observed jobs of the whole plan for `metrics`, in cell order —
    /// hand these to `ants_sim::run_observed_sweep`. Callers typically
    /// pass `self.metrics` joined with any runner-level additions.
    pub fn observed_jobs(
        &self,
        smoke: bool,
        base_seed: u64,
        metrics: MetricSet,
    ) -> Result<Vec<ObservedJob>, WorkloadError> {
        self.cells.iter().map(|c| c.observed_job(smoke, base_seed, metrics)).collect()
    }
}

/// Lowercase and map everything outside `[a-z0-9_-]` to `-` (the report
/// key doubles as the JSON file name).
fn sanitize_key(name: &str) -> String {
    let mut key: String = name
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    while key.contains("--") {
        key = key.replace("--", "-");
    }
    key.trim_matches('-').to_string()
}

fn expand_cell(
    cell: &CellSpec,
    defaults: &Defaults,
    out: &mut Vec<PlannedCell>,
    seed_stream: &mut SplitMix64,
) -> Result<(), WorkloadError> {
    let ctx = |message: String| WorkloadError { context: format!("cell '{}'", cell.name), message };

    // Base targets: the `target` sweep axis replaces the scalar field.
    let targets: Vec<TargetSpec> = if !cell.sweep.target.is_empty() {
        if cell.target.is_some() {
            return Err(ctx(
                "cell sets both 'target' and 'sweep.target' — use exactly one".to_string()
            ));
        }
        cell.sweep.target.clone()
    } else {
        vec![cell
            .target
            .ok_or_else(|| ctx("cell needs 'target' (or a 'sweep.target' axis)".to_string()))?]
    };
    let agent_counts: Vec<u64> = if cell.sweep.agents.is_empty() {
        vec![cell
            .agents
            .ok_or_else(|| ctx("cell needs 'agents' (or a 'sweep.agents' axis)".to_string()))?]
    } else {
        if cell.agents.is_some() {
            return Err(ctx(
                "cell sets both 'agents' and 'sweep.agents' — use exactly one".to_string()
            ));
        }
        cell.sweep.agents.clone()
    };
    if agent_counts.contains(&0) {
        return Err(ctx("agent counts must be >= 1".to_string()));
    }
    let dists: Vec<Option<u64>> = if cell.sweep.dist.is_empty() {
        vec![None]
    } else {
        cell.sweep.dist.iter().map(|&d| Some(d)).collect()
    };
    let budgets: Vec<Option<u64>> = if cell.sweep.move_budget.is_empty() {
        vec![None]
    } else {
        if cell.move_budget.is_some() {
            return Err(ctx(
                "cell sets both 'move_budget' and 'sweep.move_budget' — use exactly one"
                    .to_string(),
            ));
        }
        cell.sweep.move_budget.iter().map(|&b| Some(b)).collect()
    };

    // Reject runaway cross products *before* materializing anything: a
    // typo'd axis must fail validation, not allocate a million scenarios.
    let product = targets
        .len()
        .checked_mul(agent_counts.len())
        .and_then(|p| p.checked_mul(dists.len()))
        .and_then(|p| p.checked_mul(budgets.len()))
        .unwrap_or(usize::MAX);
    if out.len().saturating_add(product) > MAX_CELLS {
        return Err(ctx(format!(
            "expansion would exceed {MAX_CELLS} cells ({product} from this cell alone) — \
             shrink the sweep axes"
        )));
    }

    let trials = cell
        .trials
        .or(defaults.trials)
        .ok_or_else(|| ctx("cell needs 'trials' (cell-level or [defaults])".to_string()))?;
    if trials == 0 {
        return Err(ctx("'trials' must be >= 1".to_string()));
    }
    let smoke_trials =
        cell.smoke_trials.or(defaults.smoke_trials).unwrap_or_else(|| (trials / 8).max(1));
    if smoke_trials == 0 {
        return Err(ctx("'smoke_trials' must be >= 1".to_string()));
    }
    let ceiling = cell.guess_move_ceiling.or(defaults.guess_move_ceiling);
    if ceiling == Some(0) {
        return Err(ctx("'guess_move_ceiling' must be >= 1".to_string()));
    }
    let backend = cell.backend.or(defaults.backend).unwrap_or_default();
    if backend == Backend::Dp && ceiling.is_some() {
        return Err(ctx(
            "backend = \"dp\" cannot model 'guess_move_ceiling' (the exact DP has no \
             per-guess clock) — drop the ceiling or use backend = \"mc\""
                .to_string(),
        ));
    }

    // An explicit cell-level seed pins this cell's tags regardless of
    // what surrounds it: its expansions draw from a *local* stream over
    // that seed, so inserting or resizing other cells cannot shift them.
    // Cells without one draw from the shared spec-seed stream (always
    // advanced below, so adding an explicit seed to one cell does not
    // reshuffle its neighbours either).
    let mut local_stream = cell.seed.map(|s| SplitMix64::new(s ^ PLAN_SEED_SALT));

    for base_target in &targets {
        for &agents in &agent_counts {
            for &dist_override in &dists {
                for &budget_override in &budgets {
                    let target = match dist_override {
                        Some(d) => {
                            if d == 0 || d > crate::spec::MAX_DIST {
                                return Err(ctx(format!(
                                    "sweep.dist values must be in 1..={}, got {d}",
                                    crate::spec::MAX_DIST
                                )));
                            }
                            base_target.with_dist(d).map_err(&ctx)?
                        }
                        None => *base_target,
                    };
                    let mut planned = PlannedCell {
                        label: String::new(),
                        agents,
                        target,
                        move_budget: 0,
                        guess_move_ceiling: ceiling,
                        trials,
                        smoke_trials,
                        seed_tag: {
                            let shared = seed_stream.next_u64();
                            match &mut local_stream {
                                Some(local) => local.next_u64(),
                                None => shared,
                            }
                        },
                        backend,
                        population: Vec::new(),
                    };
                    let dist = planned.dist();
                    planned.move_budget = budget_override
                        .or(cell.move_budget)
                        .or(defaults.move_budget)
                        .unwrap_or_else(|| default_budget(dist));
                    if planned.move_budget == 0 {
                        return Err(ctx("'move_budget' must be >= 1".to_string()));
                    }
                    // Bind dist/agents into each population entry.
                    for (i, entry) in cell.population.iter().enumerate() {
                        let resolved = entry.strategy.resolve(dist, agents).map_err(|message| {
                            WorkloadError {
                                context: format!("cell '{}' population[{i}]", cell.name),
                                message,
                            }
                        })?;
                        if backend == Backend::Dp && !resolved.supports_dp() {
                            return Err(WorkloadError {
                                context: format!("cell '{}' population[{i}].strategy", cell.name),
                                message: format!(
                                    "strategy '{}' is not Markovian, so backend = \"dp\" \
                                     cannot evaluate it exactly — use backend = \"mc\" for \
                                     this cell",
                                    resolved.label()
                                ),
                            });
                        }
                        planned.population.push((entry.weight, resolved));
                    }
                    // Label: the name plus one suffix per *swept* axis.
                    let mut label = cell.name.clone();
                    if !cell.sweep.target.is_empty() {
                        label.push_str(&format!("/{}", planned.target_label()));
                    }
                    if !cell.sweep.agents.is_empty() {
                        label.push_str(&format!("/n{agents}"));
                    }
                    if !cell.sweep.dist.is_empty() {
                        label.push_str(&format!("/d{dist}"));
                    }
                    if !cell.sweep.move_budget.is_empty() {
                        label.push_str(&format!("/b{}", planned.move_budget));
                    }
                    planned.label = label;
                    out.push(planned);
                }
            }
        }
    }
    Ok(())
}

/// The default per-agent move budget at distance `D`: enough for the
/// paper's algorithms to finish comfortably (`Θ(D²)` with headroom),
/// matching the E9 harness's sizing.
fn default_budget(dist: u64) -> u64 {
    dist * dist * 400 + 100_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn plan(text: &str) -> WorkloadPlan {
        WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap()
    }

    const SWEPT: &str = "\
name = \"Grid Demo\"

[defaults]
trials = 8
seed = 3

[[cells]]
name = \"zoo\"
target = { model = \"ball\", dist = 8 }
population = [
  { strategy = \"nonuniform(dist)\", weight = 2 },
  { strategy = \"randomwalk\", weight = 1 },
]
sweep = { agents = [2, 4], dist = [4, 8] }
";

    #[test]
    fn cross_product_expansion_in_document_order() {
        let p = plan(SWEPT);
        assert_eq!(p.name, "Grid Demo");
        assert_eq!(p.key, "grid-demo");
        let labels: Vec<&str> = p.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["zoo/n2/d4", "zoo/n2/d8", "zoo/n4/d4", "zoo/n4/d8"]);
        // dist binds into the population.
        assert_eq!(p.cells[0].population[0].1.label(), "nonuniform(4)");
        assert_eq!(p.cells[1].population[0].1.label(), "nonuniform(8)");
        // Budgets derive from the resolved dist.
        assert_eq!(p.cells[0].move_budget, 4 * 4 * 400 + 100_000);
    }

    #[test]
    fn expansion_is_deterministic_including_seeds() {
        let a = plan(SWEPT);
        let b = plan(SWEPT);
        let seeds_a: Vec<u64> = a.cells.iter().map(|c| c.seed_tag).collect();
        let seeds_b: Vec<u64> = b.cells.iter().map(|c| c.seed_tag).collect();
        assert_eq!(seeds_a, seeds_b);
        // Tags are distinct across cells.
        let mut dedup = seeds_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds_a.len());
    }

    #[test]
    fn spec_seed_shifts_every_tag() {
        let shifted = SWEPT.replace("seed = 3", "seed = 4");
        let a = plan(SWEPT);
        let b = plan(&shifted);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_ne!(ca.seed_tag, cb.seed_tag, "{}", ca.label);
        }
    }

    #[test]
    fn degenerate_and_reserved_report_keys_are_rejected() {
        let mk = |name: &str| {
            format!(
                "name = \"{name}\"\n[defaults]\ntrials = 2\n[[cells]]\nname = \"c\"\nagents = 1\n\
                 target = {{ model = \"ball\", dist = 4 }}\n\
                 population = [ {{ strategy = \"spiral\" }} ]\n"
            )
        };
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(&mk("???")).unwrap()).unwrap_err();
        assert!(e.message.contains("empty report key"), "{e}");
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(&mk("E1")).unwrap()).unwrap_err();
        assert!(e.message.contains("reserved"), "{e}");
        // Names that merely start with 'e' are fine.
        assert_eq!(plan(&mk("e2e-check")).key, "e2e-check");
    }

    #[test]
    fn collapsing_sweep_points_are_rejected() {
        // A dist axis overrides the distances declared inside a target
        // axis; two same-model target entries then collapse into
        // byte-identical cells — that must fail, not double-spend trials.
        let text = "\
name = \"dup\"
[defaults]
trials = 2
[[cells]]
name = \"c\"
agents = 1
population = [ { strategy = \"spiral\" } ]
sweep = { dist = [4], target = [
  { model = \"corner\", dist = 8 },
  { model = \"corner\", dist = 16 },
] }
";
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap_err();
        assert!(e.message.contains("duplicate cells"), "{e}");
        // Repeated values inside one axis are caught by the same guard.
        let text = "\
name = \"dup2\"
[defaults]
trials = 2
[[cells]]
name = \"c\"
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"spiral\" } ]
sweep = { agents = [2, 2] }
";
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap_err();
        assert!(e.message.contains("duplicate cells"), "{e}");
        // Distinct models under a shared dist axis stay legal (the
        // mixed-target pattern of the bundled specs).
        let text = "\
name = \"ok\"
[defaults]
trials = 2
[[cells]]
name = \"c\"
agents = 1
population = [ { strategy = \"spiral\" } ]
sweep = { dist = [4, 6], target = [
  { model = \"corner\", dist = 4 },
  { model = \"ring\", dist = 4 },
] }
";
        assert_eq!(plan(text).cells.len(), 4);
    }

    #[test]
    fn scalar_and_axis_conflicts_are_rejected() {
        let base = "\
name = \"s\"
[defaults]
trials = 2
[[cells]]
name = \"c\"
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"spiral\" } ]
";
        let agents_conflict = format!("{base}agents = 9\nsweep = {{ agents = [1, 2] }}\n");
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(&agents_conflict).unwrap()).unwrap_err();
        assert!(e.message.contains("both 'agents' and 'sweep.agents'"), "{e}");
        let budget_conflict =
            format!("{base}agents = 2\nmove_budget = 900\nsweep = {{ move_budget = [800] }}\n");
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(&budget_conflict).unwrap()).unwrap_err();
        assert!(e.message.contains("both 'move_budget'"), "{e}");
    }

    #[test]
    fn explicit_cell_seed_survives_neighbouring_edits() {
        // The pinned cell's tags must not move when a cell is inserted
        // before it or a sibling sweep grows.
        let pinned = "\
[[cells]]
name = \"pinned\"
seed = 123
agents = 2
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"spiral\" } ]
sweep = { dist = [3, 4] }
";
        let base = format!("name = \"s\"\n[defaults]\ntrials = 2\n{pinned}");
        let edited = format!(
            "name = \"s\"\n[defaults]\ntrials = 2\n\
             [[cells]]\nname = \"extra\"\n\
             target = {{ model = \"ball\", dist = 3 }}\n\
             population = [ {{ strategy = \"randomwalk\" }} ]\n\
             sweep = {{ agents = [1, 2, 3] }}\n{pinned}"
        );
        let tags = |text: &str| -> Vec<u64> {
            plan(text)
                .cells
                .iter()
                .filter(|c| c.label.starts_with("pinned"))
                .map(|c| c.seed_tag)
                .collect()
        };
        assert_eq!(tags(&base), tags(&edited), "explicit seed must pin the cell's tags");
        // And unpinned cells do move (the shared stream shifted).
        let unpinned_base = base.replace("seed = 123\n", "");
        let unpinned_edit = edited.replace("seed = 123\n", "");
        assert_ne!(tags(&unpinned_base), tags(&unpinned_edit));
    }

    #[test]
    fn runaway_cross_products_are_rejected_before_allocation() {
        let axis: String = (1..=100).map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        let text = format!(
            "name = \"big\"\n[defaults]\ntrials = 2\n\
             [[cells]]\nname = \"c\"\n\
             target = {{ model = \"ball\", dist = 4 }}\n\
             population = [ {{ strategy = \"spiral\" }} ]\n\
             sweep = {{ agents = [{axis}], dist = [{axis}], move_budget = [{axis}] }}\n"
        );
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(&text).unwrap()).unwrap_err();
        assert!(e.message.contains("shrink the sweep axes"), "{e}");
        assert!(e.message.contains("1000000 from this cell"), "{e}");
    }

    #[test]
    fn target_axis_expands_models() {
        let text = "\
name = \"targets\"
[defaults]
trials = 4
[[cells]]
name = \"t\"
agents = 2
population = [ { strategy = \"spiral\" } ]
sweep = { target = [ { model = \"corner\", dist = 4 }, { model = \"ring\", dist = 6 } ] }
";
        let p = plan(text);
        assert_eq!(p.cells.len(), 2);
        assert_eq!(p.cells[0].label, "t/corner(4)");
        assert_eq!(p.cells[1].label, "t/ring(6)");
        assert_eq!(p.cells[1].placement(), TargetPlacement::Ring { distance: 6 });
    }

    #[test]
    fn scenarios_build_and_jobs_inherit_trials() {
        let p = plan(SWEPT);
        let jobs = p.jobs(false, 0).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].trials, 8);
        assert_eq!(p.total_trials(false), 32);
        // smoke_trials defaults to max(1, trials/8).
        assert_eq!(p.total_trials(true), 4);
        let s = p.cells[0].scenario().unwrap();
        assert_eq!(s.n_agents(), 2);
        assert_eq!(s.population_len(), 2);
    }

    #[test]
    fn validation_errors_carry_cell_context() {
        // Unreachable ceiling flows out of try_build with the cell name.
        let text = "\
name = \"bad\"
[defaults]
trials = 4
[[cells]]
name = \"c\"
agents = 1
guess_move_ceiling = 3
target = { model = \"corner\", dist = 4 }
population = [ { strategy = \"spiral\" } ]
";
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap_err();
        assert!(e.context.contains("cell 'c'"), "{e}");
        assert!(e.message.contains("unreachable"), "{e}");
        // Missing trials everywhere.
        let text = "\
name = \"bad\"
[[cells]]
name = \"c\"
agents = 1
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"spiral\" } ]
";
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap_err();
        assert!(e.message.contains("trials"), "{e}");
        // Sweeping dist over a fixed target is rejected.
        let text = "\
name = \"bad\"
[defaults]
trials = 4
[[cells]]
name = \"c\"
agents = 1
target = { model = \"fixed\", x = 2, y = 2 }
population = [ { strategy = \"spiral\" } ]
sweep = { dist = [2, 4] }
";
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap_err();
        assert!(e.message.contains("fixed"), "{e}");
    }

    #[test]
    fn dp_backend_validates_markovian_populations() {
        let mk = |backend: &str, strategy: &str, extra: &str| {
            format!(
                "name = \"b\"\n[defaults]\ntrials = 2\n[[cells]]\nname = \"c\"\nagents = 2\n\
                 backend = \"{backend}\"\n{extra}target = {{ model = \"ball\", dist = 4 }}\n\
                 population = [ {{ strategy = \"{strategy}\" }} ]\n"
            )
        };
        // Markovian cells validate and carry the backend through.
        for s in ["randomwalk", "nonuniform(dist)", "coin(4, 2)", "mortal(randomwalk, 16)"] {
            let p = plan(&mk("dp", s, ""));
            assert_eq!(p.cells[0].backend, Backend::Dp, "{s}");
        }
        assert_eq!(plan(&mk("mc", "levy(2.0, 64)", "")).cells[0].backend, Backend::Mc);
        // Non-Markovian strategies fail with a spec path naming them.
        for s in ["levy(2.0, 64)", "harmonic(agents)", "spiral", "fullyuniform(2, 2)"] {
            let e =
                WorkloadPlan::expand(&WorkloadSpec::parse(&mk("dp", s, "")).unwrap()).unwrap_err();
            assert!(e.context.contains("cell 'c' population[0].strategy"), "{s}: {e}");
            assert!(e.message.contains("not Markovian"), "{s}: {e}");
            let family = s.split('(').next().unwrap();
            assert!(e.message.contains(&format!("'{family}")), "{s}: {e}");
        }
        // mortal of a non-Markovian inner is rejected too.
        let e = WorkloadPlan::expand(
            &WorkloadSpec::parse(&mk("dp", "mortal(levy(2.0, 64), 16)", "")).unwrap(),
        )
        .unwrap_err();
        assert!(e.message.contains("not Markovian"), "{e}");
        // A per-guess ceiling has no DP analogue.
        let e = WorkloadPlan::expand(
            &WorkloadSpec::parse(&mk("dp", "randomwalk", "guess_move_ceiling = 50\n")).unwrap(),
        )
        .unwrap_err();
        assert!(e.message.contains("guess_move_ceiling"), "{e}");
        // The defaults-level backend applies to cells without one.
        let text = "\
name = \"b\"
[defaults]
trials = 2
backend = \"dp\"
[[cells]]
name = \"c\"
agents = 2
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"spiral\" } ]
";
        let e = WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap_err();
        assert!(e.message.contains("'spiral' is not Markovian"), "{e}");
    }

    #[test]
    fn population_labels_read_well() {
        let p = plan(SWEPT);
        assert_eq!(p.cells[3].population_label(), "2:nonuniform(8) + 1:randomwalk");
        assert_eq!(p.cells[3].target_label(), "ball(8)");
    }
}
