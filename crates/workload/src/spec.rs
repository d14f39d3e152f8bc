//! The workload spec model: what a `.toml` workload file declares,
//! before expansion.
//!
//! A spec is a named grid of cells. Each cell describes one scenario
//! family — agent count, target model, move budget, a weighted strategy
//! population — plus optional `sweep` axes whose cross product expands
//! the cell into many concrete scenarios (see [`crate::plan`]).

use crate::toml;
use crate::zoo::ZooStrategy;
use crate::WorkloadError;
use ants_dp::Backend;
use ants_sim::json::Json;
use ants_sim::{Metric, MetricSet};

/// Largest accepted target distance (max-norm). Keeps derived move
/// budgets (`400·D² + 100 000`) comfortably inside `u64` and matches
/// the scale anything in this workspace can actually simulate.
pub const MAX_DIST: u64 = 1 << 20;

/// Spec-wide defaults, overridable per cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Defaults {
    /// Monte-Carlo trials per cell at standard effort.
    pub trials: Option<u64>,
    /// Trials per cell at smoke effort (default `max(1, trials / 8)`).
    pub smoke_trials: Option<u64>,
    /// Per-agent move budget (default `400·D² + 100 000`).
    pub move_budget: Option<u64>,
    /// Per-guess move ceiling (default unlimited).
    pub guess_move_ceiling: Option<u64>,
    /// Base seed the per-cell seed tags are derived from (default 0).
    pub seed: Option<u64>,
    /// Evaluation backend (`"mc"` Monte Carlo sampling, `"dp"` exact
    /// dynamic programming; default `"mc"`).
    pub backend: Option<Backend>,
}

/// A target model as declared in a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSpec {
    /// `{ model = "corner", dist = D }` — the adversarial corner `(D, D)`.
    Corner {
        /// Max-norm distance.
        dist: u64,
    },
    /// `{ model = "ball", dist = D }` — uniform in the punctured square.
    Ball {
        /// Max-norm radius.
        dist: u64,
    },
    /// `{ model = "ring", dist = D }` — uniform on the max-norm circle.
    Ring {
        /// Max-norm distance of every candidate.
        dist: u64,
    },
    /// `{ model = "fixed", x = X, y = Y }` — one known point.
    Fixed {
        /// x coordinate.
        x: i64,
        /// y coordinate.
        y: i64,
    },
}

impl TargetSpec {
    /// The model name as written in specs.
    pub fn model(&self) -> &'static str {
        match self {
            TargetSpec::Corner { .. } => "corner",
            TargetSpec::Ball { .. } => "ball",
            TargetSpec::Ring { .. } => "ring",
            TargetSpec::Fixed { .. } => "fixed",
        }
    }

    /// Rewrite the distance parameter (the `sweep.dist` axis).
    ///
    /// # Errors
    ///
    /// Fixed targets have no distance parameter.
    pub fn with_dist(self, dist: u64) -> Result<TargetSpec, String> {
        match self {
            TargetSpec::Corner { .. } => Ok(TargetSpec::Corner { dist }),
            TargetSpec::Ball { .. } => Ok(TargetSpec::Ball { dist }),
            TargetSpec::Ring { .. } => Ok(TargetSpec::Ring { dist }),
            TargetSpec::Fixed { .. } => {
                Err("a fixed target has no distance to sweep (use corner/ball/ring)".to_string())
            }
        }
    }

    fn to_inline_toml(self) -> String {
        match self {
            TargetSpec::Corner { dist } => format!("{{ model = \"corner\", dist = {dist} }}"),
            TargetSpec::Ball { dist } => format!("{{ model = \"ball\", dist = {dist} }}"),
            TargetSpec::Ring { dist } => format!("{{ model = \"ring\", dist = {dist} }}"),
            TargetSpec::Fixed { x, y } => format!("{{ model = \"fixed\", x = {x}, y = {y} }}"),
        }
    }
}

/// One weighted population entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooEntry {
    /// Relative weight (probability mass `weight / Σ weights`).
    pub weight: u64,
    /// The strategy, possibly with symbolic `dist`/`agents` arguments.
    pub strategy: ZooStrategy,
}

/// The sweep axes of a cell; the cross product of all non-empty axes is
/// expanded. Axis order here is expansion order (later axes vary
/// fastest).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    /// Agent counts.
    pub agents: Vec<u64>,
    /// Target distances (rewrites the cell target's `dist`).
    pub dist: Vec<u64>,
    /// Move budgets.
    pub move_budget: Vec<u64>,
    /// Whole target models (mixed-target sweeps).
    pub target: Vec<TargetSpec>,
}

impl Sweep {
    /// Is any axis set?
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
            && self.dist.is_empty()
            && self.move_budget.is_empty()
            && self.target.is_empty()
    }
}

/// One cell of the workload grid, pre-expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell name (expansion suffixes axis values onto it).
    pub name: String,
    /// Agent count (required here or via an `agents` sweep axis).
    pub agents: Option<u64>,
    /// Trials at standard effort (falls back to defaults).
    pub trials: Option<u64>,
    /// Trials at smoke effort.
    pub smoke_trials: Option<u64>,
    /// Per-agent move budget.
    pub move_budget: Option<u64>,
    /// Per-guess move ceiling.
    pub guess_move_ceiling: Option<u64>,
    /// Explicit cell seed: pins this cell's seed tags regardless of
    /// surrounding cells (its expansions draw from a local stream over
    /// this value, so editing other cells never reshuffles a pinned
    /// cell's trials; two cells sharing an explicit seed deliberately
    /// share randomness — common random numbers). Default: tags come
    /// from the spec-seed stream at the cell's expansion ordinal.
    pub seed: Option<u64>,
    /// Evaluation backend for this cell (overrides the default; `"dp"`
    /// requires every population entry to be Markovian — validated at
    /// expansion time).
    pub backend: Option<Backend>,
    /// The target model (required here or via a `target` sweep axis).
    pub target: Option<TargetSpec>,
    /// The weighted strategy population (at least one entry).
    pub population: Vec<ZooEntry>,
    /// Sweep axes.
    pub sweep: Sweep,
}

/// A parsed workload spec.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (becomes the report key, sanitized).
    pub name: String,
    /// Free-text description (becomes the report claim).
    pub description: String,
    /// Observation metrics (`metrics = ["coverage", "first_visit", …]`):
    /// every cell additionally runs through the observation layer and
    /// the report gains the corresponding columns (see the README's
    /// workload-format section). Empty = trial metrics only.
    pub metrics: MetricSet,
    /// Spec-wide defaults.
    pub defaults: Defaults,
    /// The cells, in document order.
    pub cells: Vec<CellSpec>,
}

fn err(context: impl Into<String>, message: impl Into<String>) -> WorkloadError {
    WorkloadError { context: context.into(), message: message.into() }
}

/// Read a non-negative integer (TOML numbers arrive as `f64`).
fn as_u64(v: &Json, context: &str) -> Result<u64, WorkloadError> {
    let x = v.as_f64().ok_or_else(|| err(context, "expected an integer"))?;
    if x < 0.0 || x.fract() != 0.0 || x > (1u64 << 53) as f64 {
        return Err(err(context, format!("expected a non-negative integer, got {x}")));
    }
    Ok(x as u64)
}

fn as_i64(v: &Json, context: &str) -> Result<i64, WorkloadError> {
    let x = v.as_f64().ok_or_else(|| err(context, "expected an integer"))?;
    if x.fract() != 0.0 || x.abs() > (1u64 << 53) as f64 {
        return Err(err(context, format!("expected an integer, got {x}")));
    }
    Ok(x as i64)
}

fn as_str<'a>(v: &'a Json, context: &str) -> Result<&'a str, WorkloadError> {
    v.as_str().ok_or_else(|| err(context, "expected a string"))
}

/// Reject non-tables and keys the schema does not know — typos in a
/// data file should fail validation, not be silently ignored (a
/// non-table value has no keys, so skipping this check would make every
/// lookup quietly return `None`).
fn check_keys(v: &Json, allowed: &[&str], context: &str) -> Result<(), WorkloadError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(err(context, "expected a table (e.g. `{ key = value }` or a [section])"));
    }
    for key in v.keys() {
        if !allowed.contains(&key) {
            return Err(err(
                context,
                format!("unknown key '{key}' (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn parse_target(v: &Json, context: &str) -> Result<TargetSpec, WorkloadError> {
    check_keys(v, &["model", "dist", "x", "y"], context)?;
    let model = as_str(
        v.get("model").ok_or_else(|| err(context, "target needs a 'model' key"))?,
        &format!("{context}.model"),
    )?;
    let dist = |ctx: &str| -> Result<u64, WorkloadError> {
        let d = as_u64(
            v.get("dist")
                .ok_or_else(|| err(ctx, format!("target model '{model}' needs 'dist'")))?,
            &format!("{ctx}.dist"),
        )?;
        if d == 0 || d > MAX_DIST {
            return Err(err(
                format!("{ctx}.dist"),
                format!("target distance must be in 1..={MAX_DIST}, got {d}"),
            ));
        }
        Ok(d)
    };
    match model {
        "corner" => Ok(TargetSpec::Corner { dist: dist(context)? }),
        "ball" => Ok(TargetSpec::Ball { dist: dist(context)? }),
        "ring" => Ok(TargetSpec::Ring { dist: dist(context)? }),
        "fixed" => {
            let x = as_i64(
                v.get("x").ok_or_else(|| err(context, "fixed target needs 'x'"))?,
                &format!("{context}.x"),
            )?;
            let y = as_i64(
                v.get("y").ok_or_else(|| err(context, "fixed target needs 'y'"))?,
                &format!("{context}.y"),
            )?;
            if x == 0 && y == 0 {
                return Err(err(context, "fixed target must not be the origin"));
            }
            Ok(TargetSpec::Fixed { x, y })
        }
        other => Err(err(
            format!("{context}.model"),
            format!("unknown target model '{other}' (corner, ball, ring, fixed)"),
        )),
    }
}

fn parse_u64_list(v: &Json, context: &str) -> Result<Vec<u64>, WorkloadError> {
    let items = v.as_array().ok_or_else(|| err(context, "expected an array of integers"))?;
    if items.is_empty() {
        return Err(err(context, "a sweep axis must not be empty"));
    }
    items.iter().enumerate().map(|(i, x)| as_u64(x, &format!("{context}[{i}]"))).collect()
}

fn parse_sweep(v: &Json, context: &str) -> Result<Sweep, WorkloadError> {
    check_keys(v, &["agents", "dist", "move_budget", "target"], context)?;
    let mut sweep = Sweep::default();
    if let Some(a) = v.get("agents") {
        sweep.agents = parse_u64_list(a, &format!("{context}.agents"))?;
    }
    if let Some(d) = v.get("dist") {
        sweep.dist = parse_u64_list(d, &format!("{context}.dist"))?;
    }
    if let Some(b) = v.get("move_budget") {
        sweep.move_budget = parse_u64_list(b, &format!("{context}.move_budget"))?;
    }
    if let Some(t) = v.get("target") {
        let items =
            t.as_array().ok_or_else(|| err(format!("{context}.target"), "expected an array"))?;
        if items.is_empty() {
            return Err(err(format!("{context}.target"), "a sweep axis must not be empty"));
        }
        sweep.target = items
            .iter()
            .enumerate()
            .map(|(i, x)| parse_target(x, &format!("{context}.target[{i}]")))
            .collect::<Result<_, _>>()?;
    }
    Ok(sweep)
}

fn parse_population(v: &Json, context: &str) -> Result<Vec<ZooEntry>, WorkloadError> {
    let items = v.as_array().ok_or_else(|| err(context, "expected an array of zoo entries"))?;
    if items.is_empty() {
        return Err(err(context, "population must have at least one entry"));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let ctx = format!("{context}[{i}]");
            check_keys(entry, &["strategy", "weight"], &ctx)?;
            let text = as_str(
                entry.get("strategy").ok_or_else(|| err(&*ctx, "entry needs a 'strategy' key"))?,
                &format!("{ctx}.strategy"),
            )?;
            let strategy = ZooStrategy::parse(text)
                .map_err(|message| err(format!("{ctx}.strategy"), message))?;
            let weight = match entry.get("weight") {
                Some(w) => as_u64(w, &format!("{ctx}.weight"))?,
                None => 1,
            };
            if weight == 0 {
                return Err(err(format!("{ctx}.weight"), "weight must be >= 1"));
            }
            Ok(ZooEntry { weight, strategy })
        })
        .collect()
}

/// Parse `metrics = ["coverage", ...]` against the observation layer's
/// vocabulary ([`Metric::ALL`]). Duplicates are harmless (it is a set);
/// unknown names fail with the allowed list.
fn parse_metrics(v: &Json, context: &str) -> Result<MetricSet, WorkloadError> {
    let items = v.as_array().ok_or_else(|| err(context, "expected an array of metric names"))?;
    let mut set = MetricSet::empty();
    for (i, item) in items.iter().enumerate() {
        let name = as_str(item, &format!("{context}[{i}]"))?;
        let metric = Metric::parse(name).ok_or_else(|| {
            err(
                format!("{context}[{i}]"),
                format!(
                    "unknown metric '{name}' (allowed: {})",
                    Metric::ALL.map(Metric::as_str).join(", ")
                ),
            )
        })?;
        set.insert(metric);
    }
    Ok(set)
}

/// Parse an optional `backend = "mc" | "dp"` key.
fn parse_backend(v: &Json, context: &str) -> Result<Option<Backend>, WorkloadError> {
    v.get("backend")
        .map(|b| {
            let ctx = format!("{context}.backend");
            let name = as_str(b, &ctx)?;
            Backend::parse(name)
                .ok_or_else(|| err(ctx, format!("unknown backend '{name}' (allowed: mc, dp)")))
        })
        .transpose()
}

fn parse_defaults(v: &Json, context: &str) -> Result<Defaults, WorkloadError> {
    check_keys(
        v,
        &["trials", "smoke_trials", "move_budget", "guess_move_ceiling", "seed", "backend"],
        context,
    )?;
    let field = |key: &str| -> Result<Option<u64>, WorkloadError> {
        v.get(key).map(|x| as_u64(x, &format!("{context}.{key}"))).transpose()
    };
    Ok(Defaults {
        trials: field("trials")?,
        smoke_trials: field("smoke_trials")?,
        move_budget: field("move_budget")?,
        guess_move_ceiling: field("guess_move_ceiling")?,
        seed: field("seed")?,
        backend: parse_backend(v, context)?,
    })
}

fn parse_cell(v: &Json, context: &str) -> Result<CellSpec, WorkloadError> {
    check_keys(
        v,
        &[
            "name",
            "agents",
            "trials",
            "smoke_trials",
            "move_budget",
            "guess_move_ceiling",
            "seed",
            "backend",
            "target",
            "population",
            "sweep",
        ],
        context,
    )?;
    let name = as_str(
        v.get("name").ok_or_else(|| err(context, "cell needs a 'name' key"))?,
        &format!("{context}.name"),
    )?
    .to_string();
    if name.is_empty() {
        return Err(err(format!("{context}.name"), "cell name must not be empty"));
    }
    let field = |key: &str| -> Result<Option<u64>, WorkloadError> {
        v.get(key).map(|x| as_u64(x, &format!("{context}.{key}"))).transpose()
    };
    let target =
        v.get("target").map(|t| parse_target(t, &format!("{context}.target"))).transpose()?;
    let population = parse_population(
        v.get("population").ok_or_else(|| err(context, "cell needs a 'population' array"))?,
        &format!("{context}.population"),
    )?;
    let sweep = match v.get("sweep") {
        Some(s) => parse_sweep(s, &format!("{context}.sweep"))?,
        None => Sweep::default(),
    };
    Ok(CellSpec {
        name,
        agents: field("agents")?,
        trials: field("trials")?,
        smoke_trials: field("smoke_trials")?,
        move_budget: field("move_budget")?,
        guess_move_ceiling: field("guess_move_ceiling")?,
        seed: field("seed")?,
        backend: parse_backend(v, context)?,
        target,
        population,
        sweep,
    })
}

impl WorkloadSpec {
    /// Parse a workload spec from TOML-subset text.
    pub fn parse(text: &str) -> Result<WorkloadSpec, WorkloadError> {
        let doc = toml::parse(text).map_err(|e| err("spec", format!("{e}")))?;
        check_keys(&doc, &["name", "description", "metrics", "defaults", "cells"], "spec")?;
        let name = as_str(
            doc.get("name").ok_or_else(|| err("spec", "spec needs a top-level 'name'"))?,
            "spec.name",
        )?
        .to_string();
        if name.is_empty() {
            return Err(err("spec.name", "name must not be empty"));
        }
        let description = doc
            .get("description")
            .map(|d| as_str(d, "spec.description"))
            .transpose()?
            .unwrap_or("");
        let metrics = match doc.get("metrics") {
            Some(m) => parse_metrics(m, "spec.metrics")?,
            None => MetricSet::empty(),
        };
        let defaults = match doc.get("defaults") {
            Some(d) => parse_defaults(d, "defaults")?,
            None => Defaults::default(),
        };
        let cells_json = doc
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| err("spec", "spec needs at least one [[cells]] entry"))?;
        if cells_json.is_empty() {
            return Err(err("spec", "spec needs at least one [[cells]] entry"));
        }
        let cells = cells_json
            .iter()
            .enumerate()
            .map(|(i, c)| parse_cell(c, &format!("cells[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        // Duplicate cell names would collide after expansion.
        let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(err("cells", format!("duplicate cell name '{}'", w[0])));
        }
        Ok(WorkloadSpec { name, description: description.to_string(), metrics, defaults, cells })
    }

    /// Serialize back to canonical TOML-subset text.
    ///
    /// `WorkloadSpec::parse(spec.to_toml())` reproduces the spec exactly
    /// (the round-trip property the proptest suite pins).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = \"{}\"\n", toml::escape(&self.name)));
        if !self.description.is_empty() {
            out.push_str(&format!("description = \"{}\"\n", toml::escape(&self.description)));
        }
        if !self.metrics.is_empty() {
            let names: Vec<String> =
                self.metrics.iter().map(|m| format!("\"{}\"", m.as_str())).collect();
            out.push_str(&format!("metrics = [{}]\n", names.join(", ")));
        }
        let d = &self.defaults;
        if *d != Defaults::default() {
            out.push_str("\n[defaults]\n");
            for (key, v) in [
                ("trials", d.trials),
                ("smoke_trials", d.smoke_trials),
                ("move_budget", d.move_budget),
                ("guess_move_ceiling", d.guess_move_ceiling),
                ("seed", d.seed),
            ] {
                if let Some(v) = v {
                    out.push_str(&format!("{key} = {v}\n"));
                }
            }
            if let Some(b) = d.backend {
                out.push_str(&format!("backend = \"{b}\"\n"));
            }
        }
        for cell in &self.cells {
            out.push_str("\n[[cells]]\n");
            out.push_str(&format!("name = \"{}\"\n", toml::escape(&cell.name)));
            for (key, v) in [
                ("agents", cell.agents),
                ("trials", cell.trials),
                ("smoke_trials", cell.smoke_trials),
                ("move_budget", cell.move_budget),
                ("guess_move_ceiling", cell.guess_move_ceiling),
                ("seed", cell.seed),
            ] {
                if let Some(v) = v {
                    out.push_str(&format!("{key} = {v}\n"));
                }
            }
            if let Some(b) = cell.backend {
                out.push_str(&format!("backend = \"{b}\"\n"));
            }
            if let Some(t) = cell.target {
                out.push_str(&format!("target = {}\n", t.to_inline_toml()));
            }
            out.push_str("population = [\n");
            for e in &cell.population {
                out.push_str(&format!(
                    "  {{ strategy = \"{}\", weight = {} }},\n",
                    toml::escape(&e.strategy.to_string()),
                    e.weight
                ));
            }
            out.push_str("]\n");
            if !cell.sweep.is_empty() {
                let fmt_list =
                    |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
                let mut parts: Vec<String> = Vec::new();
                if !cell.sweep.agents.is_empty() {
                    parts.push(format!("agents = [{}]", fmt_list(&cell.sweep.agents)));
                }
                if !cell.sweep.dist.is_empty() {
                    parts.push(format!("dist = [{}]", fmt_list(&cell.sweep.dist)));
                }
                if !cell.sweep.move_budget.is_empty() {
                    parts.push(format!("move_budget = [{}]", fmt_list(&cell.sweep.move_budget)));
                }
                if !cell.sweep.target.is_empty() {
                    let ts: Vec<String> =
                        cell.sweep.target.iter().map(|t| t.to_inline_toml()).collect();
                    parts.push(format!("target = [{}]", ts.join(", ")));
                }
                out.push_str(&format!("sweep = {{ {} }}\n", parts.join(", ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
name = \"mini\"

[[cells]]
name = \"one\"
agents = 4
trials = 8
target = { model = \"ball\", dist = 8 }
population = [ { strategy = \"randomwalk\" } ]
";

    #[test]
    fn parses_a_minimal_spec() {
        let spec = WorkloadSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.cells.len(), 1);
        let cell = &spec.cells[0];
        assert_eq!(cell.agents, Some(4));
        assert_eq!(cell.target, Some(TargetSpec::Ball { dist: 8 }));
        assert_eq!(cell.population.len(), 1);
        assert_eq!(cell.population[0].weight, 1, "weight defaults to 1");
    }

    #[test]
    fn parses_defaults_sweeps_and_mixed_populations() {
        let text = "\
name = \"full\"
description = \"all the knobs\"

[defaults]
trials = 30
smoke_trials = 4
seed = 7

[[cells]]
name = \"zoo\"
agents = 8
target = { model = \"corner\", dist = 16 }
move_budget = 500000
guess_move_ceiling = 9000
population = [
  { strategy = \"nonuniform(dist)\", weight = 2 },
  { strategy = \"uniform(1, agents, 2)\", weight = 1 },
  { strategy = \"randomwalk\", weight = 1 },
]
sweep = { agents = [4, 8], dist = [8, 16] }

[[cells]]
name = \"targets\"
agents = 2
target = { model = \"ball\", dist = 8 }
population = [ { strategy = \"spiral\" } ]
sweep = { target = [ { model = \"corner\", dist = 8 }, { model = \"ring\", dist = 8 } ] }
";
        let spec = WorkloadSpec::parse(text).unwrap();
        assert_eq!(spec.defaults.trials, Some(30));
        assert_eq!(spec.defaults.seed, Some(7));
        assert_eq!(spec.cells.len(), 2);
        assert_eq!(spec.cells[0].population.len(), 3);
        assert_eq!(spec.cells[0].sweep.agents, vec![4, 8]);
        assert_eq!(spec.cells[1].sweep.target.len(), 2);
    }

    #[test]
    fn round_trips_through_to_toml() {
        let spec = WorkloadSpec::parse(MINIMAL).unwrap();
        let again = WorkloadSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn metrics_key_parses_validates_and_round_trips() {
        let text = format!("metrics = [\"found_round\", \"coverage\", \"coverage\"]\n{MINIMAL}");
        let spec = WorkloadSpec::parse(&text).unwrap();
        assert!(spec.metrics.contains(Metric::Coverage));
        assert!(spec.metrics.contains(Metric::FoundRound));
        assert!(!spec.metrics.contains(Metric::Chi));
        // Canonical serialization orders metrics by Metric::ALL.
        assert!(spec.to_toml().contains("metrics = [\"coverage\", \"found_round\"]"));
        assert_eq!(WorkloadSpec::parse(&spec.to_toml()).unwrap(), spec);
        // No metrics key = empty set.
        assert!(WorkloadSpec::parse(MINIMAL).unwrap().metrics.is_empty());
        // Unknown names fail with the vocabulary.
        let bad = format!("metrics = [\"warp\"]\n{MINIMAL}");
        let e = WorkloadSpec::parse(&bad).unwrap_err();
        assert!(e.to_string().contains("unknown metric 'warp'"), "{e}");
        assert!(e.to_string().contains("coverage"), "{e}");
        // Non-string entries fail too.
        let bad = format!("metrics = [3]\n{MINIMAL}");
        assert!(WorkloadSpec::parse(&bad).unwrap_err().to_string().contains("string"));
    }

    #[test]
    fn rejects_schema_violations_with_context() {
        let cases: &[(&str, &str)] = &[
            ("", "name"),
            ("name = \"x\"\n", "cells"),
            ("name = \"x\"\n[[cells]]\nagents = 1\n", "name"),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\npopulation = []\n",
                "at least one entry",
            ),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\nbogus = 1\npopulation = [ { strategy = \"spiral\" } ]\n",
                "unknown key 'bogus'",
            ),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\ntarget = { model = \"wedge\", dist = 4 }\npopulation = [ { strategy = \"spiral\" } ]\n",
                "unknown target model",
            ),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\npopulation = [ { strategy = \"warp\" } ]\n",
                "unknown strategy",
            ),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\npopulation = [ { strategy = \"spiral\", weight = 0 } ]\n",
                "weight",
            ),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\npopulation = [ { strategy = \"spiral\" } ]\n[[cells]]\nname = \"c\"\npopulation = [ { strategy = \"spiral\" } ]\n",
                "duplicate cell name",
            ),
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\ntrials = -3\npopulation = [ { strategy = \"spiral\" } ]\n",
                "non-negative",
            ),
            // A non-table where the schema expects one must fail, not be
            // silently ignored (its keys would all read as absent).
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\nagents = 2\nsweep = 5\ntarget = { model = \"ball\", dist = 4 }\npopulation = [ { strategy = \"spiral\" } ]\n",
                "expected a table",
            ),
            // Target distances beyond MAX_DIST would overflow derived
            // move budgets.
            (
                "name = \"x\"\n[[cells]]\nname = \"c\"\ntarget = { model = \"ball\", dist = 300000000 }\npopulation = [ { strategy = \"spiral\" } ]\n",
                "target distance must be in 1..=",
            ),
        ];
        for (text, needle) in cases {
            let e = WorkloadSpec::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "expected '{needle}' in error for {text:?}, got: {e}"
            );
        }
    }

    #[test]
    fn backend_key_parses_defaults_cells_and_round_trips() {
        let text = "\
name = \"x\"

[defaults]
backend = \"dp\"

[[cells]]
name = \"c\"
agents = 2
backend = \"mc\"
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"randomwalk\" } ]
";
        let spec = WorkloadSpec::parse(text).unwrap();
        assert_eq!(spec.defaults.backend, Some(Backend::Dp));
        assert_eq!(spec.cells[0].backend, Some(Backend::Mc));
        assert_eq!(WorkloadSpec::parse(&spec.to_toml()).unwrap(), spec);
        // Absent key = None (the Monte Carlo default applies downstream).
        assert_eq!(WorkloadSpec::parse(MINIMAL).unwrap().defaults.backend, None);
        assert_eq!(WorkloadSpec::parse(MINIMAL).unwrap().cells[0].backend, None);
        // Unknown names fail with the allowed list and the spec path.
        let bad = text.replace("backend = \"mc\"", "backend = \"exact\"");
        let e = WorkloadSpec::parse(&bad).unwrap_err();
        assert!(e.to_string().contains("unknown backend 'exact'"), "{e}");
        assert!(e.to_string().contains("cells[0].backend"), "{e}");
    }

    #[test]
    fn dp_mode_key_is_rejected_as_unknown() {
        // The exact backend picks its table representation itself; a
        // spec still carrying the removed key fails by name, in either
        // section.
        let cell = "\
name = \"x\"

[[cells]]
name = \"c\"
agents = 2
dp_mode = \"sparse\"
target = { model = \"ball\", dist = 4 }
population = [ { strategy = \"randomwalk\" } ]
";
        let e = WorkloadSpec::parse(cell).unwrap_err();
        assert!(e.to_string().contains("unknown key 'dp_mode'"), "{e}");
        assert!(e.to_string().contains("cells[0]"), "{e}");
        let defaults = "name = \"x\"\n\n[defaults]\ndp_mode = \"dense\"\n";
        let e = WorkloadSpec::parse(defaults).unwrap_err();
        assert!(e.to_string().contains("unknown key 'dp_mode'"), "{e}");
        assert!(e.to_string().contains("defaults"), "{e}");
    }

    #[test]
    fn fixed_targets_parse_and_validate() {
        let text = "\
name = \"x\"
[[cells]]
name = \"c\"
target = { model = \"fixed\", x = 3, y = -2 }
population = [ { strategy = \"spiral\" } ]
";
        let spec = WorkloadSpec::parse(text).unwrap();
        assert_eq!(spec.cells[0].target, Some(TargetSpec::Fixed { x: 3, y: -2 }));
        let origin = text.replace("x = 3, y = -2", "x = 0, y = 0");
        assert!(WorkloadSpec::parse(&origin).unwrap_err().to_string().contains("origin"));
    }
}
