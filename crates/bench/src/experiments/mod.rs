//! The experiment battery behind the [`Experiment`] trait.
//!
//! One module per experiment (E1–E15); each exposes a unit struct
//! implementing [`Experiment`] plus a module-level [`ExperimentMeta`]
//! constant. The registry [`all`] owns the canonical list — the CLI and
//! the completeness test both read it, so a new module that is not
//! registered fails CI (`tests/registry.rs`).
//!
//! Experiments collect their sweeps as typed
//! [`Records`](ants_sim::report::Records) inside a [`Report`] (numbers
//! stay `f64`/`u64` until render time) and route scenario grids through
//! [`ants_sim::run_sweep_with`], so one shared thread pool drains the whole
//! grid; see [`crate::runner`] for wall-clock stamping and JSON output.

pub mod e10_randomwalk;
pub mod e11_b_vs_ell;
pub mod e12_comparator;
pub mod e13_drift;
pub mod e14_iteration_len;
pub mod e15_mixing;
pub mod e1_nonuniform;
pub mod e2_iteration;
pub mod e3_coin;
pub mod e4_walk;
pub mod e5_square;
pub mod e6_chi;
pub mod e7_uniform;
pub mod e8_lowerbound;
pub mod e9_tradeoff;

use ants_sim::json;
use ants_sim::report::{Records, Table, Value};
use ants_sim::{Granularity, MetricSet, SweepOptions};
use std::fmt;

/// How hard an experiment should try.
///
/// `Smoke` keeps CI fast (seconds per experiment); `Standard` is the
/// publication scale used by `ants run <id>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Tiny instance sizes: validates wiring, not statistics.
    Smoke,
    /// The scale used for the recorded results.
    Standard,
}

impl Effort {
    /// Pick between the smoke and standard value of a parameter.
    pub fn pick<T: Copy>(self, smoke: T, standard: T) -> T {
        match self {
            Effort::Smoke => smoke,
            Effort::Standard => standard,
        }
    }

    /// Stable lowercase name (used by `--effort` and the JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Effort::Smoke => "smoke",
            Effort::Standard => "standard",
        }
    }

    /// Parse an `--effort` argument.
    pub fn parse(s: &str) -> Option<Effort> {
        match s {
            "smoke" => Some(Effort::Smoke),
            "standard" => Some(Effort::Standard),
            _ => None,
        }
    }
}

/// An experiment's identity and its claim.
pub struct ExperimentMeta {
    /// Registry key, e.g. `"e1"` (what `ants run <key>` accepts).
    pub key: &'static str,
    /// Display id, e.g. `"E1 (Theorem 3.5)"`.
    pub id: &'static str,
    /// What the paper claims.
    pub claim: &'static str,
}

impl fmt::Display for ExperimentMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.id)?;
        writeln!(f, "claim: {}", self.claim)
    }
}

/// The shape of an experiment's sweep at a given effort, before running
/// it — how many scenario cells and how many Monte-Carlo trials each.
///
/// `ants list` prints this as a workload preview; the registry test uses
/// it as a sanity check (every experiment must plan at least one cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of sweep cells (parameter combinations measured).
    pub cells: usize,
    /// Monte-Carlo repetitions per cell (1 for closed-form/derived rows).
    pub trials_per_cell: u64,
}

/// Everything a [`Experiment::run`] call needs: effort, base seed, thread
/// policy, and the sweep's unit-of-work policy.
///
/// The base seed (default 0) is XOR-mixed into every per-cell seed via
/// [`RunConfig::seed`], so `--seed N` shifts the whole battery while the
/// default reproduces the recorded tables. `threads`, `granularity`, and
/// `chunk` are handed to [`ants_sim::run_sweep_with`] via
/// [`RunConfig::sweep_options`]: they change scheduling (wall-clock
/// time), never results.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Smoke or standard scale.
    pub effort: Effort,
    /// Base seed, XOR-mixed into each cell's seed tag.
    pub base_seed: u64,
    /// Thread policy for scenario sweeps (`None` = all cores).
    pub threads: Option<usize>,
    /// Sweep unit-of-work policy (`--granularity auto|trial|agent`).
    pub granularity: Granularity,
    /// Agents per chunk for agent-level scheduling (`--chunk N`).
    pub chunk: Option<usize>,
    /// Extra observation metrics (`--metrics coverage,first_visit,…`).
    ///
    /// Experiments that support the observation layer (today: every
    /// [`crate::WorkloadExperiment`]) union these with their own metric
    /// set and append the corresponding report columns; the built-in
    /// E1–E15 harnesses have fixed column sets and ignore it.
    pub metrics: MetricSet,
    /// Backend override (`--backend mc|dp`): force every workload cell
    /// onto the Monte Carlo pool or the exact DP engine regardless of
    /// the spec's per-cell `backend` keys. `None` = respect the spec.
    /// Only [`crate::WorkloadExperiment`] honours it; the built-in
    /// harnesses are Monte Carlo by construction.
    pub backend: Option<ants_dp::Backend>,
    /// Telemetry sink (`--telemetry <path>`): attached to every sweep
    /// this config induces. Strictly observational — results are
    /// byte-identical with or without it (`tests/telemetry.rs`).
    pub telemetry: Option<ants_obs::Telemetry>,
}

impl RunConfig {
    /// A config at the given effort with default seed and thread policy.
    pub fn new(effort: Effort) -> Self {
        Self {
            effort,
            base_seed: 0,
            threads: None,
            granularity: Granularity::Auto,
            chunk: None,
            metrics: MetricSet::empty(),
            backend: None,
            telemetry: None,
        }
    }

    /// Shorthand for `RunConfig::new(Effort::Smoke)`.
    pub fn smoke() -> Self {
        Self::new(Effort::Smoke)
    }

    /// Shorthand for `RunConfig::new(Effort::Standard)`.
    pub fn standard() -> Self {
        Self::new(Effort::Standard)
    }

    /// Set the base seed.
    pub fn with_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Set the thread policy (`None` = all cores).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Set the sweep granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Set the agents-per-chunk override for agent-level scheduling.
    pub fn with_chunk(mut self, chunk: Option<usize>) -> Self {
        self.chunk = chunk;
        self
    }

    /// Set the extra observation metrics.
    pub fn with_metrics(mut self, metrics: MetricSet) -> Self {
        self.metrics = metrics;
        self
    }

    /// Set the backend override (`None` = respect per-cell spec keys).
    pub fn with_backend(mut self, backend: Option<ants_dp::Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// Attach a telemetry sink to every sweep this config induces.
    pub fn with_telemetry(mut self, telemetry: Option<ants_obs::Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The [`SweepOptions`] this config induces — what experiments hand
    /// to [`ants_sim::run_sweep_with`] / [`ants_sim::map_units`].
    pub fn sweep_options(&self) -> SweepOptions {
        let mut opts = SweepOptions::with_threads(self.threads).granularity(self.granularity);
        if let Some(chunk) = self.chunk {
            opts = opts.chunk(chunk);
        }
        if let Some(telemetry) = self.telemetry {
            opts = opts.with_telemetry(telemetry);
        }
        opts
    }

    /// Derive a concrete seed from a per-cell tag.
    pub fn seed(&self, tag: u64) -> u64 {
        self.base_seed ^ tag
    }
}

/// A runnable experiment: identity, sweep shape, and the measurement
/// itself.
///
/// Implementations are stateless unit structs; all parameters flow in
/// through the [`RunConfig`]. Register new experiments in [`all`] — the
/// registry completeness test fails otherwise.
pub trait Experiment {
    /// Identity and claim.
    fn meta(&self) -> &ExperimentMeta;

    /// The sweep shape at a given effort (cells × trials), for workload
    /// previews.
    fn config(&self, effort: Effort) -> SweepConfig;

    /// Run the sweep and return the typed report.
    ///
    /// Implementations fill rows and params; the caller (usually
    /// [`crate::runner::Runner`]) stamps the wall-clock time.
    fn run(&self, cfg: &RunConfig) -> Report;
}

/// A finished experiment run: identity, run parameters, typed records,
/// wall-clock time.
///
/// Renders as fixed-width text ([`fmt::Display`]), CSV
/// ([`Report::to_csv`]), and machine-readable JSON ([`Report::to_json`],
/// stable field order).
pub struct Report {
    key: &'static str,
    id: &'static str,
    claim: &'static str,
    effort: Effort,
    seed: u64,
    threads: Option<usize>,
    params: Vec<(String, Value)>,
    records: Records,
    wall_ms: f64,
}

impl Report {
    /// Start a report for `meta` under `cfg` with the given columns.
    pub fn new(meta: &ExperimentMeta, cfg: &RunConfig, columns: Vec<&str>) -> Self {
        Self {
            key: meta.key,
            id: meta.id,
            claim: meta.claim,
            effort: cfg.effort,
            seed: cfg.base_seed,
            threads: cfg.threads,
            params: Vec::new(),
            records: Records::new(columns),
            wall_ms: f64::NAN,
        }
    }

    /// Record a named run parameter (instance sizes, trial counts …).
    pub fn param(&mut self, name: &str, value: impl Into<Value>) -> &mut Self {
        self.params.push((name.to_string(), value.into()));
        self
    }

    /// Append a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the column count.
    pub fn row(&mut self, cells: Vec<Value>) -> &mut Self {
        self.records.row(cells);
        self
    }

    /// Registry key, e.g. `"e1"`.
    pub fn key(&self) -> &str {
        self.key
    }

    /// Display id, e.g. `"E1 (Theorem 3.5)"`.
    pub fn id(&self) -> &str {
        self.id
    }

    /// The typed records.
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Are there no data rows?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Numeric cell lookup by row index and column name (panics on
    /// missing/non-numeric cells — test convenience).
    pub fn num(&self, row: usize, column: &str) -> f64 {
        self.records.num(row, column)
    }

    /// Cell lookup by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> &Value {
        self.records.cell(row, column)
    }

    /// True when no cell anywhere in the report is `Bool(false)` — the
    /// standard shape of "every per-row lemma check passed".
    pub fn all_checks_pass(&self) -> bool {
        self.records.rows().iter().flatten().all(|v| v != &Value::Bool(false))
    }

    /// Wall-clock milliseconds (NaN until stamped by the runner).
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Stamp the wall-clock time (the runner calls this).
    pub fn set_wall_ms(&mut self, wall_ms: f64) {
        self.wall_ms = wall_ms;
    }

    /// Render the data as a fixed-width [`Table`].
    pub fn to_table(&self) -> Table {
        self.records.to_table()
    }

    /// Render the data as CSV.
    pub fn to_csv(&self) -> String {
        self.records.to_csv()
    }

    /// Serialize the whole report as a JSON document.
    ///
    /// Field order is fixed and asserted by tests: `schema`, `id`,
    /// `title`, `claim`, `effort`, `seed`, `threads`, `wall_ms`,
    /// `params`, `columns`, `rows`.
    pub fn to_json(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), v.to_json()))
            .collect();
        format!(
            "{{\"schema\":\"ants-report/v1\",\"id\":\"{}\",\"title\":\"{}\",\"claim\":\"{}\",\
             \"effort\":\"{}\",\"seed\":{},\"threads\":{},\"wall_ms\":{},\"params\":{{{}}},{}}}",
            json::escape(self.key),
            json::escape(self.id),
            json::escape(self.claim),
            self.effort.as_str(),
            Value::Int(self.seed).to_json(),
            self.threads.map_or("null".to_string(), |t| t.to_string()),
            json::number(self.wall_ms),
            params.join(","),
            self.records.json_fields(),
        )
    }
}

impl fmt::Display for Report {
    /// Header (id + claim + run parameters) followed by the fixed-width
    /// table — the format the CLI prints.
    ///
    /// Deliberately excludes the wall-clock time: the text rendering is
    /// part of the determinism contract (same command → byte-identical
    /// stdout); timing lives in the JSON report only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} [{}] ==", self.id, self.key)?;
        writeln!(f, "claim: {}", self.claim)?;
        write!(f, "effort: {}  seed: {}", self.effort.as_str(), self.seed)?;
        match self.threads {
            Some(t) => writeln!(f, "  threads: {t}")?,
            None => writeln!(f, "  threads: auto")?,
        }
        writeln!(f)?;
        write!(f, "{}", self.to_table())
    }
}

/// The experiment registry, in battery order.
///
/// This is the single source of truth: the CLI, `ants all`, and the
/// completeness test all iterate it.
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e1_nonuniform::E1Nonuniform),
        Box::new(e2_iteration::E2Iteration),
        Box::new(e3_coin::E3Coin),
        Box::new(e4_walk::E4Walk),
        Box::new(e5_square::E5Square),
        Box::new(e6_chi::E6Chi),
        Box::new(e7_uniform::E7Uniform),
        Box::new(e8_lowerbound::E8LowerBound),
        Box::new(e9_tradeoff::E9Tradeoff),
        Box::new(e10_randomwalk::E10RandomWalk),
        Box::new(e11_b_vs_ell::E11BVsEll),
        Box::new(e12_comparator::E12Comparator),
        Box::new(e13_drift::E13Drift),
        Box::new(e14_iteration_len::E14IterationLen),
        Box::new(e15_mixing::E15Mixing),
    ]
}

/// Look up an experiment by registry key (`"e1"` … `"e15"`).
pub fn find(key: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.meta().key == key)
}
