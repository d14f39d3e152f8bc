//! # ants-workload — declarative workload specs
//!
//! Every scenario the battery can run, as a data file: a TOML-subset
//! spec names a grid of cells — agent count, target model(s), move
//! budget, a **heterogeneous strategy population** (weighted "zoo"
//! entries like `nonuniform(dist)` or `automaton(alg1, 4)`), trial
//! counts, seeds — plus `sweep` axes whose cross product expands each
//! cell into many concrete scenarios. The pipeline:
//!
//! ```text
//! .toml text ──toml::parse──▶ Json tree ──WorkloadSpec::parse──▶ spec
//!     spec ──WorkloadPlan::expand──▶ validated plan (axes crossed,
//!         dist/agents bound, every scenario proven constructible)
//!     plan ──PlannedCell::job──▶ ants_sim::SweepJob per cell
//! ```
//!
//! Determinism end to end: expansion order, per-cell seed tags, and the
//! per-agent population assignment (drawn from the trial seed inside
//! `ants_sim`) are all pure functions of the spec text and the base
//! seed — results are byte-identical at every thread count, granularity,
//! and chunk size, like everything else in the engine.
//!
//! ```
//! let text = r#"
//! name = "demo"
//! [defaults]
//! trials = 4
//! [[cells]]
//! name = "mixed"
//! agents = 4
//! target = { model = "ball", dist = 8 }
//! population = [
//!   { strategy = "nonuniform(dist)", weight = 2 },
//!   { strategy = "randomwalk", weight = 1 },
//! ]
//! "#;
//! let spec = ants_workload::WorkloadSpec::parse(text).unwrap();
//! let plan = ants_workload::WorkloadPlan::expand(&spec).unwrap();
//! let jobs = plan.jobs(false, 0).unwrap();
//! let opts = ants_sim::SweepOptions::with_threads(Some(1));
//! let outcomes = ants_sim::run_sweep_with(&jobs, &opts);
//! assert_eq!(outcomes.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dp;
pub mod hash;
pub mod plan;
pub mod spec;
pub mod toml;
pub mod zoo;

use std::fmt;
use std::path::Path;

pub use hash::Fnv128;
pub use plan::{PlannedCell, WorkloadPlan};
pub use spec::{CellSpec, Defaults, Sweep, TargetSpec, WorkloadSpec, ZooEntry};
pub use toml::TomlError;
pub use zoo::{Arg, AutomatonKind, ResolvedStrategy, ZooStrategy};

/// A workload validation failure: where in the spec, and what went
/// wrong. Every message names the key or value to fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// Where: a spec path like `cells[2].population[0].strategy`.
    pub context: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

impl std::error::Error for WorkloadError {}

/// Parse and expand a spec file in one step.
///
/// # Errors
///
/// I/O failures, TOML-subset syntax errors, schema violations, and
/// expansion/validation failures all come back as a [`WorkloadError`]
/// naming the file.
pub fn load(path: &Path) -> Result<WorkloadPlan, WorkloadError> {
    let text = std::fs::read_to_string(path).map_err(|e| WorkloadError {
        context: path.display().to_string(),
        message: format!("cannot read: {e}"),
    })?;
    let spec = WorkloadSpec::parse(&text).map_err(|e| WorkloadError {
        context: format!("{}: {}", path.display(), e.context),
        message: e.message,
    })?;
    WorkloadPlan::expand(&spec).map_err(|e| WorkloadError {
        context: format!("{}: {}", path.display(), e.context),
        message: e.message,
    })
}
