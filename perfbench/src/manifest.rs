//! `BENCHMARK.json`: the declared workloads and metrics. The run checks
//! what it measured against this list, and `compare` reads each
//! metric's better-direction and regression bound from it.

use ants_sim::json::Json;
use std::path::Path;

/// One declared metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::as_array).ok_or(format!("BENCHMARK.json: no '{key}' list"))
        };
        let field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry lacks '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: field(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Every declared metric, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}
