//! The wire format: NDJSON over a local TCP socket.
//!
//! One request per connection. The client sends a single JSON object on
//! one line; the server answers with a stream of single-line JSON
//! events and closes the connection. Events:
//!
//! * `status` — always first on `submit`/`gate`: the cache key and
//!   whether the entry was served from cache. Deliberately *not* part of
//!   the cached body, so a hit's body bytes equal the original miss's.
//! * `cell` — one per workload cell, in plan order, emitted the moment
//!   the row exists (misses stream incrementally; hits replay the stored
//!   lines verbatim).
//! * `report` — the full `ants-report/v1` document, last body line.
//! * `gate` — `gate` requests only, after the body: baseline key,
//!   violations, pass/fail.
//! * `stats` / `ok` / `error` — operational responses.
//!
//! All numbers ride [`ants_sim::json::number`], so NaN/±Inf survive the
//! wire losslessly via the string sentinels.

use ants_bench::{Effort, GateThresholds};
use ants_dp::Backend;
use ants_sim::json::{escape, number, Json};
use ants_sim::MetricSet;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run (or replay) a workload spec.
    Submit,
    /// Run (or replay) a spec, then compare it against the newest other
    /// cache entry for the same workload and report drift.
    Gate,
    /// Hit/miss/pool-work counters.
    Stats,
    /// Stop the daemon after this response.
    Shutdown,
}

impl Op {
    /// Stable lowercase name (the `op` field on the wire).
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Submit => "submit",
            Op::Gate => "gate",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parse an `op` field.
    pub fn parse(s: &str) -> Option<Op> {
        match s {
            "submit" => Some(Op::Submit),
            "gate" => Some(Op::Gate),
            "stats" => Some(Op::Stats),
            "shutdown" => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// Every field a request line may carry; anything else is refused.
const FIELDS: [&str; 9] = [
    "op",
    "spec",
    "effort",
    "seed",
    "metrics",
    "backend",
    "metric_rel_tol",
    "wall_factor",
    "wall_floor_ms",
];

/// One request line.
///
/// `spec` is the workload TOML text (required for `submit`/`gate`,
/// ignored otherwise); the remaining fields mirror the CLI's shared
/// run-flag surface. Scheduling knobs (threads, granularity, chunk) are
/// daemon-side options, not request fields: the engine's determinism
/// contract makes them output-invariant, so they must not fragment the
/// cache.
#[derive(Debug, Clone)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// Workload spec text (TOML subset).
    pub spec: String,
    /// Smoke or standard effort.
    pub effort: Effort,
    /// Base seed, XOR-mixed into each cell's seed tag.
    pub seed: u64,
    /// Extra observation metrics beyond the spec's own.
    pub metrics: MetricSet,
    /// Backend override (`None` = respect per-cell spec keys).
    pub backend: Option<Backend>,
    /// Gate thresholds (`None` = [`GateThresholds::default`]).
    pub thresholds: Option<GateThresholds>,
}

impl Request {
    /// A `submit` request for `spec` at default effort/seed.
    pub fn submit(spec: &str) -> Request {
        Request {
            op: Op::Submit,
            spec: spec.to_string(),
            effort: Effort::Standard,
            seed: 0,
            metrics: MetricSet::empty(),
            backend: None,
            thresholds: None,
        }
    }

    /// A bare request with no spec (`stats`, `shutdown`).
    pub fn bare(op: Op) -> Request {
        Request { op, ..Request::submit("") }
    }

    /// Serialize as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"op\":\"{}\",\"spec\":\"{}\",\"effort\":\"{}\",\"seed\":{}",
            self.op.as_str(),
            escape(&self.spec),
            self.effort.as_str(),
            self.seed
        );
        if !self.metrics.is_empty() {
            let names: Vec<&str> = self.metrics.iter().map(|m| m.as_str()).collect();
            out.push_str(&format!(",\"metrics\":\"{}\"", names.join(",")));
        }
        if let Some(b) = self.backend {
            out.push_str(&format!(",\"backend\":\"{}\"", b.as_str()));
        }
        if let Some(t) = self.thresholds {
            out.push_str(&format!(
                ",\"metric_rel_tol\":{},\"wall_factor\":{},\"wall_floor_ms\":{}",
                number(t.metric_rel_tol),
                number(t.wall_factor),
                number(t.wall_floor_ms)
            ));
        }
        out.push('}');
        out
    }

    /// Parse one wire line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown `op`, an unknown field (the removed
    /// `dp_mode` named as such), unknown effort/backend/metric names, or
    /// a missing spec on an op that needs one — all as a message the
    /// server echoes back in an `error` event.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "request has no \"op\" field".to_string())?;
        let op = Op::parse(op_name).ok_or_else(|| {
            format!("unknown op '{op_name}' (allowed: submit, gate, stats, shutdown)")
        })?;
        for key in doc.keys() {
            if key == "dp_mode" {
                return Err("request field \"dp_mode\" was removed: the exact backend picks \
                            dense or sparse tables itself"
                    .to_string());
            }
            if !FIELDS.contains(&key) {
                return Err(format!(
                    "unknown request field \"{key}\" (allowed: {})",
                    FIELDS.join(", ")
                ));
            }
        }
        let spec = doc.get("spec").and_then(Json::as_str).unwrap_or("").to_string();
        if matches!(op, Op::Submit | Op::Gate) && spec.is_empty() {
            return Err(format!("op '{op_name}' needs a non-empty \"spec\" field"));
        }
        let effort = match doc.get("effort").and_then(Json::as_str) {
            Some(e) => Effort::parse(e).ok_or_else(|| format!("unknown effort '{e}'"))?,
            None => Effort::Standard,
        };
        let seed = match doc.get("seed") {
            Some(v) => {
                let x = v.as_number().ok_or_else(|| "\"seed\" must be a number".to_string())?;
                if x < 0.0 || x.fract() != 0.0 || x > u64::MAX as f64 {
                    return Err(format!("\"seed\" must be a non-negative integer, got {x}"));
                }
                x as u64
            }
            None => 0,
        };
        let metrics = match doc.get("metrics").and_then(Json::as_str) {
            Some(list) if !list.is_empty() => MetricSet::parse_list(list)?,
            _ => MetricSet::empty(),
        };
        let backend = match doc.get("backend").and_then(Json::as_str) {
            Some(b) => {
                Some(Backend::parse(b).ok_or_else(|| format!("unknown backend '{b}' (mc|dp)"))?)
            }
            None => None,
        };
        let threshold = |key: &str| doc.get(key).and_then(|v| v.as_number());
        let thresholds = match (
            threshold("metric_rel_tol"),
            threshold("wall_factor"),
            threshold("wall_floor_ms"),
        ) {
            (None, None, None) => None,
            (tol, factor, floor) => {
                let d = GateThresholds::default();
                Some(GateThresholds {
                    metric_rel_tol: tol.unwrap_or(d.metric_rel_tol),
                    wall_factor: factor.unwrap_or(d.wall_factor),
                    wall_floor_ms: floor.unwrap_or(d.wall_floor_ms),
                })
            }
        };
        Ok(Request { op, spec, effort, seed, metrics, backend, thresholds })
    }
}

/// The `event` field of a response line (`None` if absent/malformed).
pub fn event_of(line: &str) -> Option<String> {
    Json::parse(line).ok()?.get("event")?.as_str().map(str::to_owned)
}

/// Build an `error` event line.
pub fn error_event(message: &str) -> String {
    format!("{{\"event\":\"error\",\"message\":\"{}\"}}", escape(message))
}

/// Build the `status` event line that precedes every `submit`/`gate`
/// body.
pub fn status_event(key: &str, cached: bool) -> String {
    format!("{{\"event\":\"status\",\"key\":\"{}\",\"cached\":{cached}}}", escape(key))
}

/// Build one `cell` event line from a streamed row. The cells array uses
/// the report serializers, so values match the final report document
/// token for token (NaN sentinels included).
pub fn cell_event(index: usize, label: &str, row: &[ants_sim::report::Value]) -> String {
    let cells: Vec<String> = row.iter().map(ants_sim::report::Value::to_json).collect();
    format!(
        "{{\"event\":\"cell\",\"index\":{index},\"label\":\"{}\",\"cells\":[{}]}}",
        escape(label),
        cells.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let mut req = Request::submit("name = \"x\"\n# spec\n");
        req.effort = Effort::Smoke;
        req.seed = 7;
        req.metrics = MetricSet::parse_list("coverage,chi").unwrap();
        req.backend = Some(Backend::Dp);
        req.thresholds = Some(GateThresholds { metric_rel_tol: 0.1, ..Default::default() });
        let line = req.to_json();
        assert!(!line.contains('\n'), "wire lines must be single lines: {line}");
        let back = Request::parse(&line).unwrap();
        assert_eq!(back.op, Op::Submit);
        assert_eq!(back.spec, req.spec);
        assert_eq!(back.effort, Effort::Smoke);
        assert_eq!(back.seed, 7);
        assert_eq!(back.backend, Some(Backend::Dp));
        let names: Vec<&str> = back.metrics.iter().map(|m| m.as_str()).collect();
        assert_eq!(names, ["coverage", "chi"]);
        assert_eq!(back.thresholds.unwrap().metric_rel_tol, 0.1);
    }

    #[test]
    fn bare_ops_need_no_spec_but_submit_does() {
        let line = Request::bare(Op::Stats).to_json();
        assert_eq!(Request::parse(&line).unwrap().op, Op::Stats);
        let line = Request::bare(Op::Shutdown).to_json();
        assert_eq!(Request::parse(&line).unwrap().op, Op::Shutdown);
        let e = Request::parse("{\"op\":\"submit\"}").unwrap_err();
        assert!(e.contains("spec"), "{e}");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"op\":\"launch\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"effort\":\"extreme\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"seed\":-1}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"seed\":1.5}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"backend\":\"gpu\"}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"threads\":4}",
            "{\"op\":\"submit\",\"spec\":\"x\",\"metrics\":\"bogus\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_removed_dp_mode_field_is_a_named_error() {
        let e =
            Request::parse("{\"op\":\"submit\",\"spec\":\"x\",\"dp_mode\":\"dense\"}").unwrap_err();
        assert!(e.contains("\"dp_mode\" was removed"), "{e}");
        let line = error_event(&e);
        assert_eq!(event_of(&line).as_deref(), Some("error"));
    }

    #[test]
    fn event_lines_parse_and_identify() {
        let line = status_event("abc-s0-standard-local", false);
        assert_eq!(event_of(&line).as_deref(), Some("status"));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
        let row =
            vec![ants_sim::report::Value::Text("c".into()), ants_sim::report::Value::Num(f64::NAN)];
        let line = cell_event(3, "c", &row);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("index").and_then(Json::as_f64), Some(3.0));
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert!(cells[1].as_number().unwrap().is_nan(), "NaN survives the wire");
        assert_eq!(event_of(&error_event("boom \"quoted\"")).as_deref(), Some("error"));
        assert_eq!(event_of("not json"), None);
    }
}
