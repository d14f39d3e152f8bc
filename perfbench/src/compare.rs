//! `perfbench compare <base.jsonl> <change.jsonl>`: one row per
//! workload and metric, judged against the bounds in `BENCHMARK.json`.
//!
//! Each file holds the records `--out` appends, several runs (seeds)
//! per workload. For an end-to-end metric the verdict is
//!
//! * `unresolved` — either side's run-to-run spread (inter-quartile
//!   distance over median) exceeds the bound, unless every change run
//!   reads better than every base run (`better`);
//! * `worse` — the change median is worse than the base median by more
//!   than the bound;
//! * `better` — it is better by more than the base's own spread;
//! * `unchanged` — otherwise.
//!
//! Per-layer metrics have no bound; their rows show the medians and
//! the change as `info`.
//!
//! Before the metrics, each workload gets a `failed` row with both
//! sides' failed-operation totals. When a change run reports
//! `"correct": false`, or the change side failed more operations than
//! the base, the workload is `invalid` and so is every metric row of
//! it: a gain does not count when outputs are wrong. Exits 1 when any
//! row is `worse` or `invalid`.

use crate::manifest::{Manifest, Metric};
use crate::stats::{median, spread};
use ants_sim::json::Json;
use std::path::Path;

struct Record {
    workload: String,
    correct: bool,
    failed: u64,
    values: Vec<(String, f64)>,
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or_default().to_string();
        let result = doc.get("result");
        let field = |key: &str| result.and_then(|r| r.get(key));
        let (Some(Json::Obj(metrics)), Some(&Json::Bool(correct)), Some(failed)) =
            (field("metrics"), field("correct"), field("failed").and_then(Json::as_f64))
        else {
            return Err(format!(
                "{}:{}: a result needs metrics, correct and failed",
                path.display(),
                i + 1
            ));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_number()?)))
            .collect();
        records.push(Record { workload, correct, failed: failed as u64, values });
    }
    Ok(records)
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .flat_map(|r| r.values.iter().filter(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Both sides' failed-operation totals on `workload`, and whether the
/// change side is valid: every change run correct, and no more failures
/// than the base.
fn failures(base: &[Record], change: &[Record], workload: &str) -> (u64, u64, bool) {
    let of = |rs: &[Record]| -> (u64, bool) {
        let runs = rs.iter().filter(|r| r.workload == workload);
        runs.fold((0, true), |(failed, correct), r| (failed + r.failed, correct && r.correct))
    };
    let ((fa, _), (fb, all_correct)) = (of(base), of(change));
    (fa, fb, all_correct && fb <= fa)
}

/// The verdict for one metric given base runs `xs` and change runs `ys`.
pub fn verdict(m: &Metric, xs: &[f64], ys: &[f64]) -> &'static str {
    let Some(bound) = m.bound else { return "info" };
    let better = |a: f64, b: f64| if m.higher_is_better { b > a } else { b < a };
    let all_better = ys.iter().all(|&y| xs.iter().all(|&x| better(x, y)));
    let (ma, mb) = (median(xs), median(ys));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worsening = if m.higher_is_better { -change } else { change };
    let (sa, sb) = (spread(xs), spread(ys));
    match (sa, sb) {
        (Some(sa), Some(sb)) if sa <= bound && sb <= bound => {
            if worsening > bound {
                "worse"
            } else if -worsening > sa {
                "better"
            } else {
                "unchanged"
            }
        }
        _ if all_better => "better",
        _ => "unresolved",
    }
}

pub fn main(argv: &[String]) -> Result<i32, String> {
    let [base, change] = argv else {
        return Err("usage: perfbench compare <base.jsonl> <change.jsonl>".to_string());
    };
    let manifest = Manifest::load(&crate::checkout().join("BENCHMARK.json"))?;
    let (a, b) = (load(Path::new(base))?, load(Path::new(change))?);
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "change", "delta%", "spread", "bound"
    );
    let mut reject = false;
    for w in &manifest.workloads {
        if !a.iter().chain(&b).any(|r| &r.workload == w) {
            continue;
        }
        let (fa, fb, valid) = failures(&a, &b, w);
        reject |= !valid;
        println!(
            "{:<12} {:<26} {:>14} {:>14} {:>8} {:>8} {:>6}  {}",
            w,
            "failed",
            fa,
            fb,
            "-",
            "-",
            "-",
            if valid { "ok" } else { "invalid" }
        );
        for m in manifest.all() {
            let (xs, ys) = (values(&a, w, &m.name), values(&b, w, &m.name));
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&xs), median(&ys));
            let delta = if ma != 0.0 {
                format!("{:+.1}", (mb - ma) / ma.abs() * 100.0)
            } else {
                "-".into()
            };
            let spread = match (spread(&xs), spread(&ys)) {
                (Some(sa), Some(sb)) => format!("{:.3}", sa.max(sb)),
                _ => "-".into(),
            };
            let v = if valid { verdict(m, &xs, &ys) } else { "invalid" };
            reject |= v == "worse";
            println!(
                "{:<12} {:<26} {:>14.6} {:>14.6} {:>8} {:>8} {:>6}  {v}",
                w,
                m.name,
                ma,
                mb,
                delta,
                spread,
                m.bound.map_or("-".into(), |b| format!("{b}"))
            );
        }
    }
    Ok(i32::from(reject))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(bound: f64) -> Metric {
        Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.02, 0.98];
        let m = wall(0.10);
        assert_eq!(verdict(&m, &base, &[1.01, 1.00, 0.99, 1.02, 1.00]), "unchanged");
        assert_eq!(verdict(&m, &base, &[1.20, 1.21, 1.19, 1.22, 1.18]), "worse");
        assert_eq!(verdict(&m, &base, &[0.80, 0.81, 0.79, 0.82, 0.78]), "better");
        // Spread wider than the bound: unresolved unless every change
        // run beats every base run.
        let noisy = [0.70, 1.30, 0.90, 1.10, 1.00];
        assert_eq!(verdict(&m, &base, &noisy), "unresolved");
        assert_eq!(verdict(&m, &noisy, &[0.50, 0.55, 0.60, 0.52, 0.58]), "better");
        let layer = Metric { bound: None, ..wall(0.1) };
        assert_eq!(verdict(&layer, &base, &noisy), "info");
    }

    fn record(workload: &str, correct: bool, failed: u64) -> Record {
        Record { workload: workload.into(), correct, failed, values: Vec::new() }
    }

    #[test]
    fn failures_invalidate_the_change_side() {
        let clean = [record("w", true, 0), record("w", true, 0)];
        assert_eq!(failures(&clean, &clean, "w"), (0, 0, true));
        // One incorrect change run invalidates the workload, even when
        // the base failed as often.
        let broken = [record("w", true, 0), record("w", false, 2)];
        assert_eq!(failures(&clean, &broken, "w"), (0, 2, false));
        assert_eq!(failures(&broken, &broken, "w"), (2, 2, false));
        // A correct change that fixes base failures is valid.
        assert_eq!(failures(&broken, &clean, "w"), (2, 0, true));
        // More failures than the base, even if each run claims correct.
        let more = [record("w", true, 3)];
        assert_eq!(failures(&broken, &more, "w"), (2, 3, false));
        // Other workloads' records do not count.
        assert_eq!(failures(&clean, &[record("v", false, 5)], "w"), (0, 0, true));
    }
}
