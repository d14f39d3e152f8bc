//! Order statistics, digests and process measurements shared by every
//! workload.

use ants_obs::Snapshot;
use ants_workload::Fnv128;

/// The median of `xs` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are judged against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A 128-bit FNV digest of `text`, as hex.
pub fn digest(text: &str) -> String {
    let mut h = Fnv128::new();
    h.write(text.as_bytes());
    h.finish_hex()
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `after − before` for the additive parts of two snapshots of one
/// telemetry handle (counters, per-worker arrays, phases, histograms);
/// gauges keep their `after` level. Plan decisions are dropped.
pub fn delta(after: &Snapshot, before: &Snapshot) -> Snapshot {
    let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
        a.iter()
            .enumerate()
            .map(|(i, x)| x.saturating_sub(b.get(i).copied().unwrap_or(0)))
            .collect()
    };
    let mut out = after.clone();
    out.plans.clear();
    for (o, b) in out.counters.iter_mut().zip(&before.counters) {
        *o = o.saturating_sub(*b);
    }
    for (o, b) in out.phase_ns.iter_mut().zip(&before.phase_ns) {
        *o = o.saturating_sub(*b);
    }
    for (o, b) in out.phase_count.iter_mut().zip(&before.phase_count) {
        *o = o.saturating_sub(*b);
    }
    for (o, b) in out.hit_latency.iter_mut().zip(&before.hit_latency) {
        *o = o.saturating_sub(*b);
    }
    for (o, b) in out.miss_latency.iter_mut().zip(&before.miss_latency) {
        *o = o.saturating_sub(*b);
    }
    out.worker_units = sub(&after.worker_units, &before.worker_units);
    out.worker_steals = sub(&after.worker_steals, &before.worker_steals);
    out.worker_polls = sub(&after.worker_polls, &before.worker_polls);
    out.worker_busy_ns = sub(&after.worker_busy_ns, &before.worker_busy_ns);
    out.worker_idle_ns = sub(&after.worker_idle_ns, &before.worker_idle_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(median(&xs), 5.5);
    }
}
