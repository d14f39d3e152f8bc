//! Self-test of the benchmark: a smoke-sized run of every workload
//! emits exactly the metrics `BENCHMARK.json` declares, and an injected
//! digest mismatch is counted as a failure instead of being dropped.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ants_sim::json::Json;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    let items = doc.get(list).and_then(Json::as_array).expect("declared list");
    items.iter().map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

/// Run the benchmark at smoke size; the parsed last stdout line.
fn smoke(workload: &str, trace: &str, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    let m = result.get("metrics").and_then(|m| m.get(name)).expect("metric present");
    m.get("value").and_then(Json::as_f64).expect("numeric value")
}

#[test]
fn smoke_runs_emit_every_declared_metric() {
    let doc = manifest();
    for workload in names(&doc, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(&workload, trace, &[]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let emitted = result.get("metrics").expect("metrics").keys();
            assert_eq!(emitted, names(&doc, list), "{workload} --trace {trace}");
            for name in names(&doc, list) {
                let value = metric(&result, &name);
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn injected_mismatch_raises_failed_ratio() {
    for workload in ["mc_sweep", "exact_dp"] {
        let result = smoke(workload, "1", &["--inject-mismatch"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) > 0.0, "{workload}");
        assert!(metric(&result, "failed_ratio") > 0.0, "{workload}");
    }
}
