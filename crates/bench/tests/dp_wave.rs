//! The exact backend's DP phase: every DP cell of a run is solved as
//! one wave of curve units on the sim pool. These tests pin what the
//! wave must not change — row bytes on both run paths at every thread
//! count, with and without a shared memo; the memo's counters; the
//! cell-labelled error of a failing cell — and that the wave really
//! runs on the pool.

use ants_bench::experiments::{Effort, RunConfig};
use ants_bench::WorkloadExperiment;
use ants_dp::{
    collapse, curve_units, dense_absorption_cdf, dense_first_landing_cdf, Backend, CurveKind,
    DpError, MarkovKernel,
};
use ants_grid::Point;
use ants_obs::{Counter, Phase, Telemetry};
use ants_sim::report::Value;
use ants_workload::dp::{dp_request, evaluate_cell_with, DpMemo};
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::path::PathBuf;

fn bundled(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/workloads").join(name)
}

fn experiment(text: &str) -> WorkloadExperiment {
    WorkloadExperiment::new(WorkloadPlan::expand(&WorkloadSpec::parse(text).unwrap()).unwrap())
}

/// Five exact cells and one MC cell between them: shared curves across
/// cells (the agent sweep), a duplicated kernel inside one population,
/// mixed strategies, survival and found-round metric curves, and a
/// mortal cell past the dense-table guard, which the exact backend
/// solves on the sparse frontier (pinned by
/// `the_mortal_cell_is_solved_on_the_sparse_frontier`).
const WAVE_SPEC: &str = r#"
name = "dp wave"
metrics = ["coverage", "found_round"]

[defaults]
trials = 50
backend = "dp"

[[cells]]
name = "walk"
move_budget = 12
target = { model = "ring", dist = 1 }
population = [ { strategy = "randomwalk" } ]
sweep = { agents = [1, 3] }

[[cells]]
name = "mc"
backend = "mc"
agents = 2
move_budget = 12
target = { model = "fixed", x = 1, y = 0 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "mixed"
agents = 2
move_budget = 14
target = { model = "corner", dist = 2 }
population = [
  { strategy = "nonuniform(dist)", weight = 2 },
  { strategy = "randomwalk", weight = 1 },
  { strategy = "randomwalk", weight = 1 },
]

[[cells]]
name = "coin"
agents = 2
move_budget = 10
target = { model = "ball", dist = 1 }
population = [ { strategy = "coin(8, 1)" } ]

[[cells]]
name = "mortal"
agents = 1
move_budget = 64
target = { model = "fixed", x = 0, y = 2 }
population = [ { strategy = "mortal(randomwalk, 1000)" } ]
"#;

/// JSON tokens per cell: byte identity that treats NaN as equal to
/// itself (derived `PartialEq` on `Value` does not).
fn tokens(row: &[Value]) -> Vec<String> {
    row.iter().map(Value::to_json).collect()
}

#[test]
fn streamed_and_batched_dp_rows_are_identical_at_every_thread_count() {
    let exp = experiment(WAVE_SPEC);
    let reference = exp.try_run(&RunConfig::standard().with_threads(Some(1))).unwrap().to_csv();
    assert!(reference.contains(",true"), "the spec has exact rows");
    let shared = DpMemo::new();
    for threads in [1usize, 2, 4] {
        let cfg = RunConfig::standard().with_threads(Some(threads));
        let batched = exp.try_run(&cfg).unwrap();
        assert_eq!(batched.to_csv(), reference, "batched rows drifted at {threads} threads");
        // Fresh memo per run, then one memo shared by every run (warm
        // from the second thread count on).
        for memo in [&DpMemo::new(), &shared] {
            let mut rows: Vec<Vec<String>> = Vec::new();
            let streamed = exp
                .try_run_streamed_with(&cfg, &cfg.sweep_options(), memo, |i, _, row| {
                    assert_eq!(i, rows.len(), "rows stream in cell order");
                    rows.push(tokens(row));
                })
                .unwrap();
            assert_eq!(streamed.to_csv(), reference, "streamed rows drifted at {threads} threads");
            let kept: Vec<Vec<String>> =
                streamed.records().rows().iter().map(|r| tokens(r)).collect();
            assert_eq!(rows, kept, "the callback sees the rows the report keeps");
        }
    }
}

/// The wave spec's mortal cell keeps the sparse frontier under the
/// byte-identity pins above: the dense solver refuses every one of its
/// curves on the table guard, so the run's success is the frontier's.
#[test]
fn the_mortal_cell_is_solved_on_the_sparse_frontier() {
    let exp = experiment(WAVE_SPEC);
    let cell = exp.plan().cells.iter().find(|c| c.label == "mortal").unwrap();
    let req = dp_request(cell, false, exp.plan().metrics).unwrap();
    let units = curve_units(&req).unwrap();
    assert!(units.iter().any(|u| u.kind() != CurveKind::Absorption), "metric curves too");
    for unit in &units {
        let kernel = &req.population[unit.strategy()].kernel;
        let (label, point, clock) = (kernel.label(), unit.point(), unit.clock());
        let dense = match unit.kind() {
            CurveKind::Absorption => {
                dense_absorption_cdf(&collapse(kernel).unwrap(), label, point, clock).map(|_| ())
            }
            // The origin's survival curve is identically zero, with no
            // solve behind it.
            CurveKind::Survival if point == Point::ORIGIN => continue,
            CurveKind::Survival | CurveKind::FoundRound => {
                dense_first_landing_cdf(kernel, label, point, clock).map(|_| ())
            }
        };
        assert!(matches!(dense, Err(DpError::Guard { .. })), "{}: {dense:?}", unit.key());
    }
}

/// The wave's memo holds exactly the curves, and counts exactly the
/// hits and misses, of evaluating the same cells one by one through the
/// per-cell path with one memo: a miss per distinct curve solved, a hit
/// per repeated lookup.
#[test]
fn wave_memo_counters_match_the_per_cell_path() {
    let crosscheck = WorkloadExperiment::from_file(&bundled("dp_crosscheck.toml")).unwrap();
    // dp_crosscheck shares no curve between cells, but orbit mates
    // (target and bounds points a kernel symmetry maps onto each other)
    // share one inside a cell; the wave spec also shares curves across
    // cells and inside one population.
    for (exp, distinct, shared) in [(crosscheck, 123, true), (experiment(WAVE_SPEC), 44, true)] {
        let cfg = RunConfig::standard().with_backend(Some(Backend::Dp)).with_threads(Some(2));
        let per_cell = DpMemo::new();
        for cell in &exp.plan().cells {
            evaluate_cell_with(cell, false, exp.plan().metrics, Some(&per_cell)).unwrap();
        }
        let wave = DpMemo::new();
        let t = Telemetry::new();
        let cfg = cfg.with_telemetry(Some(t));
        exp.try_run_streamed_with(&cfg, &cfg.sweep_options(), &wave, |_, _, _| {}).unwrap();
        let (hits, misses) = wave.stats();
        assert_eq!(misses, distinct, "one miss per distinct curve");
        assert_eq!(wave.len() as u64, distinct);
        assert_eq!(hits > 0, shared);
        assert_eq!((hits, misses), per_cell.stats(), "wave vs per-cell (hits, misses)");
        assert_eq!(t.counter(Counter::DpMemoMisses), misses);
        assert_eq!(t.counter(Counter::DpMemoHits), hits);
        assert_eq!(t.counter(Counter::DpSolves), exp.plan().cells.len() as u64);
        // Every solved curve is one pool claim; one span covers the wave.
        assert_eq!(t.counter(Counter::PoolUnits), distinct);
        assert_eq!(t.snapshot().phase_count[Phase::DpSolve as usize], 1);

        // A warm rerun solves nothing: every lookup hits.
        let t = Telemetry::new();
        let cfg = cfg.with_telemetry(Some(t));
        exp.try_run_streamed_with(&cfg, &cfg.sweep_options(), &wave, |_, _, _| {}).unwrap();
        assert_eq!(t.counter(Counter::DpMemoMisses), 0);
        assert_eq!(t.counter(Counter::DpMemoHits), hits + misses);
        assert_eq!(t.counter(Counter::PoolUnits), 0, "a fully memoized wave claims no units");
    }
}

/// The second exact cell trips the metric-work guard: the streamed run
/// still emits row 0, then fails with the error the per-cell path
/// gives for that cell, labelled with it; the batched run fails the
/// same way.
#[test]
fn a_failing_second_cell_streams_row_zero_then_returns_its_error() {
    let text = r#"
name = "guard"
metrics = ["coverage"]

[defaults]
trials = 20
backend = "dp"

[[cells]]
name = "small"
agents = 1
move_budget = 8
target = { model = "fixed", x = 1, y = 0 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "huge-bounds"
agents = 1
move_budget = 100
target = { model = "fixed", x = 400, y = 0 }
population = [ { strategy = "randomwalk" } ]

[[cells]]
name = "after"
agents = 1
move_budget = 8
target = { model = "fixed", x = 0, y = 1 }
population = [ { strategy = "randomwalk" } ]
"#;
    let exp = experiment(text);
    let metrics = exp.plan().metrics;
    let expected = evaluate_cell_with(&exp.plan().cells[1], false, metrics, None)
        .expect_err("the per-cell path trips the guard");
    assert!(expected.message.contains("guard"), "{expected}");
    for threads in [1usize, 2] {
        let cfg = RunConfig::new(Effort::Standard).with_threads(Some(threads));
        let mut streamed = Vec::new();
        let Err(err) = exp.try_run_streamed(&cfg, &cfg.sweep_options(), |i, cell, _| {
            streamed.push((i, cell.label.clone()))
        }) else {
            panic!("the second cell fails");
        };
        assert_eq!(streamed, vec![(0, "small".to_string())], "row 0 streams before the error");
        assert_eq!(err.context, "cell 'huge-bounds'");
        assert_eq!(err.to_string(), expected.to_string(), "{threads} threads");
        let Err(batched) = exp.try_run(&cfg) else { panic!("batched fails too") };
        assert_eq!(batched.to_string(), expected.to_string());
    }
}
