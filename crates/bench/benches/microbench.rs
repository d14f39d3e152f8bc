//! Criterion micro-benchmarks for the simulation substrate.
//!
//! These quantify the engine itself (PRNG, coins, PFA stepping, strategy
//! stepping, full trials, chain analysis) so that the experiment harness
//! numbers in EXPERIMENTS.md can be related to wall-clock budgets.

use ants_automaton::{library, markov, Walker};
use ants_core::baselines::{HarmonicSearch, RandomWalk, SpiralSearch};
use ants_core::{CoinNonUniformSearch, NonUniformSearch, SearchStrategy, UniformSearch};
use ants_grid::TargetPlacement;
use ants_rng::{derive_rng, BiasedCoin, Coin, CompositeCoin, Rng64};
use ants_sim::{run_trial, Scenario};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("xoshiro256pp/next_u64", |b| {
        let mut rng = derive_rng(1, 0);
        b.iter(|| black_box(rng.next_u64()));
    });
    g.bench_function("biased_coin/flip_1_over_1024", |b| {
        let mut rng = derive_rng(2, 0);
        let coin = BiasedCoin::base(10).unwrap();
        b.iter(|| black_box(coin.flip(&mut rng)));
    });
    g.bench_function("composite_coin/flip_k5_l2", |b| {
        let mut rng = derive_rng(3, 0);
        let coin = CompositeCoin::new(5, 2).unwrap();
        b.iter(|| black_box(coin.flip(&mut rng)));
    });
    g.finish();
}

fn bench_automaton(c: &mut Criterion) {
    let mut g = c.benchmark_group("automaton");
    let pfa = library::algorithm1(8).unwrap();
    g.bench_function("pfa/step_algorithm1", |b| {
        let mut rng = derive_rng(4, 0);
        let mut w = Walker::new(&pfa);
        b.iter(|| black_box(w.step(&mut rng)));
    });
    g.bench_function("markov/analyze_8_state_pfa", |b| {
        let mut rng = derive_rng(5, 0);
        let pfa = library::random_pfa(8, 3, &mut rng);
        b.iter(|| black_box(markov::analyze(&pfa)));
    });
    g.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("strategy_step");
    macro_rules! bench_strategy {
        ($name:literal, $mk:expr) => {
            g.bench_function($name, |b| {
                let mut rng = derive_rng(6, 0);
                let mut s = $mk;
                b.iter(|| black_box(s.step(&mut rng)));
            });
        };
    }
    bench_strategy!("random_walk", RandomWalk::new());
    bench_strategy!("spiral", SpiralSearch::new());
    bench_strategy!("non_uniform_d256", NonUniformSearch::new(256).unwrap());
    bench_strategy!("coin_non_uniform_d256_l1", CoinNonUniformSearch::new(256, 1).unwrap());
    bench_strategy!("uniform_l1", UniformSearch::new(1, 16, 2).unwrap());
    bench_strategy!("harmonic_n16", HarmonicSearch::new(16));
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    g.bench_function("trial/alg1_d32_n4", |b| {
        let scenario = Scenario::builder()
            .agents(4)
            .target(TargetPlacement::UniformInBall { distance: 32 })
            .move_budget(2_000_000)
            .strategy(|_| Box::new(NonUniformSearch::new(32).unwrap()))
            .build();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_trial(&scenario, seed))
        });
    });
    g.finish();
}

/// MC vs exact-DP wall clock on the bundled crosscheck grid: per cell,
/// `backend/mc/<cell>` measures the full trial count on a single-thread
/// pool, and the `backend/dp-*` variants measure one exact evaluation
/// per table representation — `dp-dense` (every curve on the dense
/// solver; absent when the dense guard refuses the cell), `dp-sparse`
/// (every curve on the pruned frontier), and `dp-memo` (the production
/// path through a warm cross-cell CDF memo, i.e. the marginal cost of a
/// repeated cell inside a sweep or a later `ants serve` submission).
/// `BENCH_dp.json` records the medians and the MC crossover.
fn bench_backends(c: &mut Criterion) {
    use ants_bench::{RunConfig, WorkloadExperiment};
    use ants_dp::{
        collapse, combine, curve_units, dense_absorption_cdf, sparse_absorption_cdf, CurveKind,
        MarkovKernel as _,
    };
    use ants_workload::dp::{dp_request, evaluate_cell_with, DpMemo};
    let spec = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/workloads/dp_crosscheck.toml");
    let exp = WorkloadExperiment::from_file(&spec).expect("bundled crosscheck spec loads");
    let opts = RunConfig::standard().with_threads(Some(1)).sweep_options();
    let no_metrics = ants_sim::MetricSet::empty();
    let mut g = c.benchmark_group("backend");
    g.sample_size(10);
    for cell in &exp.plan().cells {
        let label = cell.label.replace('/', "-");
        g.bench_function(&format!("mc/{label}"), |b| {
            b.iter(|| {
                let job = cell.job(false, 0).expect("cell builds");
                black_box(ants_sim::run_sweep_with(&[job], &opts))
            });
        });
        for (variant, sparse) in [("dp-dense", false), ("dp-sparse", true)] {
            let solve = if sparse { sparse_absorption_cdf } else { dense_absorption_cdf };
            // The whole evaluation, as `evaluate_cell_with` runs it, with
            // every curve pinned to one solver.
            let evaluate = || {
                let req = dp_request(cell, false, no_metrics).expect("dp-capable cell");
                let units = curve_units(&req)?;
                let collapsed = req
                    .population
                    .iter()
                    .map(|s| collapse(&s.kernel))
                    .collect::<Result<Vec<_>, _>>()?;
                combine(&req, &units, |u| {
                    assert_eq!(u.kind(), CurveKind::Absorption, "no metric curves requested");
                    let label = req.population[u.strategy()].kernel.label();
                    let curve = solve(&collapsed[u.strategy()], label, u.point(), u.clock())?;
                    Ok(std::sync::Arc::new(curve.cdf))
                })
            };
            if evaluate().is_err() {
                continue; // the dense guard refuses the over-budget cell
            }
            g.bench_function(&format!("{variant}/{label}"), |b| {
                b.iter(|| black_box(evaluate().expect("dp-capable cell")));
            });
        }
        g.bench_function(&format!("dp-memo/{label}"), |b| {
            let memo = DpMemo::new();
            evaluate_cell_with(cell, false, no_metrics, Some(&memo)).expect("dp-capable cell");
            b.iter(|| {
                black_box(
                    evaluate_cell_with(cell, false, no_metrics, Some(&memo))
                        .expect("dp-capable cell"),
                )
            });
        });
    }
    g.finish();
}

/// Telemetry overhead on the E9-style hot loop: the same
/// agent-granularity sweep (Algorithm 1, D = 32, 4 agents, 2M-move
/// budget) with and without a telemetry handle attached, plus the raw
/// cost of one sharded counter increment. `BENCH_obs.json` records the
/// medians; the observability contract pins the on/off delta under 2%
/// (the loop is dominated by engine stepping — counters flush once per
/// work unit, not per move).
fn bench_obs(c: &mut Criterion) {
    use ants_obs::{Counter, Telemetry};
    use ants_sim::{run_sweep_with, SweepJob, SweepOptions};

    let job = || {
        let scenario = Scenario::builder()
            .agents(4)
            .target(TargetPlacement::UniformInBall { distance: 32 })
            .move_budget(2_000_000)
            .strategy(|_| Box::new(NonUniformSearch::new(32).unwrap()))
            .build();
        SweepJob::new(scenario, 2, 0)
    };
    let opts =
        SweepOptions::with_threads(Some(2)).granularity(ants_sim::Granularity::Agent).chunk(1);

    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    g.bench_function("sweep_e9/telemetry_off", |b| {
        let opts = opts.clone();
        b.iter(|| black_box(run_sweep_with(&[job()], &opts)));
    });
    g.bench_function("sweep_e9/telemetry_on", |b| {
        let opts = opts.clone().with_telemetry(Telemetry::new());
        b.iter(|| black_box(run_sweep_with(&[job()], &opts)));
    });
    g.bench_function("counter/add", |b| {
        let tele = Telemetry::new();
        b.iter(|| tele.add(black_box(1), Counter::EngineSteps, black_box(3)));
    });
    g.bench_function("snapshot/freeze", |b| {
        let tele = Telemetry::new();
        tele.add(0, Counter::PoolUnits, 9);
        b.iter(|| black_box(tele.snapshot()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_automaton,
    bench_strategies,
    bench_engine,
    bench_backends,
    bench_obs
);
criterion_main!(benches);
