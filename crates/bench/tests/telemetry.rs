//! The observability acceptance contract: telemetry is strictly
//! observational. Attaching a handle never changes a single report
//! byte, at any thread count or scheduling granularity — and the
//! instrumentation it feeds actually observes the run (counters move).

use ants_bench::experiments::{Experiment, RunConfig};
use ants_bench::WorkloadExperiment;
use ants_obs::{Counter, Phase, Telemetry};
use ants_sim::Granularity;
use std::path::PathBuf;

fn bundled(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/workloads").join(name)
}

fn chi_zoo() -> WorkloadExperiment {
    WorkloadExperiment::from_file(&bundled("chi_tradeoff_zoo.toml")).expect("bundled spec loads")
}

/// The ISSUE's headline pin: a chi-zoo smoke run with `--telemetry`
/// (4 threads, agent granularity, chunk 3) is byte-identical to the
/// same run without it — CSV and text rendering both (the JSON envelope
/// differs only in `wall_ms`, which is excluded from both renderings).
#[test]
fn telemetry_never_changes_report_bytes() {
    let exp = chi_zoo();
    let cfg = RunConfig::smoke()
        .with_threads(Some(4))
        .with_granularity(Granularity::Agent)
        .with_chunk(Some(3));
    let bare = exp.run(&cfg);
    let observed = exp.run(&cfg.with_telemetry(Some(Telemetry::new())));
    assert_eq!(observed.to_csv(), bare.to_csv());
    assert_eq!(observed.to_string(), bare.to_string());
}

/// The same identity across the full scheduling matrix: threads {1, 4}
/// × granularity {trial, agent}. Whatever the pool does — one inline
/// worker, trial units, chunked agents with cap hints — the observed
/// run's bytes match the unobserved reference.
#[test]
fn telemetry_is_invariant_across_schedulers() {
    let exp = chi_zoo();
    let reference = exp.run(&RunConfig::smoke().with_threads(Some(1)));
    for threads in [1usize, 4] {
        for granularity in [Granularity::Trial, Granularity::Agent] {
            let cfg = RunConfig::smoke()
                .with_threads(Some(threads))
                .with_granularity(granularity)
                .with_telemetry(Some(Telemetry::new()));
            let got = exp.run(&cfg);
            assert_eq!(
                got.to_csv(),
                reference.to_csv(),
                "telemetry moved bytes at threads {threads}, {granularity:?}"
            );
        }
    }
}

/// The handle attached through [`RunConfig`] really observes the sweep
/// at every thread count: pool units, engine steps, and phase spans are
/// all nonzero after a parallel agent-granularity run and after a
/// one-worker auto run (one worker drains the same pool inline, and
/// under auto it plans whole-trial units). Trial units never speculate
/// (each runs its agents in serial cap order), so under forced trial
/// granularity the engine-step count is identical at 1, 2 and 4
/// threads.
#[test]
fn attached_telemetry_observes_the_sweep() {
    let mut trial_steps = Vec::new();
    for (threads, granularity) in [
        (4usize, Granularity::Agent),
        (1, Granularity::Auto),
        (1, Granularity::Trial),
        (2, Granularity::Trial),
        (4, Granularity::Trial),
    ] {
        let tele = Telemetry::new();
        let cfg = RunConfig::smoke()
            .with_threads(Some(threads))
            .with_granularity(granularity)
            .with_chunk(Some(3))
            .with_telemetry(Some(tele));
        chi_zoo().run(&cfg);
        let snap = tele.snapshot();
        let at = format!("threads {threads}, {granularity:?}");
        assert!(snap.counter(Counter::PoolUnits) > 0, "no units counted at {at}");
        assert!(snap.counter(Counter::EngineSteps) > 0, "no engine steps counted at {at}");
        assert!(snap.phase_count[Phase::Execute as usize] > 0, "no execute span at {at}");
        assert!(snap.phase_total_ns(Phase::Execute) > 0, "no execute time recorded at {at}");
        assert_eq!(
            snap.counter(Counter::PoolUnits),
            snap.worker_units.iter().sum::<u64>(),
            "per-worker shards must sum to the total at {at}"
        );
        assert!(!snap.plans.is_empty(), "no plan decisions recorded at {at}");
        let echoed = if granularity == Granularity::Agent { "agent" } else { "trial" };
        assert!(snap.plans.iter().all(|p| p.granularity == echoed), "plan not echoed at {at}");
        match granularity {
            Granularity::Agent => {
                assert!(snap.counter(Counter::HintPolls) > 0, "no cap-hint polls at {at}");
            }
            Granularity::Trial => trial_steps.push(snap.counter(Counter::EngineSteps)),
            Granularity::Auto => {}
        }
    }
    assert_eq!(trial_steps, vec![trial_steps[0]; 3], "trial-unit engine steps moved with threads");
}

fn counters_after(spec: &str, threads: usize, granularity: Granularity) -> ants_obs::Snapshot {
    let exp = WorkloadExperiment::from_file(&bundled(spec)).expect("bundled spec loads");
    let tele = Telemetry::new();
    let cfg = RunConfig::smoke()
        .with_threads(Some(threads))
        .with_granularity(granularity)
        .with_telemetry(Some(tele));
    exp.run(&cfg);
    tele.snapshot()
}

/// Exact work counts of three bundled specs at smoke effort. Trial units
/// never speculate, so `engine_steps` is a pure function of the specs
/// and repeats at any thread count; a change to how the engine advances
/// agents (per step or per move run) must not move it. Each spec runs
/// strategies with move runs, so the engine takes fewer calls than steps.
#[test]
fn trial_unit_engine_steps_are_pinned() {
    for (spec, steps) in [
        ("mixed_targets.toml", 1_920_234),
        ("chi_tradeoff_zoo.toml", 2_119_983),
        ("adversarial_battery.toml", 1_694_817),
    ] {
        let snap = counters_after(spec, 1, Granularity::Trial);
        assert_eq!(snap.counter(Counter::EngineSteps), steps, "{spec}: engine steps moved");
        let calls = snap.counter(Counter::EngineCalls);
        assert!(0 < calls && calls < steps, "{spec}: {calls} engine calls for {steps} steps");
    }
}

/// With one worker, agent chunks run in canonical order, so every
/// cap-hint poll and clamp lands at the same step count on every run:
/// the hint-poll cadence (one poll per 64 steps of a speculative agent)
/// is pinned exactly.
#[test]
fn one_worker_hint_counters_are_pinned() {
    let snap = counters_after("speculation_stress.toml", 1, Granularity::Agent);
    assert_eq!(snap.counter(Counter::EngineSteps), 339_782);
    assert_eq!(snap.counter(Counter::HintPolls), 2_314);
    assert_eq!(snap.counter(Counter::HintClamps), 179);
}
