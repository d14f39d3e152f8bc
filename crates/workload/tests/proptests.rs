//! Property tests for the workload pipeline: parse → expand →
//! serialize round-trips, and expansion determinism.
//!
//! The generator builds structurally-valid random specs (the shapes a
//! user could actually write); the properties pin:
//!
//! * `WorkloadSpec::parse(spec.to_toml()) == spec` (serializer and
//!   parser are exact inverses on the canonical form);
//! * expansion of the round-tripped spec matches the original expansion
//!   cell for cell — labels, budgets, seeds, population labels;
//! * expansion is a pure function (two expansions agree).

use ants_workload::{
    CellSpec, Defaults, Sweep, TargetSpec, WorkloadPlan, WorkloadSpec, ZooEntry, ZooStrategy,
};
use proptest::prelude::*;

/// The symbolic strategy pool the generator draws from. All entries
/// resolve for any dist >= 2 and agents >= 1.
fn strategy_pool(idx: u8) -> ZooStrategy {
    let texts = [
        "randomwalk",
        "spiral",
        "nonuniform(dist)",
        "coin(dist, 1)",
        "uniform(1, agents, 2)",
        "harmonic(agents)",
        "levy(2.5, 64)",
        "automaton(walk)",
        "automaton(alg1, 3)",
        "automaton(pfa, 4, 2, 7)",
        "automaton(drift, 3)",
        "fullyuniform(2, 2)",
        "mortal(randomwalk, 64)",
        "mortal(nonuniform(dist), 500)",
    ];
    ZooStrategy::parse(texts[idx as usize % texts.len()]).expect("pool entries parse")
}

fn target_pool(idx: u8, dist: u64) -> TargetSpec {
    match idx % 4 {
        0 => TargetSpec::Corner { dist },
        1 => TargetSpec::Ball { dist },
        2 => TargetSpec::Ring { dist },
        _ => TargetSpec::Fixed { x: dist as i64, y: 2 },
    }
}

/// Deterministically derive one cell from drawn integers.
#[allow(clippy::too_many_arguments)]
fn build_cell(
    i: usize,
    target_kind: u8,
    dist: u64,
    agents: u64,
    pop: &[(u8, u64)],
    sweep_agents: bool,
    sweep_dist: bool,
    sweep_budget: bool,
) -> CellSpec {
    let target = target_pool(target_kind, dist);
    // Fixed targets cannot take a dist axis.
    let sweep_dist = sweep_dist && !matches!(target, TargetSpec::Fixed { .. });
    CellSpec {
        name: format!("cell{i}"),
        // A scalar next to its sweep axis is a validation error: the
        // generator picks exactly one source per knob.
        agents: (!sweep_agents).then_some(agents),
        trials: Some(3),
        smoke_trials: Some(1),
        move_budget: (!sweep_budget).then_some(5_000),
        guess_move_ceiling: None,
        seed: i.is_multiple_of(2).then_some(17 * i as u64),
        // MC everywhere: the pool mixes non-Markovian strategies, which
        // a "dp" cell would (correctly) refuse. The backend round-trip
        // is pinned by the spec unit tests instead.
        backend: i.is_multiple_of(3).then_some(ants_dp::Backend::Mc),
        target: Some(target),
        population: pop
            .iter()
            .map(|&(s, w)| ZooEntry { weight: w.max(1), strategy: strategy_pool(s) })
            .collect(),
        sweep: Sweep {
            agents: if sweep_agents { vec![1, agents.max(2)] } else { Vec::new() },
            dist: if sweep_dist { vec![2, dist.max(3)] } else { Vec::new() },
            move_budget: if sweep_budget { vec![4_000, 6_000] } else { Vec::new() },
            target: Vec::new(),
        },
    }
}

/// Fingerprint a plan for equality checks across round-trips.
fn fingerprint(plan: &WorkloadPlan) -> Vec<(String, u64, u64, u64, u64, String)> {
    plan.cells
        .iter()
        .map(|c| {
            (c.label.clone(), c.agents, c.move_budget, c.trials, c.seed_tag, c.population_label())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_expand_serialize_round_trips(
        seed in 0u64..1000,
        n_cells in 1usize..4,
        target_kind in any::<u8>(),
        dist in 2u64..12,
        agents in 1u64..7,
        pop in proptest::collection::vec((any::<u8>(), 1u64..5), 1..4),
        sweep_agents in any::<bool>(),
        sweep_dist in any::<bool>(),
        sweep_budget in any::<bool>(),
    ) {
        let cells: Vec<CellSpec> = (0..n_cells)
            .map(|i| build_cell(
                i,
                target_kind.wrapping_add(i as u8),
                dist,
                agents,
                &pop,
                sweep_agents,
                sweep_dist && i % 2 == 0,
                sweep_budget && i % 2 == 1,
            ))
            .collect();
        let spec = WorkloadSpec {
            name: format!("prop wl {seed}"),
            description: if seed % 3 == 0 { String::new() } else { format!("desc \"{seed}\"") },
            metrics: {
                // Exercise the metrics key in the round-trip: a varying
                // subset of the observation vocabulary.
                let mut m = ants_sim::MetricSet::empty();
                for (bit, metric) in ants_sim::Metric::ALL.into_iter().enumerate() {
                    if seed & (1 << bit) != 0 {
                        m.insert(metric);
                    }
                }
                m
            },
            defaults: Defaults {
                trials: Some(4),
                smoke_trials: (seed % 2 == 0).then_some(2),
                move_budget: None,
                guess_move_ceiling: None,
                seed: Some(seed),
                backend: None,
            },
            cells,
        };

        // Serialize → parse is the identity on the spec.
        let text = spec.to_toml();
        let reparsed = WorkloadSpec::parse(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n--- spec ---\n{text}"));
        prop_assert_eq!(&reparsed, &spec);

        // Expansion commutes with the round-trip, and is deterministic.
        let plan_a = WorkloadPlan::expand(&spec).expect("original expands");
        let plan_b = WorkloadPlan::expand(&reparsed).expect("round-tripped expands");
        prop_assert_eq!(fingerprint(&plan_a), fingerprint(&plan_b));
        let plan_c = WorkloadPlan::expand(&spec).expect("re-expansion");
        prop_assert_eq!(fingerprint(&plan_a), fingerprint(&plan_c));

        // Every expanded cell builds a runnable scenario.
        for cell in &plan_a.cells {
            let scenario = cell.scenario().expect("validated scenario builds");
            prop_assert_eq!(scenario.n_agents() as u64, cell.agents);
        }
    }
}

/// Every strategy the zoo can build, runs or no runs.
const ZOO: [&str; 19] = [
    "randomwalk",
    "spiral",
    "nonuniform(dist)",
    "coin(dist, 1)",
    "coin(dist, 2)",
    "uniform(1, agents, 2)",
    "uniform(2, agents, 1)",
    "fullyuniform(2, 2)",
    "harmonic(agents)",
    "levy(2.5, 64)",
    "automaton(walk)",
    "automaton(lazy)",
    "automaton(line)",
    "automaton(drift, 3)",
    "automaton(cycle, 3)",
    "automaton(alg1, 3)",
    "automaton(pfa, 4, 2, 7)",
    "mortal(randomwalk, 64)",
    "mortal(nonuniform(dist), 500)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `step_run(max)` is exactly `n` repeated `step` calls, for every zoo
    /// strategy: the same action each time, the same RNG state after, the
    /// same footprint after each of the `n` steps, no halt before the
    /// run's last step, and `1 <= n <= max` at every `max` (including
    /// runs cut at 1, at a poll-sized bound, and unbounded).
    #[test]
    fn step_run_is_repeated_step(
        dist in 2u64..300,
        agents in 1u64..64,
        seed in any::<u64>(),
    ) {
        use ants_rng::{derive_rng, Rng64};
        for text in ZOO {
            let factory = ZooStrategy::parse(text)
                .and_then(|z| z.resolve(dist, agents))
                .expect("zoo entries resolve")
                .factory();
            let (mut by_run, mut by_step) = (factory(0), factory(0));
            let (mut rng_run, mut rng_step) = (derive_rng(seed, 3), derive_rng(seed, 3));
            let mut pick = derive_rng(seed, 4);
            let mut longest = 0;
            for _ in 0..1_500 {
                let max = match pick.next_below(8) {
                    0 => u64::MAX,
                    1 => 1,
                    _ => 1 + pick.next_below(64),
                };
                let (action, n) = by_run.step_run(&mut rng_run, max);
                prop_assert!((1..=max).contains(&n), "{text}: run of {n} at max {max}");
                prop_assert!(n == 1 || by_run.emits_runs(), "{text}: undeclared run of {n}");
                longest = longest.max(n);
                for i in 1..=n {
                    prop_assert_eq!(by_step.step(&mut rng_step), action, "{}: step {} of {}", text, i, n);
                    prop_assert_eq!(
                        by_step.selection_complexity(),
                        by_run.selection_complexity(),
                        "{}: footprint changed inside a run", text
                    );
                    if i < n {
                        prop_assert!(!by_step.is_halted(), "{text}: halted inside a run");
                    }
                }
                prop_assert_eq!(&rng_run, &rng_step, "{}: RNG streams diverged", text);
                prop_assert_eq!(by_run.is_halted(), by_step.is_halted());
            }
            // The property is vacuous for run strategies that never ran.
            if by_run.emits_runs() {
                prop_assert!(longest > 1, "{text}: no run longer than one step");
            }
        }
    }
}
