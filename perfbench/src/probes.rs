//! Unit-cost probes: nanoseconds per call of the public step functions
//! the vendored criterion groups (`rng`, `automaton`, `strategy_step`
//! in `crates/bench/benches/microbench.rs`) exercise, so a change in
//! `trials_per_s` can be attributed to a layer without a profiler.

use crate::stats::median;
use ants_automaton::{library, Walker};
use ants_core::baselines::{HarmonicSearch, LevyWalk, RandomWalk};
use ants_core::{CoinNonUniformSearch, NonUniformSearch, SearchStrategy, UniformSearch};
use ants_rng::{derive_rng, BiasedCoin, Coin, Rng64};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; the median batch is reported.
pub const BATCHES: usize = 7;
const CALLS: u32 = 200_000;

fn per_call<R>(mut call: impl FnMut() -> R) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(call());
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}

fn strategy_step(mut s: impl SearchStrategy) -> f64 {
    let mut rng = derive_rng(6, 0);
    per_call(move || s.step(&mut rng))
}

/// `(metric name, ns per call)` for every probe.
pub fn unit_costs() -> Vec<(&'static str, f64)> {
    let mut rng = derive_rng(1, 0);
    let next_u64 = per_call(|| rng.next_u64());
    let coin = BiasedCoin::base(10).expect("1/1024 coin");
    let mut rng = derive_rng(2, 0);
    let flip = per_call(|| coin.flip(&mut rng));
    let pfa = library::algorithm1(8).expect("Algorithm 1 automaton");
    let mut walker = Walker::new(&pfa);
    let mut rng = derive_rng(4, 0);
    let pfa_step = per_call(|| walker.step(&mut rng));
    vec![
        ("rng.next_u64_ns", next_u64),
        ("rng.coin_flip_ns", flip),
        ("core.step_ns.nonuniform", strategy_step(NonUniformSearch::new(256).expect("D=256"))),
        ("core.step_ns.coin", strategy_step(CoinNonUniformSearch::new(256, 1).expect("D=256"))),
        ("core.step_ns.uniform", strategy_step(UniformSearch::new(1, 16, 2).expect("l=1"))),
        ("core.step_ns.harmonic", strategy_step(HarmonicSearch::new(16))),
        ("core.step_ns.randomwalk", strategy_step(RandomWalk::new())),
        ("core.step_ns.levy", strategy_step(LevyWalk::new(2.0, 256))),
        ("automaton.pfa_step_ns", pfa_step),
    ]
}
