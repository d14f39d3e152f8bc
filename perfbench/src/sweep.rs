//! The `mc_sweep` and `exact_dp` workloads: closed loops of full passes
//! over bundled workload specs, each pass at one sweep thread and at
//! `nproc` threads, exactly as `ants workload run` executes them.
//!
//! * `mc_sweep` — the five bundled Monte Carlo specs at standard effort
//!   through `WorkloadExperiment::try_run`; the exact backend does no
//!   work.
//! * `exact_dp` — `dp_crosscheck.toml` forced onto the exact backend,
//!   evaluated cell by cell through `try_run_streamed_with` with a fresh
//!   `DpMemo` every pass (every run pays cold solves); the sim pool runs
//!   no units.
//!
//! Each iteration of the loop runs its passes at a fresh base seed drawn
//! from `--seed`, so a run's medians average over many MC inputs instead
//! of riding on one seed's cost. Every pass digests each report's rows;
//! for a given spec and seed the digest must be the same at one thread
//! and at `nproc`, with telemetry attached, and under trial-level
//! scheduling.

use crate::layers::Traced;
use crate::stats::{delta, digest, median, peak_rss_mb};
use crate::{
    checkout, closed_loop, nproc, put_end_to_end, put_run_totals, Args, Ledger, Sheet, Work,
};
use ants_bench::{Effort, RunConfig, WorkloadExperiment};
use ants_dp::Backend;
use ants_obs::{Counter, Phase, Telemetry};
use ants_rng::{derive_rng, Rng64};
use ants_sim::{run_observed_sweep, run_sweep_with, Granularity, SweepOptions};
use ants_workload::dp::DpMemo;
use ants_workload::{WorkloadPlan, WorkloadSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mc,
    Exact,
}

/// The bundled Monte Carlo specs, by file stem under `examples/workloads`.
pub const MC_SPECS: [&str; 5] = [
    "chi_tradeoff_zoo",
    "mixed_targets",
    "adversarial_battery",
    "coverage_lower_bound",
    "speculation_stress",
];

/// The text of a bundled spec.
pub fn bundled_spec(name: &str) -> Result<String, String> {
    let path = checkout().join("examples/workloads").join(format!("{name}.toml"));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Set-ups per timed sample: one set-up takes well under a millisecond,
/// so a sample times a batch of them to last tens of milliseconds.
const SETUP_BATCH: usize = 64;
/// Repetitions of the direct `run_sweep_with`/`run_observed_sweep`
/// calls behind `sim.sweep_ms`/`sim.observe_ms`.
const SPLIT_REPS: usize = 3;

struct Loaded {
    effort: Effort,
    /// The run's `--seed`.
    seed: u64,
    backend: Option<Backend>,
    names: Vec<&'static str>,
    exps: Vec<WorkloadExperiment>,
}

impl Loaded {
    fn new(kind: Kind, args: &Args) -> Loaded {
        let names = match kind {
            Kind::Mc => MC_SPECS.to_vec(),
            Kind::Exact => vec!["dp_crosscheck"],
        };
        Loaded {
            effort: if args.smoke { Effort::Smoke } else { Effort::Standard },
            seed: args.seed,
            backend: (kind == Kind::Exact).then_some(Backend::Dp),
            names,
            exps: Vec::new(),
        }
    }

    /// Read, parse, expand and validate the workload's specs
    /// [`SETUP_BATCH`] times, keeping the last load: what a user pays
    /// before the first cell runs. The time per set-up in seconds, and
    /// its parse + expand part in milliseconds.
    fn set_up(&mut self) -> Result<(f64, f64), String> {
        let validate = RunConfig::new(self.effort).with_backend(self.backend);
        let t0 = Instant::now();
        let mut parse = Duration::ZERO;
        for _ in 0..SETUP_BATCH {
            self.exps.clear();
            for name in &self.names {
                let text = bundled_spec(name)?;
                let tp = Instant::now();
                let spec = WorkloadSpec::parse(&text).map_err(|e| format!("{name}: {e}"))?;
                let plan = WorkloadPlan::expand(&spec).map_err(|e| format!("{name}: {e}"))?;
                parse += tp.elapsed();
                let exp = WorkloadExperiment::new(plan);
                exp.validate_backends(&validate).map_err(|e| format!("{name}: {e}"))?;
                self.exps.push(exp);
            }
        }
        let batch = SETUP_BATCH as f64;
        Ok((t0.elapsed().as_secs_f64() / batch, parse.as_secs_f64() * 1e3 / batch))
    }

    /// The base seed of every pass of one iteration. Each iteration
    /// draws fresh MC inputs, so a run's median averages over many
    /// seeds rather than riding on one seed's cost.
    fn pass_seed(&self, iteration: u64) -> u64 {
        derive_rng(self.seed, iteration).next_u64()
    }

    fn config(
        &self,
        seed: u64,
        threads: usize,
        granularity: Granularity,
        telemetry: Option<Telemetry>,
    ) -> RunConfig {
        RunConfig::new(self.effort)
            .with_seed(seed)
            .with_threads(Some(threads))
            .with_granularity(granularity)
            .with_backend(self.backend)
            .with_telemetry(telemetry)
    }
}

/// One full pass over the workload's specs.
#[derive(Default)]
struct Pass {
    work: Work,
    report_s: f64,
    /// Per-cell wall clock (exact backend only), in cell order.
    cell_ms: Vec<f64>,
}

fn pass(
    w: &Loaded,
    seed: u64,
    threads: usize,
    granularity: Granularity,
    telemetry: Option<Telemetry>,
    ledger: &mut Ledger,
) -> Pass {
    let mut p = Pass::default();
    let cfg = w.config(seed, threads, granularity, telemetry);
    for (name, exp) in w.names.iter().zip(&w.exps) {
        let mut cell_ms = Vec::new();
        let t0 = Instant::now();
        let run = match w.backend {
            None => exp.try_run(&cfg),
            Some(_) => {
                let memo = DpMemo::new();
                let mut last = Instant::now();
                exp.try_run_streamed_with(&cfg, &cfg.sweep_options(), &memo, |_, _, _| {
                    let now = Instant::now();
                    cell_ms.push((now - last).as_secs_f64() * 1e3);
                    last = now;
                })
            }
        };
        let report = match run {
            Ok(report) => report,
            Err(e) => {
                p.work.wall_s += t0.elapsed().as_secs_f64();
                ledger.record(false, || format!("{name} at {threads} threads: {e}"));
                continue;
            }
        };
        let tr = Instant::now();
        black_box((report.to_json().len(), report.to_string().len()));
        p.report_s += tr.elapsed().as_secs_f64();
        p.work.wall_s += t0.elapsed().as_secs_f64();
        let d = digest(&report.to_csv());
        let ok = ledger.matches(&format!("{name}@{seed}"), &d);
        ledger.record(ok, || {
            format!("{name} seed {seed}: row digest {d} differs at {threads} threads")
        });
        p.work.cells += report.len() as f64;
        p.work.trials += (0..report.len()).map(|r| report.num(r, "trials")).sum::<f64>();
        p.work.requests += 1.0;
        p.cell_ms.extend(cell_ms);
    }
    p
}

/// `sim.sweep_ms` and `sim.observe_ms`: the two public sweep entry
/// points `try_run` composes, called directly on the same jobs at
/// `nproc` threads (median of [`SPLIT_REPS`] passes).
fn split(w: &Loaded, telemetry: Telemetry) -> Result<(f64, f64), String> {
    let smoke = w.effort == Effort::Smoke;
    let opts = SweepOptions::with_threads(Some(nproc())).with_telemetry(telemetry);
    let mut sweep = Vec::new();
    let mut observe = Vec::new();
    for _ in 0..SPLIT_REPS {
        let (mut s, mut o) = (0.0, 0.0);
        for exp in &w.exps {
            let plan = exp.plan();
            let jobs = plan.jobs(smoke, w.pass_seed(0)).map_err(|e| e.to_string())?;
            let t = Instant::now();
            black_box(run_sweep_with(&jobs, &opts));
            s += t.elapsed().as_secs_f64() * 1e3;
            if !plan.metrics.is_empty() {
                let ojobs = plan
                    .observed_jobs(smoke, w.pass_seed(0), plan.metrics)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                black_box(run_observed_sweep(&ojobs, &opts));
                o += t.elapsed().as_secs_f64() * 1e3;
            }
        }
        sweep.push(s);
        observe.push(o);
    }
    Ok((median(&sweep), median(&observe)))
}

pub fn run(kind: Kind, args: &Args, ledger: &mut Ledger) -> Result<Sheet, String> {
    let mut w = Loaded::new(kind, args);
    // Set-up samples: one before the loop and one before every pass, so
    // they spread over the whole window instead of its first fraction
    // of a second.
    let mut setups = vec![w.set_up()?];
    let n = nproc();
    // One handle for the whole traced run; per-pass deltas of it.
    let telemetry = args.trace.then(Telemetry::new);
    let mut traced = Traced::default();
    let passes = closed_loop(args, |iteration, one_worker, is_traced| {
        setups.push(w.set_up()?);
        let handle = if is_traced { telemetry } else { None };
        let before = handle.map(Telemetry::snapshot);
        let threads = if one_worker { 1 } else { n };
        let seed = w.pass_seed(iteration);
        let p = pass(&w, seed, threads, Granularity::Auto, handle, ledger);
        if let (Some(h), Some(b)) = (handle, before) {
            traced.add(delta(&h.snapshot(), &b));
        }
        Ok(p)
    })?;
    let work = |ps: &[Pass]| ps.iter().map(|p| p.work).collect::<Vec<Work>>();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let parse_expand_ms: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let mut sheet = Sheet::default();
    let Some(telemetry) = telemetry else {
        sheet.put("setup_s", median(&setup_s), setup_s.len());
        put_end_to_end(&mut sheet, &work(&passes.t1), &work(&passes.tn));
        sheet.put("peak_rss_mb", peak_rss_mb(), 1);
        return Ok(sheet);
    };
    let traced_tn = &passes.traced;
    let count = traced_tn.len();
    traced.put(&mut sheet, n);
    // Auto scheduling lets speculative agent chunks race the cap hint,
    // so its step count wobbles; one trial-level pass (no speculation,
    // same report bytes) gives the exact count.
    let before = telemetry.snapshot();
    pass(&w, w.pass_seed(0), n, Granularity::Trial, Some(telemetry), ledger);
    let exact = delta(&telemetry.snapshot(), &before).counter(Counter::EngineSteps);
    sheet.put("sim.engine_steps", exact as f64, 1);
    let (sweep_ms, observe_ms) = match kind {
        Kind::Mc => split(&w, telemetry)?,
        Kind::Exact => (0.0, 0.0),
    };
    sheet.put("sim.sweep_ms", sweep_ms, SPLIT_REPS);
    sheet.put("sim.observe_ms", observe_ms, SPLIT_REPS);
    if kind == Kind::Exact {
        // Per cell: median over passes; p50 over every cell sample, max
        // over the per-cell medians.
        let cells = traced_tn.first().map_or(0, |p| p.cell_ms.len());
        let per_cell = (0..cells).map(|c| {
            median(&traced_tn.iter().filter_map(|p| p.cell_ms.get(c).copied()).collect::<Vec<_>>())
        });
        let all: Vec<f64> = traced_tn.iter().flat_map(|p| p.cell_ms.iter().copied()).collect();
        sheet.put("dp.cell_ms.p50", median(&all), all.len());
        sheet.put("dp.cell_ms.max", per_cell.fold(0.0, f64::max), count);
    } else {
        sheet.not_applicable(&["dp.cell_ms.p50", "dp.cell_ms.max"]);
    }
    sheet.put("workload.parse_expand_ms", median(&parse_expand_ms), parse_expand_ms.len());
    sheet.put(
        "workload.cells",
        w.exps.iter().map(|e| e.plan().cells.len()).sum::<usize>() as f64,
        1,
    );
    let mean = |f: fn(&Pass) -> f64| traced_tn.iter().map(f).sum::<f64>() / count.max(1) as f64;
    let report_ms = mean(|p| p.report_s) * 1e3;
    sheet.put("bench.report_ms", report_ms, count);
    let spans = traced.phase_ms(&[Phase::Plan, Phase::Execute, Phase::Reduce, Phase::DpSolve]);
    sheet.put("unattributed_ms", mean(|p| p.work.wall_s) * 1e3 - spans - report_ms, count);
    put_run_totals(&mut sheet, &work(traced_tn), &work(&passes.tn), ledger);
    Ok(sheet)
}
