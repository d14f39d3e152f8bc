//! Deterministic scheduling of sweep work across one shared thread pool.
//!
//! [`run_sweep_with`] flattens a batch of [`SweepJob`]s into work units —
//! whole trials, or fixed-size agent chunks of a [`TrialPlan`] — and
//! drains them through `std` worker threads pulling from a lock-free
//! chunk queue (an atomic cursor over the unit list: idle workers steal
//! the next unexecuted chunk, so the pool load-balances without
//! barriers). Agent-level trials are then reduced in canonical
//! (job, trial, chunk) order over the same pool, so every outcome is
//! byte-identical to the serial reference at every thread count,
//! granularity, and chunk size.
//!
//! The pool is the only executor: a single worker drains the same units
//! inline on the calling thread, so `--threads 1` records the same
//! per-unit telemetry as any other count.
//!
//! The unit of work per job is picked by [`Scheduler::plan`]: many-trial
//! jobs parallelise perfectly well at trial granularity, while few-trial
//! / many-agent jobs (E7's uniform sweeps, E9's trade-off zoo at large
//! `n`) would serialise onto one core unless their trials are split into
//! agent chunks.

use crate::engine::{trial_seeds, ChunkRun, TrialPlan};
use crate::metrics::{Outcome, TrialResult};
use crate::observe::{observe_chunk, ObserverSpec, TrialObservations};
use crate::scenario::Scenario;
use ants_obs::{Counter, Phase, PlanDecision, SpanGuard, Telemetry};
use std::sync::{Arc, Mutex};

/// One cell of a batched scenario sweep: a scenario plus its trial count
/// and base seed.
///
/// The contract is that `run_sweep_with(&jobs, _)[i]` is byte-identical
/// to `run_trials_serial(&jobs[i].scenario, jobs[i].trials, jobs[i].seed)`
/// — batching changes wall-clock time only.
pub struct SweepJob {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Number of Monte-Carlo trials.
    pub trials: u64,
    /// Base seed for this cell's trial-seed stream.
    pub seed: u64,
}

impl SweepJob {
    /// Bundle a scenario with its trial count and seed.
    pub fn new(scenario: Scenario, trials: u64, seed: u64) -> Self {
        Self { scenario, trials, seed }
    }
}

/// One cell of an observed sweep ([`run_observed_sweep`]): a scenario
/// plus trial count, base seed, a fixed round horizon, and the observers
/// to attach.
///
/// The contract mirrors [`SweepJob`]'s: per job, per trial, the pooled
/// result is byte-identical to
/// `observe_trial(&job.scenario, seed, job.rounds, &job.specs)` at every
/// thread count, granularity, and chunk size — each observer's canonical
/// merge reduces agent-chunk observations exactly like trial results.
pub struct ObservedJob {
    /// The scenario to observe.
    pub scenario: Scenario,
    /// Number of observed trials (independent target draws / agent
    /// streams, same seed derivation as [`SweepJob`]).
    pub trials: u64,
    /// Base seed for this cell's trial-seed stream.
    pub seed: u64,
    /// Round horizon: every agent takes exactly this many Markov
    /// transitions (no early caps — coverage quantities are defined over
    /// all trajectories).
    pub rounds: u64,
    /// The observers to run, in output order.
    pub specs: Vec<ObserverSpec>,
}

impl ObservedJob {
    /// Bundle a scenario with its observation parameters.
    pub fn new(
        scenario: Scenario,
        trials: u64,
        seed: u64,
        rounds: u64,
        specs: Vec<ObserverSpec>,
    ) -> Self {
        Self { scenario, trials, seed, rounds, specs }
    }
}

/// The unit-of-work policy for a sweep (CLI surface: `--granularity`).
///
/// Purely a scheduling decision: outcomes are byte-identical across all
/// three (pinned by `crates/sim/tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Let the cost heuristic pick per job.
    #[default]
    Auto,
    /// One work unit per (cell, trial).
    Trial,
    /// Split every trial into agent chunks ([`TrialPlan`]).
    Agent,
}

impl Granularity {
    /// Stable lowercase name (used by `--granularity`).
    pub fn as_str(self) -> &'static str {
        match self {
            Granularity::Auto => "auto",
            Granularity::Trial => "trial",
            Granularity::Agent => "agent",
        }
    }

    /// Parse a `--granularity` argument.
    pub fn parse(s: &str) -> Option<Granularity> {
        match s {
            "auto" => Some(Granularity::Auto),
            "trial" => Some(Granularity::Trial),
            "agent" => Some(Granularity::Agent),
            _ => None,
        }
    }
}

/// Default agents per chunk for agent-level scheduling.
const DEFAULT_AGENT_CHUNK: usize = 8;

/// Per-trial work proxy (agents × move budget) below which a trial is
/// never worth splitting: the per-chunk scheduling overhead would rival
/// the simulation itself. With the shared [`CapHint`](crate::CapHint)
/// bounding the speculation tax, this floor only guards against
/// scheduling overhead, not redundant work, so it sits far lower than it
/// did when speculative chunks could redo `n_chunks ×` the serial work.
const AGENT_SPLIT_WEIGHT: u64 = 1 << 12;

/// Auto-granularity splits a job into agent chunks whenever the sweep's
/// trial units alone cannot keep every worker this many units deep.
/// Below that, stragglers (one heavy trial outliving its siblings)
/// leave workers idle — exactly what agent chunks fill.
const POOL_SATURATION: u64 = 4;

/// How one sweep job's trials are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheduler {
    /// One work unit per trial.
    TrialLevel,
    /// One work unit per (trial, agent chunk), reduced canonically.
    AgentLevel {
        /// Agents per chunk (>= 1).
        chunk: usize,
    },
}

impl Scheduler {
    /// Pick a scheduler for one job of `agents` agents and per-trial work
    /// proxy `weight` under `opts` with `threads` workers, inside a sweep
    /// holding `sweep_trials` trial units in total.
    ///
    /// A forced granularity (`--granularity trial|agent`) is honoured at
    /// *any* thread count — a single-worker agent-level run is how the
    /// speculation tests measure the hinted path's work deterministically.
    ///
    /// Under `Auto` the cost heuristic weighs agents × moves against
    /// trials, and a single worker always plans trial units (there is no
    /// idle worker for a chunk to fill). The shared
    /// [`CapHint`](crate::CapHint) bounds the speculation tax
    /// (speculative chunks stop within a poll interval of the serial caps
    /// once earlier chunks publish), so splitting is cheap and the policy
    /// is aggressive: a job splits into agent chunks whenever the *whole
    /// sweep's* trials cannot keep every worker [`POOL_SATURATION`] units
    /// deep (`sweep_trials < POOL_SATURATION × threads` — the pool is
    /// shared, so sibling jobs' trials keep workers busy too), the job
    /// has more agents than one chunk holds (so the split is real), and a
    /// trial is heavy enough (`weight >= 2^12`) for the per-chunk
    /// overhead to vanish.
    fn plan(
        agents: usize,
        weight: u64,
        opts: &SweepOptions,
        threads: usize,
        sweep_trials: u64,
    ) -> Scheduler {
        let chunk = opts.chunk.unwrap_or(DEFAULT_AGENT_CHUNK).max(1);
        match opts.granularity {
            Granularity::Trial => Scheduler::TrialLevel,
            Granularity::Agent => Scheduler::AgentLevel { chunk },
            Granularity::Auto
                if threads > 1
                    && agents > chunk
                    && sweep_trials < POOL_SATURATION * threads as u64
                    && weight >= AGENT_SPLIT_WEIGHT =>
            {
                Scheduler::AgentLevel { chunk }
            }
            Granularity::Auto => Scheduler::TrialLevel,
        }
    }
}

/// Plan every job of a sweep from its `(agents, weight, trials)` shape
/// and log each decision, with the weight and thresholds that drove it,
/// to the attached telemetry (cold path: once per job per sweep).
fn plan_sweep(shapes: &[(usize, u64, u64)], opts: &SweepOptions, threads: usize) -> Vec<Scheduler> {
    let sweep_trials: u64 = shapes.iter().map(|&(_, _, trials)| trials).sum();
    let chunk_or_default = opts.chunk.unwrap_or(DEFAULT_AGENT_CHUNK).max(1);
    let mut plans = Vec::with_capacity(shapes.len());
    for (job, &(agents, weight, _)) in shapes.iter().enumerate() {
        let plan = Scheduler::plan(agents, weight, opts, threads, sweep_trials);
        if let Some(t) = opts.telemetry {
            let (granularity, chunk) = match plan {
                Scheduler::TrialLevel => ("trial", chunk_or_default),
                Scheduler::AgentLevel { chunk } => ("agent", chunk),
            };
            t.record_plan(PlanDecision {
                job: job as u64,
                granularity: granularity.to_string(),
                agents: agents as u64,
                weight,
                sweep_trials,
                threads: threads as u64,
                chunk: chunk as u64,
                split_weight: AGENT_SPLIT_WEIGHT,
                saturation: POOL_SATURATION,
            });
        }
        plans.push(plan);
    }
    plans
}

/// Resolve a thread policy to a concrete count.
///
/// `None` means "all available cores"; explicit counts are honoured as
/// given (an oversubscribed count is allowed — useful for benchmarking
/// the scheduling overhead). Both are clamped to `1..=64`.
fn resolve_threads(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .clamp(1, 64)
}

/// Options for [`run_sweep_with`]: thread policy, unit-of-work policy,
/// and chunk size.
///
/// Construct with [`SweepOptions::default`] and set the public fields;
/// the hidden probe slot is test instrumentation (see [`Probe`]).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker count (`None` = all available cores), clamped to `1..=64`.
    pub threads: Option<usize>,
    /// Unit-of-work policy.
    pub granularity: Granularity,
    /// Agents per chunk for agent-level scheduling
    /// (`None` = 8 agents per chunk).
    pub chunk: Option<usize>,
    probe: Option<Arc<Probe>>,
    telemetry: Option<Telemetry>,
}

impl SweepOptions {
    /// Default options (auto granularity) with the given thread policy.
    pub fn with_threads(threads: Option<usize>) -> Self {
        Self { threads, ..Self::default() }
    }

    /// Builder-style setter for the unit-of-work policy.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Builder-style setter for the agents-per-chunk override.
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Attach a scheduling probe (test instrumentation).
    #[doc(hidden)]
    pub fn with_probe(mut self, probe: Arc<Probe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attach a telemetry handle: the sweep records pool, plan, and
    /// cap-hint counters plus per-phase span timers into it.
    ///
    /// Strictly observational — outcomes are byte-identical with or
    /// without telemetry at every thread count, granularity, and chunk
    /// size (pinned by `crates/bench/tests/telemetry.rs`). Cost when
    /// absent: one `Option` check per work *unit*, never per step.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.telemetry
    }

    fn record(&self, worker: usize, event: ProbeEvent) {
        if let Some(probe) = &self.probe {
            probe.record(worker, event);
        }
    }

    fn add_work(&self, steps: u64) {
        if let Some(probe) = &self.probe {
            probe.add_work(steps);
        }
    }
}

/// One scheduling event observed by a [`Probe`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProbeEvent {
    /// A whole-trial unit executed.
    TrialUnit {
        /// Job index within the sweep.
        job: usize,
        /// Trial index within the job.
        trial: u64,
    },
    /// One agent-chunk unit executed.
    ChunkUnit {
        /// Job index within the sweep.
        job: usize,
        /// Trial index within the job.
        trial: u64,
        /// Chunk index within the trial.
        chunk: usize,
    },
    /// An agent-level trial reduced (in canonical chunk order).
    Reduce {
        /// Job index within the sweep.
        job: usize,
        /// Trial index within the job.
        trial: u64,
        /// Number of chunks consumed by the reduction.
        chunks: usize,
    },
}

/// Test-only scheduling instrumentation: records every work unit the
/// sweep scheduler executes and every reduction it performs — a thin
/// consumer of the same per-worker event stream the telemetry layer
/// rides.
///
/// Events land in contention-free per-worker buffers (each worker only
/// ever touches its own slot, so the per-slot locks are uncontended by
/// construction — the old implementation funneled every event through
/// one global mutex) and merge on [`Probe::take`].
///
/// Attached per invocation via [`SweepOptions::with_probe`], so
/// concurrent sweeps in the same process never pollute each other. Cost
/// when absent: one `Option` check per *unit* (not per step) — no
/// production overhead.
#[doc(hidden)]
#[derive(Debug)]
pub struct Probe {
    /// One buffer per possible worker (the scheduler clamps worker
    /// counts to [`ants_obs::MAX_WORKERS`]).
    buffers: Vec<Mutex<Vec<ProbeEvent>>>,
    work: std::sync::atomic::AtomicU64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            buffers: (0..ants_obs::MAX_WORKERS).map(|_| Mutex::new(Vec::new())).collect(),
            work: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Probe {
    /// A fresh probe, ready to attach.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    fn record(&self, worker: usize, event: ProbeEvent) {
        let slot = &self.buffers[worker.min(self.buffers.len() - 1)];
        slot.lock().expect("probe poisoned").push(event);
    }

    fn add_work(&self, steps: u64) {
        self.work.fetch_add(steps, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drain the recorded events, merged in worker order (event order
    /// within a worker is execution order; across workers it is not).
    pub fn take(&self) -> Vec<ProbeEvent> {
        self.buffers
            .iter()
            .flat_map(|b| std::mem::take(&mut *b.lock().expect("probe poisoned")))
            .collect()
    }

    /// Total agent steps simulated by the units recorded so far — the
    /// work counter behind the speculation-tax tests. Under a live
    /// [`CapHint`](crate::CapHint) with concurrent workers the count is
    /// timing-dependent (earlier hints stop speculative agents sooner);
    /// with one worker it is deterministic.
    pub fn work(&self) -> u64 {
        self.work.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Run a batch of scenario sweeps across one shared thread pool, with
/// full [`SweepOptions`]: thread policy, trial- or agent-level
/// granularity, and chunk size.
///
/// Experiment harnesses sweep parameter grids (E1 runs `D × n` cells);
/// running each cell through [`crate::run_trials`] parallelises only
/// *within* a cell and joins the pool between cells, so small cells leave
/// cores idle. `run_sweep_with` flattens every cell into one work list
/// and drains it through the pool, so the whole grid finishes without
/// barriers. Results come back per job, in job order.
///
/// The determinism contract is unchanged by every option: outcomes are
/// byte-identical to `run_trials_serial` per job at every thread count,
/// granularity, and chunk size (`crates/sim/tests/determinism.rs` pins
/// this).
pub fn run_sweep_with(jobs: &[SweepJob], opts: &SweepOptions) -> Vec<Outcome> {
    enum Unit {
        Trial {
            job: usize,
            trial: u64,
            seed: u64,
        },
        /// `red` indexes the trial's pending [`Reduction`] — and
        /// therefore its shared [`CapHint`](crate::CapHint).
        Chunk {
            job: usize,
            trial: u64,
            seed: u64,
            chunk: usize,
            chunk_idx: usize,
            red: usize,
        },
    }

    /// A pending per-trial reduction: the contiguous unit range holding
    /// the trial's chunks.
    struct Reduction {
        job: usize,
        trial: u64,
        seed: u64,
        chunk: usize,
        units: std::ops::Range<usize>,
    }

    enum Out {
        Trial(TrialResult),
        Chunk(ChunkRun),
    }

    let threads = resolve_threads(opts.threads);
    let tele = opts.telemetry;

    // Flatten every job into units, in canonical (job, trial, chunk)
    // order; remember the reductions agent-level trials will need.
    let plan_span = SpanGuard::new(tele, Phase::Plan);
    let shapes: Vec<(usize, u64, u64)> = jobs
        .iter()
        .map(|j| {
            let agents = j.scenario.n_agents();
            (agents, (agents as u64).saturating_mul(j.scenario.move_budget()), j.trials)
        })
        .collect();
    let mut units: Vec<Unit> = Vec::new();
    let mut reductions: Vec<Reduction> = Vec::new();
    for (job, (j, plan)) in jobs.iter().zip(plan_sweep(&shapes, opts, threads)).enumerate() {
        let seeds = trial_seeds(j.trials, j.seed);
        match plan {
            Scheduler::TrialLevel => {
                for (trial, &seed) in seeds.iter().enumerate() {
                    units.push(Unit::Trial { job, trial: trial as u64, seed });
                }
            }
            Scheduler::AgentLevel { chunk } => {
                let n_chunks = j.scenario.n_agents().div_ceil(chunk);
                for (trial, &seed) in seeds.iter().enumerate() {
                    let start = units.len();
                    let red = reductions.len();
                    for chunk_idx in 0..n_chunks {
                        units.push(Unit::Chunk {
                            job,
                            trial: trial as u64,
                            seed,
                            chunk,
                            chunk_idx,
                            red,
                        });
                    }
                    reductions.push(Reduction {
                        job,
                        trial: trial as u64,
                        seed,
                        chunk,
                        units: start..units.len(),
                    });
                }
            }
        }
    }

    // One shared best-so-far cap hint per agent-level trial: its chunks
    // publish finds as they land and read finds from earlier chunks, so
    // speculative work stops within a poll interval of the serial caps
    // instead of running to the full budget. Purely a work saver —
    // reductions stay byte-identical (see [`crate::CapHint`]).
    let hints: Vec<crate::CapHint> =
        reductions.iter().map(|r| crate::CapHint::new(r.units.len())).collect();
    drop(plan_span);

    // Wave 1: drain all trial and chunk units through the pool.
    let execute_span = SpanGuard::new(tele, Phase::Execute);
    let outs: Vec<Out> = drain(&units, threads, tele, |w, unit| match *unit {
        Unit::Trial { job, trial, seed } => {
            opts.record(w, ProbeEvent::TrialUnit { job, trial });
            let scenario = &jobs[job].scenario;
            let plan = TrialPlan::new(scenario, seed, scenario.n_agents());
            let chunk = plan.run_chunk(0);
            opts.add_work(chunk.work());
            if let Some(t) = tele {
                t.add(w, Counter::EngineSteps, chunk.work());
                t.add(w, Counter::EngineCalls, chunk.calls());
            }
            Out::Trial(plan.reduce(std::slice::from_ref(&chunk)))
        }
        Unit::Chunk { job, trial, seed, chunk, chunk_idx, red } => {
            opts.record(w, ProbeEvent::ChunkUnit { job, trial, chunk: chunk_idx });
            let plan = TrialPlan::new(&jobs[job].scenario, seed, chunk);
            let run = plan.run_chunk_hinted(chunk_idx, &hints[red]);
            opts.add_work(run.work());
            if let Some(t) = tele {
                t.add(w, Counter::EngineSteps, run.work());
                t.add(w, Counter::EngineCalls, run.calls());
                let h = run.hint_stats();
                t.add(w, Counter::HintPolls, h.polls);
                t.add(w, Counter::HintClamps, h.clamps);
                t.add(w, Counter::HintStepsSaved, h.moves_saved);
            }
            Out::Chunk(run)
        }
    });
    drop(execute_span);

    // Wave 2: reduce agent-level trials (canonical chunk order inside
    // each reduction; reductions themselves are independent). The drain
    // runs telemetry-detached so reductions don't inflate the pool's
    // unit counters — `PoolReduces` counts them instead.
    let reduce_span = SpanGuard::new(tele, Phase::Reduce);
    let reduced: Vec<TrialResult> = drain(&reductions, threads, None, |w, r| {
        opts.record(w, ProbeEvent::Reduce { job: r.job, trial: r.trial, chunks: r.units.len() });
        if let Some(t) = tele {
            t.incr(w, Counter::PoolReduces);
        }
        let plan = TrialPlan::new(&jobs[r.job].scenario, r.seed, r.chunk);
        plan.reduce_iter(outs[r.units.clone()].iter().map(|o| match o {
            Out::Chunk(c) => c,
            Out::Trial(_) => unreachable!("trial unit inside a reduction range"),
        }))
    });
    drop(reduce_span);

    // Assemble per-job outcomes in canonical order.
    let mut per_trial: Vec<Vec<Option<TrialResult>>> =
        jobs.iter().map(|j| vec![None; j.trials as usize]).collect();
    for (unit, out) in units.iter().zip(outs) {
        if let (&Unit::Trial { job, trial, .. }, Out::Trial(t)) = (unit, out) {
            per_trial[job][trial as usize] = Some(t);
        }
    }
    for (r, t) in reductions.iter().zip(reduced) {
        per_trial[r.job][r.trial as usize] = Some(t);
    }
    per_trial
        .into_iter()
        .map(|trials| {
            Outcome::new(trials.into_iter().map(|t| t.expect("missing trial result")).collect())
        })
        .collect()
}

/// Run a batch of observed sweeps across the shared thread pool.
///
/// Returns, per job, per trial (in seed order), the trial's observations
/// (one [`Observation`](crate::observe::Observation) per requested spec,
/// in spec order). The scheduling mirrors [`run_sweep_with`], with the
/// per-trial work proxy `agents × rounds` (observed agents always run
/// the full horizon, so the round count *is* the cost): jobs are
/// flattened into (job, trial, agent-chunk) units, drained through the
/// same work-stealing pool, and each trial's chunk observations are
/// merged in canonical chunk order — byte-identical to the serial
/// [`observe_trial`](crate::observe_trial) reference at every thread
/// count, granularity, and chunk size (pinned by
/// `crates/sim/tests/observers.rs`).
pub fn run_observed_sweep(
    jobs: &[ObservedJob],
    opts: &SweepOptions,
) -> Vec<Vec<TrialObservations>> {
    /// One agent-range unit of an observed trial.
    struct ObsUnit {
        job: usize,
        seed: u64,
        first: usize,
        end: usize,
    }

    let threads = resolve_threads(opts.threads);
    let tele = opts.telemetry;

    // Flatten every job into units in canonical (job, trial, chunk)
    // order, remembering each trial's contiguous unit span.
    let plan_span = SpanGuard::new(tele, Phase::Plan);
    let shapes: Vec<(usize, u64, u64)> = jobs
        .iter()
        .map(|j| {
            let agents = j.scenario.n_agents();
            (agents, (agents as u64).saturating_mul(j.rounds), j.trials)
        })
        .collect();
    let mut units: Vec<ObsUnit> = Vec::new();
    let mut spans: Vec<(usize, u64, std::ops::Range<usize>)> = Vec::new();
    for (job, (j, plan)) in jobs.iter().zip(plan_sweep(&shapes, opts, threads)).enumerate() {
        let n_agents = j.scenario.n_agents();
        let chunk = match plan {
            Scheduler::AgentLevel { chunk } => chunk,
            // Trial-level plans observe the whole trial as one unit.
            Scheduler::TrialLevel => n_agents,
        };
        for (trial, &seed) in trial_seeds(j.trials, j.seed).iter().enumerate() {
            let start = units.len();
            let mut first = 0usize;
            while first < n_agents {
                let end = (first + chunk).min(n_agents);
                units.push(ObsUnit { job, seed, first, end });
                first = end;
            }
            spans.push((job, trial as u64, start..units.len()));
        }
    }
    drop(plan_span);

    // Wave 1: drain all chunk units through the pool.
    let execute_span = SpanGuard::new(tele, Phase::Execute);
    let outs: Vec<TrialObservations> = drain(&units, threads, tele, |_w, u| {
        let j = &jobs[u.job];
        observe_chunk(&j.scenario, u.seed, j.rounds, &j.specs, u.first, u.end)
    });
    drop(execute_span);

    // Wave 2: merge each trial's chunks in canonical order (every merge
    // is also order-independent; the canonical order makes that fact
    // unnecessary for determinism).
    let _reduce_span = SpanGuard::new(tele, Phase::Reduce);
    let mut per_trial: Vec<Vec<Option<TrialObservations>>> =
        jobs.iter().map(|j| vec![None; j.trials as usize]).collect();
    let mut outs: Vec<Option<TrialObservations>> = outs.into_iter().map(Some).collect();
    for (job, trial, span) in spans {
        let mut merged: Option<TrialObservations> = None;
        for slot in &mut outs[span] {
            let part = slot.take().expect("each unit consumed once");
            match &mut merged {
                None => merged = Some(part),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(&part) {
                        a.merge(b);
                    }
                }
            }
        }
        per_trial[job][trial as usize] = Some(merged.expect("trials have at least one chunk"));
    }
    per_trial
        .into_iter()
        .map(|trials| trials.into_iter().map(|t| t.expect("missing observed trial")).collect())
        .collect()
}

/// Deterministic parallel map over independent work units, in unit
/// order.
///
/// Every unit is claimed on its own from the shared cursor of the same
/// work-stealing pool [`run_sweep_with`] drains, so the output equals
/// `units.iter().map(f).collect()` exactly and a slow unit never holds
/// cheap ones behind it. The exact backend hands it one curve solve per
/// unit, [`crate::run_trials`] one trial seed per unit, and E4 one batch
/// of walk-sample indices per unit. Only `opts.threads` and
/// `opts.telemetry` apply: claims count in the pool counters like any
/// sweep unit, at every thread count.
pub fn map_units<T, U, F>(units: &[T], opts: &SweepOptions, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    drain(units, resolve_threads(opts.threads), opts.telemetry, |_w, unit| f(unit))
}

/// Drain `units` through `threads` workers pulling from an atomic cursor;
/// returns one output per unit, in unit order. The closure receives the
/// executing worker's index alongside the unit. A single worker runs
/// inline on the calling thread, spawning nothing.
///
/// When `tele` is attached each worker counts its own claims, steals
/// (units claimed off their static round-robin home `i % workers`),
/// cursor polls, and busy/idle wall-clock in locals, flushing once to
/// the worker's shard at exit — the hot loop gains no shared-state
/// traffic and no clock reads unless telemetry is on.
fn drain<T, U, F>(units: &[T], threads: usize, tele: Option<Telemetry>, run: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    if units.is_empty() {
        return Vec::new();
    }
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(units.len());
    // Each worker keeps (index, output) pairs for the units it claimed;
    // outputs are reassembled in unit order after the join.
    let work = |w: usize| {
        let started = tele.map(|_| Instant::now());
        let mut claimed = 0u64;
        let mut stolen = 0u64;
        let mut polls = 0u64;
        let mut busy = std::time::Duration::ZERO;
        let mut mine = Vec::new();
        loop {
            polls += 1;
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(i) else { break };
            if started.is_some() {
                claimed += 1;
                if i % workers != w {
                    stolen += 1;
                }
                let t0 = Instant::now();
                mine.push((i, run(w, unit)));
                busy += t0.elapsed();
            } else {
                mine.push((i, run(w, unit)));
            }
        }
        if let (Some(t), Some(t0)) = (tele, started) {
            let as_ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            let total_ns = as_ns(t0.elapsed());
            let busy_ns = as_ns(busy);
            t.add(w, Counter::PoolUnits, claimed);
            t.add(w, Counter::PoolSteals, stolen);
            t.add(w, Counter::PoolPolls, polls);
            t.add(w, Counter::PoolBusyNs, busy_ns);
            t.add(w, Counter::PoolIdleNs, total_ns.saturating_sub(busy_ns));
        }
        mine
    };
    let collected: Vec<Vec<(usize, U)>> = if workers == 1 {
        vec![work(0)]
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
        })
    };
    let mut slots: Vec<Option<U>> = units.iter().map(|_| None).collect();
    for (i, out) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "unit {i} executed twice");
        slots[i] = Some(out);
    }
    slots.into_iter().map(|s| s.expect("work unit never executed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_trials_serial;
    use ants_core::baselines::SpiralSearch;
    use ants_grid::TargetPlacement;

    fn spiral_scenario(d: u64, n: usize) -> Scenario {
        Scenario::builder()
            .agents(n)
            .target(TargetPlacement::Corner { distance: d })
            .move_budget(100_000)
            .strategy(|_| Box::new(SpiralSearch::new()))
            .build()
    }

    fn job(d: u64, n: usize, trials: u64, seed: u64) -> SweepJob {
        SweepJob::new(spiral_scenario(d, n), trials, seed)
    }

    /// [`Scheduler::plan`] for a sweep job, weighted like [`run_sweep_with`].
    fn plan(job: &SweepJob, opts: &SweepOptions, threads: usize, sweep_trials: u64) -> Scheduler {
        let agents = job.scenario.n_agents();
        let weight = (agents as u64).saturating_mul(job.scenario.move_budget());
        Scheduler::plan(agents, weight, opts, threads, sweep_trials)
    }

    #[test]
    fn run_sweep_matches_serial_reference() {
        let jobs: Vec<SweepJob> =
            [(3u64, 11u64), (5, 22), (7, 33)].into_iter().map(|(d, s)| job(d, 2, 6, s)).collect();
        for threads in [None, Some(1), Some(3), Some(16)] {
            let outcomes = run_sweep_with(&jobs, &SweepOptions::with_threads(threads));
            assert_eq!(outcomes.len(), jobs.len());
            for (j, outcome) in jobs.iter().zip(&outcomes) {
                let reference = run_trials_serial(&j.scenario, j.trials, j.seed);
                assert_eq!(
                    outcome.trials(),
                    reference.trials(),
                    "sweep diverged from serial at threads {threads:?}"
                );
            }
        }
    }

    #[test]
    fn run_sweep_handles_empty_and_tiny_batches() {
        assert!(run_sweep_with(&[], &SweepOptions::default()).is_empty());
        let jobs = vec![job(2, 1, 1, 9)];
        let outcomes = run_sweep_with(&jobs, &SweepOptions::with_threads(Some(8)));
        assert_eq!(outcomes[0].trials(), run_trials_serial(&jobs[0].scenario, 1, 9).trials());
    }

    #[test]
    fn granularity_round_trips() {
        for g in [Granularity::Auto, Granularity::Trial, Granularity::Agent] {
            assert_eq!(Granularity::parse(g.as_str()), Some(g));
        }
        assert_eq!(Granularity::parse("bogus"), None);
        assert_eq!(Granularity::default(), Granularity::Auto);
    }

    #[test]
    fn scheduler_plan_heuristics() {
        let opts = SweepOptions::default();
        // One worker: always trial units, even for a job that would split
        // on a pool.
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 1, 2), Scheduler::TrialLevel);
        // Many trials, light cells: trial level.
        assert_eq!(plan(&job(4, 2, 100, 0), &opts, 4, 100), Scheduler::TrialLevel);
        // Few trials, many agents: agent level.
        assert_eq!(
            plan(&job(4, 64, 2, 0), &opts, 4, 2),
            Scheduler::AgentLevel { chunk: DEFAULT_AGENT_CHUNK }
        );
        // Plenty of trials fill the pool on their own: never split (the
        // speculative chunks would multiply total work for nothing).
        assert_eq!(plan(&job(4, 64, 100, 0), &opts, 4, 100), Scheduler::TrialLevel);
        // Aggressive split: trials that keep workers less than
        // POOL_SATURATION units deep still split (15 trials on 4 workers
        // would have stayed at trial level under the pre-hint policy).
        assert_eq!(
            plan(&job(4, 64, 15, 0), &opts, 4, 15),
            Scheduler::AgentLevel { chunk: DEFAULT_AGENT_CHUNK }
        );
        // Too light a trial to split: the per-chunk scheduling overhead
        // would rival the simulation itself.
        let light = SweepJob::new(
            Scenario::builder()
                .agents(64)
                .target(TargetPlacement::Corner { distance: 2 })
                .move_budget(50)
                .strategy(|_| Box::new(SpiralSearch::new()))
                .build(),
            2,
            0,
        );
        assert_eq!(plan(&light, &opts, 4, 2), Scheduler::TrialLevel);
        // The pool is shared: a few-trial heavy job inside a sweep whose
        // siblings already provide plenty of trial units stays unsplit.
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 4, 100), Scheduler::TrialLevel);
        // Too few agents to split: stays at trial level.
        assert_eq!(plan(&job(4, 4, 2, 0), &opts, 4, 2), Scheduler::TrialLevel);
    }

    #[test]
    fn scheduler_plan_honours_forced_granularity() {
        let opts = SweepOptions::default().granularity(Granularity::Agent).chunk(3);
        assert_eq!(plan(&job(4, 2, 100, 0), &opts, 4, 100), Scheduler::AgentLevel { chunk: 3 });
        let opts = SweepOptions::default().granularity(Granularity::Trial);
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 4, 2), Scheduler::TrialLevel);
    }

    /// Regression: an explicit `--granularity agent` (or `trial`) used to
    /// be silently discarded whenever `threads <= 1` — the planner
    /// returned a serial plan before even looking at the forced
    /// granularity.
    #[test]
    fn scheduler_plan_honours_forced_granularity_on_one_worker() {
        let opts = SweepOptions::default().granularity(Granularity::Agent).chunk(3);
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 1, 2), Scheduler::AgentLevel { chunk: 3 });
        let opts = SweepOptions::default().granularity(Granularity::Trial);
        assert_eq!(plan(&job(4, 64, 2, 0), &opts, 1, 2), Scheduler::TrialLevel);
    }

    #[test]
    fn map_units_claims_every_unit_once_in_order() {
        let units: Vec<u64> = (0..37).collect();
        let reference: Vec<u64> = units.iter().map(|i| i * 7 % 13).collect();
        for threads in [1usize, 2, 4] {
            let t = ants_obs::Telemetry::new();
            let opts = SweepOptions::with_threads(Some(threads)).with_telemetry(t);
            assert_eq!(map_units(&units, &opts, |i| i * 7 % 13), reference);
            // One pool claim per unit at every thread count: a single
            // worker drains the same pool inline.
            assert_eq!(t.counter(ants_obs::Counter::PoolUnits), 37, "{threads} threads");
        }
        assert_eq!(map_units(&[] as &[u64], &SweepOptions::default(), |i| *i), Vec::<u64>::new());
    }
}
