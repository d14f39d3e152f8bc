//! `perfbench` — the repository benchmark.
//!
//! One process runs one named workload against the workspace's public
//! entry points, checks that every output is correct, and prints every
//! metric `BENCHMARK.json` declares, by name and unit:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--inject-mismatch] [--out <results.jsonl>]
//! perfbench compare <base.jsonl> <change.jsonl>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no telemetry
//! attached; `--trace 1` measures the per-layer metrics, interleaving
//! traced passes (one `ants_obs::Telemetry` handle per workload) with
//! untraced ones so the cost of tracing is itself reported. The last
//! line of stdout is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! A human-readable table (with each timing's sample count) goes to
//! stderr. `--out` appends the result, tagged with workload, seed and
//! trace flag, to a JSON-lines file that `compare` reads.

mod compare;
mod layers;
mod manifest;
mod probes;
mod stats;
mod sweep;

use manifest::Manifest;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// A run's parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and minimal pass counts (the self-test).
    pub smoke: bool,
    /// Corrupt the first recorded reference digest, so every later
    /// comparison against it must count as a failure (the self-test).
    pub inject_mismatch: bool,
    pub out: Option<PathBuf>,
}

/// Hard stop for any measurement loop, far inside the 180 s a run may
/// take even when a minimum sample count is not reached.
const HARD_CAP: Duration = Duration::from_secs(100);

/// What every pass yields for the end-to-end metrics.
#[derive(Default, Clone, Copy)]
pub struct Work {
    pub wall_s: f64,
    /// Sum of the `trials` column of the reports delivered.
    pub trials: f64,
    /// Report rows delivered.
    pub cells: f64,
    /// Spec runs completed.
    pub requests: f64,
}

/// The passes of one run, by kind.
pub struct Passes<T> {
    /// Untraced, one worker.
    pub t1: Vec<T>,
    /// Untraced, `nproc` workers.
    pub tn: Vec<T>,
    /// Traced, `nproc` workers.
    pub traced: Vec<T>,
}

/// Run passes back to back until the window closes: alternately at one
/// worker and at `nproc` (untraced run), or untraced and traced at
/// `nproc` (traced run, so drift in the host's speed hits both sides of
/// `trace_overhead_pct`). `pass(iteration, one_worker, traced)` runs
/// one pass. [`HARD_CAP`] ends any loop.
pub fn closed_loop<T>(
    args: &Args,
    mut pass: impl FnMut(u64, bool, bool) -> Result<T, String>,
) -> Result<Passes<T>, String> {
    let schedule: &[(bool, bool)] = if args.trace {
        &[(false, false), (false, true)]
    } else {
        &[(true, false), (false, false)]
    };
    let min_iterations = if args.smoke { 1 } else { 3 };
    let mut out = Passes { t1: Vec::new(), tn: Vec::new(), traced: Vec::new() };
    let start = std::time::Instant::now();
    for iteration in 0.. {
        for &(one_worker, traced) in schedule {
            let p = pass(iteration, one_worker, traced)?;
            match (traced, one_worker) {
                (true, _) => out.traced.push(p),
                (false, true) => out.t1.push(p),
                (false, false) => out.tn.push(p),
            }
        }
        let elapsed = start.elapsed();
        let closed = iteration + 1 >= min_iterations && elapsed.as_secs_f64() >= args.seconds;
        if closed || elapsed >= HARD_CAP {
            break;
        }
    }
    Ok(out)
}

/// The end-to-end metrics every workload shares (all but `setup_s` and
/// `peak_rss_mb`): medians of pass wall clock, and of per-pass
/// throughput over the `nproc` passes.
pub fn put_end_to_end(sheet: &mut Sheet, t1: &[Work], tn: &[Work]) {
    let wall = stats::median(&tn.iter().map(|p| p.wall_s).collect::<Vec<f64>>());
    let wall_t1 = stats::median(&t1.iter().map(|p| p.wall_s).collect::<Vec<f64>>());
    let per_s = |f: fn(&Work) -> f64| {
        stats::median(&tn.iter().map(|p| f(p) / p.wall_s).collect::<Vec<f64>>())
    };
    sheet.put("wall_s", wall, tn.len());
    sheet.put("wall_s.t1", wall_t1, t1.len());
    sheet.put("scaling_eff", wall_t1 / (nproc() as f64 * wall), tn.len());
    sheet.put("trials_per_s", per_s(|p| p.trials), tn.len());
    sheet.put("cells_per_s", per_s(|p| p.cells), tn.len());
    sheet.put("requests_per_s", per_s(|p| p.requests), tn.len());
}

/// `trace_overhead_pct` (traced over untraced median `nproc` pass wall,
/// as a percentage above 100) and `failed_ratio`.
pub fn put_run_totals(sheet: &mut Sheet, traced: &[Work], untraced: &[Work], ledger: &Ledger) {
    let walls = |ps: &[Work]| ps.iter().map(|p| p.wall_s).collect::<Vec<f64>>();
    let base = stats::median(&walls(untraced));
    let overhead =
        if base > 0.0 { (stats::median(&walls(traced)) / base - 1.0) * 100.0 } else { 0.0 };
    sheet.put("trace_overhead_pct", overhead, traced.len());
    sheet.put("failed_ratio", ledger.failed_ratio(), ledger.attempted as usize);
}

/// Host worker count: sweep threads are capped at this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository checkout the benchmark was built from.
pub fn checkout() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Correctness bookkeeping: every attempted operation, every failure
/// (error events, digest mismatches, differing replay bytes), and the
/// reference outputs later operations must reproduce.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    inject: bool,
    expected: std::collections::HashMap<String, String>,
    notes: Vec<String>,
}

impl Ledger {
    fn new(inject: bool) -> Ledger {
        Ledger { inject, ..Ledger::default() }
    }

    /// Count one operation; a failed one is kept with its reason.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    /// Does `output` (a digest or the bytes themselves) equal the
    /// reference for `key`? The first output seen for a key becomes its
    /// reference.
    pub fn matches(&mut self, key: &str, output: &str) -> bool {
        match self.expected.get(key) {
            Some(reference) => reference == output,
            None => {
                let reference =
                    if self.inject { format!("injected-{output}") } else { output.to_string() };
                self.expected.insert(key.to_string(), reference);
                true
            }
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload measured: metric values by name, each with the
/// number of samples behind it (1 for counts and single readings).
#[derive(Default)]
pub struct Sheet {
    entries: Vec<(String, f64, usize)>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.entries.push((name.to_string(), value, samples));
    }

    /// Mark metrics that have no meaning on this workload (the layer
    /// does no work here); they read 0.
    pub fn not_applicable(&mut self, names: &[&str]) {
        for name in names {
            self.put(name, 0.0, 0);
        }
    }

    fn get(&self, name: &str) -> Option<&(String, f64, usize)> {
        self.entries.iter().find(|(n, _, _)| n == name)
    }
}

fn usage() -> String {
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
     [--smoke] [--inject-mismatch] [--out <file>]\n       \
     perfbench compare <base.jsonl> <change.jsonl>"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut inject_mismatch = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--smoke" => smoke = true,
            "--inject-mismatch" => inject_mismatch = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        smoke,
        inject_mismatch,
        out,
    })
}

fn run_workload(args: &Args) -> Result<(), String> {
    let manifest = Manifest::load(&checkout().join("BENCHMARK.json"))?;
    if !manifest.workloads.iter().any(|w| w == &args.workload) {
        return Err(format!(
            "unknown workload '{}' (BENCHMARK.json declares: {})",
            args.workload,
            manifest.workloads.join(", ")
        ));
    }
    let mut ledger = Ledger::new(args.inject_mismatch);
    let sheet = match args.workload.as_str() {
        "mc_sweep" => sweep::run(sweep::Kind::Mc, args, &mut ledger)?,
        "exact_dp" => sweep::run(sweep::Kind::Exact, args, &mut ledger)?,
        other => return Err(format!("workload '{other}' is declared but not implemented")),
    };
    emit(args, &manifest, &sheet, &ledger)
}

/// Check the sheet against the declared metric list, print the human
/// table to stderr and the result object as the last stdout line.
fn emit(args: &Args, manifest: &Manifest, sheet: &Sheet, ledger: &Ledger) -> Result<(), String> {
    let declared = if args.trace { &manifest.per_layer } else { &manifest.end_to_end };
    for (name, value, _) in &sheet.entries {
        if !declared.iter().any(|d| &d.name == name) {
            return Err(format!("measured '{name}' is not declared in BENCHMARK.json"));
        }
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite ({value})"));
        }
    }
    let mut fields = Vec::new();
    eprintln!(
        "\n{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for d in declared {
        let (_, value, samples) =
            sheet.get(&d.name).ok_or(format!("declared metric '{}' was not measured", d.name))?;
        let n = if *samples > 1 { format!("n={samples}") } else { String::new() };
        eprintln!("  {:<28} {:>16.6} {:<6} {n}", d.name, value, d.unit);
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            d.name,
            ants_sim::json::number(*value),
            d.unit
        ));
    }
    let correct = ledger.failed == 0;
    eprintln!("  correct={correct} attempted={} failed={}", ledger.attempted, ledger.failed);
    for note in &ledger.notes {
        eprintln!("  failure: {note}");
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ledger.attempted,
        ledger.failed,
        fields.join(",")
    );
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(
            f,
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{result}}}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        compare::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run_workload(&args).map(|()| 0))
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
