//! The shared experiment runner: wall-clock stamping, JSON report files,
//! and the flag parsing behind `ants run`/`ants all`.

use crate::experiments::{self, Effort, Experiment, Report, RunConfig};
use ants_sim::Granularity;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default directory for machine-readable reports, relative to the
/// working directory.
pub const REPORT_DIR: &str = "target/reports";

/// Runs experiments under one [`RunConfig`], stamping wall-clock times.
pub struct Runner {
    cfg: RunConfig,
}

impl Runner {
    /// A runner with the given configuration.
    pub fn new(cfg: RunConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this runner applies.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// Run one experiment and stamp its wall-clock time.
    pub fn run(&self, exp: &dyn Experiment) -> Report {
        let start = Instant::now();
        let mut report = exp.run(&self.cfg);
        report.set_wall_ms(start.elapsed().as_secs_f64() * 1e3);
        report
    }

    /// Run the whole battery, in registry order.
    pub fn run_all(&self) -> Vec<Report> {
        experiments::all().iter().map(|e| self.run(e.as_ref())).collect()
    }

    /// Write a report's JSON document to `dir/<key>.json` (creating the
    /// directory), returning the path.
    pub fn write_json(report: &Report, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", report.key()));
        std::fs::write(&path, report.to_json())?;
        Ok(path)
    }
}

/// Flags shared by `ants run`/`ants all`.
#[derive(Debug, Clone)]
pub struct Flags {
    /// Effort, seed, and thread policy (plus the telemetry handle when
    /// `--telemetry` asked for one).
    pub cfg: RunConfig,
    /// `--json`: write `target/reports/<key>.json`.
    pub json: bool,
    /// `--csv`: print the table as CSV after the text rendering.
    pub csv: bool,
    /// `--telemetry <path>`: where to write the NDJSON snapshot after
    /// the run. `Some` iff `cfg.telemetry` is `Some`.
    pub telemetry: Option<String>,
}

/// Parse the common run flags: `--smoke`, `--effort smoke|standard`,
/// `--seed N`, `--threads K`, `--granularity auto|trial|agent`,
/// `--chunk N`, `--metrics a,b,...`, `--backend mc|dp`, `--json`,
/// `--csv`, `--telemetry <path>`.
///
/// Unknown arguments are an error (callers print usage).
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut cfg = RunConfig::standard();
    let mut json = false;
    let mut csv = false;
    let mut telemetry = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => cfg.effort = Effort::Smoke,
            "--effort" => {
                let v = it.next().ok_or("--effort needs a value (smoke|standard)")?;
                cfg.effort = Effort::parse(v).ok_or(format!("unknown effort '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.base_seed = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let t: usize = v.parse().map_err(|_| format!("invalid thread count '{v}'"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cfg.threads = Some(t);
            }
            "--granularity" => {
                let v = it.next().ok_or("--granularity needs a value (auto|trial|agent)")?;
                cfg.granularity =
                    Granularity::parse(v).ok_or(format!("unknown granularity '{v}'"))?;
            }
            "--chunk" => {
                let v = it.next().ok_or("--chunk needs a value")?;
                let c: usize = v.parse().map_err(|_| format!("invalid chunk size '{v}'"))?;
                if c == 0 {
                    return Err("--chunk must be at least 1".into());
                }
                cfg.chunk = Some(c);
            }
            "--metrics" => {
                let v = it
                    .next()
                    .ok_or("--metrics needs a comma-separated list (e.g. coverage,first_visit)")?;
                cfg.metrics = cfg.metrics.union(ants_sim::MetricSet::parse_list(v)?);
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a value (mc|dp)")?;
                cfg.backend = Some(
                    ants_dp::Backend::parse(v)
                        .ok_or(format!("unknown backend '{v}' (allowed: mc, dp)"))?,
                );
            }
            "--json" => json = true,
            "--csv" => csv = true,
            "--telemetry" => {
                let v = it.next().ok_or("--telemetry needs a path (NDJSON snapshot)")?;
                telemetry = Some(v.clone());
                cfg.telemetry = Some(ants_obs::Telemetry::new());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Flags { cfg, json, csv, telemetry })
}

/// Print a finished report and honour the `--csv`/`--json` flags:
/// CSV after the text table, JSON to [`REPORT_DIR`] (exits with status 1
/// if the file cannot be written).
pub fn emit(report: &Report, csv: bool, json: bool) {
    print!("{report}");
    if csv {
        print!("{}", report.to_csv());
    }
    if json {
        match Runner::write_json(report, Path::new(REPORT_DIR)) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write JSON report: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// [`emit`] under a parsed [`Flags`]: the rendering-and-writing step is
/// timed against the telemetry `report` phase when a handle is attached
/// (and costs nothing — no clock read — when it is not).
pub fn emit_for(report: &Report, flags: &Flags) {
    let _span = ants_obs::SpanGuard::new(flags.cfg.telemetry, ants_obs::Phase::Report);
    emit(report, flags.csv, flags.json);
}

/// Honour `--telemetry <path>`: freeze the handle the flags attached
/// into a snapshot and write it as schema-versioned NDJSON. A no-op
/// without the flag; exits with status 1 if the file cannot be written.
/// The confirmation line rides stderr so stdout stays byte-identical to
/// a telemetry-free run.
pub fn write_telemetry(flags: &Flags) {
    let (Some(tele), Some(path)) = (flags.cfg.telemetry, flags.telemetry.as_deref()) else {
        return;
    };
    let path = Path::new(path);
    let write = || -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, tele.snapshot().to_ndjson())
    };
    match write() {
        Ok(()) => eprintln!("telemetry: wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write telemetry snapshot {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_surface() {
        let f = parse_flags(&args(&[
            "--smoke",
            "--seed",
            "42",
            "--threads",
            "3",
            "--granularity",
            "agent",
            "--chunk",
            "4",
            "--json",
        ]))
        .expect("valid flags");
        assert_eq!(f.cfg.effort, Effort::Smoke);
        assert_eq!(f.cfg.base_seed, 42);
        assert_eq!(f.cfg.threads, Some(3));
        assert_eq!(f.cfg.granularity, Granularity::Agent);
        assert_eq!(f.cfg.chunk, Some(4));
        assert!(f.json);
        assert!(!f.csv);
        assert!(f.telemetry.is_none() && f.cfg.telemetry.is_none());
    }

    /// `--telemetry <path>` both records the destination and attaches a
    /// live handle to the config, so every sweep the config induces is
    /// instrumented.
    #[test]
    fn telemetry_flag_attaches_a_handle() {
        let f = parse_flags(&args(&["--telemetry", "target/t.ndjson"])).unwrap();
        assert_eq!(f.telemetry.as_deref(), Some("target/t.ndjson"));
        assert!(f.cfg.telemetry.is_some());
        assert!(parse_flags(&args(&["--telemetry"])).is_err());
    }

    /// `write_telemetry` produces a parseable schema-versioned snapshot
    /// (and is a no-op when the flag was absent).
    #[test]
    fn write_telemetry_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ants-tele-test-{}", std::process::id()));
        let path = dir.join("snap.ndjson");
        let mut f = parse_flags(&args(&["--telemetry", &path.display().to_string()])).unwrap();
        f.cfg.telemetry.unwrap().add(0, ants_obs::Counter::PoolUnits, 7);
        write_telemetry(&f);
        let text = std::fs::read_to_string(&path).expect("snapshot written");
        let snap = ants_obs::Snapshot::parse_ndjson(&text).expect("parseable");
        assert_eq!(snap.counter(ants_obs::Counter::PoolUnits), 7);
        f.telemetry = None;
        f.cfg.telemetry = None;
        write_telemetry(&f); // must not panic or write anything
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn granularity_defaults_to_auto_and_parses_all_values() {
        assert_eq!(parse_flags(&[]).unwrap().cfg.granularity, Granularity::Auto);
        for (v, want) in [
            ("auto", Granularity::Auto),
            ("trial", Granularity::Trial),
            ("agent", Granularity::Agent),
        ] {
            let f = parse_flags(&args(&["--granularity", v])).unwrap();
            assert_eq!(f.cfg.granularity, want);
            assert_eq!(f.cfg.chunk, None);
        }
    }

    #[test]
    fn effort_flag_overrides_default() {
        let f = parse_flags(&args(&["--effort", "smoke", "--csv"])).unwrap();
        assert_eq!(f.cfg.effort, Effort::Smoke);
        assert!(f.csv);
        let f = parse_flags(&args(&["--effort", "standard"])).unwrap();
        assert_eq!(f.cfg.effort, Effort::Standard);
    }

    #[test]
    fn metrics_flag_builds_a_set() {
        use ants_sim::Metric;
        let f = parse_flags(&args(&["--metrics", "coverage,found_round"])).unwrap();
        assert!(f.cfg.metrics.contains(Metric::Coverage));
        assert!(f.cfg.metrics.contains(Metric::FoundRound));
        assert!(!f.cfg.metrics.contains(Metric::Chi));
        // Repeated flags accumulate.
        let f = parse_flags(&args(&["--metrics", "coverage", "--metrics", "chi"])).unwrap();
        assert!(f.cfg.metrics.contains(Metric::Coverage) && f.cfg.metrics.contains(Metric::Chi));
        assert!(parse_flags(&[]).unwrap().cfg.metrics.is_empty());
        assert!(parse_flags(&args(&["--metrics"])).is_err());
        let e = parse_flags(&args(&["--metrics", "warp"])).unwrap_err();
        assert!(e.contains("unknown metric 'warp'"), "{e}");
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknowns() {
        assert_eq!(parse_flags(&[]).unwrap().cfg.backend, None);
        let f = parse_flags(&args(&["--backend", "dp"])).unwrap();
        assert_eq!(f.cfg.backend, Some(ants_dp::Backend::Dp));
        let f = parse_flags(&args(&["--backend", "mc"])).unwrap();
        assert_eq!(f.cfg.backend, Some(ants_dp::Backend::Mc));
        assert!(parse_flags(&args(&["--backend"])).is_err());
        let e = parse_flags(&args(&["--backend", "exact"])).unwrap_err();
        assert!(e.contains("unknown backend 'exact'"), "{e}");
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_flags(&args(&["--bogus"])).is_err());
        assert!(parse_flags(&args(&["--seed"])).is_err());
        assert!(parse_flags(&args(&["--seed", "x"])).is_err());
        assert!(parse_flags(&args(&["--effort", "publication"])).is_err());
        assert!(parse_flags(&args(&["--threads", "0"])).is_err());
        assert!(parse_flags(&args(&["--granularity"])).is_err());
        assert!(parse_flags(&args(&["--granularity", "cell"])).is_err());
        assert!(parse_flags(&args(&["--chunk"])).is_err());
        assert!(parse_flags(&args(&["--chunk", "0"])).is_err());
        assert!(parse_flags(&args(&["--chunk", "x"])).is_err());
    }

    #[test]
    fn runner_stamps_wall_clock_and_writes_json() {
        let exp = crate::experiments::find("e3").expect("e3 registered");
        let report = Runner::new(RunConfig::smoke()).run(exp.as_ref());
        assert!(report.wall_ms().is_finite() && report.wall_ms() >= 0.0);
        let dir = std::env::temp_dir().join(format!("ants-report-test-{}", std::process::id()));
        let path = Runner::write_json(&report, &dir).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed = ants_sim::json::Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("e3"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
