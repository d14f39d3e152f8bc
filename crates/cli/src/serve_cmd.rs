//! `ants serve` (daemon) and `ants query` (client) — the CLI front end
//! of the content-addressed workload service in `ants-serve`.
//!
//! Output routing in `query` is deliberate: protocol chatter (`status`,
//! `error`, human gate summaries) goes to stderr, while the response
//! *body* — cell and report event lines, stats, the raw gate event —
//! goes to stdout. A cache-hit contract check is therefore one shell
//! line: submit twice, compare stdouts byte for byte.

use ants_serve::protocol::{Op, Request};
use ants_serve::{discover_addr, request_streamed, ServeOptions, Server};
use ants_sim::json::Json;
use ants_sim::Granularity;
use std::path::{Path, PathBuf};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `ants serve --cache DIR [--listen ADDR] [--commit H] [--threads K]
/// [--granularity auto|trial|agent] [--chunk N]`
///
/// Runs until a `shutdown` request arrives. The commit id falls back to
/// `$ANTS_COMMIT`, then `"local"` — same resolution order as `trend
/// --record`.
pub fn serve(args: &[String]) {
    let mut cache: Option<PathBuf> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut commit: Option<String> = None;
    let mut opts_threads: Option<usize> = None;
    let mut granularity = Granularity::Auto;
    let mut chunk: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => fail(&format!("{name} needs a value")),
            }
        };
        match arg.as_str() {
            "--cache" => cache = Some(PathBuf::from(value("--cache"))),
            "--listen" => listen = value("--listen"),
            "--commit" => commit = Some(value("--commit")),
            "--threads" => {
                let v = value("--threads");
                match v.parse() {
                    Ok(t) if t > 0 => opts_threads = Some(t),
                    _ => fail(&format!("invalid thread count '{v}'")),
                }
            }
            "--granularity" => {
                let v = value("--granularity");
                granularity = Granularity::parse(&v)
                    .unwrap_or_else(|| fail(&format!("unknown granularity '{v}'")));
            }
            "--chunk" => {
                let v = value("--chunk");
                match v.parse() {
                    Ok(c) if c > 0 => chunk = Some(c),
                    _ => fail(&format!("invalid chunk size '{v}'")),
                }
            }
            other => fail(&format!("unknown `ants serve` argument '{other}'")),
        }
    }
    let Some(cache) = cache else {
        fail("`ants serve` needs --cache <dir> (the content-addressed result store)")
    };
    let commit = commit
        .or_else(|| std::env::var("ANTS_COMMIT").ok().filter(|c| !c.is_empty()))
        .unwrap_or_else(|| "local".to_string());
    let opts = ServeOptions { cache, commit, threads: opts_threads, granularity, chunk };
    let cache_display = opts.cache.display().to_string();
    let commit_display = opts.commit.clone();
    let server = Server::bind(opts, &listen).unwrap_or_else(|e| fail(&e));
    println!(
        "listening on {} (cache {cache_display}, commit {commit_display})",
        server.local_addr()
    );
    if let Err(e) = server.run() {
        fail(&e);
    }
}

/// `ants query <submit|gate|stats|shutdown> [spec.toml] [--addr A |
/// --cache DIR] [--smoke | --effort E] [--seed N] [--metrics a,b]
/// [--backend mc|dp]`
pub fn query(args: &[String]) {
    let Some(op) = args.first().and_then(|v| Op::parse(v)) else {
        fail("`ants query` needs an op first: submit, gate, stats, or shutdown")
    };
    let mut rest = &args[1..];
    let mut req = Request::bare(op);
    if matches!(op, Op::Submit | Op::Gate) {
        let Some(file) = rest.first().filter(|a| !a.starts_with("--")) else {
            fail(&format!("`ants query {}` needs a spec file first", op.as_str()))
        };
        req.spec = std::fs::read_to_string(Path::new(file))
            .unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")));
        rest = &rest[1..];
    }
    let mut addr: Option<String> = None;
    let mut cache: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => fail(&format!("{name} needs a value")),
            }
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--cache" => cache = Some(PathBuf::from(value("--cache"))),
            "--smoke" => req.effort = ants_bench::Effort::Smoke,
            "--effort" => {
                let v = value("--effort");
                req.effort = ants_bench::Effort::parse(&v)
                    .unwrap_or_else(|| fail(&format!("unknown effort '{v}'")));
            }
            "--seed" => {
                let v = value("--seed");
                req.seed = v.parse().unwrap_or_else(|_| fail(&format!("invalid seed '{v}'")));
            }
            "--metrics" => {
                let v = value("--metrics");
                req.metrics = req
                    .metrics
                    .union(ants_sim::MetricSet::parse_list(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--backend" => {
                let v = value("--backend");
                req.backend = Some(
                    ants_dp::Backend::parse(&v)
                        .unwrap_or_else(|| fail(&format!("unknown backend '{v}' (mc|dp)"))),
                );
            }
            other => fail(&format!("unknown `ants query` argument '{other}'")),
        }
    }
    let addr = match (addr, cache) {
        (Some(a), None) => a,
        (None, Some(c)) => discover_addr(&c).unwrap_or_else(|e| fail(&e)),
        (Some(_), Some(_)) => fail("--addr and --cache are mutually exclusive"),
        (None, None) => fail("`ants query` needs --addr <host:port> or --cache <dir>"),
    };
    let mut exit = 0;
    let outcome = request_streamed(&addr, &req, |line| {
        route_line(line, &mut exit);
    });
    if let Err(e) = outcome {
        fail(&format!("cannot reach daemon at {addr}: {e}"));
    }
    std::process::exit(exit);
}

/// Route one response line: body to stdout, chatter to stderr, exit
/// code from `error` and failed `gate` events.
fn route_line(line: &str, exit: &mut i32) {
    let event = Json::parse(line).ok().and_then(|doc| {
        doc.get("event").and_then(Json::as_str).map(str::to_owned).map(|e| (e, doc))
    });
    match event {
        Some((ref ev, ref doc)) if ev == "status" => {
            let cached = doc.get("cached") == Some(&Json::Bool(true));
            let key = doc.get("key").and_then(Json::as_str).unwrap_or("?");
            eprintln!("{} {key}", if cached { "cache hit " } else { "cache miss" });
        }
        Some((ref ev, ref doc)) if ev == "error" => {
            let msg = doc.get("message").and_then(Json::as_str).unwrap_or(line);
            eprintln!("error: {msg}");
            *exit = 1;
        }
        Some((ref ev, ref doc)) if ev == "stats" => {
            // The machine-readable line is the body; the human table
            // rides stderr like all other chatter, so scripted
            // consumers keep a single-line JSON contract.
            println!("{line}");
            stats_table(doc);
        }
        Some((ref ev, ref doc)) if ev == "gate" => {
            // The raw event is the machine-readable record; the human
            // summary rides stderr.
            println!("{line}");
            let pass = doc.get("pass") == Some(&Json::Bool(true));
            let violations =
                doc.get("violations").and_then(Json::as_array).map_or(0, <[Json]>::len);
            if let Some(note) = doc.get("note").and_then(Json::as_str) {
                eprintln!("gate: {note}");
            }
            if pass {
                eprintln!("gate: pass ({violations} violation(s))");
            } else {
                eprintln!("gate: FAIL ({violations} violation(s))");
                *exit = 1;
            }
        }
        _ => println!("{line}"),
    }
}

/// Render the `stats` event's `telemetry` block as a human-readable
/// table on stderr. Absent or partial blocks degrade gracefully (an
/// older daemon simply prints fewer rows).
fn stats_table(doc: &Json) {
    use ants_sim::report::Table;
    let num = |node: Option<&Json>, key: &str| -> Option<f64> {
        node.and_then(|n| n.get(key)).and_then(Json::as_number)
    };
    let int = |node: Option<&Json>, key: &str| -> String {
        num(node, key).map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
    };
    let tele = doc.get("telemetry");
    let serve = tele.and_then(|t| t.get("serve"));
    let pool = tele.and_then(|t| t.get("pool"));
    let engine = tele.and_then(|t| t.get("engine"));

    let mut t = Table::new(vec!["stat", "value"]);
    for key in ["requests", "hits", "misses", "pool_work", "entries"] {
        t.row(vec![key.to_string(), int(Some(doc), key)]);
    }
    if let Some(uptime) = num(serve, "uptime_ns") {
        t.row(vec!["uptime_s".to_string(), format!("{:.1}", uptime / 1e9)]);
    }
    t.row(vec!["cache_bytes".to_string(), int(serve, "cache_bytes")]);
    for (label, node, key) in [
        ("pool units", pool, "units"),
        ("pool steals", pool, "steals"),
        ("pool reduces", pool, "reduces"),
        ("engine steps", engine, "steps"),
        ("hint steps saved", engine, "hint_steps_saved"),
    ] {
        t.row(vec![label.to_string(), int(node, key)]);
    }
    for kind in ["hit", "miss"] {
        if let Some((count, median)) = latency_summary(serve, kind) {
            t.row(vec![format!("{kind} latency (median)"), format!("~{median} ({count} obs)")]);
        }
    }
    eprint!("\n{t}");
}

/// Count and approximate median of a log2-ns latency histogram: the
/// bucket holding the middle observation, rendered as a human duration.
fn latency_summary(serve: Option<&Json>, kind: &str) -> Option<(u64, String)> {
    let hist = serve?.get(&format!("{kind}_latency_ns"))?.as_array()?;
    let counts: Vec<u64> =
        hist.iter().map(|v| v.as_number().unwrap_or(0.0).max(0.0) as u64).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let mut seen = 0u64;
    let bucket = counts.iter().position(|&c| {
        seen += c;
        seen * 2 > total
    })?;
    let ns = (1u64 << bucket.min(63)) as f64;
    let human = if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.0}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.0}ms", ns / 1e6)
    } else {
        format!("{:.1}s", ns / 1e9)
    };
    Some((total, human))
}
