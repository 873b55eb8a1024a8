//! `pdl` — command-line companion for Platform Description Language files.
//!
//! ```text
//! pdl validate <file>                 parse + schema + model validation
//! pdl show <file>                     render the platform tree
//! pdl discover                        emit a PDL descriptor for this host
//! pdl catalog [dir]                   list the descriptor catalog
//! pdl query <file> <selector>         evaluate a selector (e.g. //Worker[@ARCHITECTURE='gpu'])
//! pdl groups <file> <expr>            resolve a logic-group set expression
//! pdl route <file> <from> <to> <MB>   derive the data path between two PUs
//! pdl diff <old> <new>                compare two descriptor snapshots
//! pdl simulate <file> [N] [TILE]      simulate a tiled DGEMM on the platform
//! pdl check [--json] [--platform P]... <file>...
//!                                     run all static-analysis passes
//! pdl profile [--folded F] [--json F] <trace.json>
//!                                     critical-path profile of a run trace
//! pdl perf-diff [--json F] <base.trace.json> <head.trace.json>
//!                                     attribute the wall-time delta between
//!                                     two runs to blame categories
//! pdl model-check [--json F] [--pending N] [--mutate M]
//!                                     exhaustively explore the coherence
//!                                     protocol over bounded platforms
//! ```

use hetero_rt::prelude::*;
use pdl_core::platform::Platform;
use simhw::machine::SimMachine;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        Some("discover") => cmd_discover(),
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("groups") => cmd_groups(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("perf-diff") => cmd_perf_diff(&args[1..]),
        Some("model-check") => cmd_model_check(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try `pdl help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pdl: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "pdl — Platform Description Language toolkit

USAGE:
  pdl validate <file>                 parse + schema + model validation
  pdl show <file>                     render the platform tree
  pdl discover                        emit a PDL descriptor for this host
  pdl catalog [dir]                   list the descriptor catalog
  pdl query <file> <selector>         evaluate a selector
  pdl groups <file> <expr>            resolve a logic-group expression
  pdl route <file> <from> <to> <MB>   derive a data path
  pdl diff <old> <new>                compare two descriptors
  pdl simulate <file> [N] [TILE]      simulate a tiled DGEMM on the platform
  pdl check [--json] [--platform P]... <file>...
                                      run all static-analysis passes (see
                                      docs/ANALYSIS.md for diagnostic codes)
  pdl profile [--folded F] [--json F] <trace.json>
                                      critical-path profile of an exported
                                      run trace: blame split, what-ifs;
                                      --folded writes flamegraph stacks
  pdl perf-diff [--json F] [--telemetry-base F --telemetry-head F]
                <base.trace.json> <head.trace.json>
                                      decompose the wall-time delta between
                                      two runs into blame categories (sums
                                      exactly to the measured delta), plus
                                      telemetry shifts and head-run
                                      anomalies (A-series, docs/ANALYSIS.md)
  pdl model-check [--json F] [--pending N] [--mutate M]
                                      exhaustively explore the data layer's
                                      coherence protocol over bounded
                                      platform configs, checking the five
                                      M-series invariants (docs/MODEL.md);
                                      --mutate injects a named bug to
                                      validate the gate (m001..m005)

Builtin platform names (xeon-x5550-8core, xeon-x5550-gtx480-gtx285,
cell-be, …) are accepted wherever a <file> is expected."
    );
}

/// Loads a platform from a file path, or by builtin catalog name.
fn load(path_or_name: &str) -> Result<Platform, String> {
    if std::path::Path::new(path_or_name).exists() {
        let xml = std::fs::read_to_string(path_or_name)
            .map_err(|e| format!("cannot read {path_or_name}: {e}"))?;
        return pdl_xml::from_xml(&xml).map_err(|e| e.to_string());
    }
    pdl_discover::catalog::Catalog::with_builtin_platforms()
        .get(path_or_name)
        .cloned()
        .ok_or_else(|| format!("{path_or_name}: no such file or builtin platform"))
}

fn need<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument: {what}"))
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let file = need(args, 0, "<file>")?;
    let platform = load(file)?;
    let issues = platform.issues();
    if issues.is_empty() {
        println!(
            "{file}: valid ({} PUs, {} interconnects, schema v{})",
            platform.len(),
            platform.interconnects().len(),
            platform.schema_version
        );
        Ok(())
    } else {
        for i in &issues {
            eprintln!("  - {i}");
        }
        Err(format!("{file}: {} issue(s)", issues.len()))
    }
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let platform = load(need(args, 0, "<file>")?)?;
    print!("{platform}");
    println!("patterns: {:?}", pdl_query::detected_patterns(&platform));
    Ok(())
}

fn cmd_discover() -> Result<(), String> {
    let platform = pdl_discover::discover_host().ok_or("host discovery requires /proc (Linux)")?;
    print!("{}", pdl_xml::to_xml(&platform));
    Ok(())
}

fn cmd_catalog(args: &[String]) -> Result<(), String> {
    let catalog = match args.first() {
        Some(dir) => pdl_discover::catalog::Catalog::load_from_dir(std::path::Path::new(dir))
            .map_err(|e| e.to_string())?,
        None => pdl_discover::catalog::Catalog::with_builtin_platforms(),
    };
    for (name, p) in catalog.iter() {
        println!(
            "{name:<30} {:>4} PUs  height {}  {:?}",
            p.total_units(),
            p.height(),
            pdl_query::detected_patterns(p)
        );
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let platform = load(need(args, 0, "<file>")?)?;
    let selector = need(args, 1, "<selector>")?;
    let hits = pdl_query::query(&platform, selector).map_err(|e| e.to_string())?;
    for idx in &hits {
        println!("{}", platform.pu(*idx));
    }
    println!("({} match(es))", hits.len());
    Ok(())
}

fn cmd_groups(args: &[String]) -> Result<(), String> {
    let platform = load(need(args, 0, "<file>")?)?;
    let expr = need(args, 1, "<expr>")?;
    let members = pdl_query::resolve_groups(&platform, expr).map_err(|e| e.to_string())?;
    for idx in &members {
        println!("{}", platform.pu(*idx));
    }
    println!("({} member(s))", members.len());
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let platform = load(need(args, 0, "<file>")?)?;
    let from = need(args, 1, "<from>")?;
    let to = need(args, 2, "<to>")?;
    let mb: f64 = need(args, 3, "<MB>")?
        .parse()
        .map_err(|_| "size must be a number (MB)".to_string())?;
    if !(mb.is_finite() && mb >= 0.0) {
        return Err(format!(
            "<MB> must be a finite size of at least 0, got {mb}"
        ));
    }
    // The search reads an infinite time as "unreachable". A size is below
    // the rounded quotient exactly when its byte count is finite.
    let bytes = mb * 1e6;
    if !bytes.is_finite() {
        let limit = f64::MAX / 1e6;
        return Err(format!(
            "<MB> must be below {limit:e}, where its byte count stops being finite; got {mb:e}"
        ));
    }
    match pdl_query::route(&platform, from, to, bytes) {
        None => Err(format!("no data path from {from:?} to {to:?}")),
        Some(r) => {
            for hop in &r.hops {
                let ic = &platform.interconnects()[hop.ic_index];
                println!(
                    "  {} -> {}  via {}  ({:.3} ms)",
                    hop.from,
                    hop.to,
                    ic.ic_type,
                    hop.time_s * 1e3
                );
            }
            println!(
                "total: {:.3} ms, bottleneck {:.2} GB/s, latency {:.1} us",
                r.time_s * 1e3,
                r.bottleneck_bps / 1e9,
                r.latency_s * 1e6
            );
            Ok(())
        }
    }
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let old = load(need(args, 0, "<old>")?)?;
    let new = load(need(args, 1, "<new>")?)?;
    let changes = pdl_query::diff(&old, &new);
    if changes.is_empty() {
        println!("identical");
    } else {
        for c in &changes {
            println!("{c}");
        }
        println!("({} change(s))", changes.len());
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut platforms = Vec::new();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--platform" => {
                platforms.push(load(it.next().ok_or("--platform needs a value")?.as_str())?);
            }
            other => files.push(other.to_string()),
        }
    }
    if files.is_empty() {
        return Err("missing argument: <file>".into());
    }
    let mut errors = 0;
    let mut warnings = 0;
    for file in &files {
        let contents =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let report = pdl_analyze::analyze_source_file(file, &contents, &platforms)?;
        errors += report.error_count();
        warnings += report.warning_count();
        if json {
            println!("{}", pdl_analyze::render_json(&report));
        } else if report.is_empty() {
            println!("{file}: clean");
        } else {
            println!("{}", report.render());
        }
    }
    if errors > 0 {
        Err(format!("{errors} error(s), {warnings} warning(s)"))
    } else {
        Ok(())
    }
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use hetero_trace::profile;

    let mut folded_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--folded" => {
                folded_out = Some(it.next().ok_or("--folded needs a path")?.to_string());
            }
            "--json" => json_out = Some(it.next().ok_or("--json needs a path")?.to_string()),
            other => file = Some(other.to_string()),
        }
    }
    let file = file.ok_or("missing argument: <trace.json>")?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let (trace, deps) = hetero_trace::codec::parse(&text)?;
    let p = profile::critical_path(&trace, &deps)?;

    let unit = trace.meta.time_unit.label();
    println!(
        "critical path: {} ns ({unit}), makespan {} ns, {} steps",
        p.critical_path_ns(),
        p.makespan_ns,
        p.steps.len()
    );
    println!("blame:");
    for b in &p.blame {
        println!(
            "  {:>6.1}%  {:>12} ns  {}",
            b.share * 100.0,
            b.ns,
            b.category
        );
    }
    let chain = p.chain_tasks();
    let shown = chain.len().min(12);
    println!(
        "chain ({} task(s)): {}{}",
        chain.len(),
        chain[..shown].join(" -> "),
        if chain.len() > shown { " -> …" } else { "" }
    );
    if !p.what_ifs.is_empty() {
        println!("what-if (first-order bounds):");
        for w in &p.what_ifs {
            println!(
                "  {:<40} saves {:>10} ns -> est. makespan {} ns",
                w.description, w.saving_ns, w.estimated_makespan_ns
            );
        }
    }
    if let Some(path) = folded_out {
        std::fs::write(&path, profile::folded_stacks(&trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("folded stacks written to {path}");
    }
    if let Some(path) = json_out {
        std::fs::write(&path, profile::to_json(&p).to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("profile JSON written to {path}");
    }
    Ok(())
}

fn cmd_perf_diff(args: &[String]) -> Result<(), String> {
    use hetero_trace::anomaly::{detect, AnomalyConfig};
    use hetero_trace::json::Json;

    let mut json_out: Option<String> = None;
    let mut telemetry_base: Option<String> = None;
    let mut telemetry_head: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_out = Some(it.next().ok_or("--json needs a path")?.to_string()),
            "--telemetry-base" => {
                telemetry_base = Some(
                    it.next()
                        .ok_or("--telemetry-base needs a path")?
                        .to_string(),
                );
            }
            "--telemetry-head" => {
                telemetry_head = Some(
                    it.next()
                        .ok_or("--telemetry-head needs a path")?
                        .to_string(),
                );
            }
            other => files.push(other.to_string()),
        }
    }
    let [base_path, head_path] = files.as_slice() else {
        return Err(
            "perf-diff needs exactly two traces: <base.trace.json> <head.trace.json>".into(),
        );
    };
    let load_trace = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        hetero_trace::codec::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, base_deps) = load_trace(base_path)?;
    let (head, head_deps) = load_trace(head_path)?;
    let mut diff = hetero_trace::diff::perf_diff(&base, &base_deps, &head, &head_deps)?;

    if telemetry_base.is_some() || telemetry_head.is_some() {
        let load_json = |path: &Option<String>| match path {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            }
            None => Ok(Json::Obj(Vec::new())),
        };
        diff.merge_telemetry_json(&load_json(&telemetry_base)?, &load_json(&telemetry_head)?);
    }

    print!("{}", diff.render_table());
    let anomalies = detect(&head, &AnomalyConfig::default());
    if !anomalies.is_empty() {
        println!("head-run anomalies:");
        for a in &anomalies {
            println!("  {} [{}]: {}", a.code, a.subject, a.message);
        }
    }
    if let Some(path) = json_out {
        std::fs::write(&path, diff.to_json().to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("perf-diff JSON written to {path}");
    }
    Ok(())
}

fn cmd_model_check(args: &[String]) -> Result<(), String> {
    use hetero_model::explore::Bounds;
    use hetero_model::model::Mutation;

    let mut json_out: Option<String> = None;
    let mut mutation = Mutation::None;
    let mut bounds = Bounds::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_out = Some(it.next().ok_or("--json needs a path")?.to_string()),
            "--pending" => {
                bounds.max_pending = it
                    .next()
                    .ok_or("--pending needs a value")?
                    .parse()
                    .map_err(|_| "--pending must be a number".to_string())?;
                // A bound of 0 admits no access: nothing would be checked.
                if bounds.max_pending == 0 {
                    return Err("--pending must be 1 or more: 0 admits no access to check".into());
                }
                // The largest bound that finishes: 2 explores 880 333 states;
                // 3 grew past 2.8 GB without finishing.
                const MAX_PENDING: usize = 2;
                if bounds.max_pending > MAX_PENDING {
                    return Err(format!(
                        "--pending must be at most {MAX_PENDING}: a larger bound does not finish"
                    ));
                }
            }
            "--mutate" => {
                let name = it.next().ok_or("--mutate needs a value")?;
                mutation = Mutation::parse(name)
                    .ok_or_else(|| format!("unknown mutation {name:?} (try m001..m005)"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    let configs = pdl_analyze::bounded_configs();
    let start = std::time::Instant::now();
    let (report, outcomes) = pdl_analyze::check_configs(&configs, &bounds, mutation);
    let elapsed = start.elapsed().as_secs_f64();

    for o in &outcomes {
        println!(
            "{:<20} {:>9} states  {:>10} transitions  {}",
            o.config,
            o.exploration.states,
            o.exploration.transitions,
            if o.exploration.violation.is_some() {
                "VIOLATION"
            } else if o.exploration.complete {
                "complete, all invariants hold"
            } else {
                "state cap hit (incomplete)"
            }
        );
    }
    println!(
        "explored {} states / {} transitions in {elapsed:.2}s (pending bound {}{})",
        outcomes.iter().map(|o| o.exploration.states).sum::<usize>(),
        outcomes
            .iter()
            .map(|o| o.exploration.transitions)
            .sum::<usize>(),
        bounds.max_pending,
        if mutation == Mutation::None {
            String::new()
        } else {
            format!(", mutation {}", mutation.name())
        }
    );
    if let Some(path) = json_out {
        let json = pdl_analyze::model_check_json(&outcomes, elapsed);
        std::fs::write(&path, json.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("model-check JSON written to {path}");
    }
    if !report.is_empty() {
        println!("{}", report.render());
        let incomplete = report.iter().filter(|d| d.code == "M000").count();
        return Err(format!(
            "{} invariant violation(s), {incomplete} incomplete exploration(s)",
            report.error_count() - incomplete
        ));
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let platform = load(need(args, 0, "<file>")?)?;
    let n: usize = args
        .get(1)
        .map_or(Ok(4096), |a| a.parse())
        .map_err(|_| "N must be a number")?;
    let tile: usize = args
        .get(2)
        .map_or(Ok((n / 4).max(1)), |a| a.parse())
        .map_err(|_| "TILE must be a number")?;
    kernels::graphs::check_dgemm_size(n, tile)?;
    let machine = SimMachine::from_platform(&platform);
    if machine.is_empty() {
        return Err("platform has no schedulable devices".into());
    }
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    let report = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .map_err(|e| e.to_string())?;
    println!(
        "DGEMM {n}x{n} (tile {tile}, {} tasks) on {:?} [{} devices]:",
        graph.len(),
        platform.name,
        machine.len()
    );
    println!(
        "  makespan {:.4}s, {:.1} GFLOP/s effective, {:.1} MB moved to devices",
        report.makespan.seconds(),
        graph.total_flops() / report.makespan.seconds() / 1e9,
        report.bytes_to_devices / 1e6
    );
    if report.energy.total_j() > 0.0 {
        println!(
            "  energy {:.1} J (avg {:.0} W)",
            report.energy.total_j(),
            report.energy.average_power_w(report.makespan.seconds())
        );
    }
    println!("{}", report.gantt(64));
    Ok(())
}
