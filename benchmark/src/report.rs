//! Turns a run's outcome into the metric table, the result file and the
//! result line the driver reads.

use crate::harness::RunOutcome;
use crate::layers::{Layers, PER_LAYER};
use crate::stats;
use crate::{spec, Options};
use hetero_trace::json::Json;
use std::path::Path;

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
}

/// `git rev-parse` of the checkout, when it is one.
fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let revision = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !revision.is_empty()).then_some(revision)
}

/// The metrics of this run by the names `BENCHMARK.json` lists for its
/// mode, as `(name, value, unit)`.
fn metrics(outcome: &RunOutcome, trace: bool) -> Vec<(String, f64, String)> {
    if !trace {
        return spec::metrics("end_to_end")
            .into_iter()
            .map(|m| {
                let value = match m.name.as_str() {
                    "setup_s" => outcome.setup_s,
                    "pass_min_ms" => stats::min(&outcome.pass_ms),
                    "peak_rss_mb" => outcome.peak_rss_mb,
                    other => panic!("BENCHMARK.json names an end-to-end metric {other:?} the harness does not measure"),
                };
                (m.name, value, m.unit)
            })
            .collect();
    }
    let layers = Layers::new(outcome);
    spec::metrics("per_layer")
        .into_iter()
        .map(|m| {
            let formula = PER_LAYER
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no formula for per-layer metric {:?}", m.name));
            (m.name, formula.1(&layers), m.unit)
        })
        .collect()
}

/// Prints the table, writes `<out>/<workload>.seed<N>[.trace].json` (and the
/// spans of a traced run) and prints the result line last. Returns whether
/// every operation and check succeeded.
pub fn emit(workload: &str, unit: &str, outcome: &RunOutcome, options: &Options) -> bool {
    let ctx = &outcome.ctx;
    let correct = ctx.failed == 0;
    let failed_share = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    let metrics = metrics(outcome, options.trace);
    let workers = crate::workloads::workers();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mode = if options.trace { "traced" } else { "untraced" };
    println!(
        "{workload} ({mode}): seed {}, {} passes of {} {unit}s, {nproc} cores, {workers} workers",
        options.seed,
        outcome.pass_ms.len(),
        outcome.units,
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    if !options.trace {
        println!(
            "  {:<40} {failed_share:>16.4} ratio ({} of {})",
            "failed_share", ctx.failed, ctx.attempted
        );
        if outcome.sim_makespan_s > 0.0 {
            println!(
                "  {:<40} {:>16.9} virtual_s",
                "sim_makespan_s", outcome.sim_makespan_s
            );
        }
    }
    for note in &ctx.failure_notes {
        println!("  FAILED {note}");
    }

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]);
                (name.clone(), entry)
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ctx.attempted as f64)),
        ("failed", Json::Num(ctx.failed as f64)),
        ("metrics", metrics_json.clone()),
    ]);
    let stamp = Json::obj([
        ("seed", Json::str(options.seed.to_string())),
        ("seconds", Json::Num(options.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workers", Json::Num(workers as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("git_revision", git_revision().map_or(Json::Null, Json::str)),
        ("work_unit", Json::str(unit)),
        ("work_per_pass", Json::Num(outcome.units as f64)),
        ("platform_pins", strings(&outcome.pins)),
    ]);
    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(options.trace)),
        ("stamp", stamp),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ctx.attempted as f64)),
        ("failed", Json::Num(ctx.failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        ("failures", strings(&ctx.failure_notes)),
        ("sim_makespan_s", Json::Num(outcome.sim_makespan_s)),
        (
            "pass_ms",
            Json::Arr(outcome.pass_ms.iter().map(|&ms| Json::Num(ms)).collect()),
        ),
        ("metrics", metrics_json),
    ]);
    let suffix = if options.trace { ".trace" } else { "" };
    let file = format!("{workload}.seed{}{suffix}.json", options.seed);
    write(&options.out, &file, &result.to_pretty());
    if options.trace {
        let spans = ctx.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("pass", Json::Num(f64::from(s.pass))),
            ])
        });
        let file = format!("{workload}.spans.json");
        write(&options.out, &file, &Json::Arr(spans.collect()).to_string());
    }

    println!("{line}");
    correct
}

/// Result files are a convenience; failing to write one is reported and does
/// not fail the run, whose result line is what counts.
fn write(dir: &Path, file: &str, text: &str) {
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
