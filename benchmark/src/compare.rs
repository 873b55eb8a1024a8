//! `--compare A B`: two result sets side by side, each end-to-end metric held
//! to its bound from `BENCHMARK.json`.

use crate::{spec, stats};
use hetero_trace::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The untraced results of one directory, by workload.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut by_workload: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".spans.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if result.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        if let Some(workload) = result.get("workload").and_then(Json::as_str) {
            by_workload
                .entry(workload.to_string())
                .or_default()
                .push(result);
        }
    }
    Ok(by_workload)
}

fn values<'a>(
    runs: impl IntoIterator<Item = &'a Json>,
    read: impl Fn(&Json) -> Option<f64>,
) -> Vec<f64> {
    runs.into_iter().filter_map(read).collect()
}

/// Prints one row per workload and end-to-end metric: both medians, how much
/// worse B is than A, and whether that is inside the bound. Also holds the
/// simulated makespan to bit-for-bit equality and failures to zero. Returns
/// whether everything is inside.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let end_to_end = spec::metrics("end_to_end");
    let mut all_inside = true;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B worse", "bound"
    );
    for workload in spec::workloads() {
        let (Some(runs_a), Some(runs_b)) = (set_a.get(&workload), set_b.get(&workload)) else {
            println!("{workload:<18} missing from one of the sets");
            all_inside = false;
            continue;
        };
        for metric in &end_to_end {
            let read = |run: &Json| {
                run.get("metrics")?
                    .get(&metric.name)?
                    .get("value")?
                    .as_f64()
            };
            let (med_a, med_b) = (
                stats::median(&values(runs_a, read)),
                stats::median(&values(runs_b, read)),
            );
            let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
            let worse = sign * (med_b - med_a) / med_a;
            let bound = metric.bound.unwrap_or(0.0);
            let inside = worse <= bound;
            all_inside &= inside;
            println!(
                "{workload:<18} {:<14} {med_a:>14.4} {med_b:>14.4} {:>8.2}% {:>6.0}%  {} ({}+{} runs)",
                metric.name,
                worse * 100.0,
                bound * 100.0,
                if inside { "inside" } else { "OUTSIDE" },
                runs_a.len(),
                runs_b.len(),
            );
        }

        let both = || runs_a.iter().chain(runs_b);
        let failed: f64 = values(both(), |run| run.get("failed")?.as_f64())
            .iter()
            .sum();
        let makespans = values(both(), |run| run.get("sim_makespan_s")?.as_f64());
        let identical = makespans
            .windows(2)
            .all(|w| w[0].to_bits() == w[1].to_bits());
        all_inside &= failed == 0.0 && identical;
        println!(
            "{workload:<18} {:<14} {failed:>14} failed operations; sim_makespan_s {:.9} {}",
            "exact",
            makespans.first().copied().unwrap_or(0.0),
            if identical {
                "identical in every run"
            } else {
                "DIFFERS between runs"
            },
        );
    }
    Ok(all_inside)
}
