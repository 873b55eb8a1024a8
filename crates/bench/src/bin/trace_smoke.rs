//! Trace validation smoke test (CI gate).
//!
//! Runs a placement-grouped workload on the traced work-stealing engine,
//! then checks the whole observability chain end to end:
//!
//! 1. the collected trace passes every structural invariant
//!    ([`hetero_trace::RunTrace::validate`]);
//! 2. its counters reconcile **exactly** with the engine's own
//!    [`ExecReport`] numbers;
//! 3. the Chrome-trace export and the run-summary export both re-parse as
//!    JSON and carry one lane per worker labeled with its PDL logic group;
//! 4. a virtual-time pipelined simulation bridges to a trace whose link
//!    lanes all name declared interconnects (the `T006` analyzer pass)
//!    and whose replay checks come back clean.
//!
//! Exits non-zero on any failure. Usage:
//! `cargo run -p bench --bin trace_smoke [--out DIR]`
//! With `--out`, writes `trace_smoke_chrome.json` and
//! `BENCH_trace_smoke.json` into DIR (CI uploads them as artifacts).

use hetero_rt::prelude::*;
use hetero_trace::json::Json;
use hetero_trace::{chrome, summary, TraceSink};
use std::process::ExitCode;

fn check(ok: bool, what: &str, failures: &mut u32) {
    if ok {
        println!("  ok   {what}");
    } else {
        println!("  FAIL {what}");
        *failures += 1;
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut out_dir: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = args.next().map(Into::into),
            other => {
                eprintln!("unknown argument {other:?}; usage: trace_smoke [--out DIR]");
                return ExitCode::FAILURE;
            }
        }
    }

    // A grouped fork-join workload on the paper's 2-GPU testbed: CPU-core
    // and GPU logic groups, with enough stages to force steals and parks.
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let placement = Placement::from_logic_groups(&platform, &["@workers-gpus", "gpus"])
        .expect("testbed has both groups");
    let groups: Vec<Option<&str>> = vec![Some("@workers-gpus"), Some("gpus"), None];
    let graph = kernels::graphs::fork_join_graph(24, 40, None);
    let tasks: Vec<ThreadTask> = from_graph(&graph, |t| {
        let seed = t.id.0 as u64;
        Box::new(move || {
            std::hint::black_box((0..400).fold(seed, |a, b| a.wrapping_mul(31).wrapping_add(b)));
        })
    })
    .into_iter()
    .enumerate()
    .map(|(i, t)| match groups[i % groups.len()] {
        Some(g) => t.in_group(g),
        None => t,
    })
    .collect();
    let n_tasks = tasks.len();

    let report = ThreadedExecutor::with_placement(placement)
        .with_trace(TraceSink::ring())
        .run(tasks)
        .expect("workload runs");

    let mut failures = 0u32;
    println!(
        "trace_smoke: {} tasks on {} workers",
        n_tasks, report.workers
    );

    let trace = match report.trace.as_ref() {
        Some(t) => t,
        None => {
            println!("  FAIL no trace collected despite ring sink");
            return ExitCode::FAILURE;
        }
    };

    // 1. Structural invariants.
    let stats = match trace.validate() {
        Ok(s) => s,
        Err(e) => {
            println!("  FAIL trace invariants: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  ok   trace invariants hold ({} events)",
        trace.total_events()
    );

    // 2. Exact reconciliation with the engine's report.
    check(
        stats.tasks as usize == n_tasks,
        "every task has exactly one start/end pair",
        &mut failures,
    );
    check(
        stats.tasks as usize == report.tasks.len(),
        "trace task count == report task count",
        &mut failures,
    );
    check(
        stats.steals == report.total_steals() as u64,
        "trace steal events == report steal counter",
        &mut failures,
    );
    check(
        stats.cross_group_steals == report.total_cross_group_steals() as u64,
        "trace cross-group steals == report counter",
        &mut failures,
    );
    let busy_total: u64 = stats.busy_ns.iter().sum();
    check(
        busy_total == report.total_busy().as_nanos() as u64,
        "trace busy time == report busy time",
        &mut failures,
    );

    // 3. Exports re-parse and are PDL-labeled.
    let wall_ns = report.wall.as_nanos() as u64;
    let chrome_text = chrome::export(trace);
    let summary_text = summary::export(trace, wall_ns);
    match Json::parse(&chrome_text) {
        Ok(doc) => {
            let events = doc.get("traceEvents").map(|e| e.items().len()).unwrap_or(0);
            check(events > 0, "chrome trace parses with events", &mut failures);
            let lanes = doc
                .get("traceEvents")
                .map(|e| {
                    e.items()
                        .iter()
                        .filter(|ev| {
                            ev.get("name").and_then(Json::as_str) == Some("thread_name")
                                && ev
                                    .get("args")
                                    .and_then(|a| a.get("name"))
                                    .and_then(Json::as_str)
                                    .map(|n| n.contains('['))
                                    .unwrap_or(false)
                        })
                        .count()
                })
                .unwrap_or(0);
            check(
                lanes >= report.workers,
                "one group-labeled lane per worker in chrome trace",
                &mut failures,
            );
        }
        Err(e) => check(false, &format!("chrome trace parses ({e})"), &mut failures),
    }
    match Json::parse(&summary_text) {
        Ok(doc) => {
            check(
                doc.get("invariant_error") == Some(&Json::Null),
                "summary reports no invariant error",
                &mut failures,
            );
            let totals_ok = doc
                .get("totals")
                .and_then(|t| t.get("tasks_executed"))
                .and_then(Json::as_u64)
                == Some(n_tasks as u64);
            check(totals_ok, "summary totals match task count", &mut failures);
        }
        Err(e) => check(false, &format!("summary parses ({e})"), &mut failures),
    }

    // 4. Virtual-time pipeline: simulate with link-lane pipelining on the
    //    NVLink testbed, bridge to a trace, and cross-check its transfer
    //    lanes against the platform's declared interconnects (T006).
    let nv_platform = pdl_discover::synthetic::xeon_2gpu_nvlink_testbed();
    let machine = simhw::machine::SimMachine::from_platform(&nv_platform);
    let mut pipeline_graph = TaskGraph::new();
    let k = pipeline_graph.add_codelet(
        Codelet::new("k").with_variant(hetero_rt::task::Variant::new("gpu").requiring("Cuda")),
    );
    let handle = pipeline_graph.register_data("A", 600e6);
    pipeline_graph.submit(
        k,
        "produce",
        1e10,
        vec![DataAccess {
            handle,
            mode: AccessMode::Write,
        }],
        None,
    );
    pipeline_graph.submit(
        k,
        "consume",
        1e10,
        vec![DataAccess {
            handle,
            mode: AccessMode::Read,
        }],
        None,
    );
    let sim = simulate(
        &pipeline_graph,
        &machine,
        &mut RoundRobinScheduler::default(),
        &SimOptions {
            pipeline: TransferPipeline::full(),
            ..Default::default()
        },
    )
    .expect("pipelined simulation runs");
    let vtrace = sim_report_to_trace(&sim, &machine);
    check(
        vtrace.validate().is_ok(),
        "virtual-time pipeline trace passes invariants",
        &mut failures,
    );
    check(
        vtrace.meta.time_unit.label() == "virtual-ns",
        "bridged trace carries the virtual time unit",
        &mut failures,
    );
    let link_lanes = vtrace
        .meta
        .lanes
        .iter()
        .filter(|l| l.group.as_deref() == Some("links"))
        .count();
    check(
        link_lanes > 0,
        "pipelined trace has per-link transfer lanes",
        &mut failures,
    );
    check(
        pdl_analyze::check_trace_links(&vtrace, &nv_platform).is_empty(),
        "T006: every transfer lane names a declared interconnect",
        &mut failures,
    );
    check(
        pdl_analyze::check_trace(&vtrace, &pipeline_graph).is_empty(),
        "replay checks pass on the pipelined trace",
        &mut failures,
    );

    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            println!("  FAIL create {dir:?}: {e}");
            failures += 1;
        } else {
            for (name, text) in [
                ("trace_smoke_chrome.json", &chrome_text),
                ("BENCH_trace_smoke.json", &summary_text),
            ] {
                let path = dir.join(name);
                match std::fs::write(&path, text) {
                    Ok(()) => println!("  ok   wrote {}", path.display()),
                    Err(e) => check(false, &format!("write {name} ({e})"), &mut failures),
                }
            }
        }
    }

    if failures == 0 {
        println!("trace_smoke: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("trace_smoke: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}
