//! Hostile input is a diagnostic, never an abort: each case is an `Err`
//! (with the field it names), never a panic.
//!
//! Trace codec rows: every truncation of a document, a task index past
//! `u32`, and labels that need escaping.

use hetero_rt::prelude::*;
use hetero_trace::{codec, profile, TaskInfo};
use kernels::graphs::dgemm_graph;
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

/// Every prefix of `text` is refused, except `text` itself and `text`
/// without its trailing newline.
fn truncations_are_refused(name: &str, text: &str) {
    assert!(
        text.ends_with("}\n"),
        "{name} ends its document with a newline"
    );
    for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        let parsed = codec::parse(&text[..cut]);
        let whole = cut + 1 >= text.len();
        assert_eq!(
            parsed.is_ok(),
            whole,
            "{name} cut at byte {cut} of {}: {parsed:?}",
            text.len()
        );
    }
}

#[test]
fn trace_codec_refuses_every_truncation() {
    for fixture in [
        "examples/traces/perf_diff_base.trace.json",
        "examples/traces/perf_diff_regressed.trace.json",
    ] {
        let text = std::fs::read_to_string(fixture).expect("fixture reads");
        truncations_are_refused(fixture, &text);
    }

    // A small bridged trace (9.5 kB) with compute and link lanes.
    let graph = dgemm_graph(2048, 1024, None);
    let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
    let options = SimOptions {
        pipeline: TransferPipeline::full(),
        ..SimOptions::default()
    };
    let report =
        simulate_dynamic(&graph, &machine, &mut DmdaScheduler, &options).expect("simulates");
    let trace = sim_report_to_trace(&report, &machine);
    assert!(trace
        .meta
        .lanes
        .iter()
        .any(|l| l.group.as_deref() == Some("links")));
    truncations_are_refused("bridged DGEMM", &codec::export(&trace, &[(0, 1)]));
}

#[test]
fn trace_codec_refuses_a_task_index_past_u32() {
    let document = |task: u64, ev: &str| {
        format!(
            r#"{{"kind":"hetero-trace-run","meta":{{"lanes":[],"tasks":[]}},"prelude":[],
               "workers":[{{"worker":0,"events":[{{"ts":5,"ev":"{ev}","task":{task}}}]}}]}}"#
        )
    };
    for ev in ["ready", "start", "end"] {
        let err = codec::parse(&document(1 << 32, ev)).expect_err("2^32 is past u32");
        assert!(err.contains("\"task\""), "{ev}: {err}");
        let (trace, _) = codec::parse(&document(u64::from(u32::MAX), ev)).expect("u32::MAX fits");
        assert_eq!(trace.total_events(), 1);
    }
}

#[test]
fn trace_codec_labels_round_trip_byte_exact() {
    let document = r#"{"kind":"hetero-trace-run","meta":{"lanes":[],"tasks":[
        {"label":"nul\u0000byte","category":"ta\"sk","group":"back\\slash"},
        {"label":"quote\"d","category":"\ud83d\ude00","group":null},
        {"label":"back\\slash \ud83d\ude00","category":"task","group":"\u0000"},
        {"label":"","category":"","group":""}]},
        "prelude":[],"workers":[]}"#;
    let (trace, deps) = codec::parse(document).expect("escapes decode");
    let text = codec::export(&trace, &deps);
    let (back, _) = codec::parse(&text).expect("the export parses");
    assert_eq!(back, trace);
    assert_eq!(codec::export(&back, &deps), text);
    let tasks: Vec<TaskInfo> = back.meta.tasks.iter().collect();
    let want = [
        ("nul\0byte", "ta\"sk", Some("back\\slash")),
        ("quote\"d", "\u{1f600}", None),
        ("back\\slash \u{1f600}", "task", Some("\0")),
        ("", "", Some("")),
    ];
    assert_eq!(tasks.len(), want.len());
    for (got, (label, category, group)) in tasks.iter().zip(want) {
        assert_eq!(
            (got.label, got.category, got.group),
            (label, category, group)
        );
    }
}

/// Zero-length spans that depend on themselves or on each other used to
/// send the critical-path walk round the cycle forever, growing its step
/// list until allocation failed (`pdl profile` aborted). A span already on
/// the chain is no candidate now.
#[test]
fn profiler_walks_a_dependency_cycle_of_zero_length_spans_once() {
    let span = |task: u32, start: u64, end: u64| {
        format!(
            r#"{{"ts":{start},"ev":"start","task":{task}}},{{"ts":{end},"ev":"end","task":{task}}}"#
        )
    };
    let events = [span(0, 5, 5), span(1, 5, 5), span(2, 5, 5), span(3, 5, 9)].join(",");
    let document = format!(
        r#"{{"kind":"hetero-trace-run","meta":{{"lanes":[],"tasks":[]}},"prelude":[],
            "deps":[[0,0],[1,2],[2,1]],"workers":[{{"worker":0,"events":[{events}]}}]}}"#
    );
    let (trace, deps) = codec::parse(&document).expect("parses");
    let p = profile::critical_path(&trace, &deps).expect("profiles");
    let mut chain = p.chain_tasks();
    assert_eq!(chain.pop(), Some("task3"));
    chain.sort_unstable();
    assert_eq!(chain, ["task0", "task1", "task2"], "each span once");
    assert_eq!((p.start_ns, p.makespan_ns), (5, 9));
    assert_eq!(p.blame.iter().map(|b| b.ns).sum::<u64>(), 4);
}
