//! Hostile input is a diagnostic, never an abort: each case is an `Err`
//! (with the field it names, or the position it stopped at), never a panic.
//!
//! Trace codec rows: every truncation of a document, a task index past
//! `u32`, and labels that need escaping.
//!
//! XML document rows: every truncation of Listing 1 and a stride of
//! truncations of a shipped descriptor, and the two worst cases of the
//! platform's intern table — one name and one value shared by 100 000
//! properties, and 100 000 distinct values — round-tripped within a wall
//! cap linear in their size.

use hetero_rt::prelude::*;
use hetero_trace::{codec, profile, TaskInfo};
use kernels::graphs::dgemm_graph;
use pdl_core::prelude::*;
use pdl_discover::synthetic;
use pdl_xml::XmlError;
use simhw::machine::SimMachine;
use std::time::{Duration, Instant};

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

/// Listing 1 of the paper, as `tests/listing1.rs` holds it.
const LISTING_1: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- XML HEADER -->
<Master id="0" quantity="1">
  <PUDescriptor>
    <Property fixed="true">
      <name>ARCHITECTURE</name>
      <value>x86</value>
    </Property>
    <!-- Additional properties -->
  </PUDescriptor>
  <Worker quantity="1" id="1">
    <PUDescriptor>
      <Property fixed="true">
        <name>ARCHITECTURE</name>
        <value>gpu</value>
      </Property>
      <!-- Additional properties -->
    </PUDescriptor>
  </Worker>
  <Interconnect type="rDMA" from="0" to="1" scheme=""/>
</Master>
"#;

/// `text` cut at every `step`-th character boundary: a cut before the end
/// of the root element is a syntax error at a position inside the prefix,
/// a cut after it decodes.
fn xml_truncations_are_refused(name: &str, text: &str, step: usize) {
    let root_closed = text.trim_end().len();
    let cuts = (0..=text.len()).filter(|&cut| text.is_char_boundary(cut));
    for cut in cuts.step_by(step) {
        let prefix = &text[..cut];
        match pdl_xml::from_xml(prefix) {
            Err(XmlError::Syntax(e)) => {
                assert!(cut < root_closed, "{name} whole at byte {cut}: {e}");
                let lines = prefix.lines().count().max(1) as u32;
                let pos = e.pos;
                assert!(
                    pos.line >= 1 && pos.col >= 1 && pos.line <= lines + 1,
                    "{name} cut at byte {cut}: {e} lies outside its {lines} lines"
                );
            }
            Err(other) => panic!("{name} cut at byte {cut}: not a syntax error: {other}"),
            Ok(_) => assert!(cut >= root_closed, "{name} cut at byte {cut} decoded"),
        }
    }
}

#[test]
fn xml_refuses_every_truncation_of_listing_1() {
    xml_truncations_are_refused("Listing 1", LISTING_1, 1);
}

#[test]
fn xml_refuses_a_stride_of_truncations_of_a_shipped_descriptor() {
    let fixture = "examples/platforms/xeon_2gpu_testbed.xml";
    let text = std::fs::read_to_string(fixture).expect("fixture reads");
    xml_truncations_are_refused(fixture, &text, 97);
}

/// One master carrying `props`, written out and read back: the platform
/// and its content address survive, within `ns_per_byte` of the document.
fn round_trips_within_a_linear_cap(name: &str, props: Vec<Property>) -> Platform {
    let mut b = Platform::builder(name);
    let m = b.master("m");
    b.descriptor(m, props.into_iter().collect());
    let platform = b.build().expect("valid");

    let started = Instant::now();
    let xml = pdl_xml::to_xml(&platform);
    let back = pdl_xml::from_xml(&xml).expect("round trip parses");
    let (hash, back_hash) = (
        pdl_registry::content_hash(&platform),
        pdl_registry::content_hash(&back),
    );
    let took = started.elapsed();

    assert_eq!(back, platform, "{name}: the platform changed");
    assert_eq!(back_hash, hash, "{name}: the content address moved");
    // About 300 ns a byte in a debug build and 30 in a release build on a
    // 2-vCPU host: the cap leaves tenfold room over debug, not the quadratic
    // cost of a degenerate table.
    let cap = Duration::from_micros(3 * xml.len() as u64);
    assert!(took < cap, "{name}: {took:?} for {} bytes", xml.len());
    back
}

#[test]
fn xml_shares_one_name_and_value_across_100_000_properties() {
    let props = vec![Property::fixed("SHARED", "1"); 100_000];
    let back = round_trips_within_a_linear_cap("one-text", props);
    let (_, m) = back.pu_by_id("m").unwrap();
    let first = m.descriptor.iter().next().unwrap();
    assert!(m
        .descriptor
        .iter()
        .all(|p| p.name.ptr_eq(&first.name) && p.value.text.ptr_eq(&first.value.text)));
}

#[test]
fn xml_round_trips_100_000_distinct_values() {
    let props = (0..100_000)
        .map(|i| Property::fixed("DISTINCT", format!("v{i}")))
        .collect();
    round_trips_within_a_linear_cap("distinct-texts", props);
}
