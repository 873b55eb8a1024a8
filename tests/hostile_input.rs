//! Hostile input is a diagnostic, never an abort: each case is an `Err`
//! (with the field it names, or the position it stopped at), never a panic.
//!
//! Trace codec rows: every truncation of a document, a task index past
//! `u32`, labels that need escaping, and task events that do not pair into
//! runs on a lane that lost no record.
//!
//! XML document rows: every truncation of Listing 1 and a stride of
//! truncations of a shipped descriptor, and the two worst cases of the
//! platform's intern table — one name and one value shared by 100 000
//! properties, and 100 000 distinct values — round-tripped within a wall
//! cap linear in their size.
//!
//! Schema rows: a shipped descriptor whose typed properties all name an
//! unregistered subschema (one finding per property, at its position), and
//! 100 000 typed properties validated within a wall cap linear in their
//! size.
//!
//! Semver-range rows: every truncation of `>=1.2.3`, `^1.2` and `1.2.3`,
//! a fourth version field in every form, and fields past `u32`.
//!
//! Selector and group-expression rows: every truncation of
//! `//Worker[@ARCHITECTURE='gpu']` and of `(gpus + @workers) - cpus`,
//! nesting one level past the cap, and a 100 000-term union and 100 000
//! predicates within a wall cap linear in their length.
//!
//! Task-list row: 100 000 hand-built tasks, each naming a group of its
//! own, collected and refused by a placed run within a wall cap linear in
//! their number.
//!
//! C-subset rows: 100 000 nested braces in a task body, parsed within a
//! wall cap linear in the source's length, and every truncation of a small
//! annotated program refused with the line it stopped at, unless the cut
//! leaves a complete program.

use cascabel::ast::Item;
use cascabel::parse::{parse_program, ParseError};
use hetero_rt::prelude::*;
use hetero_rt::thread_engine::ThreadEngineError;
use hetero_trace::{codec, profile, TaskInfo};
use kernels::graphs::dgemm_graph;
use pdl_core::prelude::*;
use pdl_discover::synthetic;
use pdl_registry::{SemVer, VersionReq};
use pdl_xml::{Pos, SchemaError, SchemaRegistry, XmlError};
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
    let document = |events: &[(&str, u64)]| {
        let events: Vec<String> = (events.iter().enumerate())
            .map(|(i, (ev, task))| format!(r#"{{"ts":{},"ev":"{ev}","task":{task}}}"#, 5 + i))
            .collect();
        format!(
            r#"{{"kind":"hetero-trace-run","meta":{{"lanes":[],"tasks":[]}},"prelude":[],
               "workers":[{{"worker":0,"events":[{}]}}]}}"#,
            events.join(",")
        )
    };
    // A run is its start and its end, so the index is probed on each of
    // the two in turn.
    let max = u64::from(u32::MAX);
    for (ev, at) in [("ready", 0), ("start", 0), ("end", 1)] {
        let events = |task: u64| {
            let mut events = match ev {
                "ready" => vec![("ready", max)],
                _ => vec![("start", max), ("end", max)],
            };
            events[at].1 = task;
            events
        };
        let err = codec::parse(&document(&events(1 << 32))).expect_err("2^32 is past u32");
        assert!(err.contains("\"task\""), "{ev}: {err}");
        let (trace, _) = codec::parse(&document(&events(max))).expect("u32::MAX fits");
        assert_eq!(trace.total_events(), events(max).len());
    }
}

/// On a lane that lost no record every task event pairs into a run: a
/// start without its end, an end without its start, a task started twice
/// and two task spans nested on one lane are refused by the reader, and
/// `pdl check` reports each as `T001`. The same events on a lane that lost
/// records read back as the runs that pair.
#[test]
fn trace_codec_refuses_task_events_that_do_not_pair() {
    let document = |events: &[(u64, &str, u32)], overwritten: u64| {
        let events: Vec<String> = (events.iter())
            .map(|(ts, ev, task)| format!(r#"{{"ts":{ts},"ev":"{ev}","task":{task}}}"#))
            .collect();
        format!(
            r#"{{"kind":"hetero-trace-run","meta":{{"lanes":[{{"name":"cpu0","group":"cpus"}}],
               "tasks":[{{"label":"a"}},{{"label":"b"}}]}},"prelude":[],
               "workers":[{{"worker":0,"overwritten":{overwritten},"events":[{}]}}]}}"#,
            events.join(",")
        )
    };
    // The row, its events, the error and the runs a lossy lane keeps.
    type Row<'a> = (&'a str, &'a [(u64, &'a str, u32)], &'a str, usize);
    let rows: [Row; 4] = [
        (
            "a start without an end",
            &[(1, "start", 0)],
            "task 0 started but never ended",
            0,
        ),
        (
            "an end without a start",
            &[(1, "start", 0), (2, "end", 0), (3, "end", 1)],
            "worker 0 event 2 ends a span that is not the innermost open one",
            1,
        ),
        (
            "a task started twice",
            &[
                (1, "start", 0),
                (2, "end", 0),
                (3, "start", 0),
                (4, "end", 0),
            ],
            "task 0 started twice",
            2,
        ),
        (
            "two task spans nested on one lane",
            &[
                (1, "start", 0),
                (2, "start", 1),
                (3, "end", 1),
                (4, "end", 0),
            ],
            "worker 0 event 1 falls inside the task span before it",
            1,
        ),
    ];
    for (row, events, error, runs) in rows {
        let text = document(events, 0);
        assert_eq!(codec::parse(&text).expect_err(row), error, "{row}");
        let report = pdl_analyze::analyze_source_file("row.trace.json", &text, &[]).unwrap();
        assert_eq!(report.codes(), ["T001"], "{row}: {}", report.render());
        assert!(
            report.render().contains(error),
            "{row}: {}",
            report.render()
        );

        let (lossy, _) = codec::parse(&document(events, 3)).expect("a lossy lane reads");
        assert_eq!(lossy.task_spans().len(), runs, "{row}");
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

/// A shipped descriptor whose subschema-typed properties all name a prefix
/// no subschema registers: one finding per typed property, at its
/// position, and `from_xml` refuses it with a schema error.
#[test]
fn schema_names_every_property_of_an_unregistered_subschema() {
    let fixture = "examples/platforms/xeon_2gpu_testbed.xml";
    let text = std::fs::read_to_string(fixture).expect("fixture reads");
    let text = text.replace(r#"xsi:type="ocl:"#, r#"xsi:type="nosuch:"#);
    let typed: Vec<Pos> = (text.lines().zip(1..))
        .filter(|(line, _)| line.contains(r#"xsi:type="nosuch:"#))
        .map(|(line, at)| Pos {
            line: at,
            col: 1 + line.find("<Property").expect("a typed property") as u32,
        })
        .collect();
    assert_eq!(typed.len(), 10);

    let doc = pdl_xml::parse_document(&text).expect("well-formed");
    let found = SchemaRegistry::with_builtins().validate_at(&doc);
    for (e, _) in &found {
        assert!(
            matches!(e, SchemaError::UnknownSubschema(t) if t.starts_with("nosuch:")),
            "{e}"
        );
    }
    let at: Vec<Pos> = found.iter().map(|&(_, pos)| pos).collect();
    assert_eq!(at, typed);
    assert_eq!(at[0], Pos { line: 222, col: 9 });
    assert!(matches!(
        pdl_xml::from_xml(&text),
        Err(XmlError::Schema(SchemaError::UnknownSubschema(_)))
    ));
}

/// 100 000 subschema-typed properties parse and validate clean within a
/// wall cap linear in the document's length.
#[test]
fn schema_validates_100_000_typed_properties_in_linear_time() {
    let property = r#"<Property fixed="false" xsi:type="ocl:oclDevicePropertyType"><ocl:name>DEVICE_NAME</ocl:name><ocl:value>GTX</ocl:value></Property>"#;
    let text = format!(
        r#"<Platform name="typed"><Master id="m"><PUDescriptor>{}</PUDescriptor></Master></Platform>"#,
        property.repeat(100_000)
    );
    let started = Instant::now();
    let doc = pdl_xml::parse_document(&text).expect("well-formed");
    let found = SchemaRegistry::with_builtins().validate_at(&doc);
    let took = started.elapsed();
    assert_eq!(found, []);
    // The cap of the round trips above, which do more a byte.
    let cap = Duration::from_micros(3 * text.len() as u64);
    assert!(took < cap, "{took:?} for {} bytes", text.len());
}

/// A requirement cut anywhere is refused unless what is left is itself a
/// requirement (the empty one means `latest`); a fourth field and a field
/// past `u32` are refused in every form. Nothing here panics.
#[test]
fn version_requirements_refuse_cuts_extra_fields_and_overflow() {
    let at_least =
        |major, minor, patch| Some(VersionReq::AtLeast(SemVer::new(major, minor, patch)));
    let caret = |major, minor| Some(VersionReq::Caret { major, minor });
    let latest = Some(VersionReq::Latest);
    let rows: [(&str, Vec<Option<VersionReq>>); 3] = [
        (
            ">=1.2.3",
            vec![
                latest.clone(),
                None,
                None,
                at_least(1, 0, 0),
                None,
                at_least(1, 2, 0),
                None,
                at_least(1, 2, 3),
            ],
        ),
        (
            "^1.2",
            vec![
                latest.clone(),
                None,
                caret(1, None),
                None,
                caret(1, Some(2)),
            ],
        ),
        (
            "1.2.3",
            vec![
                latest,
                caret(1, None),
                None,
                caret(1, Some(2)),
                None,
                Some(VersionReq::Exact(SemVer::new(1, 2, 3))),
            ],
        ),
    ];
    for (text, expected) in rows {
        assert_eq!(expected.len(), text.len() + 1, "{text}");
        for (cut, want) in expected.into_iter().enumerate() {
            assert_eq!(
                VersionReq::parse(&text[..cut]),
                want,
                "{text:?} cut at {cut}"
            );
        }
    }

    let refused = [
        "1.2.3.4",
        "1.2.3.4.5",
        "^1.2.3.4",
        "=1.2.3.4",
        ">=1.2.3.4",
        "1.2.3.",
        "1..2",
        "+1.2.3",
        "=1.+2.3",
        ">=1.2.+3",
        "4294967296",
        "1.4294967296",
        "1.2.4294967296",
        "^4294967296",
        "^1.4294967296",
        "=1.2.4294967296",
        ">=4294967296",
        "18446744073709551616.0.0",
    ];
    for text in refused {
        assert_eq!(VersionReq::parse(text), None, "{text}");
    }
    assert_eq!(VersionReq::parse("4294967295"), caret(u32::MAX, None));
    assert_eq!(
        VersionReq::parse("=4294967295.0.4294967295"),
        Some(VersionReq::Exact(SemVer::new(u32::MAX, 0, u32::MAX)))
    );
}

/// Every prefix of `text` is refused with the byte it stopped at, except
/// the cuts in `complete`, where what is left is itself an expression.
/// Nothing here panics.
fn expression_cuts_are_refused<T, E: std::fmt::Display>(
    text: &str,
    complete: &[usize],
    parse: impl Fn(&str) -> Result<T, E>,
) {
    for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        match parse(&text[..cut]) {
            Ok(_) => assert!(complete.contains(&cut), "{text:?} cut at byte {cut} parsed"),
            Err(e) => {
                assert!(!complete.contains(&cut), "{text:?} cut at byte {cut}: {e}");
                assert!(
                    e.to_string().contains("at byte"),
                    "{text:?} cut at {cut}: {e}"
                );
            }
        }
    }
}

#[test]
fn selectors_and_group_expressions_refuse_their_cuts() {
    let platform = synthetic::xeon_2gpu_testbed();
    let selector = "//Worker[@ARCHITECTURE='gpu']";
    expression_cuts_are_refused(selector, &[8, selector.len()], |s| {
        pdl_query::query(&platform, s)
    });
    let expr = "(gpus + @workers) - cpus";
    expression_cuts_are_refused(expr, &[17, 18, 21, 22, 23, 24], |s| {
        pdl_query::resolve_groups(&platform, s)
    });
}

/// Parentheses nested to the cap resolve; one level more is refused.
#[test]
fn group_expressions_nest_to_the_cap_and_no_further() {
    use pdl_query::groups::MAX_DEPTH;
    let platform = synthetic::xeon_2gpu_testbed();
    let nested = |depth: usize| format!("{}gpus{}", "(".repeat(depth), ")".repeat(depth));
    let gpus = pdl_query::resolve_groups(&platform, "gpus").expect("resolves");
    let deepest = pdl_query::resolve_groups(&platform, &nested(MAX_DEPTH)).expect("resolves");
    assert_eq!(deepest, gpus);
    let e = pdl_query::resolve_groups(&platform, &nested(MAX_DEPTH + 1)).unwrap_err();
    assert!(e.0.contains(&format!("at byte {MAX_DEPTH}")), "{e}");
}

/// `text` parsed and evaluated against the testbed within a cap linear in
/// its length.
fn evaluates_within_a_linear_cap<T>(name: &str, text: &str, eval: impl Fn(&str) -> T) -> T {
    let started = Instant::now();
    let out = eval(text);
    let took = started.elapsed();
    // Under 300 ns a byte in a debug build on a 2-vCPU host: tenfold room,
    // not the cost of a term or predicate that rescans what came before.
    let cap = Duration::from_micros(3 * text.len() as u64);
    assert!(took < cap, "{name}: {took:?} for {} bytes", text.len());
    out
}

#[test]
fn a_100_000_term_union_and_100_000_predicates_stay_linear() {
    let platform = synthetic::xeon_2gpu_testbed();
    let gpus = pdl_query::resolve_groups(&platform, "gpus").expect("resolves");

    let union = vec!["gpus"; 100_000].join(" + ");
    let got =
        evaluates_within_a_linear_cap("union", &union, |e| pdl_query::resolve_groups(&platform, e));
    assert_eq!(got.expect("resolves"), gpus);

    let selector = format!("//Worker{}", "[@ARCHITECTURE='gpu']".repeat(100_000));
    let got =
        evaluates_within_a_linear_cap("predicates", &selector, |s| pdl_query::query(&platform, s));
    assert_eq!(got.expect("parses"), gpus);
}

#[test]
fn a_list_of_100_000_distinct_groups_is_refused_in_linear_time() {
    let n = 100_000;
    let tasks: Vec<ThreadTask> = (0..n)
        .map(|i| ThreadTask::new("t", || {}).in_group(format!("g{i}")))
        .collect();
    let pool = ThreadedExecutor::with_placement(Placement::new().with_group("g0", 1));

    let started = Instant::now();
    let err = pool.run(tasks).unwrap_err();
    let took = started.elapsed();

    assert_eq!(
        err,
        ThreadEngineError::UnknownGroup {
            task: 1,
            group: "g1".into()
        }
    );
    // About 2.5 µs a task in a debug build on a 2-vCPU host: eightfold
    // room, not a group name compared against every name before it (that
    // took minutes).
    let cap = Duration::from_micros(20 * n as u64);
    assert!(took < cap, "{took:?} for {n} tasks");
}

#[test]
fn a_task_body_of_100_000_nested_braces_parses_in_linear_time() {
    let depth = 100_000;
    let src = format!(
        "#pragma cascabel task : x86 : I_deep : deep01 : (A: readwrite)\n\
         void deep(double *A) {{{}{}}}\n",
        "{".repeat(depth),
        "}".repeat(depth)
    );
    let program = evaluates_within_a_linear_cap("nested braces", &src, parse_program)
        .expect("balanced braces parse");
    let [Item::TaskFunction(f)] = &program.items[..] else {
        panic!("one task function: {:?}", program.items.len());
    };
    assert_eq!(f.body.len(), 2 * depth + 2);
}

/// A task definition and its call site, one construct after each pragma.
const ANNOTATED: &str = "\
#pragma cascabel task : x86 : I_scale : scale01 : (A: readwrite)
void scale(double *A) { A[0] *= 2.0; }
#pragma cascabel execute I_scale : (A:BLOCK:N)
scale(A);
";

#[test]
fn c_subset_refuses_every_truncation_with_its_line() {
    const KEYWORD: &str = "#pragma cascabel";
    // A cut is complete unless it falls between a pragma's keyword and the
    // end of the line after it, where the pragma's construct ends.
    let open: Vec<(usize, usize)> = ANNOTATED
        .match_indices(KEYWORD)
        .map(|(at, _)| {
            let pragma_end = at + ANNOTATED[at..].find('\n').expect("line ends");
            let construct_end = pragma_end + 1 + ANNOTATED[pragma_end + 1..].find('\n').unwrap();
            (at + KEYWORD.len(), construct_end)
        })
        .collect();
    assert_eq!(open.len(), 2);
    for cut in 0..=ANNOTATED.len() {
        let prefix = &ANNOTATED[..cut];
        let complete = open.iter().all(|&(from, to)| cut < from || cut >= to);
        match parse_program(prefix) {
            Ok(_) => assert!(complete, "cut at byte {cut} parses: {prefix:?}"),
            Err(e) => {
                assert!(!complete, "cut at byte {cut} refused: {e}");
                let line = match &e {
                    ParseError::Lex(e) => e.line,
                    ParseError::Pragma { line, .. } | ParseError::Structure { line, .. } => *line,
                };
                let lines = prefix.lines().count() as u32;
                assert!(
                    (1..=lines).contains(&line),
                    "cut at byte {cut}: line {line} of {lines}: {e}"
                );
            }
        }
    }
}
