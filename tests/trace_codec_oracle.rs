//! Differential oracle for the streaming trace codec and Chrome exporter.
//!
//! `codec::export`, `codec::parse` and `chrome::export` go straight between
//! a `RunTrace` and text. The tree-building versions they replaced live on
//! in `common/reference.rs`, together with the tree printer of the time,
//! and everything here holds the shipped paths to them: the same bytes out,
//! and for any document — well-formed, reordered, with repeated or foreign
//! members, with values of the wrong type, truncated or with a byte
//! replaced — the same trace back or an error from both.

mod common;
#[path = "common/reference.rs"]
mod reference;

use common::{enrich, span_trace, Deps, Rng, AWKWARD};
use hetero_trace::json::Json;
use hetero_trace::{chrome, codec, EventKind, RunTrace, TraceEvent, WorkerTrace};
use proptest::prelude::*;

/// Both decoders on one document: equal values, or an error from both.
fn same_verdict(text: &str) -> bool {
    match (codec::parse(text), reference::codec_parse(text)) {
        (Ok(streamed), Ok(tree)) => {
            assert_eq!(streamed, tree, "decoders disagree on:\n{text}");
            true
        }
        (Err(_), Err(_)) => false,
        (streamed, tree) => {
            panic!("verdicts differ — streaming: {streamed:?}\nreference: {tree:?}\non:\n{text}")
        }
    }
}

/// A value of some other type than most members hold.
fn stray_value(rng: &mut Rng) -> Json {
    match rng.below(9) {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::Bool(false),
        3 => Json::Num(7.0),
        4 => Json::Num(1.5),
        5 => Json::Num(-3.0),
        6 => Json::str(*rng.pick(&["steal", "ready", "virtual-ns", "hetero-trace-run", "x"])),
        7 => Json::Arr(vec![Json::Num(1.0), Json::str("two"), Json::Arr(vec![])]),
        _ => Json::obj([("ts", Json::Num(2.0)), ("name", Json::str("nested"))]),
    }
}

/// Rewrites a document tree the way a foreign writer might: members in
/// another order, keys repeated with another value before or after the
/// original, members nobody knows, values of another type.
fn rewrite(value: &mut Json, rng: &mut Rng) {
    match value {
        Json::Arr(items) => items.iter_mut().for_each(|item| rewrite(item, rng)),
        Json::Obj(members) => {
            for (_, member) in members.iter_mut() {
                rewrite(member, rng);
            }
            if rng.one_in(2) {
                rng.shuffle(members);
            }
            if !members.is_empty() && rng.one_in(4) {
                let key = members[rng.below(members.len())].0.clone();
                let at = rng.below(members.len() + 1);
                members.insert(at, (key, stray_value(rng)));
            }
            if rng.one_in(6) {
                let at = rng.below(members.len() + 1);
                members.insert(at, ("x-vendor".to_string(), stray_value(rng)));
            }
            if !members.is_empty() && rng.one_in(12) {
                let at = rng.below(members.len());
                members[at].1 = stray_value(rng);
            }
        }
        _ => {}
    }
}

/// Bytes that keep a document close to JSON when they replace another.
const NEAR_JSON: &[u8] = b"{}[]\",:0123456789.eE+-\\ ntfu/x";

/// Holds both decoders to one verdict on `text`, on prefixes of it and on
/// copies with one byte replaced.
fn damage(text: &str, rng: &mut Rng) {
    same_verdict(text);
    for _ in 0..8 {
        let mut cut = rng.below(text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        same_verdict(&text[..cut]);

        let mut bytes = text.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        if bytes[at].is_ascii() {
            bytes[at] = *rng.pick(NEAR_JSON);
            same_verdict(std::str::from_utf8(&bytes).expect("ASCII for ASCII"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Export: the bytes the tree printed. Parse: the values lookups by key
    /// produced, on the document and on every mutation of it.
    #[test]
    fn codec_matches_the_tree_codec(
        worker_spans in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec((0u64..50, 0u64..1u64 << 40), 0..6)),
            1..4,
        ),
        dep_seeds in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        seed in any::<u64>(),
    ) {
        let (mut trace, deps) = span_trace(&worker_spans, &dep_seeds);
        enrich(&mut trace, seed);
        let tree = reference::codec_to_json(&trace, &deps);

        let text = codec::export(&trace, &deps);
        prop_assert_eq!(&text, &reference::to_pretty(&tree));
        let (parsed, parsed_deps) = codec::parse(&text).expect("an export parses");
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(&parsed_deps, &deps);
        prop_assert!(same_verdict(&text));
        prop_assert!(same_verdict(&format!("// expect: T001\n  // two\n{}", reference::to_compact(&tree))));

        let rng = &mut Rng(seed ^ 0x5eed);
        damage(&text, rng);
        for _ in 0..6 {
            let mut foreign = tree.clone();
            rewrite(&mut foreign, rng);
            same_verdict(&reference::to_pretty(&foreign));
            // Compact, so that more of the damage lands in values.
            damage(&reference::to_compact(&foreign), rng);
        }
    }

    /// Reordered members alone never change what a document means.
    #[test]
    fn member_order_is_free(
        worker_spans in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec((1u64..50, 1u64..50), 0..6)),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let (mut trace, deps) = span_trace(&worker_spans, &[(0, 1), (2, 0)]);
        enrich(&mut trace, seed);
        fn shuffle(value: &mut Json, rng: &mut Rng) {
            match value {
                Json::Arr(items) => items.iter_mut().for_each(|item| shuffle(item, rng)),
                Json::Obj(members) => {
                    rng.shuffle(members);
                    members.iter_mut().for_each(|(_, member)| shuffle(member, rng));
                }
                _ => {}
            }
        }
        let mut tree = reference::codec_to_json(&trace, &deps);
        shuffle(&mut tree, &mut Rng(seed));
        let (parsed, parsed_deps) = codec::parse(&tree.to_string()).expect("order is free");
        prop_assert_eq!(parsed, trace);
        prop_assert_eq!(parsed_deps, deps);
    }

    /// The Chrome export: the bytes the tree printed.
    #[test]
    fn chrome_export_matches_the_tree_exporter(
        worker_spans in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec((0u64..5000, 0u64..1u64 << 40), 0..6)),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let (mut trace, _) = span_trace(&worker_spans, &[]);
        enrich(&mut trace, seed);
        let text = chrome::export(&trace);
        prop_assert_eq!(&text, &reference::to_compact(&reference::chrome_to_json(&trace)));
        prop_assert!(Json::parse(&text).is_ok());
    }
}

/// Hand-written documents on the rules the format promises: what is free,
/// what defaults, and what is turned down.
#[test]
fn format_rules_hold_in_both_decoders() {
    let accepted = [
        // Members in any order, unknown ones ignored, defaults applied.
        r#"{"workers":[{"events":[{"task":0,"ev":"start","ts":1,"x":[{}]},{"ts":2,"task":0,"ev":"end"}],"worker":2}],
            "meta":{"tasks":[{"label":"t"}],"future":{"a":[1,2]}},"kind":"hetero-trace-run"}"#,
        // The first of a repeated key wins, whatever the later ones hold.
        r#"{"kind":"hetero-trace-run","kind":"other","meta":{"time_unit":"virtual-ns","time_unit":7},
            "prelude":[{"ts":5,"ts":"x","ev":"park","ev":"bogus"}],"prelude":[{}]}"#,
        // Values of the wrong type read as absent where absence has a meaning.
        r#"{"kind":"hetero-trace-run","meta":7,"deps":{},"workers":null,"prelude":"none"}"#,
        r#"{"kind":"hetero-trace-run","meta":{"platform":3,"time_unit":null,"lanes":[{"name":"l","group":1}]},
            "workers":[{"worker":0,"overwritten":"many",
                        "events":[{"ts":1,"ev":"dequeue","task":0,"prov":"inject","cross_group":"yes"},
                                  {"ts":1,"ev":"start","task":0},{"ts":3,"ev":"end","task":0}]}]}"#,
        // Integers in any spelling; extra elements of an edge are ignored.
        r#"{"kind":"hetero-trace-run","meta":{},"deps":[[1e2, 3.0, "x"]],"prelude":[{"ts":007,"ev":"unpark"}]}"#,
    ];
    for text in accepted {
        assert!(same_verdict(text), "both decoders accept:\n{text}");
    }
    let (trace, deps) = codec::parse(accepted[1]).unwrap();
    assert_eq!(trace.meta.time_unit, hetero_trace::TimeUnit::VirtualNanos);
    let park = TraceEvent {
        ts: 5,
        kind: EventKind::Park,
    };
    assert_eq!(trace.prelude, vec![park].into());
    assert!(deps.is_empty());
    let (trace, _) = codec::parse(accepted[0]).unwrap();
    assert_eq!(trace.workers[0].overwritten, 0);
    assert_eq!(trace.meta.tasks.get(0).unwrap().category, "task");

    let rejected = [
        "",
        "[]",
        "{}",
        r#"{"kind":"hetero-trace-run"}"#,
        r#"{"kind":"hetero-trace-summary","meta":{}}"#,
        r#"{"kind":"hetero-trace-run","meta":{}} trailing"#,
        r#"{"kind":"hetero-trace-run","meta":{},"x":[1,]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"x":"\q"}"#,
        // What is passed over is still checked.
        r#"{"kind":"hetero-trace-run","meta":{},"x":1-2}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"x":{"a":[tru]}}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"kind":{"a":1 "b":2}}"#,
        r#"{"kind":"hetero-trace-run","meta":{"lanes":"\u12"}}"#,
        r#"{"kind":"hetero-trace-run","meta":{"time_unit":"fortnights"}}"#,
        r#"{"kind":"hetero-trace-run","meta":{"lanes":[{}]}}"#,
        r#"{"kind":"hetero-trace-run","meta":{"tasks":[{"category":"task"}]}}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ev":"park"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1.5,"ev":"park"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":-1,"ev":"park"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1,"ev":"sleep"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1,"ev":"start"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1,"ev":"phase_start"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1,"ev":"dequeue","task":0}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1,"ev":"dequeue","task":0,"prov":"magic"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[{"ts":1,"ev":"dequeue","task":0,"prov":"steal"}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"prelude":[7]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"workers":[{"events":[]}]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"deps":[[1]]}"#,
        r#"{"kind":"hetero-trace-run","meta":{},"deps":[7]}"#,
    ];
    for text in rejected {
        assert!(!same_verdict(text), "both decoders reject:\n{text}");
    }
}

/// The committed fixtures are hand-formatted, so they do not re-export to
/// their own bytes; they decode alike in both decoders, re-export to the
/// bytes the tree printed, and that export is a fixed point.
#[test]
fn committed_fixtures_decode_and_re_export_alike() {
    let mut seen = 0;
    for dir in ["examples/traces", "examples/bad"] {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.to_string_lossy().ends_with(".trace.json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(same_verdict(&text), "{path:?} decodes");
            let (trace, deps) = codec::parse(&text).unwrap();
            let exported = codec::export(&trace, &deps);
            assert_eq!(
                exported,
                reference::to_pretty(&reference::codec_to_json(&trace, &deps)),
                "{path:?}"
            );
            let (again, again_deps) = codec::parse(&exported).unwrap();
            assert_eq!(codec::export(&again, &again_deps), exported, "{path:?}");
            assert_eq!(
                chrome::export(&trace),
                reference::to_compact(&reference::chrome_to_json(&trace)),
                "{path:?}"
            );
            seen += 1;
        }
    }
    assert!(seen >= 6, "only {seen} fixtures found");
}

/// Every committed trace reads back as itself: what the reader paired
/// from the file is what it pairs from its own export, and `pdl check`
/// (against a testbed with links) reports the same codes for both.
#[test]
fn committed_traces_re_parse_to_themselves_with_the_same_codes() {
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let check = |text: &str| {
        let platforms = std::slice::from_ref(&platform);
        let report = pdl_analyze::analyze_source_file("t.trace.json", text, platforms).unwrap();
        report
            .codes()
            .into_iter()
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let mut seen = 0;
    for dir in ["examples/traces", "examples/bad"] {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.to_string_lossy().ends_with(".trace.json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let (trace, deps) = codec::parse(&text).unwrap();
            let exported = codec::export(&trace, &deps);
            let (again, again_deps) = codec::parse(&exported).unwrap();
            assert_eq!((&again, &again_deps), (&trace, &deps), "{path:?}");
            assert_eq!(check(&exported), check(&text), "{path:?}");
            seen += 1;
        }
    }
    assert!(seen >= 6, "only {seen} fixtures found");
}

fn one_event_trace(ts: u64, overwritten: u64) -> RunTrace {
    RunTrace {
        workers: vec![WorkerTrace {
            worker: 0,
            events: vec![TraceEvent {
                ts,
                kind: EventKind::Park,
            }]
            .into(),
            overwritten,
        }],
        ..RunTrace::default()
    }
}

/// Every digit of a `u64` survives the round trip. The tree codec sent
/// integers through `f64`, so 2^53 + 1 came back as 2^53.
#[test]
fn integers_above_2_pow_53_round_trip_exactly() {
    for n in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
        let trace = one_event_trace(n, n);
        let text = codec::export(&trace, &[]);
        assert!(text.contains(&format!("\"ts\": {n},")), "{text}");
        let (parsed, _) = codec::parse(&text).expect("parses");
        assert_eq!(parsed, trace, "ts = overwritten = {n}");
    }
    let (rounded, _) = reference::codec_parse(&reference::to_pretty(&reference::codec_to_json(
        &one_event_trace((1 << 53) + 1, 0),
        &[],
    )))
    .unwrap();
    assert_eq!(
        rounded.workers[0].events.iter().next().map(|e| e.ts),
        Some(1 << 53),
        "what the tree did"
    );
}

/// A number an integer field cannot hold is an error, not a truncation.
#[test]
fn integers_out_of_range_are_rejected() {
    let doc = |event: &str, deps: &str| {
        format!(r#"{{"kind":"hetero-trace-run","meta":{{}},"deps":[{deps}],"prelude":[{event}]}}"#)
    };
    assert!(codec::parse(&doc(r#"{"ts":18446744073709551615,"ev":"park"}"#, "")).is_ok());
    for (event, deps) in [
        (r#"{"ts":18446744073709551616,"ev":"park"}"#, ""),
        (r#"{"ts":1e30,"ev":"park"}"#, ""),
        (r#"{"ts":1,"ev":"start","task":4294967296}"#, ""),
        (
            r#"{"ts":1,"ev":"dequeue","task":0,"prov":"steal","victim":4294967296}"#,
            "",
        ),
        (r#"{"ts":1,"ev":"park"}"#, "[0,4294967296]"),
    ] {
        let text = doc(event, deps);
        assert!(codec::parse(&text).is_err(), "{text}");
    }
}

/// Escapes and non-ASCII survive both directions.
#[test]
fn awkward_strings_round_trip() {
    for name in AWKWARD {
        let mut trace = one_event_trace(1, 0);
        trace.meta.platform = Some(name.to_string());
        let kind = EventKind::PhaseStart {
            name: name.to_string(),
        };
        trace.workers[0].events = vec![TraceEvent { ts: 1, kind }].into();
        let text = codec::export(&trace, &Deps::new());
        assert_eq!(codec::parse(&text).unwrap().0, trace, "{name:?}");
    }
}
