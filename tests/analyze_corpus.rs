//! Corpus tests for the `pdl-analyze` diagnostics engine.
//!
//! * every known-bad fixture under `examples/bad/` produces *exactly* the
//!   diagnostic codes its `expect:` header declares (golden, multiset match);
//! * the good corpus (`examples/platforms/`, `examples/programs/`) is clean —
//!   zero diagnostics, not merely zero errors;
//! * randomly generated well-formed platforms never produce diagnostics
//!   (no false positives, property-based);
//! * the Figure 5 DGEMM pipeline round-trips through the trace-replay
//!   checker: a faithful simulated trace verifies clean, a corrupted one is
//!   caught.

use pdl_analyze::expect::parse_expectation;
use pdl_analyze::{analyze_platform, analyze_source_file};
use pdl_core::platform::Platform;
use std::path::Path;

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn load_builtin(name: &str) -> Platform {
    pdl_discover::catalog::Catalog::with_builtin_platforms()
        .get(name)
        .cloned()
        .unwrap_or_else(|| panic!("fixture names unknown builtin platform {name:?}"))
}

fn sorted_files(dir: &str) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(repo_path(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

#[test]
fn bad_corpus_matches_expect_headers_exactly() {
    let files = sorted_files("examples/bad");
    assert!(files.len() >= 18, "bad corpus shrank: {files:?}");
    for path in files {
        let rel = path
            .strip_prefix(repo_path(""))
            .unwrap()
            .display()
            .to_string();
        let contents = std::fs::read_to_string(&path).unwrap();
        let exp =
            parse_expectation(&contents).unwrap_or_else(|| panic!("{rel}: missing expect: header"));
        assert!(
            !exp.codes.is_empty(),
            "{rel}: expect: header lists no codes"
        );
        let platforms: Vec<Platform> = exp.platforms.iter().map(|n| load_builtin(n)).collect();
        let report = analyze_source_file(&rel, &contents, &platforms).unwrap();
        assert_eq!(
            report.codes(),
            exp.codes,
            "{rel}: diagnostic codes diverged from the expect: header\n{}",
            report.render()
        );
    }
}

#[test]
fn good_corpus_is_diagnostic_free() {
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let mut checked = 0;
    for dir in ["examples/platforms", "examples/programs"] {
        for path in sorted_files(dir) {
            let rel = path
                .strip_prefix(repo_path(""))
                .unwrap()
                .display()
                .to_string();
            let contents = std::fs::read_to_string(&path).unwrap();
            let report =
                analyze_source_file(&rel, &contents, std::slice::from_ref(&platform)).unwrap();
            assert!(
                report.is_empty(),
                "{rel}: good corpus must produce zero diagnostics\n{}",
                report.render()
            );
            checked += 1;
        }
    }
    assert!(checked >= 5, "good corpus shrank: only {checked} files");
}

#[test]
fn builtin_platforms_are_diagnostic_free() {
    use pdl_discover::synthetic;
    for (name, p) in [
        ("xeon_x5550_host", synthetic::xeon_x5550_host()),
        ("xeon_2gpu_testbed", synthetic::xeon_2gpu_testbed()),
        ("cell_be", synthetic::cell_be()),
        ("gpgpu_cluster", synthetic::gpgpu_cluster(4, 2)),
        ("numa_host", synthetic::numa_host(2, 4)),
    ] {
        let report = analyze_platform(&p);
        assert!(report.is_empty(), "{name}: {}", report.render());
    }
}

// ---------------------------------------------------------------------------
// Property-based: well-formed platforms never trigger the analyzer.
// ---------------------------------------------------------------------------

mod no_false_positives {
    use super::*;
    use pdl_core::platform::PlatformBuilder;
    use pdl_core::property::Property;
    use proptest::prelude::*;

    /// A random well-formed platform: masters controlling hybrids controlling
    /// workers, unique ids, positive quantities, referenceable group names,
    /// interconnects only between existing PUs.
    fn arb_platform() -> impl Strategy<Value = Platform> {
        (
            1usize..3,                                  // masters
            proptest::collection::vec(0usize..3, 1..4), // hybrids per master
            proptest::collection::vec(0usize..3, 1..6), // workers per node
            proptest::collection::vec(1u32..4, 1..20),  // quantities
            proptest::collection::vec(any::<bool>(), 1..20),
        )
            .prop_map(|(masters, hybrids, workers, quantities, groups)| {
                let mut b = Platform::builder("prop");
                let mut uid = 0usize;
                let mut qi = 0usize;
                let mut gi = 0usize;
                let mut ids: Vec<String> = Vec::new();
                let mut pay = |b: &mut PlatformBuilder, h| {
                    b.prop(h, Property::fixed("ARCHITECTURE", "x86"));
                    b.quantity(h, quantities[qi % quantities.len()]);
                    qi += 1;
                };
                for m in 0..masters {
                    let mh = b.master(format!("m{m}"));
                    ids.push(format!("m{m}"));
                    pay(&mut b, mh);
                    for hx in 0..hybrids[m % hybrids.len()] {
                        uid += 1;
                        let hh = b.hybrid(mh, format!("h{uid}")).unwrap();
                        ids.push(format!("h{uid}"));
                        pay(&mut b, hh);
                        for _ in 0..workers[(m + hx) % workers.len()] {
                            uid += 1;
                            let wh = b.worker(hh, format!("w{uid}")).unwrap();
                            ids.push(format!("w{uid}"));
                            pay(&mut b, wh);
                            if groups[gi % groups.len()] {
                                b.group(wh, "pool.a");
                            }
                            gi += 1;
                        }
                    }
                    uid += 1;
                    let wh = b.worker(mh, format!("w{uid}")).unwrap();
                    ids.push(format!("w{uid}"));
                    pay(&mut b, wh);
                }
                for pair in ids.windows(2).step_by(2) {
                    b.interconnect(pdl_core::interconnect::Interconnect::new(
                        "link",
                        pair[0].clone(),
                        pair[1].clone(),
                    ));
                }
                b.build().expect("generator produces valid platforms")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_well_formed_platforms_are_clean(p in arb_platform()) {
            let report = analyze_platform(&p);
            prop_assert!(report.is_empty(), "false positive:\n{}", report.render());
        }

        #[test]
        fn random_well_formed_platforms_are_clean_from_source(p in arb_platform()) {
            let xml = pdl_xml::to_xml(&p);
            let (decoded, report) = pdl_analyze::analyze_platform_source("prop.xml", &xml);
            prop_assert!(decoded.is_some());
            prop_assert!(report.is_empty(), "false positive:\n{}", report.render());
        }
    }
}

// ---------------------------------------------------------------------------
// Trace replay over the Figure 5 pipeline.
// ---------------------------------------------------------------------------

mod fig5_replay {
    use cascabel::{Cascabel, ProblemSpec};
    use hetero_rt::prelude::*;
    use hetero_trace::EventKind;
    use pdl_analyze::check_trace;
    use simhw::machine::SimMachine;

    fn fig5_graph_and_trace() -> (TaskGraph, hetero_trace::RunTrace) {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        let mut spec = ProblemSpec::with_size("N", 2048);
        spec.tile = Some(512);
        let result = Cascabel::new(platform.clone())
            .compile(bench::fig5::DGEMM_INPUT, &spec)
            .expect("fig5 program compiles");
        let graph = result.output.graph;
        let machine = SimMachine::from_platform(&platform);
        let report = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
            .expect("fig5 graph simulates");
        let trace = sim_report_to_trace(&report, &machine);
        (graph, trace)
    }

    #[test]
    fn faithful_fig5_trace_verifies_clean() {
        let (graph, trace) = fig5_graph_and_trace();
        let report = check_trace(&trace, &graph);
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn corrupted_fig5_trace_is_caught() {
        let (graph, trace) = fig5_graph_and_trace();

        // Pick a dependency edge d -> t and swap the two tasks' identities in
        // the event stream: every timestamp stays untouched (the trace is
        // still structurally valid), but task d is now observed in t's time
        // window — after t's inputs were supposedly produced by d.
        let (d, t) = (0..graph.len())
            .flat_map(|t| {
                graph
                    .dependencies(TaskId(t))
                    .iter()
                    .map(move |&d| (d, TaskId(t)))
            })
            .next()
            .expect("fig5 graph has dependencies");
        let label_of = |task: TaskId| graph.task(task).label;
        let trace_id = |label: &str| -> u32 {
            trace
                .meta
                .tasks
                .iter()
                .position(|info| info.label == label)
                .expect("graph task appears in trace") as u32
        };
        let (id_d, id_t) = (trace_id(label_of(d)), trace_id(label_of(t)));

        let mut corrupted = trace.clone();
        for lane in &mut corrupted.workers {
            let swapped = lane.events.iter().map(|mut ev| {
                if let EventKind::TaskRun { task, .. } = &mut ev.kind {
                    if *task == id_d {
                        *task = id_t;
                    } else if *task == id_t {
                        *task = id_d;
                    }
                }
                ev
            });
            lane.events = swapped.collect();
        }

        let report = check_trace(&corrupted, &graph);
        assert!(
            report.codes().contains(&"T003"),
            "swapped dependency endpoints must violate the declared order:\n{}",
            report.render()
        );
    }

    #[test]
    fn fig5_program_source_is_diagnostic_free() {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        let report = pdl_analyze::analyze_program_source(
            "fig5.c",
            bench::fig5::DGEMM_INPUT,
            std::slice::from_ref(&platform),
        );
        assert!(report.is_empty(), "{}", report.render());
    }
}
