//! Property-based tests over the core invariants (proptest):
//!
//! * XML round-trip: `decode(encode(p)) == p` for arbitrary valid platforms;
//! * validation: randomly generated valid trees pass, mutations fail;
//! * scheduling: every schedule is complete, respects dependencies, and its
//!   makespan is bounded below by work/aggregate-rate and critical path; the
//!   online engine never leaves a usable device idle beside a ready task and
//!   dispatches a device class's tasks in priority order;
//! * coherence: reads always find a valid copy, writers end up exclusive;
//! * DGEMM implementation variants agree with the naive reference.

use hetero_rt::prelude::*;
use pdl_core::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_id() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}".prop_map(|s| s)
}

fn arb_property() -> impl Strategy<Value = Property> {
    (
        "[A-Z][A-Z_]{0,10}",
        // XML decode trims surrounding whitespace from values, so the model
        // canonical form is trimmed text.
        "([a-zA-Z0-9._-][a-zA-Z0-9 ._-]{0,10}[a-zA-Z0-9._-])?",
        any::<bool>(),
    )
        .prop_map(|(name, value, fixed)| {
            if fixed && value.trim().is_empty() {
                // Fixed properties require non-empty values.
                Property::fixed(name, "x")
            } else {
                Property {
                    name: name.into(),
                    value: PropertyValue::text(value),
                    fixed,
                    subschema: None,
                }
            }
        })
}

/// A random valid platform: 1-2 masters, each with up to 3 hybrids of up to
/// 3 workers plus direct workers, unique ids, random properties/groups.
fn arb_platform() -> impl Strategy<Value = Platform> {
    let pu_payload = (proptest::collection::vec(arb_property(), 0..4), 1u32..4);
    (
        1usize..3,                                       // masters
        proptest::collection::vec(0usize..4, 1..3),      // hybrids per master
        proptest::collection::vec(0usize..3, 1..6),      // workers per node
        proptest::collection::vec(pu_payload, 1..20),    // payload pool
        proptest::collection::vec(any::<bool>(), 1..20), // group flags
    )
        .prop_map(|(masters, hybrids, workers, payloads, groups)| {
            let mut b = Platform::builder("prop");
            let mut uid = 0usize;
            let mut payload_i = 0usize;
            let mut group_i = 0usize;
            let mut all_ids: Vec<String> = Vec::new();
            let mut next_payload = |b: &mut PlatformBuilder, h: PuHandle| {
                let (props, quantity) = payloads[payload_i % payloads.len()].clone();
                payload_i += 1;
                for p in props {
                    b.prop(h, p);
                }
                b.quantity(h, quantity);
            };
            for m in 0..masters {
                let mid = format!("m{m}");
                let mh = b.master(mid.clone());
                all_ids.push(mid);
                next_payload(&mut b, mh);
                let n_hybrids = hybrids[m % hybrids.len()];
                for hx in 0..n_hybrids {
                    uid += 1;
                    let hid = format!("h{uid}");
                    let hh = b.hybrid(mh, hid.clone()).unwrap();
                    all_ids.push(hid);
                    next_payload(&mut b, hh);
                    let n_w = workers[(m + hx) % workers.len()];
                    for _ in 0..n_w {
                        uid += 1;
                        let wid = format!("w{uid}");
                        let wh = b.worker(hh, wid.clone()).unwrap();
                        all_ids.push(wid);
                        next_payload(&mut b, wh);
                        if groups[group_i % groups.len()] {
                            b.group(wh, "g1");
                        }
                        group_i += 1;
                    }
                }
                // One direct worker per master keeps leaves plentiful.
                uid += 1;
                let wid = format!("w{uid}");
                let wh = b.worker(mh, wid.clone()).unwrap();
                all_ids.push(wid);
                next_payload(&mut b, wh);
            }
            // Interconnects between some consecutive id pairs.
            for pair in all_ids.windows(2).step_by(2) {
                b.interconnect(Interconnect::new("link", pair[0].clone(), pair[1].clone()));
            }
            b.build().expect("generator produces valid platforms")
        })
}

// ---------------------------------------------------------------------------
// XML round-trip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xml_round_trip_is_identity(p in arb_platform()) {
        let xml = pdl_xml::to_xml(&p);
        let back = pdl_xml::from_xml(&xml)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{xml}"));
        prop_assert_eq!(back, p);
    }

    #[test]
    fn generated_platforms_validate(p in arb_platform()) {
        prop_assert!(p.issues().is_empty(), "{:?}", p.issues());
    }

    #[test]
    fn text_escaping_survives_attributes_and_text(
        value in "[ -~]{0,24}" // any printable ASCII incl. <>&'"
    ) {
        let mut b = Platform::builder("esc");
        let m = b.master("0");
        // Unfixed so empty values stay legal.
        b.prop(m, Property::unfixed("PAYLOAD", value.clone()));
        let p = b.build().unwrap();
        let xml = pdl_xml::to_xml(&p);
        let back = pdl_xml::from_xml(&xml).unwrap();
        let (_, master) = back.pu_by_id("0").unwrap();
        // XML decode normalizes surrounding whitespace; inner content is
        // preserved exactly (escaping included).
        prop_assert_eq!(master.descriptor.value("PAYLOAD").unwrap(), value.trim());
    }
}

/// `pdl-canon-v1` hashes of the first generated platforms of a fixed
/// stream, pinned as `tests/canon_pins.rs` pins the catalog: how a platform
/// stores its text must not move its content address.
const GENERATED_PINS: [&str; 16] = [
    "sha256:b1b7d282393da8412a85987137671dd84a46d6037968f74b3f4bf091ebd66a68",
    "sha256:3e9f51bd61e887073a0ff3a261a4beccee5ce004973223349a1397acc3b63300",
    "sha256:1af5c26707799e7fa7afbb2a7c654ceeb73b484bb32b3d97e208db16f9c1a091",
    "sha256:6b20631f0ed8981b7612bc9173740148a5ef1ba17544b422be3883c4c15f5534",
    "sha256:ab94ba20e31a27fcee582e0751885b476e85a7e97f3c91eeae19e843bcdfab89",
    "sha256:3598d4e3946e87352cf83acdf0226dd78bd3dcda074c03c43c2d1a1a442c2803",
    "sha256:6b511ae467168996d45b67fa7290a884c391483b499567a2869ca6e15c645c0c",
    "sha256:badf00f5dea5e78765c2732d8ca83173c7bc5a0223b6a8c4762c49724764ad74",
    "sha256:b1b291bdf8881e5d735c6cae20d48159a2716504b71de97ab679775ef754b2a3",
    "sha256:5c160b39e7e0f0085ece38d806986b703a98a811f8d3bdc3cfe9cb3a847b587d",
    "sha256:187467930e6c40eae767f7749a0b874c32cabbde6af12a55007ef3da87a5f151",
    "sha256:86562252df57d8d05025d982c5065bb054ca4d9dae5e47f5e7352d67ea527ec5",
    "sha256:20b1e0404d990e9162ff8821b909597233b4d5ca186bfc2bda5b22dd1b76c775",
    "sha256:d6d850f906339481e8bf739ebbbdefa3c694be1e70342f255067a094c24fb426",
    "sha256:53e17dbfca79df11ae5190597dc28afa713b3be43eec1d60f97fb0b8eecb72f5",
    "sha256:6b3a1d2968ed86160c9a849749879fcf9d6076cef6871b607a8c40ae6e19f94a",
];

#[test]
fn generated_platform_hashes_are_pinned() {
    let mut rng = proptest::rng::TestRng::deterministic("generated_platform_hashes_are_pinned");
    let strategy = arb_platform();
    let got: Vec<String> = (0..GENERATED_PINS.len())
        .map(|_| pdl_registry::content_hash(&strategy.generate(&mut rng)).to_string())
        .collect();
    assert_eq!(got, GENERATED_PINS);
}

// ---------------------------------------------------------------------------
// Validation catches mutations
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn duplicate_ids_always_caught(id in arb_id()) {
        let mut b = Platform::builder("dup");
        let m = b.master(id.clone());
        b.worker(m, id.clone()).unwrap();
        let p = b.build_unchecked();
        prop_assert!(p
            .issues()
            .iter()
            .any(|i| matches!(i, ValidationIssue::DuplicatePuId(_))));
    }

    #[test]
    fn zero_quantity_always_caught(p in arb_platform()) {
        // Take the platform, rebuild with one PU's quantity forced to 0.
        let mut b = Platform::builder("z");
        let m = b.master("m");
        b.quantity(m, 0);
        let bad = b.build_unchecked();
        prop_assert!(!bad.issues().is_empty());
        // And the original is unaffected.
        prop_assert!(p.issues().is_empty());
    }
}

// ---------------------------------------------------------------------------
// Scheduling invariants
// ---------------------------------------------------------------------------

/// Random task graph: chain/parallel mix over a few data handles.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (proptest::collection::vec(
        (0usize..4, 1u64..100, any::<bool>()),
        1..40,
    ),)
        .prop_map(|(tasks,)| {
            let mut g = TaskGraph::new();
            let c = g.add_codelet(
                Codelet::new("k")
                    .with_variant(Variant::new("x86"))
                    .with_variant(Variant::new("gpu").requiring("Cuda")),
            );
            let handles: Vec<_> = (0..4)
                .map(|i| g.register_data(format!("d{i}"), 1e6))
                .collect();
            for (i, (h, mflops, writes)) in tasks.into_iter().enumerate() {
                let mode = if writes {
                    AccessMode::ReadWrite
                } else {
                    AccessMode::Read
                };
                g.submit(
                    c,
                    format!("t{i}"),
                    mflops as f64 * 1e6,
                    vec![DataAccess {
                        handle: handles[h],
                        mode,
                    }],
                    None,
                );
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_are_complete_and_dependency_safe(
        graph in arb_graph(),
        policy_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let mut policy: Box<dyn Scheduler> = match policy_idx {
            0 => Box::new(EagerScheduler),
            1 => Box::new(HeftScheduler),
            2 => Box::new(RandomScheduler::new(seed)),
            _ => Box::new(RoundRobinScheduler::default()),
        };
        let report = simulate(&graph, &machine, policy.as_mut(), &SimOptions::default()).unwrap();

        // Completeness: every task exactly once.
        prop_assert_eq!(report.assignments.len(), graph.len());
        let mut seen: Vec<usize> = report.assignments.iter().map(|(t, _)| t.0).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), graph.len());

        // Lower bounds: makespan ≥ total work / aggregate rate, and
        // ≥ critical path / fastest device.
        let total_rate = machine.total_flops_dp();
        let fastest = machine.devices.iter().map(|d| d.flops_dp).fold(0.0, f64::max);
        let lb1 = graph.total_flops() / total_rate;
        let lb2 = graph.critical_path_flops() / fastest;
        prop_assert!(report.makespan.seconds() >= lb1 - 1e-9,
            "makespan {} < work bound {}", report.makespan.seconds(), lb1);
        prop_assert!(report.makespan.seconds() >= lb2 - 1e-9,
            "makespan {} < critical-path bound {}", report.makespan.seconds(), lb2);
    }

    #[test]
    fn heft_never_loses_to_random_by_much(graph in arb_graph(), seed in any::<u64>()) {
        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let heft = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
            .unwrap()
            .makespan
            .seconds();
        let random = simulate(
            &graph,
            &machine,
            &mut RandomScheduler::new(seed),
            &SimOptions::default(),
        )
        .unwrap()
        .makespan
        .seconds();
        // HEFT is greedy, not optimal, but should never be drastically worse.
        prop_assert!(heft <= random * 1.5 + 1e-9, "heft {heft} vs random {random}");
    }
}

/// The three codelets a heterogeneous program mixes: x86 only, gpu only, both.
fn hetero_codelets() -> [Codelet; 3] {
    let x86 = || Variant::new("x86");
    let gpu = || Variant::new("gpu").requiring("Cuda");
    [
        Codelet::new("cpu_only").with_variant(x86()),
        Codelet::new("gpu_only").with_variant(gpu()),
        Codelet::new("both").with_variant(x86()).with_variant(gpu()),
    ]
}

/// Random graph over [`hetero_codelets`]: 1–60 tasks over 6 handles, random
/// priorities, an execution group now and then (dropped when the codelet has
/// no variant for it), one task in eight free of work.
fn arb_hetero_graph() -> impl Strategy<Value = TaskGraph> {
    let task = (
        0usize..3,
        0usize..6,
        0u64..8,
        any::<bool>(),
        -3i32..4,
        0usize..6,
    );
    proptest::collection::vec(task, 1..61).prop_map(|tasks| {
        let mut g = TaskGraph::new();
        let codelets = hetero_codelets().map(|c| g.add_codelet(c));
        let handles: Vec<_> = (0..6)
            .map(|i| g.register_data(format!("d{i}"), 1e6))
            .collect();
        for (i, (codelet, h, work, writes, priority, group)) in tasks.into_iter().enumerate() {
            let mode = if writes {
                AccessMode::ReadWrite
            } else {
                AccessMode::Read
            };
            let group = match (group, codelet) {
                (0, 0 | 2) => Some("cpus"),
                (1, 1 | 2) => Some("gpus"),
                _ => None,
            };
            g.submit_prioritized(
                codelets[codelet],
                format!("t{i}"),
                work as f64 * 25e6,
                [DataAccess {
                    handle: handles[h],
                    mode,
                }],
                group,
                priority,
            );
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Late binding, stated on the trace: the event engine starts a ready
    /// task the moment a device that may run it is idle, best key first.
    #[test]
    fn online_schedules_conserve_work_and_honour_priorities(
        graph in arb_hetero_graph(),
        policy_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        use hetero_rt::sim_engine::SpanKind;
        use simhw::time::SimTime;

        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let mut policy: Box<dyn Scheduler> = match policy_idx {
            0 => Box::new(EagerScheduler),
            1 => Box::new(HeftScheduler),
            2 => Box::new(DmdaScheduler),
            _ => Box::new(RandomScheduler::new(seed)),
        };
        let report =
            simulate_dynamic(&graph, &machine, policy.as_mut(), &SimOptions::default()).unwrap();

        // Every task exactly once.
        prop_assert_eq!(report.assignments.len(), graph.len());
        let mut seen = vec![false; graph.len()];
        for (t, _) in &report.assignments {
            prop_assert!(!std::mem::replace(&mut seen[t.0], true), "{t} ran twice");
        }

        // Per task, from the trace: when its first span (the input transfer,
        // if it had one) starts and when its compute span ends. Spans are
        // recorded in dispatch order, like the assignments.
        let mut start = vec![SimTime::ZERO; graph.len()];
        let mut end = vec![SimTime::ZERO; graph.len()];
        let mut dispatched = report.assignments.iter();
        let mut transfer_start = None;
        let mut label = String::new();
        for span in report.trace.spans() {
            label.clear();
            report.label(span, &mut label);
            if span.kind() == SpanKind::Compute {
                let (t, device) = dispatched.next().expect("one compute span per task");
                prop_assert_eq!(span.lane as usize, device.0);
                prop_assert_eq!(label.as_str(), graph.task(*t).label);
                start[t.0] = transfer_start.take().unwrap_or(span.start);
                end[t.0] = span.end;
            } else if label.ends_with(":in") {
                transfer_start = Some(span.start);
            }
        }
        prop_assert!(dispatched.next().is_none());

        // No task starts before each of its dependencies has ended.
        let ready: Vec<SimTime> = graph
            .tasks()
            .map(|t| graph.dependencies(t.id).iter().map(|d| end[d.0]).max().unwrap_or(SimTime::ZERO))
            .collect();
        for t in 0..graph.len() {
            prop_assert!(start[t] >= ready[t], "t{t} starts at {} before {}", start[t], ready[t]);
        }

        // Spans of one device do not overlap.
        let mut lanes: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); machine.len()];
        for span in report.trace.spans() {
            lanes[span.lane as usize].push((span.start, span.end));
        }
        for lane in &mut lanes {
            lane.sort();
            for pair in lane.windows(2) {
                prop_assert!(pair[1].0 >= pair[0].1, "{pair:?} overlap");
            }
        }

        // Which devices a task may use, worked out from the descriptor's
        // strings rather than asked of the runtime.
        let class_of = |t: Task<'_>| -> Vec<usize> {
            let archs: &[&str] = match graph.codelets[t.codelet].name.as_str() {
                "cpu_only" => &["x86"],
                "gpu_only" => &["gpu"],
                _ => &["x86", "gpu"],
            };
            (0..machine.len())
                .filter(|&d| {
                    let device = &machine.devices[d];
                    archs.contains(&device.arch.as_str())
                        && t.execution_group.is_none_or(|g| device.groups.iter().any(|x| x == g))
                })
                .collect()
        };
        let tasks: Vec<Task<'_>> = graph.tasks().collect();
        let class: Vec<Vec<usize>> = tasks.iter().map(|&t| class_of(t)).collect();

        // Work conservation: while a task waited, every device of its class
        // was busy — its lane has no gap anywhere in [ready, start).
        for t in &tasks {
            let (r, s) = (ready[t.id.0], start[t.id.0]);
            for &d in &class[t.id.0] {
                let mut covered = r;
                for &(a, b) in &lanes[d] {
                    if covered >= s || a > covered {
                        break;
                    }
                    covered = covered.max(b);
                }
                prop_assert!(
                    covered >= s,
                    "{} waited over [{r}, {s}) while device {d} sat idle from {covered}",
                    t.label
                );
            }
        }

        // Priority order within a class: a task that was ready strictly
        // before another one started, and started strictly after it, has
        // the smaller (priority, −id) key.
        for t1 in &tasks {
            for t2 in &tasks {
                let s1 = start[t1.id.0];
                if ready[t2.id.0] < s1 && start[t2.id.0] > s1 && class[t1.id.0] == class[t2.id.0] {
                    prop_assert!(
                        (t1.priority, std::cmp::Reverse(t1.id.0))
                            > (t2.priority, std::cmp::Reverse(t2.id.0)),
                        "{} (priority {}) overtook {} (priority {})",
                        t1.label, t1.priority, t2.label, t2.priority
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coherence invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coherence_never_loses_data(ops in proptest::collection::vec(
        (0usize..8, 0u8..3), 1..60
    )) {
        use hetero_rt::data::{DataRegistry, HOST};
        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let mut reg = DataRegistry::new();
        let h = reg.register("d", 1e6);
        for (dev, mode) in ops {
            let device = machine.devices[dev % machine.len()].id;
            let mode = match mode {
                0 => AccessMode::Read,
                1 => AccessMode::Write,
                _ => AccessMode::ReadWrite,
            };
            reg.acquire(&machine, h, device, mode);
            // Invariant: at least one valid copy exists, and after a write
            // the writer holds one.
            prop_assert!(!reg.valid_on(h).is_empty());
            if mode.writes() {
                prop_assert!(reg.is_valid_on(h, device));
                prop_assert_eq!(reg.valid_on(h).len(), 1);
            }
        }
        // Data can always be recovered to the host.
        reg.flush_to_host(&machine, h);
        prop_assert!(reg.is_valid_on(h, HOST));
    }
}

// ---------------------------------------------------------------------------
// Kernel variants agree
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dgemm_variants_agree(
        n in 1usize..24,
        block in 1usize..9,
        seed in any::<u64>(),
    ) {
        use kernels::dgemm::*;
        let f = |i: usize, j: usize, s: u64| {
            (((i as u64 * 31 + j as u64 * 17) ^ s) % 13) as f64 - 6.0
        };
        let a = Matrix::from_fn(n, |i, j| f(i, j, seed));
        let b = Matrix::from_fn(n, |i, j| f(j, i, seed.rotate_left(7)));

        let mut reference = Matrix::zeros(n);
        dgemm_naive(&a, &b, &mut reference);

        let mut blocked = Matrix::zeros(n);
        dgemm_blocked(&a, &b, &mut blocked, block);
        prop_assert!(blocked.max_abs_diff(&reference) < 1e-9);

        let mut transposed = Matrix::zeros(n);
        dgemm_transposed(&a, &b, &mut transposed);
        prop_assert!(transposed.max_abs_diff(&reference) < 1e-9);

        // Tiled coverage with an arbitrary tile size.
        let tile = block.min(n).max(1);
        let tiles = n.div_ceil(tile);
        let mut tiled = Matrix::zeros(n);
        for ti in 0..tiles {
            for tj in 0..tiles {
                for tk in 0..tiles {
                    dgemm_tile(&a, &b, &mut tiled, tile, ti, tj, tk);
                }
            }
        }
        prop_assert!(tiled.max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn vecadd_block_decomposition_agrees(
        n in 0usize..2000,
        chunks in 1usize..17,
    ) {
        use kernels::vecadd::*;
        let mut full: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let mut chunked = full.clone();
        vecadd(&mut full, &b);
        for (lo, hi) in block_ranges(n, chunks) {
            vecadd_chunk(&mut chunked, &b, lo, hi);
        }
        prop_assert_eq!(full, chunked);
    }
}
