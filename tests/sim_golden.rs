//! Simulator outputs pinned across the engine refactors.
//!
//! The first twelve rows below were recorded at commit `1ec8f70` (the parent
//! of the change that moved both virtual-time engines onto one charging
//! core) by running this file there with an empty table and pasting what the
//! failure message printed; the next six the same way at `c4983ef`, two at
//! `5c26f97` and the last six at `e9b7584` (see [`actual`]). A digest folds
//! everything a [`SimReport`] says about the schedule — makespan bits, every
//! assignment, the three byte counters, every span of `trace` and
//! `link_trace` (lane, kind, start and end bits, label) and the perf-model
//! entry count — so "bit-identical" is checked, not eyeballed.
//!
//! A second table, recorded at `1957000` (the parent of the change that
//! rebuilt the virtual-time trace path) the same way, its last six rows at
//! `e9b7584`, pins what the bridge makes of every cell: an FNV digest of the
//! codec export of `sim_report_to_trace(&report, &machine)`, which must
//! validate. Its rows 12–17, 21, 23 and 25, every row of [`hetero_graph`],
//! were recorded again by the change that emits a zero-length span's start
//! before its end: before it, those traces failed `RunTrace::validate`.
//!
//! A third table, recorded at `ce9699b` (the parent of the change that gave
//! the trace one label column and the profiler symbolic steps) the same
//! way, pins what reads the task table back: per cell, an FNV digest of
//! `profile::to_json` of the bridged trace's critical path (or the error it
//! gives), its folded stacks, its Chrome export and its run summary.

use hetero_rt::prelude::*;
use hetero_rt::sim_engine::{SpanKind, Trace};
use kernels::graphs::{dgemm_graph, emit_dgemm, emit_vecadd, fork_join_graph};
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

/// FNV-1a over 64-bit words and label bytes.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn trace(&mut self, r: &SimReport, trace: &Trace) {
        self.word(trace.spans().len() as u64);
        self.word(trace.makespan().seconds().to_bits());
        let mut label = String::new();
        for s in trace.spans() {
            self.word(u64::from(s.lane));
            self.word(u64::from(s.kind() == SpanKind::Compute));
            self.word(s.start.seconds().to_bits());
            self.word(s.end.seconds().to_bits());
            label.clear();
            r.label(s, &mut label);
            label.bytes().for_each(|b| self.word(u64::from(b)));
        }
    }
}

fn digest(r: &SimReport, _: &SimMachine) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(r.makespan.seconds().to_bits());
    for (t, d) in &r.assignments {
        h.word(t.0 as u64);
        h.word(d.0 as u64);
    }
    h.word(r.bytes_to_devices.to_bits());
    h.word(r.bytes_to_host.to_bits());
    h.word(r.bytes_peer.to_bits());
    h.trace(r, &r.trace);
    h.trace(r, &r.link_trace);
    h.word(r.perfmodel.len() as u64);
    h.0
}

/// The bridged trace of a report, as the codec writes it. The trace must
/// validate first: a digest of a malformed trace pins the malformation.
fn bridged_digest(r: &SimReport, machine: &SimMachine) -> u64 {
    let trace = sim_report_to_trace(r, machine);
    if let Err(e) = trace.validate() {
        panic!(
            "bridged trace of {} spans does not validate: {e}",
            r.trace.spans().len()
        );
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let text = hetero_trace::codec::export(&trace, &[]);
    text.bytes().for_each(|b| h.word(u64::from(b)));
    h.0
}

/// What the profiler and the exporters render from the bridged trace: the
/// critical path as `profile::to_json` writes it, the folded stacks, the
/// Chrome export and the run summary.
fn rendered_digest(r: &SimReport, machine: &SimMachine) -> u64 {
    use hetero_trace::{chrome, profile, summary};
    let trace = sim_report_to_trace(r, machine);
    let (path, wall_ns) = match profile::critical_path(&trace, &[]) {
        Ok(p) => (profile::to_json(&p).to_pretty(), p.critical_path_ns()),
        Err(e) => (e, 0),
    };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for text in [
        path,
        profile::folded_stacks(&trace),
        chrome::export(&trace),
        summary::export(&trace, wall_ns),
    ] {
        text.bytes().for_each(|b| h.word(u64::from(b)));
    }
    h.0
}

type Digest = fn(&SimReport, &SimMachine) -> u64;

/// DGEMM pinned to the GPUs and a vector addition pinned to the CPUs, in
/// one graph: both testbeds define both logic groups.
fn grouped_graph() -> TaskGraph {
    let mut g = TaskGraph::new();
    emit_dgemm(&mut g, 128, 64, Some("gpus".into()));
    emit_vecadd(&mut g, 1 << 16, 6, Some("cpus".into()));
    g
}

fn option_sets() -> [SimOptions; 5] {
    let base = SimOptions::default;
    [
        base(),
        SimOptions {
            shared_host_bus: true,
            ..base()
        },
        SimOptions {
            pipeline: TransferPipeline::full(),
            ..base()
        },
        SimOptions {
            flush_outputs: false,
            ..base()
        },
        SimOptions {
            learn_perfmodel: true,
            ..base()
        },
    ]
}

/// What the event engine's per-class ready pools could get wrong, in one
/// graph: three codelets (x86 only; gpu only; both) interleaved, five
/// priorities spread across them, zero-FLOP tasks (a dispatch that leaves
/// its device idle), a `cpus`-pinned and a `gpus`-pinned stretch of the
/// two-variant codelet (their device sets equal the one-variant codelets'),
/// and two fan-outs of 24 — wider than either device class.
fn hetero_graph() -> TaskGraph {
    let mut g = TaskGraph::new();
    let x86 = || Variant::new("x86");
    let gpu = || Variant::new("gpu").requiring("Cuda");
    let codelets = [
        g.add_codelet(Codelet::new("cpu_only").with_variant(x86())),
        g.add_codelet(Codelet::new("gpu_only").with_variant(gpu())),
        g.add_codelet(
            Codelet::new("both")
                .with_variant(x86())
                .with_variant(gpu().with_speedup(1.5)),
        ),
    ];
    let acc = |handle, mode| DataAccess { handle, mode };
    let seed = g.register_data("seed", 1e6);
    let wide: Vec<HandleId> = (0..24)
        .map(|i| g.register_data(format!("w{i}"), 1e5 * (1 + i % 3) as f64))
        .collect();
    let joined: Vec<HandleId> = (0..6)
        .map(|i| g.register_data(format!("j{i}"), 4e5))
        .collect();
    g.submit(
        codelets[2],
        "root",
        1e9,
        [acc(seed, AccessMode::Write)],
        None,
    );
    for stage in 0..2 {
        for (i, &w) in wide.iter().enumerate() {
            let (codelet, group) = match i {
                6..=9 => (codelets[2], Some("cpus")),
                14..=16 => (codelets[2], Some("gpus")),
                _ => (codelets[(i + stage) % 3], None),
            };
            let flops = if i % 7 == 3 {
                0.0
            } else {
                2e8 * (1 + i % 4) as f64
            };
            let source = if stage == 0 { seed } else { joined[i % 6] };
            g.submit_prioritized(
                codelet,
                format!("s{stage}w{i}"),
                flops,
                [acc(source, AccessMode::Read), acc(w, AccessMode::ReadWrite)],
                group,
                (i * 3 % 5) as i32 - 2,
            );
        }
        for (i, &j) in joined.iter().enumerate() {
            let reads = (0..4).map(|k| acc(wide[i + 6 * k], AccessMode::Read));
            g.submit_prioritized(
                codelets[(i + 1) % 3],
                format!("s{stage}j{i}"),
                if i == 2 { 0.0 } else { 5e8 },
                reads.chain([acc(j, AccessMode::ReadWrite)]),
                None,
                i as i32 % 3,
            );
        }
    }
    g
}

type Engine = fn(&TaskGraph, &SimMachine, &mut dyn Scheduler, &SimOptions) -> SimReport;

const LIST: Engine = |g, m, s, o| simulate(g, m, s, o).expect("list engine");
const EVENT: Engine = |g, m, s, o| simulate_dynamic(g, m, s, o).expect("event engine");

/// A machine whose seven devices fall into four route classes: `cpu0`
/// shares host memory; `gpu0`–`gpu2` sit on equal `PCIe` routes and `gpu0`
/// ↔ `gpu1` are also joined by `NVLink`; `gpu3` and `gpu5` share a route
/// with `gpu0`'s latency and twice its bandwidth; `gpu4` has `gpu0`'s
/// bandwidth at a third of its latency.
fn route_class_machine() -> SimMachine {
    use pdl_core::prelude::{wellknown, Descriptor, Interconnect, Platform, Property, Unit};
    let link = |ty: &str, from: &str, to: &str, gbps: &str, us: &str| {
        Interconnect::new(ty, from, to).with_descriptor(
            Descriptor::new()
                .with(Property::fixed(wellknown::BANDWIDTH, gbps).with_unit(Unit::GigaBytePerSec))
                .with(Property::fixed(wellknown::LATENCY, us).with_unit(Unit::MicroSecond)),
        )
    };
    let mut b = Platform::builder("route-classes");
    let host = b.master("host");
    b.prop(host, Property::fixed(wellknown::ARCHITECTURE, "x86"));
    let devices = [
        ("cpu0", "x86", "10.64", "cpus", None),
        ("gpu0", "gpu", "168", "gpus", Some(("6", "15"))),
        ("gpu1", "gpu", "168", "gpus", Some(("6", "15"))),
        ("gpu2", "gpu", "168", "gpus", Some(("6", "15"))),
        ("gpu3", "gpu", "168", "gpus", Some(("12", "15"))),
        ("gpu4", "gpu", "168", "gpus", Some(("6", "5"))),
        ("gpu5", "gpu", "168", "gpus", Some(("12", "15"))),
    ];
    for (id, arch, gflops, group, pcie) in devices {
        let w = b.worker(host, id).expect("the master controls its workers");
        b.prop(w, Property::fixed(wellknown::ARCHITECTURE, arch));
        b.prop(
            w,
            Property::fixed(wellknown::PEAK_GFLOPS_DP, gflops).with_unit(Unit::GigaFlopPerSec),
        );
        let (software, watts) = if arch == "gpu" {
            ("OpenCL, Cuda", "250")
        } else {
            ("x86", "12")
        };
        b.prop(w, Property::fixed(wellknown::SOFTWARE_PLATFORM, software));
        b.prop(
            w,
            Property::fixed(wellknown::TDP, watts).with_unit(Unit::Watt),
        );
        b.group(w, group);
        b.interconnect(match pcie {
            Some((gbps, us)) => link("PCIe", "host", id, gbps, us),
            None => link("shared-mem", "host", id, "32", "0.1"),
        });
    }
    b.interconnect(link("NVLink", "gpu0", "gpu1", "25", "2"));
    SimMachine::from_platform(&b.build().expect("the machine is structurally valid"))
}

/// The two testbeds every row set but the last runs on.
fn testbeds() -> [SimMachine; 2] {
    [
        SimMachine::from_platform(&synthetic::xeon_2gpu_testbed()),
        SimMachine::from_platform(&synthetic::xeon_2gpu_nvlink_testbed()),
    ]
}

/// One row per engine × machine × graph; within a row, policy-major over
/// the three policies × the five option sets.
fn rows(
    digest: Digest,
    engines: &[Engine],
    machines: &[SimMachine],
    graphs: &[TaskGraph],
    policies: [&str; 3],
) -> Vec<[u64; 15]> {
    let options = option_sets();
    let mut rows = Vec::new();
    for engine in engines {
        for machine in machines {
            for graph in graphs {
                let mut row = [0u64; 15];
                let mut cell = row.iter_mut();
                for policy in policies {
                    for o in &options {
                        let mut scheduler = by_name(policy).expect("built-in policy");
                        let report = engine(graph, machine, scheduler.as_mut(), o);
                        *cell.next().expect("15 cells") = digest(&report, machine);
                    }
                }
                rows.push(row);
            }
        }
    }
    rows
}

/// The twelve rows recorded at `1ec8f70`, then six recorded at `c4983ef`
/// (the parent of the change that gave the event engine one ready pool per
/// set of eligible devices): [`hetero_graph`] under both engines, and under
/// the event engine with the policies whose state — or whose view of every
/// candidate — depends on the order and the lists they are consulted with.
/// Last, two recorded at `5c26f97` (the parent of the change that made
/// valid sets a bitset): a small DGEMM under both engines on a cluster with
/// more devices than the set's inline word holds. Then six recorded at
/// `e9b7584` (the parent of the change that prices a transfer once per
/// route class): a DGEMM and [`hetero_graph`] under both engines and every
/// policy kind on [`route_class_machine`], where a wrong class key would
/// misprice some device.
fn actual(digest: Digest) -> Vec<[u64; 15]> {
    let stateless = ["eager", "heft", "dmda"];
    let testbeds = testbeds();
    let pinned = [
        dgemm_graph(256, 64, None),
        fork_join_graph(8, 6, None),
        grouped_graph(),
    ];
    let hetero = [hetero_graph()];
    let mut all = rows(digest, &[LIST, EVENT], &testbeds, &pinned, stateless);
    all.extend(rows(digest, &[LIST, EVENT], &testbeds, &hetero, stateless));
    all.extend(rows(
        digest,
        &[EVENT],
        &testbeds,
        &hetero,
        ["random", "round-robin", "energy"],
    ));
    let cluster = [SimMachine::from_platform(&synthetic::gpgpu_cluster(32, 3))];
    let dgemm = [dgemm_graph(384, 64, None)];
    let eager = LIST(
        &dgemm[0],
        &cluster[0],
        &mut EagerScheduler,
        &option_sets()[0],
    );
    assert!(
        eager.assignments.iter().any(|(_, d)| d.0 >= 64),
        "the cluster rows must place copies past the inline word"
    );
    all.extend(rows(digest, &[LIST, EVENT], &cluster, &dgemm, stateless));
    let classes = [route_class_machine()];
    let graphs = [dgemm_graph(256, 64, None), hetero_graph()];
    let heft = LIST(
        &graphs[0],
        &classes[0],
        &mut HeftScheduler,
        &option_sets()[0],
    );
    assert!(
        (0..classes[0].len()).all(|d| heft.assignments.iter().any(|(_, on)| on.0 == d)),
        "the route-class rows must place work on every device"
    );
    all.extend(rows(digest, &[LIST, EVENT], &classes, &graphs, stateless));
    all.extend(rows(
        digest,
        &[EVENT],
        &classes,
        &graphs,
        ["random", "round-robin", "energy"],
    ));
    all
}

/// Panics with the table this build produces when it is not `golden`.
fn check(actual: &[[u64; 15]], golden: &[[u64; 15]]) {
    if actual != golden {
        let mut table = String::new();
        for row in actual {
            table.push_str("    [\n");
            for line in row.chunks(3) {
                let cells: Vec<String> = line.iter().map(|d| format!("{d:#018x}")).collect();
                table.push_str(&format!("        {},\n", cells.join(", ")));
            }
            table.push_str("    ],\n");
        }
        let first = actual
            .iter()
            .flatten()
            .zip(golden.iter().flatten())
            .position(|(a, g)| a != g);
        panic!("digest {first:?} differs (row-major); this build produces:\n{table}");
    }
}

#[test]
fn reports_match_the_digests_recorded_at_the_parent_commit() {
    check(&actual(digest), &GOLDEN);
}

#[test]
fn bridged_traces_match_the_digests_recorded_at_the_parent_commit() {
    check(&actual(bridged_digest), &BRIDGED);
}

#[test]
fn rendered_traces_match_the_digests_recorded_at_the_parent_commit() {
    check(&actual(rendered_digest), &RENDERED);
}

#[rustfmt::skip]
const RENDERED: [[u64; 15]; 26] = [
    [
        0x491891641156fecc, 0x1fba86036ca26d6a, 0x94fa5ea42d9efeff,
        0x7f25002dbd0450ac, 0x491891641156fecc, 0x56f4067b51b4a600,
        0x98c694fa5c57f519, 0xed8d5ecb4d2fc816, 0x0ae654b585779b2d,
        0x56f4067b51b4a600, 0x56f4067b51b4a600, 0x98c694fa5c57f519,
        0xed8d5ecb4d2fc816, 0x0ae654b585779b2d, 0x56f4067b51b4a600,
    ],
    [
        0xf8f2bee254e1c361, 0xf8f2bee254e1c361, 0xf8f2bee254e1c361,
        0xf8f2bee254e1c361, 0xf8f2bee254e1c361, 0xcdd473f00e414ce2,
        0xcdd473f00e414ce2, 0xcdd473f00e414ce2, 0xcdd473f00e414ce2,
        0xcdd473f00e414ce2, 0xcdd473f00e414ce2, 0xcdd473f00e414ce2,
        0xcdd473f00e414ce2, 0xcdd473f00e414ce2, 0xcdd473f00e414ce2,
    ],
    [
        0x89c67571dc85b304, 0x56b2ed449b039abc, 0xed7a1997e47d9b0c,
        0x620ca75fb83b7d9b, 0x89c67571dc85b304, 0xfc49368953991389,
        0xbe8d0ed1e7ef406d, 0x390a76b3885ff555, 0x71493627b155c543,
        0xfc49368953991389, 0xfc49368953991389, 0xbe8d0ed1e7ef406d,
        0x390a76b3885ff555, 0x71493627b155c543, 0xfc49368953991389,
    ],
    [
        0xbe18aadcdf304939, 0xd0620418755c893f, 0x58dcb0f7e7e0ae31,
        0x00bc2f21aa475619, 0xbe18aadcdf304939, 0xdfa5c60dce9cb2b5,
        0x6e03abdf211d130c, 0xe0a30493bd535214, 0x7bd3a739c895b998,
        0xdfa5c60dce9cb2b5, 0xdfa5c60dce9cb2b5, 0x6e03abdf211d130c,
        0xe0a30493bd535214, 0x7bd3a739c895b998, 0xdfa5c60dce9cb2b5,
    ],
    [
        0x7eceb80863725994, 0x7eceb80863725994, 0x7eceb80863725994,
        0x7eceb80863725994, 0x7eceb80863725994, 0x8881a0cbdf62fe37,
        0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37,
        0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37,
        0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37,
    ],
    [
        0x7d6b8fb433c90871, 0x31b3b03aa6b78a09, 0xb4b3e1a6f3311725,
        0xf0933fa1fbe2c80e, 0x7d6b8fb433c90871, 0xc27e5d84a98432fc,
        0xbd05241ed9fe0fb8, 0xbfccdb435348339f, 0xbf7d19d8da0a5216,
        0xc27e5d84a98432fc, 0xc27e5d84a98432fc, 0xbd05241ed9fe0fb8,
        0x4ac2772fd11ed031, 0xbf7d19d8da0a5216, 0xc27e5d84a98432fc,
    ],
    [
        0x8982f501471814af, 0xe7378fce48968e75, 0xe3010c843f1559e9,
        0x4b77be235c09d9d1, 0x8982f501471814af, 0x6f01579fd3a7c0d2,
        0xffe08319fe43b6ac, 0x3fad53c7c2ef3ca5, 0xd53a67b8b157b956,
        0x6f01579fd3a7c0d2, 0x6f01579fd3a7c0d2, 0xffe08319fe43b6ac,
        0x3fad53c7c2ef3ca5, 0xd53a67b8b157b956, 0x6f01579fd3a7c0d2,
    ],
    [
        0xf8f2bee254e1c361, 0xf8f2bee254e1c361, 0xf8f2bee254e1c361,
        0xf8f2bee254e1c361, 0xf8f2bee254e1c361, 0xcdd473f00e414ce2,
        0xcdd473f00e414ce2, 0xcdd473f00e414ce2, 0xcdd473f00e414ce2,
        0xcdd473f00e414ce2, 0xcdd473f00e414ce2, 0xcdd473f00e414ce2,
        0xcdd473f00e414ce2, 0xcdd473f00e414ce2, 0xcdd473f00e414ce2,
    ],
    [
        0x72d1e04e2d702ee9, 0x72c42ae75a145e21, 0xaef2757faea37255,
        0x1e040f6cfb613523, 0x72d1e04e2d702ee9, 0x72d1e04e2d702ee9,
        0x72c42ae75a145e21, 0xaef2757faea37255, 0x1e040f6cfb613523,
        0x72d1e04e2d702ee9, 0x72d1e04e2d702ee9, 0x72c42ae75a145e21,
        0xaef2757faea37255, 0x1e040f6cfb613523, 0x72d1e04e2d702ee9,
    ],
    [
        0x4b0a5e1b0db0377a, 0x777af54305d7c2e0, 0x31ade1b11e8f47e6,
        0x470b66ff51eada24, 0x4b0a5e1b0db0377a, 0x1e64a2bc68097a67,
        0x4b25b9fb49b92e79, 0xc604c0b9907cac2d, 0xce00abe5026c7283,
        0x1e64a2bc68097a67, 0x1e64a2bc68097a67, 0x4b25b9fb49b92e79,
        0xc604c0b9907cac2d, 0xce00abe5026c7283, 0x1e64a2bc68097a67,
    ],
    [
        0x7eceb80863725994, 0x7eceb80863725994, 0x7eceb80863725994,
        0x7eceb80863725994, 0x7eceb80863725994, 0x8881a0cbdf62fe37,
        0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37,
        0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37,
        0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37, 0x8881a0cbdf62fe37,
    ],
    [
        0x93f77e40c1fef2dc, 0x10c13183a7fbdaf4, 0xd62b9ba3e67698ac,
        0xc7105d67859dacf6, 0x93f77e40c1fef2dc, 0x93f77e40c1fef2dc,
        0x10c13183a7fbdaf4, 0xd62b9ba3e67698ac, 0xc7105d67859dacf6,
        0x93f77e40c1fef2dc, 0x93f77e40c1fef2dc, 0x10c13183a7fbdaf4,
        0xd62b9ba3e67698ac, 0xc7105d67859dacf6, 0x93f77e40c1fef2dc,
    ],
    [
        0x2aa1144ec5a022cf, 0xed2973b86b52c9da, 0x5d7b09c6230621c6,
        0x4a9a8293a8b4af8f, 0x2aa1144ec5a022cf, 0x0396800b6caa8d4b,
        0x1a358df3575ecc33, 0x1120af3e4c6a1320, 0x42c9c081d414ff62,
        0x0396800b6caa8d4b, 0x0396800b6caa8d4b, 0x1a358df3575ecc33,
        0x1120af3e4c6a1320, 0x42c9c081d414ff62, 0x6f7f5c07f3caad58,
    ],
    [
        0x5bfbefa3aeb2541a, 0x9bacb6aa67e8956f, 0xe5384c3c060f896d,
        0xfdc4805439f74b9a, 0x5bfbefa3aeb2541a, 0x7f5a8bbecb83fe3e,
        0x6c7bf6f88daa1646, 0x8e2712ff2b2c9267, 0x3ab37547d9ed07d7,
        0x7f5a8bbecb83fe3e, 0x7f5a8bbecb83fe3e, 0x6c7bf6f88daa1646,
        0x8e2712ff2b2c9267, 0x3ab37547d9ed07d7, 0xf99f67a6a128d72d,
    ],
    [
        0x6138154c513dac05, 0xcb7b4c8c4350e3c6, 0x39db5d99de149832,
        0x1d631bedd16c01c3, 0x6138154c513dac05, 0x14a50c974be90088,
        0xc53e1601bf4b72b3, 0x34361f6e74c35f49, 0xd5ef59628bf8dde0,
        0x14a50c974be90088, 0x14a50c974be90088, 0xc53e1601bf4b72b3,
        0x34361f6e74c35f49, 0xd5ef59628bf8dde0, 0x14a50c974be90088,
    ],
    [
        0x724425afb96f3150, 0x909f788963d1b533, 0x54920ba740a5f460,
        0xe2264b8eeecd3016, 0x724425afb96f3150, 0x31d25bc94d9a9e7d,
        0x7a9fecf526d15426, 0x800ec2dbbf5d4c7c, 0x157a6d2f5088f015,
        0x31d25bc94d9a9e7d, 0x31d25bc94d9a9e7d, 0x7a9fecf526d15426,
        0x800ec2dbbf5d4c7c, 0x157a6d2f5088f015, 0x31d25bc94d9a9e7d,
    ],
    [
        0xc2fa1c5f972b4192, 0x154170838fdf09c3, 0x5c5b5fa3ef6c3c58,
        0xd51a96f082f3124f, 0xc2fa1c5f972b4192, 0x5ac0469941fa9436,
        0x1be35d2e173c2494, 0x76cf07f950897fbd, 0xed11cca796bd0e23,
        0x5ac0469941fa9436, 0x404dbbfaffbccdae, 0x1604fce12e86da9a,
        0x08d9b3066e1f3965, 0x479ee83ebbfe3f8e, 0x404dbbfaffbccdae,
    ],
    [
        0xcb15612c4c530527, 0x14640198d9160e36, 0xfa877129bee8be24,
        0x8a62dcd411f802fa, 0xcb15612c4c530527, 0xb262c0ffef0827a3,
        0xd1ac5b18b28b1b41, 0xcc4df812e6b66550, 0x3b32fe2819c17e96,
        0xb262c0ffef0827a3, 0x6301f67ecc33b39b, 0x14142bcd53b8becf,
        0xa7be6361755f31a0, 0xe1b5fbbd3ed932fb, 0x6301f67ecc33b39b,
    ],
    [
        0x09ab241f02af7e61, 0x0f8f824e6e42d421, 0xc6d79898ba170931,
        0x77472f4790720d79, 0x09ab241f02af7e61, 0x24f9cdf17a038aed,
        0xd97f3e8373efb52f, 0x61fbef256f805ead, 0x07269c29c03d8d3d,
        0x24f9cdf17a038aed, 0x24f9cdf17a038aed, 0xd97f3e8373efb52f,
        0x61fbef256f805ead, 0x07269c29c03d8d3d, 0x24f9cdf17a038aed,
    ],
    [
        0xa999ea4bb91e985b, 0xfcd3756afe50ff8e, 0xd807bb492a494bb2,
        0x4c4336a722ed703a, 0xa999ea4bb91e985b, 0xf6d55b734d18e92d,
        0x3abd35dcc1608dde, 0xa1d619f1e48f4f16, 0xfdfcf4ec99eb23bd,
        0xf6d55b734d18e92d, 0xf6d55b734d18e92d, 0x3abd35dcc1608dde,
        0xa1d619f1e48f4f16, 0xfdfcf4ec99eb23bd, 0xf6d55b734d18e92d,
    ],
    [
        0x680779e1a8276b48, 0x3561fbc72146af34, 0xcacf0c556a225083,
        0x26c34f290e0ad981, 0x680779e1a8276b48, 0xf745b76d4d91f71e,
        0xc488fa34dee589ad, 0x70a76eeba4747aab, 0xbc2eb406ae7f4932,
        0xf745b76d4d91f71e, 0xf745b76d4d91f71e, 0xc488fa34dee589ad,
        0x249823061f8372c6, 0xbc2eb406ae7f4932, 0xf745b76d4d91f71e,
    ],
    [
        0x8cdd4f253a64ed12, 0xdc6b7d028b320380, 0x61999138eb566297,
        0x3db067b7777b7fc3, 0x8cdd4f253a64ed12, 0xdee9e3fbf6dc89fe,
        0x07787e62b2de4285, 0x7e65bb2cd8a2dbe8, 0x03bfac1cc4b6d353,
        0xdee9e3fbf6dc89fe, 0xdee9e3fbf6dc89fe, 0x07787e62b2de4285,
        0x5c6849e0988d5718, 0x03bfac1cc4b6d353, 0xdee9e3fbf6dc89fe,
    ],
    [
        0x0eaef77a54ed76ef, 0x26e20bbbafb99647, 0x34d2be62baebaccb,
        0xd02fe6d2d850bf84, 0x0eaef77a54ed76ef, 0xd72428259f96df46,
        0xf0d93750aa25ff86, 0xbf66745068dafb8c, 0x07c352d5a3356b93,
        0xd72428259f96df46, 0xd72428259f96df46, 0xf0d93750aa25ff86,
        0xbbf9860701380353, 0x07c352d5a3356b93, 0xd72428259f96df46,
    ],
    [
        0x256bcaef4bd04677, 0x1b7918d5f6a9d598, 0x588feeeffc8b4266,
        0x73cfad9a22636408, 0x256bcaef4bd04677, 0x1f808cbaaa7e431f,
        0xac691606113f841d, 0x8aaed7c392c234c6, 0x35acb7219e85733c,
        0x1f808cbaaa7e431f, 0x1f808cbaaa7e431f, 0xac691606113f841d,
        0xd01a65a3435c905b, 0x35acb7219e85733c, 0x1f808cbaaa7e431f,
    ],
    [
        0xe60d8cc52b836db8, 0x8b36304fa9782d0a, 0x74d4dd26f77069f4,
        0x48e617890ef3fc76, 0xe60d8cc52b836db8, 0x6e84f2626438d771,
        0x4faae2ce72b2aa6a, 0x8d48dce870ce13c1, 0x41b9984261cbd339,
        0x6e84f2626438d771, 0x3162786eabb6b41a, 0x6c6ae2123780f891,
        0xc11bbf9256b9875b, 0xd977339272168e76, 0x3162786eabb6b41a,
    ],
    [
        0x7ee28d213740dbdd, 0xde46caddeba3474c, 0x8192ca5be009f28d,
        0x5ec3fb3ca0e80af1, 0x7ee28d213740dbdd, 0x61e543880d3d2642,
        0x584a6de56a9f3fb2, 0xce3a3ee5e51df71b, 0x99661b50d839aeb1,
        0x61e543880d3d2642, 0x759f45b184b61d01, 0xd4989f9ea5395170,
        0x809d65bc41c2b924, 0x7e0821cab8f92393, 0x759f45b184b61d01,
    ],
];

#[rustfmt::skip]
const GOLDEN: [[u64; 15]; 26] = [
    [
        0x0d1e63e0593cb392, 0xadec3fba7750f6d4, 0x885c144e860aa06d,
        0x36569fcde5d8e7ae, 0xcf28d5ce435e1f50, 0xd6a3556522ec613e,
        0x451d70eb1cc2a819, 0x9e5a043848655c0d, 0xa05903bc90bbb09d,
        0x98adc7530d0dccfc, 0xd6a3556522ec613e, 0x451d70eb1cc2a819,
        0x9e5a043848655c0d, 0xa05903bc90bbb09d, 0x98adc7530d0dccfc,
    ],
    [
        0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc,
        0x3ba2c7cd33a120bc, 0x98931ce8546eff1f, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0x4ff0fb83dbfcca8b, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0x4ff0fb83dbfcca8b,
    ],
    [
        0x9ae29fc1eb62b46d, 0xc6a298090d03fd0e, 0x98e59cab55a9a47f,
        0xe73b2030dabd10ce, 0xd8d82dd4014148af, 0x5ffd0b3216709ea2,
        0x19d6914db0bdd007, 0xdfaa6b8bc06e4055, 0x63b7fd04606d95cc,
        0x22077d2000920a60, 0x5ffd0b3216709ea2, 0x19d6914db0bdd007,
        0xdfaa6b8bc06e4055, 0x63b7fd04606d95cc, 0x22077d2000920a60,
    ],
    [
        0x0d1e63e0593cb392, 0xadec3fba7750f6d4, 0xf72b17b62f7a429f,
        0x36569fcde5d8e7ae, 0xcf28d5ce435e1f50, 0xd6a3556522ec613e,
        0x451d70eb1cc2a819, 0xd47c427f658cd162, 0xa05903bc90bbb09d,
        0x98adc7530d0dccfc, 0xd6a3556522ec613e, 0x451d70eb1cc2a819,
        0xd47c427f658cd162, 0xa05903bc90bbb09d, 0x98adc7530d0dccfc,
    ],
    [
        0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc,
        0x3ba2c7cd33a120bc, 0x98931ce8546eff1f, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0x4ff0fb83dbfcca8b, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0x4ff0fb83dbfcca8b,
    ],
    [
        0x9ae29fc1eb62b46d, 0xc6a298090d03fd0e, 0x32b17039daf357c8,
        0xe73b2030dabd10ce, 0xd8d82dd4014148af, 0x5ffd0b3216709ea2,
        0x19d6914db0bdd007, 0x825acb1f50b5cae1, 0x63b7fd04606d95cc,
        0x22077d2000920a60, 0x5ffd0b3216709ea2, 0x19d6914db0bdd007,
        0xca3e85f8e95c8002, 0x63b7fd04606d95cc, 0x22077d2000920a60,
    ],
    [
        0x67aad4f40b02b740, 0x605c061f3e547871, 0x17864910328eccc9,
        0x6cb3173f8870d637, 0x67aad4f40b02b740, 0x933d075abd48edef,
        0x964ef2cfa0bfa841, 0x2df864c3f927ec92, 0x472b82b6cf78abcb,
        0x933d075abd48edef, 0x933d075abd48edef, 0x964ef2cfa0bfa841,
        0x2df864c3f927ec92, 0x472b82b6cf78abcb, 0x933d075abd48edef,
    ],
    [
        0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc,
        0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
    ],
    [
        0x1d116ddf99fe4032, 0x8424f218c456733b, 0x470dd434388fc30d,
        0x83db7c173e2569fc, 0x1d116ddf99fe4032, 0x1d116ddf99fe4032,
        0x8424f218c456733b, 0x470dd434388fc30d, 0x83db7c173e2569fc,
        0x1d116ddf99fe4032, 0x1d116ddf99fe4032, 0x8424f218c456733b,
        0x470dd434388fc30d, 0x83db7c173e2569fc, 0x1d116ddf99fe4032,
    ],
    [
        0x67aad4f40b02b740, 0x605c061f3e547871, 0x8f1146c391237ce8,
        0x6cb3173f8870d637, 0x67aad4f40b02b740, 0x933d075abd48edef,
        0x964ef2cfa0bfa841, 0x13d2ff77931df877, 0x472b82b6cf78abcb,
        0x933d075abd48edef, 0x933d075abd48edef, 0x964ef2cfa0bfa841,
        0x13d2ff77931df877, 0x472b82b6cf78abcb, 0x933d075abd48edef,
    ],
    [
        0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc,
        0x3ba2c7cd33a120bc, 0x3ba2c7cd33a120bc, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
        0xf300a668bb2eec28, 0xf300a668bb2eec28, 0xf300a668bb2eec28,
    ],
    [
        0x1d116ddf99fe4032, 0x8424f218c456733b, 0x4375b8e9e54ef87b,
        0x83db7c173e2569fc, 0x1d116ddf99fe4032, 0x1d116ddf99fe4032,
        0x8424f218c456733b, 0x4375b8e9e54ef87b, 0x83db7c173e2569fc,
        0x1d116ddf99fe4032, 0x1d116ddf99fe4032, 0x8424f218c456733b,
        0x4375b8e9e54ef87b, 0x83db7c173e2569fc, 0x1d116ddf99fe4032,
    ],
    [
        0x6ede9b0fefd55719, 0xed394c1d3f7a21b5, 0xd16977408630c5d1,
        0x3bd4cf31dc5c7a4a, 0x960329d0a34a5032, 0x755e92a018c6d953,
        0x462a60d8c2e175f3, 0xccacfa057640ed58, 0x747dfbc9c732cf5c,
        0x104475cd4f734bf8, 0x755e92a018c6d953, 0x462a60d8c2e175f3,
        0xccacfa057640ed58, 0x747dfbc9c732cf5c, 0xb9e975283b0bf6fe,
    ],
    [
        0x6ede9b0fefd55719, 0xed394c1d3f7a21b5, 0xf94e327e8b7e62d4,
        0x3bd4cf31dc5c7a4a, 0x960329d0a34a5032, 0x755e92a018c6d953,
        0x462a60d8c2e175f3, 0x7ea11b98ea9208c7, 0x747dfbc9c732cf5c,
        0x104475cd4f734bf8, 0x755e92a018c6d953, 0x462a60d8c2e175f3,
        0x7ea11b98ea9208c7, 0x747dfbc9c732cf5c, 0xb9e975283b0bf6fe,
    ],
    [
        0xcd64b105f10c378c, 0x87a055eb5635c4a3, 0xd6a6e92505c99ec8,
        0x83554fc215d67827, 0xcd64b105f10c378c, 0xa89932315a45c635,
        0x1b5ac591cc15667d, 0xe3e967e1e1f6dc5c, 0xf9deb5c781fe5f1b,
        0xa89932315a45c635, 0xa89932315a45c635, 0x1b5ac591cc15667d,
        0xe3e967e1e1f6dc5c, 0xf9deb5c781fe5f1b, 0xa89932315a45c635,
    ],
    [
        0xcd64b105f10c378c, 0x87a055eb5635c4a3, 0x87c6e95b12cc1d90,
        0x83554fc215d67827, 0xcd64b105f10c378c, 0xa89932315a45c635,
        0x1b5ac591cc15667d, 0xaf29e7cb054a4c98, 0xf9deb5c781fe5f1b,
        0xa89932315a45c635, 0xa89932315a45c635, 0x1b5ac591cc15667d,
        0xaf29e7cb054a4c98, 0xf9deb5c781fe5f1b, 0xa89932315a45c635,
    ],
    [
        0x76534eb6d6af4539, 0x8eb3c8d4e1d1c57a, 0x771c0989bb4a15b3,
        0xb971466e827806c2, 0x76534eb6d6af4539, 0xd9ae8de5ee2656e1,
        0x4719f9b6f61a434e, 0x0faaf21a49708f0c, 0x7d6e6ff5c7a9d1d0,
        0xd9ae8de5ee2656e1, 0xc5aa17664547155d, 0x224ea15b43ae5659,
        0x8d7ccf517a834cb1, 0xa15564c3249c602a, 0xc5aa17664547155d,
    ],
    [
        0x76534eb6d6af4539, 0x8eb3c8d4e1d1c57a, 0xe44f27a0e1c76016,
        0xb971466e827806c2, 0x76534eb6d6af4539, 0xd9ae8de5ee2656e1,
        0x4719f9b6f61a434e, 0x237df2b7843f5fbb, 0x7d6e6ff5c7a9d1d0,
        0xd9ae8de5ee2656e1, 0xc5aa17664547155d, 0x224ea15b43ae5659,
        0xf2b1e21e57de28b9, 0xa15564c3249c602a, 0xc5aa17664547155d,
    ],
    [
        0x0f301695fee685e9, 0xb08da8bd2949df95, 0xce22ce050ccf705d,
        0xedc0d9946104d456, 0xf0354f8cf3f73bc8, 0x13573319d8c9d239,
        0x39168bf2e6038364, 0xb6dff3de6df82f53, 0xb4094e6ddcefe188,
        0xf45c6c10cdda8818, 0x13573319d8c9d239, 0x39168bf2e6038364,
        0xb6dff3de6df82f53, 0xb4094e6ddcefe188, 0xf45c6c10cdda8818,
    ],
    [
        0x4f9704d721edd901, 0xbc3c9b9274f3208a, 0x60bc7d2fe3e3fd76,
        0xeac0c91559a7321c, 0x4f9704d721edd901, 0xec4ebf819c40c349,
        0x14086b390b091f30, 0xf790157b3ead7a53, 0x58999588a9022cf8,
        0xec4ebf819c40c349, 0xec4ebf819c40c349, 0x14086b390b091f30,
        0xf790157b3ead7a53, 0x58999588a9022cf8, 0xec4ebf819c40c349,
    ],
    [
        0x7643fc183e92e5e6, 0x02f6c7ba545ba481, 0x1c77053d6e02e8c2,
        0xe547513e3c475f90, 0x384e6e0628b451a4, 0x4baf23a44c47fb40,
        0xb277099093d3227b, 0x6430308826b2938a, 0xa2ea240ecba7687c,
        0x89a4b1b662268f82, 0x4baf23a44c47fb40, 0xb277099093d3227b,
        0x94e00dbb9ec38117, 0xa2ea240ecba7687c, 0x89a4b1b662268f82,
    ],
    [
        0x2a450b19bea81fbf, 0xcdc6373130289dd6, 0xb5cebcce268f3318,
        0x7bb2685cb81fc503, 0xd57e7db6465ff054, 0x3fb15d5deaa21242,
        0x9df8ec3c122c5097, 0xcc04b348a49d4091, 0x5bf75803cbf277c1,
        0x188cce9d372d1929, 0x3fb15d5deaa21242, 0x9df8ec3c122c5097,
        0x54bee731018794f1, 0x5bf75803cbf277c1, 0x188cce9d372d1929,
    ],
    [
        0x5cc077cca42a36ad, 0xfe2a549187f361a9, 0x7d4a04c1cffa3a6d,
        0xa8a578cdecac3032, 0x5cc077cca42a36ad, 0x714c218f92a3699d,
        0x65a276dd7c0215a6, 0xa2fbf284802d48fb, 0x5d56174351c9b167,
        0x714c218f92a3699d, 0x714c218f92a3699d, 0x65a276dd7c0215a6,
        0x6fdaf0bfe037a3a0, 0x5d56174351c9b167, 0x714c218f92a3699d,
    ],
    [
        0x6bae413c3b13ef96, 0x8f698bf296875e09, 0x58e83d0f1cea277c,
        0x290fd70ea6ad82a0, 0x6bae413c3b13ef96, 0x5a6077d4634fd824,
        0x1825c69067d75efb, 0xf3e8c1c51c3cb29b, 0x660795d303b113c9,
        0x5a6077d4634fd824, 0x5a6077d4634fd824, 0x1825c69067d75efb,
        0x0418cf3057465d1b, 0x660795d303b113c9, 0x5a6077d4634fd824,
    ],
    [
        0x864ea164fac1b8a1, 0xe805026016a397dc, 0x8a25842fa78c88bf,
        0x69dfcdffe63cbf28, 0x864ea164fac1b8a1, 0xf55085185326006b,
        0x2cebfb70641b92d2, 0x255eb53cc62685b2, 0x6d5092de79cd14a6,
        0xf55085185326006b, 0xc21fb064d1dde6b5, 0xbe4264e70ef12bf4,
        0x901a835dc13c2103, 0xbb67c9347589a42e, 0xc21fb064d1dde6b5,
    ],
    [
        0xcddf72e7a95c5e8e, 0x3d1f4120bf5035ca, 0xb95ab3804f6a2c79,
        0xb0bcd2850c912b7a, 0xcddf72e7a95c5e8e, 0x71b2432026b6706f,
        0x19bd11b341b640df, 0xb0c62e29fead3a91, 0xcd02e348e00b4ee0,
        0x71b2432026b6706f, 0x71f20dfa769f923e, 0x4652da475b959cc5,
        0x164e4adafebee8e4, 0xc6124caf80628b19, 0x71f20dfa769f923e,
    ],
];

#[rustfmt::skip]
const BRIDGED: [[u64; 15]; 26] = [
    [
        0xbed976d45f20207e, 0x4b607d51a64adfbe, 0xae273dc062a067d2,
        0x6564279fc02a4c79, 0xbed976d45f20207e, 0x25216012d36c00c7,
        0x286c8dd2bc07fe98, 0xede855d625358d48, 0xa6b7ad41aef6c628,
        0x25216012d36c00c7, 0x25216012d36c00c7, 0x286c8dd2bc07fe98,
        0xede855d625358d48, 0xa6b7ad41aef6c628, 0x25216012d36c00c7,
    ],
    [
        0x49d05fb7c89469af, 0x49d05fb7c89469af, 0x49d05fb7c89469af,
        0x49d05fb7c89469af, 0x49d05fb7c89469af, 0x89a8d2bc4d236c2f,
        0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f,
        0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f,
        0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f,
    ],
    [
        0x747edd88cc2abae1, 0xb7aa0fb3e2bc7f96, 0x44d453c681d557a9,
        0x5a7052fb9cc3898a, 0x747edd88cc2abae1, 0x67cc0de487d51dc1,
        0xcfc831550478e816, 0x92f44d00c3ba268b, 0x9241f232a442fecf,
        0x67cc0de487d51dc1, 0x67cc0de487d51dc1, 0xcfc831550478e816,
        0x92f44d00c3ba268b, 0x9241f232a442fecf, 0x67cc0de487d51dc1,
    ],
    [
        0xa8f99b15ceecd38b, 0xdef2ee461d1650ab, 0x4e08b5e537650cd9,
        0x51c4ce19c65ddccc, 0xa8f99b15ceecd38b, 0xc68507c216da33f2,
        0xbe21763c7921154d, 0xec42fc9be34e3df8, 0x79190dfc6009039d,
        0xc68507c216da33f2, 0xc68507c216da33f2, 0xbe21763c7921154d,
        0xec42fc9be34e3df8, 0x79190dfc6009039d, 0xc68507c216da33f2,
    ],
    [
        0xd9ad8cce67bd9c1a, 0xd9ad8cce67bd9c1a, 0xd9ad8cce67bd9c1a,
        0xd9ad8cce67bd9c1a, 0xd9ad8cce67bd9c1a, 0x3439c50813de251a,
        0x3439c50813de251a, 0x3439c50813de251a, 0x3439c50813de251a,
        0x3439c50813de251a, 0x3439c50813de251a, 0x3439c50813de251a,
        0x3439c50813de251a, 0x3439c50813de251a, 0x3439c50813de251a,
    ],
    [
        0xbf754b14eb8dc7d4, 0x21de7246af204f03, 0x02a08a10faf1d7dc,
        0x89520d944d6e44bf, 0xbf754b14eb8dc7d4, 0xcef5b1ff27a77ff4,
        0x1d2b70e586b78003, 0x379c9fe38a14ead9, 0x12eee698af712c7a,
        0xcef5b1ff27a77ff4, 0xcef5b1ff27a77ff4, 0x1d2b70e586b78003,
        0xe8c5b57d9e662bf4, 0x12eee698af712c7a, 0xcef5b1ff27a77ff4,
    ],
    [
        0xb2397080ff9f6947, 0x22bdd93e58b2ec70, 0x356a61a06346ebf2,
        0x0bb2ce7d0e8ad867, 0xb2397080ff9f6947, 0x422d5c463cbdfb25,
        0xf532725eb7f60add, 0x3f840061d479c7f2, 0x95731971aeb1e749,
        0x422d5c463cbdfb25, 0x422d5c463cbdfb25, 0xf532725eb7f60add,
        0x3f840061d479c7f2, 0x95731971aeb1e749, 0x422d5c463cbdfb25,
    ],
    [
        0x49d05fb7c89469af, 0x49d05fb7c89469af, 0x49d05fb7c89469af,
        0x49d05fb7c89469af, 0x49d05fb7c89469af, 0x89a8d2bc4d236c2f,
        0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f,
        0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f,
        0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f, 0x89a8d2bc4d236c2f,
    ],
    [
        0x84cc987038c7e801, 0x06dff3df91730991, 0xfe41e9c64301326b,
        0x385a9b504df4680f, 0x84cc987038c7e801, 0x84cc987038c7e801,
        0x06dff3df91730991, 0xfe41e9c64301326b, 0x385a9b504df4680f,
        0x84cc987038c7e801, 0x84cc987038c7e801, 0x06dff3df91730991,
        0xfe41e9c64301326b, 0x385a9b504df4680f, 0x84cc987038c7e801,
    ],
    [
        0x5b1d5693948f9492, 0x23e5e406c1d07785, 0xcf2504143f4d2721,
        0xf5b2829ca42f47f2, 0x5b1d5693948f9492, 0xafa5d4b443731170,
        0xde1e8de0d67858e8, 0x616682926d5b06a7, 0x6085cb870e0b86dc,
        0xafa5d4b443731170, 0xafa5d4b443731170, 0xde1e8de0d67858e8,
        0x616682926d5b06a7, 0x6085cb870e0b86dc, 0xafa5d4b443731170,
    ],
    [
        0xd9ad8cce67bd9c1a, 0xd9ad8cce67bd9c1a, 0xd9ad8cce67bd9c1a,
        0xd9ad8cce67bd9c1a, 0xd9ad8cce67bd9c1a, 0x3439c50813de251a,
        0x3439c50813de251a, 0x3439c50813de251a, 0x3439c50813de251a,
        0x3439c50813de251a, 0x3439c50813de251a, 0x3439c50813de251a,
        0x3439c50813de251a, 0x3439c50813de251a, 0x3439c50813de251a,
    ],
    [
        0x536ca00b20439ab4, 0x525b6a2016ebca84, 0x837925038bf2ecf9,
        0x416a994b17bf723a, 0x536ca00b20439ab4, 0x536ca00b20439ab4,
        0x525b6a2016ebca84, 0x837925038bf2ecf9, 0x416a994b17bf723a,
        0x536ca00b20439ab4, 0x536ca00b20439ab4, 0x525b6a2016ebca84,
        0x837925038bf2ecf9, 0x416a994b17bf723a, 0x536ca00b20439ab4,
    ],
    [
        0xd39790571f837db7, 0xc227f8f8dfc5b2c6, 0x60ea9292f7335519,
        0xff8d05c8602dfba7, 0xd39790571f837db7, 0x0c46d2fd9bc23ee0,
        0x3e12f94b0c5c991e, 0x851ac4a08191f65d, 0x0228cf6290b7d82c,
        0x0c46d2fd9bc23ee0, 0x0c46d2fd9bc23ee0, 0x3e12f94b0c5c991e,
        0x851ac4a08191f65d, 0x0228cf6290b7d82c, 0x9789320f5a358405,
    ],
    [
        0x6eeba3726e9b73a2, 0xdd9d1080138d6833, 0x9e4c33e2b2a11f13,
        0x3ce4e5678f038b72, 0x6eeba3726e9b73a2, 0x65a0e3ec6c529495,
        0x874e464bec1d0f4b, 0x590890c519e93cfc, 0x6bf88470fa7806f9,
        0x65a0e3ec6c529495, 0x65a0e3ec6c529495, 0x874e464bec1d0f4b,
        0x590890c519e93cfc, 0x6bf88470fa7806f9, 0xb0c142bb321e11f0,
    ],
    [
        0x6107b91951c5c9ca, 0x9cb22e1cbf43e0ce, 0xa4bf038dd0b28dc7,
        0x97f98bb1dc9104be, 0x6107b91951c5c9ca, 0xd22c54c4648d3792,
        0x47c5977cd87b8a9c, 0x6f572192a547e9c6, 0xc9abf46ece6bfa44,
        0xd22c54c4648d3792, 0xd22c54c4648d3792, 0x47c5977cd87b8a9c,
        0x6f572192a547e9c6, 0xc9abf46ece6bfa44, 0xd22c54c4648d3792,
    ],
    [
        0xdcdfb10c99e43a1f, 0xa0c3deca4f7d795b, 0x401f8913a71a7d03,
        0x78d69e1e73bacdab, 0xdcdfb10c99e43a1f, 0xd453f090f0df2da7,
        0x88e094a2692cd1a9, 0xc06f63798a97d43c, 0xe0835f0935cbed91,
        0xd453f090f0df2da7, 0xd453f090f0df2da7, 0x88e094a2692cd1a9,
        0xc06f63798a97d43c, 0xe0835f0935cbed91, 0xd453f090f0df2da7,
    ],
    [
        0xf6b40b676d0473b4, 0x871d894b0bc712d7, 0x7da4d054e977af19,
        0x351d3c3429ba83b5, 0xf6b40b676d0473b4, 0x43e1d2a36a2a8a8d,
        0xfb69d66b91170267, 0xf54a593b24e305e2, 0x032c293972c91cd2,
        0x43e1d2a36a2a8a8d, 0x690f7ecaa7766152, 0xd9004c962b79c31f,
        0x00f8edf079608a20, 0x69dcb378877ccf38, 0x690f7ecaa7766152,
    ],
    [
        0xe86d56c8daf186e1, 0xcb2ae6baeb6cedc2, 0x263cab1382172b72,
        0x432b87f51002f100, 0xe86d56c8daf186e1, 0x46b5d9a5df0add58,
        0xd5c7f2b73e264c72, 0x67656c724994ed84, 0x3511080402b49f27,
        0x46b5d9a5df0add58, 0x9d0e41131e5c5987, 0xe2a53006bb8cd18a,
        0x9671165bee8d40c0, 0x53b657fa4e19608d, 0x9d0e41131e5c5987,
    ],
    [
        0x3d4cbd344920b5cf, 0xfadf07b33f6cbe23, 0xe1098a386a283803,
        0x04228067cfb0db7e, 0x3d4cbd344920b5cf, 0xf296f9fdc80fa2be,
        0x9339b17bc711a405, 0x758600f5b61d98ca, 0xdcf0b72432379355,
        0xf296f9fdc80fa2be, 0xf296f9fdc80fa2be, 0x9339b17bc711a405,
        0x758600f5b61d98ca, 0xdcf0b72432379355, 0xf296f9fdc80fa2be,
    ],
    [
        0x987d869e1f96719f, 0xa13f464d2039cf8c, 0x8c002dd991eff6a7,
        0xb4698bf57521cfdb, 0x987d869e1f96719f, 0xdd8e846c17a1497e,
        0x06fd2fc81953d40e, 0x7ed65e432aced06a, 0xc757988f9b586f95,
        0xdd8e846c17a1497e, 0xdd8e846c17a1497e, 0x06fd2fc81953d40e,
        0x7ed65e432aced06a, 0xc757988f9b586f95, 0xdd8e846c17a1497e,
    ],
    [
        0x96e26f2e1aa8eb4f, 0x43805ff48312f050, 0xa9012aae1032f2db,
        0x9f221ff469781aa5, 0x96e26f2e1aa8eb4f, 0x8959c53f3d329450,
        0x1c283644ee780cbc, 0xc719ccc281ca6f12, 0x4c6ff72ea65a685f,
        0x8959c53f3d329450, 0x8959c53f3d329450, 0x1c283644ee780cbc,
        0xadb436d0925dac42, 0x4c6ff72ea65a685f, 0x8959c53f3d329450,
    ],
    [
        0xa1988f93dde57533, 0x24b3605690e21b83, 0x98fecd9ed98f6f5f,
        0x61b207841f97b609, 0xa1988f93dde57533, 0x8023a261d32ee8b0,
        0xa22b1f4e098678fb, 0x5351691fc90da339, 0x3fed91af42f781aa,
        0x8023a261d32ee8b0, 0x8023a261d32ee8b0, 0xa22b1f4e098678fb,
        0x74cd7ef8c21e3fc9, 0x3fed91af42f781aa, 0x8023a261d32ee8b0,
    ],
    [
        0x6b5c96980235a218, 0x7b40ae8ea5bed15d, 0x68bc7ec1631b84fd,
        0x025dfdad9862637e, 0x6b5c96980235a218, 0x9cad464c8e5e6f09,
        0x16c286f8306a1b42, 0xe92bca20bacd058f, 0xd2d288c88b435878,
        0x9cad464c8e5e6f09, 0x9cad464c8e5e6f09, 0x16c286f8306a1b42,
        0x442c43b9c0fa9744, 0xd2d288c88b435878, 0x9cad464c8e5e6f09,
    ],
    [
        0xe62835928c496cee, 0x3c697c81d4400eed, 0x9bbc1a4468087f39,
        0x7e0cc74b25001a4f, 0xe62835928c496cee, 0xbead739bcf373e03,
        0x49418f53daf95b80, 0x89783e086be6b589, 0x5b6cc8bb77938d09,
        0xbead739bcf373e03, 0xbead739bcf373e03, 0x49418f53daf95b80,
        0xb7067d50a18dac3d, 0x5b6cc8bb77938d09, 0xbead739bcf373e03,
    ],
    [
        0x70da30bd5a45229e, 0xd674fac96a4e8ab1, 0x8cf10e6143310f46,
        0x190086bed8aa8c55, 0x70da30bd5a45229e, 0xfeaa369582ccacae,
        0xf69418a3a79b888c, 0x9753df6e17672c11, 0xc081639421273752,
        0xfeaa369582ccacae, 0xf39d7f468cd533a0, 0x4002022ba5ef56a9,
        0xcd42a783c546c84b, 0x2a0ae1df21c9a65c, 0xf39d7f468cd533a0,
    ],
    [
        0x1d3a99b3e722a118, 0x2127534c09107ae3, 0x0e87d0236644f09c,
        0xe9ea567957b913b8, 0x1d3a99b3e722a118, 0xec9c6a78c74fd4fa,
        0x0255af5240d5b917, 0xd5279765f7bdf187, 0x1296dce261a27619,
        0xec9c6a78c74fd4fa, 0x3293d970d270786e, 0xda7c32e707333baa,
        0xe8b469c7e749227b, 0x5672b186ff4718bd, 0x3293d970d270786e,
    ],
];
