//! Simulator outputs pinned across the engine refactors.
//!
//! The first twelve rows below were recorded at commit `1ec8f70` (the parent
//! of the change that moved both virtual-time engines onto one charging
//! core) by running this file there with an empty table and pasting what the
//! failure message printed; the next six the same way at `c4983ef`, the last
//! two at `5c26f97` (see [`actual`]). A digest folds everything a
//! [`SimReport`] says about the schedule — makespan bits, every assignment,
//! the three byte counters, every span of `trace` and `link_trace` (lane,
//! kind, start and end bits, label) and the perf-model entry count — so
//! "bit-identical" is checked, not eyeballed.
//!
//! A second table, recorded at `1957000` (the parent of the change that
//! rebuilt the virtual-time trace path) the same way, pins what the bridge
//! makes of every cell: an FNV digest of the codec export of
//! `sim_report_to_trace(&report, &machine)`.

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

/// The bridged trace of a report, as the codec writes it.
fn bridged_digest(r: &SimReport, machine: &SimMachine) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let text = hetero_trace::codec::export(&sim_report_to_trace(r, machine), &[]);
    text.bytes().for_each(|b| h.word(u64::from(b)));
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
/// more devices than the set's inline word holds.
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

#[rustfmt::skip]
const GOLDEN: [[u64; 15]; 20] = [
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
];

#[rustfmt::skip]
const BRIDGED: [[u64; 15]; 20] = [
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
        0xec72746600c642d7, 0x479de4a71b3afaa6, 0x93597dea0fe50ab9,
        0xe6150e8e4b68a347, 0xec72746600c642d7, 0x11657f3a027588a0,
        0x7657cdd4e2c93d5e, 0x8c2b6176c5db7cdd, 0x0af9408e34fc60ac,
        0x11657f3a027588a0, 0x11657f3a027588a0, 0x7657cdd4e2c93d5e,
        0x8c2b6176c5db7cdd, 0x0af9408e34fc60ac, 0xad82f190bbe76e45,
    ],
    [
        0x95325a9a19716282, 0x6e50f2e679b58953, 0xfa76ed4b5c012b73,
        0x927c775f0ad91ad2, 0x95325a9a19716282, 0x4aa8e7a24575fcd5,
        0x1ccdb43d8e1bbb8b, 0x3a7e8f0b054ccbfc, 0x9989c3802ac0d9f9,
        0x4aa8e7a24575fcd5, 0x4aa8e7a24575fcd5, 0x1ccdb43d8e1bbb8b,
        0x3a7e8f0b054ccbfc, 0x9989c3802ac0d9f9, 0xc4ae202b27cff3b0,
    ],
    [
        0x140ad08f477bc9ea, 0x09151e1ec3b66e6e, 0x4283acc179bef9e7,
        0xc4b755d03f5d1dde, 0x140ad08f477bc9ea, 0x6ef4a98a055de5d2,
        0x762eea73ff98391c, 0x75cd709f5b783b46, 0x4704f6d7c1455b84,
        0x6ef4a98a055de5d2, 0x6ef4a98a055de5d2, 0x762eea73ff98391c,
        0x75cd709f5b783b46, 0x4704f6d7c1455b84, 0x6ef4a98a055de5d2,
    ],
    [
        0x8485a61e84eace7f, 0x598f02731290bebb, 0x1d0fa6f9d2dce723,
        0x0aca71673e70148b, 0x8485a61e84eace7f, 0x5bd3ebad68b50867,
        0xbf51b70e78b51929, 0xda629fb391b9bf3c, 0x5e297fea0731dd51,
        0x5bd3ebad68b50867, 0x5bd3ebad68b50867, 0xbf51b70e78b51929,
        0xda629fb391b9bf3c, 0x5e297fea0731dd51, 0x5bd3ebad68b50867,
    ],
    [
        0x08923397d6cd1e34, 0xc077bfcbc8e78fd7, 0x58722794a2c23519,
        0xb51231d5e0e25f35, 0x08923397d6cd1e34, 0x1e2ae492c12791ed,
        0xbe27f8b73c4ce8c7, 0x4e277d58e4060702, 0x7cb71a31a53315b2,
        0x1e2ae492c12791ed, 0xe675552aeb6a1ab2, 0xd2f0ef77b058833f,
        0x0960b09f995d5440, 0xc6cb4835d0592cd8, 0xe675552aeb6a1ab2,
    ],
    [
        0x78ecbf8b57244161, 0xbc2f4fab1beed2c2, 0xbeaa3733abaafff2,
        0x9a7006d95ab4eb80, 0x78ecbf8b57244161, 0x764200bbd0376df8,
        0xbc9d134496f0eb12, 0x1971f8c6a57caca4, 0x360427082e6bd847,
        0x764200bbd0376df8, 0xeb894855343d2c27, 0xdaf2fe2336f25eea,
        0xffa474dc2d4aaae0, 0x71b8ab723d6ef1ed, 0xeb894855343d2c27,
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
];
