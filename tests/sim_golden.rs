//! Simulator outputs pinned across the engine refactor.
//!
//! Every digest below was recorded at commit `1ec8f70` (the parent of the
//! change that moved both virtual-time engines onto one charging core) by
//! running this file there with an empty table and pasting what the failure
//! message printed. A digest folds everything a [`SimReport`] says about the
//! schedule — makespan bits, every assignment, the three byte counters,
//! every span of `trace` and `link_trace` (lane, kind, start and end bits,
//! label) and the perf-model entry count — so "bit-identical" is checked,
//! not eyeballed.

use hetero_rt::prelude::*;
use kernels::graphs::{dgemm_graph, emit_dgemm, emit_vecadd, fork_join_graph};
use pdl_discover::synthetic;
use simhw::machine::SimMachine;
use simhw::trace::{SpanKind, Trace};

/// FNV-1a over 64-bit words and label bytes.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn trace(&mut self, trace: &Trace) {
        self.word(trace.spans().len() as u64);
        self.word(trace.makespan().seconds().to_bits());
        for s in trace.spans() {
            self.word(s.device.0 as u64);
            self.word(u64::from(s.kind == SpanKind::Compute));
            self.word(s.start.seconds().to_bits());
            self.word(s.end.seconds().to_bits());
            s.label.bytes().for_each(|b| self.word(u64::from(b)));
        }
    }
}

fn digest(r: &SimReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(r.makespan.seconds().to_bits());
    for (t, d) in &r.assignments {
        h.word(t.0 as u64);
        h.word(d.0 as u64);
    }
    h.word(r.bytes_to_devices.to_bits());
    h.word(r.bytes_to_host.to_bits());
    h.word(r.bytes_peer.to_bits());
    h.trace(&r.trace);
    h.trace(&r.link_trace);
    h.word(r.perfmodel.len() as u64);
    h.0
}

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

type Engine = fn(&TaskGraph, &SimMachine, &mut dyn Scheduler, &SimOptions) -> SimReport;

/// One row per engine × testbed × graph; within a row, policy-major over
/// {Eager, HEFT, DMDA} × the five option sets.
fn actual() -> Vec<[u64; 15]> {
    let engines: [Engine; 2] = [
        |g, m, s, o| simulate(g, m, s, o).expect("list engine"),
        |g, m, s, o| simulate_dynamic(g, m, s, o).expect("event engine"),
    ];
    let machines = [
        SimMachine::from_platform(&synthetic::xeon_2gpu_testbed()),
        SimMachine::from_platform(&synthetic::xeon_2gpu_nvlink_testbed()),
    ];
    let graphs = [
        dgemm_graph(256, 64, None),
        fork_join_graph(8, 6, None),
        grouped_graph(),
    ];
    let options = option_sets();
    let mut rows = Vec::new();
    for engine in engines {
        for machine in &machines {
            for graph in &graphs {
                let mut row = [0u64; 15];
                let mut cell = row.iter_mut();
                for policy in ["eager", "heft", "dmda"] {
                    for o in &options {
                        let mut scheduler = by_name(policy).expect("built-in policy");
                        *cell.next().expect("15 cells") =
                            digest(&engine(graph, machine, scheduler.as_mut(), o));
                    }
                }
                rows.push(row);
            }
        }
    }
    rows
}

#[test]
fn reports_match_the_digests_recorded_at_the_parent_commit() {
    let actual = actual();
    if actual != GOLDEN {
        let mut table = String::new();
        for row in &actual {
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
            .zip(GOLDEN.iter().flatten())
            .position(|(a, g)| a != g);
        panic!("digest {first:?} differs (row-major); this build produces:\n{table}");
    }
}

#[rustfmt::skip]
const GOLDEN: [[u64; 15]; 12] = [
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
];
