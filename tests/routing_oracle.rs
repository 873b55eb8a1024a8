//! Routing oracles, kept here and not in the shipped API.
//!
//! `pdl_query::paths` answers single-source questions (`routes_from`,
//! `closest_pu`, `reachable`) from one search over a shared adjacency, and
//! `SimMachine::from_platform` builds its route tables from one
//! `routes_from` call plus one pass over the interconnects. The slow,
//! obviously-right formulations they replaced live on in this file as
//! references: one `paths::route` per destination, one interconnect scan
//! per visited PU, one `Interconnect::connects` test per device pair. Every
//! comparison is exact (`==` on `f64`), over every descriptor
//! `pdl_discover` generates and over random interconnect graphs with
//! unidirectional, parallel, missing and equal-cost edges.

use pdl_core::platform::Platform;
use pdl_core::prelude::*;
use pdl_discover::synthetic;
use pdl_query::paths::{self, Route};
use proptest::prelude::*;
use simhw::link::{LinkId, TransferPath};
use simhw::machine::{DeviceId, LinkParams, SimMachine, SHARED_MEM_IC};
use std::collections::BTreeMap;

/// Every descriptor `pdl_discover` can generate: the built-in catalog plus
/// the synthetic shapes at sizes that keep the pairwise references quick.
fn descriptors() -> Vec<Platform> {
    let mut all: Vec<Platform> = pdl_discover::catalog::Catalog::with_builtin_platforms()
        .iter()
        .map(|(_, p)| p.clone())
        .collect();
    all.extend([
        synthetic::gpgpu_cluster(16, 3),
        synthetic::numa_host(4, 8),
        synthetic::xeon_2gpu_testbed(),
        synthetic::xeon_2gpu_nvlink_testbed(),
        synthetic::cell_be(),
    ]);
    all
}

/// One random edge: endpoints (indices into the PU list), direction,
/// interconnect type, and bandwidth/latency drawn from tiny sets so that
/// equal-cost ties and parallel links are common.
type Edge = (usize, usize, bool, u8, u8, u8);

fn edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec(
        (0usize..8, 0usize..8, any::<bool>(), 0u8..3, 0u8..3, 0u8..2),
        0..20,
    )
}

/// A master `p0` controlling workers `p1..pn`, wired by `edges`. Few edges
/// leave PUs unreachable; duplicates make parallel links.
fn random_platform(n: usize, edges: &[Edge]) -> Platform {
    let mut b = Platform::builder("random");
    let host = b.master("p0");
    for i in 1..n {
        b.worker(host, format!("p{i}")).expect("master controls");
    }
    for &(from, to, unidirectional, ty, bw, lat) in edges {
        let ty = ["PCIe", "NVLink", SHARED_MEM_IC][ty as usize];
        let ic = Interconnect::new(ty, format!("p{}", from % n), format!("p{}", to % n))
            .with_descriptor(
                Descriptor::new()
                    .with(
                        Property::fixed(wellknown::BANDWIDTH, ["1", "2", "4"][bw as usize])
                            .with_unit(Unit::GigaBytePerSec),
                    )
                    .with(
                        Property::fixed(wellknown::LATENCY, ["1", "2"][lat as usize])
                            .with_unit(Unit::MicroSecond),
                    ),
            );
        b.interconnect(if unidirectional {
            ic.unidirectional()
        } else {
            ic
        });
    }
    b.build_unchecked()
}

fn pu_ids(p: &Platform) -> Vec<String> {
    p.iter().map(|(_, pu)| pu.id.as_str().to_string()).collect()
}

/// `routes_from` against one `route` per destination, from every source.
fn check_routes_from(p: &Platform, size: f64) {
    let ids = pu_ids(p);
    for s in &ids {
        let all = paths::routes_from(p, s, size);
        assert_eq!(all.len(), ids.len());
        for (d, got) in ids.iter().zip(&all) {
            assert_eq!(
                got,
                &paths::route(p, s, d, size),
                "{}: {s} -> {d} at {size} B",
                p.name
            );
        }
    }
    assert!(paths::routes_from(p, "no-such-pu", size)
        .iter()
        .all(Option::is_none));
}

/// The per-candidate formulation `closest_pu` replaced.
fn closest_pu_reference<'a>(
    p: &Platform,
    from: &str,
    candidates: &'a [String],
    size: f64,
) -> Option<(&'a str, Route)> {
    let mut best: Option<(&'a str, Route)> = None;
    for c in candidates {
        if let Some(r) = paths::route(p, from, c, size) {
            if best.as_ref().is_none_or(|(_, b)| r.time_s < b.time_s) {
                best = Some((c.as_str(), r));
            }
        }
    }
    best
}

/// The interconnect-scan formulation `reachable` replaced.
fn reachable_reference(p: &Platform, from: &str) -> Vec<PuIdx> {
    let Some(src) = p.index_of(from) else {
        return Vec::new();
    };
    let mut seen = vec![false; p.len()];
    seen[src.index()] = true;
    let mut stack = vec![src];
    let mut out = Vec::new();
    while let Some(cur) = stack.pop() {
        let cur_id = p.pu(cur).id.clone();
        for ic in p.interconnects() {
            let other = ic
                .other_endpoint(&cur_id)
                .and_then(|o| p.index_of(o.as_str()));
            if let Some(o) = other.filter(|o| !seen[o.index()]) {
                seen[o.index()] = true;
                out.push(o);
                stack.push(o);
            }
        }
    }
    out
}

fn check_closest_and_reachable(p: &Platform, size: f64) {
    let ids = pu_ids(p);
    for s in &ids {
        // Every other PU in reverse declaration order (so "earliest
        // candidate wins a tie" is not the arena order) plus an unknown
        // id; the source itself, a free trivial route, is checked last.
        let mut candidates: Vec<String> = ids.iter().rev().filter(|c| *c != s).cloned().collect();
        candidates.insert(candidates.len() / 2, "no-such-pu".to_string());
        for with_source in [false, true] {
            if with_source {
                candidates.push(s.clone());
            }
            assert_eq!(
                paths::closest_pu(p, s, &candidates, size),
                closest_pu_reference(p, s, &candidates, size),
                "{}: closest from {s}",
                p.name
            );
        }
        assert_eq!(
            paths::reachable(p, s),
            reachable_reference(p, s),
            "{}: reachable from {s}",
            p.name
        );
    }
    assert!(paths::closest_pu(p, "no-such-pu", &ids, size).is_none());
}

/// Host and peer routes derived the way `from_platform` used to: one
/// `paths::route` per device, one `connects` test per ordered device pair
/// and interconnect.
struct ReferenceRoutes {
    pu_ids: Vec<String>,
    host: Vec<Option<TransferPath>>,
    peer: BTreeMap<(usize, usize), TransferPath>,
}

fn reference_routes(platform: &Platform) -> ReferenceRoutes {
    let expanded = platform.expand_quantities();
    let mut next_link = 0;
    let ic_to_link: Vec<Option<LinkId>> = expanded
        .interconnects()
        .iter()
        .map(|ic| {
            (ic.ic_type != SHARED_MEM_IC).then(|| {
                next_link += 1;
                LinkId(next_link - 1)
            })
        })
        .collect();
    let host_id = expanded
        .roots()
        .first()
        .map(|&r| expanded.pu(r).id.as_str().to_string());
    let devices: Vec<_> = if expanded.workers().count() > 0 {
        expanded.workers().collect()
    } else {
        expanded.masters().collect()
    };

    let host = devices
        .iter()
        .map(|(_, pu)| {
            let h = host_id.as_deref().filter(|h| *h != pu.id.as_str())?;
            if !matches!(pu.class, PuClass::Worker | PuClass::Hybrid) {
                return None;
            }
            let r = paths::route(&expanded, h, pu.id.as_str(), 1.0)?;
            let links: Vec<LinkId> = r
                .hops
                .iter()
                .filter_map(|hop| ic_to_link[hop.ic_index])
                .collect();
            (!links.is_empty()).then_some(TransferPath {
                links,
                bandwidth_bps: r.bottleneck_bps,
                latency_s: r.latency_s,
            })
        })
        .collect();

    let mut peer: BTreeMap<(usize, usize), TransferPath> = BTreeMap::new();
    for (a, (_, pa)) in devices.iter().enumerate() {
        for (b, (_, pb)) in devices.iter().enumerate() {
            if a == b {
                continue;
            }
            for (idx, ic) in expanded.interconnects().iter().enumerate() {
                if ic.ic_type == SHARED_MEM_IC || !ic.connects(&pa.id, &pb.id) {
                    continue;
                }
                let cand = TransferPath {
                    links: vec![ic_to_link[idx].expect("non-shared-mem ic has a link")],
                    bandwidth_bps: ic.bandwidth_bps().unwrap_or(paths::DEFAULT_BANDWIDTH_BPS),
                    latency_s: ic.latency_s().unwrap_or(paths::DEFAULT_LATENCY_S),
                };
                let better = peer
                    .get(&(a, b))
                    .is_none_or(|cur| cand.transfer_time(1e6) < cur.transfer_time(1e6));
                if better {
                    peer.insert((a, b), cand);
                }
            }
        }
    }
    ReferenceRoutes {
        pu_ids: devices
            .iter()
            .map(|(_, pu)| pu.id.as_str().to_string())
            .collect(),
        host,
        peer,
    }
}

fn check_machine(platform: &Platform) {
    let machine = SimMachine::from_platform(platform);
    let want = reference_routes(platform);
    let got_ids: Vec<&str> = machine.devices.iter().map(|d| d.pu_id.as_str()).collect();
    assert_eq!(got_ids, want.pu_ids, "{}: device order", platform.name);
    for (a, host) in want.host.iter().enumerate() {
        assert_eq!(
            machine.host_route(DeviceId(a)),
            host.as_ref(),
            "{}: host route of {}",
            platform.name,
            want.pu_ids[a]
        );
        assert_eq!(
            machine.devices[a].link,
            host.as_ref().map(|r| LinkParams {
                bandwidth_bps: r.bandwidth_bps,
                latency_s: r.latency_s,
            })
        );
        for b in 0..want.host.len() {
            assert_eq!(
                machine.peer_route(DeviceId(a), DeviceId(b)),
                want.peer.get(&(a, b)),
                "{}: peer route {} -> {}",
                platform.name,
                want.pu_ids[a],
                want.pu_ids[b]
            );
        }
    }
}

#[test]
fn routes_from_equals_route_on_every_discoverable_descriptor() {
    for p in descriptors() {
        for size in [0.0, 1.0, 64e6] {
            check_routes_from(&p, size);
        }
    }
}

#[test]
fn closest_pu_and_reachable_equal_their_references_on_every_descriptor() {
    for p in descriptors() {
        check_closest_and_reachable(&p, 1e6);
    }
}

#[test]
fn machine_routes_equal_the_pairwise_reference_on_every_descriptor() {
    for p in descriptors() {
        check_machine(&p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_interconnect_graphs_route_like_the_references(
        n in 2usize..8,
        edges in edges(),
        size in 0usize..3,
    ) {
        let p = random_platform(n, &edges);
        let size = [0.0, 1.0, 1e6][size];
        check_routes_from(&p, size);
        check_closest_and_reachable(&p, size);
        check_machine(&p);
    }
}
