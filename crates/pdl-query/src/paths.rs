//! Data-path derivation over explicit interconnect entities.
//!
//! Paper §IV-C step 3: *"The PDL allows us to derive data-transfer paths
//! between memory-regions and communication between processing-units via the
//! explicitly specified interconnect entity."* This module routes transfers
//! through the interconnect graph, minimizing modeled transfer time for a
//! given payload size (Dijkstra), and reports per-hop and end-to-end cost.

use pdl_core::id::{PuId, PuIdx};
use pdl_core::interconnect::{Directionality, Interconnect};
use pdl_core::platform::Platform;
use std::collections::BinaryHeap;

/// Default link bandwidth assumed when an interconnect has no `BANDWIDTH`
/// descriptor (bytes/second). Deliberately conservative: 1 GB/s.
pub const DEFAULT_BANDWIDTH_BPS: f64 = 1e9;

/// Default link latency assumed when an interconnect has no `LATENCY`
/// descriptor (seconds): 10 µs.
pub const DEFAULT_LATENCY_S: f64 = 10e-6;

/// One hop of a route.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// PU the hop departs from.
    pub from: PuId,
    /// PU the hop arrives at.
    pub to: PuId,
    /// Index of the interconnect used, into [`Platform::interconnects`].
    pub ic_index: usize,
    /// Modeled time for this hop (seconds) for the queried payload.
    pub time_s: f64,
}

/// A complete route between two PUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Hops in order; empty when source equals destination.
    pub hops: Vec<Hop>,
    /// End-to-end modeled time (seconds).
    pub time_s: f64,
    /// Minimum bandwidth along the route (bytes/second) — the bottleneck.
    pub bottleneck_bps: f64,
    /// Sum of link latencies (seconds).
    pub latency_s: f64,
}

impl Route {
    /// The trivial route from a PU to itself.
    pub(crate) fn trivial() -> Self {
        Route {
            hops: Vec::new(),
            time_s: 0.0,
            bottleneck_bps: f64::INFINITY,
            latency_s: 0.0,
        }
    }
}

/// One interconnect's link model for one payload, read from its
/// descriptor once (defaults applied).
#[derive(Clone, Copy)]
struct LinkCost {
    bandwidth_bps: f64,
    latency_s: f64,
    /// `latency + size / bandwidth`.
    time_s: f64,
}

impl LinkCost {
    fn of(ic: &Interconnect, size_bytes: f64) -> Self {
        let bandwidth_bps = ic.bandwidth_bps().unwrap_or(DEFAULT_BANDWIDTH_BPS);
        let latency_s = ic.latency_s().unwrap_or(DEFAULT_LATENCY_S);
        LinkCost {
            bandwidth_bps,
            latency_s,
            time_s: latency_s + size_bytes / bandwidth_bps,
        }
    }
}

/// Out-edges per PU as `(neighbour, interconnect index)`, in declaration
/// order. Interconnects naming an unknown PU are left out.
fn adjacency(platform: &Platform) -> Vec<Vec<(PuIdx, usize)>> {
    let mut adj = vec![Vec::new(); platform.len()];
    for (ici, ic) in platform.interconnects().iter().enumerate() {
        let f = platform.index_of(ic.from.as_str());
        let t = platform.index_of(ic.to.as_str());
        if let (Some(f), Some(t)) = (f, t) {
            adj[f.index()].push((t, ici));
            if ic.directionality == Directionality::Bidirectional {
                adj[t.index()].push((f, ici));
            }
        }
    }
    adj
}

/// Heap entry of the search: a min-heap via reversed comparison, ties
/// broken by node index for determinism.
#[derive(PartialEq)]
struct Entry {
    cost: f64,
    node: PuIdx,
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest modeled transfer times from one source PU for one payload
/// size: the shared core of [`route`], [`routes_from`] and [`closest_pu`].
struct Search<'p> {
    platform: &'p Platform,
    src: PuIdx,
    /// Link model per interconnect, indexed like [`Platform::interconnects`].
    links: Vec<LinkCost>,
    dist: Vec<f64>,
    prev: Vec<Option<(PuIdx, usize)>>,
}

impl<'p> Search<'p> {
    /// Dijkstra over modeled hop time. Stops as soon as `until` is settled
    /// (its distance and predecessor chain are final by then), or settles
    /// every reachable PU when `until` is `None`.
    fn run(platform: &'p Platform, src: PuIdx, until: Option<PuIdx>, size_bytes: f64) -> Self {
        let adj = adjacency(platform);
        let links: Vec<LinkCost> = platform
            .interconnects()
            .iter()
            .map(|ic| LinkCost::of(ic, size_bytes))
            .collect();
        let mut dist = vec![f64::INFINITY; platform.len()];
        let mut prev: Vec<Option<(PuIdx, usize)>> = vec![None; platform.len()];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(Entry {
            cost: 0.0,
            node: src,
        });
        while let Some(Entry { cost, node }) = heap.pop() {
            if cost > dist[node.index()] {
                continue;
            }
            if Some(node) == until {
                break;
            }
            for &(next, ici) in &adj[node.index()] {
                let nd = cost + links[ici].time_s;
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    prev[next.index()] = Some((node, ici));
                    heap.push(Entry {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }
        Search {
            platform,
            src,
            links,
            dist,
            prev,
        }
    }

    /// Modeled time to `dst`; infinite when unreachable.
    fn time_to(&self, dst: PuIdx) -> f64 {
        self.dist[dst.index()]
    }

    /// The route to a settled `dst`, walked back along the predecessors.
    fn route_to(&self, dst: PuIdx) -> Option<Route> {
        if dst == self.src {
            return Some(Route::trivial());
        }
        if self.time_to(dst).is_infinite() {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = dst;
        while cur != self.src {
            let (p, ici) = self.prev[cur.index()].expect("reachable node has predecessor");
            hops.push(Hop {
                from: self.platform.pu(p).id.clone(),
                to: self.platform.pu(cur).id.clone(),
                ic_index: ici,
                time_s: self.links[ici].time_s,
            });
            cur = p;
        }
        hops.reverse();
        Some(Route {
            time_s: self.time_to(dst),
            bottleneck_bps: hops
                .iter()
                .map(|h| self.links[h.ic_index].bandwidth_bps)
                .fold(f64::INFINITY, f64::min),
            latency_s: hops.iter().map(|h| self.links[h.ic_index].latency_s).sum(),
            hops,
        })
    }
}

/// Finds the fastest route (per the link model) for transferring
/// `size_bytes` from `from` to `to`. Returns `None` when no route exists or
/// an endpoint id is unknown.
pub fn route(platform: &Platform, from: &str, to: &str, size_bytes: f64) -> Option<Route> {
    let src = platform.index_of(from)?;
    let dst = platform.index_of(to)?;
    if src == dst {
        return Some(Route::trivial());
    }
    Search::run(platform, src, Some(dst), size_bytes).route_to(dst)
}

/// The fastest route from `from` to **every** PU for a payload of
/// `size_bytes`, indexed by PU arena index, from one search. Entry `d`
/// equals `route(platform, from, d, size_bytes)`; all entries are `None`
/// when `from` is unknown.
pub fn routes_from(platform: &Platform, from: &str, size_bytes: f64) -> Vec<Option<Route>> {
    let Some(src) = platform.index_of(from) else {
        return vec![None; platform.len()];
    };
    let search = Search::run(platform, src, None, size_bytes);
    platform
        .iter()
        .map(|(dst, _)| search.route_to(dst))
        .collect()
}

/// Among `candidates`, the PU with the cheapest route from `from` for a
/// payload of `size_bytes` (ties: earliest in candidate order). `None` when
/// no candidate is reachable. Tools use this to place data near compute.
pub fn closest_pu<'a>(
    platform: &Platform,
    from: &str,
    candidates: &'a [String],
    size_bytes: f64,
) -> Option<(&'a str, Route)> {
    let src = platform.index_of(from)?;
    let search = Search::run(platform, src, None, size_bytes);
    let mut best: Option<(&'a str, PuIdx)> = None;
    for c in candidates {
        let Some(idx) = platform.index_of(c) else {
            continue;
        };
        if search.time_to(idx) < best.map_or(f64::INFINITY, |(_, b)| search.time_to(b)) {
            best = Some((c.as_str(), idx));
        }
    }
    best.and_then(|(c, idx)| Some((c, search.route_to(idx)?)))
}

/// All PUs reachable from `from` over interconnects (excluding `from`).
pub fn reachable(platform: &Platform, from: &str) -> Vec<PuIdx> {
    let Some(src) = platform.index_of(from) else {
        return Vec::new();
    };
    let adj = adjacency(platform);
    let mut seen = vec![false; platform.len()];
    seen[src.index()] = true;
    let mut stack = vec![src];
    let mut out = Vec::new();
    while let Some(cur) = stack.pop() {
        for &(next, _) in &adj[cur.index()] {
            if !seen[next.index()] {
                seen[next.index()] = true;
                out.push(next);
                stack.push(next);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::prelude::*;

    fn ic(t: &str, from: &str, to: &str, gbps: f64, us: f64) -> Interconnect {
        Interconnect::new(t, from, to).with_descriptor(
            Descriptor::new()
                .with(
                    Property::fixed(wellknown::BANDWIDTH, gbps.to_string())
                        .with_unit(Unit::GigaBytePerSec),
                )
                .with(
                    Property::fixed(wellknown::LATENCY, us.to_string())
                        .with_unit(Unit::MicroSecond),
                ),
        )
    }

    /// cpu --QPI--> node --`PCIe`--> gpu, plus a slow direct link cpu->gpu.
    fn mesh() -> Platform {
        let mut b = Platform::builder("mesh");
        let m = b.master("cpu");
        let h = b.hybrid(m, "node").unwrap();
        b.worker(h, "gpu").unwrap();
        b.interconnect(ic("QPI", "cpu", "node", 25.0, 1.0));
        b.interconnect(ic("PCIe", "node", "gpu", 8.0, 10.0));
        b.interconnect(ic("slow", "cpu", "gpu", 0.1, 100.0));
        b.build().unwrap()
    }

    #[test]
    fn picks_fast_two_hop_over_slow_direct_for_large_payloads() {
        let p = mesh();
        let r = route(&p, "cpu", "gpu", 1e9).unwrap();
        assert_eq!(r.hops.len(), 2);
        assert_eq!(r.hops[0].from, PuId::new("cpu"));
        assert_eq!(r.hops[1].to, PuId::new("gpu"));
        assert_eq!(r.bottleneck_bps, 8e9);
    }

    #[test]
    fn picks_direct_link_for_tiny_payloads_when_latency_dominates() {
        // With 0-byte payload: two-hop = 1us + 10us = 11us vs direct 100us →
        // still two-hop. Make direct latency cheap instead.
        let mut b = Platform::builder("lat");
        let m = b.master("a");
        let h = b.hybrid(m, "b").unwrap();
        b.worker(h, "c").unwrap();
        b.interconnect(ic("l1", "a", "b", 100.0, 50.0));
        b.interconnect(ic("l2", "b", "c", 100.0, 50.0));
        b.interconnect(ic("direct", "a", "c", 0.5, 1.0));
        let p = b.build().unwrap();
        let r = route(&p, "a", "c", 0.0).unwrap();
        assert_eq!(r.hops.len(), 1);
        assert_eq!(p.interconnects()[r.hops[0].ic_index].ic_type, "direct");
        // For a huge payload the bandwidth advantage flips the decision.
        let r = route(&p, "a", "c", 1e10).unwrap();
        assert_eq!(r.hops.len(), 2);
    }

    #[test]
    fn trivial_route() {
        let p = mesh();
        let r = route(&p, "cpu", "cpu", 123.0).unwrap();
        assert!(r.hops.is_empty());
        assert_eq!(r.time_s, 0.0);
    }

    #[test]
    fn unroutable_returns_none() {
        let mut b = Platform::builder("iso");
        let m = b.master("a");
        b.worker(m, "b").unwrap(); // control edge but NO interconnect
        let p = b.build().unwrap();
        assert!(route(&p, "a", "b", 1.0).is_none());
        assert!(route(&p, "a", "nope", 1.0).is_none());
    }

    #[test]
    fn unidirectional_links_respected() {
        let mut b = Platform::builder("uni");
        let m = b.master("a");
        b.worker(m, "b").unwrap();
        b.interconnect(Interconnect::new("dma", "a", "b").unidirectional());
        let p = b.build().unwrap();
        assert!(route(&p, "a", "b", 1.0).is_some());
        assert!(route(&p, "b", "a", 1.0).is_none());
    }

    #[test]
    fn default_link_parameters_used() {
        let mut b = Platform::builder("def");
        let m = b.master("a");
        b.worker(m, "b").unwrap();
        b.interconnect(Interconnect::new("link", "a", "b"));
        let p = b.build().unwrap();
        let r = route(&p, "a", "b", 1e9).unwrap();
        // 10us + 1e9/1e9 s ≈ 1.00001 s
        assert!((r.time_s - (DEFAULT_LATENCY_S + 1.0)).abs() < 1e-9);
        assert_eq!(r.bottleneck_bps, DEFAULT_BANDWIDTH_BPS);
    }

    #[test]
    fn route_time_decomposes() {
        let p = mesh();
        let size = 8e6;
        let r = route(&p, "cpu", "gpu", size).unwrap();
        let sum: f64 = r.hops.iter().map(|h| h.time_s).sum();
        assert!((r.time_s - sum).abs() < 1e-12);
        // latency part
        assert!((r.latency_s - 11e-6).abs() < 1e-9);
    }

    #[test]
    fn reachable_set() {
        let p = mesh();
        let r = reachable(&p, "cpu");
        assert_eq!(r.len(), 2);
        let mut b = Platform::builder("iso");
        let m = b.master("a");
        b.worker(m, "b").unwrap();
        let p = b.build().unwrap();
        assert!(reachable(&p, "a").is_empty());
        assert!(reachable(&p, "zzz").is_empty());
    }

    #[test]
    fn closest_pu_picks_cheapest_route() {
        let p = mesh();
        let candidates = vec!["gpu".to_string(), "node".to_string()];
        let (best, r) = closest_pu(&p, "cpu", &candidates, 1e6).unwrap();
        assert_eq!(best, "node"); // one hop beats two
        assert_eq!(r.hops.len(), 1);
        // Unreachable candidates are skipped; empty set yields None.
        let unknown = vec!["nope".to_string()];
        assert!(closest_pu(&p, "cpu", &unknown, 1.0).is_none());
        assert!(closest_pu(&p, "cpu", &[], 1.0).is_none());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical parallel links: route must be stable across calls.
        let mut b = Platform::builder("tie");
        let m = b.master("a");
        let h = b.hybrid(m, "b1").unwrap();
        let _ = h;
        let h2 = b.hybrid(m, "b2").unwrap();
        b.worker(h2, "c").unwrap();
        b.interconnect(ic("l", "a", "b1", 1.0, 1.0));
        b.interconnect(ic("l", "a", "b2", 1.0, 1.0));
        b.interconnect(ic("l", "b1", "c", 1.0, 1.0));
        b.interconnect(ic("l", "b2", "c", 1.0, 1.0));
        let p = b.build().unwrap();
        let r1 = route(&p, "a", "c", 100.0).unwrap();
        let r2 = route(&p, "a", "c", 100.0).unwrap();
        assert_eq!(r1, r2);
    }
}
