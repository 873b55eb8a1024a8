//! The registry's instruments are process-global, so the test that holds
//! them to exact counts has this binary to itself: beside the unit tests,
//! which publish and resolve on parallel threads, the deltas below are
//! only lower bounds.

use hetero_trace::telemetry;
use pdl_core::prelude::*;
use pdl_query::capability::RequirementSet;
use pdl_registry::{Registry, VersionReq};

fn plat(name: &str, cores: &str) -> Platform {
    let mut b = Platform::builder(name);
    let m = b.master("cpu");
    b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
    b.prop(m, Property::fixed("CORES", cores));
    let w = b.worker(m, "gpu0").unwrap();
    b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
    b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
    b.build().unwrap()
}

#[test]
fn telemetry_tracks_reads_and_publishes() {
    let tel = telemetry::global();
    let resolve_ns = tel.histogram("registry_resolve_ns");
    let publishes = tel.counter("registry_publishes_total");
    let publish_noops = tel.counter("registry_publish_noops_total");
    let resolves0 = resolve_ns.count();
    let publishes0 = publishes.get();
    let noops0 = publish_noops.get();

    let reg = Registry::new();
    assert!(reg.publish(&plat("tel-node", "8")).created);
    assert!(!reg.publish(&plat("tel-node", "8")).created);
    let snap = reg.snapshot();
    snap.resolve_str("tel-node", "latest").unwrap();
    snap.select(&RequirementSet::new());
    snap.diff("tel-node", &VersionReq::Latest, &VersionReq::Latest)
        .unwrap();

    assert_eq!(publishes.get(), publishes0 + 1);
    assert_eq!(publish_noops.get(), noops0 + 1);
    // resolve_str delegates to resolve; diff resolves twice more.
    assert_eq!(resolve_ns.count(), resolves0 + 3);
    assert!(tel.histogram("registry_select_ns").count() >= 1);
    assert!(tel.histogram("registry_diff_ns").count() >= 1);
    assert!(tel.gauge("registry_epoch").get() >= 1);
}
