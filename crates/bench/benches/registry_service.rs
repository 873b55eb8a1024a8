//! Registry service throughput: concurrent snapshot reads under publish.
//!
//! Builds a ≥200-platform synthetic catalog (testbed / NUMA / cluster /
//! Cell variants), publishes it into a `pdl-registry::Registry`, revises
//! half the series so version history and diffs exist, then drives ≥10k
//! concurrent resolve/select/diff requests from reader threads while a
//! publisher keeps revising series behind their backs — the registry's
//! central claim: reads are snapshot-isolated and never blocked by
//! publishes beyond the pointer swap.
//!
//! Two groups: `registry_service` times one request of each kind against
//! a fixed snapshot, `registry_concurrent` seeding plus the whole mixed
//! drive. Per-request tail latencies are what the registry's always-on
//! `registry_*_ns` telemetry histograms record
//! (`crates/pdl-registry/tests/telemetry.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use pdl_core::platform::Platform;
use pdl_core::property::Property;
use pdl_discover::synthetic::{self, TestbedOptions};
use pdl_query::capability::{Requirement, RequirementSet};
use pdl_registry::{compose, Layer, LayerKind, Registry, Target, VersionReq};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Series in the synthetic catalog (the issue floor is 200).
const PLATFORMS: usize = 224;
/// Reader threads driving the request mix.
const READERS: usize = 8;
/// Request rounds per reader; each round issues 2–3 requests
/// (8 readers x 800 rounds x 1.75 requests/round = 11,200 requests).
const ROUNDS: usize = 800;
/// Series revised by the concurrent publisher during the read phase.
const LIVE_PUBLISHES: usize = 128;

/// One synthetic catalog member; `i` selects shape and parameters.
fn base_platform(i: usize) -> Platform {
    let name = format!("rs-node-{i:03}");
    let mut p = match i % 4 {
        0 => synthetic::build_testbed(
            &name,
            &TestbedOptions {
                cpu_cores: 2 + (i as u32 % 8),
                gpus: match i % 3 {
                    0 => vec![],
                    1 => vec!["GeForce GTX 480"],
                    _ => vec!["GeForce GTX 480", "GeForce GTX 285"],
                },
                dedicate_driver_cores: false,
                nvlink_gpus: i % 6 == 5,
            },
        ),
        1 => synthetic::numa_host(1 + (i as u32 % 4), 2 + (i as u32 % 6)),
        2 => synthetic::gpgpu_cluster(2 + (i as u32 % 3), 1 + (i as u32 % 2)),
        _ => synthetic::cell_be(),
    };
    p.name = name;
    p
}

/// Revision `rev` of series `i`: the base refined by an environment layer
/// (additive → a minor bump per revision).
fn revision(i: usize, rev: u32) -> Platform {
    let base = base_platform(i);
    if rev == 0 {
        return base;
    }
    let layer = Layer::new(LayerKind::Environment, "bench-rev")
        .set(Target::All, Property::fixed("BENCH_REV", rev.to_string()));
    compose(&base, &[layer])
}

fn seeded_registry() -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    for i in 0..PLATFORMS {
        reg.publish(&base_platform(i));
    }
    // Revise every even series so multi-version resolve/diff paths exist.
    for i in (0..PLATFORMS).step_by(2) {
        reg.publish(&revision(i, 1));
    }
    reg
}

/// The concurrent read phase; returns the total requests served.
fn drive_requests(reg: &Arc<Registry>) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));

    // Publisher: keeps revising a rotating subset of series while readers
    // run, so snapshots are taken against a moving catalog.
    let publisher = {
        let reg = Arc::clone(reg);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut published = 0usize;
            while !stop.load(Ordering::Relaxed) && published < LIVE_PUBLISHES {
                // (published * 7) mod 224 cycles through 32 series; bump
                // the revision each lap so every publish creates a release.
                let i = (published * 7) % PLATFORMS;
                let rev = 2 + (published / 32) as u32;
                reg.publish(&revision(i, rev));
                published += 1;
            }
            published
        })
    };

    let gpu_reqs = RequirementSet::new().with(Requirement::Architecture("gpu".into()));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let reg = Arc::clone(reg);
            let gpu_reqs = gpu_reqs.clone();
            thread::spawn(move || {
                let latest = VersionReq::Latest;
                let v1 = VersionReq::parse("=1.0.0").unwrap();
                let mut requests = 0u64;
                for round in 0..ROUNDS {
                    let snap = reg.snapshot();
                    let i = (r * ROUNDS + round) % PLATFORMS;
                    let name = format!("rs-node-{i:03}");
                    // Resolve: always.
                    let res = snap.resolve(&name, &latest).unwrap();
                    black_box(res.platform.hash());
                    requests += 1;
                    // Diff two requirements: every other round.
                    if round % 2 == 0 {
                        let d = snap.diff(&name, &v1, &latest).unwrap();
                        black_box(d.len());
                        requests += 1;
                    }
                    // Whole-catalog capability selection: every 4th round.
                    if round % 4 == 0 {
                        let hits = snap.select(&gpu_reqs);
                        assert!(!hits.is_empty());
                        black_box(hits.len());
                        requests += 1;
                    }
                }
                requests
            })
        })
        .collect();

    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    let published = publisher.join().unwrap();
    assert!(published > 0, "publisher never ran");
    total
}

fn registry_service(c: &mut Criterion) {
    let reg = seeded_registry();
    let snap = reg.snapshot();
    let gpu_reqs = RequirementSet::new().with(Requirement::Architecture("gpu".into()));

    let mut group = c.benchmark_group("registry_service");
    group.sample_size(10);
    group.bench_function("snapshot_clone", |b| b.iter(|| black_box(reg.snapshot())));
    group.bench_function("resolve_latest", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % PLATFORMS;
            snap.resolve(&format!("rs-node-{i:03}"), &VersionReq::Latest)
                .unwrap()
        });
    });
    group.bench_function("select_gpu_catalog", |b| b.iter(|| snap.select(&gpu_reqs)));
    group.bench_function("diff_revisions", |b| {
        let v1 = VersionReq::parse("^1.0").unwrap();
        b.iter(|| snap.diff("rs-node-000", &v1, &VersionReq::Latest).unwrap());
    });
    group.bench_function("publish_revision", |b| {
        let mut rev = 100u32;
        b.iter(|| {
            rev += 1;
            reg.publish(&revision(1, rev))
        });
    });
    group.finish();

    let mut group = c.benchmark_group("registry_concurrent");
    group.sample_size(3);
    group.bench_function("mixed_requests_under_publish", |b| {
        b.iter(|| {
            let reg = seeded_registry();
            let requests = drive_requests(&reg);
            assert!(requests >= 10_000, "workload must drive >=10k requests");
        });
    });
    group.finish();
}

criterion_group!(benches, registry_service);
criterion_main!(benches);
