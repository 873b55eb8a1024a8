//! `retarget_catalog`: the paper's central scenario. One annotated program,
//! many descriptors; the toolchain front end does all the work and no engine
//! runs.

use super::Rng;
use crate::harness::{Ctx, Failed, Workload};
use cascabel::{Cascabel, CascabelError, ProblemSpec};
use pdl_core::property::Property;
use pdl_discover::synthetic::{build_testbed, gpgpu_cluster, numa_host, TestbedOptions};
use pdl_query::capability::{Requirement, RequirementSet};
use pdl_registry::{Layer, LayerKind, Registry, SemVer, Target, VersionReq};

/// The Figure 5 input program (as `examples/programs/dgemm.c`).
const DGEMM_SOURCE: &str = "/* Annotated tiled DGEMM. */
#include <cblas.h>

#pragma cascabel task : x86 : I_dgemm : dgemm_serial : (A: read, B: read, C: readwrite)
void my_dgemm(double *A, double *B, double *C) { }

#pragma cascabel execute I_dgemm : (A:BLOCK:N, B:BLOCK:N, C:BLOCK:N)
my_dgemm(A, B, C);
";

/// The section IV-A example (as `examples/programs/vecadd.c`).
const VECADD_SOURCE: &str = "/* Annotated vector-add. */
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read) : access(inout: A, in: B)
void vector_add(double *A, double *B) { }

#pragma cascabel execute I_vecadd : (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
";

const DGEMM_N: usize = 8192;
const DGEMM_TILE: usize = 512;
const VECADD_N: usize = 1 << 20;
const GPU_SELECTOR: &str = "//Worker[@ARCHITECTURE='gpu']";
/// Routes queried per descriptor, spread over its interconnects.
const ROUTES_PER_DESCRIPTOR: usize = 8;
const ROUTE_PAYLOAD_BYTES: f64 = 64e6;

struct Descriptor {
    name: String,
    xml: String,
    /// The environment-layer revision published on top, for every second
    /// series.
    revision: Option<Layer>,
    has_gpu: bool,
}

pub struct Inputs {
    descriptors: Vec<Descriptor>,
    dgemm_spec: ProblemSpec,
    vecadd_spec: ProblemSpec,
}

pub struct RetargetCatalog;

impl Workload for RetargetCatalog {
    type Inputs = Inputs;
    const NAME: &'static str = "retarget_catalog";
    const UNIT: &'static str = "descriptor";

    /// 48 descriptors. Their shapes and their order are fixed, so that every
    /// seed does the same work with the same memory: shuffling the order
    /// alone moved peak memory by 13 % between seeds. The seed draws the
    /// series names and the values the revisions carry.
    fn setup(seed: u64, pins: &mut Vec<String>) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut platforms = Vec::new();
        for nodes in [4, 8, 12, 16, 24, 32, 48, 64] {
            for gpus in 1..=3 {
                platforms.push((gpgpu_cluster(nodes, gpus), true));
            }
        }
        for sockets in [2, 4, 8] {
            for cores in [4, 8, 16, 32] {
                platforms.push((numa_host(sockets, cores), false));
            }
        }
        for cpu_cores in [4, 8, 16] {
            for (gpus, nvlink_gpus) in [
                (vec![], false),
                (vec!["GeForce GTX 480"], false),
                (vec!["GeForce GTX 480", "GeForce GTX 285"], false),
                (vec!["GeForce GTX 480", "GeForce GTX 285"], true),
            ] {
                let has_gpu = !gpus.is_empty();
                let name = format!("testbed-{cpu_cores}c-{}g-{nvlink_gpus}", gpus.len());
                let opts = TestbedOptions {
                    cpu_cores,
                    gpus,
                    nvlink_gpus,
                    ..TestbedOptions::default()
                };
                platforms.push((build_testbed(&name, &opts), has_gpu));
            }
        }

        let descriptors: Vec<Descriptor> = platforms
            .into_iter()
            .enumerate()
            .map(|(i, (mut platform, has_gpu))| {
                platform.name = format!("{}-{:04x}", platform.name, rng.below(1 << 16));
                pins.push(super::pin_of(&platform));
                let revision = (i % 2 == 1).then(|| {
                    Layer::new(LayerKind::Environment, "bench-env").set(
                        Target::All,
                        Property::fixed("BENCH_ENV_REVISION", rng.below(1000).to_string()),
                    )
                });
                Descriptor {
                    name: platform.name.clone(),
                    xml: pdl_xml::to_xml(&platform),
                    revision,
                    has_gpu,
                }
            })
            .collect();

        let mut dgemm_spec = ProblemSpec::with_size("N", DGEMM_N);
        dgemm_spec.tile = Some(DGEMM_TILE);
        Inputs {
            descriptors,
            dgemm_spec,
            vecadd_spec: ProblemSpec::with_size("N", VECADD_N),
        }
    }

    fn units(inputs: &Inputs) -> usize {
        inputs.descriptors.len()
    }

    fn pass(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let registry = Registry::new();
        for d in &inputs.descriptors {
            retarget_one(inputs, d, &registry, ctx)?;
        }

        let snapshot = registry.snapshot();
        let wants_gpu = RequirementSet::new().with(Requirement::Architecture("gpu".into()));
        let with_gpu = ctx.call("pdl-registry.select", || snapshot.select(&wants_gpu));
        let expected = inputs.descriptors.iter().filter(|d| d.has_gpu).count();
        ctx.check(with_gpu.len() == expected, || {
            format!(
                "catalog-wide select found {} GPU series, expected {expected}",
                with_gpu.len()
            )
        });
        for d in inputs.descriptors.iter().filter(|d| d.revision.is_some()) {
            let changes = ctx.try_call("pdl-registry.diff", || {
                snapshot.diff(
                    &d.name,
                    &VersionReq::Exact(SemVer::INITIAL),
                    &VersionReq::Latest,
                )
            })?;
            ctx.check(!changes.is_empty(), || {
                format!("{}: revision diff is empty", d.name)
            });
        }
        ctx.count("pdl-registry.releases", || snapshot.total_releases() as f64);
        Ok(())
    }
}

/// Descriptor text to translated, analyzed and re-serialized program for one
/// descriptor.
fn retarget_one(
    inputs: &Inputs,
    d: &Descriptor,
    registry: &Registry,
    ctx: &mut Ctx,
) -> Result<(), Failed> {
    let platform = ctx.try_call("pdl-xml.from_xml", || pdl_xml::from_xml(&d.xml))?;
    ctx.count("pdl-xml.bytes_in", || d.xml.len() as f64);

    let findings = ctx.call("pdl-analyze.analyze_platform", || {
        pdl_analyze::analyze_platform(&platform)
    });
    ctx.check(!findings.has_errors(), || {
        format!("{}: descriptor has errors:\n{}", d.name, findings.render())
    });
    ctx.count("pdl-analyze.diagnostics", || findings.len() as f64);

    let gpus = ctx.try_call("pdl-query.select", || {
        pdl_query::query(&platform, GPU_SELECTOR)
    })?;
    ctx.check(gpus.is_empty() != d.has_gpu, || {
        format!("{}: selector matched {} GPUs", d.name, gpus.len())
    });
    ctx.count("pdl-query.matches", || gpus.len() as f64);

    // Route from the first root to the far end of declared interconnects,
    // spread over the descriptor: every shape here has some, and a GPU behind
    // a node is two hops away.
    let host = platform.pu(platform.roots()[0]).id.as_str();
    let links = platform.interconnects();
    let stride = links.len().div_ceil(ROUTES_PER_DESCRIPTOR).max(1);
    let unrouted = ctx.call("pdl-query.route", || {
        links
            .iter()
            .step_by(stride)
            .filter(|link| {
                pdl_query::route(&platform, host, link.to.as_str(), ROUTE_PAYLOAD_BYTES).is_none()
            })
            .count()
    });
    ctx.check(!links.is_empty() && unrouted == 0, || {
        format!("{}: {unrouted} link ends unreachable from {host}", d.name)
    });

    let mut published = ctx.call("pdl-registry.publish", || registry.publish(&platform));
    ctx.check(
        published.created && published.version == SemVer::INITIAL,
        || format!("{}: first publish did not create 1.0.0", d.name),
    );
    if let Some(layer) = &d.revision {
        published = ctx.call("pdl-registry.publish", || {
            registry.publish_composed(&platform, std::slice::from_ref(layer))
        });
        ctx.check(
            published.created && published.version > SemVer::INITIAL,
            || format!("{}: revision did not create a new release", d.name),
        );
        ctx.count("pdl-registry.publishes", || 1.0);
    }
    ctx.count("pdl-registry.publishes", || 1.0);

    let resolved = ctx.try_call("pdl-registry.resolve", || {
        registry.snapshot().resolve(&d.name, &VersionReq::Latest)
    })?;
    ctx.check(resolved.platform.hash() == published.hash, || {
        format!("{}: resolved release is not the published content", d.name)
    });
    let target = resolved.platform.platform();

    let (dgemm, vecadd) = ctx.try_call("cascabel.compile", || {
        let mut compiler = Cascabel::new(target.clone());
        let dgemm = compiler.compile(DGEMM_SOURCE, &inputs.dgemm_spec)?;
        let vecadd = compiler.compile(VECADD_SOURCE, &inputs.vecadd_spec)?;
        Ok::<_, CascabelError>((dgemm, vecadd))
    })?;
    let flops = dgemm.output.graph.total_flops();
    ctx.check(
        (flops - kernels::dgemm::dgemm_flops(DGEMM_N)).abs() <= 1.0,
        || format!("{}: translated DGEMM carries {flops} FLOP", d.name),
    );
    if ctx.tracing() {
        for result in [&dgemm, &vecadd] {
            for phase in &result.phases {
                let name = match phase.name.as_str() {
                    "parse" => "cascabel.parse",
                    "preselect" => "cascabel.preselect",
                    "mapping" => "cascabel.mapping",
                    "codegen" => "cascabel.codegen",
                    _ => "cascabel.compplan",
                };
                ctx.reported_span(name, phase.end_ns - phase.start_ns);
            }
            let out = &result.output;
            ctx.count("cascabel.graph_tasks", || out.graph.len() as f64);
            ctx.count("cascabel.generated_bytes", || {
                let kernels = out.kernel_sources.values().flatten();
                (out.main_source.len() + kernels.map(|(_, text)| text.len()).sum::<usize>()) as f64
            });
            let kept: usize = result.selections.iter().map(|s| s.kept().count()).sum();
            let pruned: usize = result.selections.iter().map(|s| s.pruned_count()).sum();
            ctx.count("cascabel.variants_kept", || kept as f64);
            ctx.count("cascabel.variants_pruned", || pruned as f64);
        }
    }

    ctx.release("cascabel.compile", (dgemm, vecadd));

    let program_findings = ctx.call("pdl-analyze.analyze_program", || {
        pdl_analyze::analyze_program_source("dgemm.c", DGEMM_SOURCE, std::slice::from_ref(target))
    });
    ctx.check(!program_findings.has_errors(), || {
        format!(
            "{}: program has errors:\n{}",
            d.name,
            program_findings.render()
        )
    });
    ctx.count("pdl-analyze.diagnostics", || program_findings.len() as f64);

    // Round trip: the serialized release, parsed again, must publish as the
    // content the registry already holds.
    let xml = ctx.call("pdl-xml.to_xml", || pdl_xml::to_xml(target));
    let reparsed = ctx.try_call("pdl-xml.from_xml", || pdl_xml::from_xml(&xml))?;
    ctx.count("pdl-xml.bytes_in", || xml.len() as f64);
    let again = ctx.call("pdl-registry.publish", || registry.publish(&reparsed));
    ctx.check(!again.created && again.hash == published.hash, || {
        format!("{}: from_xml(to_xml(release)) is new content", d.name)
    });
    ctx.count("pdl-registry.publishes", || 1.0);
    ctx.count("pdl-registry.dedup_publishes", || f64::from(!again.created));
    Ok(())
}
