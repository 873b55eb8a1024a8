//! The ablation tables of EXPERIMENTS.md (DESIGN.md Abl. A, B, D and
//! F–I), one render function per table. Every table is a deterministic
//! virtual-time or static result; the unit tests below pin each one's exact
//! text, and the `portability` binary prints them through [`render`].

use cascabel::preselect::preselect;
use cascabel::repository::{ImplOrigin, TaskImpl, TaskRepository};
use hetero_rt::prelude::*;
use pdl_core::prelude::*;
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

/// Every ablation table, in DESIGN.md order, separated by blank lines.
pub fn render() -> String {
    [
        render_scheduler(),
        render_pcie(),
        render_preselect(),
        render_tiles(),
        render_engines(),
        render_bus(),
        render_pipeline(),
    ]
    .join("\n")
}

/// Abl. A: the Fig. 5 DGEMM's makespan under each scheduling policy.
fn render_scheduler() -> String {
    let mut out =
        "Scheduler ablation (Abl. A) on the 2-GPU testbed, DGEMM 8192/2048:\n".to_string();
    for (policy, makespan) in scheduler_ablation(8192, 2048) {
        out.push_str(&format!("  {policy:>12}: {makespan:.4}s\n"));
    }
    out
}

/// Abl. B: GPU speedup over CPU-only as `PCIe` bandwidth varies.
fn render_pcie() -> String {
    let mut out =
        "Transfer ablation (Abl. B): DGEMM 4096/1024 speedup vs PCIe bandwidth:\n".to_string();
    for gbs in [0.05, 0.25, 1.0, 2.0, 6.0, 16.0] {
        let s = speedup_vs_pcie(4096, 1024, gbs);
        let bar = "#".repeat((s * 2.0) as usize);
        out.push_str(&format!("  {gbs:>6.2} GB/s: {s:>6.2}x  |{bar}|\n"));
    }
    out
}

/// Abl. D: how many variants of a 100-interface repository pre-selection
/// keeps on three targets.
fn render_preselect() -> String {
    let mut out = "Pre-selection ablation (Abl. D): 100 interfaces x 3 variants:\n".to_string();
    let repo = synthetic_repository(100);
    for platform in [
        synthetic::xeon_x5550_host(),
        synthetic::xeon_2gpu_testbed(),
        synthetic::cell_be(),
    ] {
        let sel = preselect(&repo, &platform);
        let total: usize = sel.iter().map(|s| s.decisions.len()).sum();
        let kept: usize = sel.iter().map(|s| s.kept().count()).sum();
        let pruned = 100.0 * (total - kept) as f64 / total as f64;
        out.push_str(&format!(
            "  {:<28} kept {kept}/{total} variants ({pruned:.0}% pruned)\n",
            platform.name
        ));
    }
    out
}

/// Abl. F: the Fig. 5 DGEMM's makespan per tile size.
fn render_tiles() -> String {
    let mut out = "Tile ablation (Abl. F): DGEMM 8192 makespan vs tile size:\n".to_string();
    for tile in [512usize, 1024, 2048, 4096, 8192] {
        let m = makespan_vs_tile(8192, tile);
        out.push_str(&format!("  tile {tile:>5}: {m:>8.3}s\n"));
    }
    out
}

/// Abl. G: the list engine against the online engine.
fn render_engines() -> String {
    let (list, online) = engine_comparison(8192, 2048);
    format!("Engine ablation (Abl. G): list {list:.3}s vs online {online:.3}s\n")
}

/// Abl. H: independent `PCIe` links against one shared host bus.
fn render_bus() -> String {
    let (independent, shared) = bus_contention(8192, 2048);
    format!(
        "Bus contention (Abl. H): independent links {independent:.3}s vs shared bus {shared:.3}s\n"
    )
}

/// Abl. I: what each stage of the transfer pipeline buys. 256-float tiles of
/// a 2048² DGEMM keep per-task transfer and compute comparable, which is
/// where overlap and routing matter.
fn render_pipeline() -> String {
    let rows = transfer_pipeline_ablation(2048, 256);
    let baseline = rows[0].makespan_s;
    let mut out =
        "Transfer-pipeline ablation (Abl. I): DGEMM 2048/256 on the NVLink testbed:\n".to_string();
    out.push_str("  config        makespan    speedup   to-dev MB   to-host MB   peer MB\n");
    for r in &rows {
        out.push_str(&format!(
            "  {:<12} {:>8.4} s  {:>6.2}x  {:>9.1}  {:>10.1}  {:>8.1}\n",
            r.config,
            r.makespan_s,
            baseline / r.makespan_s,
            r.bytes_to_devices / 1e6,
            r.bytes_to_host / 1e6,
            r.bytes_peer / 1e6,
        ));
    }
    out
}

/// Repository with `n` interfaces × 3 variants (x86/Cuda/CellSDK).
fn synthetic_repository(n: usize) -> TaskRepository {
    let mut repo = TaskRepository::new();
    let params = vec![("X".to_string(), AccessMode::ReadWrite)];
    for i in 0..n {
        for (suffix, plat) in [("cpu", "x86"), ("gpu", "Cuda"), ("spe", "CellSDK")] {
            repo.register_expert(
                &format!("I_k{i}"),
                TaskImpl {
                    name: format!("k{i}_{suffix}"),
                    target_platforms: vec![plat.to_string()],
                    params: params.clone(),
                    source: String::new(),
                    origin: ImplOrigin::Repository,
                    speedup: 1.0,
                },
            )
            .expect("distinct variant names");
        }
    }
    repo
}

/// Makespans of the Fig. 5 DGEMM graph under each scheduling policy
/// (Abl. A). Returns `(policy, makespan_s)` rows.
fn scheduler_ablation(n: usize, tile: usize) -> Vec<(&'static str, f64)> {
    let platform = synthetic::xeon_2gpu_testbed();
    let machine = SimMachine::from_platform(&platform);
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    ["eager", "heft", "random", "round-robin"]
        .into_iter()
        .map(|name| {
            let mut policy = by_name(name).expect("known policy");
            let report = simulate(&graph, &machine, policy.as_mut(), &SimOptions::default())
                .expect("runnable");
            (report.policy, report.makespan.seconds())
        })
        .collect()
}

/// Builds the Fig. 5 testbed with `PCIe` bandwidth overridden to
/// `pcie_gbs` GB/s — the transfer-model ablation (Abl. B) showing where
/// offloading stops paying off.
pub fn testbed_with_pcie(pcie_gbs: f64) -> Platform {
    let base = synthetic::xeon_2gpu_testbed();
    // Rebuild with modified interconnect descriptors.
    let mut b = Platform::builder(format!("testbed-pcie-{pcie_gbs}"));
    let mut handles = std::collections::BTreeMap::new();
    for &root in base.roots() {
        clone_pu(&base, &mut b, root, None, &mut handles);
    }
    for ic in base.interconnects() {
        let mut ic = ic.clone();
        if ic.ic_type == "PCIe" {
            ic.descriptor.set(
                Property::fixed(wellknown::BANDWIDTH, pcie_gbs.to_string())
                    .with_unit(Unit::GigaBytePerSec),
            );
        }
        b.interconnect(ic);
    }
    b.build().expect("clone of a valid platform is valid")
}

fn clone_pu(
    src: &Platform,
    b: &mut PlatformBuilder,
    idx: PuIdx,
    parent: Option<PuHandle>,
    handles: &mut std::collections::BTreeMap<String, PuHandle>,
) {
    let pu = src.pu(idx);
    let h = match parent {
        None => b.root(pu.id.clone(), pu.class),
        Some(p) => b.child(p, pu.id.clone(), pu.class).expect("valid parent"),
    };
    b.descriptor(h, pu.descriptor.clone());
    b.quantity(h, pu.quantity);
    for mr in &pu.memory_regions {
        b.memory(h, mr.clone());
    }
    for g in &pu.groups {
        b.group(h, g.clone());
    }
    handles.insert(pu.id.as_str().to_string(), h);
    for &c in pu.children() {
        clone_pu(src, b, c, Some(h), handles);
    }
}

/// Makespan of the Fig. 5 DGEMM on the 2-GPU testbed for a given tile size
/// (Abl. F): small tiles expose parallelism but multiply per-task transfer
/// latency; huge tiles starve the devices. Classic U-shaped curve.
fn makespan_vs_tile(n: usize, tile: usize) -> f64 {
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
    simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .expect("runnable")
        .makespan
        .seconds()
}

/// List-vs-online engine comparison (Abl. G): same graph, same policy,
/// both execution engines. Returns `(list_makespan_s, online_makespan_s)`.
fn engine_comparison(n: usize, tile: usize) -> (f64, f64) {
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
    let list = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .expect("runnable")
        .makespan
        .seconds();
    let online = hetero_rt::dyn_engine::simulate_dynamic(
        &graph,
        &machine,
        &mut HeftScheduler,
        &SimOptions::default(),
    )
    .expect("runnable")
    .makespan
    .seconds();
    (list, online)
}

/// Host-bus contention cost (Abl. H): Fig. 5 GPU-configuration makespan
/// with independent `PCIe` links vs one shared host bus.
fn bus_contention(n: usize, tile: usize) -> (f64, f64) {
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
    let independent = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .expect("runnable")
        .makespan
        .seconds();
    let shared = simulate(
        &graph,
        &machine,
        &mut HeftScheduler,
        &SimOptions {
            shared_host_bus: true,
            ..Default::default()
        },
    )
    .expect("runnable")
    .makespan
    .seconds();
    (independent, shared)
}

/// One configuration of the transfer-pipeline ablation (Abl. I).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PipelineRow {
    /// Configuration label.
    config: &'static str,
    /// Modeled makespan in seconds.
    makespan_s: f64,
    /// Bytes staged host → device.
    bytes_to_devices: f64,
    /// Bytes staged device → host.
    bytes_to_host: f64,
    /// Bytes moved directly device → device over declared peer links.
    bytes_peer: f64,
}

/// Transfer-pipeline ablation (Abl. I): the Fig. 5 DGEMM on the `NVLink`
/// variant of the 2-GPU testbed under progressively richer transfer
/// modeling. `baseline` is the legacy synchronous host-staged path
/// (transfers serialize on the device lane); `overlap` moves transfers
/// onto FIFO link lanes (compute/transfer overlap + link contention);
/// `overlap+p2p` routes device→device traffic over the declared `NVLink`;
/// `full` adds input prefetch at scheduling time; `full+dmda` swaps HEFT
/// for the transfer-cost-aware `dmda` policy.
fn transfer_pipeline_ablation(n: usize, tile: usize) -> Vec<PipelineRow> {
    let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_nvlink_testbed());
    let configs: [(&'static str, &'static str, TransferPipeline); 5] = [
        ("baseline", "heft", TransferPipeline::default()),
        (
            "overlap",
            "heft",
            TransferPipeline {
                link_contention: true,
                ..Default::default()
            },
        ),
        (
            "overlap+p2p",
            "heft",
            TransferPipeline {
                link_contention: true,
                peer_to_peer: true,
                ..Default::default()
            },
        ),
        ("full", "heft", TransferPipeline::full()),
        ("full+dmda", "dmda", TransferPipeline::full()),
    ];
    configs
        .into_iter()
        .map(|(config, policy, pipeline)| {
            let graph = kernels::graphs::dgemm_graph(n, tile, None);
            let mut policy = by_name(policy).expect("known policy");
            let report = simulate(
                &graph,
                &machine,
                policy.as_mut(),
                &SimOptions {
                    pipeline,
                    ..Default::default()
                },
            )
            .expect("runnable");
            PipelineRow {
                config,
                makespan_s: report.makespan.seconds(),
                bytes_to_devices: report.bytes_to_devices,
                bytes_to_host: report.bytes_to_host,
                bytes_peer: report.bytes_peer,
            }
        })
        .collect()
}

/// GPU-configuration speedup over CPU-only for the Fig. 5 graph under a
/// given `PCIe` bandwidth. Used to locate the offload break-even point.
fn speedup_vs_pcie(n: usize, tile: usize, pcie_gbs: f64) -> f64 {
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    let cpu_machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
    let cpu = simulate(
        &graph,
        &cpu_machine,
        &mut HeftScheduler,
        &SimOptions::default(),
    )
    .expect("runnable")
    .makespan
    .seconds();
    let gpu_machine = SimMachine::from_platform(&testbed_with_pcie(pcie_gbs));
    let gpu = simulate(
        &graph,
        &gpu_machine,
        &mut HeftScheduler,
        &SimOptions::default(),
    )
    .expect("runnable")
    .makespan
    .seconds();
    cpu / gpu
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tables exactly as EXPERIMENTS.md quotes them.

    #[test]
    fn abl_a_scheduler_table_is_pinned() {
        assert_eq!(
            render_scheduler(),
            "\
Scheduler ablation (Abl. A) on the 2-GPU testbed, DGEMM 8192/2048:
         eager: 21.5287s
          heft: 6.1159s
        random: 47.0828s
   round-robin: 19.7346s
"
        );
    }

    #[test]
    fn abl_b_pcie_table_is_pinned() {
        assert_eq!(
            render_pcie(),
            "\
Transfer ablation (Abl. B): DGEMM 4096/1024 speedup vs PCIe bandwidth:
    0.05 GB/s:   0.62x  |#|
    0.25 GB/s:   1.04x  |##|
    1.00 GB/s:   1.84x  |###|
    2.00 GB/s:   2.16x  |####|
    6.00 GB/s:   2.23x  |####|
   16.00 GB/s:   2.43x  |####|
"
        );
    }

    #[test]
    fn abl_d_preselect_table_is_pinned() {
        assert_eq!(
            render_preselect(),
            "\
Pre-selection ablation (Abl. D): 100 interfaces x 3 variants:
  xeon-x5550-8core             kept 100/300 variants (67% pruned)
  xeon-x5550-gtx480-gtx285     kept 200/300 variants (33% pruned)
  cell-be                      kept 100/300 variants (67% pruned)
"
        );
    }

    #[test]
    fn abl_f_tile_table_is_pinned() {
        assert_eq!(
            render_tiles(),
            "\
Tile ablation (Abl. F): DGEMM 8192 makespan vs tile size:
  tile   512:    5.302s
  tile  1024:    5.598s
  tile  2048:    6.116s
  tile  4096:    7.136s
  tile  8192:   11.266s
"
        );
    }

    #[test]
    fn abl_g_and_h_lines_are_pinned() {
        assert_eq!(
            render_engines(),
            "Engine ablation (Abl. G): list 6.116s vs online 8.970s\n"
        );
        assert_eq!(
            render_bus(),
            "Bus contention (Abl. H): independent links 6.116s vs shared bus 6.920s\n"
        );
    }

    #[test]
    fn abl_i_pipeline_table_is_pinned() {
        assert_eq!(
            render_pipeline(),
            "\
Transfer-pipeline ablation (Abl. I): DGEMM 2048/256 on the NVLink testbed:
  config        makespan    speedup   to-dev MB   to-host MB   peer MB
  baseline       0.1279 s    1.00x      126.9        66.6       0.0
  overlap        0.1190 s    1.08x      133.2        57.7       0.0
  overlap+p2p    0.0883 s    1.45x       88.1        33.6      44.0
  full           0.1129 s    1.13x       84.9        33.6      45.1
  full+dmda      0.0838 s    1.53x       88.6        33.6      46.1
"
        );
    }

    #[test]
    fn heft_beats_random_on_heterogeneous_machine() {
        let rows = scheduler_ablation(4096, 1024);
        let get = |name: &str| rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(
            get("heft") <= get("random") * 1.001,
            "heft {} random {}",
            get("heft"),
            get("random")
        );
        assert!(get("heft") <= get("round-robin") * 1.001);
        // All policies produce finite, positive makespans.
        for (name, m) in &rows {
            assert!(*m > 0.0 && m.is_finite(), "{name}");
        }
    }

    #[test]
    fn pcie_override_applies() {
        let p = testbed_with_pcie(0.5);
        let pcie: Vec<_> = p
            .interconnects()
            .iter()
            .filter(|ic| ic.ic_type == "PCIe")
            .collect();
        assert_eq!(pcie.len(), 2);
        for ic in pcie {
            assert_eq!(ic.bandwidth_bps(), Some(0.5e9));
        }
        // Non-PCIe links untouched.
        assert!(p
            .interconnects()
            .iter()
            .any(|ic| ic.ic_type == "shared-mem" && ic.bandwidth_bps() == Some(32e9)));
        p.validate().unwrap();
    }

    #[test]
    fn tile_size_has_a_sweet_spot() {
        // Whole-matrix tile (no parallelism) must lose to a mid-size tile.
        let n = 4096;
        let whole = makespan_vs_tile(n, n);
        let mid = makespan_vs_tile(n, n / 4);
        assert!(mid < whole, "mid {mid} !< whole {whole}");
    }

    #[test]
    fn engines_comparable_and_bus_contention_costs() {
        let (list, online) = engine_comparison(4096, 1024);
        assert!(list > 0.0 && online > 0.0);
        let ratio = online / list;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");

        let (independent, shared) = bus_contention(4096, 1024);
        assert!(shared >= independent, "shared {shared} !>= {independent}");
    }

    #[test]
    fn pipeline_ablation_meets_acceptance_ratio() {
        // The Fig. 5 heterogeneous DGEMM with prefetch + P2P +
        // contention-aware scheduling must beat the synchronous host-staged
        // baseline by ≥ 1.3× in modeled makespan (DESIGN.md Abl. I).
        let rows = transfer_pipeline_ablation(2048, 256);
        let get = |c: &str| rows.iter().find(|r| r.config == c).unwrap();
        let baseline = get("baseline").makespan_s;
        let best = rows
            .iter()
            .filter(|r| r.config != "baseline")
            .map(|r| r.makespan_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            baseline / best >= 1.3,
            "pipeline speedup {:.2}x < 1.3x (baseline {baseline}, best {best})",
            baseline / best
        );
        // Pipelining never hurts, and P2P actually moves peer bytes.
        for row in &rows {
            assert!(
                row.makespan_s <= baseline * 1.001,
                "{} {} > baseline {baseline}",
                row.config,
                row.makespan_s
            );
        }
        assert_eq!(get("baseline").bytes_peer, 0.0);
        assert!(get("overlap+p2p").bytes_peer > 0.0);
        assert!(get("full").bytes_peer > 0.0);
    }

    #[test]
    fn faster_pcie_helps_offload() {
        let slow = speedup_vs_pcie(4096, 1024, 0.05);
        let fast = speedup_vs_pcie(4096, 1024, 16.0);
        assert!(
            fast > slow,
            "fast-PCIe speedup {fast} should beat slow-PCIe {slow}"
        );
        // With healthy PCIe the GPUs win outright.
        assert!(fast > 1.0);
    }
}
