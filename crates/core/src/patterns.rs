//! Generic architectural patterns (paper Figure 2).
//!
//! The PDL's value proposition is that *abstract control patterns* (e.g.
//! Master–Worker) are first-class and portable: programs reference the
//! pattern, tools map the pattern onto concrete platforms. This module
//! provides constructors for the canonical patterns used throughout the
//! paper and the literature it cites, and a [`PatternKind`] vocabulary that
//! `pdl-query` matches concrete platforms against.

use crate::platform::Platform;
use crate::property::Property;
use std::fmt;

/// The canonical control-relationship patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// One Master, one or more directly attached Workers
    /// (OpenCL/CUDA host–device, paper Listing 1).
    HostDevice,
    /// One Master controlling a flat pool of homogeneous Workers
    /// (classic master–worker, also the Cell B.E. PPE/SPE shape).
    MasterWorkerPool,
    /// Master → Hybrid inner nodes → Workers (hierarchical systems,
    /// e.g. clusters of accelerator nodes; Figure 2 of the paper).
    Hierarchical,
    /// Multiple top-level Masters sharing Workers via interconnects
    /// (dual-host systems).
    MultiMaster,
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PatternKind::HostDevice => "host-device",
            PatternKind::MasterWorkerPool => "master-worker-pool",
            PatternKind::Hierarchical => "hierarchical",
            PatternKind::MultiMaster => "multi-master",
        };
        f.write_str(s)
    }
}

/// Builds the abstract host–device pattern: one Master (`m0`), `devices`
/// Workers (`w0`…), one interconnect per device. No concrete properties —
/// this is a *generic* descriptor in the paper's sense; concrete platforms
/// instantiate it.
pub fn host_device(devices: u32) -> Platform {
    let mut b = Platform::builder(format!("pattern:host-device:{devices}"));
    let m = b.master("m0");
    b.prop(m, Property::fixed("PATTERN_ROLE", "host"));
    for i in 0..devices {
        let w = b.worker(m, format!("w{i}")).expect("master controls");
        b.prop(w, Property::fixed("PATTERN_ROLE", "device"));
        b.interconnect(crate::interconnect::Interconnect::new(
            "link",
            "m0",
            format!("w{i}"),
        ));
    }
    b.build().expect("pattern is structurally valid")
}

/// Builds the master–worker pool pattern: one Master with a single Worker
/// node of `quantity = pool_size` (the PDL `quantity` facility).
pub fn master_worker_pool(pool_size: u32) -> Platform {
    let mut b = Platform::builder(format!("pattern:master-worker-pool:{pool_size}"));
    let m = b.master("m0");
    b.prop(m, Property::fixed("PATTERN_ROLE", "master"));
    let w = b.worker(m, "pool").expect("master controls");
    b.quantity(w, pool_size.max(1));
    b.prop(w, Property::fixed("PATTERN_ROLE", "worker"));
    b.interconnect(crate::interconnect::Interconnect::new("link", "m0", "pool"));
    b.build().expect("pattern is structurally valid")
}

/// Builds the hierarchical pattern of Figure 2: one Master controlling
/// `nodes` Hybrid inner nodes, each controlling `workers_per_node` Workers.
pub fn hierarchical(nodes: u32, workers_per_node: u32) -> Platform {
    let mut b = Platform::builder(format!("pattern:hierarchical:{nodes}x{workers_per_node}"));
    let m = b.master("m0");
    b.prop(m, Property::fixed("PATTERN_ROLE", "root"));
    for n in 0..nodes {
        let h = b.hybrid(m, format!("h{n}")).expect("master controls");
        b.prop(h, Property::fixed("PATTERN_ROLE", "inner"));
        b.interconnect(crate::interconnect::Interconnect::new(
            "link",
            "m0",
            format!("h{n}"),
        ));
        for w in 0..workers_per_node {
            let id = format!("h{n}w{w}");
            let wh = b.worker(h, id.clone()).expect("hybrid controls");
            b.prop(wh, Property::fixed("PATTERN_ROLE", "leaf"));
            b.interconnect(crate::interconnect::Interconnect::new(
                "link",
                format!("h{n}"),
                id,
            ));
        }
    }
    b.build().expect("pattern is structurally valid")
}

/// Builds a multi-master pattern: `masters` top-level Masters, each with one
/// Worker, cross-connected so each Master can reach each Worker.
pub fn multi_master(masters: u32) -> Platform {
    let mut b = Platform::builder(format!("pattern:multi-master:{masters}"));
    let mut worker_ids = Vec::new();
    for i in 0..masters {
        let m = b.master(format!("m{i}"));
        let wid = format!("w{i}");
        b.worker(m, wid.clone()).expect("master controls");
        worker_ids.push(wid);
    }
    for i in 0..masters {
        for wid in &worker_ids {
            b.interconnect(crate::interconnect::Interconnect::new(
                "link",
                format!("m{i}"),
                wid.clone(),
            ));
        }
    }
    b.build().expect("pattern is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pu::PuClass;

    #[test]
    fn host_device_shape() {
        let p = host_device(2);
        assert_eq!(p.masters().count(), 1);
        assert_eq!(p.workers().count(), 2);
        assert_eq!(p.interconnects().len(), 2);
        assert_eq!(p.height(), 1);
    }

    #[test]
    fn host_device_zero_devices() {
        let p = host_device(0);
        assert_eq!(p.workers().count(), 0);
        assert_eq!(p.masters().count(), 1);
    }

    #[test]
    fn pool_uses_quantity() {
        let p = master_worker_pool(8);
        assert_eq!(p.len(), 2);
        assert_eq!(p.total_units(), 9);
        let (_, w) = p.pu_by_id("pool").unwrap();
        assert_eq!(w.quantity, 8);
        assert_eq!(w.class, PuClass::Worker);
    }

    #[test]
    fn pool_clamps_zero() {
        let p = master_worker_pool(0);
        let (_, w) = p.pu_by_id("pool").unwrap();
        assert_eq!(w.quantity, 1);
    }

    #[test]
    fn hierarchical_shape() {
        let p = hierarchical(3, 4);
        assert_eq!(p.masters().count(), 1);
        assert_eq!(p.hybrids().count(), 3);
        assert_eq!(p.workers().count(), 12);
        assert_eq!(p.height(), 2);
        // every worker is controlled by a hybrid
        for (i, w) in p.workers() {
            let parent = w.parent().unwrap();
            assert_eq!(p.pu(parent).class, PuClass::Hybrid);
            let _ = i;
        }
    }

    #[test]
    fn multi_master_shape() {
        let p = multi_master(2);
        assert_eq!(p.masters().count(), 2);
        assert_eq!(p.workers().count(), 2);
        // full bipartite master->worker connectivity
        assert_eq!(p.interconnects().len(), 4);
    }

    #[test]
    fn patterns_validate() {
        for p in [
            host_device(3),
            master_worker_pool(16),
            hierarchical(2, 2),
            multi_master(3),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn pattern_kind_display() {
        assert_eq!(PatternKind::HostDevice.to_string(), "host-device");
        assert_eq!(PatternKind::Hierarchical.to_string(), "hierarchical");
    }
}
