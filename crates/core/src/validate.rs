//! Structural validation of platform descriptions.
//!
//! Encodes the rules of paper §III-A:
//! * Masters only at the highest hierarchical level.
//! * Workers are leaves, controlled by Master or Hybrid PUs.
//! * Hybrids are inner nodes, always controlled by Master or Hybrid units.
//!
//! plus referential-integrity rules (unique ids, resolvable interconnect
//! endpoints, non-empty names) needed for tool processing.

use crate::error::ValidationIssue;
use crate::id::PuIdx;
use crate::platform::Platform;
use crate::pu::PuClass;
use std::collections::BTreeSet;

/// Collects all structural issues in the given platform. An empty vector
/// means the description is valid.
pub(crate) fn check(platform: &Platform) -> Vec<ValidationIssue> {
    let mut issues = Vec::new();
    let mut seen_ids = BTreeSet::new();

    for (i, pu) in platform.arena().iter().enumerate() {
        let idx = PuIdx::from_usize(i);

        if pu.id.as_str().is_empty() {
            issues.push(ValidationIssue::EmptyPuId(idx));
        } else if !seen_ids.insert(pu.id.clone()) {
            issues.push(ValidationIssue::DuplicatePuId(pu.id.clone()));
        }

        match pu.class {
            PuClass::Master => {
                if pu.parent().is_some() {
                    issues.push(ValidationIssue::MasterNotTopLevel(pu.id.clone()));
                }
            }
            PuClass::Worker => {
                if !pu.children().is_empty() {
                    issues.push(ValidationIssue::WorkerHasChildren(pu.id.clone()));
                }
                if pu.parent().is_none() {
                    issues.push(ValidationIssue::Uncontrolled(pu.id.clone()));
                }
            }
            PuClass::Hybrid => {
                if pu.parent().is_none() {
                    issues.push(ValidationIssue::HybridNotControlled(pu.id.clone()));
                }
            }
        }

        if pu.quantity == 0 {
            issues.push(ValidationIssue::ZeroQuantity(pu.id.clone()));
        }

        let mut mr_ids = BTreeSet::new();
        for mr in &pu.memory_regions {
            if !mr_ids.insert(mr.id.as_str().to_string()) {
                issues.push(ValidationIssue::DuplicateMemoryRegion {
                    pu: pu.id.clone(),
                    mr: mr.id.as_str().to_string(),
                });
            }
        }

        for g in &pu.groups {
            if g.as_str().is_empty() {
                issues.push(ValidationIssue::EmptyGroupName(pu.id.clone()));
            }
        }

        for prop in pu.descriptor.iter() {
            if prop.name.is_empty() {
                issues.push(ValidationIssue::EmptyPropertyName(pu.id.clone()));
            }
            if prop.fixed && prop.value.is_empty() {
                issues.push(ValidationIssue::FixedPropertyWithoutValue {
                    pu: pu.id.clone(),
                    property: prop.name.clone(),
                });
            }
        }
    }

    for (ic_index, ic) in platform.interconnects().iter().enumerate() {
        for endpoint in [&ic.from, &ic.to] {
            if platform.index_of(endpoint.as_str()).is_none() {
                issues.push(ValidationIssue::DanglingInterconnect {
                    endpoint: endpoint.clone(),
                    ic_index,
                });
            }
        }
        if ic.from == ic.to {
            issues.push(ValidationIssue::SelfLoopInterconnect {
                endpoint: ic.from.clone(),
                ic_index,
            });
        }
    }

    issues
}

/// Like [`Platform::issues`], but returns the issues as
/// [`crate::diag::Diagnostic`]s in the shared `P0xx` code space. That list
/// remains the source of truth; this is the diagnostics-facing view used by
/// `pdl-analyze`.
pub fn diagnostics(platform: &Platform) -> crate::diag::Report {
    check(platform)
        .iter()
        .map(super::error::ValidationIssue::to_diagnostic)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::Interconnect;
    use crate::memory::MemoryRegion;
    use crate::platform::Platform;
    use crate::property::Property;
    use crate::pu::PuClass;

    #[test]
    fn valid_listing1_has_no_issues() {
        let mut b = Platform::builder("ok");
        let m = b.master("0");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let w = b.worker(m, "1").unwrap();
        let _ = w;
        b.interconnect(Interconnect::new("rDMA", "0", "1"));
        let p = b.build_unchecked();
        assert!(check(&p).is_empty(), "{:?}", check(&p));
    }

    #[test]
    fn toplevel_worker_rejected() {
        let mut b = Platform::builder("bad");
        b.root("w", PuClass::Worker);
        let p = b.build_unchecked();
        let issues = check(&p);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::Uncontrolled(id) if id == "w")));
    }

    #[test]
    fn toplevel_hybrid_rejected() {
        let mut b = Platform::builder("bad");
        b.root("h", PuClass::Hybrid);
        let p = b.build_unchecked();
        assert!(check(&p)
            .iter()
            .any(|i| matches!(i, ValidationIssue::HybridNotControlled(id) if id == "h")));
    }

    #[test]
    fn nested_master_rejected() {
        let mut b = Platform::builder("bad");
        let m = b.master("0");
        // The builder allows constructing it (Masters may control), but
        // validation rejects the nested Master.
        b.child(m, "m2", PuClass::Master).unwrap();
        let p = b.build_unchecked();
        assert!(check(&p)
            .iter()
            .any(|i| matches!(i, ValidationIssue::MasterNotTopLevel(id) if id == "m2")));
    }

    #[test]
    fn duplicate_ids_detected_once_per_duplicate() {
        let mut b = Platform::builder("bad");
        b.master("0");
        b.master("0");
        b.master("0");
        let p = b.build_unchecked();
        let dups = check(&p)
            .into_iter()
            .filter(|i| matches!(i, ValidationIssue::DuplicatePuId(_)))
            .count();
        assert_eq!(dups, 2);
    }

    #[test]
    fn zero_quantity_detected() {
        let mut b = Platform::builder("bad");
        let m = b.master("0");
        b.quantity(m, 0);
        let p = b.build_unchecked();
        assert!(check(&p)
            .iter()
            .any(|i| matches!(i, ValidationIssue::ZeroQuantity(_))));
    }

    #[test]
    fn dangling_and_self_loop_interconnects() {
        let mut b = Platform::builder("bad");
        b.master("0");
        b.interconnect(Interconnect::new("PCIe", "0", "404"));
        b.interconnect(Interconnect::new("loop", "0", "0"));
        let p = b.build_unchecked();
        let issues = check(&p);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::DanglingInterconnect { endpoint, .. } if endpoint == "404")));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::SelfLoopInterconnect { .. })));
    }

    #[test]
    fn duplicate_memory_regions_detected() {
        let mut b = Platform::builder("bad");
        let m = b.master("0");
        b.memory(m, MemoryRegion::new("ram"));
        b.memory(m, MemoryRegion::new("ram"));
        let p = b.build_unchecked();
        assert!(check(&p)
            .iter()
            .any(|i| matches!(i, ValidationIssue::DuplicateMemoryRegion { .. })));
    }

    #[test]
    fn empty_names_detected() {
        let mut b = Platform::builder("bad");
        let m = b.master("0");
        b.group(m, "");
        b.prop(m, Property::fixed("", "x"));
        let p = b.build_unchecked();
        let issues = check(&p);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::EmptyGroupName(_))));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::EmptyPropertyName(_))));
    }

    #[test]
    fn fixed_placeholder_detected_but_unfixed_allowed() {
        let mut b = Platform::builder("bad");
        let m = b.master("0");
        b.prop(m, Property::fixed("BROKEN", ""));
        b.prop(m, Property::unfixed("OK_PLACEHOLDER", ""));
        let p = b.build_unchecked();
        let issues = check(&p);
        assert_eq!(
            issues
                .iter()
                .filter(|i| matches!(i, ValidationIssue::FixedPropertyWithoutValue { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn diagnostics_shim_maps_codes_and_subjects() {
        let mut b = Platform::builder("bad");
        b.root("w", PuClass::Worker);
        b.interconnect(Interconnect::new("PCIe", "w", "404"));
        let p = b.build_unchecked();
        let report = diagnostics(&p);
        assert!(report.has_errors());
        assert!(report.codes().contains(&"P005"));
        assert!(report.codes().contains(&"P008"));
        let dangling = report.iter().find(|d| d.code == "P008").unwrap();
        assert_eq!(dangling.subject.as_deref(), Some("404"));
        // Same findings as the legacy API, one-to-one.
        assert_eq!(report.len(), check(&p).len());
    }

    #[test]
    fn build_surfaces_issues_as_error() {
        let mut b = Platform::builder("bad");
        b.root("w", PuClass::Worker);
        let err = b.build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid"));
    }
}
