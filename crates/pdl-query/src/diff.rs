//! Structural diffing of platform descriptions.
//!
//! The paper's future work observes that "tracking dynamically changing
//! system resources via platform descriptors can be difficult". A structural
//! diff is the primitive such tracking needs: given two snapshots, report
//! added/removed PUs and property changes so runtimes can react
//! incrementally.

use pdl_core::platform::Platform;
use pdl_core::pu::ProcessingUnit;
use std::collections::BTreeMap;
use std::fmt;

/// One difference between two platform snapshots.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// PU present in `new` but not in `old`.
    PuAdded(String),
    /// PU present in `old` but not in `new`.
    PuRemoved(String),
    /// Same id, different class.
    ClassChanged {
        /// PU id.
        id: String,
        /// Class in `old`.
        old: pdl_core::pu::PuClass,
        /// Class in `new`.
        new: pdl_core::pu::PuClass,
    },
    /// Same id, different quantity.
    QuantityChanged {
        /// PU id.
        id: String,
        /// Quantity in `old`.
        old: u32,
        /// Quantity in `new`.
        new: u32,
    },
    /// Property value changed (or appeared/disappeared).
    PropertyChanged {
        /// PU id.
        id: String,
        /// Property name.
        property: String,
        /// Old textual value, `None` if the property was absent.
        old: Option<String>,
        /// New textual value, `None` if the property is gone.
        new: Option<String>,
    },
    /// PU moved to a different controller.
    ParentChanged {
        /// PU id.
        id: String,
        /// Old parent id (`None` = top level).
        old: Option<String>,
        /// New parent id (`None` = top level).
        new: Option<String>,
    },
    /// Interconnect count between the same endpoints changed.
    InterconnectChanged {
        /// `from` endpoint.
        from: String,
        /// `to` endpoint.
        to: String,
        /// Edge count in `old`.
        old: usize,
        /// Edge count in `new`.
        new: usize,
    },
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Change::PuAdded(id) => write!(f, "+ PU {id}"),
            Change::PuRemoved(id) => write!(f, "- PU {id}"),
            Change::ClassChanged { id, old, new } => {
                write!(f, "~ PU {id}: class {old} -> {new}")
            }
            Change::QuantityChanged { id, old, new } => {
                write!(f, "~ PU {id}: quantity {old} -> {new}")
            }
            Change::PropertyChanged {
                id,
                property,
                old,
                new,
            } => write!(
                f,
                "~ PU {id}: {property} {} -> {}",
                old.as_deref().unwrap_or("<absent>"),
                new.as_deref().unwrap_or("<absent>")
            ),
            Change::ParentChanged { id, old, new } => write!(
                f,
                "~ PU {id}: parent {} -> {}",
                old.as_deref().unwrap_or("<root>"),
                new.as_deref().unwrap_or("<root>")
            ),
            Change::InterconnectChanged { from, to, old, new } => {
                write!(f, "~ IC {from}<->{to}: {old} -> {new} edges")
            }
        }
    }
}

/// Computes the changes turning `old` into `new`. PUs are matched by id.
/// Everything is compared borrowed; only the reported changes own text.
pub fn diff(old: &Platform, new: &Platform) -> Vec<Change> {
    let mut changes = Vec::new();

    let old_ids: BTreeMap<&str, &ProcessingUnit> =
        old.iter().map(|(_, pu)| (pu.id.as_str(), pu)).collect();
    let new_ids: BTreeMap<&str, &ProcessingUnit> =
        new.iter().map(|(_, pu)| (pu.id.as_str(), pu)).collect();

    for &id in old_ids.keys() {
        if !new_ids.contains_key(id) {
            changes.push(Change::PuRemoved(id.to_string()));
        }
    }
    for &id in new_ids.keys() {
        if !old_ids.contains_key(id) {
            changes.push(Change::PuAdded(id.to_string()));
        }
    }

    for (&id, &old_pu) in &old_ids {
        let Some(&new_pu) = new_ids.get(id) else {
            continue;
        };
        if old_pu.class != new_pu.class {
            changes.push(Change::ClassChanged {
                id: id.to_string(),
                old: old_pu.class,
                new: new_pu.class,
            });
        }
        if old_pu.quantity != new_pu.quantity {
            changes.push(Change::QuantityChanged {
                id: id.to_string(),
                old: old_pu.quantity,
                new: new_pu.quantity,
            });
        }
        let old_parent = parent_id(old, old_pu);
        let new_parent = parent_id(new, new_pu);
        if old_parent != new_parent {
            changes.push(Change::ParentChanged {
                id: id.to_string(),
                old: old_parent.map(str::to_string),
                new: new_parent.map(str::to_string),
            });
        }
        // Property-level diff over the canonicalized value multiset per
        // name: values are trimmed and order-independent, so attribute
        // reordering (including among duplicate names) and whitespace
        // padding never register as changes. Names are visited in order.
        let old_values = named_values(old_pu);
        let new_values = named_values(new_pu);
        let mut old_groups = old_values.chunk_by(|a, b| a.0 == b.0).peekable();
        let mut new_groups = new_values.chunk_by(|a, b| a.0 == b.0).peekable();
        loop {
            let (ov, nv) = match (old_groups.peek(), new_groups.peek()) {
                (None, None) => break,
                (Some(o), Some(n)) if o[0].0 == n[0].0 => (old_groups.next(), new_groups.next()),
                (Some(o), Some(n)) if o[0].0 > n[0].0 => (None, new_groups.next()),
                (Some(_), _) => (old_groups.next(), None),
                (None, Some(_)) => (None, new_groups.next()),
            };
            let (ov, nv) = (ov.unwrap_or_default(), nv.unwrap_or_default());
            if !ov.iter().map(|v| v.1).eq(nv.iter().map(|v| v.1)) {
                let name = ov.first().or(nv.first()).map_or("", |v| v.0);
                changes.push(Change::PropertyChanged {
                    id: id.to_string(),
                    property: name.to_string(),
                    old: render_values(ov),
                    new: render_values(nv),
                });
            }
        }
    }

    // Interconnect multiset diff by unordered endpoint pair.
    let old_edges = edge_counts(old);
    let new_edges = edge_counts(new);
    let mut keys: Vec<_> = old_edges.keys().chain(new_edges.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let o = old_edges.get(&key).copied().unwrap_or(0);
        let n = new_edges.get(&key).copied().unwrap_or(0);
        if o != n {
            changes.push(Change::InterconnectChanged {
                from: key.0.to_string(),
                to: key.1.to_string(),
                old: o,
                new: n,
            });
        }
    }

    changes
}

/// Interconnect count per unordered endpoint pair.
fn edge_counts(p: &Platform) -> BTreeMap<(&str, &str), usize> {
    let mut m = BTreeMap::new();
    for ic in p.interconnects() {
        let (a, b) = (ic.from.as_str(), ic.to.as_str());
        *m.entry((a.min(b), a.max(b))).or_default() += 1;
    }
    m
}

fn parent_id<'a>(p: &'a Platform, pu: &ProcessingUnit) -> Option<&'a str> {
    pu.parent().map(|i| p.pu(i).id.as_str())
}

/// A PU's `(name, trimmed value)` pairs, sorted: per name, the sorted
/// multiset of values — the canonical form document order cannot
/// influence.
fn named_values(pu: &ProcessingUnit) -> Vec<(&str, &str)> {
    let mut vs: Vec<(&str, &str)> = pu
        .descriptor
        .iter()
        .map(|p| (p.name.as_str(), p.value.text.trim()))
        .collect();
    vs.sort_unstable();
    vs
}

/// Renders one name's values for a [`Change::PropertyChanged`] report:
/// `None` when absent, the bare value when single, `|`-joined when a name
/// occurs multiple times.
fn render_values(vs: &[(&str, &str)]) -> Option<String> {
    match vs {
        [] => None,
        [(_, one)] => Some(one.to_string()),
        many => Some(many.iter().map(|v| v.1).collect::<Vec<_>>().join(" | ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::prelude::*;

    fn base() -> Platform {
        let mut b = Platform::builder("v1");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let g = b.worker(m, "gpu0").unwrap();
        b.prop(g, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        b.build().unwrap()
    }

    #[test]
    fn identical_platforms_have_no_diff() {
        assert!(diff(&base(), &base()).is_empty());
    }

    #[test]
    fn added_and_removed_pus() {
        let old = base();
        let mut b = Platform::builder("v2");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        b.worker(m, "gpu1").unwrap();
        let new = b.build().unwrap();
        let d = diff(&old, &new);
        assert!(d.contains(&Change::PuRemoved("gpu0".into())));
        assert!(d.contains(&Change::PuAdded("gpu1".into())));
        // old edge disappears with the PU
        assert!(d
            .iter()
            .any(|c| matches!(c, Change::InterconnectChanged { new: 0, .. })));
    }

    #[test]
    fn property_changes_tracked() {
        let old = base();
        let mut b = Platform::builder("v2");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "arm")); // changed
        b.prop(m, Property::fixed("CORES", "8")); // added
        let g = b.worker(m, "gpu0").unwrap();
        b.prop(g, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        let new = b.build().unwrap();
        let d = diff(&old, &new);
        assert!(d.contains(&Change::PropertyChanged {
            id: "cpu".into(),
            property: "ARCHITECTURE".into(),
            old: Some("x86".into()),
            new: Some("arm".into()),
        }));
        assert!(d.contains(&Change::PropertyChanged {
            id: "cpu".into(),
            property: "CORES".into(),
            old: None,
            new: Some("8".into()),
        }));
    }

    #[test]
    fn quantity_and_parent_changes() {
        let mut b = Platform::builder("v1");
        let m = b.master("m");
        let h = b.hybrid(m, "h").unwrap();
        let w = b.worker(h, "w").unwrap();
        b.quantity(w, 2);
        let old = b.build().unwrap();

        let mut b = Platform::builder("v2");
        let m = b.master("m");
        b.hybrid(m, "h").unwrap();
        let w = b.worker(m, "w").unwrap(); // re-parented to master
        b.quantity(w, 4);
        let new = b.build().unwrap();

        let d = diff(&old, &new);
        assert!(d.contains(&Change::QuantityChanged {
            id: "w".into(),
            old: 2,
            new: 4
        }));
        assert!(d.contains(&Change::ParentChanged {
            id: "w".into(),
            old: Some("h".into()),
            new: Some("m".into()),
        }));
    }

    #[test]
    fn attribute_reordering_is_not_a_change() {
        // Duplicate property names: the first-match lookup used to make
        // reordering look like a value change.
        let mut b = Platform::builder("v1");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "OpenCL"));
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "Cuda"));
        let old = b.build().unwrap();

        let mut b = Platform::builder("v2");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "Cuda"));
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "OpenCL"));
        let new = b.build().unwrap();

        assert!(diff(&old, &new).is_empty());
    }

    #[test]
    fn whitespace_padding_is_not_a_change() {
        let mut b = Platform::builder("v1");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let old = b.build().unwrap();

        let mut b = Platform::builder("v2");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "  x86 "));
        let new = b.build().unwrap();

        assert!(diff(&old, &new).is_empty());
    }

    #[test]
    fn duplicate_value_multiset_changes_are_reported() {
        let mut b = Platform::builder("v1");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "OpenCL"));
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "Cuda"));
        let old = b.build().unwrap();

        let mut b = Platform::builder("v2");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("SOFTWARE_PLATFORM", "OpenCL"));
        let new = b.build().unwrap();

        let d = diff(&old, &new);
        assert_eq!(
            d,
            vec![Change::PropertyChanged {
                id: "cpu".into(),
                property: "SOFTWARE_PLATFORM".into(),
                old: Some("Cuda | OpenCL".into()),
                new: Some("OpenCL".into()),
            }]
        );
    }

    #[test]
    fn display_is_readable() {
        let c = Change::PropertyChanged {
            id: "gpu0".into(),
            property: "DEVICE_NAME".into(),
            old: None,
            new: Some("GTX 480".into()),
        };
        assert_eq!(c.to_string(), "~ PU gpu0: DEVICE_NAME <absent> -> GTX 480");
    }

    #[test]
    fn hotplug_scenario() {
        // A GPU goes away at runtime — exactly the dynamic-tracking case
        // from the paper's future work.
        let old = pdl_core::patterns::host_device(2);
        let new = pdl_core::patterns::host_device(1);
        let d = diff(&old, &new);
        assert!(d.contains(&Change::PuRemoved("w1".into())));
        assert!(!d.iter().any(|c| matches!(c, Change::PuAdded(_))));
    }
}
