//! Composable description layers: ISA / microarchitecture / environment.
//!
//! Layered architecture-description languages (VADL's ISA / `MiA` split, the
//! MDA PIM→PSM refinement chain) separate *what the instruction set is*
//! from *how a concrete core implements it* from *what software environment
//! surrounds it*. The registry adopts the same split for platform
//! descriptors: a base structural description (the PU tree and
//! interconnects) is refined by property overlay [`Layer`]s of three
//! [`LayerKind`]s, applied coarsest-first:
//!
//! 1. [`LayerKind::Isa`] — architectural facts (`ARCHITECTURE`, word
//!    width, vector extensions);
//! 2. [`LayerKind::Microarchitecture`] — implementation facts (core
//!    counts, frequencies, peak FLOP/s, cache sizes);
//! 3. [`LayerKind::Environment`] — software/runtime facts (compilers,
//!    runtimes, software platforms).
//!
//! Composition is **order-insensitive by construction**: [`compose`] sorts
//! layers by `(kind, name)` before applying them, so any permutation of
//! the same layer set produces an identical platform — and therefore the
//! same content address. Within one layer, later entries win over earlier
//! ones (a layer is a small ordered patch, not a set).

use pdl_core::platform::{Platform, PlatformBuilder, PuHandle};
use pdl_core::property::Property;
use pdl_core::pu::PuClass;

/// Which refinement level a layer belongs to; determines application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LayerKind {
    /// Instruction-set / architectural facts (applied first).
    Isa,
    /// Concrete-implementation facts.
    Microarchitecture,
    /// Software/runtime environment facts (applied last).
    Environment,
}

/// Which PUs one overlay entry applies to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// A single PU by id.
    Pu(String),
    /// Every member of a logic group.
    Group(String),
    /// Every PU of a class.
    Class(PuClass),
    /// Every PU.
    All,
}

impl Target {
    fn matches(&self, platform: &Platform, pu: &pdl_core::pu::ProcessingUnit) -> bool {
        let _ = platform;
        match self {
            Target::Pu(id) => pu.id.as_str() == id,
            Target::Group(g) => pu.in_group(g),
            Target::Class(c) => pu.class == *c,
            Target::All => true,
        }
    }
}

/// A named property overlay at one refinement level.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name; `(kind, name)` is the canonical composition sort key.
    pub name: String,
    /// Refinement level.
    pub kind: LayerKind,
    entries: Vec<(Target, Property)>,
}

impl Layer {
    /// An empty layer.
    pub fn new(kind: LayerKind, name: impl Into<String>) -> Self {
        Layer {
            name: name.into(),
            kind,
            entries: Vec::new(),
        }
    }

    /// Adds an overlay entry, builder style. Within a layer, later entries
    /// for the same property name win.
    pub fn set(mut self, target: Target, property: Property) -> Self {
        self.entries.push((target, property));
        self
    }

    /// The overlay entries in application order.
    pub(crate) fn entries(&self) -> &[(Target, Property)] {
        &self.entries
    }
}

/// Applies a layer set to a base platform, coarsest kind first, then by
/// layer name — so composition is independent of the order `layers` is
/// given in. Each matched property replaces the first same-named property
/// of the PU descriptor (or appends). The result shares the text of `base`
/// and of the layers.
pub fn compose(base: &Platform, layers: &[Layer]) -> Platform {
    let mut ordered: Vec<&Layer> = layers.iter().collect();
    ordered.sort_by(|a, b| (a.kind, &a.name).cmp(&(b.kind, &b.name)));

    let mut b = PlatformBuilder::new(base.name.clone());
    b.schema_version(base.schema_version);

    fn copy(
        src: &Platform,
        b: &mut PlatformBuilder,
        ordered: &[&Layer],
        idx: pdl_core::id::PuIdx,
        parent: Option<PuHandle>,
    ) {
        let pu = src.pu(idx);
        let h = match parent {
            None => b.root(pu.id.clone(), pu.class),
            Some(p) => b
                .child(p, pu.id.clone(), pu.class)
                .expect("source tree is well-formed"),
        };
        b.quantity(h, pu.quantity);
        let mut desc = pu.descriptor.clone();
        for layer in ordered {
            for (target, prop) in layer.entries() {
                if target.matches(src, pu) {
                    desc.set(prop.clone());
                }
            }
        }
        b.descriptor(h, desc);
        for mr in &pu.memory_regions {
            b.memory(h, mr.clone());
        }
        for g in &pu.groups {
            b.group(h, g.clone());
        }
        for &c in pu.children() {
            copy(src, b, ordered, c, Some(h));
        }
    }
    for &r in base.roots() {
        copy(base, &mut b, &ordered, r, None);
    }
    for ic in base.interconnects() {
        b.interconnect(ic.clone());
    }
    b.build_unchecked()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::content_hash;

    fn base() -> Platform {
        let mut b = Platform::builder("layered");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.group(w, "gpus");
        b.build().unwrap()
    }

    fn layers() -> Vec<Layer> {
        vec![
            Layer::new(LayerKind::Environment, "starpu")
                .set(Target::All, Property::fixed("RUNTIME_SYSTEM", "StarPU"))
                .set(
                    Target::Class(PuClass::Master),
                    Property::fixed("COMPILER", "gcc"),
                ),
            Layer::new(LayerKind::Microarchitecture, "nehalem")
                .set(
                    Target::Pu("cpu".into()),
                    Property::fixed("FREQUENCY", "2.66"),
                )
                .set(Target::Group("gpus".into()), Property::fixed("CORES", "15")),
            Layer::new(LayerKind::Isa, "x86-64").set(
                Target::Class(PuClass::Master),
                Property::fixed("WORD_BITS", "64"),
            ),
        ]
    }

    #[test]
    fn composition_applies_overlays() {
        let p = compose(&base(), &layers());
        let (_, cpu) = p.pu_by_id("cpu").unwrap();
        assert_eq!(cpu.descriptor.value("RUNTIME_SYSTEM"), Some("StarPU"));
        assert_eq!(cpu.descriptor.value("COMPILER"), Some("gcc"));
        assert_eq!(cpu.descriptor.value("FREQUENCY"), Some("2.66"));
        assert_eq!(cpu.descriptor.value("WORD_BITS"), Some("64"));
        let (_, gpu) = p.pu_by_id("gpu0").unwrap();
        assert_eq!(gpu.descriptor.value("CORES"), Some("15"));
        assert_eq!(gpu.descriptor.value("COMPILER"), None);
        p.validate().unwrap();
    }

    #[test]
    fn composition_order_does_not_change_address() {
        let ls = layers();
        let fwd = compose(&base(), &ls);
        let mut rev = ls.clone();
        rev.reverse();
        let bwd = compose(&base(), &rev);
        assert_eq!(fwd, bwd);
        assert_eq!(content_hash(&fwd), content_hash(&bwd));
    }

    #[test]
    fn finer_layers_override_coarser_ones() {
        let ls = vec![
            Layer::new(LayerKind::Isa, "generic")
                .set(Target::All, Property::fixed("FREQUENCY", "1.0")),
            Layer::new(LayerKind::Microarchitecture, "tuned")
                .set(Target::All, Property::fixed("FREQUENCY", "3.5")),
        ];
        let p = compose(&base(), &ls);
        let (_, cpu) = p.pu_by_id("cpu").unwrap();
        assert_eq!(cpu.descriptor.value("FREQUENCY"), Some("3.5"));
    }

    #[test]
    fn empty_layer_set_is_identity() {
        let p = compose(&base(), &[]);
        assert_eq!(p, base());
        assert_eq!(content_hash(&p), content_hash(&base()));
    }
}
