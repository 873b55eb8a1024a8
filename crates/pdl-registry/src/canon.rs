//! Canonical platform encoding — the byte form that gets content-hashed.
//!
//! The PDL is XML, and XML admits many spellings of the same description:
//! attribute/property order is arbitrary, values carry incidental
//! whitespace, and composed layers can be listed in any order. The
//! registry must give all those spellings one address, so hashing goes
//! through a *canonical encoding* with the following normalization rules:
//!
//! * **Order independence** — PUs sort by id, properties sort by
//!   `(name, value, unit, fixedness, subschema)`, groups sort
//!   lexicographically, memory regions sort by id, interconnect edges sort
//!   by their own encoded record (bidirectional edges additionally
//!   normalize endpoint order). Duplicates are kept — the encoding is a
//!   sorted multiset, not a set.
//! * **Value normalization** — property values are trimmed; values that
//!   parse as finite numbers are re-rendered through Rust's shortest
//!   round-trip float formatting, so `" 42 "`, `"42"` and `"42.0"` agree.
//!   Units are *not* converted (a value in `MHz` stays distinct from the
//!   equivalent `GHz` value; unit conversion is a lossy judgement call that
//!   does not belong in an address).
//! * **Unambiguous framing** — every string is length-prefixed, so no
//!   separator collision can make two different platforms encode equally.
//!
//! [`canonicalize`] additionally materializes the same ordering as a new
//! [`Platform`] value, which `pdl-query::diff`-based compatibility checks
//! use to avoid reporting presentation differences as changes.

use crate::hash::ContentHash;
use pdl_core::descriptor::Descriptor;
use pdl_core::interconnect::{Directionality, Interconnect};
use pdl_core::platform::{Platform, PlatformBuilder, PuHandle};
use pdl_core::property::{Property, SubschemaRef};
use pdl_core::pu::ProcessingUnit;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::iter;
use std::ops::Range;

/// Version tag of the canonical encoding; bump when the rules change, so
/// old and new addresses can never be confused.
pub const CANON_VERSION: &str = "pdl-canon-v1";

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Normalized textual form of a property value: trimmed, numbers
/// re-rendered canonically; borrows the text unless a number is
/// re-rendered.
fn norm(text: &str) -> Cow<'_, str> {
    let t = text.trim();
    match t.parse::<f64>() {
        // Shortest round-trip rendering collapses "42", " 42 ", "42.0".
        Ok(n) if n.is_finite() => Cow::Owned(format!("{n}")),
        _ => Cow::Borrowed(t),
    }
}

/// Every descriptor of a platform: per PU its own and its memory regions',
/// then the interconnects'.
fn descriptors(platform: &Platform) -> impl Iterator<Item = &Descriptor> {
    let pus = platform.iter().flat_map(|(_, pu)| {
        iter::once(&pu.descriptor).chain(pu.memory_regions.iter().map(|mr| &mr.descriptor))
    });
    pus.chain(platform.interconnects().iter().map(|ic| &ic.descriptor))
}

/// The normalized form of each distinct value text of one platform. A
/// catalog carries a few dozen distinct values over thousands of
/// properties, so each is parsed and re-rendered once per call.
struct Norms<'a>(HashMap<&'a str, Cow<'a, str>>);

impl<'a> Norms<'a> {
    fn of(platform: &'a Platform) -> Self {
        let mut map = HashMap::new();
        for p in descriptors(platform).flat_map(Descriptor::iter) {
            let text = p.value.text.as_str();
            map.entry(text).or_insert_with(|| norm(text));
        }
        Norms(map)
    }

    fn get(&self, text: &str) -> &str {
        &self.0[text]
    }
}

/// Sort key of one property, which is also its encoded record: name,
/// normalized value, unit, fixedness, qualified subschema. All borrowed.
struct PropKey<'a> {
    name: &'a str,
    value: &'a str,
    unit: &'static str,
    fixed: bool,
    subschema: Option<&'a SubschemaRef>,
}

impl<'a> PropKey<'a> {
    fn of(p: &'a Property, norms: &'a Norms<'_>) -> Self {
        PropKey {
            name: &p.name,
            value: norms.get(&p.value.text),
            unit: p.value.unit.map_or("", pdl_core::units::Unit::as_str),
            fixed: p.fixed,
            subschema: p.subschema.as_ref(),
        }
    }

    /// The order of the records: field by field, the subschema by its
    /// qualified `prefix:TypeName` text ("" when absent).
    fn order(&self, other: &Self) -> Ordering {
        (self.name, self.value, self.unit, self.fixed)
            .cmp(&(other.name, other.value, other.unit, other.fixed))
            .then_with(|| qualified(self.subschema).cmp(qualified(other.subschema)))
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.name);
        put_str(buf, self.value);
        put_str(buf, self.unit);
        buf.push(u8::from(self.fixed));
        let sub = qualified(self.subschema);
        put_u32(buf, sub.clone().count() as u32);
        buf.extend(sub);
    }
}

/// The bytes of [`SubschemaRef::qualified`] ("" for none), without the
/// `String`.
fn qualified(s: Option<&SubschemaRef>) -> impl Iterator<Item = u8> + Clone + '_ {
    s.into_iter().flat_map(|s| {
        let sep: &[u8] = b":";
        s.namespace
            .bytes()
            .chain(sep.iter().copied())
            .chain(s.type_name.bytes())
    })
}

/// A descriptor's properties in canonical order, each with its key (used
/// both for encoding and for the canonical rebuild). The sort is stable:
/// properties whose records tie keep their order.
fn sorted_props<'a>(
    norms: &'a Norms<'_>,
    descriptor: &'a Descriptor,
) -> Vec<(PropKey<'a>, &'a Property)> {
    let mut v: Vec<_> = descriptor
        .iter()
        .map(|p| (PropKey::of(p, norms), p))
        .collect();
    v.sort_by(|a, b| a.0.order(&b.0));
    v
}

/// The descriptor with its properties in canonical order.
fn sorted_descriptor(norms: &Norms<'_>, descriptor: &Descriptor) -> Descriptor {
    let props = sorted_props(norms, descriptor);
    props.into_iter().map(|(_, p)| p.clone()).collect()
}

fn encode_descriptor(buf: &mut Vec<u8>, norms: &Norms<'_>, descriptor: &Descriptor) {
    let props = sorted_props(norms, descriptor);
    put_u32(buf, props.len() as u32);
    for (key, _) in &props {
        key.encode(buf);
    }
}

fn encode_pu(buf: &mut Vec<u8>, norms: &Norms<'_>, platform: &Platform, pu: &ProcessingUnit) {
    put_str(buf, pu.id.as_str());
    put_str(buf, pu.class.element_name());
    put_u32(buf, pu.quantity);
    put_str(buf, pu.parent().map_or("", |i| platform.pu(i).id.as_str()));

    let mut groups: Vec<&str> = pu
        .groups
        .iter()
        .map(pdl_core::id::GroupId::as_str)
        .collect();
    groups.sort_unstable();
    put_u32(buf, groups.len() as u32);
    for g in groups {
        put_str(buf, g);
    }

    encode_descriptor(buf, norms, &pu.descriptor);

    let mut mrs: Vec<_> = pu.memory_regions.iter().collect();
    mrs.sort_by(|a, b| a.id.cmp(&b.id));
    put_u32(buf, mrs.len() as u32);
    for mr in mrs {
        put_str(buf, mr.id.as_str());
        encode_descriptor(buf, norms, &mr.descriptor);
    }
}

/// Appends the record of one edge to `buf` and returns where it lies.
fn encode_interconnect(buf: &mut Vec<u8>, norms: &Norms<'_>, ic: &Interconnect) -> Range<usize> {
    let start = buf.len();
    let bidi = ic.directionality == Directionality::Bidirectional;
    let (a, b) = if bidi && ic.to < ic.from {
        (ic.to.as_str(), ic.from.as_str())
    } else {
        (ic.from.as_str(), ic.to.as_str())
    };
    put_str(buf, &ic.ic_type);
    put_str(buf, a);
    put_str(buf, b);
    put_str(buf, &ic.scheme);
    buf.push(u8::from(bidi));
    encode_descriptor(buf, norms, &ic.descriptor);
    start..buf.len()
}

/// The canonical byte encoding of a platform.
pub fn canonical_bytes(platform: &Platform) -> Vec<u8> {
    let norms = Norms::of(platform);
    let mut buf = Vec::with_capacity(1024);
    put_str(&mut buf, CANON_VERSION);
    put_str(&mut buf, &platform.name);
    put_str(&mut buf, &platform.schema_version.to_string());

    let mut pus: Vec<&ProcessingUnit> = platform.iter().map(|(_, pu)| pu).collect();
    pus.sort_by(|a, b| a.id.cmp(&b.id));
    put_u32(&mut buf, pus.len() as u32);
    for pu in pus {
        encode_pu(&mut buf, &norms, platform, pu);
    }

    // Edge records go into one buffer and sort as slices of it.
    let mut records = Vec::new();
    let mut edges: Vec<Range<usize>> = platform
        .interconnects()
        .iter()
        .map(|ic| encode_interconnect(&mut records, &norms, ic))
        .collect();
    edges.sort_unstable_by(|a, b| records[a.clone()].cmp(&records[b.clone()]));
    put_u32(&mut buf, edges.len() as u32);
    for e in edges {
        buf.extend_from_slice(&records[e]);
    }
    buf
}

/// The content address of a platform: SHA-256 over [`canonical_bytes`].
pub fn content_hash(platform: &Platform) -> ContentHash {
    ContentHash::of(&canonical_bytes(platform))
}

/// Rebuilds the platform in canonical order: descriptors, groups, memory
/// regions and interconnect lists sorted as in the canonical encoding (the
/// PU tree keeps its declaration structure — only per-node payload order
/// and the edge list are normalized). The rebuild shares the source's text.
pub fn canonicalize(platform: &Platform) -> Platform {
    let norms = Norms::of(platform);
    let mut b = PlatformBuilder::new(platform.name.clone());
    b.schema_version(platform.schema_version);

    fn copy(
        src: &Platform,
        norms: &Norms<'_>,
        b: &mut PlatformBuilder,
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
        b.descriptor(h, sorted_descriptor(norms, &pu.descriptor));
        let mut mrs: Vec<_> = pu.memory_regions.iter().collect();
        mrs.sort_by(|a, b| a.id.cmp(&b.id));
        for mr in mrs {
            let canon = sorted_descriptor(norms, &mr.descriptor);
            b.memory(
                h,
                pdl_core::memory::MemoryRegion::new(mr.id.clone()).with_descriptor(canon),
            );
        }
        let mut groups: Vec<_> = pu.groups.iter().collect();
        groups.sort();
        for g in groups {
            b.group(h, g.clone());
        }
        for &c in pu.children() {
            copy(src, norms, b, c, Some(h));
        }
    }
    for &r in platform.roots() {
        copy(platform, &norms, &mut b, r, None);
    }

    // An edge's record is the same for the source edge and its rebuild.
    let mut records = Vec::new();
    let mut edges: Vec<(Range<usize>, &Interconnect)> = platform
        .interconnects()
        .iter()
        .map(|ic| (encode_interconnect(&mut records, &norms, ic), ic))
        .collect();
    edges.sort_by(|a, b| records[a.0.clone()].cmp(&records[b.0.clone()]));
    for (_, ic) in edges {
        let (from, to) = if ic.directionality == Directionality::Bidirectional && ic.to < ic.from {
            (&ic.to, &ic.from)
        } else {
            (&ic.from, &ic.to)
        };
        b.interconnect(Interconnect {
            ic_type: ic.ic_type.clone(),
            from: from.clone(),
            to: to.clone(),
            scheme: ic.scheme.clone(),
            directionality: ic.directionality,
            descriptor: sorted_descriptor(&norms, &ic.descriptor),
        });
    }
    b.build_unchecked()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(prop_order_flipped: bool) -> Platform {
        let mut b = Platform::builder("canon-test");
        let m = b.master("cpu");
        if prop_order_flipped {
            b.prop(m, Property::fixed("CORES", " 8 "));
            b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        } else {
            b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
            b.prop(m, Property::fixed("CORES", "8.0"));
        }
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.group(w, "gpus");
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        b.build().unwrap()
    }

    #[test]
    fn property_order_and_whitespace_do_not_change_hash() {
        assert_eq!(content_hash(&sample(false)), content_hash(&sample(true)));
    }

    #[test]
    fn bidirectional_endpoint_order_normalized() {
        let mk = |flip: bool| {
            let mut b = Platform::builder("e");
            let m = b.master("a");
            b.worker(m, "b").unwrap();
            let ic = if flip {
                Interconnect::new("PCIe", "b", "a")
            } else {
                Interconnect::new("PCIe", "a", "b")
            };
            b.interconnect(ic);
            b.build().unwrap()
        };
        assert_eq!(content_hash(&mk(false)), content_hash(&mk(true)));
    }

    #[test]
    fn unidirectional_endpoint_order_is_semantic() {
        let mk = |flip: bool| {
            let mut b = Platform::builder("e");
            let m = b.master("a");
            b.worker(m, "b").unwrap();
            let ic = if flip {
                Interconnect::new("dma", "b", "a")
            } else {
                Interconnect::new("dma", "a", "b")
            };
            b.interconnect(ic.unidirectional());
            b.build_unchecked()
        };
        assert_ne!(content_hash(&mk(false)), content_hash(&mk(true)));
    }

    #[test]
    fn value_changes_change_hash() {
        let a = sample(false);
        let mut b = Platform::builder("canon-test");
        let m = b.master("cpu");
        b.prop(m, Property::fixed("ARCHITECTURE", "arm"));
        b.prop(m, Property::fixed("CORES", "8"));
        let w = b.worker(m, "gpu0").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.group(w, "gpus");
        b.interconnect(Interconnect::new("PCIe", "cpu", "gpu0"));
        let other = b.build().unwrap();
        assert_ne!(content_hash(&a), content_hash(&other));
    }

    #[test]
    fn name_is_part_of_the_address() {
        let a = sample(false);
        let mut renamed = sample(false);
        renamed.name = "other-name".into();
        assert_ne!(content_hash(&a), content_hash(&renamed));
    }

    #[test]
    fn canonical_form_has_sorted_properties() {
        let c = canonicalize(&sample(true));
        let (_, cpu) = c.pu_by_id("cpu").unwrap();
        let names: Vec<_> = cpu.descriptor.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["ARCHITECTURE", "CORES"]);
    }

    /// Rotates `xs` left by `by`: a presentation order that differs from
    /// the drawn one whenever there are at least two distinct elements.
    fn rotated<T: Clone>(xs: &[T], by: usize) -> Vec<T> {
        let mut v = xs.to_vec();
        if !v.is_empty() {
            v.rotate_left(by % xs.len());
        }
        v
    }

    /// One master and one worker carrying `props` (every fourth with a unit,
    /// every third unfixed, every fifth subschema-typed) on the PU, on each
    /// memory region and on each link; `turn` picks the presentation order
    /// of properties, groups, regions and links.
    fn presented(
        props: &[(String, String)],
        groups: &[String],
        regions: usize,
        links: usize,
        turn: usize,
    ) -> Platform {
        let descriptor = |turn: usize| -> Descriptor {
            let props = props.iter().enumerate().map(|(i, (name, value))| {
                let p =
                    Property::fixed(name.clone(), value.clone()).with_fixed(!i.is_multiple_of(3));
                if i.is_multiple_of(4) {
                    p.with_unit(pdl_core::units::Unit::MegaHertz)
                } else if i.is_multiple_of(5) {
                    let subschema = pdl_core::property::SubschemaRef::new("ocl", name.clone());
                    Property::typed(p.name, p.value, subschema).with_fixed(p.fixed)
                } else {
                    p
                }
            });
            rotated(&props.collect::<Vec<_>>(), turn)
                .into_iter()
                .collect()
        };
        let mut b = Platform::builder("presented");
        let m = b.master("cpu");
        let w = b.worker(m, "acc").unwrap();
        b.descriptor(w, descriptor(turn));
        for g in rotated(groups, turn) {
            b.group(w, g);
        }
        for r in rotated(&(0..regions).collect::<Vec<_>>(), turn) {
            let mr = pdl_core::memory::MemoryRegion::new(format!("mr{r}"));
            b.memory(w, mr.with_descriptor(descriptor(turn + r)));
        }
        for l in rotated(&(0..links).collect::<Vec<_>>(), turn) {
            // Bidirectional links are also written from either end.
            let (from, to) = if (l + turn).is_multiple_of(2) {
                ("cpu", "acc")
            } else {
                ("acc", "cpu")
            };
            let ic = Interconnect::new(format!("link{}", l % 2), from, to);
            b.interconnect(ic.with_descriptor(descriptor(turn + l)));
        }
        b.build_unchecked() // values may be empty
    }

    proptest::proptest! {
        #[test]
        fn canonicalize_is_idempotent_and_hash_preserving(
            props in proptest::collection::vec(("[A-C]{1,2}", "[0-9a-b. ]{0,4}"), 0..7),
            groups in proptest::collection::vec("[a-c]{1,2}", 0..4),
            regions in 0usize..4,
            links in 0usize..4,
            turn in 1usize..7,
        ) {
            let plain = presented(&props, &groups, regions, links, 0);
            let turned = presented(&props, &groups, regions, links, turn);
            let canon = canonicalize(&turned);
            // The address of a platform is the address of its canonical
            // form, which is what lets `publish` hash before rebuilding.
            assert_eq!(content_hash(&turned), content_hash(&canon));
            assert_eq!(content_hash(&plain), content_hash(&canon));
            assert_eq!(canonicalize(&plain), canon);
            assert_eq!(canonicalize(&canon), canon);
        }
    }

    #[test]
    fn norm_value_rules() {
        assert_eq!(norm(" 42 "), "42");
        assert_eq!(norm("42.0"), "42");
        assert_eq!(norm("1.50"), "1.5");
        assert_eq!(norm("  x86  "), "x86");
        assert_eq!(norm("NaN"), "NaN"); // non-finite stays textual
    }

    #[test]
    fn subschemas_order_by_their_qualified_text() {
        // As tuples ("a", …) < ("a-", …); as text "a-:x" < "a:x".
        let typed = |ns: &str| {
            let sub = pdl_core::property::SubschemaRef::new(ns, "x");
            Property::typed("P", pdl_core::property::PropertyValue::text("1"), sub)
        };
        let d: Descriptor = [typed("a"), typed("a-")].into_iter().collect();
        let mut b = Platform::builder("s");
        let m = b.master("m");
        b.descriptor(m, d);
        let c = canonicalize(&b.build().unwrap());
        let (_, m) = c.pu_by_id("m").unwrap();
        let order: Vec<_> = m
            .descriptor
            .iter()
            .map(|p| p.subschema.as_ref().unwrap().qualified())
            .collect();
        assert_eq!(order, ["a-:x", "a:x"]);
    }
}
