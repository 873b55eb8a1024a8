//! [`Platform`] → DOM → XML encoding.
//!
//! The encoder emits the `<Platform>` wrapper form (name + schemaVersion +
//! Masters + platform-level interconnects), which round-trips every model
//! feature. [`encode_master_fragment`] emits the bare-Master form of
//! Listing 1 for single-root platforms.
//!
//! The document borrows the platform's ids, names and values; only what is
//! formatted on the way (a quantity, a version, a prefixed name) is owned.

use crate::dom::Document;
use crate::error::{Pos, SyntaxError};
use crate::writer;
use pdl_core::prelude::*;
use std::borrow::Cow;

/// A platform that fits in memory encodes to far fewer nodes than a
/// document indexes.
const FITS: &str = "a platform's nodes and attributes fit a document";

/// Encodes a platform as a `<Platform>` document that borrows it.
pub(crate) fn encode_document(platform: &Platform) -> Document<'_> {
    let mut doc = Document::default();
    encode_platform(&mut doc, platform).expect(FITS);
    doc
}

/// Serializes a platform to an XML string.
pub fn to_xml(platform: &Platform) -> String {
    writer::write_document(&encode_document(platform))
}

/// Encodes a single-root platform as a bare `<Master>` document (Listing 1
/// shape), with interconnects nested in the Master scope. Returns `None`
/// when the platform does not have exactly one root.
pub fn encode_master_fragment(platform: &Platform) -> Option<String> {
    let &[root] = platform.roots() else {
        return None;
    };
    let mut doc = Document::default();
    encode_pu(&mut doc, platform, root, platform.interconnects()).expect(FITS);
    Some(writer::write_document(&doc))
}

fn encode_platform<'p>(doc: &mut Document<'p>, platform: &'p Platform) -> Result<(), SyntaxError> {
    doc.open("Platform", Pos::default())?;
    doc.attr("name", platform.name.as_str())?;
    doc.attr("schemaVersion", platform.schema_version.to_string())?;
    for &r in platform.roots() {
        encode_pu(doc, platform, r, &[])?;
    }
    for ic in platform.interconnects() {
        encode_interconnect(doc, ic)?;
    }
    doc.close();
    Ok(())
}

/// Encodes a PU and its subtree, with `nested` interconnects as its last
/// children.
fn encode_pu<'p>(
    doc: &mut Document<'p>,
    platform: &'p Platform,
    idx: PuIdx,
    nested: &'p [Interconnect],
) -> Result<(), SyntaxError> {
    let pu = platform.pu(idx);
    doc.open(pu.class.element_name(), Pos::default())?;
    doc.attr("id", pu.id.as_str())?;
    if pu.quantity != 1 {
        doc.attr("quantity", pu.quantity.to_string())?;
    }
    encode_descriptor(doc, "PUDescriptor", &pu.descriptor)?;
    for mr in &pu.memory_regions {
        doc.open("MemoryRegion", Pos::default())?;
        doc.attr("id", mr.id.as_str())?;
        encode_descriptor(doc, "MRDescriptor", &mr.descriptor)?;
        doc.close();
    }
    for g in &pu.groups {
        doc.open("LogicGroupAttribute", Pos::default())?;
        doc.attr("name", g.as_str())?;
        doc.close();
    }
    for &c in pu.children() {
        encode_pu(doc, platform, c, &[])?;
    }
    for ic in nested {
        encode_interconnect(doc, ic)?;
    }
    doc.close();
    Ok(())
}

fn encode_interconnect<'p>(
    doc: &mut Document<'p>,
    ic: &'p Interconnect,
) -> Result<(), SyntaxError> {
    doc.open("Interconnect", Pos::default())?;
    doc.attr("type", ic.ic_type.as_str())?;
    doc.attr("from", ic.from.as_str())?;
    doc.attr("to", ic.to.as_str())?;
    if !ic.scheme.is_empty() {
        doc.attr("scheme", ic.scheme.as_str())?;
    }
    if ic.directionality == Directionality::Unidirectional {
        doc.attr("direction", "uni")?;
    }
    encode_descriptor(doc, "ICDescriptor", &ic.descriptor)?;
    doc.close();
    Ok(())
}

/// Encodes a descriptor that has properties; an empty one is left out.
fn encode_descriptor<'p>(
    doc: &mut Document<'p>,
    element_name: &'static str,
    d: &'p Descriptor,
) -> Result<(), SyntaxError> {
    if d.is_empty() {
        return Ok(());
    }
    doc.open(element_name, Pos::default())?;
    for p in d.iter() {
        encode_property(doc, p)?;
    }
    doc.close();
    Ok(())
}

fn encode_property<'p>(doc: &mut Document<'p>, p: &'p Property) -> Result<(), SyntaxError> {
    doc.open("Property", Pos::default())?;
    doc.attr("fixed", if p.fixed { "true" } else { "false" })?;
    // Typed properties use the subschema prefix on name/value children,
    // exactly as in Listing 2.
    let (name_el, value_el): (Cow<str>, Cow<str>) = match &p.subschema {
        Some(s) => {
            doc.attr("xsi:type", s.qualified())?;
            (
                format!("{}:name", s.namespace).into(),
                format!("{}:value", s.namespace).into(),
            )
        }
        None => ("name".into(), "value".into()),
    };
    doc.open(name_el, Pos::default())?;
    doc.text(p.name.as_str())?;
    doc.close();
    doc.open(value_el, Pos::default())?;
    if let Some(u) = p.value.unit {
        doc.attr("unit", u.as_str())?;
    }
    if !p.value.text.is_empty() {
        doc.text(p.value.text.as_str())?;
    }
    doc.close();
    doc.close();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_document;
    use crate::parser::parse_document;
    use crate::schema::SchemaRegistry;

    fn listing1_platform() -> Platform {
        let mut b = Platform::builder("listing1");
        let m = b.master("0");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        let w = b.worker(m, "1").unwrap();
        b.prop(w, Property::fixed("ARCHITECTURE", "gpu"));
        b.interconnect(Interconnect::new("rDMA", "0", "1"));
        b.build().unwrap()
    }

    #[test]
    fn xml_round_trip_identity() {
        let p = listing1_platform();
        let xml = to_xml(&p);
        let doc = parse_document(&xml).unwrap();
        let p2 = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn round_trip_with_all_features() {
        let mut b = Platform::builder("full");
        b.schema_version(Version::new(1, 0));
        let m = b.master("0");
        b.prop(m, Property::fixed("ARCHITECTURE", "x86"));
        b.prop(m, Property::unfixed("HOSTNAME", ""));
        b.memory(
            m,
            MemoryRegion::new("ram").with_descriptor(
                Descriptor::new().with(Property::fixed("SIZE", "32").with_unit(Unit::GibiByte)),
            ),
        );
        b.group(m, "hosts");
        let h = b.hybrid(m, "node").unwrap();
        b.quantity(h, 2);
        let w = b.worker(h, "gpu").unwrap();
        b.prop(
            w,
            Property::typed(
                "GLOBAL_MEM_SIZE",
                PropertyValue::with_unit(1_572_864u64, Unit::KiloByte),
                SubschemaRef::new("ocl", "oclDevicePropertyType"),
            ),
        );
        b.group(w, "gpus");
        b.interconnect(
            Interconnect::new("PCIe", "node", "gpu")
                .with_scheme("dma")
                .with_descriptor(
                    Descriptor::new()
                        .with(Property::fixed("BANDWIDTH", "8").with_unit(Unit::GigaBytePerSec)),
                ),
        );
        b.interconnect(Interconnect::new("QPI", "0", "node").unidirectional());
        let p = b.build().unwrap();

        let xml = to_xml(&p);
        let doc = parse_document(&xml).unwrap();
        let p2 = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn master_fragment_matches_listing1_shape() {
        let p = listing1_platform();
        let xml = encode_master_fragment(&p).unwrap();
        assert!(xml.contains("<Master id=\"0\">"));
        assert!(xml.contains("<name>ARCHITECTURE</name>"));
        assert!(xml.contains("<value>gpu</value>"));
        assert!(xml.contains("<Interconnect type=\"rDMA\" from=\"0\" to=\"1\"/>"));
        // And it decodes back to the same platform modulo name (bare
        // fragments take the Master id as platform name).
        let doc = parse_document(&xml).unwrap();
        let p2 = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap();
        assert_eq!(p2.len(), p.len());
        assert_eq!(p2.interconnects(), p.interconnects());
    }

    #[test]
    fn master_fragment_requires_single_root() {
        let mut b = Platform::builder("two");
        b.master("a");
        b.master("b");
        let p = b.build().unwrap();
        assert!(encode_master_fragment(&p).is_none());
        // The Platform wrapper handles it fine.
        let xml = to_xml(&p);
        let doc = parse_document(&xml).unwrap();
        let p2 = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn typed_property_emits_prefixed_children() {
        let mut b = Platform::builder("t");
        let m = b.master("0");
        b.prop(
            m,
            Property::typed(
                "DEVICE_NAME",
                PropertyValue::text("GeForce GTX 480"),
                SubschemaRef::new("ocl", "oclDevicePropertyType"),
            ),
        );
        let xml = to_xml(&b.build().unwrap());
        assert!(xml.contains("xsi:type=\"ocl:oclDevicePropertyType\""));
        assert!(xml.contains("<ocl:name>DEVICE_NAME</ocl:name>"));
        assert!(xml.contains("<ocl:value>GeForce GTX 480</ocl:value>"));
    }

    #[test]
    fn quantity_omitted_when_one() {
        let p = listing1_platform();
        let xml = to_xml(&p);
        assert!(!xml.contains("quantity"));
        let pool = pdl_core::patterns::master_worker_pool(8);
        let xml = to_xml(&pool);
        assert!(xml.contains("quantity=\"8\""));
    }
}
