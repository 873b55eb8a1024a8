//! Platform-description analyses (`P` codes).
//!
//! Two entry points:
//!
//! * [`analyze_platform`] — analyzes an already-decoded
//!   [`Platform`] model: the structural rules of
//!   [`Platform::issues`] (re-coded `P001`–`P013`) plus the deeper
//!   graph and typing analyses (`P1xx`).
//! * [`analyze_platform_source`] — analyzes raw XML text. This path also
//!   reports syntax (`P100`) and schema (`P105`/`P106`/`P12x`) findings
//!   with line/column spans, decodes leniently so one malformed attribute
//!   does not hide every other finding, and attaches source spans to
//!   model-level diagnostics.

use pdl_core::descriptor::Descriptor;
use pdl_core::diag::{Diagnostic, Report, Span};
use pdl_core::platform::Platform;
use pdl_core::pu::PuClass;
use pdl_xml::dom::Document;
use pdl_xml::{Pos, SchemaError, SchemaRegistry, XmlError};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Analyzes a decoded platform model.
///
/// Runs every structural rule of [`Platform::issues`] (except
/// `P008`, whose endpoint resolution is re-derived here with memory-region
/// awareness as `P103`/`P104`) plus the `P1xx` analyses: control-cycle
/// detection, Master-reachability, interconnect endpoint resolution,
/// subschema property typing and group-name hygiene.
pub fn analyze_platform(platform: &Platform) -> Report {
    finish(model_diagnostics(platform, true), None, None)
}

/// Analyzes a platform resolved from a registry snapshot at a pinned
/// version requirement (`"latest"`, `"^1.2"`, `"=1.0.0"`, …).
///
/// Returns the resolved pin string (`name@version (hash)`) alongside the
/// report, so lint results can be attributed to one immutable descriptor
/// revision rather than to whatever the name happens to point at later.
pub fn analyze_pinned(
    snapshot: &pdl_registry::Snapshot,
    name: &str,
    req: &str,
) -> Result<(String, Report), pdl_registry::RegistryError> {
    let resolved = snapshot.resolve_str(name, req)?;
    let report = analyze_platform(resolved.platform.platform());
    Ok((resolved.pin(), report))
}

/// Analyzes PDL XML source text.
///
/// Returns the decoded platform (when the text was decodable at all,
/// however invalid) alongside the report. `file` is recorded in every span.
pub fn analyze_platform_source(file: &str, xml: &str) -> (Option<Platform>, Report) {
    let mut diags = Vec::new();
    let doc = match pdl_xml::parse_document(xml) {
        Ok(doc) => doc,
        Err(e) => {
            diags.push(
                Diagnostic::error("P100", e.to_string()).with_span(span_at(e.pos).in_file(file)),
            );
            return (None, finish(diags, None, None));
        }
    };

    let registry = SchemaRegistry::with_builtins();
    for (err, pos) in registry.validate_at(&doc) {
        diags.push(schema_diagnostic(&err, Some(pos), file));
    }
    dom_checks(&doc, file, &mut diags);

    match pdl_xml::decode_unchecked(&doc) {
        Ok(platform) => {
            // The schema pass above already typed subschema properties (with
            // positions), so the model-level typing pass is skipped here to
            // avoid reporting the same finding twice.
            diags.extend(model_diagnostics(&platform, false));
            let report = finish(diags, Some(&doc), Some(file));
            (Some(platform), report)
        }
        Err(e) => {
            diags.push(xml_error_diagnostic(&e, file));
            (None, finish(diags, Some(&doc), Some(file)))
        }
    }
}

/// Maps an [`XmlError`] onto a diagnostic (used when even lenient decoding
/// gives up).
fn xml_error_diagnostic(err: &XmlError, file: &str) -> Diagnostic {
    match err {
        XmlError::Syntax(s) => {
            Diagnostic::error("P100", s.to_string()).with_span(span_at(s.pos).in_file(file))
        }
        XmlError::Schema(s) => schema_diagnostic(s, None, file),
        XmlError::Model(m) => Diagnostic::error(
            "P199",
            format!("platform model could not be constructed: {m}"),
        ),
    }
}

/// Stable code for each schema-validation error class.
fn schema_code(err: &SchemaError) -> &'static str {
    match err {
        SchemaError::UnexpectedElement { .. } => "P120",
        SchemaError::MissingAttribute { .. } => "P121",
        SchemaError::UnknownSubschema(_) => "P105",
        SchemaError::UnknownSubschemaProperty { .. } => "P106",
        SchemaError::IncompatibleVersion { .. } => "P123",
        SchemaError::BadAttributeValue { .. } => "P124",
    }
}

fn schema_diagnostic(err: &SchemaError, pos: Option<Pos>, file: &str) -> Diagnostic {
    let mut d = Diagnostic::error(schema_code(err), err.to_string());
    if let Some(pos) = pos {
        d = d.with_span(span_at(pos).in_file(file));
    }
    d
}

fn span_at(pos: Pos) -> Span {
    Span::at(pos.line, pos.col)
}

/// DOM-level structural checks the lenient decoder cannot represent in the
/// arena: a Worker element containing PU children (`P004`, with the span of
/// the offending child — the arena model simply skips such subtrees).
fn dom_checks(doc: &Document, file: &str, out: &mut Vec<Diagnostic>) {
    for e in doc.root().descendants() {
        if e.local_name() != "Worker" {
            continue;
        }
        for child in e.elements() {
            if matches!(child.local_name(), "Master" | "Hybrid" | "Worker") {
                out.push(
                    Diagnostic::error(
                        "P004",
                        format!(
                            "Worker \"{}\" controls child processing unit \"{}\" (Workers are leaves, paper §III-A)",
                            e.attribute("id").unwrap_or("?"),
                            child.attribute("id").unwrap_or("?"),
                        ),
                    )
                    .with_span(span_at(child.pos()).in_file(file)),
                );
            }
        }
    }
}

/// All model-level diagnostics for a platform. `typed_props` enables the
/// subschema typing pass (`P105`/`P106`), which the XML source path skips
/// because its schema pass already covers it with positions.
fn model_diagnostics(platform: &Platform, typed_props: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for d in pdl_core::validate::diagnostics(platform).iter() {
        // Endpoint resolution is re-derived below (P103/P104) with
        // memory-region awareness; drop the coarser core finding.
        if d.code != "P008" {
            out.push(d.clone());
        }
    }
    control_cycles(platform, &mut out);
    master_reachability(platform, &mut out);
    endpoint_resolution(platform, &mut out);
    group_name_hygiene(platform, &mut out);
    if typed_props {
        subschema_typing(platform, &mut out);
    }
    out
}

/// `P101`: cycles in the id-level control graph. The arena itself is a
/// forest, but tools resolve control relationships *by id*; duplicated ids
/// merge nodes and can close a cycle no id-based traversal terminates on.
fn control_cycles(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let mut succ: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (_, pu) in platform.iter() {
        let entry = succ.entry(pu.id.to_string()).or_default();
        for &c in pu.children() {
            entry.insert(platform.pu(c).id.to_string());
        }
    }
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut cycles: Vec<Vec<String>> = Vec::new();
    for id in succ.keys() {
        if color.get(id.as_str()).copied().unwrap_or(0) == 0 {
            dfs_cycles(id, &succ, &mut color, &mut stack, &mut cycles);
        }
    }
    for cycle in cycles {
        out.push(
            Diagnostic::error(
                "P101",
                format!(
                    "control relationships form a cycle: {}",
                    cycle.join(" -> ")
                ),
            )
            .with_subject(cycle[0].clone())
            .with_note(
                "a cycle can only arise from duplicated PU ids; id-based traversals never terminate on it",
            ),
        );
    }
}

fn dfs_cycles<'a>(
    node: &'a str,
    succ: &'a BTreeMap<String, BTreeSet<String>>,
    color: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<String>>,
) {
    color.insert(node, 1);
    stack.push(node);
    if let Some(next) = succ.get(node) {
        for n in next {
            match color.get(n.as_str()).copied().unwrap_or(0) {
                0 => dfs_cycles(n, succ, color, stack, cycles),
                1 => {
                    let start = stack.iter().position(|s| *s == n.as_str()).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[start..].iter().map(|s| (*s).to_string()).collect();
                    cycle.push(n.clone());
                    cycles.push(cycle);
                }
                _ => {}
            }
        }
    }
    stack.pop();
    color.insert(node, 2);
}

/// `P102`: PUs no Master can delegate work to. BFS over control edges from
/// every top-level Master; a PU with `quantity="0"` exists zero times, so
/// control does not flow *through* it to its children.
fn master_reachability(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let mut reached = vec![false; platform.len()];
    let mut queue: VecDeque<_> = VecDeque::new();
    for &root in platform.roots() {
        if platform.pu(root).class == PuClass::Master {
            reached[root.index()] = true;
            queue.push_back(root);
        }
    }
    while let Some(i) = queue.pop_front() {
        let pu = platform.pu(i);
        if pu.quantity == 0 {
            continue; // zero physical units: controls nothing
        }
        for &c in pu.children() {
            if !reached[c.index()] {
                reached[c.index()] = true;
                queue.push_back(c);
            }
        }
    }
    for (i, pu) in platform.iter() {
        if !reached[i.index()] {
            out.push(
                Diagnostic::error(
                    "P102",
                    format!(
                        "processing unit \"{}\" is unreachable from any Master: no control path can delegate work to it",
                        pu.id
                    ),
                )
                .with_subject(pu.id.as_str()),
            );
        }
    }
}

/// `P103`/`P104`: interconnect endpoint resolution. An endpoint must name a
/// processing unit; naming a memory region is flagged as a warning
/// (`P104`), anything else as an error with a did-you-mean note (`P103`).
fn endpoint_resolution(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let pu_ids: BTreeSet<&str> = platform.iter().map(|(_, pu)| pu.id.as_str()).collect();
    let mr_ids: BTreeSet<&str> = platform
        .iter()
        .flat_map(|(_, pu)| pu.memory_regions.iter().map(|m| m.id.as_str()))
        .collect();
    for ic in platform.interconnects() {
        for end in [&ic.from, &ic.to] {
            let id = end.as_str();
            if pu_ids.contains(id) {
                continue;
            }
            if mr_ids.contains(id) {
                out.push(
                    Diagnostic::warning(
                        "P104",
                        format!(
                            "interconnect endpoint \"{id}\" names a memory region; interconnects join processing units — route to the region's owning PU instead"
                        ),
                    )
                    .with_subject(id),
                );
            } else {
                let mut d = Diagnostic::error(
                    "P103",
                    format!(
                        "interconnect endpoint \"{id}\" matches no processing unit or memory region"
                    ),
                )
                .with_subject(id);
                if let Some(suggestion) = closest_id(id, pu_ids.iter().copied()) {
                    d = d.with_note(format!("did you mean \"{suggestion}\"?"));
                }
                out.push(d);
            }
        }
    }
}

/// The known id closest to `id` (edit distance ≤ 2), for did-you-mean notes.
fn closest_id<'a>(id: &str, known: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    known
        .map(|k| (edit_distance(id, k), k))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, k)| k)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// `P107`: logic-group names that group set-expressions cannot reference
/// (anything outside `[A-Za-z0-9_.]` is an expression operator or
/// whitespace to the resolver).
fn group_name_hygiene(platform: &Platform, out: &mut Vec<Diagnostic>) {
    for (name, members) in platform.groups() {
        if name.as_str().is_empty() {
            continue; // P011 already covers empty names
        }
        if name
            .as_str()
            .chars()
            .any(|c| !(c.is_alphanumeric() || c == '_' || c == '.'))
        {
            let mut d = Diagnostic::warning(
                "P107",
                format!(
                    "logic group \"{name}\" cannot be referenced from group set-expressions (name contains characters outside [A-Za-z0-9_.])"
                ),
            );
            if let Some(&first) = members.first() {
                d = d.with_subject(platform.pu(first).id.as_str());
            }
            out.push(d);
        }
    }
}

/// `P105`/`P106`: model-level subschema property typing, for platforms that
/// never went through XML (discovered or hand-built models).
fn subschema_typing(platform: &Platform, out: &mut Vec<Diagnostic>) {
    let registry = SchemaRegistry::with_builtins();
    for (_, pu) in platform.iter() {
        typed_descriptor(&registry, &pu.descriptor, pu.id.as_str(), out);
        for mr in &pu.memory_regions {
            typed_descriptor(&registry, &mr.descriptor, pu.id.as_str(), out);
        }
    }
    for ic in platform.interconnects() {
        typed_descriptor(&registry, &ic.descriptor, ic.from.as_str(), out);
    }
}

fn typed_descriptor(
    registry: &SchemaRegistry,
    descriptor: &Descriptor,
    subject: &str,
    out: &mut Vec<Diagnostic>,
) {
    for prop in descriptor.iter() {
        let Some(sref) = &prop.subschema else {
            continue;
        };
        match registry.subschema(&sref.namespace) {
            None => out.push(
                Diagnostic::error(
                    "P105",
                    format!(
                        "property \"{}\" declares type {} of an unregistered subschema \"{}\"",
                        prop.name,
                        sref.qualified(),
                        sref.namespace
                    ),
                )
                .with_subject(subject),
            ),
            Some(sub) if sub.property_type(&sref.type_name).is_none() => out.push(
                Diagnostic::error(
                    "P105",
                    format!(
                        "subschema \"{}\" declares no property type \"{}\"",
                        sref.namespace, sref.type_name
                    ),
                )
                .with_subject(subject),
            ),
            Some(sub) if !sub.type_accepts(&sref.type_name, &prop.name) => out.push(
                Diagnostic::error(
                    "P106",
                    format!(
                        "property \"{}\" is not declared by type {}",
                        prop.name,
                        sref.qualified()
                    ),
                )
                .with_subject(subject),
            ),
            Some(_) => {}
        }
    }
}

/// Source position of every PU element (`Master`/`Hybrid`/`Worker`) by its
/// `id` attribute — of the first in document order, where ids repeat.
fn pu_positions<'d>(doc: &'d Document) -> HashMap<&'d str, Pos> {
    let mut positions = HashMap::new();
    for e in doc.root().descendants() {
        if let ("Master" | "Hybrid" | "Worker", Some(id)) = (e.local_name(), e.attribute("id")) {
            positions.entry(id).or_insert_with(|| e.pos());
        }
    }
    positions
}

/// Attaches source spans (a diagnostic about a decoded PU points back at
/// its XML element, found by the subject's id) and returns the sorted
/// report. The id lookup is one pass over the document, made when the
/// first diagnostic asks, however many do.
fn finish(mut diags: Vec<Diagnostic>, doc: Option<&Document>, file: Option<&str>) -> Report {
    if let Some(doc) = doc {
        let mut positions = None;
        for d in &mut diags {
            let (None, Some(subject)) = (&d.span, d.subject.as_deref()) else {
                continue;
            };
            if let Some(&pos) = positions
                .get_or_insert_with(|| pu_positions(doc))
                .get(subject)
            {
                let mut span = span_at(pos);
                if let Some(file) = file {
                    span = span.in_file(file);
                }
                d.span = Some(span);
            }
        }
    }
    let mut report: Report = diags.into_iter().collect();
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_synthetic_platforms_have_no_findings() {
        for platform in [
            pdl_discover::synthetic::xeon_x5550_host(),
            pdl_discover::synthetic::xeon_2gpu_testbed(),
            pdl_discover::synthetic::cell_be(),
            pdl_discover::synthetic::gpgpu_cluster(2, 2),
            pdl_discover::synthetic::numa_host(2, 4),
        ] {
            let report = analyze_platform(&platform);
            assert!(report.is_empty(), "{}: {}", platform.name, report.render());
        }
    }

    #[test]
    fn pinned_analysis_resolves_through_the_registry() {
        let reg = pdl_discover::catalog::builtin_registry();
        let snap = reg.snapshot();
        let (pin, report) = analyze_pinned(&snap, "cell-be", "^1").unwrap();
        assert!(pin.starts_with("cell-be@1.0.0"));
        assert!(report.is_empty(), "{}", report.render());
        assert!(matches!(
            analyze_pinned(&snap, "cell-be", "^9"),
            Err(pdl_registry::RegistryError::NoMatchingVersion { .. })
        ));
    }

    #[test]
    fn syntax_error_is_p100_with_span() {
        let (platform, report) = analyze_platform_source("t.xml", "<Master id=\"m\"");
        assert!(platform.is_none());
        assert_eq!(report.codes(), ["P100"]);
        let span = report.iter().next().unwrap().span.clone().unwrap();
        assert_eq!(span.file.as_deref(), Some("t.xml"));
    }

    #[test]
    fn duplicate_id_cycle_is_p001_and_p101() {
        let xml = r#"<Master id="a" quantity="1">
  <Hybrid id="b" quantity="1">
    <Hybrid id="a" quantity="1"/>
  </Hybrid>
</Master>"#;
        let (platform, report) = analyze_platform_source("cycle.xml", xml);
        assert!(platform.is_some());
        assert_eq!(report.codes(), ["P001", "P101"]);
    }

    #[test]
    fn zero_quantity_hybrid_orphans_children() {
        let xml = r#"<Master id="m" quantity="1">
  <Hybrid id="h" quantity="0">
    <Worker id="w" quantity="4"/>
  </Hybrid>
</Master>"#;
        let (_, report) = analyze_platform_source("unreach.xml", xml);
        assert_eq!(report.codes(), ["P007", "P102"]);
        // The unreachable worker's diagnostic points at its element.
        let p102 = report.iter().find(|d| d.code == "P102").unwrap();
        assert_eq!(p102.span.as_ref().unwrap().line, 3);
    }

    #[test]
    fn endpoint_resolution_distinguishes_regions_and_typos() {
        let mut b = Platform::builder("t");
        let m = b.master("cpu");
        b.worker(m, "gpu0").unwrap();
        let report = analyze_platform(&b.build().unwrap());
        assert!(report.is_empty());

        let xml = r#"<Platform schemaVersion="1.0">
  <Master id="cpu" quantity="1">
    <MemoryRegion id="ram"/>
    <Worker id="gpu0" quantity="1"/>
  </Master>
  <Interconnect type="PCIe" from="cpu" to="ram"/>
  <Interconnect type="PCIe" from="cpu" to="gpu1"/>
</Platform>"#;
        let (_, report) = analyze_platform_source("ic.xml", xml);
        assert_eq!(report.codes(), ["P103", "P104"]);
        let p103 = report.iter().find(|d| d.code == "P103").unwrap();
        assert!(p103.notes[0].contains("gpu0"), "{:?}", p103.notes);
    }

    #[test]
    fn worker_children_flagged_on_the_dom() {
        let xml =
            "<Worker id=\"w\" quantity=\"1\">\n  <Worker id=\"x\" quantity=\"1\"/>\n</Worker>";
        let (_, report) = analyze_platform_source("s.xml", xml);
        assert!(report.codes().contains(&"P004"), "{}", report.render());
    }
}
