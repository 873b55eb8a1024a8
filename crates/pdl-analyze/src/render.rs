//! JSON rendering of diagnostic reports (the human renderer lives on
//! [`Report`] itself).

use hetero_trace::json::Json;
use pdl_core::diag::{Diagnostic, Report};

/// Converts one diagnostic to a JSON object.
pub(crate) fn diagnostic_to_json(d: &Diagnostic) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("code".into(), Json::str(d.code)),
        ("severity".into(), Json::str(d.severity.label())),
        ("message".into(), Json::str(d.message.clone())),
    ];
    if let Some(span) = &d.span {
        if let Some(file) = &span.file {
            members.push(("file".into(), Json::str(file.clone())));
        }
        members.push(("line".into(), Json::Num(f64::from(span.line))));
        if span.col > 0 {
            members.push(("col".into(), Json::Num(f64::from(span.col))));
        }
    }
    if let Some(subject) = &d.subject {
        members.push(("subject".into(), Json::str(subject.clone())));
    }
    if !d.notes.is_empty() {
        members.push((
            "notes".into(),
            Json::Arr(d.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ));
    }
    Json::Obj(members)
}

/// Converts a report to a JSON object with diagnostics and counts.
pub(crate) fn report_to_json(report: &Report) -> Json {
    Json::Obj(vec![
        ("errors".into(), Json::Num(report.error_count() as f64)),
        ("warnings".into(), Json::Num(report.warning_count() as f64)),
        (
            "diagnostics".into(),
            Json::Arr(report.iter().map(diagnostic_to_json).collect()),
        ),
    ])
}

/// Pretty-printed JSON text of a report.
pub fn render_json(report: &Report) -> String {
    report_to_json(report).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::diag::Span;

    #[test]
    fn json_round_trips_and_carries_fields() {
        let mut r = Report::new();
        r.push(
            Diagnostic::error("P103", "dangling endpoint")
                .with_span(Span::at(7, 3).in_file("p.xml"))
                .with_subject("gpu9")
                .with_note("did you mean \"gpu0\"?"),
        );
        let text = render_json(&r);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("errors").and_then(Json::as_u64), Some(1));
        let d = &parsed.get("diagnostics").unwrap().items()[0];
        assert_eq!(d.get("code").and_then(Json::as_str), Some("P103"));
        assert_eq!(d.get("file").and_then(Json::as_str), Some("p.xml"));
        assert_eq!(d.get("line").and_then(Json::as_u64), Some(7));
        assert_eq!(d.get("subject").and_then(Json::as_str), Some("gpu9"));
    }
}
