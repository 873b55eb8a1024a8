//! A rustc-style diagnostics framework shared by all PDL tooling.
//!
//! Every problem a tool can report — structural validation issues, deeper
//! platform analyses, program/mapping analyses over annotated sources, and
//! trace-replay findings — is expressed as a [`Diagnostic`]: a stable code,
//! a severity, a human-readable message, and optionally a source span and
//! machine-readable subject. Codes are partitioned by prefix:
//!
//! * `P0xx` — structural platform rules (paper §III-A), migrated from
//!   [`Platform::issues`](crate::platform::Platform::issues).
//! * `P1xx` — deeper platform analyses (cycles, reachability, endpoint
//!   resolution, subschema typing) and schema-level XML findings.
//! * `C0xx` — Cascabel program/mapping analyses.
//! * `T0xx` — trace-replay (schedule conformance) findings.
//!
//! The human renderer lives here; the JSON renderer lives in `pdl-analyze`
//! next to its dependency-free JSON value type.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never affects exit status.
    Note,
    /// Suspicious but possibly intentional; exit status is unaffected.
    Warning,
    /// A genuine defect; linting exits nonzero.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A source position a diagnostic can point at (1-based line/column of an
/// XML element or an annotated-C line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// File the span refers to, when known.
    pub file: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (0 = column unknown, render as line only).
    pub col: u32,
}

impl Span {
    /// A span with no file association.
    pub fn at(line: u32, col: u32) -> Self {
        Span {
            file: None,
            line,
            col,
        }
    }

    /// Attaches a file name.
    #[must_use]
    pub fn in_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{file}:")?;
        }
        if self.col == 0 {
            write!(f, "{}", self.line)
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// One finding: stable code, severity, message, optional span/subject/notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`P003`, `C001`, `T002`, …). Codes are append-only: a
    /// published code never changes meaning.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable, single-sentence message.
    pub message: String,
    /// Where in the source the problem is, when a source exists.
    pub span: Option<Span>,
    /// Machine-readable anchor (a PU id, task interface, group name, task
    /// index) for tools that post-process JSON output.
    pub subject: Option<String>,
    /// Secondary explanations and suggestions.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message)
    }

    /// A new warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, message)
    }

    /// A new diagnostic with an explicit severity.
    pub(crate) fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
            subject: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a machine-readable subject.
    #[must_use]
    pub fn with_subject(mut self, subject: impl Into<String>) -> Self {
        self.subject = Some(subject.into());
        self
    }

    /// Appends a secondary note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic in the human `severity[code]: message` form,
    /// followed by indented notes.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        if let Some(span) = &self.span {
            out.push_str(&format!("{span}: "));
        }
        out.push_str(&format!(
            "{}[{}]: {}",
            self.severity, self.code, self.message
        ));
        for note in &self.notes {
            out.push_str(&format!("\n  note: {note}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered collection of diagnostics from one analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The findings, in emission order (or sorted via [`Report::sort`]).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends another report's diagnostics.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Iterates over the diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// The multiset of codes, sorted — what golden tests compare against.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes
    }

    /// Sorts diagnostics by (file, line, column, code) for stable output.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let key = |d: &Diagnostic| {
                (
                    d.span.as_ref().and_then(|s| s.file.clone()),
                    d.span.as_ref().map_or(u32::MAX, |s| s.line),
                    d.span.as_ref().map_or(u32::MAX, |s| s.col),
                    d.code,
                )
            };
            key(a).cmp(&key(b))
        });
    }

    /// Renders all diagnostics plus a one-line summary, human style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Report {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_with_span_and_notes() {
        let d = Diagnostic::error("P003", "Master PU \"m2\" is not at the top level")
            .with_span(Span::at(4, 9).in_file("bad.xml"))
            .with_subject("m2")
            .with_note("Masters can only appear at the highest hierarchical level");
        let s = d.render();
        assert!(s.starts_with("bad.xml:4:9: error[P003]:"));
        assert!(s.contains("note: Masters"));
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new();
        r.push(Diagnostic::warning("C009", "w"));
        r.push(Diagnostic::error("P001", "e"));
        r.push(Diagnostic::error("P001", "e2"));
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.codes(), vec!["C009", "P001", "P001"]);
    }

    #[test]
    fn sort_orders_by_position() {
        let mut r = Report::new();
        r.push(Diagnostic::error("P002", "later").with_span(Span::at(9, 1)));
        r.push(Diagnostic::error("P001", "earlier").with_span(Span::at(2, 5)));
        r.push(Diagnostic::error("P000", "spanless"));
        r.sort();
        assert_eq!(r.diagnostics[0].code, "P001");
        assert_eq!(r.diagnostics[1].code, "P002");
        assert_eq!(r.diagnostics[2].code, "P000");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
