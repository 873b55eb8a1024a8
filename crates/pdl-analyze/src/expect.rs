//! Self-annotated fixture expectations.
//!
//! Known-bad fixtures under `examples/bad/` carry their expected diagnostic
//! codes in a comment on one of the first lines of the file:
//!
//! ```text
//! <!-- expect: P001 P101 -->
//! /* expect[platform=xeon_x5550_host]: C005 */
//! // expect: T003 T005
//! ```
//!
//! The optional `[platform=NAME]` bracket (repeatable, comma-separated) names
//! the builtin platforms the program fixture should be mapping-checked
//! against.  The corpus golden tests (`tests/analyze_corpus.rs`) parse these headers
//! with [`parse_expectation`].

/// A parsed `expect:` header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expectation {
    /// Builtin platform names to map the fixture against (may be empty).
    pub platforms: Vec<String>,
    /// Expected diagnostic codes as a sorted multiset, e.g. `["P001", "P101"]`.
    pub codes: Vec<String>,
}

/// How many leading lines of a fixture are searched for an `expect:` header.
const HEADER_LINES: usize = 3;

/// Parses the `expect:` annotation from a fixture's leading lines.
///
/// Returns `None` when no annotation is present.  The returned code list is
/// sorted so it can be compared directly against [`Report::codes`].
///
/// [`Report::codes`]: pdl_core::diag::Report::codes
pub fn parse_expectation(contents: &str) -> Option<Expectation> {
    for line in contents.lines().take(HEADER_LINES) {
        if let Some(exp) = parse_line(line) {
            return Some(exp);
        }
    }
    None
}

fn parse_line(line: &str) -> Option<Expectation> {
    let at = line.find("expect")?;
    let mut rest = &line[at + "expect".len()..];
    let mut platforms = Vec::new();
    if let Some(tail) = rest.strip_prefix('[') {
        let close = tail.find(']')?;
        for field in tail[..close].split(',') {
            let field = field.trim();
            if let Some(name) = field.strip_prefix("platform=") {
                platforms.push(name.trim().to_string());
            }
        }
        rest = &tail[close + 1..];
    }
    let rest = rest.strip_prefix(':')?;
    let mut codes: Vec<String> = rest
        .split_whitespace()
        .take_while(|tok| !tok.starts_with("--") && !tok.starts_with("*/"))
        .map(str::to_string)
        .collect();
    codes.sort();
    Some(Expectation { platforms, codes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_comment_header_parses() {
        let exp =
            parse_expectation("<?xml version=\"1.0\"?>\n<!-- expect: P101 P001 -->\n").unwrap();
        assert_eq!(exp.codes, vec!["P001", "P101"]);
        assert!(exp.platforms.is_empty());
    }

    #[test]
    fn platform_bracket_and_c_comment_parse() {
        let exp =
            parse_expectation("/* expect[platform=xeon_x5550_host]: C005 */\nint x;").unwrap();
        assert_eq!(exp.platforms, vec!["xeon_x5550_host"]);
        assert_eq!(exp.codes, vec!["C005"]);
    }

    #[test]
    fn missing_header_is_none() {
        assert!(parse_expectation("<platform/>\n<!-- nothing here -->").is_none());
        // Beyond the header window.
        assert!(parse_expectation("a\nb\nc\n<!-- expect: P001 -->").is_none());
    }
}
