//! Logic-group resolution and group set-expressions.
//!
//! The paper's `LogicGroupAttribute` "allows to define group identifiers for
//! sub-sets of PUs" (§III-B); task `execute` annotations reference such
//! groups as *execution groups* (§IV-A). Tools frequently need to combine
//! groups, so this module adds a tiny set-expression language:
//!
//! ```text
//! gpus                      members of group "gpus"
//! gpus+cpus                 union
//! gpus&fast                 intersection
//! gpus-slow                 difference
//! (gpus+cpus)-slow          grouping
//! @workers / @masters / @hybrids / @all     class pseudo-groups
//! ```

use pdl_core::id::PuIdx;
use pdl_core::platform::Platform;
use pdl_core::pu::PuClass;
use std::collections::BTreeSet;
use std::fmt;

/// Parentheses nested deeper than this are rejected: the parser recurses
/// once per level, and no expression a person writes comes close.
pub const MAX_DEPTH: usize = 64;

/// Error parsing or evaluating a group expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupExprError(pub String);

impl fmt::Display for GroupExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group expression error: {}", self.0)
    }
}

impl std::error::Error for GroupExprError {}

/// Resolves a group set-expression to PU indices (document order).
pub fn resolve(platform: &Platform, expr: &str) -> Result<Vec<PuIdx>, GroupExprError> {
    let mut p = ExprParser {
        input: expr,
        at: 0,
        depth: 0,
    };
    let set = p.parse_expr(platform)?;
    p.skip_ws();
    if p.at != p.input.len() {
        return Err(GroupExprError(format!(
            "trailing input at byte {}: {:?}",
            p.at,
            &p.input[p.at..]
        )));
    }
    // Emit in document order.
    let mut out: Vec<PuIdx> = platform
        .dfs()
        .map(|(i, _)| i)
        .filter(|i| set.contains(&i.index()))
        .collect();
    out.dedup();
    Ok(out)
}

struct ExprParser<'a> {
    input: &'a str,
    at: usize,
    /// Open parentheses around the cursor.
    depth: usize,
}

impl<'a> ExprParser<'a> {
    fn skip_ws(&mut self) {
        while self.input[self.at..].starts_with(' ') {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.at..].chars().next()
    }

    fn parse_expr(&mut self, p: &Platform) -> Result<BTreeSet<usize>, GroupExprError> {
        let mut acc = self.parse_atom(p)?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('+') => {
                    self.at += 1;
                    let rhs = self.parse_atom(p)?;
                    acc = acc.union(&rhs).copied().collect();
                }
                Some('&') => {
                    self.at += 1;
                    let rhs = self.parse_atom(p)?;
                    acc = acc.intersection(&rhs).copied().collect();
                }
                Some('-') => {
                    self.at += 1;
                    let rhs = self.parse_atom(p)?;
                    acc = acc.difference(&rhs).copied().collect();
                }
                _ => return Ok(acc),
            }
        }
    }

    fn parse_atom(&mut self, p: &Platform) -> Result<BTreeSet<usize>, GroupExprError> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                if self.depth == MAX_DEPTH {
                    return Err(GroupExprError(format!(
                        "parentheses nested deeper than {MAX_DEPTH} levels at byte {}",
                        self.at
                    )));
                }
                self.at += 1;
                self.depth += 1;
                let inner = self.parse_expr(p)?;
                self.depth -= 1;
                self.skip_ws();
                if self.peek() == Some(')') {
                    self.at += 1;
                    Ok(inner)
                } else {
                    Err(GroupExprError(format!("expected ')' at byte {}", self.at)))
                }
            }
            Some('@') => {
                let at = self.at;
                self.at += 1;
                let name = self.take_name();
                let class = match name.as_str() {
                    "workers" => Some(PuClass::Worker),
                    "masters" => Some(PuClass::Master),
                    "hybrids" => Some(PuClass::Hybrid),
                    "all" => None,
                    _ => {
                        return Err(GroupExprError(format!(
                            "unknown pseudo-group @{name} at byte {at} (expected @workers, @masters, @hybrids, @all)"
                        )))
                    }
                };
                Ok(p.iter()
                    .filter(|(_, pu)| class.is_none_or(|c| pu.class == c))
                    .map(|(i, _)| i.index())
                    .collect())
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let name = self.take_name();
                Ok(p.group_members(&name)
                    .into_iter()
                    .map(pdl_core::id::PuIdx::index)
                    .collect())
            }
            other => Err(GroupExprError(format!(
                "expected group name, '@' pseudo-group or '(' at byte {}, found {other:?}",
                self.at
            ))),
        }
    }

    fn take_name(&mut self) -> String {
        let start = self.at;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '.') {
            self.at += self.peek().unwrap().len_utf8();
        }
        self.input[start..self.at].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::platform::Platform;

    fn testbed() -> Platform {
        let mut b = Platform::builder("t");
        let m = b.master("cpu");
        b.group(m, "hosts");
        let g0 = b.worker(m, "gpu0").unwrap();
        b.group(g0, "gpus");
        let g1 = b.worker(m, "gpu1").unwrap();
        b.group(g1, "gpus");
        b.group(g1, "fast");
        let s = b.worker(m, "spe").unwrap();
        b.group(s, "slow");
        b.build().unwrap()
    }

    fn ids(p: &Platform, idxs: &[PuIdx]) -> Vec<String> {
        idxs.iter().map(|&i| p.pu(i).id.to_string()).collect()
    }

    #[test]
    fn plain_group() {
        let p = testbed();
        assert_eq!(ids(&p, &resolve(&p, "gpus").unwrap()), ["gpu0", "gpu1"]);
        assert!(resolve(&p, "nonexistent").unwrap().is_empty());
    }

    #[test]
    fn union_intersection_difference() {
        let p = testbed();
        assert_eq!(
            ids(&p, &resolve(&p, "gpus+slow").unwrap()),
            ["gpu0", "gpu1", "spe"]
        );
        assert_eq!(ids(&p, &resolve(&p, "gpus&fast").unwrap()), ["gpu1"]);
        assert_eq!(ids(&p, &resolve(&p, "gpus-fast").unwrap()), ["gpu0"]);
    }

    #[test]
    fn parentheses() {
        let p = testbed();
        assert_eq!(
            ids(&p, &resolve(&p, "(gpus+slow)-fast").unwrap()),
            ["gpu0", "spe"]
        );
    }

    #[test]
    fn pseudo_groups() {
        let p = testbed();
        assert_eq!(
            ids(&p, &resolve(&p, "@workers").unwrap()),
            ["gpu0", "gpu1", "spe"]
        );
        assert_eq!(ids(&p, &resolve(&p, "@masters").unwrap()), ["cpu"]);
        assert_eq!(resolve(&p, "@all").unwrap().len(), 4);
        assert_eq!(ids(&p, &resolve(&p, "@workers-gpus").unwrap()), ["spe"]);
    }

    #[test]
    fn whitespace_tolerated() {
        let p = testbed();
        assert_eq!(
            ids(&p, &resolve(&p, " gpus + slow ").unwrap()),
            ["gpu0", "gpu1", "spe"]
        );
    }

    /// Every error names the byte it stopped at.
    #[test]
    fn errors() {
        let p = testbed();
        for (expr, at) in [
            ("", "expected group name, '@' pseudo-group or '(' at byte 0"),
            ("gpus + ", "'(' at byte 7, found None"),
            ("(gpus", "expected ')' at byte 5"),
            ("(gpus + slow ]", "expected ')' at byte 13"),
            ("gpus)", "trailing input at byte 4"),
            ("@bogus", "unknown pseudo-group @bogus at byte 0"),
            ("gpus - (@all & @nope)", "@nope at byte 15"),
            ("gpus ^ fast", "trailing input at byte 5"),
        ] {
            let e = resolve(&p, expr).unwrap_err();
            assert!(e.0.contains(at), "{expr:?}: {e}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let p = testbed();
        let nested = |depth: usize| format!("{}gpus{}", "(".repeat(depth), ")".repeat(depth));
        assert_eq!(
            ids(&p, &resolve(&p, &nested(MAX_DEPTH)).unwrap()),
            ["gpu0", "gpu1"]
        );
        let e = resolve(&p, &nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.0.contains("deeper than 64 levels at byte 64"), "{e}");
        // By the tens of thousands, closed or not: an error, not a stack overflow.
        assert!(resolve(&p, &nested(30_000)).is_err());
        assert!(resolve(&p, &"(".repeat(30_000)).is_err());
    }

    #[test]
    fn document_order_output() {
        let p = testbed();
        // Union written in reverse order still emits document order.
        assert_eq!(
            ids(&p, &resolve(&p, "slow+gpus").unwrap()),
            ["gpu0", "gpu1", "spe"]
        );
    }
}
