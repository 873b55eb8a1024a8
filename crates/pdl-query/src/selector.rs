//! A small path/predicate selector language over platform descriptions.
//!
//! Paper §II: the PDL "provides a name-space for reference to architectural
//! properties and platform information", sparing users "a diversity of
//! different APIs to query platform information". This module gives tools a
//! compact, XPath-flavoured query syntax:
//!
//! ```text
//! //Worker[@ARCHITECTURE='gpu']          all GPU workers, any depth
//! /Master/Worker                         workers directly under a root Master
//! //Hybrid/Worker[@CORES>=8]             big workers under hybrids
//! //*[@group='gpus']                     members of logic group "gpus"
//! //Worker[@id='1']                      by identity
//! //Worker[@ARCHITECTURE]                workers that state an architecture
//! ```
//!
//! Pseudo-attributes `@id`, `@class`, `@quantity` and `@group` address the
//! model's structural fields; every other `@NAME` reads the PU descriptor.
//! Comparisons are numeric when both operands parse as numbers, textual
//! otherwise.

use std::fmt;
use std::str::FromStr;

/// Axis connecting one step to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/` — direct children of the current context.
    Child,
    /// `//` — all descendants (and, for the first step, all nodes).
    Descendant,
}

/// Node test of a step: PU class name or wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTest {
    /// `Master`, `Hybrid` or `Worker`.
    Class(pdl_core::pu::PuClass),
    /// `*` — any PU.
    Any,
}

/// Comparison operator inside a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering obtained from comparing
    /// left to right.
    pub(crate) fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A `[…]` predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `@NAME` — the attribute/property exists (non-empty).
    Has(String),
    /// `@NAME op 'value'` — comparison.
    Cmp {
        /// Attribute or property name.
        name: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        value: String,
    },
}

/// One step of a selector.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// How this step relates to the previous context.
    pub axis: Axis,
    /// Which PU classes match.
    pub test: NodeTest,
    /// All predicates must hold.
    pub predicates: Vec<Predicate>,
}

/// A parsed selector: a sequence of steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    /// The steps, applied left to right.
    pub steps: Vec<Step>,
}

/// Error produced when a selector fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for SelectorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "selector parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for SelectorParseError {}

impl FromStr for Selector {
    type Err = SelectorParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SelectorParser { input: s, at: 0 }.parse()
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            match step.axis {
                Axis::Child => write!(f, "/")?,
                Axis::Descendant => write!(f, "//")?,
            }
            match step.test {
                NodeTest::Any => write!(f, "*")?,
                NodeTest::Class(c) => write!(f, "{c}")?,
            }
            for p in &step.predicates {
                match p {
                    Predicate::Has(n) => write!(f, "[@{n}]")?,
                    Predicate::Cmp { name, op, value } => {
                        let op = match op {
                            CmpOp::Eq => "=",
                            CmpOp::Ne => "!=",
                            CmpOp::Lt => "<",
                            CmpOp::Le => "<=",
                            CmpOp::Gt => ">",
                            CmpOp::Ge => ">=",
                        };
                        write!(f, "[@{name}{op}'{value}']")?;
                    }
                }
            }
        }
        Ok(())
    }
}

struct SelectorParser<'a> {
    input: &'a str,
    at: usize,
}

impl<'a> SelectorParser<'a> {
    fn err(&self, message: impl Into<String>) -> SelectorParseError {
        SelectorParseError {
            at: self.at,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.at..]
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.at += s.len();
            true
        } else {
            false
        }
    }

    fn parse(mut self) -> Result<Selector, SelectorParseError> {
        let mut steps = Vec::new();
        if self.rest().trim().is_empty() {
            return Err(self.err("empty selector"));
        }
        while !self.rest().is_empty() {
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else if steps.is_empty() {
                // Leading separator is mandatory.
                return Err(self.err("selector must start with '/' or '//'"));
            } else {
                return Err(self.err(format!("expected '/' or '//', found {:?}", self.rest())));
            };
            let test = self.parse_node_test()?;
            let mut predicates = Vec::new();
            while self.rest().starts_with('[') {
                predicates.push(self.parse_predicate()?);
            }
            steps.push(Step {
                axis,
                test,
                predicates,
            });
        }
        Ok(Selector { steps })
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, SelectorParseError> {
        if self.eat("*") {
            return Ok(NodeTest::Any);
        }
        let name: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric())
            .collect();
        if name.is_empty() {
            return Err(self.err("expected node test (Master|Hybrid|Worker|*)"));
        }
        self.at += name.len();
        match pdl_core::pu::PuClass::from_element_name(&name) {
            Some(c) => Ok(NodeTest::Class(c)),
            None => Err(self.err(format!(
                "unknown node test {name:?} (expected Master, Hybrid, Worker or *)"
            ))),
        }
    }

    fn parse_predicate(&mut self) -> Result<Predicate, SelectorParseError> {
        assert!(self.eat("["));
        if !self.eat("@") {
            return Err(self.err("predicate must start with '@'"));
        }
        let name: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if name.is_empty() {
            return Err(self.err("expected attribute name after '@'"));
        }
        self.at += name.len();

        if self.eat("]") {
            return Ok(Predicate::Has(name));
        }

        let op = if self.eat("!=") {
            CmpOp::Ne
        } else if self.eat("<=") {
            CmpOp::Le
        } else if self.eat(">=") {
            CmpOp::Ge
        } else if self.eat("=") {
            CmpOp::Eq
        } else if self.eat("<") {
            CmpOp::Lt
        } else if self.eat(">") {
            CmpOp::Gt
        } else {
            return Err(self.err("expected comparison operator or ']'"));
        };

        let quote = if self.eat("'") {
            Some('\'')
        } else if self.eat("\"") {
            Some('"')
        } else {
            None
        };
        let value = match quote {
            Some(q) => {
                let end = self
                    .rest()
                    .find(q)
                    .ok_or_else(|| self.err("unterminated string literal"))?;
                let v = self.rest()[..end].to_string();
                self.at += end + 1;
                v
            }
            None => {
                // Bare literal: up to ']'.
                let end = self
                    .rest()
                    .find(']')
                    .ok_or_else(|| self.err("unterminated predicate"))?;
                let v = self.rest()[..end].trim().to_string();
                self.at += end;
                v
            }
        };
        if !self.eat("]") {
            return Err(self.err("expected ']' to close predicate"));
        }
        Ok(Predicate::Cmp { name, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::pu::PuClass;

    #[test]
    fn parse_simple_paths() {
        let s: Selector = "/Master/Worker".parse().unwrap();
        assert_eq!(s.steps.len(), 2);
        assert_eq!(s.steps[0].axis, Axis::Child);
        assert_eq!(s.steps[0].test, NodeTest::Class(PuClass::Master));
        assert_eq!(s.steps[1].test, NodeTest::Class(PuClass::Worker));
    }

    #[test]
    fn parse_descendant_axis() {
        let s: Selector = "//Worker".parse().unwrap();
        assert_eq!(s.steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn parse_predicates() {
        let s: Selector = "//Worker[@ARCHITECTURE='gpu'][@CORES>=8]".parse().unwrap();
        assert_eq!(s.steps[0].predicates.len(), 2);
        assert_eq!(
            s.steps[0].predicates[0],
            Predicate::Cmp {
                name: "ARCHITECTURE".into(),
                op: CmpOp::Eq,
                value: "gpu".into()
            }
        );
        assert_eq!(
            s.steps[0].predicates[1],
            Predicate::Cmp {
                name: "CORES".into(),
                op: CmpOp::Ge,
                value: "8".into()
            }
        );
    }

    #[test]
    fn parse_existence_predicate() {
        let s: Selector = "//*[@ARCHITECTURE]".parse().unwrap();
        assert_eq!(
            s.steps[0].predicates[0],
            Predicate::Has("ARCHITECTURE".into())
        );
        assert_eq!(s.steps[0].test, NodeTest::Any);
    }

    #[test]
    fn parse_bare_and_double_quoted_literals() {
        let s: Selector = "//Worker[@CORES>8]".parse().unwrap();
        assert!(matches!(&s.steps[0].predicates[0], Predicate::Cmp { value, .. } if value == "8"));
        let s: Selector = "//Worker[@id=\"w1\"]".parse().unwrap();
        assert!(matches!(&s.steps[0].predicates[0], Predicate::Cmp { value, .. } if value == "w1"));
    }

    #[test]
    fn display_round_trip() {
        for src in [
            "/Master/Worker",
            "//Worker[@ARCHITECTURE='gpu']",
            "//*[@group='gpus']",
            "//Hybrid/Worker[@CORES>='8']",
            "//Worker[@ARCHITECTURE]",
        ] {
            let s: Selector = src.parse().unwrap();
            let printed = s.to_string();
            let reparsed: Selector = printed.parse().unwrap();
            assert_eq!(s, reparsed, "{src} -> {printed}");
        }
    }

    #[test]
    fn errors_are_positioned() {
        let e = "Worker".parse::<Selector>().unwrap_err();
        assert!(e.message.contains("start with"));
        let e = "//Gadget".parse::<Selector>().unwrap_err();
        assert!(e.message.contains("Gadget"));
        let e = "//Worker[@]".parse::<Selector>().unwrap_err();
        assert!(e.message.contains("attribute name"));
        let e = "//Worker[@x='unterminated]"
            .parse::<Selector>()
            .unwrap_err();
        assert!(e.message.contains("unterminated"));
        let e = "".parse::<Selector>().unwrap_err();
        assert!(e.message.contains("empty"));
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Lt.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Gt.eval(Greater));
        assert!(CmpOp::Ge.eval(Equal));
        assert!(!CmpOp::Ge.eval(Less));
    }
}
