//! Parser: token stream → annotated [`Program`].
//!
//! Strategy: walk the token stream; a cascabel `task` pragma must be
//! followed by a function definition (`type name(params) { … }`), a
//! cascabel `execute` pragma by a call statement (`name(args);`). Everything
//! else is collected as passthrough text. Non-cascabel preprocessor lines
//! pass through untouched.

use crate::ast::{CParam, Item, Program, TaskCall, TaskFunction};
use crate::lex::{lex, LexError, Spanned, Tok};
use crate::pragma::{is_cascabel_pragma, parse_pragma, Pragma, PragmaError};
use std::fmt;

/// Errors from the Cascabel frontend.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// A cascabel pragma line is malformed.
    Pragma {
        /// 1-based line of the pragma.
        line: u32,
        /// What is wrong with it.
        error: PragmaError,
    },
    /// A pragma was not followed by the expected construct.
    Structure {
        /// 1-based line of the pragma.
        line: u32,
        /// Description of what was expected.
        message: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => e.fmt(f),
            ParseError::Pragma { line, error } => write!(f, "line {line}: {error}"),
            ParseError::Structure { line, message } => {
                write!(f, "parse error after pragma on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses annotated C-subset source.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, at: 0 };
    p.parse()
}

struct Parser {
    toks: Vec<Spanned>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.at)
    }

    fn bump(&mut self) -> Option<Spanned> {
        let t = self.toks.get(self.at).cloned();
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn parse(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        let mut passthrough = String::new();

        while let Some(sp) = self.peek().cloned() {
            match &sp.tok {
                Tok::Hash(text) if is_cascabel_pragma(text) => {
                    if !passthrough.trim().is_empty() {
                        items.push(Item::Passthrough(std::mem::take(&mut passthrough)));
                    } else {
                        passthrough.clear();
                    }
                    self.bump();
                    let pragma = parse_pragma(text).map_err(|error| ParseError::Pragma {
                        line: sp.line,
                        error,
                    })?;
                    match pragma {
                        Pragma::Task(tp) => {
                            let f = self.parse_function(tp, sp.line)?;
                            items.push(Item::TaskFunction(f));
                        }
                        Pragma::Execute(ep) => {
                            let c = self.parse_call(ep, sp.line)?;
                            items.push(Item::TaskCall(c));
                        }
                    }
                }
                _ => {
                    let t = self.bump().expect("peeked");
                    push_token_text(&mut passthrough, &t.tok);
                }
            }
        }
        if !passthrough.trim().is_empty() {
            items.push(Item::Passthrough(passthrough));
        }
        Ok(Program { items })
    }

    /// `type name ( params ) { balanced }` — also tolerates a trailing `;`.
    fn parse_function(
        &mut self,
        pragma: crate::pragma::TaskPragma,
        pragma_line: u32,
    ) -> Result<TaskFunction, ParseError> {
        let err = |line: u32, message: &str| ParseError::Structure {
            line,
            message: message.to_string(),
        };

        // Return type: idents (and `*`) until we see `name (`.
        let mut type_toks: Vec<String> = Vec::new();
        let name;
        let line;
        loop {
            match self.bump() {
                None => {
                    return Err(err(
                        pragma_line,
                        "expected function definition after task pragma",
                    ))
                }
                Some(sp) => match &sp.tok {
                    Tok::Ident(id) => {
                        // Is the next token '('? Then this ident is the name.
                        if matches!(self.peek().map(|s| &s.tok), Some(Tok::Punct('('))) {
                            name = id.clone();
                            line = sp.line;
                            break;
                        }
                        type_toks.push(id.clone());
                    }
                    Tok::Punct('*') => type_toks.push("*".to_string()),
                    other => {
                        return Err(err(
                            sp.line,
                            &format!("unexpected {other} in function signature"),
                        ))
                    }
                },
            }
        }
        if type_toks.is_empty() {
            return Err(err(line, "missing return type"));
        }

        self.bump(); // '('
        let params = self.parse_c_params(line)?;

        // Body: balanced braces.
        match self.peek().map(|s| s.tok.clone()) {
            Some(Tok::Punct('{')) => {}
            _ => return Err(err(line, "expected function body '{'")),
        }
        let body = self.take_balanced_braces(line)?;
        // Tolerate a trailing semicolon (the paper writes `{ ... };`).
        if matches!(self.peek().map(|s| &s.tok), Some(Tok::Punct(';'))) {
            self.bump();
        }

        Ok(TaskFunction {
            pragma,
            return_type: type_toks.join(" "),
            name,
            params,
            body,
            line,
        })
    }

    fn parse_c_params(&mut self, line: u32) -> Result<Vec<CParam>, ParseError> {
        let err = |message: &str| ParseError::Structure {
            line,
            message: message.to_string(),
        };
        let mut params = Vec::new();
        let mut cur: Vec<String> = Vec::new();
        let mut depth = 1usize;
        loop {
            let Some(sp) = self.bump() else {
                return Err(err("unterminated parameter list"));
            };
            match &sp.tok {
                Tok::Punct('(') => {
                    depth += 1;
                    cur.push("(".into());
                }
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        if !cur.is_empty() {
                            params.push(split_c_param(&cur));
                        }
                        return Ok(params);
                    }
                    cur.push(")".into());
                }
                Tok::Punct(',') if depth == 1 => {
                    if !cur.is_empty() {
                        params.push(split_c_param(&cur));
                        cur.clear();
                    }
                }
                other => cur.push(other.to_string()),
            }
        }
    }

    fn take_balanced_braces(&mut self, line: u32) -> Result<String, ParseError> {
        let err = || ParseError::Structure {
            line,
            message: "unbalanced braces in function body".to_string(),
        };
        let mut depth = 0usize;
        let mut text = String::new();
        loop {
            let Some(sp) = self.bump() else {
                return Err(err());
            };
            match &sp.tok {
                Tok::Punct('{') => {
                    depth += 1;
                    text.push('{');
                }
                Tok::Punct('}') => {
                    depth -= 1;
                    text.push('}');
                    if depth == 0 {
                        return Ok(text);
                    }
                }
                other => {
                    push_token_text(&mut text, other);
                }
            }
        }
    }

    /// `name ( args ) ;`
    fn parse_call(
        &mut self,
        pragma: crate::pragma::ExecutePragma,
        pragma_line: u32,
    ) -> Result<TaskCall, ParseError> {
        let err = |line: u32, message: &str| ParseError::Structure {
            line,
            message: message.to_string(),
        };
        let (callee, line) = match self.bump() {
            Some(Spanned {
                tok: Tok::Ident(id),
                line,
            }) => (id, line),
            Some(sp) => return Err(err(sp.line, "expected call statement after execute pragma")),
            None => {
                return Err(err(
                    pragma_line,
                    "expected call statement after execute pragma",
                ))
            }
        };
        match self.bump().map(|s| s.tok) {
            Some(Tok::Punct('(')) => {}
            _ => return Err(err(line, "expected '(' in annotated call")),
        }
        let mut args = Vec::new();
        let mut cur = String::new();
        let mut depth = 1usize;
        loop {
            let Some(sp) = self.bump() else {
                return Err(err(line, "unterminated argument list"));
            };
            match &sp.tok {
                Tok::Punct('(') => {
                    depth += 1;
                    cur.push('(');
                }
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        if !cur.trim().is_empty() {
                            args.push(cur.trim().to_string());
                        }
                        break;
                    }
                    cur.push(')');
                }
                Tok::Punct(',') if depth == 1 => {
                    args.push(cur.trim().to_string());
                    cur.clear();
                }
                other => push_token_text(&mut cur, other),
            }
        }
        if !matches!(self.peek().map(|s| &s.tok), Some(Tok::Punct(';'))) {
            return Err(err(line, "expected ';' after annotated call"));
        }
        self.bump();
        Ok(TaskCall {
            pragma,
            callee,
            args,
            line,
        })
    }
}

/// Appends a token's text with simple spacing.
fn push_token_text(out: &mut String, tok: &Tok) {
    match tok {
        Tok::Punct(c) => out.push(*c),
        other => {
            if out
                .chars()
                .last()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false)
            {
                out.push(' ');
            }
            out.push_str(&other.to_string());
        }
    }
}

/// Splits accumulated parameter tokens into type text and name (last ident).
fn split_c_param(toks: &[String]) -> CParam {
    let name_pos = toks.iter().rposition(|t| {
        t.chars()
            .next()
            .map(|c| c.is_alphabetic() || c == '_')
            .unwrap_or(false)
    });
    match name_pos {
        Some(p) => CParam {
            ty: toks[..p].join(" "),
            name: toks[p].clone(),
        },
        None => CParam {
            ty: toks.join(" "),
            name: String::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_rt::data::AccessMode;

    /// The paper's §IV-A example, verbatim modulo formatting.
    const PAPER_EXAMPLE: &str = r#"
#include <stdio.h>

// Task definition
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { for (int i = 0; i < N; i++) A[i] += B[i]; };

int main() {
    double *A = make(N);
    double *B = make(N);
    // Task execution
    #pragma cascabel execute I_vecadd : executionset01 (A:BLOCK:N, B:BLOCK:N)
    vector_add(A, B);
    return 0;
}
"#;

    #[test]
    fn paper_example_parses() {
        let prog = parse_program(PAPER_EXAMPLE).unwrap();
        let funcs: Vec<_> = prog.task_functions().collect();
        assert_eq!(funcs.len(), 1);
        let f = funcs[0];
        assert_eq!(f.name, "vector_add");
        assert_eq!(f.return_type, "void");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "A");
        assert_eq!(f.params[0].ty, "double *");
        assert_eq!(f.pragma.task_identifier, "I_vecadd");
        assert_eq!(f.pragma.params[0].1, AccessMode::ReadWrite);
        assert!(
            f.body.contains("A[i]+=B[i]")
                || f.body.contains("A[i] += B[i]")
                || f.body.contains("+=")
        );

        let calls: Vec<_> = prog.task_calls().collect();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].callee, "vector_add");
        assert_eq!(calls[0].args, vec!["A", "B"]);
        assert_eq!(calls[0].pragma.execution_group, "executionset01");
    }

    #[test]
    fn passthrough_preserved() {
        let prog = parse_program(PAPER_EXAMPLE).unwrap();
        let passthrough: String = prog
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Passthrough(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert!(passthrough.contains("main"));
        assert!(passthrough.contains("return 0"));
    }

    #[test]
    fn nested_braces_in_body() {
        let src = "#pragma cascabel task : x86 : I_k : k01 : (A: read)\nvoid k(double *A) { if (x) { while (y) { z(); } } }";
        let prog = parse_program(src).unwrap();
        let f = prog.task_functions().next().unwrap();
        assert_eq!(f.body.matches('{').count(), 3);
        assert_eq!(f.body.matches('}').count(), 3);
    }

    #[test]
    fn call_with_expression_args() {
        let src = "#pragma cascabel execute I_k : g\nk(a + b, f(c, d), n * 2);";
        let prog = parse_program(src).unwrap();
        let c = prog.task_calls().next().unwrap();
        assert_eq!(c.args.len(), 3);
        assert!(c.args[1].contains("f(c,d)") || c.args[1].contains("f(c, d)"));
    }

    #[test]
    fn multiple_variants_same_interface() {
        let src = r#"
#pragma cascabel task : x86 : I_dgemm : dgemm_cpu : (A: read, B: read, C: readwrite)
void dgemm_cpu(double *A, double *B, double *C) { cblas(); }
#pragma cascabel task : Cuda : I_dgemm : dgemm_gpu : (A: read, B: read, C: readwrite)
void dgemm_gpu(double *A, double *B, double *C) { cublas(); }
"#;
        let prog = parse_program(src).unwrap();
        let funcs: Vec<_> = prog.task_functions().collect();
        assert_eq!(funcs.len(), 2);
        assert_eq!(
            funcs[0].pragma.task_identifier,
            funcs[1].pragma.task_identifier
        );
        assert_ne!(funcs[0].pragma.task_name, funcs[1].pragma.task_name);
    }

    #[test]
    fn pragma_not_followed_by_function_is_error() {
        let src = "#pragma cascabel task : x86 : I_k : k01 : (A: read)\nint x = 3;";
        // "int x = 3;" — the parser sees `int x` then `=` (not '('), error.
        let err = parse_program(src).unwrap_err();
        assert!(matches!(err, ParseError::Structure { .. }));
    }

    #[test]
    fn execute_not_followed_by_call_is_error() {
        let src = "#pragma cascabel execute I_k : g\nint x;";
        let err = parse_program(src).unwrap_err();
        assert!(matches!(err, ParseError::Structure { .. }));
    }

    #[test]
    fn missing_semicolon_after_call_is_error() {
        let src = "#pragma cascabel execute I_k : g\nk(a)";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn non_cascabel_pragmas_pass_through() {
        let src = "#pragma omp parallel\nint x;";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.task_functions().count(), 0);
        let Item::Passthrough(t) = &prog.items[0] else {
            panic!()
        };
        assert!(t.contains("#pragma omp parallel"));
    }

    #[test]
    fn continuation_pragmas_work_through_lexer() {
        let src = "#pragma cascabel task \\\n : x86 \\\n : I_k \\\n : k01 \\\n : (A: read)\nvoid k(double *A) { }";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.task_functions().count(), 1);
    }

    #[test]
    fn empty_parameter_function() {
        let src = "#pragma cascabel task : x86 : I_n : n01 : ()\nvoid nop() { }";
        let prog = parse_program(src).unwrap();
        let f = prog.task_functions().next().unwrap();
        assert!(f.params.is_empty());
        assert!(f.pragma.params.is_empty());
    }
}
