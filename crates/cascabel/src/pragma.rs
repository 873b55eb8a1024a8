//! The `#pragma cascabel` annotation grammar (paper §IV-A).
//!
//! ```text
//! #pragma cascabel task
//!     : targetplatformlist      e.g.  x86  |  OpenCL, Cuda
//!     : taskidentifier          e.g.  I_vecadd
//!     : taskname                e.g.  vecadd01
//!     : parameterlist           e.g.  (A: readwrite, B: read)
//!     [: access(...)]           e.g.  access(in: B, inout: A)
//!
//! #pragma cascabel execute taskidentifier
//!     : executiongroup          e.g.  executionset01
//!     (distributionslist)       e.g.  (A:BLOCK:N, B:BLOCK:N)
//! ```

use hetero_rt::data::AccessMode;
use std::fmt;

/// Data distribution of one parameter in an execute annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistributionKind {
    /// Contiguous blocks.
    Block,
    /// Round-robin elements.
    Cyclic,
    /// Blocks distributed round-robin.
    BlockCyclic,
    /// Not distributed (whole object).
    Whole,
}

impl DistributionKind {
    fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_uppercase().as_str() {
            "BLOCK" => Some(DistributionKind::Block),
            "CYCLIC" => Some(DistributionKind::Cyclic),
            "BLOCKCYCLIC" | "BLOCK-CYCLIC" => Some(DistributionKind::BlockCyclic),
            "WHOLE" | "" => Some(DistributionKind::Whole),
            _ => None,
        }
    }
}

impl fmt::Display for DistributionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DistributionKind::Block => "BLOCK",
            DistributionKind::Cyclic => "CYCLIC",
            DistributionKind::BlockCyclic => "BLOCKCYCLIC",
            DistributionKind::Whole => "WHOLE",
        })
    }
}

/// One entry of a distributions list: `A:BLOCK:N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    /// Parameter name.
    pub param: String,
    /// Distribution kind.
    pub kind: DistributionKind,
    /// Optional size expression (`N`, `1024`).
    pub size: Option<String>,
}

/// A parsed `task` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPragma {
    /// Concrete platforms the following implementation targets
    /// (`x86`, `OpenCL`, `Cuda`, `CellSDK`).
    pub target_platforms: Vec<String>,
    /// Task interface name shared by all implementations.
    pub task_identifier: String,
    /// Unique name of this implementation.
    pub task_name: String,
    /// Parameters with access modes, in order.
    pub params: Vec<(String, AccessMode)>,
    /// Dataflow overrides from an optional `access(in|out|inout: param)`
    /// clause. Entries refine the parameterlist mode of the named parameter
    /// (e.g. a `readwrite` buffer that a given implementation only reads).
    /// Names not present in `params` are a `C010` diagnostic, not a parse
    /// error.
    pub accesses: Vec<(String, AccessMode)>,
}

impl TaskPragma {
    /// The parameters with `access(…)` overrides applied, in declaration
    /// order. This is the dataflow signature analyses should use.
    pub fn effective_params(&self) -> Vec<(String, AccessMode)> {
        self.params
            .iter()
            .map(|(name, mode)| {
                let mode = self
                    .accesses
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(*mode, |(_, m)| *m);
                (name.clone(), mode)
            })
            .collect()
    }
}

/// A parsed `execute` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutePragma {
    /// Task interface being invoked.
    pub task_identifier: String,
    /// Execution group (references a PDL `LogicGroupAttribute`).
    pub execution_group: String,
    /// Parameter distributions.
    pub distributions: Vec<Distribution>,
}

/// Any cascabel annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pragma {
    /// Task-implementation outline.
    Task(TaskPragma),
    /// Call-site marker.
    Execute(ExecutePragma),
}

/// Error parsing a pragma line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Description.
    pub message: String,
    /// The offending pragma text.
    pub text: String,
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad cascabel pragma ({}): {:?}", self.message, self.text)
    }
}

impl std::error::Error for PragmaError {}

/// Whether a preprocessor line is a cascabel pragma at all.
pub(crate) fn is_cascabel_pragma(line: &str) -> bool {
    let rest = line.trim_start();
    let Some(rest) = rest.strip_prefix('#') else {
        return false;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("pragma") else {
        return false;
    };
    rest.trim_start().starts_with("cascabel")
}

/// Parses a `#pragma cascabel …` line.
pub fn parse_pragma(line: &str) -> Result<Pragma, PragmaError> {
    let err = |m: &str| PragmaError {
        message: m.to_string(),
        text: line.to_string(),
    };
    if !is_cascabel_pragma(line) {
        return Err(err("not a cascabel pragma"));
    }
    let body = line
        .trim_start()
        .trim_start_matches('#')
        .trim_start()
        .strip_prefix("pragma")
        .unwrap()
        .trim_start()
        .strip_prefix("cascabel")
        .unwrap()
        .trim();

    if let Some(rest) = body.strip_prefix("task") {
        parse_task(rest.trim(), line)
    } else if let Some(rest) = body.strip_prefix("execute") {
        parse_execute(rest.trim(), line)
    } else {
        Err(err("expected 'task' or 'execute'"))
    }
}

/// Splits on `:` that are not inside parentheses.
fn split_toplevel_colons(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ':' if depth == 0 => {
                parts.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur.trim().to_string());
    parts
}

fn parse_task(rest: &str, line: &str) -> Result<Pragma, PragmaError> {
    let err = |m: &str| PragmaError {
        message: m.to_string(),
        text: line.to_string(),
    };
    // rest looks like ": x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)"
    // optionally followed by ": access(in: B, inout: A)".
    let parts = split_toplevel_colons(rest);
    // First element is empty (text starts with ':').
    let fields: Vec<&String> = parts.iter().filter(|p| !p.is_empty()).collect();
    if !(4..=5).contains(&fields.len()) {
        return Err(err(&format!(
            "task pragma needs 4 ':'-separated fields (platforms, identifier, name, parameters) plus an optional access(...) clause, got {}",
            fields.len()
        )));
    }
    let target_platforms: Vec<String> = fields[0]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if target_platforms.is_empty() {
        return Err(err("empty targetplatformlist"));
    }
    let task_identifier = fields[1].clone();
    let task_name = fields[2].clone();
    if task_identifier.is_empty() || task_name.is_empty() {
        return Err(err("empty task identifier or name"));
    }

    let plist = fields[3].trim();
    let plist = plist
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err("parameterlist must be parenthesized"))?;
    let mut params = Vec::new();
    for entry in plist.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, mode) = entry
            .split_once(':')
            .ok_or_else(|| err("parameter entry must be 'name: accessmode'"))?;
        let mode = AccessMode::parse(mode)
            .ok_or_else(|| err(&format!("unknown access mode {:?}", mode.trim())))?;
        params.push((name.trim().to_string(), mode));
    }

    let mut accesses = Vec::new();
    if let Some(clause) = fields.get(4) {
        let body = clause
            .trim()
            .strip_prefix("access")
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('('))
            .and_then(|s| s.trim_end().strip_suffix(')'))
            .ok_or_else(|| err("fifth field must be an access(...) clause"))?;
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (mode, name) = entry
                .split_once(':')
                .ok_or_else(|| err("access entry must be 'in|out|inout: param'"))?;
            let mode = AccessMode::parse(mode)
                .ok_or_else(|| err(&format!("unknown access mode {:?}", mode.trim())))?;
            accesses.push((name.trim().to_string(), mode));
        }
    }

    Ok(Pragma::Task(TaskPragma {
        target_platforms,
        task_identifier,
        task_name,
        params,
        accesses,
    }))
}

fn parse_execute(rest: &str, line: &str) -> Result<Pragma, PragmaError> {
    let err = |m: &str| PragmaError {
        message: m.to_string(),
        text: line.to_string(),
    };
    // rest looks like "I_vecadd : executionset01 (A:BLOCK:N, B:BLOCK:N)"
    // Distributions list is optional.
    let (head, dist_text) = match rest.find('(') {
        Some(p) => {
            let d = rest[p..]
                .strip_prefix('(')
                .and_then(|s| s.trim_end().strip_suffix(')'))
                .ok_or_else(|| err("unbalanced distributions list"))?;
            (&rest[..p], Some(d))
        }
        None => (rest, None),
    };
    let parts = split_toplevel_colons(head);
    let fields: Vec<&String> = parts.iter().filter(|p| !p.is_empty()).collect();
    if fields.is_empty() || fields.len() > 2 {
        return Err(err(
            "execute pragma needs 'taskidentifier : executiongroup (distributions)'",
        ));
    }
    let task_identifier = fields[0]
        .split_whitespace()
        .next()
        .unwrap_or("")
        .to_string();
    if task_identifier.is_empty() {
        return Err(err("missing task identifier"));
    }
    let execution_group = fields
        .get(1)
        .map(|s| s.split_whitespace().next().unwrap_or("").to_string())
        .unwrap_or_default();

    let mut distributions = Vec::new();
    if let Some(text) = dist_text {
        for entry in text.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut it = entry.split(':').map(str::trim);
            let param = it
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| err("distribution entry missing parameter name"))?
                .to_string();
            let kind = match it.next() {
                None => DistributionKind::Whole,
                Some(k) => DistributionKind::parse(k)
                    .ok_or_else(|| err(&format!("unknown distribution {k:?}")))?,
            };
            let size = it.next().map(str::to_string);
            distributions.push(Distribution { param, kind, size });
        }
    }
    Ok(Pragma::Execute(ExecutePragma {
        task_identifier,
        execution_group,
        distributions,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_task_example() {
        // Paper §IV-A, reformatted on one line (continuations are folded by
        // the lexer before we see them).
        let p = parse_pragma(
            "#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)",
        )
        .unwrap();
        match p {
            Pragma::Task(t) => {
                assert_eq!(t.target_platforms, ["x86"]);
                assert_eq!(t.task_identifier, "I_vecadd");
                assert_eq!(t.task_name, "vecadd01");
                assert_eq!(
                    t.params,
                    vec![
                        ("A".to_string(), AccessMode::ReadWrite),
                        ("B".to_string(), AccessMode::Read)
                    ]
                );
            }
            _ => panic!("expected task"),
        }
    }

    #[test]
    fn parameterlist_accepts_separator_mode_spellings() {
        // Access modes normalize case and internal separators the same way
        // distribution kinds do (BLOCK-CYCLIC == BLOCKCYCLIC); these forms
        // were rejected before.
        let p = parse_pragma(
            "#pragma cascabel task : x86 : I_t : t01 : (A: Read-Write, B: IN, C: READ_WRITE)",
        )
        .unwrap();
        match p {
            Pragma::Task(t) => assert_eq!(
                t.params,
                vec![
                    ("A".to_string(), AccessMode::ReadWrite),
                    ("B".to_string(), AccessMode::Read),
                    ("C".to_string(), AccessMode::ReadWrite)
                ]
            ),
            _ => panic!("expected task"),
        }
    }

    #[test]
    fn paper_execute_example() {
        let p = parse_pragma(
            "#pragma cascabel execute I_vecadd : executionset01 (A:BLOCK:N, B:BLOCK:N)",
        )
        .unwrap();
        match p {
            Pragma::Execute(e) => {
                assert_eq!(e.task_identifier, "I_vecadd");
                assert_eq!(e.execution_group, "executionset01");
                assert_eq!(e.distributions.len(), 2);
                assert_eq!(e.distributions[0].param, "A");
                assert_eq!(e.distributions[0].kind, DistributionKind::Block);
                assert_eq!(e.distributions[0].size.as_deref(), Some("N"));
            }
            _ => panic!("expected execute"),
        }
    }

    #[test]
    fn multi_platform_task() {
        let p = parse_pragma(
            "#pragma cascabel task : OpenCL, Cuda : I_dgemm : dgemm_gpu : (A: read, B: read, C: readwrite)",
        )
        .unwrap();
        match p {
            Pragma::Task(t) => {
                assert_eq!(t.target_platforms, ["OpenCL", "Cuda"]);
                assert_eq!(t.params.len(), 3);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn execute_without_distributions_or_group() {
        let p = parse_pragma("#pragma cascabel execute I_dgemm").unwrap();
        match p {
            Pragma::Execute(e) => {
                assert_eq!(e.task_identifier, "I_dgemm");
                assert!(e.execution_group.is_empty());
                assert!(e.distributions.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn distribution_kinds() {
        let p = parse_pragma(
            "#pragma cascabel execute I_x : g (A:CYCLIC, B:BLOCKCYCLIC:64, C, D:WHOLE)",
        )
        .unwrap();
        match p {
            Pragma::Execute(e) => {
                assert_eq!(e.distributions[0].kind, DistributionKind::Cyclic);
                assert_eq!(e.distributions[1].kind, DistributionKind::BlockCyclic);
                assert_eq!(e.distributions[1].size.as_deref(), Some("64"));
                assert_eq!(e.distributions[2].kind, DistributionKind::Whole);
                assert_eq!(e.distributions[3].kind, DistributionKind::Whole);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn access_clause_overrides_modes() {
        let p = parse_pragma(
            "#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read) : access(in: A, out: B)",
        )
        .unwrap();
        match p {
            Pragma::Task(t) => {
                assert_eq!(
                    t.accesses,
                    vec![
                        ("A".to_string(), AccessMode::Read),
                        ("B".to_string(), AccessMode::Write)
                    ]
                );
                // Parameterlist is untouched; effective view applies the
                // overrides in declaration order.
                assert_eq!(t.params[0].1, AccessMode::ReadWrite);
                assert_eq!(
                    t.effective_params(),
                    vec![
                        ("A".to_string(), AccessMode::Read),
                        ("B".to_string(), AccessMode::Write)
                    ]
                );
            }
            _ => panic!("expected task"),
        }
    }

    #[test]
    fn access_clause_inout_and_partial() {
        let p = parse_pragma(
            "#pragma cascabel task : x86 : I_k : k01 : (A: read, B: write) : access(inout: B)",
        )
        .unwrap();
        match p {
            Pragma::Task(t) => {
                assert_eq!(
                    t.effective_params(),
                    vec![
                        ("A".to_string(), AccessMode::Read),
                        ("B".to_string(), AccessMode::ReadWrite)
                    ]
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn bad_access_clauses_rejected() {
        let e = parse_pragma("#pragma cascabel task : x86 : I_k : k : (A: read) : frob(in: A)")
            .unwrap_err();
        assert!(e.message.contains("access"));
        let e = parse_pragma("#pragma cascabel task : x86 : I_k : k : (A: read) : access(zap: A)")
            .unwrap_err();
        assert!(e.message.contains("access mode"));
        let e = parse_pragma(
            "#pragma cascabel task : x86 : I_k : k : (A: read) : access(in: A) : extra",
        )
        .unwrap_err();
        assert!(e.message.contains("got 6"));
    }

    #[test]
    fn detection() {
        assert!(is_cascabel_pragma("#pragma cascabel task : a : b : c : ()"));
        assert!(is_cascabel_pragma("  # pragma cascabel execute x"));
        assert!(!is_cascabel_pragma("#pragma omp parallel"));
        assert!(!is_cascabel_pragma("#include <stdio.h>"));
        assert!(!is_cascabel_pragma("int x;"));
    }

    #[test]
    fn errors_are_specific() {
        let e = parse_pragma("#pragma cascabel task : x86 : I_v : (A: read)").unwrap_err();
        assert!(e.message.contains("4"));
        let e = parse_pragma("#pragma cascabel task : : I_v : n : (A: read)").unwrap_err();
        assert!(e.message.contains("4") || e.message.contains("empty"));
        let e = parse_pragma("#pragma cascabel task : x86 : I_v : n : (A: sideways)").unwrap_err();
        assert!(e.message.contains("access mode"));
        let e = parse_pragma("#pragma cascabel frobnicate").unwrap_err();
        assert!(e.message.contains("task' or 'execute"));
        let e = parse_pragma("#pragma omp parallel").unwrap_err();
        assert!(e.message.contains("not a cascabel"));
    }

    #[test]
    fn whitespace_robustness() {
        let p = parse_pragma(
            "#pragma   cascabel   task :  x86 ,  OpenCL :  I_k  :  k01  : ( A : read , B : write )",
        )
        .unwrap();
        match p {
            Pragma::Task(t) => {
                assert_eq!(t.target_platforms, ["x86", "OpenCL"]);
                assert_eq!(t.params[1], ("B".to_string(), AccessMode::Write));
            }
            _ => panic!(),
        }
    }
}
