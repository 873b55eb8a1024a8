//! Cascabel program and mapping analyses (`C` codes).
//!
//! Works on the annotated-C AST ([`cascabel::ast::Program`]) and, when
//! platforms are supplied, replays the compiler's pre-selection and
//! execution-group mapping stages to surface their failures as positioned
//! diagnostics instead of hard compile errors.

use cascabel::ast::{Program, TaskCall, TaskFunction};
use cascabel::mapping::{map_call, MappingError};
use cascabel::parse::{parse_program, ParseError};
use cascabel::preselect::{preselect, InterfaceSelection};
use cascabel::repository::{ImplOrigin, TaskRepository};
use hetero_rt::data::AccessMode;
use pdl_core::diag::{Diagnostic, Report, Span};
use pdl_core::platform::Platform;
use std::collections::{BTreeMap, BTreeSet};

/// Analyzes annotated C source text. Parse failures surface as `C100`; a
/// parseable program continues into [`analyze_program`]. `file` is recorded
/// in every span.
pub fn analyze_program_source(file: &str, src: &str, platforms: &[Platform]) -> Report {
    match parse_program(src) {
        Ok(program) => {
            let mut report: Report = analyze(&program, platforms, Some(file))
                .into_iter()
                .collect();
            report.sort();
            report
        }
        Err(e) => {
            let (line, message) = match &e {
                ParseError::Lex(l) => (l.line, l.to_string()),
                ParseError::Pragma { line, error } => (*line, error.to_string()),
                ParseError::Structure { line, message } => (*line, message.clone()),
            };
            let d = Diagnostic::error("C100", message).with_span(Span::at(line, 0).in_file(file));
            [d].into_iter().collect()
        }
    }
}

/// Analyzes a parsed program against zero or more target platforms.
///
/// Platform-independent checks (`C001`–`C004`, `C008`–`C010`) always run;
/// pre-selection and mapping replay (`C005`–`C007`) need at least one
/// platform.
pub fn analyze_program(program: &Program, platforms: &[Platform]) -> Report {
    let mut report: Report = analyze(program, platforms, None).into_iter().collect();
    report.sort();
    report
}

fn line_span(line: u32, file: Option<&str>) -> Span {
    let span = Span::at(line, 0);
    match file {
        Some(f) => span.in_file(f),
        None => span,
    }
}

fn mode_label(mode: AccessMode) -> &'static str {
    match mode {
        AccessMode::Read => "read",
        AccessMode::Write => "write",
        AccessMode::ReadWrite => "readwrite",
    }
}

fn analyze(program: &Program, platforms: &[Platform], file: Option<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let functions: Vec<&TaskFunction> = program.task_functions().collect();
    let calls: Vec<&TaskCall> = program.task_calls().collect();

    // --- Per-function contract checks. ------------------------------------
    for f in &functions {
        // C010: access(...) clause entries must name declared parameters.
        for (name, _) in &f.pragma.accesses {
            if !f.pragma.params.iter().any(|(p, _)| p == name) {
                out.push(
                    Diagnostic::error(
                        "C010",
                        format!(
                            "access clause of task \"{}\" references unknown parameter \"{}\"",
                            f.pragma.task_identifier, name
                        ),
                    )
                    .with_span(line_span(f.line, file))
                    .with_subject(f.pragma.task_identifier.clone()),
                );
            }
        }
        // C004: the pragma parameter list must match the C signature.
        let pragma_names: Vec<&str> = f.pragma.params.iter().map(|(n, _)| n.as_str()).collect();
        let c_names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        if pragma_names != c_names {
            out.push(
                Diagnostic::error(
                    "C004",
                    format!(
                        "task pragma of \"{}\" declares parameters {:?} but the annotated C function \"{}\" declares {:?}",
                        f.pragma.task_identifier, pragma_names, f.name, c_names
                    ),
                )
                .with_span(line_span(f.line, file))
                .with_subject(f.pragma.task_identifier.clone()),
            );
        }
    }

    // --- Task registration (replays §IV-C step 1). -------------------------
    let mut repo = TaskRepository::with_builtin_expert_variants();
    for f in &functions {
        if let Err(e) = repo.register_function(f) {
            out.push(
                Diagnostic::error("C004", e.to_string())
                    .with_span(line_span(f.line, file))
                    .with_subject(f.pragma.task_identifier.clone()),
            );
        }
    }

    // --- Pre-selection per platform (replays §IV-C step 2). ----------------
    let selections: Vec<(&Platform, Vec<InterfaceSelection>)> =
        platforms.iter().map(|p| (p, preselect(&repo, p))).collect();

    // --- Per-call checks. --------------------------------------------------
    // Inter-call write tracking for C009: argument name → Some(writer
    // interface) while a write is unread, None once read.
    let mut last_write: BTreeMap<String, Option<String>> = BTreeMap::new();
    for call in &calls {
        let interface = &call.pragma.task_identifier;
        let span = line_span(call.line, file);

        // C001: the interface must exist somewhere (program or repository).
        let Some(iface) = repo.interface(interface) else {
            out.push(
                Diagnostic::error(
                    "C001",
                    format!("execute annotation references unknown task interface \"{interface}\""),
                )
                .with_span(span)
                .with_subject(interface.clone()),
            );
            continue;
        };

        // C002: the annotated callee must carry a matching task pragma.
        let callee_fn = functions.iter().find(|f| f.name == call.callee);
        match callee_fn {
            Some(f) if f.pragma.task_identifier != *interface => {
                out.push(
                    Diagnostic::error(
                        "C002",
                        format!(
                            "call to \"{}\" executes interface \"{}\" but its task pragma declares \"{}\"",
                            call.callee, interface, f.pragma.task_identifier
                        ),
                    )
                    .with_span(span.clone())
                    .with_subject(interface.clone()),
                );
            }
            None if iface
                .implementations
                .iter()
                .all(|i| i.origin == ImplOrigin::InputProgram) =>
            {
                out.push(
                    Diagnostic::error(
                        "C002",
                        format!(
                            "call to \"{}\" carries an execute annotation but no task pragma declares it as an implementation of \"{}\"",
                            call.callee, interface
                        ),
                    )
                    .with_span(span.clone())
                    .with_subject(interface.clone()),
                );
            }
            _ => {}
        }

        // Effective parameter list for this call: the callee's pragma (with
        // access overrides applied), else the interface contract.
        let params: Vec<(String, AccessMode)> = match callee_fn {
            Some(f) => f.pragma.effective_params(),
            None => iface
                .implementations
                .first()
                .map(|i| i.params.clone())
                .unwrap_or_default(),
        };

        // C003: argument count must match the interface contract.
        if call.args.len() != params.len() {
            out.push(
                Diagnostic::error(
                    "C003",
                    format!(
                        "call to \"{}\" passes {} argument(s) but interface \"{}\" declares {} parameter(s)",
                        call.callee,
                        call.args.len(),
                        interface,
                        params.len()
                    ),
                )
                .with_span(span.clone())
                .with_subject(interface.clone()),
            );
            continue; // argument-wise analyses below need the zip to line up
        }

        // C008: one buffer bound to two parameters where either is written.
        for i in 0..call.args.len() {
            for j in (i + 1)..call.args.len() {
                if call.args[i] != call.args[j] {
                    continue;
                }
                let (ref ni, mi) = params[i];
                let (ref nj, mj) = params[j];
                if mi != AccessMode::Read || mj != AccessMode::Read {
                    out.push(
                        Diagnostic::error(
                            "C008",
                            format!(
                                "argument \"{}\" is passed for both \"{}\" ({}) and \"{}\" ({}): aliased writes within one task race against each other",
                                call.args[i],
                                ni,
                                mode_label(mi),
                                nj,
                                mode_label(mj)
                            ),
                        )
                        .with_span(span.clone())
                        .with_subject(interface.clone()),
                    );
                }
            }
        }

        // C009: write-after-write with no intervening read (lost update).
        // StarPU-style sequential consistency orders conflicting accesses,
        // so this is not a race — but the first result is never observed.
        for (arg, (_, mode)) in call.args.iter().zip(params.iter()) {
            if *mode == AccessMode::Write {
                if let Some(Some(writer)) = last_write.get(arg) {
                    out.push(
                        Diagnostic::warning(
                            "C009",
                            format!(
                                "argument \"{arg}\" written by \"{writer}\" is overwritten by \"{interface}\" without any task reading the value in between (lost update?)"
                            ),
                        )
                        .with_span(span.clone())
                        .with_subject(interface.clone()),
                    );
                }
            }
            match mode {
                AccessMode::Write => {
                    last_write.insert(arg.clone(), Some(interface.clone()));
                }
                AccessMode::Read | AccessMode::ReadWrite => {
                    last_write.insert(arg.clone(), None);
                }
            }
        }

        // C005/C006: replay execution-group mapping on each platform.
        for (platform, sels) in &selections {
            match map_call(call, sels, platform) {
                Ok(_) => {}
                Err(MappingError::BadGroup { group, message }) => out.push(
                    Diagnostic::error(
                        "C005",
                        format!(
                            "execution group \"{}\" cannot be resolved on platform \"{}\": {}",
                            group, platform.name, message
                        ),
                    )
                    .with_span(span.clone())
                    .with_subject(interface.clone()),
                ),
                Err(MappingError::EmptyMapping { group, .. }) => {
                    let scope = if group.is_empty() {
                        "the whole platform".to_string()
                    } else {
                        format!("execution group \"{group}\"")
                    };
                    out.push(
                        Diagnostic::error(
                            "C006",
                            format!(
                                "no processing unit in {} of platform \"{}\" can run any variant of \"{}\"",
                                scope, platform.name, interface
                            ),
                        )
                        .with_span(span.clone())
                        .with_subject(interface.clone()),
                    );
                }
                // C001 already reported above.
                Err(MappingError::UnknownInterface(_)) => {}
            }
        }
    }

    // --- C007: dead program variants. --------------------------------------
    // A variant outlined in the input program that no provided platform can
    // run will never be selected. Repository (expert) variants are exempt:
    // being unusable on *this* platform is their normal cross-platform
    // state.
    if !platforms.is_empty() {
        let referenced: BTreeSet<&str> = functions
            .iter()
            .map(|f| f.pragma.task_identifier.as_str())
            .chain(calls.iter().map(|c| c.pragma.task_identifier.as_str()))
            .collect();
        for interface in &referenced {
            let Some(iface) = repo.interface(interface) else {
                continue;
            };
            for imp in &iface.implementations {
                if imp.origin != ImplOrigin::InputProgram {
                    continue;
                }
                let kept_somewhere = selections.iter().any(|(_, sels)| {
                    sels.iter().any(|s| {
                        s.interface == *interface
                            && s.decisions
                                .iter()
                                .any(|d| d.implementation == imp.name && d.kept)
                    })
                });
                if !kept_somewhere {
                    let platform_names: Vec<&str> =
                        platforms.iter().map(|p| p.name.as_str()).collect();
                    let mut d = Diagnostic::warning(
                        "C007",
                        format!(
                            "implementation \"{}\" of interface \"{}\" (targets {:?}) can run on no PU of {}: it is dead code under this descriptor",
                            imp.name,
                            interface,
                            imp.target_platforms,
                            platform_names.join(", ")
                        ),
                    )
                    .with_subject((*interface).to_string());
                    if let Some(f) = functions.iter().find(|f| f.pragma.task_name == imp.name) {
                        d = d.with_span(line_span(f.line, file));
                    }
                    out.push(d);
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = r#"
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { }
#pragma cascabel execute I_vecadd : (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
"#;

    #[test]
    fn clean_program_has_no_findings() {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        let report = analyze_program_source("t.c", CLEAN, std::slice::from_ref(&platform));
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn parse_error_is_c100() {
        let report = analyze_program_source("t.c", "#pragma cascabel task : : :\n", &[]);
        assert_eq!(report.codes(), ["C100"]);
    }

    #[test]
    fn unknown_interface_is_c001() {
        let src = "#pragma cascabel execute I_nope : (A:BLOCK:N)\nf(A);\n";
        let report = analyze_program_source("t.c", src, &[]);
        assert_eq!(report.codes(), ["C001"]);
    }

    #[test]
    fn mismatched_callee_pragma_is_c002() {
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite)
void fa(double *X) { }
#pragma cascabel execute I_b : (X:BLOCK:N)
fa(X);
"#;
        let report = analyze_program_source("t.c", src, &[]);
        // I_b is unknown too — both findings are wanted.
        assert_eq!(report.codes(), ["C001"]);
        let src2 = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite)
void fa(double *X) { }
#pragma cascabel task : x86 : I_b : b01 : (X: readwrite)
void fb(double *X) { }
#pragma cascabel execute I_b : (X:BLOCK:N)
fa(X);
"#;
        let report = analyze_program_source("t.c", src2, &[]);
        assert_eq!(report.codes(), ["C002"]);
    }

    #[test]
    fn arity_mismatch_is_c003() {
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite, Y: read)
void fa(double *X, double *Y) { }
#pragma cascabel execute I_a : (X:BLOCK:N)
fa(X);
"#;
        let report = analyze_program_source("t.c", src, &[]);
        assert_eq!(report.codes(), ["C003"]);
    }

    #[test]
    fn signature_mismatch_is_c004() {
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite, Y: read)
void fa(double *X) { }
"#;
        let report = analyze_program_source("t.c", src, &[]);
        assert_eq!(report.codes(), ["C004"]);
    }

    #[test]
    fn aliasing_write_is_c008() {
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite, Y: read)
void fa(double *X, double *Y) { }
#pragma cascabel execute I_a : (X:BLOCK:N, Y:BLOCK:N)
fa(A, A);
"#;
        let report = analyze_program_source("t.c", src, &[]);
        assert_eq!(report.codes(), ["C008"]);
    }

    #[test]
    fn lost_update_is_c009() {
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite) : access(out: X)
void fa(double *X) { }
#pragma cascabel task : x86 : I_b : b01 : (X: readwrite) : access(out: X)
void fb(double *X) { }
#pragma cascabel execute I_a : (X:BLOCK:N)
fa(A);
#pragma cascabel execute I_b : (X:BLOCK:N)
fb(A);
"#;
        let report = analyze_program_source("t.c", src, &[]);
        assert_eq!(report.codes(), ["C009"]);
    }

    #[test]
    fn unknown_access_parameter_is_c010() {
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite) : access(in: Z)
void fa(double *X) { }
"#;
        let report = analyze_program_source("t.c", src, &[]);
        assert_eq!(report.codes(), ["C010"]);
    }

    #[test]
    fn mapping_replay_flags_bad_and_empty_groups_and_dead_variants() {
        let platform = pdl_discover::synthetic::xeon_x5550_host();
        // Unresolvable pseudo-group → C005.
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite)
void fa(double *X) { }
#pragma cascabel execute I_a : @bogus (X:BLOCK:N)
fa(X);
"#;
        let report = analyze_program_source("t.c", src, std::slice::from_ref(&platform));
        assert_eq!(report.codes(), ["C005"]);

        // Empty group scope → C006; the Cuda variant on a CPU-only host has
        // nowhere to run at all → C007.
        let src = r#"
#pragma cascabel task : x86 : I_a : a01 : (X: readwrite)
void fa(double *X) { }
#pragma cascabel task : Cuda : I_a : a02 : (X: readwrite)
void fa_gpu(double *X) { }
#pragma cascabel execute I_a : gpus (X:BLOCK:N)
fa(X);
"#;
        let report = analyze_program_source("t.c", src, std::slice::from_ref(&platform));
        assert_eq!(report.codes(), ["C006", "C007"]);
    }
}
