//! Output generation (paper §IV-C step 3).
//!
//! "Based on the previously analyzed platform information, output
//! source-files are constructed. This includes insertion of highly platform
//! specific code for data-partitioning, transfer and task invocations."
//!
//! Two artifacts are produced per translation:
//!
//! 1. **Generated source text** — a StarPU-style C program per target
//!    architecture (host file with `starpu_*` calls replacing annotated call
//!    sites, plus per-arch kernel files for the selected variants). These
//!    are what the paper's prototype fed to `gcc`/`nvcc`; here they are
//!    inspectable artifacts checked by golden tests.
//! 2. **An executable task graph** — a [`hetero_rt::graph::TaskGraph`]
//!    shaped exactly like the generated program, runnable on the simulated
//!    or threaded engine. This is how the reproduction *executes* its
//!    generated programs.

use crate::ast::{Item, Program};
use crate::mapping::{map_call, CallMapping, MappingError};
use crate::pragma::DistributionKind;
use crate::preselect::InterfaceSelection;
use crate::repository::{platform_to_arch, TaskRepository};
use hetero_rt::graph::TaskGraph;
use hetero_rt::task::{Codelet, Variant};
use kernels::graphs as workloads;
use pdl_core::platform::Platform;
use std::collections::BTreeMap;
use std::fmt;

/// Cost/size information the annotations alone cannot provide: concrete
/// values for size parameters (`N`) and FLOP estimates for interfaces with
/// no built-in workload shape.
#[derive(Debug, Clone, Default)]
pub struct ProblemSpec {
    /// Values of size parameters referenced by distributions (e.g. `N`).
    pub sizes: BTreeMap<String, usize>,
    /// FLOP estimates for generic interfaces.
    pub flops_hints: BTreeMap<String, f64>,
    /// Tile size for tiled decompositions (defaults to size/4).
    pub tile: Option<usize>,
}

impl ProblemSpec {
    /// Spec with one size parameter.
    pub fn with_size(name: &str, value: usize) -> Self {
        let mut s = ProblemSpec::default();
        s.sizes.insert(name.to_string(), value);
        s
    }

    fn resolve_size(&self, expr: Option<&str>) -> Option<usize> {
        let e = expr?;
        if let Ok(v) = e.parse::<usize>() {
            return Some(v);
        }
        self.sizes.get(e).copied()
    }
}

/// Codegen errors.
#[derive(Debug)]
pub enum CodegenError {
    /// Mapping a call site failed.
    Mapping(MappingError),
    /// A size parameter could not be resolved to a value.
    UnresolvedSize {
        /// Interface of the call.
        interface: String,
        /// The unresolved expression.
        expr: String,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Mapping(e) => e.fmt(f),
            CodegenError::UnresolvedSize { interface, expr } => write!(
                f,
                "cannot resolve size expression {expr:?} for {interface:?}; provide it in ProblemSpec::sizes"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<MappingError> for CodegenError {
    fn from(e: MappingError) -> Self {
        CodegenError::Mapping(e)
    }
}

/// Everything one translation produces.
#[derive(Debug)]
pub struct GeneratedOutput {
    /// The host source file (StarPU-style C).
    pub main_source: String,
    /// Per-architecture kernel source files: arch → (filename, content).
    pub kernel_sources: BTreeMap<String, Vec<(String, String)>>,
    /// Static mapping per annotated call, in source order.
    pub mappings: Vec<CallMapping>,
    /// The runnable task graph equivalent of the generated program.
    pub graph: TaskGraph,
}

/// Statically maps every annotated call site of the program, in source
/// order.
///
/// Split out of [`generate`] so the driver can time the mapping step as its
/// own compile phase; [`generate_with_mappings`] consumes the result.
pub(crate) fn map_calls(
    program: &Program,
    selections: &[InterfaceSelection],
    platform: &Platform,
) -> Result<Vec<CallMapping>, CodegenError> {
    program
        .items
        .iter()
        .filter_map(|item| match item {
            Item::TaskCall(call) => Some(map_call(call, selections, platform).map_err(Into::into)),
            _ => None,
        })
        .collect()
}

/// [`generate`] with call mappings precomputed by [`map_calls`].
///
/// Call sites beyond the supplied mappings (never the case when the same
/// program produced them) are mapped on the fly.
pub(crate) fn generate_with_mappings(
    program: &Program,
    repository: &TaskRepository,
    selections: &[InterfaceSelection],
    platform: &Platform,
    spec: &ProblemSpec,
    mappings: Vec<CallMapping>,
) -> Result<GeneratedOutput, CodegenError> {
    let mut main = String::new();
    let mut kernel_sources: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut supplied = mappings.into_iter();
    let mut mappings = Vec::new();
    let mut graph = TaskGraph::new();
    // Every call site declares its handles in the one `main` scope, so
    // their numbers run on from call to call.
    let mut next_handle = 0;

    main.push_str(&format!(
        "/* Generated by Cascabel for platform {:?} — do not edit. */\n#include <starpu.h>\n\n",
        platform.name
    ));

    // Emit kernel files for every kept variant of every interface.
    for selection in selections {
        let Some(interface) = repository.interface(&selection.interface) else {
            continue;
        };
        for decision in &selection.decisions {
            if !decision.kept {
                continue;
            }
            let Some(imp) = interface
                .implementations
                .iter()
                .find(|i| i.name == decision.implementation)
            else {
                continue;
            };
            for platform_name in &imp.target_platforms {
                let (arch, _) = platform_to_arch(platform_name);
                let filename = format!("{}_{}.{}", imp.name, arch, ext_for(platform_name));
                let content = format!(
                    "/* task {iface} — variant {name} for {plat} (eligible PUs: {pus}) */\n{src}\n",
                    iface = selection.interface,
                    name = imp.name,
                    plat = platform_name,
                    pus = decision.eligible_pus.join(", "),
                    src = imp.source
                );
                kernel_sources
                    .entry(arch.to_string())
                    .or_default()
                    .push((filename, content));
            }
        }
    }

    // Walk the program: passthrough verbatim, call sites replaced.
    main.push_str("int main(int argc, char **argv) {\n  starpu_init(NULL);\n");
    for item in &program.items {
        match item {
            Item::Passthrough(text) => {
                main.push_str("  /* passthrough */ ");
                main.push_str(text.trim());
                main.push('\n');
            }
            Item::TaskFunction(f) => {
                main.push_str(&format!(
                    "  /* task implementation {} outlined to repository */\n",
                    f.pragma.task_name
                ));
            }
            Item::TaskCall(call) => {
                let mapping = match supplied.next() {
                    Some(m) => m,
                    None => map_call(call, selections, platform)?,
                };
                emit_call(&mut main, call, &mapping, next_handle);
                next_handle += call.args.len();
                build_graph_for_call(&mut graph, call, repository, &mapping, spec)?;
                mappings.push(mapping);
            }
        }
    }
    main.push_str("  starpu_task_wait_for_all();\n  starpu_shutdown();\n  return 0;\n}\n");

    Ok(GeneratedOutput {
        main_source: main,
        kernel_sources,
        mappings,
        graph,
    })
}

fn ext_for(platform_name: &str) -> &'static str {
    match platform_name.to_ascii_lowercase().as_str() {
        "cuda" => "cu",
        "opencl" => "cl",
        "cellsdk" | "cell" | "spu" => "spu.c",
        _ => "c",
    }
}

fn emit_call(
    main: &mut String,
    call: &crate::ast::TaskCall,
    mapping: &CallMapping,
    first_handle: usize,
) {
    main.push_str(&format!(
        "  /* cascabel execute: {iface} group={group:?} -> PUs [{pus}] variants [{vars}] */\n",
        iface = mapping.interface,
        group = mapping.execution_group,
        pus = mapping.target_pus.join(", "),
        vars = mapping.usable_variants.join(", "),
    ));
    let handles = first_handle..first_handle + call.args.len();
    for (i, arg) in handles.clone().zip(&call.args) {
        main.push_str(&format!(
            "  starpu_data_handle_t h{i} = cascabel_register({arg});\n"
        ));
    }
    main.push_str(&format!(
        "  cascabel_submit_{iface}({args});\n",
        iface = mapping.interface,
        args = handles
            .map(|i| format!("h{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}

/// Builds the runnable task-graph fragment for one call site.
fn build_graph_for_call(
    graph: &mut TaskGraph,
    call: &crate::ast::TaskCall,
    repository: &TaskRepository,
    mapping: &CallMapping,
    spec: &ProblemSpec,
) -> Result<(), CodegenError> {
    // Execution group: plain names pass to the runtime; set expressions were
    // already resolved statically into `mapping.target_pus`, so the runtime
    // group filter is skipped for them (None) and the static mapping stands.
    let group = match mapping.execution_group.as_str() {
        "" => None,
        g if g.chars().all(|c| c.is_alphanumeric() || c == '_') => Some(g),
        _ => None,
    };

    // Problem size from the first distribution with a size expression.
    let size_expr = call
        .pragma
        .distributions
        .iter()
        .find_map(|d| d.size.as_deref());
    let n = spec.resolve_size(size_expr);

    match mapping.interface.as_str() {
        "I_dgemm" => {
            let n = n.ok_or_else(|| CodegenError::UnresolvedSize {
                interface: mapping.interface.clone(),
                expr: size_expr.unwrap_or("N").to_string(),
            })?;
            let tile = spec.tile.unwrap_or_else(|| (n / 4).max(1));
            workloads::emit_dgemm(graph, n, tile, group.map(str::to_owned));
        }
        "I_vecadd" => {
            let n = n.ok_or_else(|| CodegenError::UnresolvedSize {
                interface: mapping.interface.clone(),
                expr: size_expr.unwrap_or("N").to_string(),
            })?;
            let chunks = if call
                .pragma
                .distributions
                .iter()
                .any(|d| d.kind != DistributionKind::Whole)
            {
                mapping.target_pus.len().max(1)
            } else {
                1
            };
            workloads::emit_vecadd(graph, n, chunks, group.map(str::to_owned));
        }
        other => {
            // Generic interface: codelet from the kept variants; one task
            // per BLOCK-distributed chunk (distribution list present), else
            // a single task. Cost comes from ProblemSpec hints.
            let iface = repository
                .interface(other)
                .expect("mapping implies interface");
            let mut codelet = Codelet::new(other);
            for imp in &iface.implementations {
                if !mapping.usable_variants.contains(&imp.name) {
                    continue;
                }
                for (arch, sw) in imp.arch_requirements() {
                    let mut v = Variant::new(arch).with_speedup(imp.speedup);
                    if let Some(sw) = sw {
                        v = v.requiring(sw);
                    }
                    codelet.variants.push(v);
                }
            }
            let c = graph.add_codelet(codelet);
            let flops = spec.flops_hints.get(other).copied().unwrap_or(1e9);
            let blocked = call
                .pragma
                .distributions
                .iter()
                .any(|d| d.kind != DistributionKind::Whole);
            let chunks = if blocked {
                mapping.target_pus.len().max(1)
            } else {
                1
            };
            let mode_of = |i: usize| {
                iface
                    .implementations
                    .first()
                    .and_then(|imp| imp.params.get(i))
                    .map(|(_, m)| *m)
                    .unwrap_or(hetero_rt::data::AccessMode::ReadWrite)
            };
            // Each chunk gets its own slice handles so chunks stay
            // independent (BLOCK semantics); whole-object args share one
            // handle across chunks.
            let chunk_bytes = n.map(|n| (n * 8) as f64 / chunks as f64).unwrap_or(8.0);
            let flops = flops / chunks as f64;
            let mut accesses = Vec::with_capacity(call.args.len());
            for chunk in 0..chunks {
                accesses.clear();
                for (i, arg) in call.args.iter().enumerate() {
                    let handle = if chunks == 1 {
                        graph.register_data(arg, chunk_bytes)
                    } else {
                        graph.register_data(format_args!("{arg}[{chunk}]"), chunk_bytes)
                    };
                    accesses.push(hetero_rt::task::DataAccess {
                        handle,
                        mode: mode_of(i),
                    });
                }
                let accesses = accesses.iter().copied();
                let line = call.line;
                if chunks == 1 {
                    graph.submit(c, format_args!("{other}@L{line}"), flops, accesses, group);
                } else {
                    let label = format_args!("{other}@L{line}[{chunk}]");
                    graph.submit(c, label, flops, accesses, group);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use crate::preselect::preselect;
    use pdl_discover::synthetic;

    const VECADD_SRC: &str = r#"
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { for (int i = 0; i < N; i++) A[i] += B[i]; }

#pragma cascabel execute I_vecadd : gpus (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
"#;

    fn translate(
        src: &str,
        platform: &pdl_core::platform::Platform,
        spec: &ProblemSpec,
    ) -> GeneratedOutput {
        let prog = parse_program(src).unwrap();
        let mut repo = TaskRepository::with_builtin_expert_variants();
        for f in prog.task_functions() {
            // Input-program vecadd01 may collide with nothing; register.
            let _ = repo.register_function(f);
        }
        let selections = preselect(&repo, platform);
        let mappings = map_calls(&prog, &selections, platform).unwrap();
        generate_with_mappings(&prog, &repo, &selections, platform, spec, mappings).unwrap()
    }

    #[test]
    fn vecadd_translation_produces_graph_and_source() {
        let p = synthetic::xeon_2gpu_testbed();
        let out = translate(VECADD_SRC, &p, &ProblemSpec::with_size("N", 1_000_000));
        // Graph: one vecadd task per target PU in the gpus group (2).
        assert_eq!(out.graph.len(), 2);
        assert!(out.main_source.contains("starpu_init"));
        assert!(out.main_source.contains("cascabel_submit_I_vecadd"));
        assert!(out.main_source.contains("group=\"gpus\""));
        assert_eq!(out.mappings.len(), 1);
        assert_eq!(out.mappings[0].target_pus, ["gpu0", "gpu1"]);
        // Kernel files generated for kept variants.
        assert!(out.kernel_sources.contains_key("x86"));
        assert!(out.kernel_sources.contains_key("gpu"));
    }

    #[test]
    fn unresolved_size_is_error() {
        let p = synthetic::xeon_2gpu_testbed();
        let prog = parse_program(VECADD_SRC).unwrap();
        let mut repo = TaskRepository::with_builtin_expert_variants();
        for f in prog.task_functions() {
            let _ = repo.register_function(f);
        }
        let selections = preselect(&repo, &p);
        let mappings = map_calls(&prog, &selections, &p).unwrap();
        let err = generate_with_mappings(
            &prog,
            &repo,
            &selections,
            &p,
            &ProblemSpec::default(),
            mappings,
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::UnresolvedSize { .. }));
        assert!(err.to_string().contains("N"));
    }

    #[test]
    fn numeric_size_needs_no_spec() {
        let src = r#"
#pragma cascabel execute I_vecadd : gpus (A:BLOCK:4096, B:BLOCK:4096)
vector_add(A, B);
"#;
        let p = synthetic::xeon_2gpu_testbed();
        let out = translate(src, &p, &ProblemSpec::default());
        assert_eq!(out.graph.len(), 2);
    }

    #[test]
    fn dgemm_translation_builds_tiled_graph() {
        let src =
            "#pragma cascabel execute I_dgemm : (A:BLOCK:N, B:BLOCK:N, C:BLOCK:N)\ndgemm(A, B, C);";
        let p = synthetic::xeon_2gpu_testbed();
        let mut spec = ProblemSpec::with_size("N", 8192);
        spec.tile = Some(2048);
        let out = translate(src, &p, &spec);
        assert_eq!(out.graph.len(), 64); // (8192/2048)^3
        assert!((out.graph.total_flops() - kernels::dgemm::dgemm_flops(8192)).abs() < 1.0);
    }

    #[test]
    fn generic_interface_single_task() {
        let src = r#"
#pragma cascabel task : x86 : I_custom : custom01 : (X: readwrite)
void custom(double *X) { work(X); }
#pragma cascabel execute I_custom :
custom(X);
"#;
        let p = synthetic::xeon_x5550_host();
        let mut spec = ProblemSpec::default();
        spec.flops_hints.insert("I_custom".into(), 5e9);
        let out = translate(src, &p, &spec);
        assert_eq!(out.graph.len(), 1);
        let task = out.graph.tasks().next().unwrap();
        assert_eq!(task.flops, 5e9);
        assert_eq!(task.accesses.len(), 1);
    }

    #[test]
    fn main_source_structure() {
        let p = synthetic::xeon_2gpu_testbed();
        let out = translate(VECADD_SRC, &p, &ProblemSpec::with_size("N", 1024));
        let src = &out.main_source;
        let init = src.find("starpu_init").unwrap();
        let submit = src.find("cascabel_submit").unwrap();
        let wait = src.find("starpu_task_wait_for_all").unwrap();
        let shutdown = src.find("starpu_shutdown").unwrap();
        assert!(init < submit && submit < wait && wait < shutdown);
    }

    #[test]
    fn multi_call_program_concatenates_graphs() {
        let src = r#"
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { }

#pragma cascabel execute I_vecadd : gpus (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);

#pragma cascabel execute I_dgemm : (A:BLOCK:N, B:BLOCK:N, C:BLOCK:N)
dgemm(A, B, C);
"#;
        let p = synthetic::xeon_2gpu_testbed();
        let mut spec = ProblemSpec::with_size("N", 2048);
        spec.tile = Some(1024);
        let out = translate(src, &p, &spec);
        assert_eq!(out.mappings.len(), 2);
        // 2 vecadd chunks (gpus group) + 8 dgemm tile tasks (2048/1024)³.
        assert_eq!(out.graph.len(), 2 + 8);
        // Codelet tables concatenated without clobbering.
        let names: Vec<&str> = out.graph.codelets.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"I_vecadd"));
        assert!(names.contains(&"I_dgemm"));
        // Graph is runnable end to end.
        let machine = simhw::machine::SimMachine::from_platform(&p);
        let report = hetero_rt::sim_engine::simulate(
            &out.graph,
            &machine,
            &mut hetero_rt::scheduler::HeftScheduler,
            &hetero_rt::sim_engine::SimOptions::default(),
        )
        .unwrap();
        assert_eq!(report.assignments.len(), 10);
    }

    #[test]
    fn kernel_files_have_sensible_extensions() {
        let p = synthetic::xeon_2gpu_testbed();
        let out = translate(VECADD_SRC, &p, &ProblemSpec::with_size("N", 1024));
        let gpu_files = &out.kernel_sources["gpu"];
        assert!(gpu_files
            .iter()
            .any(|(name, _)| name.ends_with(".cl") || name.ends_with(".cu")));
        let cpu_files = &out.kernel_sources["x86"];
        assert!(cpu_files.iter().all(|(name, _)| name.ends_with(".c")));
    }
}
