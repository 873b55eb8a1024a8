//! The Cascabel driver: the end-to-end pipeline of Figure 4.
//!
//! ```text
//! annotated C source ──parse──▶ Program
//!          repository ◀─register─┘
//!               │ static pre-selection (target PDL)
//!               ▼
//!        output generation (main + kernels + runnable graph)
//!               │
//!               ▼
//!        compilation plan (from PDL COMPILER/LINK_LIBS)
//! ```
//!
//! "By varying the target PDL descriptor our compiler can generate code for
//! different target architectures without the need to modify the source
//! program" — [`Cascabel::compile`] takes the same source and any platform.

use crate::codegen::{
    generate_with_mappings, map_calls, CodegenError, GeneratedOutput, ProblemSpec,
};
use crate::compplan::{derive_plan, CompilationPlan};
use crate::parse::{parse_program, ParseError};
use crate::preselect::{preselect, InterfaceSelection, PreselectError};
use crate::repository::{RepositoryError, TaskRepository};
use hetero_trace::{PhaseSpan, PhaseTimer};
use pdl_core::platform::Platform;
use std::collections::BTreeMap;
use std::fmt;

/// Any error of the pipeline.
#[derive(Debug)]
pub enum CascabelError {
    /// Frontend failure.
    Parse(ParseError),
    /// Task registration failure.
    Repository(RepositoryError),
    /// Pre-selection failure (no runnable variant).
    Preselect(PreselectError),
    /// Output generation failure.
    Codegen(CodegenError),
}

impl fmt::Display for CascabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascabelError::Parse(e) => e.fmt(f),
            CascabelError::Repository(e) => e.fmt(f),
            CascabelError::Preselect(e) => e.fmt(f),
            CascabelError::Codegen(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CascabelError {}

impl From<ParseError> for CascabelError {
    fn from(e: ParseError) -> Self {
        CascabelError::Parse(e)
    }
}
impl From<RepositoryError> for CascabelError {
    fn from(e: RepositoryError) -> Self {
        CascabelError::Repository(e)
    }
}
impl From<PreselectError> for CascabelError {
    fn from(e: PreselectError) -> Self {
        CascabelError::Preselect(e)
    }
}
impl From<CodegenError> for CascabelError {
    fn from(e: CodegenError) -> Self {
        CascabelError::Codegen(e)
    }
}

/// The complete result of one translation.
#[derive(Debug)]
pub struct CompileResult {
    /// Generated sources + runnable graph + mappings.
    pub output: GeneratedOutput,
    /// Pre-selection decisions per interface.
    pub selections: Vec<InterfaceSelection>,
    /// The compilation/link plan derived from the PDL.
    pub plan: CompilationPlan,
    /// Timed pipeline phases (`parse`, `preselect`, `mapping`, `codegen`,
    /// `compplan`) on one monotonic clock — convert with
    /// [`hetero_trace::RunTrace::from_phases`] for Chrome-trace export.
    pub phases: Vec<PhaseSpan>,
}

impl CompileResult {
    /// Writes all generated artifacts into `dir`, like the paper's prototype
    /// constructing output source files (§IV-C step 3): the host program,
    /// one kernel file per selected variant, the compilation plan as a
    /// shell-like script, and a human-readable mapping report. Returns the
    /// written paths.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut put = |name: String, content: &str| -> std::io::Result<()> {
            let path = dir.join(name);
            std::fs::write(&path, content)?;
            written.push(path);
            Ok(())
        };
        put("cascabel_main.c".to_string(), &self.output.main_source)?;
        for files in self.output.kernel_sources.values() {
            for (name, content) in files {
                put(name.clone(), content)?;
            }
        }
        put("build_plan.sh".to_string(), &self.plan.to_string())?;
        let mut report = String::from(
            "# Cascabel mapping report
",
        );
        for m in &self.output.mappings {
            report.push_str(&format!(
                "{} group={:?} pus=[{}] variants=[{}]
",
                m.interface,
                m.execution_group,
                m.target_pus.join(", "),
                m.usable_variants.join(", ")
            ));
        }
        for s in &self.selections {
            for d in &s.decisions {
                report.push_str(&format!(
                    "{}::{} {}
",
                    s.interface,
                    d.implementation,
                    if d.kept { "kept" } else { "pruned" }
                ));
            }
        }
        put("mapping_report.txt".to_string(), &report)?;
        Ok(written)
    }
}

/// The source-to-source compiler, parameterized by a PDL descriptor.
#[derive(Debug, Clone)]
pub struct Cascabel {
    platform: Platform,
    repository: TaskRepository,
    provenance: Option<String>,
}

impl Cascabel {
    /// A compiler targeting `platform`, with the built-in expert variants
    /// preloaded.
    pub fn new(platform: Platform) -> Self {
        Cascabel {
            platform,
            repository: TaskRepository::with_builtin_expert_variants(),
            provenance: None,
        }
    }

    /// A compiler with an empty repository (tasks come only from input
    /// programs).
    pub fn with_empty_repository(platform: Platform) -> Self {
        Cascabel {
            platform,
            repository: TaskRepository::new(),
            provenance: None,
        }
    }

    /// A compiler whose target platform is resolved through a registry
    /// snapshot (`req` is a version requirement such as `"latest"`,
    /// `"^1.2"` or `"=1.0.0"`). The resolved pin — name, version and
    /// content address — is recorded as [`Cascabel::provenance`], so a
    /// compilation can always be traced back to the exact descriptor
    /// revision that drove it.
    pub fn from_registry(
        snapshot: &pdl_registry::Snapshot,
        name: &str,
        req: &str,
    ) -> Result<Self, pdl_registry::RegistryError> {
        let resolved = snapshot.resolve_str(name, req)?;
        let mut c = Cascabel::new(resolved.platform.platform().clone());
        c.provenance = Some(resolved.pin());
        Ok(c)
    }

    /// The registry pin (`name@version (hash)`) the platform was resolved
    /// from, if [`Cascabel::from_registry`] was used.
    pub fn provenance(&self) -> Option<&str> {
        self.provenance.as_deref()
    }

    /// Mutable repository access (register expert variants).
    pub fn repository_mut(&mut self) -> &mut TaskRepository {
        &mut self.repository
    }

    /// Read access to the repository.
    pub fn repository(&self) -> &TaskRepository {
        &self.repository
    }

    /// Runs the full pipeline on annotated source.
    ///
    /// Each pipeline step is timed as a named phase on one monotonic clock;
    /// the spans come back in [`CompileResult::phases`].
    pub fn compile(
        &mut self,
        source: &str,
        spec: &ProblemSpec,
    ) -> Result<CompileResult, CascabelError> {
        let mut timer = PhaseTimer::new();

        // 1. Frontend + task registration (§IV-C step 1).
        timer.start("parse");
        let program = parse_program(source)?;
        for f in program.task_functions() {
            match self.repository.register_function(f) {
                Ok(()) => {}
                // Re-compiling the same source against another PDL is the
                // paper's central scenario; the repository already holds the
                // implementation, which is fine.
                Err(RepositoryError::DuplicateImplName(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        timer.end();

        // 2. Static pre-selection (§IV-C step 2).
        let selections = timer.scope("preselect", |_| preselect(&self.repository, &self.platform));

        // 3. Output generation (§IV-C step 3): call mapping first, then
        // source emission + graph construction from the mapped calls.
        timer.start("mapping");
        let mappings = map_calls(&program, &selections, &self.platform)?;
        timer.end();
        timer.start("codegen");
        let output = generate_with_mappings(
            &program,
            &self.repository,
            &selections,
            &self.platform,
            spec,
            mappings,
        )?;
        timer.end();

        // 4. Compilation plan (§IV-C step 4).
        let plan = timer.scope("compplan", |_| {
            let mut sources_by_arch: BTreeMap<String, Vec<String>> = BTreeMap::new();
            sources_by_arch
                .entry("x86".to_string())
                .or_default()
                .push("cascabel_main.c".to_string());
            for (arch, files) in &output.kernel_sources {
                let entry = sources_by_arch.entry(arch.clone()).or_default();
                for (name, _) in files {
                    entry.push(name.clone());
                }
            }
            derive_plan(&self.platform, &sources_by_arch, "cascabel_out")
        });

        Ok(CompileResult {
            output,
            selections,
            plan,
            phases: timer.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_discover::synthetic;

    /// The paper's experiment input: a serial program whose single annotated
    /// call multiplies two 8192×8192 matrices via an optimized BLAS library.
    pub(crate) const DGEMM_INPUT: &str = r#"
#include <cblas.h>

#pragma cascabel task : x86 : I_dgemm : dgemm_serial : (A: read, B: read, C: readwrite)
void my_dgemm(double *A, double *B, double *C) { cblas_dgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, N, N, N, 1.0, A, N, B, N, 1.0, C, N); }

#pragma cascabel execute I_dgemm : (A:BLOCK:N, B:BLOCK:N, C:BLOCK:N)
my_dgemm(A, B, C);
"#;

    #[test]
    fn same_source_two_platforms() {
        // The Fig. 5 scenario: identical input, two PDL descriptors.
        let mut spec = ProblemSpec::with_size("N", 8192);
        spec.tile = Some(2048);

        let mut cpu = Cascabel::new(synthetic::xeon_x5550_host());
        let cpu_result = cpu.compile(DGEMM_INPUT, &spec).unwrap();

        let mut gpu = Cascabel::new(synthetic::xeon_2gpu_testbed());
        let gpu_result = gpu.compile(DGEMM_INPUT, &spec).unwrap();

        // CPU build keeps only CPU variants; GPU build keeps CuBLAS too.
        let kept = |r: &CompileResult| -> Vec<String> {
            r.selections
                .iter()
                .flat_map(|s| s.kept().map(str::to_string))
                .collect()
        };
        assert!(!kept(&cpu_result).contains(&"dgemm_cublas".to_string()));
        assert!(kept(&gpu_result).contains(&"dgemm_cublas".to_string()));

        // Both graphs carry the full 8192³×2 FLOPs.
        let total = kernels::dgemm::dgemm_flops(8192);
        assert!((cpu_result.output.graph.total_flops() - total).abs() < 1.0);
        assert!((gpu_result.output.graph.total_flops() - total).abs() < 1.0);

        // Plans differ: the GPU build compiles with nvcc too.
        assert!(gpu_result
            .plan
            .compiles
            .iter()
            .any(|c| c.compiler == "nvcc"));
        assert!(!cpu_result
            .plan
            .compiles
            .iter()
            .any(|c| c.compiler == "nvcc"));
    }

    #[test]
    fn compile_times_every_pipeline_phase() {
        let mut c = Cascabel::new(synthetic::xeon_2gpu_testbed());
        let spec = ProblemSpec::with_size("N", 1024);
        let r = c.compile(DGEMM_INPUT, &spec).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["parse", "preselect", "mapping", "codegen", "compplan"]
        );
        // One shared clock: phases are sequential and non-overlapping.
        for pair in r.phases.windows(2) {
            assert!(pair[0].end_ns <= pair[1].start_ns, "{pair:?}");
        }
        // The spans convert into a valid trace for the Chrome exporter.
        let trace = hetero_trace::RunTrace::from_phases(Some("testbed".into()), &r.phases);
        trace.validate().expect("phase trace is well-formed");
    }

    #[test]
    fn recompilation_is_idempotent() {
        let mut c = Cascabel::new(synthetic::xeon_2gpu_testbed());
        let spec = ProblemSpec::with_size("N", 1024);
        let r1 = c.compile(DGEMM_INPUT, &spec).unwrap();
        let r2 = c.compile(DGEMM_INPUT, &spec).unwrap();
        assert_eq!(r1.output.graph.len(), r2.output.graph.len());
    }

    #[test]
    fn empty_repository_requires_input_variants() {
        let mut c = Cascabel::with_empty_repository(synthetic::xeon_x5550_host());
        let spec = ProblemSpec::with_size("N", 256);
        let r = c.compile(DGEMM_INPUT, &spec).unwrap();
        // Only the input-program's serial variant exists.
        let dgemm = r
            .selections
            .iter()
            .find(|s| s.interface == "I_dgemm")
            .unwrap();
        let kept: Vec<&str> = dgemm.kept().collect();
        assert_eq!(kept, ["dgemm_serial"]);
    }

    #[test]
    fn parse_errors_surface() {
        let mut c = Cascabel::new(synthetic::xeon_x5550_host());
        let err = c
            .compile("#pragma cascabel task : broken", &ProblemSpec::default())
            .unwrap_err();
        assert!(matches!(err, CascabelError::Parse(_)));
    }

    #[test]
    fn write_to_dir_produces_all_artifacts() {
        let dir = std::env::temp_dir().join(format!("cascabel-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Cascabel::new(synthetic::xeon_2gpu_testbed());
        let spec = ProblemSpec::with_size("N", 1024);
        let r = c.compile(DGEMM_INPUT, &spec).unwrap();
        let written = r.write_to_dir(&dir).unwrap();
        assert!(written.iter().any(|p| p.ends_with("cascabel_main.c")));
        assert!(written.iter().any(|p| p.ends_with("build_plan.sh")));
        assert!(written.iter().any(|p| p.ends_with("mapping_report.txt")));
        // CuBLAS kernel file present on the GPU target.
        assert!(written.iter().any(|p| p
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("cublas")));
        let main = std::fs::read_to_string(dir.join("cascabel_main.c")).unwrap();
        assert!(main.contains("starpu_init"));
        let plan = std::fs::read_to_string(dir.join("build_plan.sh")).unwrap();
        assert!(plan.contains("nvcc"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_includes_generated_main() {
        let mut c = Cascabel::new(synthetic::xeon_2gpu_testbed());
        let spec = ProblemSpec::with_size("N", 1024);
        let r = c.compile(DGEMM_INPUT, &spec).unwrap();
        let x86 = r.plan.compiles.iter().find(|s| s.arch == "x86").unwrap();
        assert!(x86.sources.contains(&"cascabel_main.c".to_string()));
    }

    #[test]
    fn from_registry_pins_the_resolved_revision() {
        let reg = pdl_registry::Registry::new();
        reg.publish(&synthetic::xeon_2gpu_testbed());
        let snap = reg.snapshot();
        let mut c = Cascabel::from_registry(&snap, "xeon-x5550-gtx480-gtx285", "latest").unwrap();
        let pin = c.provenance().unwrap().to_string();
        assert!(pin.starts_with("xeon-x5550-gtx480-gtx285@1.0.0"));
        // The resolved (canonicalized) platform compiles like the direct one.
        let r = c
            .compile(DGEMM_INPUT, &ProblemSpec::with_size("N", 1024))
            .unwrap();
        assert!(!r.output.mappings.is_empty());
        assert!(matches!(
            Cascabel::from_registry(&snap, "nope", "latest"),
            Err(pdl_registry::RegistryError::UnknownPlatform(_))
        ));
    }
}
