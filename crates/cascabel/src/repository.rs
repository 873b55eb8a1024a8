//! The task-implementation repository (paper §IV-C step 1).
//!
//! "Code regions outlined by task annotations are registered in the task
//! repository. In case multiple implementation variants for the same task
//! interface exist, those are marked for potential variant selection."
//!
//! The repository also holds *expert-provided* implementations (Figure 1:
//! "Expert programmers provide implementation variants for specific
//! platforms") — e.g. the `CuBLAS` DGEMM the paper's experiment selects,
//! which is not present in the serial input program.

use crate::ast::TaskFunction;
use crate::pragma::TaskPragma;
use hetero_rt::data::AccessMode;
use std::collections::BTreeMap;
use std::fmt;

/// Where an implementation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplOrigin {
    /// Outlined in the input program.
    InputProgram,
    /// Pre-registered expert implementation from the repository.
    Repository,
}

/// Maps an annotation target platform (`x86`, `OpenCL`, `Cuda`, `CellSDK`)
/// to the PDL vocabulary: (ARCHITECTURE, required `SOFTWARE_PLATFORM`).
pub(crate) fn platform_to_arch(platform: &str) -> (&'static str, Option<&'static str>) {
    match platform.to_ascii_lowercase().as_str() {
        "x86" | "cpu" | "serial" => ("x86", None),
        "opencl" => ("gpu", Some("OpenCL")),
        "cuda" => ("gpu", Some("Cuda")),
        "cellsdk" | "cell" | "spu" => ("spe", Some("CellSDK")),
        _ => ("unknown", None),
    }
}

/// One registered task implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskImpl {
    /// Unique implementation name (`vecadd01`, `dgemm_cublas`).
    pub name: String,
    /// Concrete platforms it targets.
    pub target_platforms: Vec<String>,
    /// Parameters with access modes.
    pub params: Vec<(String, AccessMode)>,
    /// Implementation source (body text for input-program tasks; the whole
    /// function for repository entries).
    pub source: String,
    /// Provenance.
    pub origin: ImplOrigin,
    /// Relative throughput vs. the nominal device rate (expert variants may
    /// declare tuned speedups).
    pub speedup: f64,
}

impl TaskImpl {
    /// `(arch, software_platform)` pairs this implementation can run on.
    pub(crate) fn arch_requirements(&self) -> Vec<(&'static str, Option<&'static str>)> {
        self.target_platforms
            .iter()
            .map(|p| platform_to_arch(p))
            .collect()
    }

    /// Whether this is a sequential CPU fall-back.
    pub(crate) fn is_cpu_fallback(&self) -> bool {
        self.arch_requirements().iter().any(|(a, _)| *a == "x86")
    }
}

/// A task interface: same functionality and signature across variants.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskInterface {
    /// Interface name (`I_dgemm`).
    pub identifier: String,
    /// Registered implementations.
    pub implementations: Vec<TaskImpl>,
}

impl TaskInterface {
    /// Whether any implementation is a CPU fall-back (§IV-C requires one).
    pub fn has_cpu_fallback(&self) -> bool {
        self.implementations.iter().any(TaskImpl::is_cpu_fallback)
    }
}

/// Errors of repository registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepositoryError {
    /// Two implementations share a task name.
    DuplicateImplName(String),
    /// Signature mismatch between variants of one interface: all task
    /// implementations "must reference to this name" with "same
    /// functionality and function signature" (§IV-A).
    SignatureMismatch {
        /// The interface.
        interface: String,
        /// The offending implementation.
        implementation: String,
    },
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::DuplicateImplName(n) => {
                write!(f, "duplicate task implementation name {n:?}")
            }
            RepositoryError::SignatureMismatch {
                interface,
                implementation,
            } => write!(
                f,
                "implementation {implementation:?} does not match the signature of interface {interface:?} (same functionality and function signature required)"
            ),
        }
    }
}

impl std::error::Error for RepositoryError {}

/// The repository: interfaces keyed by identifier.
#[derive(Debug, Clone, Default)]
pub struct TaskRepository {
    interfaces: BTreeMap<String, TaskInterface>,
}

impl TaskRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// A repository preloaded with the expert implementations used by the
    /// paper's experiment: multithreaded + `CuBLAS` + `OpenCL` DGEMM, GPU
    /// vecadd.
    pub fn with_builtin_expert_variants() -> Self {
        let mut repo = Self::new();
        let dgemm_params = vec![
            ("A".to_string(), AccessMode::Read),
            ("B".to_string(), AccessMode::Read),
            ("C".to_string(), AccessMode::ReadWrite),
        ];
        repo.register_expert(
            "I_dgemm",
            TaskImpl {
                name: "dgemm_gotoblas".into(),
                target_platforms: vec!["x86".into()],
                params: dgemm_params.clone(),
                source: "/* GotoBLAS2 1.13 dgemm_() call */".into(),
                origin: ImplOrigin::Repository,
                speedup: 1.0,
            },
        )
        .expect("fresh repo");
        repo.register_expert(
            "I_dgemm",
            TaskImpl {
                name: "dgemm_cublas".into(),
                target_platforms: vec!["Cuda".into()],
                params: dgemm_params.clone(),
                source: "/* CuBLAS (Cuda Toolkit 3.2) cublasDgemm call */".into(),
                origin: ImplOrigin::Repository,
                speedup: 1.0,
            },
        )
        .expect("fresh repo");
        repo.register_expert(
            "I_dgemm",
            TaskImpl {
                name: "dgemm_opencl".into(),
                target_platforms: vec!["OpenCL".into()],
                params: dgemm_params,
                source: "/* hand-written OpenCL dgemm kernel */".into(),
                origin: ImplOrigin::Repository,
                speedup: 0.85,
            },
        )
        .expect("fresh repo");
        repo.register_expert(
            "I_vecadd",
            TaskImpl {
                name: "vecadd_opencl".into(),
                target_platforms: vec!["OpenCL".into()],
                params: vec![
                    ("A".to_string(), AccessMode::ReadWrite),
                    ("B".to_string(), AccessMode::Read),
                ],
                source: "/* OpenCL vecadd kernel */".into(),
                origin: ImplOrigin::Repository,
                speedup: 1.0,
            },
        )
        .expect("fresh repo");
        repo
    }

    /// Registers a task implementation outlined in the input program.
    pub fn register_function(&mut self, f: &TaskFunction) -> Result<(), RepositoryError> {
        self.register_pragma(&f.pragma, f.body.clone(), ImplOrigin::InputProgram)
    }

    /// Registers from a parsed task pragma.
    pub(crate) fn register_pragma(
        &mut self,
        pragma: &TaskPragma,
        source: String,
        origin: ImplOrigin,
    ) -> Result<(), RepositoryError> {
        self.register_impl(
            &pragma.task_identifier,
            TaskImpl {
                name: pragma.task_name.clone(),
                target_platforms: pragma.target_platforms.clone(),
                params: pragma.params.clone(),
                source,
                origin,
                speedup: 1.0,
            },
        )
    }

    /// Registers an expert implementation.
    pub fn register_expert(
        &mut self,
        interface: &str,
        implementation: TaskImpl,
    ) -> Result<(), RepositoryError> {
        self.register_impl(interface, implementation)
    }

    fn register_impl(
        &mut self,
        interface: &str,
        implementation: TaskImpl,
    ) -> Result<(), RepositoryError> {
        let entry = self
            .interfaces
            .entry(interface.to_string())
            .or_insert_with(|| TaskInterface {
                identifier: interface.to_string(),
                ..Default::default()
            });
        if entry
            .implementations
            .iter()
            .any(|i| i.name == implementation.name)
        {
            return Err(RepositoryError::DuplicateImplName(implementation.name));
        }
        // Signature check: parameter names + modes must match existing
        // variants (the interface contract of §IV-A).
        if let Some(first) = entry.implementations.first() {
            if first.params != implementation.params {
                return Err(RepositoryError::SignatureMismatch {
                    interface: interface.to_string(),
                    implementation: implementation.name,
                });
            }
        }
        entry.implementations.push(implementation);
        Ok(())
    }

    /// Looks up an interface.
    pub fn interface(&self, identifier: &str) -> Option<&TaskInterface> {
        self.interfaces.get(identifier)
    }

    /// All interfaces, sorted by identifier.
    pub(crate) fn interfaces(&self) -> impl Iterator<Item = &TaskInterface> {
        self.interfaces.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_mapping() {
        assert_eq!(platform_to_arch("x86"), ("x86", None));
        assert_eq!(platform_to_arch("Cuda"), ("gpu", Some("Cuda")));
        assert_eq!(platform_to_arch("OpenCL"), ("gpu", Some("OpenCL")));
        assert_eq!(platform_to_arch("CellSDK"), ("spe", Some("CellSDK")));
        assert_eq!(platform_to_arch("vhdl"), ("unknown", None));
    }

    #[test]
    fn builtin_repo_has_paper_variants() {
        let repo = TaskRepository::with_builtin_expert_variants();
        let dgemm = repo.interface("I_dgemm").unwrap();
        assert_eq!(dgemm.implementations.len(), 3);
        assert!(dgemm.has_cpu_fallback());
        let names: Vec<&str> = dgemm
            .implementations
            .iter()
            .map(|i| i.name.as_str())
            .collect();
        assert!(names.contains(&"dgemm_cublas"));
        assert!(names.contains(&"dgemm_gotoblas"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut repo = TaskRepository::with_builtin_expert_variants();
        let err = repo
            .register_expert(
                "I_dgemm",
                TaskImpl {
                    name: "dgemm_cublas".into(),
                    target_platforms: vec!["Cuda".into()],
                    params: vec![
                        ("A".to_string(), AccessMode::Read),
                        ("B".to_string(), AccessMode::Read),
                        ("C".to_string(), AccessMode::ReadWrite),
                    ],
                    source: String::new(),
                    origin: ImplOrigin::Repository,
                    speedup: 1.0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, RepositoryError::DuplicateImplName(_)));
    }

    #[test]
    fn signature_mismatch_rejected() {
        let mut repo = TaskRepository::with_builtin_expert_variants();
        let err = repo
            .register_expert(
                "I_dgemm",
                TaskImpl {
                    name: "dgemm_weird".into(),
                    target_platforms: vec!["x86".into()],
                    params: vec![("X".to_string(), AccessMode::Read)], // wrong!
                    source: String::new(),
                    origin: ImplOrigin::Repository,
                    speedup: 1.0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, RepositoryError::SignatureMismatch { .. }));
        assert!(err.to_string().contains("signature"));
    }

    #[test]
    fn input_program_registration() {
        use crate::parse::parse_program;
        let src = "#pragma cascabel task : x86 : I_k : k01 : (A: readwrite)\nvoid k(double *A) { work(); }";
        let prog = parse_program(src).unwrap();
        let mut repo = TaskRepository::new();
        for f in prog.task_functions() {
            repo.register_function(f).unwrap();
        }
        let iface = repo.interface("I_k").unwrap();
        assert_eq!(iface.implementations.len(), 1);
        assert_eq!(iface.implementations[0].origin, ImplOrigin::InputProgram);
        assert!(iface.implementations[0].source.contains("work"));
    }

    #[test]
    fn cpu_fallback_detection() {
        let imp = TaskImpl {
            name: "g".into(),
            target_platforms: vec!["OpenCL".into()],
            params: vec![],
            source: String::new(),
            origin: ImplOrigin::Repository,
            speedup: 1.0,
        };
        assert!(!imp.is_cpu_fallback());
        let iface = TaskInterface {
            identifier: "I".into(),
            implementations: vec![imp],
        };
        assert!(!iface.has_cpu_fallback());
    }
}
