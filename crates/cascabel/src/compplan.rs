//! Compilation/link-plan derivation (paper §IV-C step 4).
//!
//! "After all required source-files have been constructed, platform
//! specific compilers (e.g., nvcc, gcc-spu, xlc) produce one or more
//! executables. The required compilation and linking plan is derived from
//! information available in the platform description file."
//!
//! The planner groups output files by the architecture of the PUs selected
//! to run them, reads each architecture's `COMPILER`/`LINK_LIBS` properties
//! from the PDL, and emits an ordered plan of compile steps plus one link
//! step.

use pdl_core::platform::Platform;
use pdl_core::wellknown;
use std::collections::BTreeMap;
use std::fmt;

/// One compiler invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileStep {
    /// Architecture the step targets (`x86`, `gpu`, `spe`).
    pub arch: String,
    /// Compiler executable from the PDL `COMPILER` property
    /// (default `cc`).
    pub compiler: String,
    /// Source files fed to this step.
    pub sources: Vec<String>,
    /// Object file produced.
    pub object: String,
}

/// The final link invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStep {
    /// Linker driver (host architecture's compiler).
    pub linker: String,
    /// Objects from all compile steps.
    pub objects: Vec<String>,
    /// Libraries from the PDL `LINK_LIBS` properties plus the runtime.
    pub libraries: Vec<String>,
    /// Output executable name.
    pub output: String,
}

/// A complete compilation plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilationPlan {
    /// Compile steps, one per architecture with sources.
    pub compiles: Vec<CompileStep>,
    /// The link step.
    pub link: LinkStep,
}

impl fmt::Display for CompilationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.compiles {
            writeln!(
                f,
                "{} -c {} -o {}",
                c.compiler,
                c.sources.join(" "),
                c.object
            )?;
        }
        writeln!(
            f,
            "{} {} {} -o {}",
            self.link.linker,
            self.link.objects.join(" "),
            self.link
                .libraries
                .iter()
                .map(|l| format!("-l{l}"))
                .collect::<Vec<_>>()
                .join(" "),
            self.link.output
        )
    }
}

/// Derives the plan: `sources_by_arch` maps architecture → generated source
/// files; compiler names come from the first PU of each architecture that
/// declares a `COMPILER` property.
pub(crate) fn derive_plan(
    platform: &Platform,
    sources_by_arch: &BTreeMap<String, Vec<String>>,
    output: &str,
) -> CompilationPlan {
    // arch → compiler from PDL.
    let mut compiler_of: BTreeMap<String, String> = BTreeMap::new();
    let mut libs: Vec<String> = Vec::new();
    for (_, pu) in platform.dfs() {
        if let (Some(arch), Some(compiler)) =
            (pu.architecture(), pu.descriptor.value(wellknown::COMPILER))
        {
            compiler_of
                .entry(arch.to_string())
                .or_insert_with(|| compiler.to_string());
        }
        if let Some(l) = pu.descriptor.value(wellknown::LINK_LIBS) {
            for lib in l.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !libs.contains(&lib.to_string()) {
                    libs.push(lib.to_string());
                }
            }
        }
    }
    // The runtime system named in the PDL is linked in.
    if let Some(rt) = platform
        .dfs()
        .find_map(|(_, pu)| pu.descriptor.value(wellknown::RUNTIME_SYSTEM))
    {
        let lib = rt.to_ascii_lowercase();
        if !libs.contains(&lib) {
            libs.push(lib);
        }
    }

    let mut compiles = Vec::new();
    for (arch, sources) in sources_by_arch {
        if sources.is_empty() {
            continue;
        }
        let compiler = compiler_of
            .get(arch)
            .cloned()
            .unwrap_or_else(|| "cc".to_string());
        compiles.push(CompileStep {
            arch: arch.clone(),
            compiler,
            object: format!("{output}_{arch}.o"),
            sources: sources.clone(),
        });
    }

    // Host linker: x86 compiler if present, else first compile step's, else cc.
    let linker = compiler_of
        .get("x86")
        .cloned()
        .or_else(|| compiles.first().map(|c| c.compiler.clone()))
        .unwrap_or_else(|| "cc".to_string());

    CompilationPlan {
        link: LinkStep {
            linker,
            objects: compiles.iter().map(|c| c.object.clone()).collect(),
            libraries: libs,
            output: output.to_string(),
        },
        compiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_discover::synthetic;

    fn sources(pairs: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        pairs
            .iter()
            .map(|(a, s)| {
                (
                    a.to_string(),
                    s.iter().map(std::string::ToString::to_string).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn testbed_plan_uses_pdl_compilers() {
        let p = synthetic::xeon_2gpu_testbed();
        let plan = derive_plan(
            &p,
            &sources(&[("x86", &["main_cpu.c"]), ("gpu", &["dgemm_kernel.cu"])]),
            "dgemm_starpu",
        );
        assert_eq!(plan.compiles.len(), 2);
        let gpu = plan.compiles.iter().find(|c| c.arch == "gpu").unwrap();
        assert_eq!(gpu.compiler, "nvcc"); // from the GPU PUDescriptor
        let cpu = plan.compiles.iter().find(|c| c.arch == "x86").unwrap();
        assert_eq!(cpu.compiler, "gcc"); // from the host PUDescriptor
        assert_eq!(plan.link.linker, "gcc");
        // Runtime system from the PDL is linked.
        assert!(plan.link.libraries.contains(&"starpu".to_string()));
        assert_eq!(plan.link.objects.len(), 2);
        assert_eq!(plan.link.output, "dgemm_starpu");
    }

    #[test]
    fn cell_plan_uses_xlc_and_spu_gcc() {
        let p = synthetic::cell_be();
        let plan = derive_plan(
            &p,
            &sources(&[("ppe", &["main_ppe.c"]), ("spe", &["kernel_spe.c"])]),
            "app",
        );
        let ppe = plan.compiles.iter().find(|c| c.arch == "ppe").unwrap();
        assert_eq!(ppe.compiler, "xlc");
        let spe = plan.compiles.iter().find(|c| c.arch == "spe").unwrap();
        assert_eq!(spe.compiler, "gcc-spu");
    }

    #[test]
    fn unknown_arch_falls_back_to_cc() {
        let p = synthetic::xeon_x5550_host();
        let plan = derive_plan(&p, &sources(&[("fpga", &["bitstream.c"])]), "x");
        assert_eq!(plan.compiles[0].compiler, "cc");
    }

    #[test]
    fn empty_sources_skipped() {
        let p = synthetic::xeon_x5550_host();
        let plan = derive_plan(&p, &sources(&[("x86", &[])]), "x");
        assert!(plan.compiles.is_empty());
        assert_eq!(plan.link.linker, "gcc"); // still derived from PDL
    }

    #[test]
    fn display_renders_shell_like_plan() {
        let p = synthetic::xeon_2gpu_testbed();
        let plan = derive_plan(&p, &sources(&[("x86", &["a.c"])]), "out");
        let text = plan.to_string();
        assert!(text.contains("gcc -c a.c -o out_x86.o"));
        assert!(text.contains("-lstarpu"));
        assert!(text.contains("-o out"));
    }
}
