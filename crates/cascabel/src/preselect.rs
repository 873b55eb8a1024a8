//! Static task pre-selection against a target PDL descriptor
//! (paper §IV-C step 2).
//!
//! "The platform patterns specified for available task implementation
//! variants are compared to the platform description of the target
//! environment. This serves pre-pruning of task variants not suitable for
//! the target as well as static mapping of tasks to potentially available
//! hardware resources."

use crate::repository::{TaskImpl, TaskInterface, TaskRepository};
use pdl_core::platform::Platform;
use pdl_query::capability::{Requirement, RequirementSet};
use std::fmt;

/// Decision for one implementation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantDecision {
    /// Implementation name.
    pub implementation: String,
    /// Kept (true) or pruned (false).
    pub kept: bool,
    /// PU ids the variant can run on (empty if pruned).
    pub eligible_pus: Vec<String>,
    /// Human-readable reason when pruned.
    pub reason: Option<String>,
}

/// Pre-selection result for one interface.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceSelection {
    /// Interface identifier.
    pub interface: String,
    /// Per-variant decisions, in registration order.
    pub decisions: Vec<VariantDecision>,
}

impl InterfaceSelection {
    /// Names of kept variants.
    pub fn kept(&self) -> impl Iterator<Item = &str> {
        self.decisions
            .iter()
            .filter(|d| d.kept)
            .map(|d| d.implementation.as_str())
    }

    /// Number of pruned variants.
    pub fn pruned_count(&self) -> usize {
        self.decisions.iter().filter(|d| !d.kept).count()
    }
}

/// Errors of pre-selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreselectError {
    /// No variant of the interface can run anywhere on the target and there
    /// is no sequential fall-back to keep the program compilable (§IV-C:
    /// "This ensures the application can always be compiled for a Master PU").
    NoVariantForTarget {
        /// The interface.
        interface: String,
        /// Target platform name.
        platform: String,
    },
}

impl fmt::Display for PreselectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreselectError::NoVariantForTarget {
                interface,
                platform,
            } => write!(
                f,
                "no implementation variant of {interface:?} can execute on platform {platform:?} and no sequential fall-back exists"
            ),
        }
    }
}

impl std::error::Error for PreselectError {}

/// The requirement set a variant imposes on a PU, derived from its target
/// platforms.
pub(crate) fn variant_requirements(imp: &TaskImpl) -> Vec<RequirementSet> {
    imp.arch_requirements()
        .into_iter()
        .map(|(arch, sw)| {
            let mut set = RequirementSet::new().with(Requirement::Architecture(arch.to_string()));
            if let Some(sw) = sw {
                set = set.with(Requirement::SoftwarePlatform(sw.to_string()));
            }
            set
        })
        .collect()
}

/// Pre-selects variants of one interface for a target platform.
pub(crate) fn preselect_interface(
    interface: &TaskInterface,
    platform: &Platform,
) -> Result<InterfaceSelection, PreselectError> {
    let mut decisions = Vec::new();
    // Which PUs the current variant already lists, by arena index.
    let mut listed = vec![false; platform.len()];
    for imp in &interface.implementations {
        listed.fill(false);
        let mut eligible: Vec<String> = Vec::new();
        for set in variant_requirements(imp) {
            for (idx, pu) in set.matches(platform) {
                if !std::mem::replace(&mut listed[idx.index()], true) {
                    eligible.push(pu.id.as_str().to_string());
                }
            }
        }
        let kept = !eligible.is_empty();
        decisions.push(VariantDecision {
            implementation: imp.name.clone(),
            kept,
            reason: if kept {
                None
            } else {
                Some(format!(
                    "no PU on {:?} satisfies targets {:?}",
                    platform.name, imp.target_platforms
                ))
            },
            eligible_pus: eligible,
        });
    }
    if decisions.iter().all(|d| !d.kept) {
        return Err(PreselectError::NoVariantForTarget {
            interface: interface.identifier.clone(),
            platform: platform.name.clone(),
        });
    }
    Ok(InterfaceSelection {
        interface: interface.identifier.clone(),
        decisions,
    })
}

/// Pre-selects all interfaces of a repository.
///
/// Interfaces with *no* runnable variant are not an error here — the
/// repository may hold implementations for programs other than the one
/// being compiled. They are returned with every variant pruned; invoking
/// such an interface surfaces as a mapping error
/// ([`crate::mapping::MappingError::EmptyMapping`]).
pub fn preselect(repository: &TaskRepository, platform: &Platform) -> Vec<InterfaceSelection> {
    repository
        .interfaces()
        .map(|i| match preselect_interface(i, platform) {
            Ok(sel) => sel,
            Err(PreselectError::NoVariantForTarget { .. }) => InterfaceSelection {
                interface: i.identifier.clone(),
                decisions: i
                    .implementations
                    .iter()
                    .map(|imp| VariantDecision {
                        implementation: imp.name.clone(),
                        kept: false,
                        eligible_pus: Vec::new(),
                        reason: Some(format!(
                            "no PU on {:?} satisfies targets {:?}",
                            platform.name, imp.target_platforms
                        )),
                    })
                    .collect(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{ImplOrigin, TaskRepository};
    use hetero_rt::data::AccessMode;
    use pdl_discover::synthetic;

    fn repo() -> TaskRepository {
        TaskRepository::with_builtin_expert_variants()
    }

    #[test]
    fn gpu_variants_pruned_on_cpu_only_target() {
        let sel = preselect(&repo(), &synthetic::xeon_x5550_host());
        let dgemm = sel.iter().find(|s| s.interface == "I_dgemm").unwrap();
        let kept: Vec<&str> = dgemm.kept().collect();
        assert_eq!(kept, ["dgemm_gotoblas"]);
        assert_eq!(dgemm.pruned_count(), 2);
        let cublas = dgemm
            .decisions
            .iter()
            .find(|d| d.implementation == "dgemm_cublas")
            .unwrap();
        assert!(!cublas.kept);
        assert!(cublas.reason.as_ref().unwrap().contains("Cuda"));
    }

    #[test]
    fn gpu_variants_kept_on_gpu_target() {
        let sel = preselect(&repo(), &synthetic::xeon_2gpu_testbed());
        let dgemm = sel.iter().find(|s| s.interface == "I_dgemm").unwrap();
        let kept: Vec<&str> = dgemm.kept().collect();
        assert_eq!(kept.len(), 3);
        let cublas = dgemm
            .decisions
            .iter()
            .find(|d| d.implementation == "dgemm_cublas")
            .unwrap();
        assert_eq!(cublas.eligible_pus, ["gpu0", "gpu1"]);
        let goto = dgemm
            .decisions
            .iter()
            .find(|d| d.implementation == "dgemm_gotoblas")
            .unwrap();
        // host Master (the guaranteed fall-back location) + 6 CPU workers
        assert_eq!(goto.eligible_pus.len(), 7);
    }

    #[test]
    fn cell_target_selects_nothing_gpu() {
        // The Cell has a PPE master (arch "ppe") and SPE workers — no "x86"
        // PU, so the dgemm interface has no runnable variant: the strict
        // per-interface check errors (fall-back guarantee violated) …
        let r = repo();
        let iface = r.interface("I_dgemm").unwrap();
        let err = preselect_interface(iface, &synthetic::cell_be()).unwrap_err();
        assert!(matches!(err, PreselectError::NoVariantForTarget { .. }));
        assert!(err.to_string().contains("fall-back"));
        // … while whole-repository preselection records it as all-pruned.
        let sel = preselect(&r, &synthetic::cell_be());
        let dgemm = sel.iter().find(|s| s.interface == "I_dgemm").unwrap();
        assert_eq!(dgemm.kept().count(), 0);
    }

    #[test]
    fn cell_variant_selected_on_cell() {
        let mut r = TaskRepository::new();
        r.register_expert(
            "I_dgemm",
            crate::repository::TaskImpl {
                name: "dgemm_spe".into(),
                target_platforms: vec!["CellSDK".into()],
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
        .unwrap();
        let sel = preselect(&r, &synthetic::cell_be());
        let d = &sel[0].decisions[0];
        assert!(d.kept);
        assert_eq!(d.eligible_pus.len(), 8); // all SPEs
    }

    #[test]
    fn varying_pdl_changes_selection_without_changing_program() {
        // The paper's headline property: same repository (= same input
        // program), different PDL descriptor → different selected variants.
        let r = repo();
        let cpu_sel = preselect(&r, &synthetic::xeon_x5550_host());
        let gpu_sel = preselect(&r, &synthetic::xeon_2gpu_testbed());
        let kept =
            |sel: &[InterfaceSelection]| -> usize { sel.iter().map(|s| s.kept().count()).sum() };
        assert!(kept(&gpu_sel) > kept(&cpu_sel));
    }

    #[test]
    fn requirement_derivation() {
        let imp = crate::repository::TaskImpl {
            name: "x".into(),
            target_platforms: vec!["Cuda".into(), "x86".into()],
            params: vec![],
            source: String::new(),
            origin: ImplOrigin::Repository,
            speedup: 1.0,
        };
        let reqs = variant_requirements(&imp);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].requirements.len(), 2); // arch + software platform
        assert_eq!(reqs[1].requirements.len(), 1); // arch only
    }
}
