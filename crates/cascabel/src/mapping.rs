//! Task mapping: execution groups → processing-unit subsets (paper §IV-B).
//!
//! "The execute annotation enables via the `LogicGroupAttribute` the
//! specification of execution groups for denoting sub-parts of a
//! heterogeneous platform where specific tasks are intended to execute."
//! The mapper resolves each call-site's execution group against the target
//! PDL (group set-expressions from `pdl-query` are accepted), intersects it
//! with the PUs the selected variants can actually run on, and reports the
//! static mapping a compiler or runtime refines further.

use crate::ast::TaskCall;
use crate::preselect::InterfaceSelection;
use hetero_rt::thread_engine::Placement;
use pdl_core::platform::Platform;
use pdl_query::groups;
use std::collections::BTreeSet;
use std::fmt;

/// Static mapping for one annotated call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallMapping {
    /// The task interface invoked.
    pub interface: String,
    /// The execution group named in the annotation (empty = whole platform).
    pub execution_group: String,
    /// PU ids the call may run on: (group members ∪ whole platform when no
    /// group) ∩ variant-eligible PUs.
    pub target_pus: Vec<String>,
    /// Implementation variants usable on at least one target PU.
    pub usable_variants: Vec<String>,
}

/// Mapping errors.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingError {
    /// The execution group expression failed to parse/resolve.
    BadGroup {
        /// The group expression.
        group: String,
        /// Resolver message.
        message: String,
    },
    /// The group exists but contains no PU able to run any kept variant.
    EmptyMapping {
        /// The interface.
        interface: String,
        /// The group.
        group: String,
    },
    /// The call references an interface with no pre-selection result
    /// (unknown task identifier).
    UnknownInterface(String),
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::BadGroup { group, message } => {
                write!(f, "cannot resolve execution group {group:?}: {message}")
            }
            MappingError::EmptyMapping { interface, group } => write!(
                f,
                "execution group {group:?} contains no processing unit able to run any variant of {interface:?}"
            ),
            MappingError::UnknownInterface(i) => {
                write!(f, "execute annotation references unknown task interface {i:?}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Maps one call site.
pub fn map_call(
    call: &TaskCall,
    selections: &[InterfaceSelection],
    platform: &Platform,
) -> Result<CallMapping, MappingError> {
    let interface = &call.pragma.task_identifier;
    let selection = selections
        .iter()
        .find(|s| &s.interface == interface)
        .ok_or_else(|| MappingError::UnknownInterface(interface.clone()))?;

    // Group scope: named group (set expression allowed) or whole platform.
    let group = call.pragma.execution_group.clone();
    let scope: BTreeSet<&str> = if group.is_empty() {
        platform.iter().map(|(_, pu)| pu.id.as_str()).collect()
    } else {
        let idxs = groups::resolve(platform, &group).map_err(|e| MappingError::BadGroup {
            group: group.clone(),
            message: e.to_string(),
        })?;
        idxs.into_iter()
            .map(|i| platform.pu(i).id.as_str())
            .collect()
    };

    // Ids are compared borrowed; each target is copied once, the first
    // time a kept variant can use it.
    let mut targeted: BTreeSet<&str> = BTreeSet::new();
    let mut target_pus: Vec<String> = Vec::new();
    let mut usable_variants: Vec<String> = Vec::new();
    for d in selection.decisions.iter().filter(|d| d.kept) {
        let mut usable = false;
        for pu in d
            .eligible_pus
            .iter()
            .filter(|pu| scope.contains(pu.as_str()))
        {
            usable = true;
            if targeted.insert(pu) {
                target_pus.push(pu.clone());
            }
        }
        if usable {
            usable_variants.push(d.implementation.clone());
        }
    }

    if target_pus.is_empty() {
        return Err(MappingError::EmptyMapping {
            interface: interface.clone(),
            group,
        });
    }

    Ok(CallMapping {
        interface: interface.clone(),
        execution_group: group,
        target_pus,
        usable_variants,
    })
}

/// Derives a thread-engine [`Placement`] from a program's call mappings:
/// every distinct execution group named by an `execute` annotation becomes
/// one placement group with one worker thread per group-member PU.
///
/// This closes the loop the paper sketches between the platform description
/// and the runtime: logic groups authored in the PDL (§III-B) flow through
/// Cascabel annotations (§IV) into actual worker-thread affinity in
/// [`hetero_rt::thread_engine::ThreadedExecutor`]. Calls without a group
/// (whole-platform scope) contribute no placement group — their tasks run
/// anywhere.
pub fn thread_placement(
    mappings: &[CallMapping],
    platform: &Platform,
) -> Result<Placement, MappingError> {
    let mut placement = Placement::new();
    placement.platform = Some(platform.name.clone());
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for m in mappings {
        if m.execution_group.is_empty() || !seen.insert(&m.execution_group) {
            continue;
        }
        let members =
            groups::resolve(platform, &m.execution_group).map_err(|e| MappingError::BadGroup {
                group: m.execution_group.clone(),
                message: e.to_string(),
            })?;
        // Member PU ids label the trace lanes of an execution under this
        // placement (PDL identity end to end).
        let pu_ids: Vec<String> = members
            .iter()
            .map(|&idx| platform.pu(idx).id.as_str().to_string())
            .collect();
        placement = placement.with_group(&m.execution_group, members.len());
        if let Some(g) = placement.groups.last_mut() {
            g.members = pu_ids;
        }
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use crate::preselect::preselect;
    use crate::repository::TaskRepository;
    use pdl_discover::synthetic;

    fn call(src: &str) -> TaskCall {
        parse_program(src)
            .unwrap()
            .task_calls()
            .next()
            .unwrap()
            .clone()
    }

    fn setup(platform: &pdl_core::platform::Platform) -> Vec<InterfaceSelection> {
        preselect(&TaskRepository::with_builtin_expert_variants(), platform)
    }

    #[test]
    fn maps_to_gpu_group() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_dgemm : gpus (A:BLOCK:N)\ndgemm(A, B, C);");
        let m = map_call(&c, &sel, &p).unwrap();
        assert_eq!(m.target_pus, ["gpu0", "gpu1"]);
        assert!(m.usable_variants.contains(&"dgemm_cublas".to_string()));
        assert!(!m.usable_variants.contains(&"dgemm_gotoblas".to_string()));
    }

    #[test]
    fn maps_to_whole_platform_without_group() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_dgemm\ndgemm(A, B, C);");
        let m = map_call(&c, &sel, &p).unwrap();
        // host Master (fall-back location) + 6 CPU workers + 2 GPUs
        assert_eq!(m.target_pus.len(), 9);
        assert_eq!(m.usable_variants.len(), 3);
    }

    #[test]
    fn group_set_expression() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_dgemm : cpus+gpus\ndgemm(A, B, C);");
        let m = map_call(&c, &sel, &p).unwrap();
        assert_eq!(m.target_pus.len(), 8); // group scope excludes the Master
    }

    #[test]
    fn empty_group_mapping_is_error() {
        let p = synthetic::xeon_x5550_host(); // no "gpus" group
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_dgemm : gpus\ndgemm(A, B, C);");
        let err = map_call(&c, &sel, &p).unwrap_err();
        assert!(matches!(err, MappingError::EmptyMapping { .. }));
    }

    #[test]
    fn bad_group_expression_is_error() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_dgemm : @bogus\ndgemm(A, B, C);");
        let err = map_call(&c, &sel, &p).unwrap_err();
        assert!(matches!(err, MappingError::BadGroup { .. }));
    }

    #[test]
    fn unknown_interface_is_error() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_mystery : gpus\nmystery(A);");
        let err = map_call(&c, &sel, &p).unwrap_err();
        assert!(matches!(err, MappingError::UnknownInterface(_)));
    }

    #[test]
    fn thread_placement_from_mappings() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let prog = "#pragma cascabel execute I_dgemm : gpus (A:BLOCK:N)\n\
                    dgemm(A, B, C);\n\
                    #pragma cascabel execute I_dgemm : cpus\n\
                    dgemm(D, E, F);\n\
                    #pragma cascabel execute I_dgemm : gpus\n\
                    dgemm(G, H, I);\n";
        let mappings: Vec<CallMapping> = parse_program(prog)
            .unwrap()
            .task_calls()
            .map(|c| map_call(c, &sel, &p).unwrap())
            .collect();
        let placement = thread_placement(&mappings, &p).unwrap();
        // Duplicate "gpus" collapses; one worker per group member PU.
        assert_eq!(placement.groups.len(), 2);
        assert_eq!(placement.groups[0].name, "gpus");
        assert_eq!(placement.groups[0].workers, 2);
        assert_eq!(placement.groups[1].name, "cpus");
        assert_eq!(placement.groups[1].workers, 6);
        assert_eq!(placement.total_workers(), 8);
    }

    #[test]
    fn cpu_group_excludes_gpu_variants() {
        let p = synthetic::xeon_2gpu_testbed();
        let sel = setup(&p);
        let c = call("#pragma cascabel execute I_dgemm : cpus\ndgemm(A, B, C);");
        let m = map_call(&c, &sel, &p).unwrap();
        assert_eq!(m.usable_variants, ["dgemm_gotoblas"]);
        assert_eq!(m.target_pus.len(), 6);
    }
}
