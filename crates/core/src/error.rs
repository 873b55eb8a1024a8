//! Error types for the machine model.

use crate::id::{PuId, PuIdx};
use std::fmt;

/// A single structural problem found by validation.
///
/// Each variant corresponds to one of the structural rules of §III-A of the
/// paper (Master at top level only, Workers at leaves, Hybrids controlled,
/// …) or to a referential-integrity rule required for the description to be
/// processable by tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationIssue {
    /// Two PUs share an id.
    DuplicatePuId(PuId),
    /// A PU has an empty id.
    EmptyPuId(PuIdx),
    /// A Master PU appears below the top level.
    MasterNotTopLevel(PuId),
    /// A Worker PU has children (must be a leaf).
    WorkerHasChildren(PuId),
    /// A Worker or Hybrid PU has no controlling parent.
    Uncontrolled(PuId),
    /// A Hybrid PU at the top level (must be controlled by Master/Hybrid).
    HybridNotControlled(PuId),
    /// `quantity="0"` — at least one unit must exist.
    ZeroQuantity(PuId),
    /// An interconnect endpoint references an unknown PU id.
    DanglingInterconnect {
        /// The unresolved endpoint id.
        endpoint: PuId,
        /// Index of the interconnect in the platform's list.
        ic_index: usize,
    },
    /// An interconnect connects a PU to itself.
    SelfLoopInterconnect {
        /// The PU both ends reference.
        endpoint: PuId,
        /// Index of the interconnect in the platform's list.
        ic_index: usize,
    },
    /// Duplicate memory-region id within one PU.
    DuplicateMemoryRegion {
        /// The owning PU.
        pu: PuId,
        /// The repeated MR id.
        mr: String,
    },
    /// A logic group with an empty name.
    EmptyGroupName(PuId),
    /// A property with an empty name.
    EmptyPropertyName(PuId),
    /// A *fixed* property with an empty value — fixed values are platform
    /// facts and may not be placeholders.
    FixedPropertyWithoutValue {
        /// The owning PU.
        pu: PuId,
        /// The property name.
        property: String,
    },
}

impl ValidationIssue {
    /// The stable diagnostic code for this issue (the `P0xx` range of the
    /// shared code space in [`crate::diag`]).
    pub(crate) fn code(&self) -> &'static str {
        use ValidationIssue::*;
        match self {
            DuplicatePuId(_) => "P001",
            EmptyPuId(_) => "P002",
            MasterNotTopLevel(_) => "P003",
            WorkerHasChildren(_) => "P004",
            Uncontrolled(_) => "P005",
            HybridNotControlled(_) => "P006",
            ZeroQuantity(_) => "P007",
            DanglingInterconnect { .. } => "P008",
            SelfLoopInterconnect { .. } => "P009",
            DuplicateMemoryRegion { .. } => "P010",
            EmptyGroupName(_) => "P011",
            EmptyPropertyName(_) => "P012",
            FixedPropertyWithoutValue { .. } => "P013",
        }
    }

    /// The PU id (or interconnect endpoint id) this issue is about, when it
    /// has one — used as the diagnostic subject.
    pub(crate) fn subject(&self) -> Option<&str> {
        use ValidationIssue::*;
        match self {
            DuplicatePuId(id)
            | MasterNotTopLevel(id)
            | WorkerHasChildren(id)
            | Uncontrolled(id)
            | HybridNotControlled(id)
            | ZeroQuantity(id)
            | EmptyGroupName(id)
            | EmptyPropertyName(id) => Some(id.as_str()),
            DanglingInterconnect { endpoint, .. } | SelfLoopInterconnect { endpoint, .. } => {
                Some(endpoint.as_str())
            }
            DuplicateMemoryRegion { pu, .. } | FixedPropertyWithoutValue { pu, .. } => {
                Some(pu.as_str())
            }
            EmptyPuId(_) => None,
        }
    }

    /// Converts the issue into a [`crate::diag::Diagnostic`] (always an
    /// error — §III-A rules are hard requirements).
    pub(crate) fn to_diagnostic(&self) -> crate::diag::Diagnostic {
        let mut d = crate::diag::Diagnostic::error(self.code(), self.to_string());
        if let Some(s) = self.subject() {
            d = d.with_subject(s);
        }
        d
    }
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidationIssue::*;
        match self {
            DuplicatePuId(id) => write!(f, "duplicate PU id {id:?}"),
            EmptyPuId(idx) => write!(f, "PU at arena index {idx} has an empty id"),
            MasterNotTopLevel(id) => write!(
                f,
                "Master PU {id:?} is not at the top level (Masters can only be defined on the highest hierarchical level)"
            ),
            WorkerHasChildren(id) => write!(
                f,
                "Worker PU {id:?} has children (Workers are leaf nodes and cannot control other PUs)"
            ),
            Uncontrolled(id) => write!(
                f,
                "PU {id:?} must be controlled by a Master or Hybrid PU but has no parent"
            ),
            HybridNotControlled(id) => write!(
                f,
                "Hybrid PU {id:?} is at the top level; Hybrids must always be controlled by Master or Hybrid units"
            ),
            ZeroQuantity(id) => write!(f, "PU {id:?} has quantity 0"),
            DanglingInterconnect { endpoint, ic_index } => write!(
                f,
                "interconnect #{ic_index} references unknown PU id {endpoint:?}"
            ),
            SelfLoopInterconnect { endpoint, ic_index } => write!(
                f,
                "interconnect #{ic_index} connects PU {endpoint:?} to itself"
            ),
            DuplicateMemoryRegion { pu, mr } => {
                write!(f, "PU {pu:?} declares memory region {mr:?} more than once")
            }
            EmptyGroupName(id) => write!(f, "PU {id:?} has an empty logic-group name"),
            EmptyPropertyName(id) => write!(f, "PU {id:?} has a property with an empty name"),
            FixedPropertyWithoutValue { pu, property } => write!(
                f,
                "PU {pu:?}: fixed property {property:?} has an empty value (only unfixed properties may be placeholders)"
            ),
        }
    }
}

/// Errors produced by the machine-model API.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Validation found one or more structural issues.
    Invalid(Vec<ValidationIssue>),
    /// A lookup referenced an unknown PU id.
    UnknownPu(PuId),
    /// A builder operation referenced a handle from another builder, or a
    /// parent that cannot control children.
    BadHandle(String),
    /// Attempt to attach a child to a PU class that may not control
    /// (i.e. a Worker).
    CannotControl {
        /// The would-be parent.
        parent: PuId,
        /// Its class (always `Worker` in practice).
        class: crate::pu::PuClass,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Invalid(issues) => {
                writeln!(
                    f,
                    "platform description is invalid ({} issues):",
                    issues.len()
                )?;
                for issue in issues {
                    writeln!(f, "  - {issue}")?;
                }
                Ok(())
            }
            ModelError::UnknownPu(id) => write!(f, "unknown PU id {id:?}"),
            ModelError::BadHandle(msg) => write!(f, "bad builder handle: {msg}"),
            ModelError::CannotControl { parent, class } => write!(
                f,
                "PU {parent:?} of class {class} cannot control other processing units"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_messages_are_informative() {
        let i = ValidationIssue::MasterNotTopLevel(PuId::new("3"));
        assert!(i.to_string().contains("highest hierarchical level"));
        let i = ValidationIssue::WorkerHasChildren(PuId::new("w"));
        assert!(i.to_string().contains("leaf"));
    }

    #[test]
    fn model_error_aggregates_issues() {
        let e = ModelError::Invalid(vec![
            ValidationIssue::ZeroQuantity(PuId::new("a")),
            ValidationIssue::EmptyGroupName(PuId::new("b")),
        ]);
        let msg = e.to_string();
        assert!(msg.contains("2 issues"));
        assert!(msg.contains("quantity 0"));
        assert!(msg.contains("logic-group"));
    }
}
