//! Model-checking findings: the `M0xx` diagnostic family.
//!
//! This module drives `hetero-model`'s exhaustive explorer over bounded
//! coherence configurations drawn from real platform descriptions, and
//! renders any invariant violation as a stable M-series [`Diagnostic`]
//! whose notes carry the *minimized* counterexample trace:
//!
//! * `M000` — the exploration hit the state cap before the bounded space
//!   was enumerated: nothing was violated, and nothing was proved.
//! * `M001` — single-writer broken: a finished write left other copies
//!   valid.
//! * `M002` — lost update: a stale copy is exposed as valid.
//! * `M003` — vanished copy: a handle is valid nowhere.
//! * `M004` — probe/charge drift: the side-effect-free estimate differs
//!   from what commit charged.
//! * `M005` — non-monotone staging: committing transfers removed validity.
//!
//! `pdl model-check` and `tests/model_check.rs` call [`bounded_configs`] +
//! [`check_configs`]; [`model_check_json`] produces the schema-versioned
//! machine-readable report CI archives.

use hetero_model::explore::{explore, Bounds, Exploration, Invariant, Violation};
use hetero_model::model::{Model, Mutation};
use hetero_rt::data::model_topo;
use hetero_trace::json::Json;
use pdl_core::diag::{Diagnostic, Report};
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

/// Version tag of the JSON report emitted by [`model_check_json`]. Bump on
/// any structural change; CI consumers pin against it.
pub(crate) const MODEL_CHECK_SCHEMA: &str = "pdl-model-check/1";

/// One bounded configuration the checker explores: a name for reports plus
/// the model (one per-handle topology each, same device set).
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Stable configuration name (platform + handle shapes).
    pub name: String,
    /// The model to explore.
    pub model: Model,
}

/// Result of exploring one configuration.
#[derive(Debug, Clone)]
pub struct ModelCheckOutcome {
    /// Which configuration ran.
    pub config: String,
    /// Reached states, transitions, completeness and any violation.
    pub exploration: Exploration,
}

/// The bounded configurations `pdl model-check` and the tests explore:
/// 3 devices (cpu0 sharing host memory, two `PCIe` GPUs) × 2 handles of
/// different sizes, once over the plain `PCIe` testbed and once over its
/// `NVLink` variant (which adds the peer route the `Routing::PeerToPeer`
/// arm needs).
///
/// The topologies are projected from the same synthetic platform
/// descriptions the rest of the test suite uses, through the same
/// `SimMachine` cost model the runtime plans with — so the explored costs
/// are the shipped costs.
pub fn bounded_configs() -> Vec<ModelConfig> {
    let mut configs = Vec::new();
    for (name, platform) in [
        ("xeon-2gpu-pcie", synthetic::xeon_2gpu_testbed()),
        ("xeon-2gpu-nvlink", synthetic::xeon_2gpu_nvlink_testbed()),
    ] {
        let machine = SimMachine::from_platform(&platform);
        let devices: Vec<_> = ["cpu0", "gpu0", "gpu1"]
            .iter()
            .map(|pu| {
                machine
                    .device_by_pu(pu)
                    .unwrap_or_else(|| panic!("synthetic testbed is missing {pu}"))
                    .id
            })
            .collect();
        // Two handles with visibly different sizes: a large datum where
        // transfer choice dominates and a small one where latency does.
        let topos = [600e6, 1e6]
            .iter()
            .map(|&size| model_topo(&machine, name, &devices, size))
            .collect();
        configs.push(ModelConfig {
            name: name.to_string(),
            model: Model::new(topos),
        });
    }
    configs
}

/// Renders one violation as its stable M-series diagnostic, the minimized
/// counterexample trace attached as notes.
pub(crate) fn violation_to_diagnostic(config: &str, violation: &Violation) -> Diagnostic {
    let mut d = Diagnostic::error(violation.invariant.code(), violation.detail.clone())
        .with_subject(config.to_string())
        .with_note(format!(
            "invariant `{}` violated in config `{config}`",
            violation.invariant
        ))
        .with_note(format!(
            "minimized counterexample ({} action{}):",
            violation.trace.len(),
            if violation.trace.len() == 1 { "" } else { "s" }
        ));
    for (i, action) in violation.trace.iter().enumerate() {
        d = d.with_note(format!("  {}. {action}", i + 1));
    }
    d
}

/// Explores every configuration under `bounds` (with `mutation` injected,
/// [`Mutation::None`] for the faithful protocol), collecting violations
/// into a report and per-config statistics into outcomes. An exploration
/// the state cap stopped before it found a violation is an `M000` error:
/// an unfinished search must not read as a pass.
pub fn check_configs(
    configs: &[ModelConfig],
    bounds: &Bounds,
    mutation: Mutation,
) -> (Report, Vec<ModelCheckOutcome>) {
    let mut report = Report::new();
    let mut outcomes = Vec::new();
    for config in configs {
        let model = config.model.clone().with_mutation(mutation);
        let exploration = explore(&model, bounds);
        if let Some(v) = &exploration.violation {
            report.push(violation_to_diagnostic(&config.name, v));
        } else if !exploration.complete {
            report.push(
                Diagnostic::error(
                    "M000",
                    format!(
                        "exploration incomplete: {} states reached, state cap is {}",
                        exploration.states, bounds.max_states
                    ),
                )
                .with_subject(config.name.clone()),
            );
        }
        outcomes.push(ModelCheckOutcome {
            config: config.name.clone(),
            exploration,
        });
    }
    (report, outcomes)
}

/// The schema-versioned machine-readable report `pdl model-check --json`
/// writes and CI archives: totals, per-config statistics, per-invariant
/// status and the violation (if any) with its minimized trace. An
/// invariant is `"ok"` only when every config was explored to the end;
/// otherwise it is `"violated"` or, with nothing found, `"incomplete"`.
pub fn model_check_json(outcomes: &[ModelCheckOutcome], elapsed_seconds: f64) -> Json {
    let violations: Vec<(&str, &Violation)> = outcomes
        .iter()
        .filter_map(|o| Some((o.config.as_str(), o.exploration.violation.as_ref()?)))
        .collect();
    let all_complete = outcomes.iter().all(|o| o.exploration.complete);

    let invariants = Invariant::ALL
        .iter()
        .map(|inv| {
            let status = if violations.iter().any(|(_, v)| v.invariant == *inv) {
                "violated"
            } else if all_complete {
                "ok"
            } else {
                "incomplete"
            };
            Json::Obj(vec![
                ("code".into(), Json::str(inv.code())),
                ("name".into(), Json::str(inv.name())),
                ("status".into(), Json::str(status)),
            ])
        })
        .collect();

    let configs = outcomes
        .iter()
        .map(|o| {
            let ex = &o.exploration;
            let mut members = vec![
                ("name".into(), Json::str(o.config.clone())),
                ("states".into(), Json::Num(ex.states as f64)),
                ("transitions".into(), Json::Num(ex.transitions as f64)),
                ("complete".into(), Json::Bool(ex.complete)),
            ];
            members.push(match &ex.violation {
                None => ("violation".into(), Json::Null),
                Some(v) => (
                    "violation".into(),
                    Json::Obj(vec![
                        ("code".into(), Json::str(v.invariant.code())),
                        ("invariant".into(), Json::str(v.invariant.name())),
                        ("detail".into(), Json::str(v.detail.clone())),
                        (
                            "trace".into(),
                            Json::Arr(v.trace.iter().map(|a| Json::str(a.to_string())).collect()),
                        ),
                    ]),
                ),
            });
            Json::Obj(members)
        })
        .collect();

    Json::Obj(vec![
        ("schema".into(), Json::str(MODEL_CHECK_SCHEMA)),
        ("elapsed_seconds".into(), Json::Num(elapsed_seconds)),
        (
            "states".into(),
            Json::Num(outcomes.iter().map(|o| o.exploration.states).sum::<usize>() as f64),
        ),
        (
            "transitions".into(),
            Json::Num(
                outcomes
                    .iter()
                    .map(|o| o.exploration.transitions)
                    .sum::<usize>() as f64,
            ),
        ),
        ("violations".into(), Json::Num(violations.len() as f64)),
        ("invariants".into(), Json::Arr(invariants)),
        ("configs".into(), Json::Arr(configs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_bounds() -> Bounds {
        Bounds {
            max_pending: 1,
            max_states: 1 << 20,
        }
    }

    #[test]
    fn faithful_configs_check_clean() {
        let configs = bounded_configs();
        assert_eq!(configs.len(), 2);
        let (report, outcomes) = check_configs(&configs, &quick_bounds(), Mutation::None);
        assert!(report.is_empty(), "{}", report.render());
        assert!(outcomes.iter().all(|o| o.exploration.complete));
        // The NVLink variant declares a peer route the PCIe one lacks, so
        // their topologies genuinely differ.
        assert!(configs[0].model.topos[0].peer_cost.is_empty());
        assert!(!configs[1].model.topos[0].peer_cost.is_empty());
    }

    #[test]
    fn injected_single_writer_bug_renders_m001() {
        let configs = bounded_configs();
        let (report, outcomes) =
            check_configs(&configs, &quick_bounds(), Mutation::SkipWriteInvalidate);
        assert_eq!(report.codes(), ["M001", "M001"]); // both configs catch it
        let d = report.iter().next().unwrap();
        assert!(d.message.contains("write-invalidate"), "{}", d.message);
        // The notes carry the minimized 2-action counterexample.
        assert!(d.notes.iter().any(|n| n.contains("2 actions")), "{d:?}");
        assert!(d.notes.iter().any(|n| n.contains("acquire")), "{d:?}");
        assert!(d.notes.iter().any(|n| n.contains("finish")), "{d:?}");
        assert!(outcomes[0].exploration.violation.is_some());
    }

    #[test]
    fn capped_exploration_is_m000_not_a_pass() {
        let capped = Bounds {
            max_pending: 1,
            max_states: 100,
        };
        let (report, outcomes) = check_configs(&bounded_configs(), &capped, Mutation::None);
        assert_eq!(report.codes(), ["M000", "M000"]);
        let d = report.iter().next().unwrap();
        assert_eq!(d.subject.as_deref(), Some("xeon-2gpu-pcie"));
        assert!(d.message.contains("state cap is 100"), "{}", d.message);
        assert!(outcomes.iter().all(|o| !o.exploration.complete));
        // No invariant was proved, and the report says so.
        let json = model_check_json(&outcomes, 0.0);
        let invs = json.get("invariants").unwrap().items();
        assert!(invs
            .iter()
            .all(|i| i.get("status").and_then(Json::as_str) == Some("incomplete")));
        assert_eq!(json.get("violations").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn json_report_is_schema_versioned_and_complete() {
        let configs = bounded_configs();
        let (_, outcomes) = check_configs(&configs, &quick_bounds(), Mutation::None);
        let text = model_check_json(&outcomes, 1.25).to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(MODEL_CHECK_SCHEMA)
        );
        assert_eq!(parsed.get("violations").and_then(Json::as_u64), Some(0));
        let invs = parsed.get("invariants").unwrap().items();
        assert_eq!(invs.len(), 5);
        assert!(invs
            .iter()
            .all(|i| i.get("status").and_then(Json::as_str) == Some("ok")));
        let cfgs = parsed.get("configs").unwrap().items();
        assert_eq!(cfgs.len(), 2);
        for c in cfgs {
            assert!(c.get("states").and_then(Json::as_u64).unwrap() > 100);
            assert_eq!(c.get("complete"), Some(&Json::Bool(true)));
            assert_eq!(c.get("violation"), Some(&Json::Null));
        }
    }

    #[test]
    fn json_report_carries_violation_trace() {
        let configs = bounded_configs();
        let (_, outcomes) = check_configs(&configs, &quick_bounds(), Mutation::UnderCharge);
        let parsed = Json::parse(&model_check_json(&outcomes, 0.5).to_pretty()).unwrap();
        assert_eq!(parsed.get("violations").and_then(Json::as_u64), Some(2));
        let v = parsed.get("configs").unwrap().items()[0]
            .get("violation")
            .unwrap()
            .clone();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("M004"));
        assert_eq!(v.get("trace").unwrap().items().len(), 1);
    }
}
