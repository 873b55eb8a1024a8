//! Placement: the partition of the thread pool into named worker groups.

use super::ThreadEngineError;
use pdl_core::platform::Platform;

/// One named worker subset of a [`Placement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementGroup {
    /// Group name; tasks reference it via
    /// [`ThreadTask::in_group`](super::ThreadTask::in_group).
    pub name: String,
    /// Number of worker threads dedicated to the group.
    pub workers: usize,
    /// PU ids backing each worker of the group, when the group was resolved
    /// from a platform description (`members[k]` labels worker `k` of the
    /// group in traces). Empty for hand-built groups.
    pub members: Vec<String>,
}

/// A partition of the thread pool into named worker groups — the engine's
/// image of PDL logic groups.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    /// The groups, in worker-index order: group 0 owns workers
    /// `0..groups[0].workers`, group 1 the next range, and so on.
    pub groups: Vec<PlacementGroup>,
    /// Name of the platform descriptor the placement was resolved from
    /// (stamped into traces); `None` for hand-built placements.
    pub platform: Option<String>,
}

impl Placement {
    /// An empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Adds a group with `workers` dedicated threads, builder style.
    pub fn with_group(mut self, name: impl Into<String>, workers: usize) -> Self {
        self.groups.push(PlacementGroup {
            name: name.into(),
            workers: workers.max(1),
            members: Vec::new(),
        });
        self
    }

    /// Builds a placement from PDL logic groups: each set-expression (plain
    /// group names, unions like `"gpus+cpus"`, pseudo-groups like
    /// `"@workers"` — the `pdl-query` group grammar) becomes one placement
    /// group with one worker per resolved processing unit.
    ///
    /// This is the `pdl-core → pdl-query → hetero-rt` wiring: logic-group
    /// attributes authored in a platform description flow directly into
    /// thread placement.
    pub fn from_logic_groups<S: AsRef<str>>(
        platform: &Platform,
        exprs: &[S],
    ) -> Result<Self, ThreadEngineError> {
        let mut placement = Placement::new();
        placement.platform = Some(platform.name.clone());
        for expr in exprs {
            let expr = expr.as_ref();
            let members = pdl_query::groups::resolve(platform, expr).map_err(|e| {
                ThreadEngineError::BadGroupExpr {
                    expr: expr.to_string(),
                    message: e.to_string(),
                }
            })?;
            let pu_ids: Vec<String> = members
                .iter()
                .map(|&idx| platform.pu(idx).id.as_str().to_string())
                .collect();
            placement.groups.push(PlacementGroup {
                name: expr.to_string(),
                workers: pu_ids.len().max(1),
                members: pu_ids,
            });
        }
        Ok(placement)
    }

    /// Total workers across all groups.
    pub fn total_workers(&self) -> usize {
        self.groups.iter().map(|g| g.workers).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_logic_groups_builds_placement() {
        let mut b = Platform::builder("t");
        let m = b.master("cpu");
        let g0 = b.worker(m, "gpu0").unwrap();
        b.group(g0, "gpus");
        let g1 = b.worker(m, "gpu1").unwrap();
        b.group(g1, "gpus");
        let s = b.worker(m, "spe").unwrap();
        b.group(s, "slow");
        let p = b.build().unwrap();

        let placement = Placement::from_logic_groups(&p, &["gpus", "@workers-gpus"]).unwrap();
        assert_eq!(placement.groups.len(), 2);
        assert_eq!(placement.groups[0].workers, 2); // gpu0, gpu1
        assert_eq!(placement.groups[1].workers, 1); // spe
        assert_eq!(placement.total_workers(), 3);
        assert_eq!(placement.platform.as_deref(), Some("t"));
        assert_eq!(placement.groups[0].members, vec!["gpu0", "gpu1"]);
        assert_eq!(placement.groups[1].members, vec!["spe"]);

        assert!(Placement::from_logic_groups(&p, &["@bogus"]).is_err());
    }
}
