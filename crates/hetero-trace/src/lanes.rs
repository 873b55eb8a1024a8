//! The lane table of a trace: the one place a worker index becomes a
//! lane, with a name, a logic group and whether it shows a link.
//!
//! Declared lanes come first, then those only a worker names, in index
//! order. A lane without a name is `worker<i>`; one without a group is in
//! group `ungrouped`. A transfer lane is in group `links`, named after its
//! interconnect; channels after a link's first carry a `" #<k>"` suffix.
//! The codec, Chrome and summary exporters keep their own spelling of a
//! lane the meta does not declare.

use crate::trace::{LaneLabel, RunTrace};
use std::collections::BTreeMap;

/// The group of every transfer lane.
const LINKS: &str = "links";
/// The group of a lane that declares none.
const UNGROUPED: &str = "ungrouped";

impl LaneLabel {
    /// The label of channel `channel` (0 for the first) of the link named
    /// `link`: `link` itself, then `"<link> #2"`, `"<link> #3"`, …, all in
    /// group `links`.
    pub fn link(link: &str, channel: usize) -> LaneLabel {
        LaneLabel {
            name: match channel {
                0 => link.to_string(),
                _ => format!("{link} #{}", channel + 1),
            },
            group: Some(LINKS.to_string()),
        }
    }

    /// The lane's logic group: the declared one, or `ungrouped`.
    pub(crate) fn group_name(&self) -> &str {
        self.group.as_deref().unwrap_or(UNGROUPED)
    }

    /// Whether the lane shows transfers over a link.
    pub fn is_link(&self) -> bool {
        is_link_group(self.group_name())
    }
}

/// Whether `group` is the group of the transfer lanes.
pub fn is_link_group(group: &str) -> bool {
    group == LINKS
}

/// The link a link lane shows: its name without a `" #<k>"` channel
/// suffix, which is `" #"` followed by at least one digit.
pub fn link_base(name: &str) -> &str {
    match name.rsplit_once(" #") {
        Some((base, k)) if !k.is_empty() && k.bytes().all(|c| c.is_ascii_digit()) => base,
        _ => name,
    }
}

/// A trace's lanes, names resolved. A worker index is looked up, never
/// used to size a table, so the table stays as long as the trace.
#[derive(Debug)]
pub struct Lanes {
    /// One label per lane slot.
    pub(crate) labels: Vec<LaneLabel>,
    /// The worker indices past the declared lanes, ascending.
    beyond: Vec<usize>,
}

impl Lanes {
    /// The lane table of `trace`.
    pub fn of(trace: &RunTrace) -> Lanes {
        let declared = trace.meta.lanes.len();
        let mut beyond: Vec<usize> = (trace.workers.iter().map(|w| w.worker))
            .filter(|&w| w >= declared)
            .collect();
        beyond.sort_unstable();
        beyond.dedup();
        let unlabeled = LaneLabel::default();
        let labels = (trace.meta.lanes.iter().enumerate())
            .chain(beyond.iter().map(|&i| (i, &unlabeled)))
            .map(|(i, label)| LaneLabel {
                name: match label.name.as_str() {
                    "" => format!("worker{i}"),
                    name => name.to_string(),
                },
                group: label.group.clone(),
            })
            .collect();
        Lanes { labels, beyond }
    }

    /// The slot in the table of the lane of `worker`, one of the trace's.
    pub(crate) fn slot(&self, worker: usize) -> usize {
        let declared = self.labels.len() - self.beyond.len();
        match self.beyond.binary_search(&worker) {
            Ok(past) => declared + past,
            Err(_) => worker,
        }
    }

    /// The lane of `worker`, which must be one of the trace's workers or
    /// declared lanes.
    pub fn lane(&self, worker: usize) -> &LaneLabel {
        &self.labels[self.slot(worker)]
    }

    /// The slots of every group's lanes, in slot order, groups in name
    /// order.
    pub(crate) fn groups(&self) -> BTreeMap<&str, Vec<usize>> {
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (slot, lane) in self.labels.iter().enumerate() {
            groups.entry(lane.group_name()).or_default().push(slot);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_channels_round_trip() {
        for channel in 0..3 {
            let lane = LaneLabel::link("PCIe:host-gpu0", channel);
            assert!(lane.is_link());
            assert_eq!(link_base(&lane.name), "PCIe:host-gpu0");
        }
        assert_eq!(
            LaneLabel::link("PCIe:host-gpu0", 1).name,
            "PCIe:host-gpu0 #2"
        );
        for name in ["PCIe:host-gpu0 #", "PCIe:host-gpu0 #x", "PCIe:host-gpu0"] {
            assert_eq!(link_base(name), name);
        }
    }
}
