//! The instrumented coherence model the explorer enumerates and the
//! differential fuzzer uses as its oracle.
//!
//! A [`Model`] couples one [`Topo`] per data handle with an optional
//! [`Mutation`]. Its [`State`] tracks, per handle, which nodes the
//! registry *believes* hold a valid copy plus ground truth about whether
//! each copy actually holds the latest written data — the instrumentation
//! that lets the explorer detect lost updates a plain valid set cannot
//! express. All membership transitions route through [`crate::proto`], the
//! same functions the runtime's `DataRegistry` delegates to; mutations are
//! deliberate, named deviations used to validate that the checker and the
//! fuzzer actually catch protocol bugs.

use crate::proto::{self, AccessMode, Charges, Node, NodeSet, Plan, PlanClass, Routing};
use crate::topo::Topo;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Coherence state of one handle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HandleState {
    /// Nodes the registry believes hold a valid copy, mapped to ground
    /// truth: `true` when the copy really holds the latest written data.
    /// In a correct protocol every valid copy is fresh; a `false` entry is
    /// a lost update waiting to be read.
    pub copies: BTreeMap<Node, bool>,
    /// Outstanding accesses: acquired (transfers committed) but not yet
    /// finished, kept sorted so states compare structurally.
    pub pending: Vec<(usize, AccessMode)>,
}

impl HandleState {
    /// The registry-visible valid set (what `DataRegistry::valid_on`
    /// would report).
    pub fn valid(&self) -> NodeSet {
        self.copies.keys().copied().collect()
    }

    /// Renders the copies map: `{host, dev1 (stale)}`.
    pub(crate) fn render(&self) -> String {
        let parts: Vec<String> = self
            .copies
            .iter()
            .map(|(n, fresh)| {
                if *fresh {
                    n.to_string()
                } else {
                    format!("{n} (stale)")
                }
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// One global model state: per-handle coherence plus outstanding accesses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State {
    /// Per-handle state, indexed like [`Model::topos`].
    pub handles: Vec<HandleState>,
}

/// One protocol action. `Acquire` is the runtime's `plan_acquire` +
/// `commit` pair (transfers happen), `Finish` is `finish_access` (the
/// access completes, writes invalidate), `Flush` is `plan_flush` +
/// `commit`. Splitting acquire from finish is what exposes the
/// interleavings a parallel data layer would execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Plan and commit the transfers for one access.
    Acquire {
        /// Handle index.
        handle: usize,
        /// Accessing device index.
        dev: usize,
        /// Access mode.
        mode: AccessMode,
        /// Routing policy for this access.
        routing: Routing,
    },
    /// Complete a previously acquired access (writes invalidate here).
    Finish {
        /// Handle index.
        handle: usize,
        /// Device whose access completes.
        dev: usize,
        /// Mode of the completing access.
        mode: AccessMode,
    },
    /// Bring the handle back to host memory.
    Flush {
        /// Handle index.
        handle: usize,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Acquire {
                handle,
                dev,
                mode,
                routing,
            } => write!(f, "acquire h{handle} {mode} @ dev{dev} via {routing}"),
            Action::Finish { handle, dev, mode } => {
                write!(f, "finish h{handle} {mode} @ dev{dev}")
            }
            Action::Flush { handle } => write!(f, "flush h{handle}"),
        }
    }
}

/// A deliberate, named protocol bug injected into the model layer.
///
/// Mutations exist to validate the checker itself: each one is the
/// minimal "plausible refactoring mistake" behind one M-series code, and
/// the smoke gate asserts the explorer finds it with a minimal
/// counterexample while the differential fuzzer sees the mutated oracle
/// diverge from the real implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The faithful protocol.
    #[default]
    None,
    /// A finished write forgets to invalidate the other copies (M001):
    /// stale copies stay in the valid set.
    SkipWriteInvalidate,
    /// A finished write invalidates correctly but the writer's new data is
    /// never recorded (M002): the single remaining "valid" copy is stale.
    DropWriteUpdate,
    /// A finished write invalidates every copy including the writer's
    /// (M003): the datum is valid nowhere.
    VanishOnWrite,
    /// Commit forgets to charge the final hop of the plan (M004): the
    /// probed cost no longer equals the charged cost.
    UnderCharge,
    /// Commit treats transfers as moves instead of copies (M005): the
    /// source loses validity, so staging shrinks the valid set.
    MoveNotCopy,
}

impl Mutation {
    /// The M-series diagnostic code this mutation must be caught as.
    pub fn expected_code(self) -> Option<&'static str> {
        match self {
            Mutation::None => None,
            Mutation::SkipWriteInvalidate => Some("M001"),
            Mutation::DropWriteUpdate => Some("M002"),
            Mutation::VanishOnWrite => Some("M003"),
            Mutation::UnderCharge => Some("M004"),
            Mutation::MoveNotCopy => Some("M005"),
        }
    }

    /// Parses a mutation name or M-code (`skip-write-invalidate`, `m001`).
    pub fn parse(s: &str) -> Option<Mutation> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Some(Mutation::None),
            "m001" | "skip-write-invalidate" => Some(Mutation::SkipWriteInvalidate),
            "m002" | "drop-write-update" => Some(Mutation::DropWriteUpdate),
            "m003" | "vanish-on-write" => Some(Mutation::VanishOnWrite),
            "m004" | "under-charge" => Some(Mutation::UnderCharge),
            "m005" | "move-not-copy" => Some(Mutation::MoveNotCopy),
            _ => None,
        }
    }

    /// Stable lowercase name (inverse of [`Mutation::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipWriteInvalidate => "skip-write-invalidate",
            Mutation::DropWriteUpdate => "drop-write-update",
            Mutation::VanishOnWrite => "vanish-on-write",
            Mutation::UnderCharge => "under-charge",
            Mutation::MoveNotCopy => "move-not-copy",
        }
    }
}

/// Observable effects of one [`Action`], used for invariant checking and
/// compared field-by-field against the real implementation by the
/// differential fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepEffects {
    /// Cost the side-effect-free probe priced the access at.
    pub probe: f64,
    /// Cost the commit actually charged.
    pub charged: f64,
    /// Physical hop counts per byte-counter direction.
    pub charges: Charges,
    /// Routing class the committed plan realized.
    pub class: PlanClass,
}

/// The coherence model over a set of handles sharing one device topology.
#[derive(Debug, Clone)]
pub struct Model {
    /// One topology view per handle (same devices, per-datum costs).
    pub topos: Vec<Topo>,
    /// Injected bug, [`Mutation::None`] for the faithful protocol.
    pub mutation: Mutation,
}

impl Model {
    /// A faithful model over one topology per handle.
    ///
    /// # Panics
    /// Panics when `topos` is empty or the per-handle topologies disagree
    /// on the device count.
    pub fn new(topos: Vec<Topo>) -> Model {
        assert!(!topos.is_empty(), "a model needs at least one handle");
        assert!(
            topos.iter().all(|t| t.devices() == topos[0].devices()),
            "per-handle topologies must share one device set"
        );
        Model {
            topos,
            mutation: Mutation::None,
        }
    }

    /// The same model with a deliberate bug injected.
    #[must_use]
    pub fn with_mutation(mut self, mutation: Mutation) -> Model {
        self.mutation = mutation;
        self
    }

    /// Number of handles the model tracks.
    pub(crate) fn handles(&self) -> usize {
        self.topos.len()
    }

    /// Number of devices in the shared topology.
    pub(crate) fn devices(&self) -> usize {
        self.topos[0].devices()
    }

    /// The initial state: every handle valid on the host only, fresh.
    pub fn initial(&self) -> State {
        State {
            handles: self
                .topos
                .iter()
                .map(|_| HandleState {
                    copies: BTreeMap::from([(Node::Host, true)]),
                    pending: Vec::new(),
                })
                .collect(),
        }
    }

    /// All actions enabled in `state` under an outstanding-access bound.
    pub(crate) fn enabled(&self, state: &State, max_pending: usize) -> Vec<Action> {
        let mut actions = Vec::new();
        for (handle, hs) in state.handles.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for &(dev, mode) in &hs.pending {
                if seen.insert((dev, mode)) {
                    actions.push(Action::Finish { handle, dev, mode });
                }
            }
            if hs.pending.len() < max_pending {
                for dev in 0..self.devices() {
                    for mode in [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite] {
                        for routing in [Routing::HostStaged, Routing::PeerToPeer] {
                            actions.push(Action::Acquire {
                                handle,
                                dev,
                                mode,
                                routing,
                            });
                        }
                    }
                }
            }
            actions.push(Action::Flush { handle });
        }
        actions
    }

    /// Whether `action` is enabled in `state` (used by trace replay).
    pub(crate) fn is_enabled(&self, state: &State, action: Action, max_pending: usize) -> bool {
        match action {
            Action::Acquire { handle, dev, .. } => {
                handle < self.handles()
                    && dev < self.devices()
                    && state.handles[handle].pending.len() < max_pending
            }
            Action::Finish { handle, dev, mode } => {
                handle < self.handles() && state.handles[handle].pending.contains(&(dev, mode))
            }
            Action::Flush { handle } => handle < self.handles(),
        }
    }

    /// Applies `action`, returning the successor state and its observable
    /// effects. `action` must be enabled.
    pub fn step(&self, state: &State, action: Action) -> (State, StepEffects) {
        let mut next = state.clone();
        let effects = match action {
            Action::Acquire {
                handle,
                dev,
                mode,
                routing,
            } => {
                let hs = &mut next.handles[handle];
                let valid = hs.valid();
                let plan =
                    proto::plan_acquire(&valid, Node::Dev(dev), mode, routing, &self.topos[handle]);
                let effects = self.apply_commit(hs, &plan);
                hs.pending.push((dev, mode));
                hs.pending.sort_unstable();
                effects
            }
            Action::Finish { handle, dev, mode } => {
                let hs = &mut next.handles[handle];
                let slot = hs
                    .pending
                    .iter()
                    .position(|&p| p == (dev, mode))
                    .expect("finish must match an outstanding acquire");
                hs.pending.remove(slot);
                self.apply_finish(hs, dev, mode);
                StepEffects::default()
            }
            Action::Flush { handle } => {
                let hs = &mut next.handles[handle];
                let valid = hs.valid();
                let plan = proto::plan_flush(&valid, &self.topos[handle]);
                self.apply_commit(hs, &plan)
            }
        };
        (next, effects)
    }

    /// Commits a plan into one handle's state: membership through
    /// [`proto::commit`], freshness propagated hop by hop along the plan.
    fn apply_commit(&self, hs: &mut HandleState, plan: &Plan) -> StepEffects {
        let probe = plan.total();
        let mut set = hs.valid();
        let charges = proto::commit(&mut set, plan);

        let mut fresh = hs.copies.clone();
        for hop in plan.hops() {
            let f = *fresh.get(&hop.from).unwrap_or(&true);
            fresh.insert(hop.to, f);
        }
        if self.mutation == Mutation::MoveNotCopy {
            for hop in plan.hops() {
                set.remove(hop.from);
            }
        }
        hs.copies = set
            .iter()
            .map(|n| (n, *fresh.get(&n).unwrap_or(&true)))
            .collect();

        let charged = match (self.mutation, plan.hops().last()) {
            (Mutation::UnderCharge, Some(last)) => probe - last.cost,
            _ => probe,
        };
        StepEffects {
            probe,
            charged,
            charges,
            class: plan.routing_class(),
        }
    }

    /// Completes one access on a handle, applying write-invalidate (or a
    /// mutated version of it).
    fn apply_finish(&self, hs: &mut HandleState, dev: usize, mode: AccessMode) {
        let accessor = Node::Dev(dev);
        if mode.writes() {
            match self.mutation {
                Mutation::SkipWriteInvalidate => {
                    // The other copies now hold superseded data but stay in
                    // the valid set.
                    for stale in hs.copies.values_mut() {
                        *stale = false;
                    }
                    hs.copies.insert(accessor, true);
                }
                Mutation::DropWriteUpdate => {
                    hs.copies.clear();
                    hs.copies.insert(accessor, false);
                }
                Mutation::VanishOnWrite => {
                    hs.copies.clear();
                }
                _ => {
                    let mut set = hs.valid();
                    proto::finish_access(&mut set, accessor, mode);
                    hs.copies = set.iter().map(|n| (n, true)).collect();
                }
            }
        } else if mode.reads() {
            let mut set = hs.valid();
            proto::finish_access(&mut set, accessor, mode);
            // A reader that appears here without a committed copy was
            // served by the host's address space: it inherits the host
            // copy's freshness.
            let inherited = *hs.copies.get(&Node::Host).unwrap_or(&true);
            for n in set.iter() {
                hs.copies.entry(n).or_insert(inherited);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gpu_model() -> Model {
        let topo = Topo::star("t", 3, 10.0).with_shared(0).with_peer(1, 2, 3.0);
        Model::new(vec![topo.clone(), topo])
    }

    #[test]
    fn acquire_then_finish_write_leaves_single_fresh_copy() {
        let m = two_gpu_model();
        let s0 = m.initial();
        let (s1, e1) = m.step(
            &s0,
            Action::Acquire {
                handle: 0,
                dev: 1,
                mode: AccessMode::Write,
                routing: Routing::HostStaged,
            },
        );
        assert_eq!(e1.probe, 0.0); // writes transfer nothing in
        assert_eq!(s1.handles[0].pending, vec![(1, AccessMode::Write)]);
        let (s2, _) = m.step(
            &s1,
            Action::Finish {
                handle: 0,
                dev: 1,
                mode: AccessMode::Write,
            },
        );
        assert_eq!(s2.handles[0].copies, BTreeMap::from([(Node::Dev(1), true)]));
        assert!(s2.handles[0].pending.is_empty());
    }

    #[test]
    fn mutations_have_distinct_codes_and_parse_round_trips() {
        for m in [
            Mutation::SkipWriteInvalidate,
            Mutation::DropWriteUpdate,
            Mutation::VanishOnWrite,
            Mutation::UnderCharge,
            Mutation::MoveNotCopy,
        ] {
            assert_eq!(Mutation::parse(m.name()), Some(m));
            assert_eq!(Mutation::parse(m.expected_code().unwrap()), Some(m));
        }
        assert_eq!(Mutation::parse("frob"), None);
    }

    #[test]
    fn skip_write_invalidate_keeps_stale_copies() {
        let m = two_gpu_model().with_mutation(Mutation::SkipWriteInvalidate);
        let s0 = m.initial();
        let (s1, _) = m.step(
            &s0,
            Action::Acquire {
                handle: 0,
                dev: 2,
                mode: AccessMode::Write,
                routing: Routing::HostStaged,
            },
        );
        let (s2, _) = m.step(
            &s1,
            Action::Finish {
                handle: 0,
                dev: 2,
                mode: AccessMode::Write,
            },
        );
        assert_eq!(
            s2.handles[0].copies,
            BTreeMap::from([(Node::Dev(2), true), (Node::Host, false)])
        );
        assert!(s2.handles[0].render().contains("host (stale)"));
    }
}
