//! Exhaustive state-space exploration of the coherence model.
//!
//! [`explore`] runs a breadth-first search from [`Model::initial`] over
//! every enabled [`Action`], checking five invariants on every transition.
//! BFS order means the first violation found sits at minimal depth, so its
//! action trace is a shortest counterexample; a greedy [`shrink`] pass
//! additionally deletes any action the violation does not need, which
//! matters for traces that arrive from the fuzzer rather than the search.

use crate::model::{Action, Model, State, StepEffects};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// The five enumerated invariants, each tied to one stable M-series
/// diagnostic code (documented in `docs/MODEL.md` / `docs/ANALYSIS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// Every handle is valid on at least one node ("a datum is always
    /// valid somewhere").
    ValidSomewhere,
    /// Immediately after a finished write, the writer holds the only
    /// valid copy (MSI write-invalidate).
    SingleWriter,
    /// Every copy in a valid set holds the latest written data — no
    /// lost updates.
    NoLostUpdate,
    /// The side-effect-free probe prices exactly what commit charges.
    ProbeChargeParity,
    /// Committing transfers only ever adds valid copies; only a finished
    /// write shrinks the set.
    MonotoneStaging,
}

impl Invariant {
    /// All invariants, in check order (the order violations are reported
    /// when one transition breaks several).
    pub const ALL: [Invariant; 5] = [
        Invariant::ValidSomewhere,
        Invariant::SingleWriter,
        Invariant::NoLostUpdate,
        Invariant::ProbeChargeParity,
        Invariant::MonotoneStaging,
    ];

    /// The stable diagnostic code of a violation of this invariant.
    pub fn code(self) -> &'static str {
        match self {
            Invariant::ValidSomewhere => "M003",
            Invariant::SingleWriter => "M001",
            Invariant::NoLostUpdate => "M002",
            Invariant::ProbeChargeParity => "M004",
            Invariant::MonotoneStaging => "M005",
        }
    }

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::ValidSomewhere => "valid-somewhere",
            Invariant::SingleWriter => "single-writer",
            Invariant::NoLostUpdate => "no-lost-update",
            Invariant::ProbeChargeParity => "probe-charge-parity",
            Invariant::MonotoneStaging => "monotone-staging",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Exploration bounds: outstanding accesses per handle and a state-count
/// safety cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Maximum acquired-but-unfinished accesses per handle. 1 checks the
    /// sequential protocol; 2 adds the interleavings a parallel data
    /// layer would execute.
    pub max_pending: usize,
    /// Hard cap on stored states; exceeding it marks the run incomplete
    /// instead of exhausting memory.
    pub max_states: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_pending: 2,
            max_states: 4_000_000,
        }
    }
}

/// A checked invariant violation with its (minimized) action trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What exactly went wrong, with the offending state rendered.
    pub detail: String,
    /// Minimal action sequence from the initial state to the violation.
    pub trace: Vec<Action>,
}

/// Result of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions applied (state × enabled action).
    pub transitions: usize,
    /// First invariant violation found, minimized; `None` when every
    /// reachable transition satisfies all five invariants.
    pub violation: Option<Violation>,
    /// Whether the bounded state space was fully enumerated (false when
    /// the state cap stopped the search or a violation aborted it).
    pub complete: bool,
}

/// Checks every invariant on one applied transition. Returns the first
/// violated invariant (in [`Invariant::ALL`] order) with a rendered detail.
pub(crate) fn check_transition(
    pre: &State,
    post: &State,
    action: Action,
    effects: &StepEffects,
) -> Option<(Invariant, String)> {
    // M003 — valid-somewhere.
    for (h, hs) in post.handles.iter().enumerate() {
        if hs.copies.is_empty() {
            return Some((
                Invariant::ValidSomewhere,
                format!("after `{action}` handle h{h} is valid nowhere — the copy vanished"),
            ));
        }
    }
    // M001 — single-writer, checked at the write-finish transition.
    if let Action::Finish { handle, dev, mode } = action {
        if mode.writes() {
            let hs = &post.handles[handle];
            let writer = crate::proto::Node::Dev(dev);
            if hs.copies.len() != 1 || !hs.copies.contains_key(&writer) {
                return Some((
                    Invariant::SingleWriter,
                    format!(
                        "after `{action}` the valid set is {} — write-invalidate must leave \
                         exactly the writer's copy",
                        hs.render()
                    ),
                ));
            }
        }
    }
    // M002 — no-lost-update: every valid copy holds the latest data.
    for (h, hs) in post.handles.iter().enumerate() {
        if hs.copies.values().any(|fresh| !fresh) {
            return Some((
                Invariant::NoLostUpdate,
                format!(
                    "after `{action}` handle h{h} exposes a stale copy as valid: {} — a later \
                     read would observe a lost update",
                    hs.render()
                ),
            ));
        }
    }
    // M004 — probe == charge.
    if effects.probe != effects.charged {
        return Some((
            Invariant::ProbeChargeParity,
            format!(
                "`{action}` probed cost {} but charged {} — scheduler estimates would drift \
                 from reality",
                effects.probe, effects.charged
            ),
        ));
    }
    // M005 — monotone staging: transfers never remove validity.
    if matches!(action, Action::Acquire { .. } | Action::Flush { .. }) {
        let h = match action {
            Action::Acquire { handle, .. } | Action::Flush { handle } => handle,
            Action::Finish { .. } => unreachable!(),
        };
        let pre_set = pre.handles[h].valid();
        let post_set = post.handles[h].valid();
        if !pre_set.is_subset(&post_set) {
            let lost = pre_set.iter().filter(|n| !post_set.contains(*n));
            let lost: Vec<String> = lost.map(|n| n.to_string()).collect();
            return Some((
                Invariant::MonotoneStaging,
                format!(
                    "`{action}` removed valid copies ({}) — commit must only add copies, a \
                     transfer is not a move",
                    lost.join(", ")
                ),
            ));
        }
    }
    None
}

/// Exhaustively explores the model by BFS, checking all invariants on
/// every transition. Stops (and minimizes the trace) at the first
/// violation.
pub fn explore(model: &Model, bounds: &Bounds) -> Exploration {
    let initial = model.initial();
    let mut arena: Vec<(State, Option<(usize, Action)>)> = vec![(initial.clone(), None)];
    let mut index: HashMap<State, usize> = HashMap::from([(initial, 0)]);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut transitions = 0usize;
    let mut capped = false;

    while let Some(i) = queue.pop_front() {
        let state = arena[i].0.clone();
        for action in model.enabled(&state, bounds.max_pending) {
            let (next, effects) = model.step(&state, action);
            transitions += 1;
            if let Some((invariant, detail)) = check_transition(&state, &next, action, &effects) {
                let mut trace = path_to(&arena, i);
                trace.push(action);
                let trace = shrink(model, bounds, &trace, invariant);
                return Exploration {
                    states: arena.len(),
                    transitions,
                    violation: Some(Violation {
                        invariant,
                        detail,
                        trace,
                    }),
                    complete: false,
                };
            }
            match index.entry(next) {
                Entry::Occupied(_) => {}
                Entry::Vacant(slot) => {
                    if arena.len() >= bounds.max_states {
                        capped = true;
                        continue;
                    }
                    let id = arena.len();
                    arena.push((slot.key().clone(), Some((i, action))));
                    slot.insert(id);
                    queue.push_back(id);
                }
            }
        }
    }

    Exploration {
        states: arena.len(),
        transitions,
        violation: None,
        complete: !capped,
    }
}

/// Replays an action trace from the initial state, returning the first
/// violation of `target` it produces (ignoring other invariants), or
/// `None` when the trace is invalid or violation-free.
pub fn replay_violates(
    model: &Model,
    bounds: &Bounds,
    trace: &[Action],
    target: Invariant,
) -> Option<String> {
    let mut state = model.initial();
    for &action in trace {
        if !model.is_enabled(&state, action, bounds.max_pending) {
            return None;
        }
        let (next, effects) = model.step(&state, action);
        if let Some((invariant, detail)) = check_transition(&state, &next, action, &effects) {
            if invariant == target {
                return Some(detail);
            }
        }
        state = next;
    }
    None
}

/// Greedily deletes actions from a violating trace while the violation of
/// `target` persists, until no single deletion survives. BFS traces are
/// already length-minimal; fuzzer traces shrink substantially.
pub fn shrink(model: &Model, bounds: &Bounds, trace: &[Action], target: Invariant) -> Vec<Action> {
    let mut current = trace.to_vec();
    loop {
        let mut improved = false;
        for i in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if replay_violates(model, bounds, &candidate, target).is_some() {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Reconstructs the action path from the initial state to `arena[i]`.
fn path_to(arena: &[(State, Option<(usize, Action)>)], mut i: usize) -> Vec<Action> {
    let mut rev = Vec::new();
    while let Some((parent, action)) = arena[i].1 {
        rev.push(action);
        i = parent;
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mutation;
    use crate::proto::AccessMode;
    use crate::topo::Topo;

    fn model() -> Model {
        let topo = Topo::star("t", 3, 10.0).with_shared(0).with_peer(1, 2, 3.0);
        Model::new(vec![topo.clone(), topo])
    }

    fn bounds() -> Bounds {
        Bounds {
            max_pending: 1,
            max_states: 1_000_000,
        }
    }

    #[test]
    fn faithful_model_explores_clean() {
        let ex = explore(&model(), &bounds());
        assert!(ex.violation.is_none(), "{:?}", ex.violation);
        assert!(ex.complete);
        assert!(ex.states > 100, "suspiciously small: {}", ex.states);
        assert!(ex.transitions > ex.states);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&model(), &bounds());
        let b = explore(&model(), &bounds());
        assert_eq!((a.states, a.transitions), (b.states, b.transitions));
    }

    #[test]
    fn every_mutation_is_caught_as_its_code_with_minimal_trace() {
        // Known-minimal counterexample lengths per mutation: transfer bugs
        // surface on the first acquire, write bugs need acquire + finish.
        for (mutation, min_len) in [
            (Mutation::SkipWriteInvalidate, 2),
            (Mutation::DropWriteUpdate, 2),
            (Mutation::VanishOnWrite, 2),
            (Mutation::UnderCharge, 1),
            (Mutation::MoveNotCopy, 1),
        ] {
            let m = model().with_mutation(mutation);
            let ex = explore(&m, &bounds());
            let v = ex
                .violation
                .unwrap_or_else(|| panic!("{mutation:?} not caught"));
            assert_eq!(
                v.invariant.code(),
                mutation.expected_code().unwrap(),
                "{mutation:?} caught as wrong code: {v:?}"
            );
            assert_eq!(
                v.trace.len(),
                min_len,
                "{mutation:?} trace not minimal: {:?}",
                v.trace
            );
            // The minimized trace must still reproduce on replay.
            assert!(replay_violates(&m, &bounds(), &v.trace, v.invariant).is_some());
        }
    }

    #[test]
    fn shrink_removes_padding_actions() {
        let m = model().with_mutation(Mutation::VanishOnWrite);
        // A long noisy trace: reads and flushes everywhere, one write pair.
        let noisy = vec![
            Action::Acquire {
                handle: 1,
                dev: 1,
                mode: AccessMode::Read,
                routing: crate::proto::Routing::HostStaged,
            },
            Action::Flush { handle: 1 },
            Action::Finish {
                handle: 1,
                dev: 1,
                mode: AccessMode::Read,
            },
            Action::Acquire {
                handle: 0,
                dev: 2,
                mode: AccessMode::Write,
                routing: crate::proto::Routing::PeerToPeer,
            },
            Action::Flush { handle: 0 },
            Action::Finish {
                handle: 0,
                dev: 2,
                mode: AccessMode::Write,
            },
        ];
        assert!(replay_violates(&m, &bounds(), &noisy, Invariant::ValidSomewhere).is_some());
        let minimal = shrink(&m, &bounds(), &noisy, Invariant::ValidSomewhere);
        assert_eq!(minimal.len(), 2, "{minimal:?}");
    }

    #[test]
    fn bigger_pending_bound_reaches_more_states() {
        // One handle keeps the pending=2 space small enough for debug
        // builds; the full 2-handle bound runs in the release smoke gate.
        let topo = Topo::star("t", 3, 10.0).with_shared(0).with_peer(1, 2, 3.0);
        let one = |p| {
            explore(
                &Model::new(vec![topo.clone()]),
                &Bounds {
                    max_pending: p,
                    max_states: 4_000_000,
                },
            )
        };
        let small = one(1);
        let big = one(2);
        assert!(big.states > small.states);
        assert!(big.violation.is_none() && big.complete);
    }
}
