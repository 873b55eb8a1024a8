//! The pure coherence protocol: the single authority for how the data
//! layer plans transfers and mutates valid sets.
//!
//! `hetero_rt::data::DataRegistry` delegates every transition to the
//! functions in this module (decorating the resulting hops with physical
//! links and durations), and the model checker in [`crate::model`] /
//! [`mod@crate::explore`] enumerates exactly the same functions over bounded
//! topologies — so the checked model and the shipping implementation
//! cannot drift apart.
//!
//! The protocol is MSI-style write-invalidate over a star (host-staged)
//! or star+peer (NVLink-era) topology:
//!
//! * a datum is valid on a [`NodeSet`] of [`Node`]s, initially the host;
//! * a reading access first stages a copy to the host (unless one exists)
//!   and then to the reader, or takes a direct peer hop when one is
//!   declared *and* cheaper;
//! * committing a plan only ever **adds** valid copies;
//! * finishing a writing access invalidates every other copy.

use std::fmt;

/// A memory space the protocol tracks copies in.
///
/// Variant order matters: `Dev(i)` sorts before `Host`, mirroring the
/// runtime's `DeviceId` ordering where the host sentinel is `usize::MAX`.
/// Owner selection ("first valid owner") is defined over this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Node {
    /// A device memory space, identified by its index in the topology.
    Dev(usize),
    /// Host memory, where registered data initially lives.
    #[default]
    Host,
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Dev(i) => write!(f, "dev{i}"),
            Node::Host => f.write_str("host"),
        }
    }
}

/// A set of [`Node`]s — a datum's valid copies — as a bitset: the host and
/// devices `0..63` in one word, devices past them in one heap block that
/// grows on demand and is never freed by [`clear`](Self::clear).
/// Iteration follows [`Node`] order (devices ascending, then the host),
/// which is what "first owner" means; equality ignores the block's length.
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    /// Bit `g % 64` of word `g / 64` — this one, then the block's — is
    /// node `g`: the host is 0, device `d` is `d + 1`.
    word: u64,
    spill: Box<[u64]>,
}

/// The word index and bit of `node`.
fn locate(node: Node) -> (usize, u64) {
    let g = if let Node::Dev(d) = node { d + 1 } else { 0 };
    (g / 64, 1 << (g % 64))
}

impl NodeSet {
    fn word(&self, i: usize) -> u64 {
        match i.checked_sub(1) {
            None => self.word,
            Some(s) => self.spill.get(s).copied().unwrap_or(0),
        }
    }

    fn word_mut(&mut self, i: usize) -> &mut u64 {
        let Some(s) = i.checked_sub(1) else {
            return &mut self.word;
        };
        if s >= self.spill.len() {
            let mut grown = vec![0; s + 1];
            grown[..self.spill.len()].copy_from_slice(&self.spill);
            self.spill = grown.into_boxed_slice();
        }
        &mut self.spill[s]
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: Node) -> bool {
        let (i, bit) = locate(node);
        self.word(i) & bit != 0
    }

    /// Adds `node`.
    pub fn insert(&mut self, node: Node) {
        let (i, bit) = locate(node);
        *self.word_mut(i) |= bit;
    }

    /// Removes `node`.
    pub fn remove(&mut self, node: Node) {
        let (i, bit) = locate(node);
        *self.word_mut(i) &= !bit;
    }

    /// Removes every node, keeping the block.
    pub fn clear(&mut self) {
        self.word = 0;
        // Not `fill(0)`: its `memset` costs ≈ 120 ns even on an empty block.
        self.spill.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every node of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        (0..=self.spill.len()).all(|i| self.word(i) & !other.word(i) == 0)
    }

    /// The nodes in [`Node`] order: devices ascending, then the host.
    pub fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        let words = std::iter::once(self.word & !1).chain(self.spill.iter().copied());
        let devices = words.enumerate().flat_map(|(i, mut bits)| {
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(Node::Dev(64 * i + bit - 1))
            })
        });
        devices.chain(self.contains(Node::Host).then_some(Node::Host))
    }

    /// The first node in [`Node`] order.
    pub fn first(&self) -> Option<Node> {
        self.iter().next()
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        let words = self.spill.len().max(other.spill.len());
        (0..=words).all(|i| self.word(i) == other.word(i))
    }
}

impl Eq for NodeSet {}

impl FromIterator<Node> for NodeSet {
    fn from_iter<I: IntoIterator<Item = Node>>(nodes: I) -> Self {
        let mut set = NodeSet::default();
        nodes.into_iter().for_each(|n| set.insert(n));
        set
    }
}

/// How a task accesses a handle — the paper's parameter access-specifiers
/// (`read`, `write`, `readwrite`, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessMode {
    /// Input only.
    Read,
    /// Output only (no transfer-in required).
    Write,
    /// In-out.
    ReadWrite,
}

impl AccessMode {
    /// Whether the access observes the previous value.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether the access produces a new value.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// Parses the annotation spelling: `read`/`write`/`readwrite` from the
    /// parameterlist, or the dataflow spelling `in`/`out`/`inout` used by
    /// `access(…)` clauses.
    ///
    /// Matching is case-insensitive and ignores surrounding whitespace as
    /// well as internal separators (`-`, `_`, spaces), the same way pragma
    /// clauses normalize their keywords elsewhere (`BLOCK-CYCLIC` ==
    /// `BLOCKCYCLIC`): `Read-Write`, `READ_WRITE` and `in out` all parse.
    pub fn parse(s: &str) -> Option<Self> {
        let mut folded = String::with_capacity(s.len());
        for c in s.trim().chars() {
            match c {
                '-' | '_' => {}
                c if c.is_whitespace() => {}
                c => folded.push(c.to_ascii_lowercase()),
            }
        }
        match folded.as_str() {
            "read" | "r" | "in" => Some(AccessMode::Read),
            "write" | "w" | "out" => Some(AccessMode::Write),
            "readwrite" | "rw" | "inout" => Some(AccessMode::ReadWrite),
            _ => None,
        }
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessMode::Read => "read",
            AccessMode::Write => "write",
            AccessMode::ReadWrite => "readwrite",
        })
    }
}

/// How accelerator↔accelerator transfers are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Routing {
    /// Every move stages through host memory (PCIe-era default: src→host,
    /// then host→dst).
    #[default]
    HostStaged,
    /// Use a direct device↔device interconnect (e.g. `NVLink`) whenever the
    /// platform declares one and it is cheaper than staging through host.
    PeerToPeer,
}

impl fmt::Display for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Routing::HostStaged => "host-staged",
            Routing::PeerToPeer => "peer-to-peer",
        })
    }
}

/// Transfer costs of one datum over a topology, as seen by the planner.
///
/// The runtime implements this over a `SimMachine` plus a datum size
/// (costs are modeled seconds); the model checker implements it over a
/// small synthetic [`crate::topo::Topo`].
pub trait CostView {
    /// Cost of moving this datum over the host↔device route of `dev`.
    /// `None` means the device shares the host address space (no physical
    /// link; staging to or from it is free and moves zero bytes).
    fn host_cost(&self, dev: usize) -> Option<f64>;

    /// Cost of moving this datum over a declared direct peer interconnect,
    /// or `None` when the platform declares no such route.
    fn peer_cost(&self, from: usize, to: usize) -> Option<f64>;
}

/// Which byte counter a committed hop charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopKind {
    /// Physical move into host memory (`bytes_to_host`).
    ToHost,
    /// Physical move from host memory into a device (`bytes_to_devices`).
    ToDevice,
    /// Physical device→device move over a peer interconnect (`bytes_peer`).
    Peer,
    /// Bookkeeping hop between spaces sharing one address space: records
    /// validity, moves nothing, charges nothing.
    Local,
}

/// One planned data movement between two memory spaces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Hop {
    /// Memory space the copy departs from.
    pub from: Node,
    /// Memory space that gains a valid copy on commit.
    pub to: Node,
    /// Modeled cost of the move (zero for [`HopKind::Local`] hops).
    pub cost: f64,
    /// Whether the hop physically moves the datum (charges its bytes).
    pub moves_bytes: bool,
}

impl Hop {
    /// The byte counter this hop charges on commit.
    pub fn kind(&self) -> HopKind {
        if !self.moves_bytes {
            HopKind::Local
        } else if self.to == Node::Host {
            HopKind::ToHost
        } else if self.from == Node::Host {
            HopKind::ToDevice
        } else {
            HopKind::Peer
        }
    }
}

/// The ordered hops required before one access — the pure skeleton the
/// runtime decorates with physical links and durations. At most two (staged:
/// owner→host→device; peer, flush: one), held inline: planning allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Plan {
    /// `hops[..len]` in dependency order (a later hop needs the earlier one
    /// done); the slots past `len` stay default.
    hops: [Hop; 2],
    len: u8,
}

/// A heap-holding plan cannot come back.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<Plan>();
};

impl Plan {
    /// The hops, in dependency order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops[..usize::from(self.len)]
    }

    fn push(&mut self, hop: Hop) {
        self.hops[usize::from(self.len)] = hop;
        self.len += 1;
    }

    /// Total modeled cost when hops run back-to-back without contention.
    /// Summation order matches the hop order so a cost-preserving
    /// decoration reproduces the exact same float.
    pub fn total(&self) -> f64 {
        self.hops().iter().fold(0.0, |acc, h| acc + h.cost)
    }

    /// The routing class the plan realizes: peer if any hop is a direct
    /// device→device move, staged if it moves bytes through host memory,
    /// local otherwise (shared address space or nothing to do).
    pub(crate) fn routing_class(&self) -> PlanClass {
        if self.hops().iter().any(|h| h.kind() == HopKind::Peer) {
            PlanClass::Peer
        } else if self.hops().iter().any(|h| h.moves_bytes) {
            PlanClass::Staged
        } else {
            PlanClass::Local
        }
    }
}

/// Coarse classification of a plan, compared verbatim by the differential
/// fuzzer between model and implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PlanClass {
    /// At least one direct device→device hop.
    Peer,
    /// Bytes move, all of them through host memory.
    Staged,
    /// No bytes move (data already present or shared address space).
    #[default]
    Local,
}

impl fmt::Display for PlanClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanClass::Peer => "peer",
            PlanClass::Staged => "staged",
            PlanClass::Local => "local",
        })
    }
}

/// The hop from `owner`'s memory into host memory: a physical move over
/// the owner's host route when one exists, a free bookkeeping hop when the
/// owner shares the host address space (or is the host itself).
fn stage_to_host(owner: Node, view: &impl CostView) -> Hop {
    let physical = match owner {
        Node::Dev(o) => view.host_cost(o),
        Node::Host => None,
    };
    match physical {
        Some(cost) => Hop {
            from: owner,
            to: Node::Host,
            cost,
            moves_bytes: true,
        },
        None => Hop {
            from: owner,
            to: Node::Host,
            cost: 0.0,
            moves_bytes: false,
        },
    }
}

/// Plans the transfers needed before accessing a datum on `device` with
/// `mode`, given the set of nodes currently holding a valid copy.
///
/// Under [`Routing::HostStaged`] the plan is at most two hops:
/// owner→host (when no host copy exists), then host→device. Under
/// [`Routing::PeerToPeer`] a direct owner→device hop over a declared peer
/// interconnect replaces the staged plan whenever one exists and is
/// strictly cheaper.
///
/// # Panics
/// Panics when `valid` is empty — "a datum is always valid somewhere" is
/// a protocol invariant the caller maintains.
pub fn plan_acquire(
    valid: &NodeSet,
    device: Node,
    mode: AccessMode,
    routing: Routing,
    view: &impl CostView,
) -> Plan {
    let mut plan = Plan::default();
    if !mode.reads() || valid.contains(device) {
        return plan;
    }

    // Host-staged route: stage to host first when needed.
    if !valid.contains(Node::Host) {
        let owner = valid.first().expect("a datum is always valid somewhere");
        plan.push(stage_to_host(owner, view));
    }
    if let Node::Dev(d) = device {
        if let Some(cost) = view.host_cost(d) {
            plan.push(Hop {
                from: Node::Host,
                to: device,
                cost,
                moves_bytes: true,
            });
        }
        // No host route: the device shares the host address space and the
        // (possibly staged) host copy already serves it.

        if routing == Routing::PeerToPeer {
            // Cheapest direct route from any current owner, if one beats
            // the staged plan. First owner wins ties, like the runtime.
            let mut best: Option<Hop> = None;
            for owner in valid.iter() {
                let Node::Dev(o) = owner else { continue };
                if o == d {
                    continue;
                }
                let Some(cost) = view.peer_cost(o, d) else {
                    continue;
                };
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    best = Some(Hop {
                        from: owner,
                        to: device,
                        cost,
                        moves_bytes: true,
                    });
                }
            }
            if let Some(peer) = best {
                if peer.cost < plan.total() {
                    plan = Plan::default();
                    plan.push(peer);
                }
            }
        }
    }
    plan
}

/// Plans the transfer bringing a datum back to host memory (end of run /
/// result collection). Prefers an owner sharing the host address space
/// (free flush); otherwise the first owner pays its host route.
///
/// # Panics
/// Panics when `valid` is empty (see [`plan_acquire`]).
pub fn plan_flush(valid: &NodeSet, view: &impl CostView) -> Plan {
    let mut plan = Plan::default();
    if valid.contains(Node::Host) {
        return plan;
    }
    let owner = valid
        .iter()
        .find(|n| matches!(n, Node::Dev(d) if view.host_cost(*d).is_none()))
        .or_else(|| valid.first())
        .expect("a datum is always valid somewhere");
    plan.push(stage_to_host(owner, view));
    plan
}

/// Byte-charge deltas of one committed plan, split by direction the way
/// the runtime's statistics counters are.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Charges {
    /// Physical hops that moved bytes host→device.
    pub to_device_hops: u32,
    /// Physical hops that moved bytes device→host.
    pub to_host_hops: u32,
    /// Physical hops that moved bytes directly device→device.
    pub peer_hops: u32,
}

/// Applies a plan's coherence effects to a valid set: every hop
/// destination gains a valid copy. Returns how many physical hops charged
/// each direction counter (the runtime multiplies by the datum size).
pub fn commit(valid: &mut NodeSet, plan: &Plan) -> Charges {
    let mut charges = Charges::default();
    for hop in plan.hops() {
        valid.insert(hop.to);
        match hop.kind() {
            HopKind::ToHost => charges.to_host_hops += 1,
            HopKind::ToDevice => charges.to_device_hops += 1,
            HopKind::Peer => charges.peer_hops += 1,
            HopKind::Local => {}
        }
    }
    charges
}

/// Records the access itself after its transfers committed: a write
/// invalidates every other copy (MSI write-invalidate), a read leaves the
/// reader holding a valid copy.
pub fn finish_access(valid: &mut NodeSet, device: Node, mode: AccessMode) {
    if mode.writes() {
        valid.clear();
        valid.insert(device);
    } else if mode.reads() {
        valid.insert(device);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoGpus;
    impl CostView for TwoGpus {
        fn host_cost(&self, dev: usize) -> Option<f64> {
            // dev0 is a CPU core sharing the host space; dev1/dev2 are
            // accelerators one PCIe hop away.
            (dev != 0).then_some(10.0)
        }
        fn peer_cost(&self, from: usize, to: usize) -> Option<f64> {
            (from != 0 && to != 0 && from != to).then_some(3.0)
        }
    }

    #[test]
    fn reads_stage_through_host() {
        let mut valid: NodeSet = [Node::Dev(1)].into_iter().collect();
        let plan = plan_acquire(
            &valid,
            Node::Dev(2),
            AccessMode::Read,
            Routing::HostStaged,
            &TwoGpus,
        );
        assert_eq!(plan.hops().len(), 2);
        assert_eq!(plan.total(), 20.0);
        assert_eq!(plan.routing_class(), PlanClass::Staged);
        let charges = commit(&mut valid, &plan);
        assert_eq!((charges.to_host_hops, charges.to_device_hops), (1, 1));
        assert!(valid.contains(Node::Host) && valid.contains(Node::Dev(2)));
    }

    #[test]
    fn peer_route_replaces_staging_when_cheaper() {
        let valid: NodeSet = [Node::Dev(1)].into_iter().collect();
        let plan = plan_acquire(
            &valid,
            Node::Dev(2),
            AccessMode::Read,
            Routing::PeerToPeer,
            &TwoGpus,
        );
        assert_eq!(plan.hops().len(), 1);
        assert_eq!(plan.total(), 3.0);
        assert_eq!(plan.routing_class(), PlanClass::Peer);
    }

    #[test]
    fn writes_plan_nothing_and_invalidate_on_finish() {
        let mut valid: NodeSet = [Node::Host].into_iter().collect();
        let plan = plan_acquire(
            &valid,
            Node::Dev(1),
            AccessMode::Write,
            Routing::HostStaged,
            &TwoGpus,
        );
        assert!(plan.hops().is_empty());
        finish_access(&mut valid, Node::Dev(1), AccessMode::Write);
        assert_eq!(valid.iter().collect::<Vec<_>>(), [Node::Dev(1)]);
    }

    #[test]
    fn shared_space_staging_is_free() {
        let valid: NodeSet = [Node::Dev(0)].into_iter().collect();
        let plan = plan_acquire(
            &valid,
            Node::Dev(1),
            AccessMode::Read,
            Routing::HostStaged,
            &TwoGpus,
        );
        // dev0 shares the host space: the staging hop is free bookkeeping,
        // only host→dev1 moves bytes.
        assert_eq!(plan.hops().len(), 2);
        assert!(!plan.hops()[0].moves_bytes);
        assert_eq!(plan.total(), 10.0);
    }

    #[test]
    fn flush_prefers_shared_space_owner() {
        let valid: NodeSet = [Node::Dev(0), Node::Dev(1)].into_iter().collect();
        let plan = plan_flush(&valid, &TwoGpus);
        assert_eq!(plan.hops().len(), 1);
        assert!(!plan.hops()[0].moves_bytes);
        assert_eq!(plan.hops()[0].from, Node::Dev(0));
    }

    /// `NodeSet` replays every operation `BTreeSet<Node>` — the set it
    /// replaced — saw, over devices on both sides of the inline word.
    #[test]
    fn node_set_agrees_with_the_btree_set_it_replaced() {
        use std::collections::BTreeSet;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let node = |draw: usize| match draw {
            200 => Node::Host,
            // Half the draws near the inline word's edge, half anywhere.
            d if d % 2 == 0 => Node::Dev(59 + d % 9),
            d => Node::Dev(d),
        };
        let (mut set, mut oracle) = (NodeSet::default(), BTreeSet::new());
        let (mut other, mut other_oracle) = (NodeSet::default(), BTreeSet::new());
        for step in 0..20_000 {
            let n = node(next(201));
            match next(10) {
                0..=3 => {
                    set.insert(n);
                    oracle.insert(n);
                }
                4..=6 => {
                    set.remove(n);
                    oracle.remove(&n);
                }
                7 if next(8) == 0 => {
                    set.clear();
                    oracle.clear();
                }
                _ => {
                    other.insert(n);
                    other_oracle.insert(n);
                    if next(16) == 0 {
                        other.clear();
                        other_oracle.clear();
                    }
                }
            }
            let probe = node(next(201));
            assert_eq!(set.contains(probe), oracle.contains(&probe), "step {step}");
            assert_eq!(set.first(), oracle.first().copied(), "step {step}");
            assert!(set.iter().eq(oracle.iter().copied()), "step {step}");
            assert_eq!(set.len(), oracle.len(), "step {step}");
            assert_eq!(set.is_empty(), oracle.is_empty(), "step {step}");
            assert_eq!(
                set.is_subset(&other),
                oracle.is_subset(&other_oracle),
                "step {step}"
            );
            assert_eq!(
                other.is_subset(&set),
                other_oracle.is_subset(&oracle),
                "step {step}"
            );
            assert_eq!(set == other, oracle == other_oracle, "step {step}");
        }
        // Equal members, one set inline and one whose block has grown.
        let mut spilled: NodeSet = [Node::Dev(3), Node::Dev(190), Node::Host]
            .into_iter()
            .collect();
        spilled.remove(Node::Dev(190));
        let inline: NodeSet = [Node::Host, Node::Dev(3)].into_iter().collect();
        assert!(!spilled.spill.is_empty() && inline.spill.is_empty());
        assert_eq!(spilled, inline);
        assert_eq!(inline, spilled);
        assert!(spilled.is_subset(&inline) && inline.is_subset(&spilled));
    }

    #[test]
    fn parse_accepts_separator_and_case_variants() {
        // Previously-rejected spellings: internal separators and mixed case
        // with them.
        for (s, want) in [
            ("Read-Write", AccessMode::ReadWrite),
            ("READ_WRITE", AccessMode::ReadWrite),
            ("read write", AccessMode::ReadWrite),
            ("In-Out", AccessMode::ReadWrite),
            (" R W ", AccessMode::ReadWrite),
            ("  In\t", AccessMode::Read),
            ("OUT", AccessMode::Write),
        ] {
            assert_eq!(AccessMode::parse(s), Some(want), "{s:?}");
        }
        assert_eq!(AccessMode::parse("side-ways"), None);
        assert_eq!(AccessMode::parse(""), None);
    }
}
