//! Data handles and coherence across distinct memory spaces.
//!
//! Paper §IV-A: "High-level task parallel work distribution eases handling
//! of distinct, non-coherent memory spaces often present in heterogeneous
//! systems." Like `StarPU`, the runtime tracks data through opaque handles:
//! each handle has a size and a set of devices currently holding a **valid
//! copy**. Before a task reads a handle on device `D`, the runtime inserts
//! the transfers that make `D`'s copy valid; a write invalidates all other
//! copies (MSI-style, write-invalidate).
//!
//! The protocol itself — which hops a plan contains, how commits and
//! accesses mutate valid sets, which counter each hop charges — lives in
//! the pure, model-checked [`hetero_model::proto`] module. This module
//! only *decorates* the pure plans with physical links and modeled
//! durations drawn from the [`SimMachine`], so the exhaustively explored
//! model and the shipping implementation cannot drift apart (see
//! `docs/MODEL.md` and `pdl model-check`).
//!
//! A [`DataRegistry`] is columns: every label in one `String`, sizes in a
//! `Vec<f64>`, nothing allocated per handle; [`DataMeta`] is the borrowed
//! view of one handle. That table never changes once a handle is
//! registered, so clones share it — a simulation that starts from
//! `graph.data.clone()` copies the coherence state only.

use hetero_model::proto::{self, HopKind, Node, NodeSet};
use hetero_trace::Labels;
use simhw::link::LinkId;
use simhw::machine::{DeviceId, SimMachine};
use simhw::time::Duration;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

pub use hetero_model::proto::{AccessMode, Routing};

/// One physical data movement of a [`TransferPlan`]: a copy between two
/// memory spaces over zero or more physical links.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferHop {
    /// Memory space the copy departs from ([`HOST`] or a device id).
    pub from: DeviceId,
    /// Memory space the copy arrives at; gains a valid copy on commit.
    pub to: DeviceId,
    /// Links the copy occupies, in order. Empty when both endpoints share
    /// an address space (the hop only records validity, it moves nothing).
    pub links: Vec<LinkId>,
    /// Modeled duration of the copy.
    pub duration: Duration,
    /// Bytes physically moved: the datum size when `links` is non-empty,
    /// zero otherwise.
    pub bytes: f64,
}

/// The ordered transfers required before one access, produced by
/// [`DataRegistry::plan_acquire`] / [`DataRegistry::plan_flush`].
///
/// A plan is a pure description: it charges nothing until
/// [`DataRegistry::commit`] applies it. Engines use the hop structure to
/// place each copy on the link timelines it occupies.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPlan {
    /// Handle the plan moves.
    pub handle: HandleId,
    /// Hops in dependency order (a later hop needs the earlier one done).
    pub hops: Vec<TransferHop>,
    /// The protocol's plan these hops decorate, which commit applies.
    pure: proto::Plan,
}

impl TransferPlan {
    /// Total modeled time when hops run back-to-back without contention.
    pub fn total(&self) -> Duration {
        self.hops
            .iter()
            .fold(Duration::ZERO, |acc, hop| acc + hop.duration)
    }
}

/// Identifier of a data handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandleId(pub usize);

impl fmt::Display for HandleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Metadata for one registered datum, as a view into its registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataMeta<'r> {
    /// Handle id.
    pub id: HandleId,
    /// Label for traces (`A[0][1]`).
    pub label: &'r str,
    /// Payload size in bytes.
    pub size_bytes: f64,
}

/// A `Copy` view cannot grow a `String` field back.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<DataMeta<'static>>();
};

/// The host memory "device id" used by the coherence tracker. Host memory
/// is where registered data initially lives; it is not a schedulable device,
/// so it gets a sentinel outside the machine's device range.
pub const HOST: DeviceId = DeviceId(usize::MAX);

/// The protocol-level [`Node`] for a runtime device id.
fn node_of(d: DeviceId) -> Node {
    if d == HOST {
        Node::Host
    } else {
        Node::Dev(d.0)
    }
}

/// The runtime device id for a protocol-level [`Node`].
fn device_of(n: Node) -> DeviceId {
    match n {
        Node::Host => HOST,
        Node::Dev(i) => DeviceId(i),
    }
}

/// The machine's transfer costs for one datum, as the pure planner sees
/// them: modeled seconds per route, `None` where an address space is
/// shared. Costs come from the exact `transfer_time` computation the
/// decorated hops carry, so pure totals and decorated totals are
/// bit-identical floats.
struct MachineCosts<'a> {
    machine: &'a SimMachine,
    size: f64,
}

impl proto::CostView for MachineCosts<'_> {
    fn host_cost(&self, dev: usize) -> Option<f64> {
        self.machine
            .host_route(DeviceId(dev))
            .map(|path| path.transfer_time(self.size).seconds())
    }

    fn peer_cost(&self, from: usize, to: usize) -> Option<f64> {
        self.machine
            .peer_route(DeviceId(from), DeviceId(to))
            .map(|path| path.transfer_time(self.size).seconds())
    }
}

/// Projects the machine's transfer costs for a datum of `size_bytes` onto
/// the bounded [`hetero_model::Topo`] the model checker explores: device
/// `i` of the topology is `devices[i]`, host-route and declared peer-route
/// costs are the modeled transfer times. This is the bridge `pdl
/// model-check` uses to explore real PDL-derived platforms.
pub fn model_topo(
    machine: &SimMachine,
    name: impl Into<String>,
    devices: &[DeviceId],
    size_bytes: f64,
) -> hetero_model::Topo {
    let costs = MachineCosts {
        machine,
        size: size_bytes,
    };
    use proto::CostView as _;
    let mut topo = hetero_model::Topo {
        name: name.into(),
        host_cost: devices.iter().map(|d| costs.host_cost(d.0)).collect(),
        peer_cost: std::collections::BTreeMap::new(),
    };
    for (i, a) in devices.iter().enumerate() {
        for (j, b) in devices.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some(cost) = costs.peer_cost(a.0, b.0) {
                topo.peer_cost.insert((i, j), cost);
            }
        }
    }
    topo
}

/// Decorates one pure hop with the physical links and modeled duration of
/// the route it crosses. Free bookkeeping hops stay free.
fn decorate_hop(machine: &SimMachine, size: f64, hop: &proto::Hop) -> TransferHop {
    let from = device_of(hop.from);
    let to = device_of(hop.to);
    if !hop.moves_bytes {
        return TransferHop {
            from,
            to,
            links: Vec::new(),
            duration: Duration::ZERO,
            bytes: 0.0,
        };
    }
    let path = match (hop.from, hop.to) {
        (Node::Dev(o), Node::Host) => machine.host_route(DeviceId(o)),
        (Node::Host, Node::Dev(d)) => machine.host_route(DeviceId(d)),
        (Node::Dev(o), Node::Dev(d)) => machine.peer_route(DeviceId(o), DeviceId(d)),
        (Node::Host, Node::Host) => None,
    }
    .expect("the protocol only plans physical hops over declared routes");
    TransferHop {
        from,
        to,
        links: path.links.clone(),
        duration: path.transfer_time(size),
        bytes: size,
    }
}

/// Decorates every hop of a pure plan for handle `h` of `size` bytes.
fn decorate(machine: &SimMachine, h: HandleId, size: f64, pure: proto::Plan) -> TransferPlan {
    TransferPlan {
        handle: h,
        hops: (pure.hops().iter())
            .map(|hop| decorate_hop(machine, size, hop))
            .collect(),
        pure,
    }
}

/// Bytes moved per direction, for statistics.
#[derive(Debug, Clone, Copy, Default)]
struct ByteCounters {
    to_devices: f64,
    to_host: f64,
    /// Moved directly device→device over peer interconnects.
    peer: f64,
}

/// Applies a pure plan to one handle's valid set through [`proto::commit`]
/// (every hop destination gains a valid copy) and counts each physically
/// moved hop exactly once, as `size` bytes, in the matching direction
/// counter.
fn commit_plan(valid: &mut NodeSet, bytes: &mut ByteCounters, plan: &proto::Plan, size: f64) {
    proto::commit(valid, plan);
    for hop in plan.hops() {
        match hop.kind() {
            HopKind::ToHost => bytes.to_host += size,
            HopKind::ToDevice => bytes.to_devices += size,
            HopKind::Peer => bytes.peer += size,
            HopKind::Local => {}
        }
    }
}

/// What registration fixes about every handle, indexed by `HandleId.0`.
#[derive(Debug, Clone, Default)]
pub(crate) struct HandleTable {
    pub(crate) labels: Labels,
    sizes: Vec<f64>,
}

/// Registry of data handles plus their coherence state.
#[derive(Debug, Clone, Default)]
pub struct DataRegistry {
    /// Shared between clones; [`register`](Self::register) un-shares it.
    table: Arc<HandleTable>,
    /// Per handle: memory spaces holding a valid copy, stored as the
    /// protocol's own node set so transitions and probes read it in place —
    /// one word unless a device past the 63rd ever held a copy.
    valid: Vec<NodeSet>,
    bytes: ByteCounters,
}

impl DataRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a datum of `size_bytes`, initially valid on the host only.
    pub fn register(&mut self, label: impl fmt::Display, size_bytes: f64) -> HandleId {
        let table = Arc::make_mut(&mut self.table);
        let id = HandleId(table.sizes.len());
        table.labels.push(label);
        table.sizes.push(size_bytes);
        self.valid.push([Node::Host].into_iter().collect());
        id
    }

    /// Metadata for a handle.
    pub fn meta(&self, h: HandleId) -> DataMeta<'_> {
        DataMeta {
            id: h,
            label: self.table.labels.get(h.0),
            size_bytes: self.size(h),
        }
    }

    /// Payload size of a handle in bytes.
    pub(crate) fn size(&self, h: HandleId) -> f64 {
        self.table.sizes[h.0]
    }

    /// The registration table, shared, to render handle labels after a run.
    pub(crate) fn handle_table(&self) -> Arc<HandleTable> {
        Arc::clone(&self.table)
    }

    /// Number of registered handles.
    pub fn len(&self) -> usize {
        self.table.sizes.len()
    }

    /// Whether no data is registered.
    pub fn is_empty(&self) -> bool {
        self.table.sizes.is_empty()
    }

    /// Devices currently holding a valid copy of `h`.
    pub fn valid_on(&self, h: HandleId) -> BTreeSet<DeviceId> {
        self.valid[h.0].iter().map(device_of).collect()
    }

    /// Whether device `d` holds a valid copy of `h`.
    pub fn is_valid_on(&self, h: HandleId, d: DeviceId) -> bool {
        self.valid[h.0].contains(node_of(d))
    }

    /// The first device (not host memory) holding a valid copy of `h`.
    pub(crate) fn device_owner(&self, h: HandleId) -> Option<DeviceId> {
        // `Node::Dev` sorts before `Node::Host`.
        match self.valid[h.0].first()? {
            Node::Dev(d) => Some(DeviceId(d)),
            Node::Host => None,
        }
    }

    /// Plans the transfers needed before accessing `h` on `device` with
    /// `mode`, without changing any state.
    ///
    /// Under [`Routing::HostStaged`] the plan is at most two hops:
    /// owner→host (when no host copy exists), then host→device. Under
    /// [`Routing::PeerToPeer`] a direct owner→device hop over a declared
    /// peer interconnect is used instead whenever one exists and is cheaper.
    pub fn plan_acquire(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
        routing: Routing,
    ) -> TransferPlan {
        let size = self.table.sizes[h.0];
        let costs = MachineCosts { machine, size };
        let pure = proto::plan_acquire(&self.valid[h.0], node_of(device), mode, routing, &costs);
        decorate(machine, h, size, pure)
    }

    /// Plans the transfer bringing `h` back to host memory (end of run /
    /// result collection), without changing any state. Prefers an owner
    /// sharing the host address space (free flush); otherwise the first
    /// owner pays its host route.
    pub fn plan_flush(&self, machine: &SimMachine, h: HandleId) -> TransferPlan {
        let size = self.table.sizes[h.0];
        let pure = proto::plan_flush(&self.valid[h.0], &MachineCosts { machine, size });
        decorate(machine, h, size, pure)
    }

    /// Applies a plan's coherence and byte-accounting effects: every hop
    /// destination gains a valid copy, and each physically moved hop is
    /// counted exactly once in the matching direction counter.
    pub fn commit(&mut self, plan: &TransferPlan) {
        let h = plan.handle.0;
        let size = self.table.sizes[h];
        commit_plan(&mut self.valid[h], &mut self.bytes, &plan.pure, size);
    }

    /// Records the access itself after its transfers committed: a write
    /// invalidates every other copy (MSI write-invalidate), a read leaves
    /// the reader holding a valid copy.
    pub fn finish_access(&mut self, h: HandleId, device: DeviceId, mode: AccessMode) {
        proto::finish_access(&mut self.valid[h.0], node_of(device), mode);
    }

    /// Plans, commits and completes one access under the given routing,
    /// returning the modeled uncontended transfer time. Commits the pure
    /// plan it prices: nothing here needs the links a decorated plan names.
    pub fn acquire_via(
        &mut self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
        routing: Routing,
    ) -> Duration {
        let size = self.table.sizes[h.0];
        let valid = &mut self.valid[h.0];
        let costs = MachineCosts { machine, size };
        let plan = proto::plan_acquire(valid, node_of(device), mode, routing, &costs);
        commit_plan(valid, &mut self.bytes, &plan, size);
        proto::finish_access(valid, node_of(device), mode);
        Duration::new(plan.total())
    }

    /// [`acquire_via`](Self::acquire_via) with host-staged routing — the
    /// behaviour of PCIe-era systems the paper targets.
    pub fn acquire(
        &mut self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
    ) -> Duration {
        self.acquire_via(machine, h, device, mode, Routing::HostStaged)
    }

    /// Estimates the transfer time [`acquire_via`](Self::acquire_via) would
    /// charge, **without** changing coherence state. Equal by construction:
    /// both price the same pure [`proto::plan_acquire`] plan, whose hop costs
    /// are the `transfer_time`s decorated hops carry, summed in hop order.
    pub fn probe_acquire_via(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
        routing: Routing,
    ) -> Duration {
        let size = self.table.sizes[h.0];
        let costs = MachineCosts { machine, size };
        let plan = proto::plan_acquire(&self.valid[h.0], node_of(device), mode, routing, &costs);
        Duration::new(plan.total())
    }

    /// Plans and commits the transfer bringing `h` back to host memory.
    /// Returns the modeled time.
    pub fn flush_to_host(&mut self, machine: &SimMachine, h: HandleId) -> Duration {
        let plan = self.plan_flush(machine, h);
        self.commit(&plan);
        plan.total()
    }

    /// Total bytes moved host→device so far.
    pub fn bytes_to_devices(&self) -> f64 {
        self.bytes.to_devices
    }

    /// Total bytes moved device→host so far.
    pub fn bytes_to_host(&self) -> f64 {
        self.bytes.to_host
    }

    /// Total bytes moved directly device→device over peer interconnects.
    pub fn bytes_peer(&self) -> f64 {
        self.bytes.peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_discover::synthetic;

    fn machine() -> SimMachine {
        SimMachine::from_platform(&synthetic::xeon_2gpu_testbed())
    }

    fn gpu0(m: &SimMachine) -> DeviceId {
        m.device_by_pu("gpu0").unwrap().id
    }

    fn gpu1(m: &SimMachine) -> DeviceId {
        m.device_by_pu("gpu1").unwrap().id
    }

    fn cpu0(m: &SimMachine) -> DeviceId {
        m.device_by_pu("cpu0").unwrap().id
    }

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::Read.reads() && !AccessMode::Read.writes());
        assert!(!AccessMode::Write.reads() && AccessMode::Write.writes());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
        assert_eq!(AccessMode::parse("readwrite"), Some(AccessMode::ReadWrite));
        assert_eq!(AccessMode::parse(" READ "), Some(AccessMode::Read));
        assert_eq!(AccessMode::parse("x"), None);
    }

    #[test]
    fn access_mode_parse_ignores_case_and_separators() {
        // These spellings were rejected before parse normalized internal
        // separators; pragma keywords elsewhere already did (BLOCK-CYCLIC).
        assert_eq!(AccessMode::parse("Read-Write"), Some(AccessMode::ReadWrite));
        assert_eq!(AccessMode::parse("READ_WRITE"), Some(AccessMode::ReadWrite));
        assert_eq!(AccessMode::parse("in out"), Some(AccessMode::ReadWrite));
        assert_eq!(AccessMode::parse("\tOut "), Some(AccessMode::Write));
        assert_eq!(AccessMode::parse("not-a-mode"), None);
    }

    #[test]
    fn model_topo_mirrors_machine_routes() {
        use hetero_model::proto::CostView as _;
        let m = nvlink_machine();
        let devices = [cpu0(&m), gpu0(&m), gpu1(&m)];
        let size = 600e6;
        let topo = model_topo(&m, "nvlink", &devices, size);
        assert_eq!(topo.devices(), 3);
        // cpu0 shares the host address space; the GPUs pay their PCIe route.
        assert_eq!(topo.host_cost(0), None);
        let pcie = m.host_route(gpu0(&m)).unwrap().transfer_time(size);
        assert_eq!(topo.host_cost(1), Some(pcie.seconds()));
        // The declared NVLink pair appears in both directions, and nowhere
        // else.
        let nv = m
            .peer_route(gpu0(&m), gpu1(&m))
            .unwrap()
            .transfer_time(size);
        assert_eq!(topo.peer_cost(1, 2), Some(nv.seconds()));
        assert_eq!(topo.peer_cost(2, 1), Some(nv.seconds()));
        assert_eq!(topo.peer_cost(0, 1), None);
    }

    #[test]
    fn first_gpu_read_pays_pcie_transfer() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 600e6);
        let t = reg.acquire(&m, h, gpu0(&m), AccessMode::Read);
        // 600 MB over 6 GB/s + 15us latency.
        assert!((t.seconds() - 0.100015).abs() < 1e-6, "{t}");
        // Second read is free: copy is valid.
        let t2 = reg.acquire(&m, h, gpu0(&m), AccessMode::Read);
        assert_eq!(t2, Duration::ZERO);
        assert_eq!(reg.bytes_to_devices(), 600e6);
    }

    #[test]
    fn cpu_reads_are_free() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 1e9);
        let t = reg.acquire(&m, h, cpu0(&m), AccessMode::Read);
        assert_eq!(t, Duration::ZERO); // shared address space, no link
    }

    #[test]
    fn write_invalidates_other_copies() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 1e6);
        reg.acquire(&m, h, gpu0(&m), AccessMode::Read);
        assert!(reg.is_valid_on(h, HOST));
        assert!(reg.is_valid_on(h, gpu0(&m)));
        // GPU1 writes: everything else invalid.
        reg.acquire(&m, h, gpu1(&m), AccessMode::Write);
        assert!(!reg.is_valid_on(h, HOST));
        assert!(!reg.is_valid_on(h, gpu0(&m)));
        assert!(reg.is_valid_on(h, gpu1(&m)));
    }

    #[test]
    fn pure_write_needs_no_transfer_in() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("C", 1e9);
        let t = reg.acquire(&m, h, gpu0(&m), AccessMode::Write);
        assert_eq!(t, Duration::ZERO);
        assert_eq!(reg.bytes_to_devices(), 0.0);
    }

    #[test]
    fn gpu_to_gpu_stages_through_host() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 600e6);
        reg.acquire(&m, h, gpu0(&m), AccessMode::Write); // data lives on gpu0 only
        let t = reg.acquire(&m, h, gpu1(&m), AccessMode::Read);
        // Two PCIe hops: gpu0→host, host→gpu1.
        assert!((t.seconds() - 2.0 * 0.100015).abs() < 1e-5, "{t}");
        assert!(reg.is_valid_on(h, HOST)); // staged copy remains valid
        assert!(reg.is_valid_on(h, gpu0(&m))); // read does not invalidate
        assert!(reg.is_valid_on(h, gpu1(&m)));
    }

    #[test]
    fn flush_to_host_once() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("C", 600e6);
        reg.acquire(&m, h, gpu0(&m), AccessMode::Write);
        let t = reg.flush_to_host(&m, h);
        assert!(t > Duration::ZERO);
        let t2 = reg.flush_to_host(&m, h);
        assert_eq!(t2, Duration::ZERO);
        assert_eq!(reg.bytes_to_host(), 600e6);
    }

    #[test]
    fn read_after_write_on_same_device_is_free() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("C", 1e9);
        reg.acquire(&m, h, gpu0(&m), AccessMode::Write);
        let t = reg.acquire(&m, h, gpu0(&m), AccessMode::ReadWrite);
        assert_eq!(t, Duration::ZERO);
    }

    fn nvlink_machine() -> SimMachine {
        SimMachine::from_platform(&synthetic::xeon_2gpu_nvlink_testbed())
    }

    #[test]
    fn peer_read_uses_nvlink_when_declared() {
        let m = nvlink_machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 600e6);
        reg.acquire_via(&m, h, gpu0(&m), AccessMode::Write, Routing::PeerToPeer);
        let probe = reg.probe_acquire_via(&m, h, gpu1(&m), AccessMode::Read, Routing::PeerToPeer);
        let t = reg.acquire_via(&m, h, gpu1(&m), AccessMode::Read, Routing::PeerToPeer);
        // One NVLink hop: 600 MB over 25 GB/s + 2 µs — not two PCIe hops.
        assert!((t.seconds() - 0.024002).abs() < 1e-6, "{t}");
        assert_eq!(probe, t);
        assert_eq!(reg.bytes_peer(), 600e6);
        assert_eq!(reg.bytes_to_host(), 0.0);
        assert_eq!(reg.bytes_to_devices(), 0.0);
        // A peer copy does not create a host copy.
        assert!(!reg.is_valid_on(h, HOST));
        assert!(reg.is_valid_on(h, gpu0(&m)));
        assert!(reg.is_valid_on(h, gpu1(&m)));
    }

    #[test]
    fn p2p_routing_falls_back_to_staging_without_peer_link() {
        let m = machine(); // plain testbed: no NVLink declared
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 600e6);
        reg.acquire_via(&m, h, gpu0(&m), AccessMode::Write, Routing::PeerToPeer);
        let t = reg.acquire_via(&m, h, gpu1(&m), AccessMode::Read, Routing::PeerToPeer);
        assert!((t.seconds() - 2.0 * 0.100015).abs() < 1e-5, "{t}");
        assert_eq!(reg.bytes_peer(), 0.0);
        assert_eq!(reg.bytes_to_host(), 600e6);
        assert_eq!(reg.bytes_to_devices(), 600e6);
    }

    #[test]
    fn shared_space_staging_counts_no_host_bytes() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 600e6);
        // Data written on a CPU core: it lives in the host address space,
        // so "staging" it back to host is free and moves zero bytes.
        reg.acquire(&m, h, cpu0(&m), AccessMode::Write);
        let t = reg.acquire(&m, h, gpu0(&m), AccessMode::Read);
        assert!((t.seconds() - 0.100015).abs() < 1e-6, "{t}");
        assert_eq!(reg.bytes_to_host(), 0.0);
        assert_eq!(reg.bytes_to_devices(), 600e6);
    }

    #[test]
    fn acquire_charges_each_hop_once() {
        let m = machine();
        let mut reg = DataRegistry::new();
        let h = reg.register("A", 600e6);
        reg.acquire(&m, h, gpu0(&m), AccessMode::Write);
        let plan = reg.plan_acquire(&m, h, gpu1(&m), AccessMode::Read, Routing::HostStaged);
        assert_eq!(plan.hops.len(), 2);
        assert_eq!(plan.hops[0].to, HOST);
        assert_eq!(plan.hops[1].from, HOST);
        // Both hops carry bytes over one PCIe link each — disjoint links.
        assert_eq!(plan.hops[0].bytes, 600e6);
        assert_eq!(plan.hops[1].bytes, 600e6);
        assert_eq!(plan.hops[0].links.len(), 1);
        assert_eq!(plan.hops[1].links.len(), 1);
        assert_ne!(plan.hops[0].links, plan.hops[1].links);
    }

    #[test]
    fn clones_share_nothing_mutable() {
        let m = machine();
        let mut r = DataRegistry::new();
        let a = r.register("A", 600e6);
        let mut c = r.clone();
        c.acquire(&m, a, gpu0(&m), AccessMode::Read);
        c.acquire(&m, a, gpu1(&m), AccessMode::Write);
        let b = c.register("B", 20.0);
        assert_eq!((c.len(), c.meta(a).label, c.meta(b).label), (2, "A", "B"));
        assert_eq!(c.bytes_to_devices(), 600e6);
        assert_eq!(c.valid_on(a), BTreeSet::from([gpu1(&m)]));
        // The original saw none of it.
        assert_eq!((r.len(), r.meta(a).label), (1, "A"));
        assert_eq!(r.valid_on(a), BTreeSet::from([HOST]));
        assert_eq!(r.bytes_to_devices(), 0.0);
        // And goes its own way from the shared prefix.
        let b2 = r.register("B2", 30.0);
        assert_eq!(
            (b2, r.meta(b2).label, r.meta(b2).size_bytes),
            (b, "B2", 30.0)
        );
        assert_eq!((c.meta(b).label, c.meta(b).size_bytes), ("B", 20.0));
    }

    #[test]
    fn labels_are_exactly_what_display_wrote() {
        let mut r = DataRegistry::new();
        let empty = r.register("", 1.0);
        let tile = r.register(format_args!("größe[{}][{}]", 3, 14), 2.0);
        let owned = r.register(String::from("任务"), 3.0);
        assert_eq!(r.meta(empty).label, "");
        assert_eq!(r.meta(tile).label, "größe[3][14]");
        assert_eq!(r.meta(owned).label, "任务");
        assert_eq!(r.meta(tile).id, tile);
    }

    #[test]
    fn registry_bookkeeping() {
        let mut reg = DataRegistry::new();
        assert!(reg.is_empty());
        let a = reg.register("A", 10.0);
        let b = reg.register("B", 20.0);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.meta(a).label, "A");
        assert_eq!(reg.meta(b).size_bytes, 20.0);
        assert!(reg.is_valid_on(a, HOST));
    }
}
