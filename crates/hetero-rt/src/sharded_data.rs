//! A sharded, concurrently readable view of the coherence data layer.
//!
//! [`DataRegistry`](crate::data::DataRegistry) is a single-owner structure:
//! every plan, probe and commit goes through one `&mut self`. That is the
//! right shape for the single-threaded simulators, but it serializes the
//! data layer of a million-task run behind one lock the moment more than
//! one thread wants at it (ROADMAP: "Parallelize the data layer").
//!
//! [`ShardedDataRegistry`] splits handles across [`SHARD_COUNT`] shards by
//! `handle % SHARD_COUNT`. Each shard publishes an immutable snapshot
//! behind an RCU-style `RwLock<Arc<..>>` (the `pdl-registry` service
//! idiom): readers clone the `Arc` and then plan/probe against frozen
//! state with **no lock held**; writers are serialized per shard by a
//! publish mutex, clone the shard's entry table (a `Vec<Arc<..>>`, so the
//! clone is shallow), replace only the touched handle's entry and swap the
//! snapshot pointer. Two writers on different shards never contend.
//!
//! All coherence *transitions* delegate to the model-checked
//! [`hetero_model::proto`] exactly as the plain registry does — this
//! module adds concurrency structure, not protocol behaviour, and the
//! differential fuzzer in `tests/sharded_data.rs` replays thousands of
//! random sequences against the pure model to prove it.

use crate::data::{
    commit_plan, decorate, device_of, node_of, probe_cost, ByteCounters, DataMeta, HandleId,
    MachineCosts, TransferPlan,
};
use hetero_model::proto::{self, AccessMode, Node, Routing};
use parking_lot::{Mutex, RwLock};
use simhw::machine::{DeviceId, SimMachine};
use simhw::time::Duration;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of shards. A fixed power of two keeps the handle→shard map a
/// mask; 16 comfortably exceeds the worker counts the engines run with,
/// so same-shard writer collisions are rare.
pub const SHARD_COUNT: usize = 16;

/// One handle's registered metadata plus its current valid set, frozen
/// inside a shard snapshot.
#[derive(Debug)]
struct HandleEntry {
    meta: DataMeta,
    valid: BTreeSet<Node>,
}

/// A shard's immutable published state. Writers build a new one (sharing
/// untouched `HandleEntry`s by `Arc`) and swap the pointer; readers work
/// off whatever snapshot they pinned.
#[derive(Debug, Default)]
struct ShardState {
    /// Slot `s` holds the handle with id `s * SHARD_COUNT + shard`;
    /// `None` while a concurrent register to a later slot got published
    /// first.
    entries: Vec<Option<Arc<HandleEntry>>>,
    bytes: ByteCounters,
}

/// One shard: the published snapshot plus the writer-serialization lock.
#[derive(Debug, Default)]
struct Shard {
    /// Serializes writers; snapshot swaps happen while holding this, so a
    /// writer always clones the latest state.
    publish: Mutex<()>,
    state: RwLock<Arc<ShardState>>,
}

impl Shard {
    /// Pins the current snapshot (one brief read-lock, then lock-free).
    fn pin(&self) -> Arc<ShardState> {
        self.state.read().clone()
    }

    /// Runs `mutate` against a private clone of the latest state and
    /// publishes the result. Serialized per shard.
    fn update(&self, mutate: impl FnOnce(&mut ShardState)) {
        let _writer = self.publish.lock();
        let mut next = {
            let current = self.state.read();
            ShardState {
                entries: current.entries.clone(),
                bytes: current.bytes,
            }
        };
        mutate(&mut next);
        *self.state.write() = Arc::new(next);
    }
}

/// A concurrently usable registry of data handles plus their coherence
/// state, sharded by handle id. See the module docs for the locking
/// discipline; the public API mirrors [`crate::data::DataRegistry`]
/// except that planning methods take `&self` snapshots and metadata
/// accessors return owned values (the backing entry may be republished at
/// any time).
#[derive(Debug)]
pub struct ShardedDataRegistry {
    shards: Vec<Shard>,
    next_id: AtomicUsize,
}

impl Default for ShardedDataRegistry {
    fn default() -> Self {
        ShardedDataRegistry::new()
    }
}

/// Shard index and in-shard slot of a handle.
fn locate(h: HandleId) -> (usize, usize) {
    (h.0 % SHARD_COUNT, h.0 / SHARD_COUNT)
}

impl ShardedDataRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ShardedDataRegistry {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            next_id: AtomicUsize::new(0),
        }
    }

    /// Registers a datum of `size_bytes`, initially valid on the host
    /// only. Safe to call concurrently: ids are allocated atomically and
    /// a shard fills earlier slots with placeholders when a later handle
    /// publishes first.
    pub fn register(&self, label: impl Into<String>, size_bytes: f64) -> HandleId {
        let id = HandleId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (shard, slot) = locate(id);
        let label = label.into();
        self.shards[shard].update(|state| {
            if state.entries.len() <= slot {
                state.entries.resize(slot + 1, None);
            }
            state.entries[slot] = Some(Arc::new(HandleEntry {
                meta: DataMeta {
                    id,
                    label: label.clone(),
                    size_bytes,
                },
                valid: BTreeSet::from([Node::Host]),
            }));
        });
        id
    }

    /// The pinned entry for `h`.
    ///
    /// # Panics
    /// Panics when `h` was never registered (same contract as the plain
    /// registry's indexing).
    fn entry(&self, h: HandleId) -> Arc<HandleEntry> {
        let (shard, slot) = locate(h);
        self.shards[shard]
            .pin()
            .entries
            .get(slot)
            .and_then(Clone::clone)
            .unwrap_or_else(|| panic!("handle {h} is not registered"))
    }

    /// Metadata for a handle (an owned copy of the pinned snapshot's).
    pub fn meta(&self, h: HandleId) -> DataMeta {
        self.entry(h).meta.clone()
    }

    /// Number of registered handles.
    pub fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Whether no data is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Devices currently holding a valid copy of `h` (a pinned-snapshot
    /// copy; concurrent writers may publish a newer set immediately).
    pub fn valid_on(&self, h: HandleId) -> BTreeSet<DeviceId> {
        self.entry(h).valid.iter().copied().map(device_of).collect()
    }

    /// Whether device `d` holds a valid copy of `h`.
    pub fn is_valid_on(&self, h: HandleId, d: DeviceId) -> bool {
        self.entry(h).valid.contains(&node_of(d))
    }

    /// Plans the transfers needed before accessing `h` on `device` with
    /// `mode`, against the pinned snapshot, without locks and without
    /// changing any state. Same protocol, same plans as
    /// [`DataRegistry::plan_acquire`](crate::data::DataRegistry::plan_acquire).
    pub fn plan_acquire(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
        routing: Routing,
    ) -> TransferPlan {
        let entry = self.entry(h);
        let size = entry.meta.size_bytes;
        let pure = proto::plan_acquire(
            &entry.valid,
            node_of(device),
            mode,
            routing,
            &MachineCosts { machine, size },
        );
        decorate(machine, h, size, &pure)
    }

    /// Plans the transfer bringing `h` back to host memory, against the
    /// pinned snapshot, without changing any state.
    pub fn plan_flush(&self, machine: &SimMachine, h: HandleId) -> TransferPlan {
        let entry = self.entry(h);
        let size = entry.meta.size_bytes;
        let pure = proto::plan_flush(&entry.valid, &MachineCosts { machine, size });
        decorate(machine, h, size, &pure)
    }

    /// Applies a plan's coherence and byte-accounting effects, serialized
    /// against other writers of the same shard. The transition is computed
    /// from the shard's *latest* state (not the snapshot the plan came
    /// from), delegating to [`proto::commit`] unchanged.
    pub fn commit(&self, plan: &TransferPlan) {
        let (shard, slot) = locate(plan.handle);
        self.shards[shard].update(|state| {
            let entry = state.entries[slot]
                .as_ref()
                .expect("commit of an unregistered handle");
            let mut valid = entry.valid.clone();
            commit_plan(&mut valid, &mut state.bytes, plan);
            state.entries[slot] = Some(Arc::new(HandleEntry {
                meta: entry.meta.clone(),
                valid,
            }));
        });
    }

    /// Records the access itself after its transfers committed: delegates
    /// to [`proto::finish_access`] under the shard writer lock.
    pub fn finish_access(&self, h: HandleId, device: DeviceId, mode: AccessMode) {
        let (shard, slot) = locate(h);
        self.shards[shard].update(|state| {
            let entry = state.entries[slot]
                .as_ref()
                .expect("finish_access of an unregistered handle");
            let mut valid = entry.valid.clone();
            proto::finish_access(&mut valid, node_of(device), mode);
            state.entries[slot] = Some(Arc::new(HandleEntry {
                meta: entry.meta.clone(),
                valid,
            }));
        });
    }

    /// Plans, commits and completes one access under the given routing,
    /// returning the modeled uncontended transfer time.
    pub fn acquire_via(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
        routing: Routing,
    ) -> Duration {
        let plan = self.plan_acquire(machine, h, device, mode, routing);
        self.commit(&plan);
        self.finish_access(h, device, mode);
        plan.total()
    }

    /// [`acquire_via`](Self::acquire_via) with host-staged routing.
    pub fn acquire(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
    ) -> Duration {
        self.acquire_via(machine, h, device, mode, Routing::HostStaged)
    }

    /// Estimates the transfer time [`acquire_via`](Self::acquire_via)
    /// would charge, without changing coherence state.
    pub fn probe_acquire_via(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
        routing: Routing,
    ) -> Duration {
        let entry = self.entry(h);
        probe_cost(
            &entry.valid,
            machine,
            entry.meta.size_bytes,
            device,
            mode,
            routing,
        )
    }

    /// [`probe_acquire_via`](Self::probe_acquire_via) with host-staged
    /// routing.
    pub fn probe_acquire(
        &self,
        machine: &SimMachine,
        h: HandleId,
        device: DeviceId,
        mode: AccessMode,
    ) -> Duration {
        self.probe_acquire_via(machine, h, device, mode, Routing::HostStaged)
    }

    /// Plans and commits the transfer bringing `h` back to host memory.
    /// Returns the modeled time.
    pub fn flush_to_host(&self, machine: &SimMachine, h: HandleId) -> Duration {
        let plan = self.plan_flush(machine, h);
        self.commit(&plan);
        plan.total()
    }

    /// Total bytes moved host→device so far, summed over shards.
    pub fn bytes_to_devices(&self) -> f64 {
        self.shards.iter().map(|s| s.pin().bytes.to_devices).sum()
    }

    /// Total bytes moved device→host so far, summed over shards.
    pub fn bytes_to_host(&self) -> f64 {
        self.shards.iter().map(|s| s.pin().bytes.to_host).sum()
    }

    /// Total bytes moved directly device→device over peer interconnects,
    /// summed over shards.
    pub fn bytes_peer(&self) -> f64 {
        self.shards.iter().map(|s| s.pin().bytes.peer).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HOST;
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

    #[test]
    fn mirrors_plain_registry_semantics() {
        let m = machine();
        let reg = ShardedDataRegistry::new();
        let h = reg.register("A", 600e6);
        assert!(reg.is_valid_on(h, HOST));
        let t = reg.acquire(&m, h, gpu0(&m), AccessMode::Read);
        assert!((t.seconds() - 0.100015).abs() < 1e-6, "{t}");
        assert_eq!(
            reg.acquire(&m, h, gpu0(&m), AccessMode::Read),
            Duration::ZERO
        );
        assert_eq!(reg.bytes_to_devices(), 600e6);
        // A write elsewhere invalidates the other copies.
        reg.acquire(&m, h, gpu1(&m), AccessMode::Write);
        assert!(!reg.is_valid_on(h, HOST));
        assert!(!reg.is_valid_on(h, gpu0(&m)));
        assert!(reg.is_valid_on(h, gpu1(&m)));
    }

    #[test]
    fn handles_spread_across_shards() {
        let reg = ShardedDataRegistry::new();
        let handles: Vec<HandleId> = (0..64)
            .map(|i| reg.register(format!("h{i}"), 8.0))
            .collect();
        assert_eq!(reg.len(), 64);
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.0, i);
            assert_eq!(reg.meta(*h).label, format!("h{i}"));
            assert!(reg.is_valid_on(*h, HOST));
        }
    }

    #[test]
    fn concurrent_registers_fill_all_slots() {
        let reg = Arc::new(ShardedDataRegistry::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        reg.register(format!("t{t}h{i}"), 8.0);
                    }
                });
            }
        });
        assert_eq!(reg.len(), 400);
        for i in 0..400 {
            // Every allocated id resolves to a published entry.
            assert!(reg.is_valid_on(HandleId(i), HOST));
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_handle_panics() {
        let reg = ShardedDataRegistry::new();
        reg.meta(HandleId(3));
    }
}
