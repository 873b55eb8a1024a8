//! Differential fuzzing of the coherence data layer: random action
//! sequences replayed against the pure `hetero-model` oracle AND the real
//! `DataRegistry`, failing on any divergence in valid sets, routing class,
//! probe values or charged bytes.
//!
//! The registry delegates its transitions to `hetero_model::proto`, so
//! these tests guard the *decoration* layer (hop → links/durations/bytes)
//! and the index mapping between runtime `DeviceId`s and model nodes —
//! exactly the glue a refactoring would break silently. Probes are
//! compared with exact `==`: the pure costs are computed by the same
//! `transfer_time` calls in the same order as the decorated durations, so
//! bit-identical floats are the contract, not an accident.

use hetero_model::model::{Action, Model, Mutation, State};
use hetero_model::proto::{AccessMode, Node, PlanClass, Routing};
use hetero_rt::data::{model_topo, DataRegistry, HandleId, TransferPlan, HOST};
use pdl_discover::synthetic;
use simhw::machine::{DeviceId, SimMachine};
use std::collections::BTreeSet;

/// Handle payload sizes: one large datum (transfer-dominated) and one
/// small (latency-dominated), matching the bounded model-check configs.
const SIZES: [f64; 2] = [600e6, 1e6];
const MAX_PENDING: usize = 2;

/// Deterministic splitmix-style PRNG — no external crates, stable across
/// runs so any failure is reproducible from its printed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Harness {
    machine: SimMachine,
    /// Model device index `i` is runtime device `devices[i]`.
    devices: Vec<DeviceId>,
    model: Model,
}

impl Harness {
    fn new(platform_name: &str, mutation: Mutation) -> Harness {
        let platform = match platform_name {
            "pcie" => synthetic::xeon_2gpu_testbed(),
            "nvlink" => synthetic::xeon_2gpu_nvlink_testbed(),
            other => panic!("unknown platform {other}"),
        };
        let machine = SimMachine::from_platform(&platform);
        let devices: Vec<DeviceId> = ["cpu0", "gpu0", "gpu1"]
            .iter()
            .map(|pu| machine.device_by_pu(pu).unwrap().id)
            .collect();
        let topos = SIZES
            .iter()
            .map(|&size| model_topo(&machine, platform_name, &devices, size))
            .collect();
        Harness {
            machine,
            devices,
            model: Model::new(topos).with_mutation(mutation),
        }
    }

    fn registry(&self) -> (DataRegistry, Vec<HandleId>) {
        let mut reg = DataRegistry::new();
        let handles = SIZES
            .iter()
            .enumerate()
            .map(|(i, &size)| reg.register(format!("h{i}"), size))
            .collect();
        (reg, handles)
    }

    /// The model's valid set for handle `h`, mapped into runtime ids.
    fn mapped_valid(&self, state: &State, h: usize) -> BTreeSet<DeviceId> {
        state.handles[h]
            .valid()
            .iter()
            .map(|n| match n {
                Node::Host => HOST,
                Node::Dev(i) => self.devices[i],
            })
            .collect()
    }

    /// Runs one random sequence, returning a divergence description or
    /// `None` when model and registry agreed on every step.
    fn run_sequence(&self, seed: u64, len: usize) -> Option<String> {
        let mut rng = Rng(seed);
        let (mut reg, handles) = self.registry();
        let mut state = self.model.initial();

        for step in 0..len {
            let action = match self.propose(&mut rng, &state) {
                Some(a) => a,
                None => continue,
            };
            let (next, effects) = self.model.step(&state, action);

            let ctx = |what: &str| format!("seed {seed} step {step} `{action}`: {what}");
            match action {
                Action::Acquire {
                    handle,
                    dev,
                    mode,
                    routing,
                } => {
                    let (h, d) = (handles[handle], self.devices[dev]);
                    let probe = reg.probe_acquire_via(&self.machine, h, d, mode, routing);
                    let plan = reg.plan_acquire(&self.machine, h, d, mode, routing);
                    if probe.seconds() != effects.probe {
                        return Some(ctx(&format!(
                            "probe {} != model {}",
                            probe.seconds(),
                            effects.probe
                        )));
                    }
                    if class_of(&plan) != effects.class {
                        return Some(ctx(&format!(
                            "class {:?} != model {:?}",
                            class_of(&plan),
                            effects.class
                        )));
                    }
                    if let Some(d) = self.check_commit(&mut reg, &plan, &effects, SIZES[handle]) {
                        return Some(ctx(&d));
                    }
                }
                Action::Finish { handle, dev, mode } => {
                    reg.finish_access(handles[handle], self.devices[dev], mode);
                }
                Action::Flush { handle } => {
                    let plan = reg.plan_flush(&self.machine, handles[handle]);
                    if plan.total().seconds() != effects.probe {
                        return Some(ctx(&format!(
                            "flush cost {} != model {}",
                            plan.total().seconds(),
                            effects.probe
                        )));
                    }
                    if let Some(d) = self.check_commit(&mut reg, &plan, &effects, SIZES[handle]) {
                        return Some(ctx(&d));
                    }
                }
            }

            state = next;
            for (hi, &h) in handles.iter().enumerate() {
                let want = self.mapped_valid(&state, hi);
                if reg.valid_on(h) != want {
                    return Some(ctx(&format!(
                        "valid set of h{hi}: registry {:?} != model {want:?}",
                        reg.valid_on(h)
                    )));
                }
            }
        }
        None
    }

    /// Commits `plan` on the registry and compares the byte-counter deltas
    /// against the model's hop charges (hop count × datum size, exact).
    fn check_commit(
        &self,
        reg: &mut DataRegistry,
        plan: &TransferPlan,
        effects: &hetero_model::model::StepEffects,
        size: f64,
    ) -> Option<String> {
        let before = (
            reg.bytes_to_devices(),
            reg.bytes_to_host(),
            reg.bytes_peer(),
        );
        reg.commit(plan);
        let deltas = (
            reg.bytes_to_devices() - before.0,
            reg.bytes_to_host() - before.1,
            reg.bytes_peer() - before.2,
        );
        let want = (
            f64::from(effects.charges.to_device_hops) * size,
            f64::from(effects.charges.to_host_hops) * size,
            f64::from(effects.charges.peer_hops) * size,
        );
        (deltas != want).then(|| format!("charged bytes {deltas:?} != model {want:?}"))
    }

    /// Proposes one random enabled action (or `None` for a skipped draw,
    /// e.g. an acquire against a full pending queue).
    fn propose(&self, rng: &mut Rng, state: &State) -> Option<Action> {
        let handle = rng.pick(SIZES.len());
        match rng.pick(4) {
            // Acquires twice as likely as the others: they drive the
            // interesting transitions.
            0 | 1 => {
                if state.handles[handle].pending.len() >= MAX_PENDING {
                    return None;
                }
                let mode =
                    [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite][rng.pick(3)];
                let routing = [Routing::HostStaged, Routing::PeerToPeer][rng.pick(2)];
                Some(Action::Acquire {
                    handle,
                    dev: rng.pick(self.devices.len()),
                    mode,
                    routing,
                })
            }
            2 => {
                let pending = &state.handles[handle].pending;
                if pending.is_empty() {
                    return None;
                }
                let (dev, mode) = pending[rng.pick(pending.len())];
                Some(Action::Finish { handle, dev, mode })
            }
            _ => Some(Action::Flush { handle }),
        }
    }
}

/// Routing class the decorated plan realizes, computed independently of
/// the model's classification.
fn class_of(plan: &TransferPlan) -> PlanClass {
    let physical = |h: &&hetero_rt::data::TransferHop| !h.links.is_empty() || h.bytes > 0.0;
    if plan
        .hops
        .iter()
        .any(|h| physical(&h) && h.from != HOST && h.to != HOST)
    {
        PlanClass::Peer
    } else if plan.hops.iter().any(|h| physical(&h)) {
        PlanClass::Staged
    } else {
        PlanClass::Local
    }
}

#[test]
fn ten_thousand_sequences_agree_on_both_platforms() {
    // 5 000 sequences × 2 platforms = 10 000, each up to 12 actions, all
    // from a fixed seed so failures replay exactly.
    for platform in ["pcie", "nvlink"] {
        let harness = Harness::new(platform, Mutation::None);
        for seq in 0..5_000u64 {
            let seed = 0xC0FFEE ^ (seq << 8);
            if let Some(divergence) = harness.run_sequence(seed, 12) {
                panic!("{platform}: {divergence}");
            }
        }
    }
}

#[test]
fn injected_single_writer_bug_diverges_quickly() {
    // With SkipWriteInvalidate in the oracle, the first finished write
    // that had other copies valid must diverge from the real registry
    // (which invalidates correctly). The fuzzer is the second, independent
    // net behind the explorer for the same injected bug.
    let harness = Harness::new("nvlink", Mutation::SkipWriteInvalidate);
    let diverged = (0..200u64).find_map(|seq| harness.run_sequence(0xBAD ^ (seq << 8), 12));
    let msg = diverged.expect("mutated oracle never diverged in 200 sequences");
    assert!(
        msg.contains("valid set"),
        "unexpected divergence kind: {msg}"
    );
}

#[test]
fn under_charge_mutation_diverges_on_charges() {
    // UnderCharge corrupts the model's charged-cost bookkeeping; the
    // divergence surfaces as a probe≠charged violation inside the model,
    // which the explorer owns — but the fuzzer must still agree with the
    // registry on everything it compares (charges counters are computed
    // by the unmutated proto::commit on both sides). This documents the
    // split of responsibilities: fuzzer catches glue bugs, explorer
    // catches protocol bugs.
    let harness = Harness::new("pcie", Mutation::UnderCharge);
    for seq in 0..100u64 {
        assert!(harness.run_sequence(0xFEED ^ (seq << 8), 10).is_none());
    }
}
