//! Property-based coherence invariants for the transfer-planning data
//! layer, driven by random access sequences (many handles, every device,
//! all access modes) on both the plain 2-GPU testbed and its `NVLink`
//! variant, under host-staged *and* peer-to-peer routing:
//!
//! * after every acquire the handle is valid somewhere;
//! * a write leaves exactly one valid copy, held by the writer;
//! * `probe_acquire_via` equals the charge `acquire_via` then applies —
//!   probing is side-effect-free pricing of the same transfer plan;
//! * byte counters advance by exactly the bytes of the plan's hops, each
//!   hop charged to exactly one counter (host→device, device→host, or
//!   peer) — no double counting, no phantom staging bytes;
//! * data is always recoverable to the host afterwards.
//!
//! Probe parity is additionally replayed at many-PU scale (96 GPUs), where
//! the probe is priced from the pure plan and must still equal both the
//! decorated plan's total and the charge, to the `f64`.

use hetero_rt::data::{AccessMode, DataRegistry, Routing, HOST};
use proptest::prelude::*;
use simhw::machine::SimMachine;

fn check_sequence(machine: &SimMachine, routing: Routing, ops: &[(usize, usize, u8)]) {
    let mut reg = DataRegistry::new();
    let handles: Vec<_> = (0..3)
        .map(|i| reg.register(format!("d{i}"), 1e6 * (i + 1) as f64))
        .collect();
    for &(hi, dev, mode) in ops {
        let h = handles[hi % handles.len()];
        let device = machine.devices[dev % machine.len()].id;
        let mode = match mode % 3 {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        };

        // Price the plan twice independently: the probe must agree with
        // the charge, and the plan's hops must explain the counter deltas.
        let plan = reg.plan_acquire(machine, h, device, mode, routing);
        let probed = reg.probe_acquire_via(machine, h, device, mode, routing);
        prop_assert_eq!(probed.seconds(), plan.total().seconds());

        let mut expect_dev = 0.0;
        let mut expect_host = 0.0;
        let mut expect_peer = 0.0;
        for hop in &plan.hops {
            if hop.to == HOST {
                expect_host += hop.bytes;
            } else if hop.from == HOST {
                expect_dev += hop.bytes;
            } else {
                expect_peer += hop.bytes;
            }
        }

        let before = (
            reg.bytes_to_devices(),
            reg.bytes_to_host(),
            reg.bytes_peer(),
        );
        let charged = reg.acquire_via(machine, h, device, mode, routing);
        prop_assert_eq!(charged.seconds(), probed.seconds());
        prop_assert_eq!(reg.bytes_to_devices() - before.0, expect_dev);
        prop_assert_eq!(reg.bytes_to_host() - before.1, expect_host);
        prop_assert_eq!(reg.bytes_peer() - before.2, expect_peer);

        prop_assert!(!reg.valid_on(h).is_empty(), "no valid copy of {h:?}");
        if mode.writes() {
            prop_assert!(reg.is_valid_on(h, device));
            prop_assert_eq!(reg.valid_on(h).len(), 1);
        } else {
            prop_assert!(reg.is_valid_on(h, device));
        }
    }
    // Every handle can always be recovered to the host.
    for &h in &handles {
        reg.flush_to_host(machine, h);
        prop_assert!(reg.is_valid_on(h, HOST));
    }
}

/// Probe parity at many-PU scale: on a 96-GPU cluster a probe (priced from
/// the pure plan), the decorated plan's total and the charge `acquire_via`
/// applies are the same `f64`, step after step of one long random replay
/// with the routing drawn per step.
#[test]
fn probe_equals_plan_equals_charge_on_a_many_gpu_cluster() {
    let machine = SimMachine::from_platform(&pdl_discover::synthetic::gpgpu_cluster(32, 3));
    assert_eq!(machine.len(), 96);
    let mut reg = DataRegistry::new();
    let handles: Vec<_> = (0..16)
        .map(|i| reg.register(format!("d{i}"), 4096.0 * f64::from(i * i + 1)))
        .collect();
    // xorshift64*: a fixed, seeded replay.
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut draw = |n: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    };
    let mut charged_steps = 0;
    for step in 0..4000 {
        let h = handles[draw(handles.len())];
        let device = machine.devices[draw(machine.len())].id;
        let mode = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite][draw(3)];
        let routing = [Routing::HostStaged, Routing::PeerToPeer][draw(2)];
        let probed = reg.probe_acquire_via(&machine, h, device, mode, routing);
        let planned = reg.plan_acquire(&machine, h, device, mode, routing).total();
        let charged = reg.acquire_via(&machine, h, device, mode, routing);
        assert_eq!(probed.seconds(), planned.seconds(), "step {step}");
        assert_eq!(probed.seconds(), charged.seconds(), "step {step}");
        charged_steps += usize::from(charged.seconds() > 0.0);
    }
    assert!(
        charged_steps > 1000,
        "only {charged_steps} steps moved data"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coherence_holds_under_any_access_sequence(
        ops in proptest::collection::vec((0usize..3, 0usize..8, 0u8..3), 1..60),
        p2p in any::<bool>(),
    ) {
        let routing = if p2p { Routing::PeerToPeer } else { Routing::HostStaged };
        // Without declared peer links P2P routing must degrade gracefully;
        // with NVLink declared it must stay coherent while using them.
        let plain = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
        check_sequence(&plain, routing, &ops);
        let nvlink =
            SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_nvlink_testbed());
        check_sequence(&nvlink, routing, &ops);
    }

    #[test]
    fn p2p_routing_never_loses_to_staging(
        ops in proptest::collection::vec((0usize..3, 0usize..8, 0u8..3), 1..40),
    ) {
        // Peer routing is chosen only when cheaper, so running the same
        // sequence under both routings can only lower the total charge.
        let machine =
            SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_nvlink_testbed());
        let total = |routing: Routing| {
            let mut reg = DataRegistry::new();
            let handles: Vec<_> = (0..3)
                .map(|i| reg.register(format!("d{i}"), 1e6 * (i + 1) as f64))
                .collect();
            let mut sum = 0.0;
            for &(hi, dev, mode) in &ops {
                let h = handles[hi % handles.len()];
                let device = machine.devices[dev % machine.len()].id;
                let mode = match mode % 3 {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                };
                sum += reg.acquire_via(&machine, h, device, mode, routing).seconds();
            }
            sum
        };
        let staged = total(Routing::HostStaged);
        let peer = total(Routing::PeerToPeer);
        prop_assert!(peer <= staged + 1e-12, "peer {peer} > staged {staged}");
    }
}
