//! Energy accounting over execution traces.
//!
//! The paper motivates heterogeneous many-cores as "a way to cope with
//! energy consumption limitations" — this module closes that loop: given a
//! machine (per-device power from PDL `TDP`/`IDLE_POWER` properties) and how
//! long a schedule kept each device busy, it computes the energy the schedule
//! would consume, letting schedulers be compared on energy as well as
//! makespan.

use crate::machine::SimMachine;
use crate::time::{Duration, SimTime};
use std::collections::BTreeMap;

/// Energy breakdown for one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Joules consumed while devices were busy.
    pub active_j: f64,
    /// Joules consumed while devices idled (until the global makespan).
    pub idle_j: f64,
    /// Per-device totals (active + idle), keyed by PU id.
    pub per_device_j: BTreeMap<String, f64>,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.active_j + self.idle_j
    }

    /// Average power over the makespan, in watts (0 for empty traces).
    pub fn average_power_w(&self, makespan_s: f64) -> f64 {
        if makespan_s == 0.0 {
            0.0
        } else {
            self.total_j() / makespan_s
        }
    }
}

/// Computes the energy a schedule consumes on a machine, given each
/// device's busy time (indexed by device id; a device past the end of
/// `busy` was never busy) and the makespan.
///
/// Each device draws `active_power_w` while busy and `idle_power_w` from
/// time zero to the global makespan while not busy. Devices with zero
/// configured power contribute nothing (untracked).
pub fn energy(machine: &SimMachine, busy: &[Duration], makespan: SimTime) -> EnergyReport {
    let makespan = makespan.seconds();
    let mut active_j = 0.0;
    let mut idle_j = 0.0;
    let mut per_device = BTreeMap::new();

    for dev in &machine.devices {
        let busy_s = busy
            .get(dev.id.0)
            .map_or(0.0, |d| d.seconds())
            .min(makespan);
        let a = busy_s * dev.active_power_w;
        let i = (makespan - busy_s) * dev.idle_power_w;
        active_j += a;
        idle_j += i;
        per_device.insert(dev.pu_id.to_string(), a + i);
    }

    EnergyReport {
        active_j,
        idle_j,
        per_device_j: per_device,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::prelude::*;

    fn machine_with_power() -> SimMachine {
        let mut b = Platform::builder("e");
        let m = b.master("host");
        let w = b.worker(m, "gpu").unwrap();
        b.prop(w, Property::fixed(wellknown::ARCHITECTURE, "gpu"));
        b.prop(
            w,
            Property::fixed(wellknown::PEAK_GFLOPS_DP, "100").with_unit(Unit::GigaFlopPerSec),
        );
        b.prop(
            w,
            Property::fixed(wellknown::TDP, "200").with_unit(Unit::Watt),
        );
        b.prop(
            w,
            Property::fixed(wellknown::IDLE_POWER, "50").with_unit(Unit::Watt),
        );
        let w2 = b.worker(m, "cpu").unwrap();
        b.prop(w2, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        b.prop(
            w2,
            Property::fixed(wellknown::PEAK_GFLOPS_DP, "10").with_unit(Unit::GigaFlopPerSec),
        );
        b.prop(
            w2,
            Property::fixed(wellknown::TDP, "100").with_unit(Unit::Watt),
        );
        b.prop(
            w2,
            Property::fixed(wellknown::IDLE_POWER, "20").with_unit(Unit::Watt),
        );
        SimMachine::from_platform(&b.build().unwrap())
    }

    /// Busy times indexed by device id, from `(device, seconds)` pairs.
    fn busy(m: &SimMachine, of: &[(&str, f64)]) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; m.len()];
        for &(pu, s) in of {
            busy[m.device_by_pu(pu).unwrap().id.0] = Duration::new(s);
        }
        busy
    }

    #[test]
    fn active_and_idle_split() {
        let m = machine_with_power();
        // GPU busy 2s, CPU busy 4s → makespan 4s.
        let e = energy(
            &m,
            &busy(&m, &[("gpu", 2.0), ("cpu", 4.0)]),
            SimTime::new(4.0),
        );
        // GPU: 2s×200W + 2s×50W = 500 J; CPU: 4s×100W = 400 J.
        assert_eq!(e.per_device_j["gpu"], 500.0);
        assert_eq!(e.per_device_j["cpu"], 400.0);
        assert_eq!(e.active_j, 2.0 * 200.0 + 4.0 * 100.0);
        assert_eq!(e.idle_j, 2.0 * 50.0);
        assert_eq!(e.total_j(), 900.0);
        assert_eq!(e.average_power_w(4.0), 225.0);
    }

    #[test]
    fn empty_trace_zero_energy() {
        let m = machine_with_power();
        let e = energy(&m, &[], SimTime::ZERO);
        assert_eq!(e.total_j(), 0.0);
        assert_eq!(e.average_power_w(0.0), 0.0);
    }

    #[test]
    fn untracked_devices_contribute_nothing() {
        let p = pdl_core::patterns::host_device(1); // no power properties
        let m = SimMachine::from_platform(&p);
        let e = energy(&m, &[Duration::new(10.0)], SimTime::new(10.0));
        assert_eq!(e.total_j(), 0.0);
    }

    #[test]
    fn faster_schedule_saves_idle_energy() {
        // Same busy work, shorter makespan → less idle energy.
        let m = machine_with_power();
        let work = busy(&m, &[("gpu", 2.0), ("cpu", 2.0)]);
        let balanced = energy(&m, &work, SimTime::new(2.0));
        let skewed = energy(&m, &work, SimTime::new(4.0));
        assert_eq!(balanced.active_j, skewed.active_j);
        assert!(balanced.idle_j < skewed.idle_j);
        assert!(balanced.total_j() < skewed.total_j());
    }
}
