//! # simhw — discrete-event simulation of heterogeneous hardware
//!
//! The paper's experiment ran on a dual Xeon X5550 with two Nvidia GPUs;
//! this reproduction runs on a single-core container with none. `simhw`
//! substitutes a virtual-time model of such machines, **parameterized
//! entirely by PDL descriptors**: compute rates, link bandwidth/latency and
//! power are read from well-known platform properties — the explicit
//! platform information the paper argues tools should consume.
//!
//! Components:
//! * [`time`] — virtual time ([`time::SimTime`], [`time::Duration`]);
//! * [`machine`] — [`machine::SimMachine`] instantiated from a
//!   [`pdl_core::platform::Platform`];
//! * [`link`] — physical links ([`link::SimLink`]) and routed transfer
//!   paths ([`link::TransferPath`]) derived from interconnect entities;
//! * [`resource`] — serializing occupancy timelines for devices and links;
//! * [`mod@energy`] — energy accounting from PDL `TDP`/`IDLE_POWER` properties.
//!
//! What ran where and when is recorded by the runtime that drives these
//! (`hetero_rt::sim_engine::Trace`).
//!
//! ```
//! use simhw::machine::SimMachine;
//!
//! let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
//! let machine = SimMachine::from_platform(&platform);
//! assert_eq!(machine.devices_with_arch("gpu").count(), 2);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod events;
pub mod link;
pub mod machine;
pub mod resource;
pub mod time;

pub use energy::{energy, EnergyReport};
pub use events::EventQueue;
pub use link::{LinkId, SimLink, TransferPath};
pub use machine::{DeviceId, LinkParams, SimDevice, SimMachine};
pub use resource::Timeline;
pub use time::{Duration, SimTime};
