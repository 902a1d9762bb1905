//! # simcore — deterministic discrete-event simulation substrate
//!
//! Shared foundation for the QoE Doctor reproduction: a virtual clock
//! ([`SimTime`]/[`SimDuration`]), a deterministic event queue
//! ([`EventQueue`]), seeded randomness ([`DetRng`]), timestamped record logs
//! ([`RecordLog`]) that the offline analyzers window over, the event-driven
//! simulation loop ([`Tick`]/[`advance`] over a [`WakeCalendar`]), and the
//! statistics containers the experiment harness reports with ([`Summary`],
//! [`Cdf`], [`BinSeries`]).
//!
//! Design rules enforced throughout the workspace:
//!
//! * **No ambient time or randomness.** All time comes from the simulated
//!   clock, all randomness from a [`DetRng`] derived from the experiment
//!   seed, so every figure regenerates bit-for-bit.
//! * **Event-driven components.** Following the style of production Rust
//!   network stacks, components are plain state machines that report when
//!   they next need service and are ticked only then; there is no async
//!   runtime and no threads inside the simulation.

#![warn(missing_docs)]

mod log;
mod queue;
mod rng;
mod runner;
mod stats;
mod time;
pub mod watchdog;

pub use log::{RecordLog, Stamped};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use runner::{advance, earlier, run_until, ComponentId, Tick, WakeCalendar};
pub use stats::{midranks, percentile, percentile_sorted, BinSeries, Cdf, SortedSamples, Summary};
pub use time::{SimDuration, SimTime};
