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
//! * **Threads only around it.** Threads run whole campaign jobs (the
//!   `harness` workers) and, through [`par`], the pure analysis of
//!   finished recordings on workers that have run out of jobs. Neither
//!   ever runs inside a world step, so no output depends on scheduling.

#![warn(missing_docs)]

mod log;
pub mod par;
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
pub use stats::{midranks, BinSeries, Cdf, Summary};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::DetRng;

    /// The "regenerates bit-for-bit" rule above, through the public API:
    /// two generators from one seed agree on every kind of draw.
    #[test]
    fn deterministic_per_seed() {
        let mut a = DetRng::seed_from_u64(9);
        let mut b = DetRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(a.range_u64(0, u64::MAX), b.range_u64(0, u64::MAX));
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
            assert_eq!(a.index(1000), b.index(1000));
            assert_eq!(a.normal(0.0, 1.0).to_bits(), b.normal(0.0, 1.0).to_bits());
            assert_eq!(a.chance(0.5), b.chance(0.5));
        }
        assert_eq!(
            a.fork(3).range_u64(0, u64::MAX),
            b.fork(3).range_u64(0, u64::MAX)
        );
    }
}
