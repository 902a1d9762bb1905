//! # repro — the paper's evaluation, regenerated
//!
//! One module per experiment of §7 of the QoE Doctor paper; the `repro`
//! binary dispatches on the experiment ids declared in
//! [`cli::EXPERIMENTS`] (`table3`, `fig7`, …, plus `all` and `list`). See
//! DESIGN.md for the paper-to-experiment index and EXPERIMENTS.md for
//! recorded outputs and the paper-vs-measured comparison.

pub mod ablation;
pub mod chaos;
pub mod cli;
pub mod exp71;
pub mod exp72;
pub mod exp73;
pub mod exp74;
pub mod exp75;
pub mod exp76;
pub mod exp77;
pub mod monitor;
pub mod records;
pub mod render;
pub mod scenario;
pub mod stage;
pub mod tables;

pub use scenario::NetKind;
