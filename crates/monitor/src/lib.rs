//! # monitor — longitudinal QoE monitoring with statistical regression detection
//!
//! The paper's headline findings are longitudinal: re-measuring the same
//! app over weeks caught the Facebook-update UI-latency regression and the
//! T-Mobile YouTube throttling onset (§5). This crate turns the repo's
//! one-shot campaign machinery into that continuous "doctor mode":
//!
//! * [`store`] — an append-only run-history store layered on `trace`
//!   bundles: a checksummed per-cell epoch index pointing at
//!   content-addressed bundle directories, with structured
//!   [`MonitorError`]s for every way a history can lie.
//! * [`schedule`] — the epoch scheduler: a [`MonitorSpec`] grid of cells
//!   re-measured over epochs, lowered to one `harness::StagedCampaign`
//!   (parallel, cached, byte-deterministic at any worker count). Config
//!   drift — an app update, a carrier shaper, an RRC timer change — is
//!   expressed per epoch and keyed into the cache identity.
//! * [`stats`] — Mann–Whitney U (tie-corrected), two-sample KS distance,
//!   and a CUSUM change-point scan.
//! * [`detect`] — the three-gate regression detector over per-epoch metric
//!   distributions.
//! * [`explain`](mod@explain) — cross-layer attribution of a detection: which layer
//!   moved, by how much, from which epoch.

#![warn(missing_docs)]

pub mod detect;
mod error;
pub mod explain;
pub mod schedule;
pub mod stats;
pub mod store;

pub use detect::{detect_cell, CellHistory, Detection, EpochMetrics, LayerShares};
pub use error::MonitorError;
pub use explain::{explain, LayerDeltas, RegressionDiagnosis};
pub use schedule::{epoch_seed, histories, CellSpec, EpochRow, MonitorSpec};
pub use stats::{
    cusum_change_point, ks_distance, mann_whitney_u, normal_sf, CusumResult, MwuResult,
};
pub use store::{EpochEntry, EpochStore, INDEX_VERSION};
