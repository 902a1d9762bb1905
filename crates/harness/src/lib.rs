//! # harness — deterministic parallel campaign runner
//!
//! Every experiment of the QoE Doctor evaluation is a *campaign*: a named
//! grid of configurations × seeds, where each cell builds and runs one
//! independent seeded simulation world. Because the worlds share nothing,
//! campaigns are embarrassingly parallel — and because results are collected
//! **in job order** regardless of completion order, output is byte-identical
//! for one worker and for N (`repro all --jobs 4` prints exactly what
//! `--jobs 1` prints, just sooner).
//!
//! The pieces:
//!
//! * [`Campaign`] — the job grid. Each [`Job`] is a label, a seed, and a
//!   closure that the executor calls exactly once to produce one result
//!   row or fail softly. A job is a seeded, deterministic world, so a
//!   rerun would replay the same failure: there are no harness retries —
//!   recovery from app failures lives in the session's controller.
//! * [`StagedCampaign`] — a grid whose jobs are split into record and
//!   analyze stages, lowered to a [`Campaign`] in any [`StageMode`] or as
//!   a record-only campaign. Each lowered job reports the simulated time
//!   it measured: the end of the artifact it recorded or loaded.
//! * The executor ([`Campaign::run`]) — scoped worker threads
//!   (`std::thread::scope`) pulling jobs from a shared atomic cursor. A
//!   panicking job is caught and recorded as a failed [`JobResult`]; it
//!   never aborts the campaign. A worker left without jobs becomes an idle
//!   permit that the jobs still running may borrow through
//!   [`simcore::par`], so at most `workers` threads ever work at once.
//! * The report ([`write_report`]) — a machine-readable JSON journal of the
//!   run (per-job wall-clock, simulated time, seed, outcome, structured
//!   row data) plus cross-job aggregates merged with `simcore::stats`
//!   ([`simcore::Summary::merge`] / [`simcore::Cdf::merge`]). Row types opt
//!   in by implementing [`Record`].

#![warn(missing_docs)]

mod campaign;
pub mod json;
mod report;
mod staged;

pub use campaign::{default_workers, Campaign, CampaignRun, Job, JobResult, Outcome};
pub use json::Json;
pub use report::{report_json, write_report, Record};
pub use staged::{bundle_dir, slug, BundleRow, StageMode, StageStats, StagedCampaign};
