//! Epoch scheduler: lowering a monitoring grid to a staged campaign.
//!
//! A [`MonitorSpec`] is a grid of [`CellSpec`]s — one cell per
//! (app-version × carrier-profile × tech) point — re-measured over `epochs`
//! consecutive epochs. [`MonitorSpec::build`] lowers the whole history to
//! one [`harness::StagedCampaign`] with a job per cell×epoch, labelled
//! `<cell>/eNN`, so the existing harness machinery provides parallel
//! execution, job-order result collection (byte-identical output at any
//! worker count), and content-addressed bundle caching for free.
//!
//! Real-world change arrives through the cell's closures: `record` and
//! `config_digest` both receive the epoch number, so a cell models an app
//! update or a carrier policy change simply by building a different world
//! from some epoch onward — and because the config digest changes with it,
//! the cache can never serve a pre-change bundle for a post-change epoch.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use harness::{bundle_dir, Json, Record, StagedCampaign};
use trace::{BundleArtifact, Digest, Reads};

use crate::detect::{CellHistory, EpochMetrics};
use crate::store::EpochEntry;

/// One monitored grid cell: how to record an epoch and how to analyze it.
///
/// All closures receive the epoch number; a drifting cell (app update,
/// throttling onset, RRC timer change) branches on it. `config_digest`
/// must change whenever the epoch's effective config does — it is the
/// bundle-cache identity.
pub struct CellSpec<A> {
    /// Cell label, e.g. `fb/app-update/LTE`.
    pub cell: String,
    /// Whether this is a no-change control cell (reporting only; the
    /// detector treats every cell identically).
    pub control: bool,
    /// Build and run epoch `e`'s world with the given seed; returns the
    /// recorded artifact.
    pub record: Arc<dyn Fn(usize, u64) -> A + Send + Sync>,
    /// The bundle entries `analyze` reads (see
    /// [`StagedCampaign::job`]).
    pub reads: Reads,
    /// Pure analysis of epoch `e`'s artifact into its metric samples and
    /// cross-layer attribution.
    // Spelled out like `record` beside it; an alias would only hide it.
    #[allow(clippy::type_complexity)]
    pub analyze: Arc<dyn Fn(usize, &A) -> EpochMetrics + Send + Sync>,
    /// Digest of epoch `e`'s effective config.
    pub config_digest: Arc<dyn Fn(usize) -> u64 + Send + Sync>,
}

/// One cell×epoch result row.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Cell the epoch belongs to.
    pub cell: String,
    /// Epoch number.
    pub epoch: usize,
    /// Seed the epoch ran with.
    pub seed: u64,
    /// Digest of the epoch's effective config.
    pub config_digest: u64,
    /// The epoch's metrics and attribution.
    pub metrics: EpochMetrics,
}

impl fmt::Display for EpochRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<24} e{:02}", self.cell, self.epoch)?;
        for (name, samples) in &self.metrics.metrics {
            let mean = if samples.is_empty() {
                0.0
            } else {
                samples.iter().sum::<f64>() / samples.len() as f64
            };
            write!(f, "  {name} {mean:7.3}")?;
        }
        let l = &self.metrics.layers;
        write!(
            f,
            "  | layers dev {:6.3}s net {:6.3}s promo {:6.3}s retx {:5.3}",
            l.device_s, l.network_s, l.promo_s, l.rlc_retx
        )
    }
}

impl Record for EpochRow {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .metrics
            .iter()
            .map(|(name, samples)| {
                let mean = if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                };
                (
                    name.clone(),
                    Json::obj([
                        ("n", Json::from(samples.len())),
                        ("mean", Json::Num(mean)),
                        ("samples", Json::nums(samples)),
                    ]),
                )
            })
            .collect();
        let l = &self.metrics.layers;
        Json::obj([
            ("cell", Json::from(self.cell.as_str())),
            ("epoch", Json::from(self.epoch)),
            ("metrics", Json::Obj(metrics)),
            (
                "layers",
                Json::obj([
                    ("device_s", Json::Num(l.device_s)),
                    ("network_s", Json::Num(l.network_s)),
                    ("promo_s", Json::Num(l.promo_s)),
                    ("rlc_retx", Json::Num(l.rlc_retx)),
                ]),
            ),
        ])
    }
}

/// A monitoring grid over a span of epochs.
pub struct MonitorSpec<A> {
    /// Campaign name (also the bundle-cache namespace).
    pub name: String,
    /// Base seed; per-job seeds are derived from it, the cell, and the
    /// epoch.
    pub base_seed: u64,
    /// Number of epochs to (re-)measure every cell over.
    pub epochs: usize,
    /// The monitored cells.
    pub cells: Vec<CellSpec<A>>,
}

/// Seed of one cell×epoch job: a digest of the base seed, the cell label,
/// and the epoch, so every epoch of every cell is an independent draw and
/// re-runs are reproducible.
pub fn epoch_seed(base: u64, cell: &str, epoch: usize) -> u64 {
    Digest::new().u64(base).str(cell).u64(epoch as u64).finish()
}

impl<A: BundleArtifact + Send + 'static> MonitorSpec<A> {
    /// Lower the grid to a staged campaign: one job per cell×epoch, in
    /// cell-major, epoch-minor order (so the printed rows read as one
    /// cell's history at a time).
    pub fn build(&self) -> StagedCampaign<A, EpochRow> {
        let mut staged: StagedCampaign<A, EpochRow> = StagedCampaign::new(self.name.clone());
        for spec in &self.cells {
            for epoch in 0..self.epochs {
                let seed = epoch_seed(self.base_seed, &spec.cell, epoch);
                let config_digest = (spec.config_digest)(epoch);
                let cell = spec.cell.clone();
                let record = Arc::clone(&spec.record);
                let analyze = Arc::clone(&spec.analyze);
                let label = format!("{}/e{epoch:02}", spec.cell);
                let rec = move || record(epoch, seed);
                let ana = move |a: &A| EpochRow {
                    cell,
                    epoch,
                    seed,
                    config_digest,
                    metrics: analyze(epoch, a),
                };
                staged.job(label, seed, config_digest, rec, spec.reads, ana);
            }
        }
        staged
    }

    /// The [`EpochEntry`] a cell×epoch job's bundle lands at when the
    /// campaign runs in cached mode under `root` — ready to commit to an
    /// [`EpochStore`](crate::store::EpochStore) rooted at the same
    /// directory.
    pub fn epoch_entry(&self, root: &Path, cell: &CellSpec<A>, epoch: usize) -> EpochEntry {
        let seed = epoch_seed(self.base_seed, &cell.cell, epoch);
        let config_digest = (cell.config_digest)(epoch);
        let label = format!("{}/e{epoch:02}", cell.cell);
        let dir = bundle_dir(root, &self.name, &label, seed, config_digest);
        let rel = dir
            .strip_prefix(root)
            .expect("bundle dir is under its root")
            .to_string_lossy()
            .into_owned();
        EpochEntry {
            epoch,
            seed,
            config_digest,
            dir: rel,
        }
    }
}

/// Group job-order rows back into per-cell histories, preserving cell
/// order. Rows must be cell-major and epoch-contiguous — exactly what
/// [`MonitorSpec::build`] produces (jobs that faulted leave holes, which
/// panic here: a monitoring history with a missing epoch is meaningless).
pub fn histories(rows: Vec<EpochRow>) -> Vec<CellHistory> {
    let mut out: Vec<CellHistory> = Vec::new();
    for row in rows {
        if out.last().map(|h| h.cell != row.cell).unwrap_or(true) {
            out.push(CellHistory {
                cell: row.cell.clone(),
                epochs: Vec::new(),
            });
        }
        let hist = out.last_mut().expect("just pushed");
        assert_eq!(
            row.epoch,
            hist.epochs.len(),
            "cell {} history has a hole (a job faulted?)",
            row.cell
        );
        hist.epochs.push(row.metrics);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::LayerShares;
    use harness::StageMode;
    use simcore::SimTime;
    use std::path::PathBuf;
    use trace::{BundleMeta, BundleReader, BundleWriter, TraceError};

    /// Minimal artifact: one u64 payload.
    #[derive(Debug, PartialEq)]
    struct Blob(u64);

    impl BundleArtifact for Blob {
        fn save_bundle(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError> {
            let mut w = BundleWriter::create(dir, meta)?;
            w.artifact("blob", &self.0.to_le_bytes())?;
            w.finish()
        }
        fn load_bundle(dir: &Path) -> Result<(Blob, BundleMeta), TraceError> {
            let r = BundleReader::open(dir)?;
            let bytes = r.artifact("blob")?;
            let arr: [u8; 8] = bytes
                .as_slice()
                .try_into()
                .map_err(|_| TraceError::UnexpectedEof)?;
            Ok((Blob(u64::from_le_bytes(arr)), r.meta()))
        }
        fn end(&self) -> SimTime {
            SimTime::ZERO
        }
    }

    fn spec() -> MonitorSpec<Blob> {
        let cell = |name: &str, drift_at: usize| CellSpec {
            cell: name.to_string(),
            control: drift_at == usize::MAX,
            record: Arc::new(move |epoch, seed| {
                Blob(if epoch >= drift_at {
                    1000 + seed % 7
                } else {
                    seed % 7
                })
            }),
            reads: Reads::artifacts(&["blob"]),
            analyze: Arc::new(|epoch, a: &Blob| EpochMetrics {
                epoch,
                metrics: vec![("value".to_string(), vec![a.0 as f64])],
                layers: LayerShares::default(),
            }),
            config_digest: Arc::new(move |epoch| if epoch >= drift_at { 2 } else { 1 }),
        };
        MonitorSpec {
            name: "monitor/test".to_string(),
            base_seed: 42,
            epochs: 4,
            cells: vec![cell("drift", 2), cell("control", usize::MAX)],
        }
    }

    #[test]
    fn grid_is_cell_major_and_seeds_are_stable() {
        let rows = spec()
            .build()
            .into_campaign(&StageMode::Inline)
            .run(3)
            .into_outputs();
        assert_eq!(rows.len(), 8);
        let cells: Vec<&str> = rows.iter().map(|r| r.cell.as_str()).collect();
        assert_eq!(
            cells,
            ["drift", "drift", "drift", "drift", "control", "control", "control", "control"]
        );
        // Seeds are a pure function of (base, cell, epoch).
        assert_eq!(rows[1].seed, epoch_seed(42, "drift", 1));
        assert_ne!(rows[1].seed, rows[5].seed, "cells draw independently");

        let hists = histories(rows);
        assert_eq!(hists.len(), 2);
        assert_eq!(hists[0].epochs.len(), 4);
        // The drift cell's payload jumps at epoch 2.
        let means = hists[0].epoch_means("value");
        assert!(means[2] > 999.0 && means[1] < 7.0, "{means:?}");
    }

    #[test]
    fn parallel_rows_match_serial() {
        let a = spec()
            .build()
            .into_campaign(&StageMode::Inline)
            .run(1)
            .into_outputs();
        let b = spec()
            .build()
            .into_campaign(&StageMode::Inline)
            .run(4)
            .into_outputs();
        assert_eq!(a, b);
    }

    #[test]
    fn epoch_entries_commit_to_a_store() {
        let root: PathBuf =
            std::env::temp_dir().join(format!("monitor-sched-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = spec();
        let run = s
            .build()
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(2);
        assert_eq!(run.faulted() + run.failed(), 0);

        let store = crate::store::EpochStore::open(&root).unwrap();
        for cell in &s.cells {
            for epoch in 0..s.epochs {
                let entry = s.epoch_entry(&root, cell, epoch);
                assert!(store.append(&cell.cell, &entry).unwrap());
            }
        }
        // Entries resolve to loadable, identity-checked bundles.
        let entries = store.entries("drift").unwrap();
        assert_eq!(entries.len(), 4);
        let blob: Blob = store.load_epoch("drift", &entries[3]).unwrap();
        assert!(blob.0 >= 1000);
        // Second commit round is idempotent.
        let entry = s.epoch_entry(&root, &s.cells[0], 0);
        assert!(!store.append("drift", &entry).unwrap());
        let _ = std::fs::remove_dir_all(&root);
    }
}
