//! Append-only longitudinal run-history store layered on trace bundles.
//!
//! An [`EpochStore`] owns a directory with two kinds of content:
//!
//! * `index/<cell-slug>.idx` — one plain-text index per monitored cell
//!   (a cell is one point of the app-version × carrier-profile × tech
//!   grid). Line 1 is a header naming the index version and the cell; each
//!   following line records one epoch: its number, seed, config digest,
//!   the store-relative bundle directory, and an FNV-1a line checksum.
//! * the bundle directories themselves, written by the harness's
//!   content-addressed cache ([`harness::bundle_dir`] layout) — the store
//!   does not duplicate them, it *points* at them.
//!
//! The index is **append-only**: epochs are contiguous from 0 and an epoch,
//! once written, is immutable. Re-appending an identical entry is an
//! idempotent no-op (that is what lets a re-run with a warm cache commit
//! its history again); appending anything that contradicts or skips history
//! is [`MonitorError::HistoryRewritten`]. Torn or edited lines are caught
//! by the per-line checksum and reported as [`MonitorError::Corrupt`] with
//! the line number.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use harness::slug;
use trace::{fnv1a, BundleArtifact};

use crate::error::MonitorError;

/// Version of the index file format this build reads and writes.
pub const INDEX_VERSION: u32 = 1;

/// One epoch of one cell's history: where its bundle lives and the identity
/// it was recorded under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochEntry {
    /// Epoch number, contiguous from 0.
    pub epoch: usize,
    /// Seed the epoch was simulated with.
    pub seed: u64,
    /// Digest of the epoch's effective config (drift changes this).
    pub config_digest: u64,
    /// Bundle directory, relative to the store root.
    pub dir: String,
}

impl EpochEntry {
    /// The checksummed index line for this entry (no trailing newline).
    fn line(&self) -> String {
        let body = format!(
            "epoch {} seed {:016x} config {:016x} dir {}",
            self.epoch, self.seed, self.config_digest, self.dir
        );
        let crc = fnv1a(body.as_bytes());
        format!("{body} crc {crc:016x}")
    }
}

/// A longitudinal run-history store rooted at a directory.
#[derive(Debug, Clone)]
pub struct EpochStore {
    root: PathBuf,
}

impl EpochStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: &Path) -> Result<EpochStore, MonitorError> {
        let index = root.join("index");
        fs::create_dir_all(&index).map_err(|e| MonitorError::io(&index, e))?;
        Ok(EpochStore {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory (bundle dirs in entries are relative to
    /// this).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Index file of `cell`.
    pub fn index_path(&self, cell: &str) -> PathBuf {
        self.root.join("index").join(format!("{}.idx", slug(cell)))
    }

    /// All recorded epochs of `cell`, oldest first. A cell with no index
    /// file yet has an empty history.
    pub fn entries(&self, cell: &str) -> Result<Vec<EpochEntry>, MonitorError> {
        let path = self.index_path(cell);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(MonitorError::io(&path, e)),
        };
        let corrupt = |line: usize, reason: String| MonitorError::Corrupt {
            path: path.clone(),
            line,
            reason,
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| corrupt(1, "empty index".into()))?;
        let head: Vec<&str> = header.split_whitespace().collect();
        match head.as_slice() {
            ["qoe-monitor-index", version, "cell", rest @ ..] => {
                let found: u32 = version
                    .strip_prefix('v')
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| corrupt(1, format!("bad version token {version:?}")))?;
                if found != INDEX_VERSION {
                    return Err(MonitorError::Version {
                        found,
                        expected: INDEX_VERSION,
                    });
                }
                let named = rest.join(" ");
                if named != cell {
                    return Err(corrupt(
                        1,
                        format!("index is for cell {named:?}, not {cell:?}"),
                    ));
                }
            }
            _ => return Err(corrupt(1, format!("bad header {header:?}"))),
        }
        let mut entries = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let (body, crc_hex) = line
                .rsplit_once(" crc ")
                .ok_or_else(|| corrupt(lineno, "missing checksum".into()))?;
            let crc = u64::from_str_radix(crc_hex, 16)
                .map_err(|_| corrupt(lineno, format!("bad checksum {crc_hex:?}")))?;
            if fnv1a(body.as_bytes()) != crc {
                return Err(corrupt(
                    lineno,
                    "checksum mismatch (torn or edited line)".into(),
                ));
            }
            let tok: Vec<&str> = body.split_whitespace().collect();
            let entry = match tok.as_slice() {
                ["epoch", e, "seed", s, "config", c, "dir", d] => EpochEntry {
                    epoch: e
                        .parse()
                        .map_err(|_| corrupt(lineno, format!("bad epoch {e:?}")))?,
                    seed: u64::from_str_radix(s, 16)
                        .map_err(|_| corrupt(lineno, format!("bad seed {s:?}")))?,
                    config_digest: u64::from_str_radix(c, 16)
                        .map_err(|_| corrupt(lineno, format!("bad config digest {c:?}")))?,
                    dir: d.to_string(),
                },
                _ => return Err(corrupt(lineno, format!("unparseable entry {body:?}"))),
            };
            if entry.epoch != entries.len() {
                return Err(corrupt(
                    lineno,
                    format!(
                        "epoch {} out of order (expected {})",
                        entry.epoch,
                        entries.len()
                    ),
                ));
            }
            entries.push(entry);
        }
        Ok(entries)
    }

    /// Append one epoch to `cell`'s history.
    ///
    /// Returns `true` when the entry was written, `false` when an identical
    /// entry was already present (idempotent re-append). Appending an entry
    /// that contradicts recorded history, or whose epoch skips ahead of it,
    /// is [`MonitorError::HistoryRewritten`].
    pub fn append(&self, cell: &str, entry: &EpochEntry) -> Result<bool, MonitorError> {
        let existing = self.entries(cell)?;
        if let Some(prev) = existing.get(entry.epoch) {
            return if prev == entry {
                Ok(false)
            } else {
                Err(MonitorError::HistoryRewritten {
                    cell: cell.to_string(),
                    epoch: entry.epoch,
                    reason: format!("recorded {prev:?}, re-append offered {entry:?}"),
                })
            };
        }
        if entry.epoch != existing.len() {
            return Err(MonitorError::HistoryRewritten {
                cell: cell.to_string(),
                epoch: entry.epoch,
                reason: format!(
                    "append skips history: next epoch is {}, got {}",
                    existing.len(),
                    entry.epoch
                ),
            });
        }
        let path = self.index_path(cell);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| MonitorError::io(&path, e))?;
        if existing.is_empty() {
            writeln!(file, "qoe-monitor-index v{INDEX_VERSION} cell {cell}")
                .map_err(|e| MonitorError::io(&path, e))?;
        }
        writeln!(file, "{}", entry.line()).map_err(|e| MonitorError::io(&path, e))?;
        Ok(true)
    }

    /// Load the bundle an entry points at and validate its identity against
    /// the index: seed and config digest must match what the history says
    /// was recorded.
    pub fn load_epoch<A: BundleArtifact>(
        &self,
        cell: &str,
        entry: &EpochEntry,
    ) -> Result<A, MonitorError> {
        let dir = self.root.join(&entry.dir);
        let (artifact, meta) = A::load_bundle(&dir).map_err(|e| MonitorError::Bundle {
            dir: dir.clone(),
            source: e,
        })?;
        if meta.seed != entry.seed || meta.config_digest != entry.config_digest {
            return Err(MonitorError::HistoryRewritten {
                cell: cell.to_string(),
                epoch: entry.epoch,
                reason: format!(
                    "bundle {} identity (seed {:016x}, config {:016x}) does not match index \
                     (seed {:016x}, config {:016x})",
                    dir.display(),
                    meta.seed,
                    meta.config_digest,
                    entry.seed,
                    entry.config_digest
                ),
            });
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monitor-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(epoch: usize) -> EpochEntry {
        EpochEntry {
            epoch,
            seed: 0x1000 + epoch as u64,
            config_digest: 0xBEEF,
            dir: format!("monitor/cell-{epoch:016x}"),
        }
    }

    #[test]
    fn roundtrip_and_idempotent_append() {
        let root = tmp("roundtrip");
        let store = EpochStore::open(&root).unwrap();
        assert!(store.entries("fb/app-update/LTE").unwrap().is_empty());
        for e in 0..3 {
            assert!(store.append("fb/app-update/LTE", &entry(e)).unwrap());
        }
        // Identical re-append is a no-op, not an error.
        assert!(!store.append("fb/app-update/LTE", &entry(1)).unwrap());
        let got = store.entries("fb/app-update/LTE").unwrap();
        assert_eq!(got, vec![entry(0), entry(1), entry(2)]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn conflicting_append_is_history_rewritten() {
        let root = tmp("conflict");
        let store = EpochStore::open(&root).unwrap();
        store.append("cell", &entry(0)).unwrap();
        let mut changed = entry(0);
        changed.seed ^= 1;
        match store.append("cell", &changed) {
            Err(MonitorError::HistoryRewritten { epoch: 0, .. }) => {}
            other => panic!("expected HistoryRewritten, got {other:?}"),
        }
        // Skipping an epoch is also a rewrite of (future) history.
        match store.append("cell", &entry(5)) {
            Err(MonitorError::HistoryRewritten { epoch: 5, .. }) => {}
            other => panic!("expected HistoryRewritten, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_line_is_detected() {
        let root = tmp("corrupt");
        let store = EpochStore::open(&root).unwrap();
        store.append("cell", &entry(0)).unwrap();
        store.append("cell", &entry(1)).unwrap();
        let path = store.index_path("cell");
        let tampered = fs::read_to_string(&path)
            .unwrap()
            .replace("seed 0000000000001001", "seed 0000000000001009");
        fs::write(&path, tampered).unwrap();
        match store.entries("cell") {
            Err(MonitorError::Corrupt {
                line: 3, reason, ..
            }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected Corrupt at line 3, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_and_cell_mismatch_are_loud() {
        let root = tmp("version");
        let store = EpochStore::open(&root).unwrap();
        store.append("cell", &entry(0)).unwrap();
        let path = store.index_path("cell");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("v1", "v9")).unwrap();
        match store.entries("cell") {
            Err(MonitorError::Version { found: 9, expected }) => {
                assert_eq!(expected, INDEX_VERSION);
            }
            other => panic!("expected Version, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}
