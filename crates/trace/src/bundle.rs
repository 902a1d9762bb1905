//! Bundle writers/readers and the [`BundleArtifact`] trait.

use std::fs;
use std::path::{Path, PathBuf};

use simcore::SimTime;

use crate::digest::fnv1a;
use crate::error::TraceError;
use crate::manifest::{Manifest, ManifestEntry, FORMAT_VERSION};

const MANIFEST_FILE: &str = "manifest.txt";

/// Identity of one recorded run: everything that determines the simulation
/// besides the code itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleMeta {
    /// Simulation seed.
    pub seed: u64,
    /// Digest of the scenario configuration (experiment, scale, rates).
    pub config_digest: u64,
    /// Human-readable scenario id, e.g. `fig17/3G`.
    pub scenario: String,
    /// Simulated clock at the end of the recording.
    pub end: SimTime,
}

/// The bundle entries an analyzer reads, by manifest name.
///
/// Analyzer-visible artifacts and evaluation-only truths are declared
/// separately, so an analyzer that scores against a ground truth says so
/// where it is defined. A declaration narrows *decoding* only: a load
/// through [`BundleArtifact::load_reading`] still reads and checksums every
/// entry, and leaves the undeclared ones empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    artifacts: &'static [&'static str],
    truths: &'static [&'static str],
}

impl Reads {
    /// Read the named analyzer-visible artifacts and no truth.
    pub const fn artifacts(names: &'static [&'static str]) -> Reads {
        Reads {
            artifacts: names,
            truths: &[],
        }
    }

    /// Also read the named evaluation-only truths.
    pub const fn and_truths(self, names: &'static [&'static str]) -> Reads {
        Reads {
            truths: names,
            ..self
        }
    }

    /// Whether the analyzer-visible artifact `name` is declared.
    pub fn artifact(&self, name: &str) -> bool {
        self.artifacts.contains(&name)
    }

    /// Whether the truth `name` is declared.
    pub fn truth(&self, name: &str) -> bool {
        self.truths.contains(&name)
    }
}

/// A value that can be persisted as (and restored from) a bundle directory.
///
/// `load_bundle(save_bundle(x)) == x` must hold exactly — the lossless
/// round-trip is what makes analyze-from-disk byte-identical to the inline
/// pipeline.
pub trait BundleArtifact: Sized {
    /// Write this value into `dir` as a complete bundle.
    fn save_bundle(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError>;
    /// Restore a value (and the recording's identity) from `dir`.
    fn load_bundle(dir: &Path) -> Result<(Self, BundleMeta), TraceError>;
    /// Restore a value for an analyzer that reads only `reads`: every entry
    /// is still length- and checksum-verified, but only the declared ones
    /// need be decoded. An analyzer whose reads are complete gets the same
    /// result from this value as from [`BundleArtifact::load_bundle`]'s.
    /// The default is the full load.
    fn load_reading(dir: &Path, reads: &Reads) -> Result<(Self, BundleMeta), TraceError> {
        let _ = reads;
        Self::load_bundle(dir)
    }
    /// Simulated clock at the end of the recording — what a saved bundle's
    /// manifest records as its `end`.
    fn end(&self) -> SimTime;
}

/// Writes one bundle directory: artifacts first, manifest last.
pub struct BundleWriter {
    dir: PathBuf,
    manifest: Manifest,
}

impl BundleWriter {
    /// Create (or reuse) `dir` and start a bundle with `meta`'s identity.
    pub fn create(dir: &Path, meta: &BundleMeta) -> Result<BundleWriter, TraceError> {
        fs::create_dir_all(dir).map_err(|e| TraceError::io(dir, e))?;
        Ok(BundleWriter {
            dir: dir.to_path_buf(),
            manifest: Manifest {
                format_version: FORMAT_VERSION,
                seed: meta.seed,
                config_digest: meta.config_digest,
                scenario: meta.scenario.clone(),
                end: meta.end,
                artifacts: Vec::new(),
                truths: Vec::new(),
                subs: Vec::new(),
            },
        })
    }

    fn write_file(&self, file: &str, bytes: &[u8]) -> Result<ManifestEntry, TraceError> {
        let path = self.dir.join(file);
        fs::write(&path, bytes).map_err(|e| TraceError::io(&path, e))?;
        Ok(ManifestEntry {
            name: String::new(),
            file: file.to_string(),
            bytes: bytes.len() as u64,
            fnv: fnv1a(bytes),
        })
    }

    /// Add an analyzer-visible artifact.
    pub fn artifact(&mut self, name: &str, file: &str, bytes: &[u8]) -> Result<(), TraceError> {
        let entry = ManifestEntry {
            name: name.to_string(),
            ..self.write_file(file, bytes)?
        };
        self.manifest.artifacts.push(entry);
        Ok(())
    }

    /// Add an evaluation-only ground truth (segregated in the manifest).
    pub fn truth(&mut self, name: &str, file: &str, bytes: &[u8]) -> Result<(), TraceError> {
        let entry = ManifestEntry {
            name: name.to_string(),
            ..self.write_file(file, bytes)?
        };
        self.manifest.truths.push(entry);
        Ok(())
    }

    /// Register a nested bundle named `name` and hand back the directory
    /// the caller should save it into.
    pub fn sub_dir(&mut self, name: &str) -> PathBuf {
        let dir_name: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        self.manifest
            .subs
            .push((name.to_string(), dir_name.clone()));
        self.dir.join(dir_name)
    }

    /// Write the manifest, completing the bundle. Until this runs the
    /// directory has no manifest and cannot be opened — a crashed recorder
    /// therefore leaves an unreadable directory, not a truncated bundle.
    pub fn finish(self) -> Result<(), TraceError> {
        let path = self.dir.join(MANIFEST_FILE);
        fs::write(&path, self.manifest.render()).map_err(|e| TraceError::io(&path, e))
    }
}

/// Reads one bundle directory, verifying checksums on every access.
pub struct BundleReader {
    dir: PathBuf,
    manifest: Manifest,
}

impl BundleReader {
    /// Open `dir` by parsing and validating its manifest.
    pub fn open(dir: &Path) -> Result<BundleReader, TraceError> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).map_err(|e| TraceError::io(&path, e))?;
        Ok(BundleReader {
            dir: dir.to_path_buf(),
            manifest: Manifest::parse(&text)?,
        })
    }

    /// The recording's identity fields.
    pub fn meta(&self) -> BundleMeta {
        BundleMeta {
            seed: self.manifest.seed,
            config_digest: self.manifest.config_digest,
            scenario: self.manifest.scenario.clone(),
            end: self.manifest.end,
        }
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Whether an analyzer-visible artifact named `name` exists.
    pub fn has_artifact(&self, name: &str) -> bool {
        self.manifest.artifacts.iter().any(|e| e.name == name)
    }

    fn read_entry(&self, entry: &ManifestEntry) -> Result<Vec<u8>, TraceError> {
        let path = self.dir.join(&entry.file);
        let bytes = fs::read(&path).map_err(|e| TraceError::io(&path, e))?;
        if bytes.len() as u64 != entry.bytes || fnv1a(&bytes) != entry.fnv {
            return Err(TraceError::ChecksumMismatch {
                name: entry.name.clone(),
            });
        }
        Ok(bytes)
    }

    /// Read an analyzer-visible artifact, verifying length and checksum.
    ///
    /// Asking for a ground-truth entry here is a *structured error* — this
    /// is the enforcement point of the manifest's artifact/truth
    /// segregation.
    pub fn artifact(&self, name: &str) -> Result<Vec<u8>, TraceError> {
        if let Some(entry) = self.manifest.artifacts.iter().find(|e| e.name == name) {
            return self.read_entry(entry);
        }
        if self.manifest.truths.iter().any(|e| e.name == name) {
            return Err(TraceError::TruthAccess(name.to_string()));
        }
        Err(TraceError::MissingArtifact(name.to_string()))
    }

    /// Read an evaluation-only ground truth (for scoring code only).
    pub fn truth(&self, name: &str) -> Result<Vec<u8>, TraceError> {
        let entry = self
            .manifest
            .truths
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| TraceError::MissingArtifact(name.to_string()))?;
        self.read_entry(entry)
    }

    /// Whether a ground truth named `name` exists.
    pub fn has_truth(&self, name: &str) -> bool {
        self.manifest.truths.iter().any(|e| e.name == name)
    }

    /// Directory of the nested bundle named `name`.
    pub fn sub_path(&self, name: &str) -> Result<PathBuf, TraceError> {
        let (_, dir) = self
            .manifest
            .subs
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| TraceError::MissingArtifact(format!("sub-bundle {name}")))?;
        Ok(self.dir.join(dir))
    }

    /// Open the nested bundle named `name`.
    pub fn sub(&self, name: &str) -> Result<BundleReader, TraceError> {
        BundleReader::open(&self.sub_path(name)?)
    }

    /// Names of nested bundles, in recorded order.
    pub fn sub_names(&self) -> Vec<&str> {
        self.manifest.subs.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BundleMeta {
        BundleMeta {
            seed: 7,
            config_digest: 0xc0ffee,
            scenario: "test/one".into(),
            end: SimTime::from_micros(99),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trace-bundle-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_read_and_segregation() {
        let dir = tmp("seg");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", "behavior.bin", b"abc").unwrap();
        w.truth("camera", "truth_camera.bin", b"xyz").unwrap();
        w.finish().unwrap();

        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.meta(), meta());
        assert_eq!(r.artifact("behavior").unwrap(), b"abc");
        assert_eq!(r.truth("camera").unwrap(), b"xyz");
        // The artifact accessor must refuse ground truths outright.
        assert!(matches!(
            r.artifact("camera"),
            Err(TraceError::TruthAccess(_))
        ));
        assert!(matches!(
            r.artifact("nope"),
            Err(TraceError::MissingArtifact(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_file_fails_checksum() {
        let dir = tmp("tamper");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", "behavior.bin", b"abc").unwrap();
        w.finish().unwrap();
        fs::write(dir.join("behavior.bin"), b"abd").unwrap();
        let r = BundleReader::open(&dir).unwrap();
        assert!(matches!(
            r.artifact("behavior"),
            Err(TraceError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_bundle_has_no_manifest() {
        let dir = tmp("unfinished");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", "behavior.bin", b"abc").unwrap();
        // No finish(): simulates a recorder crash.
        assert!(matches!(
            BundleReader::open(&dir),
            Err(TraceError::Io { .. })
        ));
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_cannot_name_a_file_outside_the_bundle() {
        let root = tmp("escape");
        let dir = root.join("bundle");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", "behavior.bin", b"abc").unwrap();
        w.finish().unwrap();
        // A file beside the bundle whose length and checksum would pass.
        fs::write(root.join("outside.bin"), b"abc").unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(
            &manifest,
            text.replace(" behavior.bin ", " ../outside.bin "),
        )
        .unwrap();
        assert!(matches!(
            BundleReader::open(&dir),
            Err(TraceError::Manifest { line: 6, .. })
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sub_bundles_nest() {
        let dir = tmp("subs");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        let sub = w.sub_dir("shaping run");
        let mut sw = BundleWriter::create(&sub, &meta()).unwrap();
        sw.artifact("behavior", "behavior.bin", b"inner").unwrap();
        sw.finish().unwrap();
        w.finish().unwrap();

        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.sub_names(), ["shaping run"]);
        let sr = r.sub("shaping run").unwrap();
        assert_eq!(sr.artifact("behavior").unwrap(), b"inner");
        let _ = fs::remove_dir_all(&dir);
    }
}
