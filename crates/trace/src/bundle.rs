//! Bundle writers/readers and the [`BundleArtifact`] trait.

use std::fs::{self, File};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use simcore::SimTime;

use crate::digest::entry_checksum;
use crate::error::TraceError;
use crate::manifest::{Manifest, ManifestEntry, FORMAT_VERSION};

/// Name of the one data file in a bundle directory: the entries, the
/// manifest and the footer. Sub-bundle directory names never contain a
/// `.`, so none can take this name.
pub const DATA_FILE: &str = "bundle.qtb";

/// Last bytes of every finished bundle file.
const FOOTER_MAGIC: [u8; 8] = *b"QTBUNDLE";
/// Footer length: the manifest's length and checksum (`u64` little-endian
/// each), then [`FOOTER_MAGIC`].
const FOOTER_LEN: u64 = 24;

/// The bytes that close a bundle file after its entries: the manifest
/// text, then the footer — the text's length and
/// [`entry_checksum`](crate::entry_checksum), each a little-endian `u64`,
/// and an 8-byte magic.
pub fn seal_manifest(manifest: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(manifest.len() + FOOTER_LEN as usize);
    out.extend_from_slice(manifest.as_bytes());
    out.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
    out.extend_from_slice(&entry_checksum(manifest.as_bytes()).to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

/// Read exactly `len` bytes of `file` at `offset` into a buffer of their
/// own. The read is positional: it leaves the file's cursor alone, so
/// threads sharing one open file never see each other's bytes.
fn read_at(file: &File, path: &Path, offset: u64, len: u64) -> Result<Vec<u8>, TraceError> {
    let mut bytes = vec![0; len as usize];
    file.read_exact_at(&mut bytes, offset)
        .map_err(|e| TraceError::io(path, e))?;
    Ok(bytes)
}

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

/// Writes one bundle: each entry streamed to the bundle file as it is
/// added, the manifest and footer last.
pub struct BundleWriter {
    dir: PathBuf,
    path: PathBuf,
    file: File,
    manifest: Manifest,
}

impl BundleWriter {
    /// Create (or reuse) `dir`, create its bundle file afresh, and start a
    /// bundle with `meta`'s identity.
    pub fn create(dir: &Path, meta: &BundleMeta) -> Result<BundleWriter, TraceError> {
        fs::create_dir_all(dir).map_err(|e| TraceError::io(dir, e))?;
        let path = dir.join(DATA_FILE);
        let file = File::create(&path).map_err(|e| TraceError::io(&path, e))?;
        Ok(BundleWriter {
            dir: dir.to_path_buf(),
            path,
            file,
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

    fn write_entry(&mut self, name: &str, bytes: &[u8]) -> Result<ManifestEntry, TraceError> {
        self.file
            .write_all(bytes)
            .map_err(|e| TraceError::io(&self.path, e))?;
        Ok(ManifestEntry {
            name: name.to_string(),
            offset: self.manifest.data_len(),
            bytes: bytes.len() as u64,
            checksum: entry_checksum(bytes),
        })
    }

    /// Add an analyzer-visible artifact.
    pub fn artifact(&mut self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        let entry = self.write_entry(name, bytes)?;
        self.manifest.artifacts.push(entry);
        Ok(())
    }

    /// Add an evaluation-only ground truth (segregated in the manifest).
    pub fn truth(&mut self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        let entry = self.write_entry(name, bytes)?;
        self.manifest.truths.push(entry);
        Ok(())
    }

    /// Register a nested bundle named `name` and hand back the directory
    /// the caller should save it into. Every character but an ASCII
    /// letter or digit maps to `-`, so distinct names can map to one
    /// directory; the second of them is refused rather than saved over the
    /// first.
    pub fn sub_dir(&mut self, name: &str) -> Result<PathBuf, TraceError> {
        let dir_name: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        if dir_name.is_empty() || self.manifest.subs.iter().any(|(_, d)| *d == dir_name) {
            return Err(TraceError::SubDirectory {
                name: name.to_string(),
                dir: dir_name,
            });
        }
        let dir = self.dir.join(&dir_name);
        self.manifest.subs.push((name.to_string(), dir_name));
        Ok(dir)
    }

    /// Write the manifest and footer, completing the bundle. Until this
    /// runs the bundle file has no valid footer and cannot be opened — a
    /// crashed recorder therefore leaves an unreadable bundle, not a
    /// truncated one.
    pub fn finish(mut self) -> Result<(), TraceError> {
        self.file
            .write_all(&seal_manifest(&self.manifest.render()))
            .map_err(|e| TraceError::io(&self.path, e))
    }
}

/// Reads one bundle, verifying checksums on every access.
///
/// The bundle file stays open for the reader's life; every read is
/// positional, so threads may share one reader.
pub struct BundleReader {
    dir: PathBuf,
    path: PathBuf,
    file: File,
    manifest: Manifest,
}

impl BundleReader {
    /// Open the bundle in `dir`: check its footer and the manifest's
    /// checksum, parse the manifest, and check that its entries tile the
    /// bytes before it.
    pub fn open(dir: &Path) -> Result<BundleReader, TraceError> {
        let path = dir.join(DATA_FILE);
        let file = File::open(&path).map_err(|e| TraceError::io(&path, e))?;
        let len = file.metadata().map_err(|e| TraceError::io(&path, e))?.len();
        let no_footer = || TraceError::BadMagic(format!("{} has no bundle footer", path.display()));
        let footer_at = len.checked_sub(FOOTER_LEN).ok_or_else(no_footer)?;
        let footer = read_at(&file, &path, footer_at, FOOTER_LEN)?;
        if footer[16..] != FOOTER_MAGIC {
            return Err(no_footer());
        }
        let word = |i: usize| u64::from_le_bytes(footer[8 * i..8 * i + 8].try_into().unwrap());
        let (manifest_len, checksum) = (word(0), word(1));
        let data_len = footer_at.checked_sub(manifest_len).ok_or_else(|| {
            TraceError::Corrupt(format!(
                "manifest of {manifest_len} bytes does not fit in a {len}-byte bundle file"
            ))
        })?;
        let text = read_at(&file, &path, data_len, manifest_len)?;
        if entry_checksum(&text) != checksum {
            return Err(TraceError::ManifestChecksum);
        }
        let text = String::from_utf8(text)
            .map_err(|_| TraceError::Corrupt("manifest is not UTF-8".into()))?;
        let manifest = Manifest::parse(&text)?;
        manifest.check_layout(data_len)?;
        Ok(BundleReader {
            dir: dir.to_path_buf(),
            path,
            file,
            manifest,
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
        let bytes = read_at(&self.file, &self.path, entry.offset, entry.bytes)?;
        if entry_checksum(&bytes) != entry.checksum {
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

    /// Replace the manifest of the finished bundle in `dir` by `edit` of
    /// its text, with a footer that matches the new text.
    fn reseal(dir: &Path, edit: impl FnOnce(&str) -> String) {
        let r = BundleReader::open(dir).unwrap();
        let text = edit(&r.manifest().render());
        let data_len = r.manifest().data_len() as usize;
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(data_len);
        bytes.extend(seal_manifest(&text));
        fs::write(&path, bytes).unwrap();
    }

    /// Open the bundle in `dir` and read every entry it lists.
    fn read_all(dir: &Path) -> Result<(), TraceError> {
        let r = BundleReader::open(dir)?;
        for e in &r.manifest().artifacts {
            r.artifact(&e.name)?;
        }
        for e in &r.manifest().truths {
            r.truth(&e.name)?;
        }
        Ok(())
    }

    #[test]
    fn write_read_and_segregation() {
        let dir = tmp("seg");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", b"abc").unwrap();
        w.truth("camera", b"xyz").unwrap();
        w.finish().unwrap();

        // The whole bundle is one file.
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, [DATA_FILE]);
        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.meta(), meta());
        assert_eq!(r.manifest().entry("camera").unwrap().range(), 3..6);
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
        w.artifact("behavior", b"abc").unwrap();
        w.artifact("cpu", b"def").unwrap();
        w.finish().unwrap();
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= b'c' ^ b'd';
        fs::write(&path, bytes).unwrap();
        let r = BundleReader::open(&dir).unwrap();
        assert!(matches!(
            r.artifact("behavior"),
            Err(TraceError::ChecksumMismatch { name }) if name == "behavior"
        ));
        assert_eq!(r.artifact("cpu").unwrap(), b"def");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_bundle_has_no_manifest() {
        let dir = tmp("unfinished");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", &[0x5a; 100]).unwrap();
        // No finish(): simulates a recorder crash after the entry reached
        // the file.
        drop(w);
        assert_eq!(fs::metadata(dir.join(DATA_FILE)).unwrap().len(), 100);
        assert!(matches!(
            BundleReader::open(&dir),
            Err(TraceError::BadMagic(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_cannot_name_a_file_outside_the_bundle() {
        let root = tmp("escape");
        let dir = root.join("bundle");
        let write = || {
            let mut w = BundleWriter::create(&dir, &meta()).unwrap();
            w.artifact("behavior", b"abc").unwrap();
            w.sub_dir("inner").unwrap();
            w.finish().unwrap();
        };
        // A sub-bundle directory beside the bundle, not inside it.
        write();
        reseal(&dir, |text| text.replace("sub inner ", "sub .. "));
        assert!(matches!(
            BundleReader::open(&dir),
            Err(TraceError::Manifest { line: 7, .. })
        ));
        // An entry reaching into the manifest, with a checksum that would
        // pass over those bytes.
        write();
        reseal(&dir, |text| {
            let sealed = seal_manifest(text);
            let sum = entry_checksum(&[b"abc".as_slice(), &sealed[..1]].concat());
            let line = text.lines().find(|l| l.starts_with("artifact")).unwrap();
            text.replace(line, &format!("artifact behavior 0 4 {sum:016x}"))
        });
        assert!(matches!(
            BundleReader::open(&dir),
            Err(TraceError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_prefix_and_flipped_byte_fails_structurally() {
        let dir = tmp("damage");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        w.artifact("behavior", b"some behaviour bytes").unwrap();
        w.artifact("trace", &(0..=255).collect::<Vec<u8>>())
            .unwrap();
        w.truth("camera", b"xyz").unwrap();
        w.sub_dir("shaping run").unwrap();
        w.finish().unwrap();
        read_all(&dir).unwrap();
        let path = dir.join(DATA_FILE);
        let good = fs::read(&path).unwrap();
        // Entries, manifest (identity fields included) and footer alike.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(read_all(&dir).is_err(), "a {cut}-byte prefix was accepted");
        }
        for i in 0..good.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= mask;
                fs::write(&path, &bad).unwrap();
                assert!(read_all(&dir).is_err(), "byte {i} ^ {mask:#x} was accepted");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_bundles_nest() {
        let dir = tmp("subs");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        let sub = w.sub_dir("shaping run").unwrap();
        let mut sw = BundleWriter::create(&sub, &meta()).unwrap();
        sw.artifact("behavior", b"inner").unwrap();
        sw.finish().unwrap();
        w.finish().unwrap();

        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.sub_names(), ["shaping run"]);
        let sr = r.sub("shaping run").unwrap();
        assert_eq!(sr.artifact("behavior").unwrap(), b"inner");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_dir_refuses_a_directory_in_use() {
        let dir = tmp("sub-collide");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        assert_eq!(w.sub_dir("a b").unwrap(), dir.join("a-b"));
        for name in ["a-b", "a.b", ""] {
            assert!(
                matches!(w.sub_dir(name), Err(TraceError::SubDirectory { .. })),
                "{name:?}"
            );
        }
        w.finish().unwrap();
        assert_eq!(BundleReader::open(&dir).unwrap().sub_names(), ["a b"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_sharing_one_reader_each_get_their_own_bytes() {
        let dir = tmp("shared");
        let mut w = BundleWriter::create(&dir, &meta()).unwrap();
        // Entries of distinct lengths and fill bytes, so a read that got
        // another entry's bytes fails its checksum or its length.
        let entries: Vec<(String, Vec<u8>)> = (0..4u8)
            .map(|i| (format!("e{i}"), vec![i; 4096 + 97 * i as usize]))
            .collect();
        for (name, bytes) in &entries {
            w.artifact(name, bytes).unwrap();
        }
        w.finish().unwrap();
        let r = BundleReader::open(&dir).unwrap();
        std::thread::scope(|s| {
            for (name, bytes) in &entries {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..200 {
                        assert_eq!(&r.artifact(name).unwrap(), bytes);
                    }
                });
            }
        });
        let _ = fs::remove_dir_all(&dir);
    }
}
