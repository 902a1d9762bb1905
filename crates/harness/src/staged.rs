//! Two-stage record→analyze campaigns with content-addressed caching.
//!
//! A [`StagedCampaign`] splits every job into a **record** closure (run the
//! simulation, produce an artifact that implements
//! [`trace::BundleArtifact`]) and an **analyze** closure (a pure function
//! from that artifact to the result row). The split mirrors the paper's
//! architecture — record on the device, analyze offline — and lowers to a
//! plain [`Campaign`] in one of four modes:
//!
//! * [`StageMode::Inline`] — record then analyze in memory, exactly the
//!   classic fused pipeline. The baseline every other mode must match
//!   byte-for-byte.
//! * record ([`StagedCampaign::into_record_campaign`]) — record each job
//!   and save its bundle under a content-addressed directory; no analysis.
//! * [`StageMode::Analyze`] — load each job's bundle from disk and run only
//!   the analyze closure. A missing or mismatched bundle faults that job.
//! * [`StageMode::Cached`] — content-addressed cache: load-and-analyze on a
//!   hit, record-save-analyze on a miss. A warm cache re-runs *only*
//!   analysis (`simulated = 0` in the stats).
//!
//! Every job declares the bundle entries its analyze closure reads
//! ([`Reads`]). A job that gets its artifact from disk loads it with
//! [`BundleArtifact::load_reading`], which verifies every entry but decodes
//! only the declared ones; a job that records analyzes the full in-memory
//! artifact. A job's reads must therefore be complete: its row is the same
//! either way only if the analyzer touches nothing it did not declare.
//!
//! Bundles are keyed by `(format version, seed, config digest)`: the
//! directory name embeds the key digest, and on load the manifest's
//! seed/config fields are compared against the job's — a stale bundle
//! (recorded at a different scale, or by an older format) can never be
//! silently analyzed as something it is not.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use simcore::SimTime;
use trace::{BundleArtifact, BundleMeta, Digest, Reads, FORMAT_VERSION};

use crate::campaign::Campaign;
use crate::json::Json;
use crate::report::Record;

/// How a staged campaign's row-producing modes execute. (The record-only
/// stage has its own entry point, [`StagedCampaign::into_record_campaign`],
/// because it produces [`BundleRow`]s instead of result rows.)
#[derive(Debug, Clone)]
pub enum StageMode {
    /// Record and analyze fused in memory (the classic pipeline).
    Inline,
    /// Analyze previously recorded bundles under this root; never simulate.
    Analyze(PathBuf),
    /// Content-addressed cache under this root: analyze cached bundles,
    /// record the missing ones.
    Cached(PathBuf),
}

/// Shared stage counters, updated by job closures on worker threads.
#[derive(Debug)]
pub struct StageCounters {
    mode: &'static str,
    simulated: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
    analyzed: AtomicUsize,
    record_ns: AtomicU64,
    load_ns: AtomicU64,
    analyze_ns: AtomicU64,
}

impl StageCounters {
    fn new(mode: &'static str) -> Arc<StageCounters> {
        Arc::new(StageCounters {
            mode,
            simulated: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            cache_misses: AtomicUsize::new(0),
            analyzed: AtomicUsize::new(0),
            record_ns: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
            analyze_ns: AtomicU64::new(0),
        })
    }

    /// Time one record-stage invocation and fold its wall-clock into the
    /// stage totals.
    fn timed_record<A>(&self, record: impl FnOnce() -> A) -> A {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let artifact = record();
        self.record_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        artifact
    }

    /// Time one attempt to load an artifact from disk likewise, whether
    /// it succeeds or not.
    fn timed_load<R>(&self, load: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let loaded = load();
        self.load_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        loaded
    }

    /// Time one analyze-stage invocation likewise.
    fn timed_analyze<A, T>(&self, artifact: &A, analyze: impl FnOnce(&A) -> T) -> T {
        let t0 = Instant::now();
        let row = analyze(artifact);
        self.analyze_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.analyzed.fetch_add(1, Ordering::Relaxed);
        row
    }

    pub(crate) fn snapshot(&self) -> StageStats {
        StageStats {
            mode: self.mode,
            simulated: self.simulated.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            analyzed: self.analyzed.load(Ordering::Relaxed),
            record_wall_ns: self.record_ns.load(Ordering::Relaxed),
            load_wall_ns: self.load_ns.load(Ordering::Relaxed),
            analyze_wall_ns: self.analyze_ns.load(Ordering::Relaxed),
        }
    }
}

/// Record/analyze statistics of one staged campaign run. Counters are
/// totals across jobs and therefore identical for `--jobs 1` and `--jobs
/// N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Mode the campaign ran in (`inline`, `record`, `analyze`, `cached`).
    pub mode: &'static str,
    /// Jobs that ran their simulation (recorded or inline).
    pub simulated: usize,
    /// Jobs served from an existing bundle.
    pub cache_hits: usize,
    /// Jobs whose bundle was missing, stale, or unreadable.
    pub cache_misses: usize,
    /// Jobs whose analyze closure ran.
    pub analyzed: usize,
    /// Total wall-clock spent inside record closures, summed across jobs
    /// (nanoseconds; host timing, therefore **nondeterministic** — it goes
    /// to the JSON journal only, like the per-job `wall_ms`, and is
    /// excluded from determinism byte-compares).
    pub record_wall_ns: u64,
    /// Total wall-clock spent obtaining artifacts from disk — reading,
    /// verifying and decoding bundles, failed attempts included — summed
    /// across jobs (nanoseconds; nondeterministic, JSON journal only).
    pub load_wall_ns: u64,
    /// Total wall-clock spent inside analyze closures, summed across jobs
    /// (nanoseconds; nondeterministic, JSON journal only).
    pub analyze_wall_ns: u64,
}

impl StageStats {
    /// JSON form for the campaign report. The `*_wall_ms` fields are the
    /// nondeterministic ones; determinism comparisons strip every
    /// `wall_ms` line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::from(self.mode)),
            ("simulated", Json::from(self.simulated)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("analyzed", Json::from(self.analyzed)),
            (
                "record_wall_ms",
                Json::Num(self.record_wall_ns as f64 / 1e6),
            ),
            ("load_wall_ms", Json::Num(self.load_wall_ns as f64 / 1e6)),
            (
                "analyze_wall_ms",
                Json::Num(self.analyze_wall_ns as f64 / 1e6),
            ),
        ])
    }
}

/// Result row of a record-only campaign: where the bundle landed.
#[derive(Debug)]
pub struct BundleRow {
    /// Job label.
    pub label: String,
    /// Bundle directory the job wrote.
    pub dir: PathBuf,
}

impl fmt::Display for BundleRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recorded {:<28} -> {}", self.label, self.dir.display())
    }
}

impl Record for BundleRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("dir", Json::from(self.dir.display().to_string().as_str())),
        ])
    }
}

struct StagedJob<A, T> {
    label: String,
    seed: u64,
    config_digest: u64,
    record: Box<dyn FnOnce() -> A + Send>,
    reads: Reads,
    analyze: Analyze<A, T>,
}

/// A campaign whose jobs are split into record and analyze stages. Build
/// with [`StagedCampaign::job`], then lower with
/// [`StagedCampaign::into_campaign`] (inline / analyze / cached) or
/// [`StagedCampaign::into_record_campaign`] (record only). A caller that
/// wants a sim-time cap sets [`Campaign::sim_cap`] on the lowered campaign.
pub struct StagedCampaign<A, T> {
    name: String,
    jobs: Vec<StagedJob<A, T>>,
}

/// Content-addressed bundle directory of one job:
/// `<root>/<campaign>/<label>-<key>` where the key digests the format
/// version, seed, and config digest.
pub fn bundle_dir(
    root: &Path,
    campaign: &str,
    label: &str,
    seed: u64,
    config_digest: u64,
) -> PathBuf {
    let key = Digest::new()
        .u64(FORMAT_VERSION as u64)
        .u64(seed)
        .u64(config_digest)
        .finish();
    root.join(slug(campaign))
        .join(format!("{}-{key:016x}", slug(label)))
}

/// Filesystem-safe slug of a campaign, job or cell label: alphanumerics,
/// `-` and `.` pass through, anything else becomes `_`.
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl<A: BundleArtifact + Send + 'static, T: Send + 'static> StagedCampaign<A, T> {
    /// Empty staged campaign.
    pub fn new(name: impl Into<String>) -> StagedCampaign<A, T> {
        StagedCampaign {
            name: name.into(),
            jobs: Vec::new(),
        }
    }

    /// Append a staged job. `config_digest` must cover every parameter
    /// (besides the seed) that shapes what `record` simulates — it is the
    /// job's cache identity. `analyze` must be pure: same artifact, same
    /// row. `reads` declares every bundle entry `analyze` reads; a job
    /// that loads its artifact decodes only those. The job's simulated time
    /// is measured, not declared: every lowering reports the
    /// [`BundleArtifact::end`] of the artifact it recorded or loaded.
    pub fn job(
        &mut self,
        label: impl Into<String>,
        seed: u64,
        config_digest: u64,
        record: impl FnOnce() -> A + Send + 'static,
        reads: Reads,
        analyze: impl FnOnce(&A) -> T + Send + 'static,
    ) -> &mut Self {
        self.jobs.push(StagedJob {
            label: label.into(),
            seed,
            config_digest,
            record: Box::new(record),
            reads,
            analyze: Box::new(analyze),
        });
        self
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Lower to a plain row-producing [`Campaign`] in `mode`.
    ///
    /// Whatever the mode, each job's row comes from the *same* analyze
    /// closure over the *same* (in-memory or round-tripped) artifact, so
    /// rows — and anything printed from them — are byte-identical across
    /// modes, provided the bundle round-trip is lossless and each job's
    /// declared reads are complete.
    pub fn into_campaign(self, mode: &StageMode) -> Campaign<T> {
        let (name, root, obtain) = match mode {
            StageMode::Inline => ("inline", None, Obtain::Record),
            StageMode::Analyze(root) => ("analyze", Some(root.as_path()), Obtain::Load),
            StageMode::Cached(root) => ("cached", Some(root.as_path()), Obtain::LoadOrRecord),
        };
        self.lower(name, root, obtain, |counters, artifact, analyze, _| {
            counters.timed_analyze(artifact, analyze)
        })
    }

    /// Lower to a record-only [`Campaign`]: every job simulates, saves its
    /// bundle under `root`, and reports where it landed.
    pub fn into_record_campaign(self, root: &Path) -> Campaign<BundleRow> {
        self.lower("record", Some(root), Obtain::Record, |_, _, _, cell| {
            BundleRow {
                label: cell.label.clone(),
                dir: cell.dir.clone().expect("record lowering has a bundle root"),
            }
        })
    }

    /// The one lowering every mode goes through. Each job becomes a
    /// [`Campaign`] job that obtains its artifact the `obtain` way — under
    /// its content-addressed directory below `root`, if there is one —
    /// turns it into a row with `row`, and reports the artifact's end as
    /// the simulated time it measured.
    fn lower<R: Send + 'static>(
        self,
        mode: &'static str,
        root: Option<&Path>,
        obtain: Obtain,
        row: fn(&StageCounters, &A, Analyze<A, T>, &Cell) -> R,
    ) -> Campaign<R> {
        let counters = StageCounters::new(mode);
        let mut c: Campaign<R> = Campaign::new(self.name.clone());
        c.stage_counters = Some(Arc::clone(&counters));
        for j in self.jobs {
            let cell = Cell {
                dir: root.map(|r| bundle_dir(r, &self.name, &j.label, j.seed, j.config_digest)),
                meta: BundleMeta {
                    seed: j.seed,
                    config_digest: j.config_digest,
                    scenario: format!("{}/{}", self.name, j.label),
                    end: SimTime::ZERO,
                },
                label: j.label,
                reads: j.reads,
            };
            let counters = Arc::clone(&counters);
            c.push(cell.label.clone(), j.seed, move || {
                let artifact = obtain.artifact(j.record, &cell, &counters)?;
                let sim_secs = artifact.end().as_secs_f64();
                Ok((row(&counters, &artifact, j.analyze, &cell), Some(sim_secs)))
            });
        }
        c
    }
}

/// A staged job's analyze closure.
type Analyze<A, T> = Box<dyn FnOnce(&A) -> T + Send>;

/// Where one lowered job's bundle lives and what identity it must carry.
struct Cell {
    label: String,
    /// Content-addressed bundle directory; `None` when the mode keeps the
    /// artifact in memory.
    dir: Option<PathBuf>,
    meta: BundleMeta,
    /// The entries the job's analyze closure reads.
    reads: Reads,
}

/// How a lowering obtains each job's artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obtain {
    /// Simulate; save the bundle when the job has a directory.
    Record,
    /// Load the job's bundle; a missing or stale one faults the job.
    Load,
    /// Load the job's bundle, or record and save it when it is missing,
    /// unreadable or stale.
    LoadOrRecord,
}

impl Obtain {
    fn artifact<A: BundleArtifact>(
        self,
        record: Box<dyn FnOnce() -> A + Send>,
        cell: &Cell,
        counters: &StageCounters,
    ) -> Result<A, String> {
        if self != Obtain::Record {
            let dir = cell
                .dir
                .as_deref()
                .expect("loading lowering has a bundle root");
            match counters.timed_load(|| load_checked(dir, &cell.meta, &cell.reads)) {
                Ok(artifact) => {
                    counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(artifact);
                }
                Err(e) => {
                    counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                    if self == Obtain::Load {
                        return Err(e);
                    }
                }
            }
        }
        let artifact = counters.timed_record(record);
        if let Some(dir) = &cell.dir {
            if dir.exists() {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            }
            artifact
                .save_bundle(dir, &cell.meta)
                .map_err(|e| format!("cannot save bundle {}: {e}", dir.display()))?;
        }
        Ok(artifact)
    }
}

/// Load the entries of the bundle under `dir` that `reads` declares, and
/// check the bundle was recorded for `want`. Only a missing bundle is
/// worded as one that was never recorded; a damaged, wrong-version or
/// stale bundle's error names what is wrong with it.
fn load_checked<A: BundleArtifact>(
    dir: &Path,
    want: &BundleMeta,
    reads: &Reads,
) -> Result<A, String> {
    if !dir.exists() {
        return Err(format!(
            "no bundle at {} (run `record` first)",
            dir.display()
        ));
    }
    let (artifact, meta) = A::load_reading(dir, reads)
        .map_err(|e| format!("unusable bundle at {}: {e}", dir.display()))?;
    check_identity(&meta, want).map_err(|e| format!("bundle {} is stale: {e}", dir.display()))?;
    Ok(artifact)
}

/// Compare a loaded bundle's identity against the job's expectation.
fn check_identity(found: &BundleMeta, want: &BundleMeta) -> Result<(), String> {
    if found.seed != want.seed {
        return Err(format!("seed {} (expected {})", found.seed, want.seed));
    }
    if found.config_digest != want.config_digest {
        return Err(format!(
            "config digest {:016x} (expected {:016x}; recorded at a different scale?)",
            found.config_digest, want.config_digest
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::run_forever;
    use crate::campaign::{CampaignRun, Outcome};
    use simcore::{watchdog, SimDuration};
    use std::fs;
    use std::time::Duration;
    use trace::{BundleReader, BundleWriter, TraceError, DATA_FILE};

    /// Minimal artifact for exercising the staged executor: its payload
    /// doubles as its recording's end, in seconds.
    #[derive(Debug, PartialEq)]
    struct Blob(u64);

    impl BundleArtifact for Blob {
        fn save_bundle(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError> {
            let meta = BundleMeta {
                end: self.end(),
                ..meta.clone()
            };
            let mut w = BundleWriter::create(dir, &meta)?;
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
            SimTime::from_secs(self.0)
        }
    }

    const BLOB_READS: Reads = Reads::artifacts(&["blob"]);

    fn staged(n: u64) -> StagedCampaign<Blob, String> {
        let mut s: StagedCampaign<Blob, String> = StagedCampaign::new("staged/test");
        for i in 0..n {
            s.job(
                format!("cell {i}"),
                100 + i,
                0xABC + i,
                move || Blob(i * 10),
                BLOB_READS,
                |b: &Blob| format!("value={}", b.0),
            );
        }
        s
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("staged-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn inline_mode_counts_and_rows() {
        let run = staged(3).into_campaign(&StageMode::Inline).run(2);
        let stats = run.stages.expect("staged run has stats");
        assert_eq!(stats.mode, "inline");
        assert_eq!(stats.simulated, 3);
        assert_eq!(stats.analyzed, 3);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(run.into_outputs(), vec!["value=0", "value=10", "value=20"]);
    }

    #[test]
    fn stage_wall_clock_accumulates_per_stage() {
        let run = staged(3).into_campaign(&StageMode::Inline).run(2);
        let stats = run.stages.unwrap();
        // Three record and three analyze invocations ran; each took > 0 ns.
        assert!(stats.record_wall_ns > 0, "{stats:?}");
        assert!(stats.analyze_wall_ns > 0, "{stats:?}");
        assert_eq!(stats.load_wall_ns, 0, "inline mode never loads");
        let json = stats.to_json().pretty();
        assert!(json.contains("\"record_wall_ms\""), "{json}");
        assert!(json.contains("\"load_wall_ms\""), "{json}");
        assert!(json.contains("\"analyze_wall_ms\""), "{json}");

        // Analyze-only mode spends no record wall-clock at all.
        let root = tmp("walls");
        staged(3).into_record_campaign(&root).run(1);
        let an = staged(3)
            .into_campaign(&StageMode::Analyze(root.clone()))
            .run(1);
        let stats = an.stages.unwrap();
        assert_eq!(stats.record_wall_ns, 0, "analyze mode never records");
        assert!(stats.load_wall_ns > 0, "{stats:?}");
        assert!(stats.analyze_wall_ns > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn record_then_analyze_matches_inline() {
        let root = tmp("rec-an");
        let rec = staged(3).into_record_campaign(&root).run(2);
        assert_eq!(rec.stages.unwrap().simulated, 3);
        assert_eq!(rec.failed() + rec.faulted(), 0);

        let inline_rows = staged(3)
            .into_campaign(&StageMode::Inline)
            .run(1)
            .into_outputs();
        for workers in [1, 4] {
            let an = staged(3)
                .into_campaign(&StageMode::Analyze(root.clone()))
                .run(workers);
            let stats = an.stages.unwrap();
            assert_eq!(stats.simulated, 0, "analyze mode must never simulate");
            assert_eq!(stats.cache_hits, 3);
            assert_eq!(an.into_outputs(), inline_rows);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn analyze_without_bundles_faults_each_job() {
        let root = tmp("missing");
        let run = staged(2)
            .into_campaign(&StageMode::Analyze(root.clone()))
            .run(1);
        assert_eq!(run.faulted(), 2);
        // Only a missing bundle asks for a recording.
        for job in &run.jobs {
            match &job.outcome {
                Outcome::Faulted(reason) => {
                    assert!(reason.contains("no bundle at"), "{reason}");
                    assert!(reason.contains(RECORD_HINT), "{reason}");
                }
                _ => panic!("{}: a missing bundle must fault the job", job.label),
            }
        }
        let stats = run.stages.unwrap();
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.analyzed, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// The fault reason of `staged(1)`'s one job analyzed from `root`.
    fn analyze_fault(root: &Path) -> String {
        let run = staged(1)
            .into_campaign(&StageMode::Analyze(root.to_path_buf()))
            .run(1);
        match &run.jobs[0].outcome {
            Outcome::Faulted(reason) => reason.clone(),
            _ => panic!("analyzing {} must fault the job", root.display()),
        }
    }

    /// Record `staged(1)` under a fresh root and return the root and its
    /// one bundle's directory.
    fn recorded(name: &str) -> (PathBuf, PathBuf) {
        let root = tmp(name);
        staged(1).into_record_campaign(&root).run(1);
        let dir = bundle_dir(&root, "staged/test", "cell 0", 100, 0xABC);
        (root, dir)
    }

    const RECORD_HINT: &str = "run `record` first";

    /// Flip the first byte of the entry `name` in the bundle under `dir`.
    fn flip_entry(dir: &Path, name: &str) {
        let start = BundleReader::open(dir)
            .unwrap()
            .manifest()
            .entry(name)
            .unwrap()
            .offset;
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[start as usize] ^= 0x01;
        fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn damaged_bundle_names_the_damage() {
        let (root, dir) = recorded("hint-damaged");
        flip_entry(&dir, "blob");
        let reason = analyze_fault(&root);
        assert!(
            reason.contains("'blob' does not match its manifest checksum"),
            "{reason}"
        );
        assert!(!reason.contains(RECORD_HINT), "{reason}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_version_bundle_names_the_version() {
        let (root, dir) = recorded("hint-version");
        let manifest = BundleReader::open(&dir).unwrap().manifest().clone();
        let bumped = manifest.render().replace(
            &format!("qoe-trace-bundle v{}", trace::FORMAT_VERSION),
            "qoe-trace-bundle v99",
        );
        // A footer that matches the edited manifest, so only the version
        // can object.
        let path = dir.join(DATA_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(manifest.data_len() as usize);
        bytes.extend(trace::seal_manifest(&bumped));
        fs::write(&path, bytes).unwrap();
        let reason = analyze_fault(&root);
        assert!(reason.contains("unsupported format version 99"), "{reason}");
        assert!(!reason.contains(RECORD_HINT), "{reason}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_bundle_names_what_differs() {
        let (root, dir) = recorded("hint-stale");
        // Overwrite the job's bundle with one recorded for another seed.
        fs::remove_dir_all(&dir).unwrap();
        let meta = BundleMeta {
            seed: 7,
            config_digest: 0xABC,
            scenario: "staged/test/cell 0".into(),
            end: SimTime::ZERO,
        };
        Blob(0).save_bundle(&dir, &meta).unwrap();
        let reason = analyze_fault(&root);
        assert!(
            reason.contains("is stale: seed 7 (expected 100)"),
            "{reason}"
        );
        assert!(!reason.contains(RECORD_HINT), "{reason}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cached_mode_misses_then_hits() {
        let root = tmp("cache");
        let cold = staged(3)
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(2);
        let stats = cold.stages.unwrap();
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.simulated, 3);
        let cold_rows = cold.into_outputs();

        let warm = staged(3)
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(2);
        let stats = warm.stages.unwrap();
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.simulated, 0, "warm cache must not simulate");
        assert_eq!(warm.into_outputs(), cold_rows);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn changed_config_digest_is_a_cache_miss() {
        let root = tmp("stale");
        staged(1)
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1);
        // Same label/seed, different config digest → different directory →
        // miss (content addressing); the old bundle simply isn't found.
        let mut s: StagedCampaign<Blob, String> = StagedCampaign::new("staged/test");
        s.job(
            "cell 0",
            100,
            0xD1FF,
            || Blob(0),
            BLOB_READS,
            |b: &Blob| format!("value={}", b.0),
        );
        let run = s.into_campaign(&StageMode::Cached(root.clone())).run(1);
        assert_eq!(run.stages.unwrap().cache_misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    /// A grid whose artifacts end at distinct times (10, 20, 30, 40 s) and
    /// whose record stages finish in reverse job order.
    fn ending_staged() -> StagedCampaign<Blob, String> {
        let mut s: StagedCampaign<Blob, String> = StagedCampaign::new("staged/ends");
        for i in 0..4u64 {
            s.job(
                format!("cell {i}"),
                200 + i,
                i,
                move || {
                    std::thread::sleep(Duration::from_millis((4 - i) * 3));
                    Blob(10 * (i + 1))
                },
                BLOB_READS,
                |b: &Blob| format!("value={}", b.0),
            );
        }
        s
    }

    /// Label, seed, sim_secs and whether a row came back, in job order.
    fn identities<R>(run: &CampaignRun<R>) -> Vec<(String, u64, Option<f64>, bool)> {
        run.jobs
            .iter()
            .map(|j| (j.label.clone(), j.seed, j.sim_secs, j.outcome.is_ok()))
            .collect()
    }

    #[test]
    fn every_lowering_keeps_job_order_and_identity() {
        let want: Vec<(String, u64, Option<f64>, bool)> = (0..4u64)
            .map(|i| {
                let end = 10.0 * (i + 1) as f64;
                (format!("cell {i}"), 200 + i, Some(end), true)
            })
            .collect();
        let bundles = tmp("identity");
        let cache = tmp("identity-cache");
        let lower = |mode: StageMode| identities(&ending_staged().into_campaign(&mode).run(2));
        let runs = [
            ("inline", lower(StageMode::Inline)),
            (
                "record",
                identities(&ending_staged().into_record_campaign(&bundles).run(2)),
            ),
            ("analyze", lower(StageMode::Analyze(bundles.clone()))),
            ("cold cache", lower(StageMode::Cached(cache.clone()))),
            ("warm cache", lower(StageMode::Cached(cache.clone()))),
        ];
        for (mode, got) in runs {
            assert_eq!(got, want, "{mode} lowering");
        }
        let _ = fs::remove_dir_all(&bundles);
        let _ = fs::remove_dir_all(&cache);
    }

    fn runaway_staged() -> StagedCampaign<Blob, String> {
        let mut s: StagedCampaign<Blob, String> = StagedCampaign::new("staged/runaway");
        s.job(
            "runaway",
            1,
            0x1,
            || {
                run_forever();
                Blob(0)
            },
            BLOB_READS,
            |b: &Blob| format!("value={}", b.0),
        );
        s.job(
            "bounded",
            2,
            0x2,
            || Blob(7),
            BLOB_READS,
            |b: &Blob| format!("value={}", b.0),
        );
        s
    }

    /// A lowered campaign with a 5 s sim-time cap.
    fn capped<R: Send>(mut c: Campaign<R>) -> Campaign<R> {
        c.sim_cap(SimDuration::from_secs(5));
        c
    }

    fn assert_runaway_faulted<R>(run: &CampaignRun<R>, mode: &str) {
        assert!(
            matches!(
                &run.jobs[0].outcome,
                Outcome::Faulted(reason) if watchdog::is_trip(reason)
            ),
            "{mode}: runaway job must fault on the sim cap"
        );
        assert!(
            run.jobs[1].outcome.is_ok(),
            "{mode}: bounded job unaffected"
        );
        assert_eq!((run.faulted(), run.failed()), (1, 0), "{mode}");
        assert_eq!(run.jobs[0].sim_secs, None, "{mode}: no artifact, no time");
        assert_eq!(run.jobs[1].sim_secs, Some(7.0), "{mode}");
    }

    #[test]
    fn sim_cap_faults_runaway_record_stage_in_every_simulating_lowering() {
        let bundles = tmp("runaway-record");
        let cache = tmp("runaway-cache");
        assert_runaway_faulted(
            &capped(runaway_staged().into_campaign(&StageMode::Inline)).run(2),
            "inline",
        );
        assert_runaway_faulted(
            &capped(runaway_staged().into_record_campaign(&bundles)).run(2),
            "record",
        );
        let miss = capped(runaway_staged().into_campaign(&StageMode::Cached(cache.clone()))).run(2);
        assert_runaway_faulted(&miss, "cache miss");
        assert_eq!(miss.stages.unwrap().cache_misses, 2);
        let _ = fs::remove_dir_all(&bundles);
        let _ = fs::remove_dir_all(&cache);
    }

    #[test]
    fn truncated_manifest_in_cache_is_re_recorded() {
        let root = tmp("truncated");
        let cold = staged(1)
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1)
            .into_outputs();
        // Cut the bundle file half-way through its manifest.
        let dir = bundle_dir(&root, "staged/test", "cell 0", 100, 0xABC);
        let manifest = BundleReader::open(&dir).unwrap().manifest().clone();
        let path = dir.join(DATA_FILE);
        let full = fs::read(&path).unwrap();
        let cut = manifest.data_len() as usize + manifest.render().len() / 2;
        fs::write(&path, &full[..cut]).unwrap();

        let rerun = staged(1)
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1);
        let stats = rerun.stages.unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1), "{stats:?}");
        assert_eq!(stats.simulated, 1, "a truncated bundle is re-recorded");
        assert_eq!(rerun.into_outputs(), cold);

        // The re-recorded bundle is whole again: the next run hits.
        let warm = staged(1)
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1);
        assert_eq!(warm.stages.unwrap().cache_hits, 1);
        assert_eq!(warm.into_outputs(), cold);
        let _ = fs::remove_dir_all(&root);
    }

    /// An artifact of two entries, `kept` and `skipped`, that honours
    /// declared reads: it verifies both but decodes only the declared ones.
    #[derive(Debug, PartialEq)]
    struct Pair {
        kept: u64,
        skipped: u64,
    }

    impl BundleArtifact for Pair {
        fn save_bundle(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError> {
            let mut w = BundleWriter::create(dir, meta)?;
            w.artifact("kept", &self.kept.to_le_bytes())?;
            w.artifact("skipped", &self.skipped.to_le_bytes())?;
            w.finish()
        }
        fn load_bundle(dir: &Path) -> Result<(Pair, BundleMeta), TraceError> {
            Pair::load_reading(dir, &Reads::artifacts(&["kept", "skipped"]))
        }
        fn load_reading(dir: &Path, reads: &Reads) -> Result<(Pair, BundleMeta), TraceError> {
            let r = BundleReader::open(dir)?;
            let decode = |name: &str| -> Result<u64, TraceError> {
                let bytes = r.artifact(name)?;
                if !reads.artifact(name) {
                    return Ok(0);
                }
                let arr: [u8; 8] = bytes
                    .as_slice()
                    .try_into()
                    .map_err(|_| TraceError::UnexpectedEof)?;
                Ok(u64::from_le_bytes(arr))
            };
            let pair = Pair {
                kept: decode("kept")?,
                skipped: decode("skipped")?,
            };
            Ok((pair, r.meta()))
        }
        fn end(&self) -> SimTime {
            SimTime::from_secs(1)
        }
    }

    /// Two jobs that declare only their `kept` entry.
    fn pair_staged() -> StagedCampaign<Pair, String> {
        let mut s: StagedCampaign<Pair, String> = StagedCampaign::new("staged/pair");
        for i in 0..2u64 {
            s.job(
                format!("cell {i}"),
                300 + i,
                i,
                move || Pair {
                    kept: i + 1,
                    skipped: 7,
                },
                Reads::artifacts(&["kept"]),
                |p: &Pair| format!("kept={} skipped={}", p.kept, p.skipped),
            );
        }
        s
    }

    #[test]
    fn declared_reads_decode_only_what_the_job_reads() {
        let root = tmp("pair-reads");
        pair_staged().into_record_campaign(&root).run(1);
        let inline = pair_staged()
            .into_campaign(&StageMode::Inline)
            .run(1)
            .into_outputs();
        assert_eq!(inline, ["kept=1 skipped=7", "kept=2 skipped=7"]);
        // From disk the undeclared entry stays empty.
        let an = pair_staged()
            .into_campaign(&StageMode::Analyze(root.clone()))
            .run(1);
        assert_eq!(an.into_outputs(), ["kept=1 skipped=0", "kept=2 skipped=0"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn damaged_undeclared_entry_faults_analyze_and_misses_the_cache() {
        let root = tmp("pair-damage");
        let cold = pair_staged()
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1)
            .into_outputs();
        flip_entry(
            &bundle_dir(&root, "staged/pair", "cell 0", 300, 0),
            "skipped",
        );

        let an = pair_staged()
            .into_campaign(&StageMode::Analyze(root.clone()))
            .run(1);
        match &an.jobs[0].outcome {
            Outcome::Faulted(reason) => assert!(
                reason.contains("'skipped' does not match its manifest checksum"),
                "{reason}"
            ),
            _ => panic!("a damaged undeclared entry must fault the job"),
        }
        assert!(an.jobs[1].outcome.is_ok());
        let stats = an.stages.unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1), "{stats:?}");

        let rerun = pair_staged()
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1);
        let stats = rerun.stages.unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1), "{stats:?}");
        assert_eq!(stats.simulated, 1, "the damaged bundle is re-recorded");
        // The re-recorded job analyzes its in-memory artifact; the hit
        // analyzes from disk.
        assert_eq!(
            rerun.into_outputs(),
            ["kept=1 skipped=7", "kept=2 skipped=0"]
        );
        assert_eq!(cold, ["kept=1 skipped=7", "kept=2 skipped=7"]);
        let warm = pair_staged()
            .into_campaign(&StageMode::Cached(root.clone()))
            .run(1);
        assert_eq!(warm.stages.unwrap().cache_hits, 2);
        let _ = fs::remove_dir_all(&root);
    }
}
