//! Persisting a [`Collection`] as an on-disk trace bundle.
//!
//! This is the record/analyze seam: [`Collection::save`] writes everything
//! the controller collected into a `trace` bundle directory, and
//! [`Collection::load`] restores it losslessly, so the analyzers can run
//! offline against a directory instead of a live simulation.
//! [`Collection::load_reading`] is the declared-reads load the staged
//! harness uses: it verifies every entry but decodes only those an analyzer
//! declared (a [`Reads`] built from the entry names below).
//!
//! Entry layout: the entries are byte ranges of the bundle's one data file
//! (`trace::DATA_FILE`), written in this order; every record log is a
//! `trace::column` log — a count, a delta-varint stamp column, then
//! length-framed field columns:
//!
//! | manifest entry | name constant | contents                                  |
//! |----------------|---------------|-------------------------------------------|
//! | `behavior`     | [`BEHAVIOR`]  | AppBehaviorLog (§4.3.1), one row column   |
//! | `trace`        | [`TRACE`]     | packet trace: flow dictionary, per-flow delta and run-length columns (`netstack::codec`) |
//! | `qxdm`         | [`QXDM`]      | QxDM log (cellular runs only): RRC rows, PDU and STATUS columns (`radio::codec`) |
//! | `cpu`          | [`CPU`]       | app/controller CPU split                  |
//! | truth `pdus`   | [`PDUS`]      | every PDU's QxDM record plus its coverage (cellular): PDU columns, then coverage columns |
//! | truth `camera` | [`CAMERA`]    | 60 fps screen ground truth, one row column |
//!
//! The `qxdm`/`pdus` entries are simply absent for WiFi runs — absence in
//! the manifest is the canonical encoding of `None`, so the WiFi case
//! round-trips exactly. The two `truth` entries are segregated in the
//! manifest: `BundleReader::artifact` refuses to serve them, which is what
//! keeps analyzers honest about what a real deployment could observe. A
//! declared-reads load leaves an undeclared entry empty: an empty log, the
//! default CPU meter, or `None` for the QxDM log and PDU truth.

use std::path::Path;

use crate::behavior::{AppBehaviorLog, BehaviorRecord, StartKind};
use crate::collect::Collection;
use device::phone::CpuMeter;
use device::ui::ScreenEvent;
use radio::codec::{read_pdu_truth, read_qxdm, write_pdu_truth, write_qxdm};
use simcore::{par, RecordLog, SimDuration, SimTime};
use trace::{
    decode_artifact, encode_artifact, BundleArtifact, BundleMeta, BundleReader, BundleWriter,
    Codec, Reader, Reads, TraceError, Writer, FORMAT_VERSION,
};

/// Manifest name of the behaviour-log artifact.
pub const BEHAVIOR: &str = "behavior";
/// Manifest name of the packet-trace artifact.
pub const TRACE: &str = "trace";
/// Manifest name of the QxDM-log artifact (cellular runs only).
pub const QXDM: &str = "qxdm";
/// Manifest name of the CPU-meter artifact.
pub const CPU: &str = "cpu";
/// Manifest name of the PDU truth: each PDU's QxDM record plus its
/// coverage (cellular runs only).
pub const PDUS: &str = "pdus";
/// Manifest name of the camera truth (the 60 fps screen ground truth).
pub const CAMERA: &str = "camera";

/// File magic of a persisted behaviour log.
pub const BEHAVIOR_MAGIC: &[u8; 4] = b"QBEH";
/// File magic of a persisted CPU meter.
pub const CPU_MAGIC: &[u8; 4] = b"QCPU";
/// File magic of a persisted camera (screen ground truth) log.
pub const CAMERA_MAGIC: &[u8; 4] = b"QCAM";

impl Codec for StartKind {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            StartKind::Trigger => 0,
            StartKind::Parse => 1,
        });
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        match r.u8()? {
            0 => Ok(StartKind::Trigger),
            1 => Ok(StartKind::Parse),
            other => Err(TraceError::Corrupt(format!("bad StartKind tag {other}"))),
        }
    }
}

impl Codec for BehaviorRecord {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.action);
        self.start.encode(w);
        self.end.encode(w);
        self.start_kind.encode(w);
        self.mean_parse.encode(w);
        w.bool(self.timed_out);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(BehaviorRecord {
            action: r.str()?,
            start: SimTime::decode(r)?,
            end: SimTime::decode(r)?,
            start_kind: StartKind::decode(r)?,
            mean_parse: SimDuration::decode(r)?,
            timed_out: r.bool()?,
        })
    }
}

impl Collection {
    /// Every entry a collection bundle can hold: what [`Collection::load`]
    /// decodes.
    pub const READS_ALL: Reads =
        Reads::artifacts(&[BEHAVIOR, TRACE, QXDM, CPU]).and_truths(&[PDUS, CAMERA]);

    /// Write this collection into `dir` as a complete bundle. The
    /// manifest's `end_us` is taken from the collection itself; the other
    /// identity fields (seed, config digest, scenario) come from `meta`.
    pub fn save(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError> {
        let meta = BundleMeta {
            end: self.end,
            ..meta.clone()
        };
        let mut w = BundleWriter::create(dir, &meta)?;
        w.artifact(
            BEHAVIOR,
            &encode_artifact(BEHAVIOR_MAGIC, FORMAT_VERSION, &self.behavior),
        )?;
        w.artifact(TRACE, &netstack::pcap::write_trace(&self.trace))?;
        if let Some(qxdm) = &self.qxdm {
            w.artifact(QXDM, &write_qxdm(qxdm))?;
        }
        w.artifact(CPU, &encode_artifact(CPU_MAGIC, FORMAT_VERSION, &self.cpu))?;
        if let Some(truth) = &self.pdu_truth {
            w.truth(PDUS, &write_pdu_truth(truth))?;
        }
        w.truth(
            CAMERA,
            &encode_artifact(CAMERA_MAGIC, FORMAT_VERSION, &self.camera),
        )?;
        w.finish()
    }

    /// Restore a collection saved by [`Collection::save`], returning it
    /// together with the recording's identity.
    pub fn load(dir: &Path) -> Result<(Collection, BundleMeta), TraceError> {
        Collection::load_reading(dir, &Collection::READS_ALL)
    }

    /// Restore the part of a saved collection that `reads` declares. Every
    /// entry is read and its length and checksum verified, so a damaged
    /// bundle fails exactly as in [`Collection::load`]; a declared entry is
    /// decoded with all of its canonical-bytes checks, and an undeclared
    /// one stays empty.
    pub fn load_reading(dir: &Path, reads: &Reads) -> Result<(Collection, BundleMeta), TraceError> {
        let r = BundleReader::open(dir)?;
        let meta = r.meta();
        // Fetching an entry verifies it; only a declared one is handed on
        // to its decoder.
        let artifact = |name: &str| -> Result<Option<Vec<u8>>, TraceError> {
            let bytes = r.artifact(name)?;
            Ok(reads.artifact(name).then_some(bytes))
        };
        let truth = |name: &str| -> Result<Option<Vec<u8>>, TraceError> {
            let bytes = r.truth(name)?;
            Ok(reads.truth(name).then_some(bytes))
        };
        let behavior: AppBehaviorLog = artifact(BEHAVIOR)?
            .map(|b| decode_artifact(&b, BEHAVIOR_MAGIC, FORMAT_VERSION))
            .transpose()?
            .unwrap_or_default();
        // The three large entries are read and decoded in parallel when an
        // idle campaign worker can help; every result is then checked in
        // entry order, so a damaged bundle reports the same first error as
        // a one-by-one load.
        let load_trace = || {
            artifact(TRACE)?
                .map(|b| netstack::pcap::read_trace(&b))
                .transpose()
        };
        let load_qxdm = || {
            if !r.has_artifact(QXDM) {
                return Ok(None);
            }
            artifact(QXDM)?.map(|b| read_qxdm(&b)).transpose()
        };
        let load_pdus = || {
            if !r.has_truth(PDUS) {
                return Ok(None);
            }
            truth(PDUS)?.map(|b| read_pdu_truth(&b)).transpose()
        };
        let (trace, (qxdm, pdu_truth)) = par::join(load_trace, || par::join(load_qxdm, load_pdus));
        let trace = trace?.unwrap_or_default();
        let qxdm = qxdm?;
        let cpu: CpuMeter = artifact(CPU)?
            .map(|b| decode_artifact(&b, CPU_MAGIC, FORMAT_VERSION))
            .transpose()?
            .unwrap_or_default();
        let pdu_truth = pdu_truth?;
        let camera: RecordLog<ScreenEvent> = truth(CAMERA)?
            .map(|b| decode_artifact(&b, CAMERA_MAGIC, FORMAT_VERSION))
            .transpose()?
            .unwrap_or_default();
        Ok((
            Collection {
                behavior,
                trace,
                qxdm,
                pdu_truth,
                camera,
                cpu,
                end: meta.end,
            },
            meta,
        ))
    }
}

impl BundleArtifact for Collection {
    fn save_bundle(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError> {
        self.save(dir, meta)
    }
    fn load_bundle(dir: &Path) -> Result<(Collection, BundleMeta), TraceError> {
        Collection::load(dir)
    }
    fn load_reading(dir: &Path, reads: &Reads) -> Result<(Collection, BundleMeta), TraceError> {
        Collection::load_reading(dir, reads)
    }
    fn end(&self) -> SimTime {
        self.end
    }
}

/// An ordered set of named collections recorded by one campaign job.
///
/// Most jobs record exactly one session, but some record several (the
/// throttle-discipline ablation runs a shaping world *and* a policing
/// world); a set persists as one root bundle with one nested bundle per
/// session, so a job's artifact is always a single directory. Two sessions
/// whose names map to the same directory (`"a b"` and `"a-b"`) cannot be
/// saved together: `save_bundle` refuses the second.
#[derive(Debug, PartialEq)]
pub struct CollectionSet {
    /// `(session name, collection)` in recorded order.
    pub items: Vec<(String, Collection)>,
}

impl CollectionSet {
    /// A set holding one unnamed session (the common case).
    pub fn single(col: Collection) -> CollectionSet {
        CollectionSet {
            items: vec![("session".to_string(), col)],
        }
    }

    /// The session named `name`.
    pub fn get(&self, name: &str) -> Option<&Collection> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

impl BundleArtifact for CollectionSet {
    fn save_bundle(&self, dir: &Path, meta: &BundleMeta) -> Result<(), TraceError> {
        let meta = BundleMeta {
            end: self.end(),
            ..meta.clone()
        };
        let mut w = BundleWriter::create(dir, &meta)?;
        for (name, col) in &self.items {
            let sub = w.sub_dir(name)?;
            col.save(&sub, &meta)?;
        }
        w.finish()
    }

    fn load_bundle(dir: &Path) -> Result<(CollectionSet, BundleMeta), TraceError> {
        CollectionSet::load_reading(dir, &Collection::READS_ALL)
    }

    /// Load every session with [`Collection::load_reading`] under the same
    /// `reads`, in parallel when idle campaign workers can help; the first
    /// failing session in recorded order reports its error.
    fn load_reading(dir: &Path, reads: &Reads) -> Result<(CollectionSet, BundleMeta), TraceError> {
        let r = BundleReader::open(dir)?;
        let meta = r.meta();
        let names = r.sub_names();
        let cols = par::map(&names, |name| {
            Collection::load_reading(&r.sub_path(name)?, reads).map(|(col, _)| col)
        });
        let items = names
            .iter()
            .zip(cols)
            .map(|(name, col)| Ok((name.to_string(), col?)))
            .collect::<Result<_, TraceError>>()?;
        Ok((CollectionSet { items }, meta))
    }

    /// The latest end over the set's sessions.
    fn end(&self) -> SimTime {
        self.items
            .iter()
            .map(|(_, c)| c.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}
