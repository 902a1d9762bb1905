//! Persisting a [`Collection`] as an on-disk trace bundle.
//!
//! This is the record/analyze seam: [`Collection::save`] writes everything
//! the controller collected into a `trace` bundle directory, and
//! [`Collection::load`] restores it losslessly, so the analyzers can run
//! offline against a directory instead of a live simulation.
//!
//! Artifact layout (all paths relative to the bundle directory; every
//! record log is a `trace::column` log — a count, a delta-varint stamp
//! column, then length-framed field columns):
//!
//! | manifest entry | file               | contents                                  |
//! |----------------|--------------------|-------------------------------------------|
//! | `behavior`     | `behavior.bin`     | AppBehaviorLog (§4.3.1), one row column   |
//! | `trace`        | `trace.pcapq`      | packet trace: flow dictionary, per-flow delta and run-length columns (`netstack::codec`) |
//! | `qxdm`         | `qxdm.bin`         | QxDM log (cellular runs only): RRC rows, PDU and STATUS columns (`radio::codec`) |
//! | `cpu`          | `cpu.bin`          | app/controller CPU split                  |
//! | truth `pdus`   | `truth_pdus.bin`   | full PDU coverage (cellular): PDU plus coverage columns |
//! | truth `camera` | `truth_camera.bin` | 60 fps screen ground truth, one row column |
//!
//! The `qxdm`/`pdus` entries are simply absent for WiFi runs — absence in
//! the manifest is the canonical encoding of `None`, so the WiFi case
//! round-trips exactly. The two `truth` entries are segregated in the
//! manifest: `BundleReader::artifact` refuses to serve them, which is what
//! keeps analyzers honest about what a real deployment could observe.

use std::path::Path;

use crate::behavior::{AppBehaviorLog, BehaviorRecord, StartKind};
use crate::collect::Collection;
use device::phone::CpuMeter;
use device::ui::ScreenEvent;
use radio::codec::{read_pdu_truth, read_qxdm, write_pdu_truth, write_qxdm};
use simcore::{RecordLog, SimDuration, SimTime};
use trace::{
    decode_artifact, encode_artifact, BundleArtifact, BundleMeta, BundleReader, BundleWriter,
    Codec, Reader, TraceError, Writer, FORMAT_VERSION,
};

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
            "behavior",
            "behavior.bin",
            &encode_artifact(BEHAVIOR_MAGIC, FORMAT_VERSION, &self.behavior),
        )?;
        w.artifact(
            "trace",
            "trace.pcapq",
            &netstack::pcap::write_trace(&self.trace),
        )?;
        if let Some(qxdm) = &self.qxdm {
            w.artifact("qxdm", "qxdm.bin", &write_qxdm(qxdm))?;
        }
        w.artifact(
            "cpu",
            "cpu.bin",
            &encode_artifact(CPU_MAGIC, FORMAT_VERSION, &self.cpu),
        )?;
        if let Some(truth) = &self.pdu_truth {
            w.truth("pdus", "truth_pdus.bin", &write_pdu_truth(truth))?;
        }
        w.truth(
            "camera",
            "truth_camera.bin",
            &encode_artifact(CAMERA_MAGIC, FORMAT_VERSION, &self.camera),
        )?;
        w.finish()
    }

    /// Restore a collection saved by [`Collection::save`], returning it
    /// together with the recording's identity.
    pub fn load(dir: &Path) -> Result<(Collection, BundleMeta), TraceError> {
        let r = BundleReader::open(dir)?;
        let meta = r.meta();
        let behavior: AppBehaviorLog =
            decode_artifact(&r.artifact("behavior")?, BEHAVIOR_MAGIC, FORMAT_VERSION)?;
        let trace = netstack::pcap::read_trace(&r.artifact("trace")?)?;
        let qxdm = if r.has_artifact("qxdm") {
            Some(read_qxdm(&r.artifact("qxdm")?)?)
        } else {
            None
        };
        let cpu: CpuMeter = decode_artifact(&r.artifact("cpu")?, CPU_MAGIC, FORMAT_VERSION)?;
        let pdu_truth = if r.has_truth("pdus") {
            Some(read_pdu_truth(&r.truth("pdus")?)?)
        } else {
            None
        };
        let camera: RecordLog<ScreenEvent> =
            decode_artifact(&r.truth("camera")?, CAMERA_MAGIC, FORMAT_VERSION)?;
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
    fn end(&self) -> SimTime {
        self.end
    }
}

/// An ordered set of named collections recorded by one campaign job.
///
/// Most jobs record exactly one session, but some record several (the
/// throttle-discipline ablation runs a shaping world *and* a policing
/// world); a set persists as one root bundle with one nested bundle per
/// session, so a job's artifact is always a single directory.
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
            let sub = w.sub_dir(name);
            col.save(&sub, &meta)?;
        }
        w.finish()
    }

    fn load_bundle(dir: &Path) -> Result<(CollectionSet, BundleMeta), TraceError> {
        let r = BundleReader::open(dir)?;
        let meta = r.meta();
        let mut items = Vec::new();
        for name in r.sub_names() {
            let (col, _) = Collection::load_bundle(&r.sub_path(name)?)?;
            items.push((name.to_string(), col));
        }
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
