//! Versioned, deterministic, on-disk trace bundles.
//!
//! The paper's workflow is explicitly two-stage: the UI controller *records*
//! artifacts on the device — the tcpdump packet trace, the QxDM diagnostic
//! log, the app behavior log (§4.3) — and the multi-layer analyzer consumes
//! them *offline*. This crate makes those artifacts first-class on-disk
//! objects so a recorded run can be re-analyzed, cached, shipped, or diffed
//! without re-simulating.
//!
//! A **bundle** is a directory holding one data file, [`DATA_FILE`], and a
//! directory per nested bundle. The data file (format v4) is
//!
//! * the entries, one binary artifact per layer, back to back, each framed
//!   with a 4-byte magic and a format version so stale bytes fail loudly
//!   rather than mis-decode,
//! * the manifest — format version, seed, config digest, scenario id, sim
//!   end time, plus one line per entry with its byte offset, length and
//!   checksum ([`entry_checksum`]) — and
//! * a fixed-size footer holding the manifest's length and checksum and a
//!   magic ([`seal_manifest`]).
//!
//! Writing the manifest and footer last means a crashed recorder leaves a
//! file without a valid footer, which [`BundleReader::open`] refuses; the
//! footer's checksum covers the identity fields as well as the entry list.
//! One file per bundle keeps recording cheap: creating a file for each
//! entry cost more than encoding and checksumming them all.
//!
//! Ground-truth artifacts that exist only for evaluating the tool (the
//! per-PDU truth stream and the "camera" screen log) are **segregated** in
//! the manifest: they are listed as `truth` entries and the artifact
//! accessor refuses to serve them, so an analyzer cannot silently read what
//! a real deployment would not have.
//!
//! An analyzer declares the entries it reads ([`Reads`]).
//! [`BundleArtifact::load_reading`] still verifies every entry's length and
//! checksum, but decodes only the declared ones; `load_bundle` stays the
//! lossless full load.
//!
//! Artifacts are stored column by column ([`column`](mod@column)): a record log is its
//! record count, its timestamps as one column of varint deltas, then one
//! length-framed column per field. Fields use LEB128 varints, zigzag deltas
//! (per flow or per direction, chosen by the layer crate), run-length
//! encoding for slowly changing fields such as direction and flags, and
//! raw bytes where values do not compress (the two payload bytes QxDM
//! keeps per PDU). Small records without a layer-specific layout are
//! [`Codec`] rows inside one column. The format is versioned by this crate
//! alone ([`FORMAT_VERSION`]) and byte-deterministic: encoding the same
//! value always produces the same bytes, and decoders accept only those
//! canonical bytes, which is what makes content-addressed caching and
//! byte-identical re-analysis possible.

#![warn(missing_docs)]

mod bundle;
mod codec;
pub mod column;
mod digest;
mod error;
mod manifest;
mod wire;

pub use bundle::{
    seal_manifest, BundleArtifact, BundleMeta, BundleReader, BundleWriter, Reads, DATA_FILE,
};
pub use codec::{decode_artifact, encode_artifact, Codec};
pub use digest::{entry_checksum, fnv1a, Digest};
pub use error::TraceError;
pub use manifest::{Manifest, ManifestEntry, FORMAT_VERSION};
pub use wire::{Reader, Writer};
