//! Versioned, deterministic, on-disk trace bundles.
//!
//! The paper's workflow is explicitly two-stage: the UI controller *records*
//! artifacts on the device — the tcpdump packet trace, the QxDM diagnostic
//! log, the app behavior log (§4.3) — and the multi-layer analyzer consumes
//! them *offline*. This crate makes those artifacts first-class on-disk
//! objects so a recorded run can be re-analyzed, cached, shipped, or diffed
//! without re-simulating.
//!
//! A **bundle** is a directory holding
//!
//! * `manifest.txt` — format version, seed, config digest, scenario id, sim
//!   end time, plus one line per contained file with its byte length and
//!   FNV-1a checksum, and
//! * one binary artifact file per layer, each framed with a 4-byte magic and
//!   a format version so stale files fail loudly rather than mis-decode.
//!
//! Ground-truth artifacts that exist only for evaluating the tool (the
//! per-PDU truth stream and the "camera" screen log) are **segregated** in
//! the manifest: they are listed as `truth` entries and the artifact
//! accessor refuses to serve them, so an analyzer cannot silently read what
//! a real deployment would not have.
//!
//! Everything here is hand-rolled little-endian binary, versioned by this
//! crate alone, and byte-deterministic: encoding the same value always
//! produces the same bytes, which is what makes content-addressed caching
//! and byte-identical re-analysis possible.

#![warn(missing_docs)]

mod bundle;
mod codec;
mod digest;
mod error;
mod manifest;
mod wire;

pub use bundle::{BundleArtifact, BundleMeta, BundleReader, BundleWriter};
pub use codec::{decode_artifact, encode_artifact, Codec};
pub use digest::{fnv1a, Digest};
pub use error::TraceError;
pub use manifest::{Manifest, ManifestEntry, FORMAT_VERSION};
pub use wire::{Reader, Writer};
