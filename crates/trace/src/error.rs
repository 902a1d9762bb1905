//! Structured decode/IO errors.
//!
//! Every failure mode a reader can hit — truncated file, wrong magic, stale
//! format version, corrupted manifest line, entry or manifest checksum
//! mismatch — maps to a distinct variant so callers (and tests) can react
//! to the *kind* of damage instead of parsing panic strings.

use std::fmt;
use std::path::PathBuf;

/// Why a bundle or artifact could not be read (or written).
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Stringified OS error.
        msg: String,
    },
    /// A file did not start with the expected magic bytes.
    BadMagic(String),
    /// A file carries a format version this build does not speak.
    BadVersion {
        /// Version found in the file.
        found: u16,
        /// Version this build writes and reads.
        expected: u16,
    },
    /// A decode ran past the end of the buffer.
    UnexpectedEof,
    /// Structurally invalid content (bad tag byte, non-monotonic log, ...).
    Corrupt(String),
    /// The manifest failed to parse.
    Manifest {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The manifest does not list the requested artifact.
    MissingArtifact(String),
    /// An analyzer asked for an evaluation-only ground truth via the
    /// artifact accessor.
    TruthAccess(String),
    /// An entry's bytes do not match the checksum in the manifest.
    ChecksumMismatch {
        /// Manifest name of the damaged entry.
        name: String,
    },
    /// The manifest's bytes do not match the checksum in the bundle
    /// file's footer.
    ManifestChecksum,
    /// A nested bundle's name maps to no directory name, or to one an
    /// earlier nested bundle of the same bundle already uses.
    SubDirectory {
        /// The nested bundle's name.
        name: String,
        /// The directory name it maps to.
        dir: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, msg } => write!(f, "io error on {}: {msg}", path.display()),
            TraceError::BadMagic(what) => write!(f, "bad magic: {what}"),
            TraceError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported format version {found} (expected {expected})"
                )
            }
            TraceError::UnexpectedEof => write!(f, "unexpected end of data"),
            TraceError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            TraceError::Manifest { line, msg } => write!(f, "manifest line {line}: {msg}"),
            TraceError::MissingArtifact(name) => write!(f, "bundle has no artifact '{name}'"),
            TraceError::TruthAccess(name) => write!(
                f,
                "'{name}' is an evaluation-only ground truth; analyzers must not read it \
                 (use the truth accessor in evaluation code)"
            ),
            TraceError::ChecksumMismatch { name } => {
                write!(f, "artifact '{name}' does not match its manifest checksum")
            }
            TraceError::ManifestChecksum => {
                write!(f, "the manifest does not match its footer checksum")
            }
            TraceError::SubDirectory { name, dir } if dir.is_empty() => {
                write!(f, "sub-bundle {name:?} maps to no directory name")
            }
            TraceError::SubDirectory { name, dir } => write!(
                f,
                "sub-bundle {name:?} maps to directory {dir:?}, which an earlier sub-bundle uses"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl TraceError {
    /// Wrap an OS error with the path it occurred on.
    pub fn io(path: &std::path::Path, err: std::io::Error) -> TraceError {
        TraceError::Io {
            path: path.to_path_buf(),
            msg: err.to_string(),
        }
    }
}
