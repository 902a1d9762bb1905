//! The bundle manifest: a deterministic, line-oriented text.
//!
//! ```text
//! qoe-trace-bundle v4
//! seed 20140705
//! config 00c0ffee00c0ffee
//! end_us 315000000
//! scenario fig17/3G @128kbps
//! artifact behavior 0 1234 a1b2c3d4e5f60718
//! truth camera 1234 555 0011223344556677
//! sub shaping shaping
//! ```
//!
//! Field lines are fixed-order (`seed`, `config`, `end_us`, `scenario`);
//! entry lines follow in write order, each giving the entry's byte offset
//! in the bundle file, its byte length and its
//! [`entry_checksum`](crate::entry_checksum) in hex. `artifact` entries are
//! what an analyzer may read; `truth` entries are evaluation-only ground
//! truths (per-PDU truth stream, camera screen log) that the artifact
//! accessor refuses to serve — see the crate docs for why they are
//! segregated. `sub` entries name nested bundles (used when one campaign
//! job records several sessions), each in a directory of its own beside
//! the bundle file.
//!
//! The manifest sits in the bundle file after the entries and before the
//! footer, which carries its length and checksum (see
//! [`seal_manifest`](crate::seal_manifest)); it is written *last*, so a
//! crashed recorder leaves a file without a valid footer — unreadable —
//! rather than a plausible-looking but incomplete bundle. The entries must
//! tile the bytes before the manifest exactly, in some order: no gap, no
//! overlap, nothing past the manifest's start, so every byte of the file
//! is covered by a checksum.
//!
//! Sub-bundle directories must be single plain path components (not
//! empty, `.` or `..`, no `/` or `\`): a manifest can only point inside
//! its own bundle directory.

use std::ops::Range;

use simcore::SimTime;

use crate::error::TraceError;

/// The bundle format version this build writes and reads.
///
/// Policy: any change to the manifest grammar, the bundle file's layout or
/// footer, the entry checksum, an artifact's framing, or a record's field
/// layout bumps this constant; readers reject other versions outright
/// ([`TraceError::BadVersion`]) instead of guessing. There is no
/// cross-version migration — bundles are cheap to re-record.
pub const FORMAT_VERSION: u16 = 4;

const MAGIC_PREFIX: &str = "qoe-trace-bundle v";

/// Accept `name` as a directory name inside the bundle only if it is one
/// plain path component, so joining it onto the bundle directory cannot
/// leave that directory.
fn plain_component(name: &str, lineno: usize) -> Result<String, TraceError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(TraceError::Manifest {
            line: lineno,
            msg: format!("{name:?} is not a plain directory name inside the bundle"),
        });
    }
    Ok(name.to_string())
}

/// One entry listed in the manifest: a byte range of the bundle file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Logical artifact name (what callers ask for).
    pub name: String,
    /// Byte offset of the entry in the bundle file.
    pub offset: u64,
    /// Exact entry length in bytes.
    pub bytes: u64,
    /// [`entry_checksum`](crate::entry_checksum) of the entry's bytes.
    pub checksum: u64,
}

impl ManifestEntry {
    /// The entry's absolute byte range in the bundle file.
    pub fn range(&self) -> Range<u64> {
        self.offset..self.offset + self.bytes
    }
}

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version found in the header line.
    pub format_version: u16,
    /// Simulation seed the bundle was recorded with.
    pub seed: u64,
    /// Digest of the scenario configuration (experiment, scale, rates).
    pub config_digest: u64,
    /// Human-readable scenario id, e.g. `fig17/3G`.
    pub scenario: String,
    /// Simulated clock at the end of the recording.
    pub end: SimTime,
    /// Analyzer-visible artifacts.
    pub artifacts: Vec<ManifestEntry>,
    /// Evaluation-only ground truths.
    pub truths: Vec<ManifestEntry>,
    /// Nested bundles: `(name, directory)`.
    pub subs: Vec<(String, String)>,
}

impl Manifest {
    /// The entry (artifact or truth) named `name`.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.artifacts
            .iter()
            .chain(&self.truths)
            .find(|e| e.name == name)
    }

    /// Length of the bundle file's entry region: where the manifest starts.
    pub fn data_len(&self) -> u64 {
        self.artifacts
            .iter()
            .chain(&self.truths)
            .map(|e| e.bytes)
            .sum()
    }

    /// Check that the entries tile `0..data_len` exactly, so that no entry
    /// reaches into the manifest and no byte before it goes unchecked.
    pub(crate) fn check_layout(&self, data_len: u64) -> Result<(), TraceError> {
        let mut entries: Vec<&ManifestEntry> = self.artifacts.iter().chain(&self.truths).collect();
        entries.sort_by_key(|e| e.offset);
        let mut cursor = 0;
        for e in entries {
            if e.offset != cursor || e.range().end > data_len {
                return Err(TraceError::Corrupt(format!(
                    "entry '{}' spans bytes {:?}, but the next entry must start at {cursor} \
                     and the entries end at {data_len}",
                    e.name,
                    e.range()
                )));
            }
            cursor = e.range().end;
        }
        if cursor != data_len {
            return Err(TraceError::Corrupt(format!(
                "entries end at byte {cursor}, but the manifest starts at {data_len}"
            )));
        }
        Ok(())
    }

    /// Render to the canonical text form (byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{MAGIC_PREFIX}{}\n", self.format_version));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("config {:016x}\n", self.config_digest));
        out.push_str(&format!("end_us {}\n", self.end.as_micros()));
        out.push_str(&format!("scenario {}\n", self.scenario));
        for (kind, entries) in [("artifact", &self.artifacts), ("truth", &self.truths)] {
            for e in entries {
                out.push_str(&format!(
                    "{kind} {} {} {} {:016x}\n",
                    e.name, e.offset, e.bytes, e.checksum
                ));
            }
        }
        // Directory first: sub-bundle *names* are free text (campaign
        // labels may contain spaces), so the name takes the rest of the
        // line; directories are slugs and never contain spaces.
        for (name, dir) in &self.subs {
            out.push_str(&format!("sub {dir} {name}\n"));
        }
        out
    }

    /// Parse the canonical text form, reporting the offending line number
    /// on failure.
    pub fn parse(text: &str) -> Result<Manifest, TraceError> {
        let mut lines = text.lines().enumerate();

        let (_, magic) = lines.next().ok_or(TraceError::Manifest {
            line: 1,
            msg: "empty manifest".into(),
        })?;
        let version = magic
            .strip_prefix(MAGIC_PREFIX)
            .ok_or_else(|| TraceError::BadMagic(format!("manifest header {magic:?}")))?;
        let format_version: u16 = version.parse().map_err(|_| TraceError::Manifest {
            line: 1,
            msg: format!("unparseable version {version:?}"),
        })?;
        if format_version != FORMAT_VERSION {
            return Err(TraceError::BadVersion {
                found: format_version,
                expected: FORMAT_VERSION,
            });
        }

        let mut field = |want: &str| -> Result<(usize, String), TraceError> {
            let (i, line) = lines.next().ok_or(TraceError::Manifest {
                line: 0,
                msg: format!("missing {want} line"),
            })?;
            let lineno = i + 1;
            match line.split_once(' ') {
                Some((k, v)) if k == want => Ok((lineno, v.to_string())),
                _ => Err(TraceError::Manifest {
                    line: lineno,
                    msg: format!("expected '{want} <value>', found {line:?}"),
                }),
            }
        };

        let (ln, seed) = field("seed")?;
        let seed: u64 = seed.parse().map_err(|_| TraceError::Manifest {
            line: ln,
            msg: format!("unparseable seed {seed:?}"),
        })?;
        let (ln, config) = field("config")?;
        let config_digest = u64::from_str_radix(&config, 16).map_err(|_| TraceError::Manifest {
            line: ln,
            msg: format!("unparseable config digest {config:?}"),
        })?;
        let (ln, end_us) = field("end_us")?;
        let end_us: u64 = end_us.parse().map_err(|_| TraceError::Manifest {
            line: ln,
            msg: format!("unparseable end_us {end_us:?}"),
        })?;
        let (_, scenario) = field("scenario")?;

        let mut m = Manifest {
            format_version,
            seed,
            config_digest,
            scenario,
            end: SimTime::from_micros(end_us),
            artifacts: Vec::new(),
            truths: Vec::new(),
            subs: Vec::new(),
        };

        for (i, line) in lines {
            let lineno = i + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("sub ") {
                match rest.split_once(' ') {
                    Some((dir, name)) => {
                        m.subs
                            .push((name.to_string(), plain_component(dir, lineno)?));
                        continue;
                    }
                    None => {
                        return Err(TraceError::Manifest {
                            line: lineno,
                            msg: format!("expected 'sub <dir> <name>', found {line:?}"),
                        })
                    }
                }
            }
            let parts: Vec<&str> = line.split(' ').collect();
            match parts.as_slice() {
                [kind @ ("artifact" | "truth"), name, offset, bytes, checksum] => {
                    let offset: u64 = offset.parse().map_err(|_| TraceError::Manifest {
                        line: lineno,
                        msg: format!("unparseable offset {offset:?}"),
                    })?;
                    let bytes: u64 = bytes.parse().map_err(|_| TraceError::Manifest {
                        line: lineno,
                        msg: format!("unparseable byte count {bytes:?}"),
                    })?;
                    if offset.checked_add(bytes).is_none() {
                        return Err(TraceError::Manifest {
                            line: lineno,
                            msg: format!("entry {name:?} ends past the largest offset"),
                        });
                    }
                    let checksum =
                        u64::from_str_radix(checksum, 16).map_err(|_| TraceError::Manifest {
                            line: lineno,
                            msg: format!("unparseable checksum {checksum:?}"),
                        })?;
                    let entry = ManifestEntry {
                        name: name.to_string(),
                        offset,
                        bytes,
                        checksum,
                    };
                    if *kind == "artifact" {
                        m.artifacts.push(entry);
                    } else {
                        m.truths.push(entry);
                    }
                }
                _ => {
                    return Err(TraceError::Manifest {
                        line: lineno,
                        msg: format!("unrecognized entry {line:?}"),
                    })
                }
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            format_version: FORMAT_VERSION,
            seed: 20140705,
            config_digest: 0xdead_beef_0042_0042,
            scenario: "fig17/3G @128 kbps".into(),
            end: SimTime::from_micros(315_000_000),
            artifacts: vec![ManifestEntry {
                name: "behavior".into(),
                offset: 0,
                bytes: 77,
                checksum: 0x0123_4567_89ab_cdef,
            }],
            truths: vec![ManifestEntry {
                name: "camera".into(),
                offset: 77,
                bytes: 3,
                checksum: 1,
            }],
            subs: vec![("shaping".into(), "shaping".into())],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
    }

    #[test]
    fn scenario_may_contain_spaces() {
        let m = Manifest::parse(&sample().render()).unwrap();
        assert_eq!(m.scenario, "fig17/3G @128 kbps");
    }

    #[test]
    fn wrong_version_is_structured() {
        let text = sample()
            .render()
            .replace(&format!("bundle v{FORMAT_VERSION}"), "bundle v9");
        assert!(matches!(
            Manifest::parse(&text),
            Err(TraceError::BadVersion {
                found: 9,
                expected: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn truncated_manifest_is_structured() {
        let full = sample().render();
        let cut = &full[..full.find("scenario").unwrap()];
        let err = Manifest::parse(cut).unwrap_err();
        assert!(matches!(err, TraceError::Manifest { .. }), "{err}");
    }

    #[test]
    fn entries_must_stay_inside_the_bundle() {
        // Sub-bundle directories are single plain path components.
        for (from, to) in [
            ("sub shaping ", "sub .. "),
            ("sub shaping ", "sub . "),
            ("sub shaping ", "sub a/b "),
            ("sub shaping ", "sub a\\b "),
            ("sub shaping ", "sub  "),
        ] {
            let text = sample().render();
            assert!(text.contains(from), "{from:?} not in the sample");
            match Manifest::parse(&text.replace(from, to)) {
                Err(TraceError::Manifest { line: l, msg }) => {
                    assert_eq!(l, 8, "{to:?}: {msg}");
                    assert!(msg.contains("plain directory name"), "{to:?}: {msg}");
                }
                other => panic!("{to:?} accepted: {other:?}"),
            }
        }
        // Entries tile the data region exactly, in any order.
        let layouts = [
            ((0, 77), (77, 3), 80, true),
            ((3, 77), (0, 3), 80, true),   // written in another order
            ((0, 77), (77, 3), 79, false), // past the manifest's start
            ((0, 77), (77, 3), 81, false), // a byte no entry covers
            ((0, 77), (78, 3), 81, false), // a gap
            ((0, 77), (76, 3), 79, false), // an overlap
            ((1, 77), (78, 3), 81, false), // not from byte 0
            ((0, 77), (0, 3), 77, false),  // the same bytes twice
        ];
        for (behavior, camera, data_len, ok) in layouts {
            let mut m = sample();
            (m.artifacts[0].offset, m.artifacts[0].bytes) = behavior;
            (m.truths[0].offset, m.truths[0].bytes) = camera;
            match m.check_layout(data_len) {
                Ok(()) => assert!(ok, "{behavior:?} {camera:?} in {data_len} accepted"),
                Err(TraceError::Corrupt(msg)) => assert!(!ok, "{msg}"),
                Err(e) => panic!("unstructured layout error {e:?}"),
            }
        }
        // An entry whose end overflows is refused while parsing.
        let text = sample()
            .render()
            .replace("behavior 0 77 ", &format!("behavior {} 77 ", u64::MAX));
        assert!(matches!(
            Manifest::parse(&text),
            Err(TraceError::Manifest { line: 6, .. })
        ));
    }

    #[test]
    fn garbage_entry_reports_line() {
        let text = format!("{}what is this\n", sample().render());
        match Manifest::parse(&text) {
            Err(TraceError::Manifest { line, .. }) => assert_eq!(line, 9),
            other => panic!("expected manifest error, got {other:?}"),
        }
    }
}
