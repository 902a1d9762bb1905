//! Hardening properties of the column decoders.
//!
//! * Canonical bytes only: whatever a decoder accepts re-encodes to exactly
//!   the bytes it was given, so over-long varints, zero-length runs and
//!   other alternative spellings of a value are rejected.
//! * Damage is an error, never a panic: every proper prefix of a valid
//!   artifact is rejected, and a flipped byte either is rejected or decodes
//!   to a value that is canonically spelled by the flipped bytes.
//! * Declared counts and lengths are checked against the bytes present
//!   before anything is allocated.
//! * Format v1 and v2 input is refused with `BadVersion`.
//! * The inline fast paths change nothing: `Reader::varint`,
//!   `varint_max`, `delta32` and `RleReader` agree with a plain reference
//!   decoder on every 1- and 2-byte input and on random longer ones.

use proptest::prelude::*;
use simcore::{RecordLog, SimTime};
use trace::column::{decode_log, encode_log, ColumnDecoder, ColumnEncoder, RleReader, RleWriter};
use trace::{Manifest, Reader, TraceError, Writer, FORMAT_VERSION};

const MAGIC: &[u8; 4] = b"QTST";

/// A record exercising every column primitive: a run-length field, a
/// zigzag-delta `u64` and a zigzag-delta `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    kind: u8,
    value: u64,
    tag: u32,
}

#[derive(Default)]
struct SampleColumns {
    value_prev: u64,
    tag_prev: u32,
    kind: RleWriter,
    value: Writer,
    tag: Writer,
}

impl ColumnEncoder<Sample> for SampleColumns {
    fn push(&mut self, s: &Sample) {
        self.kind.push(u64::from(s.kind));
        self.value.delta(&mut self.value_prev, s.value);
        self.tag.delta32(&mut self.tag_prev, s.tag);
    }
    fn finish(self, w: &mut Writer) {
        self.kind.finish(w);
        w.column(&self.value.finish());
        w.column(&self.tag.finish());
    }
}

struct SampleReader<'a> {
    value_prev: u64,
    tag_prev: u32,
    kind: RleReader<'a>,
    value: Reader<'a>,
    tag: Reader<'a>,
}

impl<'a> ColumnDecoder<'a, Sample> for SampleReader<'a> {
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError> {
        Ok(SampleReader {
            value_prev: 0,
            tag_prev: 0,
            kind: RleReader::open(r, 3)?,
            value: r.column()?,
            tag: r.column()?,
        })
    }
    fn next(&mut self) -> Result<Sample, TraceError> {
        Ok(Sample {
            kind: self.kind.read()? as u8,
            value: self.value.delta(&mut self.value_prev)?,
            tag: self.tag.delta32(&mut self.tag_prev)?,
        })
    }
    fn finish(self) -> Result<(), TraceError> {
        self.kind.finish()?;
        self.value.expect_end()?;
        self.tag.expect_end()
    }
}

fn encode(log: &RecordLog<Sample>) -> Vec<u8> {
    let mut w = Writer::with_magic(MAGIC, FORMAT_VERSION);
    encode_log::<_, SampleColumns>(log, &mut w);
    w.finish()
}

fn decode(bytes: &[u8]) -> Result<RecordLog<Sample>, TraceError> {
    let mut r = Reader::open(bytes, MAGIC, FORMAT_VERSION)?;
    let log = decode_log::<_, SampleReader>(&mut r)?;
    r.expect_end()?;
    Ok(log)
}

/// Values biased toward the wrapping edges of the delta columns.
fn st_edge_u64() -> impl Strategy<Value = u64> {
    (0u8..6, any::<u64>()).prop_map(|(k, v)| match k {
        0 => 0,
        1 => u64::MAX,
        2 => 1,
        3 => u64::MAX - 1,
        _ => v,
    })
}

fn st_log() -> impl Strategy<Value = RecordLog<Sample>> {
    prop::collection::vec((0u64..3, (0u8..4, st_edge_u64(), any::<u32>())), 0..24).prop_map(
        |draws| {
            let mut log = RecordLog::new();
            let mut at = 0u64;
            for (gap, (kind, value, tag)) in draws {
                at += gap * 1_000;
                log.push(SimTime::from_micros(at), Sample { kind, value, tag });
            }
            log
        },
    )
}

/// The decoder's verdict on `bytes` is an error, or a value whose
/// canonical encoding is exactly `bytes`.
fn assert_canonical_or_rejected(bytes: &[u8]) {
    if let Ok(log) = decode(bytes) {
        assert_eq!(encode(&log), bytes, "accepted a non-canonical spelling");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sample_logs_round_trip(log in st_log()) {
        prop_assert_eq!(decode(&encode(&log)).unwrap(), log);
    }

    #[test]
    fn every_prefix_is_rejected(log in st_log()) {
        let bytes = encode(&log);
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {} bytes accepted", cut);
        }
    }

    #[test]
    fn flipped_bytes_are_rejected_or_canonical(log in st_log(), mask in 1u8..=255) {
        let bytes = encode(&log);
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= mask;
            assert_canonical_or_rejected(&damaged);
        }
    }

    #[test]
    fn overwritten_bytes_are_rejected_or_canonical(
        log in st_log(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = encode(&log);
        for (at, v) in edits {
            let i = at % bytes.len();
            bytes[i] = v;
        }
        assert_canonical_or_rejected(&bytes);
    }
}

#[test]
fn over_long_and_overflowing_varints_are_rejected() {
    for bad in [
        &[0x80, 0x00][..],
        &[0xFF, 0x80, 0x00],
        &[0x80; 10],
        &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
    ] {
        assert!(Reader::new(bad).varint().is_err(), "{bad:?}");
    }
    let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
    assert_eq!(Reader::new(&max).varint().unwrap(), u64::MAX);
    assert_eq!(Reader::new(&[0x00]).varint().unwrap(), 0);
}

#[test]
fn delta32_rejects_values_past_u32() {
    let mut w = Writer::new();
    w.varint(u64::from(u32::MAX) + 1);
    let bytes = w.finish();
    assert!(Reader::new(&bytes).delta32(&mut 0).is_err());
}

/// An artifact whose count and columns are given raw.
fn raw_artifact(count: u64, columns: &[&[u8]]) -> Vec<u8> {
    let mut w = Writer::with_magic(MAGIC, FORMAT_VERSION);
    w.varint(count);
    for c in columns {
        w.column(c);
    }
    w.finish()
}

#[test]
fn zero_length_and_overrunning_runs_are_rejected() {
    let ok = raw_artifact(2, &[&[0, 0], &[1, 2], &[0, 0], &[0, 0]]);
    assert_eq!(decode(&ok).unwrap().len(), 2);
    // A zero-length run, a run repeating its predecessor, runs longer and
    // shorter than the log, and a value above the column's bound.
    for kind in [&[1, 0, 0, 2][..], &[1, 1, 1, 1], &[1, 3], &[1, 1], &[4, 2]] {
        let bad = raw_artifact(2, &[&[0, 0], kind, &[0, 0], &[0, 0]]);
        assert!(decode(&bad).is_err(), "kind column {kind:?}");
    }
}

#[test]
fn huge_declared_counts_are_rejected_before_allocating() {
    // A record count of u64::MAX with a one-byte stamp column: the count
    // check fires before `Vec::with_capacity` could abort the process.
    let huge = raw_artifact(u64::MAX, &[&[0]]);
    match decode(&huge) {
        Err(TraceError::Corrupt(msg)) => assert!(msg.contains("record count"), "{msg}"),
        other => panic!("expected a corrupt count, got {other:?}"),
    }
    // A column claiming more bytes than the file holds.
    let mut w = Writer::with_magic(MAGIC, FORMAT_VERSION);
    w.varint(1);
    w.varint(u64::MAX);
    assert!(matches!(
        decode(&w.finish()),
        Err(TraceError::UnexpectedEof)
    ));
    // A generic vector count past the remaining bytes.
    let mut w = Writer::with_magic(MAGIC, FORMAT_VERSION);
    w.u64(u64::MAX);
    let err = trace::decode_artifact::<Vec<u64>>(&w.finish(), MAGIC, FORMAT_VERSION).unwrap_err();
    assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
}

/// An artifact and a manifest of format `found` are refused with
/// `BadVersion`: there is no reader for any version but the current one.
fn assert_version_rejected(found: u16) {
    let mut w = Writer::with_magic(MAGIC, found);
    w.varint(0);
    match decode(&w.finish()) {
        Err(TraceError::BadVersion {
            found: f,
            expected: FORMAT_VERSION,
        }) if f == found => {}
        other => panic!("expected BadVersion, got {other:?}"),
    }
    let manifest = format!(
        "qoe-trace-bundle v{found}\nseed 1\nconfig 0000000000000000\nend_us 0\nscenario s\n"
    );
    match Manifest::parse(&manifest) {
        Err(TraceError::BadVersion {
            found: f,
            expected: FORMAT_VERSION,
        }) if f == found => {}
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn version_1_input_is_rejected() {
    assert_eq!(FORMAT_VERSION, 4);
    assert_version_rejected(1);
}

/// Format v2 differs from v3 only in the entry checksum (FNV-1a), yet is
/// refused like any other version.
#[test]
fn version_2_input_is_rejected() {
    assert_version_rejected(2);
}

/// Format v3 differs from v4 only in the bundle layout (a file per entry
/// beside `manifest.txt`), yet its artifacts and manifest are refused too.
#[test]
fn version_3_input_is_rejected() {
    assert_version_rejected(3);
}

// ---- the fast paths against a plain reference decoder -------------------

/// The canonical varint at the start of `buf`, decoded the plain way:
/// `(value, length)`, or `None` when `buf` does not start with one. A
/// canonical varint is 1 to 10 bytes, high bit set on all but the last,
/// no trailing zero group, and at most `u64::MAX`.
fn ref_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let len = buf.iter().position(|b| b & 0x80 == 0)? + 1;
    let last = buf[len - 1];
    if len > 10 || (len > 1 && last == 0) || (len == 10 && last > 1) {
        return None;
    }
    let v = buf[..len]
        .iter()
        .rev()
        .fold(0, |v, b| v << 7 | u64::from(b & 0x7F));
    Some((v, len))
}

/// The `u32` zigzag delta a varint `v <= u32::MAX` stands for, added to
/// `prev`.
fn ref_delta32(prev: u32, v: u64) -> u32 {
    let d = if v.is_multiple_of(2) {
        (v / 2) as i64
    } else {
        -((v / 2) as i64) - 1
    };
    prev.wrapping_add(d as i32 as u32)
}

/// `count` reads and then `finish` of a run-length column holding `col`,
/// decoded the plain way: the values read before the first rejection, and
/// whether every read and the finish were accepted.
fn ref_rle(col: &[u8], max: u64, count: usize) -> (Vec<u64>, bool) {
    let (mut pos, mut value, mut left) = (0, None, 0u64);
    let mut out = Vec::new();
    for _ in 0..count {
        if left == 0 {
            let Some((v, a)) = ref_varint(&col[pos..]) else {
                return (out, false);
            };
            let Some((n, b)) = ref_varint(&col[pos + a..]) else {
                return (out, false);
            };
            if v > max || value == Some(v) || n == 0 {
                return (out, false);
            }
            pos += a + b;
            value = Some(v);
            left = n;
        }
        left -= 1;
        out.extend(value);
    }
    (out, left == 0 && pos == col.len())
}

/// [`ref_rle`]'s reads through `RleReader`.
fn rle(col: &[u8], max: u64, count: usize) -> (Vec<u64>, bool) {
    let mut framed = Writer::new();
    framed.column(col);
    let bytes = framed.finish();
    let mut r = Reader::new(&bytes);
    let mut dec = RleReader::open(&mut r, max).unwrap();
    let mut out = Vec::new();
    for _ in 0..count {
        match dec.read() {
            Ok(v) => out.push(v),
            Err(_) => return (out, false),
        }
    }
    (out, dec.finish().is_ok())
}

const MAXES: [u64; 7] = [0, 1, 3, 127, 128, u32::MAX as u64, u64::MAX];

/// `varint`, `varint_max` and `delta32` on `buf` return what the reference
/// does and leave the cursor where it does, and `RleReader` reads what it
/// does from a column holding `buf`.
fn assert_matches_reference(buf: &[u8]) {
    let want = ref_varint(buf);
    // Bytes left once the varint is consumed; even an out-of-range one is.
    let rest = buf.len() - want.map_or(0, |w| w.1);

    let mut r = Reader::new(buf);
    let got = r.varint().ok();
    assert_eq!(
        (got, r.remaining()),
        (want.map(|w| w.0), rest),
        "varint {buf:?}"
    );

    for max in MAXES {
        let mut r = Reader::new(buf);
        let got = r.varint_max(max).ok();
        let v = want.map(|w| w.0).filter(|&v| v <= max);
        assert_eq!((got, r.remaining()), (v, rest), "varint_max({max}) {buf:?}");
    }

    for start in [0, 1, u32::MAX] {
        let mut prev = start;
        let mut r = Reader::new(buf);
        let got = r.delta32(&mut prev).ok();
        let v = want.map(|w| w.0).filter(|&v| v <= u64::from(u32::MAX));
        let want_prev = v.map_or(start, |v| ref_delta32(start, v));
        assert_eq!(
            (got, prev, r.remaining()),
            (v.map(|_| want_prev), want_prev, rest),
            "delta32 from {start} {buf:?}"
        );
    }

    for max in MAXES {
        for count in 0..=4 {
            assert_eq!(
                rle(buf, max, count),
                ref_rle(buf, max, count),
                "rle max {max} count {count} {buf:?}"
            );
        }
    }
}

#[test]
fn fast_paths_match_the_reference_on_every_short_input() {
    assert_matches_reference(&[]);
    for a in 0..=255u8 {
        assert_matches_reference(&[a]);
        for b in 0..=255u8 {
            assert_matches_reference(&[a, b]);
        }
    }
}

/// Bytes biased toward continuation bytes, zero groups and tiny values,
/// so random strings hold long, over-long and repeated spellings.
fn st_varint_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (0u8..4, any::<u8>()).prop_map(|(k, b)| match k {
            0 => b | 0x80,
            1 => b & 0x03,
            2 => 0,
            _ => b,
        }),
        3..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fast_paths_match_the_reference_on_longer_inputs(buf in st_varint_bytes()) {
        assert_matches_reference(&buf);
    }
}
