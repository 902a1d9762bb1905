//! The [`Codec`] trait: byte-deterministic binary encode/decode.
//!
//! Each layer crate implements `Codec` for its own small record types (the
//! orphan rule allows it because this crate owns the trait); generic
//! containers — options, vectors, strings, timestamped [`RecordLog`]s — are
//! covered here so layer impls only describe their own fields. The large
//! logs (packets, RLC PDUs) have column layouts of their own instead; see
//! [`crate::column`].

use simcore::{RecordLog, SimDuration, SimTime};

use crate::column::{decode_log, encode_log, RowReader, Rows};
use crate::error::TraceError;
use crate::wire::{Reader, Writer};

/// A type with a canonical binary form.
///
/// `decode(encode(x)) == x` must hold exactly (lossless round-trip), and
/// `encode` must be a pure function of the value so identical values always
/// produce identical bytes.
pub trait Codec: Sized {
    /// Append this value's canonical encoding.
    fn encode(&self, w: &mut Writer);
    /// Decode one value, advancing the cursor.
    fn decode(r: &mut Reader) -> Result<Self, TraceError>;
}

impl Codec for u8 {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.u8()
    }
}

impl Codec for u16 {
    fn encode(&self, w: &mut Writer) {
        w.u16(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.u16()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.u64()
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.f64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.bool()
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        r.str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(TraceError::Corrupt(format!("bad Option tag {other}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        let len = r.u64()?;
        // A count cannot exceed one element per remaining byte; reject early
        // so a corrupted length does not trigger a huge allocation.
        if len > r.remaining() as u64 {
            return Err(TraceError::Corrupt(format!(
                "element count {len} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Codec for SimTime {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.as_micros());
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(SimTime::from_micros(r.u64()?))
    }
}

impl Codec for SimDuration {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.as_micros());
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(SimDuration::from_micros(r.u64()?))
    }
}

/// A log stores its stamps as one delta-varint column and its records as
/// one column of rows (see [`crate::column`]).
impl<T: Codec> Codec for RecordLog<T> {
    fn encode(&self, w: &mut Writer) {
        encode_log::<T, Rows>(self, w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        decode_log::<T, RowReader>(r)
    }
}

/// Encode `value` as a standalone artifact file: magic + format version +
/// payload.
pub fn encode_artifact<T: Codec>(magic: &[u8; 4], version: u16, value: &T) -> Vec<u8> {
    let mut w = Writer::with_magic(magic, version);
    value.encode(&mut w);
    w.finish()
}

/// Decode a standalone artifact file produced by [`encode_artifact`],
/// rejecting wrong magic, wrong version, and trailing garbage.
pub fn decode_artifact<T: Codec>(
    bytes: &[u8],
    magic: &[u8; 4],
    version: u16,
) -> Result<T, TraceError> {
    let mut r = Reader::open(bytes, magic, version)?;
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<u64>> = vec![None, Some(3), Some(u64::MAX)];
        let buf = encode_artifact(b"QTST", 1, &v);
        let back: Vec<Option<u64>> = decode_artifact(&buf, b"QTST", 1).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn record_log_round_trips_and_rejects_disorder() {
        let mut log: RecordLog<u32> = RecordLog::new();
        log.push(SimTime::from_micros(5), 1);
        log.push(SimTime::from_micros(5), 2);
        log.push(SimTime::from_micros(9), 3);
        let buf = encode_artifact(b"QTST", 1, &log);
        let back: RecordLog<u32> = decode_artifact(&buf, b"QTST", 1).unwrap();
        assert_eq!(back, log);

        // Stamps are unsigned deltas, so a log can only run backwards by
        // overflowing the clock: a delta that wraps 9us past u64::MAX must
        // be structurally rejected.
        let mut stamps = Writer::new();
        stamps.varint(9);
        stamps.varint(u64::MAX - 4);
        let mut w = Writer::with_magic(b"QTST", 1);
        w.varint(2);
        w.column(&stamps.finish());
        let mut rows = Writer::new();
        3u32.encode(&mut rows);
        1u32.encode(&mut rows);
        w.column(&rows.finish());
        let err = decode_artifact::<RecordLog<u32>>(&w.finish(), b"QTST", 1).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = encode_artifact(b"QTST", 1, &7u64);
        buf.push(0);
        assert!(matches!(
            decode_artifact::<u64>(&buf, b"QTST", 1),
            Err(TraceError::Corrupt(_))
        ));
    }
}
