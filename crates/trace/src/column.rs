//! Column-oriented record logs.
//!
//! A [`RecordLog`] artifact is stored column by column: the record count as
//! a varint, the timestamps as one column of unsigned varint deltas (logs
//! are time-ordered, so every delta is non-negative), then the record
//! columns a [`ColumnEncoder`] writes. Each column is length-framed
//! ([`Writer::column`]), so a decoder opens all of them up front and walks
//! them in lockstep, one record at a time, without expanding any column
//! into a temporary buffer.
//!
//! Record types with a dedicated layout (packets, RLC PDUs) implement
//! [`ColumnEncoder`]/[`ColumnDecoder`] in their own crate from the
//! primitives here: varints, zigzag deltas ([`Writer::delta`]) and
//! run-length columns ([`RleWriter`]/[`RleReader`]). Any other
//! [`Codec`] type is stored as one column of rows ([`Rows`]).
//!
//! Every decoder accepts only canonical bytes — the bytes its encoder
//! would write for the decoded value — so `encode(decode(b)) == b` for
//! every accepted `b`: varints are minimal, runs are non-empty and never
//! repeat the previous run's value, and every column is consumed exactly.

use simcore::{RecordLog, SimTime, Stamped};

use crate::codec::Codec;
use crate::error::TraceError;
use crate::wire::{Reader, Writer};

/// Builds the record columns of one log, one record at a time.
pub trait ColumnEncoder<T>: Default {
    /// Append one record's fields to the columns.
    fn push(&mut self, rec: &T);
    /// Write every column, length-framed, in a fixed order.
    fn finish(self, w: &mut Writer);
}

/// Walks the columns written by the matching [`ColumnEncoder`] in lockstep.
pub trait ColumnDecoder<'a, T>: Sized {
    /// Open every column, in the order the encoder wrote them.
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError>;
    /// Decode the next record.
    fn next(&mut self) -> Result<T, TraceError>;
    /// Fail unless every column was consumed exactly.
    fn finish(self) -> Result<(), TraceError>;
}

/// Append `log` as a record count, a stamp column and the columns of `E`.
pub fn encode_log<T, E: ColumnEncoder<T>>(log: &RecordLog<T>, w: &mut Writer) {
    w.varint(log.len() as u64);
    let mut stamps = Writer::new();
    let mut enc = E::default();
    let mut prev = 0;
    for e in log.entries() {
        let at = e.at.as_micros();
        stamps.varint(at - prev);
        prev = at;
        enc.push(&e.record);
    }
    w.column(&stamps.finish());
    enc.finish(w);
}

/// Decode a log written by [`encode_log`] with the matching encoder.
pub fn decode_log<'a, T, D: ColumnDecoder<'a, T>>(
    r: &mut Reader<'a>,
) -> Result<RecordLog<T>, TraceError> {
    let len = r.varint()?;
    let mut stamps = r.column()?;
    // Every stamp takes at least one byte, so a count above the stamp
    // column's length is corrupt; reject it before allocating.
    if len > stamps.remaining() as u64 {
        return Err(TraceError::Corrupt(format!(
            "record count {len} exceeds the {}-byte stamp column",
            stamps.remaining()
        )));
    }
    let mut dec = D::open(r)?;
    let mut entries = Vec::with_capacity(len as usize);
    let mut at = 0u64;
    for i in 0..len {
        at = at
            .checked_add(stamps.varint()?)
            .ok_or_else(|| TraceError::Corrupt(format!("record {i}: time delta overflows")))?;
        entries.push(Stamped {
            at: SimTime::from_micros(at),
            record: dec.next()?,
        });
    }
    stamps.expect_end()?;
    dec.finish()?;
    Ok(RecordLog::from_entries(entries))
}

/// The generic record column: every record's [`Codec`] row, back to back.
#[derive(Default)]
pub struct Rows(Writer);

impl<T: Codec> ColumnEncoder<T> for Rows {
    fn push(&mut self, rec: &T) {
        rec.encode(&mut self.0);
    }
    fn finish(self, w: &mut Writer) {
        w.column(&self.0.finish());
    }
}

/// Decoder of a [`Rows`] column.
pub struct RowReader<'a>(Reader<'a>);

impl<'a, T: Codec> ColumnDecoder<'a, T> for RowReader<'a> {
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError> {
        Ok(RowReader(r.column()?))
    }
    fn next(&mut self) -> Result<T, TraceError> {
        T::decode(&mut self.0)
    }
    fn finish(self) -> Result<(), TraceError> {
        self.0.expect_end()
    }
}

/// Run-length encoder of one column of unsigned values: `(value, run)`
/// varint pairs, adjacent runs always holding different values.
#[derive(Default)]
pub struct RleWriter {
    out: Writer,
    run: Option<(u64, u64)>,
}

impl RleWriter {
    /// Append one value.
    #[inline]
    pub fn push(&mut self, v: u64) {
        match &mut self.run {
            Some((cur, n)) if *cur == v => *n += 1,
            _ => {
                self.flush();
                self.run = Some((v, 1));
            }
        }
    }

    fn flush(&mut self) {
        if let Some((v, n)) = self.run.take() {
            self.out.varint(v);
            self.out.varint(n);
        }
    }

    /// Write the column, length-framed.
    pub fn finish(mut self, w: &mut Writer) {
        self.flush();
        w.column(&self.out.finish());
    }
}

/// Decoder of an [`RleWriter`] column whose values must not exceed `max`.
pub struct RleReader<'a> {
    r: Reader<'a>,
    max: u64,
    /// The current run's value; meaningful once `started`. (A plain
    /// value keeps the in-run read a single load.)
    value: u64,
    started: bool,
    /// Values of the current run not yet read.
    left: u64,
}

impl<'a> RleReader<'a> {
    /// Open the next framed column of `r` as a run-length column.
    pub fn open(r: &mut Reader<'a>, max: u64) -> Result<RleReader<'a>, TraceError> {
        Ok(RleReader {
            r: r.column()?,
            max,
            value: 0,
            started: false,
            left: 0,
        })
    }

    /// The next value: inline inside a run, through an out-of-line path
    /// that checks the next run's canonical form at a run boundary.
    #[inline]
    pub fn read(&mut self) -> Result<u64, TraceError> {
        if self.left != 0 {
            self.left -= 1;
            return Ok(self.value);
        }
        self.next_run()
    }

    /// Open the next run, with every canonical-form check, and read its
    /// first value.
    #[inline(never)]
    fn next_run(&mut self) -> Result<u64, TraceError> {
        let v = self.r.varint_max(self.max)?;
        if self.started && self.value == v {
            return Err(TraceError::Corrupt(format!("run repeats the value {v}")));
        }
        let n = self.r.varint()?;
        if n == 0 {
            return Err(TraceError::Corrupt("zero-length run".into()));
        }
        self.value = v;
        self.started = true;
        self.left = n - 1;
        Ok(v)
    }

    /// Fail unless every run was consumed exactly.
    pub fn finish(self) -> Result<(), TraceError> {
        if self.left != 0 {
            return Err(TraceError::Corrupt(format!(
                "run overruns the record count by {}",
                self.left
            )));
        }
        self.r.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_artifact, encode_artifact};

    #[test]
    fn rle_round_trips_and_merges_runs() {
        let values = [3u64, 3, 3, 0, 7, 7, u64::MAX];
        let mut enc = RleWriter::default();
        for v in values {
            enc.push(v);
        }
        let mut w = Writer::new();
        enc.finish(&mut w);
        let buf = w.finish();
        // 4 runs of (value, run) pairs behind a one-byte frame.
        assert_eq!(buf[0] as usize, buf.len() - 1);
        let mut r = Reader::new(&buf);
        let mut dec = RleReader::open(&mut r, u64::MAX).unwrap();
        for v in values {
            assert_eq!(dec.read().unwrap(), v);
        }
        dec.finish().unwrap();
    }

    fn rle_column(pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut col = Writer::new();
        for &(v, n) in pairs {
            col.varint(v);
            col.varint(n);
        }
        let mut w = Writer::new();
        w.column(&col.finish());
        w.finish()
    }

    fn drain(buf: &[u8], count: usize, max: u64) -> Result<Vec<u64>, TraceError> {
        let mut r = Reader::new(buf);
        let mut dec = RleReader::open(&mut r, max)?;
        let out = (0..count)
            .map(|_| dec.read())
            .collect::<Result<Vec<_>, _>>()?;
        dec.finish()?;
        Ok(out)
    }

    #[test]
    fn rle_rejects_non_canonical_runs() {
        assert_eq!(
            drain(&rle_column(&[(1, 2), (0, 1)]), 3, 1).unwrap(),
            [1, 1, 0]
        );
        // A zero-length run, a run repeating its predecessor, a value above
        // the column's bound, and runs longer or shorter than the log.
        for (pairs, count) in [
            (vec![(1, 0), (0, 3)], 3),
            (vec![(1, 1), (1, 2)], 3),
            (vec![(2, 3)], 3),
            (vec![(1, 4)], 3),
            (vec![(1, 2)], 3),
        ] {
            assert!(drain(&rle_column(&pairs), count, 1).is_err(), "{pairs:?}");
        }
    }

    #[test]
    fn record_log_stamps_are_one_delta_column() {
        let mut log: RecordLog<u8> = RecordLog::new();
        for (at, v) in [(5u64, 1u8), (5, 2), (300, 3)] {
            log.push(SimTime::from_micros(at), v);
        }
        let buf = encode_artifact(b"QTST", 2, &log);
        // header, count 3, stamp column [5, 0, 295 as two bytes], rows.
        assert_eq!(&buf[6..], &[3, 4, 5, 0, 0xA7, 0x02, 3, 1, 2, 3]);
        let back: RecordLog<u8> = decode_artifact(&buf, b"QTST", 2).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn time_delta_overflow_is_rejected() {
        let mut stamps = Writer::new();
        stamps.varint(u64::MAX);
        stamps.varint(1);
        let mut w = Writer::with_magic(b"QTST", 2);
        w.varint(2);
        w.column(&stamps.finish());
        w.column(&[0, 0]);
        let err = decode_artifact::<RecordLog<u8>>(&w.finish(), b"QTST", 2).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }
}
