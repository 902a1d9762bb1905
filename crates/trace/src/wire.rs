//! Wire primitives: little-endian scalars, LEB128 varints and
//! length-framed columns.
//!
//! [`Writer`] appends to an owned buffer; [`Reader`] walks a borrowed one
//! with a cursor and fails with [`TraceError::UnexpectedEof`] instead of
//! panicking on truncation. Artifact files additionally open with a 4-byte
//! magic + `u16` format version header (see [`Writer::with_magic`] /
//! [`Reader::open`]) so a stale or foreign file is rejected before any
//! payload decode runs.
//!
//! Varints are canonical: [`Reader::varint`] rejects over-long encodings
//! (a trailing zero group) and values past `u64::MAX`, so every accepted
//! varint re-encodes to the bytes it was read from.

use crate::error::TraceError;

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer primed with an artifact header: `magic` then `version`.
    pub fn with_magic(magic: &[u8; 4], version: u16) -> Writer {
        let mut w = Writer::new();
        w.bytes(magic);
        w.u16(version);
        w
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (lossless, deterministic
    /// for every value including NaNs with a fixed payload).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append an unsigned LEB128 varint: 7 value bits per byte, low group
    /// first, high bit set on every byte but the last.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append `v` as a zigzag varint of its wrapping difference from
    /// `*prev`, then make `v` the new `*prev`. Every `u64` pair round-trips,
    /// `0 → u64::MAX` included (a delta of -1).
    #[inline]
    pub fn delta(&mut self, prev: &mut u64, v: u64) {
        self.varint(zigzag(v.wrapping_sub(*prev) as i64));
        *prev = v;
    }

    /// [`Writer::delta`] over `u32` values: the wrapping difference as an
    /// `i32`, so the varint never exceeds `u32::MAX`.
    #[inline]
    pub fn delta32(&mut self, prev: &mut u32, v: u32) {
        self.varint(zigzag(v.wrapping_sub(*prev) as i32 as i64));
        *prev = v;
    }

    /// Append a length-framed column: its byte length as a varint, then its
    /// bytes.
    pub fn column(&mut self, col: &[u8]) {
        self.varint(col.len() as u64);
        self.bytes(col);
    }

    /// Append a length-prefixed byte string.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based little-endian decoder over a borrowed buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// A reader over an artifact file: checks the 4-byte `magic` and the
    /// `u16` format version before handing back the payload cursor.
    pub fn open(buf: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Reader<'a>, TraceError> {
        let mut r = Reader::new(buf);
        let found = r.take(4)?;
        if found != magic {
            return Err(TraceError::BadMagic(format!(
                "expected {:?}, found {:?}",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(found),
            )));
        }
        let v = r.u16()?;
        if v != version {
            return Err(TraceError::BadVersion {
                found: v,
                expected: version,
            });
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole buffer was consumed (trailing garbage means
    /// the file does not round-trip and should be rejected).
    pub fn expect_end(&self) -> Result<(), TraceError> {
        if self.remaining() != 0 {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, TraceError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consume a bool byte; anything other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool, TraceError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(TraceError::Corrupt(format!("bad bool byte {other}"))),
        }
    }

    /// Consume a canonical LEB128 varint (see [`Writer::varint`]).
    ///
    /// Most varints in a column are one or two bytes (a stamp delta under
    /// 16 ms takes two), so those are taken inline, a trailing zero byte
    /// excepted; longer, over-long, overflowing and truncated ones go
    /// through an out-of-line path that makes every canonical-form check.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        if let Some(&b0) = self.buf.get(self.pos) {
            if b0 < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b0));
            }
            if let Some(&b1) = self.buf.get(self.pos + 1) {
                if b1 < 0x80 && b1 != 0 {
                    self.pos += 2;
                    return Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7);
                }
            }
        }
        self.varint_multi()
    }

    /// The general case of [`Reader::varint`], with every canonical-form
    /// check; the cursor moves only when a varint is accepted.
    #[inline(never)]
    fn varint_multi(&mut self) -> Result<u64, TraceError> {
        let rest = &self.buf[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().enumerate().take(10) {
            if i == 9 && b > 1 {
                return Err(TraceError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(TraceError::Corrupt("over-long varint".into()));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(TraceError::UnexpectedEof)
    }

    /// Consume a varint that must not exceed `max`.
    #[inline]
    pub fn varint_max(&mut self, max: u64) -> Result<u64, TraceError> {
        let v = self.varint()?;
        if v > max {
            return Err(exceeds(v, max));
        }
        Ok(v)
    }

    /// Consume a value written by [`Writer::delta`] against `*prev`.
    #[inline]
    pub fn delta(&mut self, prev: &mut u64) -> Result<u64, TraceError> {
        *prev = prev.wrapping_add(unzigzag(self.varint()?) as u64);
        Ok(*prev)
    }

    /// Consume a value written by [`Writer::delta32`] against `*prev`.
    #[inline]
    pub fn delta32(&mut self, prev: &mut u32) -> Result<u32, TraceError> {
        let d = unzigzag(self.varint_max(u64::from(u32::MAX))?) as u32;
        *prev = prev.wrapping_add(d);
        Ok(*prev)
    }

    /// Consume a length-framed column written by [`Writer::column`],
    /// returning a reader over just its bytes.
    pub fn column(&mut self) -> Result<Reader<'a>, TraceError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(TraceError::UnexpectedEof);
        }
        Ok(Reader::new(self.take(len as usize)?))
    }

    /// Consume a length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8], TraceError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(TraceError::UnexpectedEof);
        }
        self.take(len as usize)
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let b = self.blob()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| TraceError::Corrupt("invalid UTF-8 in string".into()))
    }
}

/// [`Reader::varint_max`]'s error, built off its inline path.
#[cold]
#[inline(never)]
fn exceeds(v: u64, max: u64) -> TraceError {
    TraceError::Corrupt(format!("value {v} exceeds {max}"))
}

/// Map a signed value to an unsigned one so small magnitudes of either
/// sign get short varints: 0, -1, 1, -2, ... → 0, 1, 2, 3, ...
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65_535);
        w.u32(1 << 30);
        w.u64(u64::MAX - 1);
        w.f64(-0.125);
        w.bool(true);
        w.str("hello bundle");
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_535);
        assert_eq!(r.u32().unwrap(), 1 << 30);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello bundle");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(TraceError::UnexpectedEof)));
    }

    #[test]
    fn magic_and_version_are_checked() {
        let w = Writer::with_magic(b"QTST", 3);
        let buf = w.finish();
        assert!(Reader::open(&buf, b"QTST", 3).is_ok());
        assert!(matches!(
            Reader::open(&buf, b"QOTH", 3),
            Err(TraceError::BadMagic(_))
        ));
        assert!(matches!(
            Reader::open(&buf, b"QTST", 4),
            Err(TraceError::BadVersion {
                found: 3,
                expected: 4
            })
        ));
    }

    #[test]
    fn blob_length_overrun_is_eof() {
        let mut w = Writer::new();
        w.u64(1_000_000);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.blob(), Err(TraceError::UnexpectedEof)));
    }
}
